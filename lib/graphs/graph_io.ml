let parse_edge_list s =
  let lines = String.split_on_char '\n' s in
  let n = ref (-1) in
  let edges = ref [] in
  List.iteri
    (fun idx line ->
      let lineno = idx + 1 in
      let line =
        match String.index_opt line '#' with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      let line = String.trim line in
      if line <> "" then
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | [ "n"; count ] -> (
            match int_of_string_opt count with
            | Some c when c >= 0 && !n < 0 -> n := c
            | Some _ ->
                failwith
                  (Printf.sprintf "line %d: duplicate or negative n" lineno)
            | None ->
                failwith (Printf.sprintf "line %d: malformed n header" lineno))
        | [ a; b ] -> (
            match (int_of_string_opt a, int_of_string_opt b) with
            | Some u, Some v when u < 0 || v < 0 ->
                failwith
                  (Printf.sprintf "line %d: negative vertex id in %S" lineno
                     line)
            | Some u, Some v when u = v ->
                failwith (Printf.sprintf "line %d: self-loop %S" lineno line)
            | Some u, Some v -> edges := (u, v) :: !edges
            | _ ->
                failwith
                  (Printf.sprintf "line %d: malformed edge %S" lineno line))
        | _ -> failwith (Printf.sprintf "line %d: malformed line %S" lineno line))
    lines;
  let edges = List.rev !edges in
  let max_vertex =
    List.fold_left (fun acc (u, v) -> max acc (max u v)) (-1) edges
  in
  let n = if !n >= 0 then !n else max_vertex + 1 in
  if max_vertex >= n then
    failwith
      (Printf.sprintf "vertex %d out of range (n = %d)" max_vertex n);
  Multigraph.of_edges n edges

let read_edge_list path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  try parse_edge_list s
  with Failure msg -> failwith (Printf.sprintf "%s: %s" path msg)

let to_edge_list g =
  let buf = Buffer.create (16 * Multigraph.m g) in
  Buffer.add_string buf (Printf.sprintf "n %d\n" (Multigraph.n g));
  Multigraph.fold_edges
    (fun _ u v () -> Buffer.add_string buf (Printf.sprintf "%d %d\n" u v))
    g ();
  Buffer.contents buf

let write_edge_list path g =
  let oc = open_out path in
  output_string oc (to_edge_list g);
  close_out oc

(* a fixed 12-color palette that stays readable in graphviz *)
let dot_palette =
  [|
    "#e6194b"; "#3cb44b"; "#4363d8"; "#f58231"; "#911eb4"; "#46f0f0";
    "#f032e6"; "#bcf60c"; "#008080"; "#9a6324"; "#800000"; "#808000";
  |]

let to_dot g ~edge_color =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "graph g {\n  node [shape=circle, fontsize=10];\n";
  Multigraph.fold_edges
    (fun e u v () ->
      let attrs =
        match edge_color e with
        | None -> ""
        | Some c ->
            Printf.sprintf " [color=\"%s\", label=\"%d\", fontsize=8]"
              dot_palette.(c mod Array.length dot_palette)
              c
      in
      Buffer.add_string buf (Printf.sprintf "  %d -- %d%s;\n" u v attrs))
    g ();
  Buffer.add_string buf "}\n";
  Buffer.contents buf
