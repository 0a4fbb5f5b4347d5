module G = Nw_graphs.Multigraph

let to_string c =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "colors %d\n" (Coloring.colors c));
  G.fold_edges
    (fun e _ _ () ->
      match Coloring.color c e with
      | Some col -> Buffer.add_string buf (Printf.sprintf "%d %d\n" e col)
      | None -> ())
    (Coloring.graph c) ();
  Buffer.contents buf

let of_string g s =
  let lines = String.split_on_char '\n' s in
  let colors = ref (-1) in
  let assignments = ref [] in
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
        | [ "colors"; k ] -> (
            match int_of_string_opt k with
            | Some k when k >= 0 && !colors < 0 -> colors := k
            | _ ->
                failwith
                  (Printf.sprintf "line %d: bad or duplicate colors header"
                     lineno))
        | [ e; c ] -> (
            match (int_of_string_opt e, int_of_string_opt c) with
            | Some e, Some c -> assignments := (lineno, e, c) :: !assignments
            | _ ->
                failwith (Printf.sprintf "line %d: malformed entry" lineno))
        | _ -> failwith (Printf.sprintf "line %d: malformed line" lineno))
    lines;
  if !colors < 0 then failwith "missing 'colors <k>' header";
  let coloring = Coloring.create g ~colors:!colors in
  List.iter
    (fun (lineno, e, c) ->
      if e < 0 || e >= G.m g then
        failwith
          (Printf.sprintf "line %d: edge id %d out of range (%d edges)" lineno
             e (G.m g));
      if c < 0 || c >= !colors then
        failwith
          (Printf.sprintf "line %d: color %d out of range (%d colors)" lineno
             c !colors);
      if Coloring.would_close_cycle coloring e c then
        invalid_arg
          (Printf.sprintf "line %d: edge %d closes a cycle in color %d" lineno
             e c);
      Coloring.set coloring e c)
    (List.rev !assignments);
  coloring

let write path c =
  let oc = open_out path in
  output_string oc (to_string c);
  close_out oc

let read path g =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  try of_string g s
  with Failure msg -> failwith (Printf.sprintf "%s: %s" path msg)
