(* Shared toolkit for the experiment harness: fixed-seed RNGs, table
   rendering, and verified-measurement helpers. Every number printed by an
   experiment is produced after the corresponding output passed the
   Nw_decomp.Verify checkers, so the tables cannot report invalid
   decompositions. *)

module G = Nw_graphs.Multigraph
module Gen = Nw_graphs.Generators
module Rounds = Nw_localsim.Rounds
module Coloring = Nw_decomp.Coloring
module Palette = Nw_decomp.Palette
module Verify = Nw_decomp.Verify

let rng seed = Random.State.make [| seed; 0xbead |]

(* ------------------------------------------------------------------ *)
(* core counts for the env stamp                                       *)
(* ------------------------------------------------------------------ *)

(* The CPUs this process may run on, as `nproc` reports them (None when
   the command is unavailable), and the runtime's recommended domain
   count: a timing is read against both. Rendered as the two env
   fields "nproc" (number or null) and "recommended_domain_count", one
   per line at the env object's indentation. *)
let core_counts_json () =
  let nproc =
    try
      let ic = Unix.open_process_in "nproc 2>/dev/null" in
      let line =
        try int_of_string_opt (String.trim (input_line ic))
        with End_of_file -> None
      in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, Some k -> string_of_int k
      | _ -> "null"
    with Unix.Unix_error _ | Sys_error _ -> "null"
  in
  Printf.sprintf "\"nproc\": %s,\n    \"recommended_domain_count\": %d" nproc
    (Domain.recommended_domain_count ())

(* ------------------------------------------------------------------ *)
(* output                                                              *)
(* ------------------------------------------------------------------ *)

let out = Printf.printf
let flush_out () = flush stdout

(* ------------------------------------------------------------------ *)
(* table rendering                                                     *)
(* ------------------------------------------------------------------ *)

(* when set (--csv DIR), every table is also written as DIR/<slug>.csv *)
let csv_dir : string option ref = ref None

(* set by the harness under --json: experiments that persist their own
   record (exp_scaling's BENCH_scaling.json) key off this *)
let json_enabled = ref false

let csv_slug title =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> Char.lowercase_ascii c
      | _ -> '_')
    title

let write_csv ~title ~header ~rows =
  match !csv_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (csv_slug title ^ ".csv") in
      let oc = open_out path in
      let quote cell =
        if String.exists (fun c -> c = ',' || c = '"') cell then
          "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
        else cell
      in
      List.iter
        (fun row ->
          output_string oc (String.concat "," (List.map quote row));
          output_char oc '\n')
        (header :: rows);
      close_out oc

let hrule widths =
  String.concat "-+-" (List.map (fun w -> String.make w '-') widths)

let render_row widths cells =
  String.concat " | "
    (List.map2
       (fun w c ->
         if String.length c >= w then c
         else c ^ String.make (w - String.length c) ' ')
       widths cells)

let table ~title ~header ~rows =
  let all = header :: rows in
  let columns = List.length header in
  let widths =
    List.init columns (fun i ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          0 all)
  in
  out "\n== %s ==\n" title;
  out "%s\n" (render_row widths header);
  out "%s\n" (hrule widths);
  List.iter (fun row -> out "%s\n" (render_row widths row)) rows;
  write_csv ~title ~header ~rows;
  flush_out ()

let note fmt = Printf.ksprintf (fun s -> print_string ("   " ^ s ^ "\n")) fmt

let section title =
  out "\n######## %s ########\n" title;
  flush_out ()

(* ------------------------------------------------------------------ *)
(* formatting                                                          *)
(* ------------------------------------------------------------------ *)

let d = string_of_int
let f1 x = Printf.sprintf "%.1f" x
let f2 x = Printf.sprintf "%.2f" x
let yes_no b = if b then "yes" else "no"

(* asserts validity and returns a printable tag; the harness aborts loudly
   if an algorithm ever produces a bad output *)
let verified report =
  match report with
  | Ok () -> "ok"
  | Error msg -> failwith ("benchmark produced an invalid output: " ^ msg)

(* ------------------------------------------------------------------ *)
(* measured decompositions                                             *)
(* ------------------------------------------------------------------ *)

type fd_measurement = {
  colors : int;
  diameter : int;
  rounds : int;
  valid : string;
}

let measure_fd ?(star = false) coloring rounds =
  let report =
    if star then Verify.star_forest_decomposition coloring
    else Verify.forest_decomposition coloring
  in
  {
    colors = Verify.colors_used coloring;
    diameter = Verify.max_forest_diameter coloring;
    rounds = Rounds.total rounds;
    valid = verified report;
  }
