(* Bench-trajectory regression gate:

     benchdiff --base OLD/BENCH_*.json --new NEW/BENCH_*.json
       [--wall-threshold PCT] [--rounds-tolerance N]
       [--throughput-threshold PCT] [--json]

   A directory given on either side stands for every BENCH_*.json in it
   but BENCH_nwbench.json, nwbench's end-to-end record, which `nwbench
   compare` reads.
   Loads two sets of nw-bench records, aligns them by exp, and compares
   the trajectory-bearing metrics:

     wall_s          regression when new > base * (1 + wall-threshold%)
     charged_rounds  regression when |new - base| > rounds-tolerance
                     (charged rounds are deterministic per seed; any
                     drift is an attribution or algorithm change, not
                     noise — default tolerance 0)
     connectivity    uf_queries / bfs_runs / uf_rebuilds, same exact
                     contract as charged_rounds
     failed          regression when the new record carries a non-null
                     failure and the base does not
     throughput legs aligned by (instance, edges); regression when
                     edges_per_sec < base * (1 - throughput-threshold%)

   Records are nw-bench/3, the one shape bench/main.exe writes.
   Wall-clock comparisons are skipped (with a note) when the two
   records disagree on quick — the numbers are not comparable.
   Keys present on only one side are reported but never fail the gate:
   a trajectory is allowed to grow experiments. Exit 0 when clean, 1 on
   any regression, 2 on usage or parse errors. *)

module J = Nw_obs.Json_lite

type leg = {
  leg_instance : string; (* which timed pipeline *)
  leg_edges : int;
  leg_eps : float;
}

let same_leg a b =
  String.equal a.leg_instance b.leg_instance && a.leg_edges = b.leg_edges

type run = {
  r_file : string;
  r_exp : string;
  r_quick : bool;
  r_wall : float;
  r_rounds : int;
  r_conn : (string * int) list;
  r_failed : bool;
  r_legs : leg list;
}

let usage () =
  prerr_endline
    "usage: benchdiff --base BENCH.json|DIR ... --new BENCH.json|DIR ...\n\
    \       [--wall-threshold PCT] [--rounds-tolerance N]\n\
    \       [--throughput-threshold PCT] [--json]";
  exit 2

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("benchdiff: " ^ m); exit 2) fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      match really_input_string ic len with
      | s -> s
      (* a file shrinking between the length query and the read (e.g. a
         bench run truncated mid-write) must be a diagnostic, not a
         backtrace *)
      | exception End_of_file -> die "%s: truncated while reading" path)

let jint json field = Option.bind (J.member field json) J.to_int
let jfloat json field = Option.bind (J.member field json) J.to_float
let jstr json field = Option.bind (J.member field json) J.to_string

let load_run file =
  match J.parse (read_file file) with
  | exception J.Parse_error msg -> die "%s: invalid JSON: %s" file msg
  | exception Sys_error msg -> die "unreadable: %s" msg
  | json ->
      (match jstr json "schema" with
      | Some "nw-bench/3" -> ()
      | Some other -> die "%s: unknown schema %S" file other
      | None -> die "%s: missing schema tag" file);
      let need_int f =
        match jint json f with
        | Some v -> v
        | None -> die "%s: missing numeric field %S" file f
      in
      let need_float f =
        match jfloat json f with
        | Some v -> v
        | None -> die "%s: missing numeric field %S" file f
      in
      let conn =
        match J.member "connectivity" json with
        | Some (J.Obj _ as c) ->
            List.map
              (fun f ->
                match jint c f with
                | Some v -> (f, v)
                | None -> die "%s: missing connectivity field %S" file f)
              [ "uf_queries"; "bfs_runs"; "uf_rebuilds" ]
        | _ -> die "%s: missing field \"connectivity\"" file
      in
      let legs =
        match J.member "throughput" json with
        | None -> []
        | Some (J.List ls) ->
            List.map
              (fun l ->
                match
                  (jstr l "instance", jint l "edges", jfloat l "edges_per_sec")
                with
                | Some i, Some e, Some eps ->
                    { leg_instance = i; leg_edges = e; leg_eps = eps }
                | _ -> die "%s: malformed throughput leg" file)
              ls
        | Some _ -> die "%s: field \"throughput\" is not an array" file
      in
      {
        r_file = file;
        r_exp =
          (match jstr json "exp" with
          | Some e -> e
          | None -> die "%s: missing field \"exp\"" file);
        r_quick =
          (match J.member "quick" json with
          | Some (J.Bool b) -> b
          | _ -> false);
        r_wall = need_float "wall_s";
        r_rounds = need_int "charged_rounds";
        r_conn = conn;
        r_failed =
          (match J.member "failed" json with
          | None | Some J.Null -> false
          | Some _ -> true);
        r_legs = legs;
      }

let key r = r.r_exp

(* one comparison row of the delta table / JSON report *)
type row = {
  row_key : string;
  row_metric : string;
  row_base : float;
  row_new : float;
  row_verdict : string; (* "ok" | "regression" | "skipped" *)
  row_note : string;
}

let pct_delta base v =
  if base = 0.0 then if v = 0.0 then 0.0 else infinity
  else (v -. base) /. base *. 100.0

let compare_runs ~wall_pct ~rounds_tol ~tp_pct base neu =
  let rows = ref [] in
  let push r = rows := r :: !rows in
  let k = key base in
  (* wall clock: only meaningful when the run configuration matches *)
  if base.r_quick <> neu.r_quick then
    push
      {
        row_key = k;
        row_metric = "wall_s";
        row_base = base.r_wall;
        row_new = neu.r_wall;
        row_verdict = "skipped";
        row_note = "quick mismatch; wall not comparable";
      }
  else begin
    let limit = base.r_wall *. (1.0 +. (wall_pct /. 100.0)) in
    push
      {
        row_key = k;
        row_metric = "wall_s";
        row_base = base.r_wall;
        row_new = neu.r_wall;
        row_verdict = (if neu.r_wall > limit then "regression" else "ok");
        row_note = Printf.sprintf "threshold +%g%%" wall_pct;
      }
  end;
  let exact metric b n =
    push
      {
        row_key = k;
        row_metric = metric;
        row_base = float_of_int b;
        row_new = float_of_int n;
        row_verdict = (if abs (n - b) > rounds_tol then "regression" else "ok");
        row_note =
          (if rounds_tol = 0 then "exact" else Printf.sprintf "tolerance %d" rounds_tol);
      }
  in
  exact "charged_rounds" base.r_rounds neu.r_rounds;
  List.iter
    (fun (f, b) ->
      exact ("connectivity." ^ f) b (List.assoc f neu.r_conn))
    base.r_conn;
  if neu.r_failed && not base.r_failed then
    push
      {
        row_key = k;
        row_metric = "failed";
        row_base = 0.0;
        row_new = 1.0;
        row_verdict = "regression";
        row_note = "new record carries a failure";
      };
  List.iter
    (fun bl ->
      match List.find_opt (same_leg bl) neu.r_legs with
      | None -> ()
      | Some nl ->
          let floor = bl.leg_eps *. (1.0 -. (tp_pct /. 100.0)) in
          push
            {
              row_key =
                Printf.sprintf "%s[%s %de]" k bl.leg_instance bl.leg_edges;
              row_metric = "edges_per_sec";
              row_base = bl.leg_eps;
              row_new = nl.leg_eps;
              row_verdict = (if nl.leg_eps < floor then "regression" else "ok");
              row_note = Printf.sprintf "threshold -%g%%" tp_pct;
            })
    base.r_legs;
  List.rev !rows

let print_table rows =
  let col f = List.fold_left (fun acc r -> max acc (String.length (f r))) 0 rows in
  let fmt_v v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.6g" v
  in
  let srows =
    List.map
      (fun r ->
        ( r.row_key,
          r.row_metric,
          fmt_v r.row_base,
          fmt_v r.row_new,
          (let d = pct_delta r.row_base r.row_new in
           if Float.is_integer d && Float.abs d < 1e15 then
             Printf.sprintf "%+.0f%%" d
           else Printf.sprintf "%+.1f%%" d),
          (if String.equal r.row_verdict "regression" then "REGRESSION"
           else r.row_verdict) ))
      rows
  in
  let w1 = max 6 (col (fun r -> r.row_key))
  and w2 = max 6 (col (fun r -> r.row_metric)) in
  let w3 =
    List.fold_left (fun a (_, _, b, _, _, _) -> max a (String.length b)) 4 srows
  and w4 =
    List.fold_left (fun a (_, _, _, n, _, _) -> max a (String.length n)) 3 srows
  and w5 =
    List.fold_left (fun a (_, _, _, _, d, _) -> max a (String.length d)) 5 srows
  in
  Printf.printf "%-*s  %-*s  %*s  %*s  %*s  %s\n" w1 "key" w2 "metric" w3
    "base" w4 "new" w5 "delta" "verdict";
  List.iter
    (fun (k, m, b, n, d, v) ->
      Printf.printf "%-*s  %-*s  %*s  %*s  %*s  %s\n" w1 k w2 m w3 b w4 n w5 d
        v)
    srows

let print_json ~regressions ~compared rows =
  let b = Buffer.create 4096 in
  let str = J.Emit.string in
  Buffer.add_string b
    (Printf.sprintf
       "{\"schema\":\"nw-benchdiff/1\",\"regressions\":%d,\"compared\":%d,\"rows\":["
       regressions compared);
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "{\"key\":";
      str b r.row_key;
      Buffer.add_string b ",\"metric\":";
      str b r.row_metric;
      Buffer.add_string b
        (Printf.sprintf ",\"base\":%.17g,\"new\":%.17g,\"verdict\":" r.row_base
           r.row_new);
      str b r.row_verdict;
      Buffer.add_string b ",\"note\":";
      str b r.row_note;
      Buffer.add_char b '}')
    rows;
  Buffer.add_string b "]}\n";
  print_string (Buffer.contents b)

let main () =
  let base_files = ref [] and new_files = ref [] in
  let wall_pct = ref 30.0
  and rounds_tol = ref 0
  and tp_pct = ref 30.0
  and json_out = ref false in
  let float_arg name v rest =
    match (float_of_string_opt v, rest) with
    | Some f, rest when f >= 0.0 -> (f, rest)
    | _ -> die "%s expects a nonnegative number" name
  in
  let rec parse side = function
    | [] -> ()
    | "--base" :: rest -> parse `Base rest
    | "--new" :: rest -> parse `New rest
    | "--json" :: rest ->
        json_out := true;
        parse side rest
    | "--wall-threshold" :: v :: rest ->
        let f, rest = float_arg "--wall-threshold" v rest in
        wall_pct := f;
        parse side rest
    | "--throughput-threshold" :: v :: rest ->
        let f, rest = float_arg "--throughput-threshold" v rest in
        tp_pct := f;
        parse side rest
    | "--rounds-tolerance" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n >= 0 ->
            rounds_tol := n;
            parse side rest
        | _ -> die "--rounds-tolerance expects a nonnegative integer")
    | arg :: _ when String.length arg > 2 && String.sub arg 0 2 = "--" ->
        die "unknown option %s" arg
    | file :: rest -> (
        match side with
        | `None -> usage ()
        | `Base ->
            base_files := file :: !base_files;
            parse side rest
        | `New ->
            new_files := file :: !new_files;
            parse side rest)
  in
  parse `None (List.tl (Array.to_list Sys.argv));
  if !base_files = [] || !new_files = [] then usage ();
  let expand path =
    if not (Sys.is_directory path) then [ path ]
    else
      match
        Sys.readdir path |> Array.to_list
        |> List.filter (fun f ->
               String.starts_with ~prefix:"BENCH_" f
               && Filename.check_suffix f ".json"
               && f <> "BENCH_nwbench.json")
        |> List.sort String.compare
      with
      | [] -> die "%s: no BENCH_*.json in directory" path
      | fs -> List.map (Filename.concat path) fs
  in
  (* one record per exp on each side: a second one could only be
     aligned by guessing *)
  let index files =
    List.fold_left
      (fun acc f ->
        let r = load_run f in
        (match List.assoc_opt (key r) acc with
        | Some prev ->
            die "%s and %s both record exp %S" prev.r_file f (key r)
        | None -> ());
        (key r, r) :: acc)
      []
      (List.concat_map expand (List.rev files))
  in
  let base_ix = index !base_files and new_ix = index !new_files in
  let rows = ref [] and unmatched = ref [] in
  List.iter
    (fun (k, b) ->
      match List.assoc_opt k new_ix with
      | Some n ->
          rows :=
            !rows
            @ compare_runs ~wall_pct:!wall_pct ~rounds_tol:!rounds_tol
                ~tp_pct:!tp_pct b n
      | None -> unmatched := (k, "base") :: !unmatched)
    base_ix;
  List.iter
    (fun (k, _) ->
      if List.assoc_opt k base_ix = None then
        unmatched := (k, "new") :: !unmatched)
    new_ix;
  let rows = !rows in
  let regressions =
    List.length (List.filter (fun r -> String.equal r.row_verdict "regression") rows)
  in
  if !json_out then print_json ~regressions ~compared:(List.length rows) rows
  else begin
    print_table rows;
    List.iter
      (fun (k, side) -> Printf.printf "note: %s present on %s side only\n" k side)
      (List.rev !unmatched);
    Printf.printf "benchdiff: %d row%s compared, %d regression%s\n"
      (List.length rows)
      (if List.length rows = 1 then "" else "s")
      regressions
      (if regressions = 1 then "" else "s")
  end;
  if regressions > 0 then exit 1

(* exit protocol: 0 clean, 1 regression, 2 anything wrong with the tool
   or its inputs — CI must be able to tell "gate tripped" from "gate
   broke", so no code path may escape as a raw exception *)
let () =
  try main () with
  | Sys_error msg -> die "%s" msg
  | exn -> die "internal error: %s" (Printexc.to_string exn)
