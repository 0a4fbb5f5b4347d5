(* Bench-trajectory regression gate:

     benchdiff --base OLD/BENCH_*.json --new NEW/BENCH_*.json
       [--wall-threshold PCT] [--rounds-tolerance N]
       [--throughput-threshold PCT] [--json]

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
     throughput legs aligned by (instance, domains, edges); a record
                     with several legs for one key (the two-plane era)
                     is represented by its fastest;
                     regression when edges_per_sec <
                     base * (1 - throughput-threshold%)
     service         invalid / errors counts must not grow (a served
                     response that fails client-side validation is a
                     correctness bug, not noise); per-class p99 latency
                     is a regression when new > base *
                     (1 + service-threshold%); incremental_speedup is a
                     regression when new < base / (1 + speedup-threshold%)

   Wall-clock comparisons are skipped (with a note) when the two
   records disagree on quick/domains — the numbers are not comparable.
   Keys present on only one side are reported but never fail the gate:
   a trajectory is allowed to grow experiments. Exit 0 when clean, 1 on
   any regression, 2 on usage or parse errors. *)

module J = Nw_obs.Json_lite

type leg = {
  leg_instance : string; (* which timed pipeline; "-" on legacy records *)
  leg_domains : int;
  leg_edges : int;
  leg_eps : float;
}

let same_leg a b =
  String.equal a.leg_instance b.leg_instance
  && a.leg_domains = b.leg_domains
  && a.leg_edges = b.leg_edges

(* records from the two-data-plane era timed each (instance, domains,
   edges) once per plane; the fastest of those legs is the one a current
   record continues *)
let fastest_per_key legs =
  List.filter
    (fun l ->
      not (List.exists (fun o -> same_leg o l && o.leg_eps > l.leg_eps) legs))
    legs

type service = {
  sv_invalid : int;
  sv_errors : int;
  sv_p99 : (string * float) list; (* per request class *)
  sv_speedup : float option; (* mean batch / mean churn; null when absent *)
}

type run = {
  r_file : string;
  r_exp : string;
  r_quick : bool;
  r_domains : int;
  r_wall : float;
  r_rounds : int;
  r_conn : (string * int) list;
  r_failed : bool;
  r_legs : leg list;
  r_service : service option;
}

let usage () =
  prerr_endline
    "usage: benchdiff --base BENCH.json ... --new BENCH.json ...\n\
    \       [--wall-threshold PCT] [--rounds-tolerance N]\n\
    \       [--throughput-threshold PCT] [--service-threshold PCT]\n\
    \       [--speedup-threshold PCT] [--json]";
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
      | Some ("nw-bench/1" | "nw-bench/2") -> ()
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
            List.filter_map
              (fun f -> Option.map (fun v -> (f, v)) (jint c f))
              [ "uf_queries"; "bfs_runs"; "uf_rebuilds" ]
        | _ -> []
      in
      let service =
        match J.member "service" json with
        | Some (J.Obj _ as svc) -> (
            match (jint svc "invalid", jint svc "errors") with
            | Some inv, Some errs ->
                let p99 =
                  match J.member "latency_ms" svc with
                  | Some (J.List ls) ->
                      List.filter_map
                        (fun l ->
                          match (jstr l "class", jfloat l "p99") with
                          | Some cls, Some p -> Some (cls, p)
                          | _ -> None)
                        ls
                  | _ -> []
                in
                Some
                  {
                    sv_invalid = inv;
                    sv_errors = errs;
                    sv_p99 = p99;
                    sv_speedup = jfloat svc "incremental_speedup";
                  }
            | _ -> None)
        | _ -> None
      in
      let legs =
        match J.member "throughput" json with
        | Some (J.List ls) ->
            fastest_per_key
            @@ List.filter_map
              (fun l ->
                match
                  (jint l "domains", jint l "edges", jfloat l "edges_per_sec")
                with
                | Some d, Some e, Some eps ->
                    Some
                      {
                        leg_instance =
                          Option.value (jstr l "instance") ~default:"-";
                        leg_domains = d;
                        leg_edges = e;
                        leg_eps = eps;
                      }
                | _ -> None)
              ls
        | _ -> []
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
        r_domains = need_int "domains";
        r_wall = need_float "wall_s";
        r_rounds = need_int "charged_rounds";
        r_conn = conn;
        r_failed =
          (match J.member "failed" json with
          | None | Some J.Null -> false
          | Some _ -> true);
        r_legs = legs;
        r_service = service;
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

let compare_runs ~wall_pct ~rounds_tol ~tp_pct ~svc_pct ~spd_pct base neu =
  let rows = ref [] in
  let push r = rows := r :: !rows in
  let k = key base in
  (* wall clock: only meaningful when the run configuration matches *)
  if base.r_quick <> neu.r_quick || base.r_domains <> neu.r_domains then
    push
      {
        row_key = k;
        row_metric = "wall_s";
        row_base = base.r_wall;
        row_new = neu.r_wall;
        row_verdict = "skipped";
        row_note = "quick/domains mismatch; wall not comparable";
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
      match List.assoc_opt f neu.r_conn with
      | Some n -> exact ("connectivity." ^ f) b n
      | None -> ())
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
                Printf.sprintf "%s[%s x%d %de]" k bl.leg_instance
                  bl.leg_domains bl.leg_edges;
              row_metric = "edges_per_sec";
              row_base = bl.leg_eps;
              row_new = nl.leg_eps;
              row_verdict = (if nl.leg_eps < floor then "regression" else "ok");
              row_note = Printf.sprintf "threshold -%g%%" tp_pct;
            })
    base.r_legs;
  (match (base.r_service, neu.r_service) with
  | Some bs, Some ns ->
      (* validity counts gate exactly: a served response that fails
         client-side validation (or a daemon-side handler error) is a
         correctness bug, so growth is a regression at any magnitude *)
      let counter metric b n =
        push
          {
            row_key = k;
            row_metric = metric;
            row_base = float_of_int b;
            row_new = float_of_int n;
            row_verdict = (if n > b then "regression" else "ok");
            row_note = "must not grow";
          }
      in
      counter "service.invalid" bs.sv_invalid ns.sv_invalid;
      counter "service.errors" bs.sv_errors ns.sv_errors;
      List.iter
        (fun (cls, bp) ->
          match List.assoc_opt cls ns.sv_p99 with
          | None -> ()
          | Some np ->
              let limit = bp *. (1.0 +. (svc_pct /. 100.0)) in
              push
                {
                  row_key = Printf.sprintf "%s[%s]" k cls;
                  row_metric = "service.p99_ms";
                  row_base = bp;
                  row_new = np;
                  row_verdict = (if np > limit then "regression" else "ok");
                  row_note = Printf.sprintf "threshold +%g%%" svc_pct;
                })
        bs.sv_p99;
      (* incremental_speedup is higher-is-better: a drop past the
         threshold means churn answers stopped paying for themselves
         (e.g. the incremental path silently falling back to full
         re-decomposition) *)
      (match (bs.sv_speedup, ns.sv_speedup) with
      | Some bsp, Some nsp ->
          let floor = bsp /. (1.0 +. (spd_pct /. 100.0)) in
          push
            {
              row_key = k;
              row_metric = "service.incremental_speedup";
              row_base = bsp;
              row_new = nsp;
              row_verdict = (if nsp < floor then "regression" else "ok");
              row_note = Printf.sprintf "threshold -/%g%%" spd_pct;
            }
      | _ -> ())
  | _ -> ());
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
  and svc_pct = ref 75.0
  and spd_pct = ref 50.0
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
    | "--service-threshold" :: v :: rest ->
        let f, rest = float_arg "--service-threshold" v rest in
        svc_pct := f;
        parse side rest
    | "--speedup-threshold" :: v :: rest ->
        let f, rest = float_arg "--speedup-threshold" v rest in
        spd_pct := f;
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
      (List.rev files)
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
                ~tp_pct:!tp_pct ~svc_pct:!svc_pct ~spd_pct:!spd_pct b n
      | None -> unmatched := (k, "base-only") :: !unmatched)
    base_ix;
  List.iter
    (fun (k, _) ->
      if List.assoc_opt k base_ix = None then
        unmatched := (k, "new-only") :: !unmatched)
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
