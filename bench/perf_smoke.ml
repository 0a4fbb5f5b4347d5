(* Perf smoke test: the incremental per-color union-find connectivity
   cache vs the bidirectional-BFS oracle it replaced, on the two families
   the paper leans on (forest-union multigraphs, Prop C.1 line
   multigraphs).

   Two workloads per family and size:
   - static:  connectivity queries against a fixed greedy forest
     decomposition — the Augmenting.search / would_close_cycle hot path;
   - churn:   unset + query + recolor per step — exercises the generation
     counter and the lazy per-color rebuild that deletions trigger.

   Run:        dune exec bench/perf_smoke.exe
   Fast gate:  dune exec bench/perf_smoke.exe -- --fast
               (also wired into `dune build @perf-smoke`)
   The data-plane leg runs the H-partition peel twice — through the
   streaming counting round and through the per-message round — and
   requires identical layers and a throughput sanity floor.

   Prints a wall-clock ns/query table with the cached/BFS speedup, then a
   Bechamel pass over the same kernels for statistically robust per-run
   estimates. *)

module G = Nw_graphs.Multigraph
module Gen = Nw_graphs.Generators
module Coloring = Nw_decomp.Coloring
module Greedy = Nw_baseline.Greedy_forest

let rng seed = Random.State.make [| seed; 0x5eed |]

type case = {
  label : string;
  coloring : Coloring.t;
  (* presampled (edge, color) query mix, identical for both predicates *)
  qs : (int * int) array;
}

let make_case label g =
  let coloring = Greedy.greedy g in
  let st = rng (Hashtbl.hash label) in
  let m = G.m g and k = Coloring.colors coloring in
  let qs =
    Array.init 1024 (fun _ ->
        (Random.State.int st m, Random.State.int st k))
  in
  { label; coloring; qs }

let cases ~fast =
  let forest n = Gen.forest_union (rng n) n 4 in
  let line n = Gen.line_multigraph n 5 in
  let sizes_f = if fast then [ 200; 800 ] else [ 200; 800; 3200 ] in
  let sizes_l = if fast then [ 60; 240 ] else [ 60; 240; 960 ] in
  List.map
    (fun n -> make_case (Printf.sprintf "forest-union n=%d a=4" n) (forest n))
    sizes_f
  @ List.map
      (fun n -> make_case (Printf.sprintf "line-multi n=%dx5" n) (line n))
      sizes_l

(* the two static predicates over the presampled query mix *)
let static_cached c () =
  Array.iter
    (fun (e, col) -> ignore (Coloring.would_close_cycle c.coloring e col))
    c.qs

let static_bfs c () =
  Array.iter
    (fun (e, col) ->
      ignore (Coloring.oracle_would_close_cycle c.coloring e col))
    c.qs

(* deletion churn: drop a colored edge, query it, put it back *)
let churn predicate c () =
  Array.iter
    (fun (e, col) ->
      match Coloring.color c.coloring e with
      | None -> ignore (predicate c.coloring e col)
      | Some own ->
          Coloring.unset c.coloring e;
          ignore (predicate c.coloring e col);
          Coloring.set c.coloring e own)
    c.qs

let churn_cached c = churn Coloring.would_close_cycle c
let churn_bfs c = churn Coloring.oracle_would_close_cycle c

(* ------------------------------------------------------------------ *)
(* wall-clock table                                                    *)
(* ------------------------------------------------------------------ *)

let time_ns reps f =
  f () (* warm up: faults in pages, triggers lazy rebuilds *);
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    f ()
  done;
  let t1 = Unix.gettimeofday () in
  (t1 -. t0) *. 1e9 /. float_of_int reps

let wall_table ~fast cs =
  let reps = if fast then 3 else 10 in
  Printf.printf
    "\n== connectivity: cached union-find vs BFS oracle (ns per query, %d \
     reps of 1024 queries) ==\n"
    reps;
  Printf.printf "%-24s %12s %12s %9s %12s %12s %9s\n" "instance" "static-uf"
    "static-bfs" "speedup" "churn-uf" "churn-bfs" "speedup";
  List.iter
    (fun c ->
      let q = float_of_int (Array.length c.qs) in
      let su = time_ns reps (static_cached c) /. q in
      let sb = time_ns reps (static_bfs c) /. q in
      let cu = time_ns reps (churn_cached c) /. q in
      let cb = time_ns reps (churn_bfs c) /. q in
      Printf.printf "%-24s %12.0f %12.0f %8.1fx %12.0f %12.0f %8.1fx\n"
        c.label su sb (sb /. su) cu cb (cb /. cu))
    cs;
  flush stdout

(* ------------------------------------------------------------------ *)
(* bechamel pass                                                       *)
(* ------------------------------------------------------------------ *)

let bechamel_pass ~fast cs =
  let open Bechamel in
  let tests =
    List.concat_map
      (fun c ->
        [
          Test.make ~name:("static-uf:" ^ c.label)
            (Staged.stage (static_cached c));
          Test.make ~name:("static-bfs:" ^ c.label)
            (Staged.stage (static_bfs c));
        ])
      cs
  in
  let test = Test.make_grouped ~name:"connectivity" ~fmt:"%s %s" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let quota = if fast then Time.second 0.05 else Time.second 0.25 in
  let cfg = Benchmark.cfg ~limit:200 ~quota ~stabilize:false () in
  let raw = Benchmark.all cfg instances test in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let nanos =
        match Analyze.OLS.estimates ols_result with
        | Some (t :: _) -> Printf.sprintf "%.0f" t
        | _ -> "-"
      in
      rows := (name, nanos) :: !rows)
    results;
  Printf.printf "\n== bechamel (ns per 1024-query batch) ==\n";
  List.iter
    (fun (name, nanos) -> Printf.printf "%-56s %s\n" name nanos)
    (List.sort compare !rows);
  flush stdout

(* ------------------------------------------------------------------ *)
(* data-plane leg: streaming vs per-message peel                       *)
(* ------------------------------------------------------------------ *)

module Net = Nw_localsim.Msg_net

(* The H-partition peel as a per-message protocol: every deciding vertex
   sends one explicit message per incident edge through [Net.round], and
   [recv] counts its inbox. This is what [Net.round_count] computes
   without materializing messages, so the two peels must assign
   identical layers. *)
let reference_peel g ~epsilon ~alpha_star =
  let threshold =
    int_of_float (floor ((2.0 +. epsilon) *. float_of_int alpha_star))
  in
  let net =
    Net.create g ~rounds:(Nw_localsim.Rounds.create ()) ~init:(fun v ->
        (-1, G.degree g v))
  in
  let live (layer, deg) = layer = -1 && deg <= threshold in
  let i = ref 0 in
  while Array.exists (fun (layer, _) -> layer < 0) (Net.states net) do
    let round_no = !i in
    Net.round net ~label:"reference/peel"
      ~send:(fun v st ->
        if live st then
          List.rev (G.fold_incident g v ~init:[] (fun acc _ e -> (e, ()) :: acc))
        else [])
      ~recv:(fun _ ((layer, deg) as st) msgs ->
        let layer = if live st then round_no else layer in
        (layer, deg - List.length msgs));
    incr i
  done;
  Array.map fst (Net.states net)

(* Differential first (identical layer arrays or exit 1), then a loose
   throughput floor: the streaming peel may not run slower than a fifth
   of the per-message rate. The floor is deliberately far below the
   expected win so a noisy CI box cannot flake it, while a streaming
   round that silently fell off the zero-allocation path (or a merge bug
   that degrades to quadratic) still trips it. *)
let data_plane_check ~fast =
  let alpha = 4 in
  let n = if fast then 20_001 else 200_001 in
  let g = Gen.forest_union (rng 42) n alpha in
  let m = G.m g in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let x = f () in
    (x, Unix.gettimeofday () -. t0)
  in
  let stream_layer, stream_wall =
    timed (fun () ->
        let rounds = Nw_localsim.Rounds.create () in
        (Nw_core.H_partition.compute g ~epsilon:1.0 ~alpha_star:alpha ~rounds)
          .Nw_core.H_partition.layer)
  in
  let ref_layer, ref_wall =
    timed (fun () -> reference_peel g ~epsilon:1.0 ~alpha_star:alpha)
  in
  Array.iteri
    (fun v l ->
      if l <> ref_layer.(v) then begin
        Printf.eprintf
          "perf smoke: streaming H-partition diverges from the per-message \
           peel at vertex %d (%d vs %d)\n"
          v l ref_layer.(v);
        exit 1
      end)
    stream_layer;
  let rate wall = float_of_int m /. wall in
  let ratio = rate stream_wall /. rate ref_wall in
  Printf.printf
    "\n== data plane: H-partition peel, n=%d m=%d ==\n\
     per-message  %8.1f ms  %.3e edges/sec\n\
     streaming    %8.1f ms  %.3e edges/sec  (%.2fx, layers identical)\n"
    n m (ref_wall *. 1e3) (rate ref_wall) (stream_wall *. 1e3)
    (rate stream_wall) ratio;
  if ratio < 0.2 then begin
    Printf.eprintf
      "perf smoke: streaming throughput sanity floor violated (%.2fx < \
       0.2x per-message)\n"
      ratio;
    exit 1
  end;
  flush stdout

let () =
  let fast = Array.exists (( = ) "--fast") Sys.argv in
  let no_bechamel = Array.exists (( = ) "--no-bechamel") Sys.argv in
  Printf.printf "perf smoke: connectivity cache vs BFS oracle%s\n"
    (if fast then " (fast mode)" else "");
  let cs = cases ~fast in
  wall_table ~fast cs;
  data_plane_check ~fast;
  if not no_bechamel then bechamel_pass ~fast cs;
  Printf.printf "\nperf smoke completed.\n"
