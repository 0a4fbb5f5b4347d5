(* Perf smoke test: the per-color root-labelled forests' connectivity
   answers vs the bidirectional-BFS oracle they replaced, on the two
   families the paper leans on (forest-union multigraphs, Prop C.1 line
   multigraphs).

   Two workloads per family and size:
   - static:  connectivity queries against a fixed greedy forest
     decomposition — the Augmenting.search / would_close_cycle hot path;
   - churn:   unset + query + recolor per step — exercises the subtree
     repair each deletion runs and the re-hang each insertion runs.

   Run:        dune exec bench/perf_smoke.exe
   Fast gate:  dune exec bench/perf_smoke.exe -- --fast
               (also wired into `dune build @perf-smoke`)
   The data-plane leg runs the H-partition peel twice — through the
   streaming counting round and through the per-message round — and
   requires identical layers and a throughput sanity floor.
   The allocation leg runs Algorithm 2's augmenting phase
   (Forest_algo.partial_color) and bounds the minor-heap words per
   augment call; the path-walk leg bounds, in the same run, the C(e, c)
   edges walked per augment call (Coloring.Counters.path_edges). The
   churn leg serves edge inserts and deletes on a
   20000-vertex Session, bounds the bytes allocated and the forest
   vertices repaired per update, requires no per-color forest rebuild,
   and prints the time per update. The
   alpha leg counts the matroid partitions a served decompose with alpha
   omitted runs on the same session shape. The Cole-Vishkin leg bounds
   the minor words of one fault-free three_color_forests run on the
   star-forest stage's input, and the star-forest leg the major words of
   one whole star_forest_decomposition on it. The emission leg requires
   that four emitters of finished decompositions count no connectivity
   query and no forest allocation. The net-decomposition leg bounds the
   minor words of one Net_decomp.compute on a graph with isolated
   vertices. The heap leg serves 200
   decompose batches through Server.handle with Obs on and bounds the
   growth of the live heap.

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
  f () (* warm up: faults in pages, allocates each color's forest *);
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    f ()
  done;
  let t1 = Unix.gettimeofday () in
  (t1 -. t0) *. 1e9 /. float_of_int reps

let wall_table ~fast cs =
  let reps = if fast then 3 else 10 in
  Printf.printf
    "\n== connectivity: root labels vs BFS oracle (ns per query, %d \
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

(* ------------------------------------------------------------------ *)
(* allocation and path-walk legs: words and path edges per augment     *)
(* ------------------------------------------------------------------ *)

module FA = Nw_core.Forest_algo
module Engine = Nw_engine.Engine
module Obs = Nw_obs.Obs

(* The augmenting phase of the `augment` entry on forest_union n=2000
   alpha=8 — the engine's `partial` pipeline (plan, network
   decomposition, Forest_algo.partial_color): one Algorithm 1 search per
   edge, walking C(e, c) in place. Search, short-circuit and apply
   allocate a few small records and lists per call; more than [limit]
   words per call means something on the per-call path went back to
   building paths or tables. Minor words are deterministic for a fixed
   input, so the gate cannot flake. The call count comes from a second,
   traced run (tracing allocates, so it is not the measured one).
   Every search on this input ends in Algorithm 1's first iteration at a
   free color, which reads no path edge. A search that walked each
   C(start, c) before its first free color walked 183 path edges per
   call here, and one that read only their end edges 7.00, which made
   nwbench fd-augment's decompose_s 89% slower than reading none.
   [path_limit] per call is room for a few searches that go further,
   deterministic like the words. *)
let augment_alloc_check () =
  let limit = 300.0 and path_limit = 2.0 in
  let n = 2000 and alpha = 8 and epsilon = 0.5 in
  let g = Gen.forest_union (rng n) n alpha in
  let cut = Nw_core.Cut.Depth_mod in
  let eps', palette, radii = FA.fd_plan g ~epsilon ~alpha ~cut ~radii:None in
  let pipeline =
    Nw_engine.Pipelines.partial g palette ~epsilon:eps' ~alpha ~cut ~radii
  in
  let run () =
    let ctx =
      Engine.ctx ~rng:(Random.State.make [| 7 |])
        ~rounds:(Nw_localsim.Rounds.create ())
    in
    let init =
      Nw_engine.Store.put Nw_engine.Store.empty "graph"
        (Nw_engine.Artifact.Graph g)
    in
    let p0 = (Coloring.Counters.snapshot ()).path_edges in
    let w0 = Gc.minor_words () in
    ignore (Engine.run ctx pipeline ~init);
    let words = Gc.minor_words () -. w0 in
    (words, (Coloring.Counters.snapshot ()).path_edges - p0)
  in
  let words, path_edges = run () in
  Obs.set_enabled true;
  let _, trace = Obs.collect run in
  Obs.set_enabled false;
  let calls =
    Option.value ~default:0 (List.assoc_opt "augment.calls" (Obs.counters trace))
  in
  let per_call = words /. float_of_int (max 1 calls) in
  Printf.printf
    "\n== allocation: partial pipeline, n=%d m=%d alpha=%d ==\n\
     %d augment calls, %.0f minor words, %.1f words/call (limit %.0f)\n"
    n (G.m g) alpha calls words per_call limit;
  if calls = 0 || per_call > limit then begin
    Printf.eprintf
      "perf smoke: %.1f minor words per augment call exceeds %.0f\n" per_call
      limit;
    exit 1
  end;
  let edges_per_call = float_of_int path_edges /. float_of_int calls in
  Printf.printf
    "\n== path walks: partial pipeline, same run ==\n\
     %d path edges walked, %.2f per augment call (limit %.0f)\n"
    path_edges edges_per_call path_limit;
  if edges_per_call > path_limit then begin
    Printf.eprintf
      "perf smoke: %.2f path edges walked per augment call exceeds %.0f\n"
      edges_per_call path_limit;
    exit 1
  end;
  flush stdout

(* ------------------------------------------------------------------ *)
(* churn leg: bytes, rebuilds and repairs per served edge update      *)
(* ------------------------------------------------------------------ *)

module Session = Nw_service.Session

(* A session the size of nwbench serve-churn (forest_union n=20000
   alpha=3, m = 59997) decomposed by the exact entry, one insert that
   falls back and widens the palette (as the first serve-churn insert
   does), then 1000 rounds of a delete of a random live slot followed by
   an insert of a random pair. An update must cost O(touched): an insert
   appends the edge to the live coloring in place (amortized doubling),
   probes the palette by root labels and re-hangs the smaller tree it
   joins; a delete re-roots the subtree that lost the edge. Measured on
   a 2-core Xeon, the code before in-place churn (slot-graph rebuild
   plus a copy of the whole coloring per insert) allocated 6,109,642
   bytes per update at 7.0 ms/update; in-place churn with a lazily
   rebuilt per-color union-find allocated 10,505 bytes per update at
   0.93 ms/update and ran 971 whole-color rebuilds (all n vertices
   each) over the 1000 rounds; the rooted forests repaired in place
   allocate about 3,800 bytes and repair about 185 vertices per update
   at about 29 us/update. Three gates, each deterministic for a fixed
   input, so none can flake: bytes per update above [limit] (under 1%
   of the first figure), any per-color forest rebuild in the loop
   (allocation happens at a color's first touch, before it), or more
   than [repair_limit] vertices repaired per update (5% of n) mean some
   per-update path went back to whole-graph work. A fallback inside the
   measured loop would re-run the decomposition and measure that
   instead, so the leg requires none. *)
let churn_alloc_check () =
  let limit = 40_000.0 and repair_limit = 1_000.0 in
  let n = 20_000 and alpha = 3 and ops = 1000 in
  let st = rng n in
  let g = Gen.forest_union st n alpha in
  let m0 = G.m g in
  let s =
    Session.create ~name:"perf-smoke" ~n ~edges:(Array.to_list (G.edges g))
  in
  let entry = Option.get (Nw_engine.Registry.find "exact") in
  (match Session.decompose s ~entry ~epsilon:0.5 ~seed:7 ~alpha:None with
  | Ok _ -> ()
  | Error e ->
      Printf.eprintf "perf smoke: churn leg decompose failed: %s\n" e;
      exit 1);
  (* live slots, for uniform random deletes *)
  let live = Array.make (m0 + ops + 1) 0 and live_n = ref m0 in
  Array.iteri (fun i _ -> live.(i) <- i) (Array.sub live 0 m0);
  let churn r =
    match r with Ok _ -> () | Error e -> failwith ("churn leg: " ^ e)
  in
  let insert () =
    let u = Random.State.int st n in
    let v = (u + 1 + Random.State.int st (n - 1)) mod n in
    live.(!live_n) <- Session.total_slots s;
    incr live_n;
    churn (Session.insert_edge s ~u ~v)
  in
  (* m0 + 1 edges force arboricity alpha + 1: this first insert is the
     one fallback, which widens the palette, as in nwbench serve-churn *)
  insert ();
  let fallbacks0 = Session.fallbacks s in
  let k0 = Coloring.Counters.snapshot () in
  let b0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to ops do
    let i = Random.State.int st !live_n in
    churn (Session.delete_edge s ~edge:live.(i));
    decr live_n;
    live.(i) <- live.(!live_n);
    insert ()
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let per_op = (Gc.allocated_bytes () -. b0) /. float_of_int (2 * ops) in
  let k1 = Coloring.Counters.snapshot () in
  let rebuilds = k1.uf_rebuilds - k0.uf_rebuilds in
  let repaired =
    float_of_int (k1.repair_vertices - k0.repair_vertices)
    /. float_of_int (2 * ops)
  in
  Printf.printf
    "\n== churn: served edge updates, n=%d m=%d alpha=%d ==\n\
     %d inserts + %d deletes, %.0f bytes/update (limit %.0f), %.1f us/update, \
     %d fallbacks\n\
     %d forest rebuilds (limit 0), %.1f vertices repaired/update (limit %.0f)\n"
    n m0 alpha ops ops per_op limit
    (wall *. 1e6 /. float_of_int (2 * ops))
    (Session.fallbacks s - fallbacks0)
    rebuilds repaired repair_limit;
  if Session.fallbacks s > fallbacks0 then begin
    Printf.eprintf "perf smoke: churn leg fell back %d times\n"
      (Session.fallbacks s - fallbacks0);
    exit 1
  end;
  if per_op > limit then begin
    Printf.eprintf "perf smoke: %.0f bytes allocated per churn update \
                    exceeds %.0f\n" per_op limit;
    exit 1
  end;
  if rebuilds > 0 then begin
    Printf.eprintf "perf smoke: %d per-color forest rebuilds in the churn \
                    loop (limit 0)\n" rebuilds;
    exit 1
  end;
  if repaired > repair_limit then begin
    Printf.eprintf "perf smoke: %.1f vertices repaired per churn update \
                    exceeds %.0f\n" repaired repair_limit;
    exit 1
  end;
  flush stdout

(* ------------------------------------------------------------------ *)
(* alpha leg: matroid partitions per served decompose with alpha omitted *)
(* ------------------------------------------------------------------ *)

(* The serve-churn session shape: forest_union n=20000 alpha=3
   (m = 3(n-1), so the density bound is 3 and the degeneracy 4), and the
   same graph plus one edge (density bound 4 = degeneracy). An augment
   decompose with alpha omitted resolves alpha by the Nash-Williams
   sandwich: no partition when the bounds meet, one at the density bound
   when alpha equals it. A binary search from the degeneracy runs 2 and
   1. Each partition is a "baseline.gabow_westermann" span; the count is
   deterministic, so the gate is on it, not on time. *)
let alpha_resolution_check () =
  let n = 20_000 and alpha = 3 in
  let g = Gen.forest_union (rng n) n alpha in
  let entry = Option.get (Nw_engine.Registry.find "augment") in
  let partitions label ~extra ~limit =
    let edges = Array.to_list (G.edges g) @ extra in
    let s = Session.create ~name:"perf-smoke-alpha" ~n ~edges in
    Obs.set_enabled true;
    let t0 = Unix.gettimeofday () in
    let r, trace =
      Obs.collect (fun () ->
          Session.decompose s ~entry ~epsilon:0.5 ~seed:7 ~alpha:None)
    in
    let wall = Unix.gettimeofday () -. t0 in
    Obs.set_enabled false;
    let resolved =
      match r with
      | Ok { Session.d_alpha = Some a; _ } -> a
      | Ok { d_alpha = None; _ } ->
          prerr_endline "perf smoke: augment resolved no alpha";
          exit 1
      | Error e ->
          Printf.eprintf "perf smoke: alpha leg decompose failed: %s\n" e;
          exit 1
    in
    let calls =
      List.fold_left
        (fun acc (p : Obs.phase) ->
          if String.equal p.Obs.name "baseline.gabow_westermann" then
            acc + p.Obs.calls
          else acc)
        0 (Obs.phases trace)
    in
    Printf.printf
      "%-10s m=%d alpha=%d: %d partitions (limit %d), %.2f s traced\n" label
      (List.length edges) resolved calls limit wall;
    if calls > limit then begin
      Printf.eprintf
        "perf smoke: %s decompose ran %d matroid partitions, limit %d\n"
        label calls limit;
      exit 1
    end
  in
  Printf.printf
    "\n== alpha: partitions per served decompose, n=%d alpha=%d ==\n" n alpha;
  partitions "initial" ~extra:[] ~limit:1;
  partitions "plus edge" ~extra:[ (0, 1) ] ~limit:0;
  flush stdout

(* ------------------------------------------------------------------ *)
(* Cole-Vishkin leg: minor words of one fault-free multi-forest run     *)
(* ------------------------------------------------------------------ *)

module CV = Nw_core.Cole_vishkin

(* The star-forest stage's input on forest_union n=4000 alpha=8: the
   H-partition orientation split into its t rooted forests (edge forest
   index = position in the tail's out-list), as
   H_partition.star_forest_decomposition builds it. Fault-free, the
   rounds are sweeps over flat parent planes: the planes are allocated
   once and large enough to go straight to the major heap, so the minor
   words are a few closures whatever n is. More than [limit] means some
   per-vertex or per-message allocation came back into the rounds: run
   on a message net, with inbox closures per vertex per round, the same
   call allocated 900,492 minor words; the sweeps allocate 128.
   Deterministic for a fixed input. *)
let star_stage_input () =
  let n = 4000 and alpha = 8 in
  let g = Gen.forest_union (rng n) n alpha in
  let ids = Array.init n Fun.id in
  let rounds = Nw_localsim.Rounds.create () in
  let hp =
    Nw_core.H_partition.compute g ~epsilon:0.5 ~alpha_star:alpha ~rounds
  in
  (g, ids, rounds, Nw_core.H_partition.orientation g hp ~ids)

let cole_vishkin_alloc_check () =
  let limit = 1_000.0 in
  let g, ids, rounds, o = star_stage_input () in
  let n = G.n g in
  let t = max 1 (Nw_graphs.Orientation.max_out_degree o) in
  let edge_forest = Array.make (G.m g) (-1) in
  let parent_edge = Array.make (n * t) (-1) in
  for v = 0 to n - 1 do
    List.iteri
      (fun j e ->
        edge_forest.(e) <- j;
        parent_edge.((v * t) + j) <- e)
      (Nw_graphs.Orientation.out_edges o v)
  done;
  let w0 = Gc.minor_words () in
  ignore (CV.three_color_forests g ~edge_forest ~parent_edge ~t ~ids ~rounds);
  let words = Gc.minor_words () -. w0 in
  Printf.printf
    "\n== allocation: Cole-Vishkin on %d forests, n=%d m=%d ==\n\
     %.0f minor words (limit %.0f)\n"
    t n (G.m g) words limit;
  if words > limit then begin
    Printf.eprintf
      "perf smoke: fault-free Cole-Vishkin allocated %.0f minor words, \
       limit %.0f\n"
      words limit;
    exit 1
  end;
  flush stdout

(* ------------------------------------------------------------------ *)
(* star-forest leg: major words of one hp.star                          *)
(* ------------------------------------------------------------------ *)

(* One whole H_partition.star_forest_decomposition on the Cole-Vishkin
   leg's input: the forest split, Cole-Vishkin, and the emission of the
   3t star-forest colors. The colors go out as one assignment
   (Coloring.of_assignment), which allocates no per-color rooted forest
   and no adjacency list: emitted through Coloring.set instead, each
   color's first touch allocated six n-arrays, and the same call
   allocated 1,914,336 major words; with the adjacency lists still
   linked at construction (a colors x n head plane and 4m link words)
   it allocated 850,039; it now allocates 482,009. More than [limit]
   means a per-color forest, the adjacency or a per-set structure came
   back into the emission. Deterministic for a fixed input. *)
let star_forests_alloc_check () =
  let limit = 500_000 in
  let g, ids, rounds, o = star_stage_input () in
  let major () = let _, _, w = Gc.counters () in int_of_float w in
  let w0 = major () in
  let out = Nw_core.H_partition.star_forest_decomposition g o ~ids ~rounds in
  let words = major () - w0 in
  Printf.printf
    "\n== allocation: hp.star emission, %d colors, n=%d m=%d ==\n\
     %d major words (limit %d)\n"
    (Coloring.colors out) (G.n g) (G.m g) words limit;
  if words > limit then begin
    Printf.eprintf
      "perf smoke: one star_forest_decomposition allocated %d major words, \
       limit %d\n"
      words limit;
    exit 1
  end;
  flush stdout

(* ------------------------------------------------------------------ *)
(* emission leg: finished decompositions ask no connectivity question   *)
(* ------------------------------------------------------------------ *)

(* Four emitters of a finished decomposition on forest_union_simple
   n=2000 alpha=3: Theorem 2.1(3)'s forests of the H-partition
   orientation, Theorem 2.1(4)'s list forests, Theorem 2.2's greedy
   star forests and the AMR stars of the first forests. Their classes
   are forests by construction and each builds its output with
   Coloring.of_assignment, so together they must count no connectivity
   query and no per-color forest allocation. Built edge by edge through
   Coloring.set, the same calls counted 23988 queries and 34 forest
   allocations. Deterministic for a fixed input. *)
let emission_check () =
  let n = 2000 and alpha = 3 in
  let g = Gen.forest_union_simple (rng n) n alpha in
  let rounds = Nw_localsim.Rounds.create () in
  let hp =
    Nw_core.H_partition.compute g ~epsilon:0.5 ~alpha_star:alpha ~rounds
  in
  let o = Nw_core.H_partition.orientation g hp ~ids:(Array.init n Fun.id) in
  let palette = Nw_decomp.Palette.full g (4 * alpha) in
  let c0 = Coloring.Counters.snapshot () in
  let forests = Nw_core.H_partition.forests_of_orientation g o in
  ignore (Nw_core.H_partition.list_forest_decomposition g o palette ~rounds);
  ignore (Nw_core.Lsfd.greedy_degeneracy g palette);
  ignore (Nw_baseline.Amr_star.of_forest_decomposition forests);
  let c1 = Coloring.Counters.snapshot () in
  let queries = c1.uf_queries - c0.uf_queries
  and rebuilds = c1.uf_rebuilds - c0.uf_rebuilds in
  Printf.printf
    "\n== emission: 4 emitters, n=%d m=%d ==\n\
     %d connectivity queries, %d forest allocations (limit 0 each)\n"
    n (G.m g) queries rebuilds;
  if queries <> 0 || rebuilds <> 0 then begin
    Printf.eprintf
      "perf smoke: emitting finished decompositions counted %d connectivity \
       queries and %d forest allocations, limit 0\n"
      queries rebuilds;
    exit 1
  end;
  flush stdout

(* ------------------------------------------------------------------ *)
(* net-decomposition leg: minor words with isolated vertices           *)
(* ------------------------------------------------------------------ *)

(* One Net_decomp.compute at lsfd's distance 3 on forest_union_simple
   n=2000 alpha=3 plus 200 isolated vertices. The isolated vertices
   defeat the single-cluster shortcut, so the Linial-Saks phases run on
   the whole graph. Run as one BFS of G^distance per vertex, each hop
   scanning n-arrays, the call allocated 115,062,759 minor words; the
   priority-ordered search on stamped scratch allocates 1,483,143. More
   than [limit] means per-vertex work proportional to the graph came
   back. Deterministic for a fixed input and seed. *)
let net_decomp_alloc_check () =
  let limit = 5_000_000.0 in
  let n = 2000 and alpha = 3 and isolated = 200 in
  let g = Gen.forest_union_simple (rng n) n alpha in
  let g = G.of_edges (n + isolated) (Array.to_list (G.edges g)) in
  let rounds = Nw_localsim.Rounds.create () in
  let w0 = Gc.minor_words () in
  let nd = Nw_core.Net_decomp.compute g ~rng:(rng 3) ~rounds ~distance:3 in
  let words = Gc.minor_words () -. w0 in
  Printf.printf
    "\n== allocation: net decomposition, distance 3, n=%d (%d isolated) \
     m=%d ==\n\
     %d classes, %d clusters, %.0f minor words (limit %.0f)\n"
    (G.n g) isolated (G.m g) nd.Nw_core.Net_decomp.num_classes
    (Array.length nd.Nw_core.Net_decomp.clusters)
    words limit;
  if words > limit then begin
    Printf.eprintf
      "perf smoke: one net decomposition allocated %.0f minor words, limit \
       %.0f\n"
      words limit;
    exit 1
  end;
  flush stdout

(* ------------------------------------------------------------------ *)
(* heap leg: daemon memory across served batches                       *)
(* ------------------------------------------------------------------ *)

module Server = Nw_service.Server
module Wire = Nw_service.Wire

(* The daemon's setting in process: Obs on, one long-lived collection,
   requests through Server.handle. A forest_union n=2000 alpha=3 session
   plus one edge, then augment decompose batches with alpha omitted.
   Each batch records a few hundred spans (one augment.search per
   augmented edge); a daemon that kept every request's span tree held
   about 0.87 MB more per batch (43 MB live after 50 batches, 174 MB
   after 200). Folded into per-name totals, the live heap after batch
   200 stays within [limit] times the heap after batch 10; the session's
   own state is the same at both. *)
let heap_check () =
  let limit = 2.0 in
  let n = 2000 and alpha = 3 and batches = 200 in
  let g = Gen.forest_union (rng n) n alpha in
  let st = Server.create_state () in
  let next_id = ref 0 in
  let call fields =
    incr next_id;
    let resp, _ =
      Server.handle st (Wire.obj_fields (Wire.int "id" !next_id :: fields))
    in
    match Nw_obs.Json_lite.(member "ok" (parse resp)) with
    | Some (Nw_obs.Json_lite.Bool true) -> ()
    | _ ->
        Printf.eprintf "perf smoke: heap leg request failed: %s\n" resp;
        exit 1
  in
  let edges =
    Array.to_list (G.edges g)
    |> List.map (fun (u, v) -> Printf.sprintf "[%d,%d]" u v)
    |> String.concat ","
  in
  let session = Wire.str "session" "perf-smoke-heap" in
  let heap_mb () =
    Gc.full_major ();
    float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8))
    /. 1e6
  in
  Obs.set_enabled true;
  let (h10, h200), _ =
    Obs.collect (fun () ->
        call
          [ Wire.str "op" "load-graph"; session; Wire.int "n" n;
            Wire.raw "edges" ("[" ^ edges ^ "]") ];
        call [ Wire.str "op" "insert-edge"; session; Wire.int "u" 0;
               Wire.int "v" 1 ];
        let h10 = ref 0.0 in
        for b = 1 to batches do
          call [ Wire.str "op" "decompose"; session;
                 Wire.str "algorithm" "augment" ];
          if b = 10 then h10 := heap_mb ()
        done;
        (!h10, heap_mb ()))
  in
  Obs.set_enabled false;
  Printf.printf
    "\n== heap: served augment batches, n=%d m=%d alpha omitted, Obs on ==\n\
     live heap %.1f MB after batch 10, %.1f MB after batch %d \
     (limit %.1fx)\n"
    n (G.m g + 1) h10 h200 batches limit;
  if h200 > limit *. h10 then begin
    Printf.eprintf
      "perf smoke: live heap grew from %.1f MB to %.1f MB over %d batches\n"
      h10 h200 batches;
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
  augment_alloc_check ();
  churn_alloc_check ();
  alpha_resolution_check ();
  cole_vishkin_alloc_check ();
  star_forests_alloc_check ();
  emission_check ();
  net_decomp_alloc_check ();
  heap_check ();
  if not no_bechamel then bechamel_pass ~fast cs;
  Printf.printf "\nperf smoke completed.\n"
