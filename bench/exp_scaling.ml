(* E15 — round-complexity scaling: the runtime column of Table 1 as a
   sweep over n.

   Theorem 4.6 charges O(log^3 n / eps) rounds when alpha >= Ω(log n) and
   O(log^4 n / eps) when alpha >= Ω(log Δ). We run the depth-mod pipeline
   at fixed alpha and eps over growing n and print total charged rounds
   next to log^3 n and log^4 n normalizations: a shape is reproduced when
   one of the ratio columns stays roughly flat. For contrast the
   Barenboim-Elkin baseline (O(log n / eps)) is swept too. *)

open Exp_common
module FA = Nw_core.Forest_algo
module Dpool = Nw_localsim.Dpool

(* ------------------------------------------------------------------ *)
(* data-plane throughput sweep                                         *)
(* ------------------------------------------------------------------ *)

(* The same H-partition peel, on large forest-union instances (the top
   size is 10^7 edges), at each domain count. The peel is the
   message-dense inner loop of the whole pipeline: every round is an
   all-incident counting broadcast, so edges/sec here is the data plane's
   streaming rate. Every domain count must produce the byte-identical
   layer array — the sweep aborts otherwise — making the table a
   differential test that happens to be timed. *)

let throughput_domains = [ 1; 4 ]

type leg = {
  instance : string; (* which timed pipeline: "peel" or "hp-star" *)
  n : int;
  edges : int;
  domains : int;
  wall : float;
  eps : float; (* edges per second *)
}

let time_leg g ~alpha domains =
  Dpool.with_domains domains @@ fun () ->
  let rounds = Rounds.create () in
  let t0 = Unix.gettimeofday () in
  let hp =
    Nw_core.H_partition.compute g ~epsilon:1.0 ~alpha_star:alpha ~rounds
  in
  let wall = Unix.gettimeofday () -. t0 in
  (hp, wall)

let leg_rows legs =
  let baseline_of leg =
    List.find (fun l -> l.n = leg.n && l.domains = 1) legs
  in
  List.map
    (fun leg ->
      [
        d leg.n;
        d leg.edges;
        d leg.domains;
        Printf.sprintf "%.3f" leg.wall;
        Printf.sprintf "%.3e" leg.eps;
        Printf.sprintf "%.2fx" (leg.eps /. (baseline_of leg).eps);
      ])
    legs

let throughput_sweep () =
  section "E15b: data-plane throughput (H-partition peel, edges/sec)";
  let alpha = 8 in
  let legs =
    List.concat_map
      (fun n ->
        let st = rng (15000 + n) in
        let g = Gen.forest_union st n alpha in
        let m = G.m g in
        let reference = ref None in
        List.map
          (fun domains ->
            let hp, wall = time_leg g ~alpha domains in
            let layer = hp.Nw_core.H_partition.layer in
            (match !reference with
            | None -> reference := Some layer
            | Some ref_layer ->
                Array.iteri
                  (fun v l ->
                    if l <> ref_layer.(v) then
                      failwith
                        (Printf.sprintf
                           "throughput sweep: K=%d diverges from K=1 at \
                            vertex %d"
                           domains v))
                  layer);
            {
              instance = "peel";
              n;
              edges = m;
              domains;
              wall;
              eps = float_of_int m /. wall;
            })
          throughput_domains)
      [ 125_001; 1_250_001 (* m = alpha * (n - 1): 10^6 and 10^7 edges *) ]
  in
  table ~title:"H-partition peel throughput by domain count"
    ~header:[ "n"; "edges"; "domains"; "wall s"; "edges/sec"; "vs K=1" ]
    ~rows:(leg_rows legs);
  note
    "identical layer arrays were asserted across every domain count; the \
     counting round streams the packed adjacency rows.";
  legs

(* ------------------------------------------------------------------ *)
(* full-pipeline throughput sweep                                      *)
(* ------------------------------------------------------------------ *)

(* The peel sweep above times one message kernel; this one times a whole
   engine-run decomposition end to end — pass boundaries, artifact store,
   orientation build, Cole–Vishkin star-forest realization and the final
   verification all included — so edges/sec here is what a `forestd
   decompose` caller actually sees. The pipeline is the Theorem 2.1
   chain (peel -> acyclic orientation -> 3t-star-forest), whose cost is
   adjacency streaming rather than augmenting-path search. Every domain
   count must produce the byte-identical coloring. *)

let hp_star_pipeline ~alpha =
  let open Nw_engine in
  {
    Engine.pl_name = "hp-star";
    passes =
      [
        {
          Engine.name = "hp.peel";
          reads = [ ("graph", `Graph) ];
          writes = [ ("hp", `Partition) ];
          run =
            (fun ctx store ->
              let g = Store.graph store "graph" in
              let hp =
                Nw_core.H_partition.compute g ~epsilon:1.0 ~alpha_star:alpha
                  ~rounds:ctx.Engine.rounds
              in
              Store.put store "hp" (Nw_engine.Artifact.Partition hp));
        };
        {
          Engine.name = "hp.orient";
          reads = [ ("graph", `Graph); ("hp", `Partition) ];
          writes = [ ("orientation", `Orientation) ];
          run =
            (fun _ctx store ->
              let g = Store.graph store "graph" in
              let hp = Store.partition store "hp" in
              let ids = Array.init (G.n g) (fun v -> v) in
              Store.put store "orientation"
                (Nw_engine.Artifact.Orientation
                   (Nw_core.H_partition.orientation g hp ~ids)));
        };
        {
          Engine.name = "hp.star";
          reads = [ ("graph", `Graph); ("orientation", `Orientation) ];
          writes = [ ("coloring", `Coloring) ];
          run =
            (fun ctx store ->
              let g = Store.graph store "graph" in
              let o = Store.orientation store "orientation" in
              let ids = Array.init (G.n g) (fun v -> v) in
              let c =
                Nw_core.H_partition.star_forest_decomposition g o ~ids
                  ~rounds:ctx.Engine.rounds
              in
              Store.put store "coloring" (Nw_engine.Artifact.Coloring c));
        };
      ];
  }

let time_pipeline_leg g ~alpha domains =
  Dpool.with_domains domains @@ fun () ->
  let open Nw_engine in
  let rounds = Rounds.create () in
  let rng = Random.State.make [| 0x5ca1e |] in
  let t0 = Unix.gettimeofday () in
  let store =
    Engine.run
      (Engine.ctx ~rng ~rounds)
      (hp_star_pipeline ~alpha)
      ~init:(Store.put Store.empty "graph" (Nw_engine.Artifact.Graph g))
  in
  let coloring = Store.coloring store "coloring" in
  let wall = Unix.gettimeofday () -. t0 in
  (* verification is asserted but sits outside the timed window: it is
     post-hoc checking, not pipeline work *)
  verified (Verify.star_forest_decomposition coloring) |> ignore;
  (coloring, wall)

let pipeline_sweep () =
  section "E15c: full-pipeline throughput (engine-run hp-star, edges/sec)";
  let alpha = 8 in
  let legs =
    List.concat_map
      (fun n ->
        let st = rng (15000 + n) in
        let g = Gen.forest_union st n alpha in
        let m = G.m g in
        let reference = ref None in
        List.map
          (fun domains ->
            let coloring, wall = time_pipeline_leg g ~alpha domains in
            let colors = Nw_decomp.Coloring.to_array coloring in
            (match !reference with
            | None -> reference := Some colors
            | Some ref_colors ->
                if colors <> ref_colors then
                  failwith
                    (Printf.sprintf
                       "pipeline sweep: K=%d coloring diverges from K=1"
                       domains));
            {
              instance = "hp-star";
              n;
              edges = m;
              domains;
              wall;
              eps = float_of_int m /. wall;
            })
          throughput_domains)
      [ 125_001; 1_250_001 ]
  in
  table ~title:"engine-run hp-star pipeline throughput by domain count"
    ~header:[ "n"; "edges"; "domains"; "wall s"; "edges/sec"; "vs K=1" ]
    ~rows:(leg_rows legs);
  note
    "end-to-end engine walls (passes and artifact store; verification \
     asserted outside the timed window), byte-identical colorings \
     asserted across every domain count; contrast with the kernel-only \
     peel rows above.";
  legs

(* BENCH_scaling.json: a valid nw-bench/2 record whose additive
   [throughput] field persists the sweep (schema: docs/benchmarking.md;
   checked by validate_bench_json.exe). *)
let write_json legs wall_s =
  let oc = open_out "BENCH_scaling.json" in
  let leg_json l =
    Printf.sprintf
      "    { \"instance\": \"%s\", \"domains\": %d, \"n\": %d, \"edges\": \
       %d, \"wall_s\": %.6f, \"edges_per_sec\": %.1f }"
      l.instance l.domains l.n l.edges l.wall l.eps
  in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"nw-bench/2\",\n\
    \  \"exp\": \"scaling\",\n\
    \  \"desc\": \"data-plane throughput sweep (H-partition peel)\",\n\
    \  \"quick\": false,\n\
    \  \"domains\": %d,\n\
    \  \"env\": {\n\
    \    \"hostname\": \"%s\",\n\
    \    \"ocaml_version\": \"%s\",\n\
    \    \"stamped_at\": %.0f\n\
    \  },\n\
    \  \"rounds_attribution\": \"per-domain\",\n\
    \  \"counter_attribution\": \"exact\",\n\
    \  \"wall_s\": %.6f,\n\
    \  \"charged_rounds\": 0,\n\
    \  \"connectivity\": { \"uf_queries\": 0, \"bfs_runs\": 0, \"uf_rebuilds\": 0 },\n\
    \  \"throughput\": [\n%s\n  ],\n\
    \  \"phases\": null,\n\
    \  \"failed\": null\n\
     }\n"
    (List.fold_left (fun acc l -> max acc l.domains) 1 legs)
    (try Unix.gethostname () with _ -> "unknown")
    Sys.ocaml_version (Unix.time ()) wall_s
    (String.concat ",\n" (List.map leg_json legs));
  close_out oc;
  out "wrote BENCH_scaling.json\n"

let run () =
  section "E15: round scaling vs n (Theorem 4.6 runtime column)";
  let alpha = 8 and epsilon = 0.5 in
  let rows =
    List.map
      (fun n ->
        let st = rng (13000 + n) in
        let g = Gen.forest_union st n alpha in
        let rounds = Rounds.create () in
        let coloring, _ =
          Nw_engine.Run.forest_decomposition g ~epsilon ~alpha ~cut:Nw_core.Cut.Depth_mod
            ~rng:st ~rounds ()
        in
        verified (Verify.forest_decomposition coloring) |> ignore;
        let total = float_of_int (Rounds.total rounds) in
        let be_rounds = Rounds.create () in
        let alpha_star, _ = Nw_graphs.Arboricity.pseudo_arboricity g in
        let _ =
          Nw_baseline.Barenboim_elkin.decompose g ~epsilon ~alpha_star
            ~rng:st ~rounds:be_rounds
        in
        let l = log (float_of_int n) in
        [
          d n;
          d (int_of_float total);
          f1 (total /. (l ** 3.0));
          f1 (total /. (l ** 4.0));
          d (Rounds.total be_rounds);
          f2 (float_of_int (Rounds.total be_rounds) /. l);
        ])
      [ 50; 100; 200; 400; 800; 1600; 3200 ]
  in
  table
    ~title:
      (Printf.sprintf
         "total charged rounds vs n (alpha = %d, eps = %g, depth-mod cut)"
         alpha epsilon)
    ~header:
      [
        "n"; "our rounds"; "/log^3 n"; "/log^4 n"; "BE rounds"; "BE/log n";
      ]
    ~rows;
  note
    "our charges grow polylogarithmically — both normalized columns decay, \
     i.e. observed growth is even below log^3 n because the network \
     decomposition collapses to O(1) clusters on these low-diameter inputs \
     (the paper's log^3/log^4 are worst-case) — while the absolute values \
     dwarf BE's O(log n/eps): the trade Theorem 4.6 makes to reach \
     (1+eps)*alpha colors.";
  let t0 = Unix.gettimeofday () in
  let legs = throughput_sweep () in
  let legs = legs @ pipeline_sweep () in
  if !Exp_common.json_enabled then
    write_json legs (Unix.gettimeofday () -. t0)
