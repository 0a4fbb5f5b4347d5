(* Cross-cutting randomized properties over the whole stack: every
   algorithm, fed random instances, must produce verifier-clean outputs
   with the advertised resource bounds. *)

module G = Nw_graphs.Multigraph
module Gen = Nw_graphs.Generators
module O = Nw_graphs.Orientation
module Arb = Nw_graphs.Arboricity
module Io = Nw_graphs.Graph_io
module Rounds = Nw_localsim.Rounds
module Coloring = Nw_decomp.Coloring
module Palette = Nw_decomp.Palette
module Verify = Nw_decomp.Verify
module ND = Nw_core.Net_decomp

let rng seed = Random.State.make [| seed; 0xcafe |]

let prop_io_roundtrip =
  QCheck.Test.make ~name:"edge-list roundtrip preserves the graph" ~count:100
    (QCheck.int_bound 100000)
    (fun seed ->
      let st = rng seed in
      let n = 1 + Random.State.int st 40 in
      let g = Gen.erdos_renyi st n 0.2 in
      let g' = Io.parse_edge_list (Io.to_edge_list g) in
      G.n g = G.n g' && G.edges g = G.edges g')

let prop_net_decomp_valid =
  QCheck.Test.make ~name:"network decomposition valid at distances 1..3"
    ~count:40 (QCheck.int_bound 100000)
    (fun seed ->
      let st = rng seed in
      let n = 10 + Random.State.int st 50 in
      let g = Gen.erdos_renyi st n 0.08 in
      let distance = 1 + Random.State.int st 3 in
      let rounds = Rounds.create () in
      let nd = ND.compute g ~rng:st ~rounds ~distance in
      ND.check_valid g ~distance nd = Ok ())

(* the pruned, priority-ordered Linial-Saks search equals one unpruned
   BFS per vertex (Oracle.net_decomp) on multigraphs with isolated
   vertices, which force several phases and defeat the shortcut *)
let prop_net_decomp_oracle =
  QCheck.Test.make ~name:"network decomposition = per-vertex BFS oracle"
    ~count:300 (QCheck.int_bound 100000)
    (fun seed ->
      let st = rng seed in
      let n = 1 + Random.State.int st 40 in
      let isolated = Array.make n false in
      for _ = 1 to Random.State.int st 10 do
        isolated.(Random.State.int st n) <- true
      done;
      let active = List.filter (fun v -> not isolated.(v)) (List.init n Fun.id) in
      let active = Array.of_list active in
      let edges =
        if Array.length active < 2 then []
        else
          List.filter_map
            (fun _ ->
              let u = active.(Random.State.int st (Array.length active))
              and v = active.(Random.State.int st (Array.length active)) in
              if u = v then None else Some (u, v))
            (List.init (Random.State.int st (3 * n)) Fun.id)
      in
      let g = G.of_edges n edges in
      let distance =
        if Random.State.int st 5 = 0 then 2 * n else 1 + Random.State.int st 4
      in
      let seed_state = Random.State.bits st in
      let st_a = Random.State.make [| seed_state |]
      and st_b = Random.State.make [| seed_state |] in
      let ra = Rounds.create () and rb = Rounds.create () in
      let a = ND.compute g ~rng:st_a ~rounds:ra ~distance in
      let b = Oracle.net_decomp g ~rng:st_b ~rounds:rb ~distance in
      a.ND.num_classes = b.ND.num_classes
      && a.ND.class_of = b.ND.class_of
      && a.ND.cluster_of = b.ND.cluster_of
      && a.ND.clusters = b.ND.clusters
      && a.ND.cluster_class = b.ND.cluster_class
      && Rounds.total ra = Rounds.total rb
      && Random.State.bits st_a = Random.State.bits st_b)

let prop_mpx_covers_and_connects =
  QCheck.Test.make ~name:"mpx labels everyone with connected clusters"
    ~count:40 (QCheck.int_bound 100000)
    (fun seed ->
      let st = rng seed in
      let n = 10 + Random.State.int st 60 in
      let g = Gen.erdos_renyi st n 0.1 in
      let rounds = Rounds.create () in
      let labels = ND.mpx g ~rng:st ~beta:0.3 ~rounds in
      let all_labeled = Array.for_all (fun l -> l >= 0) labels in
      let module UF = Nw_graphs.Union_find in
      let uf = UF.create n in
      G.fold_edges
        (fun _ u v () ->
          if labels.(u) = labels.(v) then ignore (UF.union uf u v))
        g ();
      let connected = ref true in
      let rep = Hashtbl.create 16 in
      Array.iteri
        (fun v l ->
          match Hashtbl.find_opt rep l with
          | None -> Hashtbl.add rep l (UF.find uf v)
          | Some r -> if UF.find uf v <> r then connected := false)
        labels;
      all_labeled && !connected)

let prop_diameter_reduction =
  QCheck.Test.make ~name:"diameter reduction: valid, bounded, kept colors"
    ~count:15 (QCheck.int_bound 100000)
    (fun seed ->
      let st = rng seed in
      let alpha = 2 + Random.State.int st 3 in
      let n = 60 + Random.State.int st 80 in
      let g = Gen.forest_union st n alpha in
      match Nw_baseline.Gabow_westermann.forest_partition g alpha with
      | Error _ -> false
      | Ok exact ->
          let rounds = Rounds.create () in
          let epsilon = 1.0 in
          let ids = Array.init n (fun v -> v) in
          let reduced, _ =
            Nw_core.Diameter_reduction.reduce exact ~target:`Inv_eps ~epsilon
              ~alpha ~ids ~rng:st ~rounds
          in
          let z = int_of_float (ceil (40.0 /. epsilon)) in
          Verify.forest_decomposition reduced = Ok ()
          && Verify.max_forest_diameter reduced <= 2 * z
          (* kept edges keep their original colors *)
          && G.fold_edges
               (fun e _ _ acc ->
                 acc
                 &&
                 match (Coloring.color exact e, Coloring.color reduced e) with
                 | Some c, Some c' -> c' = c || c' >= Coloring.colors exact
                 | _, None -> false
                 | None, Some _ -> true)
               g true)

let prop_sfd_random_simple =
  QCheck.Test.make ~name:"section 5 SFD valid on random simple graphs"
    ~count:15 (QCheck.int_bound 100000)
    (fun seed ->
      let st = rng seed in
      let alpha = 3 + Random.State.int st 4 in
      let n = 8 * alpha in
      let g = Gen.forest_union_simple st n alpha in
      let rounds = Rounds.create () in
      let _, fd = Nw_baseline.Gabow_westermann.arboricity g in
      let orientation = Nw_core.Orient.of_forest_decomposition fd ~rounds in
      let ids = Array.init n (fun v -> v) in
      let sfd, _ =
        Nw_engine.Run.sfd g ~epsilon:0.4 ~alpha ~orientation ~ids
          ~rng:st ~rounds
      in
      Verify.star_forest_decomposition sfd = Ok ())

let prop_lsfd_greedy_random =
  QCheck.Test.make ~name:"theorem 2.2 greedy LSFD on random graphs" ~count:40
    (QCheck.int_bound 100000)
    (fun seed ->
      let st = rng seed in
      let n = 6 + Random.State.int st 20 in
      let g = Gen.erdos_renyi st n 0.3 in
      if G.m g = 0 then true
      else begin
        let dgn = Nw_graphs.Degeneracy.degeneracy g in
        let colors = (4 * dgn) + 2 in
        let lists = Gen.list_palettes st g ~colors ~size:(2 * dgn) in
        let palette = Palette.of_lists ~colors lists in
        let coloring = Nw_core.Lsfd.greedy_degeneracy g palette in
        Verify.star_forest_decomposition coloring = Ok ()
        && Verify.respects_palette coloring palette = Ok ()
      end)

(* Theorem 2.3 with random lists: the residual palette never runs out
   for alpha* in 1..4, and the output is a star forest decomposition
   inside the lists *)
let prop_lsfd_distributed_random =
  QCheck.Test.make ~name:"theorem 2.3 LSFD on random simple graphs" ~count:12
    (QCheck.int_bound 100000)
    (fun seed ->
      let st = rng seed in
      let n = 60 + Random.State.int st 441 in
      let g = Gen.forest_union_simple st n (1 + Random.State.int st 4) in
      let alpha_star, _ = Arb.pseudo_arboricity g in
      QCheck.assume (alpha_star >= 1 && alpha_star <= 4);
      let epsilon = 0.5 in
      let size = Nw_core.Lsfd.required_palette ~epsilon ~alpha_star in
      let colors = size + 1 + Random.State.int st size in
      let palette =
        Palette.of_lists ~colors (Gen.list_palettes st g ~colors ~size)
      in
      let coloring =
        Nw_engine.Run.lsfd_distributed g palette ~epsilon ~alpha_star ~rng:st
          ~rounds:(Rounds.create ())
      in
      Verify.star_forest_decomposition coloring = Ok ()
      && Verify.respects_palette coloring palette = Ok ())

let prop_orientation_bound =
  QCheck.Test.make
    ~name:"orientation out-degree never exceeds the color count" ~count:25
    (QCheck.int_bound 100000)
    (fun seed ->
      let st = rng seed in
      let n = 10 + Random.State.int st 40 in
      let g = Gen.erdos_renyi st n 0.3 in
      if G.m g = 0 then true
      else begin
        let _, fd = Nw_baseline.Gabow_westermann.arboricity g in
        let rounds = Rounds.create () in
        let o = Nw_core.Orient.of_forest_decomposition fd ~rounds in
        O.max_out_degree o <= Coloring.colors fd
      end)

let prop_pseudo_forest_valid =
  QCheck.Test.make ~name:"pseudo-forest assignments verify" ~count:25
    (QCheck.int_bound 100000)
    (fun seed ->
      let st = rng seed in
      let n = 8 + Random.State.int st 20 in
      let g = Gen.erdos_renyi st n 0.4 in
      if G.m g = 0 then true
      else begin
        let _, o = Arb.pseudo_arboricity g in
        let assignment, k = Nw_core.Pseudo_forest.of_orientation o in
        Verify.pseudo_forest_assignment g assignment ~k = Ok ()
      end)

let prop_h_partition_random =
  QCheck.Test.make ~name:"H-partition bounds on random graphs" ~count:25
    (QCheck.int_bound 100000)
    (fun seed ->
      let st = rng seed in
      let n = 10 + Random.State.int st 60 in
      let g = Gen.erdos_renyi st n 0.15 in
      let alpha_star, _ = Arb.pseudo_arboricity g in
      let alpha_star = max 1 alpha_star in
      let rounds = Rounds.create () in
      let hp =
        Nw_core.H_partition.compute g ~epsilon:0.5 ~alpha_star ~rounds
      in
      let t = hp.Nw_core.H_partition.threshold in
      let layer = hp.Nw_core.H_partition.layer in
      let ok = ref true in
      for v = 0 to n - 1 do
        let later =
          Array.fold_left
            (fun acc (w, _) -> if layer.(w) >= layer.(v) then acc + 1 else acc)
            0 (G.incident g v)
        in
        if later > t then ok := false
      done;
      !ok)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "nw_props"
    [
      qsuite "io" [ prop_io_roundtrip ];
      qsuite "net_decomp"
        [
          prop_net_decomp_valid;
          prop_net_decomp_oracle;
          prop_mpx_covers_and_connects;
        ];
      qsuite "diameter" [ prop_diameter_reduction ];
      qsuite "star"
        [
          prop_sfd_random_simple;
          prop_lsfd_greedy_random;
          prop_lsfd_distributed_random;
        ];
      qsuite "orientation" [ prop_orientation_bound; prop_pseudo_forest_valid ];
      qsuite "h_partition" [ prop_h_partition_random ];
    ]
