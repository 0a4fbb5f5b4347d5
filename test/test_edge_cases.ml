(* Degenerate-input robustness: empty graphs, single vertices, edgeless
   graphs, disconnected graphs, and minimal parameters through every
   public entry point. *)

module G = Nw_graphs.Multigraph
module Gen = Nw_graphs.Generators
module Arb = Nw_graphs.Arboricity
module Rounds = Nw_localsim.Rounds
module Coloring = Nw_decomp.Coloring
module Palette = Nw_decomp.Palette
module Verify = Nw_decomp.Verify

let rng () = Random.State.make [| 7; 7 |]
let empty = G.of_edges 0 []
let isolated = G.of_edges 5 []
let single_edge = G.of_edges 2 [ (0, 1) ]

let disconnected =
  Gen.disjoint_union (Gen.cycle 4) (Gen.disjoint_union (Gen.path 3) (Gen.complete 4))

let test_graph_basics () =
  Alcotest.(check int) "empty n" 0 (G.n empty);
  Alcotest.(check int) "empty max degree" 0 (G.max_degree empty);
  Alcotest.(check bool) "empty simple" true (G.is_simple empty);
  Alcotest.(check int) "isolated diameter" 0
    (Nw_graphs.Traversal.diameter isolated);
  Alcotest.(check bool) "isolated forest" true
    (Nw_graphs.Traversal.is_forest isolated)

let test_arboricity_degenerate () =
  Alcotest.(check int) "empty density" 0 (Arb.density_lower_bound empty);
  Alcotest.(check int) "isolated density" 0 (Arb.density_lower_bound isolated);
  let k, _ = Arb.pseudo_arboricity isolated in
  Alcotest.(check int) "isolated pseudo-arboricity" 0 k;
  Alcotest.(check int) "empty brute" 0 (Oracle.arboricity empty);
  Alcotest.(check int) "single edge brute" 1 (Oracle.arboricity single_edge)

let test_gw_degenerate () =
  let a, c = Nw_baseline.Gabow_westermann.arboricity isolated in
  Alcotest.(check int) "isolated arboricity" 0 a;
  Alcotest.(check bool) "empty coloring valid" true
    (Verify.forest_decomposition c = Ok ());
  let a1, c1 = Nw_baseline.Gabow_westermann.arboricity single_edge in
  Alcotest.(check int) "single edge" 1 a1;
  Verify.exn (Verify.forest_decomposition c1)

let test_gw_disconnected () =
  let a, c = Nw_baseline.Gabow_westermann.arboricity disconnected in
  Alcotest.(check int) "disconnected arboricity = max component" 2 a;
  Verify.exn (Verify.forest_decomposition c)

(* the sandwich path on the same degenerate inputs, plus two components
   whose densities differ: K5 (alpha 3) beside a path (alpha 1) *)
let test_gw_value_degenerate () =
  let value = Nw_baseline.Gabow_westermann.arboricity_value in
  Alcotest.(check int) "empty arboricity value" 0 (value empty);
  Alcotest.(check int) "isolated arboricity value" 0 (value isolated);
  Alcotest.(check int) "single edge value" 1 (value single_edge);
  Alcotest.(check int) "disconnected value = max component" 2
    (value disconnected);
  Alcotest.(check int) "K5 + path value" 3
    (value (Gen.disjoint_union (Gen.complete 5) (Gen.path 6)))

let test_h_partition_degenerate () =
  let rounds = Rounds.create () in
  let hp =
    Nw_core.H_partition.compute isolated ~epsilon:0.5 ~alpha_star:1 ~rounds
  in
  Alcotest.(check int) "isolated: one layer" 1 hp.Nw_core.H_partition.num_layers;
  let hp0 =
    Nw_core.H_partition.compute empty ~epsilon:0.5 ~alpha_star:1 ~rounds
  in
  Alcotest.(check int) "empty: zero layers" 0 hp0.Nw_core.H_partition.num_layers

let test_forest_algo_degenerate () =
  let rounds = Rounds.create () in
  let coloring, stats =
    Nw_engine.Run.forest_decomposition isolated ~epsilon:0.5 ~alpha:1
      ~rng:(rng ()) ~rounds ()
  in
  Alcotest.(check int) "no leftover" 0 stats.Nw_core.Forest_algo.leftover_edges;
  Verify.exn (Verify.forest_decomposition coloring);
  let c1, _ =
    Nw_engine.Run.forest_decomposition single_edge ~epsilon:0.5
      ~alpha:1 ~rng:(rng ()) ~rounds ()
  in
  Verify.exn (Verify.forest_decomposition c1);
  Alcotest.(check int) "one color suffices" 1 (Verify.colors_used c1)

let test_forest_algo_disconnected () =
  let rounds = Rounds.create () in
  let coloring, _ =
    Nw_engine.Run.forest_decomposition disconnected ~epsilon:1.0
      ~alpha:2 ~rng:(rng ()) ~rounds ()
  in
  Verify.exn (Verify.forest_decomposition coloring);
  Alcotest.(check bool) "within 2*alpha" true (Verify.colors_used coloring <= 4)

let test_net_decomp_degenerate () =
  let rounds = Rounds.create () in
  let nd = Nw_core.Net_decomp.compute isolated ~rng:(rng ()) ~rounds ~distance:1 in
  (match Nw_core.Net_decomp.check_valid isolated ~distance:1 nd with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let nd2 =
    Nw_core.Net_decomp.compute disconnected ~rng:(rng ()) ~rounds ~distance:2
  in
  match Nw_core.Net_decomp.check_valid disconnected ~distance:2 nd2 with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_diameter_reduction_degenerate () =
  let rounds = Rounds.create () in
  let c = Coloring.create isolated ~colors:1 in
  let reduced, extra =
    Nw_core.Diameter_reduction.reduce c ~target:`Inv_eps ~epsilon:1.0
      ~alpha:1
      ~ids:(Array.init 5 (fun v -> v))
      ~rng:(rng ()) ~rounds
  in
  Alcotest.(check int) "no extra colors" 0 extra;
  Alcotest.(check int) "still empty" 0 (Coloring.colored_count reduced)

let test_star_forest_degenerate () =
  let rounds = Rounds.create () in
  let o = Nw_graphs.Orientation.make single_edge [| 1 |] in
  let sfd, stats =
    Nw_engine.Run.sfd single_edge ~epsilon:0.5 ~alpha:1 ~orientation:o
      ~ids:[| 0; 1 |] ~rng:(rng ()) ~rounds
  in
  Verify.exn (Verify.star_forest_decomposition sfd);
  Alcotest.(check int) "all colored" 1 (Coloring.colored_count sfd);
  ignore stats

let test_coloring_zero_colors () =
  let c = Coloring.create single_edge ~colors:0 in
  Alcotest.(check (array int)) "edge uncolored" [| 0 |] (Coloring.uncolored c);
  Alcotest.(check bool) "partial ok" true
    (Verify.partial_forest_decomposition c = Ok ());
  Alcotest.(check int) "colors used" 0 (Verify.colors_used c)

let test_augment_empty_palette () =
  let palette = Palette.of_lists ~colors:1 [| [] |] in
  let coloring = Coloring.create single_edge ~colors:1 in
  match Nw_core.Augmenting.search coloring palette ~start:0 () with
  | Nw_core.Augmenting.Stalled _ -> ()
  | _ -> Alcotest.fail "empty palette must stall"

let test_orientation_empty () =
  let rounds = Rounds.create () in
  let c = Coloring.create isolated ~colors:2 in
  let o = Nw_core.Orient.of_forest_decomposition c ~rounds in
  Alcotest.(check int) "no out-edges" 0
    (Nw_graphs.Orientation.max_out_degree o)

let test_lsfd_edgeless () =
  let rounds = Rounds.create () in
  let palette = Palette.full isolated 4 in
  let c =
    Nw_core.Lsfd.distributed isolated palette ~epsilon:0.5 ~alpha_star:1
      ~rng:(rng ()) ~rounds
  in
  Alcotest.(check int) "nothing colored" 0 (Coloring.colored_count c)

let () =
  Alcotest.run "nw_edge_cases"
    [
      ( "degenerate inputs",
        [
          Alcotest.test_case "graph basics" `Quick test_graph_basics;
          Alcotest.test_case "arboricity" `Quick test_arboricity_degenerate;
          Alcotest.test_case "gabow-westermann" `Quick test_gw_degenerate;
          Alcotest.test_case "gw disconnected" `Quick test_gw_disconnected;
          Alcotest.test_case "gw arboricity value" `Quick
            test_gw_value_degenerate;
          Alcotest.test_case "h-partition" `Quick test_h_partition_degenerate;
          Alcotest.test_case "forest_algo" `Quick test_forest_algo_degenerate;
          Alcotest.test_case "forest_algo disconnected" `Quick
            test_forest_algo_disconnected;
          Alcotest.test_case "net_decomp" `Quick test_net_decomp_degenerate;
          Alcotest.test_case "diameter reduction" `Quick
            test_diameter_reduction_degenerate;
          Alcotest.test_case "star forest" `Quick test_star_forest_degenerate;
          Alcotest.test_case "zero colors" `Quick test_coloring_zero_colors;
          Alcotest.test_case "empty palette" `Quick test_augment_empty_palette;
          Alcotest.test_case "orientation empty" `Quick test_orientation_empty;
          Alcotest.test_case "lsfd edgeless" `Quick test_lsfd_edgeless;
        ] );
    ]
