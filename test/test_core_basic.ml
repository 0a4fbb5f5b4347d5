(* Tests for the basic core machinery: Cole–Vishkin, H-partition
   (Theorem 2.1), network decomposition, MPX, and the LLL solver. *)

module G = Nw_graphs.Multigraph
module Gen = Nw_graphs.Generators
module O = Nw_graphs.Orientation
module T = Nw_graphs.Traversal
module Rounds = Nw_localsim.Rounds
module Coloring = Nw_decomp.Coloring
module Palette = Nw_decomp.Palette
module Verify = Nw_decomp.Verify
module CV = Nw_core.Cole_vishkin
module H = Nw_core.H_partition
module ND = Nw_core.Net_decomp
module Lll = Nw_core.Lll

let rng seed = Random.State.make [| seed; 1234 |]
let ids n = Array.init n (fun v -> v)

(* ------------------------------------------------------------------ *)
(* Cole-Vishkin                                                        *)
(* ------------------------------------------------------------------ *)

let check_proper_coloring g colors =
  G.fold_edges
    (fun _ u v ok -> ok && colors.(u) <> colors.(v))
    g true

let parent_edges_of_rooted_path g =
  (* path rooted at vertex 0: parent of v is v-1 via edge v-1 *)
  Array.init (G.n g) (fun v -> if v = 0 then -1 else v - 1)

let test_cv_path () =
  let g = Gen.path 40 in
  let rounds = Rounds.create () in
  let colors =
    CV.three_color g
      ~parent_edge:(parent_edges_of_rooted_path g)
      ~ids:(ids 40) ~rounds
  in
  Alcotest.(check bool) "proper" true (check_proper_coloring g colors);
  Array.iter
    (fun c -> Alcotest.(check bool) "in {0,1,2}" true (c >= 0 && c <= 2))
    colors;
  (* O(log* n) rounds: generous absolute bound for n = 40 *)
  Alcotest.(check bool) "rounds small" true (Rounds.total rounds <= 30)

let test_cv_random_trees () =
  for seed = 0 to 14 do
    let n = 5 + (seed * 13) in
    let g = Gen.random_tree (rng seed) n in
    let parent, parent_edge, _ = T.bfs_tree g 0 in
    ignore parent;
    let rounds = Rounds.create () in
    let colors = CV.three_color g ~parent_edge ~ids:(ids n) ~rounds in
    Alcotest.(check bool)
      (Printf.sprintf "proper on tree %d" seed)
      true
      (check_proper_coloring g colors)
  done

let test_cv_forest_with_isolated () =
  (* two disjoint paths plus isolated vertices *)
  let g = G.of_edges 7 [ (0, 1); (1, 2); (4, 5) ] in
  let parent_edge = [| -1; 0; 1; -1; -1; 2; -1 |] in
  let rounds = Rounds.create () in
  let colors = CV.three_color g ~parent_edge ~ids:(ids 7) ~rounds in
  Alcotest.(check bool) "proper" true (check_proper_coloring g colors)

let test_cv_big_ids () =
  let g = Gen.path 10 in
  let big_ids = Array.init 10 (fun v -> (v * 7919) + 1000000) in
  let rounds = Rounds.create () in
  let colors =
    CV.three_color g
      ~parent_edge:(parent_edges_of_rooted_path g)
      ~ids:big_ids ~rounds
  in
  Alcotest.(check bool) "proper" true (check_proper_coloring g colors)

(* [three_color_forests] claims that slot [v * t + j] and the round
   ledger equal a standalone [three_color] run on forest [j]: t random
   spanning trees on one vertex set, each rooted at a random vertex,
   under distinct large ids *)
let prop_cv_forests_match_standalone =
  QCheck.Test.make ~name:"three_color_forests == per-forest three_color"
    ~count:150 (QCheck.int_bound 100000) (fun seed ->
      let st = rng seed in
      let n = 2 + Random.State.int st 59 and t = 1 + Random.State.int st 4 in
      let ids =
        let a = Array.init n (fun v -> 1_000_003 + (v * 7919)) in
        for i = n - 1 downto 1 do
          let k = Random.State.int st (i + 1) in
          let x = a.(i) in
          a.(i) <- a.(k);
          a.(k) <- x
        done;
        a
      in
      let trees = Array.init t (fun _ -> Gen.random_tree st n) in
      let tree_parent =
        Array.map
          (fun tr ->
            let _, pe, _ = T.bfs_tree tr (Random.State.int st n) in
            pe)
          trees
      in
      (* tree j's k-th edge is edge j * (n - 1) + k of the union *)
      let g =
        G.of_edges n
          (List.concat_map
             (fun tr -> Array.to_list (G.edges tr))
             (Array.to_list trees))
      in
      let edge_forest = Array.init (G.m g) (fun e -> e / (n - 1)) in
      let parent_edge =
        Array.init (n * t) (fun i ->
            let v = i / t and j = i mod t in
            let e = tree_parent.(j).(v) in
            if e < 0 then -1 else (j * (n - 1)) + e)
      in
      let rounds = Rounds.create () in
      let all =
        CV.three_color_forests g ~edge_forest ~parent_edge ~t ~ids ~rounds
      in
      List.for_all
        (fun j ->
          let rj = Rounds.create () in
          let cj =
            CV.three_color trees.(j) ~parent_edge:tree_parent.(j) ~ids
              ~rounds:rj
          in
          Rounds.ledger rj = Rounds.ledger rounds
          && Array.for_all Fun.id
               (Array.init n (fun v -> cj.(v) = all.((v * t) + j))))
        (List.init t Fun.id))

(* ------------------------------------------------------------------ *)
(* H-partition (Theorem 2.1)                                           *)
(* ------------------------------------------------------------------ *)

let test_h_partition_bounds () =
  let st = rng 3 in
  let g = Gen.forest_union st 60 4 in
  (* alpha = 4; pseudo-arboricity <= 4 *)
  let rounds = Rounds.create () in
  let hp = H.compute g ~epsilon:0.5 ~alpha_star:4 ~rounds in
  let t = hp.H.threshold in
  Alcotest.(check int) "threshold" 10 t;
  (* every vertex has at most t neighbors in its own or higher layers *)
  for v = 0 to G.n g - 1 do
    let later =
      Array.fold_left
        (fun acc (w, _) ->
          if hp.H.layer.(w) >= hp.H.layer.(v) then acc + 1 else acc)
        0 (G.incident g v)
    in
    Alcotest.(check bool) "layer degree bound" true (later <= t)
  done;
  Alcotest.(check bool) "all assigned" true
    (Array.for_all (fun l -> l >= 0 && l < hp.H.num_layers) hp.H.layer)

let test_h_partition_orientation () =
  let st = rng 4 in
  let g = Gen.forest_union st 50 3 in
  let rounds = Rounds.create () in
  let hp = H.compute g ~epsilon:0.5 ~alpha_star:3 ~rounds in
  let o = H.orientation g hp ~ids:(ids (G.n g)) in
  Alcotest.(check bool) "acyclic" true (O.is_acyclic o);
  Alcotest.(check bool) "out-degree bound" true
    (O.max_out_degree o <= hp.H.threshold)

let test_h_partition_stall_detected () =
  (* claim alpha_star = 0 for a clique: threshold 0, nothing peels *)
  let g = Gen.complete 6 in
  let rounds = Rounds.create () in
  Alcotest.(check bool) "stall raises" true
    (try
       ignore (H.compute g ~epsilon:0.5 ~alpha_star:0 ~rounds);
       false
     with Failure _ -> true)

let test_forests_of_orientation () =
  let st = rng 5 in
  let g = Gen.forest_union st 40 3 in
  let rounds = Rounds.create () in
  let hp = H.compute g ~epsilon:0.5 ~alpha_star:3 ~rounds in
  let o = H.orientation g hp ~ids:(ids (G.n g)) in
  let coloring, parent_edges = H.forests_of_orientation g o in
  Verify.exn (Verify.forest_decomposition coloring);
  Alcotest.(check bool) "at most t forests" true
    (Coloring.colors coloring <= hp.H.threshold);
  (* parent edges are consistent: edge j-colored and child endpoint *)
  Array.iteri
    (fun j per_vertex ->
      Array.iteri
        (fun v e ->
          if e >= 0 then begin
            Alcotest.(check (option int)) "parent edge color" (Some j)
              (Coloring.color coloring e);
            ignore (G.other_endpoint g e v)
          end)
        per_vertex)
    parent_edges

let test_star_forest_thm21 () =
  let st = rng 6 in
  let g = Gen.forest_union st 50 3 in
  let rounds = Rounds.create () in
  let hp = H.compute g ~epsilon:0.5 ~alpha_star:3 ~rounds in
  let o = H.orientation g hp ~ids:(ids (G.n g)) in
  let sfd = H.star_forest_decomposition g o ~ids:(ids (G.n g)) ~rounds in
  Verify.exn (Verify.star_forest_decomposition sfd);
  Alcotest.(check bool) "3t colors" true
    (Coloring.colors sfd <= 3 * hp.H.threshold)

let test_list_forest_thm21 () =
  let st = rng 7 in
  let g = Gen.forest_union st 40 3 in
  let rounds = Rounds.create () in
  let hp = H.compute g ~epsilon:0.5 ~alpha_star:3 ~rounds in
  let o = H.orientation g hp ~ids:(ids (G.n g)) in
  let t = hp.H.threshold in
  let palette_lists =
    Gen.list_palettes st g ~colors:(2 * t) ~size:t
  in
  let palette = Palette.of_lists ~colors:(2 * t) palette_lists in
  let lfd = H.list_forest_decomposition g o palette ~rounds in
  Verify.exn (Verify.forest_decomposition lfd);
  Verify.exn (Verify.respects_palette lfd palette)

(* peeling round complexity grows ~ log n / eps: sanity-check monotonicity *)
let test_h_partition_round_scaling () =
  let run n =
    let g = Gen.forest_union (rng 8) n 3 in
    let rounds = Rounds.create () in
    ignore (H.compute g ~epsilon:0.5 ~alpha_star:3 ~rounds);
    Rounds.total rounds
  in
  let r_small = run 20 and r_big = run 400 in
  Alcotest.(check bool) "more rounds on bigger graph" true (r_big >= r_small);
  Alcotest.(check bool) "but still logarithmic-ish" true (r_big <= 80)


(* LOCAL fidelity: a vertex's H-partition layer is a function of its
   radius-L ball (L = number of peeling rounds). Each vertex recomputes its
   own layer from the ball delivered by the distributed gathering protocol,
   and must agree with the global computation. *)
let test_h_partition_local_fidelity () =
  let st = rng 900 in
  let g = Gen.erdos_renyi st 40 0.1 in
  let alpha_star = max 1 (fst (Nw_graphs.Arboricity.pseudo_arboricity g)) in
  let rounds = Rounds.create () in
  let hp = H.compute g ~epsilon:0.5 ~alpha_star ~rounds in
  let radius = hp.H.num_layers in
  let balls = Nw_localsim.Ball_view.collect g ~radius ~rounds in
  for v = 0 to G.n g - 1 do
    let ball = balls.(v) in
    (* rebuild the ball as a standalone graph *)
    let index = Hashtbl.create 16 in
    List.iteri (fun i u -> Hashtbl.add index u i) ball.Nw_localsim.Ball_view.vertices;
    let b = G.create_builder (List.length ball.Nw_localsim.Ball_view.vertices) in
    List.iter
      (fun (_, a, c) ->
        ignore (G.add_edge b (Hashtbl.find index a) (Hashtbl.find index c)))
      ball.Nw_localsim.Ball_view.edges;
    let local_g = G.build b in
    let local_rounds = Rounds.create () in
    let local_hp =
      H.compute local_g ~epsilon:0.5 ~alpha_star ~rounds:local_rounds
    in
    let local_layer = local_hp.H.layer.(Hashtbl.find index v) in
    (* the local view has FEWER edges at its boundary, so vertices can only
       peel earlier there; but within distance (radius - layer) the views
       agree, so v's own layer matches when layer < radius *)
    if hp.H.layer.(v) < radius then
      Alcotest.(check int)
        (Printf.sprintf "layer of %d from its own ball" v)
        hp.H.layer.(v) local_layer
  done


let test_distributed_pipeline () =
  let st = rng 901 in
  let g = Gen.forest_union st 120 4 in
  let alpha_star, _ = Nw_graphs.Arboricity.pseudo_arboricity g in
  let rounds = Rounds.create () in
  let sfd =
    Nw_core.Distributed.star_forest_decomposition g ~epsilon:0.5 ~alpha_star
      ~rounds
  in
  Verify.exn (Verify.star_forest_decomposition sfd);
  let t = int_of_float (floor (2.5 *. float_of_int alpha_star)) in
  Alcotest.(check bool) "3t colors" true (Verify.colors_used sfd <= 3 * t);
  (* every labeled charge is an executed-kernel or local-rule round *)
  List.iter
    (fun (label, _) ->
      Alcotest.(check bool) ("label " ^ label) true
        (List.mem label
           [
             "h-partition/peel"; "distributed/layer-exchange";
             "cole-vishkin/bit-reduction"; "cole-vishkin/shift-down";
             "cole-vishkin/recolor";
           ]))
    (Rounds.ledger rounds)

(* ------------------------------------------------------------------ *)
(* Network decomposition                                               *)
(* ------------------------------------------------------------------ *)

let test_nd_valid_on_random () =
  for seed = 0 to 5 do
    let st = rng (100 + seed) in
    let g = Gen.erdos_renyi st 60 0.08 in
    let rounds = Rounds.create () in
    let nd = ND.compute g ~rng:st ~rounds ~distance:1 in
    (match ND.check_valid g ~distance:1 nd with
    | Ok () -> ()
    | Error m -> Alcotest.fail m);
    Alcotest.(check bool) "few classes" true (nd.ND.num_classes <= 40)
  done

let test_nd_distance_parameter () =
  let st = rng 200 in
  let g = Gen.grid 8 8 in
  let rounds = Rounds.create () in
  let nd = ND.compute g ~rng:st ~rounds ~distance:2 in
  match ND.check_valid g ~distance:2 nd with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_nd_weak_diameter () =
  let st = rng 300 in
  let g = Gen.grid 10 10 in
  let rounds = Rounds.create () in
  let nd = ND.compute g ~rng:st ~rounds ~distance:1 in
  let d = ND.max_cluster_weak_diameter g nd in
  (* radius cap is 2 + ceil(log2 n): diameter <= 2 * cap hops *)
  Alcotest.(check bool) "bounded weak diameter" true (d <= 4 * (2 + 7))

let test_mpx_partition () =
  let st = rng 400 in
  let g = Gen.grid 12 12 in
  let rounds = Rounds.create () in
  let labels = ND.mpx g ~rng:st ~beta:0.3 ~rounds in
  (* every vertex labeled; clusters connected *)
  Array.iter (fun l -> Alcotest.(check bool) "labeled" true (l >= 0)) labels;
  let cut =
    G.fold_edges
      (fun _ u v acc -> if labels.(u) <> labels.(v) then acc + 1 else acc)
      g 0
  in
  (* expected cut fraction <= beta; allow 3x slack *)
  Alcotest.(check bool) "cut edges sparse" true
    (float_of_int cut <= 0.9 *. float_of_int (G.m g));
  (* connectivity of each cluster *)
  let module UF = Nw_graphs.Union_find in
  let uf = UF.create (G.n g) in
  G.fold_edges
    (fun _ u v () -> if labels.(u) = labels.(v) then ignore (UF.union uf u v))
    g ();
  let reps = Hashtbl.create 16 in
  Array.iteri
    (fun v l ->
      match Hashtbl.find_opt reps l with
      | None -> Hashtbl.add reps l (UF.find uf v)
      | Some r ->
          Alcotest.(check int) "cluster connected" r (UF.find uf v))
    labels

let test_mpx_cut_probability () =
  (* average over trials: cut fraction should be near beta, well below 2beta *)
  let beta = 0.15 in
  let trials = 20 in
  let total_cut = ref 0 and total_edges = ref 0 in
  for seed = 0 to trials - 1 do
    let st = rng (500 + seed) in
    let g = Gen.grid 9 9 in
    let rounds = Rounds.create () in
    let labels = ND.mpx g ~rng:st ~beta ~rounds in
    total_edges := !total_edges + G.m g;
    total_cut :=
      !total_cut
      + G.fold_edges
          (fun _ u v acc -> if labels.(u) <> labels.(v) then acc + 1 else acc)
          g 0
  done;
  let fraction = float_of_int !total_cut /. float_of_int !total_edges in
  Alcotest.(check bool)
    (Printf.sprintf "cut fraction %.3f <= 2 beta" fraction)
    true
    (fraction <= 2.0 *. beta)

(* ------------------------------------------------------------------ *)
(* LLL                                                                 *)
(* ------------------------------------------------------------------ *)

let test_lll_solves_proper_coloring () =
  (* frugal test: 3-color a cycle by resampling; events = monochromatic
     edges. p = 1/3, d = 2: well within the polynomial criterion. *)
  let g = Gen.cycle 30 in
  let st = rng 600 in
  let rounds = Rounds.create () in
  let events =
    Array.init (G.m g) (fun e ->
        let u, v = G.endpoints g e in
        {
          Lll.vars = [ u; v ];
          violated = (fun read -> read u = read v);
        })
  in
  let colors =
    Lll.solve ~num_vars:(G.n g)
      ~sample:(fun s _ -> Random.State.int s 3)
      ~events ~rng:st ~rounds ~max_iters:4000 ()
  in
  G.fold_edges
    (fun _ u v () ->
      Alcotest.(check bool) "proper" true (colors.(u) <> colors.(v)))
    g ()

let test_lll_nonstrict_returns () =
  (* unsatisfiable instance: 1-coloring a triangle; with ~strict:false the
     solver must return rather than raise *)
  let g = Gen.cycle 3 in
  let st = rng 700 in
  let rounds = Rounds.create () in
  let events =
    Array.init (G.m g) (fun e ->
        let u, v = G.endpoints g e in
        { Lll.vars = [ u; v ]; violated = (fun read -> read u = read v) })
  in
  let _ =
    Lll.solve ~strict:false ~num_vars:3
      ~sample:(fun _ _ -> 0)
      ~events ~rng:st ~rounds ~max_iters:5 ()
  in
  Alcotest.(check bool) "returned" true true;
  Alcotest.check_raises "strict raises"
    (Failure "Lll.solve: resampling did not converge") (fun () ->
      ignore
        (Lll.solve ~num_vars:3
           ~sample:(fun _ _ -> 0)
           ~events ~rng:st ~rounds ~max_iters:5 ()))

let () =
  Alcotest.run "nw_core_basic"
    [
      ( "cole_vishkin",
        [
          Alcotest.test_case "path" `Quick test_cv_path;
          Alcotest.test_case "random trees" `Quick test_cv_random_trees;
          Alcotest.test_case "forest + isolated" `Quick
            test_cv_forest_with_isolated;
          Alcotest.test_case "big ids" `Quick test_cv_big_ids;
          QCheck_alcotest.to_alcotest prop_cv_forests_match_standalone;
        ] );
      ( "h_partition",
        [
          Alcotest.test_case "bounds" `Quick test_h_partition_bounds;
          Alcotest.test_case "orientation" `Quick test_h_partition_orientation;
          Alcotest.test_case "stall detection" `Quick
            test_h_partition_stall_detected;
          Alcotest.test_case "forests" `Quick test_forests_of_orientation;
          Alcotest.test_case "star forests" `Quick test_star_forest_thm21;
          Alcotest.test_case "list forests" `Quick test_list_forest_thm21;
          Alcotest.test_case "round scaling" `Quick
            test_h_partition_round_scaling;
          Alcotest.test_case "local fidelity" `Quick
            test_h_partition_local_fidelity;
          Alcotest.test_case "fully distributed pipeline" `Quick
            test_distributed_pipeline;
        ] );
      ( "net_decomp",
        [
          Alcotest.test_case "valid random" `Quick test_nd_valid_on_random;
          Alcotest.test_case "distance 2" `Quick test_nd_distance_parameter;
          Alcotest.test_case "weak diameter" `Quick test_nd_weak_diameter;
          Alcotest.test_case "mpx partition" `Quick test_mpx_partition;
          Alcotest.test_case "mpx cut probability" `Quick
            test_mpx_cut_probability;
        ] );
      ( "lll",
        [
          Alcotest.test_case "cycle coloring" `Quick
            test_lll_solves_proper_coloring;
          Alcotest.test_case "non-strict" `Quick test_lll_nonstrict_returns;
        ] );
    ]
