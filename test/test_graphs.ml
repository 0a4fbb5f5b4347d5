(* Unit and property tests for the nw_graphs substrate. *)

module G = Nw_graphs.Multigraph
module UF = Nw_graphs.Union_find
module T = Nw_graphs.Traversal
module Gen = Nw_graphs.Generators
module Arb = Nw_graphs.Arboricity
module Deg = Nw_graphs.Degeneracy
module O = Nw_graphs.Orientation
module Io = Nw_graphs.Graph_io

let rng seed = Random.State.make [| seed; 0x5eed |]

(* ------------------------------------------------------------------ *)
(* Union-find                                                          *)
(* ------------------------------------------------------------------ *)

let test_uf_basic () =
  let uf = UF.create 5 in
  Alcotest.(check int) "initial classes" 5 (UF.count uf);
  Alcotest.(check bool) "union 0 1" true (UF.union uf 0 1);
  Alcotest.(check bool) "union 0 1 again" false (UF.union uf 0 1);
  Alcotest.(check bool) "same 0 1" true (UF.same uf 0 1);
  Alcotest.(check bool) "not same 0 2" false (UF.same uf 0 2);
  Alcotest.(check int) "classes after one union" 4 (UF.count uf);
  UF.reset uf;
  Alcotest.(check int) "classes after reset" 5 (UF.count uf)

let test_uf_copy_independent () =
  let uf = UF.create 4 in
  ignore (UF.union uf 0 1);
  let uf2 = UF.copy uf in
  ignore (UF.union uf2 2 3);
  Alcotest.(check bool) "copy has merge" true (UF.same uf2 2 3);
  Alcotest.(check bool) "original unaffected" false (UF.same uf 2 3)

(* Naive reference implementation: label propagation over pairs. *)
let uf_matches_naive pairs n =
  let uf = UF.create n in
  let label = Array.init n (fun i -> i) in
  List.iter
    (fun (x, y) ->
      ignore (UF.union uf x y);
      let lx = label.(x) and ly = label.(y) in
      if lx <> ly then
        Array.iteri (fun i l -> if l = ly then label.(i) <- lx) label)
    pairs;
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if UF.same uf i j <> (label.(i) = label.(j)) then ok := false
    done
  done;
  !ok

let prop_uf_vs_naive =
  QCheck.Test.make ~name:"union-find agrees with naive labels" ~count:200
    QCheck.(list (pair (int_bound 9) (int_bound 9)))
    (fun pairs -> uf_matches_naive pairs 10)

(* ------------------------------------------------------------------ *)
(* Multigraph                                                          *)
(* ------------------------------------------------------------------ *)

let test_graph_basic () =
  let g = G.of_edges 4 [ (0, 1); (1, 2); (1, 2); (2, 3) ] in
  Alcotest.(check int) "n" 4 (G.n g);
  Alcotest.(check int) "m" 4 (G.m g);
  Alcotest.(check int) "deg 1" 3 (G.degree g 1);
  Alcotest.(check int) "max degree" 3 (G.max_degree g);
  Alcotest.(check bool) "not simple" false (G.is_simple g);
  Alcotest.(check (pair int int)) "endpoints" (1, 2) (G.endpoints g 1);
  Alcotest.(check int) "other endpoint" 2 (G.other_endpoint g 1 1)

let test_graph_rejects_self_loop () =
  Alcotest.check_raises "self loop"
    (Invalid_argument "Multigraph.add_edge: self-loop") (fun () ->
      ignore (G.of_edges 3 [ (1, 1) ]))

(* bad edge-list lines are rejected with a line-numbered Failure (the
   CLI turns it into an input error), never an Invalid_argument from
   Multigraph *)
let test_io_rejects_bad_lines () =
  let rejects msg text =
    Alcotest.check_raises msg (Failure msg) (fun () ->
        ignore (Io.parse_edge_list text))
  in
  rejects "line 3: malformed line \"foo\"" "0 1\n1 2\nfoo\n";
  rejects "line 2: self-loop \"1 1\"" "0 1\n1 1\n";
  rejects "line 1: negative vertex id in \"-1 2\"" "-1 2\n"

let test_graph_power () =
  let g = Gen.path 5 in
  let g2 = G.power g 2 in
  (* path 0-1-2-3-4; distance <= 2 pairs: 01 02 12 13 23 24 34 *)
  Alcotest.(check int) "power edges" 7 (G.m g2);
  Alcotest.(check bool) "power simple" true (G.is_simple g2)

let test_graph_ball () =
  let g = Gen.path 7 in
  let b = List.sort compare (G.ball g 3 2) in
  Alcotest.(check (list int)) "ball of middle" [ 1; 2; 3; 4; 5 ] b;
  let members = G.ball_of_set g [ 0; 6 ] 1 in
  Alcotest.(check bool) "0-ball member" true members.(0);
  Alcotest.(check bool) "distance 1" true members.(1);
  Alcotest.(check bool) "distance 2 excluded" false members.(2)

let test_graph_induced () =
  let g = G.of_edges 5 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ] in
  let members = [| true; true; true; false; false |] in
  let sub, vmap, emap = G.induced g members in
  Alcotest.(check int) "induced n" 3 (G.n sub);
  Alcotest.(check int) "induced m" 2 (G.m sub);
  Alcotest.(check (array int)) "vmap" [| 0; 1; 2 |] vmap;
  Alcotest.(check (array int)) "emap" [| 0; 1 |] emap

let test_subgraph_of_edges () =
  let g = G.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  let sub, emap = G.subgraph_of_edges g [| true; false; true |] in
  Alcotest.(check int) "kept edges" 2 (G.m sub);
  Alcotest.(check (array int)) "emap" [| 0; 2 |] emap;
  Alcotest.(check int) "n preserved" 4 (G.n sub)

(* ------------------------------------------------------------------ *)
(* Traversal                                                           *)
(* ------------------------------------------------------------------ *)

let test_components () =
  let g = Gen.disjoint_union (Gen.path 3) (Gen.cycle 4) in
  let _, c = T.components g in
  Alcotest.(check int) "two components" 2 c

let test_is_forest () =
  Alcotest.(check bool) "path is forest" true (T.is_forest (Gen.path 6));
  Alcotest.(check bool) "cycle not" false (T.is_forest (Gen.cycle 5));
  Alcotest.(check bool) "parallel pair not" false
    (T.is_forest (G.of_edges 2 [ (0, 1); (0, 1) ]))

let test_diameter () =
  Alcotest.(check int) "path diameter" 5 (T.diameter (Gen.path 6));
  Alcotest.(check int) "cycle diameter" 3 (T.diameter (Gen.cycle 6));
  Alcotest.(check int) "tree diameter" 5 (T.tree_diameter (Gen.path 6));
  Alcotest.(check int) "star diameter" 2 (T.tree_diameter (Gen.star 5))

let test_bfs_tree () =
  let g = Gen.path 4 in
  let parent, parent_edge, depth = T.bfs_tree g 0 in
  Alcotest.(check (array int)) "parents" [| -1; 0; 1; 2 |] parent;
  Alcotest.(check (array int)) "parent edges" [| -1; 0; 1; 2 |] parent_edge;
  Alcotest.(check (array int)) "depth" [| 0; 1; 2; 3 |] depth

let prop_spanning_forest =
  QCheck.Test.make ~name:"spanning forest spans and is acyclic" ~count:100
    QCheck.(pair small_nat (int_bound 1000))
    (fun (size, seed) ->
      let n = 2 + (size mod 30) in
      let g = Gen.erdos_renyi (rng seed) n 0.3 in
      let keep = T.spanning_forest g in
      let sub, _ = G.subgraph_of_edges g keep in
      let _, c_sub = T.components sub in
      let _, c_full = T.components g in
      T.is_forest sub && c_sub = c_full)

(* ------------------------------------------------------------------ *)
(* Matching                                                            *)
(* ------------------------------------------------------------------ *)

let test_matching_perfect () =
  let module M = Nw_graphs.Matching in
  let m = M.create ~left:3 ~right:3 in
  M.add m 0 0;
  M.add m 0 1;
  M.add m 1 1;
  M.add m 1 2;
  M.add m 2 2;
  let size, ml, mr = M.maximum_matching m in
  Alcotest.(check int) "perfect" 3 size;
  Array.iteri (fun l r -> Alcotest.(check int) "consistent" l mr.(r)) ml

(* brute force maximum matching size by trying all subsets of edges *)
let brute_matching_size left right edges =
  let best = ref 0 in
  let k = List.length edges in
  let arr = Array.of_list edges in
  for mask = 0 to (1 lsl k) - 1 do
    let used_l = Array.make left false and used_r = Array.make right false in
    let ok = ref true and size = ref 0 in
    for i = 0 to k - 1 do
      if mask land (1 lsl i) <> 0 then begin
        let l, r = arr.(i) in
        if used_l.(l) || used_r.(r) then ok := false
        else begin
          used_l.(l) <- true;
          used_r.(r) <- true;
          incr size
        end
      end
    done;
    if !ok && !size > !best then best := !size
  done;
  !best

let prop_matching_vs_brute =
  QCheck.Test.make ~name:"hopcroft-karp agrees with brute force" ~count:200
    (QCheck.int_bound 100000)
    (fun seed ->
      let st = rng seed in
      let left = 1 + Random.State.int st 4 in
      let right = 1 + Random.State.int st 4 in
      let edges = ref [] in
      for l = 0 to left - 1 do
        for r = 0 to right - 1 do
          if Random.State.float st 1.0 < 0.5 then edges := (l, r) :: !edges
        done
      done;
      (* cap edge count to keep the brute force fast *)
      let edges = List.filteri (fun i _ -> i < 12) !edges in
      let module M = Nw_graphs.Matching in
      let m = M.create ~left ~right in
      List.iter (fun (l, r) -> M.add m l r) edges;
      let size, ml, mr = M.maximum_matching m in
      let consistent = ref true in
      Array.iteri
        (fun l r -> if r >= 0 && mr.(r) <> l then consistent := false)
        ml;
      !consistent && size = brute_matching_size left right edges)

(* ------------------------------------------------------------------ *)
(* Degeneracy                                                          *)
(* ------------------------------------------------------------------ *)

let test_degeneracy_known () =
  Alcotest.(check int) "path" 1 (Deg.degeneracy (Gen.path 6));
  Alcotest.(check int) "cycle" 2 (Deg.degeneracy (Gen.cycle 6));
  Alcotest.(check int) "K5" 4 (Deg.degeneracy (Gen.complete 5));
  Alcotest.(check int) "parallel pair" 2
    (Deg.degeneracy (G.of_edges 2 [ (0, 1); (0, 1) ]))

let prop_degeneracy_orientation =
  QCheck.Test.make
    ~name:"degeneracy orientation is acyclic with bounded out-degree"
    ~count:100 (QCheck.int_bound 100000)
    (fun seed ->
      let st = rng seed in
      let n = 3 + Random.State.int st 25 in
      let g = Gen.erdos_renyi st n 0.3 in
      let d = Deg.degeneracy g in
      let o = Deg.orientation g in
      O.is_acyclic o && O.max_out_degree o <= d)

(* ------------------------------------------------------------------ *)
(* Arboricity / orientations                                           *)
(* ------------------------------------------------------------------ *)

(* a random multigraph on [n] vertices: up to 4n uniform pairs, so
   parallel edges and isolated vertices both occur *)
let random_multigraph st n =
  let m = Random.State.int st ((4 * n) + 1) in
  if n < 2 then G.of_edges n []
  else
    G.of_edges n
      (List.init m (fun _ ->
           let u = Random.State.int st n in
           let v = (u + 1 + Random.State.int st (n - 1)) mod n in
           (u, v)))

(* K_c with a pendant path of [len] vertices hanging from vertex c-1: the
   component density ⌈m/n⌉ falls below α* = ⌈(c-1)/2⌉ once the path is
   long, and the degeneracy c-1 is above it *)
let clique_with_tail c len =
  G.of_edges (c + len)
    (Array.to_list (G.edges (Gen.complete c))
    @ List.init len (fun i -> (c - 1 + i, c + i)))

let test_pseudo_arboricity_known () =
  let check name g expected =
    let k, o = Arb.pseudo_arboricity g in
    Alcotest.(check int) name expected k;
    Alcotest.(check int) (name ^ " witness outdeg") k (O.max_out_degree o)
  in
  check "tree" (Gen.path 8) 1;
  check "cycle" (Gen.cycle 7) 1;
  check "K4" (Gen.complete 4) 2;
  check "K5" (Gen.complete 5) 2;
  check "double edge" (G.of_edges 2 [ (0, 1); (0, 1) ]) 1;
  check "triple edge" (G.of_edges 2 [ (0, 1); (0, 1); (0, 1) ]) 2;
  (* degeneracy 5 > α* 3 > ⌈m/n⌉ = 2: the value is certified by a dense
     closed set, not by the bounds meeting *)
  check "K6 with a 30-vertex tail" (clique_with_tail 6 30) 3;
  (* apart, the clique's own component bound ⌈15/6⌉ = 3 settles it *)
  check "K6 beside a 30-vertex tail"
    (Gen.disjoint_union (Gen.complete 6) (Gen.path 30)) 3

let test_density_lower_bound () =
  Alcotest.(check int) "K5 density" 3 (Arb.density_lower_bound (Gen.complete 5));
  Alcotest.(check int) "path" 1 (Arb.density_lower_bound (Gen.path 5));
  Alcotest.(check int) "line multigraph" 4
    (Arb.density_lower_bound (Gen.line_multigraph 10 4))

let test_brute_force_arboricity () =
  Alcotest.(check int) "K4" 2 (Oracle.arboricity (Gen.complete 4));
  Alcotest.(check int) "K5" 3 (Oracle.arboricity (Gen.complete 5));
  Alcotest.(check int) "cycle" 2 (Oracle.arboricity (Gen.cycle 8));
  Alcotest.(check int) "path" 1 (Oracle.arboricity (Gen.path 8))

let prop_pseudo_vs_brute_bounds =
  QCheck.Test.make ~name:"alpha* <= alpha <= 2 alpha* on random graphs"
    ~count:60 (QCheck.int_bound 100000)
    (fun seed ->
      let st = rng seed in
      let n = 3 + Random.State.int st 9 in
      let g = Gen.erdos_renyi st n 0.5 in
      if G.m g = 0 then true
      else begin
        let alpha = Oracle.arboricity g in
        let alpha_star, _ = Arb.pseudo_arboricity g in
        alpha_star <= alpha && alpha <= 2 * alpha_star
      end)

(* at most 12 vertices: random multigraphs (edgeless ones included),
   cliques with pendant paths, and disjoint unions of both *)
let small_multigraph st =
  let tailed () =
    let c = 3 + Random.State.int st 5 in
    clique_with_tail c (Random.State.int st (13 - c))
  in
  match Random.State.int st 4 with
  | 0 | 1 -> random_multigraph st (Random.State.int st 13)
  | 2 -> tailed ()
  | _ ->
      let a = tailed () in
      let n = Random.State.int st (13 - G.n a) in
      Gen.disjoint_union a (random_multigraph st n)

let prop_pseudo_vs_subset_density =
  QCheck.Test.make ~name:"alpha* = brute-force density" ~count:400
    (QCheck.int_bound 1_000_000)
    (fun seed ->
      let g = small_multigraph (rng seed) in
      let k, o = Arb.pseudo_arboricity g in
      k = Oracle.pseudo_arboricity g && O.max_out_degree o = k)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let test_generators_shapes () =
  Alcotest.(check int) "complete edges" 10 (G.m (Gen.complete 5));
  Alcotest.(check int) "bipartite edges" 6 (G.m (Gen.complete_bipartite 2 3));
  Alcotest.(check int) "grid edges" 12 (G.m (Gen.grid 3 3));
  Alcotest.(check int) "binary tree n" 7 (G.n (Gen.binary_tree 2));
  Alcotest.(check bool) "binary tree is tree" true
    (T.is_forest (Gen.binary_tree 3))

let test_random_tree_is_tree () =
  for seed = 0 to 20 do
    let g = Gen.random_tree (rng seed) (5 + seed) in
    Alcotest.(check bool) "is forest" true (T.is_forest g);
    let _, c = T.components g in
    Alcotest.(check int) "connected" 1 c
  done

let test_forest_union_arboricity () =
  let g = Gen.forest_union (rng 7) 30 4 in
  Alcotest.(check int) "m = k(n-1)" (4 * 29) (G.m g);
  Alcotest.(check int) "density bound k" 4 (Arb.density_lower_bound g)

let test_forest_union_simple () =
  let g = Gen.forest_union_simple (rng 11) 40 5 in
  Alcotest.(check bool) "simple" true (G.is_simple g);
  Alcotest.(check int) "m = k(n-1)" (5 * 39) (G.m g);
  Alcotest.(check int) "density bound" 5 (Arb.density_lower_bound g)

let test_line_multigraph_bounds () =
  let g = Gen.line_multigraph 6 3 in
  Alcotest.(check int) "m" 15 (G.m g);
  Alcotest.(check int) "brute arboricity" 3 (Oracle.arboricity g)

let test_list_palettes () =
  let g = Gen.complete 5 in
  let q = Gen.list_palettes (rng 3) g ~colors:10 ~size:4 in
  Array.iter
    (fun palette ->
      Alcotest.(check int) "size" 4 (List.length palette);
      Alcotest.(check bool) "sorted distinct" true
        (let rec ok = function
           | a :: (b :: _ as rest) -> a < b && ok rest
           | _ -> true
         in
         ok palette);
      List.iter
        (fun c -> Alcotest.(check bool) "range" true (c >= 0 && c < 10))
        palette)
    q


let test_new_families () =
  (* caterpillar: a tree *)
  let cat = Gen.caterpillar 5 3 in
  Alcotest.(check int) "caterpillar n" 20 (G.n cat);
  Alcotest.(check bool) "caterpillar tree" true (T.is_forest cat);
  (* hypercube Q3: 8 vertices, 12 edges, alpha = ceil(12/7) = 2 *)
  let q3 = Gen.hypercube 3 in
  Alcotest.(check int) "Q3 n" 8 (G.n q3);
  Alcotest.(check int) "Q3 m" 12 (G.m q3);
  Alcotest.(check int) "Q3 arboricity" 2 (Oracle.arboricity q3);
  (* theta graph: 3 paths of length 3 between two hubs: alpha = 2 *)
  let th = Gen.theta_graph 3 3 in
  Alcotest.(check bool) "theta simple" true (G.is_simple th);
  Alcotest.(check int) "theta arboricity" 2 (Oracle.arboricity th)

let test_k_tree () =
  for k = 1 to 3 do
    let g = Gen.random_k_tree (rng (40 + k)) 16 k in
    Alcotest.(check bool) "simple" true (G.is_simple g);
    Alcotest.(check int) "edges" ((k * (k + 1) / 2) + (k * (16 - k - 1))) (G.m g);
    Alcotest.(check int) "degeneracy = k" k (Deg.degeneracy g);
    Alcotest.(check int) "arboricity = k" k (Oracle.arboricity g)
  done

let test_preferential_attachment () =
  let g = Gen.preferential_attachment (rng 41) 80 3 in
  Alcotest.(check bool) "simple" true (G.is_simple g);
  Alcotest.(check bool) "connected-ish density" true (G.m g >= 70);
  (* the attachment order is an acyclic k-orientation witness *)
  Alcotest.(check bool) "degeneracy <= k" true (Deg.degeneracy g <= 3)


(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

let test_heap_basic () =
  let module H = Nw_graphs.Heap in
  let h = H.create "" in
  Alcotest.(check bool) "empty" true (H.is_empty h);
  H.push h 3.0 "c";
  H.push h 1.0 "a";
  H.push h 2.0 "b";
  Alcotest.(check int) "size" 3 (H.size h);
  Alcotest.(check (option (pair (float 0.) string))) "peek" (Some (1.0, "a"))
    (H.peek h);
  Alcotest.(check (option (pair (float 0.) string))) "pop a" (Some (1.0, "a"))
    (H.pop h);
  Alcotest.(check (option (pair (float 0.) string))) "pop b" (Some (2.0, "b"))
    (H.pop h);
  Alcotest.(check (option (pair (float 0.) string))) "pop c" (Some (3.0, "c"))
    (H.pop h);
  Alcotest.(check bool) "drained" true (H.pop h = None)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:100
    QCheck.(list (float_bound_inclusive 1000.0))
    (fun keys ->
      let module H = Nw_graphs.Heap in
      let h = H.create 0 in
      List.iteri (fun i k -> H.push h k i) keys;
      let rec drain acc =
        match H.pop h with None -> List.rev acc | Some (k, _) -> drain (k :: acc)
      in
      drain [] = List.sort compare keys)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "nw_graphs"
    [
      ( "union_find",
        [
          Alcotest.test_case "basic" `Quick test_uf_basic;
          Alcotest.test_case "copy" `Quick test_uf_copy_independent;
        ] );
      qsuite "union_find_props" [ prop_uf_vs_naive ];
      ( "multigraph",
        [
          Alcotest.test_case "basic" `Quick test_graph_basic;
          Alcotest.test_case "self loop" `Quick test_graph_rejects_self_loop;
          Alcotest.test_case "power" `Quick test_graph_power;
          Alcotest.test_case "ball" `Quick test_graph_ball;
          Alcotest.test_case "induced" `Quick test_graph_induced;
          Alcotest.test_case "subgraph" `Quick test_subgraph_of_edges;
        ] );
      ( "graph_io",
        [ Alcotest.test_case "bad lines" `Quick test_io_rejects_bad_lines ] );
      ( "traversal",
        [
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "is_forest" `Quick test_is_forest;
          Alcotest.test_case "diameter" `Quick test_diameter;
          Alcotest.test_case "bfs_tree" `Quick test_bfs_tree;
        ] );
      qsuite "traversal_props" [ prop_spanning_forest ];
      ("matching", [ Alcotest.test_case "perfect" `Quick test_matching_perfect ]);
      qsuite "matching_props" [ prop_matching_vs_brute ];
      ( "degeneracy",
        [ Alcotest.test_case "known values" `Quick test_degeneracy_known ] );
      qsuite "degeneracy_props" [ prop_degeneracy_orientation ];
      ( "arboricity",
        [
          Alcotest.test_case "pseudo known" `Quick test_pseudo_arboricity_known;
          Alcotest.test_case "density bound" `Quick test_density_lower_bound;
          Alcotest.test_case "brute force" `Quick test_brute_force_arboricity;
        ] );
      qsuite "arboricity_props"
        [ prop_pseudo_vs_brute_bounds; prop_pseudo_vs_subset_density ];
      ("heap", [ Alcotest.test_case "basic" `Quick test_heap_basic ]);
      qsuite "heap_props" [ prop_heap_sorts ];
      ( "generators",
        [
          Alcotest.test_case "shapes" `Quick test_generators_shapes;
          Alcotest.test_case "random tree" `Quick test_random_tree_is_tree;
          Alcotest.test_case "forest union" `Quick test_forest_union_arboricity;
          Alcotest.test_case "forest union simple" `Quick
            test_forest_union_simple;
          Alcotest.test_case "line multigraph" `Quick
            test_line_multigraph_bounds;
          Alcotest.test_case "list palettes" `Quick test_list_palettes;
          Alcotest.test_case "new families" `Quick test_new_families;
          Alcotest.test_case "k-tree" `Quick test_k_tree;
          Alcotest.test_case "preferential attachment" `Quick
            test_preferential_attachment;
        ] );
    ]
