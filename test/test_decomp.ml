(* Tests for palettes, the partial-coloring structure, and the verifier —
   including failure injection (the verifier must reject broken inputs). *)

module G = Nw_graphs.Multigraph
module Gen = Nw_graphs.Generators
module O = Nw_graphs.Orientation
module Palette = Nw_decomp.Palette
module Coloring = Nw_decomp.Coloring
module Verify = Nw_decomp.Verify

let rng seed = Random.State.make [| seed; 77 |]

(* ------------------------------------------------------------------ *)
(* Palette                                                             *)
(* ------------------------------------------------------------------ *)

let test_palette_full () =
  let g = Gen.path 4 in
  let p = Palette.full g 3 in
  Alcotest.(check int) "space" 3 (Palette.color_space p);
  Alcotest.(check int) "min size" 3 (Palette.min_size p);
  Alcotest.(check (list int)) "get" [ 0; 1; 2 ] (Palette.get p 0);
  Alcotest.(check bool) "mem" true (Palette.mem p 1 2);
  Alcotest.(check bool) "not mem" false (Palette.mem p 1 3)

let test_palette_of_lists_validation () =
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Palette.of_lists: palette not sorted strict")
    (fun () -> ignore (Palette.of_lists ~colors:4 [| [ 2; 1 ] |]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Palette.of_lists: color out of range") (fun () ->
      ignore (Palette.of_lists ~colors:2 [| [ 0; 5 ] |]))

let test_palette_filter () =
  let g = Gen.path 3 in
  let p = Palette.filter (Palette.full g 4) (fun _ c -> c mod 2 = 0) in
  Alcotest.(check (list int)) "even only" [ 0; 2 ] (Palette.get p 0)

(* ------------------------------------------------------------------ *)
(* Coloring                                                            *)
(* ------------------------------------------------------------------ *)

let test_coloring_set_unset () =
  let g = Gen.cycle 4 in
  let c = Coloring.create g ~colors:2 in
  Alcotest.(check int) "empty" 0 (Coloring.colored_count c);
  Coloring.set c 0 0;
  Coloring.set c 1 0;
  Coloring.set c 2 0;
  Alcotest.(check int) "three colored" 3 (Coloring.colored_count c);
  Alcotest.(check bool) "closing edge blocked" true
    (Coloring.would_close_cycle c 3 0);
  Alcotest.check_raises "cycle rejected"
    (Invalid_argument "Coloring.set: would close a cycle") (fun () ->
      Coloring.set c 3 0);
  Coloring.set c 3 1;
  Alcotest.(check (array int)) "all colored" [||] (Coloring.uncolored c);
  Coloring.unset c 3;
  Alcotest.(check (array int)) "edge 3 uncolored" [| 3 |] (Coloring.uncolored c)

let test_coloring_recolor_frees_old_class () =
  let g = Gen.cycle 3 in
  let c = Coloring.create g ~colors:2 in
  Coloring.set c 0 0;
  Coloring.set c 1 0;
  (* recoloring edge 1 must free color 0 for edge 2 *)
  Coloring.set c 1 1;
  Coloring.set c 2 0;
  Alcotest.(check (option int)) "edge 1 moved" (Some 1) (Coloring.color c 1);
  Alcotest.(check (option int)) "edge 2 placed" (Some 0) (Coloring.color c 2)

let test_coloring_path_queries () =
  (* path 0-1-2-3 colored 0; query C(e,0) for the cycle-closing edge 0-3 *)
  let g = G.of_edges 4 [ (0, 1); (1, 2); (2, 3); (0, 3) ] in
  let c = Coloring.create g ~colors:2 in
  Coloring.set c 0 0;
  Coloring.set c 1 0;
  Coloring.set c 2 0;
  (match Coloring.path c 3 0 with
  | Some edges ->
      Alcotest.(check (list int)) "path edges" [ 0; 1; 2 ]
        (List.sort compare edges)
  | None -> Alcotest.fail "expected a path");
  Alcotest.(check (option (list int))) "no path in empty color" None
    (Coloring.path c 3 1);
  (* an edge already colored c is its own path *)
  Alcotest.(check (option (list int))) "self path" (Some [ 1 ])
    (Coloring.path c 1 0)

let test_coloring_component_edges () =
  let g = Gen.path 5 in
  let c = Coloring.create g ~colors:2 in
  Coloring.set c 0 0;
  Coloring.set c 1 0;
  Coloring.set c 3 0;
  Alcotest.(check (list int)) "component of 0" [ 0; 1 ]
    (List.sort compare (Coloring.component_edges c 0 0));
  Alcotest.(check (list int)) "component of 4" [ 3 ]
    (List.sort compare (Coloring.component_edges c 4 0));
  Alcotest.(check (list int)) "isolated in color 1" []
    (Coloring.component_edges c 0 1)

let test_coloring_roundtrip () =
  let g = Gen.complete 5 in
  let c = Coloring.create g ~colors:3 in
  Coloring.set c 0 1;
  Coloring.set c 3 2;
  let c2 = Coloring.of_array g ~colors:3 (Coloring.to_array c) in
  Alcotest.(check (option int)) "copy color 0" (Some 1) (Coloring.color c2 0);
  Alcotest.(check (option int)) "copy color 3" (Some 2) (Coloring.color c2 3);
  Alcotest.(check int) "count" 2 (Coloring.colored_count c2)

let test_coloring_subgraph () =
  let g = Gen.path 4 in
  let c = Coloring.create g ~colors:2 in
  Coloring.set c 0 0;
  Coloring.set c 2 0;
  Coloring.set c 1 1;
  let sub, emap = Coloring.subgraph c 0 in
  Alcotest.(check int) "two edges" 2 (G.m sub);
  Alcotest.(check (array int)) "edge map" [| 0; 2 |] emap

(* property: random set/unset churn keeps classes forests and count right *)
let prop_coloring_churn =
  QCheck.Test.make ~name:"random churn maintains forest invariant" ~count:100
    (QCheck.int_bound 100000)
    (fun seed ->
      let st = rng seed in
      let g = Gen.erdos_renyi st 12 0.4 in
      let colors = 4 in
      let c = Coloring.create g ~colors in
      let reference = Array.make (G.m g) (-1) in
      for _ = 1 to 200 do
        if G.m g > 0 then begin
          let e = Random.State.int st (G.m g) in
          if Random.State.bool st then begin
            let col = Random.State.int st colors in
            if not (Coloring.would_close_cycle c e col) then begin
              Coloring.set c e col;
              reference.(e) <- col
            end
          end
          else begin
            Coloring.unset c e;
            reference.(e) <- -1
          end
        end
      done;
      let matches = ref true in
      Array.iteri
        (fun e r ->
          let got = Coloring.color c e in
          let want = if r < 0 then None else Some r in
          if got <> want then matches := false)
        reference;
      !matches && Nw_decomp.Verify.partial_forest_decomposition c = Ok ())

(* property: the linear diameter report equals the all-pairs one, color
   by color, over partial colorings of multigraphs (parallel edges, a
   tail of isolated vertices, colors left empty) *)
let prop_max_forest_diameter =
  QCheck.Test.make ~name:"max_forest_diameter = all-pairs diameter per color"
    ~count:100 (QCheck.int_bound 100000)
    (fun seed ->
      let st = rng seed in
      let used = 2 + Random.State.int st 14 in
      let n = used + Random.State.int st 4 in
      let edges =
        List.init (Random.State.int st 40) (fun _ ->
            let u = Random.State.int st used in
            (u, (u + 1 + Random.State.int st (used - 1)) mod used))
      in
      let g = G.of_edges n edges in
      let colors = 1 + Random.State.int st 4 in
      let c = Coloring.create g ~colors in
      for e = 0 to G.m g - 1 do
        let col = Random.State.int st (colors + 1) in
        if col < colors && not (Coloring.would_close_cycle c e col) then
          Coloring.set c e col
      done;
      let want = ref 0 in
      for col = 0 to colors - 1 do
        let forest, _ = Coloring.subgraph c col in
        want := max !want (Nw_graphs.Traversal.diameter forest)
      done;
      Verify.max_forest_diameter c = !want)

(* ------------------------------------------------------------------ *)
(* Verifier (incl. failure injection)                                  *)
(* ------------------------------------------------------------------ *)

let star_coloring_of g =
  (* color all edges of a star with one color: a legitimate star forest *)
  let c = Coloring.create g ~colors:1 in
  G.fold_edges (fun e _ _ () -> Coloring.set c e 0) g ();
  c

let test_verify_accepts_valid () =
  let g = Gen.star 4 in
  let c = star_coloring_of g in
  Alcotest.(check bool) "fd ok" true (Verify.forest_decomposition c = Ok ());
  Alcotest.(check bool) "sfd ok" true
    (Verify.star_forest_decomposition c = Ok ());
  Alcotest.(check int) "diameter 2" 2 (Verify.max_forest_diameter c);
  Alcotest.(check int) "one color" 1 (Verify.colors_used c)

let test_verify_rejects_uncolored () =
  let g = Gen.path 3 in
  let c = Coloring.create g ~colors:1 in
  Coloring.set c 0 0;
  (match Verify.forest_decomposition c with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "must reject partial coloring");
  Alcotest.(check bool) "partial ok" true
    (Verify.partial_forest_decomposition c = Ok ())

let test_verify_rejects_path3_star () =
  (* a path of 3 edges in one color is a forest but not a star forest *)
  let g = Gen.path 4 in
  let c = Coloring.create g ~colors:1 in
  G.fold_edges (fun e _ _ () -> Coloring.set c e 0) g ();
  Alcotest.(check bool) "fd ok" true (Verify.forest_decomposition c = Ok ());
  match Verify.star_forest_decomposition c with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "must reject non-star forest"

let test_verify_palette_violation () =
  let g = Gen.path 3 in
  let c = Coloring.create g ~colors:3 in
  Coloring.set c 0 2;
  let palette = Palette.of_lists ~colors:3 [| [ 0; 1 ]; [ 0; 1 ] |] in
  match Verify.respects_palette c palette with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "must reject out-of-palette color"

let test_verify_uses_at_most () =
  let g = Gen.path 3 in
  let c = Coloring.create g ~colors:5 in
  Coloring.set c 0 4;
  Alcotest.(check bool) "within 5" true (Verify.uses_at_most c 5 = Ok ());
  match Verify.uses_at_most c 3 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "must reject color 4 >= 3"

let test_verify_orientation () =
  let g = Gen.cycle 4 in
  let o = O.of_total_order g [| 0; 1; 2; 3 |] in
  Alcotest.(check bool) "acyclic" true (Verify.acyclic_orientation o = Ok ());
  Alcotest.(check bool) "outdeg 2" true
    (Verify.orientation_out_degree o 2 = Ok ());
  (match Verify.orientation_out_degree o 1 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "vertex 0 has out-degree 2");
  (* make a directed triangle *)
  let g3 = Gen.cycle 3 in
  let heads = Array.init 3 (fun e -> snd (G.endpoints g3 e)) in
  (* cycle edges (0,1),(1,2),(2,0): heads 1,2,0 -> directed cycle *)
  let o3 = O.make g3 heads in
  match Verify.acyclic_orientation o3 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "directed cycle must be rejected"

let test_verify_all_combines () =
  Alcotest.(check bool) "first error wins" true
    (Verify.all [ Ok (); Error "boom"; Error "later" ] = Error "boom");
  Alcotest.(check bool) "all ok" true (Verify.all [ Ok (); Ok () ] = Ok ())


(* The forest and star checks group the edges by color and reuse one
   union-find and one degree array. The oracle here is the direct
   reading of the predicate: per color its own component labels and
   degree row, edges scanned once in id order, first error wins. The
   assignments are t random forests (or star forests) on one vertex set,
   edge ids interleaved, then up to three perturbations: an edge
   uncolored, given an out-of-range color, or moved to another color
   (which often closes a cycle or a length-3 path). *)
let oracle_forests g colors ~k ~allow_uncolored =
  let n = G.n g in
  let label = Array.init k (fun _ -> Array.init n Fun.id) in
  G.fold_edges
    (fun e u v acc ->
      match (acc, colors.(e)) with
      | Error _, _ -> acc
      | Ok (), None ->
          if allow_uncolored then Ok ()
          else Error (Printf.sprintf "edge %d is uncolored" e)
      | Ok (), Some c when c < 0 || c >= k ->
          Error (Printf.sprintf "edge %d has out-of-range color %d" e c)
      | Ok (), Some c ->
          let l = label.(c) in
          let lu = l.(u) and lv = l.(v) in
          if lu = lv then
            Error
              (Printf.sprintf "color %d contains a cycle through edge %d" c e)
          else begin
            Array.iteri (fun w x -> if x = lv then l.(w) <- lu) l;
            Ok ()
          end)
    g (Ok ())

let oracle_stars g colors ~k =
  match oracle_forests g colors ~k ~allow_uncolored:false with
  | Error _ as e -> e
  | Ok () ->
      let deg = Array.make_matrix k (G.n g) 0 in
      let color e = Option.get colors.(e) in
      G.fold_edges
        (fun e u v () ->
          let c = color e in
          deg.(c).(u) <- deg.(c).(u) + 1;
          deg.(c).(v) <- deg.(c).(v) + 1)
        g ();
      G.fold_edges
        (fun e u v acc ->
          let c = color e in
          if acc = Ok () && deg.(c).(u) >= 2 && deg.(c).(v) >= 2 then
            Error
              (Printf.sprintf "color %d has a path of length 3 through edge %d"
                 c e)
          else acc)
        g (Ok ())

let random_assignment st =
  let n = 1 + Random.State.int st 40 and k = 1 + Random.State.int st 4 in
  let stars = Random.State.bool st in
  let edges = ref [] in
  for c = 0 to k - 1 do
    for v = 1 to n - 1 do
      if Random.State.int st 4 > 0 then
        let p =
          if stars then Random.State.int st (min v 3) else Random.State.int st v
        in
        edges := ((v, p), c) :: !edges
    done
  done;
  let edges = Array.of_list !edges in
  for i = Array.length edges - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = edges.(i) in
    edges.(i) <- edges.(j);
    edges.(j) <- x
  done;
  let g = G.of_edges n (Array.to_list (Array.map fst edges)) in
  let colors = Array.map (fun (_, c) -> Some c) edges in
  let m = Array.length colors in
  if m > 0 then
    for _ = 1 to Random.State.int st 4 do
      let e = Random.State.int st m in
      colors.(e) <-
        (match Random.State.int st 4 with
        | 0 -> None
        | 1 -> Some (if Random.State.bool st then k else -1)
        | _ -> Some (Random.State.int st k))
    done;
  (g, colors, k)

let prop_verify_oracle =
  QCheck.Test.make ~name:"forest and star checks = per-color oracle"
    ~count:300 (QCheck.int_bound 1_000_000) (fun seed ->
      let g, colors, k = random_assignment (rng seed) in
      let forests allow_uncolored =
        Verify.forest_assignment g colors ~k ~allow_uncolored
        = oracle_forests g colors ~k ~allow_uncolored
      in
      let stars = Verify.star_forest_assignment g colors ~k in
      (* a loadable assignment must get the same reports as a Coloring *)
      let same_as_coloring =
        match Coloring.of_array g ~colors:k colors with
        | exception Invalid_argument _ -> true
        | c ->
            Verify.forest_decomposition c
            = Verify.forest_assignment g colors ~k ~allow_uncolored:false
            && Verify.partial_forest_decomposition c
               = Verify.forest_assignment g colors ~k ~allow_uncolored:true
            && Verify.star_forest_decomposition c = stars
      in
      forests false && forests true
      && stars = oracle_stars g colors ~k
      && same_as_coloring)

(* ------------------------------------------------------------------ *)
(* Coloring I/O                                                        *)
(* ------------------------------------------------------------------ *)

let test_coloring_io_roundtrip () =
  let g = Gen.complete 5 in
  let c = Coloring.create g ~colors:3 in
  Coloring.set c 0 2;
  Coloring.set c 4 1;
  Coloring.set c 7 0;
  let c' = Nw_decomp.Coloring_io.of_string g (Nw_decomp.Coloring_io.to_string c) in
  Alcotest.(check int) "colors" 3 (Coloring.colors c');
  G.fold_edges
    (fun e _ _ () ->
      Alcotest.(check (option int))
        (Printf.sprintf "edge %d" e)
        (Coloring.color c e) (Coloring.color c' e))
    g ()

let test_coloring_io_rejects_bad () =
  let g = Gen.path 3 in
  let fails s =
    match Nw_decomp.Coloring_io.of_string g s with
    | exception Failure _ -> true
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "no header" true (fails "0 0\n");
  Alcotest.(check bool) "bad edge id" true (fails "colors 2\n9 0\n");
  Alcotest.(check bool) "bad color" true (fails "colors 2\n0 5\n");
  (* a monochromatic cycle must be rejected by the forest invariant *)
  let cyc = Gen.cycle 3 in
  Alcotest.(check bool) "cycle rejected" true
    (match
       Nw_decomp.Coloring_io.of_string cyc "colors 1\n0 0\n1 0\n2 0\n"
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "nw_decomp"
    [
      ( "palette",
        [
          Alcotest.test_case "full" `Quick test_palette_full;
          Alcotest.test_case "validation" `Quick
            test_palette_of_lists_validation;
          Alcotest.test_case "filter" `Quick test_palette_filter;
        ] );
      ( "coloring",
        [
          Alcotest.test_case "set/unset" `Quick test_coloring_set_unset;
          Alcotest.test_case "recolor" `Quick
            test_coloring_recolor_frees_old_class;
          Alcotest.test_case "paths" `Quick test_coloring_path_queries;
          Alcotest.test_case "components" `Quick test_coloring_component_edges;
          Alcotest.test_case "roundtrip" `Quick test_coloring_roundtrip;
          Alcotest.test_case "subgraph" `Quick test_coloring_subgraph;
        ] );
      qsuite "coloring_props" [ prop_coloring_churn; prop_max_forest_diameter ];
      ( "coloring_io",
        [
          Alcotest.test_case "roundtrip" `Quick test_coloring_io_roundtrip;
          Alcotest.test_case "rejects bad" `Quick test_coloring_io_rejects_bad;
        ] );
      ( "verify",
        [
          Alcotest.test_case "accepts valid" `Quick test_verify_accepts_valid;
          Alcotest.test_case "rejects uncolored" `Quick
            test_verify_rejects_uncolored;
          Alcotest.test_case "rejects long star" `Quick
            test_verify_rejects_path3_star;
          Alcotest.test_case "palette violation" `Quick
            test_verify_palette_violation;
          Alcotest.test_case "uses_at_most" `Quick test_verify_uses_at_most;
          Alcotest.test_case "orientation" `Quick test_verify_orientation;
          Alcotest.test_case "all" `Quick test_verify_all_combines;
        ] );
      qsuite "verify_props" [ prop_verify_oracle ];
    ]
