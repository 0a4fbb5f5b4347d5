(* Tests for graph I/O, pseudo-forest decompositions, and the recoloring
   helpers. *)

module G = Nw_graphs.Multigraph
module Gen = Nw_graphs.Generators
module Io = Nw_graphs.Graph_io
module Verify = Nw_decomp.Verify
module Coloring = Nw_decomp.Coloring
module Rounds = Nw_localsim.Rounds

let rng seed = Random.State.make [| seed; 555 |]

(* ------------------------------------------------------------------ *)
(* Graph I/O                                                           *)
(* ------------------------------------------------------------------ *)

let test_io_roundtrip () =
  let g = Gen.forest_union (rng 1) 30 3 in
  let g' = Io.parse_edge_list (Io.to_edge_list g) in
  Alcotest.(check int) "n" (G.n g) (G.n g');
  Alcotest.(check int) "m" (G.m g) (G.m g');
  Alcotest.(check bool) "edges equal" true (G.edges g = G.edges g')

let test_io_parses_comments_and_header () =
  let g = Io.parse_edge_list "# a comment\nn 5\n0 1\n1 2 # trailing\n\n3 4\n" in
  Alcotest.(check int) "n from header" 5 (G.n g);
  Alcotest.(check int) "m" 3 (G.m g)

let test_io_infers_n () =
  let g = Io.parse_edge_list "0 1\n1 7\n" in
  Alcotest.(check int) "n inferred" 8 (G.n g)

let test_io_rejects_malformed () =
  let fails s =
    match Io.parse_edge_list s with
    | exception Failure _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "garbage" true (fails "0 x\n");
  Alcotest.(check bool) "three fields" true (fails "0 1 2\n");
  Alcotest.(check bool) "out of range" true (fails "n 2\n0 5\n");
  Alcotest.(check bool) "duplicate header" true (fails "n 2\nn 3\n")

let test_io_dot () =
  let g = Gen.path 3 in
  let c = Coloring.create g ~colors:2 in
  Coloring.set c 0 0;
  Coloring.set c 1 1;
  let dot = Io.to_dot g ~edge_color:(fun e -> Coloring.color c e) in
  Alcotest.(check bool) "mentions edge" true
    (String.length dot > 0
    && String.index_opt dot '{' <> None
    && String.index_opt dot '}' <> None)

(* ------------------------------------------------------------------ *)
(* Pseudo-forests                                                      *)
(* ------------------------------------------------------------------ *)

let test_pseudo_forest_verifier () =
  (* a cycle in one class is a pseudo-forest (one cycle per component) *)
  let g = Gen.cycle 5 in
  let assignment = Array.make 5 0 in
  Alcotest.(check bool) "cycle ok" true
    (Verify.pseudo_forest_assignment g assignment ~k:1 = Ok ());
  (* theta graph: two vertices joined by 3 parallel edges = 2 cycles in one
     component: not a pseudo-forest *)
  let theta = G.of_edges 2 [ (0, 1); (0, 1); (0, 1) ] in
  match Verify.pseudo_forest_assignment theta (Array.make 3 0) ~k:1 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "theta graph is not a pseudo-forest"

let test_pseudo_forest_of_orientation () =
  let g = Gen.complete 7 in
  let _, o = Nw_graphs.Arboricity.pseudo_arboricity g in
  let assignment, k = Nw_core.Pseudo_forest.of_orientation o in
  Alcotest.(check bool) "k = max out-degree" true
    (k = Nw_graphs.Orientation.max_out_degree o);
  match Verify.pseudo_forest_assignment g assignment ~k with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_pseudo_forest_end_to_end () =
  let st = rng 2 in
  let g = Gen.forest_union st 60 4 in
  let rounds = Rounds.create () in
  let assignment, k =
    Nw_engine.Run.pseudo g ~epsilon:1.0 ~alpha:4 ~rng:st ~rounds ()
  in
  ignore assignment;
  (* (1+eps)*alpha plus leftover slack *)
  Alcotest.(check bool) "k bounded" true (k <= 8)

(* ------------------------------------------------------------------ *)
(* Recolor helpers                                                     *)
(* ------------------------------------------------------------------ *)

let test_recolor_append_forests () =
  let st = rng 3 in
  let g = Gen.forest_union st 50 3 in
  (* color half the edges exactly, leave the rest as 'removed' *)
  let base = Coloring.create g ~colors:3 in
  let removed = Array.make (G.m g) false in
  G.fold_edges
    (fun e _ _ () ->
      if e mod 2 = 0 then begin
        let rec try_color c =
          if c < 3 then
            if Coloring.would_close_cycle base e c then try_color (c + 1)
            else Coloring.set base e c
          else removed.(e) <- true
        in
        try_color 0
      end
      else removed.(e) <- true)
    g ();
  let rounds = Rounds.create () in
  let out, fresh = Nw_core.Recolor.append_forests base removed ~rounds in
  Alcotest.(check bool) "fresh colors added" true (fresh > 0);
  Verify.exn (Verify.forest_decomposition out);
  (* base colors preserved *)
  G.fold_edges
    (fun e _ _ () ->
      match Coloring.color base e with
      | Some c ->
          Alcotest.(check (option int)) "preserved" (Some c)
            (Coloring.color out e)
      | None -> ())
    g ()

let test_recolor_append_stars () =
  let st = rng 4 in
  let g = Gen.forest_union st 50 3 in
  let base = Coloring.create g ~colors:1 in
  let removed = Array.make (G.m g) true in
  let rounds = Rounds.create () in
  let ids = Array.init (G.n g) (fun v -> v) in
  let out, fresh = Nw_core.Recolor.append_stars base removed ~ids ~rounds in
  Alcotest.(check bool) "fresh colors" true (fresh > 0);
  Verify.exn (Verify.star_forest_decomposition out)

let test_recolor_noop () =
  let g = Gen.path 4 in
  let base = Coloring.create g ~colors:1 in
  G.fold_edges (fun e _ _ () -> Coloring.set base e 0) g ();
  let removed = Array.make (G.m g) false in
  let rounds = Rounds.create () in
  let out, fresh = Nw_core.Recolor.append_forests base removed ~rounds in
  Alcotest.(check int) "no fresh colors" 0 fresh;
  Alcotest.(check int) "same object semantics" (Coloring.colors base)
    (Coloring.colors out)


(* ------------------------------------------------------------------ *)
(* API corners                                                         *)
(* ------------------------------------------------------------------ *)

let test_augment_apply_guards () =
  let g = Gen.path 3 in
  let c = Coloring.create g ~colors:2 in
  Alcotest.check_raises "empty sequence"
    (Invalid_argument "Augmenting.apply: empty sequence") (fun () ->
      Nw_core.Augmenting.apply c []);
  Coloring.set c 0 0;
  Alcotest.check_raises "colored head"
    (Invalid_argument "Augmenting.apply: head edge is colored") (fun () ->
      Nw_core.Augmenting.apply c [ (0, 1) ])

let test_coloring_of_assignment_rejects_cycle () =
  let g = Gen.cycle 3 in
  Alcotest.(check bool) "cycle rejected" true
    (match Coloring.of_assignment g ~colors:1 [| 0; 0; 0 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_orientation_reorient () =
  let module O = Nw_graphs.Orientation in
  let g = Gen.path 3 in
  let o = O.make g [| 1; 2 |] in
  Alcotest.(check int) "out-degree of middle" 1 (O.out_degree o 1);
  let o' = O.reorient o 1 1 in
  Alcotest.(check int) "edge flipped" 1 (O.head o' 1);
  Alcotest.(check int) "original untouched" 2 (O.head o 1);
  Alcotest.check_raises "bad head"
    (Invalid_argument "Orientation.reorient: bad head") (fun () ->
      ignore (O.reorient o 1 0))

let test_rounds_pp () =
  let r = Rounds.create () in
  Rounds.charge r ~label:"phase-a" 3;
  let printed = Format.asprintf "%a" Rounds.pp r in
  let contains needle haystack =
    let nl = String.length needle and hl = String.length haystack in
    let rec scan i =
      i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check bool) "mentions total" true
    (contains "total rounds: 3" printed && contains "phase-a" printed)

let test_theta_parallel () =
  (* len = 1 collapses every path to a hub-hub parallel edge *)
  let g = Gen.theta_graph 3 1 in
  Alcotest.(check int) "n" 2 (G.n g);
  Alcotest.(check int) "m" 3 (G.m g);
  Alcotest.(check bool) "not simple" false (G.is_simple g);
  Alcotest.(check int) "arboricity 3" 3 (Oracle.arboricity g)

let test_cut_accessors () =
  let g = Gen.forest_union (rng 9) 40 3 in
  let rounds = Rounds.create () in
  let sampled =
    Nw_core.Cut.create g (Nw_core.Cut.Sampled 0.5) ~epsilon:1.0 ~alpha:3
      ~radius:20 ~num_classes:4 ~rng:(rng 10) ~rounds
  in
  Alcotest.(check bool) "p present" true
    (Nw_core.Cut.sampling_probability sampled <> None);
  Alcotest.(check (option int)) "cap = ceil(eps*alpha)" (Some 3)
    (Nw_core.Cut.overload_cap sampled);
  Alcotest.(check bool) "counters start at 0" true
    (match Nw_core.Cut.load_counters sampled with
    | Some c -> Array.for_all (fun x -> x = 0) c
    | None -> false);
  let depth_mod =
    Nw_core.Cut.create g Nw_core.Cut.Depth_mod ~epsilon:1.0 ~alpha:3
      ~radius:20 ~num_classes:4 ~rng:(rng 11) ~rounds
  in
  Alcotest.(check (option int)) "no counters for depth-mod" None
    (Nw_core.Cut.overload_cap depth_mod)

let test_file_io_roundtrip () =
  let g = Gen.forest_union (rng 12) 20 2 in
  let path = Filename.temp_file "nw_test" ".txt" in
  Io.write_edge_list path g;
  let g' = Io.read_edge_list path in
  Sys.remove path;
  Alcotest.(check bool) "same edges" true (G.edges g = G.edges g')

let () =
  Alcotest.run "nw_extras"
    [
      ( "graph_io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "comments/header" `Quick
            test_io_parses_comments_and_header;
          Alcotest.test_case "infers n" `Quick test_io_infers_n;
          Alcotest.test_case "malformed" `Quick test_io_rejects_malformed;
          Alcotest.test_case "dot" `Quick test_io_dot;
        ] );
      ( "pseudo_forest",
        [
          Alcotest.test_case "verifier" `Quick test_pseudo_forest_verifier;
          Alcotest.test_case "of orientation" `Quick
            test_pseudo_forest_of_orientation;
          Alcotest.test_case "end to end" `Quick test_pseudo_forest_end_to_end;
        ] );
      ( "api_corners",
        [
          Alcotest.test_case "augment guards" `Quick test_augment_apply_guards;
          Alcotest.test_case "of_assignment cycle" `Quick
            test_coloring_of_assignment_rejects_cycle;
          Alcotest.test_case "reorient" `Quick test_orientation_reorient;
          Alcotest.test_case "rounds pp" `Quick test_rounds_pp;
          Alcotest.test_case "theta parallel" `Quick test_theta_parallel;
          Alcotest.test_case "cut accessors" `Quick test_cut_accessors;
          Alcotest.test_case "file io" `Quick test_file_io_roundtrip;
        ] );
      ( "recolor",
        [
          Alcotest.test_case "append forests" `Quick
            test_recolor_append_forests;
          Alcotest.test_case "append stars" `Quick test_recolor_append_stars;
          Alcotest.test_case "noop" `Quick test_recolor_noop;
        ] );
    ]
