(* Tests for the centralized baselines: Gabow-Westermann exact decomposition
   (with density-witness certificates), the AMR 2-alpha star split, greedy
   forest coloring, and the Barenboim-Elkin (2+eps)-alpha baseline. *)

module G = Nw_graphs.Multigraph
module Gen = Nw_graphs.Generators
module Arb = Nw_graphs.Arboricity
module Rounds = Nw_localsim.Rounds
module Coloring = Nw_decomp.Coloring
module Palette = Nw_decomp.Palette
module Verify = Nw_decomp.Verify
module GW = Nw_baseline.Gabow_westermann
module Amr = Nw_baseline.Amr_star
module Greedy = Nw_baseline.Greedy_forest
module BE = Nw_baseline.Barenboim_elkin
module Obs = Nw_obs.Obs

let rng seed = Random.State.make [| seed; 31337 |]

(* ------------------------------------------------------------------ *)
(* Gabow-Westermann                                                    *)
(* ------------------------------------------------------------------ *)

let test_gw_known_arboricities () =
  let cases =
    [
      ("K4", Gen.complete 4, 2);
      ("K5", Gen.complete 5, 3);
      ("K6", Gen.complete 6, 3);
      ("K7", Gen.complete 7, 4);
      ("K33", Gen.complete_bipartite 3 3, 2);
      ("cycle", Gen.cycle 9, 2);
      ("path", Gen.path 9, 1);
      ("grid", Gen.grid 5 5, 2);
      ("line multigraph", Gen.line_multigraph 7 4, 4);
      ("petersen-ish 3-regular", Gen.random_regular (rng 1) 10 3, 2);
    ]
  in
  List.iter
    (fun (name, g, expected) ->
      let k, coloring = GW.arboricity g in
      Alcotest.(check int) name expected k;
      Verify.exn (Verify.forest_decomposition coloring);
      Alcotest.(check bool) (name ^ " uses k") true
        (Verify.colors_used coloring <= k))
    cases

let prop_gw_matches_brute_force =
  QCheck.Test.make ~name:"gw arboricity = brute force" ~count:60
    (QCheck.int_bound 100000)
    (fun seed ->
      let st = rng seed in
      let n = 4 + Random.State.int st 8 in
      let g = Gen.erdos_renyi st n 0.5 in
      G.m g = 0 || fst (GW.arboricity g) = Oracle.arboricity g)

(* [arboricity_value] must agree with the witnessed search and with
   Nash-Williams' formula on simple graphs, multigraphs and disjoint
   unions of both (so components of different density), n <= 12 *)
let prop_gw_value_matches =
  QCheck.Test.make ~name:"arboricity_value = arboricity = brute force"
    ~count:120 (QCheck.int_bound 100000)
    (fun seed ->
      let st = rng seed in
      let small () =
        let n = 2 + Random.State.int st 5 in
        match Random.State.int st 3 with
        | 0 -> Gen.erdos_renyi st n (Random.State.float st 1.0)
        | 1 -> Gen.forest_union st n (1 + Random.State.int st 3)
        | _ -> Gen.complete n
      in
      let g =
        match Random.State.int st 3 with
        | 0 -> Gen.erdos_renyi st (4 + Random.State.int st 9) 0.5
        | 1 ->
            Gen.forest_union st (2 + Random.State.int st 11)
              (1 + Random.State.int st 4)
        | _ -> Gen.disjoint_union (small ()) (small ())
      in
      let v = GW.arboricity_value g in
      v = fst (GW.arboricity g) && v = Oracle.arboricity g)

(* partitions run by [arboricity_value], counted as
   "baseline.gabow_westermann" spans *)
let partitions_run g =
  Obs.set_enabled true;
  let v, trace =
    Fun.protect ~finally:(fun () -> Obs.set_enabled false) (fun () ->
        Obs.collect (fun () -> GW.arboricity_value g))
  in
  let calls =
    List.fold_left
      (fun acc (p : Obs.phase) ->
        if String.equal p.Obs.name "baseline.gabow_westermann" then
          acc + p.Obs.calls
        else acc)
      0 (Obs.phases trace)
  in
  (v, calls)

(* the sandwich, not the binary search, settles these: a cycle has
   density bound 2 = degeneracy (no partition); K4 has density bound 2 <
   degeneracy 3 and alpha 2 (one partition, at 2). The search from the
   degeneracy down would run 1 and 2. K5 with a pendant path has density
   bound 2 < alpha 3 < degeneracy 4: the partition at 2 stalls and the
   search over (2, 4] resolves it. *)
let test_gw_value_partitions () =
  let k5_tail =
    G.of_edges 12
      (Array.to_list (G.edges (Gen.complete 5))
      @ List.init 7 (fun i -> (4 + i, 5 + i)))
  in
  List.iter
    (fun (name, g, alpha, partitions) ->
      let v, calls = partitions_run g in
      Alcotest.(check int) (name ^ " alpha") alpha v;
      Alcotest.(check int) (name ^ " partitions") partitions calls)
    [
      ("cycle", Gen.cycle 9, 2, 0);
      ("K4", Gen.complete 4, 2, 1);
      ("K5 + path", k5_tail, 3, 2);
    ]

let test_gw_witness () =
  (* K5 cannot be covered by 2 forests; the witness must certify it *)
  let g = Gen.complete 5 in
  match GW.forest_partition g 2 with
  | Ok _ -> Alcotest.fail "K5 into 2 forests is impossible"
  | Error witness ->
      Alcotest.(check bool) "witness certifies density > 2" true
        (GW.check_witness g 2 witness)

let prop_gw_witness_on_stall =
  QCheck.Test.make ~name:"every stall yields a valid density witness"
    ~count:60 (QCheck.int_bound 100000)
    (fun seed ->
      let st = rng seed in
      let n = 4 + Random.State.int st 7 in
      let g = Gen.erdos_renyi st n 0.6 in
      if G.m g = 0 then true
      else begin
        let alpha = Oracle.arboricity g in
        if alpha < 2 then true
        else
          match GW.forest_partition g (alpha - 1) with
          | Ok _ -> false (* below arboricity must fail *)
          | Error witness -> GW.check_witness g (alpha - 1) witness
      end)

(* Oracle: the closure Gabow–Westermann computed for its witness before
   the stall's own vertex set replaced it — {start} closed under "add
   the edges of C(e, c) adjacent to the spanned vertices", recomputed to
   a fixpoint; returns the spanned vertex set. *)
let closure_of_stall g coloring palette start =
  let spanned = Hashtbl.create 64 in
  let u0, v0 = G.endpoints g start in
  Hashtbl.replace spanned u0 ();
  Hashtbl.replace spanned v0 ();
  let in_set = Hashtbl.create 64 in
  Hashtbl.replace in_set start ();
  let changed = ref true in
  while !changed do
    changed := false;
    let members = Hashtbl.fold (fun e () acc -> e :: acc) in_set [] in
    List.iter
      (fun e ->
        let own = Coloring.color coloring e in
        List.iter
          (fun c ->
            if own <> Some c then
              match Coloring.path coloring e c with
              | None -> ()
              | Some path_edges ->
                  List.iter
                    (fun e' ->
                      if not (Hashtbl.mem in_set e') then begin
                        let u, v = G.endpoints g e' in
                        if Hashtbl.mem spanned u || Hashtbl.mem spanned v
                        then begin
                          Hashtbl.replace in_set e' ();
                          Hashtbl.replace spanned u ();
                          Hashtbl.replace spanned v ();
                          changed := true
                        end
                      end)
                    path_edges)
          (Palette.get palette e))
      members
  done;
  Hashtbl.fold (fun v () acc -> v :: acc) spanned []

(* a stall's witness is that closure's vertex set: replay
   Gabow–Westermann's edge-by-edge augmentation up to its first stall
   and compare, as sets, with the oracle and with what GW reports *)
let prop_gw_witness_is_closure =
  QCheck.Test.make ~name:"stall witness = Algorithm 1 closure" ~count:60
    (QCheck.int_bound 100000)
    (fun seed ->
      let st = rng seed in
      let n = 4 + Random.State.int st 8 in
      let g =
        if seed mod 2 = 0 then Gen.erdos_renyi st n 0.6
        else Gen.forest_union st n 3
      in
      QCheck.assume (G.m g > 0);
      let k = max 1 (Oracle.arboricity g - 1) in
      let palette =
        if seed mod 3 = 0 then
          Palette.of_lists ~colors:(2 * k)
            (Gen.list_palettes st g ~colors:(2 * k) ~size:k)
        else Palette.full g k
      in
      let coloring = Coloring.create g ~colors:(Palette.color_space palette) in
      let scratch = Nw_core.Augmenting.scratch coloring in
      let sorted l = List.sort_uniq compare l in
      let rec first_stall e =
        if e >= G.m g then None
        else
          match
            Nw_core.Augmenting.augment_edge coloring palette ~edge:e ~scratch ()
          with
          | Ok _ -> first_stall (e + 1)
          | Error w -> Some (w, closure_of_stall g coloring palette e)
      in
      match (first_stall 0, GW.list_forest_partition g palette) with
      | None, Ok _ -> true
      | Some (w, oracle), Error gw ->
          sorted w = sorted oracle && sorted gw = sorted w
          && List.length w = List.length (sorted w)
      | _ -> false)

let test_gw_list_seymour () =
  (* Seymour: alpha-sized palettes always admit a list decomposition *)
  let st = rng 2 in
  for seed = 0 to 14 do
    let g = Gen.erdos_renyi (rng (10 + seed)) 10 0.55 in
    if G.m g > 0 then begin
      let alpha = Oracle.arboricity g in
      let colors = (2 * alpha) + 3 in
      let lists = Gen.list_palettes st g ~colors ~size:alpha in
      let palette = Palette.of_lists ~colors lists in
      match GW.list_forest_partition g palette with
      | Ok coloring ->
          Verify.exn (Verify.forest_decomposition coloring);
          Verify.exn (Verify.respects_palette coloring palette)
      | Error _ -> Alcotest.fail "Seymour-sized palettes must succeed"
    end
  done

(* ------------------------------------------------------------------ *)
(* AMR star split                                                      *)
(* ------------------------------------------------------------------ *)

let test_amr_star () =
  let cases =
    [ Gen.complete 7; Gen.grid 6 6; Gen.forest_union (rng 3) 40 3 ]
  in
  List.iter
    (fun g ->
      let sfd, alpha = Amr.decompose g in
      Verify.exn (Verify.star_forest_decomposition sfd);
      Alcotest.(check bool) "2 alpha colors" true
        (Verify.colors_used sfd <= 2 * alpha))
    cases


let test_star_arboricity_brute () =
  let module A = Nw_baseline.Amr_star in
  (* stars need 1 class; any path of >= 3 edges needs 2; a triangle splits
     as {ab, ac} + {bc} so 2; parallel edges must separate *)
  Alcotest.(check int) "star" 1 (A.star_arboricity_brute (Gen.star 4));
  Alcotest.(check int) "P5" 2 (A.star_arboricity_brute (Gen.path 5));
  Alcotest.(check int) "triangle" 2 (A.star_arboricity_brute (Gen.cycle 3));
  Alcotest.(check int) "C6" 2 (A.star_arboricity_brute (Gen.cycle 6));
  Alcotest.(check int) "parallel pair" 2
    (A.star_arboricity_brute (G.of_edges 2 [ (0, 1); (0, 1) ]))

let prop_star_arboricity_bounds =
  QCheck.Test.make ~name:"alpha <= alpha_star <= 2 alpha (Cor 1.2), exactly"
    ~count:40 (QCheck.int_bound 100000)
    (fun seed ->
      let st = rng seed in
      let n = 4 + Random.State.int st 4 in
      let g = Gen.erdos_renyi st n 0.4 in
      if G.m g = 0 || G.m g > 14 then true
      else begin
        let alpha = Oracle.arboricity g in
        let astar = Nw_baseline.Amr_star.star_arboricity_brute g in
        alpha <= astar && astar <= 2 * alpha
      end)

let prop_amr_upper_bounds_brute =
  QCheck.Test.make ~name:"parity split never beats the exact star arboricity"
    ~count:30 (QCheck.int_bound 100000)
    (fun seed ->
      let st = rng seed in
      let n = 4 + Random.State.int st 4 in
      let g = Gen.erdos_renyi st n 0.35 in
      if G.m g = 0 || G.m g > 14 then true
      else begin
        let sfd, _ = Nw_baseline.Amr_star.decompose g in
        let used = Verify.colors_used sfd in
        used >= Nw_baseline.Amr_star.star_arboricity_brute g
      end)

(* ------------------------------------------------------------------ *)
(* Greedy                                                              *)
(* ------------------------------------------------------------------ *)

let test_greedy_valid () =
  let g = Gen.complete 8 in
  let coloring = Greedy.greedy g in
  Verify.exn (Verify.forest_decomposition coloring)

let test_greedy_eager_budget () =
  let g = Gen.complete 6 in
  (* alpha = 3; with only 2 colors some edges stay uncolored *)
  let coloring, uncolored = Greedy.eager g 2 in
  Alcotest.(check bool) "some uncolored" true (uncolored > 0);
  Verify.exn (Verify.partial_forest_decomposition coloring);
  Verify.exn (Verify.uses_at_most coloring 2)

let prop_greedy_never_beats_exact =
  QCheck.Test.make ~name:"greedy uses at least alpha colors" ~count:60
    (QCheck.int_bound 100000)
    (fun seed ->
      let st = rng seed in
      let g = Gen.erdos_renyi st 10 0.5 in
      if G.m g = 0 then true
      else begin
        let alpha = Oracle.arboricity g in
        Verify.colors_used (Greedy.greedy g) >= alpha
      end)

(* ------------------------------------------------------------------ *)
(* Barenboim-Elkin                                                     *)
(* ------------------------------------------------------------------ *)

let test_be_bound () =
  let st = rng 4 in
  let g = Gen.forest_union st 80 4 in
  let alpha_star, _ = Arb.pseudo_arboricity g in
  let rounds = Rounds.create () in
  let coloring = BE.decompose g ~epsilon:0.5 ~alpha_star ~rng:st ~rounds in
  Verify.exn (Verify.forest_decomposition coloring);
  let bound = int_of_float (floor (2.5 *. float_of_int alpha_star)) in
  Alcotest.(check bool) "within (2+eps) alpha*" true
    (Verify.colors_used coloring <= bound);
  Alcotest.(check bool) "rounds logarithmic" true (Rounds.total rounds <= 60)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "nw_baseline"
    [
      ( "gabow_westermann",
        [
          Alcotest.test_case "known" `Quick test_gw_known_arboricities;
          Alcotest.test_case "witness" `Quick test_gw_witness;
          Alcotest.test_case "value partitions" `Quick
            test_gw_value_partitions;
          Alcotest.test_case "seymour lists" `Quick test_gw_list_seymour;
        ] );
      qsuite "gw_props"
        [
          prop_gw_matches_brute_force;
          prop_gw_value_matches;
          prop_gw_witness_on_stall;
          prop_gw_witness_is_closure;
        ];
      ( "amr_star",
        [
          Alcotest.test_case "2 alpha stars" `Quick test_amr_star;
          Alcotest.test_case "brute star arboricity" `Quick
            test_star_arboricity_brute;
        ] );
      qsuite "star_arboricity_props"
        [ prop_star_arboricity_bounds; prop_amr_upper_bounds_brute ];
      ( "greedy",
        [
          Alcotest.test_case "valid" `Quick test_greedy_valid;
          Alcotest.test_case "eager budget" `Quick test_greedy_eager_budget;
        ] );
      qsuite "greedy_props" [ prop_greedy_never_beats_exact ];
      ( "barenboim_elkin",
        [ Alcotest.test_case "bound" `Quick test_be_bound ] );
    ]
