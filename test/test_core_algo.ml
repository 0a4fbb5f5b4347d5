(* End-to-end tests for the paper's main machinery: augmenting sequences
   (Section 3), diameter reduction (Prop 2.4), CUT + Algorithm 2 (Section 4),
   vertex-color splitting (Thm 4.9), LFD (Thm 4.10), star forests
   (Section 5), LSFD (Thm 2.3), and orientations (Cor 1.1). *)

module G = Nw_graphs.Multigraph
module Gen = Nw_graphs.Generators
module O = Nw_graphs.Orientation
module Arb = Nw_graphs.Arboricity
module Rounds = Nw_localsim.Rounds
module Coloring = Nw_decomp.Coloring
module Palette = Nw_decomp.Palette
module Verify = Nw_decomp.Verify
module Aug = Nw_core.Augmenting
module DR = Nw_core.Diameter_reduction
module Cut = Nw_core.Cut
module FA = Nw_core.Forest_algo
module CS = Nw_core.Color_split
module SF = Nw_core.Star_forest
module Lsfd = Nw_core.Lsfd
module Orient = Nw_core.Orient
module Run = Nw_engine.Run

let rng seed = Random.State.make [| seed; 99 |]
let ids n = Array.init n (fun v -> v)

(* ------------------------------------------------------------------ *)
(* Augmenting sequences (Section 3)                                    *)
(* ------------------------------------------------------------------ *)

(* random partial coloring: greedily color a random subset of edges *)
let random_partial st g colors =
  let c = Coloring.create g ~colors in
  G.fold_edges
    (fun e _ _ () ->
      if Random.State.float st 1.0 < 0.7 then begin
        let col = Random.State.int st colors in
        if not (Coloring.would_close_cycle c e col) then Coloring.set c e col
      end)
    g ();
  c

let test_augment_k5 () =
  (* K5 has arboricity 3: every uncolored edge must be augmentable with
     3 colors *)
  let g = Gen.complete 5 in
  let palette = Palette.full g 3 in
  let coloring = Coloring.create g ~colors:3 in
  Array.iter
    (fun e ->
      match Aug.augment_edge coloring palette ~edge:e () with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "augmentation stalled below arboricity")
    (Coloring.uncolored coloring);
  Verify.exn (Verify.forest_decomposition coloring)

let test_augment_respects_radius () =
  (* restrict the search to a region not containing the start edge: must be
     rejected *)
  let g = Gen.path 5 in
  let palette = Palette.full g 1 in
  let coloring = Coloring.create g ~colors:1 in
  let within = Array.make 5 false in
  within.(3) <- true;
  within.(4) <- true;
  Alcotest.check_raises "outside region"
    (Invalid_argument "Augmenting.search: start edge outside the search region")
    (fun () -> ignore (Aug.search coloring palette ~start:0 ~within ()))

let test_augment_stall_on_tight_palette () =
  (* two parallel edges with 1 color: the second cannot be colored *)
  let g = G.of_edges 2 [ (0, 1); (0, 1) ] in
  let palette = Palette.full g 1 in
  let coloring = Coloring.create g ~colors:1 in
  (match Aug.augment_edge coloring palette ~edge:0 () with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "first edge must color");
  match Aug.search coloring palette ~start:1 () with
  | Aug.Stalled _ -> ()
  | Aug.Found _ -> Alcotest.fail "must stall: alpha = 2 > palette size"

let test_growth_factor () =
  (* Proposition 3.3: with palettes of size (1+eps)*alpha the explored set
     grows geometrically; on K7 (alpha 4) with 5 colors every iteration
     must grow by at least (1+1/4) *)
  let g = Gen.complete 7 in
  let palette = Palette.full g 5 in
  let coloring = Coloring.create g ~colors:5 in
  let max_growth_violation = ref 0.0 in
  List.iter
    (fun e ->
      match Aug.search coloring palette ~start:e () with
      | Aug.Found (seq, stats) ->
          List.iteri
            (fun i (sz_i, sz) ->
              ignore sz_i;
              (* growth entries are (iteration, |E_i|) *)
              if i > 0 then begin
                let _, prev = List.nth stats.Aug.growth (i - 1) in
                let ratio = float_of_int sz /. float_of_int prev in
                if ratio < 1.25 then
                  max_growth_violation := max !max_growth_violation 1.0
              end)
            stats.Aug.growth;
          let seq = Aug.short_circuit coloring seq in
          Aug.apply coloring seq
      | Aug.Stalled _ -> Alcotest.fail "stall with (1+eps) palettes")
    (Array.to_list (Coloring.uncolored coloring));
  Verify.exn (Verify.forest_decomposition coloring);
  Alcotest.(check (float 0.0)) "no growth violations" 0.0
    !max_growth_violation

let prop_augmentation_preserves_invariant =
  QCheck.Test.make ~name:"lemma 3.1: augmentation keeps classes forests"
    ~count:80 (QCheck.int_bound 100000)
    (fun seed ->
      let st = rng seed in
      let n = 6 + Random.State.int st 10 in
      let g = Gen.erdos_renyi st n 0.4 in
      if G.m g = 0 then true
      else begin
        let alpha = Oracle.arboricity g in
        let colors = alpha + 1 in
        let coloring = random_partial st g colors in
        let palette = Palette.full g colors in
        let ok = ref true in
        List.iter
          (fun e ->
            if !ok then
              match Aug.augment_edge coloring palette ~edge:e () with
              | Ok _ ->
                  if Verify.partial_forest_decomposition coloring <> Ok ()
                  then ok := false
              | Error _ -> ())
          (Array.to_list (Coloring.uncolored coloring));
        !ok
      end)

let prop_sequences_satisfy_conditions =
  QCheck.Test.make ~name:"short-circuited sequences satisfy (A1)-(A5)"
    ~count:60 (QCheck.int_bound 100000)
    (fun seed ->
      let st = rng seed in
      let n = 6 + Random.State.int st 8 in
      let g = Gen.erdos_renyi st n 0.5 in
      if G.m g = 0 then true
      else begin
        let alpha = Oracle.arboricity g in
        let colors = alpha + 1 in
        let coloring = random_partial st g colors in
        let palette = Palette.full g colors in
        match Array.to_list (Coloring.uncolored coloring) with
        | [] -> true
        | e :: _ -> (
            match Aug.search coloring palette ~start:e () with
            | Aug.Stalled _ -> true
            | Aug.Found (seq, _) ->
                let seq = Aug.short_circuit coloring seq in
                let arr = Array.of_list seq in
                let l = Array.length arr in
                let ok = ref true in
                (* (A1) *)
                if Coloring.color coloring (fst arr.(0)) <> None then
                  ok := false;
                (* (A5) *)
                Array.iter
                  (fun (e, c) ->
                    if not (Palette.mem palette e c) then ok := false)
                  arr;
                (* (A2) *)
                for i = 1 to l - 1 do
                  let ei_prev, ci_prev = arr.(i - 1) in
                  match Oracle.path coloring ei_prev ci_prev with
                  | None -> ok := false
                  | Some p -> if not (List.mem (fst arr.(i)) p) then ok := false
                done;
                (* (A3) *)
                for i = 0 to l - 1 do
                  for j = 0 to i - 2 do
                    let ej, cj = arr.(j) in
                    match Oracle.path coloring ej cj with
                    | None -> ()
                    | Some p -> if List.mem (fst arr.(i)) p then ok := false
                  done
                done;
                (* (A4) *)
                let el, cl = arr.(l - 1) in
                if Oracle.path coloring el cl <> None then ok := false;
                !ok)
      end)

(* Algorithm 1 as the paper states it, the reference for [Aug.search]:
   iteration i scans E_i newest member first and walks every C(e, c) of
   every scanned edge in full with [iter_path]; an edge of the path that
   is adjacent to E_i (and inside [within]) joins E_{i+1} with the
   scanned edge as its parent. The first scan of an edge asks first
   whether C(e, c) is empty, which ends the search. Returns what
   [Aug.search] returns. *)
let reference_search coloring palette ~start ~within =
  let g = Coloring.graph coloring in
  let allowed e =
    match within with
    | None -> true
    | Some r -> r.(G.src g e) && r.(G.dst g e)
  in
  let members = ref [| start |] in
  let parent = Hashtbl.create 16 in
  Hashtbl.replace parent start (-1);
  let touched = Hashtbl.create 16 in
  let touch e =
    Hashtbl.replace touched (G.src g e) ();
    Hashtbl.replace touched (G.dst g e) ()
  in
  touch start;
  let joined = ref [] in
  let visit e' cur =
    if
      (not (Hashtbl.mem parent e'))
      && allowed e'
      && (Hashtbl.mem touched (G.src g e') || Hashtbl.mem touched (G.dst g e'))
    then begin
      Hashtbl.replace parent e' cur;
      joined := e' :: !joined
    end
  in
  let rec trace e c acc =
    let acc = (e, c) :: acc in
    let p = Hashtbl.find parent e in
    if p < 0 then acc else trace p (Option.get (Coloring.color coloring e)) acc
  in
  let rec iterate i ~scanned growth =
    let hi = Array.length !members in
    let found = ref None in
    let s = ref (hi - 1) in
    while !s >= 0 && !found = None do
      let e = !members.(!s) in
      let rec colors = function
        | [] -> ()
        | c :: rest ->
            if !s >= scanned && not (Coloring.path_exists coloring e c) then
              found := Some (e, c)
            else begin
              Coloring.iter_path coloring e c (fun x -> visit x e);
              colors rest
            end
      in
      colors (Palette.get palette e);
      decr s
    done;
    let all = Array.append !members (Array.of_list (List.rev !joined)) in
    joined := [];
    members := all;
    let stats () =
      {
        Aug.iterations = i;
        explored = Array.length all;
        growth = List.rev growth;
      }
    in
    match !found with
    | Some (e, c) -> Aug.Found (trace e c [], stats ())
    | None when Array.length all = hi ->
        let seen = Hashtbl.create 16 and acc = ref [] in
        Array.iter
          (fun e ->
            List.iter
              (fun v ->
                if not (Hashtbl.mem seen v) then begin
                  Hashtbl.replace seen v ();
                  acc := v :: !acc
                end)
              [ G.src g e; G.dst g e ])
          all;
        Aug.Stalled (stats (), !acc)
    | None ->
        Array.iter touch (Array.sub all hi (Array.length all - hi));
        iterate (i + 1) ~scanned:hi ((i + 1, Array.length all) :: growth)
  in
  iterate 0 ~scanned:0 [ (0, 1) ]

(* the same random forest coloring twice: random sets, unsets and
   recolors, then one unset per color, so that the trees a set left
   pending are stale when a search reads them *)
let twin_colorings st g colors =
  let a = Coloring.create g ~colors and b = Coloring.create g ~colors in
  let both f = f a; f b in
  for step = 1 to 4 * G.m g do
    let e = Random.State.int st (G.m g) in
    if step > G.m g && Random.State.int st 3 = 0 then
      both (fun c -> Coloring.unset c e)
    else begin
      let col = Random.State.int st colors in
      if not (Coloring.would_close_cycle a e col) then
        both (fun c -> Coloring.set c e col)
    end
  done;
  for col = 0 to colors - 1 do
    let es = List.init (G.m g) Fun.id in
    match List.filter (fun e -> Coloring.color a e = Some col) es with
    | [] -> ()
    | es ->
        let e = List.nth es (Random.State.int st (List.length es)) in
        both (fun c -> Coloring.unset c e)
  done;
  (a, b)

(* [Aug.search], which reads only the end edges of C(start, c) in its
   first iteration, against [reference_search] on a twin coloring:
   random multigraphs, full or list palettes of alpha-1 .. alpha+1
   colors, no region, a region of every vertex or a ball, and colorings
   with unsets behind them. Outcome, sequence, statistics, stall witness
   and the uf_queries/repair_vertices deltas must agree, search by
   search; each found sequence is then applied to both twins. *)
let prop_search_matches_reference =
  QCheck.Test.make ~name:"search == full-walk Algorithm 1"
    ~count:300 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let st = rng seed in
      let n = 3 + Random.State.int st 7 in
      let pair () =
        let u = Random.State.int st n in
        (u, (u + 1 + Random.State.int st (n - 1)) mod n)
      in
      let g =
        G.of_edges n (List.init (2 + Random.State.int st 24) (fun _ -> pair ()))
      in
      let alpha = Oracle.arboricity g in
      let k = max 1 (alpha - 1 + Random.State.int st 3) in
      let palette, colors =
        if Random.State.bool st then (Palette.full g k, k)
        else begin
          let colors = k + 2 in
          let pick _ =
            let all = List.init colors Fun.id in
            let shuffled =
              List.map (fun c -> (Random.State.bits st, c)) all
              |> List.sort compare |> List.map snd
            in
            List.sort compare (List.filteri (fun i _ -> i < k) shuffled)
          in
          (Palette.of_lists ~colors (Array.init (G.m g) pick), colors)
        end
      in
      let within =
        match Random.State.int st 3 with
        | 0 -> None
        | 1 -> Some (Array.make n true)
        | _ -> Some (G.ball_of_set g [ Random.State.int st n ] 1)
      in
      let mine, theirs = twin_colorings st g colors in
      let snap () = Coloring.Counters.snapshot () in
      let delta (a : Coloring.Counters.snapshot)
          (b : Coloring.Counters.snapshot) =
        (b.uf_queries - a.uf_queries, b.repair_vertices - a.repair_vertices)
      in
      for e = 0 to G.m g - 1 do
        let inside =
          match within with
          | None -> true
          | Some r -> r.(G.src g e) && r.(G.dst g e)
        in
        if Coloring.color mine e = None && inside then begin
          (* uncolor and recolor a random edge: trees of its color that
             a set left pending go stale *)
          let f = Random.State.int st (G.m g) in
          (match Coloring.color mine f with
          | Some col ->
              List.iter
                (fun c -> Coloring.unset c f; Coloring.set c f col)
                [ mine; theirs ]
          | None -> ());
          let s0 = snap () in
          let got = Aug.search mine palette ~start:e ?within () in
          let s1 = snap () in
          let want = reference_search theirs palette ~start:e ~within in
          let s2 = snap () in
          if got <> want then
            Alcotest.failf "seed %d edge %d: outcome differs" seed e;
          if delta s0 s1 <> delta s1 s2 then
            Alcotest.failf "seed %d edge %d: counters moved differently" seed e;
          match got with
          | Aug.Found (seq, _) ->
              let seq = Aug.short_circuit mine seq in
              Aug.apply mine seq;
              Aug.apply theirs seq
          | Aug.Stalled _ -> ()
        end
      done;
      true)

(* ------------------------------------------------------------------ *)
(* Diameter reduction (Prop 2.4 / Cor 2.5)                             *)
(* ------------------------------------------------------------------ *)

let exact_decomposition g k =
  match Nw_baseline.Gabow_westermann.forest_partition g k with
  | Ok c -> c
  | Error _ -> Alcotest.fail "exact decomposition failed"

let test_diameter_reduction_log () =
  let st = rng 42 in
  let g = Gen.forest_union st 120 4 in
  let coloring = exact_decomposition g 4 in
  let rounds = Rounds.create () in
  let epsilon = 0.5 in
  let reduced, extra =
    DR.reduce coloring ~target:`Log_over_eps ~epsilon ~alpha:4
      ~ids:(ids (G.n g)) ~rng:st ~rounds
  in
  Verify.exn (Verify.forest_decomposition reduced);
  let logn = log (float_of_int (G.n g)) in
  let bound = 2 + (2 * int_of_float (ceil (20.0 *. (logn +. 1.0) /. epsilon))) in
  Alcotest.(check bool) "diameter bounded" true
    (Verify.max_forest_diameter reduced <= bound);
  Alcotest.(check bool) "few extra colors" true (extra <= 12)

let test_diameter_reduction_inv_eps () =
  let st = rng 43 in
  let g = Gen.forest_union st 150 5 in
  let coloring = exact_decomposition g 5 in
  let rounds = Rounds.create () in
  let epsilon = 0.5 in
  let reduced, _extra =
    DR.reduce coloring ~target:`Inv_eps ~epsilon ~alpha:5 ~ids:(ids (G.n g))
      ~rng:st ~rounds
  in
  Verify.exn (Verify.forest_decomposition reduced);
  let z = int_of_float (ceil (40.0 /. epsilon)) in
  Alcotest.(check bool) "diameter O(1/eps)" true
    (Verify.max_forest_diameter reduced <= 2 * z)

let test_chop_depths_bound () =
  let st = rng 44 in
  let g = Gen.path 300 in
  let coloring = exact_decomposition g 1 in
  let rounds = Rounds.create () in
  let deleted = DR.chop_depths coloring ~epsilon:1.0 ~rng:st ~rounds in
  Alcotest.(check bool) "some deletions" true (deleted <> []);
  Verify.exn (Verify.partial_forest_decomposition coloring);
  (* remaining color-0 components have diameter < 2z = 80 *)
  Alcotest.(check bool) "chopped" true
    (Verify.max_forest_diameter coloring <= 80)

(* ------------------------------------------------------------------ *)
(* CUT (Theorem 4.2)                                                   *)
(* ------------------------------------------------------------------ *)

let test_cut_depth_mod_good () =
  (* a long path, colored one color; core = middle vertex; the cut must
     disconnect the core from the far ends *)
  let st = rng 45 in
  let n = 200 in
  let g = Gen.path n in
  let coloring = exact_decomposition g 1 in
  let rounds = Rounds.create () in
  let radius = 20 in
  let cut =
    Cut.create g Cut.Depth_mod ~epsilon:0.5 ~alpha:1 ~radius ~num_classes:8
      ~rng:st ~rounds
  in
  let mid = n / 2 in
  let core = G.ball_of_set g [ mid ] 3 in
  let region = G.ball_of_set g [ mid ] (3 + radius) in
  let removed = Array.make (G.m g) false in
  Cut.execute cut coloring ~core ~region ~removed;
  Alcotest.(check bool) "good" true (Cut.is_good coloring ~core ~region);
  (* eligible edges only: nothing inside the core was removed *)
  G.fold_edges
    (fun e u v () ->
      if core.(u) && core.(v) then
        Alcotest.(check bool) "core edge kept" false removed.(e))
    g ()

let test_cut_sampled_leftover_bounded () =
  let st = rng 46 in
  let g = Gen.forest_union st 150 3 in
  let coloring = exact_decomposition g 3 in
  let rounds = Rounds.create () in
  let epsilon = 1.0 in
  let cut =
    Cut.create g (Cut.Sampled 0.5) ~epsilon ~alpha:3 ~radius:30
      ~num_classes:8 ~rng:st ~rounds
  in
  let removed = Array.make (G.m g) false in
  let core = G.ball_of_set g [ 0 ] 2 in
  let region = G.ball_of_set g [ 0 ] 32 in
  for _ = 1 to 8 do
    Cut.execute cut coloring ~core ~region ~removed
  done;
  (* the counters cap each vertex at ceil(eps*alpha) deletions of its own
     out-edges: leftover pseudo-arboricity <= 3 + cap *)
  let sub, _ = G.subgraph_of_edges g removed in
  let pa, _ = Arb.pseudo_arboricity sub in
  Alcotest.(check bool) "leftover sparse" true (pa <= 3)

(* ------------------------------------------------------------------ *)
(* Algorithm 2 end-to-end (Theorems 4.5 / 4.6)                         *)
(* ------------------------------------------------------------------ *)

let check_fd_complete name coloring bound =
  Verify.exn (Verify.forest_decomposition coloring);
  let used = Verify.colors_used coloring in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d colors <= %d" name used bound)
    true (used <= bound)

let test_forest_decomposition_families () =
  let cases =
    [
      ("forest_union", Gen.forest_union (rng 50) 80 4, 4);
      ("grid", Gen.grid 10 10, 2);
      ("K8", Gen.complete 8, 4);
      ("line multigraph", Gen.line_multigraph 40 3, 3);
    ]
  in
  List.iter
    (fun (name, g, alpha) ->
      let st = rng (Hashtbl.hash name) in
      let rounds = Rounds.create () in
      let coloring, stats =
        Run.forest_decomposition g ~epsilon:1.0 ~alpha ~rng:st ~rounds ()
      in
      ignore stats;
      (* (1+eps)*alpha with eps=1: at most 2*alpha colors *)
      check_fd_complete name coloring (2 * alpha))
    cases

let test_forest_decomposition_diameter () =
  let st = rng 51 in
  let g = Gen.forest_union st 100 4 in
  let rounds = Rounds.create () in
  let coloring, _ =
    Run.forest_decomposition g ~epsilon:1.0 ~alpha:4 ~diameter:`Inv_eps
      ~rng:st ~rounds ()
  in
  Verify.exn (Verify.forest_decomposition coloring);
  Alcotest.(check bool) "diameter bounded" true
    (Verify.max_forest_diameter coloring <= 800)

let test_decompose_with_leftover_stats () =
  let st = rng 52 in
  let g = Gen.forest_union st 80 3 in
  let palette = Palette.full g 4 in
  let rounds = Rounds.create () in
  let radii =
    FA.default_radii ~n:(G.n g) ~epsilon:0.4 ~alpha:3
      ~max_degree:(G.max_degree g) ~cut:Cut.Depth_mod
  in
  let coloring, removed, stats =
    Run.decompose_with_leftover g palette ~epsilon:0.4 ~alpha:3
      ~cut:Cut.Depth_mod ~radii ~rng:st ~rounds
  in
  Verify.exn (Verify.partial_forest_decomposition coloring);
  (* every edge is either colored or removed *)
  G.fold_edges
    (fun e _ _ () ->
      Alcotest.(check bool) "covered" true
        (removed.(e) || Coloring.color coloring e <> None))
    g ();
  Alcotest.(check int) "leftover matches mask"
    (Array.fold_left (fun a b -> if b then a + 1 else a) 0 removed)
    stats.FA.leftover_edges;
  Alcotest.(check bool) "rounds charged" true (Rounds.total rounds > 0)

let test_sampled_cut_small_alpha () =
  (* Theorem 4.6 regime alpha = O(1): grid with Sampled cut *)
  let st = rng 53 in
  let g = Gen.grid 9 9 in
  let rounds = Rounds.create () in
  let coloring, _ =
    Run.forest_decomposition g ~epsilon:1.0 ~alpha:2 ~cut:(Cut.Sampled 0.5)
      ~radii:(12, 8) ~rng:st ~rounds ()
  in
  check_fd_complete "grid sampled" coloring 4

(* ------------------------------------------------------------------ *)
(* Color splitting + LFD (Theorems 4.9 / 4.10)                         *)
(* ------------------------------------------------------------------ *)

let test_color_split_mpx () =
  let st = rng 54 in
  let g = Gen.forest_union st 60 4 in
  let colors = 8 in
  let palette = Palette.full g colors in
  let rounds = Rounds.create () in
  let split = CS.mpx_split g ~colors ~epsilon:1.0 ~rng:st ~rounds in
  let q0, q1 = CS.induced_palettes g split palette in
  (* disjointness per vertex: a color cannot appear in both induced
     palettes of the same edge *)
  G.fold_edges
    (fun e _ _ () ->
      List.iter
        (fun c ->
          Alcotest.(check bool) "disjoint" false
            (List.mem c (Palette.get q1 e)))
        (Palette.get q0 e))
    g ();
  let k0, k1 = CS.sizes g split palette in
  Alcotest.(check bool) "sides populated" true (k0 >= 0 && k1 >= 0)

let test_list_forest_decomposition () =
  (* Theorem 4.9/4.10 live in the eps*alpha >> log n regime: the side-1
     palettes only stay non-empty w.h.p. when palettes are large, so this
     test uses a dense multigraph with alpha = 50 *)
  let st = rng 55 in
  let g = Gen.forest_union st 110 50 in
  let colors = 150 in
  let palette = Palette.full g colors in
  let rounds = Rounds.create () in
  let coloring, _stats =
    Run.list_forest_decomposition g palette ~epsilon:1.0 ~alpha:50 ~rng:st
      ~rounds ()
  in
  Verify.exn (Verify.forest_decomposition coloring);
  Verify.exn (Verify.respects_palette coloring palette)

(* ------------------------------------------------------------------ *)
(* LSFD (Theorems 2.2 / 2.3)                                           *)
(* ------------------------------------------------------------------ *)

let test_greedy_degeneracy_lsfd () =
  let st = rng 56 in
  for seed = 0 to 8 do
    let g = Gen.erdos_renyi (rng (60 + seed)) 20 0.3 in
    let d = Nw_graphs.Degeneracy.degeneracy g in
    if G.m g > 0 then begin
      let colors = (4 * d) + 2 in
      let lists = Gen.list_palettes st g ~colors ~size:(2 * d) in
      let palette = Palette.of_lists ~colors lists in
      let coloring = Lsfd.greedy_degeneracy g palette in
      Verify.exn (Verify.star_forest_decomposition coloring);
      Verify.exn (Verify.respects_palette coloring palette)
    end
  done

let test_distributed_lsfd () =
  let st = rng 57 in
  let g = Gen.forest_union st 70 4 in
  let alpha_star, _ = Arb.pseudo_arboricity g in
  let epsilon = 0.5 in
  let size = Lsfd.required_palette ~epsilon ~alpha_star in
  let colors = (2 * size) + 4 in
  let lists = Gen.list_palettes st g ~colors ~size in
  let palette = Palette.of_lists ~colors lists in
  let rounds = Rounds.create () in
  let coloring =
    Lsfd.distributed g palette ~epsilon ~alpha_star ~rng:st ~rounds
  in
  Verify.exn (Verify.star_forest_decomposition coloring);
  Verify.exn (Verify.respects_palette coloring palette)

(* ------------------------------------------------------------------ *)
(* Star forests (Section 5)                                            *)
(* ------------------------------------------------------------------ *)

let test_sfd_simple_graph () =
  let st = rng 58 in
  let g = Gen.forest_union_simple st 80 5 in
  let alpha = 5 in
  let epsilon = 0.6 in
  let rounds = Rounds.create () in
  (* use the exact arboricity orientation as the t-orientation input *)
  let _, fd = Nw_baseline.Gabow_westermann.arboricity g in
  let orientation = Orient.of_forest_decomposition fd ~rounds in
  let coloring, stats =
    Run.sfd g ~epsilon ~alpha ~orientation ~ids:(ids (G.n g)) ~rng:st ~rounds
  in
  Verify.exn (Verify.star_forest_decomposition coloring);
  Alcotest.(check bool) "deficiency accounted" true
    (stats.SF.max_deficiency >= 0)

let test_sfd_rejects_multigraph () =
  let g = G.of_edges 2 [ (0, 1); (0, 1) ] in
  let rounds = Rounds.create () in
  let o = O.make g [| 1; 1 |] in
  Alcotest.(check bool) "rejects" true
    (try
       ignore
         (Run.sfd g ~epsilon:0.5 ~alpha:2 ~orientation:o ~ids:(ids 2)
            ~rng:(rng 0) ~rounds);
       false
     with Invalid_argument _ -> true)

let test_lsfd_section5 () =
  let st = rng 59 in
  let g = Gen.forest_union_simple st 60 4 in
  let rounds = Rounds.create () in
  let _, fd = Nw_baseline.Gabow_westermann.arboricity g in
  let orientation = Orient.of_forest_decomposition fd ~rounds in
  (* generous palettes make perfect matchings achievable at small scale;
     epsilon = 0.5 maximizes the per-color usability (1-eps)*eps *)
  let colors = 24 in
  let lists = Gen.list_palettes st g ~colors ~size:20 in
  let palette = Palette.of_lists ~colors lists in
  let coloring, stats =
    Run.star_lsfd g palette ~epsilon:0.5 ~orientation ~rng:st ~rounds
  in
  Verify.exn (Verify.star_forest_decomposition coloring);
  Verify.exn (Verify.respects_palette coloring palette);
  Alcotest.(check int) "no leftover" 0 stats.SF.leftover_edges

(* ------------------------------------------------------------------ *)
(* Orientation (Corollary 1.1)                                         *)
(* ------------------------------------------------------------------ *)

let test_orientation_of_fd () =
  let st = rng 60 in
  let g = Gen.forest_union st 60 4 in
  let _, fd = Nw_baseline.Gabow_westermann.arboricity g in
  let rounds = Rounds.create () in
  let o = Orient.of_forest_decomposition fd ~rounds in
  Alcotest.(check bool) "out-degree <= colors" true
    (O.max_out_degree o <= Coloring.colors fd)

let test_orientation_end_to_end () =
  let st = rng 61 in
  let g = Gen.forest_union st 70 3 in
  let rounds = Rounds.create () in
  let o, _stats =
    Run.orientation g ~epsilon:1.0 ~alpha:3 ~rng:st ~rounds ()
  in
  (* (1+eps)alpha with slack for the leftover recoloring *)
  Alcotest.(check bool) "out-degree bound" true (O.max_out_degree o <= 6)


let test_auto_cut_dispatch () =
  (* alpha >= ln n or ln Delta: depth-mod *)
  Alcotest.(check bool) "large alpha -> depth-mod" true
    (FA.auto_cut ~n:100 ~alpha:10 ~max_degree:30 ~epsilon:0.5 = Cut.Depth_mod);
  (* alpha < ln Delta but eps*alpha >= ln Delta -> Sampled 0.5 *)
  (match FA.auto_cut ~n:5000 ~alpha:3 ~max_degree:100 ~epsilon:2.0 with
  | Cut.Sampled eta -> Alcotest.(check (float 0.001)) "eta" 0.5 eta
  | _ -> Alcotest.fail "expected Sampled 0.5");
  (* tiny eps*alpha -> the optimized Thm 4.2(3) eta *)
  match FA.auto_cut ~n:5000 ~alpha:2 ~max_degree:1000 ~epsilon:0.25 with
  | Cut.Sampled eta ->
      Alcotest.(check bool) "eta in (0, 0.5]" true (eta > 0.0 && eta <= 0.5)
  | _ -> Alcotest.fail "expected optimized Sampled"

let test_auto_cut_end_to_end () =
  let st = rng 62 in
  let g = Gen.forest_union st 80 5 in
  let cut =
    FA.auto_cut ~n:(G.n g) ~alpha:5 ~max_degree:(G.max_degree g) ~epsilon:1.0
  in
  let rounds = Rounds.create () in
  let coloring, _ =
    Run.forest_decomposition g ~epsilon:1.0 ~alpha:5 ~cut ~rng:st ~rounds ()
  in
  check_fd_complete "auto cut" coloring 10


let test_diam_reduce_cut_fd () =
  let st = rng 63 in
  let g = Gen.forest_union st 70 6 in
  let rounds = Rounds.create () in
  let coloring, _ =
    Run.forest_decomposition g ~epsilon:1.0 ~alpha:6 ~cut:Cut.Diam_reduce
      ~rng:st ~rounds ()
  in
  check_fd_complete "diam-reduce cut" coloring 12

(* A leftover of arboricity 1 on 3-color palettes: below the LSFD's
   required palette (4 colors at alpha* = 1), so the leftover takes the
   direct augmentation and colors every edge. *)
let test_lfd_leftover_alpha1_fallback () =
  let g = Gen.path 6 in
  let m = G.m g in
  let phi0 = Coloring.create g ~colors:6 in
  let q1 = Palette.of_lists ~colors:6 (Array.make m [ 0; 1; 2 ]) in
  let coloring =
    FA.lfd_leftover g ~colors:6 ~phi0 ~q1 ~removed:(Array.make m true)
      ~rng:(rng 64) ~rounds:(Rounds.create ())
  in
  Alcotest.(check int) "every edge colored" m (Coloring.colored_count coloring);
  Verify.exn (Verify.forest_decomposition coloring);
  Verify.exn (Verify.respects_palette coloring q1)

let prop_fd_random_instances =
  QCheck.Test.make ~name:"forest_decomposition valid on random multigraphs"
    ~count:12 (QCheck.int_bound 100000)
    (fun seed ->
      let st = rng seed in
      let alpha = 2 + Random.State.int st 4 in
      let n = 30 + Random.State.int st 40 in
      let g = Gen.forest_union st n alpha in
      let rounds = Rounds.create () in
      let coloring, _ =
        Run.forest_decomposition g ~epsilon:1.0 ~alpha ~rng:st ~rounds ()
      in
      Verify.forest_decomposition coloring = Ok ()
      && Verify.colors_used coloring <= 2 * alpha)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "nw_core_algo"
    [
      ( "augmenting",
        [
          Alcotest.test_case "K5 exact" `Quick test_augment_k5;
          Alcotest.test_case "radius guard" `Quick test_augment_respects_radius;
          Alcotest.test_case "stall" `Quick test_augment_stall_on_tight_palette;
          Alcotest.test_case "growth factor" `Quick test_growth_factor;
        ] );
      qsuite "augmenting_props"
        [
          prop_augmentation_preserves_invariant;
          prop_sequences_satisfy_conditions;
          prop_search_matches_reference;
        ];
      ( "diameter_reduction",
        [
          Alcotest.test_case "log/eps" `Quick test_diameter_reduction_log;
          Alcotest.test_case "1/eps" `Quick test_diameter_reduction_inv_eps;
          Alcotest.test_case "chop depths" `Quick test_chop_depths_bound;
        ] );
      ( "cut",
        [
          Alcotest.test_case "depth-mod good" `Quick test_cut_depth_mod_good;
          Alcotest.test_case "sampled leftover" `Quick
            test_cut_sampled_leftover_bounded;
        ] );
      ( "forest_algo",
        [
          Alcotest.test_case "families" `Slow test_forest_decomposition_families;
          Alcotest.test_case "diameter" `Quick test_forest_decomposition_diameter;
          Alcotest.test_case "leftover stats" `Quick
            test_decompose_with_leftover_stats;
          Alcotest.test_case "sampled small alpha" `Quick
            test_sampled_cut_small_alpha;
          Alcotest.test_case "auto cut dispatch" `Quick test_auto_cut_dispatch;
          Alcotest.test_case "auto cut end-to-end" `Quick
            test_auto_cut_end_to_end;
          Alcotest.test_case "diam-reduce cut" `Quick test_diam_reduce_cut_fd;
          Alcotest.test_case "lfd leftover fallback at alpha 1" `Quick
            test_lfd_leftover_alpha1_fallback;
        ] );
      qsuite "forest_algo_props" [ prop_fd_random_instances ];
      ( "color_split",
        [
          Alcotest.test_case "mpx split" `Quick test_color_split_mpx;
          Alcotest.test_case "lfd end-to-end" `Slow
            test_list_forest_decomposition;
        ] );
      ( "lsfd",
        [
          Alcotest.test_case "greedy degeneracy" `Quick
            test_greedy_degeneracy_lsfd;
          Alcotest.test_case "distributed" `Quick test_distributed_lsfd;
        ] );
      ( "star_forest",
        [
          Alcotest.test_case "sfd" `Quick test_sfd_simple_graph;
          Alcotest.test_case "rejects multigraph" `Quick
            test_sfd_rejects_multigraph;
          Alcotest.test_case "lsfd" `Quick test_lsfd_section5;
        ] );
      ( "orient",
        [
          Alcotest.test_case "of fd" `Quick test_orientation_of_fd;
          Alcotest.test_case "end to end" `Quick test_orientation_end_to_end;
        ] );
    ]
