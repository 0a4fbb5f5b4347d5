module G = Nw_graphs.Multigraph
module Coloring = Nw_decomp.Coloring
module Palette = Nw_decomp.Palette
module Rounds = Nw_localsim.Rounds
module Obs = Nw_obs.Obs

type stats = {
  classes : int;
  clusters : int;
  good_cuts : int;
  bad_cuts : int;
  stalls : int;
  leftover_edges : int;
  max_sequence_length : int;
  max_explored : int;
  max_iterations : int;
}

let log_ceil x = ceil (log (float_of_int (max 2 x)))

let auto_cut ~n ~alpha ~max_degree ~epsilon =
  let af = float_of_int alpha in
  let ln_n = log (float_of_int (max 2 n)) in
  let ln_d = log (float_of_int (max 2 max_degree)) in
  if af >= ln_n || af >= ln_d then Cut.Depth_mod
  else if epsilon *. af >= ln_d then Cut.Sampled 0.5
  else begin
    let t = max 1. (ceil (epsilon *. af)) in
    Cut.Sampled (max 0.01 (min 0.5 (t /. (2. *. ln_d))))
  end

let default_radii ~n ~epsilon ~alpha ~max_degree ~cut =
  let logn = log_ceil n in
  let r' = max 3 (int_of_float (ceil (2.0 *. logn /. epsilon))) in
  let r =
    match cut with
    | Cut.Depth_mod | Cut.Disabled ->
        max 4 (int_of_float (ceil (4.0 *. logn /. epsilon)))
    | Cut.Diam_reduce ->
        (* must exceed twice the correction cap of delete_long_paths run at
           eps' = eps / (2T), T ~ 2 log2 n classes *)
        let t_est = 2.0 *. logn /. log 2.0 in
        let eps' = epsilon /. (2.0 *. t_est) in
        (2 * int_of_float (ceil (20.0 *. (logn +. 1.0) /. eps'))) + 2
    | Cut.Sampled eta ->
        let t = float_of_int (max 1 (int_of_float (ceil (epsilon *. float_of_int alpha)))) in
        let delta = float_of_int (max 2 max_degree) in
        let power = (2.0 +. (4.0 *. eta)) /. t in
        max 4
          (int_of_float
             (ceil (exp (power *. log delta) *. logn *. logn /. (eta *. epsilon))))
  in
  (r, r')

let check_epsilon epsilon =
  if epsilon <= 0.0 then invalid_arg "Forest_algo: epsilon <= 0"

let partial_color g palette ~epsilon ~alpha ~cut ~radii ~nd ~rng ~rounds =
  check_epsilon epsilon;
  Obs.span "forest_algo" @@ fun () ->
  let r, r' = radii in
  let d = r + r' in
  let n = G.n g and m = G.m g in
  let cut_state =
    Cut.create g cut ~epsilon ~alpha ~radius:r
      ~num_classes:nd.Net_decomp.num_classes ~rng ~rounds
  in
  let removed = Array.make m false in
  let coloring = Coloring.create g ~colors:(Palette.color_space palette) in
  let scratch = Augmenting.scratch coloring in
  let good_cuts = ref 0 and bad_cuts = ref 0 and stalls = ref 0 in
  let max_seq = ref 0 and max_explored = ref 0 and max_iters = ref 0 in
  let logn = int_of_float (log_ceil n) in
  for z = 0 to nd.Net_decomp.num_classes - 1 do
    Obs.span "forest_algo.class" ~attrs:[ ("class", Obs.Int z) ]
    @@ fun () ->
    Array.iteri
      (fun id members ->
        if nd.Net_decomp.cluster_class.(id) = z then begin
          let core = G.ball_of_set g members r' in
          let region = G.ball_of_set g members d in
          Obs.count "forest_algo.clusters";
          Cut.execute cut_state coloring ~core ~region ~removed;
          if Cut.is_good coloring ~core ~region then incr good_cuts
          else incr bad_cuts;
          (* a region of every vertex restricts nothing: the search
             runs unrestricted, which skips the walks a region needs *)
          let within =
            if Array.for_all Fun.id region then None else Some region
          in
          let in_cluster = Array.make n false in
          List.iter (fun v -> in_cluster.(v) <- true) members;
          G.fold_edges
            (fun e u v () ->
              if
                (not removed.(e))
                && Coloring.color coloring e = None
                && (in_cluster.(u) || in_cluster.(v))
              then begin
                match
                  Augmenting.augment_edge coloring palette ~edge:e ?within
                    ~scratch ()
                with
                | Ok st ->
                    let len = st.Augmenting.iterations + 1 in
                    if len > !max_seq then max_seq := len;
                    if st.Augmenting.explored > !max_explored then
                      max_explored := st.Augmenting.explored;
                    if st.Augmenting.iterations > !max_iters then
                      max_iters := st.Augmenting.iterations;
                    ()
                | Error _ ->
                    removed.(e) <- true;
                    incr stalls
              end)
            g ()
        end)
      nd.Net_decomp.clusters;
    (* all clusters of one class run concurrently; simulating a
       cluster's CUT + augmentation takes O(D log n) rounds (Thm 4.1) *)
    Rounds.charge rounds ~label:"forest-algo/class" (2 * d * (logn + 2))
  done;
  let leftover =
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 removed
  in
  Obs.set_attr "classes" (Obs.Int nd.Net_decomp.num_classes);
  Obs.set_attr "clusters" (Obs.Int (Array.length nd.Net_decomp.clusters));
  Obs.set_attr "leftover_edges" (Obs.Int leftover);
  Obs.set_attr "max_path_len" (Obs.Int !max_seq);
  let stats =
    {
      classes = nd.Net_decomp.num_classes;
      clusters = Array.length nd.Net_decomp.clusters;
      good_cuts = !good_cuts;
      bad_cuts = !bad_cuts;
      stalls = !stalls;
      leftover_edges = leftover;
      max_sequence_length = !max_seq;
      max_explored = !max_explored;
      max_iterations = !max_iters;
    }
  in
  (coloring, removed, stats)

(* Theorem 4.6 parameter choices, read by the engine's `augment`,
   `orientation` and `pseudo` pipelines *)
let fd_plan g ~epsilon ~alpha ~cut ~radii =
  let eps' = epsilon /. 10.0 in
  let k0 =
    max 1 (int_of_float (ceil ((1.0 +. eps') *. float_of_int alpha)))
  in
  let palette = Palette.full g k0 in
  let radii =
    match radii with
    | Some r -> r
    | None ->
        default_radii ~n:(G.n g) ~epsilon:eps' ~alpha
          ~max_degree:(G.max_degree g) ~cut
  in
  (eps', palette, radii)

(* Theorem 4.10 parameter choices, read by the engine's `lfd` pipeline *)
let lfd_plan g ~epsilon ~alpha ~radii =
  let eps' = epsilon /. 10.0 in
  let radii =
    match radii with
    | Some r -> r
    | None ->
        default_radii ~n:(G.n g) ~epsilon:eps' ~alpha
          ~max_degree:(G.max_degree g) ~cut:Cut.Diam_reduce
  in
  (eps', radii)

(* leftover pass on the side-1 palettes, via the Theorem 2.3 LSFD *)
let[@obs.in_span] lfd_leftover g ~colors ~phi0 ~q1 ~removed ~rng ~rounds =
  let any_left = Array.exists (fun b -> b) removed in
  if not any_left then phi0
  else begin
      let sub, emap = G.subgraph_of_edges g removed in
      let alpha_left, _ = Nw_graphs.Arboricity.pseudo_arboricity sub in
      let q1_sub =
        Palette.of_lists ~colors
          (Array.map (fun e -> Palette.get q1 e) emap)
      in
      (* LFD of the leftover on the reserved side-1 palettes. The paper uses
         the Theorem 2.3 LSFD, which needs palettes of
         Lsfd.required_palette, about (4+eps)·alpha*(leftover); when the
         reserved palettes are below that
         (small-scale instances outside the w.h.p. regime of Thm 4.9), fall
         back to direct augmentation, which by the Section 3 stall
         certificate succeeds whenever |Q1| >= alpha(leftover). *)
      let lsfd_required =
        Lsfd.required_palette ~epsilon:0.5 ~alpha_star:(max 1 alpha_left)
      in
      let phi1 =
        if Palette.min_size q1_sub >= lsfd_required then
          Lsfd.distributed sub q1_sub ~epsilon:0.5
            ~alpha_star:(max 1 alpha_left) ~rng ~rounds
        else begin
          let c1 = Coloring.create sub ~colors in
          let scratch = Augmenting.scratch c1 in
          Coloring.iter_uncolored
            (fun e ->
              match Augmenting.augment_edge c1 q1_sub ~edge:e ~scratch () with
              | Ok _ -> ()
              | Error _ ->
                  failwith
                    "Forest_algo.lfd_leftover: leftover palettes \
                     below the leftover arboricity")
            c1;
          Rounds.charge rounds ~label:"forest-algo/leftover-augment"
            (2 * int_of_float (log_ceil (G.n g)));
          c1
        end
      in
      (* combine (Proposition 4.8): sides use disjoint per-vertex colors, so
         the merged classes stay forests — revalidated by of_assignment *)
      let assign = Array.init (G.m g) (Coloring.get phi0) in
      Array.iteri
        (fun se e ->
          let c = Coloring.get phi1 se in
          if c >= 0 then assign.(e) <- c)
        emap;
      Coloring.of_assignment g ~colors assign
  end
