module G = Nw_graphs.Multigraph
module Rounds = Nw_localsim.Rounds
module Obs = Nw_obs.Obs

let star_forest_decomposition g ~epsilon ~alpha_star ~rounds =
  Obs.span "distributed.star_forest_decomposition"
    ~attrs:[ ("alpha_star", Obs.Int alpha_star) ]
  @@ fun () ->
  (* stage 1: peeling, executed on the kernel *)
  let hp = H_partition.compute g ~epsilon ~alpha_star ~rounds in
  (* stage 2: every vertex learns its neighbors' layers in one round; the
     orientation and labeling are then local per-vertex rules, so a single
     executed round covers them *)
  let ids = Array.init (G.n g) (fun v -> v) in
  let orientation = H_partition.orientation g hp ~ids in
  Rounds.charge rounds ~label:"distributed/layer-exchange" 1;
  (* stage 3: Cole-Vishkin per forest, executed round by round on parent
     planes, or on the kernel under faults (all forests in parallel; the
     shared charge is the per-forest maximum) *)
  H_partition.star_forest_decomposition g orientation ~ids ~rounds
