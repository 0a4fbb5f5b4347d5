module G = Nw_graphs.Multigraph
module Coloring = Nw_decomp.Coloring
module Obs = Nw_obs.Obs

let merge base extra emap =
  let g = Coloring.graph base in
  let base_colors = Coloring.colors base in
  let fresh = Coloring.colors extra in
  let assign = Array.init (G.m g) (Coloring.get base) in
  Array.iteri
    (fun se e ->
      let c = Coloring.get extra se in
      if c >= 0 then assign.(e) <- base_colors + c)
    emap;
  (Coloring.of_assignment g ~colors:(base_colors + fresh) assign, fresh)

let leftover_orientation base removed ~rounds =
  let g = Coloring.graph base in
  let sub, emap = G.subgraph_of_edges g removed in
  let alpha_star, _ = Nw_graphs.Arboricity.pseudo_arboricity sub in
  let hp =
    H_partition.compute sub ~epsilon:0.1 ~alpha_star:(max 1 alpha_star)
      ~rounds
  in
  let ids = Array.init (G.n g) (fun v -> v) in
  (sub, emap, H_partition.orientation sub hp ~ids)

let append_forests base removed ~rounds =
  if not (Array.exists (fun b -> b) removed) then (base, 0)
  else begin
    Obs.span "recolor.append_forests" @@ fun () ->
    let sub, emap, orientation = leftover_orientation base removed ~rounds in
    let forests = H_partition.forests_of_orientation sub orientation in
    let out, fresh = merge base forests emap in
    Obs.set_attr "fresh_colors" (Obs.Int fresh);
    (out, fresh)
  end

let append_stars base removed ~ids ~rounds =
  if not (Array.exists (fun b -> b) removed) then (base, 0)
  else begin
    Obs.span "recolor.append_stars" @@ fun () ->
    let sub, emap, orientation = leftover_orientation base removed ~rounds in
    let stars =
      H_partition.star_forest_decomposition sub orientation ~ids ~rounds
    in
    let out, fresh = merge base stars emap in
    Obs.set_attr "fresh_colors" (Obs.Int fresh);
    (out, fresh)
  end
