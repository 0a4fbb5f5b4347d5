module G = Nw_graphs.Multigraph
module H = Nw_core.H_partition

let decompose g ~epsilon ~alpha_star ~rng ~rounds =
  Nw_obs.Obs.span "baseline.barenboim_elkin" @@ fun () ->
  let n = G.n g in
  let ids = Array.init n (fun v -> v) in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = ids.(i) in
    ids.(i) <- ids.(j);
    ids.(j) <- tmp
  done;
  let hp = H.compute g ~epsilon ~alpha_star ~rounds in
  let orientation = H.orientation g hp ~ids in
  H.forests_of_orientation g orientation
