module G = Nw_graphs.Multigraph
module O = Nw_graphs.Orientation

let of_orientation o =
  let g = O.graph o in
  let k = max 1 (O.max_out_degree o) in
  let assignment = Array.make (G.m g) 0 in
  for v = 0 to G.n g - 1 do
    List.iteri (fun i e -> assignment.(e) <- i) (O.out_edges o v)
  done;
  (assignment, k)
