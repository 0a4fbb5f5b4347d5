module G = Nw_graphs.Multigraph
module O = Nw_graphs.Orientation
module Coloring = Nw_decomp.Coloring
module Palette = Nw_decomp.Palette
module Rounds = Nw_localsim.Rounds
module Obs = Nw_obs.Obs

let greedy_degeneracy g palette =
  Obs.span "lsfd.greedy_degeneracy" @@ fun () ->
  let d, order = Nw_graphs.Degeneracy.ordering g in
  if Palette.min_size palette < 2 * d && G.m g > 0 then
    invalid_arg "Lsfd.greedy_degeneracy: palettes smaller than 2*degeneracy";
  let rank = Array.make (G.n g) 0 in
  Array.iteri (fun i v -> rank.(v) <- i) order;
  let orientation = O.of_total_order g rank in
  (* process edges by decreasing tail rank: every out-edge of an edge's head
     is colored before the edge itself, so avoiding the colors of already
     colored out-edges at both endpoints yields the Theorem 2.2 invariant *)
  let edges = Array.init (G.m g) (fun e -> e) in
  Array.sort
    (fun e1 e2 ->
      Int.compare rank.(O.tail orientation e2) rank.(O.tail orientation e1))
    edges;
  let assign = Array.make (G.m g) (-1) in
  Array.iter
    (fun e ->
      let u, v = G.endpoints g e in
      let forbidden c =
        List.exists (fun e' -> assign.(e') = c) (O.out_edges orientation u)
        || List.exists (fun e' -> assign.(e') = c) (O.out_edges orientation v)
      in
      let rec pick = function
        | [] -> invalid_arg "Lsfd.greedy_degeneracy: palette exhausted"
        | c :: rest -> if forbidden c then pick rest else c
      in
      assign.(e) <- pick (Palette.get palette e))
    edges;
  Coloring.of_assignment g ~colors:(Palette.color_space palette) assign

(* [distributed] peels with threshold t for epsilon/10. An edge whose
   head lies in a higher layer sees up to (t-1) + t forbidden colours, so
   the palette needs 2t. The theorem's count floor((4+eps) alpha_star) - 1
   falls one short at alpha_star = 1 (t = 2, palette 3) and, below
   eps = 0.5, at some larger alpha_star too (alpha_star = 2, eps = 0.1:
   t = 4, palette 7). The max never exceeds floor((4+eps) alpha_star),
   since 2t <= floor((4+eps/5) alpha_star). *)
let required_palette ~epsilon ~alpha_star =
  max
    (int_of_float (floor ((4.0 +. epsilon) *. float_of_int alpha_star)) - 1)
    (2 * H_partition.threshold ~epsilon:(epsilon /. 10.) ~alpha_star)

let check_palettes g palette ~epsilon ~alpha_star =
  if
    Palette.min_size palette < required_palette ~epsilon ~alpha_star
    && G.m g > 0
  then invalid_arg "Lsfd.distributed: palettes too small"

let layered_color g palette ~hp ~orientation ~nd ~rounds =
  Obs.span "lsfd.layered_color" @@ fun () ->
  let layer v = hp.H_partition.layer.(v) in
  let min_layer e =
    let u, v = G.endpoints g e in
    min (layer u) (layer v)
  in
  let assign = Array.make (G.m g) (-1) in
  let member_cluster = nd.Net_decomp.cluster_of in
  (* color edge e from its residual palette: avoid colors of already-colored
     out-edges at both endpoints and of already-colored edges with both
     endpoints in e's layer sharing an endpoint (Theorem 2.3's forbidden
     sets). In-edges from e's layer at a higher-layer endpoint stay
     allowed: two same-colored in-edges there form a star centred at
     it. *)
  let color_edge e =
    let u, v = G.endpoints g e in
    let j = min_layer e in
    let forbidden = Hashtbl.create 16 in
    let forbid e' =
      if e' <> e && assign.(e') >= 0 then
        Hashtbl.replace forbidden assign.(e') ()
    in
    let forbid_in_layer _ e' =
      let a, b = G.endpoints g e' in
      if layer a = j && layer b = j then forbid e'
    in
    List.iter forbid (O.out_edges orientation u);
    List.iter forbid (O.out_edges orientation v);
    G.iter_incident g u forbid_in_layer;
    G.iter_incident g v forbid_in_layer;
    let rec pick = function
      | [] -> invalid_arg "Lsfd.distributed: residual palette exhausted"
      | c :: rest -> if Hashtbl.mem forbidden c then pick rest else c
    in
    assign.(e) <- pick (Palette.get palette e)
  in
  (* process layers top-down; inside a layer, clusters of one ND class go in
     parallel (simulated sequentially; non-interference is guaranteed by the
     distance-3 separation) *)
  for j = hp.H_partition.num_layers - 1 downto 0 do
    for z = 0 to nd.Net_decomp.num_classes - 1 do
      let in_class v = nd.Net_decomp.class_of.(v) = z in
      G.fold_edges
        (fun e u v () ->
          if
            min_layer e = j
            && assign.(e) < 0
            && (* the lower-layer endpoint's cluster owns the edge; ties by
                  smaller cluster id *)
            (let owner =
               if layer u < layer v then u
               else if layer v < layer u then v
               else if member_cluster.(u) <= member_cluster.(v) then u
               else v
             in
             in_class owner)
          then color_edge e)
        g ();
      Rounds.charge rounds ~label:"lsfd/layer-class" 3
    done
  done;
  Coloring.of_assignment g ~colors:(Palette.color_space palette) assign

let distributed g palette ~epsilon ~alpha_star ~rng ~rounds =
  check_palettes g palette ~epsilon ~alpha_star;
  Obs.span "lsfd.distributed" ~attrs:[ ("alpha_star", Obs.Int alpha_star) ]
  @@ fun () ->
  let hp =
    H_partition.compute g ~epsilon:(epsilon /. 10.) ~alpha_star ~rounds
  in
  let ids = Array.init (G.n g) (fun v -> v) in
  let orientation = H_partition.orientation g hp ~ids in
  (* network decomposition of G^3 shared by all layers *)
  let nd = Net_decomp.compute g ~rng ~rounds ~distance:3 in
  layered_color g palette ~hp ~orientation ~nd ~rounds
