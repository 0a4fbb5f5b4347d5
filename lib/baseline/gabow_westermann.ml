module G = Nw_graphs.Multigraph
module Coloring = Nw_decomp.Coloring
module Palette = Nw_decomp.Palette
module Augmenting = Nw_core.Augmenting

let decompose g palette =
  Nw_obs.Obs.span "baseline.gabow_westermann" @@ fun () ->
  let coloring = Coloring.create g ~colors:(Palette.color_space palette) in
  let scratch = Augmenting.scratch coloring in
  let edges = Coloring.uncolored coloring in
  let rec color_all i =
    if i >= Array.length edges then Ok coloring
    else
      let e = edges.(i) in
      (* a stall's vertex set is the density witness (final inequality
         of Prop 3.3) *)
      match Augmenting.augment_edge coloring palette ~edge:e ~scratch () with
      | Ok _ -> color_all (i + 1)
      | Error witness -> Error witness
  in
  color_all 0

let list_forest_partition g palette = decompose g palette

let forest_partition g k = decompose g (Palette.full g k)

(* Nash-Williams sandwich: α is at least the densest component's
   ⌈m_C/(n_C−1)⌉ and at most the degeneracy *)
let bounds g =
  let lo = Nw_graphs.Arboricity.density_lower_bound g in
  (lo, max lo (Nw_graphs.Degeneracy.degeneracy g))

(* least k in [lo, hi] for which [forest_partition] succeeds, given that
   it succeeds at [hi]; [best] is the coloring at the current top *)
let rec search g lo hi best =
  if lo >= hi then (hi, best)
  else begin
    let mid = (lo + hi) / 2 in
    match forest_partition g mid with
    | Ok coloring -> search g lo mid (Some coloring)
    | Error _ -> search g (mid + 1) hi best
  end

let arboricity g =
  if G.m g = 0 then (0, Coloring.create g ~colors:0)
  else begin
    let lo, hi = bounds g in
    match forest_partition g hi with
    | Error _ ->
        (* the degeneracy always upper-bounds the arboricity, so the top of
           the search range must succeed *)
        assert false
    | Ok coloring ->
        let k, best = search g lo hi (Some coloring) in
        (k, Option.get best)
  end

let arboricity_value g =
  let lo, hi = bounds g in
  if lo = hi then lo
  else
    match forest_partition g lo with
    | Ok _ -> lo
    | Error _ -> fst (search g (lo + 1) hi None)

let check_witness g k vertices =
  let members = Array.make (G.n g) false in
  List.iter (fun v -> members.(v) <- true) vertices;
  let nv = List.length vertices in
  let ne =
    G.fold_edges
      (fun _ u v acc -> if members.(u) && members.(v) then acc + 1 else acc)
      g 0
  in
  nv >= 2 && ne > k * (nv - 1)
