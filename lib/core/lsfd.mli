(** List star-forest decomposition with O(α) colors — Theorems 2.2 / 2.3.

    [greedy_degeneracy] is the existential construction of Theorem 2.2: with
    an acyclic [d]-orientation, color edges backward along the elimination
    order, avoiding the colors of all out-edges at both endpoints; palettes
    of size [2d] always suffice and the result is a star forest per color.

    [distributed] is Theorem 2.3: a [(4+eps)α* - 1]-LSFD in the LOCAL model.
    It uses the H-partition (layers [H_1..H_k]), processes layers from the
    top down, and colors each layer's edge set with a proper list-edge
    coloring of the residual palettes; simultaneity inside a layer is
    resolved by coloring cluster-by-cluster inside a network decomposition
    of [G^3] (the third algorithm of Appendix A, [O(log^3 n / eps)]
    rounds). *)

(** [greedy_degeneracy g palette]: centralized Theorem 2.2. Requires
    palettes of size at least [2 * degeneracy g].
    @raise Invalid_argument if some palette is smaller than [2d]. *)
val greedy_degeneracy :
  Nw_graphs.Multigraph.t -> Nw_decomp.Palette.t -> Nw_decomp.Coloring.t

(** [required_palette ~epsilon ~alpha_star] is the Theorem 2.3 minimum
    palette size [floor((4+eps) alpha_star) - 1], raised to [2t] where
    [t = H_partition.threshold ~epsilon:(eps/10) ~alpha_star] is the peel
    threshold [distributed] uses: an edge can see [2t - 1] colours
    forbidden. The raise applies at [alpha_star = 1] (3 -> 4 colours)
    and, below [eps = 0.5], also at larger [alpha_star] (e.g.
    [alpha_star = 2], [eps = 0.1]: 7 -> 8); at [eps = 0.5] it changes
    nothing for [alpha_star >= 2]. The result never exceeds
    [floor((4+eps) alpha_star)]. *)
val required_palette : epsilon:float -> alpha_star:int -> int

(** [check_palettes g palette ~epsilon ~alpha_star] raises
    [Invalid_argument] when some palette is below {!required_palette} (and
    the graph has edges) — the guard {!distributed} applies, exposed so
    engine pipelines can fail at build time. *)
val check_palettes :
  Nw_graphs.Multigraph.t ->
  Nw_decomp.Palette.t ->
  epsilon:float ->
  alpha_star:int ->
  unit

(** [layered_color g palette ~hp ~orientation ~nd ~rounds] is the coloring
    phase of Theorem 2.3: process H-partition layers top-down, coloring each
    layer cluster-by-cluster inside the precomputed [G^3] network
    decomposition [nd]. The engine runs the H-partition, orientation, and
    network-decomposition phases as separate passes and feeds them in. *)
val layered_color :
  Nw_graphs.Multigraph.t ->
  Nw_decomp.Palette.t ->
  hp:H_partition.t ->
  orientation:Nw_graphs.Orientation.t ->
  nd:Net_decomp.t ->
  rounds:Nw_localsim.Rounds.t ->
  Nw_decomp.Coloring.t

(** [distributed g palette ~epsilon ~alpha_star ~rng ~rounds]: Theorem 2.3.
    Requires palettes of size at least {!required_palette}.
    Every color class of the result is a star forest and every edge is
    colored from its palette. *)
val distributed :
  Nw_graphs.Multigraph.t ->
  Nw_decomp.Palette.t ->
  epsilon:float ->
  alpha_star:int ->
  rng:Random.State.t ->
  rounds:Nw_localsim.Rounds.t ->
  Nw_decomp.Coloring.t
