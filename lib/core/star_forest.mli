(** Star-forest decomposition for simple graphs — Section 5 of the paper
    (Lemmas 5.2, 5.3, Proposition 5.1, Theorem 5.4).

    Construction: with a [t]-orientation ([t = ceil((1+eps) alpha)]), every
    vertex [v] selects a color set [C(v)] and builds the bipartite graph
    [H_v] between colors and out-neighbors, with an edge [(i, u)] whenever
    [i ∈ C(v) \ C(u)] (and [i ∈ Q(vu)] for lists). Coloring the out-edges
    along a maximum matching of [H_v] makes every color class a star forest
    (Proposition 5.1): color-[i] centers are vertices with [i ∉ C(u)],
    leaves have [i ∈ C(v)].

    - Ordinary SFD (Lemma 5.2): [C(v)] is a uniformly random [alpha]-subset
      of [t] colors; w.h.p. (via the LLL) every [H_v] has a near-perfect
      matching and the [O(eps*alpha)] unmatched edges per vertex are
      recolored with fresh star colors.
    - List SFD (Lemma 5.3): each color joins [C(v)] independently with
      probability [1 - eps]; with palettes of size [(1+200eps)·alpha] every
      [H_v] has a perfect matching w.h.p., so nothing is left over.

    This module holds the phases; the engine's [sfd], [star] and
    [star-list] pipelines run them in sequence ([Nw_engine.Run]). *)

type stats = {
  max_deficiency : int; (** worst [|A(v)| - matching size] over vertices *)
  leftover_edges : int;
  fresh_colors : int; (** colors appended to recolor the leftover *)
  lll_converged : bool;
}

(** [sfd_select g ~epsilon ~alpha ~orientation ~rng ~rounds] is the LLL
    color-set selection phase of Lemma 5.2: every vertex draws a random
    [alpha]-subset of the [t] colors and the LLL resamples until each
    bipartite graph [H_v] has a near-perfect matching. Returns the selected
    sides and whether the LLL converged within its iteration budget.
    @raise Invalid_argument on multigraphs. *)
val sfd_select :
  Nw_graphs.Multigraph.t ->
  epsilon:float ->
  alpha:int ->
  orientation:Nw_graphs.Orientation.t ->
  rng:Random.State.t ->
  rounds:Nw_localsim.Rounds.t ->
  bool array array * bool

(** [sfd_realize g ~epsilon ~alpha ~orientation ~sides ~rounds] colors each
    vertex's out-edges along a maximum matching of [H_v] (Proposition 5.1)
    for the selected [sides]. Returns [(coloring, leftover mask, max
    deficiency)]. *)
val sfd_realize :
  Nw_graphs.Multigraph.t ->
  epsilon:float ->
  alpha:int ->
  orientation:Nw_graphs.Orientation.t ->
  sides:bool array array ->
  rounds:Nw_localsim.Rounds.t ->
  Nw_decomp.Coloring.t * bool array * int

(** [sfd_finish coloring leftover ~max_def ~converged ~ids ~rounds] recolors
    the unmatched [leftover] with fresh star colors ({!Recolor.append_stars})
    and assembles the stats record. *)
val sfd_finish :
  Nw_decomp.Coloring.t ->
  bool array ->
  max_def:int ->
  converged:bool ->
  ids:int array ->
  rounds:Nw_localsim.Rounds.t ->
  Nw_decomp.Coloring.t * stats

(** [lsfd_select g palette ~epsilon ~orientation ~rng ~rounds] is the
    Lemma 5.3 selection: each color joins [C(v)] independently with
    probability [1 - eps]; retried a few times until every [H_v] has a
    perfect matching.
    @raise Invalid_argument on multigraphs.
    @raise Failure when no perfect matchings materialize. *)
val lsfd_select :
  Nw_graphs.Multigraph.t ->
  Nw_decomp.Palette.t ->
  epsilon:float ->
  orientation:Nw_graphs.Orientation.t ->
  rng:Random.State.t ->
  rounds:Nw_localsim.Rounds.t ->
  bool array array

(** [lsfd_realize g palette ~orientation ~sides ~rounds] realizes the
    perfect matchings of {!lsfd_select} as a complete list star-forest
    coloring (asserts nothing is left over). *)
val lsfd_realize :
  Nw_graphs.Multigraph.t ->
  Nw_decomp.Palette.t ->
  orientation:Nw_graphs.Orientation.t ->
  sides:bool array array ->
  rounds:Nw_localsim.Rounds.t ->
  Nw_decomp.Coloring.t * stats
