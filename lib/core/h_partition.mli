(** H-partition and its products — Theorem 2.1 of the paper, extending
    Barenboim–Elkin [BE10].

    With [t = floor((2+eps) * alpha_star)], the peeling process yields, in
    [O(log n / eps)] rounds:
    + a partition of the vertices into layers [H_1, .., H_k],
      [k = O(log n / eps)], where each vertex of [H_i] has at most [t]
      neighbors in [H_i ∪ ... ∪ H_k];
    + an acyclic [t]-orientation;
    + a [3t]-star-forest decomposition;
    + a [t]-list-forest decomposition (when every palette has size >= [t]).

    The peeling itself runs on the genuine message-passing kernel. *)

type t = private {
  layer : int array; (** vertex -> layer index, [0 .. num_layers-1] *)
  num_layers : int;
  threshold : int; (** the degree bound [t] used while peeling *)
}

(** [threshold ~epsilon ~alpha_star] is the peel threshold
    [t = floor((2 + epsilon) * alpha_star)]. *)
val threshold : epsilon:float -> alpha_star:int -> int

(** [compute g ~epsilon ~alpha_star ~rounds] peels [g] with threshold
    [t = threshold ~epsilon ~alpha_star].
    @raise Failure if peeling stalls, i.e. [alpha_star] is below the true
    pseudo-arboricity of [g]. *)
val compute :
  Nw_graphs.Multigraph.t ->
  epsilon:float ->
  alpha_star:int ->
  rounds:Nw_localsim.Rounds.t ->
  t

(** Acyclic orientation of Theorem 2.1(2): edges point from lower to higher
    layer, ties broken by [ids] (distinct non-negative integers). Every
    out-degree is at most [threshold]. *)
val orientation :
  Nw_graphs.Multigraph.t -> t -> ids:int array -> Nw_graphs.Orientation.t

(** [forests_of_orientation g o] colors every edge with its position
    [0 .. t-1] in its tail's out-list, where [t = max out-degree] (at
    least 1 color): a vertex has at most one out-edge of each color, so
    each class is a rooted forest, each edge's tail its child endpoint.
    This is the first step of Theorem 2.1(3), and the forests that
    {!star_forest_decomposition} 3-colors. The forests hold by
    construction, so the coloring goes out as one assignment
    ({!Nw_decomp.Coloring.of_assignment}), with no per-edge cycle
    query. *)
val forests_of_orientation :
  Nw_graphs.Multigraph.t -> Nw_graphs.Orientation.t -> Nw_decomp.Coloring.t

(** Theorem 2.1(3): [3t]-star-forest decomposition from an acyclic
    [t]-orientation, via Cole–Vishkin 3-coloring of each rooted forest.
    The [rounds] ledger is charged [O(log* n)] (forests run in parallel).
    The colors go out as one assignment; a faulted Cole–Vishkin run
    that leaves a vertex color outside [0..2] gives that vertex's child
    edges the out-of-range color [3t].
    @raise Invalid_argument ("Coloring.set: color out of range") then. *)
val star_forest_decomposition :
  Nw_graphs.Multigraph.t ->
  Nw_graphs.Orientation.t ->
  ids:int array ->
  rounds:Nw_localsim.Rounds.t ->
  Nw_decomp.Coloring.t

(** Theorem 2.1(4): list-forest decomposition from an acyclic orientation;
    every palette must have at least [max out-degree] colors. O(1) rounds. *)
val list_forest_decomposition :
  Nw_graphs.Multigraph.t ->
  Nw_graphs.Orientation.t ->
  Nw_decomp.Palette.t ->
  rounds:Nw_localsim.Rounds.t ->
  Nw_decomp.Coloring.t
