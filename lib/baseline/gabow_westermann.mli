(** Centralized exact forest decomposition via matroid-partition
    augmentation, in the spirit of Gabow–Westermann [GW92].

    This is the paper's centralized reference point: an exact
    [α]-forest-decomposition in polynomial time. The augmentation engine is
    the same as Section 3's (Algorithm 1 run with unlimited radius): growing
    the reachable edge set either finds an augmenting sequence or stalls.
    A stall with palettes of size [k] certifies a subgraph of density above
    [k] (the final inequality of Proposition 3.3), i.e. [α > k] — so binary
    search on [k] computes the exact arboricity with certificates in both
    directions. The list variant realizes Seymour's theorem ([α]-LFD exists
    for every palette assignment of size [α]). *)

(** [forest_partition g k]: try to decompose all edges into [k] forests.
    [Ok coloring] on success; [Error witness] when it stalls, where
    [witness] is a vertex set inducing a subgraph of density > [k]
    (so [α(g) > k]). *)
val forest_partition :
  Nw_graphs.Multigraph.t -> int -> (Nw_decomp.Coloring.t, int list) result

(** List version: palettes instead of a uniform [k]; [Error witness] means
    no list-forest-decomposition with these palettes was found by
    augmentation (if [min |Q(e)| >= α(g)] this cannot happen). *)
val list_forest_partition :
  Nw_graphs.Multigraph.t ->
  Nw_decomp.Palette.t ->
  (Nw_decomp.Coloring.t, int list) result

(** Exact arboricity with a witness decomposition, by binary search over
    {!forest_partition}. Polynomial time; exact on any multigraph. *)
val arboricity : Nw_graphs.Multigraph.t -> int * Nw_decomp.Coloring.t

(** [arboricity_value g] is [fst (arboricity g)], found with as few
    partitions as the Nash-Williams sandwich allows. The density bound
    [lo = max_C ⌈m_C/(n_C−1)⌉] is a lower bound on [α] and the
    degeneracy [hi] an upper bound: when they meet, [lo] is returned
    without running any partition; otherwise one {!forest_partition} at
    [lo] settles the common case [α = lo], and only a stall there falls
    back to the binary search over [(lo, hi]]. Returns no witness: use
    {!arboricity} when the decomposition itself is needed. *)
val arboricity_value : Nw_graphs.Multigraph.t -> int

(** [check_witness g k vertices]: when [forest_partition g k] stalls, the
    witness vertex set [S] satisfies [|E(G[S])| > k * (|S| - 1)]; this
    checks that inequality for [S = vertices] (used by tests). *)
val check_witness : Nw_graphs.Multigraph.t -> int -> int list -> bool
