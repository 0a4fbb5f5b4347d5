(** The library entry points of the composite algorithms.

    Each function builds the matching {!Pipelines} pipeline and executes
    it with {!Engine.run} (no checkpointing). Callers that need
    checkpoint/resume should build the pipeline themselves and call
    {!Engine.run} with a [~checkpoint] callback. *)

(** Theorem 4.6 via the [augment] pipeline: a complete
    [(1+eps)·alpha]-forest decomposition (color count reported via the
    returned coloring; the harness checks it against the bound).
    [diameter] selects the final Corollary 2.5 diameter-reduction pass.
    @raise Invalid_argument unless [epsilon > 0]. *)
val forest_decomposition :
  Nw_graphs.Multigraph.t ->
  epsilon:float ->
  alpha:int ->
  ?cut:Nw_core.Cut.rule ->
  ?radii:int * int ->
  ?diameter:[ `Unbounded | `Log_over_eps | `Inv_eps ] ->
  rng:Random.State.t ->
  rounds:Nw_localsim.Rounds.t ->
  unit ->
  Nw_decomp.Coloring.t * Nw_core.Forest_algo.stats

(** Theorem 4.5 via the [partial] pipeline: a partial LFD from [palette]
    covering everything except a leftover edge set of low
    pseudo-arboricity (network decomposition of [G^(2(R+R'))], then
    {!Nw_core.Forest_algo.partial_color}). Returns
    [(coloring, removed, stats)]. *)
val decompose_with_leftover :
  Nw_graphs.Multigraph.t ->
  Nw_decomp.Palette.t ->
  epsilon:float ->
  alpha:int ->
  cut:Nw_core.Cut.rule ->
  radii:int * int ->
  rng:Random.State.t ->
  rounds:Nw_localsim.Rounds.t ->
  Nw_decomp.Coloring.t * bool array * Nw_core.Forest_algo.stats

(** Theorem 4.10 via the [lfd] pipeline: a complete LFD from palettes of
    size [(1+eps)·alpha]. [split] picks the Theorem 4.9 construction
    ([`Mpx] needs [eps*alpha >= Ω(log n)]; [`Lll] needs
    [eps^2*alpha >= Ω(log Δ)]). *)
val list_forest_decomposition :
  Nw_graphs.Multigraph.t ->
  Nw_decomp.Palette.t ->
  epsilon:float ->
  alpha:int ->
  ?split:[ `Mpx | `Lll ] ->
  ?radii:int * int ->
  rng:Random.State.t ->
  rounds:Nw_localsim.Rounds.t ->
  unit ->
  Nw_decomp.Coloring.t * Nw_core.Forest_algo.stats

(** Theorem 2.3 ([Lsfd.distributed]) via the [lsfd] pipeline. *)
val lsfd_distributed :
  Nw_graphs.Multigraph.t ->
  Nw_decomp.Palette.t ->
  epsilon:float ->
  alpha_star:int ->
  rng:Random.State.t ->
  rounds:Nw_localsim.Rounds.t ->
  Nw_decomp.Coloring.t

(** Theorem 5.4(1) via the [sfd] pipeline: Lemma 5.2's color-set
    selection, matching realization and leftover star mop-up.
    [orientation] must have max out-degree at most
    [ceil((1+eps)·alpha)].
    @raise Invalid_argument on multigraphs. *)
val sfd :
  Nw_graphs.Multigraph.t ->
  epsilon:float ->
  alpha:int ->
  orientation:Nw_graphs.Orientation.t ->
  ids:int array ->
  rng:Random.State.t ->
  rounds:Nw_localsim.Rounds.t ->
  Nw_decomp.Coloring.t * Nw_core.Star_forest.stats

(** Theorem 5.4(2) via Lemma 5.3 and the [star-list] pipeline. Palettes
    should have size at least [(1 + 200*eps) * alpha]. Retries the whole
    selection a few times if the LLL leaves deficient vertices.
    @raise Failure if perfect matchings never materialize (parameters
    outside the lemma's regime).
    @raise Invalid_argument on multigraphs. *)
val star_lsfd :
  Nw_graphs.Multigraph.t ->
  Nw_decomp.Palette.t ->
  epsilon:float ->
  orientation:Nw_graphs.Orientation.t ->
  rng:Random.State.t ->
  rounds:Nw_localsim.Rounds.t ->
  Nw_decomp.Coloring.t * Nw_core.Star_forest.stats

(** Corollary 1.1 end to end via the [orientation] pipeline: Theorem 4.6's
    forest decomposition, then {!Nw_core.Orient.of_forest_decomposition}.
    The result has max out-degree at most the number of colors the
    decomposition used. *)
val orientation :
  Nw_graphs.Multigraph.t ->
  epsilon:float ->
  alpha:int ->
  ?cut:Nw_core.Cut.rule ->
  ?radii:int * int ->
  rng:Random.State.t ->
  rounds:Nw_localsim.Rounds.t ->
  unit ->
  Nw_graphs.Orientation.t * Nw_core.Forest_algo.stats

(** Corollary 1.1's orientation followed by out-edge labeling
    ({!Nw_core.Pseudo_forest.of_orientation}) via the [pseudo] pipeline;
    the assignment is verified to be a pseudo-forest decomposition before
    it is returned as [(assignment, k)]. *)
val pseudo :
  Nw_graphs.Multigraph.t ->
  epsilon:float ->
  alpha:int ->
  rng:Random.State.t ->
  rounds:Nw_localsim.Rounds.t ->
  unit ->
  int array * int
