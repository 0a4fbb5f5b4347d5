(** Cole–Vishkin 3-coloring of rooted forests in O(log* n) rounds [CV86].

    Used by Theorem 2.1(3): each of the [t] rooted forests produced from an
    acyclic [t]-orientation is 3-colored, and assigning every edge the color
    of its parent endpoint splits each forest into 3 star-forests.

    The deterministic bit-reduction runs until 6 colors remain, followed
    by three shift-down/recolor phases down to 3 colors. Every round is a
    LOCAL round in which each vertex sends its color on every incident
    edge. Fault-free, a round's outcome depends only on the parent of each
    (vertex, forest) slot, so it is computed by a sweep over flat parent
    planes and charged analytically: one ledger round and 2m messages,
    exactly what a {!Nw_localsim.Msg_net} round charges. Under an armed
    fault context ({!Nw_localsim.Msg_net.with_faults}) the rounds run on
    a genuine net, so drops, delays and restarts act on real messages. *)

(** [three_color g ~parent_edge ~ids ~rounds] properly 3-colors the vertices
    of the rooted forest [g]. [parent_edge.(v)] is the edge to [v]'s parent,
    or [-1] at roots; [ids] are distinct non-negative identifiers.
    Colors returned are in [{0, 1, 2}] and proper along every edge of [g].
    This is {!three_color_forests} with [t = 1].

    @raise Invalid_argument if [g] with [parent_edge] is not a rooted
    forest covering [g] (some vertex's parent edge not incident to it, or
    an edge that is not exactly one vertex's parent edge). *)
val three_color :
  Nw_graphs.Multigraph.t ->
  parent_edge:int array ->
  ids:int array ->
  rounds:Nw_localsim.Rounds.t ->
  int array

(** [three_color_forests g ~edge_forest ~parent_edge ~t ~ids ~rounds] runs
    {!three_color} on [t] edge-disjoint rooted forests of [g]
    {e concurrently} on one network over [g], as a LOCAL execution
    genuinely would: each round every vertex broadcasts, on each incident
    edge [e], its color in forest [edge_forest.(e)], and every forest
    advances one step. The result is the flat color plane: slot
    [v * t + j] is [v]'s color in forest [j], byte-identical to the
    corresponding standalone {!three_color} run on that forest's subgraph;
    the rounds charged to [rounds] equal one standalone run's (the
    per-forest ledgers coincide), not their sum.

    [edge_forest.(e)] is the forest index of edge [e] (every edge must
    belong to exactly one forest); [parent_edge.(v * t + j)] is [v]'s
    parent edge in forest [j], or [-1].

    @raise Invalid_argument if [t <= 0], the array sizes disagree with
    [g], or the input is not [t] rooted forests covering [g]: every edge
    [e] must be the parent edge of exactly one slot [v * t + j], with [v]
    an endpoint of [e] and [j = edge_forest.(e)]. *)
val three_color_forests :
  Nw_graphs.Multigraph.t ->
  edge_forest:int array ->
  parent_edge:int array ->
  t:int ->
  ids:int array ->
  rounds:Nw_localsim.Rounds.t ->
  int array
