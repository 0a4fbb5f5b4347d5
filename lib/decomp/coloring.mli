(** Partial edge colorings maintained as forests per color.

    This is the working state of every decomposition algorithm: a partial
    map from edges to colors such that each color class is kept an acyclic
    edge set. The per-color adjacency structure supports the path query
    [C(e, c)] — the unique path between the endpoints of [e] inside the
    color-[c] forest — which drives the augmenting-sequence machinery of
    Section 3 of the paper.

    Each color keeps a rooted spanning forest, allocated at the color's
    first touch, with every vertex labelled by the root of its tree.
    Connectivity questions ("would coloring [e] with [c] close a cycle?",
    "is [C(e, c)] empty?") are one label compare, in O(1). Paths are read
    off the rooted forest by an LCA climb ({!iter_path}), and a path's
    end edges by a climb of the endpoints' depth difference
    ({!iter_path_ends}) or, counted only, in O(1)
    ({!path_end_count}). Every update
    is repaired eagerly, and only in the trees it touches: {!set}
    re-hangs and relabels the smaller of the two trees it joins, and
    {!unset} re-roots the subtree that loses the edge, in O(size of that
    subtree). After an {!unset} from color [c], every tree of [c] is
    seen rooted at its lowest vertex, so path orders do not depend on
    when the forest was repaired. Breadth-first search survives solely as the
    differential-testing oracle ({!oracle_would_close_cycle}).

    A coloring emitted whole, whose forests nothing may ever query, is
    built by {!of_assignment} (and {!of_array}, {!copy}): one O(n + m)
    forest check and the adjacency lists, no rooted forest. A color's
    forest is built the first time a query touches it, by replaying
    that color's edges in ascending order through the steps {!set}
    runs; the result is the forest eager {!set}s in that order leave.
    Every emitter of a finished decomposition builds its output this
    way. {!create} and {!set} serve only the colorings that are searched
    (the augmenting sequences of Section 3), churned (a served session's
    live coloring) or read from a file, so the {!Counters} count the
    work of those three alone.

    The edge set may grow: {!add_edge} appends an uncolored edge in
    place, in amortized O(1), without touching any color's state.

    Invariant (enforced on every {!set} and bulk construction): each
    color class is a forest. Functions taking an edge id raise
    [Invalid_argument] when it is not below the current edge count. *)

type t

(** [create g ~colors] is the empty partial coloring of [g]'s edges with
    color space [0..colors-1]. *)
val create : Nw_graphs.Multigraph.t -> colors:int -> t

(** [graph t] is the graph whose edges [t] colors. After {!add_edge}
    it is rebuilt once, in O(n + m), on the first call, then cached
    until the next {!add_edge}. *)
val graph : t -> Nw_graphs.Multigraph.t
val colors : t -> int

val color : t -> int -> int option

(** [get t e] is the color of [e], or [-1] when it is uncolored:
    {!color} without the option, so a scan over every edge allocates
    nothing. *)
val get : t -> int -> int

(** Number of currently colored edges. *)
val colored_count : t -> int

(** [uncolored t] is the uncolored edge ids, ascending, in one freshly
    allocated array of exactly the right size. *)
val uncolored : t -> int array

(** [iter_uncolored f t] calls [f] on each uncolored edge id, ascending,
    without allocating. *)
val iter_uncolored : (int -> unit) -> t -> unit

(** [would_close_cycle t e c] holds when the endpoints of [e] are already
    connected inside the color-[c] forest by edges other than [e].
    O(1) by the root labels; never runs a BFS. *)
val would_close_cycle : t -> int -> int -> bool

(** Same question answered by bidirectional BFS, bypassing the root
    labels entirely. Only for differential tests and benchmarks comparing
    the labelled and unlabelled predicates. *)
val oracle_would_close_cycle : t -> int -> int -> bool

(** [set t e c] colors edge [e] with [c], first removing any previous color.
    @raise Invalid_argument if this closes a cycle in color [c]. *)
val set : t -> int -> int -> unit

(** [unset t e] removes the color of [e] (no-op when uncolored) and
    re-roots the subtree that loses [e] at its lowest vertex, in
    O(size of that subtree). A tree of that color that a {!set} since
    the color's previous [unset] may have left rooted elsewhere is
    re-rooted at its lowest vertex when an update or a path walk next
    touches it. *)
val unset : t -> int -> unit

(** [path t e c] is [C(e, c)]: the edge-id path joining the endpoints
    [u]–[v] of [e] inside the color-[c] forest, or [None] when they are
    disconnected. If [e] itself is colored [c] the result is [Some [e]].
    The disconnected case is decided in O(1) without BFS; the
    connected case is extracted from the maintained rooted forest in
    O(path length), listed as the [u]-side half (from [u] towards the
    meeting point) followed by the [v]-side half (from [v] towards it) —
    consumers treat the result as an edge set. Equals {!path_exists}
    followed by {!iter_path}, and counts exactly what {!path_exists}
    counts. *)
val path : t -> int -> int -> int list option

(** [path_exists t e c] is [path t e c <> None], at the cost of the
    counted test alone: free when [e] has color [c], one root-label
    compare otherwise. *)
val path_exists : t -> int -> int -> bool

(** [iter_path t e c f] calls [f] on each edge of [C(e, c)] in {!path}'s
    order, without allocating and without touching the query counters.
    One climb of the rooted forest; the [v]-side half is buffered in
    scratch owned by [t], so [f] must not walk another path of [t].
    @raise Invalid_argument when [C(e, c)] is empty ({!path_exists} is
    the test). *)
val iter_path : t -> int -> int -> (int -> unit) -> unit

(** [iter_path_ends t e c f] calls [f] on the edges of [C(e, c)] incident
    to [e]'s endpoints — one edge when the path is a single edge, else
    its two end edges — in {!iter_path}'s order, which is {!iter_path}
    filtered to those edges. It climbs only the depth difference of the
    endpoints, to tell whether the shallower one is the lowest common
    ancestor, prepares the forest as {!iter_path} does (so
    [repair_vertices] counts the same), and allocates nothing. This is
    all of [C(e, c)] that a search set touching only [e]'s endpoints can
    use (the first iteration of Algorithm 1).
    @raise Invalid_argument when [C(e, c)] is empty. *)
val iter_path_ends : t -> int -> int -> (int -> unit) -> unit

(** [path_end_count t e c] is the number of edges {!iter_path_ends}
    emits: 1 when [C(e, c)] is a single edge, else 2. O(1): it prepares
    the forest as {!iter_path_ends} does and reads the endpoints' parent
    pointers, without climbing.
    @raise Invalid_argument when [C(e, c)] is empty. *)
val path_end_count : t -> int -> int -> int

(** [component_edges t v c] lists the edges of the color-[c] tree containing
    vertex [v] (empty when [v] is isolated in that color). *)
val component_edges : t -> int -> int -> int list

(** [component_size t v c] is the number of vertices of the color-[c] tree
    containing [v] (1 when isolated), from the root labels, in O(1). *)
val component_size : t -> int -> int -> int

(** [component_edge_count t v c] is the number of edges of that tree
    (always [component_size - 1] while the forest invariant holds). *)
val component_edge_count : t -> int -> int -> int

(** Per-vertex incident edges of one color: [(neighbor, edge)] list. *)
val colored_incident : t -> int -> int -> (int * int) list

(** [iter_colored_incident t v c f] calls [f neighbor edge] for each
    color-[c] edge at [v], most recently colored first, without
    materializing a list. *)
val iter_colored_incident : t -> int -> int -> (int -> int -> unit) -> unit

(** Snapshot of all edge colors ([None] = uncolored). Fresh array. *)
val to_array : t -> int option array

(** [of_assignment g ~colors assign] is the coloring giving edge [e]
    the color [assign.(e)], or none when it is [-1]: the bulk
    constructor. It groups the edges by color and checks that every
    class is a forest in O(n + m), links the adjacency lists, and
    allocates no rooted forest. A color's forest is built the first
    time a connectivity, path, size or {!unset} query touches it, by
    replaying that color's edges in ascending order through the steps
    {!set} runs. So the coloring answers every later call, path orders
    and {!Counters} included, exactly as [create] followed by {!set} in
    ascending edge order within each color would; only the counts of
    that construction itself (one query per edge, one rebuild per
    color used) are not made. [assign] is copied.
    @raise Invalid_argument as that first rejected {!set} would: on a
    color out of range, or on a class that is not a forest. *)
val of_assignment : Nw_graphs.Multigraph.t -> colors:int -> int array -> t

(** [of_array g ~colors a] rebuilds a coloring from a snapshot, as
    {!of_assignment} with [None] uncolored.
    @raise Invalid_argument if some class is not a forest. *)
val of_array : Nw_graphs.Multigraph.t -> colors:int -> int option array -> t

(** Deep copy, as {!of_assignment} of [t]'s colors: its forests are
    built anew on demand, rooted as ascending {!set}s root them. *)
val copy : t -> t

(** [add_edge t u v] appends a fresh uncolored [u]–[v] edge and returns
    its id, which is the previous edge count: ids stay dense and are
    never reused. Amortized O(1): the per-edge arrays grow by doubling
    capacity, and no per-color rooted forest or adjacency
    list is touched, since an uncolored edge belongs to no forest. This
    is the dynamic-graph entry point of the service layer: an edge
    insertion appends here, then probes colors with {!connected} and
    colors the edge with {!set}, instead of re-running a decomposition.
    {!graph} rebuilds the grown graph on demand.
    @raise Invalid_argument on an out-of-range endpoint or a self-loop. *)
val add_edge : t -> int -> int -> int

(** [connected t c u v]: are [u] and [v] connected inside the color-[c]
    forest? O(1) by the root labels. Coloring a
    fresh [u]–[v] edge with [c] is safe iff [not (connected t c u v)].
    @raise Invalid_argument on an out-of-range color or vertex. *)
val connected : t -> int -> int -> int -> bool

(** [subgraph t c] is the color-[c] forest as a graph on all of [g]'s
    vertices, with the map from new edge ids to original ids. *)
val subgraph : t -> int -> Nw_graphs.Multigraph.t * int array

(** Process-wide counters (plain ints; the process is one domain):
    connectivity queries ([uf_queries]), BFS executions ([bfs_runs]),
    per-color forest allocations at a color's first touch
    ([uf_rebuilds]; nothing else rebuilds a forest, and the replay that
    builds the forest of a color {!of_assignment} filled is no first
    touch), and vertices
    re-rooted by {!unset} repairs ([repair_vertices]). Obs counts the
    same events as [coloring.uf_queries], [coloring.bfs_runs],
    [coloring.uf_rebuilds] and [coloring.repair_vertices]. [path_edges]
    counts the edges {!iter_path}, {!iter_path_ends} and {!path} emit,
    added once per walk, and has no Obs twin. The bench
    harness reports deltas per experiment. No emitter of a finished
    decomposition counts here: they build with {!of_assignment}, so
    the counts come from colorings that are searched, churned or read
    from a file, and from queries on an emitted coloring. *)
module Counters : sig
  type snapshot = {
    uf_queries : int;
    bfs_runs : int;
    uf_rebuilds : int;
    repair_vertices : int;
    path_edges : int;
  }

  val snapshot : unit -> snapshot
end
