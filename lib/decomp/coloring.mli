(** Partial edge colorings maintained as forests per color.

    This is the working state of every decomposition algorithm: a partial
    map from edges to colors such that each color class is kept an acyclic
    edge set. The per-color adjacency structure supports the path query
    [C(e, c)] — the unique path between the endpoints of [e] inside the
    color-[c] forest — which drives the augmenting-sequence machinery of
    Section 3 of the paper.

    Connectivity questions ("would coloring [e] with [c] close a cycle?",
    "is [C(e, c)] empty?") are answered by an incremental per-color
    union-find in O(α(n)) amortized: insertions ({!set}) update it in
    place, deletions ({!unset}, recoloring) invalidate only the affected
    color via a generation counter, and the next query on that color
    lazily rebuilds it from the color's own edge list. Breadth-first
    search survives solely for actual path extraction ({!path} on a
    connected pair) and as the differential-testing oracle
    ({!oracle_would_close_cycle}).

    Invariant (enforced on every {!set}): each color class is a forest. *)

type t

(** [create g ~colors] is the empty partial coloring of [g]'s edges with
    color space [0..colors-1]. *)
val create : Nw_graphs.Multigraph.t -> colors:int -> t

val graph : t -> Nw_graphs.Multigraph.t
val colors : t -> int

val color : t -> int -> int option

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
    O(α(n)) amortized via the per-color union-find; never runs a BFS. *)
val would_close_cycle : t -> int -> int -> bool

(** Same question answered by bidirectional BFS, bypassing the union-find
    cache entirely. Only for differential tests and benchmarks comparing
    the cached and uncached predicates. *)
val oracle_would_close_cycle : t -> int -> int -> bool

(** [set t e c] colors edge [e] with [c], first removing any previous color.
    @raise Invalid_argument if this closes a cycle in color [c]. *)
val set : t -> int -> int -> unit

(** [unset t e] removes the color of [e] (no-op when uncolored). *)
val unset : t -> int -> unit

(** [path t e c] is [C(e, c)]: the edge-id path joining the endpoints
    [u]–[v] of [e] inside the color-[c] forest, or [None] when they are
    disconnected. If [e] itself is colored [c] the result is [Some [e]].
    The disconnected case is decided in O(α(n)) without BFS; the
    connected case is extracted from the maintained rooted forest in
    O(path length), listed as the [u]-side half (from [u] towards the
    meeting point) followed by the [v]-side half (from [v] towards it) —
    consumers treat the result as an edge set. *)
val path : t -> int -> int -> int list option

(** [component_edges t v c] lists the edges of the color-[c] tree containing
    vertex [v] (empty when [v] is isolated in that color). *)
val component_edges : t -> int -> int -> int list

(** [component_size t v c] is the number of vertices of the color-[c] tree
    containing [v] (1 when isolated), from the union-find, in O(α(n)). *)
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

(** [of_array g ~colors a] rebuilds a coloring from a snapshot.
    @raise Invalid_argument if some class is not a forest. *)
val of_array : Nw_graphs.Multigraph.t -> colors:int -> int option array -> t

(** Deep copy. *)
val copy : t -> t

(** [extend t g'] transplants a live coloring onto [g'], a supergraph of
    [graph t] on the same vertex set whose first [m] edge ids carry the
    same endpoints; the new edge ids start uncolored. The per-color
    union-find and rooted spanning forests carry over untouched, so the
    cost is the array copies — O(m' + colors·n) — never a re-union or a
    BFS. This is
    the dynamic-graph entry point of the service layer: an edge insertion
    extends the coloring, then probes colors with {!connected} instead of
    re-running a decomposition.
    @raise Invalid_argument when [g'] is not such a supergraph. *)
val extend : t -> Nw_graphs.Multigraph.t -> t

(** [connected t c u v]: are [u] and [v] connected inside the color-[c]
    forest? O(α(n)) amortized via the per-color union-find. Coloring a
    fresh [u]–[v] edge with [c] is safe iff [not (connected t c u v)].
    @raise Invalid_argument on an out-of-range color or vertex. *)
val connected : t -> int -> int -> int -> bool

(** [subgraph t c] is the color-[c] forest as a graph on all of [g]'s
    vertices, with the map from new edge ids to original ids. *)
val subgraph : t -> int -> Nw_graphs.Multigraph.t * int array

(** Process-wide query counters (atomic, shared across bench domains):
    union-find connectivity queries, BFS
    executions, lazy union-find rebuilds. The bench harness reports
    deltas per experiment. *)
module Counters : sig
  type snapshot = { uf_queries : int; bfs_runs : int; uf_rebuilds : int }

  val snapshot : unit -> snapshot
end
