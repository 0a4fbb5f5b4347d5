(** Undirected multigraphs with edge identities.

    Vertices are integers [0 .. n-1]. Edges are integers [0 .. m-1]; parallel
    edges are distinct edge ids with the same endpoints. Self-loops are
    rejected (a self-loop can never belong to a forest, so the decompositions
    studied here are undefined on them).

    The structure is immutable after construction: build with {!of_edges} or
    via {!add_edge} on a {!builder}. Adjacency is stored as flat int rows
    (row offsets plus one packed [(neighbor, edge)] int per incidence);
    every row lists its edges in ascending edge-id order, and every
    traversal below follows that order. Limits: [n], [m] below [2^31]
    ({!build} raises [Invalid_argument] otherwise). *)

type t

(** {1 Construction} *)

type builder

(** [create_builder n] starts an empty multigraph on [n] vertices. *)
val create_builder : int -> builder

(** [add_edge b u v] appends edge [uv] and returns its edge id.
    @raise Invalid_argument on a self-loop or out-of-range endpoint. *)
val add_edge : builder -> int -> int -> int

(** Freeze a builder into a graph. The builder may keep being used. *)
val build : builder -> t

(** [of_edges n edges] builds a graph from an explicit edge list; the edge
    id of the [i]-th pair is [i]. *)
val of_edges : int -> (int * int) list -> t

(** {1 Basic accessors} *)

val n : t -> int
val m : t -> int

(** Endpoints of an edge, as given at construction ([src], [dst]). *)
val endpoints : t -> int -> int * int

(** First endpoint of an edge, as given at construction; non-allocating. *)
val src : t -> int -> int

(** Second endpoint of an edge, as given at construction; non-allocating. *)
val dst : t -> int -> int

(** [endpoint_rows g] is [(src, dst)]: the graph's own endpoint arrays,
    indexed by edge id, shared rather than copied, for callers that keep
    an edge-indexed structure over [g] and read endpoints in their inner
    loops. Callers must not write to them. *)
val endpoint_rows : t -> int array * int array

(** [other_endpoint g e v] is the endpoint of [e] that is not [v].
    @raise Invalid_argument if [v] is not an endpoint of [e]. *)
val other_endpoint : t -> int -> int -> int

(** [incident g v] is a fresh array of the [(neighbor, edge_id)] pairs at
    [v], ascending edge id; parallel edges appear once per edge id. Hot
    paths should use {!iter_incident}, which does not allocate. *)
val incident : t -> int -> (int * int) array

(** [iter_incident g v f] calls [f neighbor edge_id] for every incident
    edge of [v], in ascending edge-id order, without allocating. *)
val iter_incident : t -> int -> (int -> int -> unit) -> unit

(** [fold_incident g v ~init f] folds [f acc neighbor edge_id] in the
    {!incident} order. *)
val fold_incident : t -> int -> init:'a -> ('a -> int -> int -> 'a) -> 'a

val degree : t -> int -> int
val max_degree : t -> int

(** [true] when no two edges share the same unordered endpoint pair. *)
val is_simple : t -> bool

(** All edges as [(u, v)] indexed by edge id. Fresh array. *)
val edges : t -> (int * int) array

val fold_edges : (int -> int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold_edges f g init] folds [f edge_id u v] over all edges. *)

(** {1 Derived graphs} *)

(** [induced g vs] is the subgraph induced by the vertex set [vs] (given as a
    membership array of length [n g]), together with the vertex and edge
    mappings from the new graph back to [g]. *)
val induced : t -> bool array -> t * int array * int array

(** [subgraph_of_edges g keep] keeps exactly the edges with [keep.(e) = true]
    (all vertices retained); returns the new graph and the map from new edge
    ids to old edge ids. *)
val subgraph_of_edges : t -> bool array -> t * int array

(** [power g r] is the simple graph on the same vertices with an edge between
    any pair at distance in [1..r] in [g]. [power g 1] is the
    simplification of [g]. *)
val power : t -> int -> t

(** {1 Distances} *)

(** [ball g v r] is the list of vertices within distance [r] of [v],
    including [v], in reversed BFS-visit order. *)
val ball : t -> int -> int -> int list

(** [ball_of_set g vs r] is the set (as a membership array) of vertices
    within distance [r] of the vertex set [vs]. *)
val ball_of_set : t -> int list -> int -> bool array

(** Pretty-printer: [n], [m], degree summary. *)
val pp : Format.formatter -> t -> unit
