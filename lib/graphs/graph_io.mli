(** Reading and writing graphs.

    The edge-list format is one edge per line, [u v], with optional [#]
    comments and a header line [n <vertices>]; vertices are 0-based. This is
    the interchange format of the [forestd] CLI. DOT output is for
    visualizing small decompositions. *)

(** [parse_edge_list s] parses the text of an edge-list file.
    @raise Failure with a line-numbered message on a malformed line, a
    self-loop or a negative vertex id, and when a vertex id is not below
    the [n] header. *)
val parse_edge_list : string -> Multigraph.t

(** [read_edge_list path] reads and parses a file; a [Failure] from
    {!parse_edge_list} carries [path] as a prefix. *)
val read_edge_list : string -> Multigraph.t

(** [to_edge_list g] renders the graph back to the edge-list format. *)
val to_edge_list : Multigraph.t -> string

(** [write_edge_list path g]. *)
val write_edge_list : string -> Multigraph.t -> unit

(** [to_dot g ~edge_color] renders GraphViz DOT, coloring each edge with the
    palette entry chosen by [edge_color] (e.g. a forest-decomposition
    color); [None] renders black. *)
val to_dot : Multigraph.t -> edge_color:(int -> int option) -> string
