(** Serialization of decompositions.

    Format: a header [colors <k>] then one [<edge_id> <color>] line per
    colored edge; [#] comments allowed. Together with the edge-list graph
    format this lets the CLI save a decomposition and re-verify it later
    (or verify one produced by another tool). *)

val to_string : Coloring.t -> string

(** [of_string g s] rebuilds the coloring over [g].
    @raise Failure with a line-numbered message on malformed input, an
    edge id outside [g] or a color outside the header's [0..k-1].
    @raise Invalid_argument with a line-numbered message if an assignment
    closes a monochromatic cycle. *)
val of_string : Nw_graphs.Multigraph.t -> string -> Coloring.t

val write : string -> Coloring.t -> unit

(** [read path g] is {!of_string} on the file's contents; a [Failure]
    message is prefixed with [path]. *)
val read : string -> Nw_graphs.Multigraph.t -> Coloring.t
