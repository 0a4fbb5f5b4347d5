(** Validity checkers for every decomposition produced by this library.

    All benchmark numbers are reported only after the corresponding output
    passed these checks, so the harness cannot silently report an invalid
    decomposition. Checkers return [Ok ()] or [Error reason]. *)

type report = (unit, string) result

(** Every edge colored, every color class a forest. *)
val forest_decomposition : Coloring.t -> report

(** Each color class a forest (uncolored edges allowed). *)
val partial_forest_decomposition : Coloring.t -> report

(** Every color class a star forest: each component of each color is a tree
    of diameter at most 2 with one center (edges all share a vertex). *)
val star_forest_decomposition : Coloring.t -> report

(** {!forest_decomposition} ([allow_uncolored:false]) or
    {!partial_forest_decomposition} ([allow_uncolored:true]) on a raw
    per-edge assignment [colors.(e)] over colors [0..k-1], with the same
    reports. Unlike a {!Coloring.t}, an assignment can hold a cycle or an
    out-of-range color. *)
val forest_assignment :
  Nw_graphs.Multigraph.t ->
  int option array ->
  k:int ->
  allow_uncolored:bool ->
  report

(** {!star_forest_decomposition} on a raw per-edge assignment, as
    {!forest_assignment}. *)
val star_forest_assignment :
  Nw_graphs.Multigraph.t -> int option array -> k:int -> report

(** Pseudo-forest decompositions cannot live in {!Coloring} (it enforces
    acyclicity), so they are checked on a raw per-edge color assignment:
    every edge gets a color in [0..k-1] and each color class is a
    pseudo-forest — every connected component has at most one cycle,
    equivalently no more edges than vertices. *)
val pseudo_forest_assignment :
  Nw_graphs.Multigraph.t -> int array -> k:int -> report

(** Every colored edge uses a color from its palette. *)
val respects_palette : Coloring.t -> Palette.t -> report

(** [uses_at_most t k]: all colors in [0..k-1]. *)
val uses_at_most : Coloring.t -> int -> report

(** Largest strong diameter over all trees of all color classes. *)
val max_forest_diameter : Coloring.t -> int

(** Number of distinct colors actually used. *)
val colors_used : Coloring.t -> int

(** [orientation_out_degree o k]: max out-degree at most [k]. *)
val orientation_out_degree : Nw_graphs.Orientation.t -> int -> report

(** [acyclic_orientation o]: the orientation has no directed cycle. *)
val acyclic_orientation : Nw_graphs.Orientation.t -> report

(** Combine reports, keeping the first failure. *)
val all : report list -> report

(** [exn r] raises [Failure] on [Error]; for tests and examples. *)
val exn : report -> unit
