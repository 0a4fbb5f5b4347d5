(** Pseudo-forest decompositions from orientations.

    A [k]-orientation is exactly a decomposition into [k] pseudo-forests
    (Section 1 of the paper): give each vertex's out-edges distinct labels
    [0..k-1]; each label class has per-vertex out-degree at most one, so
    every component carries at most one cycle. Combined with Corollary 1.1
    this yields [(1+eps)·alpha]-pseudo-forest decompositions (the engine's
    [pseudo] pipeline, [Nw_engine.Run.pseudo]). *)

(** [of_orientation o] labels out-edges per vertex; returns the per-edge
    class assignment and the class count [k = max out-degree]. *)
val of_orientation : Nw_graphs.Orientation.t -> int array * int
