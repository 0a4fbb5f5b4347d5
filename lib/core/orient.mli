(** Low out-degree orientations from forest decompositions — Corollary 1.1.

    A forest decomposition of diameter [D] turns into an orientation in
    [O(D)] rounds: root every monochromatic tree and point each edge at its
    parent. Each vertex owns at most one parent edge per color, so the
    out-degree is at most the number of colors — a [(1+eps)·alpha]-FD gives
    a [(1+eps)·alpha]-orientation, the first with linear dependence on
    [1/eps]. The engine's [orientation] pipeline runs Theorem 4.6 and then
    this ([Nw_engine.Run.orientation]). *)

(** [of_forest_decomposition coloring ~rounds] orients every colored edge
    toward its tree root; uncolored edges (there should be none in a
    complete decomposition) are oriented arbitrarily. Charges the largest
    tree depth encountered. *)
val of_forest_decomposition :
  Nw_decomp.Coloring.t ->
  rounds:Nw_localsim.Rounds.t ->
  Nw_graphs.Orientation.t
