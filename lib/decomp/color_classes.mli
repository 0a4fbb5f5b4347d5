(** Edges grouped by color, checked to be forests in O(n + m).

    The one forest check behind both {!Coloring.of_assignment} and
    {!Verify}: a counting sort groups the edges by color, ascending edge
    ids inside each group, and one union-find checks the colors one
    after another, isolating the vertices a color touched before the
    next. *)

(** Group [c] is [edges.(start.(c)) .. edges.(start.(c + 1) - 1)],
    ascending. *)
type t = { start : int array; edges : int array }

(** The first edge, in edge order, that keeps the coloring from being a
    (partial) forest decomposition, as if every color kept its own
    union-find and the edges were added in one ascending scan. *)
type fault =
  | Uncolored of int
  | Out_of_range of int
  | Cycle of { color : int; edge : int }

(** [forests g ~k ~allow_uncolored color] groups [g]'s edges by
    [color e], where [-1] means uncolored and any other value outside
    [0..k-1] is out of range, and checks that every group is a forest.
    O(n + m + k) time and memory. *)
val forests :
  Nw_graphs.Multigraph.t ->
  k:int ->
  allow_uncolored:bool ->
  (int -> int) ->
  (t, fault) result
