(** Growable unboxed int vector (doubling backing array).

    One shared implementation of the PR 6 "growable int arrays" builder
    idiom: the {!Multigraph} edge builder appends endpoint pairs through
    it, and {!Generators} uses it for the
    preferential-attachment endpoint pool. Appending [k] elements costs
    O(k) amortized with O(log k) allocations, all of them large arrays
    outside the per-element minor-heap traffic of a cons list. *)

type t

(** [create ?capacity ()] is an empty vector ([capacity] >= 1, default
    16). *)
val create : ?capacity:int -> unit -> t

val length : t -> int

(** Append one element, doubling the backing array when full. *)
val push : t -> int -> unit

(** @raise Invalid_argument when the index is out of range. *)
val get : t -> int -> int

(** @raise Invalid_argument when the index is out of range. *)
val set : t -> int -> int -> unit

(** [truncate t k] keeps the first [k] elements.
    @raise Invalid_argument unless [0 <= k <= length t]. *)
val truncate : t -> int -> unit

val to_array : t -> int array
