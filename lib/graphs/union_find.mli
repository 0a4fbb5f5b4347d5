(** Disjoint-set (union-find) with path compression and union by rank.

    Used throughout for cycle detection when building forests: a candidate
    edge [uv] closes a cycle in a forest exactly when [find t u = find t v]. *)

type t

(** [create n] is a union-find structure over elements [0 .. n-1], each in
    its own singleton class. *)
val create : int -> t

(** Number of elements the structure was created with. *)
val size : t -> int

(** Canonical representative of the class of [x]. *)
val find : t -> int -> int

(** [union t x y] merges the classes of [x] and [y]. Returns [true] if the
    classes were distinct (a merge happened), [false] if they were already
    the same class. *)
val union : t -> int -> int -> bool

(** [same t x y] is [find t x = find t y]. *)
val same : t -> int -> int -> bool

(** Number of disjoint classes currently present. *)
val count : t -> int

(** [reset t] returns every element to its own singleton class. *)
val reset : t -> unit

(** [isolate t x] makes [x] a singleton class of rank 0 again without
    touching any other element. Isolating every element of the classes
    that unions touched since [t] was all singletons returns [t] to all
    singletons ([count] included) in time proportional to those elements,
    where {!reset} takes O(n); the structure is only consistent again once
    all of them are isolated. *)
val isolate : t -> int -> unit

(** [copy t] is an independent copy sharing no mutable state. *)
val copy : t -> t
