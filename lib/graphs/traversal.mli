(** Graph traversal utilities: components, distances, forests, diameters. *)

(** [components g] assigns every vertex a component label in [0..c-1];
    returns [(labels, c)]. *)
val components : Multigraph.t -> int array * int

(** [is_forest g] holds when [g] is acyclic (parallel edges count as a
    2-cycle). *)
val is_forest : Multigraph.t -> bool

(** [distances g v] is the array of BFS distances from [v]; unreachable
    vertices get [-1]. *)
val distances : Multigraph.t -> int -> int array

(** [diameter g] is the largest eccentricity over all connected components
    (strong diameter, exact, via all-sources BFS). 0 on edgeless graphs. *)
val diameter : Multigraph.t -> int

(** [tree_diameter g] computes, for a forest, the maximum over trees of the
    path diameter: {!max_tree_diameter} with one forest, O(n + m).
    @raise Invalid_argument if [g] is not a forest. *)
val tree_diameter : Multigraph.t -> int

(** [max_tree_diameter ~n ~forests iter] is the largest tree diameter
    over [forests] forests on the vertex set [0..n-1], where
    [iter f v visit] calls [visit w e] for each edge [e] joining [v] to
    [w] in forest [f]. Two BFS sweeps per tree over buffers shared by all
    of them: O(forests·n + edges) time, three n-arrays of space.
    Acyclicity is the caller's to guarantee. *)
val max_tree_diameter :
  n:int -> forests:int -> (int -> int -> (int -> int -> unit) -> unit) -> int

(** [spanning_forest g] is the edge-id set (membership array over edges) of
    an arbitrary spanning forest of [g]. *)
val spanning_forest : Multigraph.t -> bool array

(** [bfs_tree g root] returns [(parent_vertex, parent_edge, depth)] arrays of
    the BFS tree rooted at [root]; unreachable vertices get parents [-1] and
    depth [-1]; the root has parents [-1] and depth [0]. *)
val bfs_tree : Multigraph.t -> int -> int array * int array * int array
