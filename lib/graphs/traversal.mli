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

(** [max_tree_diameter ~n ~src ~dst ~start ~edges] is the largest tree
    diameter over forests on [0..n-1] laid out as
    [Nw_decomp.Color_classes] lays out colors: forest [f] is the edges
    [edges.(start.(f))] .. [edges.(start.(f + 1) - 1)], edge [e] joining
    [src.(e)] and [dst.(e)]. Only vertices with an edge are swept, twice
    per tree: O(n + forests + edges) time and space. Acyclicity is the
    caller's to guarantee. *)
val max_tree_diameter :
  n:int ->
  src:int array ->
  dst:int array ->
  start:int array ->
  edges:int array ->
  int

(** [spanning_forest g] is the edge-id set (membership array over edges) of
    an arbitrary spanning forest of [g]. *)
val spanning_forest : Multigraph.t -> bool array

(** [bfs_tree g root] returns [(parent_vertex, parent_edge, depth)] arrays of
    the BFS tree rooted at [root]; unreachable vertices get parents [-1] and
    depth [-1]; the root has parents [-1] and depth [0]. *)
val bfs_tree : Multigraph.t -> int -> int array * int array * int array
