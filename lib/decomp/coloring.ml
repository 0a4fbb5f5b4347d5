module Obs = Nw_obs.Obs

(* Process-wide instrumentation of the connectivity layer; the bench
   harness snapshots before/after each experiment and reports deltas in
   BENCH_*.json. *)
module Counters = struct
  let uf_queries = ref 0
  let bfs_runs = ref 0
  let uf_rebuilds = ref 0
  let repair_vertices = ref 0
  let path_edges = ref 0

  type snapshot = {
    uf_queries : int;
    bfs_runs : int;
    uf_rebuilds : int;
    repair_vertices : int;
    path_edges : int;
  }

  let snapshot () =
    {
      uf_queries = !uf_queries;
      bfs_runs = !bfs_runs;
      uf_rebuilds = !uf_rebuilds;
      repair_vertices = !repair_vertices;
      path_edges = !path_edges;
    }
end

module G = Nw_graphs.Multigraph

(* Adjacency is a doubly-linked list per (color, vertex), threaded
   through two flat arrays indexed by "node id" [2e + slot] (slot 0 =
   the src endpoint of e, slot 1 = dst). An edge belongs to at most one
   color, so one nxt/prv pair per node suffices globally. Inserts
   prepend and unlinks are in place, which reproduces exactly the
   iteration order of the previous [(nbr, edge) list] representation
   (prepend + order-preserving filter) while making deletion O(1)
   instead of O(deg).

   A color's lists exist only once its rooted forest does: [head.(c)]
   is allocated with the forest at the color's first touch, and
   [nxt]/[prv] at the first touch of any color. A coloring nothing
   queries holds its assignment, its color groups and O(n) scratch.

   Endpoints are read from the coloring's own [src]/[dst] rows (shared
   with the graph at [create], one array load per edge). [add_edge]
   appends edges in place: every per-edge array has a capacity of at
   least [m] and grows by doubling, so the edge count [m], not the
   array length, bounds the edge ids. *)

type t = {
  n : int;
  mutable m : int;
  mutable g : G.t; (* the graph over the first [G.m g] edges; stale
                      after [add_edge] until [graph] rebuilds it *)
  mutable src : int array; (* edge -> first endpoint *)
  mutable dst : int array; (* edge -> second endpoint *)
  colors : int;
  mutable assign : int array; (* edge -> color or -1 *)
  mutable colored : int;
  (* (color, vertex) adjacency DLLs over node ids 2e+slot; -1 = nil.
     [||] until the first touch, as the forest below *)
  head : int array array; (* color -> vertex -> node id *)
  mutable nxt : int array; (* 2 * capacity *)
  mutable prv : int array; (* 2 * capacity *)
  (* rooted spanning forest per color, allocated ([||] before) at the
     color's first touch and repaired only in the trees an update
     touches: parent vertex / parent edge / depth, so path extraction
     is an O(path) LCA climb, and the root of every vertex's tree, so
     connectivity is one label compare. Per root, the tree's vertex
     count and its pending mark (see [settle]). *)
  fp_root : int array array; (* color -> vertex -> root of its tree *)
  fp_size : int array array; (* color -> root -> tree vertex count *)
  fp_pend : int array array; (* color -> root -> pending mark, 0 none *)
  fp_vertex : int array array; (* color -> vertex -> parent, -1 root *)
  fp_edge : int array array; (* color -> vertex -> edge to parent *)
  fp_depth : int array array; (* color -> vertex -> depth from root *)
  fp_unsets : int array; (* color -> colored edges unset so far *)
  bulk : Color_classes.t option;
      (* the color groups of a bulk construction ([of_assignment]): a
         color with edges there and no forest yet is owed a replay *)
  (* timestamped BFS/walk scratch, shared across queries *)
  mark : int array;
  qbuf : int array; (* BFS queue buffer for hanging / repairing trees *)
  pbuf : int array; (* v-side half of the path being walked *)
  mutable stamp : int;
}

(* the coloring [assign] (-1 = uncolored) with no adjacency and no
   forest: [create] has no edge to link, and [bulk]'s groups are linked
   by their color's replay *)
let empty g ~colors ~assign ~bulk =
  let n = G.n g in
  let src, dst = G.endpoint_rows g in
  {
    n;
    m = G.m g;
    g;
    src;
    dst;
    colors;
    assign;
    colored = 0;
    head = Array.make colors [||];
    nxt = [||];
    prv = [||];
    fp_root = Array.make colors [||];
    fp_size = Array.make colors [||];
    fp_pend = Array.make colors [||];
    fp_vertex = Array.make colors [||];
    fp_edge = Array.make colors [||];
    fp_depth = Array.make colors [||];
    fp_unsets = Array.make colors 0;
    bulk;
    mark = Array.make n 0;
    qbuf = Array.make n 0;
    pbuf = Array.make n 0;
    stamp = 0;
  }

let create g ~colors =
  if colors < 0 then invalid_arg "Coloring.create: negative color count";
  empty g ~colors ~assign:(Array.make (G.m g) (-1)) ~bulk:None

(* per-edge arrays may hold slack past [m] after [add_edge] *)
let check_edge t e name =
  if e < 0 || e >= t.m then
    invalid_arg ("Coloring." ^ name ^ ": edge out of range")

let graph t =
  if G.m t.g < t.m then begin
    let b = G.create_builder t.n in
    for e = 0 to t.m - 1 do
      ignore (G.add_edge b t.src.(e) t.dst.(e))
    done;
    t.g <- G.build b
  end;
  t.g

let colors t = t.colors

let color t e =
  check_edge t e "color";
  let c = t.assign.(e) in
  if c < 0 then None else Some c

let get t e =
  check_edge t e "get";
  t.assign.(e)

let colored_count t = t.colored

let uncolored t =
  let k = t.m - t.colored in
  let out = Array.make k 0 in
  let j = ref 0 in
  for e = 0 to t.m - 1 do
    if t.assign.(e) < 0 then begin
      out.(!j) <- e;
      incr j
    end
  done;
  out

let iter_uncolored f t =
  for e = 0 to t.m - 1 do
    if t.assign.(e) < 0 then f e
  done

(* ---------------------------------------------------------------- *)
(* adjacency DLL primitives                                          *)
(* ---------------------------------------------------------------- *)

(* neighbor reached through node [nd] of vertex [x]'s list: the
   endpoint of edge [nd/2] on the other slot. src/dst instead of
   [endpoints]: this is the innermost load of every cache traversal
   and must not allocate a tuple per step. *)
let node_neighbor t nd =
  let e = nd lsr 1 in
  if nd land 1 = 0 then t.dst.(e) else t.src.(e)

let link_node t c x nd =
  let h = t.head.(c).(x) in
  t.nxt.(nd) <- h;
  t.prv.(nd) <- -1;
  if h >= 0 then t.prv.(h) <- nd;
  t.head.(c).(x) <- nd

let unlink_node t c x nd =
  let p = t.prv.(nd) and n = t.nxt.(nd) in
  if p >= 0 then t.nxt.(p) <- n else t.head.(c).(x) <- n;
  if n >= 0 then t.prv.(n) <- p;
  t.nxt.(nd) <- -1;
  t.prv.(nd) <- -1

(* ---------------------------------------------------------------- *)
(* per-color rooted forest                                           *)
(* ---------------------------------------------------------------- *)

(* Hang the tree of vertex [top] in color [c] below [parent] through
   [edge] ([parent] = -1: make [top] the root) and label all of it with
   [root]: every vertex is re-parented toward [top] by a BFS over the
   color's adjacency. A tree's rooting is fixed by its root alone, so
   the BFS order does not matter. The caller has not linked [edge] yet,
   so the BFS cannot escape into [parent]'s tree. Returns the number k
   of vertices hung, which the BFS leaves in [qbuf.(0..k-1)]. The
   adjacency walk is [iter_adj] written out, so a hang allocates no
   closure per vertex. *)
let hang t c ~top ~parent ~edge ~root =
  let pv = t.fp_vertex.(c)
  and pe = t.fp_edge.(c)
  and dep = t.fp_depth.(c)
  and lab = t.fp_root.(c)
  and head = t.head.(c) in
  t.stamp <- t.stamp + 1;
  let stamp = t.stamp in
  t.mark.(top) <- stamp;
  dep.(top) <- (if parent < 0 then 0 else dep.(parent) + 1);
  pv.(top) <- parent;
  pe.(top) <- edge;
  lab.(top) <- root;
  t.qbuf.(0) <- top;
  let tail = ref 1 in
  let h = ref 0 in
  while !h < !tail do
    let x = t.qbuf.(!h) in
    incr h;
    let nd = ref head.(x) in
    while !nd >= 0 do
      let cur = !nd in
      nd := t.nxt.(cur);
      let w = node_neighbor t cur in
      if t.mark.(w) <> stamp then begin
        t.mark.(w) <- stamp;
        dep.(w) <- dep.(x) + 1;
        pv.(w) <- x;
        pe.(w) <- cur lsr 1;
        lab.(w) <- root;
        t.qbuf.(!tail) <- w;
        incr tail
      end
    done
  done;
  !tail

(* Re-root the tree of [x] in color [c] at its lowest vertex m and
   return [(m, k)] for a tree of k vertices: the hang from [x] leaves
   the tree in [qbuf], a second hang re-roots it at m when m <> x. *)
let reroot_at_min t c x =
  let k = hang t c ~top:x ~parent:(-1) ~edge:(-1) ~root:x in
  let m = ref x in
  for i = 1 to k - 1 do
    if t.qbuf.(i) < !m then m := t.qbuf.(i)
  done;
  let m = !m in
  if m <> x then ignore (hang t c ~top:m ~parent:(-1) ~edge:(-1) ~root:m);
  t.fp_pend.(c).(m) <- 0;
  (m, k)

let count_repaired k =
  Counters.repair_vertices := !Counters.repair_vertices + k;
  Obs.count ~by:k "coloring.repair_vertices"

(* A query that follows an [unset] from color [c] must see every tree
   of [c] rooted at its lowest vertex: that is the rooting a BFS of the
   whole color from vertex 0 up produces, and [iter_path]'s edge order
   depends on it. [unset] re-roots the subtree it detaches. [set] keeps
   the larger side's root, which is the merged tree's lowest vertex
   unless the absorbed side's root was lower or either side was already
   pending; the merged root is then marked pending with 1 + the color's
   unset count. A pending mark an [unset] has overtaken is stale, and
   [settle] re-roots that tree at its lowest vertex before anything
   reads its rooting: [set] for both sides, [unset] for the tree that
   loses the edge, [iter_path] for the tree it climbs. Every read thus
   sees the rooting a repair of all pending trees at each [unset] would
   give, but only touched trees pay, and no list of them is kept. *)
let settle t c r =
  let p = t.fp_pend.(c).(r) in
  if p > 0 && p <= t.fp_unsets.(c) then begin
    let size = t.fp_size.(c) in
    let m, k = reroot_at_min t c r in
    size.(m) <- size.(r);
    count_repaired k
  end

(* Join the trees of e's endpoints in color [c], whose forest is
   allocated and does not hold [e] yet, and link [e] into the adjacency.
   The smaller side is re-hung below the larger (u's side on a tie),
   whose root the merged tree keeps, before the edge enters the
   adjacency lists: small-to-large, so each vertex is re-hung O(log n)
   times between deletes. *)
let join t c e =
  let u = t.src.(e) and v = t.dst.(e) in
  let lab = t.fp_root.(c) and size = t.fp_size.(c) and pend = t.fp_pend.(c) in
  settle t c lab.(u);
  settle t c lab.(v);
  let ru = lab.(u) and rv = lab.(v) in
  let keep, moved =
    if size.(ru) >= size.(rv) then begin
      ignore (hang t c ~top:v ~parent:u ~edge:e ~root:ru);
      (ru, rv)
    end
    else begin
      ignore (hang t c ~top:u ~parent:v ~edge:e ~root:rv);
      (rv, ru)
    end
  in
  size.(keep) <- size.(keep) + size.(moved);
  if moved < keep || pend.(keep) > 0 || pend.(moved) > 0 then
    pend.(keep) <- t.fp_unsets.(c) + 1;
  link_node t c u (2 * e);
  link_node t c v ((2 * e) + 1)

(* Allocate color [c]'s forest and adjacency at its first touch: n
   singleton trees, each rooted at its only (so its lowest) vertex, and
   empty lists. A color a bulk construction filled is then owed its
   edges: they are joined in ascending order, which is the state [set]s
   in that order would have left (the lists included, as each link
   prepends). Such a replay is no first touch and counts no rebuild:
   the same [set]s would have counted theirs at construction. *)
let ensure_forest t c =
  if Array.length t.fp_root.(c) = 0 then begin
    let n = t.n in
    if Array.length t.nxt = 0 then begin
      (* never empty once made, so [add_edge] grows them from here on *)
      let cap = max 1 (Array.length t.assign) in
      t.nxt <- Array.make (2 * cap) (-1);
      t.prv <- Array.make (2 * cap) (-1)
    end;
    t.head.(c) <- Array.make n (-1);
    t.fp_root.(c) <- Array.init n Fun.id;
    t.fp_size.(c) <- Array.make n 1;
    t.fp_pend.(c) <- Array.make n 0;
    t.fp_vertex.(c) <- Array.make n (-1);
    t.fp_edge.(c) <- Array.make n (-1);
    t.fp_depth.(c) <- Array.make n 0;
    match t.bulk with
    | Some { start; edges } when start.(c) < start.(c + 1) ->
        for i = start.(c) to start.(c + 1) - 1 do
          join t c edges.(i)
        done
    | _ ->
        incr Counters.uf_rebuilds;
        Obs.count "coloring.uf_rebuilds"
  end

(* Has color [c] lists to walk? One with no forest yet has none: a bulk
   color with edges is replayed first (no rebuild counted), any other
   has no edge. The replay hangs trees on the shared stamps, so a walk
   asks before it stamps anything. *)
let has_lists t c =
  Array.length t.head.(c) > 0
  ||
  match t.bulk with
  | Some { start; _ } when start.(c) < start.(c + 1) ->
      ensure_forest t c;
      true
  | _ -> false

let iter_adj t c x f =
  let nd = ref t.head.(c).(x) in
  while !nd >= 0 do
    let cur = !nd in
    nd := t.nxt.(cur);
    f (node_neighbor t cur) (cur lsr 1)
  done

(* connectivity of u and v inside color c: one root-label compare *)
let same_tree t c u v =
  ensure_forest t c;
  incr Counters.uf_queries;
  Obs.count "coloring.uf_queries";
  let lab = t.fp_root.(c) in
  lab.(u) = lab.(v)

(* ---------------------------------------------------------------- *)
(* BFS connectivity (the test oracle)                                *)
(* ---------------------------------------------------------------- *)

(* Bidirectional BFS inside color class [c] between [src] and [dst],
   never crossing edge [skip]: do the two searches meet? Expands the
   smaller frontier and stops as soon as either side's component is
   exhausted, so deciding "disconnected" costs only the smaller
   component. Color [c] has lists ([has_lists]). *)
let bfs_connected t c src dst skip =
  (* two stamps: src side = stamp - 1, dst side = stamp *)
  t.stamp <- t.stamp + 2;
  let s_src = t.stamp - 1 and s_dst = t.stamp in
  t.mark.(src) <- s_src;
  t.mark.(dst) <- s_dst;
  let frontier_src = ref [ src ] and frontier_dst = ref [ dst ] in
  let met = ref false in
  (* expand one side's whole frontier; my/other are the side stamps *)
  let expand frontier my other =
    let next = ref [] in
    List.iter
      (fun x ->
        if not !met then
          iter_adj t c x (fun w e ->
              if (not !met) && e <> skip then
                if t.mark.(w) = other then met := true
                else if t.mark.(w) <> my then begin
                  t.mark.(w) <- my;
                  next := w :: !next
                end))
      !frontier;
    frontier := !next
  in
  let rec loop () =
    if !met then true
    else if !frontier_src = [] || !frontier_dst = [] then false
    else begin
      if List.compare_lengths !frontier_src !frontier_dst <= 0 then
        expand frontier_src s_src s_dst
      else expand frontier_dst s_dst s_src;
      loop ()
    end
  in
  loop ()

let would_close_cycle t e c =
  if c < 0 || c >= t.colors then
    invalid_arg "Coloring.would_close_cycle: color out of range";
  check_edge t e "would_close_cycle";
  if t.assign.(e) = c then
    (* color classes are forests: u and v are joined only through e *)
    false
  else begin
    let u = t.src.(e) and v = t.dst.(e) in
    u = v || same_tree t c u v
  end

let oracle_would_close_cycle t e c =
  if c < 0 || c >= t.colors then
    invalid_arg "Coloring.oracle_would_close_cycle: color out of range";
  check_edge t e "oracle_would_close_cycle";
  incr Counters.bfs_runs;
  Obs.count "coloring.bfs_runs";
  has_lists t c && bfs_connected t c t.src.(e) t.dst.(e) e

let connected t c u v =
  if c < 0 || c >= t.colors then
    invalid_arg "Coloring.connected: color out of range";
  let n = t.n in
  if u < 0 || u >= n || v < 0 || v >= n then
    invalid_arg "Coloring.connected: vertex out of range";
  u = v || same_tree t c u v

let unset t e =
  check_edge t e "unset";
  let c = t.assign.(e) in
  if c >= 0 then begin
    ensure_forest t c;
    let u = t.src.(e) and v = t.dst.(e) in
    let lab = t.fp_root.(c) and size = t.fp_size.(c) in
    t.fp_unsets.(c) <- t.fp_unsets.(c) + 1;
    settle t c lab.(u);
    unlink_node t c u (2 * e);
    unlink_node t c v ((2 * e) + 1);
    t.assign.(e) <- -1;
    t.colored <- t.colored - 1;
    (* the endpoint below e roots the detached subtree; the other side
       keeps the old root, its lowest vertex *)
    let x = if t.fp_edge.(c).(u) = e then u else v in
    let r = lab.(x) in
    let m, k = reroot_at_min t c x in
    size.(r) <- size.(r) - k;
    size.(m) <- k;
    count_repaired k
  end

let set t e c =
  if c < 0 || c >= t.colors then
    invalid_arg "Coloring.set: color out of range";
  check_edge t e "set";
  if t.assign.(e) <> c then begin
    if would_close_cycle t e c then
      invalid_arg "Coloring.set: would close a cycle";
    unset t e;
    (* the cycle check above allocated color c's forest *)
    join t c e;
    t.assign.(e) <- c;
    t.colored <- t.colored + 1
  end

let check_color t c name =
  if c < 0 || c >= t.colors then
    invalid_arg ("Coloring." ^ name ^ ": color out of range")

let grow a cap pad =
  let b = Array.make cap pad in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Append an uncolored edge in place. When the per-edge arrays are full
   they are all replaced by arrays of twice the capacity ([nxt]/[prv]
   only once a touch allocated them): the fresh [src]/[dst] rows stop
   sharing the graph's, and every fresh slot of the other rows is
   already the uncolored/unlinked -1, so the new id needs only its
   endpoints written. Per-color and per-vertex state is untouched: an
   uncolored edge is in no forest. *)
let add_edge t u v =
  if u < 0 || u >= t.n || v < 0 || v >= t.n then
    invalid_arg "Coloring.add_edge: endpoint out of range";
  if u = v then invalid_arg "Coloring.add_edge: self-loop";
  let e = t.m in
  if e = Array.length t.assign then begin
    let cap = max 16 (2 * e) in
    t.src <- grow t.src cap 0;
    t.dst <- grow t.dst cap 0;
    t.assign <- grow t.assign cap (-1);
    if Array.length t.nxt > 0 then begin
      t.nxt <- grow t.nxt (2 * cap) (-1);
      t.prv <- grow t.prv (2 * cap) (-1)
    end
  end;
  t.src.(e) <- u;
  t.dst.(e) <- v;
  t.m <- e + 1;
  e

(* the one counted test behind C(e, c): free when e has color c, one
   root-label compare otherwise (graphs have no self-loops) *)
let path_exists t e c =
  check_color t c "path_exists";
  check_edge t e "path_exists";
  t.assign.(e) = c || same_tree t c t.src.(e) t.dst.(e)

(* A walk of C(e, c) reads color [c]'s forest as a search sees it:
   allocated, and the tree of e's first endpoint settled. *)
let prepare_walk t e c =
  ensure_forest t c;
  settle t c t.fp_root.(c).(t.src.(e))

let count_path_edges k = Counters.path_edges := !Counters.path_edges + k

(* One climb of the rooted forest to the LCA, O(path length): the u-side
   edges are emitted as they are reached (u->lca order), the v-side ones
   buffered and emitted after them (v->lca order). *)
let iter_path t e c f =
  check_color t c "iter_path";
  check_edge t e "iter_path";
  if t.assign.(e) = c then begin
    f e;
    count_path_edges 1
  end
  else begin
    prepare_walk t e c;
    let pv = t.fp_vertex.(c)
    and pe = t.fp_edge.(c)
    and dep = t.fp_depth.(c)
    and buf = t.pbuf in
    let x = ref t.src.(e) and y = ref t.dst.(e) and k = ref 0 in
    while dep.(!x) > dep.(!y) do
      f pe.(!x);
      x := pv.(!x)
    done;
    while dep.(!y) > dep.(!x) do
      buf.(!k) <- pe.(!y);
      incr k;
      y := pv.(!y)
    done;
    while !x <> !y do
      if pv.(!x) < 0 then invalid_arg "Coloring.iter_path: C(e, c) is empty";
      f pe.(!x);
      x := pv.(!x);
      buf.(!k) <- pe.(!y);
      incr k;
      y := pv.(!y)
    done;
    for i = 0 to !k - 1 do
      f buf.(i)
    done;
    count_path_edges (dep.(t.src.(e)) + dep.(t.dst.(e)) - (2 * dep.(!x)))
  end

let check_path_ends t e c name =
  if t.fp_root.(c).(t.src.(e)) <> t.fp_root.(c).(t.dst.(e)) then
    invalid_arg ("Coloring." ^ name ^ ": C(e, c) is empty")

(* The edges of C(e, c) at e's endpoints, in [iter_path]'s order: a
   simple path meets each endpoint in one edge, its first or its last.
   The climb from the deeper endpoint to the shallower one's depth tells
   whether the shallower one is the LCA; then the path is that climb,
   and iter_path emits it from the deeper endpoint up, whichever side
   that is. Otherwise the u-side edge comes first, then the v-side one. *)
let iter_path_ends t e c f =
  check_color t c "iter_path_ends";
  check_edge t e "iter_path_ends";
  if t.assign.(e) = c then begin
    f e;
    count_path_edges 1
  end
  else begin
    prepare_walk t e c;
    check_path_ends t e c "iter_path_ends";
    let pv = t.fp_vertex.(c) and pe = t.fp_edge.(c) and dep = t.fp_depth.(c) in
    let u = t.src.(e) and v = t.dst.(e) in
    let deep = if dep.(u) > dep.(v) then u else v in
    let top = if deep = u then v else u in
    let x = ref deep and last = ref (-1) in
    while dep.(!x) > dep.(top) do
      last := pe.(!x);
      x := pv.(!x)
    done;
    if !x = top then begin
      f pe.(deep);
      if !last = pe.(deep) then count_path_edges 1
      else begin
        f !last;
        count_path_edges 2
      end
    end
    else begin
      f pe.(u);
      f pe.(v);
      count_path_edges 2
    end
  end

let path_end_count t e c =
  check_color t c "path_end_count";
  check_edge t e "path_end_count";
  if t.assign.(e) = c then 1
  else begin
    prepare_walk t e c;
    check_path_ends t e c "path_end_count";
    let u = t.src.(e) and v = t.dst.(e) and pv = t.fp_vertex.(c) in
    if pv.(u) = v || pv.(v) = u then 1 else 2
  end

let iter_colored_incident t v c f = if has_lists t c then iter_adj t c v f

let to_array t =
  Array.init t.m (fun e ->
      let c = t.assign.(e) in
      if c < 0 then None else Some c)

(* [assign] becomes the coloring's own row. Raises what [set]s in
   ascending edge order would raise at the first edge they reject. *)
let build g ~colors assign =
  if colors < 0 then invalid_arg "Coloring.create: negative color count";
  match
    Color_classes.forests g ~k:colors ~allow_uncolored:true (Array.get assign)
  with
  | Error (Color_classes.Cycle _) ->
      invalid_arg "Coloring.set: would close a cycle"
  | Error (Color_classes.Out_of_range _ | Color_classes.Uncolored _) ->
      invalid_arg "Coloring.set: color out of range"
  | Ok classes ->
      let t = empty g ~colors ~assign ~bulk:(Some classes) in
      t.colored <- classes.start.(colors);
      t

let of_assignment g ~colors assign =
  if Array.length assign <> G.m g then
    invalid_arg "Coloring.of_assignment: length mismatch";
  build g ~colors (Array.copy assign)

let copy t = build (graph t) ~colors:t.colors (Array.sub t.assign 0 t.m)

let subgraph t c =
  let keep = Array.init t.m (fun e -> t.assign.(e) = c) in
  G.subgraph_of_edges (graph t) keep
