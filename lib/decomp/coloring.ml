(* nwlint:disable PERF001 -- the per-color union-find rebuild is already lazily gated by generation counters (uf_gen/uf_built); when it does run it is Theta(n + m_c) by design, so the fills are not the cost *)

module Obs = Nw_obs.Obs

(* Process-wide instrumentation of the connectivity layer. Atomic so that
   parallel bench domains can share them; the bench harness snapshots
   before/after each experiment and reports deltas in BENCH_*.json. *)
module Counters = struct
  let uf_queries = Atomic.make 0
  let bfs_runs = Atomic.make 0
  let uf_rebuilds = Atomic.make 0

  type snapshot = { uf_queries : int; bfs_runs : int; uf_rebuilds : int }

  let snapshot () =
    {
      uf_queries = Atomic.get uf_queries;
      bfs_runs = Atomic.get bfs_runs;
      uf_rebuilds = Atomic.get uf_rebuilds;
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

   Each color additionally threads its edges through [enxt]/[eprv]
   (head [ehead.(c)]) so the lazy union-find rebuild below touches only
   that color's edges, never all m.

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
  (* (color, vertex) adjacency DLLs over node ids 2e+slot; -1 = nil *)
  head : int array array; (* color -> vertex -> node id *)
  mutable nxt : int array; (* 2m *)
  mutable prv : int array; (* 2m *)
  (* per-color edge DLLs; -1 = nil *)
  ehead : int array;
  mutable enxt : int array; (* m *)
  mutable eprv : int array; (* m *)
  ecount : int array; (* edges currently in each color *)
  (* incremental per-color connectivity: union-find with path
     compression and union by size, carrying per-component vertex and
     edge counts. Lazily allocated ([||]) and lazily rebuilt: [uf_gen]
     is bumped on any deletion from the color, [uf_built] records the
     generation of the last rebuild; the class is clean iff they
     agree. *)
  uf_parent : int array array; (* color -> n *)
  uf_size : int array array; (* root -> component vertex count *)
  uf_edges : int array array; (* root -> component edge count *)
  uf_gen : int array;
  uf_built : int array;
  (* rooted spanning forest per color, maintained together with the
     union-find (same laziness): parent vertex / parent edge / depth,
     so path extraction is an O(path) LCA climb instead of a BFS over
     the component. Insertions re-root the smaller side
     (small-to-large); deletions fall back on the lazy rebuild. *)
  fp_vertex : int array array; (* color -> vertex -> parent, -1 root *)
  fp_edge : int array array; (* color -> vertex -> edge to parent *)
  fp_depth : int array array; (* color -> vertex -> depth from root *)
  (* timestamped BFS/walk scratch, shared across queries *)
  mark : int array;
  qbuf : int array; (* BFS queue buffer for rebuild / reroot *)
  pbuf : int array; (* v-side half of the path being walked *)
  mutable stamp : int;
}

let create g ~colors =
  if colors < 0 then invalid_arg "Coloring.create: negative color count";
  let n = G.n g in
  let m = G.m g in
  let src, dst = G.endpoint_rows g in
  {
    n;
    m;
    g;
    src;
    dst;
    colors;
    assign = Array.make m (-1);
    colored = 0;
    head = Array.init colors (fun _ -> Array.make n (-1));
    nxt = Array.make (2 * m) (-1);
    prv = Array.make (2 * m) (-1);
    ehead = Array.make colors (-1);
    enxt = Array.make m (-1);
    eprv = Array.make m (-1);
    ecount = Array.make colors 0;
    uf_parent = Array.make colors [||];
    uf_size = Array.make colors [||];
    uf_edges = Array.make colors [||];
    uf_gen = Array.make colors 0;
    uf_built = Array.make colors (-1);
    fp_vertex = Array.make colors [||];
    fp_edge = Array.make colors [||];
    fp_depth = Array.make colors [||];
    mark = Array.make n 0;
    qbuf = Array.make n 0;
    pbuf = Array.make n 0;
    stamp = 0;
  }

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

let iter_adj t c x f =
  let nd = ref t.head.(c).(x) in
  while !nd >= 0 do
    let cur = !nd in
    nd := t.nxt.(cur);
    f (node_neighbor t cur) (cur lsr 1)
  done

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

let link_edge t c e =
  let h = t.ehead.(c) in
  t.enxt.(e) <- h;
  t.eprv.(e) <- -1;
  if h >= 0 then t.eprv.(h) <- e;
  t.ehead.(c) <- e;
  t.ecount.(c) <- t.ecount.(c) + 1

let unlink_edge t c e =
  let p = t.eprv.(e) and n = t.enxt.(e) in
  if p >= 0 then t.enxt.(p) <- n else t.ehead.(c) <- n;
  if n >= 0 then t.eprv.(n) <- p;
  t.enxt.(e) <- -1;
  t.eprv.(e) <- -1;
  t.ecount.(c) <- t.ecount.(c) - 1

(* ---------------------------------------------------------------- *)
(* per-color union-find                                              *)
(* ---------------------------------------------------------------- *)

let rec uf_find p x =
  let px = p.(x) in
  if px = x then x
  else begin
    let root = uf_find p px in
    p.(x) <- root;
    root
  end

(* union endpoints of one more edge; caller guarantees acyclicity
   except during rebuild, where a same-root union would indicate a
   broken forest invariant and is counted on the root anyway *)
let uf_union t c u v =
  let p = t.uf_parent.(c) in
  let ru = uf_find p u and rv = uf_find p v in
  let sz = t.uf_size.(c) and ed = t.uf_edges.(c) in
  if ru = rv then ed.(ru) <- ed.(ru) + 1
  else begin
    let big, small = if sz.(ru) >= sz.(rv) then (ru, rv) else (rv, ru) in
    p.(small) <- big;
    sz.(big) <- sz.(big) + sz.(small);
    ed.(big) <- ed.(big) + ed.(small) + 1
  end

let uf_rebuild t c =
  let n = t.n in
  if Array.length t.uf_parent.(c) = 0 then begin
    t.uf_parent.(c) <- Array.init n (fun i -> i);
    t.uf_size.(c) <- Array.make n 1;
    t.uf_edges.(c) <- Array.make n 0;
    t.fp_vertex.(c) <- Array.make n (-1);
    t.fp_edge.(c) <- Array.make n (-1);
    t.fp_depth.(c) <- Array.make n (-1)
  end
  else begin
    let p = t.uf_parent.(c) in
    for i = 0 to n - 1 do
      p.(i) <- i
    done;
    Array.fill t.uf_size.(c) 0 n 1;
    Array.fill t.uf_edges.(c) 0 n 0;
    Array.fill t.fp_vertex.(c) 0 n (-1);
    Array.fill t.fp_edge.(c) 0 n (-1);
    Array.fill t.fp_depth.(c) 0 n (-1)
  end;
  let e = ref t.ehead.(c) in
  while !e >= 0 do
    uf_union t c t.src.(!e) t.dst.(!e);
    e := t.enxt.(!e)
  done;
  (* rebuild the rooted spanning forest: BFS each component, parents
     pointing toward the component's lowest-id unvisited vertex. The
     adjacency walk is [iter_adj] written out, so a rebuild allocates no
     closure per vertex. *)
  let pv = t.fp_vertex.(c)
  and pe = t.fp_edge.(c)
  and dep = t.fp_depth.(c)
  and head = t.head.(c) in
  for r = 0 to n - 1 do
    if dep.(r) < 0 then begin
      dep.(r) <- 0;
      t.qbuf.(0) <- r;
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
          if dep.(w) < 0 then begin
            dep.(w) <- dep.(x) + 1;
            pv.(w) <- x;
            pe.(w) <- cur lsr 1;
            t.qbuf.(!tail) <- w;
            incr tail
          end
        done
      done
    end
  done;
  t.uf_built.(c) <- t.uf_gen.(c);
  Atomic.incr Counters.uf_rebuilds;
  Obs.count "coloring.uf_rebuilds"

let ensure_uf t c = if t.uf_built.(c) <> t.uf_gen.(c) then uf_rebuild t c

(* Re-hang vertex [v]'s tree in color [c] below [u] through edge [e]:
   v becomes the subtree root attached to u, and every vertex of v's
   old tree is re-parented toward v by a BFS over the color's adjacency
   (e is not linked yet, so the BFS cannot escape into u's tree). The
   caller always re-roots the smaller side, so each vertex is re-rooted
   at most O(log n) times across a build (small-to-large). *)
let reroot_under t c ~u ~v ~e =
  let pv = t.fp_vertex.(c)
  and pe = t.fp_edge.(c)
  and dep = t.fp_depth.(c) in
  t.stamp <- t.stamp + 1;
  let stamp = t.stamp in
  t.mark.(v) <- stamp;
  dep.(v) <- dep.(u) + 1;
  pv.(v) <- u;
  pe.(v) <- e;
  t.qbuf.(0) <- v;
  let tail = ref 1 in
  let h = ref 0 in
  while !h < !tail do
    let x = t.qbuf.(!h) in
    incr h;
    iter_adj t c x (fun w e' ->
        if t.mark.(w) <> stamp then begin
          t.mark.(w) <- stamp;
          dep.(w) <- dep.(x) + 1;
          pv.(w) <- x;
          pe.(w) <- e';
          t.qbuf.(!tail) <- w;
          incr tail
        end)
  done

(* connectivity of u and v inside color c, O(alpha(n)) amortized *)
let uf_connected t c u v =
  ensure_uf t c;
  Atomic.incr Counters.uf_queries;
  Obs.count "coloring.uf_queries";
  let p = t.uf_parent.(c) in
  uf_find p u = uf_find p v

(* ---------------------------------------------------------------- *)
(* BFS connectivity (the test oracle)                                *)
(* ---------------------------------------------------------------- *)

(* Bidirectional BFS inside color class [c] between [src] and [dst],
   never crossing edge [skip]: do the two searches meet? Expands the
   smaller frontier and stops as soon as either side's component is
   exhausted, so deciding "disconnected" costs only the smaller
   component. *)
let bfs_connected t c src dst skip =
  Atomic.incr Counters.bfs_runs;
  Obs.count "coloring.bfs_runs";
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
    u = v || uf_connected t c u v
  end

let oracle_would_close_cycle t e c =
  if c < 0 || c >= t.colors then
    invalid_arg "Coloring.oracle_would_close_cycle: color out of range";
  check_edge t e "oracle_would_close_cycle";
  bfs_connected t c t.src.(e) t.dst.(e) e

let connected t c u v =
  if c < 0 || c >= t.colors then
    invalid_arg "Coloring.connected: color out of range";
  let n = t.n in
  if u < 0 || u >= n || v < 0 || v >= n then
    invalid_arg "Coloring.connected: vertex out of range";
  u = v || uf_connected t c u v

let unset t e =
  check_edge t e "unset";
  let c = t.assign.(e) in
  if c >= 0 then begin
    let u = t.src.(e) and v = t.dst.(e) in
    unlink_node t c u (2 * e);
    unlink_node t c v ((2 * e) + 1);
    unlink_edge t c e;
    t.assign.(e) <- -1;
    t.colored <- t.colored - 1;
    (* deletions invalidate only this color; rebuilt lazily on query *)
    t.uf_gen.(c) <- t.uf_gen.(c) + 1
  end

let set t e c =
  if c < 0 || c >= t.colors then
    invalid_arg "Coloring.set: color out of range";
  check_edge t e "set";
  if t.assign.(e) <> c then begin
    if would_close_cycle t e c then
      invalid_arg "Coloring.set: would close a cycle";
    unset t e;
    let u = t.src.(e) and v = t.dst.(e) in
    (* the cycle check above just ensured color c's union-find is clean
       (and allocated), so insertion maintains it incrementally — no
       invalidation. The rooted forest re-hangs the smaller side before
       the edge enters the adjacency lists. *)
    let p = t.uf_parent.(c) in
    if t.uf_size.(c).(uf_find p u) >= t.uf_size.(c).(uf_find p v) then
      reroot_under t c ~u ~v ~e
    else reroot_under t c ~u:v ~v:u ~e;
    link_node t c u (2 * e);
    link_node t c v ((2 * e) + 1);
    link_edge t c e;
    t.assign.(e) <- c;
    t.colored <- t.colored + 1;
    uf_union t c u v
  end

let check_color t c name =
  if c < 0 || c >= t.colors then
    invalid_arg ("Coloring." ^ name ^ ": color out of range")

let grow a cap pad =
  let b = Array.make cap pad in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Append an uncolored edge in place. When the per-edge arrays are full
   they are all replaced by arrays of twice the capacity: the fresh
   [src]/[dst] rows stop sharing the graph's, and every fresh slot of
   the other rows is already the uncolored/unlinked -1, so the new id
   needs only its endpoints written. Per-color and per-vertex state is
   untouched: an uncolored edge is in no forest. *)
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
    t.nxt <- grow t.nxt (2 * cap) (-1);
    t.prv <- grow t.prv (2 * cap) (-1);
    t.enxt <- grow t.enxt cap (-1);
    t.eprv <- grow t.eprv cap (-1)
  end;
  t.src.(e) <- u;
  t.dst.(e) <- v;
  t.m <- e + 1;
  e

(* the one counted test behind C(e, c): free when e has color c, one
   union-find query otherwise (graphs have no self-loops) *)
let path_exists_unchecked t e c =
  t.assign.(e) = c || uf_connected t c t.src.(e) t.dst.(e)

let path_exists t e c =
  check_color t c "path_exists";
  check_edge t e "path_exists";
  path_exists_unchecked t e c

(* One climb of the rooted forest to the LCA, O(path length): the u-side
   edges are emitted as they are reached (u->lca order), the v-side ones
   buffered and emitted after them (v->lca order). *)
let iter_path_unchecked t e c f =
  if t.assign.(e) = c then f e
  else begin
    ensure_uf t c;
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
    done
  end

let iter_path t e c f =
  check_color t c "iter_path";
  check_edge t e "iter_path";
  iter_path_unchecked t e c f

let path t e c =
  check_color t c "path";
  check_edge t e "path";
  if path_exists_unchecked t e c then begin
    let acc = ref [] in
    iter_path_unchecked t e c (fun x -> acc := x :: !acc);
    Some (List.rev !acc)
  end
  else None

let component_edges t v c =
  if c < 0 || c >= t.colors then
    invalid_arg "Coloring.component_edges: color out of range";
  t.stamp <- t.stamp + 1;
  let stamp = t.stamp in
  let q = Queue.create () in
  t.mark.(v) <- stamp;
  Queue.add v q;
  let acc = ref [] in
  while not (Queue.is_empty q) do
    let u = Queue.take q in
    iter_adj t c u (fun w e ->
        if t.mark.(w) <> stamp then begin
          t.mark.(w) <- stamp;
          acc := e :: !acc;
          Queue.add w q
        end)
  done;
  !acc

let component_size t v c =
  if c < 0 || c >= t.colors then
    invalid_arg "Coloring.component_size: color out of range";
  ensure_uf t c;
  t.uf_size.(c).(uf_find t.uf_parent.(c) v)

let component_edge_count t v c =
  if c < 0 || c >= t.colors then
    invalid_arg "Coloring.component_edge_count: color out of range";
  ensure_uf t c;
  t.uf_edges.(c).(uf_find t.uf_parent.(c) v)

let colored_incident t v c =
  let acc = ref [] in
  iter_adj t c v (fun w e -> acc := (w, e) :: !acc);
  List.rev !acc

let iter_colored_incident t v c f = iter_adj t c v f

let to_array t =
  Array.init t.m (fun e ->
      let c = t.assign.(e) in
      if c < 0 then None else Some c)

let of_array g ~colors a =
  if Array.length a <> G.m g then
    invalid_arg "Coloring.of_array: length mismatch";
  let t = create g ~colors in
  Array.iteri (fun e c -> match c with None -> () | Some c -> set t e c) a;
  t

let copy t = of_array (graph t) ~colors:t.colors (to_array t)

let subgraph t c =
  let keep = Array.init t.m (fun e -> t.assign.(e) = c) in
  G.subgraph_of_edges (graph t) keep
