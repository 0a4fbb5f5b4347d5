(* Adjacency is one flat row layout: [row_ptr] has n+1 entries and the
   incident edges of vertex v are [packed.(row_ptr.(v)) ..
   packed.(row_ptr.(v+1) - 1)], each an immediate int carrying
   (neighbor lsl 31) lor edge_id. Plain int arrays are unboxed, so a row
   scan is one load per incident edge with no tuple to chase.

   Order contract: rows are filled by a single ascending pass over edge
   ids (a counting sort), so every row lists its edges in ascending
   edge-id order; iter_incident, fold_incident, incident and the BFS
   helpers below all follow it. *)

type t = {
  n : int;
  src : int array;
  dst : int array;
  row_ptr : int array; (* n+1 entries, row_ptr.(n) = 2m *)
  packed : int array; (* 2m entries: (neighbor lsl 31) lor edge_id *)
}

let limit = 1 lsl 31
let pack nbr eid = (nbr lsl 31) lor eid
let nbr_of p = p lsr 31
let eid_of p = p land (limit - 1)

(* Endpoints already validated; edge ids are 0..m-1. *)
let finish n src dst =
  let m = Array.length src in
  if n >= limit then invalid_arg "Multigraph: n exceeds 2^31";
  if m >= limit then invalid_arg "Multigraph: m exceeds 2^31";
  let row_ptr = Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    row_ptr.(src.(e) + 1) <- row_ptr.(src.(e) + 1) + 1;
    row_ptr.(dst.(e) + 1) <- row_ptr.(dst.(e) + 1) + 1
  done;
  for v = 1 to n do
    row_ptr.(v) <- row_ptr.(v) + row_ptr.(v - 1)
  done;
  let packed = Array.make (2 * m) 0 in
  let fill = Array.copy row_ptr in
  for e = 0 to m - 1 do
    let u = src.(e) and v = dst.(e) in
    packed.(fill.(u)) <- pack v e;
    fill.(u) <- fill.(u) + 1;
    packed.(fill.(v)) <- pack u e;
    fill.(v) <- fill.(v) + 1
  done;
  { n; src; dst; row_ptr; packed }

(* Endpoint pairs accumulate in shared growable int vectors (Vecbuf): a
   10^7-edge build allocates a handful of doubling arrays instead of 10^7
   cons cells plus a reversal pass. *)
type builder = { bn : int; bsrc : Vecbuf.t; bdst : Vecbuf.t }

let create_builder n =
  if n < 0 then invalid_arg "Multigraph.create_builder: negative size";
  { bn = n; bsrc = Vecbuf.create (); bdst = Vecbuf.create () }

let add_edge b u v =
  if u < 0 || u >= b.bn || v < 0 || v >= b.bn then
    invalid_arg "Multigraph.add_edge: endpoint out of range";
  if u = v then invalid_arg "Multigraph.add_edge: self-loop";
  let id = Vecbuf.length b.bsrc in
  Vecbuf.push b.bsrc u;
  Vecbuf.push b.bdst v;
  id

let build b = finish b.bn (Vecbuf.to_array b.bsrc) (Vecbuf.to_array b.bdst)

let of_edges n edges =
  let b = create_builder n in
  List.iter (fun (u, v) -> ignore (add_edge b u v)) edges;
  build b

let n g = g.n
let m g = Array.length g.src

let endpoints g e = (g.src.(e), g.dst.(e))
let src g e = g.src.(e)
let dst g e = g.dst.(e)
let endpoint_rows g = (g.src, g.dst)

let other_endpoint g e v =
  if g.src.(e) = v then g.dst.(e)
  else if g.dst.(e) = v then g.src.(e)
  else invalid_arg "Multigraph.other_endpoint: vertex not on edge"

let degree g v = g.row_ptr.(v + 1) - g.row_ptr.(v)

let incident g v =
  let lo = g.row_ptr.(v) in
  Array.init (degree g v) (fun i ->
      let p = g.packed.(lo + i) in
      (nbr_of p, eid_of p))

let iter_incident g v f =
  for i = g.row_ptr.(v) to g.row_ptr.(v + 1) - 1 do
    let p = g.packed.(i) in
    f (nbr_of p) (eid_of p)
  done

let fold_incident g v ~init f =
  let acc = ref init in
  for i = g.row_ptr.(v) to g.row_ptr.(v + 1) - 1 do
    let p = g.packed.(i) in
    acc := f !acc (nbr_of p) (eid_of p)
  done;
  !acc

let max_degree g =
  let d = ref 0 in
  for v = 0 to g.n - 1 do
    if degree g v > !d then d := degree g v
  done;
  !d

let is_simple g =
  let seen = Hashtbl.create (max 16 (m g)) in
  let rec check e =
    if e >= m g then true
    else begin
      let u = g.src.(e) and v = g.dst.(e) in
      let key = if u < v then (u, v) else (v, u) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        check (e + 1)
      end
    end
  in
  check 0

let edges g = Array.init (m g) (fun e -> (g.src.(e), g.dst.(e)))

let fold_edges f g init =
  let acc = ref init in
  for e = 0 to m g - 1 do
    acc := f e g.src.(e) g.dst.(e) !acc
  done;
  !acc

let induced g members =
  if Array.length members <> g.n then
    invalid_arg "Multigraph.induced: membership array size mismatch";
  let new_id = Array.make g.n (-1) in
  let count = ref 0 in
  for v = 0 to g.n - 1 do
    if members.(v) then begin
      new_id.(v) <- !count;
      incr count
    end
  done;
  let vmap = Array.make !count 0 in
  for v = 0 to g.n - 1 do
    if members.(v) then vmap.(new_id.(v)) <- v
  done;
  let b = create_builder !count in
  let rev_emap = ref [] in
  for e = 0 to m g - 1 do
    let u = g.src.(e) and v = g.dst.(e) in
    if members.(u) && members.(v) then begin
      ignore (add_edge b new_id.(u) new_id.(v));
      rev_emap := e :: !rev_emap
    end
  done;
  let emap = Array.of_list (List.rev !rev_emap) in
  (build b, vmap, emap)

let subgraph_of_edges g keep =
  if Array.length keep <> m g then
    invalid_arg "Multigraph.subgraph_of_edges: edge mask size mismatch";
  let b = create_builder g.n in
  let rev_emap = ref [] in
  for e = 0 to m g - 1 do
    if keep.(e) then begin
      ignore (add_edge b g.src.(e) g.dst.(e));
      rev_emap := e :: !rev_emap
    end
  done;
  (build b, Array.of_list (List.rev !rev_emap))

(* BFS from [v] up to depth [r]; calls [visit u d] on each reached vertex,
   including [v] at depth 0. [dist] must be an all(-1) scratch array; it is
   restored to all(-1) before returning. *)
let bfs_limited g v r dist visit =
  let q = Queue.create () in
  dist.(v) <- 0;
  Queue.add v q;
  let touched = ref [ v ] in
  while not (Queue.is_empty q) do
    let u = Queue.take q in
    let d = dist.(u) in
    visit u d;
    if d < r then
      iter_incident g u (fun w _ ->
          if dist.(w) < 0 then begin
            dist.(w) <- d + 1;
            touched := w :: !touched;
            Queue.add w q
          end)
  done;
  List.iter (fun u -> dist.(u) <- -1) !touched

let ball g v r =
  let dist = Array.make g.n (-1) in
  let acc = ref [] in
  bfs_limited g v r dist (fun u _ -> acc := u :: !acc);
  !acc

let ball_of_set g vs r =
  let dist = Array.make g.n (-1) in
  let members = Array.make g.n false in
  let q = Queue.create () in
  List.iter
    (fun v ->
      if dist.(v) < 0 then begin
        dist.(v) <- 0;
        Queue.add v q
      end)
    vs;
  while not (Queue.is_empty q) do
    let u = Queue.take q in
    members.(u) <- true;
    if dist.(u) < r then
      iter_incident g u (fun w _ ->
          if dist.(w) < 0 then begin
            dist.(w) <- dist.(u) + 1;
            Queue.add w q
          end)
  done;
  members

let power g r =
  if r < 1 then invalid_arg "Multigraph.power: radius must be >= 1";
  let b = create_builder g.n in
  let dist = Array.make g.n (-1) in
  for v = 0 to g.n - 1 do
    bfs_limited g v r dist (fun u _ -> if u > v then ignore (add_edge b v u))
  done;
  build b

let pp ppf g =
  Format.fprintf ppf "@[<h>multigraph(n=%d, m=%d, max_deg=%d)@]" g.n (m g)
    (max_degree g)
