module G = Multigraph

let components g =
  let n = G.n g in
  let label = Array.make n (-1) in
  let next = ref 0 in
  let q = Queue.create () in
  for s = 0 to n - 1 do
    if label.(s) < 0 then begin
      let c = !next in
      incr next;
      label.(s) <- c;
      Queue.add s q;
      while not (Queue.is_empty q) do
        let u = Queue.take q in
        G.iter_incident g u (fun w _ ->
            if label.(w) < 0 then begin
              label.(w) <- c;
              Queue.add w q
            end)
      done
    end
  done;
  (label, !next)

let is_forest g =
  let uf = Union_find.create (G.n g) in
  G.fold_edges (fun _ u v acc -> acc && Union_find.union uf u v) g true

let distances g v =
  let dist = Array.make (G.n g) (-1) in
  let q = Queue.create () in
  dist.(v) <- 0;
  Queue.add v q;
  while not (Queue.is_empty q) do
    let u = Queue.take q in
    G.iter_incident g u (fun w _ ->
        if dist.(w) < 0 then begin
          dist.(w) <- dist.(u) + 1;
          Queue.add w q
        end)
  done;
  dist

let diameter g =
  let best = ref 0 in
  for v = 0 to G.n g - 1 do
    let dist = distances g v in
    Array.iter (fun d -> if d > !best then best := d) dist
  done;
  !best

(* Farthest vertex (and its distance) from [v] within v's component. *)
let farthest g v =
  let dist = distances g v in
  let best_v = ref v and best_d = ref 0 in
  Array.iteri
    (fun u d ->
      if d > !best_d then begin
        best_d := d;
        best_v := u
      end)
    dist;
  (!best_v, !best_d)

let tree_diameter g =
  if not (is_forest g) then invalid_arg "Traversal.tree_diameter: not a forest";
  let label, c = components g in
  let rep = Array.make c (-1) in
  Array.iteri (fun v l -> if rep.(l) < 0 then rep.(l) <- v) label;
  let best = ref 0 in
  Array.iter
    (fun v ->
      let far, _ = farthest g v in
      let _, d = farthest g far in
      if d > !best then best := d)
    rep;
  !best

let spanning_forest g =
  let uf = Union_find.create (G.n g) in
  let keep = Array.make (G.m g) false in
  G.fold_edges
    (fun e u v () -> if Union_find.union uf u v then keep.(e) <- true)
    g ();
  keep

let bfs_tree g root =
  let n = G.n g in
  let parent = Array.make n (-1) in
  let parent_edge = Array.make n (-1) in
  let depth = Array.make n (-1) in
  let q = Queue.create () in
  depth.(root) <- 0;
  Queue.add root q;
  while not (Queue.is_empty q) do
    let u = Queue.take q in
    G.iter_incident g u (fun w e ->
        if depth.(w) < 0 then begin
          depth.(w) <- depth.(u) + 1;
          parent.(w) <- u;
          parent_edge.(w) <- e;
          Queue.add w q
        end)
  done;
  (parent, parent_edge, depth)
