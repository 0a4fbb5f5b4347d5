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

(* Double-sweep BFS: in a tree, a vertex farthest from any start is an
   end of a longest path, so a second sweep from it measures the
   diameter. One mark/dist/queue triple serves every sweep of every
   forest: a fresh stamp per sweep, and a vertex is still unswept in
   forest f when its mark predates f's first sweep. *)
let max_tree_diameter ~n ~forests iter =
  let mark = Array.make n 0 and dist = Array.make n 0 in
  let queue = Array.make n 0 in
  let stamp = ref 0 and tail = ref 0 and next_d = ref 0 in
  let visit w _ =
    if mark.(w) <> !stamp then begin
      mark.(w) <- !stamp;
      dist.(w) <- !next_d;
      queue.(!tail) <- w;
      incr tail
    end
  in
  (* sweep [s]'s tree of forest [f]; the last vertex dequeued is a
     farthest one *)
  let sweep f s =
    incr stamp;
    mark.(s) <- !stamp;
    dist.(s) <- 0;
    queue.(0) <- s;
    tail := 1;
    let h = ref 0 in
    while !h < !tail do
      let x = queue.(!h) in
      incr h;
      next_d := dist.(x) + 1;
      iter f x visit
    done;
    queue.(!tail - 1)
  in
  let best = ref 0 in
  for f = 0 to forests - 1 do
    let swept = !stamp in
    for v = 0 to n - 1 do
      if mark.(v) <= swept then begin
        let far = sweep f (sweep f v) in
        if dist.(far) > !best then best := dist.(far)
      end
    done
  done;
  !best

let tree_diameter g =
  if not (is_forest g) then invalid_arg "Traversal.tree_diameter: not a forest";
  max_tree_diameter ~n:(G.n g) ~forests:1 (fun _ v visit ->
      G.iter_incident g v visit)

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
