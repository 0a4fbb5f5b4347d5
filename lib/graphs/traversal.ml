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
   diameter. Forest f's rows are laid out in buffers every forest
   shares ([x]'s neighbors are [adj.(lo.(x))] .. [adj.(hi.(x) - 1)]),
   and one mark/dist/queue triple serves every sweep: a fresh stamp per
   sweep, and a vertex is still unswept in forest f when its mark
   predates f's first sweep. *)
let max_tree_diameter ~n ~src ~dst ~start ~edges =
  let forests = Array.length start - 1 in
  let size f = start.(f + 1) - start.(f) in
  let widest = Array.fold_left max 0 (Array.init forests size) in
  let adj = Array.make (2 * widest) 0 and deg = Array.make n 0 in
  let lo = Array.make n 0 and hi = Array.make n 0 in
  let mark = Array.make n 0 and dist = Array.make n 0 in
  let queue = Array.make n 0 and tail = ref 0 in
  let stamp = ref 0 and best = ref 0 in
  (* [g u v] then [g v u] on each edge of forest [f] *)
  let each f g =
    for i = start.(f) to start.(f + 1) - 1 do
      let u = src.(edges.(i)) and v = dst.(edges.(i)) in
      g u v;
      g v u
    done
  in
  (* degrees, then each row's end, then the rows filled backwards *)
  let count x _ = deg.(x) <- deg.(x) + 1 and pos = ref 0 in
  let place x _ =
    if deg.(x) > 0 then begin
      pos := !pos + deg.(x);
      lo.(x) <- !pos;
      hi.(x) <- !pos;
      deg.(x) <- 0
    end
  in
  let push x y =
    lo.(x) <- lo.(x) - 1;
    adj.(lo.(x)) <- y
  in
  let enter w d =
    mark.(w) <- !stamp;
    dist.(w) <- d;
    queue.(!tail) <- w;
    incr tail
  in
  (* sweep [s]'s tree; the last vertex dequeued is a farthest one *)
  let sweep s =
    incr stamp;
    tail := 0;
    enter s 0;
    let h = ref 0 in
    while !h < !tail do
      let x = queue.(!h) in
      incr h;
      for i = lo.(x) to hi.(x) - 1 do
        if mark.(adj.(i)) <> !stamp then enter adj.(i) (dist.(x) + 1)
      done
    done;
    queue.(!tail - 1)
  in
  for f = 0 to forests - 1 do
    pos := 0;
    each f count;
    each f place;
    each f push;
    let swept = !stamp in
    each f (fun u _ ->
        if mark.(u) <= swept then best := max !best dist.(sweep (sweep u)))
  done;
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
