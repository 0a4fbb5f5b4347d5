module G = Multigraph

type t = { g : G.t; head : int array }

let make g head =
  if Array.length head <> G.m g then
    invalid_arg "Orientation.make: head array size mismatch";
  Array.iteri
    (fun e h ->
      let u, v = G.endpoints g e in
      if h <> u && h <> v then
        invalid_arg "Orientation.make: head is not an endpoint")
    head;
  { g; head = Array.copy head }

let graph t = t.g
let head t e = t.head.(e)
let tail t e = G.other_endpoint t.g e t.head.(e)

let out_degree t v =
  G.fold_incident t.g v ~init:0 (fun acc _ e ->
      if t.head.(e) <> v then acc + 1 else acc)

let max_out_degree t =
  let best = ref 0 in
  for v = 0 to G.n t.g - 1 do
    let d = out_degree t v in
    if d > !best then best := d
  done;
  !best

let out_edges t v =
  G.fold_incident t.g v ~init:[] (fun acc _ e ->
      if t.head.(e) <> v then e :: acc else acc)

let is_acyclic t =
  let n = G.n t.g in
  (* Kahn's algorithm on the directed graph *)
  let indeg = Array.make n 0 in
  Array.iter (fun h -> indeg.(h) <- indeg.(h) + 1) t.head;
  let q = Queue.create () in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then Queue.add v q
  done;
  let seen = ref 0 in
  while not (Queue.is_empty q) do
    let v = Queue.take q in
    incr seen;
    List.iter
      (fun e ->
        let h = t.head.(e) in
        indeg.(h) <- indeg.(h) - 1;
        if indeg.(h) = 0 then Queue.add h q)
      (out_edges t v)
  done;
  !seen = n

let of_total_order g rank =
  if Array.length rank <> G.n g then
    invalid_arg "Orientation.of_total_order: rank array size mismatch";
  let head =
    Array.init (G.m g) (fun e ->
        let u, v = G.endpoints g e in
        let before_u = (rank.(u), u) and before_v = (rank.(v), v) in
        if before_u < before_v then v else u)
  in
  { g; head }

let reorient t e v =
  let u, w = G.endpoints t.g e in
  if v <> u && v <> w then invalid_arg "Orientation.reorient: bad head";
  let head = Array.copy t.head in
  head.(e) <- v;
  { t with head }
