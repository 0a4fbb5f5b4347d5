module G = Nw_graphs.Multigraph
module UF = Nw_graphs.Union_find

type t = { start : int array; edges : int array }

type fault =
  | Uncolored of int
  | Out_of_range of int
  | Cycle of { color : int; edge : int }

(* A color's first cycle edge does not depend on the other colors, so
   the colors are checked one after another on one union-find; a color
   stops at the earliest fault found so far. Only edges before the first
   uncolored (unless allowed) or out-of-range one are grouped. O(n + m +
   k) memory, where one union-find per color would take O(k n). *)
let forests g ~k ~allow_uncolored color =
  let m = G.m g in
  let src, dst = G.endpoint_rows g in
  let start = Array.make (k + 1) 0 in
  let rec count e =
    if e = m then None
    else
      let c = color e in
      if c = -1 then
        if allow_uncolored then count (e + 1) else Some (Uncolored e)
      else if c < 0 || c >= k then Some (Out_of_range e)
      else begin
        start.(c + 1) <- start.(c + 1) + 1;
        count (e + 1)
      end
  in
  let bad = count 0 in
  let stop =
    match bad with Some (Uncolored e | Out_of_range e) -> e | _ -> m
  in
  for c = 1 to k do
    start.(c) <- start.(c) + start.(c - 1)
  done;
  let edges = Array.make start.(k) 0 and next = Array.sub start 0 k in
  for e = 0 to stop - 1 do
    let c = color e in
    if c >= 0 then begin
      edges.(next.(c)) <- e;
      next.(c) <- next.(c) + 1
    end
  done;
  let uf = UF.create (G.n g) in
  let first = ref stop and first_color = ref (-1) in
  for c = 0 to k - 1 do
    let i = ref start.(c) in
    while !i < start.(c + 1) && edges.(!i) < !first do
      let e = edges.(!i) in
      if not (UF.union uf src.(e) dst.(e)) then begin
        first := e;
        first_color := c
      end;
      incr i
    done;
    for j = start.(c) to !i - 1 do
      UF.isolate uf src.(edges.(j));
      UF.isolate uf dst.(edges.(j))
    done
  done;
  if !first_color >= 0 then
    Error (Cycle { color = !first_color; edge = !first })
  else match bad with Some f -> Error f | None -> Ok { start; edges }
