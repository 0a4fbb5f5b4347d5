(* nwlint:disable PERF001 -- [reset] is the documented O(n) reinitialise-everything API, called once per rebuild, not a per-query scratch reset *)

type t = {
  parent : int array;
  rank : int array;
  mutable classes : int;
}

let create n =
  if n < 0 then invalid_arg "Union_find.create: negative size";
  { parent = Array.init n (fun i -> i); rank = Array.make n 0; classes = n }

let size t = Array.length t.parent

let rec find t x =
  let p = t.parent.(x) in
  if p = x then x
  else begin
    let root = find t p in
    t.parent.(x) <- root;
    root
  end

let union t x y =
  let rx = find t x and ry = find t y in
  if rx = ry then false
  else begin
    let rank_x = t.rank.(rx) and rank_y = t.rank.(ry) in
    if rank_x < rank_y then t.parent.(rx) <- ry
    else if rank_x > rank_y then t.parent.(ry) <- rx
    else begin
      t.parent.(ry) <- rx;
      t.rank.(rx) <- rank_x + 1
    end;
    t.classes <- t.classes - 1;
    true
  end

let same t x y = find t x = find t y

let count t = t.classes

let reset t =
  Array.iteri (fun i _ -> t.parent.(i) <- i) t.parent;
  Array.fill t.rank 0 (Array.length t.rank) 0;
  t.classes <- Array.length t.parent

(* each merge turned exactly one root into a non-root, so isolating
   every non-root of the touched classes gives the merges back *)
let isolate t x =
  if t.parent.(x) <> x then begin
    t.parent.(x) <- x;
    t.classes <- t.classes + 1
  end;
  t.rank.(x) <- 0

let copy t =
  { parent = Array.copy t.parent; rank = Array.copy t.rank; classes = t.classes }
