(* Growable unboxed int vector: the shared builder buffer behind the
   Multigraph edge builder and the generator endpoint pools.
   Doubling int arrays instead of cons lists: a 10^7-push build touches a
   handful of contiguous arrays, never the minor heap per element. *)

type t = { mutable buf : int array; mutable len : int }

let create ?(capacity = 16) () =
  if capacity < 1 then invalid_arg "Vecbuf.create: capacity < 1";
  { buf = Array.make capacity 0; len = 0 }

let length t = t.len

let push t x =
  if t.len = Array.length t.buf then begin
    let fresh = Array.make (2 * t.len) 0 in
    Array.blit t.buf 0 fresh 0 t.len;
    t.buf <- fresh
  end;
  t.buf.(t.len) <- x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vecbuf.get: index out of range";
  t.buf.(i)

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Vecbuf.set: index out of range";
  t.buf.(i) <- x

let truncate t k =
  if k < 0 || k > t.len then invalid_arg "Vecbuf.truncate: length out of range";
  t.len <- k

let to_array t = Array.sub t.buf 0 t.len
