(* Generation-stamped scratch arrays: O(1) reset instead of an O(n)
   Array.fill (or a rebuilt table) at the top of every query. An entry is
   live iff its stamp equals the current generation; [reset] just bumps
   the generation, so stale entries from earlier queries are never read
   and never need clearing.

   These are per-call/per-structure workspaces threaded explicitly by
   their owners — no instance lives at top level, so each one belongs to
   whoever created it (the same discipline as any mutable scratch). *)

module Ints = struct
  type t = {
    mutable data : int array;
    mutable stamp : int array;
    mutable gen : int;
  }

  let create n =
    let n = max 1 n in
    (* stamps start at 0 < gen: everything begins absent *)
    { data = Array.make n 0; stamp = Array.make n 0; gen = 1 }

  let size t = Array.length t.data

  let ensure t n =
    if n > Array.length t.data then begin
      let cap = max n (2 * Array.length t.data) in
      t.data <- Array.make cap 0;
      t.stamp <- Array.make cap 0;
      t.gen <- 1
    end

  let reset t = t.gen <- t.gen + 1
  let mem t i = t.stamp.(i) = t.gen
  let get t i ~default = if t.stamp.(i) = t.gen then t.data.(i) else default

  let set t i x =
    t.data.(i) <- x;
    t.stamp.(i) <- t.gen
end

module Marks = struct
  type t = { mutable stamp : int array; mutable gen : int }

  let create n = { stamp = Array.make (max 1 n) 0; gen = 1 }
  let size t = Array.length t.stamp

  let ensure t n =
    if n > Array.length t.stamp then begin
      let cap = max n (2 * Array.length t.stamp) in
      t.stamp <- Array.make cap 0;
      t.gen <- 1
    end

  let reset t = t.gen <- t.gen + 1
  let mem t i = t.stamp.(i) = t.gen
  let add t i = t.stamp.(i) <- t.gen
  let remove t i = t.stamp.(i) <- 0
end
