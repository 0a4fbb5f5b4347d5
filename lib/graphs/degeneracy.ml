module G = Multigraph

let ordering g =
  let n = G.n g in
  let deg = Array.init n (G.degree g) in
  let removed = Array.make n false in
  (* bucket queue over current degrees *)
  let max_deg = Array.fold_left max 0 deg in
  let buckets = Array.make (max_deg + 1) [] in
  Array.iteri (fun v d -> buckets.(d) <- v :: buckets.(d)) deg;
  let order = Array.make n 0 in
  let degen = ref 0 in
  let cursor = ref 0 in
  for i = 0 to n - 1 do
    (* find the smallest non-empty bucket holding a live vertex at its
       current degree; stale entries are skipped. [cursor] is a lower bound
       on the minimum live degree, maintained on every decrement below. *)
    let v = ref (-1) in
    while !v < 0 do
      match buckets.(!cursor) with
      | [] -> incr cursor
      | u :: rest ->
          buckets.(!cursor) <- rest;
          if (not removed.(u)) && deg.(u) = !cursor then v := u
    done;
    let v = !v in
    removed.(v) <- true;
    order.(i) <- v;
    if deg.(v) > !degen then degen := deg.(v);
    G.iter_incident g v (fun w _ ->
        if not removed.(w) then begin
          deg.(w) <- deg.(w) - 1;
          buckets.(deg.(w)) <- w :: buckets.(deg.(w));
          if deg.(w) < !cursor then cursor := deg.(w)
        end)
  done;
  (!degen, order)

let degeneracy g = fst (ordering g)

let orientation g =
  let _, order = ordering g in
  let rank = Array.make (G.n g) 0 in
  Array.iteri (fun i v -> rank.(v) <- i) order;
  Orientation.of_total_order g rank
