(* nwlint:disable PERF001 -- the multi-forest recv fills are t-sized (one
   slot per forest, t = max out-degree of the orientation), a few dozen
   words per vertex inside a Theta(m) round; they are not O(n) scratch
   resets *)
module G = Nw_graphs.Multigraph
module Net = Nw_localsim.Msg_net
module Obs = Nw_obs.Obs

let bits_needed x =
  let rec loop b v = if v = 0 then b else loop (b + 1) (v lsr 1) in
  max 1 (loop 0 x)

(* One step of deterministic bit reduction: the new color encodes the lowest
   bit position where [color] and [pcolor] differ, together with own bit. *)
let reduce_color color pcolor =
  let diff = color lxor pcolor in
  assert (diff <> 0);
  let rec lowest i d = if d land 1 = 1 then i else lowest (i + 1) (d lsr 1) in
  let i = lowest 0 diff in
  (2 * i) + ((color lsr i) land 1)

(* The [t] concurrent runs keep their per-(vertex, forest) state in flat
   planes indexed [v * t + j] rather than per-vertex records: the update
   sweeps become sequential scans and every message costs one indirection
   instead of two dependent ones — at 10^7 edges the layout is the
   difference between cache misses dominating and not. The net's own
   per-vertex state is just the vertex id; a fault-injected restart
   resets the vertex's color slice through [init]. The phase-2 child
   colors are a bitmask, not a list: the recolor pick never inspects
   colors anywhere near the word size, and a forbidden color the pick
   loop cannot reach never changes its result. *)
let three_color_forests g ~edge_forest ~parent_edge ~t ~ids ~rounds =
  let n = G.n g and m = G.m g in
  if t <= 0 then invalid_arg "Cole_vishkin.three_color_forests: t <= 0";
  if
    Array.length edge_forest <> m
    || Array.length parent_edge <> n * t
    || Array.length ids <> n
  then invalid_arg "Cole_vishkin.three_color_forests: array size mismatch";
  Obs.span "cole_vishkin.three_color_forests" @@ fun () ->
  (* In LOCAL the [t] forests are colored concurrently on the same
     network: one net over the whole graph, a vertex's message on edge
     [e] is its color in [e]'s forest, and each round advances every
     forest at once. Per-forest outputs, inboxes, and the charged
     ledger are identical to [t] separate single-forest runs (the
     per-forest computations never interact). *)
  let colors = Array.make (n * t) 0 in
  let pcolors = Array.make (n * t) (-1) in
  let cmask = Array.make (n * t) 0 in
  let net =
    Net.create g ~rounds ~init:(fun v ->
        (* creation and fault-injected restarts: color reverts to the id *)
        Array.fill colors (v * t) t ids.(v);
        v)
  in
  let value u _ e = colors.((u * t) + edge_forest.(e)) in
  let recv_parents v _ iter =
    Array.fill pcolors (v * t) t (-1);
    iter (fun e c ->
        let j = edge_forest.(e) in
        if e = parent_edge.((v * t) + j) then pcolors.((v * t) + j) <- c);
    v
  in
  let recv_full v _ iter =
    Array.fill pcolors (v * t) t (-1);
    Array.fill cmask (v * t) t 0;
    iter (fun e c ->
        let j = edge_forest.(e) in
        let i = (v * t) + j in
        if e = parent_edge.(i) then pcolors.(i) <- c
        else if c >= 0 && c < 62 then cmask.(i) <- cmask.(i) lor (1 lsl c));
    v
  in
  let exchange label recv = Net.round_exchange_edges net ~label ~value ~recv in
  let max_id = Array.fold_left max 0 ids in
  let iterations =
    let rec count l acc =
      if l <= 3 then acc
      else count (bits_needed (l - 1) + 1) (acc + 1)
    in
    count (bits_needed max_id) 0 + 1
  in
  for _ = 1 to iterations do
    exchange "cole-vishkin/bit-reduction" recv_parents;
    for i = 0 to (n * t) - 1 do
      let color = colors.(i) in
      let pcolor =
        if parent_edge.(i) >= 0 then pcolors.(i) else color lxor 1
      in
      colors.(i) <- reduce_color color pcolor
    done
  done;
  for c = 5 downto 3 do
    exchange "cole-vishkin/shift-down" recv_parents;
    for i = 0 to (n * t) - 1 do
      colors.(i) <-
        (if parent_edge.(i) >= 0 then pcolors.(i)
         else if colors.(i) = 0 then 1
         else 0)
    done;
    exchange "cole-vishkin/recolor" recv_full;
    for i = 0 to (n * t) - 1 do
      if colors.(i) = c then begin
        let forbid x =
          (parent_edge.(i) >= 0 && pcolors.(i) = x)
          || (x < 62 && cmask.(i) land (1 lsl x) <> 0)
        in
        let rec pick x = if forbid x then pick (x + 1) else x in
        colors.(i) <- pick 0
      end
    done
  done;
  colors

(* one rooted forest is the t = 1 case: every edge is in forest 0 *)
let three_color g ~parent_edge ~ids ~rounds =
  let n = G.n g in
  if Array.length parent_edge <> n || Array.length ids <> n then
    invalid_arg "Cole_vishkin.three_color: array size mismatch";
  Array.iteri
    (fun v e -> if e >= 0 then ignore (G.other_endpoint g e v : int))
    parent_edge;
  three_color_forests g
    ~edge_forest:(Array.make (G.m g) 0)
    ~parent_edge ~t:1 ~ids ~rounds
