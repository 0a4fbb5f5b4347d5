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

(* bit-reduction rounds until at most 6 colors remain *)
let reduction_rounds ids =
  let max_id = Array.fold_left max 0 ids in
  let rec count l acc =
    if l <= 3 then acc else count (bits_needed (l - 1) + 1) (acc + 1)
  in
  count (bits_needed max_id) 0 + 1

let bit_reduction = "cole-vishkin/bit-reduction"
let shift_down = "cole-vishkin/shift-down"
let recolor = "cole-vishkin/recolor"

(* The parent plane: slot [v * t + j] holds [parent * t + j] for [v]'s
   parent in forest [j], or -1 at a root. Building it checks that the
   input is [t] rooted forests covering [g]: every edge is the parent
   edge of exactly one slot, in the forest [edge_forest] gives it. Then
   the children of a slot are exactly the slots whose parent it is,
   which is what lets the fault-free rounds read no edges at all. *)
let parent_slots g ~edge_forest ~parent_edge ~t =
  let n = G.n g and m = G.m g in
  let claimed = Bytes.make m '\000' and claims = ref 0 in
  let pslot = Array.make (n * t) (-1) in
  for v = 0 to n - 1 do
    for j = 0 to t - 1 do
      let e = parent_edge.((v * t) + j) in
      if e >= 0 then begin
        if e >= m || edge_forest.(e) <> j || Bytes.get claimed e <> '\000'
        then
          invalid_arg "Cole_vishkin.three_color_forests: not rooted forests";
        Bytes.set claimed e '\001';
        incr claims;
        pslot.((v * t) + j) <- (G.other_endpoint g e v * t) + j
      end
    done
  done;
  if !claims <> m then
    invalid_arg "Cole_vishkin.three_color_forests: not rooted forests";
  pslot

(* Fault-free: every round's outcome is a function of the parent plane
   alone, so it is computed by one sequential sweep from [cur] into
   [nxt] (the two then swap) and charged as the net would charge it —
   2m messages, since every vertex sends on every incident edge.
   Recolor needs no child colors: after shift-down every child of slot
   [i] carries [i]'s pre-shift color, still in the swapped-out buffer,
   so one has-child byte per slot stands in for the child bitmask. The
   recolor sweep may write in place: a slot of the color being removed
   has neither its parent nor its children of that color. *)
let flat_rounds ~pslot ~ids ~t ~messages ~rounds ~iterations =
  let size = Array.length pslot in
  let has_child = Bytes.make size '\000' in
  Array.iter (fun p -> if p >= 0 then Bytes.set has_child p '\001') pslot;
  let cur = ref (Array.init size (fun i -> ids.(i / t))) in
  let nxt = ref (Array.make size 0) in
  let round label sweep =
    Net.charge_round ~rounds ~label ~messages;
    let c = !cur and d = !nxt in
    sweep c d;
    cur := d;
    nxt := c
  in
  for _ = 1 to iterations do
    round bit_reduction (fun c d ->
        for i = 0 to size - 1 do
          let p = pslot.(i) and color = c.(i) in
          d.(i) <- reduce_color color (if p >= 0 then c.(p) else color lxor 1)
        done)
  done;
  for col = 5 downto 3 do
    round shift_down (fun c d ->
        for i = 0 to size - 1 do
          let p = pslot.(i) in
          d.(i) <- (if p >= 0 then c.(p) else if c.(i) = 0 then 1 else 0)
        done);
    Net.charge_round ~rounds ~label:recolor ~messages;
    let c = !cur and before = !nxt in
    for i = 0 to size - 1 do
      if c.(i) = col then begin
        let p = pslot.(i) in
        let pc = if p >= 0 then c.(p) else -1 in
        let cc = if Bytes.get has_child i <> '\000' then before.(i) else -1 in
        (* the smallest color the parent and the children leave free *)
        c.(i) <-
          (if pc <> 0 && cc <> 0 then 0
           else if pc <> 1 && cc <> 1 then 1
           else 2)
      end
    done
  done;
  !cur

(* Under an armed fault context the rounds run on a genuine net, since
   drops, delays and restarts make a vertex's inbox differ from its
   neighbors' colors. A vertex's state is its color in each of the [t]
   forests (a restart reverts it to the id through [init]), and its
   message on edge [e] is its color in [e]'s forest. Each receive
   replaces the vertex's parent-color and child-mask rows with fresh
   ones, so a vertex that is down in a round keeps the rows it last
   received. The child colors are a bitmask: the recolor pick never
   inspects colors anywhere near the word size. *)
let net_rounds g ~edge_forest ~parent_edge ~pslot ~t ~ids ~rounds ~iterations =
  let n = G.n g in
  let net = Net.create g ~rounds ~init:(fun v -> Array.make t ids.(v)) in
  (* the initial rows are shared and only read: a receive replaces them *)
  let pcolors = Array.make n (Array.make t (-1)) in
  let cmask = Array.make n (Array.make t 0) in
  let send v colors =
    List.rev
      (G.fold_incident g v ~init:[] (fun acc _ e ->
           (e, colors.(edge_forest.(e))) :: acc))
  in
  let recv_parents v colors msgs =
    let pc = Array.make t (-1) in
    List.iter
      (fun (e, c) ->
        let j = edge_forest.(e) in
        if e = parent_edge.((v * t) + j) then pc.(j) <- c)
      msgs;
    pcolors.(v) <- pc;
    colors
  in
  let recv_full v colors msgs =
    let pc = Array.make t (-1) and cm = Array.make t 0 in
    List.iter
      (fun (e, c) ->
        let j = edge_forest.(e) in
        if e = parent_edge.((v * t) + j) then pc.(j) <- c
        else if c >= 0 && c < 62 then cm.(j) <- cm.(j) lor (1 lsl c))
      msgs;
    pcolors.(v) <- pc;
    cmask.(v) <- cm;
    colors
  in
  let exchange label recv = Net.round net ~label ~send ~recv in
  let sweep f =
    for v = 0 to n - 1 do
      let colors = Net.state net v in
      for j = 0 to t - 1 do
        colors.(j) <- f v j colors.(j)
      done
    done
  in
  let has_parent v j = pslot.((v * t) + j) >= 0 in
  for _ = 1 to iterations do
    exchange bit_reduction recv_parents;
    sweep (fun v j color ->
        reduce_color color
          (if has_parent v j then pcolors.(v).(j) else color lxor 1))
  done;
  for c = 5 downto 3 do
    exchange shift_down recv_parents;
    sweep (fun v j color ->
        if has_parent v j then pcolors.(v).(j)
        else if color = 0 then 1
        else 0);
    exchange recolor recv_full;
    sweep (fun v j color ->
        if color <> c then color
        else begin
          let forbid x =
            (has_parent v j && pcolors.(v).(j) = x)
            || (x < 62 && cmask.(v).(j) land (1 lsl x) <> 0)
          in
          let rec pick x = if forbid x then pick (x + 1) else x in
          pick 0
        end)
  done;
  Array.init (n * t) (fun i -> (Net.state net (i / t)).(i mod t))

(* In LOCAL the [t] forests are colored concurrently on the same network:
   each round advances every forest at once, and per-forest outputs and
   the charged ledger are identical to [t] separate single-forest runs
   (the per-forest computations never interact). *)
let three_color_forests g ~edge_forest ~parent_edge ~t ~ids ~rounds =
  let n = G.n g and m = G.m g in
  if t <= 0 then invalid_arg "Cole_vishkin.three_color_forests: t <= 0";
  if
    Array.length edge_forest <> m
    || Array.length parent_edge <> n * t
    || Array.length ids <> n
  then invalid_arg "Cole_vishkin.three_color_forests: array size mismatch";
  Obs.span "cole_vishkin.three_color_forests" @@ fun () ->
  let pslot = parent_slots g ~edge_forest ~parent_edge ~t in
  let iterations = reduction_rounds ids in
  if Net.faults_armed () then
    net_rounds g ~edge_forest ~parent_edge ~pslot ~t ~ids ~rounds ~iterations
  else flat_rounds ~pslot ~ids ~t ~messages:(2 * m) ~rounds ~iterations

(* one rooted forest is the t = 1 case: every edge is in forest 0 *)
let three_color g ~parent_edge ~ids ~rounds =
  let n = G.n g in
  if Array.length parent_edge <> n || Array.length ids <> n then
    invalid_arg "Cole_vishkin.three_color: array size mismatch";
  three_color_forests g
    ~edge_forest:(Array.make (G.m g) 0)
    ~parent_edge ~t:1 ~ids ~rounds
