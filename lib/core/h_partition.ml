module G = Nw_graphs.Multigraph
module O = Nw_graphs.Orientation
module Net = Nw_localsim.Msg_net
module Rounds = Nw_localsim.Rounds
module Coloring = Nw_decomp.Coloring
module Palette = Nw_decomp.Palette
module Obs = Nw_obs.Obs

type t = { layer : int array; num_layers : int; threshold : int }

type peel_state = { layer : int; live_deg : int }

let threshold ~epsilon ~alpha_star =
  int_of_float (floor ((2.0 +. epsilon) *. float_of_int alpha_star))

let compute g ~epsilon ~alpha_star ~rounds =
  if epsilon <= 0.0 then invalid_arg "H_partition.compute: epsilon <= 0";
  if alpha_star < 0 then invalid_arg "H_partition.compute: alpha_star < 0";
  Obs.span "h_partition" @@ fun () ->
  let n = G.n g in
  let threshold = threshold ~epsilon ~alpha_star in
  let net =
    Net.create g ~rounds ~init:(fun v ->
        { layer = -1; live_deg = G.degree g v })
  in
  (* Iteration [i]: every live vertex with live degree <= threshold joins
     layer [i] and announces its removal on all incident edges. A vertex
     joining at iteration [i] counts neighbors joining simultaneously, which
     matches "at most t neighbors in H_i ∪ ... ∪ H_k". *)
  (* a peeling announcement carries no payload, so the round is a
     counting broadcast: it streams the adjacency rows with zero
     per-message allocation *)
  let iteration i =
    let decide v (st : peel_state) =
      ignore v;
      st.layer = -1 && st.live_deg <= threshold
    in
    let recv v (st : peel_state) k =
      ignore v;
      let st =
        if st.layer = -1 && st.live_deg <= threshold then
          { st with layer = i }
        else st
      in
      { st with live_deg = st.live_deg - k }
    in
    Net.round_count net ~label:"h-partition/peel" ~decide ~recv
  in
  let all_assigned () =
    let rec check v =
      v >= n || ((Net.state net v).layer >= 0 && check (v + 1))
    in
    check 0
  in
  (* each iteration removes an eps/(2+eps) fraction when alpha_star is a
     valid bound; guard generously beyond the O(log n / eps) promise. *)
  let max_iter = 64 + (10 * (2 + int_of_float (1.0 /. epsilon)) * (1 + int_of_float (log (float_of_int (max 2 n))))) in
  let rec loop i =
    if all_assigned () then i
    else if i >= max_iter then
      failwith
        "H_partition.compute: peeling stalled; alpha_star below the true \
         pseudo-arboricity?"
    else begin
      iteration i;
      loop (i + 1)
    end
  in
  let num_layers = loop 0 in
  Obs.set_attr "layers" (Obs.Int num_layers);
  Obs.set_attr "threshold" (Obs.Int threshold);
  let layer = Array.map (fun (st : peel_state) -> st.layer) (Net.states net) in
  { layer; num_layers; threshold }

let normalize_ids ids =
  (* distinct ids of any magnitude -> their ranks in 0..n-1 *)
  let n = Array.length ids in
  let order = Array.init n (fun v -> v) in
  Array.sort (fun a b -> Int.compare ids.(a) ids.(b)) order;
  let rank = Array.make n 0 in
  Array.iteri
    (fun i v ->
      if i > 0 && ids.(order.(i - 1)) = ids.(v) then
        invalid_arg "H_partition: ids are not distinct";
      rank.(v) <- i)
    order;
  rank

let orientation g (t : t) ~ids =
  let n = G.n g in
  if Array.length ids <> n then invalid_arg "H_partition.orientation: ids size";
  let rank_of_id = normalize_ids ids in
  let rank = Array.init n (fun v -> (t.layer.(v) * n) + rank_of_id.(v)) in
  O.of_total_order g rank

(* Label every out-edge with its position in its tail's out-list. A
   vertex has at most one out-edge of each label, so label j is a rooted
   forest (an edge's child endpoint is its tail), and the labels are
   both forest colors [0..t-1] and the forest index Cole-Vishkin reads. *)
let out_edge_labels g o =
  let label = Array.make (G.m g) (-1) in
  for v = 0 to G.n g - 1 do
    List.iteri (fun j e -> label.(e) <- j) (O.out_edges o v)
  done;
  label

let forests_of_orientation g o =
  Coloring.of_assignment g
    ~colors:(max (O.max_out_degree o) 1)
    (out_edge_labels g o)

let star_forest_decomposition g o ~ids ~rounds =
  Obs.span "h_partition.star_forests" @@ fun () ->
  let m = G.m g in
  let t = max (O.max_out_degree o) 1 in
  (* the forests of [forests_of_orientation], as flat planes: the forest
     of each edge and each (vertex, forest) slot's parent edge *)
  let edge_forest = out_edge_labels g o in
  let parent_edge = Array.make (G.n g * t) (-1) in
  for e = 0 to m - 1 do
    parent_edge.((O.tail o e * t) + edge_forest.(e)) <- e
  done;
  (* Cole-Vishkin on all forests at once: in LOCAL the [t] runs execute
     concurrently on the same network, so the combined run's ledger is
     exactly one forest's (they coincide — same ids, same iteration
     count) and is charged as the max. *)
  let sub_rounds = Rounds.create () in
  let vcolors =
    Cole_vishkin.three_color_forests g ~edge_forest ~parent_edge ~t ~ids
      ~rounds:sub_rounds
  in
  Rounds.charge_max rounds [ sub_rounds ];
  (* edge color = color of the parent endpoint, the edge's head. Forest
     j's edges take colors 3j..3j+2 only, and each class is a star forest
     by Theorem 2.1, so the colors go out as one assignment, checked in
     O(n + m). Only a faulted Cole-Vishkin run leaves a vertex color
     outside 0..2; its edges get the out-of-range color 3t, which
     [of_assignment] rejects. *)
  let assign =
    Array.init m (fun e ->
        let j = edge_forest.(e) in
        let x = vcolors.((O.head o e * t) + j) in
        if x < 0 || x > 2 then 3 * t else (3 * j) + x)
  in
  Coloring.of_assignment g ~colors:(3 * t) assign

(* charges land in the caller's phase span (lsfd/list-coloring drivers) *)
let[@obs.in_span] list_forest_decomposition g o palette ~rounds =
  let t = O.max_out_degree o in
  if Palette.min_size palette < t && G.m g > 0 then
    invalid_arg "H_partition.list_forest_decomposition: palettes too small";
  let assign = Array.make (G.m g) (-1) in
  for v = 0 to G.n g - 1 do
    let taken = Hashtbl.create 8 in
    List.iter
      (fun e ->
        let rec pick = function
          | [] ->
              invalid_arg
                "H_partition.list_forest_decomposition: palette exhausted"
          | c :: rest -> if Hashtbl.mem taken c then pick rest else c
        in
        let c = pick (Palette.get palette e) in
        Hashtbl.add taken c ();
        assign.(e) <- c)
      (O.out_edges o v)
  done;
  (* vertices act only on their own out-edges: a single communication round
     suffices to tell the other endpoints. *)
  Rounds.charge rounds ~label:"h-partition/list-forest" 1;
  Coloring.of_assignment g ~colors:(Palette.color_space palette) assign
