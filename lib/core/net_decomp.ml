module G = Nw_graphs.Multigraph
module Rounds = Nw_localsim.Rounds
module Obs = Nw_obs.Obs
module Scratch = Nw_graphs.Scratch

type t = {
  num_classes : int;
  class_of : int array;
  cluster_of : int array;
  clusters : int list array;
  cluster_class : int array;
}

(* geometric(1/2) >= 1: number of fair coin flips up to and including the
   first head, capped at [cap]. *)
let geometric rng cap =
  let rec flip r =
    if r >= cap then cap else if Random.State.bool rng then r else flip (r + 1)
  in
  flip 1

(* When G^distance is complete (every pair within [distance]), the whole
   vertex set is one cluster of weak diameter <= distance: a (1,1)-network
   decomposition, strictly better than the Linial-Saks bounds. This is the
   common case for Algorithm 2, whose power-graph distances dwarf the
   diameters of feasible inputs. Detection: twice the eccentricity of any
   vertex upper-bounds the diameter. *)
let complete_shortcut g ~distance =
  let n = G.n g in
  if n = 0 then None
  else begin
    let dist = Nw_graphs.Traversal.distances g 0 in
    let ecc = ref 0 and connected = ref true in
    Array.iter
      (fun d -> if d < 0 then connected := false else ecc := max !ecc d)
      dist;
    if !connected && 2 * !ecc <= distance then
      Some
        {
          num_classes = 1;
          class_of = Array.make n 0;
          cluster_of = Array.make n 0;
          clusters = [| List.init n (fun v -> v) |];
          cluster_class = [| 0 |];
        }
    else None
  end

let compute g ~rng ~rounds ~distance =
  if distance < 1 then invalid_arg "Net_decomp.compute: distance < 1";
  Obs.span "net_decomp" ~attrs:[ ("distance", Obs.Int distance) ]
  @@ fun () ->
  let n = G.n g in
  let logn =
    let rec bits b v = if v <= 1 then b else bits (b + 1) ((v + 1) / 2) in
    bits 0 (max 2 n)
  in
  let cap = logn + 2 in
  match complete_shortcut g ~distance with
  | Some nd ->
      (* leader election + confirmation on the complete power graph *)
      Rounds.charge rounds ~label:"net-decomp/phase" (4 * distance);
      Obs.set_attr "classes" (Obs.Int 1);
      Obs.set_attr "shortcut" (Obs.Bool true);
      nd
  | None ->
  let alive = Array.make n true in
  let class_of = Array.make n (-1) in
  let cluster_of = Array.make n (-1) in
  let clusters = ref [] and cluster_class = ref [] in
  let num_clusters = ref 0 in
  let max_classes = (4 * logn) + 16 in
  let seen = Scratch.Marks.create n and depth = Scratch.Ints.create n in
  let queue = Array.make n 0 in
  let remaining = ref n in
  let z = ref 0 in
  while !remaining > 0 do
    if !z >= max_classes then
      failwith "Net_decomp.compute: too many classes (improbable failure)";
    (* one Linial-Saks phase on G^distance[alive] *)
    let radius = Array.make n 0 in
    let priority = Array.make n (-1.0) in
    let centres = ref [] in
    for v = 0 to n - 1 do
      if alive.(v) then begin
        radius.(v) <- geometric rng cap;
        priority.(v) <- Random.State.float rng 1.0;
        centres := v :: !centres
      end
    done;
    let centres =
      List.sort
        (fun a b ->
          match Float.compare priority.(b) priority.(a) with
          | 0 -> Int.compare b a
          | c -> c)
        !centres
    in
    (* best candidate per vertex: the highest-priority centre whose BFS of
       [radius v] hops on G^distance[alive] reaches u, and its hop count.
       Centres run in decreasing priority and the first to reach u wins.
       A centre expands u only with more hops left there than any earlier
       centre had ([spare]). That is exact: were u's winner W pruned at x
       on a shortest W->u path, the earlier centre that left x more spare
       hops would reach u within its own radius and beat W. So W's hop
       counts are true distances, as in one unpruned BFS per vertex. *)
    let best_center = Array.make n (-1) and best_hop = Array.make n 0 in
    let spare = Array.make n 0 in
    let reach v u h =
      Scratch.Marks.add seen u;
      if best_center.(u) < 0 then begin
        best_center.(u) <- v;
        best_hop.(u) <- h
      end;
      if radius.(v) - h > spare.(u) then begin
        spare.(u) <- radius.(v) - h;
        true
      end
      else false
    in
    List.iter
      (fun v ->
        Scratch.Marks.reset seen;
        let frontier = ref (if reach v v 0 then [ v ] else []) in
        let h = ref 0 in
        while !frontier <> [] && !h < radius.(v) do
          incr h;
          (* one hop of G^distance: a G-BFS of [distance] steps from the
             whole frontier through any vertex, dead ones included *)
          Scratch.Ints.reset depth;
          let head = ref 0 and tail = ref 0 in
          let push w d =
            Scratch.Ints.set depth w d;
            queue.(!tail) <- w;
            incr tail
          in
          List.iter (fun u -> push u 0) !frontier;
          frontier := [];
          while !head < !tail do
            let u = queue.(!head) in
            incr head;
            let du = Scratch.Ints.get depth u ~default:0 in
            if du < distance then
              G.iter_incident g u (fun w _ ->
                  if not (Scratch.Ints.mem depth w) then begin
                    push w (du + 1);
                    if alive.(w) && (not (Scratch.Marks.mem seen w))
                       && reach v w !h
                    then frontier := w :: !frontier
                  end)
          done
        done)
      centres;
    (* internal vertices (hop distance strictly below the center's radius)
       join the center's cluster in class z; border vertices survive. *)
    let members_of_center = Hashtbl.create 64 in
    for u = 0 to n - 1 do
      if alive.(u) then
        let v = best_center.(u) in
        if best_hop.(u) < radius.(v) then
          Hashtbl.replace members_of_center v
            (u :: Option.value ~default:[] (Hashtbl.find_opt members_of_center v))
    done;
    Hashtbl.iter
      (fun _center members ->
        let id = !num_clusters in
        incr num_clusters;
        clusters := members :: !clusters;
        cluster_class := !z :: !cluster_class;
        List.iter
          (fun u ->
            class_of.(u) <- !z;
            cluster_of.(u) <- id;
            alive.(u) <- false;
            decr remaining)
          members)
      members_of_center;
    (* LOCAL cost of one phase: broadcasting (priority, radius) to [cap]
       hops of G^distance and electing winners: O(cap) power-graph rounds. *)
    Rounds.charge rounds ~label:"net-decomp/phase"
      (((2 * cap) + 2) * distance);
    incr z
  done;
  Obs.set_attr "classes" (Obs.Int !z);
  Obs.set_attr "clusters" (Obs.Int !num_clusters);
  {
    num_classes = !z;
    class_of;
    cluster_of;
    clusters = Array.of_list (List.rev !clusters);
    cluster_class = Array.of_list (List.rev !cluster_class);
  }

let max_cluster_weak_diameter g t =
  let best = ref 0 in
  Array.iter
    (fun members ->
      List.iter
        (fun v ->
          let dist = Nw_graphs.Traversal.distances g v in
          List.iter
            (fun u -> if dist.(u) > !best then best := dist.(u))
            members)
        members)
    t.clusters;
  !best

let check_valid g ~distance t =
  let n = G.n g in
  let ok = ref (Ok ()) in
  let fail msg = if !ok = Ok () then ok := Error msg in
  for v = 0 to n - 1 do
    if t.cluster_of.(v) < 0 || t.class_of.(v) < 0 then
      fail (Printf.sprintf "vertex %d unassigned" v);
    if
      t.cluster_of.(v) >= 0
      && t.cluster_class.(t.cluster_of.(v)) <> t.class_of.(v)
    then fail (Printf.sprintf "vertex %d class/cluster mismatch" v)
  done;
  Array.iteri
    (fun id members ->
      List.iter
        (fun v ->
          if t.cluster_of.(v) <> id then
            fail (Printf.sprintf "vertex %d not mapped to its cluster" v))
        members)
    t.clusters;
  (* same-class clusters must be at G-distance > distance: check that the
     [distance]-ball of each cluster meets no other same-class cluster *)
  Array.iteri
    (fun id members ->
      let ball = G.ball_of_set g members distance in
      Array.iteri
        (fun v inside ->
          if
            inside
            && t.cluster_of.(v) <> id
            && t.class_of.(v) = t.cluster_class.(id)
          then
            fail
              (Printf.sprintf
                 "clusters %d and %d of class %d are within distance %d" id
                 t.cluster_of.(v) t.cluster_class.(id) distance))
        ball)
    t.clusters;
  !ok

(* ------------------------------------------------------------------ *)
(* MPX partial decomposition                                            *)
(* ------------------------------------------------------------------ *)

module Heap = Nw_graphs.Heap

let mpx g ~rng ~beta ~rounds =
  if beta <= 0.0 || beta >= 1.0 then invalid_arg "Net_decomp.mpx: beta";
  Obs.span "net_decomp.mpx" @@ fun () ->
  let n = G.n g in
  let shift =
    Array.init n (fun _ ->
        (* Exp(beta) *)
        -.log (1.0 -. Random.State.float rng 1.0) /. beta)
  in
  let label = Array.make n (-1) in
  let heap = Heap.create (0, 0) in
  for v = 0 to n - 1 do
    Heap.push heap (-.shift.(v)) (v, v)
  done;
  let max_key = ref 0.0 in
  let rec drain () =
    match Heap.pop heap with
    | None -> ()
    | Some (key, (v, center)) ->
        if label.(v) < 0 then begin
          label.(v) <- center;
          if key > !max_key then max_key := key;
          G.iter_incident g v (fun w _ ->
              if label.(w) < 0 then Heap.push heap (key +. 1.0) (w, center));
          drain ()
        end
        else drain ()
  in
  drain ();
  (* LOCAL cost: the largest (shift + BFS depth) settled, i.e. the time the
     last vertex was claimed, plus the initial shift magnitude *)
  let max_shift = Array.fold_left max 0.0 shift in
  Rounds.charge rounds ~label:"net-decomp/mpx"
    (1 + int_of_float (ceil (max_shift +. !max_key)));
  label
