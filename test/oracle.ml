(* Brute-force oracles for the Nash-Williams measures, shared by the test
   executables: they enumerate every vertex subset, O(2^n * m), so they
   take graphs with at most 22 vertices. *)

module G = Nw_graphs.Multigraph

(* largest ⌈m_S / (|S| − slack)⌉ over vertex subsets S with |S| > slack;
   0 when there is none *)
let subset_density g ~slack =
  let n = G.n g in
  if n > 22 then invalid_arg "Oracle: graph too large";
  let best = ref 0 in
  for mask = 1 to (1 lsl n) - 1 do
    let nv = ref 0 in
    for v = 0 to n - 1 do
      if mask land (1 lsl v) <> 0 then incr nv
    done;
    let d = !nv - slack in
    if d >= 1 then begin
      let ne =
        G.fold_edges
          (fun _ u v acc ->
            if mask land (1 lsl u) <> 0 && mask land (1 lsl v) <> 0 then
              acc + 1
            else acc)
          g 0
      in
      best := max !best ((ne + d - 1) / d)
    end
  done;
  !best

(* arboricity α = max ⌈m_S / (|S| − 1)⌉ (Nash-Williams) *)
let arboricity g = subset_density g ~slack:1

(* pseudo-arboricity α* = max ⌈m_S / |S|⌉ *)
let pseudo_arboricity g = subset_density g ~slack:0

(* Linial–Saks network decomposition of G^distance, as Net_decomp.compute
   built it with one unpruned BFS per alive vertex and phase: the
   reference its pruned, priority-ordered search must reproduce, down to
   cluster numbering, round charges and the RNG draws. *)
let net_decomp g ~rng ~rounds ~distance =
  let module ND = Nw_core.Net_decomp in
  let module Rounds = Nw_localsim.Rounds in
  let n = G.n g in
  let logn =
    let rec bits b v = if v <= 1 then b else bits (b + 1) ((v + 1) / 2) in
    bits 0 (max 2 n)
  in
  let cap = logn + 2 in
  let geometric () =
    let rec flip r =
      if r >= cap then cap else if Random.State.bool rng then r else flip (r + 1)
    in
    flip 1
  in
  let shortcut =
    if n = 0 then false
    else begin
      let dist = Nw_graphs.Traversal.distances g 0 in
      Array.for_all (fun d -> d >= 0) dist
      && 2 * Array.fold_left max 0 dist <= distance
    end
  in
  if shortcut then begin
    Rounds.charge rounds ~label:"net-decomp/phase" (4 * distance);
    {
      ND.num_classes = 1;
      class_of = Array.make n 0;
      cluster_of = Array.make n 0;
      clusters = [| List.init n (fun v -> v) |];
      cluster_class = [| 0 |];
    }
  end
  else begin
    (* one hop of G^distance[alive]: paths may pass through dead vertices *)
    let hop alive frontier =
      let members = G.ball_of_set g frontier distance in
      let acc = ref [] in
      Array.iteri
        (fun v inside -> if inside && alive.(v) then acc := v :: !acc)
        members;
      !acc
    in
    let alive = Array.make n true in
    let class_of = Array.make n (-1) and cluster_of = Array.make n (-1) in
    let clusters = ref [] and cluster_class = ref [] in
    let num_clusters = ref 0 and remaining = ref n and z = ref 0 in
    while !remaining > 0 do
      let radius = Array.make n 0 in
      let priority = Array.make n (-1.0, -1) in
      for v = 0 to n - 1 do
        if alive.(v) then begin
          radius.(v) <- geometric ();
          priority.(v) <- (Random.State.float rng 1.0, v)
        end
      done;
      let best = Array.make n None in
      for v = 0 to n - 1 do
        if alive.(v) then begin
          let seen = Hashtbl.create 64 in
          Hashtbl.add seen v ();
          let consider u h =
            match best.(u) with
            | Some (p, _, _) when priority.(v) <= p -> ()
            | _ -> best.(u) <- Some (priority.(v), v, h)
          in
          consider v 0;
          let frontier = ref [ v ] and h = ref 0 in
          while !frontier <> [] && !h < radius.(v) do
            incr h;
            let next =
              List.filter
                (fun u ->
                  (not (Hashtbl.mem seen u))
                  && (Hashtbl.add seen u ();
                      true))
                (hop alive !frontier)
            in
            List.iter (fun u -> consider u !h) next;
            frontier := next
          done
        end
      done;
      let members_of_center = Hashtbl.create 64 in
      for u = 0 to n - 1 do
        if alive.(u) then
          match best.(u) with
          | Some (_, v, h) when h < radius.(v) ->
              Hashtbl.replace members_of_center v
                (u
                :: Option.value ~default:[]
                     (Hashtbl.find_opt members_of_center v))
          | _ -> ()
      done;
      Hashtbl.iter
        (fun _ members ->
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
      Rounds.charge rounds ~label:"net-decomp/phase" (((2 * cap) + 2) * distance);
      incr z
    done;
    {
      ND.num_classes = !z;
      class_of;
      cluster_of;
      clusters = Array.of_list (List.rev !clusters);
      cluster_class = Array.of_list (List.rev !cluster_class);
    }
  end

(* Coloring reads the tests need beyond the library's own, built from its
   public calls. [path c e col] is C(e, col) as a list in [iter_path]'s
   order, or [None] when it is empty: the counted [path_exists] test, then
   the uncounted walk. *)
module Coloring = Nw_decomp.Coloring

let path c e col =
  if Coloring.path_exists c e col then begin
    let acc = ref [] in
    Coloring.iter_path c e col (fun x -> acc := x :: !acc);
    Some (List.rev !acc)
  end
  else None

(* the [(neighbor, edge)] pairs of color [col] at [v], in
   [iter_colored_incident]'s order *)
let colored_incident c v col =
  let acc = ref [] in
  Coloring.iter_colored_incident c v col (fun w e -> acc := (w, e) :: !acc);
  List.rev !acc

(* the edges of the color-[col] tree holding [v], by a BFS over the
   adjacency lists (empty when [v] is isolated in that color) *)
let component_edges c v col =
  let seen = Hashtbl.create 16 in
  Hashtbl.replace seen v ();
  let q = Queue.create () in
  Queue.add v q;
  let acc = ref [] in
  while not (Queue.is_empty q) do
    let u = Queue.take q in
    Coloring.iter_colored_incident c u col (fun w e ->
        if not (Hashtbl.mem seen w) then begin
          Hashtbl.replace seen w ();
          acc := e :: !acc;
          Queue.add w q
        end)
  done;
  !acc

(* the vertex count of the color-[col] tree holding [v], by the root
   labels: one counted [connected] query per vertex *)
let component_size c v col =
  let k = ref 0 in
  for w = 0 to G.n (Coloring.graph c) - 1 do
    if Coloring.connected c col v w then incr k
  done;
  !k
