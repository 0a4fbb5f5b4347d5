module G = Nw_graphs.Multigraph
module O = Nw_graphs.Orientation
module Scratch = Nw_graphs.Scratch
module Coloring = Nw_decomp.Coloring
module Rounds = Nw_localsim.Rounds
module Obs = Nw_obs.Obs

(* Acyclic orientation of the colored, eligible subgraph via the H-partition
   (Theorem 2.1(2)); [alpha] is the globally known arboricity bound. *)
let acyclic_orientation_of_colored coloring eligible ~alpha ~rng ~rounds =
  let g = Coloring.graph coloring in
  let keep =
    Array.init (G.m g) (fun e ->
        eligible.(e) && Coloring.color coloring e <> None)
  in
  let sub, emap = G.subgraph_of_edges g keep in
  let ids = Array.init (G.n g) (fun v -> v) in
  (* shuffle for well-spread tie-breaking *)
  for i = Array.length ids - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = ids.(i) in
    ids.(i) <- ids.(j);
    ids.(j) <- tmp
  done;
  let hp = H_partition.compute sub ~epsilon:1.0 ~alpha_star:alpha ~rounds in
  (H_partition.orientation sub hp ~ids, sub, emap)

(* BFS from [src] inside one component of a forest, writing distances into
   the shared scratch [dist] (-1 = unvisited); returns the visited vertices.
   The caller resets [dist] via the returned list. *)
let component_bfs forest src dist =
  let q = Queue.create () in
  dist.(src) <- 0;
  Queue.add src q;
  let visited = ref [ src ] in
  while not (Queue.is_empty q) do
    let u = Queue.take q in
    G.iter_incident forest u (fun w _ ->
        if dist.(w) < 0 then begin
          dist.(w) <- dist.(u) + 1;
          visited := w :: !visited;
          Queue.add w q
        end)
  done;
  !visited

let reset dist vertices = List.iter (fun v -> dist.(v) <- -1) vertices

(* eccentricity of every vertex inside its tree, for a forest: ecc(v) =
   max(dist(v, a), dist(v, b)) where (a, b) are diameter endpoints of the
   component. O(n + m) overall via two-sweep BFS per component. *)
let forest_eccentricities forest =
  let n = G.n forest in
  let ecc = Array.make n 0 in
  let dist = Array.make n (-1) in
  let dist_a = Array.make n (-1) in
  let seen = Array.make n false in
  for v0 = 0 to n - 1 do
    if (not seen.(v0)) && G.degree forest v0 > 0 then begin
      let comp = component_bfs forest v0 dist in
      List.iter (fun u -> seen.(u) <- true) comp;
      let farthest from scratch =
        let _ = component_bfs forest from scratch in
        List.fold_left
          (fun best u -> if scratch.(u) > scratch.(best) then u else best)
          from comp
      in
      reset dist comp;
      let a = farthest v0 dist in
      reset dist comp;
      let _ = component_bfs forest a dist_a in
      let b =
        List.fold_left
          (fun best u -> if dist_a.(u) > dist_a.(best) then u else best)
          a comp
      in
      let _ = component_bfs forest b dist in
      List.iter (fun u -> ecc.(u) <- max dist_a.(u) dist.(u)) comp;
      reset dist comp;
      reset dist_a comp
    end
  done;
  ecc

let delete_long_paths coloring ~eligible ~epsilon ~alpha ~rng ~rounds =
  if epsilon <= 0.0 then invalid_arg "delete_long_paths: epsilon <= 0";
  Obs.span "diam_reduction.delete_long_paths" @@ fun () ->
  let g = Coloring.graph coloring in
  let n = G.n g in
  let deleted = ref [] in
  let delete e =
    Coloring.unset coloring e;
    deleted := e :: !deleted
  in
  (* Stage 1: coin-flip vertices delete ceil(eps*alpha/20) random out-edges
     of an acyclic 3*alpha-orientation of the colored subgraph. *)
  let orientation, sub, emap =
    acyclic_orientation_of_colored coloring eligible ~alpha ~rng ~rounds
  in
  let quota = int_of_float (ceil (epsilon *. float_of_int alpha /. 20.)) in
  for v = 0 to n - 1 do
    if Random.State.bool rng then begin
      let out = Array.of_list (O.out_edges orientation v) in
      (* partial Fisher-Yates: the first [quota] entries become a uniform
         sample of the out-edges *)
      let len = Array.length out in
      for i = 0 to min quota len - 1 do
        let j = i + Random.State.int rng (len - i) in
        let tmp = out.(i) in
        out.(i) <- out.(j);
        out.(j) <- tmp;
        delete emap.(out.(i))
      done
    end
  done;
  ignore sub;
  Rounds.charge rounds ~label:"diam-reduction/random-delete" 1;
  (* Stage 2 (correction): vertices still seeing a monochromatic eligible
     path of length >= L delete their incident edges of that color. *)
  let logn = log (float_of_int (max 2 n)) in
  let cap = int_of_float (ceil (20.0 *. (logn +. 1.0) /. epsilon)) in
  for c = 0 to Coloring.colors coloring - 1 do
    let keep =
      Array.init (G.m g) (fun e ->
          eligible.(e) && Coloring.color coloring e = Some c)
    in
    let forest, femap = G.subgraph_of_edges g keep in
    let ecc = forest_eccentricities forest in
    let marked = Array.init n (fun v -> ecc.(v) >= cap) in
    Array.iteri
      (fun fe e ->
        let u, v = G.endpoints g e in
        if
          (marked.(u) || marked.(v))
          && Coloring.color coloring e = Some c
        then begin
          ignore fe;
          delete e
        end)
      femap
  done;
  Rounds.charge rounds ~label:"diam-reduction/correction" (cap + 1);
  Obs.set_attr "deleted" (Obs.Int (List.length !deleted));
  !deleted

let chop_depths coloring ~epsilon ~rng ~rounds =
  if epsilon <= 0.0 then invalid_arg "chop_depths: epsilon <= 0";
  Obs.span "diam_reduction.chop_depths" @@ fun () ->
  let g = Coloring.graph coloring in
  let z = max 2 (int_of_float (ceil (40.0 /. epsilon))) in
  let deleted = ref [] in
  let max_depth_seen = ref 0 in
  let n = G.n g in
  (* generation-stamped depths: O(1) reset per color, offsets assigned at
     visit time (only read where a depth was stamped) *)
  let depth = Scratch.Ints.create n in
  let tree_offset = Array.make n 0 in
  for c = 0 to Coloring.colors coloring - 1 do
    let forest, femap = Coloring.subgraph coloring c in
    Scratch.Ints.reset depth;
    (* root every tree at its first vertex; record a random per-tree offset *)
    for v0 = 0 to n - 1 do
      if (not (Scratch.Ints.mem depth v0)) && G.degree forest v0 > 0 then begin
        let j = Random.State.int rng z in
        let q = Queue.create () in
        Scratch.Ints.set depth v0 0;
        tree_offset.(v0) <- j;
        Queue.add v0 q;
        while not (Queue.is_empty q) do
          let u = Queue.take q in
          let du = Scratch.Ints.get depth u ~default:0 in
          G.iter_incident forest u (fun w _ ->
              if not (Scratch.Ints.mem depth w) then begin
                Scratch.Ints.set depth w (du + 1);
                tree_offset.(w) <- j;
                Queue.add w q
              end)
        done
      end
    done;
    Array.iteri
      (fun fe e ->
        ignore fe;
        let u, v = G.endpoints g e in
        let d =
          max
            (Scratch.Ints.get depth u ~default:(-1))
            (Scratch.Ints.get depth v ~default:(-1))
        in
        if d > !max_depth_seen then max_depth_seen := d;
        if d mod z = tree_offset.(u) then begin
          Coloring.unset coloring e;
          deleted := e :: !deleted
        end)
      femap
  done;
  (* rooting the trees costs their depth in LOCAL rounds *)
  Rounds.charge rounds ~label:"diam-reduction/chop" (!max_depth_seen + z + 1);
  !deleted

let reduce coloring ~target ~epsilon ~alpha ~ids ~rng ~rounds =
  Obs.span "diameter_reduction" @@ fun () ->
  let g = Coloring.graph coloring in
  let eligible = Array.make (G.m g) true in
  let work = Coloring.copy coloring in
  let deleted =
    match target with
    | `Log_over_eps ->
        delete_long_paths work ~eligible ~epsilon ~alpha ~rng ~rounds
    | `Inv_eps ->
        let d1 =
          delete_long_paths work ~eligible ~epsilon:(epsilon /. 10.) ~alpha
            ~rng ~rounds
        in
        let d2 = chop_depths work ~epsilon ~rng ~rounds in
        d1 @ d2
  in
  let removed = Array.make (G.m g) false in
  List.iter (fun e -> removed.(e) <- true) deleted;
  Recolor.append_stars work removed ~ids ~rounds
