module G = Nw_graphs.Multigraph
module O = Nw_graphs.Orientation
module Scratch = Nw_graphs.Scratch
module Coloring = Nw_decomp.Coloring
module Rounds = Nw_localsim.Rounds
module Obs = Nw_obs.Obs

type rule = Depth_mod | Diam_reduce | Sampled of float | Disabled

type state =
  | S_disabled
  | S_depth_mod of { n_mod : int }
  | S_diam_reduce of { epsilon' : float; alpha : int }
  | S_sampled of {
      orientation : O.t;
      counters : int array;
      cap : int;
      p : float;
    }

type t = {
  state : state;
  rng : Random.State.t;
  rounds : Nw_localsim.Rounds.t;
}

let create g rule ~epsilon ~alpha ~radius ~num_classes ~rng ~rounds =
  let state =
    match rule with
    | Disabled -> S_disabled
    | Depth_mod -> S_depth_mod { n_mod = max 2 (radius / 2) }
    | Diam_reduce ->
        S_diam_reduce
          { epsilon' = epsilon /. (2.0 *. float_of_int (max 1 num_classes));
            alpha }
    | Sampled eta ->
        if eta <= 0.0 || eta > 0.5 then invalid_arg "Cut.create: eta";
        let ids = Array.init (G.n g) (fun v -> v) in
        let hp = H_partition.compute g ~epsilon:1.0 ~alpha_star:alpha ~rounds in
        let orientation = H_partition.orientation g hp ~ids in
        let cap = max 1 (int_of_float (ceil (epsilon *. float_of_int alpha))) in
        let logn = log (float_of_int (max 2 (G.n g))) in
        let p =
          min 1.0 (2.0 *. float_of_int alpha *. logn /. (eta *. float_of_int radius))
        in
        S_sampled { orientation; counters = Array.make (G.n g) 0; cap; p }
  in
  { state; rng; rounds }

(* an edge is eligible for removal when it lies in the region but not
   inside the core *)
let eligible g core region e =
  let u = G.src g e and v = G.dst g e in
  region.(u) && region.(v) && not (core.(u) && core.(v))

let remove coloring removed e =
  Coloring.unset coloring e;
  removed.(e) <- true

(* rule bodies run under [execute]'s "cut" span *)
let[@obs.in_span] execute_depth_mod ~rng ~rounds coloring ~core ~region
    ~removed ~n_mod =
  let g = Coloring.graph coloring in
  let n = G.n g in
  (* per color: BFS-root every tree of the eligible c-colored subgraph,
     preferring roots inside the core, and delete edges whose deeper
     endpoint depth is J_c modulo N (one random J per tree). *)
  (* generation-stamped depths: absent = unvisited, so the per-color
     reset is O(1) instead of an O(n) refill *)
  let depth = Scratch.Ints.create n in
  let offset = Array.make n 0 in
  let max_depth = ref 0 in
  for c = 0 to Coloring.colors coloring - 1 do
    Scratch.Ints.reset depth;
    let keep =
      Array.init (G.m g) (fun e ->
          Coloring.color coloring e = Some c && eligible g core region e)
    in
    let sub, emap = G.subgraph_of_edges g keep in
    (* root preference: core vertices first, then everything *)
    let bfs_from v0 =
      if (not (Scratch.Ints.mem depth v0)) && G.degree sub v0 > 0
      then begin
        let j = Random.State.int rng n_mod in
        let q = Queue.create () in
        Scratch.Ints.set depth v0 0;
        offset.(v0) <- j;
        Queue.add v0 q;
        while not (Queue.is_empty q) do
          let u = Queue.take q in
          let du = Scratch.Ints.get depth u ~default:0 in
          if du > !max_depth then max_depth := du;
          G.iter_incident sub u (fun w _ ->
              if not (Scratch.Ints.mem depth w) then begin
                Scratch.Ints.set depth w (du + 1);
                offset.(w) <- j;
                Queue.add w q
              end)
        done
      end
    in
    for v = 0 to n - 1 do
      if core.(v) then bfs_from v
    done;
    for v = 0 to n - 1 do
      bfs_from v
    done;
    Array.iteri
      (fun se e ->
        ignore se;
        let u = G.src g e and v = G.dst g e in
        let d =
          max
            (Scratch.Ints.get depth u ~default:(-1))
            (Scratch.Ints.get depth v ~default:(-1))
        in
        if d mod n_mod = offset.(u) then remove coloring removed e)
      emap
  done;
  Rounds.charge rounds ~label:"cut/depth-mod" (!max_depth + 2)

let[@obs.in_span] execute_sampled ~rng ~rounds coloring ~core ~region
    ~removed ~orientation ~counters ~cap ~p =
  let g = Coloring.graph coloring in
  for v = 0 to G.n g - 1 do
    if region.(v) && counters.(v) < cap && Random.State.float rng 1.0 < p
    then begin
      let candidates =
        List.filter
          (fun e -> (not removed.(e)) && eligible g core region e)
          (O.out_edges orientation v)
      in
      match candidates with
      | [] -> ()
      | _ ->
          let k = Random.State.int rng (List.length candidates) in
          remove coloring removed (List.nth candidates k);
          counters.(v) <- counters.(v) + 1
    end
  done;
  Rounds.charge rounds ~label:"cut/sampled" 1

let is_good coloring ~core ~region =
  let g = Coloring.graph coloring in
  let n = G.n g in
  let ok = ref true in
  let seen = Scratch.Marks.create n in
  for c = 0 to Coloring.colors coloring - 1 do
    if !ok then begin
      Scratch.Marks.reset seen;
      let q = Queue.create () in
      for v = 0 to n - 1 do
        if core.(v) && not (Scratch.Marks.mem seen v) then begin
          Scratch.Marks.add seen v;
          Queue.add v q
        end
      done;
      while !ok && not (Queue.is_empty q) do
        let u = Queue.take q in
        if not region.(u) then ok := false
        else
          Coloring.iter_colored_incident coloring u c (fun w _ ->
              if not (Scratch.Marks.mem seen w) then begin
                Scratch.Marks.add seen w;
                Queue.add w q
              end)
      done
    end
  done;
  !ok

(* Diam-reduce delegates to Diameter_reduction (a cold, whole-region
   pass over the same coloring API). *)
let execute_diam_reduce t coloring ~core ~region ~removed ~epsilon' ~alpha =
  let g = Coloring.graph coloring in
  let elig = Array.init (G.m g) (eligible g core region) in
  let deleted =
    Diameter_reduction.delete_long_paths coloring ~eligible:elig
      ~epsilon:epsilon' ~alpha ~rng:t.rng ~rounds:t.rounds
  in
  List.iter (fun e -> removed.(e) <- true) deleted

let rule_name = function
  | S_disabled -> "disabled"
  | S_depth_mod _ -> "depth-mod"
  | S_diam_reduce _ -> "diam-reduce"
  | S_sampled _ -> "sampled"

let execute t coloring ~core ~region ~removed =
  Obs.span "cut" ~attrs:[ ("rule", Obs.Str (rule_name t.state)) ]
  @@ fun () ->
  match t.state with
  | S_disabled ->
      ignore coloring;
      ignore core;
      ignore region;
      ignore removed
  | S_depth_mod { n_mod } ->
      execute_depth_mod ~rng:t.rng ~rounds:t.rounds coloring ~core ~region
        ~removed ~n_mod
  | S_diam_reduce { epsilon'; alpha } ->
      execute_diam_reduce t coloring ~core ~region ~removed ~epsilon' ~alpha
  | S_sampled { orientation; counters; cap; p } ->
      execute_sampled ~rng:t.rng ~rounds:t.rounds coloring ~core ~region
        ~removed ~orientation ~counters ~cap ~p

let sampling_probability t =
  match t.state with S_sampled { p; _ } -> Some p | _ -> None

let load_counters t =
  match t.state with
  | S_sampled { counters; _ } -> Some (Array.copy counters)
  | _ -> None

let overload_cap t =
  match t.state with S_sampled { cap; _ } -> Some cap | _ -> None
