module G = Nw_graphs.Multigraph
module O = Nw_graphs.Orientation
module Scratch = Nw_graphs.Scratch
module Coloring = Nw_decomp.Coloring
module Rounds = Nw_localsim.Rounds
module Obs = Nw_obs.Obs

let of_forest_decomposition coloring ~rounds =
  Obs.span "orient.of_forest_decomposition" @@ fun () ->
  let g = Coloring.graph coloring in
  let n = G.n g in
  let head = Array.init (G.m g) (fun e -> fst (G.endpoints g e)) in
  (* generation-stamped depths: O(1) reset per color *)
  let depth = Scratch.Ints.create n in
  let max_depth = ref 0 in
  for c = 0 to Coloring.colors coloring - 1 do
    let forest, femap = Coloring.subgraph coloring c in
    Scratch.Ints.reset depth;
    (* BFS-root each tree; point every tree edge at the shallower side *)
    for v0 = 0 to n - 1 do
      if (not (Scratch.Ints.mem depth v0)) && G.degree forest v0 > 0 then begin
        let q = Queue.create () in
        Scratch.Ints.set depth v0 0;
        Queue.add v0 q;
        while not (Queue.is_empty q) do
          let u = Queue.take q in
          let du = Scratch.Ints.get depth u ~default:0 in
          if du > !max_depth then max_depth := du;
          G.iter_incident forest u (fun w fe ->
              if not (Scratch.Ints.mem depth w) then begin
                Scratch.Ints.set depth w (du + 1);
                (* edge points from child w toward parent u *)
                head.(femap.(fe)) <- G.other_endpoint g femap.(fe) w;
                Queue.add w q
              end)
        done
      end
    done
  done;
  Rounds.charge rounds ~label:"orient/rooting" (!max_depth + 1);
  O.make g head
