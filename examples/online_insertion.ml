(* Online maintenance of a (1+eps)*alpha forest decomposition under edge
   insertions, via the Section 3 augmentation engine.

   Edges arrive one at a time (a growing overlay network, a streaming
   graph); each arrival is colored by a single augmenting sequence, which
   the paper shows stays short and local whenever the palette has (1+eps)
   slack — so insertions touch only an O(log n / eps) neighborhood, and the
   decomposition is valid at every instant. This is the online view of the
   same machinery Algorithm 2 runs in parallel.

   Run with: dune exec examples/online_insertion.exe *)

module G = Nw_graphs.Multigraph
module Gen = Nw_graphs.Generators
module Coloring = Nw_decomp.Coloring
module Palette = Nw_decomp.Palette
module Verify = Nw_decomp.Verify
module Aug = Nw_core.Augmenting

let () =
  let rng = Random.State.make [| 31 |] in
  let alpha = 6 in
  let n = 150 in
  (* the final graph, revealed edge by edge in random order *)
  let g = Gen.forest_union rng n alpha in
  let colors = alpha + 2 in
  let palette = Palette.full g colors in
  let coloring = Coloring.create g ~colors in
  let order = Array.init (G.m g) (fun e -> e) in
  for i = Array.length order - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- tmp
  done;
  Format.printf "inserting %d edges (alpha = %d, %d colors available)@."
    (G.m g) alpha colors;
  let worst_len = ref 0 and worst_explored = ref 0 and checkpoints = ref 0 in
  Array.iteri
    (fun i e ->
      (match Aug.augment_edge coloring palette ~edge:e () with
      | Ok stats ->
          worst_len := max !worst_len (stats.Aug.iterations + 1);
          worst_explored := max !worst_explored stats.Aug.explored
      | Error _ -> failwith "augmentation cannot stall above the arboricity");
      (* validity holds at *every* prefix; spot-check a few *)
      if (i + 1) mod 200 = 0 || i + 1 = G.m g then begin
        Verify.exn (Verify.partial_forest_decomposition coloring);
        incr checkpoints
      end)
    order;
  Format.printf
    "all %d insertions colored online; %d validity checkpoints passed@."
    (G.m g) !checkpoints;
  Format.printf
    "worst augmenting sequence: %d steps, worst region explored: %d edges@."
    !worst_len !worst_explored;
  Format.printf
    "every insertion stayed local — the (1+eps) slack at work (Thm 3.2)@."
