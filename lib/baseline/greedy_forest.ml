module G = Nw_graphs.Multigraph
module UF = Nw_graphs.Union_find
module Coloring = Nw_decomp.Coloring

(* grows per-color union-find structures on demand *)
let color_greedily g max_colors =
  Nw_obs.Obs.span "baseline.greedy_forest" @@ fun () ->
  let n = G.n g in
  let ufs = ref [||] in
  let ensure c =
    if c >= Array.length !ufs then begin
      let fresh =
        Array.init (c + 1) (fun i ->
            if i < Array.length !ufs then !ufs.(i) else UF.create n)
      in
      ufs := fresh
    end;
    !ufs.(c)
  in
  let assign = Array.make (G.m g) (-1) in
  let uncolored = ref 0 in
  G.fold_edges
    (fun e u v () ->
      let rec try_color c =
        if c >= max_colors then incr uncolored
        else begin
          let uf = ensure c in
          if UF.union uf u v then assign.(e) <- c else try_color (c + 1)
        end
      in
      try_color 0)
    g ();
  let colors = Array.length !ufs in
  (Coloring.of_assignment g ~colors:(max colors 1) assign, !uncolored)

let greedy g =
  let coloring, uncolored = color_greedily g max_int in
  assert (uncolored = 0);
  coloring

let eager g k = color_greedily g k
