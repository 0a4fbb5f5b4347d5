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
