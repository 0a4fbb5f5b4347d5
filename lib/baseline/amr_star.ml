(* nwlint:disable PERF001 -- the AMR baseline is kept deliberately close to its paper pseudocode; it is the comparison target, not a hot path *)

module G = Nw_graphs.Multigraph
module Coloring = Nw_decomp.Coloring

let of_forest_decomposition coloring =
  Nw_obs.Obs.span "baseline.amr_star" @@ fun () ->
  let g = Coloring.graph coloring in
  let n = G.n g in
  let k = Coloring.colors coloring in
  let assign = Array.make (G.m g) (-1) in
  let depth = Array.make n (-1) in
  for c = 0 to k - 1 do
    let forest, femap = Coloring.subgraph coloring c in
    Array.fill depth 0 n (-1);
    for v0 = 0 to n - 1 do
      if depth.(v0) < 0 && G.degree forest v0 > 0 then begin
        let q = Queue.create () in
        depth.(v0) <- 0;
        Queue.add v0 q;
        while not (Queue.is_empty q) do
          let u = Queue.take q in
          G.iter_incident forest u (fun w fe ->
              if depth.(w) < 0 then begin
                depth.(w) <- depth.(u) + 1;
                (* the edge's upper endpoint is u; its parity picks the
                   star class *)
                assign.(femap.(fe)) <- (2 * c) + (depth.(u) mod 2);
                Queue.add w q
              end)
        done
      end
    done
  done;
  Coloring.of_assignment g ~colors:(2 * k) assign

let decompose g =
  let alpha, coloring = Gabow_westermann.arboricity g in
  (of_forest_decomposition coloring, alpha)

(* A class is a star forest iff no edge of the class has both endpoints
   with class-degree >= 2 (this kills P4s, triangles and parallel pairs,
   and nothing else can go wrong in a diameter-<=2 forest). *)
let star_arboricity_brute g =
  let n = G.n g and m = G.m g in
  if m = 0 then 0
  else if m > 24 then invalid_arg "Amr_star.star_arboricity_brute: too large"
  else begin
    let feasible k =
      let deg = Array.make_matrix k n 0 in
      let assign = Array.make m (-1) in
      let ok_with e c =
        let u, v = G.endpoints g e in
        (* adding e to class c keeps the criterion iff afterwards no
           class-c edge has both endpoints of degree >= 2; only e and the
           edges at u, v can be affected *)
        let du = deg.(c).(u) + 1 and dv = deg.(c).(v) + 1 in
        if du >= 2 && dv >= 2 then false
        else begin
          (* e is fine; existing class-c edges at u (resp. v) now see u's
             degree rise: such an edge (u, w) breaks iff deg w >= 2 *)
          let breaks_at x dx =
            dx >= 2
            && Array.exists
                 (fun (w, e') ->
                   e' <> e && assign.(e') = c && deg.(c).(w) >= 2)
                 (G.incident g x)
          in
          (not (breaks_at u du)) && not (breaks_at v dv)
        end
      in
      let rec go e max_used =
        if e = m then true
        else begin
          let limit = min (k - 1) (max_used + 1) in
          let rec try_color c =
            if c > limit then false
            else if ok_with e c then begin
              let u, v = G.endpoints g e in
              assign.(e) <- c;
              deg.(c).(u) <- deg.(c).(u) + 1;
              deg.(c).(v) <- deg.(c).(v) + 1;
              if go (e + 1) (max max_used c) then true
              else begin
                assign.(e) <- -1;
                deg.(c).(u) <- deg.(c).(u) - 1;
                deg.(c).(v) <- deg.(c).(v) - 1;
                try_color (c + 1)
              end
            end
            else try_color (c + 1)
          in
          try_color 0
        end
      in
      go 0 (-1)
    in
    let rec search k = if feasible k then k else search (k + 1) in
    search 1
  end
