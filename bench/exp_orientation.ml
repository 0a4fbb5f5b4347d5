(* E10 — Corollary 1.1: (1+eps)*alpha-orientations with linear 1/eps
   dependence.

   Paper claims: a (1+eps)*alpha-FD of diameter D converts to a
   (1+eps)*alpha-orientation in O(D) extra rounds; the resulting algorithms
   are the first with linear dependence on 1/eps. We sweep eps and compare
   against the H-partition (2+eps)*alpha* orientation. *)

open Exp_common
module O = Nw_graphs.Orientation

let run () =
  section "E10: Corollary 1.1 (low out-degree orientation)";
  let alpha = 8 in
  let n = 200 in
  let g = Gen.forest_union (rng 9000) n alpha in
  let alpha_star, exact_o = Nw_graphs.Arboricity.pseudo_arboricity g in
  let rows =
    List.map
      (fun epsilon ->
        let st = rng (9100 + int_of_float (epsilon *. 100.)) in
        let rounds = Rounds.create () in
        let o, _ =
          Nw_engine.Run.orientation g ~epsilon ~alpha ~rng:st ~rounds ()
        in
        let be_rounds = Rounds.create () in
        let hp =
          Nw_core.H_partition.compute g ~epsilon ~alpha_star
            ~rounds:be_rounds
        in
        let o_be =
          Nw_core.H_partition.orientation g hp
            ~ids:(Array.init n (fun v -> v))
        in
        let target =
          int_of_float (ceil ((1. +. epsilon) *. float_of_int alpha))
        in
        [
          f2 epsilon;
          d (O.max_out_degree o);
          d target;
          d (O.max_out_degree o_be);
          d (O.max_out_degree exact_o);
          d (Rounds.total rounds);
          d (Rounds.total be_rounds);
        ])
      [ 1.0; 0.5; 0.25 ]
  in
  table
    ~title:
      (Printf.sprintf
         "orientations of a forest-union multigraph (alpha = %d, alpha* = %d)"
         alpha alpha_star)
    ~header:
      [
        "eps"; "ours"; "(1+eps)a"; "H-partition"; "exact a*"; "our rounds";
        "BE rounds";
      ]
    ~rows;
  note
    "ours tracks (1+eps)*alpha while the H-partition baseline pays \
     (2+eps)*alpha*; the exact a* orientation is the offline optimum."
