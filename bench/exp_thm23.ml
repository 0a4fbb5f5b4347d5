(* E3 — Theorem 2.3: ((4+eps) alpha* - 1)-list-star-forest decomposition.

   Paper claims an LSFD whenever every palette has size
   floor((4+eps) alpha_star) - 1, in O~(log n log* m / eps) rounds (we use the
   network-decomposition variant with complexity independent of m). We
   sweep alpha and check color budget, validity, and list respect. *)

open Exp_common

let run () =
  section "E3: Theorem 2.3 ((4+eps)a*-1 LSFD)";
  let epsilon = 0.5 in
  let rows =
    List.map
      (fun alpha ->
        let st = rng (2000 + alpha) in
        let n = max 60 (6 * alpha) in
        let g = Gen.forest_union st n alpha in
        let alpha_star, _ = Nw_graphs.Arboricity.pseudo_arboricity g in
        let k = Nw_core.Lsfd.required_palette ~epsilon ~alpha_star in
        let colors = (2 * k) + 4 in
        let lists = Gen.list_palettes st g ~colors ~size:k in
        let palette = Palette.of_lists ~colors lists in
        let rounds = Rounds.create () in
        let coloring =
          Nw_engine.Run.lsfd_distributed g palette ~epsilon ~alpha_star ~rng:st
            ~rounds
        in
        let m = measure_fd ~star:true coloring rounds in
        let respects = Verify.respects_palette coloring palette in
        [
          d alpha;
          d alpha_star;
          d k;
          d m.colors;
          m.valid;
          verified respects;
          d m.rounds;
        ])
      [ 1; 2; 3; 5; 8; 12; 20 ]
  in
  table
    ~title:"Theorem 2.3: LSFD from palettes of size (4.5 a*) - 1 (eps = 0.5)"
    ~header:
      [
        "alpha"; "alpha*"; "palette k"; "colors used"; "stars valid";
        "lists ok"; "rounds";
      ]
    ~rows;
  note
    "every class is a star forest chosen from per-edge lists; the paper's \
     open question (below 4a* - O(1) lists) remains visible: k tracks 4.5x \
     alpha*."
