(* Declarative pipelines for every composite algorithm of the paper (and
   the baselines the CLI exposes): the one place the plan and phase
   functions of lib/core are sequenced. Builders are deterministic: no
   randomness is consumed until [Engine.run], which is what makes resuming
   from a checkpoint sound. *)

module G = Nw_graphs.Multigraph
module Arb = Nw_graphs.Arboricity
module Palette = Nw_decomp.Palette
module Verify = Nw_decomp.Verify
module FA = Nw_core.Forest_algo
module SF = Nw_core.Star_forest
module Cut = Nw_core.Cut
module Lsfd = Nw_core.Lsfd
module H_partition = Nw_core.H_partition
module Net_decomp = Nw_core.Net_decomp
module Color_split = Nw_core.Color_split
module Diameter_reduction = Nw_core.Diameter_reduction
module Recolor = Nw_core.Recolor
module Orient = Nw_core.Orient
module Pseudo_forest = Nw_core.Pseudo_forest
module GW = Nw_baseline.Gabow_westermann

open Engine

let k_graph = ("graph", `Graph)
let k_palette = ("palette", `Palette)
let k_coloring = ("coloring", `Coloring)
let k_removed = ("removed", `Mask)
let k_clustering = ("clustering", `Clustering)
let k_orientation = ("orientation", `Orientation)
let k_fd_stats = ("fd_stats", `Fd_stats)
let k_sfd_stats = ("sfd_stats", `Sfd_stats)

(* a pass that just seeds the store with a build-time-derived artifact *)
let const_pass name key artifact =
  {
    name;
    reads = [];
    writes = [ (key, Artifact.kind_of artifact) ];
    run = (fun _ctx store -> Store.put store key artifact);
  }

(* The Theorem 4.5 core as two passes: network decomposition of
   G^(2(R+R')), then the class-by-class CUT + augmentation. [palette_key]
   names the palette to color from. *)
let partial_passes ~prefix ~palette_key ~epsilon ~alpha ~cut ~radii =
  let r, r' = radii in
  let d = r + r' in
  [
    {
      name = prefix ^ ".net_decomp";
      reads = [ k_graph ];
      writes = [ k_clustering ];
      run =
        (fun ctx store ->
          let g = Store.graph store "graph" in
          let nd =
            Net_decomp.compute g ~rng:ctx.rng ~rounds:ctx.rounds
              ~distance:(2 * d)
          in
          Store.put store "clustering" (Artifact.Clustering nd));
    };
    {
      name = prefix ^ ".partial_color";
      reads = [ k_graph; (palette_key, `Palette); k_clustering ];
      writes = [ k_coloring; k_removed; k_fd_stats ];
      run =
        (fun ctx store ->
          let g = Store.graph store "graph" in
          let palette = Store.palette store palette_key in
          let nd = Store.clustering store "clustering" in
          let coloring, removed, stats =
            FA.partial_color g palette ~epsilon ~alpha ~cut ~radii ~nd
              ~rng:ctx.rng ~rounds:ctx.rounds
          in
          let store = Store.put store "coloring" (Artifact.Coloring coloring) in
          let store = Store.put store "removed" (Artifact.Mask removed) in
          Store.put store "fd_stats" (Artifact.Fd_stats stats));
    };
  ]

let partial g palette ~epsilon ~alpha ~cut ~radii =
  FA.check_epsilon epsilon;
  ignore g;
  {
    pl_name = "partial";
    passes =
      const_pass "fd.plan" "palette" (Artifact.Palette palette)
      :: partial_passes ~prefix:"fd" ~palette_key:"palette" ~epsilon ~alpha
           ~cut ~radii;
  }

(* Theorem 4.6: plan, partial coloring, leftover recoloring, optional
   Corollary 2.5 diameter reduction. *)
let fd_passes g ~epsilon ~alpha ~cut ~radii ~diameter =
  let eps', palette, radii = FA.fd_plan g ~epsilon ~alpha ~cut ~radii in
  let recolor =
    {
      name = "fd.recolor";
      reads = [ k_coloring; k_removed ];
      writes = [ k_coloring ];
      run =
        (fun ctx store ->
          let coloring = Store.coloring store "coloring" in
          let removed = Store.mask store "removed" in
          let combined, _fresh =
            Recolor.append_forests coloring removed ~rounds:ctx.rounds
          in
          Store.put store "coloring" (Artifact.Coloring combined));
    }
  in
  let reduce =
    match diameter with
    | `Unbounded -> []
    | (`Log_over_eps | `Inv_eps) as target ->
        [
          {
            name = "fd.diameter_reduce";
            reads = [ k_graph; k_coloring ];
            writes = [ k_coloring ];
            run =
              (fun ctx store ->
                let g = Store.graph store "graph" in
                let combined = Store.coloring store "coloring" in
                let ids = Array.init (G.n g) (fun v -> v) in
                let reduced, _extra =
                  Diameter_reduction.reduce combined ~target ~epsilon:eps'
                    ~alpha ~ids ~rng:ctx.rng ~rounds:ctx.rounds
                in
                Store.put store "coloring" (Artifact.Coloring reduced));
          };
        ]
  in
  (const_pass "fd.plan" "palette" (Artifact.Palette palette)
   :: partial_passes ~prefix:"fd" ~palette_key:"palette" ~epsilon:eps' ~alpha
        ~cut ~radii)
  @ (recolor :: reduce)

let augment g ~epsilon ~alpha ?(cut = Cut.Depth_mod) ?radii
    ?(diameter = `Unbounded) () =
  FA.check_epsilon epsilon;
  { pl_name = "augment"; passes = fd_passes g ~epsilon ~alpha ~cut ~radii ~diameter }

(* Theorem 4.10: vertex-color splitting, partial LFD on the side-0
   palettes, diameter shrinking, and the side-1 leftover pass. *)
let lfd g palette ~epsilon ~alpha ?(split = `Mpx) ?radii () =
  FA.check_epsilon epsilon;
  let colors = Palette.color_space palette in
  let eps', radii = FA.lfd_plan g ~epsilon ~alpha ~radii in
  let split_pass =
    {
      name = "lfd.split";
      reads = [ k_graph ];
      writes = [ ("split", `Sides) ];
      run =
        (fun ctx store ->
          let g = Store.graph store "graph" in
          let st =
            match split with
            | `Mpx ->
                Color_split.mpx_split g ~colors ~epsilon ~rng:ctx.rng
                  ~rounds:ctx.rounds
            | `Lll ->
                Color_split.lll_split g ~colors ~epsilon ~alpha ~rng:ctx.rng
                  ~rounds:ctx.rounds
          in
          Store.put store "split" (Artifact.Sides st.Color_split.side));
    }
  in
  let palettes_pass =
    {
      name = "lfd.palettes";
      reads = [ k_graph; ("split", `Sides) ];
      writes = [ k_palette; ("q1", `Palette) ];
      run =
        (fun _ctx store ->
          let g = Store.graph store "graph" in
          let side = Store.sides store "split" in
          let st = { Color_split.colors; side } in
          let q0, q1 = Color_split.induced_palettes g st palette in
          let store = Store.put store "palette" (Artifact.Palette q0) in
          Store.put store "q1" (Artifact.Palette q1));
    }
  in
  let shrink =
    {
      name = "lfd.shrink";
      reads = [ k_graph; k_coloring; k_removed ];
      writes = [ k_coloring; k_removed ];
      run =
        (fun ctx store ->
          let g = Store.graph store "graph" in
          let phi0 = Store.coloring store "coloring" in
          let removed = Store.mask store "removed" in
          let eligible = Array.make (G.m g) true in
          let deleted =
            Diameter_reduction.delete_long_paths phi0 ~eligible ~epsilon:eps'
              ~alpha ~rng:ctx.rng ~rounds:ctx.rounds
          in
          List.iter (fun e -> removed.(e) <- true) deleted;
          store);
    }
  in
  let leftover =
    {
      name = "lfd.leftover";
      reads = [ k_graph; k_coloring; ("q1", `Palette); k_removed; k_fd_stats ];
      writes = [ k_coloring; k_fd_stats ];
      run =
        (fun ctx store ->
          let g = Store.graph store "graph" in
          let phi0 = Store.coloring store "coloring" in
          let q1 = Store.palette store "q1" in
          let removed = Store.mask store "removed" in
          let stats = Store.fd_stats store "fd_stats" in
          let final =
            FA.lfd_leftover g ~colors ~phi0 ~q1 ~removed ~rng:ctx.rng
              ~rounds:ctx.rounds
          in
          let leftover_edges =
            Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 removed
          in
          let store = Store.put store "coloring" (Artifact.Coloring final) in
          Store.put store "fd_stats"
            (Artifact.Fd_stats { stats with FA.leftover_edges }));
    }
  in
  {
    pl_name = "lfd";
    passes =
      (split_pass :: palettes_pass
       :: partial_passes ~prefix:"lfd" ~palette_key:"palette" ~epsilon:eps'
            ~alpha ~cut:Cut.Diam_reduce ~radii)
      @ [ shrink; leftover ];
  }

(* Theorem 2.3 (Lsfd.distributed): H-partition, acyclic orientation,
   network decomposition of G^3, layered list coloring. *)
let lsfd g palette ~epsilon ~alpha_star =
  Lsfd.check_palettes g palette ~epsilon ~alpha_star;
  {
    pl_name = "lsfd";
    passes =
      [
        const_pass "lsfd.plan" "palette" (Artifact.Palette palette);
        {
          name = "lsfd.h_partition";
          reads = [ k_graph ];
          writes = [ ("partition", `Partition) ];
          run =
            (fun ctx store ->
              let g = Store.graph store "graph" in
              let hp =
                H_partition.compute g ~epsilon:(epsilon /. 10.) ~alpha_star
                  ~rounds:ctx.rounds
              in
              Store.put store "partition" (Artifact.Partition hp));
        };
        {
          name = "lsfd.orient";
          reads = [ k_graph; ("partition", `Partition) ];
          writes = [ k_orientation ];
          run =
            (fun _ctx store ->
              let g = Store.graph store "graph" in
              let hp = Store.partition store "partition" in
              let ids = Array.init (G.n g) (fun v -> v) in
              Store.put store "orientation"
                (Artifact.Orientation (H_partition.orientation g hp ~ids)));
        };
        {
          name = "lsfd.net_decomp";
          reads = [ k_graph ];
          writes = [ k_clustering ];
          run =
            (fun ctx store ->
              let g = Store.graph store "graph" in
              let nd =
                Net_decomp.compute g ~rng:ctx.rng ~rounds:ctx.rounds
                  ~distance:3
              in
              Store.put store "clustering" (Artifact.Clustering nd));
        };
        {
          name = "lsfd.color";
          reads =
            [
              k_graph;
              k_palette;
              ("partition", `Partition);
              k_orientation;
              k_clustering;
            ];
          writes = [ k_coloring ];
          run =
            (fun ctx store ->
              let g = Store.graph store "graph" in
              let palette = Store.palette store "palette" in
              let hp = Store.partition store "partition" in
              let orientation = Store.orientation store "orientation" in
              let nd = Store.clustering store "clustering" in
              let coloring =
                Lsfd.layered_color g palette ~hp ~orientation ~nd
                  ~rounds:ctx.rounds
              in
              Store.put store "coloring" (Artifact.Coloring coloring));
        };
      ];
  }

(* Theorem 5.4(1) given an orientation in the store: LLL color-set
   selection, matching realization, leftover star mop-up. *)
let sfd_passes ~epsilon ~alpha ~ids =
  [
    {
      name = "sfd.select";
      reads = [ k_graph; k_orientation ];
      writes = [ ("sides", `Sides); ("converged", `Flag) ];
      run =
        (fun ctx store ->
          let g = Store.graph store "graph" in
          let orientation = Store.orientation store "orientation" in
          let sides, converged =
            SF.sfd_select g ~epsilon ~alpha ~orientation ~rng:ctx.rng
              ~rounds:ctx.rounds
          in
          let store = Store.put store "sides" (Artifact.Sides sides) in
          Store.put store "converged" (Artifact.Flag converged));
    };
    {
      name = "sfd.realize";
      reads = [ k_graph; k_orientation; ("sides", `Sides) ];
      writes = [ k_coloring; ("leftover", `Mask); ("max_def", `Num) ];
      run =
        (fun ctx store ->
          let g = Store.graph store "graph" in
          let orientation = Store.orientation store "orientation" in
          let sides = Store.sides store "sides" in
          let coloring, leftover, max_def =
            SF.sfd_realize g ~epsilon ~alpha ~orientation ~sides
              ~rounds:ctx.rounds
          in
          let store = Store.put store "coloring" (Artifact.Coloring coloring) in
          let store = Store.put store "leftover" (Artifact.Mask leftover) in
          Store.put store "max_def" (Artifact.Num max_def));
    };
    {
      name = "sfd.append";
      reads =
        [
          k_coloring;
          ("leftover", `Mask);
          ("converged", `Flag);
          ("max_def", `Num);
        ];
      writes = [ k_coloring; k_sfd_stats ];
      run =
        (fun ctx store ->
          let coloring = Store.coloring store "coloring" in
          let leftover = Store.mask store "leftover" in
          let converged = Store.flag store "converged" in
          let max_def = Store.num store "max_def" in
          let combined, stats =
            SF.sfd_finish coloring leftover ~max_def ~converged ~ids
              ~rounds:ctx.rounds
          in
          let store = Store.put store "coloring" (Artifact.Coloring combined) in
          Store.put store "sfd_stats" (Artifact.Sfd_stats stats));
    };
  ]

let sfd ~epsilon ~alpha ~ids =
  { pl_name = "sfd"; passes = sfd_passes ~epsilon ~alpha ~ids }

(* the CLI's `star` recipe: exact arboricity witness, orient along it,
   then the Theorem 5.4(1) star-forest decomposition *)
let star g ~epsilon ~alpha =
  let ids = Array.init (G.n g) (fun v -> v) in
  {
    pl_name = "star";
    passes =
      {
        name = "star.exact_fd";
        reads = [ k_graph ];
        writes = [ ("exact_fd", `Coloring) ];
        run =
          (fun _ctx store ->
            let g = Store.graph store "graph" in
            let _, fd = GW.arboricity g in
            Store.put store "exact_fd" (Artifact.Coloring fd));
      }
      :: {
           name = "star.orient";
           reads = [ ("exact_fd", `Coloring) ];
           writes = [ k_orientation ];
           run =
             (fun ctx store ->
               let fd = Store.coloring store "exact_fd" in
               Store.put store "orientation"
                 (Artifact.Orientation
                    (Orient.of_forest_decomposition fd ~rounds:ctx.rounds)));
         }
      :: sfd_passes ~epsilon ~alpha ~ids;
  }

(* Theorem 5.4(2) given an orientation in the store *)
let star_list palette ~epsilon =
  {
    pl_name = "star-list";
    passes =
      [
        const_pass "sfd.plan" "palette" (Artifact.Palette palette);
        {
          name = "sfd.select_lists";
          reads = [ k_graph; k_palette; k_orientation ];
          writes = [ ("sides", `Sides) ];
          run =
            (fun ctx store ->
              let g = Store.graph store "graph" in
              let palette = Store.palette store "palette" in
              let orientation = Store.orientation store "orientation" in
              let sides =
                SF.lsfd_select g palette ~epsilon ~orientation ~rng:ctx.rng
                  ~rounds:ctx.rounds
              in
              Store.put store "sides" (Artifact.Sides sides));
        };
        {
          name = "sfd.realize_lists";
          reads = [ k_graph; k_palette; k_orientation; ("sides", `Sides) ];
          writes = [ k_coloring; k_sfd_stats ];
          run =
            (fun ctx store ->
              let g = Store.graph store "graph" in
              let palette = Store.palette store "palette" in
              let orientation = Store.orientation store "orientation" in
              let sides = Store.sides store "sides" in
              let coloring, stats =
                SF.lsfd_realize g palette ~orientation ~sides
                  ~rounds:ctx.rounds
              in
              let store =
                Store.put store "coloring" (Artifact.Coloring coloring)
              in
              Store.put store "sfd_stats" (Artifact.Sfd_stats stats));
        };
      ];
  }

(* Corollary 1.1: Theorem 4.6 plus tree rooting *)
let orientation g ~epsilon ~alpha ?(cut = Cut.Depth_mod) ?radii () =
  FA.check_epsilon epsilon;
  let root =
    {
      name = "orient.root";
      reads = [ k_coloring ];
      writes = [ k_orientation ];
      run =
        (fun ctx store ->
          let c = Store.coloring store "coloring" in
          Store.put store "orientation"
            (Artifact.Orientation
               (Orient.of_forest_decomposition c ~rounds:ctx.rounds)));
    }
  in
  {
    pl_name = "orientation";
    passes =
      fd_passes g ~epsilon ~alpha ~cut ~radii ~diameter:`Unbounded @ [ root ];
  }

(* Corollary 1.1 pseudo-forests *)
let pseudo g ~epsilon ~alpha =
  let o = orientation g ~epsilon ~alpha () in
  let assign =
    {
      name = "pseudo.assign";
      reads = [ k_graph; k_orientation ];
      writes = [ ("assignment", `Assignment) ];
      run =
        (fun _ctx store ->
          let g = Store.graph store "graph" in
          let o = Store.orientation store "orientation" in
          let assignment, k = Pseudo_forest.of_orientation o in
          (match Verify.pseudo_forest_assignment g assignment ~k with
          | Ok () -> ()
          | Error msg -> failwith ("pseudo.assign: " ^ msg));
          Store.put store "assignment" (Artifact.Assignment (assignment, k)));
    }
  in
  { pl_name = "pseudo"; passes = o.passes @ [ assign ] }

(* centralized baselines, each a single pass *)

let single pl_name name ~writes run = { pl_name; passes = [ { name; reads = [ k_graph ]; writes; run } ] }

let exact () =
  single "exact" "exact.gw" ~writes:[ k_coloring ] (fun _ctx store ->
      let g = Store.graph store "graph" in
      let _, c = GW.arboricity g in
      Store.put store "coloring" (Artifact.Coloring c))

let greedy () =
  single "greedy" "greedy.color" ~writes:[ k_coloring ] (fun _ctx store ->
      let g = Store.graph store "graph" in
      Store.put store "coloring"
        (Artifact.Coloring (Nw_baseline.Greedy_forest.greedy g)))

let be ~epsilon =
  single "be" "be.decompose" ~writes:[ k_coloring ] (fun ctx store ->
      let g = Store.graph store "graph" in
      let alpha_star, _ =
        Nw_obs.Obs.span "arboricity.pseudo" (fun () -> Arb.pseudo_arboricity g)
      in
      let c =
        Nw_baseline.Barenboim_elkin.decompose g ~epsilon ~alpha_star
          ~rng:ctx.rng ~rounds:ctx.rounds
      in
      Store.put store "coloring" (Artifact.Coloring c))

let amr () =
  single "amr-star" "amr.split" ~writes:[ k_coloring ] (fun _ctx store ->
      let g = Store.graph store "graph" in
      let c, _ = Nw_baseline.Amr_star.decompose g in
      Store.put store "coloring" (Artifact.Coloring c))
