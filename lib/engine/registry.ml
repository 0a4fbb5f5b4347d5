module G = Nw_graphs.Multigraph
module Arb = Nw_graphs.Arboricity
module Palette = Nw_decomp.Palette
module Verify = Nw_decomp.Verify

type spec = { graph : G.t; epsilon : float; alpha : int }
type yields = Coloring_out | Orientation_out | Pseudo_out

type entry = {
  name : string;
  description : string;
  star : bool;
  simple_only : bool;
  reports_rounds : bool;
  reads_alpha : bool;
  yields : yields;
  build : spec -> Engine.pipeline;
}

(* the `lsfd` CLI recipe sizes its own palette from the graph's exact
   pseudo-arboricity, like the paper's Theorem 2.3 statement; an
   edgeless graph (α* = 0) gets an empty palette, not a negative one *)
let build_lsfd { graph = g; epsilon; alpha = _ } =
  let alpha_star, _ =
    Nw_obs.Obs.span "arboricity.pseudo" (fun () -> Arb.pseudo_arboricity g)
  in
  let k = max 0 (Nw_core.Lsfd.required_palette ~epsilon ~alpha_star) in
  let palette = Palette.full g k in
  Pipelines.lsfd g palette ~epsilon ~alpha_star

let all =
  [
    {
      name = "exact";
      description = "exact arboricity witness (Gabow-Westermann)";
      star = false;
      simple_only = false;
      reports_rounds = false;
      reads_alpha = false;
      yields = Coloring_out;
      build = (fun s -> ignore s; Pipelines.exact ());
    };
    {
      name = "greedy";
      description = "centralized greedy forest coloring";
      star = false;
      simple_only = false;
      reports_rounds = false;
      reads_alpha = false;
      yields = Coloring_out;
      build = (fun s -> ignore s; Pipelines.greedy ());
    };
    {
      name = "be";
      description = "Barenboim-Elkin (2+eps)-approximate FD [BE10]";
      star = false;
      simple_only = false;
      reports_rounds = true;
      reads_alpha = false;
      yields = Coloring_out;
      build = (fun s -> Pipelines.be ~epsilon:s.epsilon);
    };
    {
      name = "augment";
      description = "Theorem 4.6 (1+eps)-approximate forest decomposition";
      star = false;
      simple_only = false;
      reports_rounds = true;
      reads_alpha = true;
      yields = Coloring_out;
      build =
        (fun s ->
          Pipelines.augment s.graph ~epsilon:s.epsilon ~alpha:s.alpha ());
    };
    {
      name = "star";
      description = "Theorem 5.4(1) star-forest decomposition";
      star = true;
      simple_only = true;
      reports_rounds = true;
      reads_alpha = true;
      yields = Coloring_out;
      build =
        (fun s -> Pipelines.star s.graph ~epsilon:s.epsilon ~alpha:s.alpha);
    };
    {
      name = "amr-star";
      description = "folklore 2-alpha star-forest baseline";
      star = true;
      simple_only = false;
      reports_rounds = false;
      reads_alpha = false;
      yields = Coloring_out;
      build = (fun s -> ignore s; Pipelines.amr ());
    };
    {
      name = "lsfd";
      description = "Theorem 2.3 list star-forest decomposition";
      star = true;
      simple_only = false;
      reports_rounds = true;
      reads_alpha = false;
      yields = Coloring_out;
      build = build_lsfd;
    };
    {
      name = "orientation";
      description = "Corollary 1.1 (1+eps)-alpha orientation";
      star = false;
      simple_only = false;
      reports_rounds = true;
      reads_alpha = true;
      yields = Orientation_out;
      build =
        (fun s ->
          Pipelines.orientation s.graph ~epsilon:s.epsilon ~alpha:s.alpha ());
    };
    {
      name = "pseudo";
      description = "Corollary 1.1 pseudo-forest decomposition";
      star = false;
      simple_only = false;
      reports_rounds = true;
      reads_alpha = true;
      yields = Pseudo_out;
      build =
        (fun s -> Pipelines.pseudo s.graph ~epsilon:s.epsilon ~alpha:s.alpha);
    };
  ]

let verify entry { graph = g; epsilon; alpha } store =
  match entry.yields with
  | Coloring_out ->
      let c = Store.coloring store "coloring" in
      if entry.star then Verify.star_forest_decomposition c
      else Verify.forest_decomposition c
  | Orientation_out ->
      let o = Store.orientation store "orientation" in
      let bound =
        int_of_float (ceil ((1. +. epsilon) *. float_of_int alpha))
      in
      Verify.orientation_out_degree o bound
  | Pseudo_out ->
      let a, k = Store.assignment store "assignment" in
      Verify.pseudo_forest_assignment g a ~k

let resolve entry g ~epsilon ~alpha =
  let alpha =
    match alpha with
    | None when entry.reads_alpha ->
        Some
          (Nw_obs.Obs.span "arboricity.exact" (fun () ->
               Nw_baseline.Gabow_westermann.arboricity_value g))
    | _ -> alpha
  in
  ({ graph = g; epsilon; alpha = Option.value alpha ~default:0 }, alpha)

let find name = List.find_opt (fun e -> String.equal e.name name) all
let names () = List.map (fun e -> e.name) all

let registry_name = "nw-registry/1"

(* FNV-1a 64-bit over "name=pipeline-digest;" for every entry, built on a
   fixed canonical spec so the stamp depends only on the code. lsfd's build
   computes α* under a span; the builds run in a trace of their own, which
   is dropped, so a served hello or a flight sink leaves nothing in the
   caller's trace *)
let stamp () =
  let canonical =
    { graph = Nw_graphs.Generators.complete 2; epsilon = 0.5; alpha = 1 }
  in
  let fnv_prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  let feed s =
    String.iter
      (fun c ->
        h :=
          Int64.mul
            (Int64.logxor !h (Int64.of_int (Char.code c)))
            fnv_prime)
      s
  in
  let (), (_ : Nw_obs.Obs.trace) =
    Nw_obs.Obs.collect (fun () ->
        List.iter
          (fun e ->
            feed (e.name ^ "=" ^ Engine.digest (e.build canonical) ^ ";"))
          all)
  in
  (registry_name, Printf.sprintf "%016Lx" !h)
