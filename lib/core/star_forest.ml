module G = Nw_graphs.Multigraph
module O = Nw_graphs.Orientation
module Matching = Nw_graphs.Matching
module Coloring = Nw_decomp.Coloring
module Palette = Nw_decomp.Palette
module Rounds = Nw_localsim.Rounds
module Obs = Nw_obs.Obs

type stats = {
  max_deficiency : int;
  leftover_edges : int;
  fresh_colors : int;
  lll_converged : bool;
}

(* Maximum matching of H_v: left = colors 0..colors-1, right = out-edges of
   v; edge (i, r) present when i ∈ C(v) \ C(head r) and the list filter
   admits it. Returns [(edge, color) list, deficiency]. *)
let match_vertex orientation v ~colors ~in_set ~admits =
  let outs = Array.of_list (O.out_edges orientation v) in
  let nr = Array.length outs in
  if nr = 0 then ([], 0)
  else begin
    let h = Matching.create ~left:colors ~right:nr in
    for r = 0 to nr - 1 do
      let e = outs.(r) in
      let u = O.head orientation e in
      for i = 0 to colors - 1 do
        if in_set v i && (not (in_set u i)) && admits e i then
          Matching.add h i r
      done
    done;
    let size, _, mr = Matching.maximum_matching h in
    let assignments = ref [] in
    Array.iteri
      (fun r i -> if i >= 0 then assignments := (outs.(r), i) :: !assignments)
      mr;
    ignore size;
    (!assignments, nr - List.length !assignments)
  end

(* Color all matched out-edges; returns (coloring over [colors] space,
   leftover mask, max deficiency). *)
let realize g orientation ~colors ~in_set ~admits =
  let assign = Array.make (G.m g) (-1) in
  let max_def = ref 0 in
  for v = 0 to G.n g - 1 do
    let assignments, deficiency =
      match_vertex orientation v ~colors ~in_set ~admits
    in
    if deficiency > !max_def then max_def := deficiency;
    List.iter (fun (e, i) -> assign.(e) <- i) assignments
  done;
  ( Coloring.of_assignment g ~colors assign,
    Array.map (fun c -> c < 0) assign,
    !max_def )

let require_simple g name =
  if not (G.is_simple g) then
    invalid_arg (name ^ ": star-forest decomposition requires a simple graph")

(* uniformly random size-[k] subset of 0..t-1 as a membership array *)
let random_subset rng t k =
  let arr = Array.init t (fun i -> i) in
  for i = t - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  let members = Array.make t false in
  for i = 0 to min k t - 1 do
    members.(arr.(i)) <- true
  done;
  members

(* Lemma 5.2 parameters (t colors, a-subsets, deficiency slack delta),
   recomputed identically by the select and realize phases *)
let sfd_params ~epsilon ~alpha ~orientation =
  let t =
    max (O.max_out_degree orientation)
      (int_of_float (ceil ((1.0 +. epsilon) *. float_of_int alpha)))
  in
  let a = min alpha t in
  let delta =
    max 1 (int_of_float (ceil (2.0 *. epsilon *. float_of_int alpha)))
  in
  (t, a, delta)

let sfd_select g ~epsilon ~alpha ~orientation ~rng ~rounds =
  require_simple g "Star_forest.sfd_select";
  let t, a, delta = sfd_params ~epsilon ~alpha ~orientation in
  (* the matching can never exceed |C(v)| = a, so the achievable deficiency
     target is (out-degree - a) + the Lemma 5.2 slack *)
  let deficiency_target v =
    let nr = List.length (O.out_edges orientation v) in
    max 0 (nr - a) + delta
  in
  let sample st _ = random_subset st t a in
  let events =
    Array.init (G.n g) (fun v ->
        let heads = List.map (O.head orientation) (O.out_edges orientation v) in
        {
          Lll.vars = v :: heads;
          violated =
            (fun read ->
              let in_set w i = (read w).(i) in
              let _, deficiency =
                match_vertex orientation v ~colors:t ~in_set
                  ~admits:(fun _ _ -> true)
              in
              deficiency > deficiency_target v);
        })
  in
  let max_iters = 40 + (4 * int_of_float (log (float_of_int (max 2 (G.n g))))) in
  let sides =
    Lll.solve ~strict:false ~num_vars:(G.n g) ~sample ~events ~rng ~rounds
      ~max_iters ()
  in
  let converged =
    Array.for_all (fun ev -> not (ev.Lll.violated (fun v -> sides.(v)))) events
  in
  (sides, converged)

let[@obs.in_span] sfd_realize g ~epsilon ~alpha ~orientation ~sides ~rounds =
  let t, _, _ = sfd_params ~epsilon ~alpha ~orientation in
  let in_set v i = sides.(v).(i) in
  let coloring, leftover, max_def =
    realize g orientation ~colors:t ~in_set ~admits:(fun _ _ -> true)
  in
  Rounds.charge rounds ~label:"star-forest/matching" 2;
  (coloring, leftover, max_def)

let sfd_finish coloring leftover ~max_def ~converged ~ids ~rounds =
  let combined, fresh = Recolor.append_stars coloring leftover ~ids ~rounds in
  let leftover_edges =
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 leftover
  in
  Obs.set_attr "max_deficiency" (Obs.Int max_def);
  Obs.set_attr "leftover_edges" (Obs.Int leftover_edges);
  ( combined,
    {
      max_deficiency = max_def;
      leftover_edges;
      fresh_colors = fresh;
      lll_converged = converged;
    } )

let lsfd_select g palette ~epsilon ~orientation ~rng ~rounds =
  require_simple g "Star_forest.lsfd_select";
  let colors = Palette.color_space palette in
  let admits e i = Palette.mem palette e i in
  let sample st _ =
    Array.init colors (fun _ -> Random.State.float st 1.0 >= epsilon)
  in
  let events =
    Array.init (G.n g) (fun v ->
        let heads = List.map (O.head orientation) (O.out_edges orientation v) in
        {
          Lll.vars = v :: heads;
          violated =
            (fun read ->
              let in_set w i = (read w).(i) in
              let _, deficiency =
                match_vertex orientation v ~colors ~in_set ~admits
              in
              deficiency > 0);
        })
  in
  let max_iters = 40 + (4 * int_of_float (log (float_of_int (max 2 (G.n g))))) in
  let rec attempt k =
    let sides =
      Lll.solve ~strict:false ~num_vars:(G.n g) ~sample ~events ~rng ~rounds
        ~max_iters ()
    in
    let ok =
      Array.for_all
        (fun ev -> not (ev.Lll.violated (fun v -> sides.(v))))
        events
    in
    if ok then sides
    else if k > 1 then attempt (k - 1)
    else
      failwith
        "Star_forest.lsfd_select: no perfect matchings found; parameters \
         are outside Lemma 5.3's regime (need alpha >> log Δ and palettes of \
         size (1+200 eps) alpha)"
  in
  attempt 5

let[@obs.in_span] lsfd_realize g palette ~orientation ~sides ~rounds =
  let colors = Palette.color_space palette in
  let admits e i = Palette.mem palette e i in
  let in_set v i = sides.(v).(i) in
  let coloring, leftover, max_def =
    realize g orientation ~colors ~in_set ~admits
  in
  Rounds.charge rounds ~label:"star-forest/matching" 2;
  let leftover_edges =
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 leftover
  in
  assert (leftover_edges = 0);
  Obs.set_attr "max_deficiency" (Obs.Int max_def);
  ( coloring,
    {
      max_deficiency = max_def;
      leftover_edges;
      fresh_colors = 0;
      lll_converged = true;
    } )
