module G = Nw_graphs.Multigraph
module Coloring = Nw_decomp.Coloring
module Palette = Nw_decomp.Palette
module Obs = Nw_obs.Obs

type sequence = (int * int) list

type search_stats = {
  iterations : int;
  explored : int;
  growth : (int * int) list;
}

type outcome =
  | Found of sequence * search_stats
  | Stalled of search_stats * int list

(* Obs handles of the per-search instrumentation, resolved once: one
   search per augmented edge makes these the busiest names in a trace *)
let search_timer = Obs.timer "augment.search"
let calls_counter = Obs.counter "augment.calls"
let stalls_counter = Obs.counter "augment.stalls"
let explored_hist = Obs.hist "augment.explored"
let iterations_hist = Obs.hist "augment.iterations"
let path_len_hist = Obs.hist "augment.path_len"

(* Timestamped scratch for Algorithm 1, reusable across searches on the
   same coloring (the hot loops of Forest_algo and Gabow–Westermann run
   one search per edge): the growing edge set E_i in joining order, its
   membership, the BFS parent pointers pi : edge -> parent edge
   (line 9), and the "touched" vertex set, all as int arrays stamped per
   search — no hashing, no per-search allocation. *)
type scratch = {
  members : int array; (* slot -> edge: E_i in the order edges joined *)
  mark : int array; (* edge -> stamp: in E_i, or on one short_circuit path *)
  parent : int array; (* edge -> parent edge (valid when current) *)
  touched : int array; (* vertex -> stamp when first covered by E_i *)
  mutable stamp : int;
}

let scratch coloring =
  let g = Coloring.graph coloring in
  {
    members = Array.make (max 1 (G.m g)) 0;
    mark = Array.make (max 1 (G.m g)) 0;
    parent = Array.make (max 1 (G.m g)) (-1);
    touched = Array.make (max 1 (G.n g)) 0;
    stamp = 0;
  }

let scratch_for coloring = function
  | None -> scratch coloring
  | Some sc ->
      let g = Coloring.graph coloring in
      if Array.length sc.mark < G.m g || Array.length sc.touched < G.n g then
        invalid_arg "Augmenting: scratch from a smaller graph";
      sc

let edge_allowed g within e =
  match within with
  | None -> true
  | Some members -> members.(G.src g e) && members.(G.dst g e)

(* the vertices of a stalled E_i, each once: the touched set, read off
   the members and cleared as it is read (the search is over) *)
let stall_witness g sc ~now ~explored =
  let acc = ref [] in
  let take v =
    if sc.touched.(v) = now then begin
      sc.touched.(v) <- 0;
      acc := v :: !acc
    end
  in
  for s = 0 to explored - 1 do
    take (G.src g sc.members.(s));
    take (G.dst g sc.members.(s))
  done;
  !acc

(* The first color of [colors] whose C(e, c) is empty, asked in palette
   order, or -1 when there is none. *)
let rec first_free coloring e = function
  | [] -> -1
  | c :: rest ->
      if Coloring.path_exists coloring e c then first_free coloring e rest
      else c

(* The end edges of the paths C(e, c) of the colors before [stop]. *)
let rec ends_before coloring e stop acc = function
  | c :: rest when c <> stop ->
      ends_before coloring e stop (acc + Coloring.path_end_count coloring e c)
        rest
  | _ -> acc

let search coloring palette ~start ?within ?scratch:sc () =
  let g = Coloring.graph coloring in
  (match Coloring.color coloring start with
  | None -> ()
  | Some _ -> invalid_arg "Augmenting.search: start edge already colored");
  if not (edge_allowed g within start) then
    invalid_arg "Augmenting.search: start edge outside the search region";
  let sc = scratch_for coloring sc in
  Obs.time search_timer @@ fun () ->
  sc.stamp <- sc.stamp + 1;
  let now = sc.stamp in
  let explored = ref 0 in
  let touch v = sc.touched.(v) <- now in
  let add_edge e p =
    sc.mark.(e) <- now;
    sc.parent.(e) <- p;
    sc.members.(!explored) <- e;
    incr explored
  in
  add_edge start (-1);
  touch (G.src g start);
  touch (G.dst g start);
  (* path edges adjacent to E_i (and allowed) join it, child of [cur] *)
  let cur = ref start in
  let visit e' =
    if
      sc.mark.(e') <> now
      && edge_allowed g within e'
      && (sc.touched.(G.src g e') = now || sc.touched.(G.dst g e') = now)
    then add_edge e' !cur
  in
  let found_e = ref (-1) and found_c = ref (-1) in
  (* Every color of [e]. A first scan asks once whether C(e, c) is empty
     (an almost augmenting sequence ends there); a rescan knows it is
     not, since the first one went on. The coloring is immutable during
     the search, so C(e, c) is fixed and is just walked again. An edge's
     own color needs no skip: its path is [e] itself, already in E_i,
     and costs no query. [walk] reads C(e, c) for [visit]. *)
  let rec scan_colors e ~first ~walk = function
    | [] -> ()
    | c :: rest ->
        if first && not (Coloring.path_exists coloring e c) then begin
          found_e := e;
          found_c := c
        end
        else begin
          cur := e;
          walk coloring e c visit;
          scan_colors e ~first ~walk rest
        end
  in
  let trace_back e c =
    (* walk pi pointers to the start edge; colors along the way are the
       current colors of the child edges (see Prop 3.3) *)
    let rec walk e c acc =
      let acc = (e, c) :: acc in
      let p = sc.parent.(e) in
      if p < 0 then acc
      else
        let c_prev =
          match Coloring.color coloring e with
          | Some c' -> c'
          | None -> assert false
        in
        walk p c_prev acc
    in
    walk e c []
  in
  (* Iteration i scans E_i newest member first, i.e. slots hi-1 down to
     0; members joining meanwhile wait for iteration i+1. Slots below
     [scanned] were scanned by iteration i-1. E_0 = {start} touches only
     start's endpoints, so iteration 0 reads only the end edges of each
     C(start, c), the only ones that can join E_1. With no region every
     end edge joins, so iteration 0 first asks for a free color, in the
     scan's order: a free color ends the search, the colors before it
     adding their end-edge counts and no edge read, and otherwise the
     scan walks the ends without asking again. *)
  let rec iterate i ~scanned growth =
    let hi = !explored in
    let walk = if i = 0 then Coloring.iter_path_ends else Coloring.iter_path in
    let asked = i = 0 && Option.is_none within in
    (if asked then
       let colors = Palette.get palette start in
       let c = first_free coloring start colors in
       if c >= 0 then begin
         found_e := start;
         found_c := c;
         explored := !explored + ends_before coloring start c 0 colors
       end);
    let s = ref (hi - 1) in
    while !s >= 0 && !found_e < 0 do
      let e = sc.members.(!s) in
      scan_colors e
        ~first:(!s >= scanned && not asked)
        ~walk (Palette.get palette e);
      decr s
    done;
    let stats () =
      { iterations = i; explored = !explored; growth = List.rev growth }
    in
    if !found_e >= 0 then Found (trace_back !found_e !found_c, stats ())
    else if !explored = hi then
      Stalled (stats (), stall_witness g sc ~now ~explored:hi)
    else begin
      (* register the vertices of fresh edges as touched only now: the
         paper's E_{e,c} is defined by adjacency to E_i, not E_{i+1} *)
      for s = hi to !explored - 1 do
        touch (G.src g sc.members.(s));
        touch (G.dst g sc.members.(s))
      done;
      iterate (i + 1) ~scanned:hi ((i + 1, !explored) :: growth)
    end
  in
  iterate 0 ~scanned:0 [ (0, 1) ]

let short_circuit ?scratch:sc coloring seq =
  match seq with
  | [] | [ _ ] | [ _; _ ] -> seq
  | _ ->
      (* Proposition 3.4: while some e_i lies on C(e_j, c_j) with
         j < i-1, splice out the middle, taking the smallest j and for it
         the largest i. After a splice no earlier j can cut again (the
         sequence only lost edges) and neither can j itself (i was the
         largest), so one forward pass does it. Paths refer to the
         unmodified coloring; each is marked on the scratch edge stamps
         and asked for at most once. *)
      let sc = scratch_for coloring sc in
      let arr = Array.of_list seq in
      let l = Array.length arr in
      let mark_path e c =
        sc.stamp <- sc.stamp + 1;
        let now = sc.stamp in
        Coloring.iter_path coloring e c (fun x -> sc.mark.(x) <- now);
        now
      in
      let rec pass j acc =
        if j >= l then List.rev acc
        else
          let ej, cj = arr.(j) in
          let next =
            if j + 2 >= l || not (Coloring.path_exists coloring ej cj) then
              j + 1
            else begin
              let now = mark_path ej cj in
              let i = ref (l - 1) in
              while !i >= j + 2 && sc.mark.(fst arr.(!i)) <> now do
                decr i
              done;
              if !i >= j + 2 then !i else j + 1
            end
          in
          pass next (arr.(j) :: acc)
      in
      pass 0 []

let apply coloring seq =
  (match seq with
  | [] -> invalid_arg "Augmenting.apply: empty sequence"
  | (e1, _) :: _ -> (
      match Coloring.color coloring e1 with
      | None -> ()
      | Some _ -> invalid_arg "Augmenting.apply: head edge is colored"));
  (* color from the tail forward (Lemma 3.1's induction); each step is
     validated by Coloring.set's cycle check *)
  List.iter (fun (e, c) -> Coloring.set coloring e c) (List.rev seq)

let augment_edge coloring palette ~edge ?within ?scratch:sc () =
  Obs.incr calls_counter;
  let sc = scratch_for coloring sc in
  match search coloring palette ~start:edge ?within ~scratch:sc () with
  | Stalled (stats, witness) ->
      Obs.incr stalls_counter;
      Obs.record explored_hist stats.explored;
      Error witness
  | Found (seq, stats) ->
      Obs.record explored_hist stats.explored;
      Obs.record iterations_hist stats.iterations;
      let seq = short_circuit ~scratch:sc coloring seq in
      if Obs.enabled () then Obs.record path_len_hist (List.length seq);
      apply coloring seq;
      Ok stats
