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

type outcome = Found of sequence * search_stats | Stalled of search_stats

(* Timestamped scratch for Algorithm 1, reusable across searches on the
   same coloring (the hot loops of Forest_algo and Gabow–Westermann run
   one search per edge): membership of the growing edge set E_i, the
   BFS parent pointers pi : edge -> parent edge (line 9), and the
   "touched" vertex set, all as int arrays stamped per search — no
   hashing, no per-search allocation. *)
type scratch = {
  in_set : int array; (* edge -> stamp when it joined E_i *)
  parent : int array; (* edge -> parent edge (valid when current) *)
  touched : int array; (* vertex -> stamp when first covered by E_i *)
  mutable stamp : int;
}

let scratch coloring =
  let g = Coloring.graph coloring in
  {
    in_set = Array.make (max 1 (G.m g)) 0;
    parent = Array.make (max 1 (G.m g)) (-1);
    touched = Array.make (max 1 (G.n g)) 0;
    stamp = 0;
  }

let edge_allowed g within e =
  match within with
  | None -> true
  | Some members -> members.(G.src g e) && members.(G.dst g e)

let search coloring palette ~start ?within ?scratch:sc () =
  let g = Coloring.graph coloring in
  (match Coloring.color coloring start with
  | None -> ()
  | Some _ -> invalid_arg "Augmenting.search: start edge already colored");
  if not (edge_allowed g within start) then
    invalid_arg "Augmenting.search: start edge outside the search region";
  let sc =
    match sc with
    | Some sc ->
        if
          Array.length sc.in_set < G.m g
          || Array.length sc.touched < G.n g
        then invalid_arg "Augmenting.search: scratch from a smaller graph";
        sc
    | None -> scratch coloring
  in
  Obs.span "augment.search" @@ fun () ->
  sc.stamp <- sc.stamp + 1;
  let now = sc.stamp in
  let explored = ref 0 in
  let in_set e = sc.in_set.(e) = now in
  let touched v = sc.touched.(v) = now in
  let touch v = sc.touched.(v) <- now in
  let add_edge e p =
    sc.in_set.(e) <- now;
    sc.parent.(e) <- p;
    incr explored
  in
  add_edge start (-1);
  touch (G.src g start);
  touch (G.dst g start);
  (* the coloring is immutable for the duration of the search, so
     C(e, c) is a fixed path; memoize it per (edge, color) — members
     are rescanned on every iteration and would otherwise re-extract
     the same path *)
  let path_memo = Hashtbl.create 64 in
  let path e c =
    match Hashtbl.find_opt path_memo (e, c) with
    | Some p -> p
    | None ->
        let p = Coloring.path coloring e c in
        Hashtbl.add path_memo (e, c) p;
        p
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
  let growth = ref [ (0, 1) ] in
  let rec iterate i members =
    (* members: current E_i as a list; process every (edge, color) *)
    let found = ref None in
    let fresh = ref [] in
    let consider e =
      let own_color = Coloring.color coloring e in
      let rec colors = function
        | [] -> ()
        | c :: rest ->
            if !found <> None then ()
            else if own_color = Some c then colors rest
            else begin
              (match path e c with
              | None ->
                  (* C(e, c) = ∅: almost augmenting sequence found *)
                  found := Some (trace_back e c)
              | Some path_edges ->
                  (* add path edges adjacent to E_i (and allowed) *)
                  List.iter
                    (fun e' ->
                      if (not (in_set e')) && edge_allowed g within e'
                      then begin
                        if touched (G.src g e') || touched (G.dst g e')
                        then begin
                          add_edge e' e;
                          fresh := e' :: !fresh
                        end
                      end)
                    path_edges);
              colors rest
            end
      in
      colors (Palette.get palette e)
    in
    let rec scan = function
      | [] -> ()
      | e :: rest ->
          if !found = None then begin
            consider e;
            scan rest
          end
    in
    scan members;
    let stats () =
      { iterations = i; explored = !explored; growth = List.rev !growth }
    in
    match !found with
    | Some seq -> Found (seq, stats ())
    | None ->
        (* register the vertices of fresh edges as touched only now:
           the paper's E_{e,c} is defined by adjacency to E_i, not
           E_{i+1} *)
        List.iter
          (fun e ->
            touch (G.src g e);
            touch (G.dst g e))
          !fresh;
        if !fresh = [] then Stalled (stats ())
        else begin
          growth := (i + 1, !explored) :: !growth;
          iterate (i + 1) (!fresh @ members)
        end
  in
  iterate 0 [ start ]

let short_circuit coloring seq =
  (* Proposition 3.4: while some e_i lies on C(e_j, c_j) with j < i-1,
     splice out the middle. Paths refer to the unmodified coloring, so
     each is memoized per (edge, color) — as a hashed edge set, making
     every membership probe O(1) instead of a List.mem scan. *)
  let memo = Hashtbl.create 64 in
  let path_set e c =
    match Hashtbl.find_opt memo (e, c) with
    | Some s -> s
    | None ->
        let s =
          match Coloring.path coloring e c with
          | None -> None
          | Some edges ->
              let h = Hashtbl.create (2 * List.length edges) in
              List.iter (fun x -> Hashtbl.replace h x ()) edges;
              Some h
        in
        Hashtbl.add memo (e, c) s;
        s
  in
  let on_path e (ej, cj) =
    match path_set ej cj with None -> false | Some h -> Hashtbl.mem h e
  in
  let rec compress seq =
    let arr = Array.of_list seq in
    let l = Array.length arr in
    let cut = ref None in
    (* find the pair with the smallest j then largest i for a maximal
       cut *)
    (try
       for j = 0 to l - 3 do
         for i = l - 1 downto j + 2 do
           if !cut = None && on_path (fst arr.(i)) arr.(j) then begin
             cut := Some (j, i);
             raise Exit
           end
         done
       done
     with Exit -> ());
    match !cut with
    | None -> seq
    | Some (j, i) ->
        let prefix = Array.to_list (Array.sub arr 0 (j + 1)) in
        let suffix = Array.to_list (Array.sub arr i (l - i)) in
        compress (prefix @ suffix)
  in
  compress seq

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

let augment_edge coloring palette ~edge ?within ?scratch () =
  Obs.count "augment.calls";
  match search coloring palette ~start:edge ?within ?scratch () with
  | Stalled stats ->
      Obs.count "augment.stalls";
      Obs.observe "augment.explored" (float_of_int stats.explored);
      None
  | Found (seq, stats) ->
      Obs.observe "augment.explored" (float_of_int stats.explored);
      Obs.observe "augment.iterations" (float_of_int stats.iterations);
      let seq = short_circuit coloring seq in
      Obs.observe "augment.path_len" (float_of_int (List.length seq));
      apply coloring seq;
      Some stats
