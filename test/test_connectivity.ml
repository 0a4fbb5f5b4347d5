(* Differential tests of the per-color root-labelled forests against
   the BFS oracle they replaced: random interleavings of
   set / unset / recolor must leave the labelled [would_close_cycle]
   (and [path]'s disconnection short-cut) agreeing with
   [oracle_would_close_cycle] on every query, the component counts and
   [connected] agreeing with a BFS after every operation, and the path
   orders right after every [unset] equal to those of a BFS forest
   rooted at each tree's lowest vertex; plus units for the repair after
   [unset] and for [copy] preserving coherence. *)

module G = Nw_graphs.Multigraph
module Gen = Nw_graphs.Generators
module Coloring = Nw_decomp.Coloring
module Verify = Nw_decomp.Verify

let rng seed = Random.State.make [| seed; 0xcafe |]

(* compare cached vs oracle on every (edge, color) pair of [c] *)
let check_all_queries ctx c =
  let g = Coloring.graph c in
  for e = 0 to G.m g - 1 do
    for col = 0 to Coloring.colors c - 1 do
      let cached = Coloring.would_close_cycle c e col in
      let oracle = Coloring.oracle_would_close_cycle c e col in
      if cached <> oracle then
        Alcotest.failf "%s: e=%d c=%d cached=%b oracle=%b" ctx e col cached
          oracle;
      (* path must be consistent with connectivity: None iff disconnected
         (when e is not itself colored col, where path is [Some [e]]) *)
      let p = Coloring.path c e col in
      let expect_some = oracle || Coloring.color c e = Some col in
      if (p <> None) <> expect_some then
        Alcotest.failf "%s: e=%d c=%d path=%s oracle=%b" ctx e col
          (match p with None -> "None" | Some _ -> "Some _")
          expect_some;
      (* when a path is extracted (and e is not its own singleton), it
         must be exactly the tree path: distinct edges of color [col]
         whose incidence degrees are 1 at the endpoints of e and 2 at
         interior vertices — in a forest that pins down the unique path *)
      match p with
      | Some edges when Coloring.color c e <> Some col ->
          let u, v = G.endpoints g e in
          let deg = Hashtbl.create 16 in
          let bump x =
            Hashtbl.replace deg x (1 + Option.value ~default:0 (Hashtbl.find_opt deg x))
          in
          let seen = Hashtbl.create 16 in
          List.iter
            (fun pe ->
              if Hashtbl.mem seen pe then
                Alcotest.failf "%s: e=%d c=%d duplicate path edge %d" ctx e
                  col pe;
              Hashtbl.replace seen pe ();
              if Coloring.color c pe <> Some col then
                Alcotest.failf "%s: e=%d c=%d path edge %d not color %d" ctx
                  e col pe col;
              let x, y = G.endpoints g pe in
              bump x;
              bump y)
            edges;
          Hashtbl.iter
            (fun x d ->
              let want = if x = u || x = v then 1 else 2 in
              if d <> want then
                Alcotest.failf
                  "%s: e=%d c=%d path vertex %d has degree %d, want %d" ctx
                  e col x d want)
            deg
      | _ -> ()
    done
  done

(* random mutation: set to a random legal color, unset, or recolor *)
let random_op st c =
  let g = Coloring.graph c in
  let e = Random.State.int st (G.m g) in
  let k = Coloring.colors c in
  match Random.State.int st 3 with
  | 0 -> Coloring.unset c e
  | _ ->
      let col = Random.State.int st k in
      if not (Coloring.would_close_cycle c e col) then Coloring.set c e col

let prop_differential =
  QCheck.Test.make ~name:"cached connectivity == BFS oracle under churn"
    ~count:40 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let st = rng seed in
      let n = 5 + Random.State.int st 10 in
      let g = Gen.erdos_renyi st n 0.45 in
      QCheck.assume (G.m g > 0);
      let colors = 1 + Random.State.int st 3 in
      let c = Coloring.create g ~colors in
      for step = 1 to 60 do
        random_op st c;
        (* query a random sample every step, everything every 20 steps *)
        if step mod 20 = 0 then check_all_queries "churn" c
        else begin
          let e = Random.State.int st (G.m g) in
          let col = Random.State.int st colors in
          let cached = Coloring.would_close_cycle c e col in
          let oracle = Coloring.oracle_would_close_cycle c e col in
          if cached <> oracle then
            Alcotest.failf "sample: e=%d c=%d cached=%b oracle=%b" e col
              cached oracle
        end;
        if Verify.partial_forest_decomposition c <> Ok () then
          Alcotest.fail "forest invariant broken"
      done;
      true)

let prop_component_counts =
  QCheck.Test.make
    ~name:"component size/edge-count match component_edges under churn"
    ~count:25 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let st = rng seed in
      let n = 5 + Random.State.int st 8 in
      let g = Gen.erdos_renyi st n 0.5 in
      QCheck.assume (G.m g > 0);
      let colors = 1 + Random.State.int st 2 in
      let c = Coloring.create g ~colors in
      for _ = 1 to 40 do
        random_op st c
      done;
      for v = 0 to G.n g - 1 do
        for col = 0 to colors - 1 do
          let edges = List.length (Coloring.component_edges c v col) in
          let size = Coloring.component_size c v col in
          let ecount = Coloring.component_edge_count c v col in
          if ecount <> edges then
            Alcotest.failf "v=%d c=%d edge count %d, BFS found %d" v col
              ecount edges;
          (* each color class is a forest: |V| = |E| + 1 per tree *)
          if size <> edges + 1 then
            Alcotest.failf "v=%d c=%d size %d vs edges %d" v col size edges
        done
      done;
      true)

(* the path walk against [path]: over random partial colorings of simple
   graphs and of multigraphs dense in parallel edges (graphs have no
   self-loops), [path_exists] is [path <> None] and agrees with the BFS
   oracle, it costs one counted connectivity query unless e has color c (then
   none), and [iter_path] emits [path]'s edges in [path]'s order without
   touching the query counters, counting its edges in path_edges — or
   refuses an empty C(e, c) *)
let prop_path_walk =
  QCheck.Test.make ~name:"iter_path walks path; path_exists = path <> None"
    ~count:40 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let st = rng seed in
      let g =
        if seed mod 2 = 0 then
          Gen.erdos_renyi st (4 + Random.State.int st 10) 0.45
        else begin
          let n = 3 + Random.State.int st 5 in
          let pair () =
            let u = Random.State.int st n in
            (u, (u + 1 + Random.State.int st (n - 1)) mod n)
          in
          G.of_edges n (List.init (2 + Random.State.int st 20) (fun _ -> pair ()))
        end
      in
      QCheck.assume (G.m g > 0);
      let colors = 1 + Random.State.int st 3 in
      let c = Coloring.create g ~colors in
      for _ = 1 to 3 * G.m g do
        random_op st c
      done;
      let uf () = (Coloring.Counters.snapshot ()).Coloring.Counters.uf_queries in
      let path_edges () = (Coloring.Counters.snapshot ()).path_edges in
      for e = 0 to G.m g - 1 do
        for col = 0 to colors - 1 do
          let p = Coloring.path c e col in
          let own = Coloring.color c e = Some col in
          let q0 = uf () in
          let exists = Coloring.path_exists c e col in
          if uf () - q0 <> (if own then 0 else 1) then
            Alcotest.failf "e=%d c=%d path_exists cost %d queries" e col
              (uf () - q0);
          if exists <> (p <> None) then
            Alcotest.failf "e=%d c=%d path_exists=%b path=%s" e col exists
              (if p = None then "None" else "Some _");
          if exists <> (own || Coloring.oracle_would_close_cycle c e col) then
            Alcotest.failf "e=%d c=%d path_exists disagrees with BFS" e col;
          let walked = ref [] in
          let q1 = uf () and p1 = path_edges () in
          (match Coloring.iter_path c e col (fun x -> walked := x :: !walked) with
          | () ->
              if p <> Some (List.rev !walked) then
                Alcotest.failf "e=%d c=%d walk differs from path" e col;
              if path_edges () - p1 <> List.length !walked then
                Alcotest.failf "e=%d c=%d path_edges counted %d of %d" e col
                  (path_edges () - p1) (List.length !walked)
          | exception Invalid_argument _ ->
              if p <> None then
                Alcotest.failf "e=%d c=%d walk refused a nonempty path" e col);
          if uf () <> q1 then Alcotest.failf "e=%d c=%d walk was counted" e col
        done
      done;
      true)

(* The BFS oracle of one color: every tree rooted at its lowest vertex
   (trees found from vertex 0 up), with parent vertex, parent edge,
   depth, tree id, tree vertex count and tree edge count per vertex. *)
type oracle_forest = {
  o_parent : int array;
  o_edge : int array;
  o_depth : int array;
  o_tree : int array;
  o_size : int array;
  o_edges : int array;
}

let oracle_forest c col =
  let n = G.n (Coloring.graph c) in
  let o_parent = Array.make n (-1) and o_edge = Array.make n (-1) in
  let o_depth = Array.make n (-1) and o_tree = Array.make n (-1) in
  let o_size = Array.make n 0 and o_edges = Array.make n 0 in
  for r = 0 to n - 1 do
    if o_depth.(r) < 0 then begin
      let members = ref [ r ] and edges = ref 0 in
      o_depth.(r) <- 0;
      let q = Queue.create () in
      Queue.add r q;
      while not (Queue.is_empty q) do
        let x = Queue.take q in
        List.iter
          (fun (w, e) ->
            incr edges;
            if o_depth.(w) < 0 then begin
              o_depth.(w) <- o_depth.(x) + 1;
              o_parent.(w) <- x;
              o_edge.(w) <- e;
              members := w :: !members;
              Queue.add w q
            end)
          (Coloring.colored_incident c x col)
      done;
      List.iter
        (fun x ->
          o_tree.(x) <- r;
          o_size.(x) <- List.length !members;
          o_edges.(x) <- !edges / 2)
        !members
    end
  done;
  { o_parent; o_edge; o_depth; o_tree; o_size; o_edges }

(* [C(e, c)] on the oracle forest in [iter_path]'s order: the u-side
   edges from u up to the lowest common ancestor, then the v-side ones
   from v up to it *)
let oracle_path o u v =
  let rec up x d acc =
    if o.o_depth.(x) > d then up o.o_parent.(x) d (o.o_edge.(x) :: acc)
    else (x, acc)
  in
  let x, us = up u o.o_depth.(v) [] and y, vs = up v o.o_depth.(u) [] in
  let rec meet x y us vs =
    if x = y then List.rev us @ List.rev vs
    else
      meet o.o_parent.(x) o.o_parent.(y) (o.o_edge.(x) :: us)
        (o.o_edge.(y) :: vs)
  in
  meet x y us vs

(* Random set/unset/recolor scripts over small forest_union multigraphs
   and simple graphs: after every operation, [connected],
   [component_size] and [component_edge_count] equal the BFS oracle's in
   every color; right after every colored edge leaves color c, the path
   of every edge whose endpoints c connects equals the oracle's order on
   a BFS forest rooted at each tree's lowest vertex. *)
let prop_repair_oracle =
  QCheck.Test.make
    ~name:"repair after unset == min-rooted BFS forest oracle"
    ~count:40 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let st = rng seed in
      let g =
        if seed mod 2 = 0 then
          Gen.forest_union st (4 + Random.State.int st 20)
            (1 + Random.State.int st 3)
        else Gen.erdos_renyi st (4 + Random.State.int st 16) 0.4
      in
      QCheck.assume (G.m g > 0);
      let n = G.n g and colors = 1 + Random.State.int st 3 in
      let c = Coloring.create g ~colors in
      let check_counts step =
        for col = 0 to colors - 1 do
          let o = oracle_forest c col in
          for u = 0 to n - 1 do
            if Coloring.component_size c u col <> o.o_size.(u) then
              Alcotest.failf "step %d: v=%d c=%d size %d, BFS %d" step u col
                (Coloring.component_size c u col) o.o_size.(u);
            if Coloring.component_edge_count c u col <> o.o_edges.(u) then
              Alcotest.failf "step %d: v=%d c=%d edge count %d, BFS %d" step
                u col
                (Coloring.component_edge_count c u col)
                o.o_edges.(u);
            for v = 0 to n - 1 do
              if Coloring.connected c col u v <> (o.o_tree.(u) = o.o_tree.(v))
              then
                Alcotest.failf "step %d: c=%d connected %d %d disagrees" step
                  col u v
            done
          done
        done
      in
      let check_paths step col =
        let o = oracle_forest c col in
        for e = 0 to G.m g - 1 do
          let u, v = G.endpoints g e in
          if Coloring.color c e <> Some col && o.o_tree.(u) = o.o_tree.(v)
          then begin
            let walked = ref [] in
            Coloring.iter_path c e col (fun x -> walked := x :: !walked);
            if List.rev !walked <> oracle_path o u v then
              Alcotest.failf "step %d: e=%d c=%d path order differs" step e
                col
          end
        done
      in
      for step = 1 to 6 * G.m g do
        let e = Random.State.int st (G.m g) in
        let before = Coloring.color c e in
        (match Random.State.int st 3 with
        | 0 -> Coloring.unset c e
        | _ ->
            let col = Random.State.int st colors in
            if not (Coloring.would_close_cycle c e col) then
              Coloring.set c e col);
        check_counts step;
        match (before, Coloring.color c e) with
        | Some c0, after when after <> before -> check_paths step c0
        | _ -> ()
      done;
      true)

(* [iter_path]'s edges incident to e's endpoints, in its order, or the
   message it refuses with *)
let walk_ends c e col =
  let g = Coloring.graph c in
  let u, v = G.endpoints g e in
  let acc = ref [] in
  match
    Coloring.iter_path c e col (fun x ->
        let a, b = G.endpoints g x in
        if a = u || a = v || b = u || b = v then acc := x :: !acc)
  with
  | () -> Ok (List.rev !acc)
  | exception Invalid_argument _ -> Error ()

let read_ends c e col =
  let acc = ref [] in
  match Coloring.iter_path_ends c e col (fun x -> acc := x :: !acc) with
  | () -> Ok (List.rev !acc)
  | exception Invalid_argument _ -> Error ()

(* Random multigraphs colored twice by the same random set/unset script
   (so trees a set left pending go stale): on every (edge, color),
   [iter_path_ends] on one twin emits [iter_path] on the other filtered
   to the edges at e's endpoints, in order, or refuses alike; both count
   the same repaired vertices and no query, path_edges counts the ends
   read, and [path_end_count] is their number. *)
let prop_path_ends =
  QCheck.Test.make ~name:"iter_path_ends == iter_path at e's endpoints"
    ~count:60 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let st = rng seed in
      let n = 3 + Random.State.int st 8 in
      let pair () =
        let u = Random.State.int st n in
        (u, (u + 1 + Random.State.int st (n - 1)) mod n)
      in
      let g =
        G.of_edges n (List.init (2 + Random.State.int st 25) (fun _ -> pair ()))
      in
      let colors = 1 + Random.State.int st 3 in
      let walked = Coloring.create g ~colors
      and read = Coloring.create g ~colors in
      let seed' = Random.State.bits st in
      let st_w = rng seed' and st_r = rng seed' in
      for _ = 1 to 3 * G.m g do
        random_op st_w walked;
        random_op st_r read
      done;
      let snap = Coloring.Counters.snapshot in
      for e = 0 to G.m g - 1 do
        for col = 0 to colors - 1 do
          let s0 = snap () in
          let want = walk_ends walked e col in
          let s1 = snap () in
          let got = read_ends read e col in
          let s2 = snap () in
          if got <> want then
            Alcotest.failf "e=%d c=%d ends differ from the walk's" e col;
          if
            s2.repair_vertices - s1.repair_vertices
            <> s1.repair_vertices - s0.repair_vertices
          then Alcotest.failf "e=%d c=%d repaired differently" e col;
          if s2.uf_queries <> s1.uf_queries then
            Alcotest.failf "e=%d c=%d ends were counted" e col;
          let read_count =
            match got with Ok l -> List.length l | Error () -> 0
          in
          if s2.path_edges - s1.path_edges <> read_count then
            Alcotest.failf "e=%d c=%d path_edges counted %d of %d ends" e col
              (s2.path_edges - s1.path_edges) read_count;
          match got with
          | Ok ends ->
              if Coloring.path_end_count read e col <> List.length ends then
                Alcotest.failf "e=%d c=%d path_end_count is wrong" e col
          | Error () -> ()
        done
      done;
      true)

(* unit: [iter_path_ends] on the cases its climb tells apart. Color 0 is
   the tree 0-1-2-3 plus 1-4, rooted at 0: C((0,3), 0) has u as its
   lowest common ancestor and C((3,0), 0) has v, C((1,2), 0) is one
   edge and C((2,4), 0) joins two vertices of equal depth. Color 1 is
   the path 3-4-5, set as (4,5) then (3,4), so rooted at 4 and pending;
   an unset elsewhere in color 1 makes the mark stale, and the read must
   re-root it at 3 first, as the walk does: C((3,5), 1) then has u as
   its ancestor, where the stale rooting had equal depths. Vertex 0 has
   no color-1 edge, so C((0,3), 1) is empty. *)
let test_path_ends_cases () =
  let g =
    G.of_edges 6
      [ (0, 1); (1, 2); (2, 3); (1, 4); (0, 3); (3, 0); (1, 2); (2, 4);
        (4, 5); (3, 5); (3, 4); (1, 2) ]
  in
  let build () =
    let c = Coloring.create g ~colors:2 in
    List.iter (fun e -> Coloring.set c e 0) [ 0; 1; 2; 3 ];
    List.iter (fun e -> Coloring.set c e 1) [ 8; 10; 11 ];
    Coloring.unset c 11;
    c
  in
  let walked = build () and read = build () in
  let repaired () = (Coloring.Counters.snapshot ()).repair_vertices in
  List.iter
    (fun (e, col, want) ->
      let r0 = repaired () in
      let w = walk_ends walked e col in
      let r1 = repaired () in
      let got = read_ends read e col in
      let r2 = repaired () in
      if w <> want then Alcotest.failf "e=%d c=%d: walk differs" e col;
      if got <> want then Alcotest.failf "e=%d c=%d: ends differ" e col;
      if r2 - r1 <> r1 - r0 then
        Alcotest.failf "e=%d c=%d: repaired differently" e col)
    [
      (4, 0, Ok [ 2; 0 ]);
      (5, 0, Ok [ 2; 0 ]);
      (6, 0, Ok [ 1 ]);
      (7, 0, Ok [ 1; 3 ]);
      (9, 1, Ok [ 8; 10 ]);
      (4, 1, Error ());
    ]

(* unit: a disconnection created by unset is visible on the very next
   query — the repair must relabel the detached subtree *)
let test_repair_after_unset () =
  let g = Gen.path 4 in
  (* path edges 0-1-2; color them all 0 *)
  let c = Coloring.create g ~colors:2 in
  Coloring.set c 0 0;
  Coloring.set c 1 0;
  Coloring.set c 2 0;
  Alcotest.(check bool) "endpoints of 1 connected without it" true
    (Coloring.would_close_cycle c 1 1 = false);
  (* edge 1 already colored 0: recoloring it 0 is a no-op; recoloring a
     parallel query color... the interesting query: would re-adding edge 1
     to color 0 close a cycle after unsetting it? *)
  Coloring.unset c 1;
  Alcotest.(check bool) "after unset, no cycle" false
    (Coloring.would_close_cycle c 1 0);
  Alcotest.(check bool) "oracle agrees" false
    (Coloring.oracle_would_close_cycle c 1 0);
  Coloring.set c 1 0;
  (* now drop an endpoint edge and check the separation is observed *)
  Coloring.unset c 0;
  Alcotest.(check int) "component size shrank" 3
    (Coloring.component_size c 1 0);
  Alcotest.(check int) "edge count shrank" 2
    (Coloring.component_edge_count c 1 0);
  Alcotest.(check int) "detached vertex isolated" 1
    (Coloring.component_size c 0 0)

(* unit: a cycle-closing set must be rejected with a clean cache even
   right after deletions dirtied a *different* color *)
let test_rejects_cycle_after_cross_color_churn () =
  let g = Gen.cycle 4 in
  let c = Coloring.create g ~colors:2 in
  Coloring.set c 0 0;
  Coloring.set c 1 0;
  Coloring.set c 2 0;
  Coloring.set c 3 1;
  Coloring.unset c 3;
  (* color 1 is now dirty; color 0 must still reject the cycle *)
  Alcotest.check_raises "cycle rejected"
    (Invalid_argument "Coloring.set: would close a cycle") (fun () ->
      Coloring.set c 3 0);
  Alcotest.(check bool) "color 1 repaired" false
    (Coloring.would_close_cycle c 3 1)

(* unit: copy preserves cache coherence — the copy answers like its own
   oracle and is unaffected by later mutation of the original *)
let test_copy_preserves_cache_coherence () =
  let st = rng 42 in
  let g = Gen.forest_union st 30 3 in
  let c = Coloring.create g ~colors:4 in
  for _ = 1 to 120 do
    random_op st c
  done;
  let d = Coloring.copy c in
  check_all_queries "fresh copy" d;
  (* mutate the original; the copy must not notice *)
  let before = Coloring.to_array d in
  for _ = 1 to 60 do
    random_op st c
  done;
  Alcotest.(check bool) "copy unchanged" true (Coloring.to_array d = before);
  check_all_queries "copy after original churn" d;
  check_all_queries "churned original" c

(* -------------------------------------------------------------------- *)
(* dynamic-graph differential: add_edge/connected vs a DFS oracle       *)
(* -------------------------------------------------------------------- *)

(* The session layer's churn pattern (docs/service.md): an insertion
   appends an edge to the live coloring in place and probes the palette
   with [connected]; a deletion tombstones a slot (unset — slot ids are
   never reused). Replay one op script on the coloring cache and check
   every probe, every chosen insertion color, the final snapshot and
   the rebuilt graph against a from-scratch DFS oracle. *)

type dyn_op =
  | Insert of int * int
  | Delete of int  (** tombstone slot [i] *)
  | Probe of int * int * int  (** color, u, v *)

let gen_script st n k steps =
  let slots = ref 0 in
  let ops = ref [] in
  for _ = 1 to steps do
    let r = Random.State.int st 10 in
    if r < 4 || !slots = 0 then begin
      let u = Random.State.int st n in
      let v = (u + 1 + Random.State.int st (n - 1)) mod n in
      ops := Insert (u, v) :: !ops;
      incr slots
    end
    else if r < 6 then ops := Delete (Random.State.int st !slots) :: !ops
    else
      ops :=
        Probe
          ( Random.State.int st k,
            Random.State.int st n,
            Random.State.int st n )
        :: !ops
  done;
  List.rev !ops

(* replay on the cache; every Insert appends through [add_edge],
   mirroring Session.insert_edge *)
let replay n k script =
  let edges = ref [] (* reversed *) in
  let c = Coloring.create (G.of_edges n []) ~colors:k in
  let probes = ref [] and chosen = ref [] in
  List.iter
    (fun op ->
      match op with
      | Insert (u, v) ->
          let e = Coloring.add_edge c u v in
          if e <> List.length !edges then
            Alcotest.fail "add_edge did not return the next edge id";
          edges := (u, v) :: !edges;
          let col = ref (-1) in
          (try
             for cand = 0 to k - 1 do
               if not (Coloring.connected c cand u v) then begin
                 col := cand;
                 raise Exit
               end
             done
           with Exit -> ());
          if !col >= 0 then Coloring.set c e !col;
          chosen := !col :: !chosen
      | Delete i -> if Coloring.color c i <> None then Coloring.unset c i
      | Probe (col, u, v) ->
          probes := Coloring.connected c col u v :: !probes)
    script;
  if G.edges (Coloring.graph c) <> Array.of_list (List.rev !edges) then
    Alcotest.fail "the rebuilt graph differs from the inserted edges";
  (List.rev !probes, List.rev !chosen, Coloring.to_array c)

(* the DFS oracle replays the same script over a plain slot table *)
let replay_oracle n k script =
  let slots = ref [] (* (u, v, color option) reversed *) in
  let connected col u v =
    if u = v then true
    else begin
      let adj = Array.make n [] in
      List.iter
        (fun (x, y, c) ->
          if c = Some col then begin
            adj.(x) <- y :: adj.(x);
            adj.(y) <- x :: adj.(y)
          end)
        !slots;
      let seen = Array.make n false in
      let rec dfs x =
        if not seen.(x) then begin
          seen.(x) <- true;
          List.iter dfs adj.(x)
        end
      in
      dfs u;
      seen.(v)
    end
  in
  let probes = ref [] and chosen = ref [] in
  List.iter
    (fun op ->
      match op with
      | Insert (u, v) ->
          let col = ref (-1) in
          (try
             for cand = 0 to k - 1 do
               if !col < 0 && not (connected cand u v) then begin
                 col := cand;
                 raise Exit
               end
             done
           with Exit -> ());
          slots := (u, v, if !col >= 0 then Some !col else None) :: !slots;
          chosen := !col :: !chosen
      | Delete i ->
          slots :=
            List.mapi
              (fun j (u, v, c) ->
                if List.length !slots - 1 - j = i then (u, v, None)
                else (u, v, c))
              !slots
      | Probe (col, u, v) -> probes := connected col u v :: !probes)
    script;
  let snapshot =
    Array.of_list (List.rev_map (fun (_, _, c) -> c) !slots)
  in
  (List.rev !probes, List.rev !chosen, snapshot)

let prop_add_edge_connected_differential =
  QCheck.Test.make
    ~name:"extend/connected == DFS oracle under tombstoned churn"
    ~count:30 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let st = rng seed in
      let n = 5 + Random.State.int st 8 in
      let k = 1 + Random.State.int st 3 in
      let script = gen_script st n k 50 in
      let bp, bc, bs = replay n k script in
      let op, oc, os = replay_oracle n k script in
      if bp <> op then Alcotest.fail "probe answers differ from the oracle";
      if bc <> oc then Alcotest.fail "insertion colors differ from the oracle";
      if bs <> os then Alcotest.fail "final snapshot differs from the oracle";
      true)

(* -------------------------------------------------------------------- *)
(* bulk constructor: of_assignment vs create + ascending set            *)
(* -------------------------------------------------------------------- *)

(* a random multigraph, dense in parallel edges when [n] is small *)
let random_multigraph st =
  let n = 2 + Random.State.int st 9 in
  let pair () =
    let u = Random.State.int st n in
    (u, (u + 1 + Random.State.int st (n - 1)) mod n)
  in
  G.of_edges n (List.init (Random.State.int st 30) (fun _ -> pair ()))

(* a random forest coloring over colors [0..k-1] (-1 uncolored): each
   edge draws a color and keeps it unless it closes a cycle there; one
   color is never drawn, so empty colors occur at every position *)
let random_forest_assignment st g k =
  let ufs = Array.init k (fun _ -> Nw_graphs.Union_find.create (G.n g)) in
  let skip = Random.State.int st k in
  Array.init (G.m g) (fun e ->
      let c = Random.State.int st (k + 1) - 1 in
      let u, v = G.endpoints g e in
      if c >= 0 && c <> skip && Nw_graphs.Union_find.union ufs.(c) u v then c
      else -1)

(* what [create] + [set] in ascending edge order builds, or raises *)
let eager_assignment g k assign =
  let c = Coloring.create g ~colors:k in
  Array.iteri (fun e x -> if x <> -1 then Coloring.set c e x) assign;
  c

let outcome f =
  match f () with
  | x -> Ok x
  | exception Invalid_argument msg -> Error msg

(* one random call, answered as a string ("!" + message when it raises) *)
let random_call st c =
  let g = Coloring.graph c in
  let n = G.n g and m = G.m g and k = Coloring.colors c in
  let e () = Random.State.int st m and v () = Random.State.int st n in
  let col () = Random.State.int st k in
  let ints l = String.concat "," (List.map string_of_int l) in
  let answer f =
    match f () with s -> s | exception Invalid_argument msg -> "!" ^ msg
  in
  if m = 0 then string_of_bool (Coloring.connected c (col ()) (v ()) (v ()))
  else
    match Random.State.int st 9 with
    | 0 | 1 ->
        let e = e () and x = col () in
        answer (fun () -> Coloring.set c e x; "set")
    | 2 ->
        let e = e () in
        Coloring.unset c e;
        "unset"
    | 3 ->
        let x = col () and u = v () and w = v () in
        string_of_bool (Coloring.connected c x u w)
    | 4 ->
        let e = e () and x = col () in
        answer (fun () ->
            let acc = ref [] in
            Coloring.iter_path c e x (fun p -> acc := p :: !acc);
            ints (List.rev !acc))
    | 5 ->
        let e = e () and x = col () in
        (match Coloring.path c e x with None -> "none" | Some p -> ints p)
    | 6 ->
        let u = v () and x = col () in
        string_of_int (Coloring.component_size c u x)
    | 7 ->
        let u = v () and x = col () in
        let acc = ref [] in
        Coloring.iter_colored_incident c u x (fun w e -> acc := e :: w :: !acc);
        ints (List.rev !acc)
    | _ ->
        let u = v () in
        let w = (u + 1 + Random.State.int st (max 1 (n - 1))) mod n in
        if u = w then "loop" else string_of_int (Coloring.add_edge c u w)

(* Random forest colorings of random multigraphs, empty colors
   included: [of_assignment] and [create] + ascending [set] then take
   the same random calls (one random state each, seeded alike) and must
   give the same answers, path orders and adjacency orders included,
   with the same Counters deltas call by call, and the same final
   colors. A cyclic or out-of-range assignment raises in both alike. *)
let prop_bulk_constructor =
  QCheck.Test.make ~name:"of_assignment == create + ascending set"
    ~count:300 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let st = rng seed in
      let g = random_multigraph st in
      let k = 1 + Random.State.int st 4 in
      let assign = random_forest_assignment st g k in
      (* one in four: a random coloring, cyclic or out of range *)
      if Random.State.int st 4 = 0 && G.m g > 0 then begin
        let bad = Array.map (fun _ -> Random.State.int st (k + 3) - 2) assign in
        let want = outcome (fun () -> ignore (eager_assignment g k bad)) in
        let got =
          outcome (fun () -> ignore (Coloring.of_assignment g ~colors:k bad))
        in
        if got <> want then Alcotest.fail "of_assignment raised unlike set"
      end;
      let lazy_c = Coloring.of_assignment g ~colors:k assign in
      let eager_c = eager_assignment g k assign in
      let seed' = Random.State.bits st in
      let st_l = rng seed' and st_e = rng seed' in
      let snap = Coloring.Counters.snapshot in
      for step = 1 to 60 do
        let l0 = snap () in
        let a = random_call st_l lazy_c in
        let l1 = snap () in
        let b = random_call st_e eager_c in
        let e1 = snap () in
        if a <> b then
          Alcotest.failf "step %d: of_assignment answered %S, set %S" step a b;
        let delta (x : Coloring.Counters.snapshot)
            (y : Coloring.Counters.snapshot) =
          ( y.uf_queries - x.uf_queries,
            y.bfs_runs - x.bfs_runs,
            y.uf_rebuilds - x.uf_rebuilds,
            y.repair_vertices - x.repair_vertices )
        in
        if delta l0 l1 <> delta l1 e1 then
          Alcotest.failf "step %d: counters moved differently after %S" step a
      done;
      if Coloring.to_array lazy_c <> Coloring.to_array eager_c then
        Alcotest.fail "final colors differ";
      true)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "nw_connectivity"
    [
      ( "units",
        [
          Alcotest.test_case "repair after unset" `Quick
            test_repair_after_unset;
          Alcotest.test_case "cross-color churn" `Quick
            test_rejects_cycle_after_cross_color_churn;
          Alcotest.test_case "copy coherence" `Quick
            test_copy_preserves_cache_coherence;
          Alcotest.test_case "path ends" `Quick test_path_ends_cases;
        ] );
      qsuite "differential"
        [
          prop_differential;
          prop_component_counts;
          prop_path_walk;
          prop_path_ends;
          prop_repair_oracle;
        ];
      qsuite "dynamic"
        [ prop_add_edge_connected_differential; prop_bulk_constructor ];
    ]
