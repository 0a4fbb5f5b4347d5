(* Differential tests of the incremental per-color connectivity cache
   against the BFS oracle it replaced: random interleavings of
   set / unset / recolor must leave the cached [would_close_cycle] (and
   [path]'s disconnection short-cut) agreeing with
   [oracle_would_close_cycle] on every query, plus units for the lazy
   rebuild after [unset] and for [copy] preserving cache coherence. *)

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

(* unit: a disconnection created by unset is visible on the very next
   query — the generation counter must force the lazy rebuild *)
let test_lazy_rebuild_after_unset () =
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
  Alcotest.(check bool) "color 1 rebuilt lazily" false
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
(* dynamic-graph differential: extend/connected vs a DFS oracle         *)
(* -------------------------------------------------------------------- *)

(* The session layer's churn pattern (docs/service.md): an insertion
   extends the live coloring onto a supergraph and probes the palette
   with [connected]; a deletion tombstones a slot (unset — slot ids are
   never reused). Replay one op script on the coloring cache and check
   every probe, every chosen insertion color, and the final snapshot
   against a from-scratch DFS oracle. *)

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

(* replay on the cache; every Insert rebuilds the supergraph and goes
   through [extend], mirroring Session.insert_edge *)
let replay n k script =
  let edges = ref [] (* reversed *) in
  let c = ref (Coloring.create (G.of_edges n []) ~colors:k) in
  let probes = ref [] and chosen = ref [] in
  List.iter
    (fun op ->
      match op with
      | Insert (u, v) ->
          edges := (u, v) :: !edges;
          let g' = G.of_edges n (List.rev !edges) in
          c := Coloring.extend !c g';
          let e = G.m g' - 1 in
          let col = ref (-1) in
          (try
             for cand = 0 to k - 1 do
               if not (Coloring.connected !c cand u v) then begin
                 col := cand;
                 raise Exit
               end
             done
           with Exit -> ());
          if !col >= 0 then Coloring.set !c e !col;
          chosen := !col :: !chosen
      | Delete i -> if Coloring.color !c i <> None then Coloring.unset !c i
      | Probe (col, u, v) ->
          probes := Coloring.connected !c col u v :: !probes)
    script;
  (List.rev !probes, List.rev !chosen, Coloring.to_array !c)

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

let prop_extend_connected_differential =
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

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "nw_connectivity"
    [
      ( "units",
        [
          Alcotest.test_case "lazy rebuild after unset" `Quick
            test_lazy_rebuild_after_unset;
          Alcotest.test_case "cross-color churn" `Quick
            test_rejects_cycle_after_cross_color_churn;
          Alcotest.test_case "copy coherence" `Quick
            test_copy_preserves_cache_coherence;
        ] );
      qsuite "differential"
        [ prop_differential; prop_component_counts ];
      qsuite "dynamic"
        [ prop_extend_connected_differential ];
    ]
