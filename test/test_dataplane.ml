(* Data-plane suite: the one adjacency layout of Multigraph and the
   streaming rounds of the message kernel that scan it
   (docs/data-plane.md).

   Part 1 — qcheck differential: on random multigraphs (parallel edges
   included), every Multigraph query agrees with a naive model written
   here — incident lists by scanning edge ids, balls by list BFS —
   iteration order included, since the determinism contract of the whole
   repo is phrased over adjacency order.

   Part 2 — streaming rounds: [round_count], [round_exchange] and
   [round_exchange_edges] give the same states and delivered-message
   counts as [round] driven with the equivalent per-message send/recv.

   Part 3 — domain invariance: one engine-registry pipeline, the
   H-partition peel and the message kernel under a fault plan produce
   byte-identical outputs, ledgers and fault-timeline digests at every
   domain count. *)

module G = Nw_graphs.Multigraph
module Gen = Nw_graphs.Generators
module Dpool = Nw_localsim.Dpool
module Net = Nw_localsim.Msg_net
module Rounds = Nw_localsim.Rounds
module Coloring = Nw_decomp.Coloring
module Registry = Nw_engine.Registry
module Engine = Nw_engine.Engine
module EStore = Nw_engine.Store
module Artifact = Nw_engine.Artifact

let rng seed = Random.State.make [| seed; 0xc5a |]

(* random multigraph as an explicit edge list: duplicates (parallel
   edges) are likely at these densities, which is the point *)
let random_edges st n m =
  List.init m (fun _ ->
      let u = Random.State.int st n in
      let v = Random.State.int st (n - 1) in
      let v = if v >= u then v + 1 else v in
      (u, v))

(* ------------------------------------------------------------------ *)
(* the naive model                                                     *)
(* ------------------------------------------------------------------ *)

(* a graph is its vertex count and edge array; edge id = array index *)
type model = { mn : int; medges : (int * int) array }

let model_of n edges = { mn = n; medges = Array.of_list edges }

(* incident pairs of [v] by scanning every edge id in ascending order *)
let model_incident md v =
  let acc = ref [] in
  Array.iteri
    (fun e (a, b) ->
      if a = v then acc := (b, e) :: !acc
      else if b = v then acc := (a, e) :: !acc)
    md.medges;
  List.rev !acc

(* BFS over list queues; vertices come out in reversed visit order *)
let model_ball md v r =
  let dist = Array.make md.mn (-1) in
  dist.(v) <- 0;
  let rec go queue visited =
    match queue with
    | [] -> visited
    | u :: rest ->
        let next =
          if dist.(u) >= r then []
          else
            List.filter_map
              (fun (w, _) ->
                if dist.(w) < 0 then begin
                  dist.(w) <- dist.(u) + 1;
                  Some w
                end
                else None)
              (model_incident md u)
        in
        go (rest @ next) (u :: visited)
  in
  go [ v ] []

let model_ball_of_set md vs r =
  let member = Array.make md.mn false in
  List.iter
    (fun v -> List.iter (fun u -> member.(u) <- true) (model_ball md v r))
    vs;
  member

let model_is_simple md =
  let keys =
    Array.to_list
      (Array.map (fun (a, b) -> if a < b then (a, b) else (b, a)) md.medges)
  in
  List.length (List.sort_uniq compare keys) = List.length keys

(* every query, compared for one (multigraph, model) pair; raises on the
   first mismatch so qcheck reports the seed *)
let check_model g md =
  let fail fmt = Printf.ksprintf failwith fmt in
  let m = Array.length md.medges in
  if G.n g <> md.mn then fail "n: %d vs %d" (G.n g) md.mn;
  if G.m g <> m then fail "m: %d vs %d" (G.m g) m;
  Array.iteri
    (fun e (a, b) ->
      if G.endpoints g e <> (a, b) then fail "endpoints %d" e;
      if G.src g e <> a || G.dst g e <> b then fail "src/dst %d" e;
      if G.other_endpoint g e a <> b || G.other_endpoint g e b <> a then
        fail "other_endpoint %d" e)
    md.medges;
  let max_deg = ref 0 in
  for v = 0 to md.mn - 1 do
    let want = model_incident md v in
    max_deg := max !max_deg (List.length want);
    if G.degree g v <> List.length want then fail "degree %d" v;
    if Array.to_list (G.incident g v) <> want then fail "incident %d" v;
    let iterated = ref [] in
    G.iter_incident g v (fun w e -> iterated := (w, e) :: !iterated);
    if List.rev !iterated <> want then fail "iter_incident order %d" v;
    if
      List.rev (G.fold_incident g v ~init:[] (fun acc w e -> (w, e) :: acc))
      <> want
    then fail "fold_incident order %d" v
  done;
  if G.max_degree g <> !max_deg then fail "max_degree";
  if G.edges g <> md.medges then fail "edges";
  if
    List.rev (G.fold_edges (fun e u v acc -> (e, u, v) :: acc) g [])
    <> List.mapi (fun e (u, v) -> (e, u, v)) (Array.to_list md.medges)
  then fail "fold_edges order";
  if G.is_simple g <> model_is_simple md then fail "is_simple";
  for v = 0 to min (md.mn - 1) 7 do
    for r = 0 to 3 do
      if G.ball g v r <> model_ball md v r then fail "ball %d r=%d" v r
    done
  done;
  let set = List.filteri (fun i _ -> i mod 3 = 0) (List.init md.mn Fun.id) in
  for r = 0 to 3 do
    if G.ball_of_set g set r <> model_ball_of_set md set r then
      fail "ball_of_set r=%d" r
  done

let model_of_graph g = { mn = G.n g; medges = G.edges g }

let prop_of_edges =
  QCheck.Test.make ~name:"Multigraph.of_edges == naive model on every op"
    ~count:200 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let st = rng seed in
      let n = 2 + Random.State.int st 30 in
      let m = Random.State.int st 80 in
      let edges = random_edges st n m in
      check_model (G.of_edges n edges) (model_of n edges);
      true)

(* two builders fed the same edges alternately get the model's
   sequential ids, and a graph frozen mid-way is unaffected by the
   edges added after it *)
let prop_builder =
  QCheck.Test.make ~name:"interleaved builders assign identical edge ids"
    ~count:100 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let st = rng seed in
      let n = 2 + Random.State.int st 20 in
      let steps = Random.State.int st 60 in
      let cut = Random.State.int st (steps + 1) in
      let a = G.create_builder n and b = G.create_builder n in
      let added = ref [] and snapshot = ref None in
      for i = 0 to steps - 1 do
        if i = cut then snapshot := Some (G.build a, List.rev !added);
        let u = Random.State.int st n in
        let v = Random.State.int st (n - 1) in
        let v = if v >= u then v + 1 else v in
        let id = G.add_edge a u v and id' = G.add_edge b u v in
        if id <> i || id' <> i then failwith "edge id mismatch";
        added := (u, v) :: !added
      done;
      let edges = List.rev !added in
      check_model (G.build a) (model_of n edges);
      check_model (G.build b) (model_of n edges);
      (match !snapshot with
      | Some (g, prefix) -> check_model g (model_of n prefix)
      | None -> ());
      true)

(* the derived graphs the decomposition core builds per color: kept
   edges renumbered in ascending original id, vertex ids preserved *)
let prop_subgraph =
  QCheck.Test.make ~name:"subgraph_of_edges / induced match the model"
    ~count:100 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let st = rng seed in
      let n = 2 + Random.State.int st 30 in
      let edges = random_edges st n (Random.State.int st 80) in
      let g = G.of_edges n edges in
      let keep = Array.init (G.m g) (fun _ -> Random.State.bool st) in
      let sub, emap = G.subgraph_of_edges g keep in
      let kept = List.filteri (fun e _ -> keep.(e)) edges in
      check_model sub (model_of n kept);
      if
        Array.to_list emap
        <> List.filter (fun e -> keep.(e)) (List.init (G.m g) Fun.id)
      then failwith "subgraph emap";
      let members = Array.init n (fun _ -> Random.State.bool st) in
      let ind, vmap, emap = G.induced g members in
      let vs = List.filter (fun v -> members.(v)) (List.init n Fun.id) in
      let new_id = Array.make n (-1) in
      List.iteri (fun i v -> new_id.(v) <- i) vs;
      let inside =
        List.filter
          (fun e ->
            let u, v = G.endpoints g e in
            members.(u) && members.(v))
          (List.init (G.m g) Fun.id)
      in
      check_model ind
        (model_of (List.length vs)
           (List.map
              (fun e ->
                let u, v = G.endpoints g e in
                (new_id.(u), new_id.(v)))
              inside));
      Array.to_list vmap = vs && Array.to_list emap = inside)

let prop_generated_families =
  QCheck.Test.make ~name:"model differential over generator families"
    ~count:40 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let st = rng seed in
      let n = 10 + Random.State.int st 40 in
      let g =
        match Random.State.int st 3 with
        | 0 -> Gen.forest_union st n 3
        | 1 -> Gen.line_multigraph (max 2 (n / 4)) 5
        | _ -> Gen.erdos_renyi st n 0.2
      in
      check_model g (model_of_graph g);
      true)

(* ------------------------------------------------------------------ *)
(* streaming rounds == the per-message round                           *)
(* ------------------------------------------------------------------ *)

(* Each streaming round is run against [round] with the equivalent
   per-message send/recv on the same graph and initial states, at K=1
   and K=4. The receive functions are order-insensitive beyond edge
   identity, as the primitives require. *)

let stream_graph seed =
  let st = rng seed in
  let n = 2 + Random.State.int st 40 in
  (G.of_edges n (random_edges st n (Random.State.int st 120)), st)

let incident_msgs g v x =
  List.rev (G.fold_incident g v ~init:[] (fun acc _ e -> (e, x e) :: acc))

let run_both ~domains g ~init ~stream ~reference =
  Dpool.with_domains domains @@ fun () ->
  let go step =
    let net = Net.create g ~rounds:(Rounds.create ()) ~init in
    for r = 1 to 3 do
      step net r
    done;
    (Array.to_list (Net.states net), Net.messages_delivered net)
  in
  (go stream, go reference)

let same_outcome (a, b) = a = b

let prop_stream_count =
  QCheck.Test.make ~name:"round_count == per-message round" ~count:60
    (QCheck.int_bound 1_000_000)
    (fun seed ->
      let g, st = stream_graph seed in
      let salt = Random.State.int st 1000 in
      let decide v s = (v + s + salt) mod 3 <> 0 in
      let recv v s k = (s * 7) + k + v in
      List.for_all
        (fun domains ->
          same_outcome
            (run_both ~domains g
               ~init:(fun v -> v land 7)
               ~stream:(fun net _ ->
                 Net.round_count net ~label:"t" ~decide ~recv)
               ~reference:(fun net _ ->
                 Net.round net ~label:"t"
                   ~send:(fun v s ->
                     if decide v s then incident_msgs g v (fun _ -> ())
                     else [])
                   ~recv:(fun v s msgs -> recv v s (List.length msgs)))))
        [ 1; 4 ])

(* an order-insensitive inbox digest: sum over messages of a mix of
   edge id and payload *)
let fold_inbox v s iter =
  let acc = ref ((s * 31) + v) in
  iter (fun e x -> acc := !acc + (((e + 1) * 1009) lxor x));
  !acc land 0xffffff

let prop_stream_exchange =
  QCheck.Test.make ~name:"round_exchange == per-message round" ~count:60
    (QCheck.int_bound 1_000_000)
    (fun seed ->
      let g, _ = stream_graph seed in
      let value v s = (v * 13) + s in
      List.for_all
        (fun domains ->
          same_outcome
            (run_both ~domains g
               ~init:(fun v -> v)
               ~stream:(fun net _ ->
                 Net.round_exchange net ~label:"t" ~value ~recv:fold_inbox)
               ~reference:(fun net _ ->
                 Net.round net ~label:"t"
                   ~send:(fun v s -> incident_msgs g v (fun _ -> value v s))
                   ~recv:(fun v s msgs ->
                     fold_inbox v s (fun f ->
                         List.iter (fun (e, x) -> f e x) msgs)))))
        [ 1; 4 ])

(* [value] must be pure over the round: it reads a per-vertex table
   and the round number, never the state [recv] rewrites *)
let prop_stream_exchange_edges =
  QCheck.Test.make ~name:"round_exchange_edges == per-message round"
    ~count:60 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let g, st = stream_graph seed in
      let base = Array.init (G.n g) (fun _ -> Random.State.int st 1000) in
      let value r v _ e = (base.(v) * 13) + (e * 3) + r in
      List.for_all
        (fun domains ->
          same_outcome
            (run_both ~domains g
               ~init:(fun v -> v)
               ~stream:(fun net r ->
                 Net.round_exchange_edges net ~label:"t" ~value:(value r)
                   ~recv:fold_inbox)
               ~reference:(fun net r ->
                 Net.round net ~label:"t"
                   ~send:(fun v s -> incident_msgs g v (value r v s))
                   ~recv:(fun v s msgs ->
                     fold_inbox v s (fun f ->
                         List.iter (fun (e, x) -> f e x) msgs)))))
        [ 1; 4 ])

(* ------------------------------------------------------------------ *)
(* domain invariance: one registry pipeline, K in {1,2,4}              *)
(* ------------------------------------------------------------------ *)

(* colorings compared edge-by-edge through accessors (the repo's DET002
   discipline: no polymorphic compare on graph-like values) *)
let coloring_fingerprint g c =
  List.init (G.m g) (fun e -> Coloring.color c e)

let run_pipeline g ~domains =
  Dpool.with_domains domains @@ fun () ->
  let entry =
    match Registry.find "lsfd" with Some e -> e | None -> assert false
  in
  let rounds = Rounds.create () in
  let rng = Random.State.make [| 7; 0x601d |] in
  let pipeline =
    entry.Registry.build { Registry.graph = g; epsilon = 0.5; alpha = 3 }
  in
  let ctx = Engine.ctx ~rng ~rounds in
  let init = EStore.put EStore.empty "graph" (Artifact.Graph g) in
  let store = Engine.run ctx pipeline ~init in
  let coloring = EStore.coloring store "coloring" in
  (coloring_fingerprint g coloring, Rounds.ledger rounds)

let golden_pipeline () =
  let g = Gen.forest_union (rng 91) 120 3 in
  let reference = run_pipeline g ~domains:1 in
  List.iter
    (fun domains ->
      Alcotest.(check (pair (list (option int)) (list (pair string int))))
        (Printf.sprintf "lsfd pipeline identical at K=%d" domains)
        reference
        (run_pipeline g ~domains))
    [ 2; 4 ]

(* the message kernel under a fault plan: states, delivered-message
   count, and the order-sensitive timeline digest must be invariant
   across domain counts (the faulty path is canonical) *)
let run_faulty_flood ~domains =
  Dpool.with_domains domains @@ fun () ->
  let g = Gen.forest_union (rng 17) 60 3 in
  let plan =
    match Nw_chaos.Plan.of_string "drop=0.2,dup=0.1,delay=0.1:2,reorder" with
    | Ok p -> p
    | Error msg -> failwith msg
  in
  let faults =
    match Nw_chaos.Inject.compile plan ~seed:5 () with
    | Some f -> f
    | None -> assert false
  in
  let (states, delivered), stats =
    Net.with_faults faults @@ fun () ->
    let rounds = Rounds.create () in
    let net = Net.create g ~rounds ~init:(fun v -> v) in
    for _ = 1 to 6 do
      Net.round net ~label:"flood"
        ~send:(fun v st -> incident_msgs g v (fun _ -> st))
        ~recv:(fun _ st msgs ->
          List.fold_left (fun acc (_, m) -> max acc m) st msgs)
    done;
    (Array.to_list (Net.states net), Net.messages_delivered net)
  in
  (states, delivered, stats.Net.digest)

let golden_chaos () =
  let s0, d0, digest0 = run_faulty_flood ~domains:1 in
  List.iter
    (fun domains ->
      let s, d, digest = run_faulty_flood ~domains in
      let tag = Printf.sprintf "K=%d" domains in
      Alcotest.(check (list int)) (tag ^ " states") s0 s;
      Alcotest.(check int) (tag ^ " delivered") d0 d;
      Alcotest.(check int64) (tag ^ " digest") digest0 digest)
    [ 2; 4 ]

(* the counting round (H-partition peel) across domain counts, with
   per-label ledgers compared too *)
let golden_round_count () =
  let g = Gen.forest_union (rng 33) 300 4 in
  let peel ~domains =
    Dpool.with_domains domains @@ fun () ->
    let rounds = Rounds.create () in
    let hp =
      Nw_core.H_partition.compute g ~epsilon:0.5 ~alpha_star:4 ~rounds
    in
    (Array.to_list hp.Nw_core.H_partition.layer, Rounds.ledger rounds)
  in
  let reference = peel ~domains:1 in
  List.iter
    (fun domains ->
      Alcotest.(check (pair (list int) (list (pair string int))))
        (Printf.sprintf "h-partition identical at K=%d" domains)
        reference (peel ~domains))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* adversarial-scheduling merge determinism                            *)
(* ------------------------------------------------------------------ *)

(* The Dpool/Msg_net merge discipline claims byte-identical results at
   any domain count *regardless of which shard finishes first*. Attack
   that claim directly: every send/recv callback busy-waits for a
   pseudo-random number of iterations keyed by (seed, vertex, round),
   so shard completion order varies wildly between domain counts (and
   between property instances), while states, delivered-message
   counts, the per-label ledger, and the per-domain work counter must
   all stay exactly equal to the sequential run. *)
let adversarial_spin seed v round =
  let h = (seed * 0x9e3779b9) lxor (v * 0x85ebca6b) lxor (round * 0xc2b2ae35) in
  let iters = (h land 0x3fff) + ((h lsr 14) land 0xfff) in
  let acc = ref 0 in
  for i = 1 to iters do
    acc := !acc + (Sys.opaque_identity i)
  done;
  ignore (Sys.opaque_identity !acc)

let run_adversarial_protocol ~seed ~domains =
  Dpool.with_domains domains @@ fun () ->
  let n = 5 + (seed mod 36) in
  let g = Gen.forest_union (rng seed) n (2 + (seed mod 3)) in
  let rounds = Rounds.create () in
  let base = Rounds.domain_total () in
  let net = Net.create g ~rounds ~init:(fun v -> (v * 31) land 0xffff) in
  let round_no = ref 0 in
  for _ = 1 to 4 do
    incr round_no;
    let r = !round_no in
    Net.round net ~label:"adversarial"
      ~send:(fun v st ->
        adversarial_spin seed v r;
        G.fold_incident g v ~init:[]
          (fun acc _ e -> (e, (st + v) land 0xffff) :: acc)
        |> List.rev)
      ~recv:(fun v st msgs ->
        adversarial_spin (seed + 1) v r;
        (* order-sensitive fold: any delivery-order wobble shows up *)
        List.fold_left
          (fun acc (_, m) -> ((acc * 131) + m) land 0xfffffff)
          ((st * 7) + v) msgs)
  done;
  ( Array.to_list (Net.states net),
    Net.messages_delivered net,
    Rounds.ledger rounds,
    Rounds.domain_total () - base )

let prop_adversarial_merge =
  QCheck.Test.make
    ~name:"Msg_net merge is schedule-independent (K=1/2/4, spin-perturbed)"
    ~count:10 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let reference = run_adversarial_protocol ~seed ~domains:1 in
      List.for_all
        (fun domains -> run_adversarial_protocol ~seed ~domains = reference)
        [ 2; 4 ])

(* same adversary, full engine: an lsfd pipeline run under perturbed
   scheduling must reproduce the K=1 coloring and ledger exactly *)
let adversarial_pipeline () =
  let g = Gen.forest_union (rng 57) 120 3 in
  let reference = run_pipeline g ~domains:1 in
  List.iter
    (fun domains ->
      Alcotest.(check (pair (list (option int)) (list (pair string int))))
        (Printf.sprintf "lsfd pipeline identical at K=%d" domains)
        reference
        (run_pipeline g ~domains))
    [ 2; 4 ]

let () =
  let qsuite name tests =
    (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)
  in
  Alcotest.run "dataplane"
    [
      qsuite "differential"
        [ prop_of_edges; prop_builder; prop_subgraph; prop_generated_families ];
      qsuite "streaming"
        [ prop_stream_count; prop_stream_exchange; prop_stream_exchange_edges ];
      ( "golden",
        [
          Alcotest.test_case "lsfd pipeline across domains" `Quick
            golden_pipeline;
          Alcotest.test_case "fault digest invariant" `Quick golden_chaos;
          Alcotest.test_case "round_count across domains" `Quick
            golden_round_count;
        ] );
      qsuite "adversarial" [ prop_adversarial_merge ];
      ( "adversarial-pipeline",
        [
          Alcotest.test_case "lsfd under perturbed scheduling" `Quick
            adversarial_pipeline;
        ] );
    ]
