(* Tests for the fault-injection subsystem (lib/chaos + the Msg_net hook
   surface): the stateless splittable Rng, the plan DSL, compilation to
   fault callbacks, the exact kernel semantics of each fault kind, the
   golden differential, outcome classification, recovery, deterministic
   replay, and the reorder-obliviousness property of H-partition. *)

module G = Nw_graphs.Multigraph
module Gen = Nw_graphs.Generators
module H = Nw_core.H_partition
module Rounds = Nw_localsim.Rounds
module Net = Nw_localsim.Msg_net
module Rng = Nw_chaos.Rng
module Plan = Nw_chaos.Plan
module Inject = Nw_chaos.Inject
module Harness = Nw_chaos.Harness

(* --- Rng ----------------------------------------------------------- *)

let test_rng_pure () =
  let t = Rng.create ~seed:42 in
  Alcotest.(check (float 0.0))
    "same (stream, coords) -> same draw"
    (Rng.float t [ 3; 7; 9 ])
    (Rng.float t [ 3; 7; 9 ]);
  Alcotest.(check bool)
    "different coords -> different draw" true
    (Rng.float t [ 3; 7; 9 ] <> Rng.float t [ 3; 7; 10 ]);
  Alcotest.(check bool)
    "split children diverge" true
    (Rng.float (Rng.split t 0) [ 1 ] <> Rng.float (Rng.split t 1) [ 1 ]);
  Alcotest.(check bool)
    "string-keyed children diverge" true
    (Rng.float (Rng.split_key t "a") [ 1 ]
    <> Rng.float (Rng.split_key t "b") [ 1 ])

let test_rng_ranges () =
  let t = Rng.create ~seed:7 in
  for i = 0 to 999 do
    let f = Rng.float t [ i ] in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of [0,1): %f" f;
    let k = Rng.int t [ i ] ~bound:13 in
    if k < 0 || k >= 13 then Alcotest.failf "int out of [0,13): %d" k;
    if Rng.bool t [ i ] ~p:0.0 then Alcotest.fail "p=0 drew true";
    if not (Rng.bool t [ i ] ~p:1.0) then Alcotest.fail "p=1 drew false"
  done;
  Alcotest.check_raises "bound <= 0 rejected"
    (Invalid_argument "Chaos.Rng.int: bound <= 0") (fun () ->
      ignore (Rng.int t [ 0 ] ~bound:0))

let test_rng_perm () =
  let t = Rng.create ~seed:11 in
  let p = Rng.perm t [ 4 ] 10 in
  Alcotest.(check (list int))
    "perm is a permutation of 0..9"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.sort compare (Array.to_list p));
  Alcotest.(check (array int))
    "perm replays" p (Rng.perm t [ 4 ] 10)

(* --- Plan DSL ------------------------------------------------------ *)

let all_clauses = "drop=0.1@2-9,dup=0.05x2,delay=0.1:3,crash=4@6,restart=4@6+2,flap=2:3/2,reorder"

let test_plan_roundtrip () =
  match Plan.of_string all_clauses with
  | Error msg -> Alcotest.failf "did not parse: %s" msg
  | Ok p -> (
      Alcotest.(check int) "7 clauses" 7 (List.length (Plan.clauses p));
      match Plan.of_string (Plan.to_string p) with
      | Error msg -> Alcotest.failf "canonical form did not re-parse: %s" msg
      | Ok p' ->
          Alcotest.(check bool) "round-trip equal" true (Plan.equal p p'))

let test_plan_digest () =
  let p = Result.get_ok (Plan.of_string all_clauses) in
  let q = Result.get_ok (Plan.of_string "drop=0.2") in
  Alcotest.(check int) "digest is 16 hex chars" 16 (String.length (Plan.digest p));
  Alcotest.(check string) "digest stable" (Plan.digest p) (Plan.digest p);
  Alcotest.(check bool)
    "digests separate distinct plans" true
    (Plan.digest p <> Plan.digest q);
  Alcotest.(check string)
    "summary is the canonical form" (Plan.to_string p) (Plan.summary p)

let test_plan_errors () =
  List.iter
    (fun s ->
      match Plan.of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed plan %S" s
      | Error _ -> ())
    [
      "drop=1.5";
      "drop=-0.1";
      "bogus=1";
      "crash=x@2";
      "dup=0.1x0";
      "delay=0.1:0";
      "reorder=1";
      "drop=0.1@9-2";
      "flap=1:0/2";
      "drop";
    ]

let test_plan_empty () =
  let p = Result.get_ok (Plan.of_string "") in
  Alcotest.(check bool) "empty string is the empty plan" true (Plan.is_empty p);
  Alcotest.(check bool)
    "empty plan compiles to no hooks" true
    (Inject.compile p ~seed:1 () = None);
  Alcotest.(check bool)
    "non-empty plan compiles to hooks" true
    (Inject.compile (Result.get_ok (Plan.of_string "drop=0.5")) ~seed:1 ()
    <> None)

let test_plan_window () =
  Alcotest.(check bool) "forever contains 0" true (Plan.in_window 0 Plan.forever);
  let w = { Plan.from_ = 2; upto = Some 4 } in
  List.iter
    (fun (r, expect) ->
      Alcotest.(check bool) (Printf.sprintf "round %d" r) expect
        (Plan.in_window r w))
    [ (1, false); (2, true); (4, true); (5, false) ]

(* --- kernel fault semantics (hand-built fault records) ------------- *)

(* gossip round on a path 0-1-2: every vertex sends its id over each
   incident edge; receivers append heard ids *)
let gossip_send g v _ =
  Array.to_list (Array.map (fun (_, e) -> (e, v)) (G.incident g v))

let gossip_recv _ heard msgs = heard @ List.map snd msgs

let run_gossip ~faults ~rounds_to_run =
  Net.with_faults faults (fun () ->
      let g = Gen.path 3 in
      let rounds = Rounds.create () in
      let net = Net.create g ~rounds ~init:(fun _ -> []) in
      for _ = 1 to rounds_to_run do
        Net.round net ~label:"gossip" ~send:(gossip_send g) ~recv:gossip_recv
      done;
      (Net.states net, Net.messages_delivered net))

let test_fault_drop_all () =
  let faults =
    { Net.no_faults with deliver = (fun ~round:_ ~edge:_ ~src:_ ~dst:_ -> Net.Drop) }
  in
  let (states, delivered), stats = run_gossip ~faults ~rounds_to_run:1 in
  Array.iter
    (fun heard -> Alcotest.(check (list int)) "nobody hears" [] heard)
    states;
  Alcotest.(check int) "nothing delivered" 0 delivered;
  Alcotest.(check int) "4 drops (2 per edge)" 4 stats.Net.drops

let test_fault_duplicate () =
  let faults =
    { Net.no_faults with
      deliver = (fun ~round:_ ~edge:_ ~src:_ ~dst:_ -> Net.Duplicate 1) }
  in
  let (states, delivered), stats = run_gossip ~faults ~rounds_to_run:1 in
  Alcotest.(check (list int))
    "middle vertex hears both neighbors twice" [ 0; 0; 2; 2 ]
    (List.sort compare states.(1));
  Alcotest.(check int) "8 delivered (4 messages x 2)" 8 delivered;
  Alcotest.(check int) "4 extra copies" 4 stats.Net.dups

let test_fault_delay () =
  (* everything sent in round 0 is postponed to round 1; nothing is sent
     afterwards, so whatever arrives in round 1 is the delayed batch *)
  let faults =
    { Net.no_faults with
      deliver =
        (fun ~round ~edge:_ ~src:_ ~dst:_ ->
          if round = 0 then Net.Delay 1 else Net.Deliver) }
  in
  let ((), stats) =
    Net.with_faults faults (fun () ->
        let g = Gen.path 3 in
        let rounds = Rounds.create () in
        (* state: (clock, heard) — only clock 0 sends *)
        let net = Net.create g ~rounds ~init:(fun _ -> (0, [])) in
        let send v (clock, _) = if clock = 0 then gossip_send g v () else [] in
        let recv _ (clock, heard) msgs =
          (clock + 1, heard @ List.map snd msgs)
        in
        Net.round net ~label:"delay" ~send ~recv;
        Alcotest.(check (list int))
          "round 0: middle vertex hears nothing yet" []
          (snd (Net.state net 1));
        Net.round net ~label:"delay" ~send ~recv;
        Alcotest.(check (list int))
          "round 1: delayed batch arrives" [ 0; 2 ]
          (List.sort compare (snd (Net.state net 1)));
        Alcotest.(check int) "4 delivered in the end" 4
          (Net.messages_delivered net))
  in
  Alcotest.(check int) "4 postponements" 4 stats.Net.delays

let test_fault_crash () =
  let faults =
    { Net.no_faults with node_up = (fun ~round:_ v -> v <> 0) }
  in
  let (states, _), stats = run_gossip ~faults ~rounds_to_run:1 in
  Alcotest.(check (list int)) "down node receives nothing" [] states.(0);
  Alcotest.(check (list int))
    "middle vertex hears only the live neighbor" [ 2 ]
    states.(1);
  Alcotest.(check int) "one up->down transition" 1 stats.Net.crashes;
  Alcotest.(check int)
    "message to the down node is lost" 1 stats.Net.drops

let test_fault_restart () =
  (* node 1 loses its state at the start of round 1: round 0's gossip is
     forgotten, round 1's is heard again — no accumulation *)
  let faults =
    { Net.no_faults with
      state_reset = (fun ~round v -> round = 1 && v = 1) }
  in
  let (states, _), stats = run_gossip ~faults ~rounds_to_run:2 in
  Alcotest.(check (list int))
    "restarted node kept only round 1 gossip" [ 0; 2 ]
    (List.sort compare states.(1));
  Alcotest.(check (list int))
    "unaffected node accumulated both rounds" [ 1; 1 ]
    (List.sort compare states.(0));
  Alcotest.(check int) "one restart" 1 stats.Net.restarts

let test_fault_reorder () =
  let plain_order =
    let (states, _), _ = run_gossip ~faults:Net.no_faults ~rounds_to_run:1 in
    states.(1)
  in
  let reverse =
    { Net.no_faults with
      reorder =
        (fun ~round:_ ~dst:_ k ->
          if k <= 1 then None
          else Some (Array.init k (fun i -> k - 1 - i))) }
  in
  let (states, _), stats = run_gossip ~faults:reverse ~rounds_to_run:1 in
  Alcotest.(check (list int))
    "inbox presented in reversed order" (List.rev plain_order)
    states.(1);
  Alcotest.(check bool) "reorders counted" true (stats.Net.reorders >= 1)

(* --- golden differential ------------------------------------------- *)

let h_graph = Gen.forest_union (Random.State.make [| 0xd1ff |]) 40 3

let run_h () =
  let rounds = Rounds.create () in
  let hp = H.compute h_graph ~epsilon:0.5 ~alpha_star:3 ~rounds in
  (Array.to_list hp.H.layer, Rounds.total rounds)

let test_golden_differential () =
  let (l1, r1), (l2, r2) = Harness.differential ~seed:3 ~run:run_h in
  Alcotest.(check (list int)) "layers identical under empty plan" l1 l2;
  Alcotest.(check int) "rounds identical under empty plan" r1 r2

(* stronger: a *non-empty* plan whose clauses can never fire installs the
   hooks yet still reproduces the plain run byte for byte *)
let test_inert_plan_identical () =
  let plain = run_h () in
  let plan = Result.get_ok (Plan.of_string "drop=0.0") in
  let faults = Option.get (Inject.compile plan ~seed:5 ()) in
  let under, stats = Net.with_faults faults run_h in
  Alcotest.(check (list int)) "layers" (fst plain) (fst under);
  Alcotest.(check int) "rounds" (snd plain) (snd under);
  Alcotest.(check int) "no drops" 0 stats.Net.drops;
  Alcotest.(check int64) "empty timeline digest" 0L stats.Net.digest

(* --- classification and recovery ----------------------------------- *)

let verify_h (layers, _) =
  if List.exists (fun l -> l < 0) layers then Error "unassigned vertex"
  else Ok ()

let test_detectably_invalid () =
  let plan = Result.get_ok (Plan.of_string "drop=1.0") in
  let r =
    Harness.run_epochs ~plan ~seed:1 ~epochs:1 ~policy:Harness.no_retry
      ~verify:verify_h ~run:run_h ()
  in
  Alcotest.(check int) "total drop stalls the peeling" 1 r.Harness.detected;
  Alcotest.(check int) "no valid epochs" 0 r.Harness.valid

let test_silently_corrupt () =
  match Harness.classify ~verify:(fun _ -> Error "bad") ~run:(fun () -> 42) with
  | Harness.Silently_corrupt "bad", Some 42 -> ()
  | outcome, _ ->
      Alcotest.failf "expected Silently_corrupt, got %s"
        (Harness.outcome_to_string outcome)

let test_recovery () =
  (* attempt 0 runs under total message loss and fails; with decay 0 the
     retry runs fault-free, so every epoch recovers on attempt 1 *)
  let plan = Result.get_ok (Plan.of_string "drop=1.0") in
  let r =
    Harness.run_epochs ~plan ~seed:2 ~epochs:2
      ~policy:{ Harness.max_retries = 1; decay = 0.0 } ~verify:verify_h
      ~run:run_h ()
  in
  Alcotest.(check int) "both epochs end valid" 2 r.Harness.valid;
  Alcotest.(check int) "both recoveries counted" 2 r.Harness.recoveries;
  List.iter
    (fun (ep : Harness.epoch) ->
      Alcotest.(check int) "two attempts" 2 (List.length ep.Harness.attempts);
      Alcotest.(check bool) "recovered" true ep.Harness.recovered)
    r.Harness.epochs

let test_replay () =
  let plan = Result.get_ok (Plan.of_string "drop=0.3,delay=0.2:2,reorder") in
  let fingerprint () =
    let r =
      Harness.run_epochs ~plan ~seed:5 ~epochs:2
        ~policy:Harness.default_policy ~verify:verify_h ~run:run_h ()
    in
    List.concat_map
      (fun (ep : Harness.epoch) ->
        List.map
          (fun (a : Harness.attempt) ->
            ( Harness.outcome_label a.Harness.outcome,
              Int64.to_string a.Harness.counts.Harness.digest ))
          ep.Harness.attempts)
      r.Harness.epochs
  in
  Alcotest.(check (list (pair string string)))
    "identical outcomes and fault timelines on replay" (fingerprint ())
    (fingerprint ())

(* Message loss can leave Cole-Vishkin vertex colors outside 0..2. The
   star forests' emission must then raise or color every edge: an edge
   whose color came out negative is an error, never an uncolored edge. *)
let test_faulted_star_colors_every_edge () =
  (* the chaos experiment's star input (bench/exp_chaos.ml) *)
  let st = Random.State.make [| 0xc4a05; 0xbead |] in
  ignore (Gen.forest_union st 48 3);
  let g = Gen.forest_union_simple st 48 3 in
  let ids = Array.init (G.n g) Fun.id in
  let run () =
    let rounds = Rounds.create () in
    let hp = H.compute g ~epsilon:0.5 ~alpha_star:3 ~rounds in
    H.star_forest_decomposition g (H.orientation g hp ~ids) ~ids ~rounds
  in
  let verify c =
    if Nw_decomp.Coloring.uncolored c = [||] then Ok ()
    else Error "edge left uncolored"
  in
  List.iter
    (fun (plan, seed) ->
      let plan = Result.get_ok (Plan.of_string plan) in
      let r =
        Harness.run_epochs ~plan ~seed ~epochs:2 ~verify ~run ()
      in
      Alcotest.(check int) "no uncolored output" 0 r.Harness.corrupt)
    [ ("drop=0.15", 1); ("drop=0.15", 2); ("drop=0.15", 3); ("drop=0.6", 1);
      ("delay=0.3:2", 1) ]

(* --- property: reorder-obliviousness ------------------------------- *)

(* any adversarial permutation of intra-round delivery order leaves the
   H-partition output and the charged rounds unchanged: the peeling
   decision at each vertex depends only on the multiset of messages *)
let prop_reorder_oblivious =
  QCheck.Test.make ~count:30 ~name:"H-partition is reorder-oblivious"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let plan = Plan.of_clauses [ Plan.Reorder { w = Plan.forever } ] in
      let faults = Option.get (Inject.compile plan ~seed ()) in
      let baseline = run_h () in
      let under, _ = Net.with_faults faults run_h in
      baseline = under)

let () =
  Alcotest.run "chaos"
    [
      ( "rng",
        [
          Alcotest.test_case "pure draws" `Quick test_rng_pure;
          Alcotest.test_case "ranges" `Quick test_rng_ranges;
          Alcotest.test_case "perm" `Quick test_rng_perm;
        ] );
      ( "plan",
        [
          Alcotest.test_case "round-trip" `Quick test_plan_roundtrip;
          Alcotest.test_case "digest" `Quick test_plan_digest;
          Alcotest.test_case "parse errors" `Quick test_plan_errors;
          Alcotest.test_case "empty plan" `Quick test_plan_empty;
          Alcotest.test_case "windows" `Quick test_plan_window;
        ] );
      ( "kernel-faults",
        [
          Alcotest.test_case "drop" `Quick test_fault_drop_all;
          Alcotest.test_case "duplicate" `Quick test_fault_duplicate;
          Alcotest.test_case "delay" `Quick test_fault_delay;
          Alcotest.test_case "crash" `Quick test_fault_crash;
          Alcotest.test_case "restart" `Quick test_fault_restart;
          Alcotest.test_case "reorder" `Quick test_fault_reorder;
        ] );
      ( "differential",
        [
          Alcotest.test_case "golden (empty plan)" `Quick
            test_golden_differential;
          Alcotest.test_case "inert plan byte-identical" `Quick
            test_inert_plan_identical;
        ] );
      ( "harness",
        [
          Alcotest.test_case "detectably invalid" `Quick
            test_detectably_invalid;
          Alcotest.test_case "silently corrupt" `Quick test_silently_corrupt;
          Alcotest.test_case "recovery" `Quick test_recovery;
          Alcotest.test_case "deterministic replay" `Quick test_replay;
          Alcotest.test_case "faulted star colors every edge" `Quick
            test_faulted_star_colors_every_edge;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_reorder_oblivious ] );
    ]
