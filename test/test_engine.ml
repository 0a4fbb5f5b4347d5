(* Suite for the pass-pipeline engine (lib/engine).

   The [lsfd] pipeline splits Theorem 2.3's [Lsfd.distributed], which the
   [lfd] pipeline also calls whole inside its leftover pass; the two must
   agree: the same seed must give the same coloring, the same per-label
   round ledger, the same Obs counters, and the same position in the
   caller's RNG stream. The Obs *span tree* is allowed to reshape (passes
   get their own "pass:*" spans). Every other pipeline's outputs are
   pinned by test_golden.ml. Plus: registry sanity, checkpoint/resume
   determinism, and a chaos crash-restart that demonstrably resumes from
   the last pass-boundary checkpoint (fewer re-charged rounds than a
   from-scratch run) while still passing Verify. *)

module G = Nw_graphs.Multigraph
module Gen = Nw_graphs.Generators
module Palette = Nw_decomp.Palette
module Coloring = Nw_decomp.Coloring
module Verify = Nw_decomp.Verify
module Rounds = Nw_localsim.Rounds
module Obs = Nw_obs.Obs
module Engine = Nw_engine.Engine
module Store = Nw_engine.Store
module Artifact = Nw_engine.Artifact
module Pipelines = Nw_engine.Pipelines
module Registry = Nw_engine.Registry
module Run = Nw_engine.Run
module Plan = Nw_chaos.Plan
module Harness = Nw_chaos.Harness

let rng seed = Random.State.make [| seed |]

let gm () = Gen.forest_union (rng 31) 90 3
let gs () = Gen.forest_union_simple (rng 32) 90 3

(* run a thunk with Obs recording on, collecting its trace; recording is
   restored afterwards so the other suites stay unaffected *)
let with_obs f =
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) (fun () ->
      Obs.collect f)

let sorted l = List.sort compare l

(* the golden check: [direct] and [engine] are the same algorithm with
   the same seed; everything observable except the span tree must
   coincide *)
let check_equiv name ~direct ~engine =
  let run f =
    let st = rng 97 in
    let rounds = Rounds.create () in
    let out, trace = with_obs (fun () -> f ~rng:st ~rounds) in
    (* one extra draw pins the caller's stream position *)
    let probe = Random.State.int st 1_000_000 in
    (out, rounds, trace, probe)
  in
  let out_d, rounds_d, trace_d, probe_d = run direct in
  let out_e, rounds_e, trace_e, probe_e = run engine in
  Alcotest.(check (array (option int)))
    (name ^ ": coloring byte-identical")
    (Coloring.to_array out_d) (Coloring.to_array out_e);
  Alcotest.(check (list (pair string int)))
    (name ^ ": round ledger identical")
    (sorted (Rounds.ledger rounds_d))
    (sorted (Rounds.ledger rounds_e));
  Alcotest.(check int)
    (name ^ ": trace rounds identical")
    (Obs.total_rounds trace_d) (Obs.total_rounds trace_e);
  Alcotest.(check (list (pair string int)))
    (name ^ ": Obs counters identical")
    (sorted (Obs.counters trace_d))
    (sorted (Obs.counters trace_e));
  Alcotest.(check int)
    (name ^ ": caller rng stream identical")
    probe_d probe_e

let test_equiv_lsfd () =
  let g = gs () in
  let alpha_star, _ = Nw_graphs.Arboricity.pseudo_arboricity g in
  let k = int_of_float (floor ((4. +. 0.5) *. float_of_int alpha_star)) - 1 in
  let palette = Palette.full g k in
  check_equiv "lsfd"
    ~direct:(fun ~rng ~rounds ->
      Nw_core.Lsfd.distributed g palette ~epsilon:0.5 ~alpha_star ~rng
        ~rounds)
    ~engine:(fun ~rng ~rounds ->
      Run.lsfd_distributed g palette ~epsilon:0.5 ~alpha_star ~rng ~rounds)

(* --- checkpoint/resume --------------------------------------------- *)

let augment_pipeline g =
  match Registry.find "augment" with
  | Some e -> e.Registry.build { Registry.graph = g; epsilon = 0.5; alpha = 3 }
  | None -> Alcotest.fail "augment not registered"

let test_resume_determinism () =
  let g = gm () in
  let pipeline = augment_pipeline g in
  let init = Store.put Store.empty "graph" (Artifact.Graph g) in
  let checkpoints = ref [] in
  let full_rounds = Rounds.create () in
  let ctx = Engine.ctx ~rng:(rng 7) ~rounds:full_rounds in
  let full =
    Engine.run ~checkpoint:(fun ck -> checkpoints := ck :: !checkpoints) ctx
      pipeline ~init
  in
  Alcotest.(check int)
    "one checkpoint per pass"
    (List.length pipeline.Engine.passes)
    (List.length !checkpoints);
  (* resuming from *every* checkpoint reproduces the final coloring and
     recharges only the remaining passes' rounds *)
  List.iter
    (fun ck ->
      let rounds = Rounds.create () in
      let ctx' = Engine.ctx ~rng:(rng 12345) ~rounds in
      let resumed = Engine.run ~resume:ck ctx' pipeline ~init:Store.empty in
      Alcotest.(check (array (option int)))
        (Printf.sprintf "resume@%d: coloring identical" ck.Engine.ck_completed)
        (Coloring.to_array (Store.coloring full "coloring"))
        (Coloring.to_array (Store.coloring resumed "coloring"));
      if ck.Engine.ck_completed = List.length pipeline.Engine.passes then
        Alcotest.(check int)
          "resume@end: nothing recharged" 0 (Rounds.total rounds)
      else
        Alcotest.(check bool)
          (Printf.sprintf "resume@%d: no more rounds than full run"
             ck.Engine.ck_completed)
          true
          (Rounds.total rounds <= Rounds.total full_rounds))
    !checkpoints

let test_resume_wrong_pipeline () =
  let g = gm () in
  let pipeline = augment_pipeline g in
  let init = Store.put Store.empty "graph" (Artifact.Graph g) in
  let checkpoints = ref [] in
  let ctx = Engine.ctx ~rng:(rng 7) ~rounds:(Rounds.create ()) in
  ignore
    (Engine.run
       ~checkpoint:(fun ck -> checkpoints := ck :: !checkpoints)
       ctx pipeline ~init);
  let ck = List.hd !checkpoints in
  let other = Pipelines.pseudo g ~epsilon:0.5 ~alpha:3 in
  let ctx' = Engine.ctx ~rng:(rng 7) ~rounds:(Rounds.create ()) in
  match Engine.run ~resume:ck ctx' other ~init:Store.empty with
  | _ -> Alcotest.fail "checkpoint from another pipeline accepted"
  | exception Engine.Engine_error _ -> ()

(* --- chaos crash-restart via checkpoints --------------------------- *)

(* The star pipeline's only message-kernel passes sit in its final pass
   (sfd.append: H-partition peel + Cole-Vishkin), so a total message
   drop lets passes 0-3 complete — saving checkpoints — and stalls the
   last one. With decay 0 the retry is fault-free: it must resume from
   the pass-4 boundary, recharge strictly fewer rounds than a
   from-scratch run, and still produce the from-scratch coloring. *)
let test_chaos_resume () =
  let g = gs () in
  let alpha, _ = Nw_baseline.Gabow_westermann.arboricity g in
  let entry =
    match Registry.find "star" with
    | Some e -> e
    | None -> Alcotest.fail "star not registered"
  in
  let pipeline =
    entry.Registry.build { Registry.graph = g; epsilon = 0.5; alpha }
  in
  let init = Store.put Store.empty "graph" (Artifact.Graph g) in
  (* from-scratch fault-free baseline *)
  let baseline_rounds = Rounds.create () in
  let (_ : Store.t) =
    Engine.run
      (Engine.ctx ~rng:(rng 3) ~rounds:baseline_rounds)
      pipeline ~init
  in
  let attempt_rounds = ref [] in
  let run ~resume ~save =
    let rounds = Rounds.create () in
    let ctx = Engine.ctx ~rng:(rng 3) ~rounds in
    Fun.protect
      ~finally:(fun () ->
        attempt_rounds := Rounds.total rounds :: !attempt_rounds)
      (fun () -> Engine.run ?resume ~checkpoint:save ctx pipeline ~init)
  in
  let verify store =
    Verify.star_forest_decomposition (Store.coloring store "coloring")
  in
  let plan = Result.get_ok (Plan.of_string "drop=1.0") in
  let report =
    Harness.run_epochs_resumable ~plan ~seed:2 ~epochs:1
      ~policy:{ Harness.max_retries = 1; decay = 0.0 }
      ~verify ~run ()
  in
  Alcotest.(check int) "epoch ends valid" 1 report.Harness.valid;
  Alcotest.(check int) "recovery counted" 1 report.Harness.recoveries;
  (match report.Harness.epochs with
  | [ ep ] ->
      Alcotest.(check int) "two attempts" 2 (List.length ep.Harness.attempts);
      (match ep.Harness.attempts with
      | [ a0; a1 ] ->
          Alcotest.(check string)
            "attempt 0 crashes detectably" "detected"
            (Harness.outcome_label a0.Harness.outcome);
          Alcotest.(check string)
            "attempt 1 valid" "valid"
            (Harness.outcome_label a1.Harness.outcome)
      | _ -> Alcotest.fail "expected exactly two attempts")
  | _ -> Alcotest.fail "expected exactly one epoch");
  match !attempt_rounds with
  | [ resumed; _crashed ] ->
      Alcotest.(check bool)
        (Printf.sprintf
           "resumed attempt recharges fewer rounds (%d < full %d)" resumed
           (Rounds.total baseline_rounds))
        true
        (resumed < Rounds.total baseline_rounds);
      Alcotest.(check bool) "resumed attempt recharges something" true
        (resumed > 0)
  | _ -> Alcotest.fail "expected two recorded attempts"

(* the resumed coloring equals the from-scratch one: re-run the scenario
   keeping the final store *)
let test_chaos_resume_coloring () =
  let g = gs () in
  let alpha, _ = Nw_baseline.Gabow_westermann.arboricity g in
  let entry = Option.get (Registry.find "star") in
  let pipeline =
    entry.Registry.build { Registry.graph = g; epsilon = 0.5; alpha }
  in
  let init = Store.put Store.empty "graph" (Artifact.Graph g) in
  let baseline =
    Engine.run
      (Engine.ctx ~rng:(rng 3) ~rounds:(Rounds.create ()))
      pipeline ~init
  in
  let last = ref None in
  let run ~resume ~save =
    let ctx = Engine.ctx ~rng:(rng 3) ~rounds:(Rounds.create ()) in
    let store = Engine.run ?resume ~checkpoint:save ctx pipeline ~init in
    last := Some store;
    store
  in
  let verify store =
    Verify.star_forest_decomposition (Store.coloring store "coloring")
  in
  let plan = Result.get_ok (Plan.of_string "drop=1.0") in
  ignore
    (Harness.run_epochs_resumable ~plan ~seed:2 ~epochs:1
       ~policy:{ Harness.max_retries = 1; decay = 0.0 }
       ~verify ~run ());
  match !last with
  | None -> Alcotest.fail "no attempt completed"
  | Some store ->
      Alcotest.(check (array (option int)))
        "resumed coloring equals from-scratch coloring"
        (Coloring.to_array (Store.coloring baseline "coloring"))
        (Coloring.to_array (Store.coloring store "coloring"))

(* [simple_only] is what front ends check before running an entry: it
   must be set exactly on the entries whose pipeline rejects a
   multigraph *)
let test_simple_only () =
  let g = gm () in
  Alcotest.(check bool) "fixture has parallel edges" false (G.is_simple g);
  List.iter
    (fun (e : Registry.entry) ->
      let alpha = fst (Nw_baseline.Gabow_westermann.arboricity g) in
      let pipeline =
        e.Registry.build { Registry.graph = g; epsilon = 0.5; alpha }
      in
      let rejected =
        match
          Engine.run
            (Engine.ctx ~rng:(rng 5) ~rounds:(Rounds.create ()))
            pipeline
            ~init:(Store.put Store.empty "graph" (Artifact.Graph g))
        with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      Alcotest.(check bool)
        (e.Registry.name ^ " rejects multigraphs iff simple_only")
        e.Registry.simple_only rejected)
    Registry.all

(* every entry finishes on an edgeless graph, with the arboricity the
   CLI resolves (0), and passes its own checker; the lsfd recipe once
   sized a palette of (4+eps)*0 - 1 = -1 colors here *)
let test_edgeless () =
  let g = G.of_edges 5 [] in
  let alpha = Nw_baseline.Gabow_westermann.arboricity_value g in
  Alcotest.(check int) "edgeless alpha" 0 alpha;
  List.iter
    (fun (e : Registry.entry) ->
      let spec = { Registry.graph = g; epsilon = 0.5; alpha } in
      let store =
        Engine.run
          (Engine.ctx ~rng:(rng 5) ~rounds:(Rounds.create ()))
          (e.Registry.build spec)
          ~init:(Store.put Store.empty "graph" (Artifact.Graph g))
      in
      Alcotest.(check (result unit string))
        (e.Registry.name ^ " verifies on an edgeless graph")
        (Ok ()) (Registry.verify e spec store))
    Registry.all

let () =
  Alcotest.run "engine"
    [
      ( "registry",
        [
          Alcotest.test_case "simple_only" `Quick test_simple_only;
          Alcotest.test_case "edgeless" `Quick test_edgeless;
        ] );
      ( "golden equivalence",
        [
          Alcotest.test_case "lsfd" `Quick test_equiv_lsfd;
        ] );
      ( "checkpoint/resume",
        [
          Alcotest.test_case "determinism" `Quick test_resume_determinism;
          Alcotest.test_case "wrong pipeline rejected" `Quick
            test_resume_wrong_pipeline;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "crash-restart resumes" `Quick test_chaos_resume;
          Alcotest.test_case "resumed coloring identical" `Quick
            test_chaos_resume_coloring;
        ] );
    ]
