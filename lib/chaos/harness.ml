(* Self-stabilization / recovery harness.

   One *epoch* = one full run of an algorithm under a compiled fault
   plan, classified by re-running the Decomp.Verify checkers on its
   output:

     Valid               completed, verifier accepts
     Detectably_invalid  the run raised (stall guard, assertion, ...) —
                         the system *noticed* the faults
     Silently_corrupt    completed without complaint but the verifier
                         rejects the output — the dangerous class

   A bounded retry-with-backoff policy re-runs a failing epoch at
   geometrically attenuated fault strength (Inject.compile
   ~attenuation:decay^attempt), modelling restarted nodes that stay up
   while the fault burst subsides; a retry that lands Valid counts as a
   recovery (Obs counter "chaos.recoveries"). *)

module Msg_net = Nw_localsim.Msg_net
module Obs = Nw_obs.Obs
module Flight = Nw_obs.Flight

type outcome =
  | Valid
  | Detectably_invalid of string
  | Silently_corrupt of string

let outcome_label = function
  | Valid -> "valid"
  | Detectably_invalid _ -> "detected"
  | Silently_corrupt _ -> "corrupt"

let outcome_to_string = function
  | Valid -> "valid"
  | Detectably_invalid msg -> Printf.sprintf "detected (%s)" msg
  | Silently_corrupt msg -> Printf.sprintf "corrupt (%s)" msg

(* immutable snapshot of the kernel's shared fault accounting *)
type fault_counts = {
  drops : int;
  dups : int;
  delays : int;
  crashes : int;
  restarts : int;
  reorders : int;
  digest : int64;
}

let zero_counts =
  {
    drops = 0;
    dups = 0;
    delays = 0;
    crashes = 0;
    restarts = 0;
    reorders = 0;
    digest = 0L;
  }

let snapshot (s : Msg_net.fault_stats) =
  {
    drops = s.Msg_net.drops;
    dups = s.Msg_net.dups;
    delays = s.Msg_net.delays;
    crashes = s.Msg_net.crashes;
    restarts = s.Msg_net.restarts;
    reorders = s.Msg_net.reorders;
    digest = s.Msg_net.digest;
  }

type attempt = { attempt : int; outcome : outcome; counts : fault_counts }

type epoch = { epoch : int; attempts : attempt list; recovered : bool }

type report = {
  epochs : epoch list;
  valid : int;  (** epochs whose final attempt is Valid *)
  detected : int;
  corrupt : int;
  recoveries : int;  (** epochs that turned Valid only on a retry *)
}

type policy = { max_retries : int; decay : float }

let default_policy = { max_retries = 2; decay = 0.5 }
let no_retry = { max_retries = 0; decay = 1.0 }

let classify ~verify ~run =
  match run () with
  | x -> (
      match verify x with
      | Ok () -> (Valid, Some x)
      | Error msg -> (Silently_corrupt msg, Some x))
  | exception exn -> (Detectably_invalid (Printexc.to_string exn), None)

let pow x k =
  let rec go acc k = if k <= 0 then acc else go (acc *. x) (k - 1) in
  go 1.0 k

(* post-mortem beacon for every non-Valid attempt: the dump's "last"
   object then names the epoch, the verdict, and the fault-plan digest
   alongside whatever the engine marked (failing pass, checkpoint) *)
let flight_note ~plan ~epoch ~attempt outcome counts =
  match outcome with
  | Valid -> ()
  | Detectably_invalid msg | Silently_corrupt msg ->
      let label = outcome_label outcome in
      Flight.mark "chaos.epoch"
        [
          ("epoch", string_of_int epoch);
          ("attempt", string_of_int attempt);
          ("outcome", label);
          ("error", msg);
          ("fault_plan", Plan.digest plan);
          ("fault_digest", Int64.to_string counts.digest);
        ];
      Flight.trigger ~reason:("epoch-" ^ label) ()

(* Each epoch owns a mutable slot holding the last checkpoint the
   algorithm saved (e.g. an Engine.checkpoint at a pass boundary). The
   slot survives retries within the epoch — a crashed attempt leaves its
   checkpoints behind and the restart resumes from the newest one instead
   of recomputing the finished passes — and is cleared between epochs,
   which stay independent. The checkpoint type is abstract ('ck) so this
   layer needs no dependency on the engine; callers thread
   [resume]/[save] into Engine.run. [run_epochs] is the same runner for
   an algorithm that never saves. *)
let run_epochs_resumable ~plan ~seed ~epochs ?(policy = default_policy)
    ~verify ~run () =
  let root = Rng.create ~seed in
  let run_attempt ~epoch_seed ~attempt ~ck =
    Obs.span "chaos.epoch"
      ~attrs:
        [
          ("attempt", Obs.Int attempt); ("resumed", Obs.Bool (!ck <> None));
        ]
    @@ fun () ->
    let resume = !ck in
    let save c = ck := Some c in
    let thunk () = run ~resume ~save in
    let attenuation = pow policy.decay attempt in
    match Inject.compile plan ~seed:epoch_seed ~attenuation () with
    | None ->
        let outcome, _ = classify ~verify ~run:thunk in
        { attempt; outcome; counts = zero_counts }
    | Some faults ->
        let (outcome, _), stats =
          Msg_net.with_faults faults (fun () -> classify ~verify ~run:thunk)
        in
        { attempt; outcome; counts = snapshot stats }
  in
  let run_epoch e =
    let epoch_seed = Rng.to_seed (Rng.split root e) in
    let ck = ref None in
    let rec go attempt acc =
      let a = run_attempt ~epoch_seed ~attempt ~ck in
      flight_note ~plan ~epoch:e ~attempt a.outcome a.counts;
      let acc = a :: acc in
      match a.outcome with
      | Valid -> (List.rev acc, attempt > 0)
      | Detectably_invalid _ | Silently_corrupt _ ->
          if attempt >= policy.max_retries then (List.rev acc, false)
          else go (attempt + 1) acc
    in
    let attempts, recovered = go 0 [] in
    if recovered then Obs.count "chaos.recoveries";
    { epoch = e; attempts; recovered }
  in
  let epochs_l = List.init epochs run_epoch in
  let final ep =
    match List.rev ep.attempts with [] -> Valid | a :: _ -> a.outcome
  in
  let count pred = List.length (List.filter pred epochs_l) in
  {
    epochs = epochs_l;
    valid = count (fun ep -> match final ep with Valid -> true | _ -> false);
    detected =
      count (fun ep ->
          match final ep with Detectably_invalid _ -> true | _ -> false);
    corrupt =
      count (fun ep ->
          match final ep with Silently_corrupt _ -> true | _ -> false);
    recoveries = count (fun ep -> ep.recovered);
  }

let run_epochs ~plan ~seed ~epochs ?policy ~verify ~run () =
  run_epochs_resumable ~plan ~seed ~epochs ?policy ~verify
    ~run:(fun ~resume:_ ~save:_ -> run ())
    ()

(* golden differential: the same computation with no chaos context at
   all, and under an *empty* compiled plan with [seed] threaded the same
   way the real harness threads it. Inject.compile returns None on the
   empty plan, so no hooks install — the caller asserts the two results
   (colors, rounds, counters) are identical, proving chaos flags are
   zero-impact when the plan is empty. *)
let differential ~seed ~run =
  let plain = run () in
  let under_empty =
    match Inject.compile Plan.empty ~seed () with
    | None -> run ()
    | Some faults -> fst (Msg_net.with_faults faults run)
  in
  (plain, under_empty)
