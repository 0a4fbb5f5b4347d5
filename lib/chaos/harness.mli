(** Self-stabilization / recovery harness.

    Runs an algorithm repeatedly under a compiled fault plan (one run per
    {e epoch}), classifies each outcome by re-running the
    [Nw_decomp.Verify] checkers on the output, and applies a bounded
    retry-with-backoff recovery policy to failing epochs. See
    [docs/fault-model.md] for the taxonomy. *)

type outcome =
  | Valid  (** completed; verifier accepts *)
  | Detectably_invalid of string
      (** the run raised (stall guard, assertion...) — the faults were
          noticed *)
  | Silently_corrupt of string
      (** completed without complaint but the verifier rejects the
          output *)

(** "valid" / "detected" / "corrupt" (table keys). *)
val outcome_label : outcome -> string

val outcome_to_string : outcome -> string

(** Immutable snapshot of [Nw_localsim.Msg_net.fault_stats]; [digest] is
    the order-sensitive fault-timeline fingerprint. *)
type fault_counts = {
  drops : int;
  dups : int;
  delays : int;
  crashes : int;
  restarts : int;
  reorders : int;
  digest : int64;
}

val zero_counts : fault_counts

type attempt = { attempt : int; outcome : outcome; counts : fault_counts }
type epoch = { epoch : int; attempts : attempt list; recovered : bool }

type report = {
  epochs : epoch list;
  valid : int;  (** epochs whose final attempt is Valid *)
  detected : int;  (** final attempt Detectably_invalid *)
  corrupt : int;  (** final attempt Silently_corrupt *)
  recoveries : int;  (** epochs that turned Valid only on a retry *)
}

(** Retry attempt [k] (k >= 1) runs at fault strength [decay^k]; scheduled
    crash/restart/flap clauses are disabled on retries (see
    {!Inject.compile}). *)
type policy = { max_retries : int; decay : float }

(** 2 retries at half strength each. *)
val default_policy : policy

(** Single attempt, no recovery. *)
val no_retry : policy

(** [classify ~verify ~run] executes [run] once (under whatever fault
    context is ambient) and classifies: an escaping exception is
    [Detectably_invalid], a verifier rejection [Silently_corrupt]. *)
val classify :
  verify:('a -> (unit, string) result) ->
  run:(unit -> 'a) ->
  outcome * 'a option

(** [run_epochs ~plan ~seed ~epochs ?policy ~verify ~run ()] runs
    [epochs] independent epochs (epoch [e] uses a seed split from
    [seed], so the full report is a deterministic function of
    [(plan, seed, epochs, policy)]); each epoch retries per [policy].
    Every attempt runs inside an [Obs] span ["chaos.epoch"] (its
    [resumed] attribute always [false]); recoveries bump the
    ["chaos.recoveries"] counter. It is {!run_epochs_resumable} with a
    [run] that never saves. *)
val run_epochs :
  plan:Plan.t ->
  seed:int ->
  epochs:int ->
  ?policy:policy ->
  verify:('a -> (unit, string) result) ->
  run:(unit -> 'a) ->
  unit ->
  report

(** [run_epochs_resumable] is {!run_epochs} for checkpointing algorithms
    (the engine's pass pipelines): each attempt receives [~resume] — the
    newest checkpoint a previous attempt of the {e same epoch} saved via
    [~save], or [None] on the first attempt — so a crash-restart resumes
    from the last pass boundary instead of recomputing finished passes.
    The checkpoint slot is cleared between epochs; the ["chaos.epoch"]
    span carries a [resumed] attribute. The checkpoint type is abstract
    — pass [Nw_engine.Engine.run]'s [?resume]/[?checkpoint] straight
    through. *)
val run_epochs_resumable :
  plan:Plan.t ->
  seed:int ->
  epochs:int ->
  ?policy:policy ->
  verify:('a -> (unit, string) result) ->
  run:(resume:'ck option -> save:('ck -> unit) -> 'a) ->
  unit ->
  report

(** [differential ~seed ~run] returns [run]'s result computed twice: with
    no chaos context, and under the compiled {e empty} plan (which
    installs nothing). Callers assert the two are identical — the golden
    differential behind "chaos flags with an empty plan are
    byte-for-byte zero-impact". *)
val differential : seed:int -> run:(unit -> 'a) -> 'a * 'a
