(** The phase-pipeline engine.

    A {!pipeline} is an ordered list of {!pass}es; each pass declares the
    artifact keys (and kinds) it reads and writes and transforms a
    {!Store.t}. {!run} executes the passes in order and owns the
    cross-cutting concerns every composite shares:

    - an [Obs] span ["pass:<name>"] per pass, tagged with the pipeline
      name, the pass index, and the rounds charged by the pass
      ([pass_rounds]);
    - read/write contract checks against the declared artifact kinds;
    - optional checkpoints at every pass boundary (snapshot of the store
      plus the RNG state), from which a later {!run} can resume — the
      crash-recovery hook used by the chaos harness.

    Checkpointing is strictly opt-in: when no [~checkpoint] callback is
    given, {!run} never copies an artifact, so a fault-free execution
    allocates only what its passes do (the [Coloring] allocation counters
    included). *)

exception Engine_error of string

(** Mutable execution context: the RNG is a field (not a closure capture)
    so resuming from a checkpoint can restore the saved generator state. *)
type ctx = { mutable rng : Random.State.t; rounds : Nw_localsim.Rounds.t }

val ctx : rng:Random.State.t -> rounds:Nw_localsim.Rounds.t -> ctx

type pass = {
  name : string;
  reads : (string * Artifact.kind) list;
  writes : (string * Artifact.kind) list;
  run : ctx -> Store.t -> Store.t;
}

type pipeline = { pl_name : string; passes : pass list }

(** A pass-boundary snapshot: the pipeline it belongs to, how many passes
    had completed, the store at that point (mutable artifacts deep-copied)
    and the RNG state to restart from. *)
type checkpoint = {
  ck_pipeline : string;
  ck_completed : int;
  ck_store : Store.t;
  ck_rng : Random.State.t;
}

(** [run ?resume ?checkpoint ctx pipeline ~init] executes the pipeline over
    the initial store. With [~checkpoint:save], [save] is called after
    every completed pass with a fresh {!checkpoint}. With [~resume:ck],
    execution restarts after pass [ck.ck_completed] from the checkpointed
    store and RNG — [init] is ignored in that case.
    @raise Engine_error on contract violations (missing or wrongly-kinded
    artifacts, checkpoint/pipeline mismatch). *)
val run :
  ?resume:checkpoint ->
  ?checkpoint:(checkpoint -> unit) ->
  ctx ->
  pipeline ->
  init:Store.t ->
  Store.t

(** Static kind-flow check: every read must be written by an earlier pass
    (or listed in [initial], the contract of the initial store) with the
    matching kind. *)
val validate :
  ?initial:(string * Artifact.kind) list ->
  pipeline ->
  (unit, string) result

(** Stable FNV-1a hash of the pipeline shape (name, ordered pass names and
    their read/write contracts) as 16 lowercase hex digits. Stamped into
    bench records so trajectory comparisons can detect pipeline drift. *)
val digest : pipeline -> string
