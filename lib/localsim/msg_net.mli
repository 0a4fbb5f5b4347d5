(** Synchronous message-passing kernel for the LOCAL model.

    A genuine round-by-round simulation: in each round every vertex, looking
    only at its own state, emits one message per incident edge (or none);
    messages cross their edge; every vertex then updates its state from the
    received messages. Message sizes are unbounded, as in LOCAL.

    The simpler algorithms (H-partition peeling, Cole–Vishkin coloring) are
    implemented directly on this kernel, demonstrating that they are honest
    distributed algorithms; the round counts it reports are exact.
    Cole–Vishkin's fault-free rounds are computed on its own parent planes
    and charged through {!charge_round}; under faults it runs on a net.

    {2 Fault injection}

    The kernel exposes a {e mechanism-only} hook surface for deterministic
    fault injection: a {!faults} record of pure decision callbacks (node
    liveness, per-message delivery verdicts, inbox reordering) installed for
    the dynamic extent of {!with_faults}. Fault {e policy} — declarative
    seed-driven plans, the adversarial scheduler, outcome classification and
    recovery — lives in the [nw_chaos] library ([lib/chaos]), which compiles
    a [Chaos.Plan.t] down to a {!faults} record; see [docs/fault-model.md].
    A net created outside {!with_faults} (or with no fault ever firing)
    takes a code path byte-identical to the fault-free kernel. *)

(** Verdict for one message crossing its edge. [Duplicate k] delivers
    [1 + k] copies this round; [Delay d] with [d > 0] delivers the single
    copy [d] rounds later (to whatever the destination's state is then). *)
type delivery = Deliver | Drop | Duplicate of int | Delay of int

(** Pure fault-decision callbacks. Determinism of the fault timeline
    requires each to be a pure function of its arguments (the chaos
    compiler guarantees this by hashing [(round, edge, src, ...)] through
    a splittable seeded RNG).

    - [node_up ~round v]: is [v] alive in [round]? A down node sends
      nothing, receives nothing (messages to it are lost), and does not
      update state.
    - [state_reset ~round v]: does [v] restart with state loss at the
      start of [round]? The node is re-initialised from the net's [init].
    - [deliver ~round ~edge ~src ~dst]: verdict for one message.
    - [reorder ~round ~dst k]: an optional permutation of [0..k-1]
      applied to the [k]-message inbox of [dst] before [recv] sees it
      (the adversarial delivery-order scheduler). *)
type faults = {
  node_up : round:int -> int -> bool;
  state_reset : round:int -> int -> bool;
  deliver : round:int -> edge:int -> src:int -> dst:int -> delivery;
  reorder : round:int -> dst:int -> int -> int array option;
}

(** Everyone up, every message delivered once, no reordering. *)
val no_faults : faults

(** Event counts and a timeline digest, shared by every net created under
    one {!with_faults} extent. [digest] folds each fault event (kind,
    round, subject) in order through a SplitMix64 mix, so equal digests
    across two runs certify identical fault timelines. *)
type fault_stats = {
  mutable drops : int;  (** dropped, including messages to down nodes *)
  mutable dups : int;  (** extra copies delivered *)
  mutable delays : int;  (** messages postponed to a later round *)
  mutable crashes : int;  (** up -> down transitions *)
  mutable restarts : int;  (** state-loss resets *)
  mutable reorders : int;  (** inboxes permuted *)
  mutable digest : int64;  (** order-sensitive timeline fingerprint *)
}

(** [with_faults f thunk] installs [f] as the ambient (process-wide) fault
    context, runs [thunk], restores the previous context (also on
    exception), and returns the thunk's result with the stats accumulated
    by every net created inside. Nests; the inner context wins. *)
val with_faults : faults -> (unit -> 'a) -> 'a * fault_stats

(** Whether a fault context is installed: a net created now would run
    under it. An algorithm with a fault-free shortcut that needs no net
    takes it only when this is [false]. *)
val faults_armed : unit -> bool

(** {2 The kernel}

    One sequential kernel: every round runs on the calling domain, in
    one canonical event order. Two round entry points, each with one
    message shape: {!round} (arbitrary per-edge messages) and
    {!round_count} (payload-free broadcast). The second streams the
    adjacency rows fault-free and falls back to the per-message path
    under an ambient fault context. See [docs/data-plane.md]. *)

type ('state, 'msg) t

(** [create g ~rounds ~init] builds a network over [g]; vertex [v] starts in
    state [init v]. Rounds executed here are charged to [rounds]. If an
    ambient fault context is installed (see {!with_faults}), the net runs
    under it; otherwise it is exactly the fault-free kernel. *)
val create :
  Nw_graphs.Multigraph.t ->
  rounds:Rounds.t ->
  init:(int -> 'state) ->
  ('state, 'msg) t

val graph : ('state, 'msg) t -> Nw_graphs.Multigraph.t

val state : ('state, 'msg) t -> int -> 'state
val set_state : ('state, 'msg) t -> int -> 'state -> unit
val states : ('state, 'msg) t -> 'state array

(** The stats record of the ambient fault context this net was created
    under, or [None] for a fault-free net. *)
val fault_stats : ('state, 'msg) t -> fault_stats option

(** [round t ~label ~send ~recv] executes one synchronous round.
    [send v st] returns messages as [(edge_id, msg)] pairs; each is delivered
    to the opposite endpoint of [edge_id], which must be incident to [v].
    [recv v st msgs] sees [(edge_id, msg)] pairs and returns the new state.
    Charges one round to the ledger under [label]. *)
val round :
  ('state, 'msg) t ->
  label:string ->
  send:(int -> 'state -> (int * 'msg) list) ->
  recv:(int -> 'state -> (int * 'msg) list -> 'state) ->
  unit

(** Payload-free all-incident broadcast round: vertices for which
    [decide] holds send [()] on every incident edge; [recv] sees the count
    of received messages. Semantically {!round} with the synthesised
    send/recv, but executed directly on the adjacency rows (no
    per-message allocation). *)
val round_count :
  ('state, unit) t ->
  label:string ->
  decide:(int -> 'state -> bool) ->
  recv:(int -> 'state -> int -> 'state) ->
  unit

(** [charge_round ~rounds ~label ~messages] charges one round exactly as
    a net's round is charged: one ledger round under [label], plus the
    [msg_net.rounds] and [msg_net.messages] (by [messages], when
    positive) Obs counters. Every round entry point ends with it; an
    algorithm that computes a fault-free round's outcome without a net
    (Cole–Vishkin on its parent planes) calls it with the message count
    the net would have delivered. *)
val charge_round : rounds:Rounds.t -> label:string -> messages:int -> unit

(** Total messages delivered since creation. *)
val messages_delivered : ('state, 'msg) t -> int

(** Rounds executed on this net since creation (the fault clock: windows
    and crash schedules in fault plans are phrased in this counter). *)
val rounds_executed : ('state, 'msg) t -> int
