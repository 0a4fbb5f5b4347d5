(** Structured tracing and metrics for the decomposition pipeline.

    Every stage of the Nash-Williams pipeline (H-partition, network
    decomposition, augmenting search, CUT rules, recoloring, star
    conversion, ...) wraps its work in a {!span}. Spans nest, carry a
    monotonic-clock duration, free-form attributes ([colors_used],
    [path_len], [cluster_diam], ...), and accumulate the LOCAL rounds
    charged while they are the innermost active span (the [Rounds]
    ledger calls {!record_rounds} on every charge). Counters and
    histograms capture unordered quantities: augmenting-search steps,
    connectivity-cache hits and rebuilds, messages crossing the
    [Msg_net] kernel.

    The subsystem is disabled by default and then costs one load
    per call and allocates nothing: instrumented hot paths stay hot.
    When enabled, the process records into one trace at a time: a
    {!collect} swaps a fresh trace in and restores the previous one when
    it returns, so two experiments (or two served requests) never mix
    their spans or rounds.

    Three exporters: Chrome [trace_event] JSON (open in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}), a JSONL
    event stream, and a text summary tree. See [docs/observability.md]. *)

(** Attribute values attached to spans. *)
type value = Bool of bool | Int of int | Float of float | Str of string

(** Monotonic clock read, in nanoseconds from an arbitrary origin. The
    sanctioned timestamp source outside lib/obs: nwlint DET001 flags
    raw [Monotonic_clock] reads in lib/ but allowlists this. *)
val now_ns : unit -> int64

(** {1 Global switch} *)

val enabled : unit -> bool

(** [set_enabled true] turns recording on process-wide. With recording
    off every entry point below is a no-op (spans still run their
    thunk). *)
val set_enabled : bool -> unit

(** {1 Recording} *)

(** [span name f] runs [f ()] inside a span called [name], nested under
    the current trace's innermost open span. Timing uses the monotonic
    clock; an exception escaping [f] still closes the span. [?attrs]
    seeds the span's attributes. Disabled: exactly [f ()]. *)
val span : ?attrs:(string * value) list -> string -> (unit -> 'a) -> 'a

(** Attach an attribute to the innermost open span (latest binding of a
    key wins at export). No-op when disabled or outside any span. *)
val set_attr : string -> value -> unit

(** [record_rounds ~label r] attributes [r] LOCAL rounds to the
    innermost open span (or to the trace's unattributed bucket outside
    any span). Called by [Nw_localsim.Rounds.charge]; instrumented code
    rarely needs it directly. *)
val record_rounds : label:string -> int -> unit

(** [count name ~by] bumps the named trace-level counter. Resolves
    [name] on every call: use a {!counter} handle on a per-call path. *)
val count : ?by:int -> string -> unit

(** [observe name v] adds [v] to the named trace-level histogram
    (power-of-two buckets; count/sum/min/max are exact). Resolves [name]
    on every call: use a {!hist} handle on a per-call path. *)
val observe : string -> float -> unit

(** {1 Hot-path handles}

    A handle is a name resolved once, typically at module
    initialisation, to a slot that every trace keeps for it. Recording
    through a handle costs the enabled-flag load and an array update in
    the current trace; it allocates nothing. A handle and the string API
    of the same name record into the same entry, and a trace reports
    both exactly as if everything had gone through the string API:
    {!counters}, {!histograms} and {!phases} do not tell them apart.
    Handles are process-wide and may be made before any {!collect}. *)

type counter

(** [counter name] is the handle of the counter [count name] bumps. *)
val counter : string -> counter

(** [add h by] is [count ~by name]: the counter is listed in the trace
    even when [by] is 0. *)
val add : counter -> int -> unit

(** [incr h] is [add h 1]. *)
val incr : counter -> unit

type hist

(** [hist name] is the handle of the histogram [observe name] feeds. *)
val hist : string -> hist

(** [record h v] is [observe name (float_of_int v)] for |v| < 2{^53},
    with no float boxed. *)
val record : hist -> int -> unit

(** [record_float h v] is [observe name v]. *)
val record_float : hist -> float -> unit

type timer

(** [timer name] is the handle of a timed leaf called [name]. *)
val timer : string -> timer

(** [time h f] runs [f ()] as a leaf called [h]'s name: a span that
    opens no span of its own. The calls timed under one parent (the
    innermost open span, or none) share one span of that name, which
    adds up their durations and counts them, so {!phases} reports
    the same name, calls and first-seen order as one {!span} per call
    would, and the parent's [self_ns] excludes the timed time. An
    exception escaping [f] is recorded and re-raised. Rounds charged and
    attributes set inside [f] go to the parent, and a span opened inside
    [f] becomes the parent's child, so time only code that opens none.
    With the {!Flight} recorder armed every call still records an open
    and a close event. The exporters and {!pp_summary} show each shared
    span once, with its call count. Disabled: exactly [f ()]. *)
val time : timer -> (unit -> 'a) -> 'a

(** {1 Collection}

    A {!trace} is everything recorded between the start and end of a
    {!collect}: the forest of closed spans plus counters,
    histograms, and unattributed rounds. *)

type trace

(** [collect f] runs [f] against a fresh trace and returns
    it alongside [f]'s result. Collections nest; the outer trace does
    not see the inner one's events. With recording disabled the trace
    comes back empty. *)
val collect : (unit -> 'a) -> 'a * trace

val is_empty : trace -> bool

(** [fold_roots ()] folds the current trace's completed root spans
    into per-name totals (calls, inclusive and self time, self-rounds
    and their per-label split, in first-seen pre-order) kept in the
    in-flight trace, and drops the span trees. Cost: O(spans folded).
    Open spans, counters, histograms and unattributed rounds are not
    touched; a fold with no completed roots is a no-op.

    {!phases}, {!total_rounds}, {!root_wall_ns}, {!is_empty} and
    {!live_snapshot} read the folded totals together with the unfolded
    roots, so their values (and a Prometheus rendering of them) are the
    same before and after a fold. {!pp_summary}'s tree and the Chrome
    and JSONL exports show only unfolded spans; the summary's header
    totals include folded ones. A long-lived collection (the daemon's)
    folds after every request, so its memory is bounded by the number of
    distinct span names, not by the requests served. *)
val fold_roots : unit -> unit

(** {1 Summaries} *)

type histogram = {
  count : int;
  sum : float;
  min : float;
  max : float;
  buckets : (float * int) list;  (** (upper bound, count), non-empty only *)
}

(** Aggregate of all spans sharing a name, folded ones included, in
    first-seen pre-order.
    [self_ns] excludes child spans; [rounds] are self-rounds, so summing
    either column over all phases (plus {!unattributed_rounds}) gives
    the trace totals with no double counting. *)
type phase = {
  name : string;
  calls : int;
  total_ns : int64;  (** inclusive; overlaps along nesting chains *)
  self_ns : int64;
  rounds : int;
  rounds_by_label : (string * int) list;
}

val phases : trace -> phase list

(** Rounds recorded outside any span. *)
val unattributed_rounds : trace -> int

(** Self-rounds summed over every span plus {!unattributed_rounds}:
    equals the ledger total charged during the collection. *)
val total_rounds : trace -> int

(** Wall time covered by root spans, folded ones included (children are
    inside their roots). *)
val root_wall_ns : trace -> int64

val counters : trace -> (string * int) list
val histograms : trace -> (string * histogram) list

(** [percentile h q] is the nearest-rank q-th percentile (q in
    [0, 100], clamped) from the power-of-two buckets: the upper bound
    of the bucket holding the rank-th observation, clamped into
    [[h.min, h.max]]. Exact for constant and single-sample
    distributions; otherwise within a factor of 2 (the bucket width).
    [None] on an empty histogram. *)
val percentile : histogram -> float -> float option

(** Read-only copy of the current in-flight trace: completed
    root spans (open spans excluded), folded totals, counters,
    histograms, and unattributed rounds as of now. Later spans and
    folds do not change it. Safe to render while recording
    continues — the metrics exposition path calls this between
    pipeline passes. *)
val live_snapshot : unit -> trace

(** Render the span tree of the unfolded spans (durations, per-span
    rounds, attributes), then counters and histograms. The header's wall
    time and round total include folded spans (see {!fold_roots}). *)
val pp_summary : Format.formatter -> trace -> unit

(** {1 Exporters} *)

(** Both exporters write the unfolded spans only: a span folded by
    {!fold_roots} survives in {!phases}, not as an event. *)
module Export : sig
  (** Chrome [trace_event] JSON ([{"traceEvents": [...]}], complete
      "X" events, microsecond timestamps). Each trace in the list is one
      experiment or one request; the process records on one domain, so
      they share its [tid] lane.
      Span attributes, self-rounds, and per-label rounds appear under
      each event's ["args"]. *)
  val chrome : Buffer.t -> trace list -> unit

  val chrome_to_channel : out_channel -> trace list -> unit

  (** One JSON object per line: [span], [counter], and [histogram]
      events. *)
  val jsonl : Buffer.t -> trace list -> unit

  val jsonl_to_channel : out_channel -> trace list -> unit
end
