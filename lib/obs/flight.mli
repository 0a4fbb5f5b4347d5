(** Bounded flight recorder: one ring buffer of the most recent
    instrumentation events, dumped as a self-contained JSON post-mortem
    ([nw-flight/1]) when a pipeline pass fails, a chaos epoch is
    detectably invalid, or a crash is being explained after the fact.

    The recorder piggybacks on the Obs instrumentation stream:
    [Obs.span], [Obs.count], and [Obs.record_rounds] forward into the
    hook functions below from inside their enabled paths. Recording
    therefore requires {e both} [Obs.set_enabled true] and
    {!set_enabled}[ true]; with either switch off every entry point is
    one load and no allocation. The process holds one ring, the
    way [Obs] holds one trace. See [docs/observability.md] for the dump
    format. *)

(** {1 Switches} *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** [configure ~capacity ()] sets the ring capacity (events retained)
    for a ring created afterwards, i.e. after start or {!reset}. Default
    512.
    @raise Invalid_argument if [capacity < 1]. *)
val configure : ?capacity:int -> unit -> unit

(** {1 Marks}

    Free-form progress beacons ([engine.checkpoint],
    [engine.pass_failed], [chaos.epoch], ...). The latest mark per name
    is additionally lifted into the dump's top-level ["last"] object so
    a post-mortem names the failing pass and last checkpoint without
    scanning the rings. *)

(** [mark name fields] records a mark event with string key/value
    [fields]. No-op when disabled. *)
val mark : string -> (string * string) list -> unit

(** Latest fields recorded for [name], if any. *)
val last_mark : string -> (string * string) list option

(** {1 Dumping} *)

(** [set_sink ~env path] arms the auto-dump: the next {!trigger} writes
    the post-mortem JSON to [path] (overwriting), stamping [env] into
    the dump. *)
val set_sink : ?env:(string * string) list -> string -> unit

val clear_sink : unit -> unit
val sink_path : unit -> string option

(** [trigger ~reason ()] writes a post-mortem to the configured sink;
    no-op when no sink is armed. A [Sys_error] writing the file is
    swallowed: the post-mortem path never masks the failure it
    explains. *)
val trigger : reason:string -> unit -> unit

(** Dumps successfully written through {!trigger} since start/reset. *)
val dumps_written : unit -> int

(** [render ~env ~reason b] appends the [nw-flight/1] JSON document to
    [b] (used by {!trigger}; exposed for tests and custom sinks). *)
val render : ?env:(string * string) list -> reason:string -> Buffer.t -> unit

(** {1 Recording hooks}

    Called by [Obs] from inside its enabled paths; instrumented code
    does not call these directly. *)

val on_span_open : t_ns:int64 -> string -> unit
val on_span_close : t_ns:int64 -> dur_ns:int64 -> rounds:int -> string -> unit
val on_counter : name:string -> delta:int -> unit
val on_charge : label:string -> rounds:int -> unit

(** {1 Test support} *)

(** Drop the ring, marks, and dump counters (the enabled switch and
    sink are untouched). The next event recreates the ring at the
    configured capacity. *)
val reset : unit -> unit
