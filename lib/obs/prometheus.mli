(** Prometheus text-exposition (text/plain; version=0.0.4) rendering of
    Obs traces: counters as an [nw_counter_total{name="..."}] family,
    histograms as cumulative [_bucket{le="..."}]/[_sum]/[_count]
    series under sanitized [nw_*] names, per-phase aggregates as
    [nw_phase_{calls,seconds,self_seconds,rounds}_total{phase="..."}],
    and the trace round totals. Several traces (each one experiment or
    one request) are merged by name. Works on {!Obs.live_snapshot} copies, so a running
    daemon can be scraped between pipeline passes. *)

val render : Buffer.t -> Obs.trace list -> unit
val to_string : Obs.trace list -> string

(** Metric-name sanitization ([a-zA-Z0-9_] only) and label-value
    escaping, exposed for tests. *)
val sanitize : string -> string

val escape_label : string -> string
