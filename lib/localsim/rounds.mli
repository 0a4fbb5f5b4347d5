(** Round accounting for the LOCAL model.

    The algorithms in this library are executed by a central simulator, but
    every step corresponds to a phase of a LOCAL-model algorithm, and each
    phase {e charges} this ledger the number of synchronous rounds the
    LOCAL algorithm would spend (e.g. collecting a radius-[r] ball charges
    [r]; processing a cluster of weak diameter [d] charges [O(d)]).
    The benchmark harness reports these charged rounds; they are the
    empirical counterpart of the round complexities in the paper. *)

type t

val create : unit -> t

(** [charge t ~label r] adds [r >= 0] rounds attributed to [label].
    Every charge also feeds the process-wide counter ({!grand_total})
    and, when tracing is enabled, the active [Nw_obs.Obs] span. *)
val charge : t -> label:string -> int -> unit

(** Total rounds charged so far. *)
val total : t -> int

(** Total across {e all} ledgers charged since program start. The
    bench harness attributes an experiment the delta of this counter
    around it; the LOCAL kernel is sequential, so that delta holds
    exactly the experiment's own charges. *)
val grand_total : unit -> int

(** Per-label breakdown in first-charge order. *)
val ledger : t -> (string * int) list

(** [merge_into ~into t] adds all of [t]'s charges into [into]
    (sequential composition of two algorithm stages). *)
val merge_into : into:t -> t -> unit

(** [charge_max t ts] adds, per label, the maximum charge across [ts]:
    parallel composition (stages running concurrently on disjoint parts,
    e.g. all clusters of one network-decomposition class). *)
val charge_max : t -> t list -> unit

val pp : Format.formatter -> t -> unit
