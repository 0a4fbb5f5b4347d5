(** The single algorithm registry.

    One entry per user-facing algorithm, in the order the CLI lists them;
    [bin/forestd] and the bench harness both dispatch through {!find}
    instead of hand-rolled match statements, so adding an algorithm means
    adding one entry here. *)

type spec = {
  graph : Nw_graphs.Multigraph.t;
  epsilon : float;
  alpha : int;  (** arboricity bound (CLI resolves it exactly if omitted) *)
}

(** What the pipeline leaves in the store for the front end to report. *)
type yields =
  | Coloring_out  (** ["coloring"] *)
  | Orientation_out  (** ["orientation"] *)
  | Pseudo_out  (** ["assignment"] *)

type entry = {
  name : string;  (** CLI name, e.g. ["augment"] *)
  description : string;
  star : bool;  (** verify classes as star forests *)
  simple_only : bool;
      (** the pipeline rejects multigraphs (parallel edges) *)
  reports_rounds : bool;  (** false for the centralized baselines *)
  yields : yields;
  build : spec -> Engine.pipeline;
      (** deterministic; consumes no randomness *)
}

val all : entry list
val find : string -> entry option
val names : unit -> string list

(** [(registry name, hash)] — an FNV-1a digest of every entry's pipeline
    shape on a fixed canonical spec. Stamped into bench records
    ([env.pipeline]) so trajectory comparisons detect registry drift. *)
val stamp : unit -> string * string
