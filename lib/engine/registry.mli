(** The single algorithm registry.

    One entry per user-facing algorithm, in the order the CLI lists them;
    [bin/forestd] and the bench harness both dispatch through {!find}
    instead of hand-rolled match statements, so adding an algorithm means
    adding one entry here. *)

type spec = {
  graph : Nw_graphs.Multigraph.t;
  epsilon : float;
  alpha : int;
      (** arboricity bound; 0 when the caller gave none and the entry
          does not read it ({!resolve}) *)
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
  reads_alpha : bool;  (** the pipeline or its checker reads [spec.alpha] *)
  yields : yields;
  build : spec -> Engine.pipeline;
      (** deterministic; consumes no randomness *)
}

val all : entry list

(** [verify entry spec store] is [entry]'s own checker on the store its
    pipeline left for [spec]: a (star) forest decomposition for
    [Coloring_out] (star when [entry.star]), out-degree at most
    [⌈(1+ε)α⌉] for [Orientation_out], a pseudo-forest assignment for
    [Pseudo_out]. *)
val verify : entry -> spec -> Store.t -> (unit, string) result

(** [resolve entry g ~epsilon ~alpha] is the spec [entry] runs on over
    [g] and the α it carries: [alpha] when given, else the exact
    arboricity of [g] (under an ["arboricity.exact"] span) if
    [entry.reads_alpha], else [None] (the spec holds 0, which nothing
    reads). The CLI and a served session both resolve here. *)
val resolve :
  entry ->
  Nw_graphs.Multigraph.t ->
  epsilon:float ->
  alpha:int option ->
  spec * int option

val find : string -> entry option
val names : unit -> string list

(** [(registry name, hash)] — an FNV-1a digest of every entry's pipeline
    shape on a fixed canonical spec, rebuilt on every call in a trace of
    its own that is dropped. Stamped into bench records ([env.pipeline]) so
    trajectory comparisons detect registry drift. *)
val stamp : unit -> string * string
