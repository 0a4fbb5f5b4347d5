(** Named dynamic-graph sessions behind the daemon.

    A session owns a growing edge-slot table over a fixed vertex set:
    insertions append a slot, deletions tombstone one (slot ids — the
    wire protocol's edge ids — are never reused once an insert has
    answered with them), and every mutation or
    re-decomposition bumps the session {e epoch}, so a client can order
    responses and detect staleness.

    Batch requests ([decompose]/[orient]) compact the live slots into a
    fresh graph and run the named {!Nw_engine.Registry} entry through
    the engine exactly as one-shot [forestd decompose] does — same RNG
    construction, same alpha resolution, same pipeline — so a served
    response is byte-identical to the one-shot path on the same graph.

    After a verified forest decomposition, edge churn is answered
    {e incrementally} and in place, at a cost that does not grow with
    the edge count m. The session keeps its slot table as two endpoint
    rows and the live {!Nw_decomp.Coloring} over every slot (edge id =
    slot id); no slot graph is built per update. An insert appends the
    edge to the coloring ({!Nw_decomp.Coloring.add_edge}, amortized
    O(1)), probes the palette in color order with
    {!Nw_decomp.Coloring.connected} (one root-label compare per color)
    and colors the edge with the first admissible color;
    {!Nw_decomp.Coloring.set} itself refuses a cycle, so no re-check
    follows, and re-hangs the smaller of the two trees it joins. A
    delete is a bare {!Nw_decomp.Coloring.unset}, which re-roots the
    subtree that loses the edge. No per-update term is proportional to
    n or m: each update touches only the trees it changes.

    If no palette color admits the edge, or the last batch entry has no
    live coloring (star-forest and list entries: the forest-only probe
    cannot enforce their predicate), the session falls back to a full
    re-decomposition with the remembered batch parameters, checked with
    the entry's own checker. A fault-free decomposition runs the
    pipeline once, with no checkpoints: its passes are deterministic, so
    a retry could only fail the same way, and a failure answers
    [Error "decomposition failed: <exn>"].
    Chaos plans armed on the session run batch work under
    {!Nw_chaos.Harness.run_epochs_resumable}, so every served response
    carries the harness's valid/detected/corrupt classification. *)

type t

(** [create ~name ~n ~edges] is a fresh session at epoch 1.
    @raise Invalid_argument on an endpoint out of range or a self-loop
    (callers validate first; see {!valid_edge}). *)
val create : name:string -> n:int -> edges:(int * int) list -> t

val name : t -> string
val epoch : t -> int
val vertex_count : t -> int

(** Live (non-tombstoned) edge slots. *)
val live_edges : t -> int

(** All slots ever allocated, dead ones included. *)
val total_slots : t -> int

val incremental_updates : t -> int
val fallbacks : t -> int

(** The live incremental coloring as one color per slot ([-1] for dead
    or uncolored slots), when the session has one. Fresh array. *)
val slot_colors : t -> int array option

(** Wire name of the algorithm behind the live coloring, if any. *)
val last_algorithm : t -> string option

(** [valid_edge ~n u v] checks endpoint range and non-self-loop. *)
val valid_edge : n:int -> int -> int -> (unit, string) result

val arm_chaos : t -> plan:Nw_chaos.Plan.t -> chaos_seed:int -> unit
val chaos_armed : t -> bool

(** {1 Batch work} *)

type output =
  | Colored of { slot_colors : int array; colors_used : int }
      (** per-slot colors, [-1] for dead or uncolored slots *)
  | Oriented of { heads : int array; max_out_degree : int }
      (** per-slot head vertex, [-1] for dead slots *)
  | Pseudo of { slot_colors : int array; k : int }

type chaos_summary = {
  cs_valid : int;
  cs_detected : int;
  cs_corrupt : int;
  cs_recoveries : int;
}

type decomposed = {
  d_output : output;
  d_epoch : int;
  d_alpha : int option;
      (** the bound actually used: resolved when omitted, [None] when
          omitted for an entry that reads none ({!Nw_engine.Registry.resolve}) *)
  d_verified : (unit, string) result;
  d_chaos : chaos_summary option;  (** present iff a plan is armed *)
}

(** Run a registry entry over the compacted live graph. [alpha:None]
    resolves the exact arboricity like the CLI does. A verified
    [Colored] result of a non-star entry becomes the session's live
    incremental coloring (palette = max color id + 1); any other result
    clears it. [Error] covers an empty-session decompose, a failed
    fault-free run (["decomposition failed: <exn>"]) and a chaos-killed
    run (the detail carries the harness classification). *)
val decompose :
  t ->
  entry:Nw_engine.Registry.entry ->
  epsilon:float ->
  seed:int ->
  alpha:int option ->
  (decomposed, string) result

(** {1 Edge churn} *)

type mode = Incremental | Fallback

val mode_label : mode -> string

type churn = {
  ch_edge : int;  (** the slot touched *)
  ch_color : int option;
      (** color assigned (insert) or released (delete), when a live
          coloring exists *)
  ch_mode : mode;
  ch_epoch : int;
}

(** Append an edge slot. With a live coloring, appends the edge to it in
    place and probes the palette: O(palette · α(n)) amortized, plus
    O(n + m_c) for each color a delete dirtied since its last probe.
    Falls back to a full re-decomposition when no color admits the edge,
    or when the last batch yielded a coloring but left no live one (a
    star-forest or list entry, or an unverified result), so an insert
    after a coloring batch always answers with a color. Before any batch
    the append is structural only. When the fallback's re-decomposition
    fails the insert answers [Error] and leaves the edges as they were:
    the slot is not kept, and the next insert gets its id. Each fallback
    bumps the Obs counter [service.fallbacks] and one named by its
    cause, [service.fallbacks.no_live_coloring] or
    [service.fallbacks.palette_full]; a failed re-decomposition also
    bumps [service.fallbacks.redecompose_failed]. *)
val insert_edge : t -> u:int -> v:int -> (churn, string) result

(** Tombstone a slot. With a live coloring this is a bare unset of the
    slot's edge, which re-roots the subtree that loses the edge, in
    O(size of that subtree). Deletion only shrinks a forest, so it never
    needs the fallback. *)
val delete_edge : t -> edge:int -> (churn, string) result
