(** Augmenting sequences for list-forest decomposition — Section 3.

    An augmenting sequence from an uncolored edge [e1] is
    [(e1, c1, e2, c2, .., el, cl)] with (paper conditions):
    - (A1) [e1] uncolored;
    - (A2) [e_i ∈ C(e_{i-1}, c_{i-1})] — each next edge lies on the cycle the
      previous recoloring would close;
    - (A3) [e_i ∉ C(e_j, c_j)] for [j < i-1];
    - (A4) [C(e_l, c_l) = ∅] — the last recoloring closes no cycle;
    - (A5) [c_i ∈ Q(e_i)].

    Applying it (set [ψ(e_i) = c_i], processed from the tail) keeps every
    color class a forest (Lemma 3.1) and colors one more edge.

    {!search} is Algorithm 1: grow an edge set [E_i] from [e1]; either some
    reachable recoloring closes no cycle (an {e almost} augmenting sequence,
    missing only (A3)), or [E_i] grows by a factor [(1+eps)] per iteration
    (Proposition 3.3) — so with palettes of size [(1+eps)α] a sequence of
    length [O(log n / eps)] exists within radius [O(log n / eps)] of [e1]
    (Theorem 3.2). {!short_circuit} is Proposition 3.4. *)

type sequence = (int * int) list
(** [(edge, color)] pairs, head = the uncolored edge [e1]. *)

type search_stats = {
  iterations : int; (** growth iterations used by Algorithm 1 *)
  explored : int; (** |E_i| when the search ended *)
  growth : (int * int) list; (** (iteration, |E_i|) trace, ascending *)
}

type outcome =
  | Found of sequence * search_stats
  | Stalled of search_stats * int list
      (** the reachable edge set stopped growing: with palettes of size at
          least [(1+eps)·α] this certifies a local density violation and
          cannot happen (Prop 3.3); callers treat it as failure. The list
          is the vertex set of the stalled [E_i] — the closure of [{e1}]
          under "add the edges of [C(e, c)] adjacent to the set", i.e. the
          density witness of Prop 3.3's final inequality. *)

type scratch
(** Reusable timestamped working arrays for {!search} and
    {!short_circuit} (the edge set [E_i], the parent pointers, the
    touched-vertex set). Hot loops that run one
    search per edge allocate this once via {!scratch} and pass it to every
    call; a search without one allocates a fresh scratch internally. *)

(** [scratch coloring] allocates search scratch sized for [coloring]'s
    graph. A scratch may be reused across colorings of graphs no larger
    than the one it was created for. *)
val scratch : Nw_decomp.Coloring.t -> scratch

(** [search coloring palette ~start ?within ?scratch ()] runs Algorithm 1
    from the uncolored edge [start]. When [within] is given, only edges
    with both endpoints in that vertex set are explored (the cluster-local
    search of Algorithm 2). The result sequence is almost augmenting:
    (A1), (A2), (A4), (A5).

    The first iteration reads of each [C(start, c)] only the edges at
    [start]'s endpoints ({!Nw_decomp.Coloring.iter_path_ends}), the only
    ones that can join [E_1]; later iterations walk whole paths. Without
    [within], the colors are first tested for an empty [C(start, c)] in
    palette order, and a free color ends the search with no path read:
    the colors before it add their end-edge counts to [explored]
    ({!Nw_decomp.Coloring.path_end_count}). Sequences, statistics and
    connectivity counts are those of walking every path in full. *)
val search :
  Nw_decomp.Coloring.t ->
  Nw_decomp.Palette.t ->
  start:int ->
  ?within:bool array ->
  ?scratch:scratch ->
  unit ->
  outcome

(** [short_circuit ?scratch coloring seq] extracts an augmenting
    subsequence satisfying (A3) as well (Proposition 3.4). Paths are
    evaluated on the current (pre-augmentation) coloring. A sequence of
    fewer than 3 entries is returned as is, without allocating. *)
val short_circuit :
  ?scratch:scratch -> Nw_decomp.Coloring.t -> sequence -> sequence

(** [apply coloring seq] performs the augmentation: assigns [ψ(e_i) = c_i]
    from the tail of the sequence forward (the induction order of
    Lemma 3.1). The forest invariant is re-checked at every step by
    {!Nw_decomp.Coloring.set}.
    @raise Invalid_argument if the sequence is not augmenting. *)
val apply : Nw_decomp.Coloring.t -> sequence -> unit

(** [augment_edge coloring palette ~edge ?within ?scratch ()] searches,
    short-circuits and applies; [Ok stats] on success, [Error witness] on
    a stall, with the stall's vertex set (see {!Stalled}). *)
val augment_edge :
  Nw_decomp.Coloring.t ->
  Nw_decomp.Palette.t ->
  edge:int ->
  ?within:bool array ->
  ?scratch:scratch ->
  unit ->
  (search_stats, int list) result
