(** The main distributed forest-decomposition algorithm — Algorithm 2 and
    Theorems 4.1, 4.5, 4.6, 4.10 of the paper.

    Pipeline: network decomposition of the power graph [G^(2(R+R'))]; for
    each class, each cluster runs {!Cut} to disconnect itself
    monochromatically from distance [R], then colors every nearby uncolored
    edge by a local augmenting sequence (Section 3). Edges removed by CUT
    (plus any rare augmentation stalls) form the {e leftover}, recolored at
    the end with [O(eps*alpha)] extra colors:
    - ordinary coloring: an H-partition forest decomposition of the leftover
      (Theorem 4.6);
    - list coloring: a vertex-color-splitting reserves back-up palettes
      [Q_1] up front and the leftover gets a Theorem 2.3 LSFD on them
      (Theorem 4.10).

    Round charges follow the Theorem 4.1 accounting: the network
    decomposition pays its own way, and each class costs
    [O((R + R') log n)] rounds of [G].

    This module holds the plans and phases; the engine's [partial],
    [augment] and [lfd] pipelines run them in sequence ([Nw_engine.Run]). *)

type stats = {
  classes : int;
  clusters : int;
  good_cuts : int; (** clusters whose CUT disconnected every color *)
  bad_cuts : int;
  stalls : int; (** augmentation failures, sent to the leftover *)
  leftover_edges : int;
  max_sequence_length : int; (** longest augmenting sequence applied *)
  max_explored : int; (** largest Algorithm-1 edge set |E_i| *)
  max_iterations : int; (** most Algorithm-1 growth iterations *)
}

(** [auto_cut ~n ~alpha ~max_degree ~epsilon] picks the CUT rule the way
    Theorem 4.5 cases its complexity bounds:
    - [alpha >= ln n] or [alpha >= ln max_degree] → [Depth_mod]
      ([O(log^3 n / eps)] resp. [O(log^4 n / eps)] rounds);
    - [eps*alpha >= ln max_degree] → [Sampled 0.5] (Thm 4.2(4));
    - otherwise → [Sampled (t / (2 ln max_degree))], the optimized eta of
      Thm 4.2(3), clamped to (0, 0.5]. *)
val auto_cut :
  n:int -> alpha:int -> max_degree:int -> epsilon:float -> Cut.rule

(** Paper-shaped default radii [(R, R')] for Algorithm 2 (with practical
    constants; the benchmark harness sweeps them). [R'] is the augmenting
    search radius [Θ(log n / eps)]; [R] is the CUT radius of Theorem 4.2. *)
val default_radii :
  n:int ->
  epsilon:float ->
  alpha:int ->
  max_degree:int ->
  cut:Cut.rule ->
  int * int

(** [check_epsilon eps] raises [Invalid_argument] unless [eps > 0] — the
    same guard every entry point applies, exposed so engine pipelines can
    fail at build time instead of mid-run. *)
val check_epsilon : float -> unit

(** [fd_plan g ~epsilon ~alpha ~cut ~radii] derives the Theorem 4.6
    parameters: returns [(eps', palette, radii)] with [eps' = epsilon/10],
    a full palette of [ceil((1+eps') alpha)] colors, and the default radii
    when [radii] is [None]. Pure; the engine's [augment], [orientation] and
    [pseudo] pipelines derive their parameters here. *)
val fd_plan :
  Nw_graphs.Multigraph.t ->
  epsilon:float ->
  alpha:int ->
  cut:Cut.rule ->
  radii:(int * int) option ->
  float * Nw_decomp.Palette.t * (int * int)

(** [lfd_plan g ~epsilon ~alpha ~radii] is the Theorem 4.10 analogue of
    {!fd_plan}: returns [(eps', radii)] for the list variant (which always
    cuts with [Diam_reduce]). *)
val lfd_plan :
  Nw_graphs.Multigraph.t ->
  epsilon:float ->
  alpha:int ->
  radii:(int * int) option ->
  float * (int * int)

(** [partial_color g palette ~epsilon ~alpha ~cut ~radii ~nd ~rng ~rounds]
    is the class-by-class CUT + augmentation phase of Theorem 4.5, taking a
    precomputed network decomposition [nd] of [G^(2(R+R'))] (the engine
    runs that as its own pass). Returns [(coloring, removed, stats)]. *)
val partial_color :
  Nw_graphs.Multigraph.t ->
  Nw_decomp.Palette.t ->
  epsilon:float ->
  alpha:int ->
  cut:Cut.rule ->
  radii:int * int ->
  nd:Net_decomp.t ->
  rng:Random.State.t ->
  rounds:Nw_localsim.Rounds.t ->
  Nw_decomp.Coloring.t * bool array * stats

(** [lfd_leftover g ~colors ~phi0 ~q1 ~removed ~rng ~rounds] colors the
    [removed] leftover on the reserved side-1 palettes [q1] (Theorem 2.3
    LSFD, falling back to direct augmentation below its palette regime) and
    merges the result into [phi0]'s classes (Proposition 4.8). Returns
    [phi0] unchanged when nothing is left over. *)
val lfd_leftover :
  Nw_graphs.Multigraph.t ->
  colors:int ->
  phi0:Nw_decomp.Coloring.t ->
  q1:Nw_decomp.Palette.t ->
  removed:bool array ->
  rng:Random.State.t ->
  rounds:Nw_localsim.Rounds.t ->
  Nw_decomp.Coloring.t
