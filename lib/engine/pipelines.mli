(** Declarative pipelines for the composite algorithms, built from the
    phases of [lib/core], and for the CLI-facing baselines.

    These pipelines are the only sequencing of the plan and phase
    functions of [lib/core]; {!Run} wraps each as a plain function.
    Builders consume no randomness themselves; all nondeterminism happens
    inside passes, which is what makes checkpoint/resume sound.

    Store conventions: the initial store must bind ["graph"]; results land
    under ["coloring"] (plus ["removed"]/["fd_stats"] for the forest
    algorithms, ["sfd_stats"] for the star-forest ones, ["orientation"]
    and ["assignment"] for the orientation pipelines). *)

(** Theorem 4.5 ({!Run.decompose_with_leftover}): partial LFD from
    an explicit palette; leaves ["coloring"], ["removed"], ["fd_stats"]. *)
val partial :
  Nw_graphs.Multigraph.t ->
  Nw_decomp.Palette.t ->
  epsilon:float ->
  alpha:int ->
  cut:Nw_core.Cut.rule ->
  radii:int * int ->
  Engine.pipeline

(** Theorem 4.6 ({!Run.forest_decomposition}). *)
val augment :
  Nw_graphs.Multigraph.t ->
  epsilon:float ->
  alpha:int ->
  ?cut:Nw_core.Cut.rule ->
  ?radii:int * int ->
  ?diameter:[ `Unbounded | `Log_over_eps | `Inv_eps ] ->
  unit ->
  Engine.pipeline

(** Theorem 4.10 ({!Run.list_forest_decomposition}). *)
val lfd :
  Nw_graphs.Multigraph.t ->
  Nw_decomp.Palette.t ->
  epsilon:float ->
  alpha:int ->
  ?split:[ `Mpx | `Lll ] ->
  ?radii:int * int ->
  unit ->
  Engine.pipeline

(** Theorem 2.3 ([Lsfd.distributed]).
    @raise Invalid_argument at build time when palettes are too small. *)
val lsfd :
  Nw_graphs.Multigraph.t ->
  Nw_decomp.Palette.t ->
  epsilon:float ->
  alpha_star:int ->
  Engine.pipeline

(** Theorem 5.4(1) ({!Run.sfd}); the initial store must also bind
    ["orientation"]. *)
val sfd : epsilon:float -> alpha:int -> ids:int array -> Engine.pipeline

(** The CLI's [star] recipe: exact Gabow–Westermann forest decomposition,
    orientation along it, then {!sfd}. *)
val star :
  Nw_graphs.Multigraph.t -> epsilon:float -> alpha:int -> Engine.pipeline

(** Theorem 5.4(2) ({!Run.star_lsfd}); the initial store must also bind
    ["orientation"]. *)
val star_list : Nw_decomp.Palette.t -> epsilon:float -> Engine.pipeline

(** Corollary 1.1 ({!Run.orientation}); leaves ["orientation"] (and the
    intermediate ["coloring"]/["fd_stats"]). *)
val orientation :
  Nw_graphs.Multigraph.t ->
  epsilon:float ->
  alpha:int ->
  ?cut:Nw_core.Cut.rule ->
  ?radii:int * int ->
  unit ->
  Engine.pipeline

(** Corollary 1.1 pseudo-forests ({!Run.pseudo}); leaves
    ["assignment"]. *)
val pseudo :
  Nw_graphs.Multigraph.t -> epsilon:float -> alpha:int -> Engine.pipeline

(** Centralized baselines, one pass each. *)

val exact : unit -> Engine.pipeline
val greedy : unit -> Engine.pipeline
val be : epsilon:float -> Engine.pipeline
val amr : unit -> Engine.pipeline
