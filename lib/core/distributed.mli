(** A fully distributed end-to-end decomposition (Theorem 2.1(3) with no
    centrally simulated phase).

    Every stage either executes its rounds one by one or is a purely
    local per-vertex rule:
    + H-partition peeling executes round by round on {!Nw_localsim.Msg_net}
      ({!H_partition.compute});
    + one exchange round tells every vertex its neighbors' layers; the
      acyclic orientation (edges point to higher layer, ties by id) and the
      out-edge labeling are then decided locally per vertex;
    + the Cole–Vishkin 3-coloring of all [t] forests runs concurrently
      ({!Cole_vishkin.three_color_forests}), and each vertex colors its own
      child edges from its final vertex color. Fault-free, each of its
      rounds is computed on flat parent planes and charged as the kernel
      charges a round (a vertex only uses its parent's color and whether
      it has children); under an armed fault context it runs on a
      kernel net.

    The round ledger therefore contains only {e executed} rounds,
    certifying that the charge model used by the centrally simulated
    algorithms (Algorithm 2 and friends) is realizable end to end for one
    complete theorem. The tests check the output against the same bounds as
    the centrally assembled {!H_partition} products. *)

(** [star_forest_decomposition g ~epsilon ~alpha_star ~rounds] returns a
    [3t]-star-forest decomposition, [t = floor((2+epsilon) alpha_star)];
    every charged round was executed, on the kernel or on Cole–Vishkin's
    parent planes.
    @raise Failure if peeling stalls ([alpha_star] too small). *)
val star_forest_decomposition :
  Nw_graphs.Multigraph.t ->
  epsilon:float ->
  alpha_star:int ->
  rounds:Nw_localsim.Rounds.t ->
  Nw_decomp.Coloring.t
