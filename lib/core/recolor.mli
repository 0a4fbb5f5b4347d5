(** Recoloring leftover edges with fresh colors.

    Every top-level algorithm ends by mopping up a sparse leftover edge set
    (CUT removals, diameter-reduction deletions, unmatched star edges) with
    [O(eps*alpha)] extra colors. Both helpers measure the leftover's exact
    pseudo-arboricity (path reversal), build a Theorem 2.1 H-partition
    orientation of it, and append fresh colors after the base coloring's
    space: {!append_forests} uses one forest per out-edge label (plain FD);
    {!append_stars} further splits each forest into 3 star-forests via
    Cole–Vishkin (Theorem 2.1(3)). *)

(** [append_forests base removed ~rounds]: new coloring extending [base]
    with the [removed] edges colored in fresh forest colors; returns it and
    the number of fresh colors. *)
val append_forests :
  Nw_decomp.Coloring.t ->
  bool array ->
  rounds:Nw_localsim.Rounds.t ->
  Nw_decomp.Coloring.t * int

(** [append_stars base removed ~ids ~rounds]: same, but the fresh classes
    are star forests (diameter at most 2). *)
val append_stars :
  Nw_decomp.Coloring.t ->
  bool array ->
  ids:int array ->
  rounds:Nw_localsim.Rounds.t ->
  Nw_decomp.Coloring.t * int
