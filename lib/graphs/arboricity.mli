(** Arboricity and pseudo-arboricity measures.

    Nash-Williams: the arboricity [α(G)] equals
    [max over subgraphs H of ceil(|E(H)| / (|V(H)| - 1))].
    The pseudo-arboricity [α*(G)] is the least [k] admitting a
    [k]-orientation, and equals [max over H of ceil(|E(H)| / |V(H)|)];
    always [α* <= α <= 2 α*], and [α <= α* + 1] on simple graphs.

    Exact arboricity via matroid partition lives in
    [Nw_baseline.Gabow_westermann] (it needs the forest-partition machinery);
    this module provides the density lower bound and the exact
    pseudo-arboricity by path reversal. *)

(** Largest value of [ceil(m_C / (n_C - 1))] over connected components [C];
    a lower bound on arboricity. 0 on edgeless graphs. *)
val density_lower_bound : Multigraph.t -> int

(** Exact pseudo-arboricity with a witness orientation whose max out-degree
    is exactly [α*]. Starts from the degeneracy orientation and lowers the
    max out-degree by reversing out-edge paths from its most loaded
    vertices (Mitrović–Rubinfeld–Singhal's primitive) until it meets the
    largest [ceil(m_C / n_C)] over components, or until a vertex at the
    max reaches no vertex with spare out-degree: the set it reaches is a
    subgraph of density above [max - 1], which certifies the value.
    [(0, trivial)] on edgeless graphs.

    Each level runs at most one BFS per vertex, so the worst case is
    [O((d - α* ) * n * (n + m))] for degeneracy [d <= 2α*]. On [K_c]
    every BFS stops at its first hop, and the cost is [Θ(m^1.5)]. *)
val pseudo_arboricity : Multigraph.t -> int * Orientation.t
