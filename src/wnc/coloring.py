"""Edge coloring: the exact chromatic index.

The chromatic index of a simple graph is Delta or Delta + 1 (Vizing), so
exactness reduces to deciding Delta-edge-colorability. No search is made;
the answer is decided in this order, or is UNKNOWN, never a guess:

1. on a graph built from a ring, the sum coloring, which colors the edge
   {x, y} by x + y (`WncGraph.sum_coloring`, computed once per graph),
   when it is proper and uses at most Delta colors. A proper
   Delta-edge-coloring leaves no Delta + 1 rule below to fire.
2. Textbook facts settle each component they can: one with
   |E| > Delta * floor(|V|/2) edges is refuted by the matching counting
   bound, and a complete component K_m needs m - 1 colors for even m (the
   round-robin construction, checked in the tests rather than at run
   time) and m for odd m.
3. If a component is left: on certified rows, when every 2x lies in the
   period K of S and |K| is even. S is a union of cosets of K. If 0 is in
   S, so is K, and each coset of K is a complete K_|K| (its sums lie in
   2x + K = K), colored by a 1-factorization with |K| - 1 colors; every
   other edge takes x + y, which lies outside K and is distinct at each
   vertex by cancellation. That is |S| - |K| + |K| - 1 = |S| - 1 colors,
   and every vertex has degree |S| - 1 since 2x is in S. If 0 is not in
   S, no 2x is, and x + y alone colors every edge with |S| = Delta colors.
"""

from __future__ import annotations

from .bitsets import bit_list
from .graph import WncGraph, max_degree
from .invariants import UNKNOWN, components


def chromatic_index_exact(graph: WncGraph):
    """Exact chromatic index, or UNKNOWN when no step of the module
    docstring decides it."""
    adj = graph.adjacency
    delta = max_degree(graph)
    if delta == 0:
        return 0
    if graph.ring is not None:
        proper, colors, _ = graph.sum_coloring
        if proper and colors.bit_count() <= delta:
            return delta  # step 1
    pending = False
    for comp in components(graph):
        if not comp & comp - 1:
            continue  # an isolated vertex
        vertices = bit_list(comp)
        m = len(vertices)
        ecount = sum(adj[u].bit_count() for u in vertices) // 2
        if ecount == m * (m - 1) // 2:
            # complete component: chi'(K_m) is m - 1 for even m (round-robin
            # construction) and m for odd m (matching counting bound)
            if (m - 1 if m % 2 == 0 else m) > delta:
                return delta + 1  # complete K_odd with delta = m - 1
        elif ecount > delta * (m // 2):
            # a color class is a matching, so delta colors carry at most
            # delta * floor(m/2) edges
            return delta + 1
        else:
            pending = True
    if not pending:
        return delta
    found = graph.period
    if found is not None and found[1] and len(found[0]) % 2 == 0:
        return delta  # step 3
    return UNKNOWN
