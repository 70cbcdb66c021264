"""Edge coloring: the sum sets of the additive sum coloring and the exact
chromatic index.

The sum coloring colors the edge {x, y} by x + y. One pass over the rows
gives each vertex's sum set sums(x) = {x + y : y ~ x}, the colors at x,
and the coloring is proper iff |sums(x)| = deg(x) at every x. Rows
translated from the clean set S are first certified from the ring's own
addition (`graph.certify_rows`), and then sums(x) is S minus 2x; other
rows make one `add` per neighbor.

The chromatic index of a simple graph is Delta or Delta + 1 (Vizing), so
exactness reduces to deciding Delta-edge-colorability. Textbook facts
settle each component they can: one with |E| > Delta * floor(|V|/2)
edges is refuted by the matching counting bound, and a complete
component K_m needs m - 1 colors for even m (the round-robin
construction, checked in the tests rather than at run time) and m for
odd m. The components left are colored with Delta colors by one of two
constructions on a graph built from a ring, or the answer is UNKNOWN,
never a guess; no search is made:

1. the sum coloring, when it is proper and uses at most Delta colors;
2. on certified rows, when every 2x lies in the period K of S and |K| is
   even. S is a union of cosets of K. If 0 is in S, so is K, and each
   coset of K is a complete K_|K| (its sums lie in 2x + K = K), colored
   by a 1-factorization with |K| - 1 colors; every other edge takes
   x + y, which lies outside K and is distinct at each vertex by
   cancellation. That is |S| - |K| + |K| - 1 = |S| - 1 colors, and every
   vertex has degree |S| - 1 since 2x is in S. If 0 is not in S, no 2x
   is, and x + y alone colors every edge with |S| = Delta colors.
"""

from __future__ import annotations

from .bitsets import bit_list, iter_bits
from .graph import WncGraph, max_degree, ring_of
from .invariants import UNKNOWN, components


def sum_sets(graph: WncGraph):
    """Yield (x, deg(x), sums(x)) for every vertex x, in one pass over the
    rows, where sums(x) is the bitset of x + y in the graph's ring over the
    neighbors y of x: the colors the sum coloring uses at x. Certified rows
    (`WncGraph.certified`) give sums(x) = S minus 2x; other graphs make one
    `add` per neighbor, so a non-injective addition still yields its true
    image."""
    ring, rows = ring_of(graph), graph.adjacency
    if graph.certified:
        clean, doubles = graph.clean_set, ring.doubles
        for x, row in enumerate(rows):
            yield x, row.bit_count(), clean & ~(1 << doubles[x])
        return
    add = ring.add
    for x, row in enumerate(rows):
        sums = 0
        for y in iter_bits(row):
            sums |= 1 << add(x, y)
        yield x, row.bit_count(), sums


def _sum_coloring_fits(graph: WncGraph, delta: int) -> bool:
    """Whether the sum coloring is proper with at most delta colors."""
    colors = 0
    for _, degree, sums in sum_sets(graph):
        if sums.bit_count() != degree:
            return False
        colors |= sums
    return colors.bit_count() <= delta


def chromatic_index_exact(graph: WncGraph):
    """Exact chromatic index, or UNKNOWN when neither a component bound
    nor a construction of the module docstring decides it."""
    adj = graph.adjacency
    delta = max_degree(graph)
    if delta == 0:
        return 0
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
    if graph.ring is not None and _sum_coloring_fits(graph, delta):
        return delta  # construction 1
    found = graph.period
    if found is not None and found[1] and len(found[0]) % 2 == 0:
        return delta  # construction 2
    return UNKNOWN
