"""Edge coloring: the sum sets of the additive sum coloring and the exact
chromatic index.

The sum coloring colors the edge {x, y} by x + y. One pass over the rows
gives each vertex's sum set sums(x) = {x + y : y ~ x}, the colors at x,
and the coloring is proper iff |sums(x)| = deg(x) at every x. Rows
translated from the clean set S are first certified from the ring's own
addition (`certify_rows`), and then sums(x) is S minus 2x; other rows
make one `add` per neighbor.

The chromatic index of a simple graph is Delta or Delta + 1 (Vizing), so
exactness reduces to deciding Delta-edge-colorability. The decision runs
per component. Textbook facts settle the easy cases: a component with
|E| > Delta * floor(|V|/2) edges is refuted by the matching counting
bound, and a complete component K_m needs m - 1 colors for even m (the
round-robin construction, checked in the tests rather than at run time)
and m for odd m. An MRV backtracking search with star symmetry fixing
settles the rest under a node budget (`invariants.Budget`, named
"chromatic-index", of CHROMATIC_NODES nodes by default). Exceeding the
budget yields the UNKNOWN sentinel, never a guess.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, compress
from operator import itemgetter, mul

from .bitsets import bit_list, iter_bits
from .graph import (WncGraph, max_degree, ring_of, rows_translated,
                    upper_neighbors)
from .invariants import CHROMATIC_NODES, UNKNOWN, Budget, components
from .rings import translate


def certify_rows(graph: WncGraph) -> bool:
    """Whether checks (a) to (c) of the `theorems` module docstring prove
    each row v (S - v) minus v, S the clean set, for rows translated from
    the graph's ring (`graph.rows_translated`): at most n * (digits + 2)
    additions."""
    ring, rows, clean = ring_of(graph), graph.adjacency, graph.clean_set
    if ring.radices is None or not rows_translated(ring, clean):
        return False
    n, add, doubles = len(rows), ring.add, ring.doubles
    full, ids = (1 << n) - 1, tuple(range(n))

    def toggled(u):  # T_u: row u with bit u toggled when 2u is in S
        return rows[u] ^ (clean >> doubles[u] & 1) << u

    places = [1, *accumulate(ring.radices, mul)]  # of the digits, and n
    # each bit slice B_j as the string whose character y is bit j of y
    slices = [(("0" * h + "1" * h) * (n // h + 1))[:n]
              for h in (1 << j for j in range((n - 1).bit_length()))]
    for g in places[:-1]:  # (b)
        try:  # sorted by image, the ids list the inverse of a permutation
            row = list(map(add, [g] * n, ids))
            pick = itemgetter(*sorted(ids, key=row.__getitem__))
        except TypeError:
            return False
        images = [(full, full)] + [(int(bits[::-1], 2), int(
            "".join(pick(bits))[::-1], 2)) for bits in slices]
        if pick(row) != ids or any(translate(ring, mask, g) != image or translate(
                ring, full ^ mask, g) != full ^ image for mask, image in images):
            return False
    minus = [ring.neg(g) for g in places[:-1]]
    for v in range(1, n):  # (c)
        i = 0
        while v % places[i + 1] == 0:  # digits 0..i of v are zero
            i += 1
        p = add(v, minus[i])
        if not 0 <= p < v or add(p, places[i]) != v or rows[v] > full or (
                translate(ring, toggled(v), places[i]) != toggled(p)):
            return False
    return toggled(0) == clean  # (a)


def sum_sets(graph: WncGraph):
    """Yield (x, deg(x), sums(x)) for every vertex x, in one pass over the
    rows, where sums(x) is the bitset of x + y in the graph's ring over the
    neighbors y of x: the colors the sum coloring uses at x. Certified rows
    (`certify_rows`) give sums(x) = S minus 2x; other graphs make one `add`
    per neighbor, so a non-injective addition still yields its true image."""
    ring, rows = ring_of(graph), graph.adjacency
    if certify_rows(graph):
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


# ---------------------------------------------------------------------------
# Exact Delta-colorability of one component


def _component_delta_colorable(graph, comp_vertices, ecount, delta,
                               budget: Budget):
    """Backtracking decision: can this component's ecount edges be colored
    with colors 0..delta-1? True or False, or None once the budget runs out.
    A node is one edge indexed, one edge scanned by an MRV step or one color
    tried, charged before the work: the index reserves all ecount edges
    first, so a component too large for the budget costs no O(E) work."""
    if not budget.spend(ecount):
        return None
    adj = graph.adjacency
    full = (1 << delta) - 1
    # edge e is (ends_u[e], ends_v[e]) with u < v, in lexicographic order;
    # two bytes hold an end up to 65,536 vertices
    code = "H" if graph.vertex_count <= 1 << 16 else "L"
    ends_u, ends_v = array(code), array(code)
    for u, upper in upper_neighbors(graph, comp_vertices):
        ends_v.extend(upper)
        ends_u.extend([u] * (len(ends_v) - len(ends_u)))
    avail = {u: full for u in comp_vertices}
    udeg = {u: adj[u].bit_count() for u in comp_vertices}
    edges = range(len(ends_v))
    uncolored = bytearray(b"\1") * len(edges)  # a flag per edge
    left = len(edges)

    # symmetry: the edges at one maximum-degree vertex can be forced onto
    # colors 0, 1, ... by permuting colors
    v0 = max(comp_vertices, key=lambda u: (adj[u].bit_count(), -u))
    at_v0 = [e for e, ends in enumerate(zip(ends_u, ends_v)) if v0 in ends]
    for c, e in enumerate(at_v0):
        u, v = ends_u[e], ends_v[e]
        uncolored[e] = 0
        left -= 1
        avail[u] &= ~(1 << c)
        avail[v] &= ~(1 << c)
        udeg[u] -= 1
        udeg[v] -= 1

    stack = []
    grow = True  # the next step picks an edge before it tries a color
    while True:
        if grow:
            if not left:
                return True
            # the least uncolored edge with the fewest colors left at both
            # ends; the scan is charged before it runs
            if not budget.spend(left):
                return None
            e = min(compress(edges, uncolored), key=lambda e: (
                (avail[ends_u[e]] & avail[ends_v[e]]).bit_count(), e))
            u, v = ends_u[e], ends_v[e]
            uncolored[e] = 0
            left -= 1
            udeg[u] -= 1
            udeg[v] -= 1
            stack.append([e, avail[u] & avail[v], 0])
        elif not stack:
            return False
        frame = stack[-1]
        e, cand, bit = frame
        u, v = ends_u[e], ends_v[e]
        if bit:
            avail[u] |= bit
            avail[v] |= bit
            frame[2] = 0
        if not cand:
            uncolored[e] = 1
            left += 1
            udeg[u] += 1
            udeg[v] += 1
            stack.pop()
            grow = False
            continue
        low = cand & -cand
        frame[1] = cand ^ low
        if not budget.spend():
            return None
        avail[u] &= ~low
        avail[v] &= ~low
        frame[2] = low
        grow = (avail[u].bit_count() >= udeg[u]
                and avail[v].bit_count() >= udeg[v])


def chromatic_index_exact(graph: WncGraph, budget: Budget | None = None):
    """Exact chromatic index, or UNKNOWN (and budget.bound = Delta + 1) when
    `budget`, shared by all components, runs out: by default CHROMATIC_NODES
    nodes of a "chromatic-index" Budget."""
    if budget is None:
        budget = Budget("chromatic-index", CHROMATIC_NODES)
    adj = graph.adjacency
    delta = max_degree(graph)
    if delta == 0:
        return 0
    pending = []
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
            pending.append((vertices, ecount))
    unknown = False
    for comp, ecount in pending:
        ok = _component_delta_colorable(graph, comp, ecount, delta, budget)
        if ok is False:
            return delta + 1
        unknown |= ok is None
    if unknown:
        budget.bound = delta + 1  # Vizing
        return UNKNOWN
    return delta
