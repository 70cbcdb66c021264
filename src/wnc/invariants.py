"""Exact graph invariants: components, distances, girth, bipartiteness,
clique structure, and the neighborhood-disjointness checks for Z_2p.

Everything here is exact and deterministic; infinite values (diameter or
girth of disconnected/acyclic graphs) are the distinct INFINITE sentinel,
never a large integer stand-in. Components, girth, bipartiteness and the
diameter of a synthetic graph all read the frontiers of one bit-parallel
BFS, `_bfs_levels`; the diameter of a ring graph walks (vertex, walk
parity) pairs instead, for the reason `diameter` gives.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from enum import Enum
from functools import reduce
from operator import itemgetter, or_

from .bitsets import iter_bits, mask_of
from .graph import WncGraph, neighborhood, ring_of
from .rings import Zn, is_prime


class Sentinel(Enum):
    """A named non-numeric result, compared with `is`: INFINITE for the
    diameter or girth of a disconnected or acyclic graph, UNKNOWN for an
    exact search that ran out of budget."""

    INFINITE = "inf"
    UNKNOWN = "unknown"

    def __repr__(self):
        return self.value

    __str__ = __repr__


INFINITE = Sentinel.INFINITE
UNKNOWN = Sentinel.UNKNOWN


def plain(value):
    """The value as the JSON report holds it: a sentinel becomes its name."""
    return value.value if isinstance(value, Sentinel) else value


# Nodes of the clique search: one per greedily colored frame, about four
# times the most any ring of the test corpus takes (3,794, M2(GF(4))).
CLIQUE_NODES = 15_000
# Nodes of the 4-clique census: one per clique it may list.
CENSUS_NODES = 100_000
# Nodes of the chromatic-index search: one per edge indexed, per edge an
# MRV step scans and per color tried. All of them take 0.5-1.0 s on a
# 2-vCPU host for the slowest inputs measured (M2(GF(4)) x Z3, the flower
# snark J13), over 6 times the most any decided search of the test suite
# takes (225,924 nodes, Z4 x Z9 with the bit 0 cleared from row 1).
CHROMATIC_NODES = 1_500_000


class Budget:
    """A count of search nodes for one exact search, named `search`.
    `spend` charges nodes, or refuses and charges none once fewer are left;
    the search then stops, answers UNKNOWN and leaves in `bound` what it
    still proved. With no clock, an input always stops at the same node."""

    __slots__ = ("search", "nodes", "used", "exhausted", "bound")

    def __init__(self, search: str, nodes: int):
        self.search, self.nodes = search, nodes
        self.used, self.exhausted, self.bound = 0, False, None

    def spend(self, nodes: int = 1) -> bool:
        if self.used + nodes > self.nodes:
            self.exhausted = True
            return False
        self.used += nodes
        return True


# ---------------------------------------------------------------------------
# Connectivity and distances


def _bfs_levels(adj, source: int, bound: int):
    """Yield the frontiers of a bit-parallel BFS from source, level by
    level. `bound` must hold every vertex the search can reach; once the
    vertices seen cover it, the rest of a frontier can only re-add known
    ones, so its scan stops."""
    visited = frontier = 1 << source
    while frontier:
        yield frontier
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            m ^= low
            nxt |= adj[low.bit_length() - 1]
            if nxt | visited == bound:
                break
        frontier = nxt & ~visited
        visited |= frontier


def components(graph: WncGraph) -> list[int]:
    """Connected components as vertex bitsets, ordered by least vertex."""
    unseen = (1 << graph.vertex_count) - 1
    out = []
    while unseen:
        start = (unseen & -unseen).bit_length() - 1
        comp = reduce(or_, _bfs_levels(graph.adjacency, start, unseen))
        unseen &= ~comp
        out.append(comp)
    return out


def diameter(graph: WncGraph):
    """Max pairwise distance; INFINITE when the graph is disconnected.

    A graph built from a ring is the sum graph x ~ y iff x != y and
    x + y in S. With a loop at x wherever 2x is in S, which never shortens
    a walk, an even walk from x moves it by a sum of differences from
    D = S - S and an odd one lands on s - x minus such a sum. One BFS from 0
    over (vertex, walk parity) therefore gives L(d), the least number of
    differences summing to d, at even levels and M(z), the least m with
    z in S + m*D, at odd levels, and

        dist(x, y) = min(2 L(y - x), 2 M(x + y) + 1).

    For y - x = d != 0, x + y runs over the coset d + 2R, so the diameter
    is the max over d != 0 of min(2 L(d), 2 max(M on d + 2R) + 1).
    Synthetic graphs take one BFS per vertex.
    """
    n = graph.vertex_count
    ring, clean = graph.ring, graph.clean_set
    if ring is None or clean is None:
        if len(components(graph)) > 1:
            return INFINITE
        full = (1 << n) - 1
        return max((sum(1 for _ in _bfs_levels(graph.adjacency, v, full)) - 1
                    for v in range(n)), default=0)
    doubles = ring.doubles
    loops = mask_of(x for x, t in enumerate(doubles) if clean >> t & 1)
    # BFS over (vertex, walk parity): each level holds one parity, and a
    # vertex is new at a level when no walk of that parity reached it yet
    unreached = 2 * n  # longer than any walk the BFS finds
    walks = ([unreached] * n, [unreached] * n)  # 2 L(d) and 2 M(z) + 1
    seen = [0, 0]
    frontier = 1 << ring.zero
    length = 0
    while frontier:
        parity = length & 1
        seen[parity] |= frontier
        nxt = frontier & loops
        for v in iter_bits(frontier):
            walks[parity][v] = length
            nxt |= graph.adjacency[v]
        length += 1
        frontier = nxt & ~seen[length & 1]
    even, odd = walks
    # the worst odd walk over each coset of 2R; labelling every coset once
    # touches each element once
    two_r = set(doubles)
    worst_odd = [-1] * n
    for d in range(n):
        if worst_odd[d] < 0:
            coset = [ring.add(d, t) for t in two_r]
            worst = max(odd[z] for z in coset)
            for z in coset:
                worst_odd[z] = worst
    best = max(min(even[d], worst_odd[d]) for d in range(n) if d != ring.zero)
    return INFINITE if best >= unreached else best


# ---------------------------------------------------------------------------
# Girth, bipartiteness and stars


def girth(graph: WncGraph):
    """Length of a shortest cycle; INFINITE for forests.

    One BFS per root of degree >= 2, since no cycle passes through any
    other vertex (Itai and Rodeh, 1978). At depth d, a vertex with two
    neighbors on level d - 1 closes a cycle of at most 2d edges, and an
    edge inside level d one of at most 2d + 1. A root stops at its first
    hit, or once 2d reaches the best bound so far. From a root on a
    shortest cycle of length g, both of its arcs are shortest paths, so
    the hit comes at depth g // 2 and the least bound over the roots is g.
    """
    adj = graph.adjacency
    full = (1 << graph.vertex_count) - 1
    best = math.inf
    for root, row in enumerate(adj):
        if row & (row - 1) == 0:
            continue  # degree below 2
        below = 0
        for depth, level in enumerate(_bfs_levels(adj, root, full)):
            if 2 * depth >= best:
                break
            if below & (below - 1) and any((adj[v] & below).bit_count() >= 2
                                           for v in iter_bits(level)):
                best = 2 * depth
                break
            if any(adj[v] & level for v in iter_bits(level)):
                best = 2 * depth + 1
                break
            below = level
        if best == 3:
            return 3  # a simple graph has no shorter cycle
    return INFINITE if best == math.inf else best


def is_bipartite(graph: WncGraph) -> bool:
    """True iff the graph has no odd cycle, that is, no component has an
    edge inside one of its BFS levels from its least vertex."""
    adj = graph.adjacency
    unseen = (1 << graph.vertex_count) - 1
    while unseen:
        start = (unseen & -unseen).bit_length() - 1
        for level in _bfs_levels(adj, start, unseen):
            unseen &= ~level
            if level & (level - 1) and any(adj[v] & level
                                           for v in iter_bits(level)):
                return False
    return True


def is_star(graph: WncGraph) -> bool:
    """True iff the graph is a star K_{1,n}: one center adjacent to every
    other vertex, all other vertices of degree 1 (K_1 and K_2 count too).
    That is n - 1 edges, all at one vertex of degree n - 1."""
    n = graph.vertex_count
    degrees = [row.bit_count() for row in graph.adjacency]
    return n > 0 and sum(degrees) == 2 * (n - 1) == 2 * max(degrees)


# ---------------------------------------------------------------------------
# Cliques


def _complement_table(adj):
    """rest[v + 1] is the set of vertices that are neither v nor adjacent
    to v, indexed by the bit length of v's bit; rest[0] is unused."""
    full = (1 << len(adj)) - 1
    return [0, *(full & ~(row | 1 << v) for v, row in enumerate(adj))]


def _greedy_color_order(rest, cand, kmin=0):
    """Greedy coloring of cand, the branch-and-bound upper bound:
    (vertices, colors, color count), listing in assignment order only the
    vertices colored above kmin, the ones a frame may branch on (MCS).
    Each class takes the lowest vertex left, then drops it and its
    neighbors with one AND with the complement table `rest`."""
    order = []
    colors = []
    uncolored = cand
    c = 0
    while uncolored:
        c += 1
        avail = uncolored
        if c > kmin:
            while avail:
                low = avail & -avail
                b = low.bit_length()
                avail &= rest[b]
                uncolored ^= low
                order.append(b - 1)
                colors.append(c)
        else:
            while avail:
                low = avail & -avail
                avail &= rest[low.bit_length()]
                uncolored ^= low
    return order, colors, c


def _greedy_clique(adj, cand):
    """The clique grown greedily from the lowest candidate, in increasing
    order; a cheap lower bound (and an instant certificate on dense
    graphs)."""
    clique = []
    while cand:
        low = cand & -cand
        v = low.bit_length() - 1
        clique.append(v)
        cand &= adj[v]
    return clique


def _clique_search(adj, rest, cand, floor, budget, dive=False):
    """(size, clique, cut): the largest clique in cand and its vertices if
    it has more than floor vertices, else floor and None, and whether a
    dive was cut (below). Branch and bound on an explicit stack: a frame
    holds a greedily colored candidate set, tried from its last colored
    vertex, and is dropped once its depth plus that vertex's color cannot
    beat the best size; `path` holds the vertex tried at each depth. A
    frame pushed at depth d lists only the vertices colored above best - d,
    as it never tries the others. The search stops once the best size
    reaches the root coloring's color count.

    Each colored frame spends one node of the budget. When one is refused
    the search stops with the largest clique found; budget.bound is then the
    root coloring's color count, or |cand| if the root was refused.

    A `dive` search is allowed as many nodes as the root coloring has
    colors. One dive never takes more: it pushes one frame per depth, and a
    depth is the size of a clique. A search that needs more stops with the
    best clique found so far and cut True, without exhausting the budget."""
    if cand.bit_count() <= floor:
        return floor, None, False
    greedy = _greedy_clique(adj, cand)  # a real clique
    best, clique = (len(greedy), greedy) if len(greedy) > floor else (floor, None)
    if best == cand.bit_count():
        return best, clique, False
    budget.bound = cand.bit_count()
    if not budget.spend():
        return best, clique, False
    order, colors, budget.bound = _greedy_color_order(rest, cand)
    stack = [(cand, order, colors)]
    goal = budget.bound  # no clique in cand is larger
    stop = budget.used - 1 + goal if dive else math.inf
    path = []
    while stack and best < goal:
        cand, order, colors = stack[-1]
        size = len(stack) - 1
        if not order or size + colors[-1] <= best:
            stack.pop()
            continue
        colors.pop()
        v = order.pop()
        cand &= ~(1 << v)
        stack[-1] = (cand, order, colors)
        del path[size:]
        path.append(v)
        sub = cand & adj[v]
        if not sub:
            if size + 1 > best:
                best, clique = size + 1, path[:]
        elif budget.used == stop:
            return best, clique, True
        elif budget.spend():
            order, colors, _ = _greedy_color_order(rest, sub, best - size - 1)
            stack.append((sub, order, colors))
        else:
            break
    return best, clique, False


def _triangle_counts(graph: WncGraph) -> list[int]:
    """The number of triangles through each vertex.

    A graph built from a ring is the sum graph of S over (R,+). A triangle
    {x, y, z} is then a pair of distinct a = x + y and b = x + z in S,
    neither equal to w = 2x, with a + b - w in S, so the count at x
    depends on w alone:

        2 t(x) = Q(w) - E(w) - 2 [w in S] (|S| - 1),

    where Q(w) = sum over a in S of A(a - w), with A(d) = |S & (S + d)|,
    counts the ordered pairs and E(w) = #{a in S : 2a - w in S} those with
    a = b. Row v is S - v less v, where 2v is in S, so A(v) = A(-v) is one
    AND per vertex. Q(w) is one AND per distinct value of A, and E(w) one
    per distinct number of a in S with the same 2a. Synthetic graphs take
    one AND per edge."""
    adj = graph.adjacency
    ring, clean = graph.ring, graph.clean_set
    if ring is None or clean is None:
        return [sum((adj[u] & row).bit_count() for u in iter_bits(row)) // 2
                for row in adj]
    n = graph.vertex_count
    doubles = ring.doubles

    def minus(v):  # S - v
        return adj[v] | (clean >> doubles[v] & 1) << v

    # the d with A(d) = k, and the u = 2a for k elements a of S, by k
    by_overlap, by_halves = defaultdict(int), defaultdict(int)
    for d in range(n):
        by_overlap[(clean & minus(d)).bit_count()] |= 1 << d
    for u, k in Counter(doubles[a] for a in iter_bits(clean)).items():
        by_halves[k] |= 1 << u
    size = clean.bit_count()
    twice = {}
    for w in set(doubles):
        near, far = minus(w), minus(ring.neg(w))  # S - w and S + w
        q = sum(k * (ds & near).bit_count() for k, ds in by_overlap.items())
        e = sum(k * (us & far).bit_count() for k, us in by_halves.items())
        twice[w] = q - e - 2 * (clean >> w & 1) * (size - 1)
    return [twice[w] // 2 for w in doubles]


def _relabel(adj, order):
    """The rows of adj with vertex order[i] renamed i. Each row's bit
    string, most significant bit first, is permuted at C speed."""
    n = len(adj)
    pick = itemgetter(*(n - 1 - v for v in reversed(order)))
    return [int("".join(pick(f"{adj[v]:0{n}b}")), 2) for v in order]


def max_clique(graph: WncGraph, budget: Budget | None = None):
    """Maximum clique: (sorted vertex tuple, clique number).

    One iterative branch and bound over bitset adjacency with a
    greedy-coloring bound (after San Segundo et al.'s BBMC) gives the clique
    number, and each frame lists only the vertices it may branch on (after
    Tomita et al.'s MCS). It changes no global state, not even the
    recursion limit.

    A graph built from a ring is a sum graph, and translation by any h with
    2h = 0 is an automorphism: (x + h) + (y + h) = x + y. In characteristic
    2 every h qualifies, so the graph is vertex-transitive, some maximum
    clique holds 0, and omega is 1 + omega(N(0)). Every other graph is
    searched over all vertices, floored at the greedy clique from vertex 0
    and dropped at once when the greedy coloring proves that clique
    maximum.

    That search runs in id order and is allowed one dive: as many nodes as
    its root coloring has colors. A search that needs more is served badly
    by the id order (M2(Z5) runs past 15,000 nodes in it), so it stops
    there, and one more search, floored at the best clique so far, takes
    the vertices by triangle count, most first, ties by id. The counts are
    paid only then; on a ring they are a few ANDs per distinct 2x.

    The witness is the largest clique the searches found, in ids, sorted.
    Each search starts from the clique it grows greedily from its lowest
    candidate, which is the witness when none larger turns up. It is
    deterministic but not in general the lexicographically least maximum
    clique.

    The searches share `budget`, by default CLIQUE_NODES nodes. When it
    runs out, the clique number is UNKNOWN, the tuple is the largest clique
    found, and budget.bound bounds omega: the smaller of the root
    colorings."""
    n = graph.vertex_count
    adj = graph.adjacency
    if n == 0:
        return (), 0
    if budget is None:
        budget = Budget("clique", CLIQUE_NODES)
    cand = (1 << n) - 1
    rest = _complement_table(adj)
    ring = graph.ring
    if (ring is not None and graph.clean_set is not None
            and ring.doubles[ring.one] == ring.zero):
        size, found, _ = _clique_search(adj, rest, adj[0], 0, budget)
        omega, found = 1 + size, [0, *(found or ())]
        if budget.exhausted:
            budget.bound += 1  # for vertex 0
    else:
        omega, found, cut = _clique_search(adj, rest, cand, 0, budget, dive=True)
        if cut:
            triangles = _triangle_counts(graph)
            order = sorted(range(n), key=lambda v: (-triangles[v], v))
            adj = _relabel(adj, order)
            bound = budget.bound
            omega, better, _ = _clique_search(adj, _complement_table(adj), cand,
                                              omega, budget)
            found = [order[v] for v in better] if better else found
            budget.bound = min(bound, budget.bound)
    return tuple(sorted(found)), UNKNOWN if budget.exhausted else omega


def clique_count_bound(graph: WncGraph, k: int) -> int:
    """An upper bound on the number of k-cliques, read off the degrees.

    Each vertex of a k-clique sees the other k - 1 among its neighbors, so
    there are at most the sum over v of C(deg v, k - 1) / k. On a complete
    component K_m that sum is m C(m - 1, k - 1) / k = C(m, k), exact.
    """
    return sum(math.comb(row.bit_count(), k - 1) for row in graph.adjacency) // k


def enumerate_k_cliques(graph: WncGraph, k: int) -> list[tuple[int, ...]]:
    """All k-vertex subsets inducing a complete subgraph, lexicographically.

    Enumerates complete subsets (not only maximal cliques)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = graph.vertex_count
    adj = graph.adjacency
    out = []
    prefix = []

    def extend(cand, depth):
        if depth == k:
            out.append(tuple(prefix))
            return
        if cand.bit_count() < k - depth:
            return
        for v in iter_bits(cand):
            prefix.append(v)
            extend(cand & adj[v] & -(1 << (v + 1)), depth + 1)
            prefix.pop()

    extend((1 << n) - 1, 0)
    return out


# ---------------------------------------------------------------------------
# Neighborhood disjointness in Z_2p


def neighborhood_disjointness_check(graph: WncGraph):
    """Check the three disjoint-neighborhood clauses for the graph of its
    ring Z_2p, p >= 5 prime.

    Clause 1 pairs a with -a, clause 2 pairs a + b = 1, clause 3 pairs
    a + b = -1; each clause skips its stated exclusion set. Returns one
    verdict tuple (clause, a, b, disjoint) per tested pair.
    """
    spec = ring_of(graph).spec
    if not (isinstance(spec, Zn) and spec.n % 2 == 0
            and is_prime(spec.n // 2) and spec.n // 2 >= 5):
        raise ValueError("neighborhood lemma check needs Z_2p with p >= 5 prime")
    n = spec.n
    p = n // 2
    verdicts = []

    def disjoint(a, b):
        return (neighborhood(graph, a) & neighborhood(graph, b)) == 0

    # (clause, b as a function of a, exclusion set); the sets of clauses 2
    # and 3 are closed under a -> b, and clause 1 lists each pair once
    clauses = (
        (1, lambda a: -a, {0, 1, p, p + 1, (p + 1) // 2, (p - 1) // 2}),
        (2, lambda a: 1 - a, {0, 1, p, p + 1, (p - 1) // 2, (p + 1) // 2,
                              (p + 3) // 2, (3 * p - 1) // 2, (3 * p + 1) // 2,
                              (3 * p + 3) // 2}),
        (3, lambda a: -1 - a, {0, n - 1, p, p - 1, (p - 1) // 2, (p + 1) // 2,
                               (3 * p - 3) // 2, (p - 3) // 2, (3 * p - 1) // 2,
                               (3 * p + 1) // 2}))
    for clause, partner, excl in clauses:
        for a in range(n):
            b = partner(a) % n
            if a in excl or b in excl or clause == 1 and a >= b:
                continue
            verdicts.append((clause, a, b, disjoint(a, b)))
    return verdicts
