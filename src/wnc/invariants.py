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
from operator import or_

from .bitsets import bit_list, iter_bits, mask_of
from .graph import WncGraph, ring_of
from .rings import RingSpec, Zn, is_prime, orbits


class Sentinel(Enum):
    """A named non-numeric result, compared with `is`: INFINITE for the
    diameter or girth of a disconnected or acyclic graph, UNKNOWN for an
    exact search that ran out of budget or a chromatic index that no rule
    decides."""

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


# Nodes of the clique search: one per greedily colored frame, over 45
# times the most any ring of the test corpus takes (327, M2(GF(8))).
CLIQUE_NODES = 15_000
# Nodes of the 4-clique census: one per clique it may list.
CENSUS_NODES = 100_000


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


def components_and_bipartite(graph: WncGraph) -> tuple[list[int], bool]:
    """The components and bipartiteness that `WncGraph.components` keeps,
    from one walk per component, which ORs its levels and tests them for
    inner edges until one has one: an edge inside a BFS level closes an
    odd cycle."""
    adj = graph.adjacency
    unseen = (1 << graph.vertex_count) - 1
    parts, odd = [], False
    while unseen:
        start = (unseen & -unseen).bit_length() - 1
        levels, comp = _bfs_levels(adj, start, unseen), 0
        for level in levels if not odd else ():
            comp |= level
            if level & (level - 1) and any(adj[v] & level
                                           for v in iter_bits(level)):
                odd = True
                break
        comp = reduce(or_, levels, comp)  # the levels left, untested
        unseen &= ~comp
        parts.append(comp)
    return parts, not odd


def components(graph: WncGraph) -> list[int]:
    """Connected components as vertex bitsets, ordered by least vertex,
    from the graph's one walk (`WncGraph.components`)."""
    return graph.components[0]


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
    frontier, adj = 1 << ring.zero, graph.adjacency
    length = 0
    while frontier:
        parity = length & 1
        seen[parity] |= frontier
        nxt = frontier & loops
        for v in iter_bits(frontier):
            walks[parity][v] = length
            nxt |= adj[v]
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
    edge inside one of its BFS levels from its least vertex; read off the
    graph's one walk (`WncGraph.components`)."""
    return graph.components[1]


def is_star(graph: WncGraph) -> bool:
    """True iff the graph is a star K_{1,n}: one center adjacent to every
    other vertex, all other vertices of degree 1 (K_1 and K_2 count too).
    That is n - 1 edges, all at one vertex of degree n - 1."""
    n, degrees = graph.vertex_count, graph.degrees
    return n > 0 and sum(degrees) == 2 * (n - 1) == 2 * max(degrees)


# ---------------------------------------------------------------------------
# Cliques


def _complement_table(adj):
    """rest[v + 1] is the set of vertices that are neither v nor adjacent
    to v, indexed by the bit length of v's bit; rest[0] is unused."""
    full = (1 << len(adj)) - 1
    return [0, *(full & ~(row | 1 << v) for v, row in enumerate(adj))]


def _greedy_color_order(rest, cand, kmin=0, weight=None):
    """Greedy coloring of cand, the branch-and-bound upper bound:
    (vertices, bounds, bound), listing in assignment order only the
    vertices whose bound exceeds kmin, the ones a frame may branch on
    (MCS). Each class takes the lowest vertex left, then drops it and its
    neighbors with one AND with the complement table `rest`. A class
    weighs its heaviest vertex, and a vertex's bound is the weight of the
    classes up to its own: its color when each vertex weighs 1 (`weight`
    None). Unweighted, a class whose color cannot exceed kmin is not even
    listed; a weighted one is listed until its weight is known."""
    order = []
    bounds = []
    uncolored = cand
    bound = 0
    while uncolored:
        avail = uncolored
        if weight is None and bound < kmin:
            while avail:
                low = avail & -avail
                avail &= rest[low.bit_length()]
                uncolored ^= low
            bound += 1
            continue
        start = len(order)
        while avail:
            low = avail & -avail
            b = low.bit_length()
            avail &= rest[b]
            uncolored ^= low
            order.append(b - 1)
        bound += 1 if weight is None else max(map(weight.__getitem__,
                                                  order[start:]))
        if bound > kmin:
            bounds += [bound] * (len(order) - start)
        else:
            del order[start:]
    return order, bounds, bound


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


def _clique_root(adj, rest, cand, floor, budget, weight=None):
    """(best, clique, root): the weight and vertices of the clique grown
    greedily in cand if it weighs more than floor, else floor and None,
    and the root frame (cand, vertices, bounds) of a branch and bound in
    cand, greedily colored at one node of the budget. root is None when no
    clique in cand can weigh more: cand weighs no more than floor or the
    greedy clique, or the coloring's bound does not exceed it. It is also
    None when the budget refuses the node; budget.bound is then cand's
    weight, and otherwise the coloring's bound."""
    total = cand.bit_count() if weight is None else sum(
        map(weight.__getitem__, iter_bits(cand)))
    if total <= floor:
        return floor, None, None
    greedy = _greedy_clique(adj, cand)  # a real clique
    size = len(greedy) if weight is None else sum(map(weight.__getitem__, greedy))
    best, clique = (size, greedy) if size > floor else (floor, None)
    if best == total:
        return best, clique, None
    budget.bound = total
    if not budget.spend():
        return best, clique, None
    order, bounds, budget.bound = _greedy_color_order(rest, cand, 0, weight)
    return best, clique, (cand, order, bounds) if best < budget.bound else None


def _clique_branch(adj, rest, root, best, clique, budget, weight=None):
    """(best, clique): the heaviest clique in the root frame's candidates
    and its vertices if it outweighs best, else best and clique. Branch
    and bound on an explicit stack: a frame holds a greedily colored
    candidate set and the weight of the path to it, is tried from its last
    colored vertex, and is dropped once that weight plus that vertex's
    bound cannot beat the best weight; `path` holds the vertex tried at
    each depth. A frame lists only the vertices whose bound could beat the
    best weight when it is pushed, as it never tries the others. The
    search stops once the best weight reaches the root coloring's bound.

    Each colored frame spends one node of the budget. When one is refused
    the search stops with the heaviest clique found; budget.bound is then
    the root coloring's bound."""
    if root is None:
        return best, clique
    cand, order, bounds = root
    goal = bounds[-1]  # no clique in cand is heavier
    stack = [(cand, order, bounds, 0)]
    path = []
    while stack and best < goal:
        cand, order, bounds, size = stack[-1]
        if not order or size + bounds[-1] <= best:
            stack.pop()
            continue
        bounds.pop()
        v = order.pop()
        cand &= ~(1 << v)
        stack[-1] = (cand, order, bounds, size)
        del path[len(stack) - 1:]
        path.append(v)
        size += 1 if weight is None else weight[v]
        sub = cand & adj[v]
        if not sub:
            if size > best:
                best, clique = size, path[:]
        elif budget.spend():
            order, bounds, _ = _greedy_color_order(rest, sub, best - size, weight)
            stack.append((sub, order, bounds, size))
        else:
            break
    return best, clique


def _triangle_counts(graph: WncGraph) -> list[int]:
    """The number of triangles through each vertex of a graph built from
    a ring.

    The graph is the sum graph of S over (R,+). A triangle {x, y, z} is
    a pair of distinct a = x + y and b = x + z in S, neither equal to
    w = 2x, with a + b - w in S, so the count at x depends on w alone:

        2 t(x) = Q(w) - E(w) - 2 [w in S] (|S| - 1),

    where Q(w) = sum over a in S of A(a - w), with A(d) = |S & (S + d)|,
    counts the ordered pairs and E(w) = #{a in S : 2a - w in S} those with
    a = b. Row v is S - v less v, where 2v is in S, so A(v) = A(-v) is one
    AND per vertex. Q(w) is one AND per distinct value of A, and E(w) one
    per distinct number of a in S with the same 2a. An automorphism of the
    ring that keeps S keeps A and t, so when the ring's generators do
    (`WncGraph.generators_keep_clean`), A and t are computed once per
    orbit."""
    ring, clean, minus = graph.ring, graph.clean_set, graph.translates  # S - v
    n = graph.vertex_count
    doubles = ring.doubles
    orbits = (ring.orbits if graph.generators_keep_clean
              else [[v] for v in range(n)])
    # the d with A(d) = k, and the u = 2a for k elements a of S, by k
    by_overlap, by_halves = defaultdict(int), defaultdict(int)
    for orbit in orbits:
        by_overlap[(clean & minus[orbit[0]]).bit_count()] |= mask_of(orbit)
    for u, k in Counter(doubles[a] for a in iter_bits(clean)).items():
        by_halves[k] |= 1 << u
    size = clean.bit_count()
    counts, twice = [0] * n, {}
    for orbit in orbits:
        w = doubles[orbit[0]]
        if w not in twice:
            near, far = minus[w], minus[ring.neg(w)]  # S - w and S + w
            q = sum(k * (ds & near).bit_count() for k, ds in by_overlap.items())
            e = sum(k * (us & far).bit_count() for k, us in by_halves.items())
            twice[w] = q - e - 2 * (clean >> w & 1) * (size - 1)
        for v in orbit:
            counts[v] = twice[w] // 2
    return counts


def _relabel(adj, order):
    """The rows of adj with vertex order[i] renamed i. Bit j of row i is bit
    order[i] of row order[j], adj being symmetric: one strided slice of the
    rows' bit strings, least significant first, joined from order's last."""
    n = len(adj)
    block = "".join([f"{adj[v]:0{n}b}"[::-1] for v in reversed(order)])
    return [int(block[v::n], 2) for v in order]


def _class_orbits(graph: WncGraph, heads):
    """The orbits on the twin classes of the ring's generators, and of
    x -> -x when S = -S, as bitsets of the classes' `heads`; None unless
    the rows are certified and `WncGraph.generators_keep_clean`. Each map
    is additive and keeps S, so it maps row v onto row f(v) and cosets of
    K to cosets, and one member of a class tells where the class goes."""
    ring, clean, classes = graph.ring, graph.clean_set, graph.twin_classes
    if not graph.generators_keep_clean or not graph.certified:
        return None
    index = {v: i for i, c in enumerate(classes) for v in c}
    moves = [[index[p[c[0]]] for c in classes] for p in ring.generators]
    if mask_of(map(ring.neg, iter_bits(clean))) == clean:
        moves.append([index[ring.neg(c[0])] for c in classes])
    return [mask_of(map(heads.__getitem__, orbit))
            for orbit in orbits(len(classes), moves)]


def _clique_search(adj, rest, cand, floor, budget, weight=None, orbits=None,
                   root=None):
    """(best, clique): `_clique_branch` from `root`, a frame already
    colored on cand, or else from the root that `_clique_root` colors in
    cand, when `orbits` is None. Otherwise automorphisms of the graph that
    keep cand map any vertex of an orbit, a bitset in or outside cand, to
    any other, so the heaviest clique through it is one through its least
    vertex r. Largest orbit first, one node colors cand; once that bound
    cannot beat the best the search stops, else it searches r's neighbors
    in cand, floored at the best, and drops the orbit. budget.bound is
    left the last bound of cand, or as it came when no node is left for
    the first."""
    best, clique = floor, None
    if orbits is None:
        if root is None:
            best, clique, root = _clique_root(adj, rest, cand, floor, budget,
                                              weight)
        return _clique_branch(adj, rest, root, best, clique, budget, weight)
    for orbit in sorted((m for m in orbits if m & cand),
                        key=lambda m: (-m.bit_count(), m & -m)):
        if not budget.spend():
            break
        upper = _greedy_color_order(rest, cand, best, weight)[2]
        if upper <= best:
            break
        r = (orbit & -orbit).bit_length() - 1
        w = 1 if weight is None else weight[r]
        size, sub = _clique_search(adj, rest, adj[r] & cand, best - w, budget,
                                   weight)
        budget.bound = upper
        if sub:
            best, clique = w + size, [r, *sub]
        if budget.exhausted:
            break
        cand &= ~orbit
    return best, clique


def max_clique(graph: WncGraph, budget: Budget | None = None):
    """Maximum clique: (sorted vertex tuple, clique number).

    One iterative branch and bound over bitset adjacency with a
    greedy-coloring bound (after San Segundo et al.'s BBMC) gives the clique
    number, and each frame lists only the vertices it may branch on (after
    Tomita et al.'s MCS). It changes no global state, not even the
    recursion limit. The greedy clique from vertex 0 comes first, and the
    greedy coloring of all vertices proves it maximum on dense graphs.

    When it does not, a graph built from a ring is searched on its twin
    quotient H. Let T_v be row v with bit v toggled when 2v is in the clean
    set S (`WncGraph.translates`), and let the vertices with equal T_v be one
    class (`WncGraph.twin_classes`). If T_u = T_v, rows u and v agree off
    {u, v}, so every vertex of one class sees every vertex of another or
    none of it, and u ~ v iff 2u is in S (bit u of T_v, which is bit u of
    T_u). So each class is a clique or an independent set, and a clique of
    G takes at most all of a clique class and one vertex of an independent
    class: omega is the heaviest clique of H, a clique class weighing its
    size and an independent class 1. This reads the rows alone. On a ring,
    row v is S - v minus v, so T_v = S - v and the classes are the cosets
    of the period K = {k : S + k = S}, the class of 0, of m = |K| elements
    each. When every class is one vertex, H is G; else it is G on one
    member of each class, weighted, with no rows of its own: a clique
    class is its least member and an independent class its greatest, so
    that in id order the clique classes tend to come first and fill the
    first color classes.

    Then one search (`_clique_search`), floored at the greedy clique, runs
    on one candidate set in one vertex order:

    - The candidates are all of H. On certified rows (`WncGraph.period`),
      translation by h maps x + y to x + y + 2h, so it is an automorphism
      when 2h is in K. When every 2h is (characteristic 2, for one), the
      graph is vertex-transitive, some heaviest clique of H holds the
      class of 0, and the candidates are its neighborhood instead; omega
      is then the class's weight plus the heaviest clique found there.
    - The order is chosen from the ring. When it lists generators (a
      matrix ring, or a product with one) and the graph is not
      vertex-transitive, the id order serves badly (M2(Z5) runs past
      15,000 nodes in it), so the candidates are taken by triangle count,
      most first, ties by id, on rows relabeled in that order; the counts
      are a few ANDs per distinct 2x, or per orbit. Every other graph is
      searched in id order on G's own rows, and when the candidates are
      G's vertices themselves, the search branches from G's root frame,
      colored once.
    - When the ring's generators keep S (`_class_orbits`), they and
      x -> -x fix 0 and act on the classes, and the search branches once
      per orbit instead of once per vertex.

    The witness is the heaviest clique found, expanded to G (all of a
    clique class, the least member of an independent one) and sorted. The
    greedy clique from vertex 0 is the witness when none heavier turns up.
    It is deterministic but not in general the lexicographically least
    maximum clique.

    G's root and the search share `budget`, by default CLIQUE_NODES nodes.
    When it runs out, the clique number is UNKNOWN, the tuple is the
    largest clique found, and budget.bound bounds omega: the least bound
    of the root colorings and of the last candidates of a search once per
    orbit, with the class of 0 added to that of its neighborhood."""
    n = graph.vertex_count
    if n == 0:
        return (), 0
    if budget is None:
        budget = Budget("clique", CLIQUE_NODES)
    adj = graph.adjacency
    rest = _complement_table(adj)
    full = (1 << n) - 1
    omega, found, root = _clique_root(adj, rest, full, 0, budget)
    if root is None:
        return tuple(found), UNKNOWN if budget.exhausted else omega
    bound, weight, cand, heads = budget.bound, None, full, range(n)
    classes = graph.twin_classes
    if classes is not None and len(classes) < n:
        # H: the least member of a clique class, weighing the class, and
        # the greatest of an independent one, weighing 1
        members, weight = {}, [0] * n
        for c in classes:
            clique = adj[c[0]] >> c[-1] & 1
            v = c[0] if clique else c[-1]
            members[v], weight[v] = c, len(c) if clique else 1
        cand, heads = mask_of(members), list(members)
    first, w0, back = heads[0], 0, range(n)  # the class of 0; H's ids
    if graph.period is not None and graph.period[1]:
        # every 2h lies in K, the class of 0: translations are automorphisms
        w0, cand = 1 if weight is None else weight[first], adj[first] & cand
    sub, table, top, heavy = adj, rest, cand, weight
    if not w0 and classes is not None and graph.ring.generators:
        # a matrix ring or a product with one: triangle-count order
        triangles = _triangle_counts(graph)
        ids = bit_list(cand)
        order = sorted(ids, key=lambda v: (-triangles[v], v))
        if order != ids:  # else search G's own rows, in the same order
            sub, back = _relabel(adj, order), order
            table, top = _complement_table(sub), (1 << len(order)) - 1
            label = dict(zip(order, range(len(order))))
            heads, heavy = [label[v] for v in heads], weight and [
                weight[v] for v in order]
    size, better = _clique_search(sub, table, top, omega - w0, budget, heavy,
                                  _class_orbits(graph, heads),
                                  root if sub is adj and cand == full else None)
    omega = w0 + size
    if budget.exhausted:
        budget.bound += w0
    if better:
        better = [back[v] for v in better]
        if w0:  # the class of 0, whose neighborhood was searched
            better.append(first)
        found = better if weight is None else [
            u for v in better for u in members[v][:weight[v]]]
    budget.bound = min(bound, budget.bound)
    return tuple(sorted(found)), UNKNOWN if budget.exhausted else omega


def clique_count_bound(graph: WncGraph, k: int) -> int:
    """An upper bound on the number of k-cliques, read off the degrees.

    Each vertex of a k-clique sees the other k - 1 among its neighbors, so
    there are at most the sum over v of C(deg v, k - 1) / k. On a complete
    component K_m that sum is m C(m - 1, k - 1) / k = C(m, k), exact.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return sum(math.comb(d, k - 1) for d in graph.degrees) // k


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


def z2p_prime(spec: RingSpec) -> int | None:
    """p when the ring spec is Z_2p with p >= 5 prime, else None."""
    p = spec.n // 2 if isinstance(spec, Zn) and spec.n % 2 == 0 else 0
    return p if p >= 5 and is_prime(p) else None


def neighborhood_disjointness_check(graph: WncGraph):
    """Check the three disjoint-neighborhood clauses for the graph of its
    ring Z_2p, p >= 5 prime.

    Clause 1 pairs a with -a, clause 2 pairs a + b = 1, clause 3 pairs
    a + b = -1; each clause skips its stated exclusion set. Returns one
    verdict tuple (clause, a, b, disjoint) per tested pair.
    """
    p = z2p_prime(ring_of(graph).spec)
    if p is None:
        raise ValueError("neighborhood lemma check needs Z_2p with p >= 5 prime")
    n, adj = 2 * p, graph.adjacency
    verdicts = []
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
            verdicts.append((clause, a, b, not adj[a] & adj[b]))
    return verdicts
