"""Independent brute-force oracles.

Each function recomputes a quantity from first principles by a different
route than the library takes (per-element membership search instead of
set sums, double-loop edge tests and one addition per edge instead of
bitsets translated digit by digit, Floyd-style distances and per-vertex
BFS instead of the sum-graph distance formula, subset enumeration instead
of branch and bound, pairs of neighbors or one AND of rows per edge
instead of triangle counts read off the clean set, polynomial arithmetic instead of exp/log tables, a
full greedy coloring instead of the clique search's complement-table
kernel that lists only the vertices it may branch on, a character
gather instead of strided slices for the relabeled rows, a queue BFS
across each removed edge instead of per-root BFS levels for the girth,
and union-find on the double cover instead of BFS levels for
bipartiteness), so agreement
between the two is meaningful evidence of correctness. The edge-coloring
helpers, `bfs_distances` and `operation_tables` serve only the tests, so
they live here rather than in the library.
"""

import itertools
from collections import deque
from operator import itemgetter

import numpy as np

import wnc
from wnc.bitsets import bit_list


def naive_nilpotent(ring, x) -> bool:
    """Whether some power of x is 0: the powers x, x^2, ... are walked
    until one is 0, or one repeats, after which they cycle without 0."""
    seen, y = set(), x
    while y not in seen:
        if y == ring.zero:
            return True
        seen.add(y)
        y = ring.mul(y, x)
    return False


def naive_idempotent_list(ring):
    return [x for x in range(ring.size) if ring.mul(x, x) == x]


def _naive_tables(ring):
    """The nilpotents, by naive_nilpotent, their negations, and the set of
    idempotents: the membership searches below walk the nilpotents."""
    nil = [x for x in range(ring.size) if naive_nilpotent(ring, x)]
    return nil, list(map(ring.neg, nil)), set(naive_idempotent_list(ring))


def naive_wnc_members(ring):
    """Per-element membership: x is weakly nil clean iff some nilpotent n
    makes x - n or n - x idempotent (x = n + e or x = n - e)."""
    nil, minus, idem = _naive_tables(ring)
    return [x for x in range(ring.size) if any(
        ring.add(x, m) in idem or ring.add(n, ring.neg(x)) in idem
        for n, m in zip(nil, minus))]


def naive_nc_members(ring):
    """Per-element membership: x is nil clean iff some nilpotent n makes
    x - n idempotent."""
    nil, minus, idem = _naive_tables(ring)
    return [x for x in range(ring.size)
            if any(ring.add(x, m) in idem for m in minus)]


def naive_decompositions(ring):
    """Every x = n + e (sign +1) and x = n - e (sign -1) with n nilpotent
    and e idempotent, as sorted (n, e, sign) triples per element x."""
    nil = [x for x in range(ring.size) if naive_nilpotent(ring, x)]
    found = {}
    for n in nil:
        for e in naive_idempotent_list(ring):
            found.setdefault(ring.add(n, e), []).append((n, e, +1))
            found.setdefault(ring.add(n, ring.neg(e)), []).append((n, e, -1))
    return {x: sorted(ws) for x, ws in found.items()}


def naive_edge_set(ring, wnc_members):
    """The weakly nil clean graph's edges by the definition: a double loop
    re-testing x + y membership for every pair."""
    wnc = set(wnc_members)
    edges = set()
    for x in range(ring.size):
        for y in range(x + 1, ring.size):
            if ring.add(x, y) in wnc:
                edges.add((x, y))
    return edges


def sum_graph_rows(ring, clean):
    """The sum graph's bitset rows by one `ring.add` per vertex and clean
    element: u is a neighbor of v iff u = s - v for some s in the clean set
    and u != v."""
    rows = [0] * ring.size
    for v in range(ring.size):
        nv = ring.neg(v)
        for s in range(ring.size):
            if clean >> s & 1:
                u = ring.add(s, nv)
                if u != v:
                    rows[v] |= 1 << u
    return rows


def floyd_distances(graph):
    """All-pairs distances, Floyd-Warshall style; None marks unreachable."""
    n = graph.vertex_count
    inf = float("inf")
    dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for u in range(n):
        for v in range(n):
            if graph.adjacency[u] >> v & 1:
                dist[u][v] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == inf:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def floyd_diameter(graph):
    """Max finite distance, or None when some pair is unreachable."""
    dist = floyd_distances(graph)
    n = graph.vertex_count
    best = 0
    for i in range(n):
        for j in range(n):
            if dist[i][j] == float("inf"):
                return None
            best = max(best, dist[i][j])
    return best


def bfs_diameter(graph):
    """Max eccentricity by one queue BFS per vertex, or None when some pair
    is unreachable."""
    n = graph.vertex_count
    best = 0
    for source in range(n):
        dist = {source: 0}
        queue = deque([source])
        while queue:
            x = queue.popleft()
            for y in range(n):
                if graph.adjacency[x] >> y & 1 and y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        if len(dist) < n:
            return None
        best = max(best, max(dist.values()))
    return best


def gf_digits(p, k, ids):
    """Base-p digits of an array of GF(p^k) element ids, constant first."""
    return (np.asarray(ids)[:, None] // p ** np.arange(k)) % p


def gf_encode(p, k, digits):
    return (digits % p * p ** np.arange(k)).sum(axis=1)


def gf_poly_mul(p, k, a, b):
    """Products of the element-id arrays a and b in GF(p^k) by polynomial
    arithmetic: decode the digits, multiply, and reduce modulo the least
    monic irreducible of degree k."""
    modulus = np.array(wnc.find_least_irreducible(p, k))
    da, db = gf_digits(p, k, a), gf_digits(p, k, b)
    prod = np.zeros((len(da), 2 * k - 1), dtype=np.int64)
    for i in range(k):
        prod[:, i:i + k] += da[:, i:i + 1] * db
    for i in range(2 * k - 2, k - 1, -1):
        # c x^i = c x^(i-k) (x^k - modulus) modulo the modulus
        prod[:, i - k:i + 1] -= (prod[:, i] % p)[:, None] * modulus
    return gf_encode(p, k, prod[:, :k])


def gf_poly_add(p, k, a, b):
    return gf_encode(p, k, gf_digits(p, k, a) + gf_digits(p, k, b))


def gf_poly_neg(p, k, a):
    return gf_encode(p, k, -gf_digits(p, k, a))


def gf_poly_name(p, k, e) -> str:
    """An element's name as a polynomial in "a", highest degree first."""
    digits = gf_digits(p, k, [e])[0]
    terms = []
    for i in reversed(range(k)):
        c = int(digits[i])
        if c == 0:
            continue
        coeff = "" if c == 1 and i > 0 else str(c)
        power = "" if i == 0 else "a" if i == 1 else f"a^{i}"
        terms.append(coeff + power)
    return "+".join(terms) or "0"


def is_clique(graph, vertices) -> bool:
    return all(graph.adjacency[u] >> v & 1
               for u, v in itertools.combinations(vertices, 2))


def exists_clique_of_size(graph, k) -> bool:
    """Exhaustive subset enumeration (early exit on a non-edge)."""
    n = graph.vertex_count
    return any(is_clique(graph, c)
               for c in itertools.combinations(range(n), k))


def has_triangle(graph) -> bool:
    return exists_clique_of_size(graph, 3)


def triangle_counts(graph) -> list[int]:
    """The triangles through each vertex, one edge test per pair of its
    neighbors."""
    adj = graph.adjacency
    return [sum(adj[y] >> z & 1
                for y, z in itertools.combinations(bit_list(row), 2))
            for row in adj]


def triangle_counts_by_rows(graph) -> list[int]:
    """The triangles through each vertex, one AND of rows per edge: each
    triangle at v is a common neighbor of v and u, counted from both u."""
    adj = graph.adjacency
    return [sum((adj[u] & row).bit_count() for u in bit_list(row)) // 2
            for row in adj]


def relabel_by_characters(adj, order):
    """The rows of adj with vertex order[i] renamed i, each row's bit
    string, most significant bit first, gathered character by character:
    the reference for `invariants._relabel`, which reads strided slices."""
    n = len(adj)
    pick = itemgetter(*(n - 1 - v for v in reversed(order)))
    return [int("".join(pick(f"{adj[v]:0{n}b}")), 2) for v in order]


def has_square(graph) -> bool:
    # a 4-cycle a-x-b-y-a exists iff some pair shares two common neighbors
    n = graph.vertex_count
    adj = graph.adjacency
    for a, b in itertools.combinations(range(n), 2):
        common = adj[a] & adj[b]
        if common.bit_count() >= 2:
            return True
    return False


def round_robin_coloring(vertices):
    """Proper edge coloring of the complete graph on `vertices`: m - 1
    colors for even m (circle method), m colors for odd m."""
    m = len(vertices)
    coloring = {}
    for i in range(m):
        for j in range(i + 1, m):
            if m % 2 == 1:
                c = (i + j) % m
            elif j == m - 1:
                c = (2 * i) % (m - 1)
            else:
                c = (i + j) % (m - 1)
            coloring[(vertices[i], vertices[j])] = c
    return coloring


def ring_axiom_violations(ring):
    """Exhaustive axiom check over materialized numpy tables.

    Vectorized one outer row at a time so the full triple loop over size
    up to 256 stays cheap."""
    n = ring.size
    A = np.array([[ring.add(a, b) for b in range(n)] for a in range(n)], dtype=np.int32)
    M = np.array([[ring.mul(a, b) for b in range(n)] for a in range(n)], dtype=np.int32)
    neg = np.array([ring.neg(a) for a in range(n)], dtype=np.int32)
    ident = np.arange(n, dtype=np.int32)
    bad = []
    if not np.array_equal(A, A.T):
        bad.append("addition not commutative")
    if not (np.array_equal(A[ring.zero], ident) and np.array_equal(A[:, ring.zero], ident)):
        bad.append("zero is not the additive identity")
    if not np.array_equal(A[ident, neg], np.full(n, ring.zero, dtype=np.int32)):
        bad.append("neg is not the additive inverse")
    if not (np.array_equal(M[ring.one], ident) and np.array_equal(M[:, ring.one], ident)):
        bad.append("one is not a two-sided multiplicative identity")
    for a in range(n):
        if not np.array_equal(A[A[a], :], A[a, A]):
            bad.append("addition not associative")
            break
    for a in range(n):
        if not np.array_equal(M[M[a], :], M[a, M]):
            bad.append("multiplication not associative")
            break
    for a in range(n):
        # a*(b+c) == a*b + a*c  and  (b+c)*a == b*a + c*a
        if not np.array_equal(M[a, A], A[M[a][:, None], M[a][None, :]]):
            bad.append("left distributivity fails")
            break
        col = M[:, a]
        if not np.array_equal(M[A, a], A[col[:, None], col[None, :]]):
            bad.append("right distributivity fails")
            break
    if ring.is_commutative and not np.array_equal(M, M.T):
        bad.append("claimed commutative but mul table is asymmetric")
    return bad


def rings_isomorphic(r1, r2) -> bool:
    """Brute-force relabeling search; only sensible for tiny rings."""
    n = r1.size
    if n != r2.size:
        return False
    fixed = {r1.zero: r2.zero, r1.one: r2.one}
    rest1 = [x for x in range(n) if x not in (r1.zero, r1.one)]
    rest2 = [x for x in range(n) if x not in (r2.zero, r2.one)]
    for image in itertools.permutations(rest2):
        perm = dict(zip(rest1, image))
        perm.update(fixed)
        ok = True
        for a in range(n):
            for b in range(n):
                if perm[r1.add(a, b)] != r2.add(perm[a], perm[b]) or \
                        perm[r1.mul(a, b)] != r2.mul(perm[a], perm[b]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def operation_tables(ring):
    """Fully materialized (add, mul, neg) tables, n^2 operation calls."""
    n = ring.size
    add = [[ring.add(a, b) for b in range(n)] for a in range(n)]
    mul = [[ring.mul(a, b) for b in range(n)] for a in range(n)]
    neg = [ring.neg(a) for a in range(n)]
    return add, mul, neg


def bfs_distances(graph, source):
    """Hop distances from source off the library's BFS kernel; -1 where
    unreachable."""
    n = graph.vertex_count
    dist = [-1] * n
    levels = wnc.invariants._bfs_levels(graph.adjacency, source, (1 << n) - 1)
    for d, level in enumerate(levels):
        for v in bit_list(level):
            dist[v] = d
    return dist


def _distance_without_edge(neighbors, u, v):
    """Hops from u to v in G - uv by a queue BFS over neighbor lists; None
    when G - uv does not connect them."""
    dist = {u: 0}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for y in neighbors[x]:
            if y in dist or (x, y) == (u, v):
                continue
            if y == v:
                return dist[x] + 1
            dist[y] = dist[x] + 1
            queue.append(y)
    return None


def girth_by_edge_removal(graph):
    """The girth as 1 plus the least distance from u to v in G - uv over
    the edges uv, by a queue BFS over neighbor lists; None when acyclic."""
    neighbors = [bit_list(row) for row in graph.adjacency]
    best = None
    for u, v in wnc.edges(graph):
        d = _distance_without_edge(neighbors, u, v)
        if d is not None and (best is None or d + 1 < best):
            best = d + 1
    return best


def _union_find_components(vertex_count, pairs) -> int:
    parent = list(range(vertex_count))

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        parent[root(u)] = root(v)
    return sum(root(x) == x for x in range(vertex_count))


def bipartite_by_double_cover(graph) -> bool:
    """G is bipartite iff its double cover G x K2, with (u, i) ~ (v, 1 - i)
    for each edge uv, has twice as many components as G (union-find)."""
    n = graph.vertex_count
    pairs = list(wnc.edges(graph))
    cover = [(2 * u + i, 2 * v + 1 - i) for u, v in pairs for i in (0, 1)]
    return (_union_find_components(2 * n, cover)
            == 2 * _union_find_components(n, pairs))


def sum_edge_coloring(ring, graph):
    """Color each edge {a, b} by the ring element a + b, one `add` per edge.

    Distinct edges at a shared vertex get distinct colors because b = c
    follows from a + b = a + c, so in a ring the coloring is proper.
    """
    if graph.vertex_count != ring.size:
        raise ValueError("graph does not match the ring")
    return {(u, v): ring.add(u, v) for u, v in wnc.edges(graph)}


def verify_proper_edge_coloring(graph, coloring) -> bool:
    """True iff the coloring is total on the edge set and no two edges
    sharing a vertex share a color. A partial coloring is an error."""
    adj = graph.adjacency
    normalized = {}
    for (u, v), c in coloring.items():
        if u == v or not (0 <= u < graph.vertex_count) \
                or not adj[u] >> v & 1:
            raise ValueError(f"colored pair ({u}, {v}) is not an edge")
        key = (u, v) if u < v else (v, u)
        if key in normalized:
            raise ValueError(f"edge {key} is colored twice")
        normalized[key] = c
    if len(normalized) != wnc.edge_count(graph):
        raise ValueError("partial coloring: some edges have no color")
    seen = {}
    for (u, v), c in normalized.items():
        for x in (u, v):
            used = seen.setdefault(x, set())
            if c in used:
                return False
            used.add(c)
    return True


def edge_colorable(graph, k) -> bool:
    """Whether k colors properly color the edges, by exhaustive search over
    the edges in lexicographic order. An edge tries the colors used so far
    and one new color, since the unused colors are interchangeable."""
    edges = list(wnc.edges(graph))
    used = [0] * graph.vertex_count  # the colors at each vertex

    def place(i, fresh):  # colors 0..fresh-1 are used so far
        if i == len(edges):
            return True
        u, v = edges[i]
        for c in range(min(fresh + 1, k)):
            bit = 1 << c
            if (used[u] | used[v]) & bit:
                continue
            used[u] |= bit
            used[v] |= bit
            if place(i + 1, max(fresh, c + 1)):
                return True
            used[u] ^= bit
            used[v] ^= bit
        return False

    return place(0, 0)


def chromatic_index_with_hints(graph, hints):
    """Delta when some hint (an edge -> color mapping) verifies as a proper
    coloring with at most Delta colors, else the library's exact chromatic
    index; malformed hints are skipped."""
    delta = wnc.max_degree(graph)
    for hint in hints:
        try:
            proper = verify_proper_edge_coloring(graph, hint)
        except ValueError:
            continue
        if proper and len(set(hint.values())) <= delta:
            return delta
    return wnc.chromatic_index_exact(graph)


def greedy_coloring(adj, cand):
    """The greedy coloring of the candidate set as the clique search once
    listed it in full: (vertices, colors) in assignment order, each class
    taking the lowest uncolored vertex not adjacent to the class so far."""
    order = []
    colors = []
    uncolored = cand
    c = 0
    while uncolored:
        c += 1
        avail = uncolored
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            avail &= ~(low | adj[v])
            uncolored ^= low
            order.append(v)
            colors.append(c)
    return order, colors


def max_clique_size(graph) -> int:
    """The clique number by subset enumeration, largest size first."""
    n = graph.vertex_count
    return next(k for k in range(n, 0, -1) if exists_clique_of_size(graph, k)) \
        if n else 0


def count_k_cliques(graph, k) -> int:
    return sum(is_clique(graph, c)
               for c in itertools.combinations(range(graph.vertex_count), k))
