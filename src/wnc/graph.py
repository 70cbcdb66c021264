"""Graphs built on a ring's carrier from a clean-element set.

The weakly nil clean graph has the ring elements as vertices and an edge
{x, y} exactly when x != y and x + y is weakly nil clean; the nil clean
graph uses the nil clean set instead and is always a subgraph. Both are
simple and loop-free. Adjacency is stored as one bitset row per vertex so
neighborhood intersections and clique search are single AND operations.

Both are sum graphs over (R,+): the neighbors of v are the u with
u + v in S, so row v is the translate S - v of the clean set S, minus v.
When the ring has an additive layout and S is large enough to pay for it,
`rings.translate` builds each row from S as a whole, with a few shifts
per digit instead of one addition per element of S. Otherwise, as for
the three-element clean sets of fields or a quotient without a layout,
each row is |S| additions; `rows_translated` decides, and `certify_rows`
proves translated rows once per graph (`WncGraph.certified`) from
n * digits additions. The sum coloring of proved rows is read off S and
the doubles; other rows make one `add` per neighbor (`sum_sets`).
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, compress
from operator import itemgetter, mul

from .bitsets import iter_bits, mask_of
from .classify import Classification
from .rings import FiniteRing, translate

# A call to `translate` costs about as much as ADDS_PER_CALL additions plus
# ADDS_PER_DIGIT per digit of the layout, so a row is |S| additions while S
# has no more elements than that: Z_p and the fields, whose S is {0, 1, -1}.
ADDS_PER_CALL = 1
ADDS_PER_DIGIT = 2
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


class WncGraph:
    """A bitset row per vertex (`adjacency`, a tuple), and the clean set and
    ring the rows come from, None for a synthetic graph. Two graphs are
    equal when these three are, and unhashable. The facts below are computed
    on first read; the three fields are read-only, so no fact outlives an
    edit, and a graph built anew from another's fields carries none of them."""

    def __init__(self, adjacency, clean_set: int | None = None,
                 ring: FiniteRing | None = None):
        self._fields = tuple(adjacency), clean_set, ring

    adjacency = property(lambda self: self._fields[0])
    clean_set = property(lambda self: self._fields[1])
    ring = property(lambda self: self._fields[2])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields == other._fields

    def __repr__(self):
        return f"WncGraph(adjacency={self.adjacency!r}, clean_set={self.clean_set!r})"

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

    @cached_property
    def degrees(self) -> list[int]:
        """deg(v), the popcount of row v, for each vertex v: the maximum
        degree, the edge count, the star test, the clique-count bound, the
        sum pass and the degree lemma read it."""
        return [row.bit_count() for row in self.adjacency]

    @cached_property
    def certified(self) -> bool:
        """`certify_rows` of this graph, computed on first read: the sum
        pass, the chromatic index and the clique search all read it."""
        return certify_rows(self)

    @cached_property
    def translates(self) -> list[int]:
        """T_v for each v: row v with bit v toggled when 2v is in S, which is
        S - v on certified rows; untoggled rows and equal T_v share objects."""
        clean, doubles, shared = self.clean_set, ring_of(self).doubles, {}
        return [shared.setdefault(t, t) for t in (
            row ^ 1 << v if clean >> doubles[v] & 1 else row
            for v, row in enumerate(self.adjacency))]

    @cached_property
    def twin_classes(self) -> list[list[int]] | None:
        """The classes of vertices with equal T_v (`translates`), ordered by
        least member; None for a synthetic graph, which has no 2v to read."""
        if self.ring is None or self.clean_set is None:
            return None
        classes = {}
        for v, t in enumerate(self.translates):
            classes.setdefault(t, []).append(v)
        return list(classes.values())

    @cached_property
    def period(self) -> tuple[list[int], bool] | None:
        """(K, whether every 2x lies in K) for certified rows, else None.
        Row v is then S - v minus v, so T_v = S - v and K = {k : S + k = S},
        the period of the clean set S, is a subgroup: the class of 0 in
        `twin_classes`."""
        if self.ring is None or not self.certified:
            return None
        k = self.twin_classes[0]
        return k, set(self.ring.doubles) <= set(k)

    @cached_property
    def sum_coloring(self) -> tuple[bool, int, int]:
        """(proper, colors, covered): whether |sums(x)| = deg(x) at every x,
        the union of the sums(x), and the meet over x of sums(x) | {2x},
        folded from `sum_sets`. Certified rows have sums(x) = S minus 2x
        (`certify_rows`): (True, S minus c, S plus c), c the common 2x, if any."""
        doubles, proper, colors, covered = ring_of(self).doubles, True, 0, -1
        if self.certified:  # no addition: c is the bit of the one 2x, or 0
            c = 1 << doubles[0] if doubles.count(doubles[0]) == len(doubles) else 0
            return True, self.clean_set & ~c, self.clean_set | c
        for x, degree, sums in sum_sets(self):
            proper &= sums.bit_count() == degree
            colors |= sums
            covered &= sums | 1 << doubles[x]
        return proper, colors, covered

    @cached_property
    def components(self) -> tuple[list[int], bool]:
        """`invariants.components_and_bipartite` of this graph, walked on
        first read: the components, ordered by least vertex, and whether
        the graph is bipartite."""
        from .invariants import components_and_bipartite
        return components_and_bipartite(self)

    @cached_property
    def generators_keep_clean(self) -> bool:
        """Whether the graph's ring lists generators
        (`FiniteRing.generators`) and each keeps the clean set, as ring
        automorphisms keep WNC and NC."""
        ring, clean = self.ring, self.clean_set
        return bool(ring and clean and ring.generators) and all(
            mask_of(map(g.__getitem__, iter_bits(clean))) == clean
            for g in ring.generators)


def ring_of(graph: WncGraph) -> FiniteRing:
    """The ring the graph was built from; a synthetic graph is refused."""
    if graph.ring is None:
        raise ValueError("the graph was not built from a ring")
    return graph.ring


def sum_sets(graph: WncGraph):
    """Yield (x, deg(x), sums(x)) for every vertex x, where sums(x) is the
    bitset of x + y over the neighbors y of x, the colors of the sum
    coloring at x, from one `add` per neighbor, so a non-injective addition
    still yields its true image: the sum pass of rows not certified."""
    add = ring_of(graph).add
    for x, (row, degree) in enumerate(zip(graph.adjacency, graph.degrees)):
        sums = 0
        for y in iter_bits(row):
            sums |= 1 << add(x, y)
        yield x, degree, sums


def rows_translated(ring: FiniteRing, clean: int) -> bool:
    """Whether `translate` builds the rows of the graph of `clean`."""
    return ring.radices is not None and clean.bit_count() > (
        ADDS_PER_CALL + ADDS_PER_DIGIT * len(ring.radices))


def _build(ring: FiniteRing, clean: int) -> WncGraph:
    # u is adjacent to v iff u + v is in S and u != v, so row v is the
    # translate S - v of the clean set with v itself removed
    n = ring.size
    neg = ring.neg
    if rows_translated(ring, clean):
        rows = [translate(ring, clean, neg(v)) & ~(1 << v) for v in range(n)]
    else:
        add = ring.add
        members = list(iter_bits(clean))
        rows = [0] * n
        for v in range(n):
            nv = neg(v)
            row = 0
            for s in members:
                u = add(s, nv)
                if u != v:
                    row |= 1 << u
            rows[v] = row
    return WncGraph(adjacency=rows, clean_set=clean, ring=ring)


def certify_rows(graph: WncGraph) -> bool:
    """Whether checks (a) to (c) prove each row v (S - v) minus v, S the
    clean set, from the ring's own `add` and `doubles`, for rows
    translated from the graph's ring (`rows_translated`): n * digits
    additions, those of (b)'s addition rows, and O(n) word moves. Sums
    read off the translates unproved would make the report's verdicts
    hold by construction. Row v is (S - v) minus v iff it lacks bit v and T_v
    (`WncGraph.translates`) = S - v (T_v alone passes a row holding v with
    2v not in S but `doubles[v]` in it); each digit's unit is a generator g.

    (a) Row 0 lacks bit 0, and T_0 = S, the ring's zero being the id 0.
    (b) The addition row L: y -> add(g, y) is a permutation, and
        translate(., g) maps the full mask, each bit slice
        B_j = {y : bit j of y is 1} and its complement onto their images
        under L. translate is made of shifts, ANDs with constants and ORs,
        so it distributes over OR, and the image I_p of bit p lies in the
        image of each slice or complement holding p; these meet in
        L({p}) = {g + p}, and the full mask leaves no I_p empty. So
        translate(M, g) = g + M for every mask M.
    (c) For v > 0 in id order, g the generator of v's lowest nonzero digit
        and p the id that L sends to v, read off (b)'s inverse of L, so
        g + p = v: p < v, row v lacks bit v, T_v lies below bit n, and
        translate(T_v, g) = T_p. By (b) and induction from (a),
        g + T_v = S - p, so T_v = S - (g + p) = S - v.

    Then y -> x + y maps row x one to one onto S minus 2x, which is
    sums(x), as `WncGraph.sum_coloring` reads it. A `translate` misrouting
    a bit on a generator's move fails (b); one misrouting a bit on a move
    of two or more units, which the certificate never makes, builds a row
    that (a) or (c) refuses, as is one flipped row bit, and the
    per-neighbor sums show it as a DISAGREE. An `add` shifted by h with
    2h = 0, or not injective, at a generator fails (b), and the
    per-neighbor sums show a subgraph or sum-coloring DISAGREE."""
    ring, rows, clean = ring_of(graph), graph.adjacency, graph.clean_set
    if ring.radices is None or not rows_translated(ring, clean):
        return False
    n, add, inverses = len(rows), ring.add, []
    full, ids = (1 << n) - 1, tuple(range(n))
    places = [1, *accumulate(ring.radices, mul)]  # of the digits, and n
    # each bit slice B_j as the string whose character y is bit j of y
    slices = [(("0" * h + "1" * h) * (n // h + 1))[:n]
              for h in (1 << j for j in range((n - 1).bit_length()))]
    for g in places[:-1]:  # (b)
        try:  # sorted by image, the ids list the inverse of a permutation
            row = list(map(add, [g] * n, ids))
            inverses.append(sorted(ids, key=row.__getitem__))
            pick = itemgetter(*inverses[-1])
        except TypeError:
            return False
        images = [(full, full)] + [(int(bits[::-1], 2), int(
            "".join(pick(bits))[::-1], 2)) for bits in slices]
        if pick(row) != ids or any(translate(ring, mask, g) != image or translate(
                ring, full ^ mask, g) != full ^ image for mask, image in images):
            return False
    ts = graph.translates
    for v in range(1, n):  # (c)
        i = 0
        while v % places[i + 1] == 0:  # digits 0..i of v are zero
            i += 1
        p = inverses[i][v]
        if p >= v or rows[v] >> v & 1 or rows[v] > full or (
                translate(ring, ts[v], places[i]) != ts[p]):
            return False
    return not rows[0] & 1 and ts[0] == clean  # (a)


def _of_ring(ring: FiniteRing, classification: Classification) -> Classification:
    """The classification, refused unless it has the ring's size."""
    if classification.size != ring.size:
        raise ValueError("classification does not match the ring")
    return classification


def build_wnc_graph(ring: FiniteRing, classification: Classification) -> WncGraph:
    """The weakly nil clean graph of the ring."""
    return _build(ring, _of_ring(ring, classification).wnc)


def build_nc_graph(ring: FiniteRing, classification: Classification) -> WncGraph:
    """The nil clean graph of the ring (a subgraph of the weakly nil clean one)."""
    return _build(ring, _of_ring(ring, classification).nc)


def neighborhood(graph: WncGraph, v: int) -> int:
    """Bitset of the neighbors of v; v itself never appears (loop-free)."""
    if not 0 <= v < graph.vertex_count:
        raise ValueError(f"vertex {v} out of range 0..{graph.vertex_count - 1}")
    return graph.adjacency[v]


def max_degree(graph: WncGraph) -> int:
    return max(graph.degrees, default=0)


def upper_neighbors(graph: WncGraph, vertices=None, labels=None):
    """Yield (u, neighbors of u above u, in ascending order) for every
    vertex u, or for each u in `vertices`; each neighbor v comes as
    labels[v] if a sequence `labels` is given, so a row can be joined in one
    call. Each row is picked at C speed: its bit string, least significant
    bit first, becomes 0/1 bytes that select from the ids or labels."""
    labels = range(graph.vertex_count) if labels is None else labels
    for u in range(graph.vertex_count) if vertices is None else vertices:
        row = graph.adjacency[u]
        flags = f"{row >> (u + 1):b}"[::-1].encode().translate(_BIT_BYTES)
        yield u, compress(labels[u + 1:], flags)


def edges(graph: WncGraph):
    """Yield each undirected edge once as (u, v) with u < v, in lexicographic order."""
    for u, upper in upper_neighbors(graph):
        for v in upper:
            yield u, v


def edge_count(graph: WncGraph) -> int:
    return sum(graph.degrees) // 2


def is_complete(graph: WncGraph) -> bool:
    n = graph.vertex_count
    return edge_count(graph) == n * (n - 1) // 2


def make_graph(adjacency_pairs, vertex_count: int) -> WncGraph:
    """Build a bare graph from an edge list; handy for tests and imports."""
    rows = [0] * vertex_count
    for u, v in adjacency_pairs:
        if u == v:
            raise ValueError("loops are not allowed")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return WncGraph(adjacency=rows)
