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
each row is |S| additions; `rows_translated` decides, and the sum pass
certifies translated rows from the ring's own addition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Optional

from .bitsets import iter_bits
from .classify import Classification
from .rings import FiniteRing, translate

# A call to `translate` costs about as much as ADDS_PER_CALL additions plus
# ADDS_PER_DIGIT per digit of the layout, so a row is |S| additions while S
# has no more elements than that: Z_p and the fields, whose S is {0, 1, -1}.
ADDS_PER_CALL = 1
ADDS_PER_DIGIT = 2
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


@dataclass
class WncGraph:
    adjacency: list[int]  # bitset row per vertex
    # the clean set and ring the rows come from; None for synthetic graphs
    clean_set: Optional[int] = None
    ring: Optional[FiniteRing] = field(default=None, repr=False)

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)


def ring_of(graph: WncGraph) -> FiniteRing:
    """The ring the graph was built from; a synthetic graph is refused."""
    if graph.ring is None:
        raise ValueError("the graph was not built from a ring")
    return graph.ring


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


def build_wnc_graph(ring: FiniteRing, classification: Classification) -> WncGraph:
    """The weakly nil clean graph of the ring."""
    if classification.size != ring.size:
        raise ValueError("classification does not match the ring")
    return _build(ring, classification.wnc)


def build_nc_graph(ring: FiniteRing, classification: Classification) -> WncGraph:
    """The nil clean graph of the ring (a subgraph of the weakly nil clean one)."""
    if classification.size != ring.size:
        raise ValueError("classification does not match the ring")
    return _build(ring, classification.nc)


def neighborhood(graph: WncGraph, v: int) -> int:
    """Bitset of the neighbors of v; v itself never appears (loop-free)."""
    if not 0 <= v < graph.vertex_count:
        raise ValueError(f"vertex {v} out of range 0..{graph.vertex_count - 1}")
    return graph.adjacency[v]


def max_degree(graph: WncGraph) -> int:
    if graph.vertex_count == 0:
        return 0
    return max(row.bit_count() for row in graph.adjacency)


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
    return sum(row.bit_count() for row in graph.adjacency) // 2


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
