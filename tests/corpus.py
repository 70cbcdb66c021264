"""The concrete ring corpus shared across the test suite."""

from functools import lru_cache

import wnc

ACCEPTANCE_CORPUS = tuple(f"Z{n}" for n in range(2, 37)) + (
    "GF(4)", "GF(9)", "GF(25)", "GF(27)", "Z3 x Z3", "M2(Z2)")

# the rings whose arithmetic costs the most per element: twelve-digit
# certificates, the largest field, and a nested product with a matrix factor
LEADERS = (" x ".join(["Z2"] * 12), "M2(Z2 x Z2 x Z2)", "M2(GF(8))", "M2(Z7)",
           "GF(4096)", "M2(Z3) x Z3 x Z3 x Z5")

SMALL_CORPUS = tuple(e for e in ACCEPTANCE_CORPUS
                     if wnc.build_ring(wnc.parse_ring_expr(e)).size <= 24)


@lru_cache(maxsize=None)
def realize(expr: str):
    """(ring, classification, weakly nil clean graph) for an expression;
    cached because rings are immutable."""
    ring = wnc.build_ring(wnc.parse_ring_expr(expr))
    cls = wnc.weakly_nil_clean_set(ring)
    graph = wnc.build_wnc_graph(ring, cls)
    return ring, cls, graph
