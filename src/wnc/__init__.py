"""Weakly nil clean graphs of finite rings.

Construct finite rings (Z_n, GF(p^k), products, matrix rings, nilradical
quotients), classify their idempotent/nilpotent/(weakly) nil clean
elements, build the weakly nil clean graph, compute exact invariants
(girth, diameter, cliques, chromatic index), and check the structural
facts the toolkit mechanizes against each concrete ring.
"""

__version__ = "0.1.0"

from .classify import (Classification, idempotents, nilpotents,
                       weakly_nil_clean_set)
from .coloring import UNKNOWN, chromatic_index_exact
from .errors import (InvalidSpecError, RingExprError,
                     UnsupportedOperationError, WncError)
from .graph import (WncGraph, build_nc_graph, build_wnc_graph, edge_count,
                    edges, make_graph, max_degree, neighborhood)
from .invariants import (CENSUS_NODES, CLIQUE_NODES, INFINITE, Budget,
                         clique_count_bound, components, diameter,
                         enumerate_k_cliques, girth, is_bipartite, is_star,
                         max_clique)
from .ringexpr import parse_ring_expr
from .rings import (GF, SIZE_CAP, FiniteRing, MatrixRing, NilQuotient,
                    Product, RingSpec, Zn, build_ring,
                    find_least_irreducible, format_spec, make_gf,
                    make_matrix_ring, make_product, make_zn,
                    nilradical_quotient)
from .theorems import (InvariantReport, THEOREM_IDS, TheoremVerdict,
                       compute_report, neighborhood_disjointness_check)
