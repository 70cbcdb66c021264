"""Predicted-versus-computed verdicts for the structural facts the toolkit
mechanizes, and the invariant report they read.

`InvariantReport` computes each invariant once, in its constructor. Its
verdicts and its 4-clique census are computed on first read, so a caller
that prints invariants alone, such as `wnc batch`, builds no quotient,
runs no census and formats no verdict.

Each verdict compares a prediction derived from ring data against a value
computed from the constructed graph. A ring that fails a fact's hypothesis
gets NOT-APPLICABLE; a genuine mismatch is reported as DISAGREE, never
silently corrected. Some mismatches are charted: characteristic-2 fields
break the {0, 1, -1} triangle (girth, bipartite, star, field clique
number), and rings where 2x is always weakly nil clean have max degree
|WNC|-1, which breaks the class-1 argument (odd complete graphs are class
2). The `known_discrepancy` flag marks exactly those.

The report reads the graph it is given, and the ring R that graph was
built from, so it cannot mix two rings. It builds no graph of its own, bar
the quotient's graph when Nil(R) != 0. Two verdicts read the graph's one
sum pass (`WncGraph.sum_coloring`) over the sum sets
sums(x) = {x + y : y ~ x}. sum-coloring checks |sums(x)| = deg(x), and
subgraph checks that NC(R) lies in the meet over x of sums(x) and {2x},
that is, that NC(R) minus {2x} lies in every sums(x): y is a nil clean
neighbor of x iff y != x and x + y is nil clean, and by cancellation in
(R,+) that y is a neighbor in the given graph iff x + y is in sums(x).
This never assumes NC(R) inside WNC(R). degree-lemma checks
deg(x) = |WNC| - [2x in WNC] on the rows.

Where the build translated the rows, the pass proves each row x (S - x)
minus x from the ring's own arithmetic (`graph.certify_rows`, whose
docstring gives the argument and what each wrong row or addition shows)
and reads sums(x) = S minus 2x off S and the doubles; other rows get one
`add` per neighbor. So each verdict compares the real row's popcount, or
NC(R), with sums proved from the ring's arithmetic, never from the lemma
it checks. The report assumes `add` is an abelian group operation, as the
paper's proofs do; the tests check the ring axioms on the corpus.

The class-1 verdict reads `coloring.chromatic_index_exact`, which decides
chi' from the same pass, a bound or a construction that it proves, or
answers unknown; it makes no search and has no budget.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .bitsets import iter_bits
from .classify import Classification, weakly_nil_clean_set
from .coloring import chromatic_index_exact
from .graph import WncGraph, build_wnc_graph, is_complete, max_degree, ring_of
from .invariants import (CENSUS_NODES, CLIQUE_NODES, INFINITE, UNKNOWN, Budget,
                         clique_count_bound, diameter, enumerate_k_cliques,
                         girth, is_star, max_clique,
                         neighborhood_disjointness_check, z2p_prime)
from .rings import GF, MatrixRing, Zn, is_prime, nilradical_quotient

AGREE = "AGREE"
DISAGREE = "DISAGREE"
NOT_APPLICABLE = "N-A"
UNDECIDED = "UNKNOWN"

THEOREM_IDS = (
    "completeness",
    "subgraph",
    "quotient-lifting",
    "degree-lemma",
    "connectedness",
    "girth",
    "not-bipartite",
    "not-star",
    "clique-zp",
    "clique-field",
    "clique-z2p",
    "four-cliques",
    "neighborhood-lemma",
    "diameter-2k3l",
    "diameter-zp",
    "diameter-z2p",
    "diameter-field",
    "diameter-product",
    "sum-coloring",
    "class-1",
)


# status is AGREE, DISAGREE, N-A or UNKNOWN; `_asdict` gives the JSON object
TheoremVerdict = namedtuple(
    "TheoremVerdict", "theorem predicted computed status known_discrepancy",
    defaults=(False,))


def _is_2k3l(n: int) -> bool:
    while n % 2 == 0:
        n //= 2
    while n % 3 == 0:
        n //= 3
    return n == 1


def _agrees(value, want):
    """value == want, or UNKNOWN when the value is."""
    return UNKNOWN if value is UNKNOWN else value == want


def _expected_four_cliques(p: int) -> list[tuple[int, ...]]:
    n = 2 * p
    raw = [
        {0, 1, n - 1, p},
        {0, 1, p, p - 1},
        {0, n - 1, p, p + 1},
        {0, p, p - 1, p + 1},
        {(p - 1) // 2, (p + 1) // 2, (3 * p - 1) // 2, (3 * p + 1) // 2},
    ]
    return sorted(tuple(sorted(s)) for s in raw)


class InvariantReport:
    """The invariants of the graph of its ring, and the verdicts on them.

    The constructor computes the invariants; it refuses a row with a bit
    outside the carrier. `theorem_verdicts` and `four_cliques` are
    computed on first read, so a caller that reads neither builds no
    quotient, runs no census and formats no verdict.
    `stopped` names the budgets that the values read so far exhausted.
    """

    def __init__(self, classification: Classification, graph: WncGraph):
        ring_of(graph)  # refuses a graph without a ring before any work
        n = graph.vertex_count
        if classification.size != n or graph.clean_set != classification.wnc:
            raise ValueError("graph was not built from this classification")
        if any(row >> n for row in graph.adjacency):
            raise ValueError("a row has a bit outside the carrier")
        self.cls, self.graph = classification, graph
        parts, self.is_bipartite = graph.components
        self.component_sizes = sorted(c.bit_count() for c in parts)
        self.diameter = diameter(graph)  # int or INFINITE
        self.girth = girth(graph)  # int or INFINITE
        self.max_degree = max_degree(graph)
        self.budgets = {name: Budget(name, nodes) for name, nodes in (
            ("clique", CLIQUE_NODES), ("four-cliques", CENSUS_NODES))}
        # the clique is sorted, the one the search found: maximum unless
        # clique_number is UNKNOWN
        self.clique, self.clique_number = max_clique(graph,
                                                     self.budgets["clique"])
        self.sum_coloring_colors = graph.sum_coloring[1].bit_count()
        self.chromatic_index = chromatic_index_exact(graph)
        chi = self.chromatic_index
        self.vizing_class = (UNKNOWN if chi is UNKNOWN
                             else 1 if chi == self.max_degree else 2)

    @property
    def stopped(self) -> dict[str, Budget]:
        """The exhausted budgets by search name."""
        return {name: b for name, b in self.budgets.items() if b.exhausted}

    @cached_property
    def four_cliques(self):
        """The sorted 4-cliques, or UNKNOWN when there may be more than the
        census budget allows: a node is one listed clique, and the census
        reserves the count bound before it lists anything."""
        budget = self.budgets["four-cliques"]
        budget.bound = clique_count_bound(self.graph, 4)
        return (sorted(enumerate_k_cliques(self.graph, 4))
                if budget.spend(budget.bound) else UNKNOWN)

    @cached_property
    def theorem_verdicts(self) -> list[TheoremVerdict]:
        return _verdicts(self)


def _check_quotient_lifting(a: InvariantReport) -> bool:
    if a.cls.nil == 1:
        # Nil(R) = 0, the bitset of id 0: every coset is one element and
        # the projection is the identity, so the quotient's graph is R's
        # own and lifting holds
        return True
    quotient, projection = nilradical_quotient(a.graph.ring, a.cls.nil)
    q_cls = weakly_nil_clean_set(quotient)
    q_graph = build_wnc_graph(quotient, q_cls)
    cosets = [0] * quotient.size
    for x, q in enumerate(projection):
        cosets[q] |= 1 << x
    # need[q]: every element of every coset adjacent to q, none of q's own
    # since the quotient's graph has no loops
    need = []
    for q_row in q_graph.adjacency:
        union = 0
        for q in iter_bits(q_row):
            union |= cosets[q]
        need.append(union)
    return all(need[q] & ~row == 0
               for q, row in zip(projection, a.graph.adjacency))


def _verdicts(a: InvariantReport) -> list[TheoremVerdict]:
    """Evaluate every applicable fact against the analysed ring and graph."""
    graph, ring = a.graph, a.graph.ring
    spec = ring.spec
    n = ring.size
    char2 = ring.doubles[ring.one] == ring.zero
    out = []

    def emit(theorem, predicted, computed, agree, known=False, why="budget"):
        if agree is UNKNOWN:  # a search the value needs ran out of budget
            computed = f"unknown ({why})"
        status = UNDECIDED if agree is UNKNOWN else AGREE if agree else DISAGREE
        out.append(TheoremVerdict(theorem, predicted, computed, status,
                                  known_discrepancy=known and not agree))

    def skip(theorem, reason):
        out.append(TheoremVerdict(theorem, "-", reason, NOT_APPLICABLE))

    # completeness <=> weakly nil clean ring
    predicted = "complete" if a.cls.wnc == (1 << n) - 1 else "incomplete"
    computed = "complete" if is_complete(graph) else "incomplete"
    emit("completeness", predicted, computed, predicted == computed)

    # the nil clean graph is always a subgraph (module docstring)
    proper, colors, covered = graph.sum_coloring
    ok = a.cls.nc & ~covered == 0
    emit("subgraph", "nil clean graph is a subgraph",
         "subgraph" if ok else "edge outside the weakly nil clean graph", ok)

    # adjacency lifts from R/Nil(R)
    if ring.is_commutative:
        ok = _check_quotient_lifting(a)
        emit("quotient-lifting", "adjacent cosets lift to all element pairs",
             "holds" if ok else "fails", ok)
    else:
        skip("quotient-lifting", "noncommutative ring")

    # degree formula deg(x) = |WNC| - [2x in WNC]
    clean, size = a.cls.wnc, a.cls.wnc.bit_count()
    ok = all(degree == size - (clean >> d & 1)
             for degree, d in zip(graph.degrees, ring.doubles))
    emit("degree-lemma", "deg(x) = |WNC| - [2x weakly nil clean]",
         "holds" if ok else "fails", ok)

    # connectedness for Z_n and M_n(Z_n)
    applies = isinstance(spec, Zn) or (
        isinstance(spec, MatrixRing) and isinstance(spec.inner, Zn)
        and spec.k == spec.inner.n)
    if applies:
        connected = len(a.component_sizes) == 1
        emit("connectedness", "connected",
             "connected" if connected else f"{len(a.component_sizes)} components",
             connected)
    else:
        skip("connectedness", "stated for Z_n and M_n(Z_n) only")

    # girth 3 and its corollaries need |R| >= 3
    if n >= 3:
        emit("girth", "3", str(a.girth), a.girth == 3, known=char2)
        emit("not-bipartite", "not bipartite",
             "bipartite" if a.is_bipartite else "not bipartite",
             not a.is_bipartite, known=char2)
        star = is_star(graph)
        emit("not-star", "not a star", "star" if star else "not a star",
             not star, known=char2)
    else:
        skip("girth", "|R| < 3")
        skip("not-bipartite", "|R| < 3")
        skip("not-star", "|R| < 3")

    # clique numbers
    zn = spec.n if isinstance(spec, Zn) else None
    if zn is not None and zn >= 3 and is_prime(zn):
        emit("clique-zp", "3", str(a.clique_number), _agrees(a.clique_number, 3))
    else:
        skip("clique-zp", "not Z_p for an odd prime p")
    if isinstance(spec, GF):
        emit("clique-field", "3", str(a.clique_number),
             _agrees(a.clique_number, 3), known=char2)
    else:
        skip("clique-field", "not a field spec")
    p2 = z2p_prime(spec)
    if p2 is not None:
        emit("clique-z2p", "4", str(a.clique_number), _agrees(a.clique_number, 4))
        expected = _expected_four_cliques(p2)
        actual = a.four_cliques
        emit("four-cliques",
             "exactly " + ", ".join("{%s}" % ",".join(map(str, c)) for c in expected),
             "" if actual is UNKNOWN else
             ", ".join("{%s}" % ",".join(map(str, c)) for c in actual) or "none",
             _agrees(actual, expected))
        verdicts = neighborhood_disjointness_check(graph)
        bad = [v for v in verdicts if not v[3]]
        emit("neighborhood-lemma",
             "disjoint neighborhoods on all stated pairs",
             f"all {len(verdicts)} pairs disjoint" if not bad
             else f"{len(bad)} of {len(verdicts)} pairs intersect",
             not bad)
    else:
        skip("clique-z2p", "not Z_2p with p >= 5 prime")
        skip("four-cliques", "not Z_2p with p >= 5 prime")
        skip("neighborhood-lemma", "not Z_2p with p >= 5 prime")

    # diameters
    if zn is not None and _is_2k3l(zn):
        emit("diameter-2k3l", "1", str(a.diameter), a.diameter == 1)
    else:
        skip("diameter-2k3l", "n is not of the form 2^k 3^l")
    if zn is not None and zn % 2 == 1 and is_prime(zn):
        want = (zn - 1) // 2
        emit("diameter-zp", str(want), str(a.diameter), a.diameter == want)
    else:
        skip("diameter-zp", "not Z_p for an odd prime p")
    if p2 is not None:
        want = (p2 - 1) // 2
        emit("diameter-z2p", str(want), str(a.diameter), a.diameter == want)
    else:
        skip("diameter-z2p", "not Z_2p with p >= 5 prime")
    if isinstance(spec, GF):
        want_inf = spec.k > 1
        got_inf = a.diameter is INFINITE
        emit("diameter-field", "inf" if want_inf else "finite",
             str(a.diameter), want_inf == got_inf)
    else:
        skip("diameter-field", "not a field spec")
    if ring.factor_sizes is not None:
        # x = a * |B| + b is the pair (a, b); WNC(A x B) and NC(A x B)
        # project onto WNC and NC of each factor, since the other factor
        # can take n = e = 0
        right_size = ring.factor_sizes[1]
        wnc = [divmod(x, right_size) for x in iter_bits(a.cls.wnc)]
        nc = [divmod(x, right_size) for x in iter_bits(a.cls.nc)]
        # each factor is weakly nil clean and not nil clean
        hyp = all(len({p[i] for p in wnc}) == size != len({p[i] for p in nc})
                  for i, size in enumerate(ring.factor_sizes))
        if hyp:
            emit("diameter-product", "2 or 3", str(a.diameter),
                 a.diameter in (2, 3))
        else:
            skip("diameter-product",
                 "factors are not both weakly nil clean non nil clean")
    else:
        skip("diameter-product", "not a product spec")

    # sum coloring: proper, colors inside WNC(R)
    inside = colors & ~a.cls.wnc == 0
    emit("sum-coloring", "proper with colors among the weakly nil clean sums",
         ("proper" if proper else "improper") + ", "
         + f"{a.sum_coloring_colors} colors"
         + ("" if inside else " outside the set"), proper and inside)

    # class 1: chi' = max degree; the degree-lemma premise Delta = |WNC|
    # fails exactly when Delta = |WNC| - 1
    emit("class-1", "class 1", f"class {a.vizing_class}",
         _agrees(a.vizing_class, 1),
         known=a.max_degree == a.cls.wnc.bit_count() - 1, why="no rule")
    return out


def compute_report(classification: Classification,
                   graph: WncGraph) -> InvariantReport:
    """The invariant report of the graph and its ring; its verdicts and
    census are computed on first read."""
    return InvariantReport(classification, graph)
