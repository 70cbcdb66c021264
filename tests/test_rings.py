"""Ring construction: Z_n, GF(p^k), products, matrix rings, quotients."""

import functools
import inspect
import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wnc
from wnc.errors import InvalidSpecError, UnsupportedOperationError

from corpus import ACCEPTANCE_CORPUS, LEADERS, realize
from oracles import (gf_poly_add, gf_poly_mul, gf_poly_name, gf_poly_neg,
                     least_irreducible_by_trial, naive_nilpotent,
                     operation_tables, ring_axiom_violations, rings_isomorphic)


def test_make_zn_examples():
    z10 = wnc.make_zn(10)
    assert z10.size == 10
    assert z10.add(7, 5) == 2
    assert z10.neg(3) == 7
    assert z10.one == 1
    assert z10.name(7) == "7"
    assert z10.is_commutative

    z2 = wnc.make_zn(2)
    assert z2.size == 2
    assert z2.one != z2.zero


def test_make_zn_rejects_bad_n():
    with pytest.raises(InvalidSpecError):
        wnc.make_zn(1)
    with pytest.raises(InvalidSpecError):
        wnc.make_zn(0)
    with pytest.raises(InvalidSpecError):
        wnc.make_zn(4097)
    assert wnc.make_zn(4096).size == 4096


def _monic_quadratics(p):
    for c0 in range(p):
        for c1 in range(p):
            yield (c0, c1, 1)


def _has_root(coeffs, p):
    return any(sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p == 0
               for x in range(p))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_find_least_irreducible_quadratic(p):
    # independent scan: a quadratic is irreducible iff it has no root
    expected = next(c for c in _monic_quadratics(p) if not _has_root(c, p))
    assert wnc.find_least_irreducible(p, 2) == expected


def test_least_irreducible_matches_known_small_cases():
    assert wnc.find_least_irreducible(2, 2) == (1, 1, 1)  # x^2+x+1
    assert wnc.find_least_irreducible(5, 2) == (1, 1, 1)  # x^2+x+1
    # only irreducible monic quadratic over Z_2: verified exhaustively
    assert [c for c in _monic_quadratics(2) if not _has_root(c, 2)] == [(1, 1, 1)]


def test_find_least_irreducible_rejects_degree_one():
    with pytest.raises(InvalidSpecError):
        wnc.find_least_irreducible(3, 1)
    with pytest.raises(InvalidSpecError):
        wnc.find_least_irreducible(4, 2)  # base not prime


# every field p^k <= 4096 with k >= 2
ALL_GF = [(p, k) for p in range(2, 64) if wnc.rings.is_prime(p)
          for k in range(2, 13) if p ** k <= 4096]


@pytest.mark.parametrize("p,k", ALL_GF)
def test_least_irreducible_is_the_trial_search(p, k, monkeypatch):
    # x divides every candidate with constant term 0, so none of them is
    # trial-divided
    seen = []
    real = wnc.rings._poly_rem

    def spy(num, den, q):
        seen.append(num[0])
        return real(num, den, q)

    monkeypatch.setattr(wnc.rings, "_poly_rem", spy)
    assert wnc.find_least_irreducible(p, k) == least_irreducible_by_trial(p, k)
    assert seen and 0 not in seen


def _sieve(limit):
    prime = [False, False] + [True] * (limit - 1)
    for d in range(2, limit + 1):
        if prime[d]:
            for m in range(d * d, limit + 1, d):
                prime[m] = False
    return prime


def test_is_prime_matches_a_sieve():
    assert ([wnc.rings.is_prime(n) for n in range(-3, 5001)]
            == [False] * 3 + _sieve(5000))


def test_factor_prime_power_matches_the_powers_of_each_prime():
    expected = [None] * 4097
    for p, prime in enumerate(_sieve(4096)):
        q, k = p, 1
        while prime and q <= 4096:
            expected[q] = (p, k)
            q, k = q * p, k + 1
    assert [wnc.rings.factor_prime_power(q) for q in range(4097)] == expected


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2)])
def test_gf_is_a_field(p, k):
    ring = wnc.make_gf(p, k)
    assert ring.size == p ** k
    for a in range(1, ring.size):
        assert any(ring.mul(a, b) == ring.one for b in range(ring.size)), \
            f"{ring.name(a)} has no inverse"


def test_gf25_names_follow_generator_convention():
    gf25 = wnc.make_gf(5, 2)
    assert gf25.name(0) == "0"
    assert gf25.name(4) == "4"
    assert gf25.name(5) == "a"        # digits (0,1) = the generator
    assert gf25.name(13) == "2a+3"    # 13 = 3 + 2*5
    assert gf25.name(24) == "4a+4"


def test_gf_char2_identity_is_self_negative():
    gf4 = wnc.make_gf(2, 2)
    assert gf4.size == 4
    assert gf4.neg(gf4.one) == gf4.one


def test_make_gf_rejects_non_prime():
    with pytest.raises(InvalidSpecError):
        wnc.make_gf(4, 1)


def test_gf_k1_identical_to_zn():
    gf5 = wnc.make_gf(5, 1)
    z5 = wnc.make_zn(5)
    assert operation_tables(gf5) == operation_tables(z5)
    assert gf5.names() == z5.names()
    assert gf5.spec == wnc.GF(5, 1)


def test_product_basics():
    z3 = wnc.make_zn(3)
    prod = wnc.make_product(z3, z3)
    assert prod.size == 9
    assert prod.name(prod.zero) == "(0;0)"
    assert prod.name(prod.one) == "(1;1)"
    # componentwise: (1,2) + (2,2) = (0,1)
    a = 1 * 3 + 2
    b = 2 * 3 + 2
    assert prod.name(prod.add(a, b)) == "(0;1)"
    assert prod.name(prod.mul(a, b)) == "(2;1)"
    assert prod.factor_sizes == (3, 3) and z3.factor_sizes is None
    assert wnc.make_product(z3, wnc.make_zn(4)).factor_sizes == (3, 4)


def test_product_z2_z2_all_idempotent():
    prod = wnc.make_product(wnc.make_zn(2), wnc.make_zn(2))
    assert all(prod.mul(x, x) == x for x in range(prod.size))


# every p^k <= 729 with k >= 2
GF_ORDERS = sorted((p, k) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)
                   for k in range(2, 10) if p ** k <= 729)
SMALL_GF = [pk for pk in GF_ORDERS if pk[0] ** pk[1] <= 256]
LARGE_GF = [pk for pk in GF_ORDERS if pk[0] ** pk[1] > 256]
gf_field = functools.lru_cache(maxsize=None)(wnc.make_gf)  # fields are immutable


@pytest.mark.parametrize("p,k", GF_ORDERS)
def test_gf_neg_and_names_match_polynomials(p, k):
    field = gf_field(p, k)
    q = p ** k
    ids = np.arange(q)
    assert [field.neg(a) for a in range(q)] == gf_poly_neg(p, k, ids).tolist()
    assert field.names() == tuple(gf_poly_name(p, k, e) for e in range(q))


@pytest.mark.parametrize("p,k", SMALL_GF)
def test_gf_arithmetic_matches_polynomials_on_all_pairs(p, k):
    field = gf_field(p, k)
    q = p ** k
    a = np.repeat(np.arange(q), q)
    b = np.tile(np.arange(q), q)
    pairs = list(zip(a.tolist(), b.tolist()))
    assert [field.mul(x, y) for x, y in pairs] == gf_poly_mul(p, k, a, b).tolist()
    assert [field.add(x, y) for x, y in pairs] == gf_poly_add(p, k, a, b).tolist()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_gf_arithmetic_matches_polynomials_on_sampled_pairs(data):
    p, k = data.draw(st.sampled_from(LARGE_GF))
    field = gf_field(p, k)
    ids = st.integers(0, p ** k - 1)
    pairs = data.draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=40))
    a, b = np.array(pairs).T
    assert [field.mul(x, y) for x, y in pairs] == gf_poly_mul(p, k, a, b).tolist()
    assert [field.add(x, y) for x, y in pairs] == gf_poly_add(p, k, a, b).tolist()


@pytest.mark.parametrize("p,k", ALL_GF)
def test_gf_walk_lists_every_nonzero_element(p, k):
    # the exp table is the linear walk of g = exp[1]: q - 1 distinct nonzero
    # elements, each g times the one before by polynomial arithmetic; add,
    # mul and neg, which read it, agree with polynomials on 200 fixed pairs
    field, q = gf_field(p, k), p ** k
    exp = inspect.getclosurevars(field.mul).nonlocals["exp"][:q - 1]
    assert sorted(exp) == list(range(1, q))
    assert exp[1:] + exp[:1] == gf_poly_mul(
        p, k, np.array(exp), np.full(q - 1, exp[1])).tolist()
    a, b = np.random.default_rng(q).integers(0, q, (2, 200))
    pairs = list(zip(a.tolist(), b.tolist()))
    assert [field.add(x, y) for x, y in pairs] == gf_poly_add(p, k, a, b).tolist()
    assert [field.mul(x, y) for x, y in pairs] == gf_poly_mul(p, k, a, b).tolist()
    assert list(map(field.neg, a.tolist())) == gf_poly_neg(p, k, a).tolist()


def test_product_cap_boundary():
    z64 = wnc.make_zn(64)
    assert wnc.make_product(z64, z64).size == 4096  # exactly at the cap
    with pytest.raises(InvalidSpecError):
        wnc.make_product(z64, wnc.make_zn(65))


def test_matrix_ring_m2_z2():
    ring = wnc.make_matrix_ring(2, wnc.make_zn(2))
    assert ring.size == 16
    assert ring.name(ring.one) == "[[1;0];[0;1]]"
    assert not ring.is_commutative
    # [[1,1],[0,1]]^2 = identity over Z_2 (hand computation)
    a = 1 + 2 * 1 + 4 * 0 + 8 * 1  # row-major digits (1,1,0,1)
    assert ring.name(a) == "[[1;1];[0;1]]"
    assert ring.mul(a, a) == ring.one


def test_matrix_ring_m2_z4_size():
    assert wnc.make_matrix_ring(2, wnc.make_zn(4)).size == 256


def test_matrix_ring_cap_checked_before_exponentiation():
    with pytest.raises(InvalidSpecError, match=r"^M_3 over a size-3 ring has "
                       r"19683 elements, over cap 4096$"):
        wnc.make_matrix_ring(3, wnc.make_zn(3))
    # 2^(99999^2) is never computed
    with pytest.raises(InvalidSpecError, match=r"^M_99999 over a size-2 ring "
                       r"has 2\^9999800001 elements, over cap 4096$"):
        wnc.make_matrix_ring(99999, wnc.make_zn(2))


def test_matrix_ring_requires_commutative_base():
    m2z2 = wnc.make_matrix_ring(2, wnc.make_zn(2))
    with pytest.raises(InvalidSpecError):
        wnc.make_matrix_ring(2, m2z2)


def test_m1_is_commutative():
    ring = wnc.make_matrix_ring(1, wnc.make_zn(6))
    assert ring.is_commutative
    assert ring.size == 6


def test_nilradical_quotient_z12_is_z6():
    quotient, projection = wnc.nilradical_quotient(wnc.make_zn(12))
    assert quotient.size == 6
    # Nil(Z_12) = {0, 6}: cosets pair x with x+6
    assert projection == [0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5]
    assert rings_isomorphic(quotient, wnc.make_zn(6))
    nil = wnc.nilpotents(quotient)
    assert nil == 1 << quotient.zero  # no nonzero nilpotents survive


def test_nilradical_quotient_z10_identity():
    quotient, projection = wnc.nilradical_quotient(wnc.make_zn(10))
    assert quotient.size == 10
    assert projection == list(range(10))


def test_nilradical_quotient_rejects_noncommutative():
    ring = wnc.make_matrix_ring(2, wnc.make_zn(2))
    with pytest.raises(UnsupportedOperationError):
        wnc.nilradical_quotient(ring)


def test_nilradical_quotient_takes_the_computed_nil_mask():
    ring = wnc.make_zn(12)
    nil = wnc.nilpotents(ring)
    quotient, projection = wnc.nilradical_quotient(ring, nil)
    assert projection == wnc.nilradical_quotient(ring)[1]
    assert quotient.names() == ("0", "1", "2", "3", "4", "5")


@pytest.mark.parametrize("expr", [
    e for e in ACCEPTANCE_CORPUS
    if realize(e)[0].is_commutative and realize(e)[1].nil != 1])
def test_quotient_projection_numbers_the_cosets_by_least_member(expr):
    ring, _, _ = realize(expr)
    nil = [v for v in range(ring.size) if naive_nilpotent(ring, v)]
    cosets = {min(c): c for c in (frozenset(ring.add(x, v) for v in nil)
                                  for x in range(ring.size))}
    quotient, projection = wnc.nilradical_quotient(ring)
    assert quotient.size == len(cosets)
    for i, least in enumerate(sorted(cosets)):
        assert {projection[x] for x in cosets[least]} == {i}
        assert quotient.name(i) == ring.name(least)


def test_quotient_never_has_nonzero_nilpotents():
    for expr in ["Z8", "Z12", "Z18", "Z36", "Z4 x Z9"]:
        ring, _, _ = realize(expr)
        quotient, _ = wnc.nilradical_quotient(ring)
        assert wnc.nilpotents(quotient) == 1 << quotient.zero, expr


AXIOM_EXPRS = ["Z2", "Z3", "Z4", "Z10", "Z12", "Z36", "Z100", "Z256",
               "GF(4)", "GF(8)", "GF(9)", "GF(25)", "GF(27)", "GF(49)",
               "Z3 x Z3", "Z4 x Z9", "M2(Z2)", "Z12/nil", "(Z4 x Z9)/nil"]


@pytest.mark.parametrize("expr", AXIOM_EXPRS)
def test_ring_axioms_exhaustive(expr):
    ring = wnc.build_ring(wnc.parse_ring_expr(expr))
    assert ring.size <= 256
    assert ring_axiom_violations(ring) == []


@pytest.mark.parametrize("expr", ["Z17", "GF(27)", "M2(Z2)", "Z12/nil", "Z3 x Z5"])
def test_construction_is_deterministic(expr):
    spec = wnc.parse_ring_expr(expr)
    first = wnc.build_ring(spec)
    second = wnc.build_ring(spec)
    assert operation_tables(first) == operation_tables(second)
    assert first.names() == second.names()
    assert (first.zero, first.one) == (second.zero, second.one)


def test_large_ring_skips_tables_but_agrees():
    # operations are computed on the fly
    big = wnc.make_zn(300)
    assert big.add(299, 2) == 1
    assert big.mul(25, 12) == 0
    assert big.neg(1) == 299


# the function each construction's add, mul and neg are defined in
OWN_OPERATIONS = {"Z256": "_integers_mod", "GF(4)": "make_gf",
                  "GF(256)": "make_gf", "Z2 x Z2": "make_product",
                  "M2(GF(4))": "make_matrix_ring", "M2(Z4)": "make_matrix_ring",
                  "Z12/nil": "nilradical_quotient"}


@pytest.mark.parametrize("expr", OWN_OPERATIONS)
def test_no_ring_swaps_in_table_lookups(expr, monkeypatch):
    # building a ring materializes no n^2 tables: it keeps the operations
    # its construction defines (for GF(p^k), the exp/log lookups), and the
    # table builder is a test oracle the library does not hold
    assert not hasattr(wnc.rings, "operation_tables")
    ring = wnc.build_ring(wnc.parse_ring_expr(expr))
    for op in (ring.add, ring.mul, ring.neg):
        assert op.__qualname__.startswith(OWN_OPERATIONS[expr] + ".<locals>.")
    if expr.startswith("GF"):
        assert ring.add.__qualname__ == "make_gf.<locals>.add"
        assert ring.mul.__qualname__ == "make_gf.<locals>.mul"


def test_build_ring_respects_cap():
    assert wnc.build_ring(wnc.parse_ring_expr("M2(Z8)")).size == 4096
    with pytest.raises(InvalidSpecError):
        wnc.build_ring(wnc.parse_ring_expr("M2(Z9)"))


@pytest.mark.parametrize("function", [
    wnc.parse_ring_expr, wnc.build_ring, wnc.make_zn, wnc.make_gf,
    wnc.make_product, wnc.make_matrix_ring], ids=lambda f: f.__name__)
def test_the_cap_is_not_a_parameter(function):
    assert "cap" not in inspect.signature(function).parameters


@pytest.mark.parametrize("function,derived", [
    (wnc.FiniteRing, {"size", "zero", "factor_sizes"}),
    (wnc.WncGraph, {"vertex_count", "kind"}),
    (wnc.make_graph, {"kind"}),
    (wnc.compute_report, {"ring"}),
    (wnc.InvariantReport, {"ring"}),
    (wnc.graph.sum_sets, {"ring"}),
    (wnc.graph.certify_rows, {"ring"}),
    (wnc.neighborhood_disjointness_check, {"ring"}),
], ids=lambda f: getattr(f, "__name__", None))
def test_derived_facts_are_not_parameters(function, derived):
    # a ring's size is its number of names and its zero is 0; a graph's
    # vertex count is its number of rows; the report reads the graph's ring
    assert not derived & set(inspect.signature(function).parameters)


# every ring the constructors build: the acceptance corpus and the
# quotients of its commutative rings by their nilradicals
BUILT_CORPUS = ACCEPTANCE_CORPUS + tuple(
    f"({e})/nil" for e in ACCEPTANCE_CORPUS if not e.startswith("M"))


@pytest.mark.parametrize("expr", BUILT_CORPUS)
def test_every_built_ring_has_zero_0_a_nonzero_one_and_injective_names(expr):
    # the facts FiniteRing takes on trust: no constructor checks them
    ring = wnc.build_ring(wnc.parse_ring_expr(expr))
    assert ring.size >= 2
    assert math.prod(ring.radices) == ring.size
    assert ring.one != ring.zero == 0
    assert len(set(ring.names())) == ring.size
    assert [ring.add(0, x) for x in range(ring.size)] == list(range(ring.size))


@pytest.mark.parametrize("expr,radices", [
    ("Z12", (12,)), ("GF(5)", (5,)), ("GF(27)", (3, 3, 3)),
    ("Z2 x Z3", (3, 2)), ("(Z2 x Z3) x Z4", (4, 3, 2)),
    ("Z4 x (Z2 x Z3)", (3, 2, 4)), ("Z2 x GF(4)", (2, 2, 2)),
    ("M2(Z3)", (3, 3, 3, 3)), ("M2(Z2 x Z3)", (3, 2) * 4),
    ("Z12/nil", (6,)), ("Z2 x Z12/nil", (6, 2)), ("M2(Z4/nil)", (2,) * 4)])
def test_additive_layout(expr, radices):
    ring = wnc.build_ring(wnc.parse_ring_expr(expr))
    assert ring.radices == radices
    # the ids are mixed-radix numbers whose digits add without carry: the
    # digit sums of every pair, broadcast over the n x n grid, are
    # ring.add of that pair, which a quotient reads off its cosets
    n = ring.size
    assert int(np.prod(radices)) == n
    places = np.cumprod((1,) + radices[:-1])
    ids = np.arange(n)
    want = np.zeros((n, n), dtype=np.int64)
    for place, radix in zip(places, radices):
        digit = ids // place % radix
        want += (digit[:, None] + digit[None, :]) % radix * place
    got = np.array([list(map(ring.add, itertools.repeat(a), range(n)))
                    for a in range(n)])
    assert np.array_equal(got, want)


TRANSLATE_EXPRS = ("Z2", "Z12", "Z64", "GF(4)", "GF(8)", "GF(27)", "GF(64)",
                   "Z2 x GF(4)", "Z4 x Z9", "(Z2 x Z3) x Z4", "Z4 x (Z2 x Z3)",
                   "Z2 x Z2 x Z2 x Z2", "M2(Z2)", "Z3 x M2(Z2)",
                   "Z2 x Z12/nil", "(Z8 x Z27)/nil", "(Z4 x Z9)/nil x Z3")


@pytest.mark.parametrize("expr", TRANSLATE_EXPRS)
def test_translate_matches_add_for_every_shift(expr):
    ring = wnc.build_ring(wnc.parse_ring_expr(expr))
    assert ring.size <= 64
    n = ring.size
    rng = np.random.default_rng(n)
    masks = [0, 1, 1 << (n - 1), (1 << n) - 1] + [
        int(sum(1 << int(x) for x in rng.choice(n, min(size, n), replace=False)))
        for size in (2, 3, n // 2, n - 1)]
    for mask in masks:
        for g in range(n):
            image = 0
            for m in range(n):
                if mask >> m & 1:
                    image |= 1 << ring.add(m, g)
            assert wnc.rings.translate(ring, mask, g) == image, (mask, g)


ADD_ROW_EXPRS = ("Z2 x Z2 x Z2", "(Z2 x Z3) x Z4", "Z4 x (Z2 x Z3)",
                 "Z2 x GF(4)", "M2(Z2 x Z2)", "M2(GF(4))", "M2(Z3)",
                 "Z12/nil", "(Z4 x Z9)/nil x Z3", "Z2 x Z12/nil")


@pytest.mark.parametrize("expr", ACCEPTANCE_CORPUS + ADD_ROW_EXPRS)
def test_add_row_is_the_row_of_add(expr):
    # the addition row y -> x + y, which the row certificate reads for each
    # generator x, is a permutation of the carrier, and `doubles` is the
    # diagonal of add
    ring = wnc.build_ring(wnc.parse_ring_expr(expr))
    ids = list(range(ring.size))
    for x in ids:
        row = list(map(ring.add, [x] * ring.size, ids))
        assert sorted(row) == ids
        assert ring.add_row(x) == row
    assert ring.doubles == [ring.add(x, x) for x in ids]


@pytest.mark.parametrize("expr", ["GF(9)", "GF(8)"])
def test_a_field_row_calls_the_add_bound_on_the_ring(expr):
    # a field's rows and doubles fall back to one `add` per id, the one the
    # ring holds when they run, as a counting hook rebinds it
    ring = wnc.build_ring(wnc.parse_ring_expr(expr))
    add, calls, ids = ring.add, [], range(ring.size)
    ring.add = lambda a, b: calls.append((a, b)) or add(a, b)
    assert ring.add_row(1) == list(map(add, [1] * ring.size, ids))
    assert ring.doubles == list(map(add, ids, ids))
    assert calls == [*zip([1] * ring.size, ids), *zip(ids, ids)]


@pytest.mark.parametrize("expr", LEADERS)
def test_the_leaders_rows_are_the_rows_of_add(expr):
    # the composed addition row of each digit's unit, the rows that the
    # certificate reads, and the composed doubles, against add
    ring = wnc.build_ring(wnc.parse_ring_expr(expr))
    ids = range(ring.size)
    for g in itertools.accumulate((1, *ring.radices[:-1]), operator.mul):
        assert ring.add_row(g) == list(map(ring.add, [g] * ring.size, ids))
    assert ring.doubles == list(map(ring.add, ids, ids))


@pytest.mark.parametrize("expr", ["Z12", "Z2 x Z3", "M2(Z2)", "Z2 x Z12/nil"])
def test_add_row_never_reads_the_layout(expr, monkeypatch):
    # the addition rows and the doubles, which the row certificate reads,
    # come out the same with the digit layout gone
    ring = wnc.build_ring(wnc.parse_ring_expr(expr))
    ids = range(ring.size)
    rows = [[ring.add(x, y) for y in ids] for x in ids]

    def refuse(*args):
        raise AssertionError("add read the digit layout")

    monkeypatch.setattr(wnc.rings, "translate", refuse)
    monkeypatch.setattr(type(ring), "_wrap_masks", property(refuse))
    ring.radices = None
    assert [[ring.add(x, y) for y in ids] for x in ids] == rows
    assert [ring.add_row(x) for x in ids] == rows
    assert ring.doubles == [rows[x][x] for x in ids]
