"""Element classes: idempotents, nilpotents, NC(R), WNC(R), and the
decompositions x = n + e and x = n - e behind them."""

import math

import pytest

import wnc
from wnc.bitsets import bit_list, mask_of
from wnc.rings import Product

import output_scan
from corpus import ACCEPTANCE_CORPUS, realize
from oracles import (naive_decompositions, naive_idempotent_list,
                     naive_nc_members, naive_nilpotent, naive_wnc_members,
                     with_add)


def test_idempotents_examples():
    assert bit_list(wnc.idempotents(wnc.make_zn(10))) == [0, 1, 5, 6]
    assert bit_list(wnc.idempotents(wnc.make_zn(12))) == [0, 1, 4, 9]
    assert bit_list(wnc.idempotents(wnc.make_gf(5, 2))) == [0, 1]


def test_nilpotents_examples():
    assert bit_list(wnc.nilpotents(wnc.make_zn(12))) == [0, 6]
    assert bit_list(wnc.nilpotents(wnc.make_zn(10))) == [0]
    for p, k in [(2, 2), (3, 2), (5, 2), (3, 3)]:
        assert bit_list(wnc.nilpotents(wnc.make_gf(p, k))) == [0]


# M2(Z4) is noncommutative; Z256, Z243 and Z625 hold elements of
# nilpotency index 8, 5 and 4; in Z2^12 every element is idempotent, and
# M2(Z2 x Z2) holds idempotents, nilpotents and elements that are neither
@pytest.mark.parametrize("expr", ACCEPTANCE_CORPUS + (
    "M2(Z4)", "Z256", "Z243", "Z625", " x ".join(["Z2"] * 12), "M2(Z2 x Z2)"))
def test_nilpotents_match_power_walk(expr):
    ring = wnc.build_ring(wnc.parse_ring_expr(expr))
    expected = mask_of(x for x in range(ring.size) if naive_nilpotent(ring, x))
    assert wnc.nilpotents(ring) == expected


def test_nilpotents_square_each_element_at_most_four_times_in_z1000(monkeypatch):
    # an index is at most floor(log2 1000) = 9, and 2^4 >= 9
    ring = wnc.make_zn(1000)
    mul, calls = ring.mul, []
    monkeypatch.setattr(ring, "mul", lambda a, b: calls.append(a) or mul(a, b))
    assert wnc.nilpotents(ring) == mask_of(range(0, 1000, 10))
    assert len(calls) <= 1000 * 4


def test_nilpotents_stop_squaring_at_an_idempotent(monkeypatch):
    # every element of Z2^12 is idempotent: 0 is nilpotent with no squaring,
    # and one squaring shows y * y = y != 0 for each of the other 4,095,
    # once the ring is tested element by element, as if it were no product
    ring = wnc.build_ring(wnc.parse_ring_expr(" x ".join(["Z2"] * 12)))
    mul, calls = ring.mul, []
    monkeypatch.setattr(ring, "mul", lambda a, b: calls.append(a) or mul(a, b))
    monkeypatch.setattr(ring, "factors", None)
    assert wnc.nilpotents(ring) == 1
    assert len(calls) == 4095


# every product on the output scan's list, the leaders included
PRODUCT_EXPRS = [e for e in output_scan.RINGS if e not in output_scan.REFUSED
                 and isinstance(wnc.parse_ring_expr(e), Product)]


@pytest.mark.parametrize("expr", PRODUCT_EXPRS)
def test_product_classes_are_the_element_wise_enumeration(expr):
    # Idem(A x B) = Idem(A) x Idem(B), and the same for Nil: the composed
    # bitsets equal the oracle's walk over every element of the product
    ring = wnc.build_ring(wnc.parse_ring_expr(expr))
    assert ring.factors is not None
    assert wnc.idempotents(ring) == mask_of(naive_idempotent_list(ring))
    assert wnc.nilpotents(ring) == mask_of(
        x for x in range(ring.size) if naive_nilpotent(ring, x))


@pytest.mark.parametrize("expr", ["Z2 x Z2 x Z2 x Z2", "M2(Z2) x Z3",
                                  "Z3 x M2(Z2)", "(Z4 x Z9)/nil x Z3"])
def test_a_product_classifies_no_element_through_its_own_mul(expr, monkeypatch):
    # the factors test their elements, and the product composes their sets
    ring = wnc.build_ring(wnc.parse_ring_expr(expr))
    cls = wnc.weakly_nil_clean_set(ring)

    def refuse(a, b):
        raise AssertionError("the product's mul was called")

    monkeypatch.setattr(ring, "mul", refuse)
    assert wnc.weakly_nil_clean_set(ring) == cls


def test_wnc_gf25_matches_worked_example():
    gf25 = wnc.make_gf(5, 2)
    cls = wnc.weakly_nil_clean_set(gf25)
    assert bit_list(cls.wnc) == [0, 1, 4]
    assert [gf25.name(x) for x in bit_list(cls.wnc)] == ["0", "1", "4"]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_wnc_zp(p):
    cls = wnc.weakly_nil_clean_set(wnc.make_zn(p))
    assert cls.wnc == mask_of({0, 1, p - 1})


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_wnc_z2p(p):
    n = 2 * p
    cls = wnc.weakly_nil_clean_set(wnc.make_zn(n))
    assert cls.wnc == mask_of({0, 1, n - 1, p, p - 1, p + 1})


def _types(ring):
    """The paper's decomposition types per element: 1 for x = n + e, 2 for
    x = n - e."""
    return {x: {1 if sign > 0 else 2 for *_, sign in ws}
            for x, ws in naive_decompositions(ring).items()}


def test_wnc_z10_witness_detail():
    ring, cls, _ = realize("Z10")
    assert bit_list(cls.wnc) == [0, 1, 4, 5, 6, 9]
    # 4 = 0 - 6 only; 1 = 0 + 1 only; 5 = 0 + 5 = 0 - 5 gives both types
    types = _types(ring)
    assert types[4] == {2}
    assert types[1] == {1}
    assert types[5] == {1, 2}
    assert types[0] == {1, 2}
    assert naive_decompositions(ring)[4] == [(0, 6, -1)]
    # NC(R) holds exactly the elements of type 1
    assert mask_of(x for x, t in types.items() if 1 in t) == cls.nc


def test_pure_nilpotents_get_both_types():
    ring, cls, _ = realize("Z12")
    # 6 is nilpotent: 6 = 6 + 0 = 6 - 0
    assert cls.nil >> 6 & 1
    assert {(6, 0, 1), (6, 0, -1)} <= set(naive_decompositions(ring)[6])
    assert _types(ring)[6] == {1, 2}


@pytest.mark.parametrize("expr", ACCEPTANCE_CORPUS)
def test_classification_invariants(expr):
    ring, cls, _ = realize(expr)
    full = (1 << ring.size) - 1
    assert cls.nc & ~cls.wnc == 0  # NC subset of WNC
    for x in (ring.zero, ring.one, ring.neg(ring.one)):
        assert cls.wnc >> x & 1
    assert cls.idem & ~cls.nc == 0  # e = 0 + e
    assert cls.nil & ~cls.nc == 0  # n = n + 0
    for e in bit_list(cls.idem):
        assert cls.wnc >> ring.neg(e) & 1  # -e = 0 - e
    assert cls.idem >> ring.zero & 1 and cls.idem >> ring.one & 1
    assert cls.nil >> ring.zero & 1
    assert cls.wnc <= full


@pytest.mark.parametrize("expr", ACCEPTANCE_CORPUS)
def test_witness_soundness_replay(expr):
    # each decomposition replays through add and neg, and an element is
    # weakly nil clean (nil clean) iff it has a decomposition (of sign +1)
    ring, cls, _ = realize(expr)
    found = naive_decompositions(ring)
    for x, ws in found.items():
        for n, e, sign in ws:
            assert ring.add(n, e if sign > 0 else ring.neg(e)) == x
    assert mask_of(found) == cls.wnc
    assert mask_of(x for x, ws in found.items()
                   if any(sign > 0 for *_, sign in ws)) == cls.nc


def test_wnc_ring_predicates():
    # a (weakly) nil clean ring is one whose every element is
    def full(expr, part):
        ring, cls, _ = realize(expr)
        return getattr(cls, part) == (1 << ring.size) - 1

    assert full("Z12", "wnc")
    assert full("Z3", "wnc")
    assert not full("Z3", "nc")
    assert not full("GF(25)", "wnc")
    assert full("Z2", "nc")
    assert full("Z4", "nc")
    cls3 = wnc.weakly_nil_clean_set(wnc.make_zn(3))
    assert bit_list(cls3.nc) == [0, 1]


# quotients, whose layout R/Nil(R) takes from Nil(R), and products and
# matrix rings whose sums translate by moves of many digits and units,
# which the row certificate does not check
QUOTIENT_EXPRS = ("Z12/nil", "(Z4 x Z9)/nil x Z3", "Z2 x Z12/nil")
SUMSET_EXPRS = QUOTIENT_EXPRS + ("M2(Z2 x Z2 x Z2)", "M2(Z2 x Z2)", "M2(GF(4))",
                                 "M2(Z5)", "Z4 x Z9", "Z2 x Z2 x Z2")


@pytest.mark.parametrize("expr", ACCEPTANCE_CORPUS + SUMSET_EXPRS)
def test_agreement_with_membership_oracle(expr):
    ring, cls, _ = realize(expr)
    assert math.prod(ring.radices) == ring.size
    assert bit_list(cls.wnc) == naive_wnc_members(ring)
    assert bit_list(cls.nc) == naive_nc_members(ring)


@pytest.mark.parametrize("expr", ("Z12", "GF(9)", "Z3 x Z3", "M2(Z2)",
                                  "M2(Z2 x Z2)") + QUOTIENT_EXPRS)
def test_sums_on_a_layout_make_no_add(expr):
    # every ring, a quotient included, has a layout, so NC and WNC are
    # unions of translates and no sum is the ring's own add
    ring, cls, _ = realize(expr)
    calls = []
    counted = with_add(ring, lambda a, b: calls.append((a, b)) or ring.add(a, b))
    assert wnc.weakly_nil_clean_set(counted) == cls
    assert calls == []
