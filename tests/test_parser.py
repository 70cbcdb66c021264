"""Ring expression surface syntax: grammar, factoring, round trips."""

import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

import wnc
from wnc import GF, MatrixRing, NilQuotient, Product, Zn
from wnc.errors import InvalidSpecError, RingExprError
from wnc.ringexpr import MAX_DIGITS
from wnc.rings import factor_prime_power


def test_grammar_examples():
    assert wnc.parse_ring_expr("Z10") == Zn(10)
    assert wnc.parse_ring_expr("GF(25)") == GF(5, 2)
    assert wnc.parse_ring_expr("M2(Z2)") == MatrixRing(2, Zn(2))
    assert wnc.parse_ring_expr("Z3 x Z3") == Product(Zn(3), Zn(3))
    assert wnc.parse_ring_expr("Z12/nil") == NilQuotient(Zn(12))


def test_gf_factors_prime_powers():
    assert wnc.parse_ring_expr("GF(2)") == GF(2, 1)
    assert wnc.parse_ring_expr("GF(49)") == GF(7, 2)
    assert wnc.parse_ring_expr("GF(27)") == GF(3, 3)
    assert wnc.parse_ring_expr("GF(1024)") == GF(2, 10)


def test_gf_rejects_non_prime_powers():
    for q in (1, 6, 12, 100):
        with pytest.raises(RingExprError):
            wnc.parse_ring_expr(f"GF({q})")


def test_case_and_whitespace_insensitive():
    assert wnc.parse_ring_expr("z10") == Zn(10)
    assert wnc.parse_ring_expr("gf( 25 )") == GF(5, 2)
    assert wnc.parse_ring_expr("  m2( z2 )") == MatrixRing(2, Zn(2))
    assert wnc.parse_ring_expr("Z12/NIL") == NilQuotient(Zn(12))
    assert wnc.parse_ring_expr("Z3xZ3") == Product(Zn(3), Zn(3))
    assert wnc.parse_ring_expr("Z3 × Z3") == Product(Zn(3), Zn(3))


def test_product_is_left_associative():
    assert wnc.parse_ring_expr("Z2 x Z3 x Z5") == \
        Product(Product(Zn(2), Zn(3)), Zn(5))
    assert wnc.parse_ring_expr("Z2 x (Z3 x Z5)") == \
        Product(Zn(2), Product(Zn(3), Zn(5)))


def test_nil_binds_tighter_than_product():
    assert wnc.parse_ring_expr("Z12/nil x Z2") == \
        Product(NilQuotient(Zn(12)), Zn(2))
    assert wnc.parse_ring_expr("(Z4 x Z9)/nil") == \
        NilQuotient(Product(Zn(4), Zn(9)))
    assert wnc.parse_ring_expr("Z8/nil/nil") == \
        NilQuotient(NilQuotient(Zn(8)))


ROUND_TRIP_SPECS = [
    Zn(10), GF(5, 2), GF(2, 1), MatrixRing(2, Zn(2)),
    Product(Zn(3), Zn(3)), Product(Product(Zn(2), Zn(3)), Zn(5)),
    Product(Zn(2), Product(Zn(3), Zn(5))),
    NilQuotient(Zn(12)), NilQuotient(Product(Zn(4), Zn(9))),
    Product(NilQuotient(Zn(12)), Zn(2)),
    MatrixRing(2, Product(Zn(2), Zn(3))),
    NilQuotient(NilQuotient(Zn(8))),
]


@pytest.mark.parametrize("spec", ROUND_TRIP_SPECS, ids=map(wnc.format_spec, ROUND_TRIP_SPECS))
def test_round_trip(spec):
    assert wnc.parse_ring_expr(wnc.format_spec(spec)) == spec


# every character str.isspace takes; U+3000, the ideographic space, is the last
SPACES = [c for c in map(chr, range(0x3001)) if c.isspace()]
GF_SPECS = [GF(*pk) for pk in map(factor_prime_power, range(2, wnc.SIZE_CAP + 1)) if pk]


def _specs(levels):
    leaf = st.one_of(st.builds(Zn, st.integers(0, 10**30)), st.sampled_from(GF_SPECS))
    if levels == 1:
        return leaf
    inner = _specs(levels - 1)
    return st.one_of(leaf, st.builds(Product, inner, inner),
                     st.builds(MatrixRing, st.integers(0, 10**6), inner),
                     st.builds(NilQuotient, inner))


@settings(max_examples=300, deadline=None)
@given(spec=_specs(4), data=st.data())
def test_round_trip_in_any_case_and_whitespace(spec, data):
    # each letter in either case, 'x', 'X' or '×', and any run of any of
    # the whitespace characters between tokens
    spaces = st.text(st.sampled_from(SPACES), max_size=3)
    text = data.draw(spaces)
    for token in re.findall(r"\d+|GF|/nil|[ZMx()]", wnc.format_spec(spec)):
        if token == "x":
            token = data.draw(st.sampled_from("xX×"))
        else:
            token = "".join(data.draw(st.sampled_from(c.lower() + c.upper()))
                            for c in token)
        text += token + data.draw(spaces)
    assert wnc.parse_ring_expr(text) == spec


def test_integer_literals_are_bounded_in_digits():
    longest = "9" * MAX_DIGITS
    assert wnc.parse_ring_expr(f"M{longest}(Z{longest})") == \
        MatrixRing(int(longest), Zn(int(longest)))
    with pytest.raises(RingExprError, match=r"^integer longer than 100 digits "
                                            r"\(at position 5\)$"):
        wnc.parse_ring_expr("Z2 x 1" + longest)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str limit before Python 3.10.7")
def test_longest_literals_print_under_the_lowest_int_str_limit():
    longest = "9" * MAX_DIGITS
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(InvalidSpecError, match=f"^M_{longest} over a size-2 ring"):
            wnc.build_ring(wnc.parse_ring_expr(f"M{longest}(Z2)"))
        with pytest.raises(InvalidSpecError, match=f"^Z_{longest} exceeds"):
            wnc.build_ring(wnc.parse_ring_expr(f"Z{longest}"))
    finally:
        sys.set_int_max_str_digits(limit)


def test_syntax_errors_carry_positions():
    with pytest.raises(RingExprError) as err:
        wnc.parse_ring_expr("Z10 )")
    assert err.value.position == 4
    with pytest.raises(RingExprError) as err:
        wnc.parse_ring_expr("Q5")
    assert err.value.position == 0
    with pytest.raises(RingExprError):
        wnc.parse_ring_expr("Z")  # missing modulus
    with pytest.raises(RingExprError):
        wnc.parse_ring_expr("M2(Z2")  # unclosed paren
    with pytest.raises(RingExprError):
        wnc.parse_ring_expr("")
    with pytest.raises(RingExprError):
        wnc.parse_ring_expr("Z12/nll")
    with pytest.raises(RingExprError):
        wnc.parse_ring_expr("x Z3")
