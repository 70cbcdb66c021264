"""Element classes of a finite ring: idempotents, nilpotents, and the
(weakly) nil clean sets, each a bitset over element ids.

An element x is nil clean when x = n + e and weakly nil clean when
x = n + e or x = n - e, for some nilpotent n and idempotent e. The
classification keeps the four sets, not the decompositions: no caller
reads which n and e give an element. Each -e is computed once, and the
sums are translates (`rings.translate`), or `add` without a layout.

A ring automorphism keeps x * x = x and x^m = 0, so on a ring with
generators (`FiniteRing.generators`) `idempotents` and `nilpotents` test
one representative of each orbit and copy its answer to the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product, starmap
from operator import or_

from .bitsets import iter_bits, mask_of
from .rings import FiniteRing, translate


@dataclass(frozen=True)
class Classification:
    """Idem(R), Nil(R), NC(R) and WNC(R) as bitsets over element ids."""

    size: int
    idem: int
    nil: int
    nc: int
    wnc: int


def _members(ring: FiniteRing, passing) -> int:
    """Bitset of the elements that `passing` yields of those it is given,
    for a property every ring automorphism keeps: with generators, it is
    given one representative per orbit, and the orbit shares its answer."""
    if not ring.generators:
        return mask_of(passing(range(ring.size)))
    orbits = {orbit[0]: orbit for orbit in ring.orbits}
    return mask_of(x for r in passing(orbits) for x in orbits[r])


def idempotents(ring: FiniteRing) -> int:
    """Bitset of elements with x*x = x; always contains zero and one."""
    return _members(ring, lambda xs: (x for x in xs if ring.mul(x, x) == x))


def nilpotents(ring: FiniteRing) -> int:
    """Bitset of elements with x^m = 0 for some m >= 1.

    A nilpotent x of index m gives a chain of left ideals
    R > Rx > ... > Rx^m = 0 that shrinks strictly at each step: were
    Rx^i = Rx^(i+1), then x^i = r x^(i+1) = r^j x^(i+j) = 0 for large j.
    Each ideal is a subgroup of the one before, so at most half its size,
    and m <= floor(log2 |R|). Hence x is nilpotent iff x^(2^c) = 0 with
    c = ceil(log2 floor(log2 |R|)), and c squarings compute that power:
    4 multiplications per element at |R| = 4096. Powers of one element
    commute, so this holds in noncommutative rings too.
    """
    zero = ring.zero
    squarings = (ring.size.bit_length() - 2).bit_length()

    def passing(xs):
        for x in xs:
            y = x
            for _ in range(squarings):
                if y == zero:
                    break
                y = ring.mul(y, y)
            if y == zero:
                yield x

    return _members(ring, passing)


def _sumset(ring: FiniteRing, a: int, b: int) -> int:
    """{x + y : x in a, y in b}: the larger set translated by each member
    of the smaller, or one `add` per pair on a ring without a layout."""
    if ring.radices is None:
        return mask_of(starmap(ring.add, product(iter_bits(a), iter_bits(b))))
    small, large = sorted((a, b), key=int.bit_count)
    return reduce(or_, (translate(ring, large, s) for s in iter_bits(small)))


def weakly_nil_clean_set(ring: FiniteRing) -> Classification:
    """Classify every element by the sumsets of Nil(R) and Idem(R):
    NC = Nil + Idem and WNC = NC | (Nil + (-Idem)). Each idempotent is
    negated once, and each sumset is min(|Nil|, |Idem|) translates on a
    ring with a layout (`_sumset`)."""
    idem = idempotents(ring)
    nil = nilpotents(ring)
    nc = _sumset(ring, nil, idem)
    minus = mask_of(map(ring.neg, iter_bits(idem)))
    return Classification(size=ring.size, idem=idem, nil=nil, nc=nc,
                          wnc=nc | _sumset(ring, nil, minus))
