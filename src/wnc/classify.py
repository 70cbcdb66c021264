"""Element classes of a finite ring: idempotents, nilpotents, and the
(weakly) nil clean sets, each a bitset over element ids.

An element x is nil clean when x = n + e and weakly nil clean when
x = n + e or x = n - e, for some nilpotent n and idempotent e. The
classification keeps the four sets, not the decompositions: no caller
reads which n and e give an element. Each -e is computed once, and every
sum is the ring's own `add`.

A ring automorphism keeps x * x = x and x^m = 0, so on a ring with
generators (`FiniteRing.generators`) `idempotents` and `nilpotents` test
one representative of each orbit and copy its answer to the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from .bitsets import bit_list, iter_bits, mask_of
from .rings import FiniteRing


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


def weakly_nil_clean_set(ring: FiniteRing) -> Classification:
    """Classify every element by enumerating Nil(R) x Idem(R): n + e is
    nil clean, and n + e and n - e are weakly nil clean. Each idempotent
    is negated once, and each nilpotent's sums are one map of `ring.add`
    over the idempotents and one over their negations."""
    idem = idempotents(ring)
    nil = nilpotents(ring)
    idems = bit_list(idem)
    negated = list(map(ring.neg, idems))
    plus, minus = set(), set()
    for n in iter_bits(nil):
        plus.update(map(ring.add, repeat(n), idems))
        minus.update(map(ring.add, repeat(n), negated))
    return Classification(size=ring.size, idem=idem, nil=nil,
                          nc=mask_of(plus), wnc=mask_of(plus | minus))
