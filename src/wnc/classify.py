"""Element classes of a finite ring: idempotents, nilpotents, and the
(weakly) nil clean sets with explicit decomposition witnesses.

An element x is nil clean when x = n + e and weakly nil clean when
x = n + e or x = n - e, for some nilpotent n and idempotent e. Witnesses
record every decomposition found, both signs; the sign doubles as the
"type" of the decomposition (+1 = type 1, -1 = type 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .bitsets import iter_bits
from .rings import FiniteRing


class Decomposition(NamedTuple):
    nilpotent: int
    idempotent: int
    sign: int  # +1 witnesses x = n + e, -1 witnesses x = n - e


@dataclass(frozen=True)
class Classification:
    """Bitsets over element ids plus all decomposition witnesses."""

    size: int
    idem: int
    nil: int
    nc: int
    wnc: int
    witnesses: dict[int, tuple[Decomposition, ...]]
    types: dict[int, frozenset[int]]  # subset of {1, 2} per weakly nil clean element


def idempotents(ring: FiniteRing) -> int:
    """Bitset of elements with x*x = x; always contains zero and one."""
    mask = 0
    for x in range(ring.size):
        if ring.mul(x, x) == x:
            mask |= 1 << x
    return mask


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
    mask = 0
    for x in range(ring.size):
        y = x
        for _ in range(squarings):
            if y == zero:
                break
            y = ring.mul(y, y)
        if y == zero:
            mask |= 1 << x
    return mask


def weakly_nil_clean_set(ring: FiniteRing) -> Classification:
    """Classify every element by enumerating Nil(R) x Idem(R) sums.

    Marks n + e as nil clean (sign +1) and n - e as weakly nil clean
    (sign -1), recording every witness. Note e = 0 yields both signs for
    the pure nilpotents, so their type set is {1, 2}.
    """
    idem = idempotents(ring)
    nil = nilpotents(ring)
    nc = 0
    wnc = 0
    witnesses: dict[int, list[Decomposition]] = {}
    for n in iter_bits(nil):
        for e in iter_bits(idem):
            plus = ring.add(n, e)
            nc |= 1 << plus
            wnc |= 1 << plus
            witnesses.setdefault(plus, []).append(Decomposition(n, e, +1))
            minus = ring.sub(n, e)
            wnc |= 1 << minus
            witnesses.setdefault(minus, []).append(Decomposition(n, e, -1))
    frozen = {x: tuple(sorted(ws)) for x, ws in witnesses.items()}
    types = {x: frozenset(1 if w.sign > 0 else 2 for w in ws)
             for x, ws in frozen.items()}
    return Classification(size=ring.size, idem=idem, nil=nil, nc=nc, wnc=wnc,
                          witnesses=frozen, types=types)


def is_weakly_nil_clean_ring(ring: FiniteRing) -> bool:
    """True iff every element of the ring is weakly nil clean."""
    full = (1 << ring.size) - 1
    return weakly_nil_clean_set(ring).wnc == full


def is_nil_clean_ring(ring: FiniteRing) -> bool:
    """True iff every element of the ring is nil clean."""
    full = (1 << ring.size) - 1
    return weakly_nil_clean_set(ring).nc == full
