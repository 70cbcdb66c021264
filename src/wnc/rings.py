"""Finite ring constructors over a dense integer carrier.

Every ring is presented uniformly: a carrier {0, ..., size-1} with total
add/mul/neg operations, zero 0, a distinguished one, a display name per
element, and the spec it was built from. Operations are computed on the
fly from the ring's structure; no ring materializes n^2 operation tables.
Construction is deterministic: the same spec always yields identical
operations and names.

Supported constructions: Z_n, GF(p^k) via the least monic irreducible
polynomial, direct products, k x k matrix rings over a commutative base,
and quotients by the nilradical. GF(p^k) for k >= 2 computes through
exp/log tables of O(p^k) entries, one lookup per operation.

`add` never reads the digit layout below, so the addition rows of the
digits' units check `translate` independently (`graph.certify_rows`).

Every construction but the quotient encodes (R,+) in its element ids as
a direct sum of cyclic groups: the id is a mixed-radix number whose
digits add independently, each modulo its radix, with no carry.
`FiniteRing.radices` records those radices, least significant first:
(n,) for Z_n, (p,) * k for GF(p^k), B's radices then A's for A x B, and
the base's radices once per cell for a matrix ring. With the layout,
`translate` moves a whole bitset of elements by g with a few shifts and
masks per digit instead of one `add` per element.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from collections.abc import Callable
from functools import cached_property

from .bitsets import iter_bits
from .errors import InvalidSpecError, UnsupportedOperationError

# every constructor refuses a carrier of more elements
SIZE_CAP = 4096


# ---------------------------------------------------------------------------
# Ring specs (abstract syntax describing how a ring is constructed): named
# tuples, so read-only, and equal and hashed alike by their fields. Specs of
# two kinds never compare equal, since their fields differ in type.

Zn = namedtuple("Zn", "n")
GF = namedtuple("GF", "p k")
Product = namedtuple("Product", "left right")
MatrixRing = namedtuple("MatrixRing", "k inner")
NilQuotient = namedtuple("NilQuotient", "inner")
RingSpec = Zn | GF | Product | MatrixRing | NilQuotient


def format_spec(spec: RingSpec) -> str:
    """Canonical surface form of a spec ("Z10", "GF(25)", "M2(Z2)", ...).

    Products are printed left-associatively; parentheses appear only where
    the grammar needs them.
    """
    if isinstance(spec, Zn):
        return f"Z{spec.n}"
    if isinstance(spec, GF):
        return f"GF({spec.p ** spec.k})"
    if isinstance(spec, Product):
        left = format_spec(spec.left)
        right = format_spec(spec.right)
        if isinstance(spec.right, Product):  # grammar is left-associative
            right = f"({right})"
        return f"{left} x {right}"
    if isinstance(spec, MatrixRing):
        return f"M{spec.k}({format_spec(spec.inner)})"
    if isinstance(spec, NilQuotient):
        inner = format_spec(spec.inner)
        if isinstance(spec.inner, Product):
            inner = f"({inner})"
        return f"{inner}/nil"
    raise TypeError(f"not a ring spec: {spec!r}")


# ---------------------------------------------------------------------------
# The carrier-plus-operations interface


class FiniteRing:
    """A finite ring with carrier {0, ..., size-1}, zero 0 and a nonzero
    identity.

    Immutable after construction: `add`, `mul` and `neg` are total pure
    functions on the carrier, safe for any number of concurrent readers.
    `size` is the number of names, one per element; every constructor
    numbers its zero 0, so `zero` is that constant. `doubles` is the list
    of x + x over every x, computed once on first use.
    `factor_sizes` is (|A|, |B|) for a direct product A x B, whose element
    a * |B| + b is the pair (a, b), and None for every other ring.
    `radices` is the additive layout of the ids (module docstring), or None
    when the ids have none, as in a quotient. `generators` lists ring
    automorphisms as permutations of the ids, computed on first read by the
    function given: conjugation by I + E_ij (i != j) and by
    diag(u, 1, ..., 1), u != 1 a unit, in M_k(B), k >= 2, and each
    factor's own in A x B. Other rings list none. `orbits` are theirs.
    """

    zero = 0

    def __init__(self, one: int, add: Callable[[int, int], int],
                 mul: Callable[[int, int], int], neg: Callable[[int], int],
                 names, is_commutative: bool, spec: RingSpec, radices=None,
                 factor_sizes=None, generators=None):
        self._names = tuple(names)
        self.size = len(self._names)
        self.one = one
        self.is_commutative = is_commutative
        self.spec = spec
        self.factor_sizes = factor_sizes
        self.radices = radices
        self.add = add
        self.mul = mul
        self.neg = neg
        self._generate = generators

    @cached_property
    def doubles(self) -> list[int]:
        return [self.add(x, x) for x in range(self.size)]

    @cached_property
    def generators(self) -> list[list[int]]:
        return self._generate() if self._generate else []

    @cached_property
    def orbits(self) -> list[list[int]]:
        return orbits(self.size, self.generators)

    @cached_property
    def _wrap_masks(self):
        """Per digit of the layout, the list whose entry t is the bitset of
        the elements that wrap when that digit moves by t (digit at least
        radix - t); None for the top digit, which needs none."""
        full = (1 << self.size) - 1
        out = []
        place = 1
        for radix in self.radices[:-1]:
            block = radix * place
            # digit == 0: the low `place` bits of every block
            zero_digit = ((1 << place) - 1) * (full // ((1 << block) - 1))
            wraps = [0]
            for t in range(1, radix):
                wraps.append(wraps[-1] | zero_digit << (radix - t) * place)
            out.append(wraps)
            place = block
        return out + [None]

    def name(self, a: int) -> str:
        return self._names[a]

    def names(self) -> tuple[str, ...]:
        return self._names

    def __repr__(self):
        return f"FiniteRing({format_spec(self.spec)}, size={self.size})"


def translate(ring: FiniteRing, mask: int, g: int) -> int:
    """The bitset {m + g : m in mask}.

    With a layout, g adds its digits one at a time. Adding t to digit i,
    whose place value is P, rotates each block of elements that agree on
    the higher digits: those whose digit i is below radix - t move up by
    t * P bits, the others wrap down by (radix - t) * P bits. The top
    digit's block is the whole carrier, so its move is a plain rotation;
    the other digits read their wrap masks from the ring, which computes
    them once. The ring must have a layout (`FiniteRing.radices`).
    """
    place = 1
    for radix, wraps in zip(ring.radices, ring._wrap_masks):
        g, t = divmod(g, radix)
        if t:
            up, down = t * place, (radix - t) * place
            if wraps is None:
                mask = ((mask << up) & ((1 << ring.size) - 1)) | (mask >> down)
            else:
                over = mask & wraps[t]
                mask = ((mask ^ over) << up) | (over >> down)
        place *= radix
    return mask


def orbits(size: int, perms) -> list[list[int]]:
    """The orbits of the group that the permutations of range(size)
    generate, each led by its least member, in that member's order."""
    seen, out = bytearray(size), []
    for x in range(size):
        if not seen[x]:
            seen[x], orbit = 1, [x]
            for y in orbit:  # grows as the generators reach new members
                for z in [perm[y] for perm in perms]:
                    if not seen[z]:
                        seen[z] = 1
                        orbit.append(z)
            out.append(orbit)
    return out


# ---------------------------------------------------------------------------
# Z_n


def make_zn(n: int) -> FiniteRing:
    """The ring of integers modulo n, with decimal element names."""
    if n < 2:
        raise InvalidSpecError(f"Z_n: n must be >= 2, got {n}")
    if n > SIZE_CAP:
        raise InvalidSpecError(f"Z_{n} exceeds the size cap {SIZE_CAP}")
    return _integers_mod(n, Zn(n))


def _integers_mod(n: int, spec: RingSpec) -> FiniteRing:
    """Z_n's arithmetic and decimal names, under the given spec."""
    return FiniteRing(
        one=1,
        add=lambda a, b: (a + b) % n,
        mul=lambda a, b: (a * b) % n,
        neg=lambda a: (-a) % n,
        names=[str(a) for a in range(n)],
        is_commutative=True,
        spec=spec,
        radices=(n,),
    )


# ---------------------------------------------------------------------------
# GF(p^k): polynomial arithmetic over Z_p and the least irreducible modulus


def factor_prime_power(q: int):
    """Return (p, k) with q = p^k, or None when q is not a prime power."""
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            return (p, k) if m == 1 else None
        p += 1
    return (q, 1)  # q itself prime


def is_prime(n: int) -> bool:
    return factor_prime_power(n) == (n, 1)


def _digit_table(base: int, count: int) -> list[list[int]]:
    """The `count` base-`base` digits of every id below base ** count,
    least significant first."""
    return [[*reversed(d)] for d in itertools.product(range(base), repeat=count)]


def _poly_str(coeffs) -> str:
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append("a" if c == 1 else f"{c}a")
        else:
            terms.append(f"a^{i}" if c == 1 else f"{c}a^{i}")
    return "+".join(terms) if terms else "0"


def _poly_rem(num, den, p):
    """Remainder of num modulo the monic polynomial den, over Z_p."""
    num = list(num)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        num[i] = 0
        for j in range(dd):
            num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
    return num[:dd] if dd > 0 else []


def _is_irreducible(coeffs, p) -> bool:
    # trial division by every monic polynomial of degree up to deg/2;
    # degree-1 divisors cover the root test
    k = len(coeffs) - 1
    for d in range(1, k // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            div = (*tail, 1)
            if not any(_poly_rem(coeffs, div, p)):
                return False
    return True


def find_least_irreducible(p: int, k: int) -> tuple[int, ...]:
    """The coefficients of the least monic irreducible polynomial of degree
    k over Z_p, constant term first.

    Candidates are ordered by coefficient vector, constant term most
    significant; the first irreducible one wins, so the choice is
    deterministic and dependency-free.
    """
    if not is_prime(p):
        raise InvalidSpecError(f"{p} is not prime")
    if k < 2:
        raise InvalidSpecError("irreducible search needs degree k >= 2")
    for tail in itertools.product(range(p), repeat=k):
        coeffs = (*tail, 1)
        if _is_irreducible(coeffs, p):
            return coeffs
    raise AssertionError("no irreducible found; impossible over a prime field")


def make_gf(p: int, k: int) -> FiniteRing:
    """The finite field GF(p^k).

    For k = 1 this is Z_p (decimal names); otherwise the carrier is the
    polynomials of degree < k over Z_p reduced modulo the least monic
    irreducible of degree k, named in the generator symbol "a" ("2a+3").
    Element i has base-p digits of i as coefficients, constant term least
    significant. Arithmetic runs on exp/log tables of the least primitive
    element g (Lidl-Niederreiter, Finite Fields, section 9): mul and neg add
    logarithms, and add uses the Zech logarithms log(1 + g^m).
    """
    if k < 1:
        raise InvalidSpecError("GF needs k >= 1")
    # the cap comes before the primality test; a long exponent stays unraised
    size = p ** k if k <= 64 else None
    if p >= 2 and (size is None or size > SIZE_CAP):
        raise InvalidSpecError(
            f"GF({size or f'{p}^{k}'}) exceeds the size cap {SIZE_CAP}")
    if not is_prime(p):
        raise InvalidSpecError(f"GF base {p} is not prime")
    if k == 1:
        return _integers_mod(p, GF(p, 1))

    low = find_least_irreducible(p, k)[:k]  # x^k = -(low) modulo the modulus
    place = [p ** i for i in range(k)]
    order = size - 1  # of the multiplicative group, which is cyclic
    digits = _digit_table(p, k)  # digits[e][i] = coefficient of x^i

    def times(a, b):
        # product of two digit vectors: sum of a_i * (b * x^i), reduced
        acc = [0] * k
        for c in a:
            if c:
                acc = [(s + c * t) % p for s, t in zip(acc, b)]
            top = b[-1]
            b = [0] + b[:-1]
            if top:
                b = [(t - top * m) % p for t, m in zip(b, low)]
        return acc

    # exp[i] = g^i for the least primitive element g: the first candidate
    # whose powers run through all `order` nonzero elements before 1 recurs
    one = digits[1]
    for g in range(2, size):
        generator = digits[g]
        exp = []
        power = one
        while True:
            exp.append(sum(d * v for d, v in zip(power, place)))
            power = times(generator, power)
            if power == one:
                break
        if len(exp) == order:
            break
    log = [0] * size
    for i, e in enumerate(exp):
        log[e] = i
    # zero's log lies beyond every sum of two true logs, and exp reads 0
    # there, so mul and neg need no zero test
    log[0] = 2 * order
    exp = exp * 2 + [0] * (2 * order + 1)
    minus_one = log[p - 1]

    def plus_one(e):
        return e - (p - 1) if e % p == p - 1 else e + 1  # the constant digit

    # Zech logarithms: zech[m] = log(1 + g^m), which is log[0] when
    # g^m = -1, so that the sum below reads 0
    zech = [log[plus_one(e)] for e in exp[:order]]

    def add(a, b):
        # g^i + g^j = g^i * (1 + g^(j-i)); a negative j - i indexes zech
        # from its end, which is j - i modulo the order
        if a == 0:
            return b
        if b == 0:
            return a
        la = log[a]
        return exp[la + zech[log[b] - la]]

    def mul(a, b):
        return exp[log[a] + log[b]]

    def neg(a):
        return exp[log[a] + minus_one]

    names = [_poly_str(d) for d in digits]
    # the coefficients add digit by digit, so the layout is k digits of p
    return FiniteRing(one=1, add=add, mul=mul, neg=neg, names=names,
                      is_commutative=True, spec=GF(p, k), radices=(p,) * k)


# ---------------------------------------------------------------------------
# Direct products


def make_product(left: FiniteRing, right: FiniteRing) -> FiniteRing:
    """Direct product with componentwise operations; names "(a;b)"."""
    size = left.size * right.size
    if size > SIZE_CAP:
        raise InvalidSpecError(
            f"product of sizes {left.size} x {right.size} exceeds the size cap {SIZE_CAP}")
    rs = right.size

    def add(a, b):
        a1, a2 = divmod(a, rs)
        b1, b2 = divmod(b, rs)
        return left.add(a1, b1) * rs + right.add(a2, b2)

    def mul(a, b):
        a1, a2 = divmod(a, rs)
        b1, b2 = divmod(b, rs)
        return left.mul(a1, b1) * rs + right.mul(a2, b2)

    def neg(a):
        a1, a2 = divmod(a, rs)
        return left.neg(a1) * rs + right.neg(a2)

    names = [f"({left.name(a1)};{right.name(a2)})"
             for a1 in range(left.size) for a2 in range(right.size)]
    # b is the low part of a * |B| + b, so B's digits come first
    radices = None
    if left.radices is not None and right.radices is not None:
        radices = right.radices + left.radices

    def generators():  # each factor's, acting on its own coordinate
        return ([[a * rs + b for a in g for b in range(rs)]
                 for g in left.generators]
                + [[a * rs + b for a in range(left.size) for b in g]
                   for g in right.generators])

    return FiniteRing(
        one=left.one * rs + right.one, add=add, mul=mul, neg=neg, names=names,
        is_commutative=left.is_commutative and right.is_commutative,
        spec=Product(left.spec, right.spec), radices=radices,
        factor_sizes=(left.size, rs), generators=generators,
    )


# ---------------------------------------------------------------------------
# Matrix rings


def make_matrix_ring(k: int, base: FiniteRing) -> FiniteRing:
    """The ring of k x k matrices over a commutative base ring.

    Matrices are encoded as base-|R| digit strings of their row-major
    entries; names are nested bracket lists like "[[1;0];[0;1]]".
    """
    if k < 1:
        raise InvalidSpecError("matrix ring needs k >= 1")
    if not base.is_commutative:
        raise InvalidSpecError("matrix rings are built over commutative bases only")
    bs = base.size
    cells = k * k
    # the rule of make_gf: bs >= 2, so 65 cells never fit under the cap
    size = bs ** cells if cells <= 64 else None
    if size is None or size > SIZE_CAP:
        raise InvalidSpecError(f"M_{k} over a size-{bs} ring has "
                               f"{size or f'{bs}^{cells}'} elements, over cap {SIZE_CAP}")

    # each element's row-major entries: entries[e][i*k + j] is row i,
    # column j of matrix e
    entries = _digit_table(bs, cells)

    # the place value of each cell: an element is the sum of its cells'
    # entries times their places
    places = [bs ** i for i in range(cells)]

    def encode(digits):
        return sum(map(operator.mul, digits, places))

    def add(a, b):
        return encode(map(base.add, entries[a], entries[b]))

    def neg(a):
        return encode(map(base.neg, entries[a]))

    def mul(a, b):
        da, db = entries[a], entries[b]
        out = []
        for i in range(k):
            for j in range(k):
                acc = base.zero
                for t in range(k):
                    acc = base.add(acc, base.mul(da[i * k + t], db[t * k + j]))
                out.append(acc)
        return encode(out)

    one = encode([base.one if i == j else base.zero
                  for i in range(k) for j in range(k)])

    def generators():
        # X -> P X P^-1 by steps on every id's cells at once: cell d becomes
        # f(cell d, cell s), read from a table of f on the base's at most
        # 8 elements; the id is then re-encoded, most significant cell first
        ids, columns, perms = range(bs), [*zip(*entries)], []

        def minus(a, b):
            return base.add(a, base.neg(b))

        def times(w):
            return lambda a, _: base.mul(w, a)

        # I + E_ij: row i += row j, then column j -= column i
        gens = [[(i * k + t, j * k + t, base.add) for t in range(k)]
                + [(t * k + j, t * k + i, minus) for t in range(k)]
                for i, j in itertools.permutations(range(k), 2)]
        # diag(u, 1, ..., 1): row 0 times u, then column 0 times v = 1/u
        gens += [[(t, t, times(u)) for t in range(1, k)]
                 + [(t * k, t * k, times(v)) for t in range(1, k)]
                 for u in ids for v in ids if base.mul(u, v) == base.one != u]
        for steps in gens:
            cells = columns[:]
            for d, src, f in steps:
                table = [f(a, b) for a in ids for b in ids]
                cells[d] = list(map(table.__getitem__, map(
                    operator.add, map(bs.__mul__, cells[d]), cells[src])))
            perm = cells[-1]
            for column in reversed(cells[:-1]):
                perm = list(map(operator.add, map(bs.__mul__, perm), column))
            perms.append(perm)
        return perms

    def matrix_name(e):
        rows = []
        for i in range(k):
            rows.append("[" + ";".join(base.name(entries[e][i * k + j])
                                       for j in range(k)) + "]")
        return "[" + ";".join(rows) + "]"

    return FiniteRing(
        one=one, add=add, mul=mul, neg=neg,
        names=[matrix_name(e) for e in range(size)],
        is_commutative=(k == 1 and base.is_commutative),
        spec=MatrixRing(k, base.spec),
        # entries add cell by cell, each with the base's digits
        radices=None if base.radices is None else base.radices * cells,
        generators=generators if k > 1 else None,
    )


# ---------------------------------------------------------------------------
# Nilradical quotient


def nilradical_quotient(ring: FiniteRing, nil: int | None = None):
    """Quotient R/Nil(R) for commutative R.

    Returns (quotient ring, projection) where projection[x] is the quotient
    element id of x's coset; the quotient's operations read it, so it must
    not change. Coset representatives are the least element id in each
    coset, in ascending order, so zero's coset is the quotient's zero, 0.
    `nil` is the bitset of R's nilpotents when the caller has already
    computed it; by default it is computed here.
    """
    if not ring.is_commutative:
        raise UnsupportedOperationError(
            "nilradical quotient needs a commutative ring (Nil(R) must be an ideal)")
    if nil is None:
        from .classify import nilpotents  # deferred: classify imports this module
        nil = nilpotents(ring)
    projection = [-1] * ring.size
    reps = []
    for x in range(ring.size):
        if projection[x] < 0:
            # x is the least member of its coset: smaller ones were seen first
            for v in iter_bits(nil):
                projection[ring.add(x, v)] = len(reps)
            reps.append(x)

    def q_add(i, j):
        return projection[ring.add(reps[i], reps[j])]

    def q_mul(i, j):
        return projection[ring.mul(reps[i], reps[j])]

    def q_neg(i):
        return projection[ring.neg(reps[i])]

    quotient = FiniteRing(
        one=projection[ring.one], add=q_add, mul=q_mul, neg=q_neg,
        names=[ring.name(r) for r in reps],
        is_commutative=True,
        spec=NilQuotient(ring.spec),
    )
    return quotient, projection


# ---------------------------------------------------------------------------
# Spec realization


def build_ring(spec: RingSpec) -> FiniteRing:
    """Realize a ring spec, enforcing SIZE_CAP at every level."""
    if isinstance(spec, Zn):
        return make_zn(spec.n)
    if isinstance(spec, GF):
        return make_gf(spec.p, spec.k)
    if isinstance(spec, Product):
        return make_product(build_ring(spec.left), build_ring(spec.right))
    if isinstance(spec, MatrixRing):
        return make_matrix_ring(spec.k, build_ring(spec.inner))
    if isinstance(spec, NilQuotient):
        inner = build_ring(spec.inner)
        if not inner.is_commutative:
            raise InvalidSpecError("/nil requires a commutative ring")
        quotient, _ = nilradical_quotient(inner)
        return quotient
    raise TypeError(f"not a ring spec: {spec!r}")
