"""Surface syntax for ring specs.

Grammar (case-insensitive keywords, whitespace ignored):

    expr := term (('x' | '×') term)*          products, left-associative
    term := atom ('/nil')*
    atom := 'Z' INT | 'GF(' INT ')' | 'M' INT '(' expr ')' | '(' expr ')'

One pattern, `_TOKEN`, scans the text: after any whitespace, an INT (decimal
digits of any script, at most MAX_DIGITS of them), 'GF', 'Z', 'M', 'x' or
'×', '(', ')' or '/nil', letters in either case. Anything else is refused
at its position.

GF takes the field order as a composite integer ("GF(25)" means p=5, k=2);
orders above `rings.SIZE_CAP` are refused before they are factored, and
orders that are not prime powers while parsing. Other size-cap and
commutativity checks happen at construction time, not here.

The parser, `build_ring` and `format_spec` recurse at most once per '(',
'Mk(', '/nil' and 'x', so an expression with more than MAX_DEPTH of them
is refused; 13 product factors already exceed the size cap.
"""

from __future__ import annotations

import re

from .errors import InvalidSpecError, RingExprError
from .rings import GF, SIZE_CAP, MatrixRing, NilQuotient, Product, \
    RingSpec, Zn, factor_prime_power, format_spec

__all__ = ["parse_ring_expr", "format_spec"]

MAX_DEPTH = 100
# int() and the messages printing a literal or Mk's k^2 cells stay under
# the int-to-str limit (640 digits at least); GF(10^27+7) has 28 digits
MAX_DIGITS = 100

# \s and \d are str.isspace and str.isdecimal (int() refuses superscripts)
_TOKEN = re.compile(
    r"\s*(?:(?P<INT>\d+)|(?P<GF>[Gg][Ff])|(?P<Z>[Zz])|(?P<M>[Mm])|(?P<X>[Xx×])"
    r"|(?P<LPAREN>\()|(?P<RPAREN>\))|(?P<NIL>/[Nn][Ii][Ll]))?")


def _tokenize(text: str):
    tokens = []
    i = 0
    while True:
        match = _TOKEN.match(text, i)
        kind, i = match.lastgroup, match.end()
        if kind is None:
            break
        start = match.start(kind)
        if kind == "INT" and i - start > MAX_DIGITS:
            raise RingExprError(f"integer longer than {MAX_DIGITS} digits", start)
        tokens.append((kind, int(match[kind]) if kind == "INT" else None, start))
    if i < len(text):
        ch = text[i]
        raise RingExprError(
            "expected '/nil'" if ch == "/" else f"unexpected character {ch!r}", i)
    tokens.append(("EOF", None, i))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.idx = 0
        self.levels = 0

    def open_level(self, tok):
        self.levels += 1
        if self.levels > MAX_DEPTH:
            raise RingExprError(
                f"expression nests more than {MAX_DEPTH} levels", tok[2])

    def peek(self):
        return self.tokens[self.idx]

    def take(self, kind: str):
        tok = self.tokens[self.idx]
        if tok[0] != kind:
            raise RingExprError(f"expected {kind}, found {tok[0]}", tok[2])
        self.idx += 1
        return tok

    def parse(self) -> RingSpec:
        spec = self.expr()
        tok = self.peek()
        if tok[0] != "EOF":
            raise RingExprError("trailing input after ring expression", tok[2])
        return spec

    def expr(self) -> RingSpec:
        left = self.term()
        while self.peek()[0] == "X":
            self.open_level(self.take("X"))
            left = Product(left, self.term())
        return left

    def term(self) -> RingSpec:
        spec = self.atom()
        while self.peek()[0] == "NIL":
            self.open_level(self.take("NIL"))
            spec = NilQuotient(spec)
        return spec

    def atom(self) -> RingSpec:
        tok = self.peek()
        if tok[0] == "Z":
            self.take("Z")
            n = self.take("INT")[1]
            return Zn(n)
        if tok[0] == "GF":
            self.take("GF")
            self.take("LPAREN")
            q_tok = self.take("INT")
            self.take("RPAREN")
            if q_tok[1] > SIZE_CAP:
                raise InvalidSpecError(
                    f"GF({q_tok[1]}) exceeds the size cap {SIZE_CAP}")
            pk = factor_prime_power(q_tok[1])
            if pk is None:
                raise RingExprError(f"GF({q_tok[1]}): not a prime power", q_tok[2])
            return GF(*pk)
        if tok[0] == "M":
            self.open_level(self.take("M"))
            k = self.take("INT")[1]
            self.take("LPAREN")
            inner = self.expr()
            self.take("RPAREN")
            return MatrixRing(k, inner)
        if tok[0] == "LPAREN":
            self.open_level(self.take("LPAREN"))
            inner = self.expr()
            self.take("RPAREN")
            return inner
        raise RingExprError(f"expected a ring term, found {tok[0]}", tok[2])


def parse_ring_expr(text: str) -> RingSpec:
    """Parse surface syntax like "Z10", "GF(25)", "M2(Z2)", "Z3 x Z3",
    "Z12/nil" into a ring spec; a field order above SIZE_CAP is refused."""
    return _Parser(text).parse()
