"""Surface syntax for ring specs.

Grammar (case-insensitive keywords, whitespace ignored):

    expr := term (('x' | '×') term)*          products, left-associative
    term := atom ('/nil')*
    atom := 'Z' INT | 'GF(' INT ')' | 'M' INT '(' expr ')' | '(' expr ')'

GF takes the field order as a composite integer ("GF(25)" means p=5, k=2);
orders above `rings.SIZE_CAP` are refused before they are factored, and
orders that are not prime powers while parsing. Other size-cap and
commutativity checks happen at construction time, not here.

The parser, `build_ring` and `format_spec` recurse at most once per '(',
'Mk(', '/nil' and 'x', so an expression with more than MAX_DEPTH of them
is refused; 13 product factors already exceed the size cap.
"""

from __future__ import annotations

from .errors import InvalidSpecError, RingExprError
from .rings import GF, SIZE_CAP, MatrixRing, NilQuotient, Product, \
    RingSpec, Zn, factor_prime_power, format_spec

__all__ = ["parse_ring_expr", "format_spec"]

MAX_DEPTH = 100


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():  # isdigit also takes superscripts, which int() refuses
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("INT", int(text[i:j]), i))
            i = j
            continue
        low2 = text[i:i + 2].lower()
        if low2 == "gf":
            tokens.append(("GF", None, i))
            i += 2
            continue
        cl = ch.lower()
        if cl == "z":
            tokens.append(("Z", None, i))
        elif cl == "m":
            tokens.append(("M", None, i))
        elif cl == "x" or ch == "×":
            tokens.append(("X", None, i))
        elif ch == "(":
            tokens.append(("LPAREN", None, i))
        elif ch == ")":
            tokens.append(("RPAREN", None, i))
        elif ch == "/":
            if text[i + 1:i + 4].lower() != "nil":
                raise RingExprError("expected '/nil'", i)
            tokens.append(("NIL", None, i))
            i += 4
            continue
        else:
            raise RingExprError(f"unexpected character {ch!r}", i)
        i += 1
    tokens.append(("EOF", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
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
