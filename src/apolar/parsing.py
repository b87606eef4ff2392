"""Surface syntax: ring specifications, expressions, and sparse sequences.

The expression grammar matches what ``str`` prints for polynomials and dual
elements, so parse(print(x)) = x::

    expr  := [sign] term ((\"+\" | \"-\") term)*
    term  := factor (\"*\" factor)*
    factor := INT [\"/\" INT] | NAME [\"^\" [\"-\"] INT]

Whitespace is insignificant.  Exponents within one term must not mix signs,
and the parsing mode decides which sign is legal: nonnegative exponents build
a Polynomial, nonpositive ones an InverseElement.  Errors carry the byte
offset of the offending token.
"""

from dataclasses import dataclass
from fractions import Fraction

from .duality import InverseElement
from .invariants import IntSeq
from .rings import GF, QQ, GradedRing, Polynomial

__all__ = [
    "ParseError",
    "RingSpec",
    "parse_ring_spec",
    "parse_expression",
    "parse_expressions",
    "parse_socle_type",
    "parse_int_list",
    "parse_point_list",
]


class ParseError(ValueError):
    """A syntax or lookup error in surface input, at a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.message = message
        self.offset = offset


# ---------------------------------------------------------------------------
# Tokens.


_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_BODY = _NAME_START | set("0123456789")
_PUNCT = set("+-*/^[](),:;")


def _tokenize(text: str):
    """Yield (kind, value, offset) with kind in int/name/punct/end."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch in _NAME_START:
            j = i
            while j < n and text[j] in _NAME_BODY:
                j += 1
            out.append(("name", text[i:j], i))
            i = j
            continue
        if ch in _PUNCT:
            out.append(("punct", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(("end", None, n))
    return out


class _Cursor:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_punct(self, ch):
        kind, value, offset = self.next()
        if kind != "punct" or value != ch:
            raise ParseError(f"expected {ch!r}", offset)
        return offset

    def at_punct(self, ch) -> bool:
        kind, value, _ = self.peek()
        return kind == "punct" and value == ch

    def take_punct(self, ch) -> bool:
        if self.at_punct(ch):
            self.next()
            return True
        return False

    def expect_int(self) -> int:
        kind, value, offset = self.next()
        if kind != "int":
            raise ParseError("expected an integer", offset)
        return value

    def expect_end(self):
        kind, _, offset = self.peek()
        if kind != "end":
            raise ParseError("trailing input", offset)


# ---------------------------------------------------------------------------
# Ring specifications.


@dataclass(frozen=True)
class RingSpec:
    """Field, variable names, and weights, as written: ``GF(7)[x,y:2]``.

    Printing omits weight 1, so parse -> print -> parse is the identity.
    """

    p: int | None
    names: tuple
    weights: tuple

    def field(self):
        return QQ if self.p is None else GF(self.p)

    def ring(self) -> GradedRing:
        return GradedRing(self.names, self.weights, self.field())

    def __str__(self):
        head = "QQ" if self.p is None else f"GF({self.p})"
        items = ", ".join(
            name if w == 1 else f"{name}:{w}"
            for name, w in zip(self.names, self.weights)
        )
        return f"{head}[{items}]"


def parse_ring_spec(text: str) -> RingSpec:
    cur = _Cursor(_tokenize(text))
    kind, value, offset = cur.next()
    if kind != "name" or value not in {"QQ", "GF"}:
        raise ParseError("expected QQ or GF(p)", offset)
    p = None
    if value == "GF":
        cur.expect_punct("(")
        p_offset = cur.peek()[2]
        p = cur.expect_int()
        cur.expect_punct(")")
        try:
            GF(p)
        except ValueError as err:
            raise ParseError(str(err), p_offset) from None
    cur.expect_punct("[")
    names, weights = [], []
    while True:
        kind, value, offset = cur.next()
        if kind != "name":
            raise ParseError("expected a variable name", offset)
        if value in names:
            raise ParseError(f"duplicate variable {value!r}", offset)
        w = 1
        if cur.take_punct(":"):
            w_offset = cur.peek()[2]
            w = cur.expect_int()
            if w < 1:
                raise ParseError("weights must be positive", w_offset)
        names.append(value)
        weights.append(w)
        if cur.take_punct(","):
            continue
        cur.expect_punct("]")
        break
    cur.expect_end()
    return RingSpec(p, tuple(names), tuple(weights))


# ---------------------------------------------------------------------------
# Expressions.


def _parse_coefficient(cur: _Cursor, field):
    kind, value, offset = cur.next()
    assert kind == "int"
    if cur.take_punct("/"):
        den_offset = cur.peek()[2]
        den = cur.expect_int()
        if field.is_zero(field.of(den)):
            raise ParseError("zero denominator", den_offset)
        return field.of(Fraction(value, den))
    return field.of(value)


def _parse_term(cur: _Cursor, ring):
    """One *-separated product: (coefficient, exponent tuple, term offset)."""
    field = ring.field
    start = cur.peek()[2]
    coeff = field.one
    expts = [0] * ring.nvars
    while True:
        kind, value, offset = cur.peek()
        if kind == "int":
            coeff = field.mul(coeff, _parse_coefficient(cur, field))
        elif kind == "name":
            cur.next()
            try:
                i = ring.var_names.index(value)
            except ValueError:
                raise ParseError(f"unknown variable {value!r}", offset) from None
            e = 1
            if cur.take_punct("^"):
                neg = cur.take_punct("-")
                e = cur.expect_int()
                if neg:
                    e = -e
            expts[i] += e
        else:
            raise ParseError("expected a coefficient or variable", offset)
        if not cur.take_punct("*"):
            break
    if any(e > 0 for e in expts) and any(e < 0 for e in expts):
        raise ParseError("mixed-sign exponents in one term", start)
    return coeff, tuple(expts), start


def parse_expression(text: str, ring: GradedRing, mode: str = "polynomial"):
    """Parse into a Polynomial (mode "polynomial") or InverseElement
    (mode "inverse"); the mode fixes the legal exponent sign."""
    if mode not in {"polynomial", "inverse"}:
        raise ValueError(f"unknown mode {mode!r}")
    field = ring.field
    cur = _Cursor(_tokenize(text))
    if cur.peek()[0] == "end":
        raise ParseError("empty expression", cur.peek()[2])
    terms = {}
    negate = cur.take_punct("-")
    if not negate:
        cur.take_punct("+")
    while True:
        coeff, expts, start = _parse_term(cur, ring)
        if negate:
            coeff = field.neg(coeff)
        if mode == "polynomial" and any(e < 0 for e in expts):
            raise ParseError("negative exponent in a polynomial", start)
        if mode == "inverse" and any(e > 0 for e in expts):
            raise ParseError("positive exponent in a dual element", start)
        key = expts if mode == "polynomial" else tuple(-e for e in expts)
        terms[key] = field.add(terms.get(key, field.zero), coeff)
        if cur.take_punct("+"):
            negate = False
        elif cur.take_punct("-"):
            negate = True
        else:
            break
    cur.expect_end()
    terms = {m: c for m, c in terms.items() if not field.is_zero(c)}
    if mode == "polynomial":
        return Polynomial(ring, terms)
    return InverseElement(ring, {(0, m): c for m, c in terms.items()})


def parse_expressions(text: str, ring: GradedRing, mode: str = "polynomial"):
    """A comma-separated list of expressions."""
    out = []
    base = 0
    for chunk in text.split(","):
        stripped = chunk.strip()
        if not stripped:
            raise ParseError("empty expression in list", base)
        try:
            out.append(parse_expression(stripped, ring, mode))
        except ParseError as err:
            raise ParseError(
                err.message, base + chunk.index(stripped[0]) + err.offset
            ) from None
        base += len(chunk) + 1
    return out


# ---------------------------------------------------------------------------
# Small sparse/list syntaxes for flags.


def parse_socle_type(text: str) -> IntSeq:
    """``"3:1,4:2"`` -> the sparse sequence {3: 1, 4: 2}; "" is empty."""
    if not text.strip():
        return IntSeq(())
    items = {}
    cur = _Cursor(_tokenize(text))
    while True:
        deg_offset = cur.peek()[2]
        degree = cur.expect_int()
        if degree in items:
            raise ParseError(f"degree {degree} repeated", deg_offset)
        cur.expect_punct(":")
        items[degree] = cur.expect_int()
        if not cur.take_punct(","):
            break
    cur.expect_end()
    return IntSeq.from_items(items)


def parse_int_list(text: str):
    """``"1,2,3"`` -> [1, 2, 3]; optional leading minus on each entry."""
    cur = _Cursor(_tokenize(text))
    out = []
    while True:
        neg = cur.take_punct("-")
        value = cur.expect_int()
        out.append(-value if neg else value)
        if not cur.take_punct(","):
            break
    cur.expect_end()
    return out


def parse_point_list(text: str):
    """``"1,0;0,1;1,1"`` -> [(1, 0), (0, 1), (1, 1)]."""
    points = []
    for chunk in text.split(";"):
        points.append(tuple(parse_int_list(chunk)))
    return points
