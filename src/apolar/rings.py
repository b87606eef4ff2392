"""Weighted graded polynomial rings and exact linear algebra.

The ring is k[X_1, ..., X_r] where the variable X_i carries a positive
integer weight w_i, so the degree-d piece A_d is spanned by the monomials
of weighted degree d.  Within one degree, monomials are ordered
lexicographically on exponent vectors, largest first; that order fixes the
column indexing of every matrix produced here and makes all downstream
computations reproducible bit for bit.

Monomials act through one index map, ``_product_step(weights, m, d)``: for
each monomial of degree d, in that order, the index of its product with x^m
among the monomials of degree d + deg m.  Multiplication by x^m sends basis
vector j of A_d to basis vector step[j] of A_{d + deg m}; contraction by x^m
is its transpose, reading coordinate step[j] of a degree-(d + deg m) dual
vector into coordinate j of the degree-d one.  ``_var_step(weights, i, d)``
is the case of the variable X_i.  Every multiplication, contraction and
catalecticant matrix in the package is read off this map.

Polynomials and the dual elements of ``duality`` share one term core: a
map from keys to nonzero coefficients that normalizes, compares, adds,
splits by degree and prints the same way, each class saying only how a key
is read, its degree, the print order and the text of one term.

Coefficients live in an exact field: the rationals (``fractions.Fraction``)
or a prime field GF(p) (plain ints reduced mod p).  Subspaces of a graded
piece are stored in reduced row-echelon form, so two subspaces are equal
exactly when their stored matrices are identical.

Every row reduction goes through two private helpers.  ``_reduce``
subtracts from a vector its multiples of (pivot column, row) pairs, each
row 1 at its pivot column; it is ``Subspace.reduce``.  ``_forward`` extends
such a list of pairs in place: it reduces each input row against the list
and, when a residue remains, appends it scaled to 1 at its first nonzero
column, stopping at an optional target length.  Every appended row vanishes
at the pivots before it, so one pass in order reduces fully.  ``rref`` is
``_forward`` into an empty list followed by one back-substitution pass,
last row first; ``complete_span`` is ``_forward`` seeded with an echelon
form; the rank over GF(p) is the length ``_forward`` reaches.  Every row
update, pivot scaling and matrix product goes through ``_sub_multiple``.

A kernel costs one elimination: in the echelon form of the matrix with its
columns reversed, the free-column basis (a 1 at each non-pivot column f and
minus each row's entry in column f at that row's pivot), read back in the
forward order, is already the kernel's canonical echelon form.  A perp is
taken from the smaller side: the kernel of the space's own rows when its
dimension is at most half the ambient one, else one ``rref`` of the
free-column basis of its own echelon form.

Over QQ a full rank is certified modularly before any Fraction is
eliminated.  When the prime P = 2^61 - 1 divides no denominator, reducing
the entries mod P is a ring map, so a nonzero minor mod P is nonzero over
QQ and rank_QQ >= rank_P.  ``_proves_rank`` takes rank_P by ``_forward``
over GF(P), stopping at the target; when rank_P reaches the most the rank
can be, that is the rank over QQ.  When P divides a denominator, or rank_P
falls short, the exact Fraction elimination runs, so every answer is exact.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction


class MathDomainError(Exception):
    """A computation left its mathematical domain.

    Raised for non-Artinian quotients, non-Gorenstein ambients where one is
    required, zero polynomials asked for a degree, and similar.
    """


class BoundExceededError(MathDomainError):
    """A truncation bound was too small to certify the requested answer."""


#: Miller-Rabin bases: the first twelve primes, exact for every n below
#: 3.3e24, well above the limit of 2^64 that ``Field`` puts on p.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """The rationals (``p is None``) or the prime field GF(p).

    Elements are ``Fraction`` instances over the rationals and plain ints in
    ``range(p)`` over GF(p).  Arithmetic goes through the field object and
    row updates through ``_sub_multiple``: callers never branch on the field.
    """

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None and p >= 2**64:
            raise ValueError(f"GF(p) needs p < 2^64, got {p}")
        if p is not None and not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def of(self, x):
        """Coerce an int, Fraction, or string like ``"2/3"`` into the field."""
        if self.p is None:
            return Fraction(x)
        if isinstance(x, str):
            x = Fraction(x)
        if isinstance(x, Fraction):
            return self.div(x.numerator % self.p, x.denominator % self.p)
        return int(x) % self.p

    @property
    def zero(self):
        return _QZERO if self.p is None else 0

    @property
    def one(self):
        return _QONE if self.p is None else 1

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if self.p is None:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return 1 / Fraction(a)
        return pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    @staticmethod
    def is_zero(a) -> bool:
        return a == 0

    def coeff_str(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"


_QZERO = Fraction(0)
_QONE = Fraction(1)

#: The field of rational numbers.
QQ = Field()


def GF(p: int) -> Field:
    """The prime field with p elements."""
    return Field(p)


# ---------------------------------------------------------------------------
# Monomials.  A monomial is a plain tuple of nonnegative exponents; all the
# per-degree bookkeeping is memoized on (weights, degree).

Monomial = tuple  # exponent vectors; weighted degree = sum(w_i * e_i)


@functools.lru_cache(maxsize=None)
def _monomials_by_degree(weights: tuple, d: int) -> tuple:
    """All monomials of weighted degree d, lex-largest exponent vector first."""
    if d < 0:
        return ()
    out = []
    r = len(weights)

    def rec(i: int, rem: int, acc: tuple) -> None:
        if i == r - 1:
            e, leftover = divmod(rem, weights[i])
            if leftover == 0:
                out.append(acc + (e,))
            return
        w = weights[i]
        for e in range(rem // w, -1, -1):
            rec(i + 1, rem - e * w, acc + (e,))

    rec(0, d, ())
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _monomial_positions(weights: tuple, d: int) -> dict:
    return {m: i for i, m in enumerate(_monomials_by_degree(weights, d))}


@functools.lru_cache(maxsize=None)
def _product_step(weights: tuple, m: tuple, d: int) -> tuple:
    """For each monomial of degree d, its index after multiplying by x^m
    among the monomials of degree d + deg m; empty when d < 0."""
    pos = _monomial_positions(weights, d + sum(w * e for w, e in zip(weights, m)))
    return tuple(
        pos[tuple(a + b for a, b in zip(u, m))] for u in _monomials_by_degree(weights, d)
    )


@functools.lru_cache(maxsize=None)
def _var_step(weights: tuple, i: int, d: int) -> tuple:
    """``_product_step`` of the unit exponent vector of X_i."""
    return _product_step(weights, tuple(int(k == i) for k in range(len(weights))), d)


@dataclass(frozen=True)
class GradedRing:
    """k[X_1..X_r] with positive integer weights on the variables."""

    var_names: tuple
    weights: tuple
    field: Field

    def __post_init__(self):
        object.__setattr__(self, "var_names", tuple(self.var_names))
        object.__setattr__(self, "weights", tuple(self.weights))
        if len(self.var_names) != len(self.weights):
            raise ValueError("one weight per variable required")
        if not self.var_names:
            raise ValueError("at least one variable required")
        if len(set(self.var_names)) != len(self.var_names):
            raise ValueError("variable names must be pairwise distinct")
        if any(not isinstance(w, int) or w < 1 for w in self.weights):
            raise ValueError("weights must be positive integers")

    @classmethod
    def standard(cls, field: Field, names) -> "GradedRing":
        """Standard grading (all weights 1); ``names`` is a list or a count."""
        if isinstance(names, int):
            names = tuple(f"x{i + 1}" for i in range(names))
        names = tuple(names)
        return cls(names, (1,) * len(names), field)

    @property
    def nvars(self) -> int:
        return len(self.var_names)

    def wdeg(self, expts) -> int:
        return sum(w * e for w, e in zip(self.weights, expts))

    def monomials(self, d: int) -> tuple:
        return _monomials_by_degree(self.weights, d)

    def dim(self, d: int) -> int:
        return len(_monomials_by_degree(self.weights, d))

    def monomial_index(self, d: int, expts) -> int:
        return _monomial_positions(self.weights, d)[tuple(expts)]

    def monomial_str(self, expts, inverse: bool = False) -> str:
        parts = []
        for name, e in zip(self.var_names, expts):
            if e == 0:
                continue
            shown = -e if inverse else e
            parts.append(name if shown == 1 else f"{name}^{shown}")
        return "*".join(parts) if parts else "1"

    def variable(self, i: int) -> "Polynomial":
        expts = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {expts: self.field.one})

    def __repr__(self):
        ws = "" if all(w == 1 for w in self.weights) else f" weights={self.weights}"
        return f"{self.field}[{','.join(self.var_names)}]{ws}"


def monomials_of_degree(ring: GradedRing, d: int) -> tuple:
    """The canonical ordered monomial basis of the degree-d piece."""
    return ring.monomials(d)


def graded_dim(ring: GradedRing, d: int) -> int:
    """dim of the degree-d graded piece."""
    return ring.dim(d)


class _Terms:
    """The term core shared by polynomials and dual elements.

    ``terms`` maps a key to a nonzero exact coefficient.  A subclass says how
    a key is read (``_key``), the degree of a term (``term_degree``), the
    print order (``_print_key``) and the text of one term (``_term_str``);
    ``_ambient`` is what two elements must share to be compared or added,
    and ``_noun`` names the kind of element in errors.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: GradedRing, terms=()):
        self.ring = ring
        field = ring.field
        data = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for key, c in items:
            key = self._key(key)
            c = field.of(c)
            if key in data:
                c = field.add(data[key], c)
            if field.is_zero(c):
                data.pop(key, None)
            else:
                data[key] = c
        self.terms = data

    def _like(self, terms):
        return type(self)(self.ring, terms, *self._ambient[1:])

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        return len({self.term_degree(k) for k in self.terms}) <= 1

    def degree(self) -> int:
        """Weighted degree of a nonzero homogeneous element."""
        degs = {self.term_degree(k) for k in self.terms}
        if not degs:
            raise MathDomainError(f"the zero {self._noun} has no degree")
        if len(degs) > 1:
            raise MathDomainError(f"{self._noun} is not homogeneous")
        return degs.pop()

    def homogeneous_components(self) -> dict:
        parts = {}
        for k, c in self.terms.items():
            parts.setdefault(self.term_degree(k), {})[k] = c
        return {d: self._like(t) for d, t in sorted(parts.items())}

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self._ambient != other._ambient:
            raise ValueError("ambient mismatch")
        return self._like(list(self.terms.items()) + list(other.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        f = self.ring.field
        return self._like({k: f.neg(c) for k, c in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and self._ambient == other._ambient
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(self._ambient + (frozenset(self.terms.items()),))

    def _body(self, mono: str, c) -> str:
        """One term without its basis label: the coefficient, the monomial,
        -monomial for a coefficient of -1, or coefficient*monomial."""
        field = self.ring.field
        if mono == "1":
            return field.coeff_str(c)
        if c == field.one:
            return mono
        return f"-{mono}" if c == -1 else f"{field.coeff_str(c)}*{mono}"

    def __str__(self):
        chunks = [self._term_str(k, self.terms[k]) for k in sorted(self.terms, key=self._print_key)]
        if not chunks:
            return "0"
        out = chunks[0]
        for ch in chunks[1:]:
            out += f" - {ch[1:]}" if ch.startswith("-") else f" + {ch}"
        return out


class Polynomial(_Terms):
    """A polynomial with exact coefficients; zero coefficients are not stored."""

    __slots__ = ()
    _noun = "polynomial"

    @property
    def _ambient(self):
        return (self.ring,)

    def _key(self, m):
        m = tuple(m)
        if len(m) != self.ring.nvars or any(e < 0 for e in m):
            raise ValueError(f"bad exponent vector {m}")
        return m

    def term_degree(self, m) -> int:
        return self.ring.wdeg(m)

    def _print_key(self, m):
        d = self.ring.wdeg(m)
        return d, self.ring.monomial_index(d, m)

    def _term_str(self, m, c) -> str:
        return self._body(self.ring.monomial_str(m), c)

    @classmethod
    def zero(cls, ring: GradedRing) -> "Polynomial":
        return cls(ring, {})

    @classmethod
    def one(cls, ring: GradedRing) -> "Polynomial":
        return cls(ring, {(0,) * ring.nvars: ring.field.one})

    @classmethod
    def monomial(cls, ring: GradedRing, expts, coeff=1) -> "Polynomial":
        return cls(ring, {tuple(expts): coeff})

    def coefficient_vector(self, d: int) -> tuple:
        """Coefficients on the canonical basis of the degree-d piece."""
        field = self.ring.field
        vec = [field.zero] * self.ring.dim(d)
        for m, c in self.terms.items():
            if self.ring.wdeg(m) != d:
                raise MathDomainError(f"term of degree {self.ring.wdeg(m)} in degree-{d} vector")
            vec[self.ring.monomial_index(d, m)] = c
        return tuple(vec)

    @classmethod
    def from_vector(cls, ring: GradedRing, d: int, vec) -> "Polynomial":
        mons = ring.monomials(d)
        return cls(ring, {m: c for m, c in zip(mons, vec)})

    def __mul__(self, other):
        f = self.ring.field
        if isinstance(other, Polynomial):
            out = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = tuple(a + b for a, b in zip(m1, m2))
                    c = f.mul(c1, c2)
                    out[m] = f.add(out[m], c) if m in out else c
            return Polynomial(self.ring, out)
        c0 = f.of(other)
        return Polynomial(self.ring, {m: f.mul(c, c0) for m, c in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = Polynomial.one(self.ring)
        for _ in range(n):
            out = out * self
        return out

    def __repr__(self):
        return f"<{self}>"


# ---------------------------------------------------------------------------
# Exact matrices and canonical subspaces.  Matrices are tuples/lists of rows.


def _sub_multiple(p, row, f, prow) -> list:
    """row - f * prow, reduced mod p over GF(p) (``p`` is None over QQ)."""
    if p is None:
        return [x - f * y for x, y in zip(row, prow)]
    return [(x - f * y) % p for x, y in zip(row, prow)]


def _reduce(p, basis, v):
    """v minus its multiples of the (pivot column, row) pairs of ``basis``,
    each row 1 at its pivot column, taken in order."""
    for pc, row in basis:
        if v[pc] != 0:
            v = _sub_multiple(p, v, v[pc], row)
    return v


def _forward(field: Field, basis: list, rows, target: int | None = None) -> list:
    """Extend ``basis`` in place by forward elimination; return the input
    rows it accepted, in order.

    Each row is reduced against ``basis`` and accepted when a residue
    remains; the residue, scaled to 1 at its first nonzero column, is
    appended with that pivot column.  Every appended row vanishes at the
    pivots before it, so one ``_reduce`` pass in order reduces fully.  The
    pass stops once ``basis`` holds ``target`` rows.
    """
    p = field.p
    accepted = []
    for v in rows:
        if len(basis) == target:
            break
        r = _reduce(p, basis, v)
        pc = next((c for c, x in enumerate(r) if x != 0), None)
        if pc is not None:
            accepted.append(v)
            # scale the residue to 1 at its pivot: inv * r = 0 - (-inv) * r
            basis.append((pc, _sub_multiple(p, [0] * len(r), -field.inv(r[pc]), r)))
    return accepted


def rref(field: Field, rows, ncols: int):
    """Reduced row echelon form.  Returns (rows, pivot_columns) as tuples.

    ``_forward`` keeps one row per pivot; one back-substitution pass, last
    kept row first, reduces each row against the rows finished after it, and
    the rows are then sorted by pivot.
    """
    kept = []
    _forward(field, kept, rows, ncols)
    done = []
    for pc, row in reversed(kept):
        done.append((pc, _reduce(field.p, done, row)))
    done.sort(key=lambda pair: pair[0])
    return tuple(tuple(r) for _, r in done), tuple(pc for pc, _ in done)


class Subspace:
    """A subspace of k^n held in canonical reduced row-echelon form."""

    __slots__ = ("field", "ncols", "rows", "pivots")

    def __init__(self, field: Field, ncols: int, rows=(), *, _canonical=None):
        self.field = field
        self.ncols = ncols
        if _canonical is not None:
            self.rows, self.pivots = _canonical
        else:
            self.rows, self.pivots = rref(field, rows, ncols)

    @classmethod
    def zero(cls, field: Field, ncols: int) -> "Subspace":
        return cls(field, ncols, _canonical=((), ()))

    @classmethod
    def full(cls, field: Field, ncols: int) -> "Subspace":
        eye = tuple(
            tuple(field.one if i == j else field.zero for j in range(ncols))
            for i in range(ncols)
        )
        return cls(field, ncols, _canonical=(eye, tuple(range(ncols))))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec):
        """Subtract the projection onto this subspace's pivot structure."""
        return tuple(_reduce(self.field.p, zip(self.pivots, self.rows), vec))

    def contains(self, vec) -> bool:
        return all(x == 0 for x in self.reduce(vec))

    def nonpivots(self) -> tuple:
        pset = set(self.pivots)
        return tuple(c for c in range(self.ncols) if c not in pset)

    def __add__(self, other: "Subspace") -> "Subspace":
        if other.ncols != self.ncols:
            raise ValueError("ambient dimension mismatch")
        return Subspace(self.field, self.ncols, self.rows + other.rows)

    def perp(self) -> "Subspace":
        """Vectors orthogonal to this space under the standard pairing, from
        one elimination of the smaller side (see the module docstring)."""
        field, n = self.field, self.ncols
        if 2 * self.dim <= n:
            return kernel(field, self.rows, n)
        return Subspace(field, n, _free_basis(field, self.rows, self.pivots, n))

    def intersect(self, other: "Subspace") -> "Subspace":
        if other.ncols != self.ncols:
            raise ValueError("ambient dimension mismatch")
        return (self.perp() + other.perp()).perp()

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self):
        return f"<Subspace dim {self.dim} of k^{self.ncols}>"


def echelon(field: Field, rows, ncols: int) -> Subspace:
    """Canonical row space of the given spanning rows."""
    return Subspace(field, ncols, rows)


def complete_span(covered: Subspace, candidates) -> list:
    """The candidates, in order, that complete ``covered`` to their joint
    span: one ``_forward`` pass seeded with the rows of ``covered``."""
    return _forward(covered.field, list(zip(covered.pivots, covered.rows)), candidates)


def _free_basis(field: Field, rows, pivots, ncols: int) -> list:
    """Kernel of a reduced echelon form: per non-pivot column f, a 1 at f and
    minus each row's entry in column f at that row's pivot."""
    pset = set(pivots)
    basis = []
    for free in range(ncols):
        if free not in pset:
            v = [field.zero] * ncols
            v[free] = field.one
            for row, pc in zip(rows, pivots):
                v[pc] = field.neg(row[free])
            basis.append(v)
    return basis


def kernel(field: Field, matrix, ncols: int) -> Subspace:
    """Kernel of the linear map k^ncols -> k^m given by an m x ncols matrix,
    from one ``rref`` of its columns reversed (see the module docstring)."""
    rows, piv = rref(field, [r[::-1] for r in matrix], ncols)
    basis = tuple(tuple(v[::-1]) for v in reversed(_free_basis(field, rows, piv, ncols)))
    mirrored = {ncols - 1 - c for c in piv}
    pivots = tuple(c for c in range(ncols) if c not in mirrored)
    return Subspace(field, ncols, _canonical=(basis, pivots))


def mat_mul(field: Field, a, b):
    """Matrix product over the field (rows x rows layout): row i is the sum
    of a[i][k] * b[k] over the nonzero a[i][k]."""
    if not a:
        return ()
    if not b:
        return tuple(() for _ in a)
    p, zero = field.p, [field.zero] * len(b[0])
    out = []
    for arow in a:
        acc = zero
        for x, brow in zip(arow, b):
            if x != 0:
                acc = _sub_multiple(p, acc, -x, brow)
        out.append(tuple(acc))
    return tuple(out)


#: The field of the rank certificate over QQ: GF(2^61 - 1).
_CERT = Field((1 << 61) - 1)


def _proves_rank(rows, target: int) -> bool:
    """Whether the rank over ``_CERT`` proves that rows of rationals have
    rank at least ``target`` over QQ (see the module docstring); False also
    when its prime divides a denominator."""
    p, mod = _CERT.p, []
    for r in rows:
        out = []
        for x in r:
            if not x:
                out.append(0)
                continue
            den = x.denominator % p
            if not den:
                return False
            out.append(x.numerator * pow(den, -1, p) % p)
        mod.append(out)
    return len(_forward(_CERT, [], mod, target)) == target


def matrix_rank(field: Field, rows, ncols: int) -> int:
    """Rank of the matrix.  Over GF(p), the rows one ``_forward`` pass
    accepts.  Over QQ, the most the shape allows (its count of nonzero rows
    or of columns) when ``_proves_rank`` reaches it, else that of ``rref``."""
    if field.p is not None:
        return len(_forward(field, [], rows, ncols))
    rows = [r for r in rows if any(r)]
    top = min(len(rows), ncols)
    if _proves_rank(rows, top):
        return top
    return len(rref(field, rows, ncols)[0])


class TruncatedAlgebra:
    """The truncation A/F^N: graded pieces of degree < N with their structure.

    The total space is the direct sum of the pieces, indexed degree-major in
    the canonical monomial order; the variables act through ``_var_step``,
    truncated at the bound.
    """

    __slots__ = ("ring", "bound", "dims", "offsets", "total_dim")

    def __init__(self, ring: GradedRing, bound: int):
        if bound < 1:
            raise BoundExceededError("bound must be at least 1")
        self.ring = ring
        self.bound = bound
        self.dims = tuple(ring.dim(d) for d in range(bound))
        offsets = []
        acc = 0
        for d in range(bound):
            offsets.append(acc)
            acc += self.dims[d]
        self.offsets = tuple(offsets)
        self.total_dim = acc

    def index(self, d: int, j: int) -> int:
        return self.offsets[d] + j

    def degrees(self):
        return range(self.bound)

    def multiply_by_var(self, i: int, vec):
        """Multiply a total-space vector by variable i, truncating at the bound."""
        weights = self.ring.weights
        out = [self.ring.field.zero] * self.total_dim
        for d in range(self.bound - weights[i]):
            base, tbase = self.offsets[d], self.offsets[d + weights[i]]
            for j, t in enumerate(_var_step(weights, i, d)):
                out[tbase + t] = vec[base + j]
        return tuple(out)

    def contract_by_var(self, i: int, vec):
        """Contract a total-dual-space vector by variable i: the transpose of
        ``multiply_by_var``, reading the slot of 1/(M * X_i) for each 1/M."""
        weights = self.ring.weights
        out = []
        for d in range(self.bound):
            if d + weights[i] >= self.bound:
                out.extend(self.ring.field.zero for _ in range(self.dims[d]))
            else:
                base = self.offsets[d + weights[i]]
                out.extend(vec[base + k] for k in _var_step(weights, i, d))
        return tuple(out)

    def embed(self, d: int, vec):
        """Place a degree-d coordinate vector into the total space."""
        field = self.ring.field
        out = [field.zero] * self.total_dim
        base = self.offsets[d]
        for j, c in enumerate(vec):
            out[base + j] = c
        return tuple(out)

    def component(self, vec, d: int):
        base = self.offsets[d]
        return tuple(vec[base + j] for j in range(self.dims[d]))

    def vector_of(self, f: Polynomial):
        """Total-space vector of a polynomial with all degrees below the bound."""
        field = self.ring.field
        out = [field.zero] * self.total_dim
        for m, c in f.terms.items():
            d = self.ring.wdeg(m)
            if d >= self.bound:
                raise BoundExceededError(f"degree {d} term beyond truncation bound {self.bound}")
            out[self.offsets[d] + self.ring.monomial_index(d, m)] = c
        return tuple(out)

    def polynomial_of(self, vec) -> Polynomial:
        terms = {}
        for d in range(self.bound):
            base = self.offsets[d]
            for j, m in enumerate(self.ring.monomials(d)):
                c = vec[base + j]
                if c != 0:
                    terms[m] = c
        return Polynomial(self.ring, terms)


def truncate_algebra(ring: GradedRing, bound: int) -> TruncatedAlgebra:
    """The truncated algebra with graded pieces of degree < bound."""
    return TruncatedAlgebra(ring, bound)
