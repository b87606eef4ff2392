"""Numerical invariants of Artinian quotients and their dual modules.

Dual degrees are nonpositive internally; every report here follows the
convention that index p >= 0 refers to the dual's degree-(-p) piece, so a
Hilbert function or socle type reads left to right from degree 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .duality import (
    GradedIdeal,
    InverseElement,
    InverseSystem,
    QuotientRing,
    _contractions,
    _generated_pieces,
    _multiples,
    _uncovered,
    annihilator_of_submodule,
    apolar_annihilator,
    catalecticant_matrix,
    dual_minimal_generators,
)
from .rings import MathDomainError, echelon, mat_mul, matrix_rank


class IntSeq:
    """A finitely supported integer sequence on Z.

    Stored as a value tuple plus the index of its first entry; indexing
    outside the stored window returns 0, and equal sequences compare equal
    regardless of how much zero padding they were built with.
    """

    __slots__ = ("offset", "values")

    def __init__(self, values=(), offset: int = 0):
        vals = [int(v) for v in values]
        while vals and vals[0] == 0:
            vals.pop(0)
            offset += 1
        while vals and vals[-1] == 0:
            vals.pop()
        self.offset = offset if vals else 0
        self.values = tuple(vals)

    @classmethod
    def from_items(cls, items) -> "IntSeq":
        pairs = sorted(dict(items).items())
        if not pairs:
            return cls()
        lo = pairs[0][0]
        hi = pairs[-1][0]
        vals = [0] * (hi - lo + 1)
        for k, v in pairs:
            vals[k - lo] = v
        return cls(vals, lo)

    def __getitem__(self, p: int) -> int:
        if self.offset <= p < self.offset + len(self.values):
            return self.values[p - self.offset]
        return 0

    def __bool__(self) -> bool:
        return bool(self.values)

    def first(self) -> int:
        if not self.values:
            raise MathDomainError("zero sequence has no support")
        return self.offset

    def last(self) -> int:
        if not self.values:
            raise MathDomainError("zero sequence has no support")
        return self.offset + len(self.values) - 1

    def items(self):
        return [(self.offset + i, v) for i, v in enumerate(self.values)]

    def sum(self) -> int:
        return sum(self.values)

    def shift(self, k: int) -> "IntSeq":
        return IntSeq(self.values, self.offset + k)

    def window(self, lo: int, hi: int) -> tuple:
        """Values on the half-open index range [lo, hi)."""
        return tuple(self[p] for p in range(lo, hi))

    def __add__(self, other: "IntSeq") -> "IntSeq":
        if not self.values:
            return other
        if not other.values:
            return self
        lo = min(self.offset, other.offset)
        hi = max(self.offset + len(self.values), other.offset + len(other.values))
        return IntSeq([self[p] + other[p] for p in range(lo, hi)], lo)

    def __sub__(self, other: "IntSeq") -> "IntSeq":
        return self + other.scale(-1)

    def scale(self, c: int) -> "IntSeq":
        return IntSeq([c * v for v in self.values], self.offset)

    def __eq__(self, other):
        if not isinstance(other, IntSeq):
            return NotImplemented
        return self.offset == other.offset and self.values == other.values

    def __hash__(self):
        return hash((self.offset, self.values))

    def to_dict(self) -> dict:
        return {"offset": self.offset, "values": list(self.values)}

    @classmethod
    def from_dict(cls, d) -> "IntSeq":
        return cls(d["values"], d["offset"])

    def __str__(self):
        if not self.values:
            return "0"
        body = ", ".join(str(v) for v in self.values)
        if self.offset == 0:
            return f"({body})"
        return f"({body}) from {self.offset}"

    def __repr__(self):
        return f"IntSeq({list(self.values)}, offset={self.offset})"


def _as_quotient(obj) -> QuotientRing:
    if isinstance(obj, QuotientRing):
        return obj
    if isinstance(obj, GradedIdeal):
        return QuotientRing(obj)
    raise TypeError(f"expected an ideal or quotient, got {type(obj).__name__}")


def hilbert_function(obj) -> IntSeq:
    """Hilbert function, indexed so h(p) is the dimension in degree p for a
    quotient and in degree -p for a dual submodule."""
    if isinstance(obj, InverseSystem):
        return IntSeq.from_items({-n: s.dim for n, s in obj.pieces.items()})
    Q = _as_quotient(obj)
    if not Q.ideal.artinian_certified:
        raise MathDomainError(
            "quotient not Artinian within the truncation bound; raise the bound"
        )
    return IntSeq([Q.dim(d) for d in range(Q.bound)])


def socle(obj) -> IntSeq:
    """Degreewise dimension of the socle (everything killed by all variables)."""
    Q = _as_quotient(obj)
    if not Q.ideal.artinian_certified:
        raise MathDomainError(
            "quotient not Artinian within the truncation bound; raise the bound"
        )
    field = Q.ring.field
    items = {}
    for d in range(Q.bound):
        n = Q.dim(d)
        if n == 0:
            continue
        rows = []
        for i in range(Q.ring.nvars):
            rows.extend(Q.var_matrix(i, d))
        items[d] = n - matrix_rank(field, rows, n) if rows else n
    return IntSeq.from_items(items)


def generator_type(D: InverseSystem) -> IntSeq:
    """t(q) = number of degree-(-q) elements in a minimal generating set of D:
    the count of basis rows of D_{-q} that the contractions of the pieces one
    weight below do not span, the codimension of their span in D_{-q}."""
    ring, shifts, pieces = D.ring, D.shifts, D.pieces
    return IntSeq.from_items({
        -n: len(_uncovered(ring.field, _contractions(ring, shifts, pieces, n), s.rows))
        for n, s in pieces.items()
        if s.dim
    })


@dataclass(frozen=True)
class SocleReport:
    dims: IntSeq
    socle_degree: int
    total: int
    is_level: bool
    is_gorenstein: bool


def socle_report(obj) -> SocleReport:
    dims = socle(obj)
    if not dims:
        raise MathDomainError("zero quotient has no socle")
    s = dims.last()
    total = dims.sum()
    return SocleReport(
        dims=dims,
        socle_degree=s,
        total=total,
        is_level=(dims.first() == s),
        is_gorenstein=(total == 1),
    )


def is_level(obj) -> bool:
    """Whether all socle (equivalently, dual generator) degrees coincide."""
    if isinstance(obj, InverseSystem):
        t = generator_type(obj)
        return bool(t) and t.first() == t.last()
    dims = socle(obj)
    return bool(dims) and dims.first() == dims.last()


def is_gorenstein(obj, via: str = "socle") -> bool:
    """One-dimensional socle, checked either directly ("socle") or through
    cyclicity of the dual module ("dual")."""
    if via == "socle":
        if isinstance(obj, InverseSystem):
            return generator_type(obj).sum() == 1
        return socle(obj).sum() == 1
    if via == "dual":
        D = obj if isinstance(obj, InverseSystem) else apolar_annihilator(
            obj.ideal if isinstance(obj, QuotientRing) else obj
        )
        return len(dual_minimal_generators(D)) == 1
    raise ValueError(f"unknown route {via!r}")


def symmetry_defect(h: IntSeq) -> tuple:
    """Indices p with h(p) != h(s - p), s the top of the support; empty for
    the symmetric Hilbert functions that Gorenstein quotients must have."""
    if not h:
        return ()
    s = h.last()
    return tuple(p for p in range(0, s + 1) if h[p] != h[s - p])


# ---------------------------------------------------------------------------
# Multilevel filtration of a dual module.


def delta_submodule(D: InverseSystem, m: int) -> InverseSystem:
    """The submodule of D generated by its pieces in degrees -m and below."""
    supp = D.support()
    if not supp:
        return InverseSystem(D.ring, {}, D.shifts)
    seeds = {n: s.rows for n, s in D.pieces.items() if n <= -m}
    return InverseSystem(D.ring, _generated_pieces(D.ring, D.shifts, seeds, supp[0]), D.shifts)


@dataclass(frozen=True)
class MultilevelProfile:
    socle_degree: int
    rows: tuple
    type_from_profile: IntSeq

    def row(self, m: int) -> IntSeq:
        if 0 <= m < len(self.rows):
            return self.rows[m]
        return IntSeq()


def multilevel_profile(D: InverseSystem) -> MultilevelProfile:
    """Hilbert functions h_m of the filtration by generation degree.

    Row m is the Hilbert function of the submodule generated in degrees -m
    and below; the generator type is recovered as t(p) = h_p(p) - h_{p+1}(p).
    """
    if not D.support():
        raise MathDomainError("zero module has no profile")
    s = D.socle_degree()
    rows = []
    for m in range(s + 2):
        sub = delta_submodule(D, m)
        rows.append(hilbert_function(sub))
    t = IntSeq.from_items({p: rows[p][p] - rows[p + 1][p] for p in range(s + 1)})
    return MultilevelProfile(socle_degree=s, rows=tuple(rows), type_from_profile=t)


# ---------------------------------------------------------------------------
# Linkage inside a Gorenstein Artinian ambient.


@dataclass(frozen=True)
class LinkageReport:
    link: GradedIdeal
    quotient_hilbert: IntSeq
    generator_degrees: tuple
    is_cyclic: bool


def _dual_socle_generator(ideal: GradedIdeal) -> InverseElement:
    """The dual generator F of a Gorenstein Artinian quotient R/J: the one
    row of the perp of J in the top degree of the quotient."""
    top = max(d for d in range(ideal.bound) if ideal.quotient_dim(d))
    return InverseElement.from_vector(ideal.ring, -top, ideal.piece(top).perp().rows[0])


def linkage(ambient: GradedIdeal, ideal: GradedIdeal) -> LinkageReport:
    """The link J : I of an ideal inside a Gorenstein Artinian quotient.

    ``ambient`` presents A = R/J; ``ideal`` is any homogeneous ideal I of R
    (J is added to it).  With F the dual generator of A, ideals containing J
    match the submodules I∘F of A∘F, and the link is an annihilator:
    J : I = Ann(I∘F), where (I∘F)_{d - top} is the row space of I_d times
    the catalecticant of F.  The link is returned as an ideal of R
    containing J, together with the Hilbert function of its quotient, the
    degrees of a minimal A-module generating set of the link mod J, and
    whether that generating set is a single element.
    """
    if ambient.ring != ideal.ring:
        raise ValueError("ambient and ideal live in different rings")
    if not ambient.artinian_certified:
        raise MathDomainError("ambient quotient is not Artinian within its bound")
    if socle(ambient).sum() != 1:
        raise MathDomainError("linkage needs a Gorenstein ambient")
    if ideal.bound < ambient.bound and not ideal.artinian_certified:
        raise MathDomainError("ideal is not known beyond its bound")
    ring, field = ambient.ring, ambient.ring.field
    F = _dual_socle_generator(ambient)
    top = -F.degree()
    pieces = {}
    for d in range(top + 1):
        cat = catalecticant_matrix(F, -d)
        rows = mat_mul(field, ideal.piece(d).rows, cat) if d < ideal.bound else cat
        pieces[d - top] = echelon(field, rows, ring.dim(top - d))
    link = annihilator_of_submodule(InverseSystem(ring, pieces), ambient.bound)

    # minimal module generators of the link mod J: in each degree, the part
    # of the link outside J and the variable multiples of the link below
    gen_degs = []
    rows = {d: piece.rows for d, piece in link.pieces.items()}
    for d, piece in link.pieces.items():
        if piece.dim > ambient.piece(d).dim:
            moved = [*ambient.piece(d).rows, *_multiples(ring, rows, d)]
            gen_degs.extend([d] * len(_uncovered(field, moved, piece.rows)))
    return LinkageReport(
        link=link,
        quotient_hilbert=hilbert_function(link),
        generator_degrees=tuple(gen_degs),
        is_cyclic=(len(gen_degs) == 1),
    )


def linkage_predicted_hilbert(ambient_h: IntSeq, quotient_h: IntSeq, top: int) -> IntSeq:
    """h'(p) = b(p) - h(top - p): the Hilbert function forced on the linked
    quotient by duality with the original one."""
    return IntSeq([ambient_h[p] - quotient_h[top - p] for p in range(top + 1)])


# ---------------------------------------------------------------------------
# Stability and integrity.


@dataclass(frozen=True)
class StabilityReport:
    stable_from: int
    integrity: int


def stable_from(D: InverseSystem) -> int:
    """Least n0 such that every piece of D above degree n0 is spanned by
    variable contractions from one weight below: the top degree of a
    minimal generator."""
    if not D.support():
        raise MathDomainError("zero module")
    return -generator_type(D).first()


def integrity(obj) -> int:
    """Largest m such that nothing below degree m is killed by every
    variable; equals the first socle degree of the quotient."""
    dims = socle(obj) if not isinstance(obj, InverseSystem) else generator_type(obj)
    if not dims:
        raise MathDomainError("zero quotient")
    return dims.first()


def stability_integrity(obj) -> StabilityReport:
    """Stability threshold of the dual module and integrity of the quotient;
    the two are exchanged (up to sign) by duality."""
    if isinstance(obj, InverseSystem):
        D = obj
        ideal = annihilator_of_submodule(D)
    else:
        ideal = obj.ideal if isinstance(obj, QuotientRing) else obj
        D = apolar_annihilator(ideal)
    return StabilityReport(stable_from=stable_from(D), integrity=integrity(ideal))
