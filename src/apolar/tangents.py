"""Graded tangent spaces of Artinian quotients.

For a homogeneous ideal I with Artinian quotient C = R/I, the graded pieces
of T := Hom_R(I, C) are computed by fixing the images of a minimal generating
set and imposing the syzygy relations.  A degree-v map sends the generator
G_i to some c_i in C_{d_i + v}, and the tuple (c_i) extends to a well-defined
map exactly when every relation sum a_i G_i = 0 forces sum a_i c_i = 0 in C.
A multiple b*a of a relation a imposes nothing that a does not, so only the
minimal syzygies are imposed; they are found once per profile, degree by
degree.  The multiples x_j Syz_{d - w_j} are taken first, and Syz_d is
solved for only when they fall short of its dimension
sum_i dim R_{d - d_i} - dim I_d.  Minimal syzygies are Tor_2(C, k), which the
Koszul complex places in degrees at most s plus the two largest weights;
relations of degree d > s - v land in a zero piece of C and impose nothing
on T_v either.

The negative part of T detects trivial negative tangents: for homogeneous C
the sum of dim T_v over v < 0 always contains the r directions obtained by
contracting with the variables, and equality with r is the "trivial negative
tangents" criterion used to flag elementary components.
"""

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .compressed import dimension_formulas, i_set, is_permissible
from .duality import GradedIdeal, QuotientRing, _free_blocks, _multiples, _uncovered
from .invariants import IntSeq, is_gorenstein
from .rings import (
    BoundExceededError,
    MathDomainError,
    Polynomial,
    Subspace,
    _forward,
    _product_step,
    kernel,
    matrix_rank,
)

__all__ = [
    "TangentProfile",
    "CrosscheckReport",
    "ElementaryReport",
    "minimal_generators",
    "syzygies_at_degree",
    "tangent_dim",
    "hom_dims",
    "tnt_verdict",
    "squared_ideal_dim",
    "gorenstein_tangent_crosscheck",
    "elementary_report",
]


# ---------------------------------------------------------------------------
# Minimal generators and syzygies.


def minimal_generators(ideal: GradedIdeal):
    """Deterministic minimal homogeneous generating set as (degree, poly) pairs.

    In each degree d, the echelon basis rows of I_d that the multiples
    x_i * I_{d - w_i} do not span, in order (``duality._uncovered``).
    """
    if not ideal.artinian_certified:
        raise BoundExceededError(
            "truncation bound does not certify an Artinian quotient"
        )
    ring, pieces = ideal.ring, ideal.pieces
    rows = {d: s.rows for d, s in pieces.items()}
    return [
        (d, Polynomial.from_vector(ring, d, row))
        for d in range(ideal.bound)
        for row in _uncovered(ring.field, _multiples(ring, rows, d), pieces[d].rows)
    ]


def syzygies_at_degree(gens, d: int) -> Subspace:
    """Kernel of (a_1, ..., a_k) |-> sum a_i g_i from ⊕_i R_{d - deg g_i} to R_d.

    Coordinates are blocked generator by generator, each block running over
    the monomials of its degree in ring order; blocks with d < deg g_i are
    empty.  Block i is multiplication by g_i: each term c * x^m of g_i puts
    c in the row of x^m * u, read off ``rings._product_step``, for each
    monomial u of the block.  Distinct terms reach distinct rows, so every
    entry is one coefficient.  The result is a canonical subspace of the
    blocked source.
    """
    gens = list(gens)
    if not gens:
        raise MathDomainError("no generators")
    ring = gens[0].ring
    field = ring.field
    if any(g.ring != ring for g in gens):
        raise ValueError("generators live in different rings")
    blocks = _free_blocks(ring, [g.degree() for g in gens], d)
    total = sum(w for _, w, _ in blocks)
    if total == 0:
        return Subspace.zero(field, 0)
    matrix = [[field.zero] * total for _ in range(ring.dim(d))]
    for g, (start, w, e) in zip(gens, blocks):
        if w:  # an empty block would only fill _product_step's cache
            for m, c in g.terms.items():
                for j, t in enumerate(_product_step(ring.weights, m, e), start):
                    matrix[t][j] = c
    return kernel(field, matrix, total)


def _minimal_syzygies(ideal: GradedIdeal, mingens, top: int) -> dict:
    """Minimal first syzygies of ``mingens`` in degrees <= ``top``, as
    degree -> rows in the blocked coordinates of ``syzygies_at_degree``.

    Each degree is decided by one ``rings._forward`` basis, as
    ``duality._uncovered`` decides generators.  The multiples x_j Syz_{d - w_j}
    fill it up to dim Syz_d = sum_i dim R_{d - d_i} - dim I_d.  Only when
    they fall short is Syz_d solved for, and its rows that extend the basis
    are the minimal syzygies.  The basis rows, a basis of Syz_d in no
    canonical form, seed the multiples one weight up.
    """
    ring, field = ideal.ring, ideal.ring.field
    degs = [d for d, _ in mingens]
    polys = [g for _, g in mingens]
    syz = {}
    minimal = {}
    for d in range(min(degs), top + 1):
        dim_I = ideal.pieces[d].dim if d < ideal.bound else ring.dim(d)
        target = sum(w for _, w, _ in _free_blocks(ring, degs, d)) - dim_I
        if target == 0:
            continue
        basis = []
        _forward(field, basis, _multiples(ring, syz, d, degs), target)
        if len(basis) < target:
            minimal[d] = _forward(field, basis, syzygies_at_degree(polys, d).rows, target)
        syz[d] = [row for _, row in basis]
    return minimal


def _syzygy_top(ring, s: int, cutoff: int) -> int:
    """``cutoff``, lowered to the top degree in which a minimal syzygy can
    live: Tor_2(C, k)_d is a subquotient of the Koszul term
    ⊕_{a<b} C_{d - w_a - w_b}, which vanishes above s plus the two largest
    weights."""
    return min(cutoff, s + sum(sorted(ring.weights)[-2:]))


# ---------------------------------------------------------------------------
# Graded Hom dimensions.


@dataclass(frozen=True)
class TangentProfile:
    """Graded dimensions of Hom(I, C) together with the negative-part tally."""

    generator_degrees: tuple
    socle_degree: int
    nvars: int
    dims: dict
    negative_total: int

    def dim(self, v: int) -> int:
        return self.dims.get(v, 0)

    @property
    def total(self) -> int:
        return sum(self.dims.values())

    @property
    def tnt(self) -> bool:
        """Trivial negative tangents: nothing below degree 0 beyond the
        r directions given by contraction with the variables."""
        return self.negative_total == self.nvars


def _hom_dim(C: QuotientRing, mingens, minsyz: dict, v: int, cutoff: int) -> int:
    """dim T_v: tuples (c_i) in ⊕_i C_{d_i + v} that every minimal syzygy
    (a_i) up to ``cutoff`` sends to sum a_i c_i = 0, the rows of each
    relation being its blocks a_i as multiplication matrices on C."""
    ring = C.ring
    degs = [d for d, _ in mingens]
    total = sum(C.dim(d + v) for d in degs)
    if total == 0:
        return 0
    rows = []
    for d, syz in minsyz.items():
        if d > cutoff or C.dim(d + v) == 0:
            continue
        split = _free_blocks(ring, degs, d)
        for rel in syz:
            blocks = [
                C.combination_matrix(zip(ring.monomials(e), rel[start : start + w]), e, dg + v)
                for (start, w, e), dg in zip(split, degs)
            ]
            for parts in zip(*blocks):
                row = sum(parts, ())
                if any(row):
                    rows.append(row)
    return total - matrix_rank(ring.field, rows, total) if rows else total


def tangent_dim(ideal: GradedIdeal, v: int, cutoff: int | None = None) -> int:
    """dim Hom(I, C)_v; ``cutoff`` overrides the syzygy degree bound s - v,
    which is already complete because C vanishes above its socle degree."""
    C = QuotientRing(ideal)
    s = C.top_degree()
    if cutoff is None:
        cutoff = s - v
    mingens = minimal_generators(ideal)
    minsyz = _minimal_syzygies(ideal, mingens, _syzygy_top(ideal.ring, s, cutoff))
    return _hom_dim(C, mingens, minsyz, v, cutoff)


def hom_dims(ideal: GradedIdeal, v_range=None) -> TangentProfile:
    """The tangent profile of C = R/I.

    Maps of degree v < -max d_i would send some generator into a negative
    piece of C, so the profile starts at -max d_i; it ends at s - min d_i,
    above which every target piece is zero.  The negative tally is always
    taken over the full window [-max d_i, -1] regardless of ``v_range``.
    """
    C = QuotientRing(ideal)
    return _profile(C, C.top_degree(), minimal_generators(ideal), v_range)


def _profile(C: QuotientRing, s: int, mingens, v_range) -> TangentProfile:
    ideal = C.ideal
    degs = [d for d, _ in mingens]
    lo, hi = -max(degs), s - min(degs)
    if v_range is None:
        v_range = range(lo, hi + 1)
    wanted = sorted(set(v_range) | set(range(lo, 0)))
    minsyz = _minimal_syzygies(ideal, mingens, _syzygy_top(ideal.ring, s, s - lo))
    dims = {v: _hom_dim(C, mingens, minsyz, v, s - v) for v in wanted}
    negative_total = sum(dims[v] for v in range(lo, 0))
    shown = {v: dims[v] for v in sorted(v_range)}
    return TangentProfile(
        generator_degrees=tuple(degs),
        socle_degree=s,
        nvars=ideal.ring.nvars,
        dims=shown,
        negative_total=negative_total,
    )


def tnt_verdict(ideal: GradedIdeal) -> bool:
    """Whether C = R/I has trivial negative tangents."""
    return hom_dims(ideal, v_range=()).tnt


# ---------------------------------------------------------------------------
# The I/I^2 route for Gorenstein quotients.


def squared_ideal_dim(ideal: GradedIdeal, mingens, e: int) -> int:
    """dim (I/I^2)_e, with (I^2)_e the degree-e piece of the ideal generated
    by the pairwise generator products of degree at most e."""
    return _conormal_dims(ideal, mingens, [e])[e]


def _conormal_dims(ideal: GradedIdeal, mingens, degrees) -> dict:
    """e -> dim (I/I^2)_e over ``degrees``, from one ``from_generators`` pass
    that builds I^2 up to the largest e out of the pairwise generator
    products of degree at most that e."""
    ring, top = ideal.ring, max(degrees)
    pairs = combinations_with_replacement(mingens, 2)
    products = [gi * gj for (di, gi), (dj, gj) in pairs if di + dj <= top]
    square = GradedIdeal.from_generators(ring, products, top + 1)
    dims = {}
    for e in degrees:
        if ring.dim(e) == 0:
            dims[e] = 0
        elif e < ideal.bound:
            dims[e] = ideal.piece(e).dim - square.piece(e).dim
        elif ideal.artinian_certified:
            dims[e] = ring.dim(e) - square.piece(e).dim
        else:
            raise BoundExceededError(f"degree {e} beyond truncation bound {ideal.bound}")
    return dims


@dataclass(frozen=True)
class CrosscheckReport:
    """Tangent dimensions computed twice for a Gorenstein quotient: through
    syzygies and through I/I^2 paired across the socle degree."""

    socle_degree: int
    rows: tuple  # (v, dim T_v, dim (I/I^2)_{s-v})
    agree: bool


def gorenstein_tangent_crosscheck(ideal: GradedIdeal, s: int | None = None) -> CrosscheckReport:
    """Check dim T_v = dim (I/I^2)_{s-v} across the full profile window.

    Self-duality of a Gorenstein quotient identifies C with its shifted dual,
    and Hom(I, C) = Hom(I/I^2, C) since maps to C kill I^2; together these
    turn the tangent piece at v into the plain linear dual of (I/I^2)_{s-v}.
    """
    if not is_gorenstein(ideal):
        raise MathDomainError("quotient is not Gorenstein")
    C = QuotientRing(ideal)
    mingens = minimal_generators(ideal)
    profile = _profile(C, C.top_degree(), mingens, None)
    if s is None:
        s = profile.socle_degree
    elif s != profile.socle_degree:
        raise MathDomainError(
            f"socle degree is {profile.socle_degree}, not {s}"
        )
    conormal = _conormal_dims(ideal, mingens, [s - v for v in profile.dims])
    rows = tuple((v, profile.dims[v], conormal[s - v]) for v in sorted(profile.dims))
    return CrosscheckReport(
        socle_degree=s, rows=rows, agree=all(t == c for _, t, c in rows)
    )


# ---------------------------------------------------------------------------
# Elementary-component dimension reports.


@dataclass(frozen=True)
class ElementaryReport:
    """Dimension count of the elementary family against the principal one.

    ``elementary`` is F + r: the fibration of the graded family (dimension F)
    by the r translations.  ``principal`` is d*r, the dimension of the locus
    of d points in r-space, d the length of the compressed quotient.  A
    strict inequality either way is decisive: elementary < principal flags a
    small component, elementary > principal shows the generic member of the
    family cannot be smoothed.
    """

    t: IntSeq
    nvars: int
    H: int
    R: int
    F: int
    length: int
    elementary: int
    principal: int
    small_component: bool
    generic_nonsmoothable: bool
    E: int | None


def elementary_report(t, r: int) -> ElementaryReport:
    """Compare F + r with d*r for the compressed family of socle type t in
    r variables; t must be permissible for the count to mean anything."""
    from math import comb

    rep = i_set(t, lambda p: comb(p + r - 1, r - 1))
    verdict = is_permissible(rep)
    if not verdict.permissible:
        raise MathDomainError(
            f"socle type is not permissible (clause {verdict.failing_clause})"
        )
    dims = dimension_formulas(rep, nvars=r)
    return ElementaryReport(
        t=rep.t,
        nvars=r,
        H=dims.H,
        R=dims.R,
        F=dims.F,
        length=rep.beta,
        elementary=dims.elementary,
        principal=dims.principal,
        small_component=dims.elementary < dims.principal,
        generic_nonsmoothable=dims.elementary > dims.principal,
        E=dims.E,
    )
