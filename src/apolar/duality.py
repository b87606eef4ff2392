"""Macaulay duality between ideals and inverse systems.

The graded dual of A = k[X_1..X_r] is modeled on Laurent "inverse
monomials": the degree-(-n) piece of the dual has basis {1/M} for M the
monomials of weighted degree n, and a monomial L acts by contraction,
L * (1/M) = 1/(M/L) when L divides M and 0 otherwise.  An ideal I with
Artinian quotient and a finitely generated submodule D of the dual
determine each other as mutual annihilators; this module computes both
directions, their filtered (non-homogeneous) versions, and the associated
graded of each side.  Both annihilators are degreewise perps: for D closed
under contraction, I_p = (D_{-p})^perp and D_{-p} = (I_p)^perp under the
pairing of M with 1/M, and in a truncation the filtered ideal of a cyclic
F is the perp of the span of its contractions.

Free-module duals are supported through shift vectors: the dual of
B = A(q_1) + ... + A(q_t) has degree-n basis {(j, 1/M) : wdeg M = q_j - n},
component-major.  Shifts are normalized so the smallest is 0.

Contraction by X_i is the transpose of multiplication, read off
``rings._var_step``, the variable case of the one monomial index map
``rings._product_step``: in each component, coordinate j of the
contracted vector, for the j-th monomial M of degree q_j - n - w_i, is the
coordinate of M * X_i, at ``_var_step(weights, i, q_j - n - w_i)[j]``.  The
matrix of contraction by a monomial L on a dual element f, L -> L . f, is
the catalecticant of f, a gather of f's coefficients through
``rings._product_step``.  On C = A/I every multiplication matrix gathers
one normal-form table of the target degree, read off the echelon form of
I there, through the same map.

Minimal generators on both sides, graded and filtered, generator types and
link generator counts come from one decision, ``_uncovered``: the rows of a
piece that the raw variable multiples or contractions from below miss.
"""

from __future__ import annotations

import functools

from .rings import (
    BoundExceededError,
    GradedRing,
    MathDomainError,
    Polynomial,
    Subspace,
    TruncatedAlgebra,
    _Terms,
    _forward,
    _monomials_by_degree,
    _product_step,
    _proves_rank,
    _sub_multiple,
    _var_step,
    echelon,
    matrix_rank,
    rref,
    truncate_algebra,
)


@functools.lru_cache(maxsize=None)
def _dual_basis(weights: tuple, shifts: tuple, n: int) -> tuple:
    """Canonical basis of the degree-n piece of the shifted dual module."""
    out = []
    for j, q in enumerate(shifts):
        out.extend((j, m) for m in _monomials_by_degree(weights, q - n))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _dual_positions(weights: tuple, shifts: tuple, n: int) -> dict:
    return {bm: i for i, bm in enumerate(_dual_basis(weights, shifts, n))}


def dual_dim(ring: GradedRing, shifts: tuple, n: int) -> int:
    return len(_dual_basis(ring.weights, shifts, n))


class InverseElement(_Terms):
    """An element of the graded dual of A (or of a shifted free module).

    Terms map (component, inverse monomial) to a coefficient; a term in
    component j with monomial M sits in degree shifts[j] - wdeg(M).  For the
    rank-one dual of A itself, terms may be given by bare exponent tuples.
    """

    __slots__ = ("shifts",)
    _noun = "dual element"

    def __init__(self, ring: GradedRing, terms=(), shifts=(0,)):
        shifts = tuple(shifts)
        if shifts and min(shifts) != 0:
            raise ValueError("shifts must be normalized with smallest shift 0")
        self.shifts = shifts
        super().__init__(ring, terms)

    @property
    def _ambient(self):
        return (self.ring, self.shifts)

    def _key(self, key):
        if len(key) == 2 and isinstance(key[1], tuple):
            j, m = key
        else:
            j, m = 0, tuple(key)
        if not (0 <= j < len(self.shifts)) or len(m) != self.ring.nvars or any(e < 0 for e in m):
            raise ValueError(f"bad dual term key {key!r}")
        return (j, m)

    def term_degree(self, key) -> int:
        j, m = key
        return self.shifts[j] - self.ring.wdeg(m)

    def _print_key(self, key):
        return (-self.term_degree(key),) + key

    def _term_str(self, key, c) -> str:
        j, m = key
        body = self._body(self.ring.monomial_str(m, inverse=True), c)
        if len(self.shifts) == 1:
            return body
        sign, body = ("-", body[1:]) if body.startswith("-") else ("", body)
        return f"{sign}e{j}" if body == "1" else f"{sign}e{j}*{body}"

    @classmethod
    def inverse_monomial(cls, ring: GradedRing, expts, coeff=1) -> "InverseElement":
        return cls(ring, {tuple(expts): coeff})

    def support_degrees(self) -> tuple:
        return tuple(sorted({self.term_degree(k) for k in self.terms}))

    def coefficient_vector(self, n: int) -> tuple:
        field = self.ring.field
        pos = _dual_positions(self.ring.weights, self.shifts, n)
        vec = [field.zero] * len(pos)
        for k, c in self.terms.items():
            if self.term_degree(k) != n:
                raise MathDomainError("dual element has terms outside the requested degree")
            vec[pos[k]] = c
        return tuple(vec)

    @classmethod
    def from_vector(cls, ring: GradedRing, n: int, vec, shifts=(0,)) -> "InverseElement":
        basis = _dual_basis(ring.weights, tuple(shifts), n)
        return cls(ring, {bm: c for bm, c in zip(basis, vec)}, tuple(shifts))

    def scale(self, c) -> "InverseElement":
        f = self.ring.field
        c = f.of(c)
        return self._like({k: f.mul(c, v) for k, v in self.terms.items()})

    def __repr__(self):
        return f"<dual {self}>"


def contract(psi: Polynomial, f: InverseElement) -> InverseElement:
    """Contraction action of a polynomial on a dual element.

    A monomial L sends 1/M to 1/(M/L) when L divides M and to 0 otherwise;
    the action extends bilinearly and componentwise.
    """
    if psi.ring != f.ring:
        raise ValueError("ring mismatch")
    field = psi.ring.field
    out = {}
    for lm, c in psi.terms.items():
        for (j, m), d in f.terms.items():
            if all(a <= b for a, b in zip(lm, m)):
                key = (j, tuple(b - a for a, b in zip(lm, m)))
                v = field.mul(c, d)
                out[key] = field.add(out[key], v) if key in out else v
    return InverseElement(f.ring, out, f.shifts)


def _contract_step(ring: GradedRing, shifts: tuple, n: int, i: int, vec):
    """Contract a degree-n dual coordinate vector by variable i: a gather
    through ``_var_step`` in each component's block."""
    out = []
    start = 0
    for q in shifts:
        out.extend(vec[start + t] for t in _var_step(ring.weights, i, q - n - ring.weights[i]))
        start += ring.dim(q - n)
    return tuple(out)


class InverseSystem:
    """A graded, contraction-closed submodule of the (shifted) dual.

    ``pieces`` maps each degree n to a canonical Subspace of the dual's
    degree-n piece; degrees outside the stored range are zero.
    """

    __slots__ = ("ring", "shifts", "pieces")

    def __init__(self, ring: GradedRing, pieces: dict, shifts=(0,)):
        self.ring = ring
        self.shifts = tuple(shifts)
        self.pieces = {n: s for n, s in sorted(pieces.items())}

    def piece(self, n: int) -> Subspace:
        got = self.pieces.get(n)
        if got is not None:
            return got
        return Subspace.zero(self.ring.field, dual_dim(self.ring, self.shifts, n))

    def dims(self) -> dict:
        return {n: s.dim for n, s in self.pieces.items() if s.dim}

    def support(self) -> tuple:
        return tuple(sorted(n for n, s in self.pieces.items() if s.dim))

    def socle_degree(self) -> int:
        """Largest q with a nonzero piece in degree -q."""
        supp = self.support()
        if not supp:
            raise MathDomainError("zero module")
        return -supp[0]

    def is_contraction_closed(self) -> bool:
        targets = sorted({n + w for n in self.pieces for w in self.ring.weights})
        return all(
            self.piece(n).contains(row)
            for n in targets
            for row in _contractions(self.ring, self.shifts, self.pieces, n)
        )

    def elements(self, n: int):
        """Basis of the degree-n piece as InverseElements."""
        return [
            InverseElement.from_vector(self.ring, n, row, self.shifts)
            for row in self.piece(n).rows
        ]

    def __eq__(self, other):
        if not isinstance(other, InverseSystem):
            return NotImplemented
        if self.ring != other.ring or self.shifts != other.shifts:
            return False
        degs = set(self.pieces) | set(other.pieces)
        return all(self.piece(n) == other.piece(n) for n in degs)

    def __repr__(self):
        return f"<InverseSystem dims {self.dims()}>"


def generated_submodule(gens, lo: int | None = None) -> InverseSystem:
    """The A-submodule of the dual generated by homogeneous dual elements.

    Computed degreewise from the most negative degree up: each piece is the
    span of the matching generator components plus single-variable
    contractions of the piece one weight below.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise MathDomainError("no nonzero generators")
    ring, shifts = gens[0].ring, gens[0].shifts
    for g in gens:
        if g.ring != ring or g.shifts != shifts:
            raise ValueError("generators live in different ambients")
        if not g.is_homogeneous():
            raise MathDomainError(
                "generators must be homogeneous; use filtered_dual for the rest"
            )
    bottom = min(g.degree() for g in gens)
    if lo is None:
        lo = bottom
    if lo > bottom:
        raise BoundExceededError(f"range must reach the bottom generator degree {bottom}")
    by_degree = {}
    for g in gens:
        by_degree.setdefault(g.degree(), []).append(g.coefficient_vector(g.degree()))
    return InverseSystem(ring, _generated_pieces(ring, shifts, by_degree, lo), shifts)


def _contractions(ring: GradedRing, shifts: tuple, pieces: dict, n: int):
    """The contractions into degree n, by each variable X_i, of the rows of
    the piece in degree n - w_i; degrees missing from ``pieces`` are zero."""
    for i, w in enumerate(ring.weights):
        below = pieces.get(n - w)
        if below is not None:
            yield from (_contract_step(ring, shifts, n - w, i, r) for r in below.rows)


def _generated_pieces(ring: GradedRing, shifts: tuple, seeds: dict, lo: int) -> dict:
    """Pieces, from degree lo up to the top shift, of the submodule generated
    by the rows of ``seeds`` (degree -> coordinate rows)."""
    pieces = {}
    for n in range(lo, max(shifts) + 1):
        rows = [*seeds.get(n, ()), *_contractions(ring, shifts, pieces, n)]
        pieces[n] = echelon(ring.field, rows, dual_dim(ring, shifts, n))
    return pieces


def _uncovered(field, moved, rows) -> list:
    """The rows, in order, that complete span(moved) to span(rows): the
    generators of a piece, ``moved`` being the action from one weight below.

    Every caller's invariants make the rows independent with span(moved) in
    their span, as the counts of ``generator_type`` and ``linkage`` assume;
    so an empty piece needs no elimination, and moved rows of rank len(rows)
    leave nothing to complete.  Over QQ that rank is first certified mod
    2^61 - 1 (``rings._proves_rank``), with no Fraction elimination.  When
    it fails, one ``_forward`` basis decides, with no echelon form: it takes
    the moved rows up to rank len(rows) and, if they fall short, the rows
    that extend it are the answer."""
    if not rows:
        return []
    moved = list(moved)
    if field.p is None and _proves_rank(moved, len(rows)):
        return []
    basis = []
    _forward(field, basis, moved, len(rows))
    return [] if len(basis) == len(rows) else _forward(field, basis, rows)


def catalecticant_matrix(f: InverseElement, p: int):
    """Matrix of multiplication by a homogeneous dual element f of degree -s,
    as a map from the degree-(p+s) piece of A to the degree-p piece of the
    dual.  Entry (u, v) is the coefficient of f on 1/(M_u * L_v): row u
    gathers f's coefficient vector through ``_product_step`` of M_u.
    """
    if len(f.shifts) != 1:
        raise MathDomainError("catalecticants are for rank-one duals")
    s = -f.degree()
    vec, weights = f.coefficient_vector(-s), f.ring.weights
    return tuple(
        tuple(vec[k] for k in _product_step(weights, mu, p + s)) for mu in f.ring.monomials(-p)
    )


class GradedIdeal:
    """A homogeneous ideal of A given degreewise within a truncation bound.

    ``saturated_from`` is the start of the verified full tail (I_d = A_d for
    saturated_from <= d < bound), or None when the bound never saturates.
    The tail certifies an Artinian quotient only when it is at least one
    full weight-span long; ``artinian_certified`` checks that.
    """

    __slots__ = ("ring", "bound", "pieces", "saturated_from")

    def __init__(self, ring: GradedRing, bound: int, pieces: dict):
        self.ring = ring
        self.bound = bound
        self.pieces = {d: pieces[d] for d in range(bound) if d in pieces}
        for d in range(bound):
            if d not in self.pieces:
                self.pieces[d] = Subspace.zero(ring.field, ring.dim(d))
        start = bound
        for d in range(bound - 1, -1, -1):
            if self.pieces[d].dim == ring.dim(d):
                start = d
            else:
                break
        self.saturated_from = start if start < bound else None

    @classmethod
    def from_generators(cls, ring: GradedRing, gens, bound: int) -> "GradedIdeal":
        gens = [g for g in gens if not g.is_zero()]
        for g in gens:
            if not g.is_homogeneous():
                raise MathDomainError(
                    "generators must be homogeneous; use FilteredIdeal for the rest"
                )
        degs = [g.degree() for g in gens]
        pieces, rows = {}, {}
        for d in range(bound):
            seeds = [g.coefficient_vector(d) for g, e in zip(gens, degs) if e == d]
            pieces[d] = echelon(ring.field, seeds + [*_multiples(ring, rows, d)], ring.dim(d))
            rows[d] = pieces[d].rows
        return cls(ring, bound, pieces)

    def piece(self, d: int) -> Subspace:
        if d < 0:
            return Subspace.zero(self.ring.field, 0)
        if d >= self.bound:
            raise BoundExceededError(f"degree {d} beyond truncation bound {self.bound}")
        return self.pieces[d]

    @property
    def artinian_certified(self) -> bool:
        return (
            self.saturated_from is not None
            and self.bound - self.saturated_from >= max(self.ring.weights)
        )

    def quotient_dim(self, d: int) -> int:
        if d < 0:
            return 0
        if d >= self.bound:
            if self.artinian_certified:
                return 0
            raise BoundExceededError(f"degree {d} beyond truncation bound {self.bound}")
        return self.ring.dim(d) - self.pieces[d].dim

    def contains(self, f: Polynomial) -> bool:
        return all(
            self.piece(d).contains(part.coefficient_vector(d))
            for d, part in f.homogeneous_components().items()
        )

    def is_multiplication_closed(self) -> bool:
        rows = {d: s.rows for d, s in self.pieces.items()}
        return all(
            self.pieces[d].contains(row)
            for d in range(self.bound)
            for row in _multiples(self.ring, rows, d)
        )

    def __eq__(self, other):
        if not isinstance(other, GradedIdeal):
            return NotImplemented
        common = min(self.bound, other.bound)
        return (
            self.ring == other.ring
            and all(self.pieces[d] == other.pieces[d] for d in range(common))
        )

    def __repr__(self):
        dims = {d: s.dim for d, s in self.pieces.items()}
        return f"<GradedIdeal dims {dims} bound {self.bound}>"


def _free_blocks(ring: GradedRing, shifts, d: int) -> tuple:
    """Layout of degree d of the free module ⊕_j A(-shifts[j]): one
    (start, width, e) per summand, whose block runs over the monomials of
    degree e = d - shifts[j] in ring order (empty when e < 0)."""
    out = []
    start = 0
    for q in shifts:
        width = ring.dim(d - q)
        out.append((start, width, d - q))
        start += width
    return tuple(out)


def _multiples(ring: GradedRing, rows: dict, d: int, shifts=(0,)):
    """The multiples in degree d, by each variable X_i, of ``rows[d - w_i]``
    (no rows if that degree is missing), in the free module
    ⊕_j A(-shifts[j]) laid out by ``_free_blocks``; the default is A.  X_i
    sends distinct monomials to distinct ones, one slot per entry."""
    target = _free_blocks(ring, shifts, d)
    ncols = sum(width for _, width, _ in target)
    for i, w in enumerate(ring.weights):
        below = rows.get(d - w)
        if below is not None:
            steps = tuple(
                start + t
                for (start, _, e) in target
                for t in _var_step(ring.weights, i, e - w)
            )
            for r in below:
                out = [ring.field.zero] * ncols
                for c, t in zip(r, steps):
                    out[t] = c
                yield out


def _certifying_bound(ring: GradedRing, s: int) -> int:
    """The default truncation bound for a dual of socle degree s: s plus 1
    plus the largest weight, the least that certifies an Artinian quotient,
    since I_d = A_d for d > s and the full tail must be one weight-span
    long."""
    return s + 1 + max(ring.weights)


def apolar_annihilator(ideal: GradedIdeal) -> InverseSystem:
    """The inverse system (0 : I) in the dual: degreewise the perp of I_p."""
    if not ideal.artinian_certified:
        raise BoundExceededError(
            "quotient not Artinian within the truncation bound; raise the bound"
        )
    pieces = {}
    for p in range(ideal.bound):
        pieces[-p] = ideal.pieces[p].perp()
    return InverseSystem(ideal.ring, pieces)


def annihilator_of_submodule(D: InverseSystem, bound: int | None = None) -> GradedIdeal:
    """The ideal (0 : D) of everything annihilating a graded dual submodule.

    D must be contraction-closed, as every InverseSystem is meant to be.
    Then psi of degree p kills all of D exactly when it kills D_{-p}, since
    the coefficient of 1/M in psi . f is the pairing of psi with M . f, which
    lies in D_{-p}: so I_p is the perp of D_{-p}.  The bound defaults to
    ``_certifying_bound``.
    """
    if len(D.shifts) != 1:
        raise MathDomainError("annihilator ideals are computed in rank one")
    if bound is None:
        supp = D.support()
        bound = _certifying_bound(D.ring, -min(supp) if supp else 0)
    return GradedIdeal(D.ring, bound, {p: D.piece(-p).perp() for p in range(bound)})


# ---------------------------------------------------------------------------
# Filtered (non-homogeneous) duality inside a truncation.


class FilteredIdeal:
    """An ideal of the truncated algebra, one subspace of the total space,
    closed under multiplication by every variable mod the bound."""

    __slots__ = ("algebra", "space")

    def __init__(self, algebra: TruncatedAlgebra, space: Subspace):
        self.algebra = algebra
        self.space = space

    @classmethod
    def from_generators(cls, algebra: TruncatedAlgebra, gens) -> "FilteredIdeal":
        """The ideal of the truncation generated by ``gens``: the span of every
        monomial multiple of every generator."""
        rows = [
            row
            for g in gens
            if not g.is_zero()
            for row in _monomial_orbit(algebra, algebra.vector_of(g), algebra.multiply_by_var)
        ]
        return cls(algebra, echelon(algebra.ring.field, rows, algebra.total_dim))

    def quotient_total_dim(self) -> int:
        return self.algebra.total_dim - self.space.dim

    def is_multiplication_closed(self) -> bool:
        return all(
            self.space.contains(self.algebra.multiply_by_var(i, r))
            for i in range(self.algebra.ring.nvars)
            for r in self.space.rows
        )

    def contains(self, f: Polynomial) -> bool:
        return self.space.contains(self.algebra.vector_of(f))

    def contains_top_degree(self) -> bool:
        """Whether the whole top-degree piece of the truncation lies in the
        ideal, the visible sign of an Artinian quotient within the bound.

        Rows of the echelon basis with their pivot in the top block vanish
        on every lower block, so they span the ideal's part of that block.
        """
        top = self.algebra.offsets[-1]
        return sum(1 for c in self.space.pivots if c >= top) == self.algebra.dims[-1]


def _filtered_generators(algebra: TruncatedAlgebra, rows, act, element_of) -> list:
    """The rows, as elements, that the images of all rows under ``act(i, .)``
    for every variable X_i do not span."""
    moved = (act(i, r) for r in rows for i in range(algebra.ring.nvars))
    return [element_of(r) for r in _uncovered(algebra.ring.field, moved, rows)]


def filtered_minimal_generators(ideal: FilteredIdeal) -> list:
    """Minimal generators of a truncated filtered ideal: the echelon basis
    rows that the variable multiples of the ideal do not span."""
    alg = ideal.algebra
    return _filtered_generators(alg, ideal.space.rows, alg.multiply_by_var, alg.polynomial_of)


def filtered_dual_generators(ideal: FilteredIdeal) -> list:
    """Minimal generators of the dual module annihilated by a filtered ideal:
    the basis rows of the perp space that its variable contractions do not
    span."""
    alg = ideal.algebra
    return _filtered_generators(
        alg, ideal.space.perp().rows, alg.contract_by_var, functools.partial(dual_element_of, alg)
    )


class FilteredDual:
    """A submodule of the dual of a truncated algebra: a subspace of the
    total dual space (blocks indexed by |degree|)."""

    __slots__ = ("algebra", "space")

    def __init__(self, algebra: TruncatedAlgebra, space: Subspace):
        self.algebra = algebra
        self.space = space


def dual_vector_of(algebra: TruncatedAlgebra, f: InverseElement):
    """Total-dual-space vector of an element with support above -bound: 1/M
    sits in the slot of M in ``algebra.vector_of``."""
    if len(f.shifts) != 1:
        raise MathDomainError("filtered duals are rank one")
    for n in map(f.term_degree, f.terms):
        if -n >= algebra.bound:
            raise BoundExceededError(f"dual degree {n} below truncation window")
    return algebra.vector_of(Polynomial(algebra.ring, {m: c for (_, m), c in f.terms.items()}))


def dual_element_of(algebra: TruncatedAlgebra, vec) -> InverseElement:
    return InverseElement(algebra.ring, algebra.polynomial_of(vec).terms)


def _monomial_orbit(algebra: TruncatedAlgebra, vec, act) -> list:
    """The images of a total-space vector under every monomial L of the
    truncation, degree-major in monomial order.  ``act(i, v)`` applies X_i;
    the image under L is ``act(i, .)`` of the image under L / X_i one weight
    below, for the first X_i whose ``_var_step`` reaches L."""
    weights = algebra.ring.weights
    orbit = [[vec]]
    for d in range(1, algebra.bound):
        got = [None] * algebra.dims[d]
        for i, w in enumerate(weights):
            for j, t in enumerate(_var_step(weights, i, d - w)):
                if got[t] is None:
                    got[t] = act(i, orbit[d - w][j])
        orbit.append(got)
    return [v for block in orbit for v in block]


def filtered_dual(F: InverseElement, bound: int | None = None):
    """The cyclic filtered dual module A.F and its annihilator ideal.

    Returns (D, I) where D spans all contractions L . F in the truncated
    dual and I = {psi : psi . F = 0} inside the truncated algebra.  The
    coefficient of 1/M in psi . F is the pairing of psi with M . F, so I is
    the perp of D.  The bound defaults to ``_certifying_bound``.
    """
    if F.is_zero():
        raise MathDomainError("zero dual generator")
    if bound is None:
        bound = _certifying_bound(F.ring, max(-n for n in F.support_degrees()))
    algebra = truncate_algebra(F.ring, bound)
    moved = _monomial_orbit(algebra, dual_vector_of(algebra, F), algebra.contract_by_var)
    space = echelon(F.ring.field, moved, algebra.total_dim)
    return FilteredDual(algebra, space), FilteredIdeal(algebra, space.perp())


def _initial_form_pieces(field, widths, rows, pivots) -> list:
    """Spans of initial forms, block by block, read off one echelon form.

    ``rows`` and ``pivots`` are a reduced echelon form whose columns run
    block by block, leading block first, with ``widths`` the block widths.
    A row with its pivot in block k vanishes on the blocks before it, so
    those rows span the elements that start in block k, and their block-k
    parts, already reduced, span the initial forms there.
    """
    pieces = []
    start = k = 0
    for width in widths:
        end, first = start + width, k
        while k < len(pivots) and pivots[k] < end:
            k += 1
        block = (
            tuple(r[start:end] for r in rows[first:k]),
            tuple(c - start for c in pivots[first:k]),
        )
        pieces.append(Subspace(field, width, _canonical=block))
        start = end
    return pieces


def associated_graded_ideal(ideal: FilteredIdeal) -> GradedIdeal:
    """Degreewise spans of initial forms (lowest-degree parts) of the ideal.

    The ideal's echelon basis already runs lowest degree first."""
    algebra = ideal.algebra
    space = ideal.space
    pieces = _initial_form_pieces(algebra.ring.field, algebra.dims, space.rows, space.pivots)
    return GradedIdeal(algebra.ring, algebra.bound, dict(enumerate(pieces)))


def associated_graded_submodule(D: FilteredDual) -> InverseSystem:
    """Degreewise spans of initial forms of a filtered dual submodule.

    On the dual side the filtration runs toward more negative degrees, so
    the initial form of an element is its most negative homogeneous part;
    the echelon form is taken with the blocks in reverse order.
    """
    algebra = D.algebra
    field = algebra.ring.field
    order = range(algebra.bound - 1, -1, -1)
    cols = [algebra.offsets[q] + j for q in order for j in range(algebra.dims[q])]
    rows, pivots = rref(field, [[r[c] for c in cols] for r in D.space.rows], len(cols))
    pieces = _initial_form_pieces(field, [algebra.dims[q] for q in order], rows, pivots)
    return InverseSystem(algebra.ring, {-q: s for q, s in zip(order, pieces)})


# ---------------------------------------------------------------------------
# Quotient structure and equivariant Hom.


class QuotientRing:
    """C = A/I with canonical coordinates: in each degree, the monomials at
    the non-pivot columns of I's echelon basis represent a basis of C.

    Every multiplication matrix is read off one normal-form table per degree
    D, memoized: the coordinates in C_D of each monomial of degree D.  It
    comes straight from the reduced echelon form of I_D, with no
    elimination: a basis monomial is its own unit vector, and the monomial
    at the pivot of row r is minus row r at the basis columns.  Multiplying
    by x^m sends the basis monomial u of C_d to the table row of x^m * u,
    found through ``rings._product_step``."""

    __slots__ = ("ideal", "ring", "bound", "_forms")

    def __init__(self, ideal: GradedIdeal):
        self.ideal = ideal
        self.ring = ideal.ring
        self.bound = ideal.bound
        self._forms = {}

    def dim(self, d: int) -> int:
        return self.ideal.quotient_dim(d)

    def basis_positions(self, d: int) -> tuple:
        return self.ideal.piece(d).nonpivots()

    def reduce(self, d: int, vec) -> tuple:
        """Quotient coordinates of an ambient degree-d coefficient vector."""
        red = self.ideal.piece(d).reduce(vec)
        return tuple(red[c] for c in self.basis_positions(d))

    def _normal_forms(self, d: int) -> tuple:
        """The quotient coordinates of every monomial of degree d, in ring
        order (see the class docstring)."""
        if d not in self._forms:
            field, piece = self.ring.field, self.ideal.piece(d)
            basis, rows = piece.nonpivots(), dict(zip(piece.pivots, piece.rows))
            eye = iter(Subspace.full(field, len(basis)).rows)
            self._forms[d] = tuple(
                tuple(field.neg(rows[k][b]) for b in basis) if k in rows else next(eye)
                for k in range(piece.ncols)
            )
        return self._forms[d]

    def combination_matrix(self, terms, e: int, d: int):
        """Matrix from C_d to C_{d+e} of multiplication by the sum of c * x^m
        over ``terms``, pairs (m, c) with m of degree e: column j sums c
        times the table row of x^m times the j-th basis monomial."""
        target = self.dim(d + e)
        if not (target and self.dim(d)):
            return ((),) * target
        field, weights = self.ring.field, self.ring.weights
        steps = [(_product_step(weights, m, d), c) for m, c in terms if c != 0]
        forms, zero = self._normal_forms(d + e), (field.zero,) * target
        cols = []
        for b in self.basis_positions(d):
            acc = zero
            for step, c in steps:
                acc = _sub_multiple(field.p, acc, -c, forms[step[b]])
            cols.append(acc)
        return tuple(zip(*cols))

    def var_matrix(self, i: int, d: int):
        """Matrix of multiplication by variable i from C_d to C_{d+w_i}."""
        unit = tuple(int(k == i) for k in range(self.ring.nvars))
        return self.combination_matrix([(unit, self.ring.field.one)], self.ring.weights[i], d)

    def mult_matrix(self, f: Polynomial, d: int):
        """Matrix of multiplication by a homogeneous f from C_d to C_{d+deg f}."""
        return self.combination_matrix(f.terms.items(), f.degree(), d)

    def top_degree(self) -> int:
        tops = [d for d in range(self.bound) if self.dim(d)]
        if not tops:
            raise MathDomainError("zero quotient")
        return max(tops)


def hom_into_dual_dims(ideal: GradedIdeal, p: int) -> int:
    """dim of the degree-p equivariant maps from C = A/I into the dual of A.

    Solved directly as a linear system in the graded components of the map;
    must agree with the dimension of the apolar annihilator in degree p.
    """
    C = QuotientRing(ideal)
    ring = ideal.ring
    field = ring.field
    degs = [d for d in range(ideal.bound) if C.dim(d)]
    if not ideal.artinian_certified:
        raise BoundExceededError("quotient not Artinian within bound")

    def dual_d(e: int) -> int:
        return ring.dim(-e)

    offsets = {}
    total = 0
    for d in degs:
        offsets[d] = total
        total += C.dim(d) * dual_d(d + p)
    if total == 0:
        return 0
    rows = []
    for d in degs:
        for i in range(ring.nvars):
            w = ring.weights[i]
            tgt = dual_d(d + w + p)
            if tgt == 0:
                continue
            M = C.var_matrix(i, d)  # C_d -> C_{d+w}
            # x_i . (1/M_b) = 1/M_t exactly for b = step[t]
            step = _var_step(ring.weights, i, -(d + w + p))
            for a in range(C.dim(d)):
                for t in range(tgt):
                    row = [field.zero] * total
                    # phi(x_i c_a) side
                    if d + w in offsets:
                        for a2 in range(C.dim(d + w)):
                            coef = M[a2][a]
                            if coef != 0:
                                row[offsets[d + w] + a2 * tgt + t] = coef
                    # minus x_i . phi(c_a) side
                    row[offsets[d] + a * dual_d(d + p) + step[t]] = field.neg(field.one)
                    rows.append(row)
    return total - matrix_rank(field, rows, total) if rows else total


def dual_minimal_generators(D: InverseSystem):
    """A deterministic minimal homogeneous generating set of a dual submodule:
    the basis rows of each piece that the contractions from below miss."""
    ring, shifts, pieces = D.ring, D.shifts, D.pieces
    return [
        InverseElement.from_vector(ring, n, row, shifts)
        for n, s in pieces.items()
        for row in _uncovered(ring.field, _contractions(ring, shifts, pieces, n), s.rows)
    ]
