"""Constructive existence procedures for compressed quotients.

"General" elements are operationalized as seeded random draws whose claimed
conclusions are verified after the fact, never assumed: every construction
here reports which genericity clauses were checked and retries with
deterministically derived seeds when a draw fails.  The pseudo-random source
is splitmix64 (state += 0x9E3779B97F4A7C15; output = xor-shift-multiply mix
with 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB), so any implementation of
that generator reproduces the instances bit-exactly.

Over GF(p) coefficients are drawn uniformly from the p residues; over the
rationals they are drawn from the integer window [-9, 9].
"""

import warnings
from dataclasses import dataclass

from .compressed import _as_type, i_set
from .duality import (
    GradedIdeal,
    InverseElement,
    InverseSystem,
    annihilator_of_submodule,
    catalecticant_matrix,
    contract,
    dual_dim,
    dual_minimal_generators,
    generated_submodule,
)
from .invariants import IntSeq, generator_type, hilbert_function, is_gorenstein
from .rings import (
    GF,
    BoundExceededError,
    Field,
    GradedRing,
    MathDomainError,
    Polynomial,
    echelon,
    matrix_rank,
)
from .series import dual_series, wstar_window

__all__ = [
    "splitmix64",
    "derived_seed",
    "random_dual_element",
    "random_dual_generators",
    "power_sum",
    "PowerSumReport",
    "power_sum_system",
    "MonomialCIReport",
    "monomial_ci_ambient",
    "AmbientQuotientReport",
    "gorenstein_ambient_quotient",
    "PrNonemptyReport",
    "prnonempty_construct",
    "GeneralPairReport",
    "general_gorenstein_pair",
    "ShiftedDualReport",
    "shifted_dual_presentation",
]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def splitmix64(seed: int):
    """The splitmix64 stream of 64-bit values for the given seed."""
    state = seed & _MASK
    while True:
        state = (state + _GAMMA) & _MASK
        yield _mix64(state)


def derived_seed(seed: int, attempt: int) -> int:
    """Seed for the attempt-th retry: the attempt-th value of the seed's own
    stream, so parallel retries stay deterministic."""
    g = splitmix64(seed)
    out = next(g)
    for _ in range(attempt):
        out = next(g)
    return out


def _draw(field: Field, stream):
    v = next(stream)
    if field.p is not None:
        return field.of(v % field.p)
    return field.of(v % 19 - 9)


def _fpow(field: Field, a, e: int):
    out = field.one
    a = field.of(a)
    for _ in range(e):
        out = field.mul(out, a)
    return out


def _fpow_prod(field: Field, point, m):
    """The value of the monomial m at the point."""
    c = field.one
    for aj, ej in zip(point, m):
        c = field.mul(c, _fpow(field, aj, ej))
    return c


def _evaluate(f: Polynomial, point):
    field = f.ring.field
    total = field.zero
    for m, c in f.terms.items():
        total = field.add(total, field.mul(c, _fpow_prod(field, point, m)))
    return total


# ---------------------------------------------------------------------------
# Seeded random dual generators.


def random_dual_element(ring: GradedRing, q: int, stream) -> InverseElement:
    """A degree-(-q) dual element with every coefficient drawn from the
    stream, in dual-basis order."""
    vec = [_draw(ring.field, stream) for _ in range(dual_dim(ring, (0,), -q))]
    return InverseElement.from_vector(ring, -q, vec)


def random_dual_generators(ring: GradedRing, t, seed: int) -> list:
    """For each q with t(q) > 0, draw t(q) dual elements of degree -q.

    Draws run through ascending q, so the output is a pure function of
    (ring, t, seed).  Genericity is plausible, not certified: small prime
    fields are likely to produce degenerate draws, hence the warning.
    """
    if hasattr(t, "items"):
        items = [(q, v) for q, v in t.items() if v]
    else:
        items = [(q, v) for q, v in enumerate(t) if v]
    if not items:
        return []
    t = _as_type(dict(items))
    p = ring.field.p
    if p is not None and p < 11:
        warnings.warn(
            f"coefficient field GF({p}) is small; random draws are unlikely to be general",
            stacklevel=2,
        )
    stream = splitmix64(seed)
    out = []
    for q, v in t.items():
        for _ in range(v):
            out.append(random_dual_element(ring, q, stream))
    return out


# ---------------------------------------------------------------------------
# Power-sum Gorenstein systems.


def power_sum(ring: GradedRing, point, p: int) -> InverseElement:
    """L^[p] for a point (a_1, ..., a_r): the degree-(-p) dual element whose
    coefficient on the inverse of a monomial M is the value of M at the point.

    Contraction then evaluates: h . L^[p] = h(a_1, ..., a_r) L^[p-w] for any
    h of degree w <= p, which is what makes these elements computable.
    """
    if any(w != 1 for w in ring.weights):
        raise MathDomainError("power sums need a standard grading")
    if len(point) != ring.nvars:
        raise ValueError("point has the wrong number of coordinates")
    field = ring.field
    terms = {}
    for m in ring.monomials(p):
        c = _fpow_prod(field, point, m)
        if not field.is_zero(c):
            terms[m] = c
    return InverseElement(ring, terms)


@dataclass(frozen=True)
class PowerSumReport:
    """f = sum a_i L_i^[a] and its quotient by contraction with g, with the
    generality clauses checked rather than assumed."""

    f: InverseElement
    gf: InverseElement
    ambient_dual: InverseSystem
    quotient_dual: InverseSystem
    ambient_h: IntSeq
    h: IntSeq
    vanishing_checks: tuple  # (p, ok) for the checked degrees of clause (a)
    clause_a_ok: bool
    clause_b_ok: bool
    min_pattern_ok: bool
    iset_ok: bool

    @property
    def general(self) -> bool:
        return self.clause_a_ok and self.clause_b_ok


def power_sum_system(ring: GradedRing, points, scalars, a: int, s: int, g=None) -> PowerSumReport:
    """The Gorenstein pair built from q power sums of degree a and a form g
    of degree a - s.

    When the points are general -- clause (a): the forms vanishing at all of
    them have codimension min(q, dim R_p) in the checked degree windows;
    clause (b): g vanishes at none of them -- both Hilbert functions open
    with min(q, dim R_p) through degree s/2 and the quotient is compressed.
    """
    if any(w != 1 for w in ring.weights):
        raise MathDomainError("power sums need a standard grading")
    field = ring.field
    points = [tuple(pt) for pt in points]
    if any(len(pt) != ring.nvars for pt in points):
        raise MathDomainError("point has the wrong number of coordinates")
    scalars = [field.of(c) for c in scalars]
    q = len(points)
    if q == 0 or len(scalars) != q:
        raise MathDomainError("need one nonzero scalar per point")
    if any(field.is_zero(c) for c in scalars):
        raise MathDomainError("the scalars a_i must be nonzero")
    if not 1 <= s <= a:
        raise MathDomainError("need 1 <= s <= a")
    half_up = (s + 1) // 2
    if q > ring.dim(half_up):
        raise MathDomainError(
            f"q = {q} exceeds dim R_{half_up} = {ring.dim(half_up)}"
        )
    if g is None:
        if s != a:
            raise MathDomainError("g is required when s < a")
        g = Polynomial(ring, {(0,) * ring.nvars: field.one})
    if g.is_zero() or not g.is_homogeneous() or g.degree() != a - s:
        raise MathDomainError(f"g must be nonzero homogeneous of degree {a - s}")

    # clause (a) on both windows p <= s/2 and a - s/2 <= p <= a
    vanishing_checks = []
    clause_a_ok = True
    for p in range(a + 1):
        if not (2 * p <= s or 2 * (a - p) <= s):
            continue
        rows = [
            [_fpow_prod(field, pt, m) for m in ring.monomials(p)] for pt in points
        ]
        v_dim = ring.dim(p) - matrix_rank(field, rows, ring.dim(p))
        ok = v_dim == max(ring.dim(p) - q, 0)
        vanishing_checks.append((p, ok))
        clause_a_ok = clause_a_ok and ok
    # clause (b)
    clause_b_ok = all(not field.is_zero(_evaluate(g, pt)) for pt in points)

    f = InverseElement(ring, {})
    for pt, c in zip(points, scalars):
        f = f + power_sum(ring, pt, a).scale(c)
    if f.is_zero():
        raise MathDomainError("the power sums cancel; choose other points or scalars")
    ambient_dual = generated_submodule([f])
    ambient_h = hilbert_function(ambient_dual)
    gf = contract(g, f)
    if gf.is_zero():
        raise MathDomainError("g annihilates f; the quotient is zero")
    quotient_dual = generated_submodule([gf])
    h = hilbert_function(quotient_dual)

    min_pattern_ok = all(
        h[p] == ambient_h[p] == min(q, ring.dim(p))
        for p in range(s // 2 + 1)
    )
    iset_ok = h == i_set({s: 1}, ambient_h).hI[s]
    return PowerSumReport(
        f=f,
        gf=gf,
        ambient_dual=ambient_dual,
        quotient_dual=quotient_dual,
        ambient_h=ambient_h,
        h=h,
        vanishing_checks=tuple(vanishing_checks),
        clause_a_ok=clause_a_ok,
        clause_b_ok=clause_b_ok,
        min_pattern_ok=min_pattern_ok,
        iset_ok=iset_ok,
    )


# ---------------------------------------------------------------------------
# Monomial complete-intersection ambients.


@dataclass(frozen=True)
class MonomialCIReport:
    """The ambient A = R/(X_i^{e+1}) with dual socle generator 1/(X_1...X_r)^e."""

    ring: GradedRing
    ideal: GradedIdeal
    f: InverseElement
    socle_degree: int
    initial_degree: int
    ambient_h: IntSeq
    annihilator_verified: bool


def monomial_ci_ambient(r: int, e: int, field: Field | None = None) -> MonomialCIReport:
    """The complete intersection of the (e+1)-st powers of r variables,
    together with its dual socle generator; socle degree er, initial degree
    e + 1, and the annihilator identity checked within the stored bound."""
    if r < 2 or e < 2:
        raise MathDomainError("need r >= 2 and e >= 2")
    if field is None:
        from .rings import QQ

        field = QQ
    ring = GradedRing.standard(field, tuple(f"X{i + 1}" for i in range(r)))
    a = e * r
    bound = a + 3
    gens = [
        Polynomial.monomial(ring, tuple(e + 1 if j == i else 0 for j in range(r)))
        for i in range(r)
    ]
    ideal = GradedIdeal.from_generators(ring, gens, bound)
    f = InverseElement.inverse_monomial(ring, (e,) * r)
    verified = annihilator_of_submodule(generated_submodule([f]), bound) == ideal
    return MonomialCIReport(
        ring=ring,
        ideal=ideal,
        f=f,
        socle_degree=a,
        initial_degree=e + 1,
        ambient_h=hilbert_function(ideal),
        annihilator_verified=verified,
    )


# ---------------------------------------------------------------------------
# Quotients of a Gorenstein ambient by contraction with chosen forms.


@dataclass(frozen=True)
class AmbientQuotientReport:
    """D = sum A g_i f inside the ambient dual, against its w* prediction.

    ``map_shapes`` records, per dual degree d, the multiplication map
    ⊕_i R_{a+d-deg g_i} -> A†_d as (target dim, source dim, rank); the rank
    is dim D_d, and rank = target means the map is surjective there.
    """

    D: InverseSystem | None
    h: IntSeq
    t: IntSeq
    socle_degree: int
    ambient_h: IntSeq
    wstar: IntSeq | None
    n: int | None
    bound_limited: bool
    predicted_h: IntSeq | None
    matches_prediction: bool | None
    map_shapes: dict
    zero: bool


def _gorenstein_ambient(ideal: GradedIdeal, f: InverseElement):
    """(a, the ambient Hilbert function) for f of degree -a, once the ambient
    quotient is checked Artinian within its bound and Gorenstein."""
    if not ideal.artinian_certified:
        raise BoundExceededError("ambient quotient not Artinian within bound")
    if not is_gorenstein(ideal):
        raise MathDomainError("ambient quotient is not Gorenstein")
    return -f.degree(), hilbert_function(ideal)


def _predicted_h(ambient_h: IntSeq, wstar, n: int, a: int) -> IntSeq:
    """The w* prediction: h(q) = a(q) - w*(-q) for q > -n, a(q) otherwise."""
    return IntSeq([ambient_h[q] if q <= -n else ambient_h[q] - wstar[-q] for q in range(a + 1)])


def gorenstein_ambient_quotient(ideal: GradedIdeal, f: InverseElement, forms) -> AmbientQuotientReport:
    """Contract the dual socle generator of a Gorenstein ambient by the given
    forms and compare the resulting Hilbert function with the w* prediction:
    with n the largest integer below which w* stays nonnegative, the
    prediction is h(q) = a(q) - w*(-q) for q > -n and h(q) = a(q) otherwise.
    """
    ring = ideal.ring
    a, ambient_h = _gorenstein_ambient(ideal, f)
    if ambient_h.last() != a:
        raise MathDomainError(
            f"f has degree {-a} but the ambient socle degree is {ambient_h.last()}"
        )
    if hilbert_function(generated_submodule([f])) != ambient_h:
        raise MathDomainError("f is not a dual socle generator for the ambient")
    dual_gens = []
    degrees = []
    for g in forms:
        if g.is_zero():
            continue
        if not g.is_homogeneous():
            raise MathDomainError("forms must be homogeneous")
        gf = contract(g, f)
        if not gf.is_zero():
            dual_gens.append(gf)
            degrees.append(g.degree())
    if not dual_gens:
        return AmbientQuotientReport(
            D=None,
            h=IntSeq(()),
            t=IntSeq(()),
            socle_degree=a,
            ambient_h=ambient_h,
            wstar=None,
            n=None,
            bound_limited=False,
            predicted_h=None,
            matches_prediction=None,
            map_shapes={},
            zero=True,
        )
    D = generated_submodule(dual_gens)
    h = hilbert_function(D)
    t = generator_type(D)
    wstar, n, limited = wstar_window(dual_series(ambient_h, 1), t, a)
    predicted_h = _predicted_h(ambient_h, wstar, 1 if n is None else n, a)
    map_shapes = {}
    for d in range(-a, 1):
        target = ambient_h[-d]
        source = sum(ring.dim(a + d - e) for e in degrees)
        if target or source:
            map_shapes[d] = (target, source, D.piece(d).dim)
    return AmbientQuotientReport(
        D=D,
        h=h,
        t=t,
        socle_degree=a,
        ambient_h=ambient_h,
        wstar=wstar,
        n=n,
        bound_limited=limited,
        predicted_h=predicted_h,
        matches_prediction=(h == predicted_h),
        map_shapes=map_shapes,
        zero=False,
    )


# ---------------------------------------------------------------------------
# The power-of-variable recipe.


@dataclass(frozen=True)
class PrNonemptyReport:
    """The explicit generator family g_j and what it realized.

    ``violations`` itemizes the hypothesis failures that do not make the
    recipe ill-defined (notably a nonzero w*(n-1) when no completion block
    is requested); failures that do -- too few variables, type support
    outside the window, an impossible completion block -- raise instead.
    """

    D: InverseSystem
    forms: tuple
    h: IntSeq
    predicted_h: IntSeq
    t: IntSeq
    requested_t: IntSeq
    n: int
    v0: int
    wstar: IntSeq
    violations: tuple
    series_identity_ok: bool
    realized: bool


def prnonempty_construct(ideal: GradedIdeal, f: InverseElement, t, n: int) -> PrNonemptyReport:
    """Build D = sum A g_j f with g_j running through powers of distinct
    variables (t(a-p) forms of each degree p < a+n-1) plus, when t(1-n) > 0,
    forms of degree a+n-1 whose residues complete a basis of R modulo the
    earlier ones.  Verifies that the quotient realizes the predicted Hilbert
    function h(q) = a(q) - w*(-q) for q > -n, h(q) = a(q) otherwise, and
    that the local generator type is the requested t.
    """
    ring = ideal.ring
    if any(w != 1 for w in ring.weights):
        raise MathDomainError("the power-of-variable recipe needs a standard grading")
    a, ambient_h = _gorenstein_ambient(ideal, f)
    r = ring.nvars
    if ambient_h[1] != r:
        raise MathDomainError("ambient quotient is not generated in degree 1")
    t = _as_type(t)
    v0 = next(v for v in range(a + 2) if ring.dim(v) > ambient_h[v])

    bad_support = [q for q, v in t.items() if v and (q <= -n or q >= a)]
    if bad_support:
        raise MathDomainError(
            f"type nonzero at degrees {bad_support}, outside the open window ({-n}, {a})"
        )

    def u(i: int) -> int:
        return sum(v for q, v in t.items() if q > i)

    if u(1 - n) > r:
        raise MathDomainError(
            f"u(1-n) = {u(1 - n)} power-of-variable forms exceed the {r} variables"
        )

    violations = []
    if n > v0 - a:
        violations.append(f"n = {n} exceeds v0 - a = {v0 - a}")
    wstar, _, _ = wstar_window(dual_series(ambient_h, 1), t, a)
    if wstar[n - 1] != 0:
        violations.append(f"w*(n-1) = {wstar[n - 1]} is nonzero")

    forms = []
    j = 0
    for p in range(1, a + n - 1):
        for _ in range(t[a - p]):
            forms.append(
                Polynomial.monomial(ring, tuple(p if k == j else 0 for k in range(r)))
            )
            j += 1
    comp_deg = a + n - 1
    aux_bound = max(comp_deg + 1, 2)
    aux = GradedIdeal.from_generators(ring, forms, aux_bound) if forms else None

    def aux_quotient_dim(d: int) -> int:
        if d < 0:
            return 0
        full = ring.dim(d)
        return full - (aux.piece(d).dim if aux is not None and d < aux_bound else 0)

    series_identity_ok = all(
        wstar[p] == aux_quotient_dim(a + p) for p in range(-a, n - 1)
    )

    completion = t[1 - n]
    if completion:
        have = aux_quotient_dim(comp_deg)
        if have != completion:
            raise MathDomainError(
                f"completion block needs dim (R/J')_{comp_deg} = {completion}, found {have}"
            )
        if aux is not None:
            positions = aux.piece(comp_deg).nonpivots()
        else:
            positions = range(ring.dim(comp_deg))
        monos = ring.monomials(comp_deg)
        forms = forms + [Polynomial.monomial(ring, monos[c]) for c in positions]
    if not forms:
        raise MathDomainError("the recipe produces no forms for this type")

    D = generated_submodule([contract(g, f) for g in forms])
    h = hilbert_function(D)
    realized_t = generator_type(D)
    predicted_h = _predicted_h(ambient_h, wstar, n, a)
    return PrNonemptyReport(
        D=D,
        forms=tuple(forms),
        h=h,
        predicted_h=predicted_h,
        t=realized_t,
        requested_t=t,
        n=n,
        v0=v0,
        wstar=wstar,
        violations=tuple(violations),
        series_identity_ok=series_identity_ok,
        realized=(h == predicted_h and realized_t == t),
    )


# ---------------------------------------------------------------------------
# General Gorenstein pairs.


@dataclass(frozen=True)
class GeneralPairReport:
    """A seeded f of degree -a and quotient by contraction with g, with the
    two min-patterns a(p) = min(r(p), r(a-p)) and h(p) = min(r(p), r(s-p))
    verified on the successful draw."""

    f: InverseElement
    g: Polynomial
    gf: InverseElement
    ambient_h: IntSeq
    h: IntSeq
    a_pattern_ok: bool
    h_pattern_ok: bool
    iset_ok: bool
    attempts: int
    seed: int


def general_gorenstein_pair(
    r: int,
    a: int,
    s: int,
    g: Polynomial | None = None,
    seed: int = 0,
    field: Field | None = None,
    max_attempts: int = 5,
) -> GeneralPairReport:
    """Draw f until both min-patterns hold; retries use derived_seed(seed, i).

    ``g`` defaults to a seeded random form of degree a - s; a supplied g only
    needs the right shape, since multiplication by any nonzero form is
    injective on the polynomial ring itself.
    """
    if field is None:
        field = GF(101)
    if not 1 <= s <= a:
        raise MathDomainError("need 1 <= s <= a")
    ring = GradedRing.standard(field, tuple(f"X{i + 1}" for i in range(r)))
    expected_a = IntSeq([min(ring.dim(p), ring.dim(a - p)) for p in range(a + 1)])
    expected_h = IntSeq([min(ring.dim(p), ring.dim(s - p)) for p in range(s + 1)])
    if g is not None:
        if g.is_zero() or not g.is_homogeneous() or g.degree() != a - s:
            raise MathDomainError(f"g must be nonzero homogeneous of degree {a - s}")
    last_error = None
    for attempt in range(max_attempts):
        stream = splitmix64(derived_seed(seed, attempt))
        f = random_dual_element(ring, a, stream)
        if f.is_zero():
            last_error = "zero draw for f"
            continue
        ambient_h = hilbert_function(generated_submodule([f]))
        a_ok = ambient_h == expected_a
        if not a_ok:
            last_error = f"ambient pattern {tuple(ambient_h.values)} != {tuple(expected_a.values)}"
            continue
        if g is None:
            vec = [_draw(field, stream) for _ in range(ring.dim(a - s))]
            g_use = Polynomial(
                ring, {m: c for m, c in zip(ring.monomials(a - s), vec) if c != 0}
            )
            if g_use.is_zero():
                last_error = "zero draw for g"
                continue
        else:
            g_use = g
        gf = contract(g_use, f)
        if gf.is_zero():
            last_error = "g annihilates f"
            continue
        h = hilbert_function(generated_submodule([gf]))
        h_ok = h == expected_h
        if not h_ok:
            last_error = f"quotient pattern {tuple(h.values)} != {tuple(expected_h.values)}"
            continue
        iset_ok = h == i_set({s: 1}, ambient_h).hI[s]
        return GeneralPairReport(
            f=f,
            g=g_use,
            gf=gf,
            ambient_h=ambient_h,
            h=h,
            a_pattern_ok=a_ok,
            h_pattern_ok=h_ok,
            iset_ok=iset_ok,
            attempts=attempt + 1,
            seed=seed,
        )
    raise MathDomainError(
        f"no general pair after {max_attempts} attempts (last failure: {last_error})"
    )


# ---------------------------------------------------------------------------
# Shifted-dual presentations (level-module restatement).


@dataclass(frozen=True)
class ShiftedDualReport:
    """The dual of the presentation of D(-s) by one free summand per minimal
    generator of D.  Its generator type is the socle type of the shifted
    dual; for D the dual of a cyclic quotient that type is concentrated with
    total 1 ("level of type 1")."""

    presentation: InverseSystem
    socle_type: IntSeq
    level: bool
    type_count: int


def shifted_dual_presentation(D: InverseSystem) -> ShiftedDualReport:
    """Present the shift of D placing its generators in nonnegative degrees
    as a quotient of ⊕_j A(q_j - s), one summand per minimal generator, and
    dualize the presentation degreewise: the piece at each degree is the
    orthogonal complement of the relations among the contracted generators,
    which is the row space of the generators' catalecticants side by side.
    """
    if D.shifts != (0,):
        raise MathDomainError("expected a dual submodule of a rank-one ambient")
    gens = dual_minimal_generators(D)
    if not gens:
        raise MathDomainError("zero module")
    ring = D.ring
    field = ring.field
    qs = [-g.degree() for g in gens]
    q_min = min(qs)
    shifts = tuple(q - q_min for q in qs)
    pieces = {}
    for n_sh in range(-q_min, max(shifts) + 1):
        total = sum(ring.dim(q - n_sh) for q in shifts)
        if total == 0:
            continue
        mats = [catalecticant_matrix(g, -q_min - n_sh) for g in gens]
        pieces[n_sh] = echelon(field, [sum(parts, ()) for parts in zip(*mats)], total)
    E = InverseSystem(ring, pieces, shifts)
    st = generator_type(E)
    return ShiftedDualReport(
        presentation=E,
        socle_type=st,
        level=bool(st) and st.first() == st.last(),
        type_count=st.sum(),
    )
