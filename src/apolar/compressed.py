"""Numerics of compressed dual modules: I-sets, permissibility, and the
dimension counts attached to them.

Everything here is arithmetic on a socle type t -- a finitely supported
integer sequence on the nonnegative degrees -- measured against the graded
dimensions a(p) of an ambient polynomial ring and b(p) of an ambient free
module.  The central object is the I-set: the family of degreewise caps

    g_m(p)  = sum_{q >= m} t(q) * a(q - p),
    hI_m(p) = min(g_m(p), b(p)),

which bound the Hilbert functions h_m of the generation-degree filtration of
any dual submodule with socle type t.  A type is *permissible* when an
initial degree v >= 1 reconciles those caps with the ambient dimensions; the
bounds are then simultaneously attainable and the realizing modules are the
I-compressed ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from .duality import (
    GradedIdeal,
    InverseSystem,
    QuotientRing,
    _contractions,
    catalecticant_matrix,
    dual_dim,
)
from .invariants import (
    IntSeq,
    _dual_socle_generator,
    generator_type,
    hilbert_function,
    is_gorenstein,
    multilevel_profile,
)
from .rings import GradedRing, MathDomainError, Subspace, matrix_rank

__all__ = [
    "ISetReport",
    "PermissibilityReport",
    "BoundCheck",
    "ConverseReport",
    "CpdArtinianReport",
    "DimensionReport",
    "i_set",
    "is_permissible",
    "attendants",
    "is_I_compressed",
    "compressed_bound_check",
    "converse_permissibility_check",
    "cpd_artinian_checks",
    "dimension_formulas",
]


def _as_dims(source):
    """Coerce a graded-dimension source to a function p -> dim, zero below 0.

    Accepts a graded ring (its monomial counts), an IntSeq, or any callable.
    """
    if isinstance(source, GradedRing):
        return source.dim
    if isinstance(source, IntSeq):
        return source.__getitem__
    if callable(source):
        return lambda p: source(p) if p >= 0 else 0
    raise TypeError(f"cannot read graded dimensions from {type(source).__name__}")


def _as_type(t) -> IntSeq:
    if isinstance(t, IntSeq):
        seq = t
    elif isinstance(t, dict):
        seq = IntSeq.from_items(t)
    else:
        seq = IntSeq(t)
    if not seq:
        raise MathDomainError("socle type is identically zero")
    if any(c < 0 for _, c in seq.items()):
        raise MathDomainError("socle type has negative entries")
    if seq.first() < 0:
        raise MathDomainError("socle type is supported in negative degrees")
    return seq


@dataclass(frozen=True)
class ISetReport:
    """The pre-I-set and I-set of a socle type, with its landmark degrees.

    Rows are indexed by the filtration level m = 0..s+1 and stored as IntSeqs
    in p; every g_m with m <= s_bar equals the row at s_bar, and every row
    above s+1 is zero.  v[m] is the least p in [0, s+1] with b(p) > g_m(p)
    (None if there is no such p; the degrees beyond s+1 never matter because
    the inequalities of clause (d) stop at p = s).  b_cut is the least p with
    b(p) >= g_p(p), v0 the least p with strict inequality, and b1 is v0 - 1
    or v0 according to whether b(v0-1) = g_{v0-1}(v0-1).
    """

    t: IntSeq
    s_bar: int
    s: int
    b: IntSeq
    g: tuple
    hI: tuple
    betaI: tuple
    v: tuple
    v0: int | None
    b_cut: int
    b1: int | None

    def _clamp(self, m: int) -> int | None:
        if m <= 0:
            return 0
        if m > self.s + 1:
            return None
        return m

    def hI_m(self, m: int) -> IntSeq:
        m = self._clamp(m)
        return IntSeq() if m is None else self.hI[m]

    def betaI_m(self, m: int) -> int:
        m = self._clamp(m)
        return 0 if m is None else self.betaI[m]

    @property
    def beta(self) -> int:
        """The generic rank bound at the initial level, betaI_{s_bar}."""
        return self.betaI[self.s_bar]


def i_set(t, a, b=None) -> ISetReport:
    """Pre-I-set g_m, I-set hI_m, and landmark degrees for the type t.

    `a` supplies the graded dimensions of the polynomial ring and `b` those
    of the ambient free module (default b = a); either may be a graded ring,
    an IntSeq, or a callable.
    """
    t = _as_type(t)
    a_fn = _as_dims(a)
    b_fn = a_fn if b is None else _as_dims(b)
    s_bar, s = t.first(), t.last()

    def g_val(m: int, p: int) -> int:
        return sum(t[q] * a_fn(q - p) for q in range(max(m, s_bar), s + 1))

    ps = range(s + 2)
    b_seq = IntSeq([b_fn(p) for p in ps])
    g_rows, hI_rows, betaI, v_list = [], [], [], []
    for m in ps:
        gm = [g_val(m, p) for p in ps]
        g_rows.append(IntSeq(gm))
        hI_rows.append(IntSeq([min(gm[p], b_seq[p]) for p in ps]))
        betaI.append(hI_rows[m].sum())
        v_list.append(next((p for p in ps if b_seq[p] > gm[p]), None))
    v0 = next((p for p in ps if b_seq[p] > g_rows[p][p]), None)
    b_cut = next(p for p in ps if b_seq[p] >= g_rows[p][p])
    if v0 is None:
        b1 = None
    elif b_fn(v0 - 1) == g_val(v0 - 1, v0 - 1):
        b1 = v0 - 1
    else:
        b1 = v0
    return ISetReport(
        t=t,
        s_bar=s_bar,
        s=s,
        b=b_seq,
        g=tuple(g_rows),
        hI=tuple(hI_rows),
        betaI=tuple(betaI),
        v=tuple(v_list),
        v0=v0,
        b_cut=b_cut,
        b1=b1,
    )


@dataclass(frozen=True)
class PermissibilityReport:
    permissible: bool
    v: int | None
    v0: int | None
    b1: int | None
    failing_clause: str | None
    clause_d_ok: bool


def _clause_d(rep: ISetReport) -> bool:
    """b(p) > g_m(p) for v_m <= p <= s, for every level m.

    Levels above s+1 coincide with the (all-zero) row at s+1, so the stored
    rows are exhaustive.
    """
    for m in range(rep.s + 2):
        vm = rep.v[m]
        if vm is None:
            continue
        if any(rep.b[p] <= rep.g[m][p] for p in range(vm, rep.s + 1)):
            return False
    return True


def is_permissible(t, a=None, b=None) -> PermissibilityReport:
    """Decide permissibility of a socle type, reporting the initial degree.

    Accepts either a precomputed ISetReport or raw (t, a[, b]) data.  Both
    characterizations -- the existence of an initial degree v satisfying
    clauses (a)-(c) together with (d), and vanishing of t below b1 together
    with (d) -- are evaluated and cross-checked; when no v exists the first
    failing clause at the natural candidate max(v0, 1) is reported.
    """
    if isinstance(t, ISetReport):
        rep = t
    else:
        if a is None:
            raise TypeError("ambient dimensions are required with a raw socle type")
        rep = i_set(t, a, b)
    t, s = rep.t, rep.s
    d_ok = _clause_d(rep)

    def clause_a(v: int) -> bool:
        return all(t[p] == 0 for p in range(v - 1))

    def clause_b(v: int) -> bool:
        return rep.b[v] > rep.g[v][v]

    def clause_c(v: int) -> bool:
        return t[v - 1] == max(0, rep.b[v - 1] - rep.g[v][v - 1])

    found_v = next(
        (v for v in range(1, s + 2) if clause_a(v) and clause_b(v) and clause_c(v)),
        None,
    )
    by_initial_degree = found_v is not None and d_ok
    by_b1 = (
        rep.b1 is not None
        and all(t[p] == 0 for p in range(rep.b1))
        and d_ok
    )
    if by_initial_degree != by_b1:
        raise AssertionError(
            f"permissibility formulations disagree on t={t}: "
            f"v={found_v}, b1={rep.b1}, (d)={d_ok}"
        )
    if by_initial_degree and found_v != rep.v0:
        raise AssertionError(f"initial degree {found_v} differs from v0={rep.v0}")

    failing = None
    if not by_initial_degree:
        if found_v is not None:
            failing = "(d)"
        elif rep.v0 is None:
            failing = "(b)"
        else:
            probe = max(rep.v0, 1)
            if not clause_a(probe):
                failing = "(a)"
            elif not clause_b(probe):
                failing = "(b)"
            else:
                failing = "(c)"
    return PermissibilityReport(
        permissible=by_initial_degree,
        v=found_v,
        v0=rep.v0,
        b1=rep.b1,
        failing_clause=failing,
        clause_d_ok=d_ok,
    )


def attendants(t, rows, b=None):
    """Attendant type t' and family {h'_m} of a family fit for t.

    `rows` lists the Hilbert functions h_m for m = 0, 1, ...; fitness means
    t(p) = h_p(p) - h_{p+1}(p) for all p, the rows decrease in m with
    nonnegative entries (capped by b when given), and vanish above the top
    socle degree.  The attendant zeroes t at its first support degree s_bar
    and replaces every row at or below level s_bar + 1 by the row there.  A
    type supported in one degree has zero attendant (returned as the empty
    IntSeq and all-zero rows).
    """
    t = _as_type(t)
    s_bar, s = t.first(), t.last()
    rows = [r if isinstance(r, IntSeq) else IntSeq(r) for r in rows]
    b_fn = None if b is None else _as_dims(b)

    def row(m: int) -> IntSeq:
        return rows[m] if 0 <= m < len(rows) else IntSeq()

    top = max(len(rows), s + 2)
    for p in range(s + 1):
        if t[p] != row(p)[p] - row(p + 1)[p]:
            raise MathDomainError(
                f"family is not fit for t: level drop at degree {p} is "
                f"{row(p)[p] - row(p + 1)[p]}, expected t({p}) = {t[p]}"
            )
    for m in range(top):
        rm, rn = row(m), row(m + 1)
        if m > s and rm:
            raise MathDomainError(
                f"family is not fit for t: nonzero row at level {m} > s = {s}"
            )
        support = {p for p, _ in rm.items()} | {p for p, _ in rn.items()}
        for p in support:
            if rn[p] < 0 or rm[p] < rn[p]:
                raise MathDomainError(
                    f"family is not fit for t: rows not nested at level {m}, degree {p}"
                )
            if b_fn is not None and rm[p] > b_fn(p):
                raise MathDomainError(
                    f"family is not fit for t: row {m} exceeds the ambient "
                    f"dimension in degree {p}"
                )
    t_next = IntSeq.from_items({p: c for p, c in t.items() if p != s_bar})
    rows_next = tuple(
        row(s_bar + 1) if m <= s_bar + 1 else row(m) for m in range(top)
    )
    return t_next, rows_next


def _module_dims(D: InverseSystem):
    def dims(p: int) -> int:
        return dual_dim(D.ring, D.shifts, -p) if p >= 0 else 0

    return dims


def _against_iset(D: InverseSystem, t, b, stated: bool):
    """(t, its I-set, D's multilevel profile, whether every filtration row of
    D equals the I-set's); t defaults to D's generator type, b to D's ambient
    dimensions.  A ``stated`` t that D lacks is refused before the I-set is
    taken; any other t must be permissible, and one D lacks matches nothing."""
    gt = generator_type(D)
    t = gt if t is None else _as_type(t)
    if stated and gt != t:
        raise MathDomainError("module does not have the stated socle type")
    rep = i_set(t, D.ring, _module_dims(D) if b is None else b)
    if not (stated or is_permissible(rep).permissible):
        raise MathDomainError(
            "socle type is not permissible; no module realizes its I-set"
        )
    if gt != t:
        return t, rep, None, False
    prof = multilevel_profile(D)
    match = all(
        prof.row(m) == rep.hI_m(m)
        for m in range(max(rep.s, prof.socle_degree) + 2)
    )
    return t, rep, prof, match


def is_I_compressed(D: InverseSystem, t=None, b=None) -> bool:
    """Whether D realizes the full I-set of the socle type t.

    True exactly when D has t(q) minimal generators in each dual degree -q
    and the Hilbert function of every filtration level m equals hI_m.  The
    type defaults to the generator type of D; a non-permissible type is
    rejected, since no module realizes its I-set.
    """
    return _against_iset(D, t, b, stated=False)[3]


@dataclass(frozen=True)
class BoundCheck:
    """Filtration ranks of a module against the caps of its I-set.

    rows_equal[m] records h_m = hI_m, rank[m] the total dimension of the
    level-m submodule, and beta_bound[m] the cap betaI_m; the final flag
    confirms that rank[m] = beta_bound[m] happens exactly on the levels with
    rows_equal[m].
    """

    t: IntSeq
    ok: bool
    rows_equal: tuple
    rank: tuple
    beta_bound: tuple
    rank_equality_matches: bool


def compressed_bound_check(D: InverseSystem, t=None, b=None) -> BoundCheck:
    """Verify h_m(p) <= hI_m(p) levelwise and the rank/beta equality pattern."""
    t, rep, prof, _ = _against_iset(D, t, b, stated=True)
    ok = True
    rows_equal, rank, beta = [], [], []
    for m in range(rep.s + 2):
        hm, cap = prof.row(m), rep.hI[m]
        if hm and any(hm[p] > cap[p] for p in range(hm.first(), hm.last() + 1)):
            ok = False
        rows_equal.append(hm == cap)
        rank.append(hm.sum())
        beta.append(rep.betaI[m])
    matches = all(
        (rank[m] == beta[m]) == rows_equal[m] for m in range(rep.s + 2)
    )
    return BoundCheck(
        t=t,
        ok=ok,
        rows_equal=tuple(rows_equal),
        rank=tuple(rank),
        beta_bound=tuple(beta),
        rank_equality_matches=matches,
    )


@dataclass(frozen=True)
class ConverseReport:
    """Stability route back to permissibility for a realizing module.

    applicable records whether the module's filtration matches the I-set at
    all; the remaining fields verify the one-step stability of the full
    ambient dual in degrees down to -b1, the forced vanishing of t below b1,
    and the resulting permissibility verdict.
    """

    applicable: bool
    b1: int | None
    stability_ok: bool | None
    type_vanishes_below_b1: bool | None
    permissible: bool | None
    clause_d_ok: bool | None


def _full_dual_stable_at(ring, shifts, p: int) -> bool:
    """Does contraction by the weight-one variables map the full dual at
    degree -p onto the piece at degree 1-p?"""
    full = {-p: Subspace.full(ring.field, dual_dim(ring, shifts, -p))}
    target = dual_dim(ring, shifts, 1 - p)
    return matrix_rank(ring.field, _contractions(ring, shifts, full, 1 - p), target) == target


def converse_permissibility_check(D: InverseSystem, t=None, b=None) -> ConverseReport:
    """From a module whose filtration matches its I-set, recover that the
    socle type vanishes below b1 and (with clause (d)) is permissible."""
    t, rep, _, applicable = _against_iset(D, t, b, stated=True)
    if not applicable:
        return ConverseReport(
            applicable=False,
            b1=rep.b1,
            stability_ok=None,
            type_vanishes_below_b1=None,
            permissible=None,
            clause_d_ok=None,
        )
    b1 = rep.b1 if rep.b1 is not None else 0
    stability = all(
        _full_dual_stable_at(D.ring, D.shifts, p) for p in range(1, b1 + 1)
    )
    vanishes = all(t[p] == 0 for p in range(b1))
    verdict = is_permissible(rep)
    return ConverseReport(
        applicable=True,
        b1=rep.b1,
        stability_ok=stability,
        type_vanishes_below_b1=vanishes,
        permissible=verdict.permissible,
        clause_d_ok=verdict.clause_d_ok,
    )


@dataclass(frozen=True)
class CpdArtinianReport:
    """Half-degree behavior of a Gorenstein Artinian quotient.

    hypothesis_holds records h(p) = a(p) for 2p <= s; when it holds, the
    Hilbert function is compared against the I-set of the socle type
    concentrated at s, and a(p) <= a(s-p) is confirmed on the same range.
    equivalence_rows lists, for each p with 2p <= s, the three equivalent
    conditions: h(p) = a(p), surjectivity of multiplication by the dual
    socle generator onto the dual in degree -p, and its injectivity from
    ring degree p.
    """

    socle_degree: int
    hypothesis_holds: bool
    h_equals_iset: bool | None
    ambient_symmetric: bool | None
    equivalence_rows: tuple
    equivalences_agree: bool


def cpd_artinian_checks(obj) -> CpdArtinianReport:
    """Run the half-degree equivalences for a Gorenstein Artinian quotient."""
    ideal = obj.ideal if isinstance(obj, QuotientRing) else obj
    if not isinstance(ideal, GradedIdeal):
        raise TypeError(f"expected an ideal or quotient, got {type(obj).__name__}")
    if not is_gorenstein(ideal):
        raise MathDomainError("expects a Gorenstein quotient (one-dimensional socle)")
    ring = ideal.ring
    field = ring.field
    h = hilbert_function(ideal)
    s = h.last()
    a = ring.dim
    halfs = [p for p in range(s + 1) if 2 * p <= s]
    hypothesis = all(h[p] == a(p) for p in halfs)
    if hypothesis:
        rep = i_set(IntSeq([1], s), ring)
        h_eq = h == rep.hI[rep.s_bar]
        symmetric = all(a(p) <= a(s - p) for p in halfs)
    else:
        h_eq = None
        symmetric = None
    f = _dual_socle_generator(ideal)
    rows = []
    for p in halfs:
        direct = h[p] == a(p)
        surj = matrix_rank(field, catalecticant_matrix(f, -p), a(s - p)) == a(p)
        inj = matrix_rank(field, catalecticant_matrix(f, p - s), a(p)) == a(p)
        rows.append((p, direct, surj, inj))
    agree = all(d == su == inj for _, d, su, inj in rows)
    return CpdArtinianReport(
        socle_degree=s,
        hypothesis_holds=hypothesis,
        h_equals_iset=h_eq,
        ambient_symmetric=symmetric,
        equivalence_rows=tuple(rows),
        equivalences_agree=agree,
    )


@dataclass(frozen=True)
class DimensionReport:
    """Parameter counts for the family of modules below a fixed Hilbert base.

    H counts the fiber directions above the base level, R the relative
    directions of the lower levels, and F = H + R the full family.  With the
    variable count supplied, elementary = F + nvars and principal counts the
    orbit dimension d * nvars of a single dual generator, d being the total
    dimension of the base; E repeats elementary for types with a single
    socle generator, where the family is a candidate elementary component.
    """

    H: int
    R: int
    F: int
    mode: str
    nvars: int | None
    elementary: int | None
    principal: int | None
    E: int | None


def dimension_formulas(t, b=None, h_base=None, mode: str = "polynomial",
                       nvars: int | None = None) -> DimensionReport:
    """Dimension counts H, R, F from a socle type and a base Hilbert function.

    In polynomial mode the base is the top I-set row hI_{s_bar} against the
    ambient module dimensions b; in gorenstein mode it is the Hilbert
    function h of the quotient against the ambient Gorenstein dimensions, so
    the deficiencies w(q) = b(q) - h_base(q) play the same role in both.
    Passing an ISetReport fills b and h_base from it.
    """
    if mode not in ("polynomial", "gorenstein"):
        raise ValueError(f"unknown mode {mode!r}")
    if isinstance(t, ISetReport):
        rep = t
        t = rep.t
        if b is None:
            b = rep.b
        if h_base is None:
            h_base = rep.hI[rep.s_bar]
    if b is None or h_base is None:
        raise TypeError("ambient dimensions and a base Hilbert function are required")
    t = _as_type(t)
    b_fn = _as_dims(b)
    if not isinstance(h_base, IntSeq):
        h_base = IntSeq(h_base)
    s = t.last()

    def w(q: int) -> int:
        return b_fn(q) - h_base[q]

    H = sum(c * w(p) for p, c in t.items())
    R = sum(c * sum(w(q) for q in range(p)) for p, c in t.items())
    F = H + R
    elementary = None if nvars is None else F + nvars
    principal = None if nvars is None else h_base.sum() * nvars
    E = elementary if (nvars is not None and t.sum() == 1) else None
    return DimensionReport(
        H=H,
        R=R,
        F=F,
        mode=mode,
        nvars=nvars,
        elementary=elementary,
        principal=principal,
        E=E,
    )
