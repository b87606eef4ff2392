"""Graded Hom(I, C) tangents, the I/I^2 route, and elementary-family counts."""

import time
from collections import Counter

import pytest

import apolar.rings as rings_module
import apolar.tangents as tangents_module

from apolar.constructions import derived_seed, random_dual_generators
from apolar.duality import (
    GradedIdeal,
    QuotientRing,
    annihilator_of_submodule,
    generated_submodule,
)
from apolar.invariants import IntSeq, hilbert_function
from apolar.compressed import is_I_compressed
from apolar.rings import (
    GF,
    QQ,
    BoundExceededError,
    GradedRing,
    MathDomainError,
    Polynomial,
    complete_span,
    echelon,
    kernel,
    matrix_rank,
)
from apolar.tangents import (
    _minimal_syzygies,
    elementary_report,
    gorenstein_tangent_crosscheck,
    hom_dims,
    minimal_generators,
    squared_ideal_dim,
    syzygies_at_degree,
    tangent_dim,
    tnt_verdict,
)

F101 = GF(101)
R2 = GradedRing.standard(QQ, ("X1", "X2"))
W32 = GradedRing(("X1", "X2"), (3, 2), QQ)


def var(ring, i):
    return ring.variable(i)


def ci_ideal(bound=7):
    x, y = var(R2, 0), var(R2, 1)
    return GradedIdeal.from_generators(R2, [x ** 3, y ** 3], bound)


class TestMinimalGenerators:
    def test_maximal_ideal(self):
        x, y = var(R2, 0), var(R2, 1)
        I = GradedIdeal.from_generators(R2, [x, y], 4)
        assert [d for d, _ in minimal_generators(I)] == [1, 1]

    def test_monomial_ci(self):
        I = ci_ideal()
        gens = minimal_generators(I)
        assert [d for d, _ in gens] == [3, 3]
        for d, g in gens:
            assert g.degree() == d
            assert I.contains(g)

    def test_graded_cusp_ideal(self):
        x, y = var(R2, 0), var(R2, 1)
        I = GradedIdeal.from_generators(R2, [x * y, x * x, y ** 4], 6)
        assert [d for d, _ in minimal_generators(I)] == [2, 2, 4]

    def test_weighted_gorenstein(self):
        x, y = var(W32, 0), var(W32, 1)
        I = GradedIdeal.from_generators(W32, [x * x - y ** 3, x * y], 10)
        assert [d for d, _ in minimal_generators(I)] == [5, 6]

    def test_uncertified_rejected(self):
        x = var(R2, 0)
        I = GradedIdeal.from_generators(R2, [x], 4)
        with pytest.raises(BoundExceededError):
            minimal_generators(I)


class TestSyzygies:
    def test_koszul_relation(self):
        x, y = var(R2, 0), var(R2, 1)
        syz = syzygies_at_degree([x, y], 2)
        assert syz.dim == 1
        # the single relation is a*x + b*y = 0 with (a, b) != 0
        row = syz.rows[0]
        a = Polynomial.from_vector(R2, 1, row[:2])
        b = Polynomial.from_vector(R2, 1, row[2:])
        assert not (a.is_zero() and b.is_zero())
        assert (a * x + b * y).is_zero()

    def test_koszul_multiples(self):
        x, y = var(R2, 0), var(R2, 1)
        assert syzygies_at_degree([x, y], 3).dim == 2
        assert syzygies_at_degree([x, y], 1).dim == 0

    def test_square_of_maximal_ideal(self):
        x, y = var(R2, 0), var(R2, 1)
        gens = [x * x, x * y, y * y]
        assert syzygies_at_degree(gens, 2).dim == 0
        assert syzygies_at_degree(gens, 3).dim == 2


class TestHomProfiles:
    def test_maximal_ideal_is_tnt(self):
        x, y = var(R2, 0), var(R2, 1)
        I = GradedIdeal.from_generators(R2, [x, y], 4)
        prof = hom_dims(I)
        assert prof.dims == {-1: 2}
        assert prof.negative_total == 2
        assert prof.tnt
        assert tnt_verdict(I)

    def test_square_of_maximal_ideal(self):
        x, y = var(R2, 0), var(R2, 1)
        I = GradedIdeal.from_generators(R2, [x * x, x * y, y * y], 5)
        prof = hom_dims(I)
        assert prof.dim(-1) == 6
        assert prof.dim(-2) == 0
        assert prof.negative_total == 6
        assert not prof.tnt

    def test_monomial_ci_profile(self):
        prof = hom_dims(ci_ideal())
        assert prof.dims == {-3: 2, -2: 4, -1: 6, 0: 4, 1: 2}
        assert prof.socle_degree == 4
        assert prof.generator_degrees == (3, 3)
        assert not prof.tnt

    def test_vanishing_below_window(self):
        I = ci_ideal()
        assert tangent_dim(I, -4) == 0
        assert tangent_dim(I, -5) == 0

    def test_cutoff_enlargement_is_idle(self):
        I = ci_ideal(9)
        for v in (-3, -1, 0):
            base = tangent_dim(I, v)
            assert tangent_dim(I, v, cutoff=4 - v + 3) == base


def brute_hom_dim(ideal, v):
    """Oracle: solve for a degree-v linear map on every graded piece of I
    at once, subject to phi(x_i b) = x_i phi(b) for each basis vector b.

    Valid whenever the bound exceeds s - v + max weight, so that products
    leaving the window can only land in vanishing pieces of C.
    """
    ring = ideal.ring
    field = ring.field
    C = QuotientRing(ideal)
    s = C.top_degree()
    hi = ideal.bound
    assert hi > s - v, "bound too small for the oracle window"
    offs = {}
    total = 0
    for d in range(hi):
        offs[d] = total
        total += ideal.piece(d).dim * C.dim(d + v)
    if total == 0:
        return 0
    rows = []
    for d in range(hi):
        sp = ideal.piece(d)
        if sp.dim == 0:
            continue
        for i in range(ring.nvars):
            e = d + ring.weights[i]
            if e >= hi or C.dim(e + v) == 0:
                continue
            tsp = ideal.piece(e)
            # when C_{d+v} = 0 the x_i phi(b) term is zero but the rows
            # phi(x_i b) = 0 still constrain the degree-e unknowns
            mult = C.mult_matrix(var(ring, i), d + v) if C.dim(d + v) else None
            for j, brow in enumerate(sp.rows):
                shifted = Polynomial.from_vector(ring, d, brow) * var(ring, i)
                vec = shifted.coefficient_vector(e)
                coords = [vec[p] for p in tsp.pivots]
                for tau in range(C.dim(e + v)):
                    row = [field.zero] * total
                    for k, c in enumerate(coords):
                        if c != 0:
                            row[offs[e] + k * C.dim(e + v) + tau] = c
                    if mult is not None:
                        for sig in range(C.dim(d + v)):
                            c = mult[tau][sig]
                            if c != 0:
                                slot = offs[d] + j * C.dim(d + v) + sig
                                row[slot] = field.sub(row[slot], c)
                    rows.append(row)
    if not rows:
        return total
    return total - matrix_rank(field, rows, total)


def _oracle_instances():
    x, y = var(R2, 0), var(R2, 1)
    yield ci_ideal(10)
    yield GradedIdeal.from_generators(R2, [x * x, x * y, y * y], 6)
    xw, yw = var(W32, 0), var(W32, 1)
    yield GradedIdeal.from_generators(W32, [xw * xw - yw ** 3, xw * yw], 17)
    menu = [(2, {3: 1}), (2, {2: 1, 3: 1}), (3, {2: 1}), (3, {3: 1}), (2, {4: 1})]
    for k, (r, t) in enumerate(menu):
        ring = GradedRing.standard(F101, r)
        D = generated_submodule(random_dual_generators(ring, t, seed=500 + k))
        s = -min(D.support())
        maxd = s + 1
        yield annihilator_of_submodule(D, bound=s + maxd + 3)


class TestBruteOracle:
    def test_profiles_match_brute_force(self):
        start = time.time()
        for I in _oracle_instances():
            C_total = sum(
                QuotientRing(I).dim(d) for d in range(I.bound)
            )
            assert C_total <= 12
            prof = hom_dims(I)
            lo = min(prof.dims)
            hi = max(prof.dims)
            for v in range(lo - 2, hi + 1):
                assert prof.dim(v) == brute_hom_dim(I, v), (I, v)
        assert time.time() - start < 60


def all_syzygies_hom_dim(ideal, v, cutoff=None):
    """Oracle: dim Hom(I, C)_v imposing every syzygy of the minimal
    generators, all of ``syzygies_at_degree`` in each degree d <= cutoff
    (default s - v), rather than the minimal ones only."""
    C = QuotientRing(ideal)
    s = C.top_degree()
    mingens = minimal_generators(ideal)
    ring = C.ring
    field = ring.field
    degs = [d for d, _ in mingens]
    polys = [g for _, g in mingens]
    widths = [C.dim(d + v) for d in degs]
    total = sum(widths)
    if total == 0:
        return 0
    offsets = []
    run = 0
    for w in widths:
        offsets.append(run)
        run += w
    if cutoff is None:
        cutoff = s - v
    rows = []
    for d in range(min(degs), cutoff + 1):
        tgt = C.dim(d + v)
        if tgt == 0:
            continue
        syz = syzygies_at_degree(polys, d)
        if not syz.dim:
            continue
        split = []
        pos = 0
        for g in polys:
            e = d - g.degree()
            w = ring.dim(e) if e >= 0 else 0
            split.append((pos, w, e))
            pos += w
        for rel in syz.rows:
            blocks = []
            for i, (start, w, e) in enumerate(split):
                if w == 0 or widths[i] == 0:
                    blocks.append(None)
                    continue
                coeffs = rel[start : start + w]
                if all(c == 0 for c in coeffs):
                    blocks.append(None)
                    continue
                monos = ring.monomials(e)
                a = Polynomial(ring, {m: c for m, c in zip(monos, coeffs) if c != 0})
                blocks.append(C.mult_matrix(a, degs[i] + v))
            if all(b is None for b in blocks):
                continue
            for t in range(tgt):
                row = [field.zero] * total
                for i, b in enumerate(blocks):
                    if b is None:
                        continue
                    for j in range(widths[i]):
                        row[offsets[i] + j] = b[t][j]
                if any(c != 0 for c in row):
                    rows.append(row)
    if not rows:
        return total
    return kernel(field, rows, total).dim


F32003 = GF(32003)

# (ring, socle type of the dual generators, seed): GF(101), GF(32003) and QQ,
# r = 2-4, one or two dual generators, and the weighted rings x,y:2,
# x:2,y:3 and x,y,z:2
SEEDED = [
    (GradedRing.standard(F101, 2), {5: 1}, 11),
    (GradedRing.standard(F101, 3), {2: 1, 3: 1}, 12),
    (GradedRing.standard(F32003, 3), {4: 1}, 13),
    (GradedRing.standard(F32003, 4), {3: 1}, 14),
    (GradedRing.standard(F32003, 2), {3: 1, 4: 1}, 15),
    (GradedRing.standard(QQ, 2), {2: 1, 4: 1}, 16),
    (GradedRing.standard(QQ, 3), {3: 1}, 17),
    (GradedRing(("x", "y"), (1, 2), F101), {4: 1, 5: 1}, 18),
    (GradedRing(("x", "y"), (2, 3), F32003), {12: 1}, 19),
    (GradedRing(("x", "y", "z"), (1, 1, 2), QQ), {4: 1}, 20),
    (GradedRing(("x", "y", "z"), (1, 1, 2), F101), {3: 1, 4: 1}, 21),
]


def seeded_ideals():
    for ring, t, seed in SEEDED:
        D = generated_submodule(random_dual_generators(ring, t, seed=seed))
        s = -min(D.support())
        yield annihilator_of_submodule(D, bound=s + max(ring.weights) + 1)


def monomial_ci(ring, a, b):
    x, y = var(ring, 0), var(ring, 1)
    s = ring.weights[0] * (a - 1) + ring.weights[1] * (b - 1)
    return GradedIdeal.from_generators(ring, [x ** a, y ** b], s + max(ring.weights) + 1)


def multiples_by_polynomials(ring, degs, rows, d, i):
    """The blocked coordinate vectors, in degree d + w_i, of x_i times the
    blocked degree-d syzygy rows, multiplied out as polynomials."""
    x = var(ring, i)
    e = d + ring.weights[i]
    out = []
    for row in rows:
        vec = []
        pos = 0
        for dg in degs:
            w = ring.dim(d - dg)
            part = Polynomial.from_vector(ring, d - dg, row[pos : pos + w])
            pos += w
            vec.extend((part * x).coefficient_vector(e - dg))
        out.append(vec)
    return out


def reference_minimal_syzygies(ideal, mingens, top):
    """Minimal syzygies as the echelon form of the multiples from below,
    multiplied out as polynomials from each degree's canonical syzygy basis,
    completed to ``syzygies_at_degree`` by ``rings.complete_span``."""
    ring = ideal.ring
    degs = [d for d, _ in mingens]
    polys = [g for _, g in mingens]
    syz, minimal = {}, {}
    for d in range(min(degs), top + 1):
        dim_I = ideal.pieces[d].dim if d < ideal.bound else ring.dim(d)
        ncols = sum(ring.dim(d - dg) for dg in degs)
        if ncols == dim_I:
            continue
        rows = []
        for i, w in enumerate(ring.weights):
            if d - w in syz:
                rows += multiples_by_polynomials(ring, degs, syz[d - w].rows, d - w, i)
        covered = echelon(ring.field, rows, ncols)
        if covered.dim < ncols - dim_I:
            full = syzygies_at_degree(polys, d)
            minimal[d] = complete_span(covered, full.rows)
            covered = full
        syz[d] = covered
    return minimal


def syzygy_inputs():
    """(ideal, minimal generators, s + max generator degree) for the seeded
    ideals and two monomial complete intersections, one weighted."""
    ideals = [*seeded_ideals(), monomial_ci(R2, 3, 4)]
    ideals.append(monomial_ci(GradedRing(("x", "y"), (2, 3), F101), 3, 2))
    for ideal in ideals:
        mingens = minimal_generators(ideal)
        yield ideal, mingens, QuotientRing(ideal).top_degree() + max(d for d, _ in mingens)


def typed_rows(minsyz):
    return {d: [[(type(x), x) for x in row] for row in rows] for d, rows in minsyz.items()}


class TestMinimalSyzygies:
    def test_matches_the_echelon_and_complete_span_reference(self):
        """Row for row and in type, on GF(101), GF(32003), QQ and weighted
        rings; some degrees are filled by the multiples, some are not."""
        kinds, fields = set(), set()
        for ideal, mingens, top in syzygy_inputs():
            want = reference_minimal_syzygies(ideal, mingens, top)
            assert typed_rows(_minimal_syzygies(ideal, mingens, top)) == typed_rows(want)
            polys = [g for _, g in mingens]
            kinds |= {d in want for d in range(top + 1) if syzygies_at_degree(polys, d).dim}
            fields.add(ideal.ring.field)
        assert kinds == {True, False}
        assert fields == {F101, F32003, QQ}

    def test_rref_runs_only_in_the_syzygy_kernels(self, monkeypatch):
        """The multiples are decided by one forward basis per degree: every
        rref of ``_minimal_syzygies`` is the kernel of a ``syzygies_at_degree``."""
        inputs = list(syzygy_inputs())
        calls = Counter()
        rref, solve = rings_module.rref, tangents_module.syzygies_at_degree

        def counting_rref(*args):
            calls["rref"] += 1
            return rref(*args)

        def counting_solve(gens, d):
            calls["syzygies_at_degree"] += 1
            return solve(gens, d)

        monkeypatch.setattr(rings_module, "rref", counting_rref)
        monkeypatch.setattr(tangents_module, "syzygies_at_degree", counting_solve)
        for ideal, mingens, top in inputs:
            calls.clear()
            _minimal_syzygies(ideal, mingens, top)
            assert calls["syzygies_at_degree"] > 0
            assert calls["rref"] == calls["syzygies_at_degree"]

    def check_spans(self, ideal):
        """Minimal syzygies plus the multiples from below span every
        syzygy space up to s + max deg g_i; none lie above the Koszul bound."""
        ring = ideal.ring
        s = QuotientRing(ideal).top_degree()
        mingens = minimal_generators(ideal)
        degs = [d for d, _ in mingens]
        polys = [g for _, g in mingens]
        top = s + max(degs)
        minsyz = _minimal_syzygies(ideal, mingens, top)
        koszul = s + sum(sorted(ring.weights)[-2:])
        assert all(d <= koszul for d in minsyz)
        spans = {}
        for d in range(top + 1):
            width = sum(ring.dim(d - dg) for dg in degs)
            rows = list(minsyz.get(d, ()))
            for i, w in enumerate(ring.weights):
                if d - w in spans:
                    rows += multiples_by_polynomials(ring, degs, spans[d - w].rows, d - w, i)
            spans[d] = echelon(ring.field, rows, width)
            assert spans[d] == syzygies_at_degree(polys, d), d
        return s, minsyz

    def test_seeded_instances(self):
        for ideal in seeded_ideals():
            self.check_spans(ideal)

    def test_monomial_complete_intersections_attain_the_bound(self):
        for ring, a, b in ((R2, 3, 4), (GradedRing(("x", "y"), (2, 3), F101), 3, 2)):
            s, minsyz = self.check_spans(monomial_ci(ring, a, b))
            top_syzygy = ring.weights[0] * a + ring.weights[1] * b
            assert list(minsyz) == [top_syzygy]
            assert top_syzygy == s + sum(ring.weights)
            assert len(minsyz[top_syzygy]) == 1


class TestAllSyzygiesOracle:
    def test_profiles_and_cutoffs_match(self):
        start = time.time()
        for ideal in seeded_ideals():
            prof = hom_dims(ideal)
            s = prof.socle_degree
            for v in prof.dims:
                assert prof.dim(v) == all_syzygies_hom_dim(ideal, v), (ideal, v)
            for v in (min(prof.dims), -1, 0, 1):
                for cutoff in (None, s - v - 1, s - v + 2):
                    assert tangent_dim(ideal, v, cutoff) == all_syzygies_hom_dim(
                        ideal, v, cutoff
                    ), (ideal, v, cutoff)
        assert time.time() - start < 10


class TestSyzygyCalls:
    def test_builds_no_quotient_ring(self, monkeypatch):
        cases = [
            ([g for _, g in mingens], d)
            for _, mingens, top in syzygy_inputs()
            for d in range(top + 1)
        ]

        def forbidden(*args):
            raise AssertionError("syzygies_at_degree built a QuotientRing")

        monkeypatch.setattr(QuotientRing, "__init__", forbidden)
        assert sum(syzygies_at_degree(polys, d).dim for polys, d in cases) > 0

    def test_at_most_once_per_degree(self, monkeypatch):
        ring = GradedRing.standard(F32003, 3)
        D = generated_submodule(random_dual_generators(ring, {5: 1}, seed=1))
        ideal = annihilator_of_submodule(D, bound=7)
        calls = Counter()
        solve = tangents_module.syzygies_at_degree

        def counting(gens, d):
            calls[d] += 1
            return solve(gens, d)

        monkeypatch.setattr(tangents_module, "syzygies_at_degree", counting)
        hom_dims(ideal)
        assert calls
        assert max(calls.values()) == 1


class TestGorensteinCrosscheck:
    def test_monomial_ci_agrees(self):
        rep = gorenstein_tangent_crosscheck(ci_ideal())
        assert rep.agree
        assert rep.socle_degree == 4
        got = {v: d for v, d, _ in rep.rows}
        assert got == {-3: 2, -2: 4, -1: 6, 0: 4, 1: 2}

    def test_seeded_gorenstein_instances(self):
        checked = 0
        for k in range(20):
            r = 2 + (k % 2)
            s = 3 + (k % 3)
            ring = GradedRing.standard(F101, r)
            D = generated_submodule(
                random_dual_generators(ring, {s: 1}, seed=9000 + k)
            )
            I = annihilator_of_submodule(D, bound=s + 2)
            rep = gorenstein_tangent_crosscheck(I)
            assert rep.agree
            checked += 1
        assert checked == 20

    def test_non_gorenstein_rejected(self):
        x, y = var(R2, 0), var(R2, 1)
        I = GradedIdeal.from_generators(R2, [x * x, x * y, y * y], 5)
        with pytest.raises(MathDomainError):
            gorenstein_tangent_crosscheck(I)

    def test_wrong_socle_degree_rejected(self):
        with pytest.raises(MathDomainError):
            gorenstein_tangent_crosscheck(ci_ideal(), s=3)

    def test_squared_ideal_dims(self):
        I = ci_ideal()
        mingens = minimal_generators(I)
        # I_5 = R_5 (dim 6) and (I^2)_5 = 0; at 6 the square contributes
        assert squared_ideal_dim(I, mingens, 5) == 6
        assert squared_ideal_dim(I, mingens, 6) == R2.dim(6) - 3
        assert squared_ideal_dim(I, mingens, -1) == 0


class TestCompressedEvenSocle:
    """r = 3, s = 4: an I-compressed Gorenstein quotient has 21 negative
    tangent directions at v = -1 alone, so it is never tnt."""

    def setup_method(self):
        ring = GradedRing.standard(F101, 3)
        self.ring = ring
        self.D = generated_submodule(random_dual_generators(ring, {4: 1}, seed=12))
        self.I = annihilator_of_submodule(self.D, bound=6)

    def test_draw_is_compressed(self):
        assert hilbert_function(self.D) == IntSeq([1, 3, 6, 3, 1])
        assert is_I_compressed(self.D)

    def test_negative_tangent_at_minus_one(self):
        prof = hom_dims(self.I)
        assert prof.dim(-1) == self.ring.dim(5) == 21
        assert not prof.tnt


class TestTntPinned:
    def test_compressed_1_5_6_1_has_trivial_negative_tangents(self):
        ring = GradedRing.standard(F101, 5)
        D = generated_submodule(
            random_dual_generators(ring, {2: 1, 3: 1}, seed=3)
        )
        assert hilbert_function(D) == IntSeq([1, 5, 6, 1])
        I = annihilator_of_submodule(D, bound=5)
        assert tnt_verdict(I)
        # the nonnegative part of the profile matches the family count:
        # T_0 carries H deformation directions and T_1 the R relation ones
        prof = hom_dims(I)
        rep = elementary_report({2: 1, 3: 1}, 5)
        assert prof.dim(0) == rep.H == 43
        assert prof.dim(1) == rep.R == 9


class TestElementaryReport:
    def test_two_socle_degrees_r5(self):
        rep = elementary_report({2: 1, 3: 1}, 5)
        assert (rep.H, rep.R, rep.F) == (43, 9, 52)
        assert rep.length == 13
        assert rep.elementary == 57
        assert rep.principal == 65
        assert rep.small_component
        assert not rep.generic_nonsmoothable
        assert rep.E is None

    def test_two_socle_degrees_r7(self):
        rep = elementary_report({2: 1, 3: 1}, 7)
        assert rep.elementary == 130
        assert rep.principal == 119
        assert rep.generic_nonsmoothable

    def test_threshold_in_r(self):
        for r in range(4, 11):
            rep = elementary_report({2: 1, 3: 1}, r)
            assert rep.generic_nonsmoothable == (r >= 7)
            assert rep.small_component == (r < 7)

    def test_gorenstein_cubic_count(self):
        rep = elementary_report({3: 1}, 8)
        assert rep.E == 155
        assert rep.elementary == rep.E
        assert rep.principal == 144
        assert rep.generic_nonsmoothable

    def test_gorenstein_cubic_threshold(self):
        for r in range(3, 12):
            rep = elementary_report({3: 1}, r)
            assert rep.elementary == rep.E
            assert rep.generic_nonsmoothable == (r >= 8)

    def test_impermissible_type_rejected(self):
        with pytest.raises(MathDomainError):
            elementary_report({1: 1, 5: 1}, 2)
