"""Truncated Laurent series, the w* window, and the numerical Koszul test."""

import random

import pytest

from apolar.duality import (
    GradedIdeal,
    InverseElement,
    QuotientRing,
    contract,
    generated_submodule,
)
from apolar.invariants import IntSeq, hilbert_function
from apolar.rings import (
    GF,
    QQ,
    BoundExceededError,
    GradedRing,
    Polynomial,
    matrix_rank,
)
from apolar.series import (
    TruncatedSeries,
    apply_vanishing_product,
    dual_series,
    froeberg_expected,
    koszul_series_verdict,
    ring_series,
    vanishing_polynomial,
    wstar_window,
)


class TestTruncatedSeries:
    def test_access_and_bounds(self):
        s = TruncatedSeries([1, 2, 3], lo=-1, bound=4)
        assert (s[-5], s[-1], s[1], s[3]) == (0, 1, 3, 0)
        with pytest.raises(BoundExceededError):
            s[4]

    def test_normalization(self):
        assert TruncatedSeries([0, 0, 1], lo=0, bound=5).lo == 2
        exact = TruncatedSeries([1, 0, 0], lo=0, bound=None)
        assert exact.coeffs == (1,)

    def test_mul_bound_propagation(self):
        a = TruncatedSeries([1, 1, 1], lo=0, bound=3)
        b = TruncatedSeries([1, -1], lo=0, bound=None)
        assert (a * b).bound == 3
        shifted = TruncatedSeries([1], lo=2, bound=None)
        assert (a * shifted).bound == 5

    def test_agrees_mod_refuses_past_bound(self):
        a = TruncatedSeries([1, 1], bound=2)
        b = TruncatedSeries([1, 1], bound=4)
        assert a.agrees_mod(b, 2)
        with pytest.raises(BoundExceededError):
            a.agrees_mod(b, 3)

    def test_str(self):
        s = TruncatedSeries([1, 0, -2], lo=-1, bound=3)
        assert str(s) == "z^-1 - 2*z + O(z^3)"


class TestRingSeries:
    def test_standard(self):
        R = GradedRing.standard(QQ, 2)
        assert ring_series(R, 4) == TruncatedSeries([1, 2, 3, 4], bound=4)

    def test_weighted(self):
        W = GradedRing(("X", "Y"), (3, 2), QQ)
        assert ring_series(W, 7) == TruncatedSeries([1, 0, 1, 1, 1, 1, 2], bound=7)

    def test_one_variable(self):
        R = GradedRing.standard(QQ, 1)
        assert ring_series(R, 3) == TruncatedSeries([1, 1, 1], bound=3)


class TestVanishingProduct:
    def test_gorenstein_window(self):
        H = TruncatedSeries([1, 3, 6, 7, 6, 3, 1], bound=7)
        got = apply_vanishing_product(H, [1, 1])
        assert got == TruncatedSeries([1, 1, 1, -2, -2, -2, 1], bound=7)

    def test_telescoping(self):
        H = TruncatedSeries([1] * 9, bound=9)
        assert apply_vanishing_product(H, [1]) == TruncatedSeries([1], bound=9)

    def test_empty_is_identity(self):
        H = ring_series(GradedRing.standard(QQ, 3), 5)
        assert apply_vanishing_product(H, []) == H

    def test_multiplicative_over_disjoint_multisets(self):
        rnd = random.Random(3)
        for _ in range(25):
            H = TruncatedSeries([rnd.randrange(-4, 9) for _ in range(8)], bound=8)
            d1 = [rnd.randrange(1, 4) for _ in range(rnd.randrange(3))]
            d2 = [rnd.randrange(1, 4) for _ in range(rnd.randrange(3))]
            once = apply_vanishing_product(H, d1 + d2)
            twice = apply_vanishing_product(apply_vanishing_product(H, d1), d2)
            assert once == twice


def _wstar_oracle_dims(p_low, t_forms, ambient_h):
    """Codimension of D = A(l1 f, l2 f) in the dual of the monomial complete
    intersection GF(101)[x,y,z]/(x^3, y^3, z^3), degree by degree."""
    ring = GradedRing.standard(GF(101), 3)
    f = InverseElement(ring, {(2, 2, 2): 1})
    gens = [contract(l, f) for l in t_forms]
    D = generated_submodule(gens)
    out = {}
    for p in range(p_low, 1):
        out[p] = ambient_h[-p] - D.piece(p).dim
    return out


class TestWstarWindow:
    def test_monomial_ci_two_linear_forms(self):
        h = IntSeq([1, 3, 6, 7, 6, 3, 1])
        Hdual = dual_series(h, bound=1)
        t = IntSeq.from_items({5: 2})
        wstar, n, limited = wstar_window(Hdual, t, 6)
        assert wstar.window(-6, -2) == (1, 1, 1, -2)
        assert n == -3
        assert not limited

    def test_monomial_ci_oracle(self):
        # the window above the first negative must match actual codimensions
        # of a module generated by two general linear contractions
        ring = GradedRing.standard(GF(101), 3)
        x, y, z = (ring.variable(i) for i in range(3))
        l1 = x + y + z
        l2 = x + 2 * y + 5 * z
        h = IntSeq([1, 3, 6, 7, 6, 3, 1])
        dims = _wstar_oracle_dims(-6, [l1, l2], h)
        wstar, n, _ = wstar_window(dual_series(h, bound=1), IntSeq.from_items({5: 2}), 6)
        for p in range(-6, n):
            assert dims[p] == wstar[p]

    def test_zero_type_reports_bound(self):
        Hdual = dual_series(IntSeq([1, 2, 1]), bound=1)
        wstar, n, limited = wstar_window(Hdual, IntSeq(), 2)
        assert wstar == Hdual.as_intseq()
        assert n == 1
        assert limited

    def test_one_variable_window_hits_bound(self):
        Hdual = dual_series(IntSeq([1, 1, 1]), bound=1)
        wstar, n, limited = wstar_window(Hdual, IntSeq.from_items({1: 1}), 2)
        assert wstar.window(-2, 1) == (1, 0, 0)
        assert n == 1
        assert limited

    def test_bound_below_window_raises(self):
        Hdual = TruncatedSeries([1, 1, 1], lo=-2, bound=-2)
        with pytest.raises(BoundExceededError):
            wstar_window(Hdual, IntSeq(), 2)


class TestKoszulVerdict:
    def test_regular_element(self):
        R = GradedRing.standard(QQ, 2)
        HM = ring_series(R, 8)
        x = R.variable(0)
        I = GradedIdeal.from_generators(R, [x * x], 8)
        HMq = TruncatedSeries([R.dim(d) - I.piece(d).dim for d in range(8)], bound=8)
        assert koszul_series_verdict(HM, HMq, [2], 8)

    def test_dependent_forms_fail_at_two(self):
        R = GradedRing.standard(QQ, 2)
        HM = ring_series(R, 8)
        x = R.variable(0)
        I = GradedIdeal.from_generators(R, [x, x], 8)
        HMq = TruncatedSeries([R.dim(d) - I.piece(d).dim for d in range(8)], bound=8)
        assert koszul_series_verdict(HM, HMq, [1, 1], 1)
        assert not koszul_series_verdict(HM, HMq, [1, 1], 2)

    def test_verdict_equals_degreewise_injectivity(self):
        # the series identity holds below n exactly when multiplication by
        # each successive form is injective there
        ring = GradedRing.standard(GF(101), 3)
        rnd = random.Random(11)
        N = 7
        for _ in range(12):
            degs = sorted(rnd.randrange(1, 4) for _ in range(rnd.randrange(1, 4)))
            forms = []
            for d in degs:
                terms = {m: rnd.randrange(101) for m in ring.monomials(d)}
                f = Polynomial(ring, terms)
                if not f.is_zero():
                    forms.append(f)
            if not forms:
                continue
            degs = [f.degree() for f in forms]
            HM = ring_series(ring, N)
            quotient = GradedIdeal.from_generators(ring, forms, N)
            HMq = TruncatedSeries(
                [ring.dim(d) - quotient.piece(d).dim for d in range(N)], bound=N
            )
            for n in range(1, N + 1):
                verdict = koszul_series_verdict(HM, HMq, degs, n)
                assert verdict == _all_injective_below(ring, forms, n, N)
            # the coefficientwise inequality always holds
            assert apply_vanishing_product(HM, degs).leq_mod(HMq, N)


def _all_injective_below(ring, forms, n, N):
    # the verdict at n constrains the maps landing in degrees < n, i.e.
    # multiplication out of source degrees p with p + deg(f) < n
    for q, f in enumerate(forms):
        partial = GradedIdeal.from_generators(ring, forms[:q], N) if q else None
        d = f.degree()
        for p in range(0, n - d):
            if partial is None:
                src, tgt = ring.dim(p), ring.dim(p + d)
                mat = _ambient_mult(ring, f, p)
            else:
                Q = QuotientRing(partial)
                src, tgt = Q.dim(p), Q.dim(p + d)
                mat = Q.mult_matrix(f, p)
            if src and matrix_rank(ring.field, mat, src) < src:
                return False
    return True


def _ambient_mult(ring, f, p):
    """Multiplication by f out of degree p of A, the quotient by zero."""
    return QuotientRing(GradedIdeal(ring, p + f.degree() + 1, {})).mult_matrix(f, p)


class TestFroeberg:
    def test_ci_two_quadrics(self):
        R = GradedRing.standard(QQ, 2)
        got = froeberg_expected(ring_series(R, 8), [2, 2], [], 8)
        assert got.window(0, 4) == (1, 2, 1, 0)

    def test_ci_three_cubics(self):
        R = GradedRing.standard(QQ, 3)
        got = froeberg_expected(ring_series(R, 9), [3, 3, 3], [], 9)
        assert got.window(0, 7) == (1, 3, 6, 7, 6, 3, 1)

    def test_single_linear_form(self):
        R = GradedRing.standard(QQ, 2)
        got = froeberg_expected(ring_series(R, 6), [], [1], 6)
        assert got == TruncatedSeries([1] * 6, bound=6)

    def test_vanishing_polynomial_exact(self):
        assert vanishing_polynomial([2, 2]) == TruncatedSeries([1, 0, -2, 0, 1])
