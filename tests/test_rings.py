from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apolar.duality import GradedIdeal, QuotientRing
from apolar.rings import (
    GF,
    QQ,
    GradedRing,
    MathDomainError,
    Polynomial,
    Subspace,
    echelon,
    graded_dim,
    kernel,
    mat_mul,
    monomials_of_degree,
    rref,
    truncate_algebra,
)


R2 = GradedRing.standard(QQ, ["x", "y"])
R3 = GradedRing.standard(QQ, ["x", "y", "z"])
W32 = GradedRing(("x", "y"), (3, 2), QQ)


def test_monomial_enumeration_standard():
    assert monomials_of_degree(R2, 2) == ((2, 0), (1, 1), (0, 2))
    assert monomials_of_degree(R2, 0) == ((0, 0),)
    assert monomials_of_degree(R2, -1) == ()


def test_monomial_enumeration_weighted():
    assert monomials_of_degree(W32, 6) == ((2, 0), (0, 3))
    assert monomials_of_degree(W32, 5) == ((1, 1),)
    assert monomials_of_degree(W32, 1) == ()


def test_graded_dims():
    assert graded_dim(R3, 4) == 15
    assert graded_dim(W32, 1) == 0
    assert graded_dim(R2, 5) == 6


@given(st.integers(0, 9))
def test_dim_matches_enumeration(d):
    assert graded_dim(R3, d) == len(monomials_of_degree(R3, d))


def test_field_primality():
    def trial_division(n):
        return n >= 2 and all(n % q for q in range(2, int(n**0.5) + 1))

    def accepted(n):
        try:
            return GF(n).p == n
        except ValueError:
            return False

    assert [n for n in range(3000) if accepted(n)] == [
        n for n in range(3000) if trial_division(n)
    ]
    # a Carmichael number and a strong pseudoprime to the bases 2, 3, 5, 7
    for n in (561, 3215031751):
        with pytest.raises(ValueError, match="not prime"):
            GF(n)
    assert GF(2**61 - 1).p == 2**61 - 1
    with pytest.raises(ValueError, match=r"p < 2\^64"):
        GF(2**64 + 13)


def test_field_arithmetic():
    assert QQ.of("2/3") == Fraction(2, 3)
    k = GF(101)
    assert k.of(-1) == 100
    assert k.mul(k.of(51), k.of(2)) == 1
    assert k.inv(2) == 51
    assert k.of(Fraction(1, 2)) == 51
    with pytest.raises(ValueError):
        GF(100)


def _ambient(ring, top):
    """A itself, as the quotient by the zero ideal, up to degree ``top``."""
    return QuotientRing(GradedIdeal(ring, top + 1, {}))


def test_mult_matrix_examples():
    A = _ambient(R2, 2)
    x = R2.variable(0)
    assert A.mult_matrix(x, 0) == ((1,), (0,))
    z = Polynomial.zero(R2)
    assert A.combination_matrix(z.terms.items(), 1, 1) == ((0, 0), (0, 0), (0, 0))
    with pytest.raises(MathDomainError):
        A.mult_matrix(z, 1)  # the zero polynomial has no degree
    xy = R2.variable(0) + R2.variable(1)
    assert A.mult_matrix(xy, 1) == ((1, 0), (1, 1), (0, 1))


def test_mult_matrix_rejects_inhomogeneous():
    f = R2.variable(0) + Polynomial.one(R2)
    with pytest.raises(MathDomainError):
        _ambient(R2, 2).mult_matrix(f, 1)


@given(
    st.integers(0, 2),
    st.integers(0, 2),
    st.integers(0, 2),
)
def test_mult_matrix_multiplicative(d, e1, e2):
    # multiplication composes as matrices: M(f*g, d) = M(f, d + deg g) * M(g, d)
    ring = GradedRing.standard(GF(7), ["x", "y"])
    f = Polynomial(ring, {(e1, 0): 1, (0, e1): 2})
    g = Polynomial(ring, {(e2, 0): 3, (0, e2): 1})
    A = _ambient(ring, d + e1 + e2)
    lhs = A.mult_matrix(f * g, d)
    rhs = mat_mul(ring.field, A.mult_matrix(f, d + e2), A.mult_matrix(g, d))
    assert lhs == rhs


def test_truncate_algebra_dims():
    assert truncate_algebra(R2, 3).total_dim == 6
    assert truncate_algebra(W32, 7).dims == (1, 0, 1, 1, 1, 1, 2)
    one_var = GradedRing.standard(QQ, ["t"])
    assert truncate_algebra(one_var, 4).dims == (1, 1, 1, 1)


def test_truncated_multiply_by_var():
    T = truncate_algebra(R2, 3)
    v = T.vector_of(Polynomial(R2, {(1, 0): 1, (0, 1): 1}))
    w = T.multiply_by_var(0, v)
    assert T.polynomial_of(w) == Polynomial(R2, {(2, 0): 1, (1, 1): 1})
    # beyond the bound everything is cut off
    top = T.vector_of(Polynomial(R2, {(2, 0): 1}))
    assert all(c == 0 for c in T.multiply_by_var(1, top))


def test_kernel_example_gf101():
    k = GF(101)
    ker = kernel(k, ((1, 1),), 2)
    assert ker.rows == ((1, 100),)


def test_intersect_example():
    e = [[1, 0, 0], [0, 1, 0]]
    f = [[0, 1, 0], [0, 0, 1]]
    s = echelon(QQ, e, 3).intersect(echelon(QQ, f, 3))
    assert s.rows == ((Fraction(0), Fraction(1), Fraction(0)),)


def test_perp_example():
    # span{x^2} inside the degree-2 piece; complement has the other two coordinates
    s = echelon(QQ, [[1, 0, 0]], 3)
    p = s.perp()
    assert p.dim == 2
    assert p.contains((0, 1, 0)) and p.contains((0, 0, 1))


def test_perp_dimension_identity():
    k = GF(101)
    s = echelon(k, [[1, 2, 3, 4], [0, 1, 1, 1]], 4)
    assert s.dim + s.perp().dim == 4
    assert s.perp().perp() == s


@st.composite
def small_matrix(draw):
    ncols = draw(st.integers(1, 5))
    nrows = draw(st.integers(1, 5))
    rows = draw(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return ncols, rows


@settings(max_examples=60)
@given(small_matrix(), st.randoms(use_true_random=False))
def test_echelon_is_order_independent(mat, rnd):
    ncols, rows = mat
    for field in (QQ, GF(101)):
        frows = [[field.of(x) for x in r] for r in rows]
        shuffled = list(frows)
        rnd.shuffle(shuffled)
        assert echelon(field, frows, ncols) == echelon(field, shuffled, ncols)


@settings(max_examples=60)
@given(small_matrix())
def test_rank_nullity(mat):
    ncols, rows = mat
    for field in (QQ, GF(101)):
        frows = [[field.of(x) for x in r] for r in rows]
        rank = len(rref(field, frows, ncols)[0])
        assert rank + kernel(field, frows, ncols).dim == ncols


@settings(max_examples=40)
@given(small_matrix())
def test_echelon_idempotent(mat):
    ncols, rows = mat
    s = echelon(QQ, [[QQ.of(x) for x in r] for r in rows], ncols)
    assert echelon(QQ, s.rows, ncols) == s


def test_subspace_equality_is_canonical():
    a = echelon(QQ, [[1, 1], [0, 1]], 2)
    b = echelon(QQ, [[2, 0], [3, 3]], 2)
    assert a == b == Subspace.full(QQ, 2)


def test_polynomial_string_forms():
    f = Polynomial(R2, {(2, 0): 1, (0, 3): -1})
    assert str(f) == "x^2 - y^3"
    assert str(Polynomial.zero(R2)) == "0"
    g = Polynomial(R2, {(1, 1): Fraction(2, 3)})
    assert str(g) == "2/3*x*y"
