"""Truncated integer Laurent-series arithmetic for Hilbert-series tests.

A TruncatedSeries knows its coefficients exactly below an explicit bound
and refuses to answer beyond it; ``bound=None`` marks an exact (finitely
supported) series.  This is the plumbing behind the w* window used to
predict ambient Gorenstein Hilbert functions, the numerical Koszul
criterion for products of forms, and the expected series of generic
quotients.
"""

from __future__ import annotations

from .invariants import IntSeq
from .rings import BoundExceededError, GradedRing, MathDomainError


class TruncatedSeries:
    """An integer Laurent series known exactly on exponents < bound.

    Exponents below ``lo`` are zero, exponents in [lo, bound) are stored,
    exponents >= bound are unknown (BoundExceededError on access).
    """

    __slots__ = ("lo", "coeffs", "bound")

    def __init__(self, coeffs, lo: int = 0, bound: int | None = None):
        vals = [int(c) for c in coeffs]
        if bound is not None:
            del vals[max(0, bound - lo):]
        while vals and vals[0] == 0:
            vals.pop(0)
            lo += 1
        while vals and vals[-1] == 0:
            vals.pop()
        if not vals:
            lo = bound if bound is not None else 0
        self.lo = lo
        self.coeffs = tuple(vals)
        self.bound = bound

    @classmethod
    def zero(cls, bound: int | None = None) -> "TruncatedSeries":
        return cls((), 0, bound)

    @classmethod
    def one(cls, bound: int | None = None) -> "TruncatedSeries":
        return cls((1,), 0, bound)

    def __getitem__(self, p: int) -> int:
        if self.bound is not None and p >= self.bound:
            raise BoundExceededError(f"coefficient at z^{p} is beyond the bound {self.bound}")
        if self.lo <= p < self.lo + len(self.coeffs):
            return self.coeffs[p - self.lo]
        return 0

    def known_through(self, n: int) -> bool:
        """Whether all coefficients at exponents < n are known."""
        return self.bound is None or n <= self.bound

    def window(self, lo: int, hi: int) -> tuple:
        return tuple(self[p] for p in range(lo, hi))

    def as_intseq(self) -> IntSeq:
        return IntSeq(self.coeffs, self.lo)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        bound = _min_bound(self.bound, other.bound)
        lo = min(self.lo, other.lo)
        hi = max(self.lo + len(self.coeffs), other.lo + len(other.coeffs))
        if bound is not None:
            hi = min(hi, bound)
        vals = [
            (self.coeffs[p - self.lo] if self.lo <= p < self.lo + len(self.coeffs) else 0)
            + (other.coeffs[p - other.lo] if other.lo <= p < other.lo + len(other.coeffs) else 0)
            for p in range(lo, hi)
        ]
        return TruncatedSeries(vals, lo, bound)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + other.scale(-1)

    def scale(self, c: int) -> "TruncatedSeries":
        return TruncatedSeries([c * v for v in self.coeffs], self.lo, self.bound)

    def shift(self, k: int) -> "TruncatedSeries":
        return TruncatedSeries(
            self.coeffs, self.lo + k, None if self.bound is None else self.bound + k
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        # unknown tails propagate: a coefficient of the product is known only
        # below min(bound_a + lo_b, bound_b + lo_a)
        cands = []
        if self.bound is not None:
            cands.append(self.bound + other.lo)
        if other.bound is not None:
            cands.append(other.bound + self.lo)
        bound = min(cands) if cands else None
        lo = self.lo + other.lo
        hi = self.lo + len(self.coeffs) + other.lo + len(other.coeffs) - 1
        if not self.coeffs or not other.coeffs:
            return TruncatedSeries.zero(bound)
        if bound is not None:
            hi = min(hi, bound)
        out = [0] * max(0, hi - lo)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                p = lo + i + j
                if p < hi:
                    out[i + j] += a * b
        return TruncatedSeries(out, lo, bound)

    def agrees_mod(self, other: "TruncatedSeries", n: int) -> bool:
        """Equality of all coefficients at exponents < n."""
        if not (self.known_through(n) and other.known_through(n)):
            raise BoundExceededError(f"series not known through z^{n - 1}")
        lo = min(self.lo, other.lo)
        return all(self[p] == other[p] for p in range(lo, n))

    def leq_mod(self, other: "TruncatedSeries", n: int) -> bool:
        """Coefficientwise <= at all exponents < n."""
        if not (self.known_through(n) and other.known_through(n)):
            raise BoundExceededError(f"series not known through z^{n - 1}")
        lo = min(self.lo, other.lo)
        return all(self[p] <= other[p] for p in range(lo, n))

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.lo, self.coeffs, self.bound) == (other.lo, other.coeffs, other.bound)

    def __hash__(self):
        return hash((self.lo, self.coeffs, self.bound))

    def __str__(self):
        if not self.coeffs:
            body = "0"
        else:
            chunks = []
            for i, c in enumerate(self.coeffs):
                if c == 0:
                    continue
                p = self.lo + i
                if p == 0:
                    term = str(c)
                elif p == 1:
                    term = "z" if c == 1 else ("-z" if c == -1 else f"{c}*z")
                else:
                    term = f"z^{p}" if c == 1 else (f"-z^{p}" if c == -1 else f"{c}*z^{p}")
                chunks.append(term)
            body = chunks[0]
            for ch in chunks[1:]:
                body += f" - {ch[1:]}" if ch.startswith("-") else f" + {ch}"
        if self.bound is None:
            return body
        return f"{body} + O(z^{self.bound})"

    def __repr__(self):
        return f"TruncatedSeries({list(self.coeffs)}, lo={self.lo}, bound={self.bound})"


def _min_bound(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def ring_series(ring: GradedRing, N: int) -> TruncatedSeries:
    """Hilbert series of the weighted polynomial ring, truncated at N."""
    if N < 1:
        raise ValueError("need N >= 1")
    return TruncatedSeries([ring.dim(d) for d in range(N)], 0, N)


def vanishing_polynomial(degrees) -> TruncatedSeries:
    """The exact polynomial prod_i (1 - z^{d_i})."""
    out = TruncatedSeries.one()
    for d in degrees:
        d = int(d)
        if d < 1:
            raise MathDomainError("degrees must be positive")
        factor = TruncatedSeries([1] + [0] * (d - 1) + [-1], 0, None)
        out = out * factor
    return out


def apply_vanishing_product(H: TruncatedSeries, degrees) -> TruncatedSeries:
    """H * prod_i (1 - z^{d_i}), still valid through H's bound."""
    return H * vanishing_polynomial(degrees)


def dual_series(h: IntSeq, bound: int = 1) -> TruncatedSeries:
    """The dual Hilbert series sum_q h(q) z^{-q} of an Artinian quotient with
    Hilbert function h, declared known through exponent bound-1."""
    return TruncatedSeries(tuple(reversed(h.values)), -h.last() if h else 0, bound)


def wstar_window(Hdual: TruncatedSeries, t: IntSeq, a: int):
    """The w* coefficient window of a type-t quotient inside a Gorenstein
    ambient with dual series Hdual and socle degree a.

    w*(p) is the z^p coefficient of Hdual * prod_j (1 - z^j)^{t(a-j)}.
    Returns (wstar, n, bound_limited): n is the largest integer with
    w*(p) >= 0 for all p < n, found as the first negative coefficient
    scanning upward from the lowest exponent; when no negative appears
    before the series bound, n is the bound and bound_limited is set.
    """
    if t and t.last() >= a:
        raise MathDomainError("type support must lie strictly below the ambient socle degree")
    degrees = []
    for q, v in t.items():
        if v < 0:
            raise MathDomainError("type values must be nonnegative")
        degrees.extend([a - q] * v)
    prod = Hdual * vanishing_polynomial(degrees)
    if prod.bound is not None and prod.bound <= -a:
        raise BoundExceededError("truncation bound too small to locate n")
    wstar = prod.as_intseq()
    hi = prod.bound if prod.bound is not None else prod.lo + len(prod.coeffs)
    for p in range(min(prod.lo, -a), hi):
        if prod[p] < 0:
            return wstar, p, False
    if prod.bound is None:
        # exact and everywhere nonnegative: any n works
        return wstar, None, False
    return wstar, prod.bound, True


def koszul_series_verdict(
    HM: TruncatedSeries, HMq: TruncatedSeries, degrees, n: int
) -> bool:
    """Whether H(M) * prod(1 - z^{d_i}) agrees with the quotient series mod z^n.

    Agreement certifies that multiplication by each successive form is
    injective degreewise below n (no first Koszul homology there); the
    product is always coefficientwise <= the quotient series.
    """
    return apply_vanishing_product(HM, degrees).agrees_mod(HMq, n)


def froeberg_expected(
    base: TruncatedSeries, ci_degrees, form_degrees, N: int
) -> TruncatedSeries:
    """Expected series of a quotient by a complete intersection and further
    generic forms: base * prod(1-z^{d_i}) * prod(1-z^{e_j}) truncated at N.

    No clipping at the first nonpositive coefficient; callers choose their
    own comparison window.
    """
    out = apply_vanishing_product(base, list(ci_degrees) + list(form_degrees))
    if out.bound is None or out.bound > N:
        return TruncatedSeries(out.coeffs, out.lo, N)
    return out
