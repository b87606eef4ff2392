"""Exact arithmetic for the benchmark's checks, written apart from apolar.

Nothing here imports apolar.  Polynomials and dual elements are plain dicts
from exponent tuples to coefficients; a dual element {M: c} stands for the
sum of c / M over inverse monomials.  Coefficients are ints or Fractions
over QQ (``p is None``) and ints in range(p) over GF(p).
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

#: A Mersenne prime used for modular ranks of rational matrices.
BIG_PRIME = (1 << 61) - 1


def monomials(r: int, d: int):
    """All exponent tuples of total degree d in r variables."""
    out = []
    for combo in combinations_with_replacement(range(r), d):
        e = [0] * r
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def ring_dim(r: int, d: int) -> int:
    return comb(d + r - 1, r - 1) if d >= 0 else 0


def compressed_hilbert(r: int, q: int):
    """h_i = min(dim R_i, dim R_{q-i}) for i = 0..q: the Hilbert function of a
    general Gorenstein quotient of socle degree q in r variables."""
    return [min(ring_dim(r, i), ring_dim(r, q - i)) for i in range(q + 1)]


def compressed_level_hilbert(r: int, socle_type: dict):
    """h_i = min(dim R_i, sum_j t_j dim R_{j-i}): the Hilbert function of a
    compressed algebra of the given socle type {degree j: t_j}."""
    top = max(socle_type)
    return [
        min(ring_dim(r, i), sum(t * ring_dim(r, j - i) for j, t in socle_type.items()))
        for i in range(top + 1)
    ]


def rank(rows, p=None) -> int:
    """Rank of a list of equal-length rows over QQ (p None) or GF(p)."""
    mat = [list(r) for r in rows]
    if p is None:
        mat = [[Fraction(x) for x in r] for r in mat]
    else:
        mat = [[mod_p(x, p) for x in r] for r in mat]
    mat = [r for r in mat if any(r)]
    if not mat:
        return 0
    ncols = len(mat[0])
    rk = 0
    for col in range(ncols):
        sel = next((i for i in range(rk, len(mat)) if mat[i][col]), None)
        if sel is None:
            continue
        mat[rk], mat[sel] = mat[sel], mat[rk]
        prow = mat[rk]
        inv = 1 / prow[col] if p is None else pow(prow[col], -1, p)
        for i in range(rk + 1, len(mat)):
            f = mat[i][col]
            if f:
                f = f * inv
                if p is None:
                    mat[i] = [x - f * y for x, y in zip(mat[i], prow)]
                else:
                    mat[i] = [(x - f * y) % p for x, y in zip(mat[i], prow)]
        rk += 1
        if rk == len(mat):
            break
    return rk


def mod_p(x, p: int) -> int:
    """Image of an int or Fraction in GF(p); the denominator must be a unit."""
    if isinstance(x, int):
        return x % p
    if x.denominator % p == 0:
        raise ZeroDivisionError(f"denominator {x.denominator} vanishes mod {p}")
    return x.numerator * pow(x.denominator, -1, p) % p


def contract(psi: dict, F: dict, p=None) -> dict:
    """psi . F, where a monomial L sends 1/M to 1/(M/L) when L divides M."""
    out = {}
    for lm, c in psi.items():
        for m, d in F.items():
            if all(a <= b for a, b in zip(lm, m)):
                key = tuple(b - a for a, b in zip(lm, m))
                v = out.get(key, 0) + c * d
                out[key] = v % p if p is not None else v
    return {k: v for k, v in out.items() if v}


def catalecticant_rank(F: dict, r: int, i: int, p=None) -> int:
    """Rank of the map R_i -> dual, L -> L . F, for F homogeneous."""
    q = sum(next(iter(F)))
    cols = monomials(r, q - i)
    rows = []
    for lm in monomials(r, i):
        moved = contract({lm: 1}, F, p)
        rows.append([moved.get(m, 0) for m in cols])
    return rank(rows, p)


def is_compressed(F: dict, r: int, q: int, p: int) -> bool:
    """Whether every catalecticant of F has full rank mod p.  For an integer F
    a full rank mod p is a full rank over QQ, so this certifies that F has
    the compressed Hilbert function over QQ as well."""
    h = compressed_hilbert(r, q)
    return all(catalecticant_rank(F, r, i, p) == h[i] for i in range(q // 2 + 1))


def contraction_rank(F: dict, r: int, p=None) -> int:
    """dim of A.F: the rank of all contractions of F by monomials."""
    top = max(sum(m) for m in F)
    cols = [m for d in range(top + 1) for m in monomials(r, d)]
    rows = []
    for d in range(top + 1):
        for lm in monomials(r, d):
            moved = contract({lm: 1}, F, p)
            rows.append([moved.get(m, 0) for m in cols])
    return rank(rows, p)


def multiples_rows(gens, r: int, d: int, columns=None):
    """Coefficient rows of every monomial multiple, in degree d, of the
    homogeneous gens, each given as (degree, {exponents: coeff}).  Columns
    follow ``columns`` (a list of exponent tuples) or ``monomials(r, d)``."""
    cols = {m: j for j, m in enumerate(columns or monomials(r, d))}
    rows = []
    for e, g in gens:
        if e > d:
            continue
        for lm in monomials(r, d - e):
            row = [0] * len(cols)
            for m, c in g.items():
                row[cols[tuple(a + b for a, b in zip(lm, m))]] = c
            rows.append(row)
    return rows


def multiples_rank(gens, r: int, d: int, p=None) -> int:
    """Rank of the degree-d part of the ideal the homogeneous gens generate."""
    return rank(multiples_rows(gens, r, d), p)


def divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def standard_monomial_counts(gens, r: int, top: int):
    """For a monomial ideal: the number of monomials of each degree 0..top
    divisible by no generator exponent."""
    return [
        sum(1 for m in monomials(r, d) if not any(divides(g, m) for g in gens))
        for d in range(top + 1)
    ]


def monomial_socle_counts(gens, r: int, top: int):
    """For an Artinian monomial ideal: per degree, the standard monomials m
    with x_i * m in the ideal for every variable x_i."""
    def in_ideal(m):
        return any(divides(g, m) for g in gens)

    out = []
    for d in range(top + 1):
        count = 0
        for m in monomials(r, d):
            if in_ideal(m):
                continue
            ups = (tuple(e + (k == i) for k, e in enumerate(m)) for i in range(r))
            if all(in_ideal(u) for u in ups):
                count += 1
        out.append(count)
    return out
