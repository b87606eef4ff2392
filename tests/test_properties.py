"""Seeded bulk checks of the structural identities the library promises.

Every suite draws at least a hundred instances over GF(101) with at most
three variables and truncation bounds at most eight; verdict-style checks
track both branches so no equivalence is tested vacuously.
"""

import itertools
from fractions import Fraction

import pytest

from apolar import duality, invariants, rings, tangents
from apolar.compressed import compressed_bound_check, is_permissible
from apolar.constructions import (
    derived_seed,
    monomial_ci_ambient,
    random_dual_element,
    random_dual_generators,
    shifted_dual_presentation,
    splitmix64,
)
from apolar.duality import (
    GradedIdeal,
    InverseElement,
    InverseSystem,
    QuotientRing,
    _contract_step,
    annihilator_of_submodule,
    apolar_annihilator,
    associated_graded_ideal,
    associated_graded_submodule,
    catalecticant_matrix,
    contract,
    dual_dim,
    dual_element_of,
    dual_minimal_generators,
    dual_vector_of,
    filtered_dual,
    filtered_dual_generators,
    filtered_minimal_generators,
    generated_submodule,
    hom_into_dual_dims,
)
from apolar.invariants import (
    IntSeq,
    generator_type,
    hilbert_function,
    is_level,
    linkage,
    socle,
    symmetry_defect,
)
from apolar.rings import (
    GF,
    QQ,
    GradedRing,
    Polynomial,
    Subspace,
    _free_basis,
    echelon,
    kernel,
    mat_mul,
    matrix_rank,
    rref,
)
from apolar.parsing import parse_expression
from apolar.series import TruncatedSeries, dual_series, koszul_series_verdict, wstar_window

F101 = GF(101)

TYPE_MENU = [
    (2, {2: 1}),
    (2, {3: 1}),
    (2, {4: 1}),
    (2, {2: 1, 3: 1}),
    (2, {1: 1, 3: 1}),
    (2, {3: 2}),
    (3, {2: 1}),
    (3, {3: 1}),
    (3, {2: 2}),
    (3, {2: 1, 4: 1}),
]

N_DRAWS = 100


@pytest.fixture(scope="module")
def menu_draws():
    """(ring, requested type, D, I) for a hundred seeded menu instances."""
    out = []
    for k in range(N_DRAWS):
        r, t = TYPE_MENU[k % len(TYPE_MENU)]
        ring = GradedRing.standard(F101, r)
        D = generated_submodule(random_dual_generators(ring, t, 1000 + k))
        out.append((ring, t, D, annihilator_of_submodule(D)))
    return out


def test_round_trip_recovers_the_submodule(menu_draws):
    for ring, _, D, ideal in menu_draws:
        assert D.is_contraction_closed()
        assert ideal.artinian_certified
        assert apolar_annihilator(ideal) == D


def test_annihilator_pieces_are_perps(menu_draws):
    for ring, _, D, ideal in menu_draws:
        for p in range(ideal.bound):
            assert ideal.piece(p).dim + D.piece(-p).dim == ring.dim(p)


def test_top_degree_piece_is_all_generators(menu_draws):
    for _, _, D, _ in menu_draws:
        s = D.socle_degree()
        assert generator_type(D)[s] == hilbert_function(D)[s]


def test_cyclic_draws_have_symmetric_hilbert_functions():
    for k in range(N_DRAWS):
        r = 2 + (k % 2)
        s = 2 + (k % 5)
        ring = GradedRing.standard(F101, r)
        D = generated_submodule(random_dual_generators(ring, {s: 1}, 3000 + k))
        h = hilbert_function(D)
        assert symmetry_defect(h) == ()
        assert socle(annihilator_of_submodule(D)) == IntSeq([1], s)


def test_hilbert_rows_and_rank_stay_under_the_i_set(menu_draws):
    for _, _, D, _ in menu_draws:
        chk = compressed_bound_check(D)
        assert chk.ok
        assert chk.rank <= chk.beta_bound
        assert chk.rank_equality_matches


# ---------------------------------------------------------------------------
# Filtered (inhomogeneous) instances, shared by the level-implication and
# commutation suites.


def _filtered_socle_dim(ideal) -> int:
    """dim Soc(A/I) for a truncated filtered ideal, via the defining kernel:
    classes of v with x_i v in I for every variable."""
    alg = ideal.algebra
    field = alg.ring.field
    perp = ideal.space.perp()
    var_images = []
    for i in range(alg.ring.nvars):
        cols = []
        for k in range(alg.total_dim):
            e = [field.zero] * alg.total_dim
            e[k] = field.one
            cols.append(alg.multiply_by_var(i, e))
        var_images.append(cols)
    rows = []
    for cols in var_images:
        for u in perp.rows:
            row = []
            for k in range(alg.total_dim):
                acc = field.zero
                for j, uj in enumerate(u):
                    acc = field.add(acc, field.mul(uj, cols[k][j]))
                row.append(acc)
            rows.append(row)
    K = kernel(field, rows, alg.total_dim) if rows else None
    k_dim = K.dim if K is not None else alg.total_dim
    return k_dim - ideal.space.dim


@pytest.fixture(scope="module")
def filtered_draws():
    """Cyclic filtered duals in three shapes: homogeneous, generic top with a
    lower-order tail, and a pure-power top with a tail.  A generic top screens
    the tail off completely, so only the last shape produces graded sides
    that fail to be level."""
    out = []
    for k in range(N_DRAWS):
        r = 2 + (k % 2)
        ring = GradedRing.standard(F101, r)
        stream = splitmix64(5000 + k)
        if k % 4 == 3:
            q2 = 3 + (k % 3)
            top = InverseElement.inverse_monomial(
                ring, (0,) * (r - 1) + (q2,)
            )
            F = top + random_dual_element(ring, q2 - 1, stream)
        else:
            q2 = 2 + (k % 4)
            F = random_dual_element(ring, q2, stream)
            if k % 4:
                q1 = 1 + (k // 4) % (q2 - 1)
                F = F + random_dual_element(ring, q1, stream)
        assert not F.is_zero()
        D, I = filtered_dual(F, bound=q2 + 2)
        out.append((F, D, I, associated_graded_submodule(D)))
    return out


def test_graded_level_implies_filtered_level(filtered_draws):
    branches = {True: 0, False: 0}
    for k, (F, D, I, GD) in enumerate(filtered_draws):
        graded_level = is_level(GD)
        branches[graded_level] += 1
        soc = _filtered_socle_dim(I)
        # a cyclic filtered module always has a one-dimensional socle, which
        # is exactly "level of type 1"; the graded side may still refuse
        assert soc == 1
        assert not graded_level or soc == 1
        if k % 10 == 0:
            assert I.is_multiplication_closed()
    assert branches[True] and branches[False]


def test_filtered_level_does_not_force_graded_level():
    from apolar.rings import QQ

    R2 = GradedRing.standard(QQ, ("X1", "X2"))
    F = InverseElement.inverse_monomial(R2, (2, 0)) + InverseElement.inverse_monomial(
        R2, (0, 3)
    )
    D, I = filtered_dual(F, bound=5)
    assert _filtered_socle_dim(I) == 1
    assert not is_level(associated_graded_submodule(D))
    assert socle(associated_graded_ideal(I)) == IntSeq.from_items({1: 1, 3: 1})


def test_graded_annihilator_commutes_with_taking_initial_forms(filtered_draws):
    for F, D, I, GD in filtered_draws:
        GI = associated_graded_ideal(I)
        assert annihilator_of_submodule(GD, bound=I.algebra.bound) == GI


def _initial_forms_by_definition(alg, space, blocks):
    """For each degree d, the degree-d parts of the elements of ``space``
    that lie in the span of the unit vectors of the blocks ``blocks(d)``."""
    field = alg.ring.field
    pieces = {}
    for d in range(alg.bound):
        units = [
            alg.embed(e, row)
            for e in blocks(d)
            for row in Subspace.full(field, alg.dims[e]).rows
        ]
        cut = space.intersect(echelon(field, units, alg.total_dim))
        pieces[d] = echelon(field, [alg.component(r, d) for r in cut.rows], alg.dims[d])
    return pieces


ASSOCIATED_GRADED_RINGS = (
    GradedRing.standard(F101, 2),
    GradedRing.standard(F101, 3),
    GradedRing(("x", "y"), (1, 2), F101),
)


def test_associated_graded_matches_its_definition():
    """Both associated graded objects against intersections with the
    filtration steps, for F with two or three homogeneous components; the
    draws over QQ are fewer and smaller because the oracle is slow there."""
    draws = [
        (ASSOCIATED_GRADED_RINGS[k % 3], 3 + (k // 3) % 2, k) for k in range(N_DRAWS)
    ]
    draws += [(GradedRing.standard(QQ, 2 + k % 2), 3, N_DRAWS + k) for k in range(10)]
    for ring, top, k in draws:
        stream = splitmix64(6000 + k)
        degrees = {top}
        while len(degrees) < 2 + (k // 2) % 2:
            degrees.add(next(stream) % top)
        F = random_dual_element(ring, top, stream)
        for q in sorted(degrees - {top}):
            F = F + random_dual_element(ring, q, stream)
        D, I = filtered_dual(F)
        alg = I.algebra
        expected = _initial_forms_by_definition(alg, I.space, lambda d: range(d, alg.bound))
        assert associated_graded_ideal(I).pieces == expected
        expected = _initial_forms_by_definition(alg, D.space, lambda q: range(q + 1))
        assert associated_graded_submodule(D).pieces == {-q: s for q, s in expected.items()}


# ---------------------------------------------------------------------------
# Series test for one form versus actual degreewise injectivity.


def _random_form(ring, d, stream):
    vec = [F101.of(next(stream) % 101) for _ in range(ring.dim(d))]
    return Polynomial.from_vector(ring, d, vec)


def test_series_verdict_matches_kernel_vanishing(menu_draws):
    branches = {True: 0, False: 0}
    for k, (ring, _, D, ideal) in enumerate(menu_draws):
        C = QuotientRing(ideal)
        N = ideal.bound
        e = 1 + (k % 2)
        stream = splitmix64(7000 + k)
        f = _random_form(ring, e, stream)
        assert not f.is_zero()
        dims = [C.dim(d) for d in range(N)]
        HM = TruncatedSeries(dims, 0, N)
        ranks = {
            d: matrix_rank(F101, C.mult_matrix(f, d), C.dim(d)) for d in range(N - e)
        }
        HMq = TruncatedSeries(
            [dims[d] - (ranks[d - e] if d >= e else 0) for d in range(N)], 0, N
        )
        kernels = {d: dims[d] - ranks[d] for d in range(N - e)}
        for n in (e + 1 + (k % max(1, N - e - 1)), N):
            verdict = koszul_series_verdict(HM, HMq, [e], n)
            injective = all(kernels[d] == 0 for d in range(min(n - e, N - e)))
            assert verdict == injective
            branches[verdict] += 1
    assert branches[True] and branches[False]


# ---------------------------------------------------------------------------
# Exhaustive permissibility sweep.  The decision procedure cross-checks its
# two formulations internally on every call, so the sweep's job is to force
# that comparison across all small shapes.


def _small_types():
    degrees = range(1, 6)
    singles = [{q: c} for q in degrees for c in range(1, 4)]
    pairs = [
        {q1: c1, q2: c2}
        for q1, q2 in itertools.combinations(degrees, 2)
        for c1 in range(1, 4)
        for c2 in range(1, 4)
    ]
    return singles + pairs


def test_permissibility_sweep_is_consistent():
    types = _small_types()
    assert len(types) == 105
    verdicts = {True: 0, False: 0}
    for r in (2, 3):
        ring = GradedRing.standard(F101, r)
        for t in types:
            rep = is_permissible(t, ring)
            verdicts[rep.permissible] += 1
            if rep.permissible:
                assert rep.failing_clause is None
                assert rep.v == rep.v0
            else:
                assert rep.failing_clause in {"(a)", "(b)", "(c)", "(d)"}
            if len(t) == 1 and set(t.values()) == {1}:
                assert rep.permissible
    assert verdicts[True] and verdicts[False]


def test_overfull_single_degree_is_impermissible():
    rep = is_permissible({1: 3}, GradedRing.standard(F101, 2))
    assert not rep.permissible


# ---------------------------------------------------------------------------
# Adding d general dual generators one step under the top of a cyclic module
# whose next piece is already saturated: the Hilbert function, the type, and
# the w* window all move in lockstep.


PERTURBATION_FAMILIES = (
    # (ambient r, ambient power e, deg g, number of extra generators)
    (2, 3, 1, 1),
    (3, 2, 1, 1),
    (3, 2, 2, 2),
)


def _a1_image_dim(D, n):
    ring = D.ring
    rows = []
    for el in D.elements(n):
        for i in range(ring.nvars):
            rows.append(contract(ring.variable(i), el).coefficient_vector(n + 1))
    return echelon(ring.field, rows, dual_dim(ring, (0,), n + 1)).dim


@pytest.fixture(scope="module")
def ci_ambients():
    return {
        (2, 3): monomial_ci_ambient(2, 3, F101),
        (3, 2): monomial_ci_ambient(3, 2, F101),
    }


def test_extra_generators_shift_type_and_wstar_together(ci_ambients):
    retries = 0
    for k in range(102):
        r, e, gdeg, d = PERTURBATION_FAMILIES[k % 3]
        amb = ci_ambients[(r, e)]
        ring, f, a = amb.ring, amb.f, amb.socle_degree
        for attempt in range(5):
            stream = splitmix64(derived_seed(2000 + k, attempt))
            g = _random_form(ring, gdeg, stream)
            F = contract(g, f)
            if F.is_zero():
                retries += 1
                continue
            Dt = generated_submodule([F])
            xis = [contract(_random_form(ring, a - 3, stream), f) for _ in range(d)]
            D = generated_submodule([F] + xis)
            t_tilde = generator_type(Dt)
            # the construction needs the piece one step past the new
            # generators to exhaust the ambient dual and to be reached by
            # contraction from below; degenerate draws are redrawn
            full = Dt.piece(-2).dim == amb.ambient_h[2]
            saturated = _a1_image_dim(Dt, -3) == Dt.piece(-2).dim
            independent = D.piece(-3).dim == Dt.piece(-3).dim + d
            if t_tilde != IntSeq([1], a - gdeg) or not (
                full and saturated and independent
            ):
                retries += 1
                continue
            break
        else:
            pytest.fail(f"no usable draw for instance {k}")
        h_tilde, h = hilbert_function(Dt), hilbert_function(D)
        t = generator_type(D)
        assert h[3] == h_tilde[3] + d
        assert all(h[q] == h_tilde[q] for q in range(a + 1) if q != 3)
        assert t[3] == d
        assert all(t[q] == t_tilde[q] for q in range(a + 1) if q != 3)
        Hd = dual_series(amb.ambient_h, bound=1)
        wstar_tilde, _, _ = wstar_window(Hd, t_tilde, a)
        wstar, _, _ = wstar_window(Hd, t, a)
        assert all(wstar_tilde[p] == wstar[p] for p in range(-a, -3))
        assert wstar_tilde[-3] == wstar[-3] + d
    assert retries <= 10


# ---------------------------------------------------------------------------
# The variable action: every multiplication and contraction matrix read off
# rings._var_step, against references built from polynomial products and
# one contraction per monomial.


def _reference_mult_matrix(C, f, d):
    """Multiplication by f from C_d to C_{d+deg f}, one column per basis
    monomial: the polynomial product, reduced against I."""
    ring = C.ring
    e = f.degree()
    tgt_dim = C.dim(d + e)
    cols = []
    for c in C.basis_positions(d):
        prod = f * Polynomial.monomial(ring, ring.monomials(d)[c])
        cols.append(C.reduce(d + e, prod.coefficient_vector(d + e)) if tgt_dim else ())
    return tuple(zip(*cols)) if cols and tgt_dim else tuple(() for _ in range(tgt_dim))


def _reference_contraction_matrix(f, p, n):
    """psi -> psi . f from A_p to the dual's degree-n piece, one contraction
    per monomial of degree p."""
    ring = f.ring
    cols = [
        contract(Polynomial.monomial(ring, m), f).coefficient_vector(n) for m in ring.monomials(p)
    ]
    return tuple(zip(*cols)) if cols else tuple(() for _ in range(dual_dim(ring, f.shifts, n)))


def _reference_shifted_pieces(D):
    """The degreewise dual of the presentation of D by its minimal
    generators, each relation column a contraction of one generator."""
    gens = dual_minimal_generators(D)
    ring, field = D.ring, D.ring.field
    qs = [-g.degree() for g in gens]
    shifts = tuple(q - min(qs) for q in qs)
    pieces = {}
    for n in range(-min(qs), max(shifts) + 1):
        cols = [
            contract(Polynomial.monomial(ring, m), g).coefficient_vector(-min(qs) - n)
            for q, g in zip(shifts, gens)
            for m in ring.monomials(q - n)
        ]
        if cols:
            rows = [[col[i] for col in cols] for i in range(len(cols[0]))]
            pieces[n] = kernel(field, rows, len(cols)).perp()
    return InverseSystem(ring, pieces, shifts)


def _assert_product_steps(ring):
    """``_product_step`` against exponent-vector sums, and ``_var_step`` as
    its case of a unit exponent vector, from an empty degree up."""
    w = ring.weights
    for d in range(-1, 5):
        for e in range(4):
            for m in ring.monomials(e):
                want = tuple(
                    ring.monomial_index(d + e, tuple(a + b for a, b in zip(u, m)))
                    for u in ring.monomials(d)
                )
                assert rings._product_step(w, m, d) == want
        for i in range(ring.nvars):
            unit = tuple(int(k == i) for k in range(ring.nvars))
            assert rings._var_step(w, i, d) == rings._product_step(w, unit, d)


def _assert_normal_forms_reduce(C):
    """Each row of a normal-form table is ``C.reduce`` of its monomial's unit
    vector, in value and type."""
    field = C.ring.field
    for d in range(C.bound):
        n = C.ring.dim(d)
        forms = C._normal_forms(d)
        assert len(forms) == n
        for k, row in enumerate(forms):
            unit = [field.zero] * n
            unit[k] = field.one
            assert _typed(row) == _typed(C.reduce(d, unit))


def _dense_form(ring, d, stream):
    """A degree-d form with every coefficient nonzero."""
    return Polynomial.from_vector(
        ring, d, [ring.field.of(1 + next(stream) % 100) for _ in range(ring.dim(d))]
    )


ACTION_RINGS = (
    GradedRing.standard(F101, 2),
    GradedRing.standard(F101, 3),
    GradedRing(("x", "y"), (1, 2), F101),
    GradedRing.standard(QQ, 2),
    GradedRing(("x", "y"), (1, 2), QQ),
)
ACTION_TYPES = ({3: 1}, {4: 1}, {2: 1, 3: 1}, {3: 2}, {2: 1, 3: 1, 4: 1})


@pytest.mark.parametrize("ring", ACTION_RINGS, ids=repr)
def test_variable_action_matches_polynomial_references(ring):
    """Catalecticants, annihilators, shifted duals, dual contraction steps,
    Hom into the dual, and multiplication on C = A/I, against references;
    M_fg = M_f M_g on C.  Types with 2-3 generators give shifted duals with
    2-3 components."""
    field = ring.field
    _assert_product_steps(ring)
    presentations = 0
    for k, t in enumerate(ACTION_TYPES):
        stream = splitmix64(8000 + 10 * k + len(ring.var_names))
        D = generated_submodule(random_dual_generators(ring, t, 8100 + k))
        ideal = annihilator_of_submodule(D, bound=D.socle_degree() + 1 + max(ring.weights))
        for p in range(ideal.bound):
            rows = []
            for n in D.support():
                for f in D.elements(n):
                    ref = _reference_contraction_matrix(f, p, n + p)
                    if -n >= p:
                        assert catalecticant_matrix(f, n + p) == ref
                    rows.extend(ref)
            expected = kernel(field, rows, ring.dim(p)) if rows else Subspace.full(field, ring.dim(p))
            assert ideal.piece(p) == expected
        for p in range(-D.socle_degree(), 1):
            assert hom_into_dual_dims(ideal, p) == D.piece(p).dim

        E = shifted_dual_presentation(D).presentation
        assert E == _reference_shifted_pieces(D)
        presentations += len(E.shifts) > 1
        for n, piece in E.pieces.items():
            for row in piece.rows:
                elem = InverseElement.from_vector(ring, n, row, E.shifts)
                for i, w in enumerate(ring.weights):
                    moved = contract(ring.variable(i), elem).coefficient_vector(n + w)
                    assert _contract_step(ring, E.shifts, n, i, row) == moved

        C = QuotientRing(ideal)
        _assert_normal_forms_reduce(C)
        top = C.top_degree()
        for e in (1, 2):
            f = _dense_form(ring, e, stream)
            for d in range(top + 1 - e):
                assert C.mult_matrix(f, d) == _reference_mult_matrix(C, f, d)
                for m in ring.monomials(e):
                    x_m = Polynomial.monomial(ring, m)
                    assert C.mult_matrix(x_m, d) == _reference_mult_matrix(C, x_m, d)
        f, g = _dense_form(ring, 2, stream), _dense_form(ring, 1, stream)
        for d in range(top - 2):
            if C.dim(d) and C.dim(d + 1) and C.dim(d + 3):
                product = mat_mul(field, C.mult_matrix(f, d + 1), C.mult_matrix(g, d))
                assert C.mult_matrix(f * g, d) == product
    assert presentations >= 2


@pytest.mark.parametrize("ring", ACTION_RINGS, ids=repr)
def test_filtered_variable_action_matches_contraction_references(ring):
    """filtered_dual against one contraction per monomial, and the truncated
    algebra's variable multiplication and contraction against polynomial
    products and contractions."""
    for k in range(4):
        stream = splitmix64(8500 + k)
        top = 3 + k % 2
        F = random_dual_element(ring, top, stream) + random_dual_element(ring, top - 2, stream)
        D, I = filtered_dual(F)
        alg = I.algebra
        field = ring.field
        columns = [
            dual_vector_of(alg, contract(Polynomial.monomial(ring, m), F))
            for d in range(alg.bound)
            for m in ring.monomials(d)
        ]
        assert I.space == kernel(field, list(zip(*columns)), alg.total_dim)
        assert D.space == echelon(field, columns, alg.total_dim)
        for i in range(ring.nvars):
            for row in I.space.rows:
                prod = ring.variable(i) * alg.polynomial_of(row)
                kept = Polynomial(
                    ring, {m: c for m, c in prod.terms.items() if ring.wdeg(m) < alg.bound}
                )
                assert alg.multiply_by_var(i, row) == alg.vector_of(kept)
            for row in D.space.rows:
                moved = contract(ring.variable(i), dual_element_of(alg, row))
                assert alg.contract_by_var(i, row) == dual_vector_of(alg, moved)


# ---------------------------------------------------------------------------
# Linkage reads the link off the pairing into the socle degree alone; the
# reference asks v * image_e = 0 in every degree e, as Gorenstein duality
# does not need to.


def _reference_link(ambient, ideal, exponents):
    """(J : I) with v in C_d kept when v * image_e = 0 in C for every e in
    ``exponents(d, top)``, lifted back to an ideal of R containing J."""
    C = QuotientRing(ambient)
    ring, field = ambient.ring, ambient.ring.field
    top = C.top_degree()
    pieces = {}
    for d in range(ambient.bound):
        rows = []
        for e in exponents(d, top):
            image = echelon(field, [C.reduce(e, r) for r in ideal.piece(e).rows], C.dim(e))
            monos = [ring.monomials(e)[pos] for pos in C.basis_positions(e)]
            for urow in image.rows:
                rows.extend(C.combination_matrix(zip(monos, urow), e, d))
        n = C.dim(d)
        kept = kernel(field, rows, n) if rows else Subspace.full(field, n)
        lifted = list(ambient.piece(d).rows)
        for v in kept.rows:
            amb = [field.zero] * ring.dim(d)
            for c, pos in zip(v, C.basis_positions(d)):
                amb[pos] = c
            lifted.append(tuple(amb))
        pieces[d] = echelon(field, lifted, ring.dim(d))
    return GradedIdeal(ring, ambient.bound, pieces)


def _every_degree(d, top):
    return range(0, top - d + 1)


def _one_below_socle(d, top):
    return (top - d - 1,) if d < top else ()


LINK_RINGS = (
    (GradedRing.standard(QQ, 3), (3, 4)),
    (GradedRing.standard(F101, 3), (3, 4, 5)),
    (GradedRing(("x", "y"), (1, 2), F101), (4, 5, 6)),
)


@pytest.fixture(scope="module")
def link_draws():
    """Seeded Gorenstein ambients A = R/(0 : F), F a random form of socle
    degree s, with ideals of one or two dense forms of degrees 1-3, and the
    link of each and of its link."""
    out = []
    for k, (ring, socle_degrees) in enumerate(LINK_RINGS):
        for j in range(8):
            s = socle_degrees[j % len(socle_degrees)]
            stream = splitmix64(9000 + 10 * k + j)
            D = generated_submodule([random_dual_element(ring, s, stream)])
            ambient = annihilator_of_submodule(D, bound=s + 1 + max(ring.weights))
            degs = [1 + j % 3] + ([1 + (j + 1) % 3] if j % 2 else [])
            forms = [_dense_form(ring, e, stream) for e in degs if ring.dim(e)]
            ideal = GradedIdeal.from_generators(ring, forms, ambient.bound)
            link = linkage(ambient, ideal).link
            out.append((ambient, ideal, link, linkage(ambient, link).link))
    return out


def test_linkage_matches_every_degree_reference(link_draws):
    for ambient, ideal, link, double in link_draws:
        assert link == _reference_link(ambient, ideal, _every_degree)
        assert double == _reference_link(ambient, link, _every_degree)


def test_link_reference_rejects_a_pairing_one_degree_short(link_draws):
    """The oracle discriminates: keeping only e = top - d - 1 gives another
    answer on some draw of every ring."""
    for ring, _ in LINK_RINGS:
        assert any(
            link != _reference_link(ambient, ideal, _one_below_socle)
            for ambient, ideal, link, _ in link_draws
            if ambient.ring == ring
        )


# ---------------------------------------------------------------------------
# The elimination layer: one rref loop for both fields and one elimination
# per kernel and per perp, against the two-branch rref, the two-elimination
# kernel and the per-entry field arithmetic they replaced.


def _reference_rref(field, rows, ncols):
    """Dense Gauss-Jordan with separate GF(p) and QQ loops."""
    p = field.p
    mat = [list(r) for r in rows if any(x != 0 for x in r)]
    pivots = []
    row = 0
    if p is not None:
        for col in range(ncols):
            sel = next((i for i in range(row, len(mat)) if mat[i][col] % p), None)
            if sel is None:
                continue
            mat[row], mat[sel] = mat[sel], mat[row]
            inv = pow(mat[row][col], -1, p)
            mat[row] = [x * inv % p for x in mat[row]]
            prow = mat[row]
            for i in range(len(mat)):
                f = mat[i][col]
                if i != row and f:
                    mat[i] = [(x - f * y) % p for x, y in zip(mat[i], prow)]
            pivots.append(col)
            row += 1
            if row == len(mat):
                break
    else:
        for col in range(ncols):
            sel = next((i for i in range(row, len(mat)) if mat[i][col] != 0), None)
            if sel is None:
                continue
            mat[row], mat[sel] = mat[sel], mat[row]
            inv = 1 / Fraction(mat[row][col])
            mat[row] = [x * inv for x in mat[row]]
            prow = mat[row]
            for i in range(len(mat)):
                f = mat[i][col]
                if i != row and f:
                    mat[i] = [x - f * y for x, y in zip(mat[i], prow)]
            pivots.append(col)
            row += 1
            if row == len(mat):
                break
    mat = [r for r in mat if any(x != 0 for x in r)]
    return tuple(tuple(r) for r in mat), tuple(pivots)


def _reference_kernel(field, matrix, ncols):
    """The free-column basis of the forward echelon form, echeloned again."""
    rows, piv = _reference_rref(field, matrix, ncols)
    if not piv:
        full = Subspace.full(field, ncols)
        return full.rows, full.pivots
    pset = set(piv)
    basis = []
    for free in range(ncols):
        if free in pset:
            continue
        v = [field.zero] * ncols
        v[free] = field.one
        for k, pc in enumerate(piv):
            v[pc] = field.neg(rows[k][free])
        basis.append(v)
    return _reference_rref(field, basis, ncols)


def _reference_reduce(field, space, vec):
    v = list(vec)
    for row, pc in zip(space.rows, space.pivots):
        if v[pc] != 0:
            nf = field.neg(v[pc])
            v = [field.add(x, field.mul(nf, y)) for x, y in zip(v, row)]
    return tuple(v)


def _reference_combination_matrix(C, terms, e, d):
    """The sum of c times the polynomial-product reference for x^m, entry by
    entry."""
    field = C.ring.field
    out = [[field.zero] * C.dim(d) for _ in range(C.dim(d + e))]
    for m, c in terms:
        for row, mrow in zip(out, _reference_mult_matrix(C, Polynomial.monomial(C.ring, m), d)):
            for j, x in enumerate(mrow):
                if x != 0 and c != 0:
                    row[j] = field.add(row[j], field.mul(c, x))
    return tuple(tuple(row) for row in out)


def _typed(x):
    """Values with their types, so an int never passes for a Fraction."""
    if isinstance(x, (tuple, list)):
        return tuple(_typed(v) for v in x)
    return type(x), x


ELIMINATION_FIELDS = (QQ, GF(2), GF(3), F101, GF(32003))


def _entry(field, stream):
    x = next(stream)
    if x % 3 == 0:
        return field.zero
    if field.p is None:
        return Fraction(x % 11 - 5, 1 + (x >> 8) % 4)
    return field.of(x)


def _elimination_draws(field):
    """Seeded matrices with 0-9 rows and columns, cycling through random,
    zero, full-rank and dependent-row cases; the empty shapes come first."""
    stream = splitmix64(7000 + (field.p or 0))
    draws = [([], 0), ([], 5), ([(), ()], 0), ([[field.zero] * 4] * 3, 4)]
    for k in range(120):
        m, n = next(stream) % 10, next(stream) % 10
        kind = k % 4
        if kind == 0:
            rows = [[_entry(field, stream) for _ in range(n)] for _ in range(m)]
        elif kind == 1:
            rows = [[field.zero] * n for _ in range(m)]
        elif kind == 2:
            rows = [
                [field.one if j == i else _entry(field, stream) if j > i else field.zero
                 for j in range(n)]
                for i in range(m)
            ]
            rows = rows[::-1]
        else:
            base = [[_entry(field, stream) for _ in range(n)] for _ in range(1 + k % 3)]
            mix = [[_entry(field, stream) for _ in base] for _ in range(m)]
            rows = [list(r) for r in mat_mul(field, mix, base)]
        draws.append((rows, n))
    return draws


def _kernel_failures(field, kernel_of):
    """Draws on which ``kernel_of`` differs from the reference kernel, in
    value or type, or is not an echelon-form kernel of its matrix."""
    failures = 0
    for rows, n in _elimination_draws(field):
        K = kernel_of(field, rows, n)
        rank = len(_reference_rref(field, rows, n)[1])
        zero = ((field.zero,),) * len(rows)
        products_vanish = all(mat_mul(field, rows, [[x] for x in v]) == zero for v in K.rows)
        if not (
            _typed((K.rows, K.pivots)) == _typed(_reference_kernel(field, rows, n))
            and products_vanish
            and K.dim == n - rank
            and Subspace(field, n, K.rows) == K
        ):
            failures += 1
    return failures


@pytest.mark.parametrize("field", ELIMINATION_FIELDS, ids=repr)
def test_elimination_layer_matches_two_elimination_references(field):
    """rref, kernel, both sides of Subspace.perp and Subspace.reduce give the
    values and types of the references on every draw."""
    assert _kernel_failures(field, kernel) == 0
    stream = splitmix64(7100 + (field.p or 0))
    sides = set()
    for rows, n in _elimination_draws(field):
        assert _typed(rref(field, rows, n)) == _typed(_reference_rref(field, rows, n))
        S = Subspace(field, n, rows)
        P = S.perp()
        assert _typed((P.rows, P.pivots)) == _typed(_reference_kernel(field, S.rows, n))
        sides.add(2 * S.dim <= n)
        vec = [_entry(field, stream) for _ in range(n)]
        assert _typed(S.reduce(vec)) == _typed(_reference_reduce(field, S, vec))
    assert sides == {True, False}


def _forward_kernel(field, matrix, ncols):
    """The free-column basis of the forward echelon form, taken as canonical
    without the column reversal: its vectors end, not start, at their 1."""
    rows, piv = rref(field, matrix, ncols)
    free = tuple(c for c in range(ncols) if c not in piv)
    basis = tuple(tuple(v) for v in _free_basis(field, rows, piv, ncols))
    return Subspace(field, ncols, _canonical=(basis, free))


@pytest.mark.parametrize("field", ELIMINATION_FIELDS, ids=repr)
def test_elimination_oracle_rejects_a_kernel_without_the_column_reversal(field):
    assert _kernel_failures(field, _forward_kernel) > 0


P61 = rings._CERT.p
RANK_FIELDS = ELIMINATION_FIELDS + (GF(P61),)


def _rank_draws(field):
    """The elimination draws, tall matrices of full column rank and, over
    QQ, matrices with numerators that are multiples of 2^61 - 1 (the rank
    falls mod that prime) or denominators it divides."""
    stream = splitmix64(7400 + (field.p or 0) % 1000)
    draws = _elimination_draws(field)
    for k in range(20):
        n = 1 + k % 5
        draws.append(([[_entry(field, stream) or field.one for _ in range(n)]
                       for _ in range(n + 1 + k % 3)], n))
    if field.p is None:
        for k in range(40):
            m, n = 1 + k % 5, 1 + (k // 5) % 5
            rows = [[_entry(field, stream) for _ in range(n)] for _ in range(m)]
            for i in range(min(m, n)):
                rows[i][i] = Fraction(1)
            for i in range(1 + k % 2, min(m, n)):
                scale = Fraction(P61) if k % 4 < 2 else Fraction(1, P61 * (1 + k % 3))
                rows[i] = [x * scale for x in rows[i]]
            if k % 3 == 0 and m > 1:
                rows[-1] = [a + P61 * b for a, b in zip(rows[0], rows[1])]
            draws.append((rows, n))
    return draws


@pytest.mark.parametrize("field", RANK_FIELDS, ids=repr)
def test_matrix_rank_matches_the_rank_of_rref(field):
    """Full-row-rank, full-column-rank, rank-deficient and empty matrices,
    given as lists and as one-pass iterators."""
    shapes = set()
    for rows, n in _rank_draws(field):
        want = len(rref(field, rows, n)[0])
        assert _typed(matrix_rank(field, iter(rows), n)) == _typed(want)
        nonzero = sum(1 for r in rows if any(r))
        shapes.add((want == nonzero, want == n, min(len(rows), n) == 0))
    assert {(True, False, False), (False, True, False), (False, False, False)} <= shapes
    assert (True, True, True) in shapes


@pytest.mark.parametrize("field", RANK_FIELDS, ids=repr)
def test_matrix_rank_matches_sympy(field):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    for rows, n in _rank_draws(field):
        if field.p is None:
            entries = [sympy.Rational(x.numerator, x.denominator) for r in rows for x in r]
            want = sympy.Matrix(len(rows), n, entries).rank()
        else:
            K = sympy.GF(field.p)
            want = DomainMatrix([[K(x) for x in r] for r in rows], (len(rows), n), K).rank()
        assert matrix_rank(field, rows, n) == want


def test_matrix_rank_certificate_and_fallback(monkeypatch):
    """Over QQ the rank mod 2^61 - 1 settles a full rank with no rref; a
    rank that falls mod that prime, or a denominator it divides, is left to
    rref, and so is a rank short of the shape."""
    calls = []
    real = rings.rref
    monkeypatch.setattr(rings, "rref", lambda *args: calls.append(args) or real(*args))
    half = Fraction(1, 2)
    cases = [
        ([[1, half], [half, 1], [0, 1]], 2, 2, False),
        ([[1, 0], [0, P61]], 2, 2, True),
        ([[1, Fraction(1, P61)], [P61, 1]], 2, 1, True),
        ([[Fraction(1, P61), 0], [0, 1]], 2, 2, True),
        ([[1, 2], [2, 4]], 2, 1, True),
    ]
    for rows, n, rank, exact in cases:
        calls.clear()
        rows = [[Fraction(x) for x in r] for r in rows]
        assert matrix_rank(QQ, rows, n) == rank
        assert bool(calls) == exact
    calls.clear()
    assert matrix_rank(F101, [[1, 2], [2, 4], [0, 1]], 2) == 2
    assert not calls


@pytest.mark.parametrize("field", ELIMINATION_FIELDS, ids=repr)
def test_combination_matrix_matches_per_entry_reference(field):
    ring = GradedRing.standard(field, 3)
    x, y, z = (ring.variable(i) for i in range(3))
    C = QuotientRing(GradedIdeal.from_generators(ring, [x * x - y * z, y * y, z ** 3, x * y], 6))
    stream = splitmix64(7200 + (field.p or 0))
    _assert_normal_forms_reduce(C)
    for e in range(3):
        for d in range(5):
            terms = [(m, _entry(field, stream)) for m in ring.monomials(e)]
            got = C.combination_matrix(terms, e, d)
            assert _typed(got) == _typed(_reference_combination_matrix(C, terms, e, d))


def test_hom_dims_and_socle_multiply_without_mat_mul(monkeypatch, link_draws):
    """Every multiplication matrix on C = A/I is gathered from a normal-form
    table: ``hom_dims`` and ``socle`` run no matrix product, which the spy
    does see in ``linkage``."""
    calls = []
    real = rings.mat_mul

    def spy(*args):
        calls.append(args)
        return real(*args)

    for module in (rings, duality, invariants, tangents):
        if hasattr(module, "mat_mul"):
            monkeypatch.setattr(module, "mat_mul", spy)
    for ambient, ideal, _, _ in link_draws[::4]:
        assert tangents.hom_dims(ambient).total > 0
        assert socle(ambient).sum() == 1
        assert not calls
        linkage(ambient, ideal)
        assert calls
        calls.clear()


@pytest.mark.parametrize("field", (QQ, F101), ids=repr)
def test_kernel_and_perp_each_eliminate_once(monkeypatch, field):
    """One rref per kernel and per perp, on both sides of the size rule and
    on the zero and full spaces."""
    stream = splitmix64(7300)
    spaces = [
        Subspace(field, 6, [[_entry(field, stream) for _ in range(6)] for _ in range(k)])
        for k in (2, 5)
    ] + [Subspace.zero(field, 6), Subspace.full(field, 6), Subspace.zero(field, 0)]
    assert [2 * S.dim <= S.ncols for S in spaces[:2]] == [True, False]
    calls = []
    real = rings.rref
    monkeypatch.setattr(rings, "rref", lambda *args: calls.append(args) or real(*args))
    for S in spaces:
        for run in (S.perp, lambda: kernel(field, S.rows, S.ncols)):
            calls.clear()
            run()
            assert len(calls) == 1


def test_dimension_only_callers_never_build_a_kernel(monkeypatch):
    """socle, hom_into_dual_dims and the tangent dimensions take a rank."""
    ring = GradedRing.standard(F101, 3)
    D = generated_submodule(random_dual_generators(ring, {2: 1, 3: 1}, 5))
    I = annihilator_of_submodule(D)
    C = QuotientRing(I)
    s = C.top_degree()
    dual_dims = [apolar_annihilator(I).piece(p).dim for p in range(-s - 1, 2)]
    profile = tangents.hom_dims(I)
    mingens = tangents.minimal_generators(I)
    top = tangents._syzygy_top(ring, s, s - min(profile.dims))
    minsyz = tangents._minimal_syzygies(I, mingens, top)

    def forbidden(*args):
        raise AssertionError("kernel called where a rank suffices")

    for module in (rings, duality, invariants, tangents):
        if hasattr(module, "kernel"):
            monkeypatch.setattr(module, "kernel", forbidden)
    assert socle(I).sum() == 2
    assert [hom_into_dual_dims(I, p) for p in range(-s - 1, 2)] == dual_dims
    assert {
        v: tangents._hom_dim(C, mingens, minsyz, v, s - v) for v in profile.dims
    } == profile.dims


# ---------------------------------------------------------------------------
# complete_span in one pass, against the version that rebuilt the covered
# span with one rref per accepted candidate.


def _reference_complete_span(covered, candidates):
    accepted = []
    for v in candidates:
        if not covered.contains(v):
            accepted.append(v)
            covered = Subspace(covered.field, covered.ncols, covered.rows + (tuple(v),))
    return accepted


def _span_draws(field):
    """(covered, candidates) pairs: empty, full and random covered spans,
    with zero, duplicate and dependent candidates mixed in."""
    stream = splitmix64(7400 + (field.p or 0))
    draws = []
    for k in range(60):
        n = 1 + next(stream) % 8
        kind = k % 3
        if kind == 0:
            covered = Subspace.zero(field, n)
        elif kind == 1:
            covered = Subspace.full(field, n)
        else:
            covered = Subspace(
                field, n, [[_entry(field, stream) for _ in range(n)] for _ in range(k % 5)]
            )
        cands = [tuple(_entry(field, stream) for _ in range(n)) for _ in range(1 + k % 6)]
        mix = [_entry(field, stream) for _ in cands]
        dependent = tuple(
            sum((field.mul(c, v[j]) for c, v in zip(mix, cands)), field.zero)
            for j in range(n)
        )
        if field.p is not None:
            dependent = tuple(x % field.p for x in dependent)
        cands += [(field.zero,) * n, cands[0], dependent]
        cands += [tuple(r) for r in covered.rows[:1]]
        draws.append((covered, cands[next(stream) % len(cands):] + cands))
    return draws


@pytest.mark.parametrize("field", ELIMINATION_FIELDS, ids=repr)
def test_complete_span_matches_the_rebuilding_reference(field):
    kinds = set()
    for covered, cands in _span_draws(field):
        got = rings.complete_span(covered, cands)
        assert _typed(got) == _typed(_reference_complete_span(covered, cands))
        assert all(any(g is c for c in cands) for g in got)
        kinds.add((covered.dim == 0, covered.dim == covered.ncols, bool(got)))
    assert {(True, False, True), (False, True, False)} <= kinds


def test_complete_span_never_calls_rref(monkeypatch):
    draws = _span_draws(QQ) + _span_draws(F101)

    def forbidden(*args):
        raise AssertionError("complete_span called rref")

    monkeypatch.setattr(rings, "rref", forbidden)
    for covered, cands in draws:
        rings.complete_span(covered, cands)


def test_closure_checks_never_call_rref(monkeypatch):
    """is_contraction_closed and is_multiplication_closed test the raw
    contraction and multiple rows for containment, with no elimination."""
    ring = GradedRing(("x", "y"), (1, 2), QQ)
    graded = [
        generated_submodule(random_dual_generators(ring, t, 8100 + k))
        for k, t in enumerate(ACTION_TYPES)
    ]
    systems = graded + [shifted_dual_presentation(D).presentation for D in graded]
    ideals = [annihilator_of_submodule(D) for D in graded]
    hand_built = InverseSystem(ring, {-1: Subspace.full(QQ, ring.dim(1))})

    def forbidden(*args):
        raise AssertionError("a closure check called rref")

    monkeypatch.setattr(rings, "rref", forbidden)
    monkeypatch.setattr(duality, "rref", forbidden)
    assert all(D.is_contraction_closed() for D in systems)
    assert all(I.is_multiplication_closed() for I in ideals)
    assert not hand_built.is_contraction_closed()


def _forward_spy(monkeypatch, ideal=None):
    """Record each ``_forward`` call of ``_uncovered`` as (field, target,
    degree of the ideal piece whose rows are the input, or None)."""
    calls = []
    real = duality._forward

    def spy(field, basis, rows, target=None):
        pieces = ideal.pieces.items() if ideal is not None else ()
        degree = next((d for d, piece in pieces if piece.rows is rows), None)
        calls.append((field, target, degree))
        return real(field, basis, rows, target)

    monkeypatch.setattr(duality, "_forward", spy)
    return calls


def test_general_sextic_completes_a_span_only_in_degree_4(monkeypatch):
    """A general ternary sextic over QQ has all 9 minimal generators in
    degree 4: the multiples fill I_5, I_6 and I_7, so ``_uncovered`` runs
    its exact path in degree 4 alone, where the empty moved span falls
    short and the 9 rows of I_4 extend it; the rank mod 2^61 - 1 certifies
    the other three pieces, and no rref runs at all."""
    ring = GradedRing.standard(QQ, 3)
    D = generated_submodule([random_dual_element(ring, 6, splitmix64(7700))])
    ideal = annihilator_of_submodule(D)
    assert hilbert_function(D) == IntSeq([1, 3, 6, 10, 6, 3, 1])
    widths = []
    real_rref = rings.rref

    def rref_spy(field, rows, ncols):
        widths.append((field, ncols))
        return real_rref(field, rows, ncols)

    calls = _forward_spy(monkeypatch, ideal)
    monkeypatch.setattr(rings, "rref", rref_spy)
    gens = tangents.minimal_generators(ideal)
    assert [d for d, _ in gens] == [4] * 9
    assert calls == [(QQ, 9, None), (QQ, None, 4)]
    assert widths == []


# ---------------------------------------------------------------------------
# One generator decision, duality._uncovered, against the formulation it
# replaced: the echelon form of the moved rows completed to the piece, with
# no shortcut for an empty piece or a moved span that already fills it.


def _generator_inputs(ring):
    """Graded systems of the action types and their annihilators, their
    shifted dual presentations, filtered ideals of F_top + F_(top-2), and
    Gorenstein ambients with an ideal of one dense form to link."""
    graded, filtered, links = [], [], []
    for k, t in enumerate(ACTION_TYPES):
        stream = splitmix64(7800 + 10 * k + len(ring.var_names))
        D = generated_submodule(random_dual_generators(ring, t, 7900 + k))
        E = shifted_dual_presentation(D).presentation
        graded.append((D, E, annihilator_of_submodule(D)))
        top = 3 + k % 2
        F = random_dual_element(ring, top, stream) + random_dual_element(ring, top - 2, stream)
        filtered.append(filtered_dual(F)[1])
        s = 3 + k % 3
        Dg = generated_submodule([random_dual_element(ring, s, stream)])
        ambient = annihilator_of_submodule(Dg)
        form = _dense_form(ring, 1 + k % 2, stream)
        links.append((ambient, GradedIdeal.from_generators(ring, [form], ambient.bound)))
    return graded, filtered, links


def _generator_outputs(graded, filtered, links):
    def terms(elements):
        return tuple(tuple(sorted(g.terms.items())) for g in elements)

    out = []
    for D, E, ideal in graded:
        gens = tangents.minimal_generators(ideal)
        out += [tuple(d for d, _ in gens), terms(g for _, g in gens)]
        out += [terms(dual_minimal_generators(D)), terms(dual_minimal_generators(E))]
        out += [(t.offset, t.values) for t in (generator_type(D), generator_type(E))]
    for ideal in filtered:
        out += [terms(filtered_minimal_generators(ideal)), terms(filtered_dual_generators(ideal))]
    out += [linkage(ambient, ideal).generator_degrees for ambient, ideal in links]
    return out


@pytest.mark.parametrize("ring", ACTION_RINGS + (GradedRing.standard(GF(32003), 3),), ids=repr)
def test_uncovered_matches_the_unshortcut_reference(monkeypatch, ring):
    """Minimal generators on both sides, filtered generators, generator types
    of plain and shifted duals and link generator degrees, through
    ``_uncovered`` and through the reference; the reference sees empty
    pieces, filled pieces and pieces with generators.  The inputs are built
    through the reference too, so they do not depend on the routine under
    test."""
    kinds = set()

    def reference(field, moved, rows):
        covered = echelon(field, list(moved), len(rows[0]) if rows else 0)
        kinds.add((len(rows) == 0, covered.dim == len(rows)))
        return rings.complete_span(covered, rows)

    with monkeypatch.context() as patch:
        for module in (duality, invariants, tangents):
            patch.setattr(module, "_uncovered", reference)
        inputs = _generator_inputs(ring)
        kinds.clear()
        expected = _generator_outputs(*inputs)
    assert _typed(_generator_outputs(*inputs)) == _typed(expected)
    assert kinds == {(True, True), (False, True), (False, False)}


def _reference_uncovered(field, moved, rows):
    ncols = len(rows[0]) if rows else 0
    return rings.complete_span(echelon(field, list(moved), ncols), rows)


def _certificate_guard_draws():
    """(ncols, moved, rows) pieces over QQ that keep the invariants of
    ``_uncovered``, with the answer and whether the rank mod 2^61 - 1 may
    settle it: a denominator divisible by that prime (with a garbage image
    mod it the moved rows would look independent), numerators that are
    multiples of it (the rank falls mod it but not over QQ), and plain
    pieces filled or short by one."""
    q, third = Fraction(1, P61), Fraction(1, 3)
    eye2 = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    eye3 = [tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3)]
    rows3 = [(Fraction(1), Fraction(0), third), (Fraction(0), Fraction(1), -third)]
    return [
        (2, [[1, q], [P61, 1]], eye2, [eye2[0]], False),
        (2, [[q, 0], [0, 1]], eye2, [], False),
        (3, [[1, 0, 0], [0, P61, 0], [0, 0, 2 * P61]], eye3, [], False),
        (3, [[1, 0, 0], [0, P61, 0]], eye3, [eye3[2]], False),
        (3, [[P61, 0, P61 * third], [0, 1, -third]], rows3, [], False),
        (3, [[2, 0, 2 * third], [0, 3, -1]], rows3, [], True),
        (3, [[1, 0, third], [3, 0, 1]], rows3, [rows3[1]], False),
    ]


def test_uncovered_certificate_guards(monkeypatch):
    """Each guard draw matches the unshortcut reference in value and type;
    the draws with a denominator divisible by 2^61 - 1, or whose rank falls
    mod it, take the exact path."""
    calls = _forward_spy(monkeypatch)
    for ncols, moved, rows, want, certified in _certificate_guard_draws():
        moved = [[Fraction(x) for x in r] for r in moved]
        assert all(len(r) == ncols for r in moved + rows)
        calls.clear()
        got = duality._uncovered(QQ, iter(moved), rows)
        assert _typed(got) == _typed(_reference_uncovered(QQ, moved, rows))
        assert _typed(got) == _typed(want)
        assert bool(calls) != certified


def test_prime_multiples_in_an_ideal_take_the_exact_path(monkeypatch):
    """Minimal generators of (x^2 + c y^2, xy) over QQ, for c = 2^61 - 1
    (the multiples fill I_3 but fall in rank mod that prime) and c = its
    inverse (a denominator it divides): degree 3 is decided exactly and the
    answer is the reference's; for c = 2, the certificate settles degree 3."""
    ring = GradedRing.standard(QQ, 2)
    x, y = ring.variable(0), ring.variable(1)
    for c, exact in ((Fraction(P61), [2, 3]), (Fraction(1, P61), [2, 3]), (Fraction(2), [2])):
        ideal = GradedIdeal.from_generators(ring, [x * x + y * y * c, x * y], 5)
        with monkeypatch.context() as patch:
            patch.setattr(tangents, "_uncovered", _reference_uncovered)
            want = tangents.minimal_generators(ideal)
        with monkeypatch.context() as patch:
            calls = _forward_spy(patch, ideal)
            got = tangents.minimal_generators(ideal)
        assert [(d, _typed(sorted(g.terms.items()))) for d, g in got] == [
            (d, _typed(sorted(g.terms.items()))) for d, g in want
        ]
        assert [d for d, _ in got] == [2, 2]
        # the exact path starts with the moved rows, its target dim I_d
        assert [t for _, t, _ in calls if t is not None] == [ideal.piece(d).dim for d in exact]
        assert calls[:2] == [(QQ, 2, None), (QQ, None, 2)]


# ---------------------------------------------------------------------------
# One term core for polynomials and dual elements.


TERM_RINGS = (
    GradedRing.standard(QQ, 3),
    GradedRing.standard(GF(3), 3),
    GradedRing.standard(GF(32003), 2),
    GradedRing(("x", "y"), (1, 2), QQ),
)


def _term_draws(ring, seed):
    """Polynomials and rank-one dual elements with up to five terms of mixed
    degrees 0-3, coefficients of -1 and 1 among them, and the zero element."""
    stream = splitmix64(seed)
    field = ring.field
    out = [Polynomial(ring, {}), InverseElement(ring, {})]
    for _ in range(40):
        terms = {}
        for _ in range(1 + next(stream) % 5):
            mons = ring.monomials(next(stream) % 4)
            if mons:
                c = (field.one, field.neg(field.one), _entry(field, stream))[next(stream) % 3]
                terms[mons[next(stream) % len(mons)]] = c
        out += [Polynomial(ring, terms), InverseElement(ring, terms)]
    return out


@pytest.mark.parametrize("ring", TERM_RINGS, ids=repr)
def test_elements_print_parse_hash_and_split_consistently(ring):
    for x in _term_draws(ring, 7500 + TERM_RINGS.index(ring)):
        mode = "polynomial" if isinstance(x, Polynomial) else "inverse"
        back = parse_expression(str(x), ring, mode)
        assert back == x and hash(back) == hash(x)
        twin = type(x)(ring, list(reversed(list(x.terms.items()))))
        assert twin == x and hash(twin) == hash(x)
        total = type(x)(ring, {})
        for d, part in x.homogeneous_components().items():
            assert part.degree() == d
            total = total + part
        assert total == x
        assert (x - x).is_zero() and -(-x) == x


def test_a_coefficient_of_minus_one_prints_as_a_sign():
    """On polynomials, rank-one and shifted dual elements alike; on a shifted
    element the sign goes before the basis label.  The rank-one text parses
    back to the element."""
    ring = GradedRing.standard(QQ, ("x", "y"))
    f = InverseElement(ring, {(1, 0): 1, (0, 2): -1})
    g = Polynomial(ring, {(1, 0): 1, (0, 2): -1, (0, 0): -1})
    assert (str(f), str(g)) == ("x^-1 - y^-2", "-1 + x - y^2")
    for x, mode in ((f, "inverse"), (g, "polynomial"), (-f, "inverse"), (-g, "polynomial")):
        assert parse_expression(str(x), ring, mode) == x
    terms = {(0, (0, 0)): 1, (1, (1, 0)): -1, (2, (0, 0)): -1}
    shifted = InverseElement(ring, terms, (0, 1, 1))
    assert str(shifted) == "-e2 + e0 - e1*x^-1"
    assert str(-shifted) == "e2 - e0 + e1*x^-1"
    assert str(shifted.scale(3)) == "-e2*3 + e0*3 - e1*3*x^-1"


def test_addition_across_ambients_raises():
    """New for Polynomial, which used to merge the terms silently."""
    qq2, qq3 = GradedRing.standard(QQ, 2), GradedRing.standard(QQ, 3)
    gf2 = GradedRing.standard(F101, 2)
    x = qq2.variable(0)
    for other in (qq3.variable(0), gf2.variable(0)):
        with pytest.raises(ValueError):
            x + other
        with pytest.raises(ValueError):
            x - other
    f = InverseElement(qq2, {(1, 0): 1})
    with pytest.raises(ValueError):
        f + InverseElement(qq2, {(0, (1, 0)): 1}, (0, 1))
    with pytest.raises(ValueError):
        f + InverseElement(gf2, {(1, 0): 1})
    with pytest.raises(TypeError):
        f + x


def test_stable_from_is_the_top_generator_degree(menu_draws):
    """stable_from(D) = -generator_type(D).first(), on the menu draws and on
    shifted systems, and the last degree whose piece the contractions from
    below do not span."""
    ring = GradedRing.standard(F101, 2)
    shifted = []
    for k, shifts in enumerate(((0, 1), (0, 2), (0, 0, 1))):
        stream = splitmix64(7600 + k)
        gens = [
            InverseElement(
                ring, {(j, m): _entry(F101, stream) or 1 for m in ring.monomials(2 + j)}, shifts
            )
            for j in range(len(shifts))
        ]
        shifted.append(generated_submodule(gens))
    systems = [D for _, _, D, _ in menu_draws] + shifted
    for D in systems:
        got = invariants.stable_from(D)
        assert got == -generator_type(D).first()
        unspanned = [
            n for n in range(D.support()[0], max(D.shifts) + 1)
            if echelon(
                D.ring.field,
                duality._contractions(D.ring, D.shifts, D.pieces, n),
                dual_dim(D.ring, D.shifts, n),
            ).dim != D.piece(n).dim
        ]
        assert got == max(unspanned)
    assert {len(D.shifts) for D in systems} == {1, 2, 3}
