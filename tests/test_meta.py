"""Meta-analytic expression algebra, the triangular derivative matrix,
PDE residuals, and decomposition."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.polynomial import polynomial as npoly

from conftest import (interior_points, random_bivar, random_holo, random_meta,
                      stack_parts, term_lists)
from oracles import (decompose_samples, dense_poly_decompose,
                     derivative_matrix, derivative_stack,
                     deviation_from_identity, dict_derivative_matrix,
                     dict_eval, dict_terms, dyadic_radii, meta_hardy_norm,
                     plain_dbar, triangular_product, wirtinger_dbar)
from metadisk.boundary import BoundaryDistribution
from metadisk.disk import PolarGrid
from metadisk.errors import IllConditioned
from metadisk.integral import PolyAnalytic, similarity_factor
from metadisk.meta import MetaExpr, pde_residual, poly_decompose

GRID = PolarGrid.mesh(32, 64)


def expr(coeff, c):
    return MetaExpr(similarity_factor(coeff, "cauchy"), PolyAnalytic(c))


def test_poly_analytic_evaluation_and_dbar():
    F = PolyAnalytic([[0.0, 1.0], [2.0, 0.0]])  # z + 2 zbar
    z = 0.3 - 0.2j
    assert F(z) == pytest.approx(z + 2 * np.conjugate(z))
    assert F.dbar()(z) == pytest.approx(2.0)
    assert F.dbar().dbar().is_zero
    shifted = F.shifted(2, 0.5)
    assert shifted(z) == pytest.approx(0.5 * np.conjugate(z) ** 2 * F(z))


def _oracle_eval(c, z):
    """The per-part loop: numpy's polyval on each row, then powers of conj(z)."""
    arr = np.asarray(z, dtype=complex)
    out = np.zeros(arr.shape, dtype=complex)
    power = np.ones(arr.shape, dtype=complex)
    for row in c:
        out = out + power * npoly.polyval(arr, row)
        power = power * np.conjugate(arr)
    return out


def _oracle_boundary(c):
    """The dict loop: nonzero terms collected by frequency m - k, row by row."""
    freq = {}
    for k, row in enumerate(c):
        for m, a in enumerate(row):
            if a != 0:
                freq[m - k] = freq.get(m - k, 0j) + a
    return BoundaryDistribution(freq)


@st.composite
def coefficient_arrays(draw):
    """Orders 1-6, widths 1-61, with planted zeros, trailing zeros and -0.0."""
    order = draw(st.integers(1, 6))
    width = draw(st.integers(1, 61))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** rng.uniform(-3, 1, (order, 1))
    c = scale * (rng.standard_normal((order, width))
                 + 1j * rng.standard_normal((order, width)))
    c[rng.uniform(size=c.shape) < draw(st.sampled_from((0.0, 0.3, 0.9)))] = 0
    for k in range(order):
        c[k, width - draw(st.integers(0, width)):] = 0
    flat = c.view(float)
    flat[rng.uniform(size=flat.shape) < draw(st.sampled_from((0.0, 0.2)))] = -0.0
    return c


def _same_bits(got, want):
    return (np.array_equal(got, want)
            and np.array_equal(np.signbit(got.view(float)),
                               np.signbit(want.view(float))))


RINGS = (dyadic_radii(16)[:, None]
         * np.exp(2j * np.pi * np.arange(512) / 512)[None, :])


@given(coefficient_arrays())
def test_poly_analytic_matches_per_part_oracle(c):
    F = PolyAnalytic(c)
    for z in (GRID.points(), RINGS):
        assert _same_bits(F(z), _oracle_eval(c, z))
    assert F(0.3 - 0.2j) == complex(_oracle_eval(c, 0.3 - 0.2j))
    assert F.boundary_distribution().coeffs == _oracle_boundary(c).coeffs
    assert F.max_frequency == max((abs(m - k) for (k, m), a in np.ndenumerate(c)
                                   if a != 0), default=0)


def test_poly_analytic_matches_bivar_poly():
    # the array c[k, m] and the dict {(m, k): c} hold the same function; the
    # monomial sum adds the dict's terms in the dict reference's order
    rng = np.random.default_rng(23)
    F = stack_parts([random_holo(rng, 4, scale=1.0) for _ in range(3)])
    terms = dict_terms(((m, k), a) for (k, m), a in np.ndenumerate(F.c))
    z = 0.4 + 0.1j
    assert dict_eval(terms, z) == pytest.approx(F(z))
    assert F.monomial_sum(z) == dict_eval(terms, z)
    assert F.order == 3


@pytest.mark.parametrize("coeff, parts, z, want", [
    (PolyAnalytic.constant(1.0), [[1.0]], 0j, 1.0),
    (PolyAnalytic.zero(), [[0.0], [1.0]], 0.3 + 0.4j, 0.3 - 0.4j),
    (PolyAnalytic.constant(1.0), [[2.0j], [1.0]], 0.5 + 0j,
     math.exp(0.5) * (2.0j + 0.5)),
])
def test_meta_eval_examples(coeff, parts, z, want):
    assert expr(coeff, parts)(z) == pytest.approx(want)


@pytest.mark.parametrize("kind", ["cauchy", "schwarz"])
def test_product_rule_matches_finite_differences(kind):
    # wirtinger_dbar differences e^s F numerically; plain_dbar is symbolic
    rng = np.random.default_rng(59)
    for _ in range(4):
        w = random_meta(rng, kind=kind)
        exact = plain_dbar(w)
        for z in interior_points(rng, 6):
            want = exact(z)
            got = wirtinger_dbar(w, z, h=1e-3, richardson=True)
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_dbar_shift_examples():
    one = PolyAnalytic.constant(1.0)
    w = expr(one, [[0.0], [1.0]])  # e^zbar * zbar
    shifted = MetaExpr(w.s, w.poly.dbar_stack(2)[-1])
    z = 0.25 - 0.1j
    assert shifted(z) == pytest.approx(np.exp(np.conjugate(z)))
    order_one = expr(one, [[0.7, 0.1j]])
    assert MetaExpr(order_one.s, order_one.poly.dbar_stack(2)[-1]).poly.is_zero
    rng = np.random.default_rng(2)
    w = random_meta(rng, n_max=4)
    assert MetaExpr(w.s, w.poly.dbar_stack(w.order + 1)[-1]).poly.is_zero


def test_pde_residual_exact_and_order():
    one = PolyAnalytic.constant(1.0)
    w = expr(one, [[2.0j], [1.0]])  # e^zbar (2i + zbar)
    assert pde_residual(w, one, 2) < 1e-12

    zero = PolyAnalytic.zero()
    null = expr(zero, [[0.0]])
    assert pde_residual(null, zero, 1) == 0.0


def test_pde_residual_takes_only_the_expression_of_its_coefficient():
    one = PolyAnalytic.constant(1.0)
    w = expr(one, [[2.0j], [1.0]])
    other = expr(PolyAnalytic.constant(1.0 + 1e-6), [[2.0j], [1.0]])
    for bad in (w.__call__, lambda z: np.conjugate(z) ** 2, other):
        with pytest.raises(ValueError, match="MetaExpr of the coefficient"):
            pde_residual(bad, one, 2)
    with pytest.raises(ValueError, match="MetaExpr of the coefficient"):
        pde_residual(w, one.__call__, 2)


def test_pde_residual_annihilation_random():
    rng = np.random.default_rng(31)
    for _ in range(6):
        w = random_meta(rng)
        assert pde_residual(w.poly and w, w.coefficient, w.order) < 1e-10


def test_pde_residual_order_minimality():
    rng = np.random.default_rng(33)
    for _ in range(6):
        w = random_meta(rng)
        if w.order == 1:
            continue
        assert pde_residual(w, w.coefficient, w.order - 1) > 1e-3


def _equal(p, q):
    """Equal coefficients, whatever the widths of the two arrays."""
    return (p - q).is_zero


def test_matrix_rows_match_hand_expansion():
    rng = np.random.default_rng(41)
    A = random_bivar(rng, 2, scale=0.8)
    M = derivative_matrix(A, 4)
    assert _equal(M[1][0], A)
    assert _equal(M[1][1], PolyAnalytic.constant(1.0))
    gap = (M[2][0] + (A * A + A.dbar()).scale(-1.0)).max_coeff()
    assert gap == 0.0
    assert _equal(M[2][1], A.scale(2.0))
    for k in range(4):
        assert _equal(M[k][k], PolyAnalytic.constant(1.0))


@given(term_lists(), st.integers(1, 4))
def test_derivative_matrix_matches_dict_products(pairs, n):
    M = derivative_matrix(PolyAnalytic.from_terms(pairs), n)
    want = dict_derivative_matrix(dict_terms(pairs), n)
    for k in range(n):
        for j in range(k + 1):
            ref = PolyAnalytic.from_terms(want[k][j])
            gap = (M[k][j] - ref).max_coeff()
            assert gap <= 1e-13 * max(1.0, ref.max_coeff())


def test_matrix_zero_coeff_is_identity():
    M = derivative_matrix(PolyAnalytic.zero(), 4)
    for k in range(4):
        for j in range(k + 1):
            want = 1.0 if j == k else 0.0
            assert _equal(M[k][j], PolyAnalytic.constant(want))


def test_matrix_inverse_entries():
    rng = np.random.default_rng(43)
    A = random_bivar(rng, 2, scale=0.7)
    M2 = derivative_matrix(A, 2)
    N2 = derivative_matrix(A.scale(-1.0), 2)
    assert (N2[1][0] + A).max_coeff() < 1e-12
    assert _equal(N2[1][1], PolyAnalytic.constant(1.0))

    M3 = derivative_matrix(A, 3)
    N3 = derivative_matrix(A.scale(-1.0), 3)
    want = A * A + A.dbar().scale(-1.0)
    assert (N3[2][0] + want.scale(-1.0)).max_coeff() < 1e-12
    assert deviation_from_identity(triangular_product(M3, N3)) < 1e-12
    assert deviation_from_identity(triangular_product(N3, M3)) < 1e-12


def test_derivative_stack_examples():
    one = PolyAnalytic.constant(1.0)
    w = expr(one, [[1.0]])
    stack = derivative_stack(w, 2)
    z = 0.3 + 0.3j
    e = np.exp(np.conjugate(z))
    assert stack[0](z) == pytest.approx(e)
    assert stack[1](z) == pytest.approx(e)

    zbar = expr(PolyAnalytic.zero(), [[0.0], [1.0]])
    stack = derivative_stack(zbar, 2)
    assert stack[0](z) == pytest.approx(np.conjugate(z))
    assert stack[1](z) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [0, -1])
def test_derivative_stacks_reject_orders_below_one(n):
    w = expr(PolyAnalytic.constant(1.0), [[1.0], [0.5]])
    with pytest.raises(ValueError):
        derivative_stack(w, n)
    with pytest.raises(ValueError):
        w.poly.dbar_stack(n)
    with pytest.raises(ValueError):
        meta_hardy_norm(w, 2.0, n)
    with pytest.raises(ValueError):
        derivative_matrix(w.coefficient, n)


def test_derivative_stack_matches_matrix():
    rng = np.random.default_rng(47)
    pts = PolarGrid.mesh(8, 16, r_min=0.1, r_max=0.8).points()
    for _ in range(4):
        w = random_meta(rng, n_max=3)
        n = w.order
        M = derivative_matrix(w.coefficient, n)
        stack = derivative_stack(w, n)
        f_stack = [w.poly]
        for _ in range(n - 1):
            f_stack.append(f_stack[-1].dbar())
        weight = np.exp(w.s.monomial_sum(pts))
        for k in range(n):
            rhs = sum(M[k][j](pts) * f_stack[j](pts) for j in range(k + 1))
            assert np.max(np.abs(stack[k](pts) - weight * rhs)) < 1e-10


def test_poly_decompose_examples():
    target = PolyAnalytic.from_terms({(0, 1): 1.0, (2, 0): 3.0})  # zbar + 3 z^2
    fit = poly_decompose(decompose_samples(target), 2, degree=2)
    assert fit.residual < 1e-10
    f0, f1 = fit.poly.c
    assert np.allclose(f0, (0.0, 0.0, 3.0))
    assert np.allclose(f1, (1.0, 0.0, 0.0))

    flat = poly_decompose(decompose_samples(lambda z: np.zeros_like(z)), 2, degree=2)
    assert flat.poly.is_zero

    divided = lambda z: np.conjugate(z)  # e^zbar * zbar after similarity division
    fit = poly_decompose(decompose_samples(divided), 2, degree=3)
    assert fit.residual < 1e-10
    f0, f1 = (PolyAnalytic.holomorphic(row) for row in fit.poly.c)
    assert abs(f1(0.5) - 1.0) < 1e-12 and abs(f1(0.5j) - 1.0) < 1e-12
    assert f0.max_coeff() < 1e-12


def test_poly_decompose_round_trip():
    rng = np.random.default_rng(53)
    psi = similarity_factor(random_bivar(rng, 2, scale=0.3), "cauchy")
    F = stack_parts([random_holo(rng, 5, scale=0.5) for _ in range(3)])
    w = MetaExpr(psi, F)
    grid = PolarGrid.mesh(10, 24, r_min=0.1, r_max=0.9)
    pts = grid.points()
    fit = poly_decompose(PolarGrid(grid.radii, grid.angles,
                                   w(pts) / np.exp(psi.monomial_sum(pts))),
                         3, degree=6)
    rebuilt = MetaExpr(psi, fit.poly)
    held = PolarGrid.mesh(7, 18, r_min=0.15, r_max=0.85).points()
    assert np.max(np.abs(w(held) - rebuilt(held))) < 1e-8


@st.composite
def decompose_cases(draw):
    """Samples of a random order-n polynomial plus off-model noise on 1-8
    rings, at even or jittered angles, some fewer than the n + degree
    frequencies of the model."""
    rings = draw(st.integers(1, 8))
    n = draw(st.integers(1, 4))
    n_angles = 2 * draw(st.integers(4, 12))
    top = min(20, n_angles * rings // (2 * n) - 1)
    degree = top - draw(st.integers(0, top))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    angles = 2 * np.pi * np.arange(n_angles) / n_angles
    if draw(st.booleans()):
        angles = angles + rng.uniform(-0.4, 0.4, n_angles) * (2 * np.pi / n_angles)
    grid = PolarGrid(np.sort(rng.uniform(0.05, 0.95, rings)), angles)
    pts = grid.points()
    c, noise = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                for shape in ((n, degree + 1), pts.shape))
    values = PolyAnalytic(c)(pts) + 1e-3 * noise
    return PolarGrid(grid.radii, grid.angles, values), n, degree


@given(decompose_cases())
def test_poly_decompose_matches_the_dense_fit(case):
    samples, n, degree = case
    if samples.radii.size < min(n, degree + 1):
        # some frequency has more unknowns than there are rings
        with pytest.raises(IllConditioned):
            dense_poly_decompose(samples, n, degree)
        with pytest.raises(IllConditioned):
            poly_decompose(samples, n, degree)
        return
    oracle = dense_poly_decompose(samples, n, degree, cond_limit=math.inf)
    with mock.patch("metadisk.meta.COND_LIMIT", math.inf):
        fit = poly_decompose(samples, n, degree)
    if oracle.condition <= 1e8:
        assert fit.condition == pytest.approx(oracle.condition, rel=1e-10)
    if oracle.condition <= 1e10:
        scale = max(1.0, math.sqrt(oracle.condition)) * max(
            1.0, float(np.max(np.abs(oracle.poly.c))))
        assert np.max(np.abs(fit.poly.c - oracle.poly.c)) <= 1e-12 * scale
        assert fit.residual == pytest.approx(oracle.residual, rel=1e-6,
                                             abs=1e-12 * scale)


def test_poly_decompose_conditioning_guard():
    theta = 2 * np.pi * np.arange(24) / 24
    grid = PolarGrid(np.array([0.5, 0.5000000001]), theta)
    vals = np.conjugate(grid.points())
    with pytest.raises(IllConditioned):
        poly_decompose(PolarGrid(grid.radii, grid.angles, vals), 2, degree=2)


def test_poly_decompose_needs_enough_samples():
    with pytest.raises(ValueError):
        poly_decompose(decompose_samples(lambda z: z, n_angular=8), 4, degree=16)
