"""Boundary distributions, pairings, Poisson extension, growth, Hardy norms."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_bivar, random_holo, random_problem, stack_parts
from metadisk import boundary
from metadisk.boundary import (BoundaryDistribution, TestFunction,
                               circle_pairings, poisson_extend)
from metadisk.disk import PolarGrid
from metadisk.errors import NonFinite
from metadisk.integral import PolyAnalytic, similarity_factor
from metadisk.meta import MetaExpr
from metadisk.schwarz import (SchwarzProblem, default_test_basis, solve_meta,
                              verify_boundary_conditions)
from oracles import (HALF_STEP, POLE_DEPTH, POLE_N_THETA, growth_order,
                     hardy_norm, lp_boundary_convergence, meta_hardy_norm,
                     pole, poisson_extend_loop, unfold_padded)

TWO_PI = 2.0 * math.pi


def test_holo_series_algebra():
    # a holomorphic series is the one-row poly-analytic function
    h = PolyAnalytic.holomorphic((1.0, 2.0, 0.5j))
    assert h(0.5) == pytest.approx(1.0 + 1.0 + 0.125j)
    assert (h.order, h.degree) == (1, 2)
    combined = h + PolyAnalytic.holomorphic((0.0, 0.0, 0.0, 4.0))
    assert combined.c.tolist() == [[1.0 + 0j, 2.0 + 0j, 0.5j, 4.0 + 0j]]
    assert h.scale(2.0).c.tolist() == [[2.0 + 0j, 4.0 + 0j, 1.0j]]
    assert PolyAnalytic.zero().is_zero


def test_boundary_distribution_pairings():
    # z on the circle is the frequency-one mode
    u = PolyAnalytic.holomorphic((0.0, 1.0)).boundary_distribution()
    assert u.pairings((TestFunction.harmonic(-1),))[0] == pytest.approx(TWO_PI)
    assert u.pairings((TestFunction.harmonic(1),))[0] == pytest.approx(0.0)
    one = BoundaryDistribution({0: 1.0})
    assert one.pairings((TestFunction.constant(),))[0] == pytest.approx(TWO_PI)


def test_real_and_imag_parts():
    u = BoundaryDistribution({1: 2.0 + 1.0j, -1: 0.5})
    re = u.re_part()
    phi = TestFunction.harmonic(-1)
    direct = u.pairings((phi,))[0]
    conj = BoundaryDistribution({-1: 2.0 - 1.0j, 1: 0.5}).pairings((phi,))[0]
    assert re.pairings((phi,))[0] == pytest.approx((direct + conj) / 2.0)


def _oracle_pair(u, phi):
    """The dict loop 2 pi sum_m b_m c_{-m}, with the sum of |terms| as its scale."""
    terms = [b * u.coefficient(-m) for m, b in sorted(phi.coeffs.items())]
    return TWO_PI * sum(terms, 0j), TWO_PI * sum(abs(t) for t in terms)


def test_one_fourier_class():
    assert TestFunction is BoundaryDistribution
    assert not hasattr(BoundaryDistribution, "im_part")


fourier_data = st.dictionaries(
    st.integers(min_value=-40, max_value=40),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    max_size=12)


@given(fourier_data, st.lists(fourier_data, min_size=1, max_size=5))
def test_gathered_pairings_match_dict_loop(u_coeffs, test_coeffs):
    u = BoundaryDistribution(u_coeffs)
    tests = tuple(TestFunction(c) for c in test_coeffs)
    got = u.pairings(tests)
    for value, phi in zip(got, tests):
        want, scale = _oracle_pair(u, phi)
        assert abs(value - want) <= 1e-13 * scale
        assert abs(u.pairings((phi,))[0] - want) <= 1e-13 * scale


def test_gathered_pairings_match_dict_loop_degree_60():
    problem = _oracle_problems()[-1]  # n=6, data degree 60
    basis = default_test_basis(problem)
    for member in solve_meta(problem).chain:
        trace = member.boundary_distribution().re_part()
        got = trace.pairings(basis)
        for value, phi in zip(got, basis):
            want, scale = _oracle_pair(trace, phi)
            assert abs(value - want) <= 1e-13 * scale


@pytest.mark.parametrize("f, phi, want", [
    (lambda z: z, TestFunction.harmonic(-1), TWO_PI),
    (lambda z: np.ones_like(z), TestFunction.constant(), TWO_PI),
    (lambda z: z, TestFunction.harmonic(1), 0.0),
])
def test_pairing_limit_examples(f, phi, want):
    value = circle_pairings(f, (phi,))
    assert complex(value[0]) == pytest.approx(want, abs=1e-8)


@given(st.lists(st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=6))
def test_pairing_limit_matches_algebra(coeffs):
    h = PolyAnalytic.holomorphic(coeffs)
    phi = TestFunction.harmonic(-1) if len(coeffs) > 1 else TestFunction.constant()
    exact = h.boundary_distribution().pairings((phi,))[0]
    got = complex(circle_pairings(h, (phi,))[0])
    assert abs(got - exact) < 1e-8 * max(1.0, abs(exact))


def test_pairing_limit_divergent_input():
    # infinite at z = 1, a sample of the circle
    blow_up = lambda z: 1.0 / (1.0 - np.abs(z))
    with pytest.raises(NonFinite):
        circle_pairings(blow_up, (TestFunction.constant(),))


def test_pairing_limit_spectrum_overflow():
    # every sample is finite, |f| <= 2e307, but 256 of them sum past 1.8e308
    huge = lambda z: 1e307 * (1.0 + 1j * z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # in place of numpy's warnings
        with pytest.raises(NonFinite, match="spectrum"):
            circle_pairings(huge, (TestFunction.constant(),))


def test_the_ring_of_radius_one_is_the_unit_circle_bit_for_bit():
    f = lambda z: np.exp(z) * (1.0 - 0.5j * z ** 3)
    for n_theta in range(256, 4097):
        circle = np.exp(1j * (np.arange(n_theta) * (TWO_PI / n_theta)))
        got = boundary.ring_samples(f, (1.0,), n_theta)[0]
        assert got.tobytes() == f(circle).tobytes(), n_theta


def test_finite_samples_names_the_first_bad_point_in_ring_order():
    radii = (0.5, 0.75, 1.0)
    z = np.asarray(radii)[:, None] * np.exp(1j * np.arange(8) * (TWO_PI / 8))
    bad = np.zeros(z.shape, bool)
    bad[1, 5] = bad[2, 0] = bad[2, 3] = True  # the first is on ring 1
    f = lambda points: np.where(bad, np.inf, points)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite) as exc:
            boundary.finite_samples(f, z, "the planted value")
    assert str(exc.value) == (f"the planted value at z={complex(z[1, 5])!r} "
                              "is not finite")
    with pytest.raises(NonFinite) as exc:
        boundary.ring_samples(lambda points: 1.0 / (1.0 - np.abs(points)),
                              radii, 8)
    assert str(exc.value) == "ring sample at z=(1+0j) is not finite"


_OVERFLOWING = PolyAnalytic.holomorphic([1.7e308, 1.7e308])


@pytest.mark.parametrize("estimate", [
    lambda: growth_order(_OVERFLOWING),
    lambda: hardy_norm(_OVERFLOWING, 2.0),
    lambda: lp_boundary_convergence(_OVERFLOWING, np.zeros(256), 2.0),
    # every sample is finite, but |1e200|^2 is not
    lambda: lp_boundary_convergence(PolyAnalytic.holomorphic([1e200]),
                                    np.zeros(256), 2.0),
    lambda: hardy_norm(PolyAnalytic.holomorphic([1e200]), 2.0),
], ids=["growth", "hardy", "lp", "lp-sum", "hardy-sum"])
def test_ring_estimates_that_overflow_raise_without_warnings(estimate):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # in place of numpy's warnings
        with pytest.raises(NonFinite):
            estimate()


def test_poisson_extension_examples():
    assert poisson_extend(BoundaryDistribution({0: 1.0}), 0.3 + 0.2j) == pytest.approx(1.0)
    u = PolyAnalytic.holomorphic((0.0, 1.0)).boundary_distribution()
    z = 0.4 * np.exp(0.7j)
    assert poisson_extend(u, z) == pytest.approx(z)
    comb = BoundaryDistribution({n: 1.0 for n in range(-5, 6)})
    assert poisson_extend(comb, 0j) == pytest.approx(1.0)


def test_poisson_reproduces_series():
    rng = np.random.default_rng(9)
    coeffs = (rng.standard_normal(33) + 1j * rng.standard_normal(33))
    coeffs = coeffs / (1.0 + np.arange(33)) ** 1.5
    h = PolyAnalytic.holomorphic(coeffs)
    u = h.boundary_distribution()
    for _ in range(50):
        z = 0.92 * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, TWO_PI))
        assert abs(poisson_extend(u, z) - h(z)) < 1e-10


# points on the axes, signed zeros among them, and at angle pi exactly
AXIS_POINTS = [complex(x, y) for x in (0.0, -0.0, 0.5, -0.5, -1.0)
               for y in (0.0, -0.0)] + [complex(x, y) for x in (0.0, -0.0)
                                        for y in (0.3, -0.3, 0.7, -0.7)]


@st.composite
def fourier_data_and_points(draw):
    """Fourier data with frequencies up to 40 in size, some of n and -n
    missing, and points of the closed disk: drawn ones, the rings of a small
    grid, whose points share radii and angles, and the axis points with
    their signed zeros, repeated."""
    start = draw(st.integers(-40, 0))
    stop = draw(st.integers(max(start, -1), 40))
    parts = st.floats(-2.0, 2.0)
    coeffs = {n: complex(draw(parts), draw(parts))
              for n in range(start, stop + 1) if draw(st.booleans())}
    radius = st.floats(0.0, 1.0)
    angle = st.floats(-math.pi, math.pi)
    points = [draw(radius) * np.exp(1j * draw(angle))
              for _ in range(draw(st.integers(0, 40)))]
    if draw(st.booleans()):
        grid = PolarGrid.mesh(draw(st.integers(1, 4)),
                              2 * draw(st.integers(4, 8)))
        points += grid.points().ravel().tolist()
    points += draw(st.lists(st.sampled_from(AXIS_POINTS), max_size=24))
    return BoundaryDistribution(coeffs), np.array(points, dtype=complex)


@given(fourier_data_and_points())
def test_poisson_extension_matches_the_term_loop_bit_for_bit(case):
    u, z = case
    assert poisson_extend(u, z).tobytes() == poisson_extend_loop(u, z).tobytes()
    if z.size % 2 == 0:  # the gather keeps an array's shape
        z = z.reshape(2, -1)
        assert (poisson_extend(u, z).tobytes()
                == poisson_extend_loop(u, z).tobytes())
    for point in z.ravel()[:4]:
        assert (np.complex128(poisson_extend(u, point)).tobytes()
                == np.complex128(poisson_extend_loop(u, point)).tobytes())


def geometric_series(z):
    return 1.0 / (1.0 - z)


@pytest.mark.parametrize("f, want, tol", [
    (geometric_series, 1.0, 0.1),
    (lambda z: 5.0 * np.ones_like(z), 0.0, 0.05),
    (lambda z: geometric_series(z) ** 2, 2.0, 0.15),
    *(pytest.param(pole(theta0, p), p, tol, id=f"pole-{p}-at-{where}")
      for where, theta0 in (("half-step", HALF_STEP), ("1.234", 1.234))
      for p, tol in ((1, 0.1), (2, 0.15))),
])
def test_growth_order_examples(f, want, tol):
    assert growth_order(f) == pytest.approx(want, abs=tol)


def test_growth_order_polynomials_bounded():
    rng = np.random.default_rng(11)
    for _ in range(4):
        h = random_holo(rng, 8, scale=1.0)
        assert growth_order(h) < 0.05


@pytest.mark.parametrize("m", [0, 1, 3, 8])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_hardy_norm_monomials(m, p):
    value, unbounded = hardy_norm(lambda z: z ** m, p, depth=34)
    assert not unbounded
    assert value == pytest.approx(TWO_PI ** (1.0 / p), abs=1e-8)


def test_hardy_norm_zero_and_unbounded():
    assert hardy_norm(lambda z: np.zeros_like(z), 2.0)[0] == 0.0
    _, unbounded = hardy_norm(geometric_series, 2.0)
    assert unbounded
    _, unbounded = hardy_norm(pole(HALF_STEP, 1), 2.0, depth=POLE_DEPTH,
                              n_theta=POLE_N_THETA)
    assert unbounded


def test_meta_hardy_norm_examples():
    one = PolyAnalytic.constant(1.0)
    w = MetaExpr(similarity_factor(PolyAnalytic.constant(1.0), "cauchy"), one)
    total, _ = meta_hardy_norm(w, 2.0, 2)
    single, _ = hardy_norm(lambda z: np.exp(np.conjugate(z)), 2.0)
    assert total == pytest.approx(2.0 * single, rel=1e-9)

    zero = MetaExpr(similarity_factor(PolyAnalytic.zero(), "cauchy"),
                    PolyAnalytic.zero())
    assert meta_hardy_norm(zero, 2.0, 1)[0] == 0.0

    zbar = MetaExpr(similarity_factor(PolyAnalytic.zero(), "cauchy"),
                    PolyAnalytic([[0.0], [1.0]]))
    got, _ = meta_hardy_norm(zbar, 1.0, 2)
    # sup of the first term is realized at the last radius, 2pi*(1 - 2^-17)
    assert got == pytest.approx(2.0 * TWO_PI, abs=1e-3)


def test_lp_convergence_examples():
    res = lp_boundary_convergence(lambda z: z, lambda th: np.exp(1j * th), 2.0)
    assert res[-1] < 1e-6
    assert np.all(np.diff(res) < 0)

    const = lp_boundary_convergence(lambda z: np.full_like(z, 2.0 - 1.0j),
                                    lambda th: np.full_like(th, 2.0 - 1.0j,
                                                            dtype=complex), 2.0)
    assert np.max(const) == 0.0

    f = lambda z: np.exp(np.conjugate(z)) * np.conjugate(z)
    f_plus = lambda th: np.exp(np.exp(-1j * th)) * np.exp(-1j * th)
    res = lp_boundary_convergence(f, f_plus, 2.0)
    assert res[-1] < 1e-5


def test_hardy_norm_regression_bound_for_meta():
    # frozen ratio bound: worst measured 1.29 over the seed-7 batch
    rng = np.random.default_rng(7)
    for _ in range(3):
        coeff = random_bivar(rng, 2)
        parts = tuple(random_holo(rng, 3, scale=0.3) for _ in range(2))
        w = MetaExpr(similarity_factor(coeff, "cauchy"), stack_parts(parts))
        total, _ = meta_hardy_norm(w, 2.0, 2)
        bound = 4.0 * sum(hardy_norm(f, 2.0)[0] for f in parts)
        assert np.isfinite(total)
        if bound > 0:
            assert total <= bound


def _oracle_pairing(samples, phi, n_theta=256):
    """The scalar route: one trapezoid sum of the circle samples times phi,
    in Python, with no FFT."""
    theta = np.arange(n_theta) * (TWO_PI / n_theta)
    return complex(TWO_PI / n_theta * sum(
        complex(f) * complex(p) for f, p in zip(samples, phi(theta))))


def _oracle_samples(f, n_theta=256):
    """f on n_theta equispaced points of |z| = 1."""
    circle = np.exp(1j * np.arange(n_theta) * (TWO_PI / n_theta))
    return np.broadcast_to(np.asarray(f(circle), dtype=complex), circle.shape)


def _oracle_rows(sol, problem):
    """Every (level, test) row paired on its own through the scalar route."""
    n = problem.n
    smooth = problem.factor_kind == "schwarz"
    s = sol.w.s
    rows = []
    lhs_poly = sol.w.poly
    for k in range(n):
        level = n - 1 - k
        unfolded = unfold_padded(problem.levels[level][0], sol.chain[:level])
        if smooth:
            def real(g, shift=0j):
                return _oracle_samples(
                    lambda z: np.real(np.exp(s.monomial_sum(z)) * (g(z) + shift)))
            const = 1j * problem.levels[n - 1 - k][1] - sol.constants[n - 1 - k]
            lhs_samples = real(lhs_poly)
            rhs_samples = real(unfolded, const)
        else:
            lhs_samples = _oracle_samples(lambda z: np.real(lhs_poly(z)))
            rhs_dist = unfolded.boundary_distribution().re_part()
        for phi in default_test_basis(problem):
            lhs = _oracle_pairing(lhs_samples, phi)
            if smooth:
                rhs = _oracle_pairing(rhs_samples, phi)
            else:
                coeffs = sorted(rhs_dist.coeffs.items())
                rhs = TWO_PI * sum((c * phi.coefficient(-q)
                                    for q, c in coeffs), 0j)
            rows.append((k, phi.label, lhs, rhs))
        lhs_poly = lhs_poly.dbar()
    return rows


def _oracle_problems():
    rng = np.random.default_rng(7)
    out = [random_problem(rng) for _ in range(20)]
    rng = np.random.default_rng(31)
    out += [random_problem(rng, coeff_degree=3, factor_kind="schwarz")
            for _ in range(3)]
    rng = np.random.default_rng(60)
    out.append(SchwarzProblem(
        n=6, coeff=random_bivar(rng, 2),
        levels=tuple((random_holo(rng, 60), 0.04 * float(rng.standard_normal()))
                     for _ in range(6))))
    return out


def test_spectral_rows_match_scalar_oracle():
    # seed-7 batch, three schwarz problems and an n=6, degree-60 cauchy problem
    for problem in _oracle_problems():
        sol = solve_meta(problem)
        report = verify_boundary_conditions(sol)
        want = _oracle_rows(sol, problem)
        n, width = problem.n, len(report.tests)
        assert report.lhs.shape == report.rhs.shape == (n, width)
        assert n * width == len(want)
        for cell, (k, label, lhs, rhs) in enumerate(want):
            j = cell % width
            assert (cell // width, report.tests[j]) == (k, label)
            assert abs(report.lhs[k, j] - lhs) <= 1e-12
            assert abs(report.rhs[k, j] - rhs) <= 1e-12


@pytest.mark.parametrize("kind", ["cauchy", "schwarz"])
def test_verify_evaluations_do_not_grow_with_the_basis(kind, monkeypatch):
    rng = np.random.default_rng(13)
    problem = random_problem(rng, n_max=3, factor_kind=kind)
    sol = solve_meta(problem)
    counts = {"poly": 0, "factor": 0}

    def counting(method, key):
        original = getattr(PolyAnalytic, method)

        def counted(self, z):
            counts[key] += 1
            return original(self, z)
        monkeypatch.setattr(PolyAnalytic, method, counted)

    counting("__call__", "poly")
    counting("monomial_sum", "factor")  # the exponent's evaluations
    seen = []
    for top in (8, 120):  # 17 and 241 test functions
        tests = tuple(TestFunction.harmonic(m) for m in range(-top, top + 1))
        counts.update(poly=0, factor=0)
        verify_boundary_conditions(sol, tests=tests)
        seen.append(dict(counts))
    assert seen[0] == seen[1]
    # one evaluation per sampled function: the left side of each level, and
    # for the schwarz kind its right side, each with its factor
    sampled = problem.n * (2 if kind == "schwarz" else 1)
    assert seen[0] == {"poly": sampled,
                       "factor": sampled if kind == "schwarz" else 0}
