"""End-to-end checks of the layered boundary value solvers.

The worked n=2 case (constant data, second-level imaginary constraint)
appears repeatedly: its chain, its boundary traces, and its verification
report are all known in closed form.
"""

import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (SMALL_MEAN_FACTOR_PROBLEM, random_bivar, random_holo,
                      random_problem)
from metadisk import formats
from metadisk.boundary import TestFunction
from metadisk.disk import PolarGrid
from metadisk.errors import NonFinite
from metadisk.integral import PolyAnalytic
from metadisk.meta import MetaExpr
from metadisk.schwarz import (SchwarzProblem, SchwarzSolution, _unfold,
                              default_test_basis,
                              imag_mean_constant, solve_meta,
                              solve_poly_chain, verify_boundary_conditions,
                              verify_solution)
from oracles import meta_hardy_norm, unfold_padded

POINTS = [0.3 + 0.2j, -0.5 + 0.1j, 0.7j, 0.25]


def constant_problem(n=1, value=1.0, c=0.0, coeff=None, kind="cauchy"):
    levels = [(PolyAnalytic.constant(value), 0.0) for _ in range(n)]
    levels[-1] = (levels[-1][0], c)
    return SchwarzProblem(n=n, coeff=coeff or PolyAnalytic.zero(),
                          levels=tuple(levels), factor_kind=kind)


WORKED = SchwarzProblem(
    n=2,
    coeff=PolyAnalytic.constant(1.0),
    levels=((PolyAnalytic.constant(1.0), 0.0), (PolyAnalytic.zero(), 2.0)),
)


@pytest.mark.parametrize("h, want", [
    (PolyAnalytic.constant(1.0), 0.0),
    (PolyAnalytic.constant(3.0 + 4.0j), 4.0j),
    (PolyAnalytic.holomorphic((0.0, 1.0)), 0.0),
    # 256 samples of 1e307i sum past the largest double unless scaled
    (PolyAnalytic.constant(1e307j), 1e307j),
])
def test_imag_mean_constant_examples(h, want):
    assert imag_mean_constant(h) == pytest.approx(want)


@pytest.mark.parametrize("coeffs, sampled", [
    ((1.7e308, 1.7e308), True),   # the sample at z = 1 overflows
    ((1.7e308, 1.7e308), False),  # sum |a_m| does, the samples set to zero
])
def test_imag_mean_constant_raises_where_the_circle_overflows(coeffs, sampled,
                                                              monkeypatch):
    if not sampled:
        monkeypatch.setattr(PolyAnalytic, "__call__",
                            lambda self, z: np.zeros_like(z))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # in place of numpy's warnings
        with pytest.raises(NonFinite):
            imag_mean_constant(PolyAnalytic.holomorphic(coeffs))


def test_chain_constant_data():
    chain, _ = solve_poly_chain(constant_problem(value=2.5, c=-1.25))
    f1 = chain[0]
    assert f1(0.4 + 0.1j) == pytest.approx(2.5 - 1.25j)


def test_chain_identity_data():
    problem = SchwarzProblem(n=1, coeff=PolyAnalytic.zero(),
                             levels=((PolyAnalytic.holomorphic((0.0, 1.0)), 0.0),))
    f1 = solve_poly_chain(problem)[0][0]
    for z in POINTS:
        assert f1(z) == pytest.approx(z)


def test_chain_worked_example():
    (f1, f2), _ = solve_poly_chain(WORKED)
    z = 0.3 - 0.6j
    assert f1(z) == pytest.approx(1.0)
    assert f2(z) == pytest.approx(2.0j + np.conjugate(z))
    # derivative chain holds exactly
    defect = f2.dbar() + f1.scale(-1.0)
    assert defect.max_coeff() < 1e-15
    # real boundary trace of f2 is cos(theta)
    trace = f2.boundary_distribution().re_part()
    cos1, one, sin1 = trace.pairings((
        TestFunction({1: 0.5, -1: 0.5}, label="cos[1]"), TestFunction.constant(),
        TestFunction({1: -0.5j, -1: 0.5j}, label="sin[1]")))
    assert (cos1, one, sin1) == pytest.approx((math.pi, 0.0, 0.0))


def test_schwarz_datum_holds_the_level_constant():
    # README's problem with s = conj(z) - z: e^s = e^{i Im s} on the circle,
    # so f_j's constant i kappa_j adds -kappa_j sin(Im s) to the datum
    problem = dataclasses.replace(WORKED, factor_kind="schwarz")
    sol = solve_meta(problem)
    re_weighted = lambda g: np.real(MetaExpr(sol.w.s, g)(
        np.exp(1j * np.arange(4096) * (2 * math.pi / 4096))))
    members = sol.w.poly.dbar_stack(2)[::-1]  # f_1, f_2
    missed, stated = [], []
    for j, (h, c) in enumerate(problem.levels):
        unfolded = _unfold(h, members[:j])
        kappa = c - h.coefficient(0, 0).imag  # from the data, not the solution
        met = re_weighted(members[j])
        missed.append(np.max(np.abs(met - re_weighted(unfolded))))
        stated.append(np.max(np.abs(
            met - re_weighted(unfolded + PolyAnalytic.constant(1j * kappa)))))
    assert missed[0] == 0.0 and missed[1] == pytest.approx(2.0, abs=1e-6)
    assert stated == [0.0, 0.0]


@st.composite
def unfold_inputs(draw):
    """A one-row base and 0-7 lower members, member i of order i + 1, all of
    widths 1-12, with planted zeros and -0.0 parts."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    zeros = draw(st.sampled_from((0.0, 0.5)))
    signed = draw(st.sampled_from((0.0, 0.3)))

    def poly(order):
        shape = (order, int(rng.integers(1, 13)))
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        parts = c.view(float)
        parts[rng.uniform(size=parts.shape) < zeros] = 0.0
        parts[rng.uniform(size=parts.shape) < signed] = -0.0
        return PolyAnalytic(c)

    return poly(1), [poly(i + 1) for i in range(draw(st.integers(0, 7)))]


@given(unfold_inputs())
def test_unfold_matches_the_padded_sum_bit_for_bit(inputs):
    base, lower = inputs
    got, want = _unfold(base, lower), unfold_padded(base, lower)
    assert got.c.shape == want.c.shape
    assert got.c.tobytes() == want.c.tobytes()


def test_the_largest_order_solves_and_verifies():
    # 171 zero levels: each level unfolds up to 170 lower members
    problem = SchwarzProblem(n=171, coeff=PolyAnalytic.zero(),
                             levels=((PolyAnalytic.zero(), 0.0),) * 171)
    report, _ = verify_solution(solve_meta(problem))
    assert report.overall_pass


def test_chain_from_top_matches_recursion():
    rng = np.random.default_rng(61)
    for _ in range(4):
        problem = random_problem(rng)
        chain, _ = solve_poly_chain(problem)
        rebuilt = chain[-1].dbar_stack(problem.n)[::-1]
        for ours, theirs in zip(chain, rebuilt):
            gap = ours + theirs.scale(-1.0)
            assert gap.max_coeff() < 1e-12


def test_solve_meta_zero_coeff_reduces_to_chain():
    rng = np.random.default_rng(67)
    problem = random_problem(rng, coeff_degree=0)
    problem = SchwarzProblem(n=problem.n, coeff=PolyAnalytic.zero(),
                             levels=problem.levels)
    sol = solve_meta(problem)
    top = solve_poly_chain(problem)[0][-1]
    for z in POINTS:
        assert sol.w(z) == pytest.approx(top(z), abs=1e-12)


def test_solve_meta_worked_example():
    sol = solve_meta(WORKED)
    assert verify_solution(sol)[0].overall_pass
    for z in POINTS:
        want = np.exp(np.conjugate(z)) * (2.0j + np.conjugate(z))
        assert sol.w(z) == pytest.approx(want)


def test_solve_meta_linear_coeff():
    problem = constant_problem(coeff=PolyAnalytic.from_terms({(1, 0): 1.0}))
    sol = solve_meta(problem)
    for z in POINTS:
        want = np.exp(z * np.conjugate(z) - 1.0)
        assert sol.w(z) == pytest.approx(want)


def test_problem_rejects_unknown_factor_kind():
    # solve_meta trusts problem.factor_kind, so the problem must reject others
    with pytest.raises(ValueError, match="factor_kind"):
        constant_problem(kind="poisson")


def test_problem_rejects_level_data_that_is_not_holomorphic():
    with pytest.raises(ValueError, match="holomorphic"):
        SchwarzProblem(n=1, coeff=PolyAnalytic.zero(),
                       levels=((PolyAnalytic([[1.0], [1.0]]), 0.0),))


def test_smooth_variant_zero_coeff_identical():
    rng = np.random.default_rng(71)
    base = random_problem(rng, coeff_degree=0)
    pa = SchwarzProblem(n=base.n, coeff=PolyAnalytic.zero(), levels=base.levels)
    pb = SchwarzProblem(n=base.n, coeff=PolyAnalytic.zero(), levels=base.levels,
                        factor_kind="schwarz")
    wa = solve_meta(pa).w
    wb = solve_meta(pb).w
    for z in POINTS:
        assert wa(z) == pytest.approx(wb(z), abs=1e-12)


def test_smooth_variant_single_level():
    problem = constant_problem(c=1.0, coeff=PolyAnalytic.constant(1.0),
                               kind="schwarz")
    sol = solve_meta(problem)
    assert verify_solution(sol)[0].overall_pass
    scale = cmath.exp(sol.w.s.coefficient(0, 0))
    assert scale.imag == pytest.approx(0.0, abs=1e-12)
    assert scale.real > 0
    assert sol.w(0j).imag == pytest.approx(scale.real)
    z = 0.2 + 0.4j
    psi = sol.w.s.monomial_sum(z)
    assert sol.w(z) == pytest.approx(np.exp(psi) * (1.0 + 1.0j))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_re_s_on_the_circle_fails_a_perturbed_exponent(seed):
    # Re s = 0 on |z| = 1 defines the schwarz exponent; 1e-6 z breaks it
    problem = random_problem(np.random.default_rng(seed), coeff_degree=3,
                             factor_kind="schwarz")
    sol = solve_meta(problem)
    check = verify_solution(sol)[0]["similarity_re_on_circle"]
    assert check.passed and check.value < 1e-15
    bent = sol.w.s + PolyAnalytic.holomorphic((0.0, 1e-6))
    bad = SchwarzSolution(MetaExpr(bent, sol.w.poly), sol.chain, sol.constants,
                          problem)
    report, _ = verify_solution(bad)
    # |s| < 1 on the circle here, so the divisor max(1, max |s|) is 1
    assert report["similarity_re_on_circle"].value == pytest.approx(1e-6,
                                                                    rel=1e-6)
    # no other check sees the bent exponent
    assert [c.name for c in report.checks if not c.passed] == [
        "similarity_re_on_circle"]


def test_smooth_variant_origin_ratio_uniform():
    rng = np.random.default_rng(73)
    problem = random_problem(rng, n_max=2, coeff_degree=1, data_degree=3,
                             factor_kind="schwarz")
    sol = solve_meta(problem)
    scale = cmath.exp(sol.w.s.coefficient(0, 0)).real
    for k in range(problem.n):
        c = problem.levels[problem.n - 1 - k][1]
        got = MetaExpr(sol.w.s, sol.w.poly.dbar_stack(k + 1)[-1])(0j).imag
        assert got == pytest.approx(scale * c, abs=1e-10)


def test_verify_constant_problem():
    sol = solve_meta(constant_problem())
    report = verify_boundary_conditions(sol, tests=(TestFunction.constant(),))
    assert report.max_residual < 1e-10


def test_verify_worked_example_basis():
    sol = solve_meta(WORKED)
    tests = (TestFunction.constant(),
             TestFunction({1: 0.5, -1: 0.5}, label="cos[1]"),
             TestFunction({1: -0.5j, -1: 0.5j}, label="sin[1]"),
             TestFunction({2: 0.5, -2: 0.5}, label="cos[2]"))
    report = verify_boundary_conditions(sol, tests=tests)
    assert report.max_residual < 1e-7
    assert np.all(report.residual < 1e-7)


def test_verify_detects_corruption():
    sol = solve_meta(WORKED)
    bad_chain = (sol.chain[0] + sol.chain[0].constant(0.1), sol.chain[1])
    corrupted = type(sol)(w=sol.w, chain=bad_chain, constants=sol.constants,
                          problem=sol.problem)
    report = verify_boundary_conditions(corrupted)
    assert report.max_residual > 1e-3
    k, label = report.worst()
    assert report.residual[k, report.tests.index(label)] == report.max_residual

    # each part of a solved n=3 solution shifted by 1e-3, reloaded as verify
    # reloads it: the chain is rebuilt from the corrupted top member
    rng = np.random.default_rng(101)
    for kind in ("cauchy", "schwarz"):
        problem = SchwarzProblem(
            n=3, coeff=random_bivar(rng, 2), factor_kind=kind,
            levels=tuple((random_holo(rng, 6), 0.04 * rng.standard_normal())
                         for _ in range(3)))
        sol = solve_meta(problem)
        for k in range(3):
            bump = np.zeros(sol.w.poly.c.shape, dtype=complex)
            bump[k, 0] = 1e-3
            w = MetaExpr(sol.w.s, PolyAnalytic(sol.w.poly.c + bump))
            corrupted = type(sol)(w=w, chain=w.poly.dbar_stack(3)[::-1],
                                  constants=sol.constants, problem=problem)
            report = verify_boundary_conditions(corrupted)
            assert not report.max_residual < 1e-6, (kind, k, report.max_residual)


def test_boundary_report_worst_names_the_corrupted_cell():
    # w is kept, so only the data unfolded from the lowest member moves: a
    # bump eps z^3 reaches level 1 as conj(z) eps z^3, which is eps z^2 on
    # the circle, and level 0 as -conj(z)^2 eps z^3 / 2, which is -eps z / 2
    rng = np.random.default_rng(107)
    problem = SchwarzProblem(
        n=3, coeff=random_bivar(rng, 2),
        levels=tuple((random_holo(rng, 4), 0.1 * k) for k in range(3)))
    sol = solve_meta(problem)
    eps = 1e-3
    chain = (sol.chain[0] + PolyAnalytic.holomorphic((0, 0, 0, eps)),
             *sol.chain[1:])
    corrupted = type(sol)(w=sol.w, chain=chain, constants=sol.constants,
                          problem=problem)
    tests = (TestFunction.constant(),
             *(TestFunction(c, label=f"{name}[{m}]") for m in (1, 2, 3)
               for name, c in (("cos", {m: 0.5, -m: 0.5}),
                               ("sin", {m: -0.5j, -m: 0.5j}))))
    report = verify_boundary_conditions(corrupted, tests=tests)
    assert report.worst() == (1, "cos[2]")
    cos1, cos2 = report.tests.index("cos[1]"), report.tests.index("cos[2]")
    assert report.residual[1, cos2] == pytest.approx(math.pi * eps, rel=1e-9)
    assert report.residual[0, cos1] == pytest.approx(math.pi * eps / 2,
                                                     rel=1e-9)
    rest = report.residual.copy()
    rest[1, cos2] = rest[0, cos1] = 0.0
    assert rest.max() < 1e-9


def test_verify_solution_full_battery():
    rng = np.random.default_rng(79)
    problem = random_problem(rng)
    sol = solve_meta(problem)
    report, _ = verify_solution(sol)
    names = {c.name for c in report.checks}
    assert {"pde_residual", "imag_at_origin", "origin_constants",
            "boundary_pairing_max", "chain_derivative",
            "negative_control"} <= names
    assert report.overall_pass
    assert report["negative_control"].value > 1e-3


@pytest.mark.parametrize("kind, failed", [
    ("cauchy", {"imag_at_origin"}),
    ("schwarz", {"imag_at_origin_smooth", "boundary_pairing_max"}),
])
def test_origin_checks_read_w_not_the_chain(kind, failed):
    # F shifted by 1e-6 i, the chain of the solve kept: only w moves
    sol = solve_meta(dataclasses.replace(WORKED, factor_kind=kind))
    w = MetaExpr(sol.w.s, sol.w.poly + PolyAnalytic.constant(1e-6j))
    report, _ = verify_solution(
        SchwarzSolution(w, sol.chain, sol.constants, sol.problem))
    assert {c.name for c in report.checks if not c.passed} == failed


def test_negative_control_moves_by_a_tenth_of_two_pi_on_both_kinds():
    rng = np.random.default_rng(41)
    problems = [formats.problem_from_data(SMALL_MEAN_FACTOR_PROBLEM)]
    for kind in ("cauchy", "schwarz"):
        for _ in range(4):
            problem = random_problem(rng, factor_kind=kind)
            # larger coefficients, where Re e^s on the circle varies more
            problems.append(dataclasses.replace(problem,
                                                coeff=problem.coeff.scale(5.0)))
    assert {p.factor_kind for p in problems} == {"cauchy", "schwarz"}
    for problem in problems:
        report, _ = verify_solution(solve_meta(problem))
        assert report["negative_control"].value == pytest.approx(
            0.2 * math.pi, rel=1e-12, abs=0.0)


def test_default_test_basis_spans_data():
    rng = np.random.default_rng(83)
    problem = random_problem(rng, data_degree=6)
    basis = default_test_basis(problem)
    top = max(8, 2 * problem.max_data_degree)
    assert len(basis) == 2 * top + 1


def test_hardy_persistence():
    rng = np.random.default_rng(89)
    problem = random_problem(rng)
    sol = solve_meta(problem)
    for p in (1.0, 2.0):
        assert np.isfinite(meta_hardy_norm(sol.w, p, problem.n)[0])


def high_degree_problem(degree):
    rng = np.random.default_rng(5)
    coeff = random_bivar(rng, 1)
    levels = tuple((random_holo(rng, degree), 0.0) for _ in range(2))
    return SchwarzProblem(n=2, coeff=coeff, levels=levels)


@pytest.mark.parametrize("degree", [90, 130])
def test_angular_grid_follows_the_test_basis(degree):
    # the default basis reaches frequency 2*degree; on 256 angles harmonic
    # -180 aliased onto the data and an exact solution failed verification
    problem = high_degree_problem(degree)
    sol = solve_meta(problem)
    report, _ = verify_solution(sol)
    assert report["boundary_pairing_max"].value < 1e-12
    assert report.overall_pass


@pytest.mark.parametrize("kind", ["cauchy", "schwarz"])
def test_chain_derivative_is_relative_to_the_chain(kind):
    # data coefficients of size 1e4 at n = 6, degree 60: the chain's gaps,
    # about 2e-12, are rounding in coefficients of that size and more
    rng = np.random.default_rng(5)
    coeff = PolyAnalytic.from_terms({(0, 0): 0.1, (1, 0): 0.05j, (0, 1): 0.02})
    levels = tuple((1e4 * (rng.standard_normal(61)
                           + 1j * rng.standard_normal(61)), 0.0)
                   for _ in range(6))
    sol = solve_meta(SchwarzProblem(n=6, coeff=coeff, levels=levels,
                                    factor_kind=kind))
    report, _ = verify_solution(sol)
    assert report["chain_derivative"].value < 1e-15
    assert report.overall_pass
    # one member off by a relative 1e-9 still fails
    chain = list(sol.chain)
    chain[2] = chain[2].scale(1.0 + 1e-9)
    bad, _ = verify_solution(SchwarzSolution(sol.w, tuple(chain),
                                             sol.constants, sol.problem))
    assert not bad["chain_derivative"].passed
