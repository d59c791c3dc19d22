"""Acceptance gate: nine contractual criteria, one verdict line each.

Run `pytest tests/test_acceptance.py -s` to see the verdict lines.  The
tolerances below are pinned; if a criterion cannot be met the test must go
red rather than loosen them.  Criteria 5, 7, and 8 share one batch of
twenty randomized problems drawn with seed 7 from the conftest generators.
"""

import cmath
import json
import math

import numpy as np
import pytest

from conftest import interior_points, random_bivar, random_meta, random_problem
from oracles import (HALF_STEP, derivative_matrix, derivative_stack,
                     deviation_from_identity, growth_order, hardy_norm,
                     lp_boundary_convergence, meta_hardy_norm, pole,
                     teodorescu_quadrature_oracle, triangular_product,
                     wirtinger_dbar)
from metadisk import formats
from metadisk.boundary import circle_pairings
from metadisk.cli import main
from metadisk.disk import PolarGrid
from metadisk.integral import PolyAnalytic, similarity_factor, teodorescu_poly
from metadisk.meta import MetaExpr, pde_residual
from metadisk.schwarz import SchwarzProblem, solve_meta, verify_solution


def _verdict(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion {num}: {status} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(7)
    out = []
    for _ in range(20):
        problem = random_problem(rng)
        out.append((problem, solve_meta(problem)))
    return out


def test_criterion_1_transform_table_vs_oracle():
    rng = np.random.default_rng(101)
    points = interior_points(rng, 10, r_max=0.8)
    worst = 0.0
    for m in range(5):
        for k in range(5):
            f = PolyAnalytic.from_terms({(m, k): 1.0})
            for z in points:
                gap = abs(teodorescu_quadrature_oracle(f, z) - teodorescu_poly(f)(z))
                worst = max(worst, gap)
    _verdict(1, worst < 1e-5, f"max table-vs-oracle error {worst:.3g}, tol 1e-5")


def test_criterion_2_similarity_derivative_both_kinds():
    rng = np.random.default_rng(103)
    worst = 0.0
    worst_origin = 0.0
    for _ in range(10):
        coeff = random_bivar(rng, 3, scale=0.2)
        points = interior_points(rng, 20, r_max=0.9)
        for kind in ("cauchy", "schwarz"):
            psi = similarity_factor(coeff, kind)
            for z in points:
                worst = max(worst, abs(wirtinger_dbar(psi, z) - coeff(z)))
            if kind == "schwarz":
                worst_origin = max(worst_origin, abs(psi(0j).imag))
    ok = worst < 1e-5 and worst_origin < 1e-6
    _verdict(2, ok, f"max derivative error {worst:.3g} (tol 1e-5), "
                    f"max |Im psi(0)| {worst_origin:.3g} (tol 1e-6)")


def test_criterion_3_representation_annihilation():
    rng = np.random.default_rng(107)
    worst = 0.0
    weakest_control = math.inf
    for _ in range(20):
        w = random_meta(rng)
        worst = max(worst, pde_residual(w, w.coefficient, w.order))
        if w.order > 1:
            control = pde_residual(w, w.coefficient, w.order - 1)
            weakest_control = min(weakest_control, control)
    ok = worst < 1e-10 and weakest_control > 1e-3
    _verdict(3, ok, f"max residual {worst:.3g} (tol 1e-10), weakest "
                    f"order-minimality control {weakest_control:.3g} (floor 1e-3)")


def test_criterion_4_matrix_machinery():
    rng = np.random.default_rng(109)
    A = random_bivar(rng, 2, scale=0.8)
    M = derivative_matrix(A, 4)
    row_gap = max(
        (M[1][0] + A.scale(-1.0)).max_coeff(),
        (M[2][0] + (A * A + A.dbar()).scale(-1.0)).max_coeff(),
        (M[2][1] + A.scale(-2.0)).max_coeff(),
        max((M[k][k] + PolyAnalytic.constant(-1.0)).max_coeff()
            for k in range(4)),
    )
    inverse = derivative_matrix(A.scale(-1.0), 4)
    product_gap = max(deviation_from_identity(triangular_product(M, inverse)),
                      deviation_from_identity(triangular_product(inverse, M)))

    pts = PolarGrid.mesh(8, 16, r_min=0.1, r_max=0.8).points()
    stack_gap = 0.0
    for _ in range(5):
        w = random_meta(rng)
        n = w.order
        matrix = derivative_matrix(w.coefficient, n)
        stack = derivative_stack(w, n)
        f_stack = [w.poly]
        for _ in range(n - 1):
            f_stack.append(f_stack[-1].dbar())
        weight = np.exp(w.s.monomial_sum(pts))
        for k in range(n):
            rhs = sum(matrix[k][j](pts) * f_stack[j](pts)
                      for j in range(k + 1))
            stack_gap = max(stack_gap, float(np.max(np.abs(stack[k](pts) - weight * rhs))))

    ok = row_gap == 0.0 and product_gap < 1e-12 and stack_gap < 1e-9
    _verdict(4, ok, f"row reproduction gap {row_gap:.3g} (exact), product "
                    f"deviation {product_gap:.3g} (tol 1e-12), stack identity "
                    f"{stack_gap:.3g} (tol 1e-9)")


def test_criterion_5_schwarz_chain(batch):
    worst_chain = worst_imag = worst_pair = 0.0
    weakest_control = math.inf
    for problem, sol in batch:
        report = verify_solution(sol)
        worst_chain = max(worst_chain, report["chain_derivative"].value)
        worst_imag = max(worst_imag, report["imag_at_origin"].value)
        worst_pair = max(worst_pair, report["boundary_pairing_max"].value)
        weakest_control = min(weakest_control, report["negative_control"].value)
        assert report.overall_pass
    ok = (worst_chain < 1e-12 and worst_imag < 1e-10
          and worst_pair < 1e-6 and weakest_control > 1e-3)
    _verdict(5, ok, f"chain defect {worst_chain:.3g} (tol 1e-12), origin gap "
                    f"{worst_imag:.3g} (tol 1e-10), pairing max {worst_pair:.3g} "
                    f"(tol 1e-6), weakest control {weakest_control:.3g} (floor 1e-3)")


def test_criterion_6_smooth_variant():
    rng = np.random.default_rng(11)
    worst_origin = 0.0
    for _ in range(3):
        problem = random_problem(rng, n_max=2, coeff_degree=1, data_degree=3,
                                 factor_kind="schwarz")
        sol = solve_meta(problem)
        scale = cmath.exp(sol.w.s.coefficient(0, 0))
        assert abs(scale.imag) < 1e-12 and scale.real > 0
        for k in range(problem.n):
            got = MetaExpr(sol.w.s, sol.w.poly.dbar_stack(k + 1)[-1])(0j).imag
            want = scale.real * problem.levels[problem.n - 1 - k][1]
            worst_origin = max(worst_origin, abs(got - want))

    rng = np.random.default_rng(13)
    pts = PolarGrid.mesh(8, 16).points()
    worst_reduction = 0.0
    for _ in range(5):
        base = random_problem(rng, coeff_degree=0)
        plain = SchwarzProblem(n=base.n, coeff=PolyAnalytic.zero(),
                               levels=base.levels)
        smooth = SchwarzProblem(n=base.n, coeff=PolyAnalytic.zero(),
                                levels=base.levels, factor_kind="schwarz")
        wa = solve_meta(plain).w
        wb = solve_meta(smooth).w
        worst_reduction = max(worst_reduction,
                              float(np.max(np.abs(wa(pts) - wb(pts)))))
    ok = worst_origin < 1e-8 and worst_reduction < 1e-12
    _verdict(6, ok, f"origin identity gap {worst_origin:.3g} (tol 1e-8), "
                    f"zero-coefficient reduction gap {worst_reduction:.3g} (tol 1e-12)")


def test_criterion_7_boundary_behavior(batch):
    worst_lp = 0.0
    for problem, sol in batch:
        w = sol.w
        trace = lambda th: w(np.exp(1j * th))
        for p in (1.0, 2.0):
            residuals = lp_boundary_convergence(w, trace, p)
            worst_lp = max(worst_lp, float(residuals[-1]))

    worst_pairing = 0.0
    # the probes 1, harmonic[1], harmonic[-2] and cos[3] read the band
    # |m| <= 3, whose cell m sits at m + 3; cos[3] is half of cells +-3
    probes = (lambda cells: cells[3], lambda cells: cells[4],
              lambda cells: cells[1],
              lambda cells: 0.5 * cells[6] + 0.5 * cells[0])
    for problem, sol in batch[:10]:
        top = sol.chain[-1]
        algebraic = top.boundary_distribution().pairings(3)
        pairings = circle_pairings(top, 3)
        for probe in probes:
            gap = abs(complex(probe(pairings)) - probe(algebraic))
            worst_pairing = max(worst_pairing, gap)
    ok = worst_lp < 1e-5 and worst_pairing < 1e-8
    _verdict(7, ok, f"max final L^p residual {worst_lp:.3g} at r=1-2^-17 "
                    f"(tol 1e-5), circle pairing vs algebra "
                    f"{worst_pairing:.3g} (tol 1e-8)")


def test_criterion_8_hardy_norms(batch):
    worst_norm = 0.0
    for m in range(9):
        for p in (1.0, 2.0):
            value, _ = hardy_norm(lambda z, m=m: z ** m, p, depth=34)
            worst_norm = max(worst_norm,
                             abs(value - (2 * math.pi) ** (1.0 / p)))

    all_finite = True
    for problem, sol in batch:
        for p in (1.0, 2.0):
            value, _ = meta_hardy_norm(sol.w, p, problem.n)
            all_finite = all_finite and math.isfinite(value)

    alpha = growth_order(lambda z: 1.0 / (1.0 - z))
    # poles of order 1 and 2, half a step off the estimator's angles and at 1.234
    off = [growth_order(pole(t, p)) for t in (HALF_STEP, 1.234) for p in (1, 2)]
    ok = (worst_norm < 1e-8 and all_finite and abs(alpha - 1.0) < 0.1
          and abs(off[0] - 1) < 0.1 and abs(off[2] - 1) < 0.1
          and abs(off[1] - 2) < 0.15 and abs(off[3] - 2) < 0.15)
    _verdict(8, ok, f"monomial norm gap {worst_norm:.3g} (tol 1e-8), meta "
                    f"norms all finite: {all_finite}, growth order {alpha:.3f} "
                    f"(want 1 +- 0.1), off-grid poles of order 1, 2, 1, 2 "
                    f"{', '.join(f'{a:.3f}' for a in off)} (tol 0.1, 0.15)")


def test_criterion_9_cli_round_trip(tmp_path):
    problem = SchwarzProblem(
        n=2,
        coeff=PolyAnalytic.constant(1.0),
        levels=((PolyAnalytic.constant(1.0), 0.0),
                (PolyAnalytic.zero(), 2.0)),
    )
    cfg = tmp_path / "problem.json"
    formats.save_json(cfg, formats.problem_to_data(problem))

    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    solve_code = main(["solve", "--config", str(cfg), "--out", str(out1)])
    verify_code = main(["verify", "--config", str(out1 / "solution.json"),
                        "--out", str(tmp_path / "check")])
    rerun_code = main(["solve", "--config", str(cfg), "--out", str(out2)])

    identical_csv = ((out1 / "solution_grid.csv").read_bytes()
                     == (out2 / "solution_grid.csv").read_bytes())
    identical_json = ((out1 / "solution.json").read_bytes()
                      == (out2 / "solution.json").read_bytes())
    reports = []
    for out in (out1, out2):
        report = json.loads((out / "report.json").read_text())
        del report["timings"]
        reports.append(report)
    identical_report = reports[0] == reports[1]

    ok = (solve_code == 0 and verify_code == 0 and rerun_code == 0
          and identical_csv and identical_json and identical_report)
    _verdict(9, ok, f"solve exit {solve_code}, verify exit {verify_code}, "
                    f"rerun exit {rerun_code}, CSV byte-identical: "
                    f"{identical_csv}, solution.json byte-identical: "
                    f"{identical_json}, report.json equal without timings: "
                    f"{identical_report}")
