"""Schwarz boundary value problems for meta-analytic functions.

Data is a ladder of n levels (h_k, c_k): h_k a polynomial-coefficient
holomorphic function and c_k the prescribed imaginary part at the origin.
The real boundary part a level prescribes is assembled from h_k and the lower
chain members (`_unfold`); only at the bottom level is it Re h_k itself.  The
poly-analytic chain f_1..f_n is built bottom-up so that

    dbar f_k = f_{k-1}   (f_0 = 0),   Im f_k(0) = c_{k-1},

and the solution is w = e^{s} f_n with s the similarity exponent of the
coefficient A.  `solve_meta` solves both factor kinds: the cauchy kind
divides the boundary conditions by e^{s}, the schwarz kind keeps e^{s}
inside the conditions and needs s real at the origin.  The schwarz datum
that the solution meets is Re(e^{s} (h_j + sum ... + i(c_j - Im a_0(h_j))))
on |z| = 1, where e^{s} = e^{i Im s}, so c_j moves it.

`verify_solution` checks a solution, fresh or reloaded, and returns one
report: PDE residual, origin conditions, Re s = 0 on |z| = 1 for the schwarz
kind, origin constants against the sampled boundary mean of Im h, boundary
pairings of w against each level's datum over a band of harmonics that
covers every frequency of both sides, the exact chain property, and a
corrupted-solution negative control that must visibly fail, each against its
fixed threshold in `CHECKS`; the boundary table rides in the report as
`report.boundary`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import (alias_free_n_theta, circle_pairings, finite_samples,
                       ring_samples)
from .errors import NonFinite
from .integral import PolyAnalytic, similarity_factor
from .meta import MetaExpr, pde_residual
from .report import BoundaryReport, Report

FACTOR_KINDS = ("cauchy", "schwarz")


@dataclass(frozen=True)
class SchwarzProblem:
    """n levels of boundary data for an order-n problem with coefficient A.

    Each level is (h, c): h a holomorphic series, given as a one-row
    PolyAnalytic or as its coefficients, and c a real constant.
    """

    n: int
    coeff: PolyAnalytic
    levels: tuple[tuple[PolyAnalytic, float], ...]
    factor_kind: str = "cauchy"

    def __post_init__(self):
        # _unfold weighs f_1 by 1/(n-1)!, and 171! passes the largest double
        if not 1 <= self.n <= 171:
            raise ValueError(f"order must be between 1 and 171, got {self.n}")
        if self.factor_kind not in FACTOR_KINDS:
            raise ValueError(f"factor_kind must be one of {FACTOR_KINDS}")
        levels = []
        for h, c in self.levels:
            if not isinstance(h, PolyAnalytic):
                h = PolyAnalytic.holomorphic(h)
            if h.order != 1:
                raise ValueError(f"level data must be holomorphic, got "
                                 f"{h.order} rows")
            c = complex(c)
            if c.imag != 0:
                raise ValueError("level constants must be real")
            levels.append((h, c.real))
        if len(levels) != self.n:
            raise ValueError(f"expected {self.n} levels, got {len(levels)}")
        object.__setattr__(self, "levels", tuple(levels))

    @property
    def max_data_degree(self) -> int:
        return max(h.degree for h, _ in self.levels)


@dataclass(frozen=True)
class SchwarzSolution:
    w: MetaExpr
    chain: tuple[PolyAnalytic, ...]
    constants: tuple[complex, ...]
    problem: SchwarzProblem


def imag_mean_constant(h: PolyAnalytic) -> complex:
    """i times the mean of Im h over more than deg h equispaced points of
    |z| = 1: every power z^m with 0 < m <= deg h sums to zero over them, so
    this is i*Im(a_0) by sampling, up to rounding.  The samples are summed
    divided by max(1, sum |a_m|), which bounds |h| there, so their sum stays
    finite.  Raises NonFinite where a sample or sum |a_m| overflows."""
    samples = ring_samples(h, (1.0,), alias_free_n_theta(h.degree))[0]
    with np.errstate(all="ignore"):
        scale = max(1.0, float(np.abs(h.c).sum()))
        mean = float(np.mean(np.imag(samples) / scale)) * scale
    if not math.isfinite(mean):
        raise NonFinite("the circle mean of Im h or sum |a_m| is not finite")
    return 1j * mean


def solve_poly_chain(problem: SchwarzProblem):
    """Bottom-up chain construction; the coefficient A plays no role here.

    The Poisson pairing of h with the kernel reproduces h(z) exactly for
    series data, so the boundary term is h itself.  Returns the chain
    (f_1, ..., f_n) and the origin constant of each level, i times the
    boundary mean of Im h, which is i*Im(a_0) in closed form.
    """
    members: list[PolyAnalytic] = []
    constants: list[complex] = []
    for h, c in problem.levels:
        const = 1j * complex(h.c[0, 0]).imag
        constants.append(const)
        members.append(_unfold(h + PolyAnalytic.constant(1j * c - const),
                               members))
    return tuple(members), tuple(constants)


def _unfold(base: PolyAnalytic, lower) -> PolyAnalytic:
    """base + sum_j -(-1)^j / j! conj(z)^j g_j, where g_j is the j-th of the
    chain members ``lower`` counted down from the last, added from j = 1 up.

    The terms add in place into one array of zeros, so for a one-row
    ``base`` every coefficient rounds as in a chain of padded sums, which
    also turn a -0.0 of ``base`` into +0.0."""
    if not lower:
        return base
    terms = [(0, base.c)]
    for step in range(1, len(lower) + 1):
        scale = -((-1.0) ** step) / math.factorial(step)
        terms.append((step, lower[-step].c * complex(scale)))
    out = np.zeros((max(step + c.shape[0] for step, c in terms),
                    max(c.shape[1] for _, c in terms)), dtype=complex)
    for step, c in terms:
        out[step:step + c.shape[0], :c.shape[1]] += c
    return PolyAnalytic(out)


def _sampled_pairings(w: PolyAnalytic | MetaExpr, top: int,
                      shift: float = 0.0) -> np.ndarray:
    """Circle pairings of Re w + shift with the harmonics |m| <= top, w
    evaluated as it is, on a grid resolving its polynomial's frequencies
    plus top."""
    poly = w.poly if isinstance(w, MetaExpr) else w
    n_theta = alias_free_n_theta(poly.max_frequency + top)
    return circle_pairings(lambda z: np.real(w(z)) + shift, top, n_theta)


def _trace_pairings(f: PolyAnalytic | MetaExpr, top: int) -> np.ndarray:
    """Pairings of Re f on |z| = 1 with the harmonics |m| <= top: the exact
    trace of a polynomial, the samples of e^s g, whose trace has no finite
    Fourier series."""
    if isinstance(f, MetaExpr):
        return _sampled_pairings(f, top)
    return f.boundary_distribution().re_part().pairings(top)


def _weighted(sol: SchwarzSolution):
    """The map from a polynomial g to the function whose real part a level's
    boundary condition prescribes: g itself for the cauchy kind, which
    divides e^s out of the conditions, and e^s g for the schwarz kind."""
    if sol.problem.factor_kind == "cauchy":
        return lambda g: g
    return lambda g: MetaExpr(sol.w.s, g)


def verify_boundary_conditions(sol: SchwarzSolution) -> BoundaryReport:
    """Pair both sides of every boundary condition of ``sol.problem`` with the
    harmonics e^{i m theta}, |m| <= top, labelled ``harmonic[m]``, whose
    cells give, by linearity, the pairing with any trigonometric test they
    span.

    The left side samples dbar^k of w's polynomial and the right side pairs
    the level's datum, unfolded as the solver unfolds it, each weighted by
    :func:`_weighted`.  top is the largest of 8, twice the data degree and
    the top frequency of every side's polynomial, so no term of a side goes
    unpaired.  Each sampled function is evaluated once on its alias-free
    circle.  Level k's arrays are row k of the table.
    """
    problem = sol.problem
    weighted = _weighted(sol)
    sides = []
    for k, lhs_poly in enumerate(sol.w.poly.dbar_stack(problem.n)):
        level = problem.n - 1 - k
        h, c = problem.levels[level]
        sides.append((lhs_poly, _unfold(h + PolyAnalytic.constant(
            1j * c - sol.constants[level]), sol.chain[:level])))
    top = max(8, 2 * problem.max_data_degree,
              *(poly.max_frequency for side in sides for poly in side))
    levels = [(_sampled_pairings(weighted(lhs_poly), top),
               _trace_pairings(weighted(data), top))
              for lhs_poly, data in sides]
    return BoundaryReport(tuple(f"harmonic[{m}]" for m in range(-top, top + 1)),
                          *(np.array(column) for column in zip(*levels)))


def _negative_control(f: PolyAnalytic | MetaExpr) -> float:
    """Shift Re f, the weighted F, by 0.1 and measure how far its constant
    cell (m = 0) moves: 0.1 * 2 pi, up to rounding, whatever the data.

    A corrupted solution must fail verification by a visible margin,
    otherwise the pairing residuals prove nothing.
    """
    return abs(_sampled_pairings(f, 0, 0.1)[0] - _trace_pairings(f, 0)[0])


def _chain_defect(chain) -> float:
    """Largest coefficient of dbar f_k - f_{k-1} (f_0 = 0), each relative to
    max(1, largest |coefficient| of f_k and f_{k-1}), the scale it rounds
    with."""
    worst = 0.0
    for lower, member in zip((PolyAnalytic.zero(), *chain), chain):
        scale = max(1.0, member.max_coeff(), lower.max_coeff())
        worst = max(worst, (member.dbar() - lower).max_coeff() / scale)
    return worst


# name -> (factor kinds that report it, threshold, direction a value passes
# in); the order is the report's
CHECKS = {
    "pde_residual": (FACTOR_KINDS, 1e-9, "<"),
    "similarity_imag_at_origin": (("schwarz",), 1e-6, "<"),
    "similarity_re_on_circle": (("schwarz",), 1e-12, "<"),
    "imag_at_origin_smooth": (("schwarz",), 1e-8, "<"),
    "imag_at_origin": (("cauchy",), 1e-9, "<"),
    "origin_constants": (FACTOR_KINDS, 1e-12, "<"),
    "boundary_pairing_max": (FACTOR_KINDS, 1e-6, "<"),
    "chain_derivative": (FACTOR_KINDS, 1e-12, "<"),
    "negative_control": (FACTOR_KINDS, 1e-3, ">"),
}


def verify_solution(sol: SchwarzSolution) -> Report:
    """Run the full check battery on a solution and return one report: the
    checks, each held to its threshold in :data:`CHECKS`, the stage timings
    and the table of :func:`verify_boundary_conditions` as ``.boundary``.

    Works both on freshly solved problems (where the chain came from the
    recursion) and on reloaded solution files (where the chain is the shifted
    stack of the top member, making the chain check trivially exact and the boundary
    and origin checks the live ones).
    """
    problem = sol.problem
    kind = problem.factor_kind
    w = sol.w
    weighted = _weighted(sol)
    report = Report()
    values = {}

    with report.timed("pde_residual"):
        values["pde_residual"] = pde_residual(w, problem.coeff, problem.n)
    if kind == "schwarz":
        values["similarity_imag_at_origin"] = abs(w.s.coefficient(0, 0).imag)
        on_circle = ring_samples(w.s.monomial_sum, (1.0,),
                                 alias_free_n_theta(w.s.max_frequency))[0]
        # over sum |coefficients of s|, the scale its rounding grows with
        with np.errstate(all="ignore"):  # sums past the largest double
            values["similarity_re_on_circle"] = float(
                np.max(np.abs(on_circle.real))
                / max(1.0, float(np.abs(w.s.c).sum())))
    # level n-1-k reads Im dbar^k F(0), the constant coefficient, against its
    # c unscaled: e^s(0) can underflow to zero and would hide a wrong
    # constant; it must still be finite, as it scales w at the origin
    finite_samples(weighted(PolyAnalytic.constant(1)), np.zeros(1, complex),
                   "e^s")
    origin = "imag_at_origin_smooth" if kind == "schwarz" else "imag_at_origin"
    values[origin] = max(
        abs(member.coefficient(0, 0).imag - c) for member, (_, c)
        in zip(w.poly.dbar_stack(problem.n), problem.levels[::-1]))
    # relative to sum |a_m|, which bounds |h| on the circle and so the
    # rounding of the sampled mean; imag_mean_constant checks it is finite
    values["origin_constants"] = max(
        abs(const - imag_mean_constant(h)) / max(1.0, float(np.abs(h.c).sum()))
        for const, (h, _) in zip(sol.constants, problem.levels))
    with report.timed("boundary"):
        report.boundary = verify_boundary_conditions(sol)
        values["boundary_pairing_max"] = report.boundary.max_residual
    values["chain_derivative"] = _chain_defect(sol.chain)
    with report.timed("negative_control"):
        values["negative_control"] = _negative_control(weighted(w.poly))

    for name, (kinds, threshold, direction) in CHECKS.items():
        if kind in kinds:
            report.add(name, values[name], threshold, direction)
    return report


def solve_meta(problem: SchwarzProblem) -> SchwarzSolution:
    """Solve with the similarity factor of ``problem.factor_kind``.

    The cauchy kind divides the boundary conditions by the factor; the
    schwarz kind keeps it inside them and has it real at the origin, so
    Im((dbar - A)^k w)(0) = e^{s(0)} c_{n-1-k} with a positive scale.  Both
    kinds' origin checks read Im dbar^k F(0) = c_{n-1-k} without that scale,
    which can underflow to zero.
    """
    s = similarity_factor(problem.coeff, problem.factor_kind)
    chain, constants = solve_poly_chain(problem)
    return SchwarzSolution(MetaExpr(s, chain[-1]), chain, constants, problem)
