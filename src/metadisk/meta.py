"""Meta-analytic functions: exp-factor times a polynomial in conj(z).

A function w is meta-analytic of order n for the coefficient A when
(d/d conj(z) - A)^n w = 0.  Every such w factors as e^{s} * F where s is an
antiderivative of A in the conj(z) direction (the similarity exponent) and F
is poly-analytic: F = sum_k conj(z)^k f_k(z) with each f_k holomorphic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import finite_samples
from .disk import PolarGrid
from .errors import IllConditioned, NonFinite
from .integral import PolyAnalytic


@dataclass(frozen=True)
class MetaExpr:
    """w = e^s * poly, s the similarity exponent; (d/d conj(z) - A)^k w is
    e^s times dbar^k poly, so ``poly.dbar_stack`` holds the shifted stack."""

    s: PolyAnalytic
    poly: PolyAnalytic

    @property
    def coefficient(self) -> PolyAnalytic:
        return self.s.dbar()

    @property
    def order(self) -> int:
        return self.poly.order

    def __call__(self, z):
        out = np.exp(self.s.monomial_sum(z)) * self.poly(z)
        if np.ndim(out) == 0:
            return complex(out)
        return out


def pde_residual(w: MetaExpr, coeff: PolyAnalytic, n: int) -> float:
    """max over the default mesh of |(d/d conj(z) - A)^n w|, applied exactly.

    (d/d conj(z) - A)^n e^s F = e^s dbar^n F, so the residual is 0.0 when F
    has order at most n and e^s is evaluated only when it is not; a sample
    that is not finite raises NonFinite.  ``w`` must be a MetaExpr of the
    coefficient ``coeff`` itself; anything else, such as a plain callable or
    the expression of another A, is a ValueError.
    """
    if not (isinstance(w, MetaExpr) and isinstance(coeff, PolyAnalytic)
            and (w.coefficient - coeff).max_coeff()
            <= 1e-12 * max(1.0, coeff.max_coeff())):
        raise ValueError("pde_residual needs a MetaExpr of the coefficient "
                         "it is checked against")
    top = w.poly.dbar_stack(n + 1)[-1] if w.order > n else PolyAnalytic.zero()
    if top.is_zero:
        return 0.0
    return float(np.max(np.abs(finite_samples(
        MetaExpr(w.s, top), PolarGrid.mesh().points(), "pde residual"))))


@dataclass(frozen=True)
class DecompositionFit:
    """Least-squares poly-analytic fit with its sampling residual."""

    poly: PolyAnalytic
    residual: float
    condition: float


COND_LIMIT = 1e10  # poly_decompose's largest trusted condition number


def poly_decompose(samples: PolarGrid, n: int, degree: int = 16
                   ) -> DecompositionFit:
    """Recover holomorphic parts f_0..f_{n-1} from point values on a grid.

    Fits w = sum_k conj(z)^k sum_m a_{k,m} z^m by least squares over the
    grid values, through the ring structure of the grid.  On a ring of radius
    r the term conj(z)^k z^m is r^(k+m) e^{i(m-k)theta}, so with
    E[j, f] = e^{i f theta_j} for the model frequencies f = -(n-1)..degree
    and its thin QR E = Q T, each ring is projected onto those frequencies,
    P = Q^H V^T, and one system is solved whose row (f', ring i) and column
    (k, m) hold T[f', m-k] r_i^(k+m).  Q has orthonormal columns, so the
    system has the least-squares solution and the singular values of the
    dense design over all samples, with min(angles, frequencies) rows per
    ring in place of one row per sample.

    ``condition`` is the squared ratio of the largest to the smallest
    singular value of the sample design, one row per sample and one column
    per unknown (infinite when the system has fewer rows than unknowns, as
    the design is then rank deficient); ``residual`` is max |fit(z) - value|
    over the samples.

    Needs at least twice as many samples as unknowns (ValueError).  Raises
    IllConditioned when ``condition`` passes COND_LIMIT (nearly
    coincident radii do this, and so do fewer rings than min(n, degree + 1))
    and NonFinite when the coefficients or the residual are not finite.
    """
    if samples.values is None:
        raise ValueError("samples grid carries no values")
    if n < 1:
        raise ValueError("n must be at least 1")
    unknowns = n * (degree + 1)
    if samples.values.size < 2 * unknowns:
        raise ValueError(
            f"{samples.values.size} samples cannot determine {unknowns} "
            "coefficients with margin; supply a denser grid or lower the degree"
        )
    radii, angles = samples.radii, samples.angles
    k = np.repeat(np.arange(n), degree + 1)
    m = np.tile(np.arange(degree + 1), n)
    freqs = np.arange(-(n - 1), degree + 1)
    Q, T = np.linalg.qr(np.exp(1j * np.outer(angles, freqs)))
    system = (T[:, None, m - k + n - 1]
              * radii[None, :, None] ** (k + m)).reshape(-1, unknowns)
    with np.errstate(over="ignore", invalid="ignore"):
        projected = Q.conj().T @ samples.values.T
        sol, _, _, sv = np.linalg.lstsq(system, projected.ravel(), rcond=None)
        full_rank = sv.size == unknowns and sv[-1] > 0
        condition = float((sv[0] / sv[-1]) ** 2) if full_rank else math.inf
        if condition > COND_LIMIT:
            raise IllConditioned(
                f"normal equations condition {condition:.3e} exceeds "
                f"{COND_LIMIT:.1e}"
            )
        poly = PolyAnalytic(sol.reshape(n, degree + 1))
        residual = float(np.max(np.abs(poly(samples.points()) - samples.values)))
    if not (np.all(np.isfinite(poly.c)) and math.isfinite(residual)):
        raise NonFinite(
            f"decomposition is not finite: coefficients up to "
            f"{np.max(np.abs(poly.c)):.3e}, residual {residual:.3e}"
        )
    return DecompositionFit(poly=poly, residual=residual, condition=condition)
