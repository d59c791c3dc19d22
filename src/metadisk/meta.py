"""Meta-analytic functions: exp-factor times a polynomial in conj(z).

A function w is meta-analytic of order n for the coefficient A when
(d/d conj(z) - A)^n w = 0.  Every such w factors as e^{s} * F where s is an
antiderivative of A in the conj(z) direction (a similarity factor) and F is
poly-analytic: F = sum_k conj(z)^k f_k(z) with each f_k holomorphic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disk import PolarGrid
from .errors import IllConditioned, NonFinite, StencilOutsideDisk
from .integral import PolyAnalytic, SimilarityFactor


@dataclass(frozen=True)
class MetaExpr:
    """w = e^{factor} * poly; closed under both derivative flavors used here."""

    factor: SimilarityFactor
    poly: PolyAnalytic

    @property
    def coefficient(self) -> PolyAnalytic:
        return self.factor.source

    @property
    def order(self) -> int:
        return self.poly.order

    def __call__(self, z):
        out = np.exp(self.factor(z)) * self.poly(z)
        if np.ndim(out) == 0:
            return complex(out)
        return out

    def dbar_shift(self) -> "MetaExpr":
        """(d/d conj(z) - A) w = e^{s} * (d/d conj(z)) F."""
        return MetaExpr(self.factor, self.poly.dbar())

    def dbar(self) -> "MetaExpr":
        """Plain d/d conj(z): the product rule brings the coefficient back in."""
        F = self.poly
        return MetaExpr(self.factor, F.dbar() + self.coefficient * F)

    def dbar_shift_power(self, k: int) -> "MetaExpr":
        """(d/d conj(z) - A)^k w = e^{s} * (d/d conj(z))^k F."""
        return MetaExpr(self.factor, self.poly.dbar_stack(k + 1)[-1])


def derivative_stack(w: MetaExpr, n: int) -> tuple[MetaExpr, ...]:
    """Plain conj(z)-derivatives d^k w for k = 0..n-1 (product rule applied)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    stack = [w]
    for _ in range(n - 1):
        stack.append(stack[-1].dbar())
    return tuple(stack)


class TriangularOperatorMatrix:
    """Lower unitriangular matrix of polynomial entries acting on derivative stacks.

    Row k expresses the plain derivative d^k (e^s F) as
    e^s * sum_j entries[k][j] d^j F.
    """

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        for k, row in enumerate(rows):
            if len(row) != k + 1:
                raise ValueError("row %d must have %d entries" % (k, k + 1))
        self.entries = rows

    @property
    def size(self) -> int:
        return len(self.entries)

    def entry(self, k: int, j: int) -> PolyAnalytic:
        if j > k:
            return PolyAnalytic.zero()
        return self.entries[k][j]

    def __matmul__(self, other: "TriangularOperatorMatrix"):
        if self.size != other.size:
            raise ValueError("size mismatch")
        rows = []
        for k in range(self.size):
            row = []
            for j in range(k + 1):
                acc = PolyAnalytic.zero()
                for l in range(j, k + 1):
                    acc = acc + self.entry(k, l) * other.entry(l, j)
                row.append(acc)
            rows.append(tuple(row))
        return TriangularOperatorMatrix(rows)

    def deviation_from_identity(self) -> float:
        worst = 0.0
        one = PolyAnalytic.constant(1.0)
        for k in range(self.size):
            for j in range(k + 1):
                gap = self.entry(k, j) - (one if j == k else PolyAnalytic.zero())
                worst = max(worst, gap.max_coeff())
        return worst


def derivative_matrix(coeff: PolyAnalytic, n: int) -> TriangularOperatorMatrix:
    """Rows M[k] with d^k (e^s F) = e^s sum_j M[k][j] d^j F, in closed form.

    By Leibniz M[k][j] = C(k, j) B_(k-j), where d^m e^s = e^s B_m:
    B_0 = 1 and B_(m+1) = dbar B_m + A B_m.  The inverse is the matrix of
    -A, whose similarity exponent is -s: d^k F = d^k (e^(-s) w).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    b = [PolyAnalytic.constant(1.0)]
    for _ in range(n - 1):
        b.append(b[-1].dbar() + coeff * b[-1])
    return TriangularOperatorMatrix(
        [b[k - j].scale(math.comb(k, j)) for j in range(k + 1)]
        for k in range(n))


def pde_residual(w, coeff: PolyAnalytic, n: int, grid: PolarGrid | None = None,
                 h: float | None = None) -> float:
    """max over the grid of |(d/d conj(z) - A)^n w|.

    For a MetaExpr built from the same coefficient the operator is applied
    exactly and the residual of a true solution is 0.0 by construction.  For
    anything else the operator power is formed on an offset lattice with
    central differences; the lattice must stay inside the disk.
    """
    grid = grid or PolarGrid.mesh()
    pts = grid.points().ravel()

    if isinstance(w, MetaExpr) and isinstance(coeff, PolyAnalytic) and (
            (w.coefficient - coeff).max_coeff()
            <= 1e-12 * max(1.0, coeff.max_coeff())):
        out = w.dbar_shift_power(n)
        if out.poly.is_zero:
            return 0.0
        vals = out(pts)
        return float(np.max(np.abs(vals)))

    if h is None:
        h = max(1e-4, float(np.finfo(float).eps) ** (1.0 / (n + 2)))
    if np.max(np.abs(pts)) + 2 * n * h >= 1.0:
        raise StencilOutsideDisk(
            f"difference lattice of step {h} around the grid leaves the disk"
        )
    level = {
        (a, b): np.asarray(w(pts + (a + 1j * b) * h), dtype=complex)
        for a in range(-n, n + 1)
        for b in range(-n, n + 1)
        if abs(a) + abs(b) <= n
    }
    for m in range(n):
        reach = n - m - 1
        nxt = {}
        for a in range(-reach, reach + 1):
            for b in range(-reach, reach + 1):
                if abs(a) + abs(b) > reach:
                    continue
                diff = (
                    level[(a + 1, b)] - level[(a - 1, b)]
                    + 1j * (level[(a, b + 1)] - level[(a, b - 1)])
                ) / (4.0 * h)
                here = pts + (a + 1j * b) * h
                nxt[(a, b)] = diff - np.asarray(coeff(here), dtype=complex) * level[(a, b)]
        level = nxt
    vals = level[(0, 0)]
    if not np.all(np.isfinite(vals)):
        raise NonFinite("difference scheme produced non-finite values")
    return float(np.max(np.abs(vals)))


@dataclass(frozen=True)
class DecompositionFit:
    """Least-squares poly-analytic fit with its sampling residual."""

    poly: PolyAnalytic
    residual: float
    condition: float


# Default collocation rings for decomposition when the caller has a function
# rather than measured samples.  Spread keeps the radial Vandermonde blocks
# well conditioned.
DECOMPOSE_RADII = (0.3, 0.5, 0.7, 0.9)


def decompose_samples(fn, n_angular: int = 64) -> PolarGrid:
    """Sample fn on the default collocation rings, ready for poly_decompose."""
    grid = PolarGrid.rings(np.array(DECOMPOSE_RADII), n_angular)
    return grid.with_values(np.asarray(fn(grid.points()), dtype=complex))


def poly_decompose(samples: PolarGrid, n: int, degree: int = 16,
                   cond_limit: float = 1e10) -> DecompositionFit:
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
    IllConditioned when ``condition`` passes ``cond_limit`` (nearly
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
        if condition > cond_limit:
            raise IllConditioned(
                f"normal equations condition {condition:.3e} exceeds "
                f"{cond_limit:.1e}"
            )
        poly = PolyAnalytic(sol.reshape(n, degree + 1))
        residual = float(np.max(np.abs(poly(samples.points()) - samples.values)))
    if not (np.all(np.isfinite(poly.c)) and math.isfinite(residual)):
        raise NonFinite(
            f"decomposition is not finite: coefficients up to "
            f"{np.max(np.abs(poly.c)):.3e}, residual {residual:.3e}"
        )
    return DecompositionFit(poly=poly, residual=residual, condition=condition)
