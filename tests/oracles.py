"""Test-only oracles: quadrature, finite-difference Wirtinger derivatives,
the dense decomposition fit and its collocation rings, the plain derivative
stack, the derivative matrix and the product of two such matrices, the ring
estimators, the Poisson extension's term loop, the padded-sum unfold of a
Schwarz level and the dict polynomial tables.

Quadrature certifies the closed-form area-integral tables by an independent
route, finite differences certify the exact d/d conj(z) of the package, the
matrix product certifies the closed-form inverse of ``derivative_matrix``,
and the dense least-squares fit certifies ``poly_decompose``.  The dict
functions are the earlier dict-backed polynomial code: a polynomial is a
{(m, k): c} dict, and every function here adds its terms in the same order
that code did, so it is the bit-for-bit reference for ``PolyAnalytic``'s
tables, its monomial sum and the terms written to files.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from metadisk.boundary import ring_samples
from metadisk.disk import TWO_PI, PolarGrid
from metadisk.errors import IllConditioned, MetadiskError, NonFinite
from metadisk.integral import PolyAnalytic
from metadisk.meta import DecompositionFit, MetaExpr

_PI = math.pi


class StencilOutsideDisk(MetadiskError):
    """A finite-difference stencil would leave the open unit disk."""


class NonConvergent(MetadiskError):
    """Two quadrature refinement levels disagree beyond the requested tolerance."""


def wirtinger_dbar(f, z, h: float = 1e-4, richardson: bool = False) -> complex:
    """d/d(conj z) of ``f`` at ``z``: (f_x + i f_y) / 2 by central differences.

    Parameters
    ----------
    f : callable
    z : complex, interior, at distance > 2h from the boundary
    h : stencil step
    richardson : combine steps h and h/2 for fourth-order accuracy

    Raises
    ------
    StencilOutsideDisk : the stencil would reach outside the disk.
    NonFinite : a stencil sample came back inf or NaN.
    """
    zc = complex(z)
    if abs(zc) + 2.0 * h >= 1.0:
        raise StencilOutsideDisk(f"point {zc} is within 2h={2 * h} of the boundary")

    def central(step: float) -> complex:
        samples = np.array(
            [f(zc + step), f(zc - step), f(zc + 1j * step), f(zc - 1j * step)],
            dtype=complex,
        )
        if not np.all(np.isfinite(samples)):
            raise NonFinite(f"non-finite sample in stencil at {zc}")
        fx = (samples[0] - samples[1]) / (2.0 * step)
        fy = (samples[2] - samples[3]) / (2.0 * step)
        return complex((fx + 1j * fy) / 2.0)

    d = central(h)
    if richardson:
        d_half = central(h / 2.0)
        d = (4.0 * d_half - d) / 3.0
    return d


def plain_dbar(w: MetaExpr) -> MetaExpr:
    """d/d conj(z) of e^s F by the product rule: e^s (dbar F + A F)."""
    return MetaExpr(w.s, w.poly.dbar() + w.coefficient * w.poly)


def derivative_stack(w: MetaExpr, n: int) -> tuple[MetaExpr, ...]:
    """Plain conj(z)-derivatives d^k w for k = 0..n-1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    stack = [w]
    for _ in range(n - 1):
        stack.append(plain_dbar(stack[-1]))
    return tuple(stack)


def derivative_matrix(coeff: PolyAnalytic, n: int):
    """Rows M[k] of the lower unitriangular matrix with d^k (e^s F) =
    e^s sum_(j<=k) M[k][j] d^j F: by Leibniz M[k][j] = C(k, j) B_(k-j), with
    B_0 = 1 and B_(m+1) = dbar B_m + A B_m.  Its inverse is the matrix of -A."""
    if n < 1:
        raise ValueError("n must be at least 1")
    b = [PolyAnalytic.constant(1.0)]
    for _ in range(n - 1):
        b.append(b[-1].dbar() + coeff * b[-1])
    return tuple(tuple(b[k - j].scale(math.comb(k, j)) for j in range(k + 1))
                 for k in range(n))


def triangular_product(a, b) -> tuple[tuple[PolyAnalytic, ...], ...]:
    """The product of two lower triangular matrices given by rows, as
    ``derivative_matrix`` returns them: entry (k, j) sums a[k][l] b[l][j]
    over j <= l <= k."""
    if len(a) != len(b):
        raise ValueError("size mismatch")
    rows = []
    for k in range(len(a)):
        row = []
        for j in range(k + 1):
            acc = PolyAnalytic.zero()
            for l in range(j, k + 1):
                acc = acc + a[k][l] * b[l][j]
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


def deviation_from_identity(rows) -> float:
    """Largest coefficient of a lower triangular matrix minus the identity."""
    worst = 0.0
    one = PolyAnalytic.constant(1.0)
    for k, row in enumerate(rows):
        for j, entry in enumerate(row):
            gap = entry - (one if j == k else PolyAnalytic.zero())
            worst = max(worst, gap.max_coeff())
    return worst


@lru_cache(maxsize=32)
def _gauss_on_unit(n: int) -> tuple[np.ndarray, np.ndarray]:
    # Gauss-Legendre on (0, 1); nodes are strictly interior, so integrands are
    # never evaluated at the singular center or on the clipped boundary.
    t, w = np.polynomial.legendre.leggauss(n)
    return (t + 1.0) / 2.0, w / 2.0


def _polar_integral(g, center: complex, n_radial: int, n_angular: int) -> complex:
    phi = np.arange(n_angular) * (TWO_PI / n_angular)
    rays = np.exp(1j * phi)
    # distance from the center to the unit circle along each ray
    beta = (np.conjugate(center) * rays).real
    reach = -beta + np.sqrt(beta * beta + 1.0 - abs(center) ** 2)
    x, wx = _gauss_on_unit(n_radial)
    rho = x[:, None] * reach[None, :]
    nodes = center + rho * rays[None, :]
    vals = np.asarray(g(nodes), dtype=complex)
    # area element rho drho dphi; the factor rho tames 1/|zeta - center|
    weights = (wx[:, None] * reach[None, :]) * rho * (TWO_PI / n_angular)
    return complex(np.sum(vals * weights))


def disk_quadrature(g, singularity=None, n_radial: int = 512,
                    n_angular: int = 512, tol: float | None = None) -> complex:
    """Integral of ``g`` over the unit disk with respect to area measure.

    When ``singularity`` is given, the polar coordinates are centered there so
    the Jacobian cancels an integrable 1/|zeta - singularity| factor; rays are
    clipped to the disk.  With ``tol`` set, the result is compared against a
    half-resolution pass and NonConvergent is raised if the two differ by more
    than ``tol``.

    Parameters
    ----------
    g : callable, must broadcast over complex arrays
    singularity : interior point used as the polar center, default the origin
    n_radial, n_angular : node counts (Gauss-Legendre radial, uniform angular)
    tol : optional absolute refinement tolerance
    """
    center = 0j if singularity is None else complex(singularity)
    if abs(center) >= 1.0:
        raise ValueError("singularity must be an interior point")
    fine = _polar_integral(g, center, n_radial, n_angular)
    if tol is not None:
        coarse = _polar_integral(
            g, center, max(8, n_radial // 2), max(8, n_angular // 2)
        )
        if not (abs(fine - coarse) <= tol):   # also trips on NaN
            raise NonConvergent(
                f"refinement gap {abs(fine - coarse):.3e} exceeds tol {tol:.3e}"
            )
    return fine


def teodorescu_quadrature_oracle(f, z, n_radial: int = 512, n_angular: int = 512,
                                 tol: float | None = None) -> complex:
    """The same operator evaluated by singularity-centered quadrature.

    Independent of the closed-form table; used to certify it.  ``f`` may be a
    polynomial or any broadcasting callable; ``z`` must be interior.
    """
    zc = complex(z)

    def integrand(zeta):
        return np.asarray(f(zeta), dtype=complex) / (zeta - zc)

    area = disk_quadrature(integrand, singularity=zc, n_radial=n_radial,
                           n_angular=n_angular, tol=tol)
    return -area / _PI


def schwarz_pompeiu_quadrature_oracle(f, z, n_radial: int = 128,
                                      n_angular: int = 256,
                                      tol: float | None = None) -> complex:
    """The Schwarz-Pompeiu integral by quadrature, independent of the table.

    Used to certify the table.  ``f`` may be a polynomial or any broadcasting
    callable; ``z`` must be interior.  Evaluates  -1/(2 pi) Int_D [ f(t)/t * (t+z)/(t-z)
                                 + conj(f(t))/conj(t) * (1+z*conj(t))/(1-z*conj(t)) ] dA.

    The kernel is split exactly into integrable pieces before quadrature:

        f/t * (t+z)/(t-z)                    = 2 f/(t-z) - f/t
        conj(f)/conj(t) * (1+z ct)/(1-z ct)  = conj(f)/conj(t) + 2 z conj(f)/(1-z ct)

    and each singular piece is integrated in polar coordinates centered on its
    own singularity (z, the origin, the origin; the last piece has its pole at
    1/conj(z), outside the closed disk for interior z).
    """
    zc = complex(z)
    quad = dict(n_radial=n_radial, n_angular=n_angular, tol=tol)

    def fv(t):
        return np.asarray(f(t), dtype=complex)

    cauchy_part = disk_quadrature(lambda t: 2.0 * fv(t) / (t - zc),
                                  singularity=zc, **quad)
    center_part = disk_quadrature(lambda t: -fv(t) / t, singularity=0j, **quad)
    mirror_part = disk_quadrature(lambda t: np.conjugate(fv(t)) / np.conjugate(t),
                                  singularity=0j, **quad)
    herglotz_part = disk_quadrature(
        lambda t: 2.0 * zc * np.conjugate(fv(t)) / (1.0 - zc * np.conjugate(t)),
        singularity=0j, **quad)
    total = cauchy_part + center_part + mirror_part + herglotz_part
    return -total / (2.0 * _PI)


# Default collocation rings for decomposition when the caller has a function
# rather than measured samples.  Spread keeps the radial Vandermonde blocks
# well conditioned.
DECOMPOSE_RADII = (0.3, 0.5, 0.7, 0.9)


def decompose_samples(fn, n_angular: int = 64) -> PolarGrid:
    """Sample fn on the default collocation rings, ready for poly_decompose."""
    angles = np.arange(n_angular) * (TWO_PI / n_angular)
    points = PolarGrid(DECOMPOSE_RADII, angles).points()
    return PolarGrid(DECOMPOSE_RADII, angles,
                     np.asarray(fn(points), dtype=complex))


def dense_poly_decompose(samples: PolarGrid, n: int, degree: int = 16,
                         cond_limit: float = 1e10) -> DecompositionFit:
    """``poly_decompose`` by one least-squares solve over the dense design:
    a row per sample, a column conj(z)^k z^m per unknown, the powers built by
    running products."""
    pts = samples.points().ravel()
    vals = np.asarray(samples.values, dtype=complex).ravel()
    unknowns = n * (degree + 1)
    if pts.size < 2 * unknowns:
        raise ValueError(f"{pts.size} samples cannot determine {unknowns} "
                         "coefficients with margin")
    zbar = np.conjugate(pts)
    cols = []
    for k in range(n):
        zk = zbar ** k
        power = np.ones_like(pts)
        for _ in range(degree + 1):
            cols.append(zk * power)
            power = power * pts
    design = np.stack(cols, axis=1)
    sol, _, _, sv = np.linalg.lstsq(design, vals, rcond=None)
    condition = float((sv[0] / sv[-1]) ** 2) if sv[-1] > 0 else math.inf
    if condition > cond_limit:
        raise IllConditioned(
            f"normal equations condition {condition:.3e} exceeds {cond_limit:.1e}"
        )
    poly = PolyAnalytic(sol.reshape(n, degree + 1))
    residual = float(np.max(np.abs(design @ sol - vals)))
    return DecompositionFit(poly=poly, residual=residual, condition=condition)


def dyadic_radii(depth: int) -> np.ndarray:
    """r_j = 1 - 2^(-j-1), j = 0..depth: -log(1 - r_j) is evenly spaced."""
    return 1.0 - 0.5 ** (np.arange(depth + 1) + 1.0)


# A pole on the circle is a peak of width about 1 - r on the ring of radius
# r; N angles see it wherever it sits only where N (1 - r) >= 8.
POLE_DEPTH, POLE_N_THETA = 8, 4096
HALF_STEP = math.pi / POLE_N_THETA  # half a step of those angles


def pole(theta0: float, p: int):
    """1 / (1 - z e^{-i theta0})^p, of growth order p."""
    return lambda z: 1.0 / (1.0 - z * np.exp(-1j * theta0)) ** p


def growth_order(f) -> float:
    """Least-squares slope of log max |f| on the dyadic rings against
    -log(1 - r), clamped at 0: alpha in |f| <= C / (1 - r)^alpha.  Raises
    NonFinite if a sample or a ring's maximum is not finite."""
    radii = dyadic_radii(POLE_DEPTH)
    with np.errstate(all="ignore"):  # |f| past the largest double
        sups = np.max(np.abs(ring_samples(f, radii, POLE_N_THETA)), axis=1)
    if not np.all(np.isfinite(sups)):
        raise NonFinite("a radial supremum of |f| is not finite")
    x, y = -np.log(1.0 - radii), np.log(np.maximum(sups, 1e-300))
    return float(max(np.polyfit(x, y, 1)[0], 0.0))


def lp_boundary_convergence(f, plus, p: float, depth: int = 16,
                            n_theta: int = 256) -> np.ndarray:
    """Int |f - plus|^p d theta on each dyadic ring by the trapezoid sum;
    ``plus`` is samples on the ring's angles or a callable of theta.  Raises
    NonFinite at the first sample of f or ring sum that is not finite."""
    if callable(plus):
        plus = plus(np.arange(n_theta) * (TWO_PI / n_theta))
    radii = dyadic_radii(depth)
    samples = ring_samples(f, radii, n_theta)
    with np.errstate(all="ignore"):
        sums = (TWO_PI / n_theta) * np.sum(np.abs(samples - plus) ** p, axis=1)
    bad = np.flatnonzero(~np.isfinite(sums))
    if bad.size:
        raise NonFinite(f"the |f|^p sum at r={radii[bad[0]]} is not finite")
    return sums


def hardy_norm(f, p: float, depth: int = 16, n_theta: int = 256):
    """(max of the L^p means on the dyadic rings, unbounded): unbounded when
    the last mean passes the one before by more than five percent."""
    means = lp_boundary_convergence(f, 0.0, p, depth, n_theta) ** (1.0 / p)
    return float(np.max(means)), bool(means[-1] > 1.05 * means[-2])


def meta_hardy_norm(w: MetaExpr, p: float, n: int):
    """hardy_norm summed over derivative_stack(w, n), unbounded if a part is."""
    parts = [hardy_norm(g, p) for g in derivative_stack(w, n)]
    return sum(v for v, _ in parts), any(u for _, u in parts)


def poisson_extend_loop(u, z):
    """The Poisson extension of earlier versions, bit for bit: one power and
    one exponential per frequency, added in the order of n."""
    arr = np.asarray(z, dtype=complex)
    r = np.abs(arr)
    theta = np.angle(arr)
    out = np.zeros(arr.shape, dtype=complex)
    for n, c in sorted(u.coeffs.items()):
        out = out + c * r ** abs(n) * np.exp(1j * n * theta)
    if out.shape == ():
        return complex(out)
    return out


def unfold_padded(base: PolyAnalytic, lower) -> PolyAnalytic:
    """``schwarz._unfold`` of earlier versions, bit for bit: one padded
    PolyAnalytic sum per lower member, counted down from the last."""
    for step in range(1, len(lower) + 1):
        scale = -((-1.0) ** step) / math.factorial(step)
        base = base + lower[-step].shifted(step, scale)
    return base


def _normalized(terms: dict) -> dict:
    """The dict constructor: 0j + c for every nonzero c, so -0.0 parts become
    0.0, and exact zeros dropped."""
    return {(int(m), int(k)): 0j + complex(c)
            for (m, k), c in terms.items() if complex(c) != 0}


def dict_terms(pairs) -> dict:
    """((m, k), c) pairs with repeated keys added in input order, keys sorted."""
    out: dict = {}
    for mk, c in pairs:
        out[mk] = out.get(mk, 0j) + complex(c)
    return _normalized(dict(sorted(out.items())))


def dict_eval(terms: dict, z):
    """Monomials in sorted (m, k) order times precomputed powers of z and conj(z)."""
    arr = np.asarray(z, dtype=complex)
    out = np.zeros(arr.shape, dtype=complex)
    if terms:
        zp, wp = [np.ones_like(arr)], [np.ones_like(arr)]
        zbar = np.conjugate(arr)
        for _ in range(max(m for m, _ in terms)):
            zp.append(zp[-1] * arr)
        for _ in range(max(k for _, k in terms)):
            wp.append(wp[-1] * zbar)
        for (m, k), c in sorted(terms.items()):
            out = out + c * zp[m] * wp[k]
    if out.shape == ():
        return complex(out)
    return out


def dict_teodorescu(terms: dict) -> dict:
    out: dict = {}

    def add(m, k, c):
        out[(m, k)] = out.get((m, k), 0j) + c

    for (m, k), c in terms.items():
        w = c / (k + 1)
        add(m, k + 1, w)
        if m >= k + 1:
            add(m - k - 1, 0, -w)
    return _normalized(out)


def dict_schwarz_pompeiu(terms: dict) -> dict:
    out = dict_teodorescu(terms)

    def add(m, k, c):
        out[(m, k)] = out.get((m, k), 0j) + c

    for (m, k), c in terms.items():
        if m == k + 1:
            add(0, 0, 1j * c.imag / (k + 1))
        if k >= m:
            add(k - m + 1, 0, -c.conjugate() / (k + 1))
    return _normalized(out)


def dict_similarity(terms: dict, kind: str) -> dict:
    """The exponent; the schwarz kind adds -i Im of its constant term."""
    if kind == "cauchy":
        return dict_teodorescu(terms)
    value = dict_schwarz_pompeiu(terms)
    return dict_add(value, _normalized({(0, 0): -1j * value.get((0, 0), 0j).imag}))


def dict_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for mk, c in b.items():
        out[mk] = out.get(mk, 0j) + c
    return _normalized(out)


def dict_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (m1, k1), c1 in a.items():
        for (m2, k2), c2 in b.items():
            key = (m1 + m2, k1 + k2)
            out[key] = out.get(key, 0j) + c1 * c2
    return _normalized(out)


def dict_dbar(a: dict) -> dict:
    return _normalized({(m, k - 1): k * c for (m, k), c in a.items() if k > 0})


def dict_derivative_matrix(coeff: dict, n: int) -> list[list[dict]]:
    """M[0][0] = 1 and M[k+1][j] = dbar M[k][j] + A M[k][j] + M[k][j-1]."""
    rows = [[{(0, 0): 1 + 0j}]]
    for k in range(n - 1):
        prev = rows[k]
        row = []
        for j in range(k + 2):
            acc: dict = {}
            if j <= k:
                acc = dict_add(dict_add(acc, dict_dbar(prev[j])),
                               dict_mul(coeff, prev[j]))
            if j >= 1:
                acc = dict_add(acc, prev[j - 1])
            row.append(acc)
        rows.append(row)
    return rows


def dict_to_data(terms: dict) -> dict:
    return {"terms": [{"m": m, "k": k, "re": c.real, "im": c.imag}
                      for (m, k), c in sorted(terms.items())]}


def dict_from_data(data: dict) -> dict:
    return _normalized({(t["m"], t["k"]): complex(t["re"], t["im"])
                        for t in data["terms"]})
