"""Boundary values in the sense of distributions on the unit circle.

A disk function has the distribution u as boundary value when
Int f(r e^{i theta}) phi(theta) d theta -> <u, phi> as r -> 1 for every test
function phi; all pairings here use the plain d theta measure with no
conjugation and no 2 pi normalization.  For a function continuous on the
closed disk the limit is the pairing of its restriction to |z| = 1.

A distribution on the circle is known by its Fourier coefficients, so a
pairing is a band of cells, one per harmonic e^{i m theta} with |m| <= top:
exact from Fourier data (`BoundaryDistribution.pairings`), or sampled from a
function on the circle (`circle_pairings`).  A trigonometric test
sum b_m e^{i m theta} pairs as sum b_m times the cells of its harmonics.
"""

from __future__ import annotations

import numpy as np

from .disk import TWO_PI
from .errors import NonFinite

DEFAULT_N_THETA = 256


class BoundaryDistribution:
    """Finite Fourier data sum c_n e^{i n theta} on the circle, the boundary
    distribution it defines.

    A distribution is known by its Fourier coefficients: its pairing with
    e^{i m theta} is 2 pi c_{-m}, and by linearity those cells give its
    pairing with every trigonometric test.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        self._coeffs = {int(n): complex(c)
                        for n, c in dict(coeffs or {}).items() if complex(c) != 0}

    @property
    def coeffs(self) -> dict[int, complex]:
        return dict(self._coeffs)

    def coefficient(self, n: int) -> complex:
        return self._coeffs.get(n, 0j)

    def re_part(self) -> "BoundaryDistribution":
        freqs = set(self._coeffs) | {-n for n in self._coeffs}
        return BoundaryDistribution({
            n: (self.coefficient(n) + np.conjugate(self.coefficient(-n))) / 2.0
            for n in freqs
        })

    def pairings(self, top: int) -> np.ndarray:
        """<self, e^{i m theta}> = 2 pi c_{-m} for m = -top..top."""
        return TWO_PI * np.array([self.coefficient(-m)
                                  for m in range(-top, top + 1)])

    def __repr__(self):
        return f"BoundaryDistribution({self._coeffs!r})"


def alias_free_n_theta(max_frequency: int) -> int:
    """Angular grid for ring integrals of frequencies up to ``max_frequency``:
    the smallest power of two above it, at least DEFAULT_N_THETA.  The
    trapezoid sum of e^{i q theta} over n_theta angles is exact unless q is a
    nonzero multiple of n_theta."""
    return max(DEFAULT_N_THETA, 1 << int(max_frequency).bit_length())


def finite_samples(f, z, what: str) -> np.ndarray:
    """f(z) as a complex array, evaluated with numpy's warnings off; raises
    NonFinite naming the first point of ``z`` whose value is not finite."""
    with np.errstate(all="ignore"):
        values = np.asarray(f(z), dtype=complex)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NonFinite(f"{what} at z={complex(z.flat[bad[0]])!r} "
                        "is not finite")
    return values


def ring_samples(f, radii, n_theta: int) -> np.ndarray:
    """f on n_theta equispaced points of each ring of ``radii`` (1.0 is the
    unit circle), the first at z = r: shape (len(radii), n_theta).  Raises
    NonFinite at the first sample in ring order that is not finite."""
    circle = np.exp(1j * (np.arange(n_theta) * (TWO_PI / n_theta)))
    z = np.asarray(radii, dtype=float)[:, None] * circle[None, :]
    return np.broadcast_to(finite_samples(f, z, "ring sample"), z.shape)


def circle_pairings(f, top: int, n_theta: int = DEFAULT_N_THETA) -> np.ndarray:
    """Pairings Int f(e^{i theta}) e^{i m theta} d theta of f's trace on
    |z| = 1 for m = -top..top, the cells of :meth:`BoundaryDistribution.pairings`.

    Every function the solver pairs is a polynomial in (z, conj z), times e^s
    for the schwarz kind: continuous on the closed disk, so its boundary
    value in the sense of distributions is its restriction to the circle.
    The trapezoid rule on the circle (spectrally accurate for periodic
    integrands) is its DFT, so the cells are a slice of one inverse FFT,
    column m mod n_theta for m.  With n_theta above f's top frequency plus
    top, each cell's sum is exact even where two cells share a column.
    ``np.fft`` is reached at call time: numpy imports it lazily.  Raises
    NonFinite if a sample, or the spectrum of finite samples, is not finite.
    """
    samples = ring_samples(f, (1.0,), n_theta)[0]
    with np.errstate(all="ignore"):
        spectrum = TWO_PI * np.fft.ifft(samples)
    if not np.all(np.isfinite(spectrum)):
        raise NonFinite("the spectrum of the unit circle samples is not finite")
    return spectrum[np.arange(-top, top + 1) % n_theta]


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a float array, told apart by bit pattern so
    that +0.0 and -0.0, and NaNs, stay apart, and for each element the index
    of its value among them, in the array's shape."""
    bits = values.view(np.uint64)
    keys = np.sort(bits, axis=None)
    first = np.ones(keys.size, bool)
    first[1:] = keys[1:] != keys[:-1]
    keys = keys[first]
    return keys.view(np.float64), np.searchsorted(keys, bits)


def poisson_extend(u: BoundaryDistribution, z):
    """Harmonic extension sum c_n r^|n| e^{i n theta} of finite Fourier data.

    The terms are added in the order of n.  Each |n| takes one power r^|n|
    and one wave e^{i |n| theta}, and n < 0 the wave's conjugate.  That is
    exp(1j * n * theta) up to the sign of a zero: the imaginary part of
    1j * n * theta is exactly -1 times that of -n, its real part is a zero,
    and complex exp(+-0 + iy) is (cos y, sin y) with sin odd.  A zero's sign
    does not reach the sum, which starts at +0.  The points of an array share
    radii and angles (a grid's rings), so its powers and waves are taken once
    per distinct radius and angle and gathered back, the same values
    elementwise; a scalar z keeps numpy's scalar math.
    """
    arr = np.asarray(z, dtype=complex)
    r, theta = np.abs(arr), np.angle(arr)
    if arr.ndim:
        (r, r_at), (theta, theta_at) = _distinct(r), _distinct(theta)
    total = np.zeros(arr.shape, dtype=complex)
    kept = {}
    for n, c in sorted(u.coeffs.items()):
        m = abs(n)
        if m not in kept:
            power, wave = r ** m, np.exp(1j * m * theta)
            kept[m] = ((power[r_at], wave[theta_at]) if arr.ndim
                       else (power, wave))
        power, wave = kept[m]
        total += c * power * (wave if n >= 0 else np.conjugate(wave))
    if total.shape == ():
        return complex(total)
    return total
