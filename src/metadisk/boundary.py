"""Boundary values in the sense of distributions on the unit circle.

A disk function has the distribution u as boundary value when
Int f(r e^{i theta}) phi(theta) d theta -> <u, phi> as r -> 1 for every test
function phi; all pairings here use the plain d theta measure with no
conjugation and no 2 pi normalization.  For a function continuous on the
closed disk the limit is the pairing of its restriction to |z| = 1.
"""

from __future__ import annotations

import numpy as np

from .disk import TWO_PI
from .errors import NonFinite

DEFAULT_N_THETA = 256


class BoundaryDistribution:
    """Finite Fourier data sum c_n e^{i n theta}: a trigonometric test function
    or the boundary distribution it defines; both names bind this class.

    Pairing with phi = sum b_m e^{i m theta} is
    <u, phi> = sum_n c_n Int e^{i n theta} phi d theta = 2 pi sum_n c_n b_{-n}.
    """

    __slots__ = ("_coeffs", "label", "max_frequency")
    __test__ = False  # not a pytest case despite the name TestFunction

    def __init__(self, coeffs=None, label: str = ""):
        self._coeffs = {int(n): complex(c)
                        for n, c in dict(coeffs or {}).items() if complex(c) != 0}
        self.label = label or f"trig{sorted(self._coeffs)}"
        self.max_frequency = max(map(abs, self._coeffs), default=0)

    @classmethod
    def constant(cls, value=1.0) -> "TestFunction":
        return cls({0: value}, label="1")

    @classmethod
    def harmonic(cls, m: int) -> "TestFunction":
        return cls({m: 1.0}, label=f"harmonic[{m}]")

    @property
    def coeffs(self) -> dict[int, complex]:
        return dict(self._coeffs)

    def coefficient(self, n: int) -> complex:
        return self._coeffs.get(n, 0j)

    def __call__(self, theta):
        arr = np.asarray(theta, dtype=float)
        out = np.zeros(arr.shape, dtype=complex)
        for m, c in sorted(self._coeffs.items()):
            out = out + c * np.exp(1j * m * arr)
        if out.shape == ():
            return complex(out)
        return out

    def re_part(self) -> "BoundaryDistribution":
        freqs = set(self._coeffs) | {-n for n in self._coeffs}
        return BoundaryDistribution({
            n: (self.coefficient(n) + np.conjugate(self.coefficient(-n))) / 2.0
            for n in freqs
        })

    def pairings(self, tests) -> np.ndarray:
        """<self, phi> for every test, gathered by :func:`pair_spectrum`.

        The row r[-n mod N] = 2 pi c_n stands in for a ring spectrum; with N
        from alias_free_n_theta(top frequency of self plus the tests') the
        column a test term b_m reads holds 2 pi c_{-m} alone.
        """
        n_theta = alias_free_n_theta(self.max_frequency + max(
            (phi.max_frequency for phi in tests), default=0))
        row = np.zeros(n_theta, dtype=complex)
        freqs = np.array(list(self._coeffs), dtype=int)
        row[-freqs % n_theta] = TWO_PI * np.array(list(self._coeffs.values()))
        return pair_spectrum(row, tests)

    def __repr__(self):
        return f"BoundaryDistribution({self._coeffs!r})"


TestFunction = BoundaryDistribution


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


def pair_spectrum(spectrum: np.ndarray, tests) -> np.ndarray:
    """Ring integrals of f phi, one per test, from f's ring spectrum.

    Column m mod n_theta of ``spectrum`` holds Int f e^{i m theta} d theta; a
    test sum b_m e^{i m theta} gathers sum b_m times those columns.
    """
    terms = [(t, m, b) for t, phi in enumerate(tests)
             for m, b in phi._coeffs.items()]
    out = np.zeros(spectrum.shape[:-1] + (len(tests),), dtype=complex)
    if terms:
        index, columns, weights = (np.array(v) for v in zip(*terms))
        gathered = spectrum[..., columns % spectrum.shape[-1]] * weights
        np.add.at(out, (..., index), gathered)
    return out


def circle_pairings(f, tests, n_theta: int = DEFAULT_N_THETA) -> np.ndarray:
    """Pairings Int f(e^{i theta}) phi(theta) d theta of f's trace on |z| = 1
    with every test.

    Every function the solver pairs is a polynomial in (z, conj z), times e^s
    for the schwarz kind: continuous on the closed disk, so its boundary
    value in the sense of distributions is its restriction to the circle.
    The trapezoid rule on the circle (spectrally accurate for periodic
    integrands) is its DFT, so one inverse FFT gives Int f e^{i m theta} for
    every m.  ``np.fft`` is reached at call time: numpy imports it lazily.
    Raises NonFinite if a sample, or the spectrum of finite samples, is not
    finite.
    """
    samples = ring_samples(f, (1.0,), n_theta)[0]
    with np.errstate(all="ignore"):
        spectrum = TWO_PI * np.fft.ifft(samples)
    if not np.all(np.isfinite(spectrum)):
        raise NonFinite("the spectrum of the unit circle samples is not finite")
    return pair_spectrum(spectrum, tests)


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
