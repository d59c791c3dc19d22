"""Polynomials in (z, conj z) and the singular area-integral operators.

One class, :class:`PolyAnalytic`, holds every polynomial in z and conj(z):
the coefficient A, the similarity exponent s, the two area integrals that
invert d/d(conj z) as closed-form tables, and the poly-analytic factor F.
Quadrature oracles for the tables live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryDistribution
from .errors import MetadiskError


@dataclass(frozen=True, eq=False)
class PolyAnalytic:
    """sum_k conj(z)^k f_k(z) = sum c[k, m] z^m conj(z)^k: row k of the complex
    array ``c[k, m]`` holds the coefficients of the holomorphic part f_k, and
    one row is a holomorphic series.  The array is read-only and keeps the
    width it is built with.

    Two evaluation orders are each pinned bit for bit by an output file:
    calling runs Horner per row (``solution_grid.csv``, through F), and
    :meth:`monomial_sum` adds the monomials in sorted (m, k) order
    (``transform.csv``, and e^s inside ``solution_grid.csv``, so the
    similarity exponent s is evaluated by it, not by calling).
    """

    c: np.ndarray

    def __post_init__(self):
        c = np.array(self.c, dtype=complex, ndmin=2)
        if c.ndim != 2:
            raise ValueError(f"coefficients must form a 2-D array, got {c.ndim}-D")
        if c.size == 0:
            c = np.zeros((1, 1), dtype=complex)
        c.flags.writeable = False
        object.__setattr__(self, "c", c)

    @classmethod
    def zero(cls) -> "PolyAnalytic":
        return cls([[0j]])

    @classmethod
    def constant(cls, c) -> "PolyAnalytic":
        return cls([[complex(c)]])

    @classmethod
    def holomorphic(cls, coeffs) -> "PolyAnalytic":
        """The series sum_m coeffs[m] z^m, coefficients by ascending power."""
        return cls([coeffs])

    @classmethod
    def from_terms(cls, terms) -> "PolyAnalytic":
        """sum c z^m conj(z)^k over a {(m, k): c} mapping or ((m, k), c) pairs;
        repeated keys add up in input order."""
        pairs = list(terms.items() if hasattr(terms, "items") else terms)
        try:
            keys = np.array([mk for mk, _ in pairs], dtype=int).reshape(-1, 2)
        except OverflowError:
            raise ValueError("exponents must fit in a 64-bit integer") from None
        if np.any(keys < 0):
            raise ValueError("exponents must be nonnegative")
        try:
            out = np.zeros(keys.max(axis=0, initial=0)[::-1] + 1, dtype=complex)
        except MemoryError as exc:  # numpy refuses before allocating
            raise ValueError(str(exc)) from None
        np.add.at(out, (keys[:, 1], keys[:, 0]),
                  np.array([complex(c) for _, c in pairs], dtype=complex))
        return cls(out)

    @property
    def order(self) -> int:
        return self.c.shape[0]

    @property
    def degree(self) -> int:
        """Highest power of z the array holds, zero coefficients included."""
        return self.c.shape[1] - 1

    @property
    def is_zero(self) -> bool:
        return not self.c.any()

    def coefficient(self, m: int, k: int) -> complex:
        """The coefficient of z^m conj(z)^k; 0 outside the array."""
        rows, width = self.c.shape
        return complex(self.c[k, m]) if 0 <= k < rows and 0 <= m < width else 0j

    def sorted_terms(self):
        """Arrays m, k, c of the nonzero terms in sorted (m, k) order: the
        order of the monomial sum, of both area-integral tables and of the
        terms written to files."""
        m, k = np.nonzero(self.c.T)
        return m, k, self.c[k, m]

    def __call__(self, z):
        """Horner in z per row, in numpy.polynomial.polyval's operation
        order, then a running power of conj(z)."""
        arr = np.asarray(z, dtype=complex)
        zbar = np.conjugate(arr)
        out = np.zeros(arr.shape, dtype=complex)
        power = np.ones(arr.shape, dtype=complex)
        for row in self.c:
            value = row[-1] + arr * 0
            for a in row[-2::-1]:
                value = a + value * arr
            out = out + power * value
            power = power * zbar
        if out.shape == ():
            return complex(out)
        return out

    def monomial_sum(self, z):
        """The nonzero terms c z^m conj(z)^k added one by one in sorted (m, k)
        order, with running powers of z and of conj(z); of the latter only
        the powers the terms use are kept."""
        arr = np.asarray(z, dtype=complex)
        out = np.zeros(arr.shape, dtype=complex)
        m, k, c = self.sorted_terms()
        if c.size:
            zbar, zbar_powers = np.conjugate(arr), {}
            power, top = np.ones_like(arr), 0
            for used in sorted(set(k.tolist())):
                while top < used:
                    power, top = power * zbar, top + 1
                zbar_powers[used] = power
            power, top = np.ones_like(arr), 0
            for m, k, c in zip(m.tolist(), k.tolist(), c.tolist()):
                while top < m:
                    power, top = power * arr, top + 1
                out = out + c * power * zbar_powers[k]
        if out.shape == ():
            return complex(out)
        return out

    def dbar(self) -> "PolyAnalytic":
        """Derivative in conj(z): drops row 0 and scales row k by k."""
        if self.order == 1:
            return PolyAnalytic.zero()
        k = np.arange(1, self.order, dtype=complex)
        return PolyAnalytic(self.c[1:] * k[:, None])

    def dbar_stack(self, n: int) -> tuple["PolyAnalytic", ...]:
        """dbar^k F for k = 0..n-1; e^s times it is the shifted stack of e^s F."""
        if n < 1:
            raise ValueError("n must be at least 1")
        stack = [self]
        for _ in range(n - 1):
            stack.append(stack[-1].dbar())
        return tuple(stack)

    def shifted(self, count: int, scale=1.0) -> "PolyAnalytic":
        """scale * conj(z)^count * self."""
        return PolyAnalytic(np.pad(self.c * complex(scale), ((count, 0), (0, 0))))

    def _padded(self, other):
        rows, width = np.maximum(self.c.shape, other.c.shape)
        return (np.pad(c, ((0, rows - c.shape[0]), (0, width - c.shape[1])))
                for c in (self.c, other.c))

    def __add__(self, other):
        if not isinstance(other, PolyAnalytic):
            return NotImplemented
        a, b = self._padded(other)
        return PolyAnalytic(a + b)

    def __sub__(self, other):
        if not isinstance(other, PolyAnalytic):
            return NotImplemented
        a, b = self._padded(other)
        return PolyAnalytic(a - b)

    def __mul__(self, other):
        """The product as a 2-D convolution of the coefficient arrays."""
        if not isinstance(other, PolyAnalytic):
            return NotImplemented
        rows, width = other.c.shape
        out = np.zeros(np.add(self.c.shape, other.c.shape) - 1, dtype=complex)
        for k, m in zip(*np.nonzero(self.c)):
            out[k:k + rows, m:m + width] += self.c[k, m] * other.c
        return PolyAnalytic(out)

    def scale(self, c) -> "PolyAnalytic":
        return PolyAnalytic(self.c * complex(c))

    @property
    def max_frequency(self) -> int:
        """Largest |m - k| over nonzero terms conj(z)^k z^m: the top frequency on rings."""
        k, m = np.nonzero(self.c)
        return int(np.abs(m - k).max(initial=0))

    def boundary_distribution(self) -> BoundaryDistribution:
        """On |z| = 1, conj(z)^k z^m = e^{i(m-k)theta}; collect by frequency.

        The nonzero terms are summed row by row, one bincount for the real
        and one for the imaginary parts, offset so that q = m - k >= 1 - order.
        """
        k, m = np.nonzero(self.c)
        a = self.c[k, m]
        q = m - k + (self.order - 1)
        sums = np.bincount(q, a.real) + 1j * np.bincount(q, a.imag)
        return BoundaryDistribution({n - (self.order - 1): sums[n]
                                     for n in set(q.tolist())})

    def max_coeff(self) -> float:
        return float(np.abs(self.c).max())


def _divided(re, im, d) -> np.ndarray:
    """(re + i im) / d part by part: Python's complex division by an integer
    gives the same bits for coefficients without a -0.0 part."""
    out = np.empty(np.shape(d), dtype=complex)
    out.real, out.imag = re / d, im / d
    return out


def teodorescu_poly(f: PolyAnalytic) -> PolyAnalytic:
    """Closed-form area integral -1/pi * Int_D f(zeta)/(zeta - z) dA as a polynomial.

    Per monomial, expanding the Cauchy kernel in the regions |zeta| > |z| and
    |zeta| < |z| leaves a single surviving angular mode in exactly one region:

        z^m zb^k  ->  z^m zb^(k+1) / (k+1)                       k >= m
        z^m zb^k  ->  z^m zb^(k+1) / (k+1) - z^(m-k-1) / (k+1)   m >= k+1

    Both branches differentiate back to the monomial under d/d(conj z).  The
    holomorphic row collects its terms in sorted (m, k) order.
    """
    m, k, c = f.sorted_terms()
    w = _divided(c.real, c.imag, k + 1.0)
    out = np.zeros((f.order + 1, f.c.shape[1]), dtype=complex)
    np.add.at(out, (k + 1, m), w)
    lower = m >= k + 1
    np.add.at(out[0], (m - k - 1)[lower], -w[lower])
    return PolyAnalytic(out)


def schwarz_pompeiu_poly(f: PolyAnalytic) -> PolyAnalytic:
    """Closed-form Schwarz-Pompeiu area integral of ``f`` as a polynomial.

    This is the solution g of dg/d(conj z) = f with Re g = 0 on the unit circle
    and Im g(0) = 0.  It differs from :func:`teodorescu_poly` by a holomorphic
    polynomial, monomial by monomial (Begehr, Bol. Asoc. Mat. Venez. 12, 2005):

        S(c z^m zb^k) = T(c z^m zb^k) + [m == k+1] i Im(c) / (k+1)
                                      - [k >= m]   conj(c) z^(k-m+1) / (k+1)

    Unlike T, S is not complex-linear in c.  The extra terms are added to T's
    holomorphic row in sorted (m, k) order.
    """
    table = teodorescu_poly(f).c
    m, k, c = f.sorted_terms()
    out = np.pad(table, ((0, 0), (0, max(0, f.order + 1 - table.shape[1]))))
    centre = m == k + 1
    extra = centre | (k >= m)
    values = _divided(np.where(centre, 0.0, -c.real), c.imag, k + 1.0)
    np.add.at(out[0], np.where(centre, 0, k - m + 1)[extra], values[extra])
    return PolyAnalytic(out)


def similarity_factor(coeff: PolyAnalytic, kind: str) -> PolyAnalytic:
    """The similarity exponent s, with d s / d conj(z) = coeff, of a kind.

    kind "cauchy": the closed-form area integral :func:`teodorescu_poly`.

    kind "schwarz": the closed-form Schwarz-Pompeiu integral
    :func:`schwarz_pompeiu_poly`, normalized so the imaginary part vanishes
    at the origin.
    """
    if kind == "cauchy":
        s = teodorescu_poly(coeff)
    elif kind == "schwarz":
        # pin Im s(0) = 0 exactly; the closed form is already real at the
        # origin, so this only removes rounding noise
        c = schwarz_pompeiu_poly(coeff).c.copy()
        c[0, 0] = c[0, 0].real
        s = PolyAnalytic(c)
    else:
        raise ValueError(f"unknown similarity kind {kind!r}")
    gap = (s.dbar() - coeff).max_coeff()
    if not gap <= 1e-12 * max(1.0, coeff.max_coeff()):
        raise MetadiskError(f"dbar of the {kind} similarity exponent misses "
                            f"the coefficient by {gap!r}")
    return s
