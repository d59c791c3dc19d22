"""Bivariate polynomial algebra and the singular area-integral operators.

The central objects are polynomials in z and conj(z) closed under the
Wirtinger derivatives, the two area integrals that invert d/d(conj z) as
closed-form tables with quadrature oracles, and the similarity exponents built
from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disk import as_complex, disk_quadrature
from .errors import SimilarityNotRealAtZero

_PI = math.pi


def _powers(base: np.ndarray, top: int) -> list[np.ndarray]:
    out = [np.ones_like(base)]
    for _ in range(top):
        out.append(out[-1] * base)
    return out


class BivarPoly:
    """Finite sum  c[(m, k)] * z**m * conj(z)**k  with complex coefficients.

    Instances are immutable; arithmetic returns new polynomials.  Keys with an
    exactly zero coefficient are dropped on construction.  Evaluation sums the
    monomials in sorted order, which ``transform.csv`` pins bit for bit.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data: dict[tuple[int, int], complex] = {}
        if terms:
            for (m, k), c in dict(terms).items():
                m, k = int(m), int(k)
                if m < 0 or k < 0:
                    raise ValueError("exponents must be nonnegative")
                c = complex(c)
                if c != 0:
                    data[(m, k)] = data.get((m, k), 0j) + c
        self._terms = {mk: c for mk, c in data.items() if c != 0}

    @classmethod
    def zero(cls) -> "BivarPoly":
        return cls()

    @classmethod
    def constant(cls, c) -> "BivarPoly":
        return cls({(0, 0): complex(c)})

    @classmethod
    def monomial(cls, m: int, k: int, c=1.0) -> "BivarPoly":
        return cls({(m, k): complex(c)})

    @classmethod
    def holomorphic(cls, coeffs) -> "BivarPoly":
        """Polynomial in z alone, coefficients ordered by ascending power."""
        return cls({(j, 0): c for j, c in enumerate(coeffs)})

    @property
    def terms(self) -> dict[tuple[int, int], complex]:
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self) -> int:
        """Total degree m + k; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(m + k for m, k in self._terms)

    def coefficient(self, m: int, k: int) -> complex:
        return self._terms.get((m, k), 0j)

    def __call__(self, z):
        arr = np.asarray(z, dtype=complex)
        out = np.zeros(arr.shape, dtype=complex)
        if self._terms:
            top_m = max(m for m, _ in self._terms)
            top_k = max(k for _, k in self._terms)
            zp = _powers(arr, top_m)
            wp = _powers(np.conjugate(arr), top_k)
            # sorted iteration keeps the summation order deterministic
            for (m, k), c in sorted(self._terms.items()):
                out = out + c * zp[m] * wp[k]
        if out.shape == ():
            return complex(out)
        return out

    def __add__(self, other):
        if not isinstance(other, BivarPoly):
            return NotImplemented
        out = dict(self._terms)
        for mk, c in other._terms.items():
            out[mk] = out.get(mk, 0j) + c
        return BivarPoly(out)

    def __sub__(self, other):
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return BivarPoly({mk: -c for mk, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, BivarPoly):
            out: dict[tuple[int, int], complex] = {}
            for (m1, k1), c1 in self._terms.items():
                for (m2, k2), c2 in other._terms.items():
                    key = (m1 + m2, k1 + k2)
                    out[key] = out.get(key, 0j) + c1 * c2
            return BivarPoly(out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "BivarPoly":
        c = complex(c)
        return BivarPoly({mk: c * v for mk, v in self._terms.items()})

    def conjugate(self) -> "BivarPoly":
        """Complex conjugate: (m, k) terms map to (k, m) with conjugated coefficients."""
        return BivarPoly({(k, m): np.conjugate(c) for (m, k), c in self._terms.items()})

    def dbar(self) -> "BivarPoly":
        """Derivative with respect to conj(z)."""
        return BivarPoly(
            {(m, k - 1): k * c for (m, k), c in self._terms.items() if k > 0}
        )

    def dz(self) -> "BivarPoly":
        """Derivative with respect to z."""
        return BivarPoly(
            {(m - 1, k): m * c for (m, k), c in self._terms.items() if m > 0}
        )

    def max_coeff(self) -> float:
        return max((abs(c) for c in self._terms.values()), default=0.0)

    def almost_equal(self, other: "BivarPoly", tol: float = 1e-12) -> bool:
        return (self - other).max_coeff() <= tol

    def __eq__(self, other):
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        if not self._terms:
            return "BivarPoly(0)"
        bits = [f"({c:.6g})*z^{m}*zb^{k}" for (m, k), c in sorted(self._terms.items())]
        return "BivarPoly(" + " + ".join(bits) + ")"


def teodorescu_poly(f: BivarPoly) -> BivarPoly:
    """Closed-form area integral -1/pi * Int_D f(zeta)/(zeta - z) dA as a polynomial.

    Per monomial, expanding the Cauchy kernel in the regions |zeta| > |z| and
    |zeta| < |z| leaves a single surviving angular mode in exactly one region:

        z^m zb^k  ->  z^m zb^(k+1) / (k+1)                       k >= m
        z^m zb^k  ->  z^m zb^(k+1) / (k+1) - z^(m-k-1) / (k+1)   m >= k+1

    Both branches differentiate back to the monomial under d/d(conj z).
    """
    out: dict[tuple[int, int], complex] = {}

    def add(m, k, c):
        out[(m, k)] = out.get((m, k), 0j) + c

    for (m, k), c in f.terms.items():
        w = c / (k + 1)
        add(m, k + 1, w)
        if m >= k + 1:
            add(m - k - 1, 0, -w)
    return BivarPoly(out)


def teodorescu(f: BivarPoly, z) -> complex:
    """Evaluate the closed-form area integral of ``f`` at ``z`` (disk closure allowed)."""
    return complex(teodorescu_poly(f)(as_complex(z)))


def teodorescu_quadrature_oracle(f, z, n_radial: int = 512, n_angular: int = 512,
                                 tol: float | None = None) -> complex:
    """The same operator evaluated by singularity-centered quadrature.

    Independent of the closed-form table; used to certify it.  ``f`` may be a
    BivarPoly or any broadcasting callable; ``z`` must be interior.
    """
    zc = as_complex(z)

    def integrand(zeta):
        return np.asarray(f(zeta), dtype=complex) / (zeta - zc)

    area = disk_quadrature(integrand, singularity=zc, n_radial=n_radial,
                           n_angular=n_angular, tol=tol)
    return -area / _PI


def schwarz_pompeiu_poly(f: BivarPoly) -> BivarPoly:
    """Closed-form Schwarz-Pompeiu area integral of ``f`` as a polynomial.

    This is the solution g of dg/d(conj z) = f with Re g = 0 on the unit circle
    and Im g(0) = 0.  It differs from :func:`teodorescu_poly` by a holomorphic
    polynomial, monomial by monomial (Begehr, Bol. Asoc. Mat. Venez. 12, 2005):

        S(c z^m zb^k) = T(c z^m zb^k) + [m == k+1] i Im(c) / (k+1)
                                      - [k >= m]   conj(c) z^(k-m+1) / (k+1)

    Unlike T, S is not complex-linear in c.
    """
    out = teodorescu_poly(f).terms

    def add(m, k, c):
        out[(m, k)] = out.get((m, k), 0j) + c

    for (m, k), c in f.terms.items():
        if m == k + 1:
            add(0, 0, 1j * c.imag / (k + 1))
        if k >= m:
            add(k - m + 1, 0, -c.conjugate() / (k + 1))
    return BivarPoly(out)


def schwarz_pompeiu(f: BivarPoly, z) -> complex:
    """Evaluate the closed-form Schwarz-Pompeiu integral of ``f`` at ``z``."""
    return complex(schwarz_pompeiu_poly(f)(as_complex(z)))


def schwarz_pompeiu_quadrature_oracle(f, z, n_radial: int = 128,
                                      n_angular: int = 256,
                                      tol: float | None = None) -> complex:
    """The Schwarz-Pompeiu integral by quadrature, independent of the table.

    Used to certify the table.  ``f`` may be a BivarPoly or any broadcasting
    callable; ``z`` must be interior.  Evaluates  -1/(2 pi) Int_D [ f(t)/t * (t+z)/(t-z)
                                 + conj(f(t))/conj(t) * (1+z*conj(t))/(1-z*conj(t)) ] dA.

    The kernel is split exactly into integrable pieces before quadrature:

        f/t * (t+z)/(t-z)                    = 2 f/(t-z) - f/t
        conj(f)/conj(t) * (1+z ct)/(1-z ct)  = conj(f)/conj(t) + 2 z conj(f)/(1-z ct)

    and each singular piece is integrated in polar coordinates centered on its
    own singularity (z, the origin, the origin; the last piece has its pole at
    1/conj(z), outside the closed disk for interior z).
    """
    zc = as_complex(z)
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


@dataclass(frozen=True)
class SimilarityFactor:
    """Exponent of the similarity factorization: exp(value) with d(value)/dzb = source.

    kind "cauchy" is the plain closed-form antiderivative; kind "schwarz" is
    additionally normalized to have a real value at the origin.
    """

    kind: str
    value: BivarPoly
    source: BivarPoly

    def __call__(self, z):
        return self.value(z)

    @property
    def at_zero(self) -> complex:
        return self.value.coefficient(0, 0)


def similarity_factor(coeff: BivarPoly, kind: str) -> SimilarityFactor:
    """Build the similarity exponent for a polynomial coefficient.

    kind "cauchy": the closed-form area integral :func:`teodorescu_poly`.

    kind "schwarz": the closed-form Schwarz-Pompeiu integral
    :func:`schwarz_pompeiu_poly`, normalized so the imaginary part vanishes
    at the origin.
    """
    if kind == "cauchy":
        value = teodorescu_poly(coeff)
    elif kind == "schwarz":
        value = schwarz_pompeiu_poly(coeff)
        # pin Im value(0) = 0 exactly; the closed form is already real at the
        # origin, so this only removes rounding noise
        value = value + BivarPoly.constant(-1j * value.coefficient(0, 0).imag)
        if abs(value.coefficient(0, 0).imag) > 1e-6:
            raise SimilarityNotRealAtZero("normalization failed")
    else:
        raise ValueError(f"unknown similarity kind {kind!r}")
    if not value.dbar().almost_equal(coeff, 1e-12 * max(1.0, coeff.max_coeff())):
        raise AssertionError("antiderivative property lost; table bug")
    return SimilarityFactor(kind=kind, value=value, source=coeff)
