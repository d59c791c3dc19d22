"""Geometry, differencing, and quadrature checks."""

import math

import numpy as np
import pytest

from conftest import random_bivar
from metadisk.disk import PolarGrid
from metadisk.errors import NonFinite
from oracles import (NonConvergent, StencilOutsideDisk, disk_quadrature,
                     wirtinger_dbar)


def test_polar_grid_validation():
    with pytest.raises(ValueError):
        PolarGrid(np.array([0.5, 0.4]), np.linspace(0, 2 * np.pi, 8, endpoint=False))
    with pytest.raises(ValueError):
        PolarGrid(np.array([0.5, 0.9]), np.linspace(0, 2 * np.pi, 7, endpoint=False))
    grid = PolarGrid.mesh(4, 8)
    assert grid.points().shape == (4, 8)
    vals = np.ones((4, 8), dtype=complex)
    assert PolarGrid(grid.radii, grid.angles, vals).values is not None
    with pytest.raises(ValueError):
        PolarGrid(grid.radii, grid.angles, np.ones((3, 8)))


@pytest.mark.parametrize("f, z, want, tol", [
    (np.conjugate, 0.3 + 0.1j, 1.0, 1e-6),
    (lambda z: z, 0.2 - 0.5j, 0.0, 1e-6),
    (lambda z: z * np.conjugate(z) ** 2, 0.5 + 0.0j, 0.5, 1e-6),
])
def test_dbar_examples(f, z, want, tol):
    assert wirtinger_dbar(f, z) == pytest.approx(want, abs=tol)


def test_dbar_richardson_sharpens():
    f = lambda z: z * np.conjugate(z) ** 3
    z = 0.4 + 0.3j
    exact = 3 * z * np.conjugate(z) ** 2
    plain = abs(wirtinger_dbar(f, z, h=1e-3) - exact)
    sharp = abs(wirtinger_dbar(f, z, h=1e-3, richardson=True) - exact)
    assert sharp < plain


def test_dbar_stencil_guard():
    with pytest.raises(StencilOutsideDisk):
        wirtinger_dbar(np.conjugate, 0.99995 + 0j)


def test_dbar_nonfinite_guard():
    with pytest.raises(NonFinite):
        wirtinger_dbar(lambda z: complex("nan"), 0.1 + 0.1j)


def test_dbar_matches_symbolic_on_polynomials():
    rng = np.random.default_rng(21)
    for _ in range(5):
        poly = random_bivar(rng, 3, scale=0.5)
        exact = poly.dbar()
        for _ in range(4):
            r = 0.8 * math.sqrt(rng.uniform())
            z = r * np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert abs(wirtinger_dbar(poly, z) - exact(z)) < 1e-5


@pytest.mark.parametrize("g, singularity, want, tol", [
    (lambda z: np.ones_like(z), None, math.pi, 1e-8),
    (lambda z: 1.0 / z, 0j, 0.0, 1e-6),
    (lambda z: np.abs(z) ** 2, None, math.pi / 2, 1e-8),
])
def test_quadrature_examples(g, singularity, want, tol):
    got = disk_quadrature(g, singularity=singularity)
    assert got == pytest.approx(want, abs=tol)


def test_quadrature_linearity_and_refinement():
    g1 = lambda z: z * np.conjugate(z)
    g2 = lambda z: np.real(z) ** 2 + 1.0
    a = 2.75
    combined = disk_quadrature(lambda z: a * g1(z) + g2(z))
    split = a * disk_quadrature(g1) + disk_quadrature(g2)
    assert abs(combined - split) < 1e-10
    coarse = disk_quadrature(g1, n_radial=256, n_angular=256)
    fine = disk_quadrature(g1, n_radial=512, n_angular=512)
    assert abs(fine - coarse) < 1e-10


def test_quadrature_tolerance_guard():
    rough = lambda z: np.abs(1.0 - z) ** -1.5
    with pytest.raises(NonConvergent):
        disk_quadrature(rough, tol=1e-10)
