"""Polar grids on the open unit disk: the commands' meshes and samples."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class PolarGrid:
    """A polar tensor grid with optional complex samples attached.

    Radii are strictly increasing inside (0, 1); the angular count is even and
    at least 8.  ``values``, when present, has shape (len(radii), len(angles)).
    """

    radii: np.ndarray
    angles: np.ndarray
    values: np.ndarray | None = None

    def __post_init__(self):
        radii = np.asarray(self.radii, dtype=float)
        angles = np.asarray(self.angles, dtype=float)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "angles", angles)
        if radii.ndim != 1 or angles.ndim != 1:
            raise ValueError("radii and angles must be one-dimensional")
        if np.any(radii <= 0.0) or np.any(radii >= 1.0):
            raise ValueError("radii must lie strictly inside (0, 1)")
        if np.any(np.diff(radii) <= 0.0):
            raise ValueError("radii must be strictly increasing")
        n_theta = angles.size
        if n_theta < 8 or n_theta % 2 != 0:
            raise ValueError("angular count must be even and at least 8")
        if self.values is not None:
            vals = np.asarray(self.values, dtype=complex)
            object.__setattr__(self, "values", vals)
            if vals.shape != (radii.size, n_theta):
                raise ValueError(
                    f"values shape {vals.shape} does not match grid "
                    f"({radii.size}, {n_theta})"
                )

    @classmethod
    def mesh(cls, n_radial: int = 32, n_angular: int = 64,
             r_min: float = 0.05, r_max: float = 0.95) -> "PolarGrid":
        """An evenly spaced sampling mesh with no values attached."""
        radii = np.linspace(r_min, r_max, n_radial)
        angles = np.arange(n_angular) * (TWO_PI / n_angular)
        return cls(radii, angles)

    def points(self) -> np.ndarray:
        """Complex nodes, shape (n_radial, n_angular)."""
        return self.radii[:, None] * np.exp(1j * self.angles[None, :])

