"""Geometry on the open unit disk: radial sequences and polar grids."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# The deepest radial sequence whose radii all lie inside the disk.
MAX_DEPTH = 52


@dataclass(frozen=True)
class RadialSequence:
    """Radii r_j = 1 - 2^(-j-1), j = 0..depth, accumulating at the boundary.

    The geometric gaps 1 - r_j halve at every step, so -log(1 - r_j), the
    abscissa of the growth-order fit, is evenly spaced.  The depth is 1 to
    MAX_DEPTH: from j = 53 on, r_j rounds to 1.0 and the ring is the circle
    itself.
    """

    depth: int = 16

    def __post_init__(self):
        if not 1 <= self.depth <= MAX_DEPTH:
            raise ValueError(f"radial depth must be between 1 and "
                             f"{MAX_DEPTH}, got {self.depth}")

    @property
    def radii(self) -> np.ndarray:
        j = np.arange(self.depth + 1)
        return 1.0 - 0.5 ** (j + 1.0)

    @property
    def gaps(self) -> np.ndarray:
        """The distances 1 - r_j to the boundary."""
        j = np.arange(self.depth + 1)
        return 0.5 ** (j + 1.0)

    def __len__(self) -> int:
        return self.depth + 1

    def __iter__(self):
        return iter(self.radii)


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

    @classmethod
    def rings(cls, radii, n_angular: int = 64) -> "PolarGrid":
        angles = np.arange(n_angular) * (TWO_PI / n_angular)
        return cls(np.asarray(sorted(radii), dtype=float), angles)

    def points(self) -> np.ndarray:
        """Complex nodes, shape (n_radial, n_angular)."""
        return self.radii[:, None] * np.exp(1j * self.angles[None, :])

    def with_values(self, values: np.ndarray) -> "PolarGrid":
        return PolarGrid(self.radii, self.angles, values)
