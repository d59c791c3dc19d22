"""Verification reports: named checks with thresholds and timings, and the
boundary table."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    threshold: float
    direction: str = "<"

    def __post_init__(self):
        if self.direction not in ("<", ">"):
            raise ValueError("direction must be '<' or '>'")

    @property
    def passed(self) -> bool:
        if self.direction == "<":
            return self.value < self.threshold
        return self.value > self.threshold


@dataclass(frozen=True, eq=False)
class BoundaryReport:
    """Both sides of every boundary condition paired with each harmonic
    e^{i m theta} of a band |m| <= top.

    Each array has one row per level k and one column per harmonic, whose
    label ``harmonic[m]`` is in ``tests``.
    """

    tests: tuple[str, ...]
    lhs: np.ndarray
    rhs: np.ndarray

    @property
    def residual(self) -> np.ndarray:
        """|lhs - rhs| by libm's hypot, as Python's abs of a complex takes it;
        np.abs of a complex array can differ from that in the last bit."""
        gap = self.lhs - self.rhs
        return np.hypot(gap.real, gap.imag)

    @property
    def max_residual(self) -> float:
        return float(self.residual.max(initial=0.0))

    def worst(self) -> tuple[int, str]:
        """(level, test label) of the largest residual."""
        k, j = np.unravel_index(np.argmax(self.residual), self.lhs.shape)
        return int(k), self.tests[j]


@dataclass
class Report:
    """One verification; ``schwarz.verify_solution`` sets every field."""

    checks: list[Check] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    boundary: BoundaryReport | None = None

    def add(self, name: str, value: float, threshold: float,
            direction: str = "<") -> Check:
        check = Check(name=name, value=float(value), threshold=float(threshold),
                      direction=direction)
        self.checks.append(check)
        return check

    @contextmanager
    def timed(self, stage: str):
        """Record the wall time of the block as ``timings[stage]``."""
        start = perf_counter()
        yield
        self.timings[stage] = perf_counter() - start

    def __getitem__(self, name: str) -> Check:
        for check in self.checks:
            if check.name == name:
                return check
        raise KeyError(name)

    @property
    def overall_pass(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_dict(self) -> dict:
        """All of report.json; the boundary arrays are nested by level."""
        boundary = self.boundary
        return {
            "checks": [
                {
                    "name": c.name,
                    "value": c.value,
                    "threshold": c.threshold,
                    "direction": c.direction,
                    "passed": c.passed,
                }
                for c in self.checks
            ],
            "timings": dict(sorted(self.timings.items())),
            "overall_pass": self.overall_pass,
            "boundary": {
                "tests": list(boundary.tests),
                "lhs": boundary.lhs[..., None].view(float).tolist(),
                "rhs": boundary.rhs[..., None].view(float).tolist(),
                "residual": boundary.residual.tolist(),
            },
        }
