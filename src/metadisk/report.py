"""Verification reports: named checks with thresholds and timings."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


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


@dataclass
class Report:
    checks: list[Check] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

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
        }
