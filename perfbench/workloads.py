"""Seeded inputs for the benchmark workloads and independent checks of outputs.

Nothing here imports metadisk. Each check recomputes the expected output by a
route of its own: the closed forms of the paper, the Fourier sum of the
boundary data, or the parts that generated a sample. A check returns None
when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Input scales of tests/conftest.py: solutions built from them stay inside the
# range where the solver's acceptance tolerances are known to hold.
COEFF_SCALE = 0.15
DATA_SCALE = 0.03
CONST_SCALE = 0.04

PDE_RESIDUAL_MAX = 1e-9     # the solver's pde_residual threshold
SCHWARZ_POMPEIU_TOL = 1e-5  # acceptance tolerance of criterion 1
CLOSED_FORM_TOL = 1e-10     # relative, for operators evaluated exactly
DECOMPOSE_TOL = 1e-8        # absolute, on recovered coefficients

# Default sampling mesh of the CLI: radii linspace(0.05, 0.95), uniform angles.
MESH_R_MIN, MESH_R_MAX = 0.05, 0.95

# (n, data degree, coefficient degree) of the seeded problems; only the
# coefficient values depend on the seed, so every seed costs the same. The
# n=4 and n=5 problems pair the same number of test functions (804 and 805),
# so the 75th percentile of a cauchy-chain run falls inside one group of
# equally costly commands rather than on the edge between two sizes.
CAUCHY_SHAPES = ((1, 8, 0), (2, 18, 1), (3, 28, 2), (4, 50, 0), (5, 40, 1),
                 (6, 60, 2))
SMOOTH_SHAPES = ((1, 0, 1), (2, 2, 2), (3, 4, 3), (4, 6, 2))
SMOOTH_TRANSFORM_DEGREES = (2, 3)
SMOOTH_TRANSFORM_GRID = (4, 8)
GRID_IO_GRID = (256, 512)
DECOMPOSE_ORDER = 3
DECOMPOSE_PART_DEGREE = 5
DECOMPOSE_RINGS = 64
DECOMPOSE_ANGLES = 256
POISSON_MAX_FREQ = 6

# The worked example of the README; its solution is exp(zbar) * (2i + zbar).
README_PROBLEM = {
    "n": 2,
    "A": {"terms": [{"m": 0, "k": 0, "re": 1.0, "im": 0.0}]},
    "psi_kind": "cauchy",
    "levels": [
        {"h": {"coeffs": [[1.0, 0.0]]}, "c": 0.0},
        {"h": {"coeffs": [[0.0, 0.0]]}, "c": 2.0},
    ],
}


@dataclass
class Op:
    """One CLI command: its name, its arguments and the check of its output."""

    cmd: str
    argv: list[str]
    out: Path
    check: Callable[[Path], str | None]


def _write_json(path: Path, data) -> Path:
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return path


def _pair(c: complex) -> list[float]:
    return [float(c.real), float(c.imag)]


def _random_terms(rng, degree: int, scale: float) -> list[dict]:
    terms = []
    for m in range(degree + 1):
        for k in range(degree + 1 - m):
            c = scale * complex(rng.standard_normal(), rng.standard_normal())
            c /= (1 + m + k) ** 2
            terms.append({"m": m, "k": k, "re": c.real, "im": c.imag})
    return terms


def _random_problem(rng, n: int, data_degree: int, coeff_degree: int,
                    kind: str) -> dict:
    levels = []
    for _ in range(n):
        coeffs = (rng.standard_normal(data_degree + 1)
                  + 1j * rng.standard_normal(data_degree + 1))
        coeffs *= DATA_SCALE / (1.0 + np.arange(data_degree + 1)) ** 2
        levels.append({"h": {"coeffs": [_pair(c) for c in coeffs]},
                       "c": CONST_SCALE * float(rng.standard_normal())})
    return {"n": n, "A": {"terms": _random_terms(rng, coeff_degree,
                                                 COEFF_SCALE)},
            "psi_kind": kind, "levels": levels}


def _mesh(grid: tuple[int, int]) -> np.ndarray:
    radii = np.linspace(MESH_R_MIN, MESH_R_MAX, grid[0])
    angles = np.arange(grid[1]) * (2.0 * np.pi / grid[1])
    return radii[:, None] * np.exp(1j * angles[None, :])


def _read_csv(path: Path, header: str, rows: int):
    """Columns of a CSV as an array, or a reason why it is malformed."""
    if not path.is_file():
        return f"{path.name} missing"
    with path.open() as fh:
        first = fh.readline().strip()
    if first != header:
        return f"{path.name} header is {first!r}"
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape[0] != rows:
        return f"{path.name} has {table.shape[0]} rows, expected {rows}"
    return table


def _grid_values(path: Path, grid: tuple[int, int]):
    """(z, values) of a value CSV laid out on the CLI mesh."""
    table = _read_csv(path, "r,theta,re_value,im_value", grid[0] * grid[1])
    if isinstance(table, str):
        return table
    z = _mesh(grid).ravel()
    if (np.max(np.abs(table[:, 0] - np.abs(z))) > 1e-14
            or np.max(np.abs(table[:, 1] - np.arange(z.size) % grid[1]
                             * (2.0 * np.pi / grid[1]))) > 1e-14):
        return f"{path.name} is not on the {grid[0]}x{grid[1]} mesh"
    return z, table[:, 2] + 1j * table[:, 3]


def _compare(name: str, got, want, tol: float, relative: bool) -> str | None:
    scale = np.maximum(1.0, np.abs(want)) if relative else 1.0
    err = float(np.max(np.abs(got - want) / scale))
    if not err <= tol:
        return f"{name} off by {err:.3e} (tolerance {tol:.0e})"
    return None


def teodorescu_reference(terms: list[dict], z: np.ndarray) -> np.ndarray:
    """The paper's monomial table for -1/pi Int_D f(t)/(t - z) dA."""
    zb = np.conjugate(z)
    out = np.zeros_like(z)
    for t in terms:
        m, k, c = t["m"], t["k"], complex(t["re"], t["im"])
        out += c * z ** m * zb ** (k + 1) / (k + 1)
        if m >= k + 1:
            out -= c * z ** (m - k - 1) / (k + 1)
    return out


def schwarz_pompeiu_reference(terms: list[dict], z: np.ndarray) -> np.ndarray:
    """Closed form of the Schwarz-Pompeiu operator, monomial by monomial.

    S(c z^m zb^k) = T(c z^m zb^k) + [m == k+1] i Im(c) / (k+1)
                    - [k >= m] conj(c) z^(k-m+1) / (k+1)
    """
    out = teodorescu_reference(terms, z)
    for t in terms:
        m, k, c = t["m"], t["k"], complex(t["re"], t["im"])
        if m == k + 1:
            out += 1j * c.imag / (k + 1)
        if k >= m:
            out -= np.conjugate(c) * z ** (k - m + 1) / (k + 1)
    return out


def poisson_reference(coeffs: list[list[float]], min_index: int,
                      z: np.ndarray) -> np.ndarray:
    """sum_n c_n r^|n| e^{i n theta} of finite Fourier data."""
    r, theta = np.abs(z), np.angle(z)
    out = np.zeros_like(z)
    for i, (re, im) in enumerate(coeffs):
        n = min_index + i
        out += complex(re, im) * r ** abs(n) * np.exp(1j * n * theta)
    return out


def check_report(out: Path) -> str | None:
    """A solve or verify report whose checks all pass, negative control too."""
    path = out / "report.json"
    if not path.is_file():
        return "report.json missing"
    report = json.loads(path.read_text())
    checks = {c["name"]: c for c in report.get("checks", [])}
    control = checks.get("negative_control")
    if control is None or control.get("passed") is not True:
        return "negative_control check did not pass"
    if report.get("overall_pass") is not True:
        return "report overall_pass is not true"
    return None


def check_solve(grid: tuple[int, int], readme: bool = False):
    def check(out: Path) -> str | None:
        problem = check_report(out)
        if problem:
            return problem
        table = _read_csv(out / "solution_grid.csv",
                          "r,theta,re_w,im_w,re_residual,im_residual",
                          grid[0] * grid[1])
        if isinstance(table, str):
            return table
        residual = float(np.max(np.hypot(table[:, 4], table[:, 5])))
        if not residual < PDE_RESIDUAL_MAX:
            return f"grid residual {residual:.3e} reaches {PDE_RESIDUAL_MAX}"
        if readme:
            z = table[:, 0] * np.exp(1j * table[:, 1])
            want = np.exp(np.conjugate(z)) * (2j + np.conjugate(z))
            return _compare("README solution", table[:, 2] + 1j * table[:, 3],
                            want, CLOSED_FORM_TOL, relative=True)
        return None
    return check


def check_transform(grid, terms, reference, tol, relative):
    def check(out: Path) -> str | None:
        sampled = _grid_values(out / "transform.csv", grid)
        if isinstance(sampled, str):
            return sampled
        z, values = sampled
        return _compare("transform", values, reference(terms, z), tol,
                        relative)
    return check


def check_poisson(grid, coeffs, min_index):
    def check(out: Path) -> str | None:
        sampled = _grid_values(out / "poisson.csv", grid)
        if isinstance(sampled, str):
            return sampled
        z, values = sampled
        return _compare("poisson", values,
                        poisson_reference(coeffs, min_index, z),
                        CLOSED_FORM_TOL, relative=True)
    return check


def check_decompose(parts: list[np.ndarray]):
    def check(out: Path) -> str | None:
        path = out / "decomposition.json"
        if not path.is_file():
            return "decomposition.json missing"
        fitted = json.loads(path.read_text())["parts"]
        if len(fitted) != len(parts):
            return f"{len(fitted)} parts, expected {len(parts)}"
        worst = 0.0
        for got, want in zip(fitted, parts):
            got = np.array([complex(re, im) for re, im in got["coeffs"]])
            size = max(got.size, want.size)
            gap = np.pad(got, (0, size - got.size)) - np.pad(
                want, (0, size - want.size))
            worst = max(worst, float(np.max(np.abs(gap))))
        if not worst <= DECOMPOSE_TOL:
            return f"decomposed parts off by {worst:.3e}"
        return None
    return check


def remembered(filename: str, check):
    """Pass an output byte-identical to one that already passed ``check``.

    transform, poisson and decompose write byte-stable files, so a repeat of
    a checked file is as right as the first; parsing the 10 MB grids again on
    every pass would take a quarter of the pass.
    """
    passed = set()

    def check_once(out: Path) -> str | None:
        path = out / filename
        if not path.is_file():
            return f"{filename} missing"
        digest = hashlib.sha256(path.read_bytes()).digest()
        if digest in passed:
            return None
        problem = check(out)
        if problem is None:
            passed.add(digest)
        return problem
    return check_once


def _grid_arg(grid: tuple[int, int]) -> list[str]:
    return ["--grid", f"{grid[0]}x{grid[1]}"]


def _solve_verify(inputs: Path, outputs: Path, name: str, problem: dict,
                  readme: bool = False) -> list[Op]:
    config = _write_json(inputs / f"{name}.json", problem)
    solved = outputs / f"{name}-solve"
    checked = outputs / f"{name}-verify"
    default_grid = (32, 64)
    return [
        Op("solve", ["--config", str(config), "--out", str(solved)], solved,
           check_solve(default_grid, readme)),
        Op("verify", ["--config", str(solved / "solution.json"),
                      "--out", str(checked)], checked, check_report),
    ]


def _cauchy_chain(rng, inputs: Path, outputs: Path) -> list[Op]:
    ops = _solve_verify(inputs, outputs, "readme", README_PROBLEM, readme=True)
    for i, (n, data_degree, coeff_degree) in enumerate(CAUCHY_SHAPES):
        problem = _random_problem(rng, n, data_degree, coeff_degree, "cauchy")
        ops += _solve_verify(inputs, outputs, f"cauchy{i}", problem)
    return ops


def _smooth_factor(rng, inputs: Path, outputs: Path) -> list[Op]:
    ops = []
    for i, (n, data_degree, coeff_degree) in enumerate(SMOOTH_SHAPES):
        problem = _random_problem(rng, n, data_degree, coeff_degree, "schwarz")
        ops += _solve_verify(inputs, outputs, f"smooth{i}", problem)
    grid = SMOOTH_TRANSFORM_GRID
    for degree in SMOOTH_TRANSFORM_DEGREES:
        terms = _random_terms(rng, degree, 1.0)
        config = _write_json(inputs / f"sp{degree}.json",
                             {"operator": "schwarz_pompeiu",
                              "f": {"terms": terms}})
        out = outputs / f"sp{degree}"
        ops.append(Op("transform", ["--config", str(config), "--out", str(out),
                                    *_grid_arg(grid)], out,
                      remembered("transform.csv", check_transform(
                          grid, terms, schwarz_pompeiu_reference,
                          SCHWARZ_POMPEIU_TOL, relative=False))))
    return ops


def _write_samples(path: Path, parts: list[np.ndarray]) -> None:
    radii = np.linspace(0.2, 0.95, DECOMPOSE_RINGS)
    angles = np.arange(DECOMPOSE_ANGLES) * (2.0 * np.pi / DECOMPOSE_ANGLES)
    z = radii[:, None] * np.exp(1j * angles[None, :])
    values = sum(np.conjugate(z) ** k * np.polynomial.polynomial.polyval(z, p)
                 for k, p in enumerate(parts))
    lines = ["r,theta,re_value,im_value"]
    for i, r in enumerate(radii):
        for j, theta in enumerate(angles):
            v = values[i, j]
            lines.append(f"{float(r)!r},{float(theta)!r},"
                         f"{float(v.real)!r},{float(v.imag)!r}")
    path.write_text("\n".join(lines) + "\n")


def _grid_io(rng, inputs: Path, outputs: Path) -> list[Op]:
    grid = GRID_IO_GRID
    terms = _random_terms(rng, 3, 1.0)
    config = _write_json(inputs / "teodorescu.json",
                         {"operator": "teodorescu", "f": {"terms": terms}})
    out = outputs / "teodorescu"
    ops = [Op("transform", ["--config", str(config), "--out", str(out),
                            *_grid_arg(grid)], out,
              remembered("transform.csv", check_transform(
                  grid, terms, teodorescu_reference, CLOSED_FORM_TOL,
                  relative=True)))]

    freqs = np.arange(-POISSON_MAX_FREQ, POISSON_MAX_FREQ + 1)
    coeffs = [_pair(complex(rng.standard_normal(), rng.standard_normal())
                    / (1 + abs(int(n)))) for n in freqs]
    config = _write_json(inputs / "poisson.json",
                         {"type": "fourier", "coeffs": coeffs,
                          "min_index": -POISSON_MAX_FREQ})
    out = outputs / "poisson"
    ops.append(Op("poisson", ["--config", str(config), "--out", str(out),
                              *_grid_arg(grid)], out,
                  remembered("poisson.csv",
                             check_poisson(grid, coeffs, -POISSON_MAX_FREQ))))

    parts = [rng.standard_normal(DECOMPOSE_PART_DEGREE + 1)
             + 1j * rng.standard_normal(DECOMPOSE_PART_DEGREE + 1)
             for _ in range(DECOMPOSE_ORDER)]
    _write_samples(inputs / "samples.csv", parts)
    config = _write_json(inputs / "decompose.json",
                         {"order": DECOMPOSE_ORDER, "samples": "samples.csv"})
    out = outputs / "decompose"
    ops.append(Op("decompose", ["--config", str(config), "--out", str(out)],
                  out, remembered("decomposition.json",
                                  check_decompose(parts))))
    return ops


BUILDERS = {
    "cauchy-chain": _cauchy_chain,
    "smooth-factor": _smooth_factor,
    "grid-io": _grid_io,
}


def build(name: str, seed: int, work: Path) -> list[Op]:
    """Write the workload's inputs under ``work`` and return its commands."""
    inputs, outputs = work / "inputs", work / "outputs"
    inputs.mkdir(parents=True)
    outputs.mkdir(parents=True)
    return BUILDERS[name](np.random.default_rng(seed), inputs, outputs)
