"""Command-line front end.

Commands:
  solve      problem JSON -> solution.json, solution_grid.csv, report.json
  verify     solution JSON -> report.json (re-runs the full check battery)
  transform  {"operator", "f"} JSON -> transform.csv on the sampling grid
  poisson    boundary-data JSON -> poisson.csv (harmonic extension)
  decompose  {"order", "samples"} JSON -> decomposition.json

Exit codes: 0 success, 1 malformed config or schema violation, 2 verification
failure (the report is still written), 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np

from . import formats
from .boundary import poisson_extend
from .disk import PolarGrid
from .errors import MetadiskError, NonFinite, SchemaViolation
from .integral import schwarz_pompeiu_poly, teodorescu_poly
from .meta import poly_decompose
from .report import Report
from .schwarz import (
    CHECKS,
    SchwarzSolution,
    chain_from_top,
    solve_meta,
    verify_solution,
)


@dataclass(frozen=True)
class RunConfig:
    command: str
    config_path: Path
    out_dir: Path
    grid: tuple[int, int] = (32, 64)
    tolerances: dict = field(default_factory=dict)
    degree: int = 16

    def __post_init__(self):
        if self.grid[0] < 4:
            raise ValueError("the grid needs at least 4 radii")
        self.sampling_grid()  # checks the angles before any file is read
        for name, value in self.tolerances.items():
            if name not in CHECKS:
                raise ValueError(f"unknown tolerance {name!r}, expected one "
                                 f"of {', '.join(sorted(CHECKS))}")
            if not 0 < value < math.inf:  # also rejects NaN
                raise ValueError(f"tolerance {name} must be positive and "
                                 "finite")
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")

    def sampling_grid(self) -> PolarGrid:
        return PolarGrid.mesh(n_radial=self.grid[0], n_angular=self.grid[1])


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("grid must look like 32x64")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    """Each command takes only the flags it reads; an omitted flag keeps
    RunConfig's default."""
    parser = argparse.ArgumentParser(
        prog="metadisk",
        description="Meta-analytic functions and Schwarz problems on the unit disk",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "verify", "transform", "poisson", "decompose"):
        cmd = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        cmd.add_argument("--config", required=True, help="input file (JSON)")
        cmd.add_argument("--out", default=".", help="output directory")
        if name == "decompose":
            cmd.add_argument("--degree", type=int,
                             help="truncation degree for fits, default 16")
        else:
            cmd.add_argument("--grid", type=_parse_grid, metavar="NRxNT",
                             help="sampling grid, default 32x64")
        if name in ("solve", "verify"):
            cmd.add_argument("--tol", action="append", metavar="NAME=VALUE",
                             help="override a named tolerance (repeatable)")
    return parser


def make_config(args) -> RunConfig:
    options = vars(args).copy()
    tolerances = {}
    for item in options.pop("tol", ()):
        name, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"--tol expects NAME=VALUE, got {item!r}")
        tolerances[name] = float(value)
    return RunConfig(command=options.pop("command"),
                     config_path=Path(options.pop("config")),
                     out_dir=Path(options.pop("out")),
                     tolerances=tolerances, **options)


def _write_report(out_dir: Path, report: Report, boundary) -> None:
    data = report.to_dict()
    data["boundary"] = formats.boundary_to_data(boundary)
    formats.save_json(out_dir / "report.json", data, indent=None)


def run_solve(config: RunConfig) -> int:
    problem = formats.problem_from_data(formats.load_json(config.config_path))
    grid = config.sampling_grid()
    t = perf_counter()
    sol = solve_meta(problem)
    construct_s = perf_counter() - t
    report, boundary = verify_solution(sol, grid=grid,
                                       thresholds=config.tolerances)
    report.timings["construct"] = construct_s
    out = config.out_dir
    with report.timed("write"):
        # (dbar - A)^n w = e^s dbar^n F, and dbar^n of the order-n F is zero
        formats.write_solution_csv(out / "solution_grid.csv", grid,
                                   _finite(sol.w, "solution"), np.zeros_like)
        formats.save_json(out / "solution.json", formats.solution_to_data(sol))
    _write_report(out, report, boundary)
    return 0 if report.overall_pass else 2


def run_verify(config: RunConfig) -> int:
    t = perf_counter()
    w, constants, problem = formats.solution_from_data(
        formats.load_json(config.config_path))
    load_s = perf_counter() - t
    sol = SchwarzSolution(w, chain_from_top(w.poly, problem.n), constants,
                          problem)
    report, boundary = verify_solution(sol, grid=config.sampling_grid(),
                                       thresholds=config.tolerances)
    report.timings["load"] = load_s
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    _write_report(out, report, boundary)
    return 0 if report.overall_pass else 2


def _finite(evaluate, what: str):
    """``evaluate`` raising NonFinite where a value overflows, in place of
    numpy's warnings; the first such point in ring order is named whichever
    chunk of rings meets it."""
    def checked(z):
        with np.errstate(over="ignore", invalid="ignore"):
            values = evaluate(z)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise NonFinite(f"{what} at z={complex(z.flat[bad[0]])!r} "
                            "is not finite")
        return values
    return checked


def run_transform(config: RunConfig) -> int:
    data = formats.load_json(config.config_path)
    formats.check_schema(data, formats.TRANSFORM_CONFIG_SCHEMA)
    f = formats.bivar_from_data(data["f"])
    grid = config.sampling_grid()
    if data["operator"] == "teodorescu":
        table = teodorescu_poly(f)
    else:
        table = schwarz_pompeiu_poly(f)
    formats.write_values_csv(config.out_dir / "transform.csv", grid,
                             _finite(table.monomial_sum,
                                     f"{data['operator']} transform"))
    return 0


def run_poisson(config: RunConfig) -> int:
    data = formats.load_json(config.config_path)
    u = formats.boundary_from_data(data)
    grid = config.sampling_grid()
    formats.write_values_csv(config.out_dir / "poisson.csv", grid,
                             _finite(partial(poisson_extend, u),
                                     "poisson extension"))
    return 0


def run_decompose(config: RunConfig) -> int:
    data = formats.load_json(config.config_path)
    formats.check_schema(data, formats.DECOMPOSE_CONFIG_SCHEMA)
    samples_path = Path(data["samples"])
    if not samples_path.is_absolute():
        samples_path = config.config_path.parent / samples_path
    samples = formats.read_values_csv(samples_path)
    fit = poly_decompose(samples, n=int(data["order"]), degree=config.degree)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    formats.save_json(config.out_dir / "decomposition.json", {
        "parts": formats.parts_to_data(fit.poly),
        "residual": fit.residual,
        "condition": fit.condition,
    })
    return 0


RUNNERS = {
    "solve": run_solve,
    "verify": run_verify,
    "transform": run_transform,
    "poisson": run_poisson,
    "decompose": run_decompose,
}


def run(config: RunConfig) -> int:
    return RUNNERS[config.command](config)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = make_config(args)
        return run(config)
    except MetadiskError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except SchemaViolation as exc:
        print(f"schema error: {exc.message}", file=sys.stderr)
        return 1
    except (json.JSONDecodeError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

