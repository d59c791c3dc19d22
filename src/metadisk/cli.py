"""Command-line front end.

Commands:
  solve      problem JSON -> solution.json, solution_grid.csv, report.json
  verify     solution JSON -> report.json (re-runs the full check battery)
  transform  {"operator", "f"} JSON -> transform.csv on the sampling grid
  poisson    boundary-data JSON -> poisson.csv (harmonic extension)
  decompose  {"order", "samples"} JSON -> decomposition.json

Verification holds every check to its threshold in ``schwarz.CHECKS``; no
flag changes one.  Exit codes: 0 success, 1 malformed config or schema
violation, 2 verification failure (the report is still written) or usage
error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np

from . import formats
from .boundary import finite_samples, poisson_extend
from .disk import PolarGrid
from .errors import MetadiskError, SchemaViolation
from .integral import schwarz_pompeiu_poly, teodorescu_poly
from .meta import poly_decompose
from .schwarz import solve_meta, verify_solution


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("grid must look like 32x64")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    """Each command takes only the flags it reads, each with its default."""
    parser = argparse.ArgumentParser(
        prog="metadisk",
        description="Meta-analytic functions and Schwarz problems on the unit disk",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "verify", "transform", "poisson", "decompose"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", type=Path, required=True,
                         help="input file (JSON)")
        cmd.add_argument("--out", type=Path, default=Path("."),
                         help="output directory")
        if name == "decompose":
            cmd.add_argument("--degree", type=int, default=16,
                             help="truncation degree for fits, default 16")
        elif name != "verify":
            cmd.add_argument("--grid", type=_parse_grid, default=(32, 64),
                             metavar="NRxNT", help="sampling grid, default 32x64")
    return parser


def _check_options(args: argparse.Namespace) -> None:
    """Read ``--grid`` into its mesh; a bad grid, or a negative ``--degree``,
    is a ValueError before any input."""
    if "grid" in args:
        if args.grid[0] < 4:
            raise ValueError("the grid needs at least 4 radii")
        args.grid = PolarGrid.mesh(*args.grid)  # checks the angles
    if getattr(args, "degree", 0) < 0:
        raise ValueError("degree must be nonnegative")


def run_solve(args: argparse.Namespace) -> int:
    problem = formats.problem_from_data(formats.load_json(args.config))
    t = perf_counter()
    sol = solve_meta(problem)
    construct_s = perf_counter() - t
    report = verify_solution(sol)
    report.timings["construct"] = construct_s
    with report.timed("write"):
        # (dbar - A)^n w = e^s dbar^n F, and dbar^n of the order-n F is zero
        formats.write_solution_csv(args.out / "solution_grid.csv", args.grid,
                                   partial(finite_samples, sol.w,
                                           what="solution"), np.zeros_like)
        formats.save_json(args.out / "solution.json",
                          formats.solution_to_data(sol))
    formats.save_json(args.out / "report.json", report.to_dict(), indent=None)
    return 0 if report.overall_pass else 2


def run_verify(args: argparse.Namespace) -> int:
    t = perf_counter()
    sol = formats.solution_from_data(formats.load_json(args.config))
    load_s = perf_counter() - t
    report = verify_solution(sol)
    report.timings["load"] = load_s
    args.out.mkdir(parents=True, exist_ok=True)
    formats.save_json(args.out / "report.json", report.to_dict(), indent=None)
    return 0 if report.overall_pass else 2


def run_transform(args: argparse.Namespace) -> int:
    data = formats.load_json(args.config)
    formats.check_schema(data, formats.TRANSFORM_CONFIG_SCHEMA)
    f = formats.bivar_from_data(data["f"])
    if data["operator"] == "teodorescu":
        table = teodorescu_poly(f)
    else:
        table = schwarz_pompeiu_poly(f)
    formats.write_values_csv(args.out / "transform.csv", args.grid,
                             partial(finite_samples, table.monomial_sum,
                                     what=f"{data['operator']} transform"))
    return 0


def run_poisson(args: argparse.Namespace) -> int:
    u = formats.boundary_from_data(formats.load_json(args.config))
    formats.write_values_csv(args.out / "poisson.csv", args.grid,
                             partial(finite_samples,
                                     partial(poisson_extend, u),
                                     what="poisson extension"))
    return 0


def run_decompose(args: argparse.Namespace) -> int:
    data = formats.load_json(args.config)
    formats.check_schema(data, formats.DECOMPOSE_CONFIG_SCHEMA)
    samples = formats.read_values_csv(args.config.parent / data["samples"])
    fit = poly_decompose(samples, n=int(data["order"]), degree=args.degree)
    args.out.mkdir(parents=True, exist_ok=True)
    formats.save_json(args.out / "decomposition.json", {
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_options(args)
        return RUNNERS[args.command](args)
    except MetadiskError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except SchemaViolation as exc:
        print(f"schema error: {exc.message}", file=sys.stderr)
        return 1
    except (json.JSONDecodeError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

