"""Command-line behavior: exit codes, emitted files, determinism, formats."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import SMALL_MEAN_FACTOR_PROBLEM
from metadisk import formats, integral
from metadisk.boundary import BoundaryDistribution
from metadisk.cli import _parse_grid, main
from metadisk.disk import PolarGrid
from metadisk.errors import MetadiskError, SchemaViolation
from metadisk.integral import PolyAnalytic
from metadisk.schwarz import CHECKS, SchwarzProblem

WORKED = SchwarzProblem(
    n=2,
    coeff=PolyAnalytic.constant(1.0),
    levels=((PolyAnalytic.constant(1.0), 0.0), (PolyAnalytic.zero(), 2.0)),
)


def write_problem(path, problem=WORKED):
    formats.save_json(path, formats.problem_to_data(problem))
    return path


def test_parse_grid():
    assert _parse_grid("32x64") == (32, 64)
    assert _parse_grid("8X16") == (8, 16)
    import argparse
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_grid("32")
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_grid("axb")


def _solve_error(tmp_path, capsys, *flags) -> str:
    """stderr of ``solve`` on a config file that does not exist: a flag
    rejected before any input is read names itself, not the file."""
    capsys.readouterr()
    out = tmp_path / "run"
    assert main(["solve", "--config", str(tmp_path / "x"), "--out", str(out),
                 *flags]) == 1
    assert not out.exists()
    return capsys.readouterr().err


def test_bad_grid_exits_one(tmp_path, capsys):
    # too few radii, and angular counts that PolarGrid rejects: odd or below 8
    assert _solve_error(tmp_path, capsys, "--grid", "2x64") == (
        "error: the grid needs at least 4 radii\n")
    for bad in ("4x6", "4x9"):
        assert _solve_error(tmp_path, capsys, "--grid", bad) == (
            "error: angular count must be even and at least 8\n")


def test_negative_degree_exits_one(tmp_path, capsys):
    capsys.readouterr()
    assert main(["decompose", "--config", str(tmp_path / "x"),
                 "--degree", "-1"]) == 1
    assert capsys.readouterr().err == "error: degree must be nonnegative\n"


def test_solve_worked_example(tmp_path):
    cfg = write_problem(tmp_path / "problem.json")
    out = tmp_path / "run"
    code = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["overall_pass"] is True
    solution = json.loads((out / "solution.json").read_text())
    assert solution["psi_kind"] == "cauchy"

    # sampled w matches the closed form at the first grid node
    lines = (out / "solution_grid.csv").read_text().splitlines()
    assert lines[0] == "r,theta,re_w,im_w,re_residual,im_residual"
    r, theta, re_w, im_w, re_res, im_res = map(float, lines[1].split(","))
    z = r * np.exp(1j * theta)
    want = np.exp(np.conjugate(z)) * (2j + np.conjugate(z))
    assert re_w + 1j * im_w == pytest.approx(want, abs=1e-12)
    assert abs(re_res) < 1e-12 and abs(im_res) < 1e-12


def test_solve_then_verify_round_trip(tmp_path):
    cfg = write_problem(tmp_path / "problem.json")
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    verify_out = tmp_path / "check"
    code = main(["verify", "--config", str(out / "solution.json"),
                 "--out", str(verify_out)])
    assert code == 0
    report = json.loads((verify_out / "report.json").read_text())
    assert report["overall_pass"] is True


def test_report_times_sampling_writing_and_loading(tmp_path):
    cfg = write_problem(tmp_path / "problem.json")
    out, check = tmp_path / "run", tmp_path / "check"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["verify", "--config", str(out / "solution.json"),
                 "--out", str(check)]) == 0
    # solve samples the grid inside its write
    for path, names in ((out, ("write",)), (check, ("load",))):
        timings = json.loads((path / "report.json").read_text())["timings"]
        for name in names:
            assert timings[name] >= 0.0
        assert "sample_grid" not in timings


def test_solve_rerun_is_byte_identical(tmp_path):
    cfg = write_problem(tmp_path / "problem.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("solution_grid.csv", "solution.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_verify_accepts_legacy_diagnostics(tmp_path):
    # earlier versions copied the report into solution.json as "diagnostics"
    cfg = write_problem(tmp_path / "problem.json")
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    data = json.loads((out / "solution.json").read_text())
    assert "diagnostics" not in data
    # the legacy copy held what report.json holds: checks, timings, rows
    data["diagnostics"] = json.loads((out / "report.json").read_text())
    legacy = tmp_path / "legacy.json"
    formats.save_json(legacy, data)
    code = main(["verify", "--config", str(legacy),
                 "--out", str(tmp_path / "check")])
    assert code == 0


def test_verify_corrupted_solution(tmp_path):
    cfg = write_problem(tmp_path / "problem.json")
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    data = json.loads((out / "solution.json").read_text())
    # bump the constant coefficient of the top part
    data["parts"][0]["coeffs"][0][0] += 0.1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    verify_out = tmp_path / "check"
    code = main(["verify", "--config", str(bad), "--out", str(verify_out)])
    assert code == 2
    report = json.loads((verify_out / "report.json").read_text())
    assert report["overall_pass"] is False
    failing = [c for c in report["checks"] if not c["passed"]]
    assert any(c["name"] == "boundary_pairing_max" for c in failing)


def test_verify_fails_an_extra_part_on_pde_residual(tmp_path):
    # one more part 1e-3 conj(z)^2 lifts F to order 3, so the exact
    # (dbar - A)^2 w = e^s dbar^2 F = 2e-3 e^s is no longer zero
    problem = dataclasses.replace(WORKED, factor_kind="schwarz")
    cfg = write_problem(tmp_path / "problem.json", problem)
    out, check = tmp_path / "run", tmp_path / "check"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    data = json.loads((out / "solution.json").read_text())
    data["parts"].append({"coeffs": [[1e-3, 0.0]]})
    bad = tmp_path / "bad.json"
    formats.save_json(bad, data)
    assert main(["verify", "--config", str(bad), "--out", str(check)]) == 2
    checks = {c["name"]: c for c in
              json.loads((check / "report.json").read_text())["checks"]}
    assert checks["pde_residual"]["passed"] is False
    s = integral.similarity_factor(problem.coeff, "schwarz")
    weight = np.abs(np.exp(s.monomial_sum(PolarGrid.mesh().points())))
    assert checks["pde_residual"]["value"] == pytest.approx(
        2e-3 * weight.max(), rel=1e-12)


@pytest.mark.parametrize("kind", ["cauchy", "schwarz"])
def test_every_check_writes_its_pinned_threshold(tmp_path, kind):
    pinned = {name: [threshold, direction]
              for name, (kinds, threshold, direction) in CHECKS.items()
              if kind in kinds}
    cfg = write_problem(tmp_path / "problem.json",
                        dataclasses.replace(WORKED, factor_kind=kind))
    assert main(["solve", "--config", str(cfg),
                 "--out", str(tmp_path / "run")]) == 0
    assert main(["verify", "--config", str(tmp_path / "run" / "solution.json"),
                 "--out", str(tmp_path / "check")]) == 0
    for out in ("run", "check"):
        checks = json.loads((tmp_path / out / "report.json").read_text())[
            "checks"]
        assert {c["name"]: [c["threshold"], c["direction"]]
                for c in checks} == pinned


def test_origin_check_sees_c_where_e_s_underflows(tmp_path):
    # s = 800(|z|^2 - 1): e^s(0) = e^-800 rounds to zero, and e^s = 1 on the
    # circle, where Re(i c) = 0, so only the origin check can see c move
    data = {"n": 1, "psi_kind": "schwarz",
            "A": {"terms": [{"m": 1, "k": 0, "re": 800.0, "im": 0.0}]},
            "levels": [{"h": {"coeffs": [[0.1, 0.0]]}, "c": 0.0}]}
    cfg = tmp_path / "problem.json"
    formats.save_json(cfg, data)
    assert main(["solve", "--config", str(cfg),
                 "--out", str(tmp_path / "run")]) == 0
    solution = json.loads((tmp_path / "run" / "solution.json").read_text())
    solution["problem"]["levels"][0]["c"] = 5.0
    moved = tmp_path / "moved.json"
    formats.save_json(moved, solution)
    assert main(["verify", "--config", str(moved),
                 "--out", str(tmp_path / "check")]) == 2
    checks = json.loads((tmp_path / "check" / "report.json").read_text())[
        "checks"]
    assert {c["name"]: c["value"] for c in checks if not c["passed"]} == {
        "imag_at_origin_smooth": 5.0}


def test_re_s_on_the_circle_is_relative_to_the_coefficients_of_s(tmp_path):
    # s = 20000(|z|^2 - 1) is about 0 on the circle, where its samples round
    # with its coefficients: divided by max(1, max |s| there) it reads 3.6e-12
    data = {"n": 1, "psi_kind": "schwarz",
            "A": {"terms": [{"m": 1, "k": 0, "re": 20000.0, "im": 0.0}]},
            "levels": [{"h": {"coeffs": [[0.1, 0.0]]}, "c": 0.0}]}
    cfg = tmp_path / "problem.json"
    formats.save_json(cfg, data)
    run, check = tmp_path / "run", tmp_path / "check"
    assert main(["solve", "--config", str(cfg), "--out", str(run)]) == 0
    assert main(["verify", "--config", str(run / "solution.json"),
                 "--out", str(check)]) == 0
    for out in (run, check):
        checks = json.loads((out / "report.json").read_text())["checks"]
        values = {c["name"]: c["value"] for c in checks}
        assert values["similarity_re_on_circle"] < 1e-15


def test_schema_violation_exits_one(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps({"n": 1, "psi_kind": "cauchy", "levels": []}))
    assert main(["solve", "--config", str(bad), "--out", str(tmp_path)]) == 1
    not_json = tmp_path / "garbage.json"
    not_json.write_text("{nope")
    assert main(["solve", "--config", str(not_json), "--out", str(tmp_path)]) == 1
    missing = tmp_path / "absent.json"
    assert main(["solve", "--config", str(missing), "--out", str(tmp_path)]) == 1


def _outputs(out: Path, command: str, data: dict, *flags) -> dict:
    """Run one command on ``data``; its files, report.json parsed and
    without timings."""
    cfg = out.with_suffix(".json")
    formats.save_json(cfg, data)
    assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == 0
    files = {f.name: f.read_bytes() for f in out.iterdir()}
    if "report.json" in files:
        report = json.loads(files["report.json"])
        report.pop("timings")
        files["report.json"] = report
    return files


def _floated(data, keys=("n", "m", "k", "order", "min_index")):
    """A copy of a JSON document with every integer under ``keys`` as a float."""
    if isinstance(data, list):
        return [_floated(v, keys) for v in data]
    if isinstance(data, dict):
        return {k: float(v) if k in keys and isinstance(v, int)
                else _floated(v, keys) for k, v in data.items()}
    return data


def test_integer_valued_floats_read_as_integers(tmp_path):
    # Draft 2020-12 counts 2.0 as an integer, so the schema lets it through
    coeff = PolyAnalytic.from_terms({(0, 0): 1.0, (2, 1): 0.05j})
    problem = formats.problem_to_data(
        SchwarzProblem(n=2, coeff=coeff, levels=WORKED.levels))
    grid = PolarGrid((0.3, 0.5, 0.7, 0.9), np.arange(16) * (np.pi / 8))
    formats.write_values_csv(tmp_path / "samples.csv", grid,
                             np.conjugate(grid.points()))
    cases = [
        ("solve", problem, ()),
        ("transform", {"operator": "teodorescu", "f": problem["A"]},
         ("--grid", "4x8")),
        ("poisson", {"type": "fourier", "coeffs": [[1.0, 0.0], [0.0, 1.0]],
                     "min_index": -1}, ("--grid", "4x8")),
        ("decompose", {"order": 2, "samples": "samples.csv"},
         ("--degree", "2")),
    ]
    for command, data, flags in cases:
        want = _outputs(tmp_path / f"{command}-int", command, data, *flags)
        got = _outputs(tmp_path / f"{command}-float", command, _floated(data),
                       *flags)
        assert got == want, command
    solution = json.loads((tmp_path / "solve-int" / "solution.json").read_text())
    assert (_outputs(tmp_path / "verify-float", "verify", _floated(solution))
            == _outputs(tmp_path / "verify-int", "verify", solution))


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["solve", "--config", "x.json", "--grid", "bogus"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["solve", "--degree", "2"],
    ["verify", "--degree", "2"],
    ["transform", "--tol", "pde_residual=1"],
    ["poisson", "--radial-depth", "4"],
    ["decompose", "--grid", "8x8"],
    ["solve", "--radial-depth", "4"],
    ["verify", "--grid", "32x64"],
    ["solve", "--tol", "pde_residual=1"],
    ["verify", "--tol", "pde_residual=1"],
])
def test_flags_a_command_does_not_read_exit_two(tmp_path, argv):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as err:
        main([argv[0], "--config", "x.json", "--out", str(out), *argv[1:]])
    assert err.value.code == 2
    assert not out.exists()


def _with_nan_coefficient(data):
    data["A"]["terms"][0]["re"] = float("nan")


def _with_infinite_level(data):
    data["levels"][0]["h"]["coeffs"][0][1] = float("inf")


def _with_nan_part(data):
    data["parts"][0]["coeffs"][0][0] = float("nan")


def _with_coefficient_1e400(data):
    data["A"]["terms"][0]["re"] = "<1e400>"


def _with_level_constant_minus_1e999(data):
    data["levels"][1]["c"] = "<-1e999>"


def _with_400_digit_coefficient(data):
    data["A"]["terms"][0]["re"] = "<" + "9" * 400 + ">"


def _with_exponent_of_14_tib(data):
    data["A"]["terms"][0]["m"] = "<1000000000000>"


def _with_exponent_past_64_bits(data):
    data["A"]["terms"][0]["m"] = "<100000000000000000000>"


def _with_172_levels(data):
    # level 172 would weigh f_1 by 1/171!, which passes the largest double
    problem = data.get("problem", data)
    problem["n"] = 172
    problem["levels"] += [{"h": {"coeffs": [[0.0, 0.0]]}, "c": 0.0}] * 170
    if "I" in data:  # a solution file holds one origin constant per level
        data["I"] += [[0.0, 0.0]] * 170


@pytest.mark.parametrize("command, corrupt", [
    ("solve", _with_nan_coefficient),
    ("solve", _with_infinite_level),
    ("verify", _with_nan_part),
    ("solve", _with_coefficient_1e400),
    ("solve", _with_level_constant_minus_1e999),
    ("solve", _with_400_digit_coefficient),
    ("solve", _with_exponent_of_14_tib),
    ("solve", _with_exponent_past_64_bits),
    ("solve", _with_172_levels),
    ("verify", _with_172_levels),
])
def test_non_finite_numbers_exit_one(tmp_path, capsys, command, corrupt):
    cfg = write_problem(tmp_path / "problem.json")
    if command == "verify":
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 0
        cfg = tmp_path / "run" / "solution.json"
    data = json.loads(cfg.read_text())
    corrupt(data)
    bad = tmp_path / "bad.json"
    # json writes NaN and Infinity bare; a string "<text>" becomes text
    bad.write_text(re.sub(r'"<([^"]*)>"', r"\1", json.dumps(data)))
    capsys.readouterr()
    code = main([command, "--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out").exists()


_HUGE = {"terms": [{"m": 0, "k": 0, "re": 1.7e308, "im": 0},
                   {"m": 1, "k": 0, "re": 1.7e308, "im": 0}]}
# e^(800 conj z) overflows where Re z > 0.887
_OVERFLOWING_PROBLEM = {
    "n": 1, "A": {"terms": [{"m": 0, "k": 0, "re": 800.0, "im": 0.0}]},
    "psi_kind": "cauchy",
    "levels": [{"h": {"coeffs": [[1.0, 0.0]]}, "c": 0.0}]}


@pytest.mark.parametrize("command, data, grid", [
    ("transform", {"operator": "teodorescu", "f": _HUGE}, "4x8"),
    ("transform", {"operator": "schwarz_pompeiu", "f": _HUGE}, "4x8"),
    ("poisson", {"type": "holo_series",
                 "coeffs": [[1.7e308, 0], [1.7e308, 0]]}, "4x8"),
    ("poisson", {"type": "holo_series",
                 "coeffs": [[1.7e308, 0], [1.7e308, 0]]}, "64x512"),
    ("solve", _OVERFLOWING_PROBLEM, "32x64"),
])
def test_grid_values_that_overflow_exit_three(tmp_path, capsys, command,
                                               data, grid):
    cfg = tmp_path / "config.json"
    formats.save_json(cfg, data)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would raise
        code = main([command, "--config", str(cfg), "--out", str(out),
                     "--grid", grid])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "is not finite" in err
    assert not out.exists()


def test_failed_grid_write_leaves_the_directories_as_it_found_them(tmp_path):
    cfg = tmp_path / "config.json"
    formats.save_json(cfg, {"type": "holo_series",
                            "coeffs": [[1.7e308, 0], [1.7e308, 0]]})
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "notes.txt").write_text("not ours")
    for out in (kept, kept / "made" / "here"):
        assert main(["poisson", "--config", str(cfg), "--out", str(out),
                     "--grid", "4x8"]) == 3
        assert [path.name for path in kept.iterdir()] == ["notes.txt"]


_FAILING_WORKER = """
import json, os, sys
import numpy as np
from metadisk import cli, formats
from metadisk.errors import NonFinite

formats._cpu_count = lambda: 4
formats.MIN_POINTS_PER_WORKER = 1
block, failure, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
extend = cli.poisson_extend

def planted(u, z):
    r = np.abs(z)
    if r.min() < 0.06 if block == "first" else r.max() > 0.94:
        if failure == "exit":
            os._exit(7)
        raise {"numerical": NonFinite, "value": ValueError}[failure]("planted")
    return extend(u, z)

cli.poisson_extend = planted
code = cli.main(argv)
try:
    os.waitpid(-1, os.WNOHANG)
    reaped = False
except ChildProcessError:
    reaped = True
print(json.dumps({"code": code, "reaped": reaped}))
"""


@pytest.mark.parametrize("block, failure, code, line", [
    ("first", "numerical", 3, "numerical failure: planted"),
    ("first", "value", 1, "error: planted"),
    ("last", "numerical", 3, "numerical failure: planted"),
    ("last", "value", 1, "error: planted"),
    ("last", "exit", 1, "error: grid worker "),
])
def test_failing_block_leaves_no_csv_and_no_worker(tmp_path, block, failure,
                                                   code, line):
    # four blocks of 16 rings; each worker's text overfills its pipe, so a
    # parent that reaped before closing the pipes would hang until the timeout
    cfg = tmp_path / "boundary.json"
    formats.save_json(cfg, {"type": "holo_series",
                            "coeffs": [[0.5, 0.0], [1.0, -1.0]]})
    out = tmp_path / "out"
    src = str(Path(formats.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", _FAILING_WORKER, block, failure, "poisson",
         "--config", str(cfg), "--out", str(out), "--grid", "64x128"],
        env=env, capture_output=True, text=True, timeout=60)
    assert json.loads(done.stdout) == {"code": code, "reaped": True}, done.stderr
    assert done.stderr.startswith(line)
    assert not out.exists()


_PINNED = """
import os, sys
from metadisk.cli import main

if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no CPU affinity on this platform")
@pytest.mark.parametrize("command, data", [
    ("transform", {"operator": "teodorescu", "f": {"terms": [
        {"m": 0, "k": 1, "re": 0.3, "im": -0.7},
        {"m": 2, "k": 1, "re": -1.1, "im": 0.2}]}}),
    ("transform", {"operator": "schwarz_pompeiu", "f": {"terms": [
        {"m": 1, "k": 2, "re": 0.9, "im": 0.4}]}}),
    ("poisson", {"type": "fourier", "min_index": -3, "coeffs": [
        [0.1, 0.2], [-0.3, 0.0], [0.5, 0.5], [1.0, 0.0], [0.2, -0.4],
        [0.0, 0.3], [0.7, 0.1]]}),
    ("solve", formats.problem_to_data(WORKED)),
])
def test_grid_commands_write_the_same_bytes_on_one_cpu(tmp_path, command,
                                                       data):
    cfg = tmp_path / "config.json"
    formats.save_json(cfg, data)
    src = str(Path(formats.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    files = []
    for cpus in ("pinned", "all"):
        out = tmp_path / cpus
        subprocess.run([sys.executable, "-c", _PINNED, cpus, command,
                        "--config", str(cfg), "--out", str(out),
                        "--grid", "256x512"],
                       env=env, check=True, timeout=120)
        files.append(next(out.glob("*.csv")).read_bytes())
    assert files[0] == files[1]
    assert files[0].count(b"\n") == 1 + 256 * 512


def test_report_holds_the_boundary_table(tmp_path):
    problem = SchwarzProblem(
        n=1, coeff=PolyAnalytic.zero(),
        levels=((PolyAnalytic.holomorphic((0, 0, 0, 0, 0, 1.0)), 0.0),))
    cfg = write_problem(tmp_path / "problem.json", problem)
    run, out = tmp_path / "run", tmp_path / "check"
    assert main(["solve", "--config", str(cfg), "--out", str(run)]) == 0
    # a failing report is written too: Re w moves by 0.5 on the circle
    solution = json.loads((run / "solution.json").read_text())
    solution["parts"][-1]["coeffs"][0][0] += 0.5
    bad = tmp_path / "bad.json"
    formats.save_json(bad, solution)
    assert main(["verify", "--config", str(bad), "--out", str(out)]) == 2
    text = (out / "report.json").read_text()
    report = json.loads(text)
    assert text == json.dumps(report, sort_keys=True,
                              separators=(",", ":")) + "\n"  # compact
    assert "boundary_rows" not in report
    table = report["boundary"]
    shape = (problem.n, len(table["tests"]))
    assert table["tests"][0] == "harmonic[-10]" and shape == (1, 21)
    assert sorted(table) == ["lhs", "residual", "rhs", "tests"]
    for key in ("lhs", "rhs", "residual"):
        assert np.shape(table[key])[:2] == shape, key
    assert table["residual"] == [
        [abs(complex(*lhs) - complex(*rhs)) for lhs, rhs in zip(*level)]
        for level in zip(table["lhs"], table["rhs"])]
    checks = {c["name"]: c for c in report["checks"]}
    assert not checks["boundary_pairing_max"]["passed"]


def test_transform_teodorescu(tmp_path):
    cfg = tmp_path / "transform.json"
    formats.save_json(cfg, {"operator": "teodorescu",
                            "f": formats.bivar_to_data(PolyAnalytic.constant(1.0))})
    out = tmp_path / "run"
    code = main(["transform", "--config", str(cfg), "--out", str(out),
                 "--grid", "4x8"])
    assert code == 0
    grid = formats.read_values_csv(out / "transform.csv")
    assert np.allclose(grid.values, np.conjugate(grid.points()))


def test_transform_schwarz_small_grid(tmp_path):
    cfg = tmp_path / "transform.json"
    formats.save_json(cfg, {"operator": "schwarz_pompeiu",
                            "f": formats.bivar_to_data(PolyAnalytic.constant(1.0))})
    out = tmp_path / "run"
    code = main(["transform", "--config", str(cfg), "--out", str(out),
                 "--grid", "4x8"])
    assert code == 0
    grid = formats.read_values_csv(out / "transform.csv")
    pts = grid.points()
    assert np.max(np.abs(grid.values - (np.conjugate(pts) - pts))) < 1e-12


def test_poisson_extension(tmp_path):
    cfg = tmp_path / "boundary.json"
    formats.save_json(cfg, {"type": "holo_series",
                            "coeffs": [[0.0, 0.0], [1.0, 0.0]],
                            "min_index": 0})
    out = tmp_path / "run"
    code = main(["poisson", "--config", str(cfg), "--out", str(out),
                 "--grid", "4x8"])
    assert code == 0
    grid = formats.read_values_csv(out / "poisson.csv")
    assert np.allclose(grid.values, grid.points())


def test_decompose_command(tmp_path):
    grid = PolarGrid((0.3, 0.5, 0.7, 0.9), np.arange(16) * (np.pi / 8))
    pts = grid.points()
    samples = tmp_path / "samples.csv"
    formats.write_values_csv(samples, grid, np.conjugate(pts) + 3 * pts ** 2)
    cfg = tmp_path / "decompose.json"
    formats.save_json(cfg, {"order": 2, "samples": "samples.csv"})
    out = tmp_path / "run"
    code = main(["decompose", "--config", str(cfg), "--out", str(out),
                 "--degree", "2"])
    assert code == 0
    result = json.loads((out / "decomposition.json").read_text())
    assert result["residual"] < 1e-10
    f1 = result["parts"][1]["coeffs"]
    assert f1[0][0] == pytest.approx(1.0)


def test_decompose_conditioning_exits_three(tmp_path):
    grid = PolarGrid(np.array([0.5, 0.5000000001]),
                     2 * np.pi * np.arange(16) / 16)
    samples = tmp_path / "samples.csv"
    formats.write_values_csv(samples, grid, np.conjugate(grid.points()))
    cfg = tmp_path / "decompose.json"
    formats.save_json(cfg, {"order": 2, "samples": "samples.csv"})
    code = main(["decompose", "--config", str(cfg), "--out", str(tmp_path),
                 "--degree", "2"])
    assert code == 3


def _decompose_samples(tmp_path, capsys, values):
    grid = PolarGrid.mesh(4, 8)
    formats.write_values_csv(tmp_path / "samples.csv", grid, values(grid))
    cfg = tmp_path / "decompose.json"
    formats.save_json(cfg, {"order": 2, "samples": "samples.csv"})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would raise
        code = main(["decompose", "--config", str(cfg), "--out", str(out),
                     "--degree", "2"])
    assert not out.exists()
    return code, capsys.readouterr().err


def test_decompose_of_a_nan_sample_exits_one(tmp_path, capsys):
    def values(grid):
        v = np.conjugate(grid.points())
        v[1, 3] = complex(np.nan, 0.0)
        return v

    code, err = _decompose_samples(tmp_path, capsys, values)
    assert code == 1
    assert err.startswith("error: samples row 12 is not finite: ")


def test_decompose_that_overflows_exits_three(tmp_path, capsys):
    code, err = _decompose_samples(
        tmp_path, capsys, lambda grid: np.full((4, 8), 1.7e308 - 1.7e308j))
    assert code == 3
    assert err.startswith("numerical failure: ") and "is not finite" in err


def test_formats_round_trips(tmp_path):
    poly = PolyAnalytic.from_terms({(1, 2): 0.5 - 0.25j, (0, 0): 1.0})
    back = formats.bivar_from_data(formats.bivar_to_data(poly))
    assert np.array_equal(back.c, poly.c)

    series = PolyAnalytic.holomorphic((1.0, 0.0, 2.0j))
    back = formats.holo_from_data(formats.holo_to_data(series.c[0]))
    assert back.c.tolist() == series.c.tolist()

    problem_data = formats.problem_to_data(WORKED)
    back = formats.problem_from_data(problem_data)
    assert back.n == 2 and back.factor_kind == "cauchy"
    assert back.levels[1][1] == 2.0

    fourier = formats.boundary_from_data({
        "type": "fourier", "coeffs": [[1.0, 0.0], [0.0, 0.5]],
        "min_index": -1})
    assert isinstance(fourier, BoundaryDistribution)
    assert fourier.coefficient(-1) == 1.0
    assert fourier.coefficient(0) == 0.5j


def test_values_csv_round_trip(tmp_path):
    grid = PolarGrid.mesh(4, 8)
    values = grid.points() ** 2
    path = tmp_path / "vals.csv"
    formats.write_values_csv(path, grid, values)
    back = formats.read_values_csv(path)
    assert np.allclose(back.radii, grid.radii)
    assert np.allclose(back.angles, grid.angles)
    assert np.allclose(back.values, values)


def _write_rings(path, rings):
    lines = [formats.VALUE_CSV_HEADER]
    for r, angles in rings:
        for theta in angles:
            z = r * np.exp(1j * theta)
            lines.append(",".join(repr(float(x))
                                  for x in (r, theta, z.real, z.imag)))
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("rings, message", [
    # 6 + 10 rows divide into a 2 x 8 grid that would mix the two rings
    ([(0.5, 2 * np.pi * np.arange(6) / 6), (0.7, 2 * np.pi * np.arange(10) / 10)],
     "rings differ in size"),
    ([(0.5, 2 * np.pi * np.arange(8) / 8), (0.7, 2 * np.pi * np.arange(8) / 8 + 0.1)],
     "first ring's angles"),
])
def test_values_csv_rejects_mismatched_rings(tmp_path, rings, message):
    path = tmp_path / "vals.csv"
    _write_rings(path, rings)
    with pytest.raises(ValueError, match=message):
        formats.read_values_csv(path)
    cfg = tmp_path / "decompose.json"
    formats.save_json(cfg, {"order": 1, "samples": "vals.csv"})
    assert main(["decompose", "--config", str(cfg), "--out", str(tmp_path),
                 "--degree", "2"]) == 1


def test_values_csv_reader_keeps_its_messages(tmp_path):
    grid = PolarGrid.mesh(4, 8)
    path = tmp_path / "vals.csv"
    formats.write_values_csv(path, grid, grid.points() ** 2)
    header, *rows = path.read_text().splitlines()
    want = formats.read_values_csv(path).values
    # empty lines before the header, after it, among the samples and after
    # them are skipped, and so are lines of spaces among and after them
    padded = tmp_path / "padded.csv"
    for blank in ("", " \t "):
        padded.write_text("\n\n" + header + "\n\n" + "\n".join(rows[:5])
                          + f"\n\n{blank}\n" + "\n".join(rows[5:])
                          + f"\n\n\n{blank}\n")
        assert (formats.read_values_csv(padded).values.tobytes()
                == want.tobytes())
    no_samples = f"expected header {formats.VALUE_CSV_HEADER!r} and samples"
    for name, text in (("wrong.csv", "r,theta,re,im\n" + "\n".join(rows)),
                       ("bare.csv", "\n" + header + "\n\n"),
                       ("empty.csv", "")):
        (tmp_path / name).write_text(text)
        with pytest.raises(ValueError) as exc:
            formats.read_values_csv(tmp_path / name)
        assert str(exc.value) == no_samples
    # the non-finite row is quoted, counted among the samples
    rows[6] = rows[6].rpartition(",")[0] + ",inf"
    bad = tmp_path / "bad.csv"
    for blank in ("", "  "):
        bad.write_text("\n" + header + "\n\n" + "\n".join(rows[:3])
                       + f"\n\n{blank}\n" + "\n".join(rows[3:]) + "\n")
        with pytest.raises(ValueError) as exc:
            formats.read_values_csv(bad)
        assert str(exc.value) == f"samples row 7 is not finite: {rows[6]}"


def test_grid_too_large_to_allocate_exits_one(tmp_path, monkeypatch, capsys):
    # the points of a grid that cannot be allocated: numpy raises
    # MemoryError, planted here so that nothing large is allocated
    message = ("Unable to allocate 53.6 GiB for an array with shape "
               "(60000, 60000) and data type complex128")

    def points(grid):
        raise MemoryError(message)

    monkeypatch.setattr(PolarGrid, "points", points)
    cfg = tmp_path / "transform.json"
    formats.save_json(cfg, {"operator": "teodorescu",
                            "f": formats.bivar_to_data(PolyAnalytic.constant(1.0))})
    out = tmp_path / "run"
    capsys.readouterr()
    code = main(["transform", "--config", str(cfg), "--out", str(out),
                 "--grid", "4x8"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_every_schema_is_valid_under_its_metaschema():
    names = [name for name in dir(formats) if name.endswith("_SCHEMA")]
    assert len(names) >= 7
    for name in names:
        schema = getattr(formats, name)
        jsonschema.validators.validator_for(schema).check_schema(schema)


def test_schema_errors_match_jsonschema_validate():
    bad = {"n": 1, "psi_kind": "cauchy", "levels": [{"h": {"coeffs": [[1]]}}]}
    with pytest.raises(SchemaViolation) as ours:
        formats.check_schema(bad, formats.PROBLEM_SCHEMA)
    with pytest.raises(jsonschema.ValidationError) as reference:
        jsonschema.validate(bad, formats.PROBLEM_SCHEMA)
    assert ours.value.message == reference.value.message
    assert list(ours.value.path) == list(reference.value.path)


# h = 1.7e308 (1 + z): its sample at z = 1 and the bound sum |a_m| overflow
_OVERFLOWING_ON_THE_CIRCLE = {
    "n": 1, "A": {"terms": [{"m": 0, "k": 0, "re": 0.5, "im": 0.0}]},
    "levels": [{"h": {"coeffs": [[1.7e308, 0.0], [1.7e308, 0.0]]}, "c": 0.0}]}
# A = 1.7e308 (1 + z): the schwarz exponent overflows on the circle
_OVERFLOWING_FACTOR = {
    "n": 1, "A": {"terms": [{"m": 0, "k": 0, "re": 1.7e308, "im": 0.0},
                            {"m": 1, "k": 0, "re": 1.7e308, "im": 0.0}]},
    "levels": [{"h": {"coeffs": [[1.0, 0.0]]}, "c": 0.0}]}


@pytest.mark.parametrize("kind, data", [
    ("cauchy", _OVERFLOWING_ON_THE_CIRCLE),
    ("schwarz", _OVERFLOWING_ON_THE_CIRCLE),
    ("schwarz", _OVERFLOWING_FACTOR),
])
def test_data_that_overflow_on_the_circle_exit_three(tmp_path, capsys, kind,
                                                      data):
    cfg = tmp_path / "problem.json"
    formats.save_json(cfg, {**data, "psi_kind": kind})
    out = tmp_path / "run"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 3
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert not out.exists()


# F = 0.1 + 0.001 conj(z) for n = 1 and A = 800: the residual
# 0.001 e^(800 conj(z)) overflows on the mesh from Re z of about 0.89 on
_OVERFLOWING_RESIDUAL = {
    "A": {"terms": [{"m": 0, "k": 0, "re": 800.0, "im": 0.0}]},
    "I": [[0.0, 0.0]], "psi_kind": "cauchy",
    "parts": [{"coeffs": [[0.1, 0.0]]}, {"coeffs": [[0.001, 0.0]]}],
    "problem": {"n": 1, "psi_kind": "cauchy",
                "A": {"terms": [{"m": 0, "k": 0, "re": 800.0, "im": 0.0}]},
                "levels": [{"h": {"coeffs": [[0.1, 0.0]]}, "c": 0.0}]}}
# A = -800 z: the schwarz exponent 800 (1 - |z|^2) is 800 at the origin
_OVERFLOWING_ORIGIN = {
    "n": 1, "psi_kind": "schwarz",
    "A": {"terms": [{"m": 1, "k": 0, "re": -800.0, "im": 0.0}]},
    "levels": [{"h": {"coeffs": [[0.1, 0.0]]}, "c": 0.0}]}


def _solved_then_overflowing_at_the_origin(tmp_path):
    """The solution file of _OVERFLOWING_ORIGIN's problem with A = -z, with
    both copies of A then set to -800 z."""
    data = json.loads(json.dumps(_OVERFLOWING_ORIGIN))
    data["A"]["terms"][0]["re"] = -1.0
    formats.save_json(tmp_path / "mild.json", data)
    assert main(["solve", "--config", str(tmp_path / "mild.json"),
                 "--out", str(tmp_path / "mild")]) == 0
    solution = json.loads((tmp_path / "mild" / "solution.json").read_text())
    for a in (solution["A"], solution["problem"]["A"]):
        a["terms"][0]["re"] = -800.0
    return solution


@pytest.mark.parametrize("command, data, message", [
    ("verify", lambda tmp_path: _OVERFLOWING_RESIDUAL,
     "pde residual at z=(0.8919354838709678+0j) is not finite"),
    ("solve", lambda tmp_path: _OVERFLOWING_ORIGIN,
     "e^s at z=0j is not finite"),
    ("verify", _solved_then_overflowing_at_the_origin,
     "e^s at z=0j is not finite"),
], ids=["verify-residual", "solve-origin", "verify-origin"])
def test_checks_whose_values_overflow_exit_three(tmp_path, capsys, command,
                                                 data, message):
    cfg = tmp_path / "config.json"
    formats.save_json(cfg, data(tmp_path))
    out = tmp_path / "run"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == f"numerical failure: {message}\n"
    assert not out.exists()


# h = 1e307 i: finite samples whose sum of 256 passes the largest double
_HUGE_CIRCLE_MEAN = {
    "n": 1, "A": {"terms": [{"m": 0, "k": 0, "re": 0.5, "im": 0.0}]},
    "levels": [{"h": {"coeffs": [[0.0, 1e307]]}, "c": 0.0}]}
# h = 1e307 (1 + i z) at level 0: finite samples, an FFT that overflows
_HUGE_CIRCLE_SPECTRUM = {
    "n": 2, "A": {"terms": [{"m": 0, "k": 0, "re": 0.5, "im": 0.0}]},
    "levels": [{"h": {"coeffs": [[1e307, 0.0], [0.0, 1e307]]}, "c": 0.0},
               {"h": {"coeffs": [[0.0, 0.0]]}, "c": 0.0}]}


@pytest.mark.parametrize("kind", ["cauchy", "schwarz"])
def test_finite_data_whose_circle_samples_sum_past_the_largest_double_pass(
        tmp_path, kind):
    cfg = tmp_path / "problem.json"
    formats.save_json(cfg, {**_HUGE_CIRCLE_MEAN, "psi_kind": kind})
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["verify", "--config", str(out / "solution.json"),
                     "--out", str(tmp_path / "check")]) == 0


@pytest.mark.parametrize("kind", ["cauchy", "schwarz"])
def test_circle_spectrum_that_overflows_exits_three(tmp_path, capsys, kind):
    cfg = tmp_path / "problem.json"
    formats.save_json(cfg, {**_HUGE_CIRCLE_SPECTRUM, "psi_kind": kind})
    out = tmp_path / "run"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 3
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err == ("numerical failure: the spectrum of the unit circle "
                   "samples is not finite\n")
    assert not out.exists()


def test_a_schwarz_factor_of_small_circle_mean_solves_and_verifies(tmp_path):
    cfg = tmp_path / "problem.json"
    formats.save_json(cfg, SMALL_MEAN_FACTOR_PROBLEM)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["verify", "--config", str(out / "solution.json"),
                 "--out", str(tmp_path / "check")]) == 0
    for report in (out / "report.json", tmp_path / "check" / "report.json"):
        checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
        assert checks["negative_control"]["value"] == pytest.approx(
            0.2 * np.pi, rel=1e-12, abs=0.0)


def test_commands_without_pairings_leave_numpy_fft_unloaded(tmp_path):
    # numpy imports np.fft lazily; only the boundary pairings should pay for it
    cfg = tmp_path / "transform.json"
    formats.save_json(cfg, {"operator": "teodorescu",
                            "f": formats.bivar_to_data(PolyAnalytic.constant(1.0))})
    script = ("import sys; from metadisk.cli import main; "
              "code = main(sys.argv[1:]); print(code, 'numpy.fft' in sys.modules)")
    args = ["transform", "--config", str(cfg), "--out", str(tmp_path),
            "--grid", "4x8"]
    src = str(Path(formats.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.split() == ["0", "False"], done.stderr


def test_import_leaves_numpy_polynomial_unloaded():
    # poly-analytic evaluation is Horner over the coefficient array
    script = ("import sys; import metadisk.cli; "
              "print('numpy.polynomial' in sys.modules)")
    src = str(Path(formats.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.split() == ["False"], done.stderr


def test_import_leaves_jsonschema_unloaded():
    # schemas are checked in-house; jsonschema is the tests' oracle only
    script = ("import sys; import metadisk.cli; "
              "print(sorted(m for m in sys.modules if m.split('.')[0] in "
              "('jsonschema', 'referencing', 'rpds', 'attrs')))")
    src = str(Path(formats.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.split() == ["[]"], done.stderr


def test_solution_parts_are_written_trimmed(tmp_path):
    problem = SchwarzProblem(
        n=2, coeff=PolyAnalytic.constant(1.0),
        levels=((PolyAnalytic.holomorphic((1.0, 0.5, 0.0, 0.0)), 0.0),
                (PolyAnalytic.holomorphic((0.0, 0.0)), 2.0)))
    cfg = write_problem(tmp_path / "problem.json", problem)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    data = json.loads((out / "solution.json").read_text())
    # F = 2i + zbar (1 + z/2): each part ends at its last nonzero coefficient
    assert [part["coeffs"] for part in data["parts"]] == [
        [[0.0, 2.0]], [[1.0, 0.0], [0.5, 0.0]]]
    # the problem copy keeps the widths it was given
    assert [len(level["h"]["coeffs"]) for level in data["problem"]["levels"]] \
        == [4, 2]
    assert main(["verify", "--config", str(out / "solution.json"),
                 "--out", str(tmp_path / "check")]) == 0


@pytest.mark.parametrize("count", [1, 3])
def test_verify_rejects_origin_constants_not_one_per_level(tmp_path, count,
                                                           capsys):
    cfg = write_problem(tmp_path / "problem.json")
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    data = json.loads((out / "solution.json").read_text())
    data["I"] = (data["I"] * 2)[:count]
    with pytest.raises(ValueError, match=f"{count} origin constants"):
        formats.solution_from_data(data)
    bad = tmp_path / "bad.json"
    formats.save_json(bad, data)
    capsys.readouterr()
    code = main(["verify", "--config", str(bad), "--out", str(tmp_path / "check")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_solution_from_data_checks_the_schema_once(tmp_path, monkeypatch):
    # SOLUTION_SCHEMA holds PROBLEM_SCHEMA, so the embedded problem is not
    # walked a second time
    cfg = write_problem(tmp_path / "problem.json")
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    data = json.loads((out / "solution.json").read_text())
    schemas = []
    check = formats.check_schema
    monkeypatch.setattr(formats, "check_schema", lambda data, schema: (
        schemas.append(schema), check(data, schema)))
    sol = formats.solution_from_data(data)
    assert schemas == [formats.SOLUTION_SCHEMA]
    assert len(sol.chain) == sol.problem.n == 2


@pytest.mark.parametrize("shift", [5 + 7j, 1e-6j])
@pytest.mark.parametrize("kind", ["cauchy", "schwarz"])
def test_verify_fails_shifted_origin_constants(tmp_path, kind, shift):
    # the cauchy boundary rows pair the data without its constant, so only
    # origin_constants sees this shift there
    problem = dataclasses.replace(WORKED, factor_kind=kind)
    cfg = write_problem(tmp_path / "problem.json", problem)
    out, check = tmp_path / "run", tmp_path / "check"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    data = json.loads((out / "solution.json").read_text())
    data["I"] = [[re + shift.real, im + shift.imag] for re, im in data["I"]]
    bad = tmp_path / "bad.json"
    formats.save_json(bad, data)
    assert main(["verify", "--config", str(bad), "--out", str(check)]) == 2
    report = json.loads((check / "report.json").read_text())
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["origin_constants"]["passed"] is False


def test_similarity_table_fault_exits_three(tmp_path, monkeypatch, capsys):
    # no real coefficient trips the antiderivative guard; plant a table that
    # misses A
    monkeypatch.setattr(integral, "teodorescu_poly",
                        lambda f: PolyAnalytic.zero())
    with pytest.raises(MetadiskError, match="misses the coefficient"):
        integral.similarity_factor(PolyAnalytic.constant(1.0), "cauchy")
    cfg = write_problem(tmp_path / "problem.json")
    capsys.readouterr()
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


def _fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this metadisk,
    its stdout block-buffered when it is a pipe, as it is without
    ``PYTHONUNBUFFERED``."""
    env = {**os.environ, "PYTHONPATH": str(Path(formats.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _run_module(args) -> tuple[int, str, str]:
    """``python -m metadisk args`` in a fresh process: the process entry."""
    done = subprocess.run([sys.executable, "-m", "metadisk", *args],
                          env=_fresh_env(),
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


def _run_in_process(args, capsys) -> tuple[int, str, str]:
    capsys.readouterr()
    try:
        code = main(args)
    except SystemExit as exc:  # --help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _entry_case(tmp_path, case) -> list[str]:
    """Arguments of one command per exit code, but for its --out."""
    if case == "help":
        return ["--help"]
    if case == "usage":  # argparse: --config is required
        return ["verify"]
    data = formats.problem_to_data(WORKED)
    if case == "overflow":
        data = _OVERFLOWING_PROBLEM
    elif case == "schema":
        data = {"n": 0}
    elif case == "verify":
        run = tmp_path / "solved"
        assert main(["solve", "--config", str(write_problem(
            tmp_path / "worked.json")), "--out", str(run)]) == 0
        data = json.loads((run / "solution.json").read_text())
        data["parts"][0]["coeffs"][0][0] += 0.1
    cfg = tmp_path / "config.json"
    formats.save_json(cfg, data)
    return ["verify" if case == "verify" else "solve", "--config", str(cfg)]


@pytest.mark.parametrize("case, code", [
    ("help", 0), ("solve", 0), ("schema", 1), ("usage", 2), ("verify", 2),
    ("overflow", 3),
])
def test_module_entry_matches_in_process_main(tmp_path, monkeypatch, capsys,
                                              case, code):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    args = _entry_case(tmp_path, case)
    results, files = [], []
    for route in ("module", "in-process"):
        out = tmp_path / route
        argv = args if case == "help" else [*args, "--out", str(out)]
        results.append(_run_module(argv) if route == "module"
                       else _run_in_process(argv, capsys))
        files.append({f.name: f.read_bytes() for f in out.glob("*")
                      if f.name != "report.json"})
    assert results[0] == results[1]
    assert results[0][0] == code
    assert files[0] == files[1]


def test_module_entry_transform_writes_the_in_process_bytes(tmp_path):
    # 256x512 forks grid workers before the entry's os._exit
    cfg = tmp_path / "transform.json"
    formats.save_json(cfg, {"operator": "teodorescu", "f": {"terms": [
        {"m": 0, "k": 1, "re": 0.3, "im": -0.7},
        {"m": 2, "k": 1, "re": -1.1, "im": 0.2}]}})
    args = ["transform", "--config", str(cfg), "--grid", "256x512", "--out"]
    assert _run_module([*args, str(tmp_path / "module")])[0] == 0
    assert main([*args, str(tmp_path / "in-process")]) == 0
    written = [(tmp_path / route / "transform.csv").read_bytes()
               for route in ("module", "in-process")]
    assert written[0] == written[1]
    assert written[0].count(b"\n") == 1 + 256 * 512


def _fresh_run(script: str, *args: str) -> subprocess.CompletedProcess:
    """``script`` run with ``args`` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-c", script, *args],
                          env=_fresh_env(),
                          capture_output=True, text=True, timeout=120)


def _fresh(script: str) -> str:
    """The standard output of ``script`` run in a fresh interpreter."""
    done = _fresh_run(script)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("case, code", [
    ("solve", 0), ("help", 0), ("usage", 2),
])
def test_entry_runs_the_command_line_with_the_collector_off(tmp_path, case,
                                                            code):
    # a fresh process: the entry imports the command line and runs it without
    # a collection, with nothing frozen, and leaves through os._exit, so no
    # exit handler runs; the probe's line goes to stdout, which os._exit
    # would lose unflushed
    cfg = write_problem(tmp_path / "problem.json")
    args = {"solve": ["solve", "--config", str(cfg), "--out",
                      str(tmp_path / "run")],
            "help": ["--help"], "usage": ["verify"]}[case]
    done = _fresh_run("""if True:
        import argparse, atexit, gc, sys
        from metadisk.__main__ import entry
        parse_args = argparse.ArgumentParser.parse_args

        def probe(parser, *args, **kwargs):
            print(gc.isenabled(), gc.get_freeze_count(),
                  "metadisk.cli" in sys.modules)
            return parse_args(parser, *args, **kwargs)

        argparse.ArgumentParser.parse_args = probe
        atexit.register(print, "exit handler")
        sys.argv = ["metadisk", *sys.argv[1:]]
        gc.collect()  # so none falls due before the entry's gc.disable()
        gc.callbacks.append(lambda phase, info: phase == "start"
                            and print("collection"))
        entry()
    """, *args)
    assert done.returncode == code, done.stderr
    probe, _, rest = done.stdout.partition("\n")
    assert probe == "False 0 True"
    assert "collection" not in rest and "exit handler" not in rest
    if case == "solve":
        assert rest == ""
    if case == "help":
        assert rest.endswith("show this help message and exit\n")
    if case == "usage":
        assert done.stderr.endswith("metadisk verify: error: the following "
                                    "arguments are required: --config\n")
    else:
        assert done.stderr == ""


def test_entry_keeps_the_traceback_of_an_uncaught_exception():
    done = _fresh_run("""if True:
        import atexit
        from metadisk import cli
        from metadisk.__main__ import entry

        def main(argv=None):
            print("before the fault")
            raise RuntimeError("planted fault")

        cli.main = main
        atexit.register(print, "exit handler")
        entry()
    """)
    assert done.returncode == 1
    assert done.stdout == "before the fault\nexit handler\n"
    assert done.stderr.startswith("Traceback (most recent call last):")
    assert done.stderr.endswith("RuntimeError: planted fault\n")


def test_import_metadisk_loads_no_submodule_and_resolves_every_name():
    out = _fresh("""if True:
        import sys
        import metadisk
        print(sorted(m for m in sys.modules
                     if m.startswith(("numpy", "metadisk."))))
        print(all(getattr(sys.modules[getattr(metadisk, name).__module__],
                          name) is getattr(metadisk, name)
                  for name in metadisk.__all__))
    """)
    assert out == "[]\nTrue\n"
    import metadisk
    with pytest.raises(AttributeError, match="no attribute 'absent'"):
        metadisk.absent
