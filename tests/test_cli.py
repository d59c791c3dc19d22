"""Command-line behavior: exit codes, emitted files, determinism, formats."""

import functools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from metadisk import cli, formats
from metadisk.boundary import BoundaryDistribution
from metadisk.cli import RunConfig, _parse_grid, main
from metadisk.disk import PolarGrid
from metadisk.errors import SchemaViolation
from metadisk.integral import PolyAnalytic
from metadisk.schwarz import SchwarzProblem

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


def test_run_config_validation(tmp_path):
    with pytest.raises(ValueError):
        RunConfig("solve", tmp_path / "x", tmp_path, grid=(2, 64))
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            RunConfig("solve", tmp_path / "x", tmp_path,
                      tolerances={"pde_residual": bad})
    cfg = RunConfig("solve", tmp_path / "x", tmp_path, radial_depth=8)
    assert len(cfg.radial_sequence()) == 9


def test_unknown_tolerance_name_exits_one(tmp_path):
    with pytest.raises(ValueError, match="unknown tolerance"):
        RunConfig("solve", tmp_path / "x", tmp_path,
                  tolerances={"quadrature": 1e-8})
    cfg = write_problem(tmp_path / "problem.json")
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "run"),
                 "--tol", "pde_residul=1e-9"])
    assert code == 1
    assert not (tmp_path / "run").exists()


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
    for path, names in ((out, ("sample_grid", "write")), (check, ("load",))):
        timings = json.loads((path / "report.json").read_text())["timings"]
        for name in names:
            assert timings[name] >= 0.0


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
    grid = PolarGrid.rings(np.array([0.3, 0.5, 0.7, 0.9]), 16)
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
])
def test_flags_a_command_does_not_read_exit_two(argv):
    with pytest.raises(SystemExit) as err:
        main([argv[0], "--config", "x.json", *argv[1:]])
    assert err.value.code == 2


def _with_nan_coefficient(data):
    data["A"]["terms"][0]["re"] = float("nan")


def _with_infinite_level(data):
    data["levels"][0]["h"]["coeffs"][0][1] = float("inf")


def _with_nan_part(data):
    data["parts"][0]["coeffs"][0][0] = float("nan")


@pytest.mark.parametrize("command, corrupt", [
    ("solve", _with_nan_coefficient),
    ("solve", _with_infinite_level),
    ("verify", _with_nan_part),
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
    bad.write_text(json.dumps(data))  # json writes NaN and Infinity bare
    capsys.readouterr()
    code = main([command, "--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out").exists()


_HUGE = {"terms": [{"m": 0, "k": 0, "re": 1.7e308, "im": 0},
                   {"m": 1, "k": 0, "re": 1.7e308, "im": 0}]}


@pytest.mark.parametrize("command, data, grid", [
    ("transform", {"operator": "teodorescu", "f": _HUGE}, "4x8"),
    ("transform", {"operator": "schwarz_pompeiu", "f": _HUGE}, "4x8"),
    ("poisson", {"type": "holo_series",
                 "coeffs": [[1.7e308, 0], [1.7e308, 0]]}, "4x8"),
    ("poisson", {"type": "holo_series",
                 "coeffs": [[1.7e308, 0], [1.7e308, 0]]}, "64x512"),
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
    assert list(out.iterdir()) == []


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
    assert list(out.iterdir()) == []


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
        files.append(next(out.iterdir()).read_bytes())
    assert files[0] == files[1]
    assert files[0].count(b"\n") == 1 + 256 * 512


def test_report_holds_the_boundary_table(tmp_path):
    # three radii leave the z^5 pairings unsettled (see test_schwarz)
    problem = SchwarzProblem(
        n=1, coeff=PolyAnalytic.zero(),
        levels=((PolyAnalytic.holomorphic((0, 0, 0, 0, 0, 1.0)), 0.0),))
    cfg = write_problem(tmp_path / "problem.json", problem)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfg), "--out", str(out),
                 "--radial-depth", "2", "--tol", "boundary_pairing_max=1"]) == 2
    text = (out / "report.json").read_text()
    report = json.loads(text)
    assert text == json.dumps(report, sort_keys=True,
                              separators=(",", ":")) + "\n"  # compact
    assert "boundary_rows" not in report
    table = report["boundary"]
    shape = (problem.n, len(table["tests"]))
    assert table["tests"][0] == "harmonic[-10]" and shape == (1, 21)
    for key in ("lhs", "rhs", "residual", "stabilized", "tail_residual"):
        assert np.shape(table[key])[:2] == shape, key
    assert table["residual"] == [
        [abs(complex(*lhs) - complex(*rhs)) for lhs, rhs in zip(*level)]
        for level in zip(table["lhs"], table["rhs"])]
    checks = {c["name"]: c for c in report["checks"]}
    unstable = np.logical_not(table["stabilized"])
    assert checks["boundary_unstabilized"]["value"] == unstable.sum() == 2
    assert np.all(np.array(table["tail_residual"])[unstable] > 0.1)


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
    grid = PolarGrid.rings(np.array([0.3, 0.5, 0.7, 0.9]), 16)
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


def test_aliased_angular_grid_exits_three(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    problem = SchwarzProblem(
        n=1, coeff=PolyAnalytic.zero(),
        levels=((PolyAnalytic.holomorphic(rng.standard_normal(91) * 0.01), 0.0),))
    cfg = write_problem(tmp_path / "problem.json", problem)
    args = ["solve", "--config", str(cfg), "--out", str(tmp_path / "run")]
    assert main(args) == 0
    monkeypatch.setattr(cli, "solve_meta",
                        functools.partial(cli.solve_meta, n_theta=256))
    assert main(args) == 3


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
