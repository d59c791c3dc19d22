"""Wall-time benchmark of the metadisk command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it runs the program from ``src`` there.
It writes the workload's seeded inputs under ``perfbench/.work``, then runs
the workload's commands in order, one fresh ``python -m metadisk`` process at
a time, for whole passes until the next pass would end after S seconds (one
pass at least; with ``--trace 0``, at least MIN_COMMANDS commands, and a
``metadisk --help`` before every SETUP_EVERY-th command). Every
output is checked by workloads.py; a non-zero exit or a failed check counts as
a failed command.

With ``--trace 0`` it reports the end-to-end metrics: the start-up time of
``metadisk --help``, per-command wall time from spawn to exit, throughput,
success share and peak RSS. With ``--trace 1`` each command also runs a second
time under launch.py, which records spans around each layer's public
functions, and it reports the per-layer metrics, the import breakdown of
start-up and the tracing overhead. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

Every command gets the same pinned BLAS thread count, so that the first
least-squares call in a process costs the same on every machine and commit,
and bytecode caching on, as an installed package has it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
from importlib import metadata
from pathlib import Path
from time import perf_counter

import workloads
from launch import READS, SPAN_NAMES, WRITES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

BLAS_THREADS = "1"
SETUP_EVERY = 2       # commands per start-up sample
IMPORT_RUNS = 3
RUN_LIMIT_S = 170.0   # every run must end within 180 s
MIN_COMMANDS = 40     # so that ten command times lie above the p75
COMMANDS = ("solve", "verify", "transform", "poisson", "decompose")

END_TO_END = (
    ("setup_s", "s"),
    ("cmd_p50_s", "s"),
    ("cmd_tail_s", "s"),
    ("cmds_per_s", "1/s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)


def _span_metrics():
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.calls", "count", "lower"),
                (f"{name}.s", "s", "lower"),
                (f"{name}.self_s", "s", "lower"),
                (f"{name}.errors", "count", "lower")]
    out += [(f"{name}.bytes", "B", "lower") for name in sorted(WRITES | READS)]
    out += [("disk.disk_quadrature.nodes", "count", "lower"),
            ("boundary.pairing_limit.stabilized_ratio", "ratio", "higher"),
            ("boundary.ring_evals", "count", "lower"),
            ("schwarz.verify_boundary_conditions.rows", "count", "lower"),
            ("schwarz.negative_control_s", "s", "lower")]
    return out


# Per-pass sums behind the span metrics; the stabilized count becomes a ratio.
LAYER_TOTALS = [name for name, _, _ in _span_metrics()
                if name != "boundary.pairing_limit.stabilized_ratio"]
LAYER_TOTALS.append("boundary.pairing_limit.stabilized")

PER_LAYER = (
    [("cli.import_s", "s", "lower"),
     ("cli.import.numpy_s", "s", "lower"),
     ("cli.import.jsonschema_s", "s", "lower"),
     ("cli.import.metadisk_s", "s", "lower")]
    + _span_metrics()
    + [(f"cmd.{cmd}.p50_s", "s", "lower") for cmd in COMMANDS]
    + [("cmd.solve.tail_s", "s", "lower"), ("cmd.verify.tail_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower")]
)


def tail(values: list[float]) -> float:
    """The 75th percentile, on every workload and commit.

    A fixed percentile keeps the statistic the same when a faster program
    fits more commands into a run.
    """
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def command_env() -> dict:
    """The caller's environment with the settings that change timings pinned.

    Bytecode writing stays on, so the warm-up caches metadisk's bytecode under
    src as an installed package has it; without the cache every command would
    compile the package again.
    """
    env = dict(os.environ)
    for var in ("PYTHONSTARTUP", "PYTHONDONTWRITEBYTECODE"):
        env.pop(var, None)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def environment() -> dict:
    import numpy

    info = {"python": platform.python_version()}
    for package in ("numpy", "jsonschema"):
        try:
            info[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            info[package] = "missing"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        info["blas"] = "unknown"
    info["blas_threads"] = int(BLAS_THREADS)
    info["nproc"] = len(os.sched_getaffinity(0))
    info["machine"] = platform.machine()
    info["commit"] = git_commit()
    return info


class Bench:
    """Launches commands one at a time and counts attempts and failures."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = command_env()
        self.attempted = 0
        self.failures: list[str] = []
        self.logs = WORK / "logs"
        self.logs.mkdir(parents=True)

    def spawn(self, argv: list[str], log: Path) -> tuple[float, int, float]:
        """Run argv to exit: wall seconds, exit code and peak RSS in MB."""
        with log.open("wb") as out:
            start = perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(max(1.0, self.deadline - perf_counter()),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0

    def record(self, label: str, problem: str | None) -> bool:
        self.attempted += 1
        if problem:
            self.failures.append(f"{label}: {problem}")
        return not problem

    def metadisk(self, args: list[str], log: Path, python_flags=()):
        argv = [sys.executable, *python_flags, "-m", "metadisk", *args]
        return self.spawn(argv, log)

    def help(self) -> float:
        log = self.logs / "help.log"
        wall, code, _ = self.metadisk(["--help"], log)
        text = log.read_text(errors="replace")
        problem = None
        if code != 0 or not text.startswith("usage: metadisk"):
            problem = f"exit {code}, output {text[:80]!r}"
        self.record("--help", problem)
        return wall

    def import_times(self) -> dict[str, float]:
        log = self.logs / "importtime.log"
        _, code, _ = self.metadisk(["--help"], log, ("-X", "importtime"))
        self.record("-X importtime --help", None if code == 0 else f"exit {code}")
        return parse_importtime(log.read_text(errors="replace"))

    def command(self, op: workloads.Op, label: str,
                trace: Path | None = None) -> tuple[float, float, bool]:
        """Run one workload command and check it: (wall, peak RSS, ok)."""
        shutil.rmtree(op.out, ignore_errors=True)
        log = self.logs / f"{label}.log"
        if trace is None:
            wall, code, rss = self.metadisk([op.cmd, *op.argv], log)
        else:
            wall, code, rss = self.spawn(
                [sys.executable, str(HERE / "launch.py"), str(trace), label,
                 "--", op.cmd, *op.argv], log)
        if code != 0:
            lines = log.read_text(errors="replace").strip().splitlines()
            problem = f"exit {code}: {lines[-1] if lines else ''}"
        else:
            problem = op.check(op.out)
        return wall, rss, self.record(f"{label} {op.cmd}", problem)


def parse_importtime(text: str) -> dict[str, float]:
    """Import seconds from ``-X importtime`` lines.

    cli.import_s is the sum of every module's own time; the numpy and
    jsonschema figures are their packages' cumulative times; metadisk is the
    cumulative time of the top-level metadisk imports, which include both.
    """
    pattern = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)")
    out = {"cli.import_s": 0.0, "cli.import.numpy_s": 0.0,
           "cli.import.jsonschema_s": 0.0, "cli.import.metadisk_s": 0.0}
    for line in text.splitlines():
        match = pattern.match(line)
        if not match:
            continue
        own, cumulative = int(match[1]) * 1e-6, int(match[2]) * 1e-6
        top_level, name = len(match[3]) == 1, match[4]
        out["cli.import_s"] += own
        if name in ("numpy", "jsonschema"):
            out[f"cli.import.{name}_s"] = cumulative
        if top_level and name.split(".")[0] == "metadisk":
            out["cli.import.metadisk_s"] += cumulative
    return out


def add_trace(totals: dict[str, float], trace: dict) -> None:
    """Fold one command's spans into the totals; self time excludes children."""
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            covered[span["parent"]] += span["end"] - span["start"]
    for span, children in zip(spans, covered):
        name, duration = span["name"], span["end"] - span["start"]
        totals[f"{name}.calls"] += 1
        totals[f"{name}.s"] += duration
        totals[f"{name}.self_s"] += duration - children
        totals[f"{name}.errors"] += span["error"]
        for extra in ("bytes", "nodes", "rows", "stabilized"):
            if extra in span:
                totals[f"{name}.{extra}"] += span[extra]
    for key, value in trace["counters"].items():
        totals[key] += value


def negative_control_s(out: Path) -> float:
    try:
        report = json.loads((out / "report.json").read_text())
        return float(report["timings"]["negative_control"])
    except (OSError, KeyError, ValueError):
        return 0.0


def run_passes(bench: Bench, ops, seconds: float, traced: bool,
               min_commands: int = 0, setups: list[float] | None = None):
    """Run whole passes over the workload's commands.

    Passes continue while the next one is expected to end within ``seconds``
    or fewer than ``min_commands`` commands have run. Given ``setups``, a
    ``--help`` runs before every SETUP_EVERY-th command and its wall time is
    appended, so start-up samples spread over the whole run.

    Returns untraced wall times per command, the peak RSS, the number of
    passes, per-pass tracing overhead and the summed layer totals.
    """
    walls = {cmd: [] for cmd in COMMANDS}
    peak_rss = 0.0
    overheads = []
    totals = dict.fromkeys(LAYER_TOTALS, 0.0)
    start = perf_counter()
    passes = 0
    while True:
        pass_start = perf_counter()
        plain = with_trace = 0.0
        for i, op in enumerate(ops):
            commands = passes * len(ops) + i
            if setups is not None and commands % SETUP_EVERY == 0:
                setups.append(bench.help())
            label = f"p{passes}-{i}"
            wall, rss, ok = bench.command(op, label)
            walls[op.cmd].append(wall)
            peak_rss = max(peak_rss, rss)
            plain += wall
            if not traced:
                continue
            if ok and op.cmd in ("solve", "verify"):
                totals["schwarz.negative_control_s"] += negative_control_s(op.out)
            trace = WORK / "traces" / f"{label}.json"
            trace.parent.mkdir(exist_ok=True)
            wall, _, ok = bench.command(op, label + "-traced", trace)
            with_trace += wall
            if trace.is_file():
                add_trace(totals, json.loads(trace.read_text()))
                trace.unlink()
        passes += 1
        overheads.append(with_trace - plain)
        now = perf_counter()
        last = now - pass_start
        if now + last > bench.deadline or (
                now + last - start > seconds
                and passes * len(ops) >= min_commands):
            break
    return walls, peak_rss, passes, overheads, totals


def end_to_end(bench: Bench, ops, seconds: float):
    bench.help()  # fills the bytecode cache, which users pay once
    setups: list[float] = []
    walls, peak_rss, passes, _, _ = run_passes(
        bench, ops, seconds, traced=False, min_commands=MIN_COMMANDS,
        setups=setups)
    every = [w for cmd in COMMANDS for w in walls[cmd]]
    ok = bench.attempted - len(bench.failures)
    metrics = {
        "setup_s": statistics.median(setups),
        "cmd_p50_s": statistics.median(every),
        "cmd_tail_s": tail(every),
        "cmds_per_s": len(every) / sum(every),
        "ok_frac": ok / bench.attempted,
        "peak_rss_mb": peak_rss,
    }
    print(f"passes {passes}, commands {len(every)}, start-up samples "
          f"{len(setups)}, fail_frac {len(bench.failures) / bench.attempted:.4f}")
    print_commands(walls)
    print(f"cmd_tail_s is the p75 of {len(every)} command times")
    units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"  {name:<14} {value:12.6g} {units[name]}")
    return metrics


def print_commands(walls: dict[str, list[float]]) -> None:
    print(f"  {'command':<10} {'n':>4} {'p50_s':>10} {'p75_s':>10}")
    for cmd, values in walls.items():
        if values:
            print(f"  {cmd:<10} {len(values):>4} "
                  f"{statistics.median(values):10.4f} {tail(values):10.4f}")


def per_layer(bench: Bench, ops, seconds: float):
    bench.help()  # fills the bytecode cache before the import breakdown
    imports = [bench.import_times() for _ in range(IMPORT_RUNS)]
    walls, _, passes, overheads, totals = run_passes(
        bench, ops, seconds, traced=True)
    metrics = {key: statistics.median(run[key] for run in imports)
               for key in imports[0]}
    for key, value in totals.items():
        if key != "boundary.pairing_limit.stabilized":
            metrics[key] = value / passes
    attempted = totals["boundary.pairing_limit.calls"]
    metrics["boundary.pairing_limit.stabilized_ratio"] = (
        totals["boundary.pairing_limit.stabilized"] / attempted
        if attempted else 0.0)
    for cmd in COMMANDS:
        values = walls[cmd]
        metrics[f"cmd.{cmd}.p50_s"] = statistics.median(values) if values else 0.0
    for cmd in ("solve", "verify"):
        metrics[f"cmd.{cmd}.tail_s"] = tail(walls[cmd]) if walls[cmd] else 0.0
    metrics["trace.overhead_s"] = statistics.median(overheads)

    print(f"traced passes {passes}; layer figures are per pass")
    print_commands(walls)
    plain = sum(sum(v) for v in walls.values()) / passes
    print(f"tracing overhead {metrics['trace.overhead_s']:.4f} s per pass "
          f"on {plain:.4f} s untraced")
    in_process = metrics["cli.main.s"]
    print(f"self-time shares of {in_process:.4f} s in-process per pass:")
    shares = sorted(((metrics[f"{n}.self_s"], n) for n in SPAN_NAMES),
                    reverse=True)
    for self_s, name in shares:
        if self_s > 0:
            print(f"  {name:<40} {self_s:10.4f} s "
                  f"{self_s / in_process:7.1%}  calls {metrics[name + '.calls']:g}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "metadisk" / "__main__.py").is_file():
        print(f"error: no metadisk sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    deadline = perf_counter() + RUN_LIMIT_S
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    bench = Bench(deadline)
    ops = workloads.build(args.workload, args.seed, WORK)
    if args.trace:
        metrics = per_layer(bench, ops, args.seconds)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics = end_to_end(bench, ops, args.seconds)
        units = dict(END_TO_END)
    for failure in bench.failures[:10]:
        print("FAILED " + failure, file=sys.stderr)
    if not bench.failures:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
