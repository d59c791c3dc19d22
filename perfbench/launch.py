"""Run one metadisk CLI command in this process with spans around its layers.

    python perfbench/launch.py TRACE_JSON COMMAND_ID -- <metadisk arguments>

Before calling ``metadisk.cli.main`` the launcher replaces each function in
SPANS, at every name a metadisk module binds it to, with a wrapper that
records a span: name, start, end, parent span, command id and whether it
raised. ``CircleSampler`` is replaced by a subclass that counts evaluations of
the sampled function on rings. Spans stay in memory and are written to
TRACE_JSON when the command returns. The program's own code is not changed.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
from time import perf_counter

# (module, function) of every traced public function; the span name is
# "<module>.<function>". A function or module the program no longer defines
# is skipped, so its metrics read zero calls.
SPANS = (
    ("cli", "main"),
    ("formats", "problem_from_data"),
    ("formats", "solution_from_data"),
    ("formats", "save_json"),
    ("formats", "write_solution_csv"),
    ("formats", "write_values_csv"),
    ("formats", "read_values_csv"),
    ("integral", "similarity_factor"),
    ("integral", "schwarz_pompeiu"),
    ("integral", "teodorescu_poly"),
    ("disk", "disk_quadrature"),
    ("boundary", "pairing_limit"),
    ("boundary", "poisson_extend"),
    ("meta", "pde_residual"),
    ("meta", "poly_decompose"),
    ("schwarz", "solve_poly_chain"),
    ("schwarz", "verify_solution"),
    ("schwarz", "verify_boundary_conditions"),
)
SPAN_NAMES = tuple(f"{module}.{name}" for module, name in SPANS)

# Spans that also record the size of the file they write (first argument,
# after the call) or read (before the call).
WRITES = {"formats.save_json", "formats.write_solution_csv",
          "formats.write_values_csv"}
READS = {"formats.read_values_csv"}


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _quadrature_nodes(signature, args, kwargs) -> int:
    """Nodes of one disk_quadrature call, including its refinement pass."""
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    n_radial = bound.arguments.get("n_radial", 0)
    n_angular = bound.arguments.get("n_angular", 0)
    nodes = n_radial * n_angular
    if bound.arguments.get("tol") is not None:
        nodes += max(8, n_radial // 2) * max(8, n_angular // 2)
    return nodes


class Tracer:
    """Spans and ring-evaluation counts of one command, kept in memory."""

    def __init__(self, command_id: str):
        self.command_id = command_id
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.ring_evals = 0

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn) if name == "disk.disk_quadrature" \
            else None

        def traced(*args, **kwargs):
            span = {"name": name, "cmd": self.command_id,
                    "parent": self.stack[-1] if self.stack else -1,
                    "error": False}
            if name in READS:
                span["bytes"] = _file_size(args[0] if args else None)
            if signature is not None:
                span["nodes"] = _quadrature_nodes(signature, args, kwargs)
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = perf_counter()
                self.stack.pop()
            if name in WRITES:
                span["bytes"] = _file_size(args[0] if args else None)
            elif name == "boundary.pairing_limit":
                span["stabilized"] = bool(getattr(result, "stabilized", False))
            elif name == "schwarz.verify_boundary_conditions":
                span["rows"] = len(getattr(result, "rows", ()))
            return result

        traced.__wrapped__ = fn
        return traced

    def counting_sampler(self, base):
        tracer = self

        class CountingSampler(base):
            def __init__(self, fn, *args, **kwargs):
                def counted(z):
                    tracer.ring_evals += 1
                    return fn(z)
                super().__init__(counted, *args, **kwargs)

        return CountingSampler

    def install(self) -> None:
        """Rebind every traced name in every loaded metadisk module."""
        import importlib

        def load(module_name):
            name = f"metadisk.{module_name}"
            try:
                return importlib.import_module(name)
            except ModuleNotFoundError as exc:
                if exc.name != name:
                    raise
                return None

        replacements = {}
        for module_name, fn_name in SPANS:
            original = getattr(load(module_name), fn_name, None)
            if original is not None:
                replacements[id(original)] = self.wrap(
                    f"{module_name}.{fn_name}", original)
        sampler = getattr(load("boundary"), "CircleSampler", None)
        if sampler is not None:
            replacements[id(sampler)] = self.counting_sampler(sampler)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "metadisk" and not mod_name.startswith("metadisk."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    setattr(module, attr, replacements[id(value)])

    def dump(self, path: str, argv: list[str], code) -> None:
        with open(path, "w") as fh:
            json.dump({"cmd": self.command_id, "argv": argv, "exit": code,
                       "spans": self.spans,
                       "counters": {"boundary.ring_evals": self.ring_evals}},
                      fh)


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    trace_path, command_id, argv = sys.argv[1], sys.argv[2], sys.argv[4:]
    tracer = Tracer(command_id)
    from metadisk import cli

    tracer.install()
    code = None
    try:
        code = cli.main(argv)
    finally:
        tracer.dump(trace_path, argv, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
