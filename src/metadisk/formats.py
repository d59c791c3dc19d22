"""File formats: JSON schemas for problems and solutions, CSV for sampled grids.

Input documents are checked against the schemas here, with the Draft
2020-12 semantics and messages of jsonschema, which the tests use as oracle.

Complex numbers are stored as [re, im] pairs.  All JSON is written with
sorted keys and all floats via repr, so identical inputs produce
byte-identical files; report.json is written compact, the others with a
2-space indent.  A grid CSV has a header, then one row per grid point, ring
by ring: r, theta, then the real and imaginary part of each sampled array,
every float in Python's shortest round-trip repr (nan, inf, -0.0).  Large
grids are sampled and formatted by forked workers, one block of rings each,
and the bytes do not depend on how many there are.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
from numbers import Number
from pathlib import Path

import numpy as np

from .boundary import BoundaryDistribution
from .disk import PolarGrid
from .errors import SchemaViolation
from .integral import PolyAnalytic, similarity_factor
from .meta import MetaExpr
from .schwarz import BoundaryReport, SchwarzProblem, SchwarzSolution

COMPLEX_PAIR = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}

BIVAR_POLY_SCHEMA = {
    "type": "object",
    "properties": {
        "terms": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "m": {"type": "integer", "minimum": 0},
                    "k": {"type": "integer", "minimum": 0},
                    "re": {"type": "number"},
                    "im": {"type": "number"},
                },
                "required": ["m", "k", "re", "im"],
                "additionalProperties": False,
            },
        }
    },
    "required": ["terms"],
    "additionalProperties": False,
}

HOLO_SERIES_SCHEMA = {
    "type": "object",
    "properties": {"coeffs": {"type": "array", "items": COMPLEX_PAIR, "minItems": 1}},
    "required": ["coeffs"],
    "additionalProperties": False,
}

BOUNDARY_DATA_SCHEMA = {
    "type": "object",
    "properties": {
        "type": {"enum": ["holo_series", "fourier"]},
        "coeffs": {"type": "array", "items": COMPLEX_PAIR, "minItems": 1},
        "min_index": {"type": "integer"},
    },
    "required": ["type", "coeffs"],
    "additionalProperties": False,
}

PROBLEM_SCHEMA = {
    "type": "object",
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "A": BIVAR_POLY_SCHEMA,
        "psi_kind": {"enum": ["cauchy", "schwarz"]},
        "levels": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "properties": {"h": HOLO_SERIES_SCHEMA, "c": {"type": "number"}},
                "required": ["h", "c"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["n", "A", "psi_kind", "levels"],
    "additionalProperties": False,
}

SOLUTION_SCHEMA = {
    "type": "object",
    "properties": {
        "A": BIVAR_POLY_SCHEMA,
        "psi_kind": {"enum": ["cauchy", "schwarz"]},
        "parts": {"type": "array", "items": HOLO_SERIES_SCHEMA, "minItems": 1},
        "I": {"type": "array", "items": COMPLEX_PAIR},
        "diagnostics": {"type": "object"},
        "problem": PROBLEM_SCHEMA,
    },
    "required": ["A", "psi_kind", "parts", "I", "problem"],
    "additionalProperties": False,
}

TRANSFORM_CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "operator": {"enum": ["teodorescu", "schwarz_pompeiu"]},
        "f": BIVAR_POLY_SCHEMA,
    },
    "required": ["operator", "f"],
    "additionalProperties": False,
}

DECOMPOSE_CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "order": {"type": "integer", "minimum": 1},
        "samples": {"type": "string"},
    },
    "required": ["order", "samples"],
    "additionalProperties": False,
}

VALUE_CSV_HEADER = "r,theta,re_value,im_value"
SOLUTION_CSV_HEADER = "r,theta,re_w,im_w,re_residual,im_residual"


def _is_number(x) -> bool:
    # the exact-type test first: isinstance against the Number ABC is slower
    return type(x) in (int, float) or (isinstance(x, Number)
                                       and not isinstance(x, bool))


def _is_integer(x) -> bool:
    if isinstance(x, float):
        return x.is_integer()
    return isinstance(x, int) and not isinstance(x, bool)


# Draft 2020-12 types: 1.0 is an integer, True is not a number, NaN is one.
_IS_TYPE = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "number": _is_number,
    "integer": _is_integer,
}


def _schema_errors(instance, schema: dict, path: tuple, errors: list) -> None:
    """Append (path, message) for each way ``instance`` breaks ``schema``.

    Errors come in the order jsonschema's Draft 2020-12 validator yields
    them, keyword by keyword in schema order, with its messages.  Only the
    keywords of this module's schemas are known; any other raises.
    """
    for keyword, value in schema.items():
        if keyword == "type":
            if not _IS_TYPE[value](instance):
                errors.append((path, f"{instance!r} is not of type {value!r}"))
        elif keyword == "properties":
            if isinstance(instance, dict):
                for name, subschema in value.items():
                    if name in instance:
                        _schema_errors(instance[name], subschema,
                                       path + (name,), errors)
        elif keyword == "items":
            if isinstance(instance, list):
                for i, item in enumerate(instance):
                    _schema_errors(item, value, path + (i,), errors)
        elif keyword == "required":
            if isinstance(instance, dict):
                errors.extend((path, f"{name!r} is a required property")
                              for name in value if name not in instance)
        elif keyword == "additionalProperties" and value is False:
            if isinstance(instance, dict):
                extras = sorted((name for name in instance
                                 if name not in schema.get("properties", {})),
                                key=str)
                if extras:
                    verb = "was" if len(extras) == 1 else "were"
                    errors.append((path, "Additional properties are not "
                                   f"allowed ({', '.join(map(repr, extras))} "
                                   f"{verb} unexpected)"))
        elif keyword == "minItems":
            if isinstance(instance, list) and len(instance) < value:
                errors.append((path, f"{instance!r} " + (
                    "should be non-empty" if value == 1 else "is too short")))
        elif keyword == "maxItems":
            if isinstance(instance, list) and len(instance) > value:
                errors.append((path, f"{instance!r} " + (
                    "is expected to be empty" if value == 0 else "is too long")))
        elif keyword == "minimum":
            if _is_number(instance) and instance < value:
                errors.append((path, f"{instance!r} is less than the minimum "
                               f"of {value!r}"))
        elif keyword == "enum":
            if instance not in value:
                errors.append((path, f"{instance!r} is not one of {value!r}"))
        else:
            raise NotImplementedError(f"schema keyword {keyword!r}: {value!r}")


def check_schema(data, schema: dict) -> None:
    """Raise SchemaViolation if data does not match the schema.

    Of several errors it reports the one ``jsonschema.exceptions.best_match``
    picks: the shallowest, then the greatest path among equally deep ones,
    then the first in schema keyword order.  The tests hold it to
    ``jsonschema.validate`` on drawn documents.
    """
    errors: list = []
    _schema_errors(data, schema, (), errors)
    if errors:
        path, message = max(errors, key=lambda e: (-len(e[0]), e[0]))
        raise SchemaViolation(message, path)


def complex_pair(c) -> list[float]:
    c = complex(c)
    return [c.real, c.imag]


def pair_complex(v) -> complex:
    return complex(float(v[0]), float(v[1]))


def bivar_to_data(poly: PolyAnalytic) -> dict:
    """The nonzero terms in sorted (m, k) order."""
    m, k, c = (a.tolist() for a in poly.sorted_terms())
    return {"terms": [{"m": m, "k": k, "re": c.real, "im": c.imag}
                      for m, k, c in zip(m, k, c)]}


def bivar_from_data(data: dict) -> PolyAnalytic:
    """A repeated (m, k) keeps its last coefficient."""
    return PolyAnalytic.from_terms({
        (int(t["m"]), int(t["k"])): complex(t["re"], t["im"])
        for t in data["terms"]
    })


def holo_to_data(coeffs) -> dict:
    """A holomorphic series from its coefficients, by ascending power."""
    return {"coeffs": [complex_pair(c) for c in coeffs]}


def holo_from_data(data: dict) -> PolyAnalytic:
    return PolyAnalytic.holomorphic([pair_complex(v) for v in data["coeffs"]])


def parts_to_data(poly: PolyAnalytic) -> list[dict]:
    """Each holomorphic part trimmed to its last nonzero coefficient, keeping
    at least one."""
    parts = []
    for row in poly.c:
        nonzero = np.flatnonzero(row)
        parts.append(holo_to_data(row[:nonzero[-1] + 1 if nonzero.size else 1]))
    return parts


def parts_from_data(parts: list[dict]) -> PolyAnalytic:
    """Parts of any lengths, zero-padded to the longest."""
    rows = [[pair_complex(v) for v in part["coeffs"]] for part in parts]
    c = np.zeros((len(rows), max(map(len, rows))), dtype=complex)
    for k, row in enumerate(rows):
        c[k, :len(row)] = row
    return PolyAnalytic(c)


def boundary_from_data(data: dict) -> BoundaryDistribution:
    check_schema(data, BOUNDARY_DATA_SCHEMA)
    coeffs = [pair_complex(v) for v in data["coeffs"]]
    start = int(data.get("min_index", 0))
    if data["type"] == "holo_series" and start != 0:
        raise ValueError("holo_series data starts at frequency 0")
    return BoundaryDistribution({start + i: c for i, c in enumerate(coeffs)})


def problem_to_data(problem: SchwarzProblem) -> dict:
    return {
        "n": problem.n,
        "A": bivar_to_data(problem.coeff),
        "psi_kind": problem.factor_kind,
        "levels": [
            {"h": holo_to_data(h.c[0]), "c": c} for h, c in problem.levels
        ],
    }


def problem_from_data(data: dict) -> SchwarzProblem:
    check_schema(data, PROBLEM_SCHEMA)
    n = int(data["n"])
    if len(data["levels"]) != n:
        raise ValueError(
            f"problem declares n={n} but carries {len(data['levels'])} levels"
        )
    return SchwarzProblem(
        n=n,
        coeff=bivar_from_data(data["A"]),
        levels=tuple(
            (holo_from_data(level["h"]), level["c"]) for level in data["levels"]
        ),
        factor_kind=data["psi_kind"],
    )


def solution_to_data(sol: SchwarzSolution) -> dict:
    """The solution alone; its checks and timings go to report.json."""
    return {
        "A": bivar_to_data(sol.problem.coeff),
        "psi_kind": sol.problem.factor_kind,
        "parts": parts_to_data(sol.w.poly),
        "I": [complex_pair(c) for c in sol.constants],
        "problem": problem_to_data(sol.problem),
    }


def solution_from_data(data: dict):
    """Rebuild (w, constants, problem) from a solution file.

    The similarity factor is recomputed from A and psi_kind; it is not stored.
    A ``diagnostics`` object, written by earlier versions, is accepted and
    ignored.  ``I`` must hold one origin constant per level.
    """
    check_schema(data, SOLUTION_SCHEMA)
    problem = problem_from_data(data["problem"])
    coeff = bivar_from_data(data["A"])
    if not (coeff - problem.coeff).is_zero:
        raise ValueError("solution A differs from the embedded problem's A")
    if data["psi_kind"] != problem.factor_kind:
        raise ValueError("solution psi_kind differs from the embedded problem's")
    if len(data["I"]) != problem.n:
        raise ValueError(f"solution holds {len(data['I'])} origin constants "
                         f"for n={problem.n} levels")
    factor = similarity_factor(coeff, data["psi_kind"])
    w = MetaExpr(factor, parts_from_data(data["parts"]))
    constants = tuple(pair_complex(v) for v in data["I"])
    return w, constants, problem


def boundary_to_data(boundary: BoundaryReport) -> dict:
    """The test labels once, then each (level x test) array nested by level."""
    return {"tests": list(boundary.tests),
            "lhs": boundary.lhs[..., None].view(float).tolist(),
            "rhs": boundary.rhs[..., None].view(float).tolist(),
            "residual": boundary.residual.tolist(),
            "stabilized": boundary.stabilized.tolist(),
            "tail_residual": boundary.tail_residual.tolist()}


def save_json(path, data, indent: int | None = 2) -> None:
    """``indent=None`` writes one compact line through json's C encoder."""
    separators = (",", ":") if indent is None else None
    text = json.dumps(data, sort_keys=True, indent=indent, separators=separators)
    Path(path).write_text(text + "\n")


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a finite number")


def load_json(path) -> dict:
    """Parse a JSON input file; NaN and +-Infinity raise ValueError."""
    return json.loads(Path(path).read_text(), parse_constant=_reject_constant)


# Rings are split into blocks of at least this many points, one block per
# worker: a fork and its pipe cost 2-4 ms, formatting 2**14 points about 40 ms.
MIN_POINTS_PER_WORKER = 1 << 14


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _ring_blocks(grid: PolarGrid) -> list[slice]:
    """Contiguous blocks of rings, one per worker."""
    n_rings = grid.radii.size
    workers = 1
    if hasattr(os, "fork"):
        workers = max(1, min(_cpu_count(), n_rings,
                             n_rings * grid.angles.size // MIN_POINTS_PER_WORKER))
    cuts = [n_rings * i // workers for i in range(workers + 1)]
    return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def _check_shape(a: np.ndarray, shape: tuple, of: str = "the grid's") -> None:
    if a.shape != shape:
        raise ValueError(f"values of shape {a.shape} do not match {of} "
                         f"shape {shape}")


def _ring_lines(grid: PolarGrid, rings: slice, arrays):
    """The CSV lines of a block of rings, one bytes object per ring, formatted
    as they are iterated; the arrays' shapes are checked at once.

    Each ring is formatted with one ``%`` over Python floats (``%r`` of a
    numpy scalar prints ``np.float64(...)``).
    """
    radii = grid.radii[rings].tolist()
    arrays = [np.asarray(a, dtype=complex) for a in arrays]
    for a in arrays:
        _check_shape(a, (len(radii), grid.angles.size),
                     f"rings {rings.start}-{rings.stop - 1}'s")
    rows = [repr(t) + ",%r" * (2 * len(arrays)) for t in grid.angles.tolist()]
    values = np.stack(arrays, axis=-1).view(float)

    def lines():
        for r, ring in zip(radii, values):
            prefix = repr(r) + ","
            template = prefix + ("\n" + prefix).join(rows) + "\n"
            yield (template % tuple(ring.ravel().tolist())).encode()

    return lines()


def _fork_block(grid: PolarGrid, sample, rings: slice, inherited) -> tuple:
    """Fork a worker that samples and formats ``rings``; return its pid and
    the read end of its pipe.

    The worker formats its whole block before it sends a zero byte and the
    lines, so it runs while the parent formats block 0; if sampling or the
    shape check fails it sends a one byte and the pickled exception instead.
    It must not call BLAS, whose threads the fork does not copy.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, open(read, "rb")
    status = 1
    try:
        os.close(read)
        for pipe in inherited:
            pipe.close()
        try:
            payload = [b"\0", *_ring_lines(grid, rings, sample(rings))]
        except Exception as exc:
            payload = [b"\1", pickle.dumps(exc)]
        with open(write, "wb") as pipe:
            pipe.writelines(payload)
        status = 0
    finally:
        # never return into the caller's stack, whose cleanup is the parent's
        os._exit(status)


def _copy_block(pipe, out) -> None:
    """Copy a worker's lines to ``out``, or raise the worker's exception."""
    kind = pipe.read(1)
    if kind == b"\1":
        raise pickle.loads(pipe.read())
    if kind == b"\0":
        shutil.copyfileobj(pipe, out)


def _write_grid_csv(path, header: str, grid: PolarGrid, sample) -> None:
    """Write the rings of ``grid`` with the arrays ``sample(rings)`` returns
    for a slice of them.

    Block 0 is sampled and formatted here and every other block in a forked
    worker; the blocks are written in ring order, so the bytes do not depend
    on the number of workers.  If a block fails, the error of the first
    failing block in ring order is raised, no file is left and every worker
    is reaped.
    """
    blocks = _ring_blocks(grid)
    workers = []  # (pid, pipe) of the workers not yet reaped
    try:
        for rings in blocks[1:]:
            workers.append(_fork_block(grid, sample, rings,
                                       [pipe for _, pipe in workers]))
        head = _ring_lines(grid, blocks[0], sample(blocks[0]))
        with open(path, "wb") as out:
            try:
                out.write(header.encode() + b"\n")
                out.writelines(head)
                while workers:
                    pid, pipe = workers[0]
                    _copy_block(pipe, out)
                    pipe.close()
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    del workers[0]
                    if code:
                        raise ChildProcessError(f"grid worker {pid} exited "
                                                f"with code {code}")
            except BaseException:
                out.close()
                os.unlink(path)
                raise
    finally:
        # close first: a worker blocked on a full pipe then ends and is reaped
        for _, pipe in workers:
            pipe.close()
        for pid, _ in workers:
            os.waitpid(pid, 0)


def _array_sampler(grid: PolarGrid, arrays):
    shape = (grid.radii.size, grid.angles.size)
    arrays = [np.asarray(a, dtype=complex) for a in arrays]
    for a in arrays:
        _check_shape(a, shape)
    return lambda rings: [a[rings] for a in arrays]


def write_values_csv(path, grid: PolarGrid, values) -> None:
    """``values`` is an array shaped like the grid, or a function evaluated
    elementwise on ``grid.points()``: each worker then calls it on the points
    of its own rings, so it must give the same value for a point whatever
    array the point comes in, and must not call BLAS."""
    if callable(values):
        points = grid.points()

        def sample(rings):
            return [values(points[rings])]
    else:
        sample = _array_sampler(grid, [values])
    _write_grid_csv(path, VALUE_CSV_HEADER, grid, sample)


def write_solution_csv(path, grid: PolarGrid, w_values, residuals) -> None:
    _write_grid_csv(path, SOLUTION_CSV_HEADER, grid,
                    _array_sampler(grid, [w_values, residuals]))


def read_values_csv(path) -> PolarGrid:
    """Parse a value-grid CSV back into a PolarGrid with values attached.

    Rows come ring by ring, every ring at the first ring's angles in order.
    """
    lines = Path(path).read_text().strip().splitlines()
    if len(lines) < 2 or lines[0].strip() != VALUE_CSV_HEADER:
        raise ValueError(f"expected header {VALUE_CSV_HEADER!r} and samples")
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    if data.shape[1] != 4:
        raise ValueError("expected four numbers per row")
    r, theta = data[:, 0], data[:, 1]
    radii = r[np.concatenate(([True], r[1:] != r[:-1]))]
    n_theta, rem = divmod(len(r), radii.size)
    shape = (radii.size, n_theta)
    if rem or np.any(r.reshape(shape) != radii[:, None]):
        raise ValueError("grid is not rectangular: rings differ in size")
    angles = theta[:n_theta]
    if np.any(theta.reshape(shape) != angles):
        raise ValueError("every ring must sample the first ring's angles")
    values = np.ascontiguousarray(data[:, 2:]).view(complex).reshape(shape)
    return PolarGrid(radii, angles, values)
