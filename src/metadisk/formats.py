"""File formats: JSON schemas for problems and solutions, CSV for sampled grids.

Input documents are checked against the schemas here, with the Draft
2020-12 semantics and messages of jsonschema, which the tests use as oracle.

Complex numbers are stored as [re, im] pairs.  All JSON is written with
sorted keys and all floats via repr, so identical inputs produce
byte-identical files; report.json is written compact, the others with a
2-space indent.  A grid CSV has a header, then one row per grid point, ring
by ring: r, theta, then the real and imaginary part of each sampled column,
every float in Python's shortest round-trip repr (nan, inf, -0.0).  The
writer samples each chunk of rings, checks it and spells it in one loop.  The
floats are spelled by ``floatrepr``, which computes the same digits in numpy
(Giulietti's Schubfach) and lays them out as repr does, so the bytes are
repr's.  Large grids are sampled and formatted by forked workers, one block
of rings each, and the bytes do not depend on how many there are.  A values
CSV is read back by ``np.loadtxt`` from its path.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import shutil
from itertools import islice, takewhile
from numbers import Number
from pathlib import Path

import numpy as np

from .boundary import BoundaryDistribution
from .disk import PolarGrid
from .errors import SchemaViolation
from .integral import PolyAnalytic, similarity_factor
from .meta import MetaExpr
from .schwarz import FACTOR_KINDS, SchwarzProblem, SchwarzSolution

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
        "psi_kind": {"enum": list(FACTOR_KINDS)},
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
        "psi_kind": {"enum": list(FACTOR_KINDS)},
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
    return _problem(data)


def _problem(data: dict) -> SchwarzProblem:
    """The problem of a document that has passed PROBLEM_SCHEMA."""
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


def solution_from_data(data: dict) -> SchwarzSolution:
    """Rebuild a solution from a solution file, its chain f_n..f_1 being the
    shifted stack of the stored parts F = f_n: f_{n-j} = dbar^j F.

    The similarity exponent is recomputed from A and psi_kind; it is not
    stored.  A ``diagnostics`` object, written by earlier versions, is
    accepted and ignored.  ``I`` must hold one origin constant per level.
    """
    check_schema(data, SOLUTION_SCHEMA)  # holds PROBLEM_SCHEMA at "problem"
    problem = _problem(data["problem"])
    coeff = bivar_from_data(data["A"])
    if not (coeff - problem.coeff).is_zero:
        raise ValueError("solution A differs from the embedded problem's A")
    if data["psi_kind"] != problem.factor_kind:
        raise ValueError("solution psi_kind differs from the embedded problem's")
    if len(data["I"]) != problem.n:
        raise ValueError(f"solution holds {len(data['I'])} origin constants "
                         f"for n={problem.n} levels")
    w = MetaExpr(similarity_factor(coeff, data["psi_kind"]),
                 parts_from_data(data["parts"]))
    constants = tuple(pair_complex(v) for v in data["I"])
    return SchwarzSolution(w, w.poly.dbar_stack(problem.n)[::-1], constants,
                           problem)


def save_json(path, data, indent: int | None = 2) -> None:
    """``indent=None`` writes one compact line through json's C encoder."""
    separators = (",", ":") if indent is None else None
    text = json.dumps(data, sort_keys=True, indent=indent, separators=separators)
    Path(path).write_text(text + "\n")


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a finite number")


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"number {text} overflows a double")
    return value


def _finite_int(text: str) -> int:
    value = int(text)
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"an integer of {len(text.lstrip('-'))} digits "
                         "overflows a double") from None
    return value


def load_json(path) -> dict:
    """Parse a JSON input file; NaN, +-Infinity and number literals that
    overflow a double, such as 1e400, raise ValueError."""
    return json.loads(Path(path).read_text(), parse_float=_finite_float,
                      parse_int=_finite_int, parse_constant=_reject_constant)


# Rings are split into blocks of at least this many points, one block per
# worker: a fork and its pipe cost about 5 ms, sampling and spelling 2**14
# points of a transform about 20 ms (2 vCPUs, Python 3.11, numpy 2.4).
MIN_POINTS_PER_WORKER = 1 << 14


# A block of rings is sampled and spelled in chunks of about this many floats,
# each taking floatrepr.CELL = 42 bytes of cells and its numpy temporaries
# while it is laid out; chunks of 2**14 raised poisson's peak RSS on 256x512
# by 3 MB.
FLOATS_PER_CHUNK = 1 << 13


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


def _sampler(grid: PolarGrid, columns) -> list:
    """One function per column giving its values on a slice of rings.

    A column is an array shaped like the grid, checked here, or a function
    evaluated elementwise on the points of those rings: it must give the same
    value for a point whatever array the point comes in, and must not call
    BLAS, since forked workers call it too.
    """
    shape = (grid.radii.size, grid.angles.size)
    points = grid.points() if any(map(callable, columns)) else None
    getters = []
    for column in columns:
        if callable(column):
            getters.append(lambda rings, f=column: f(points[rings]))
        else:
            column = np.asarray(column, dtype=complex)
            _check_shape(column, shape)
            getters.append(column.__getitem__)
    return getters


def _ring_lines(grid: PolarGrid, rings: slice, columns):
    """The CSV lines of a block of rings, a chunk of bytes at a time.

    The block is sampled, checked and spelled a chunk of about
    FLOATS_PER_CHUNK floats at a time: ``columns`` are ``_sampler``'s
    functions, and each line is laid out in NUL-padded ``floatrepr`` cells,
    the ``r,`` and ``theta,`` of its point and one per value, and the NULs
    are dropped.
    """
    from . import floatrepr

    radii = grid.radii[rings]
    # the columns no r or theta uses (the sign, most point slots) go
    lead_r, lead_theta = (c[:, c.any(axis=0)] for c in
                          (floatrepr.spell(radii), floatrepr.spell(grid.angles)))
    n_theta = grid.angles.size
    step = max(1, FLOATS_PER_CHUNK // (2 * len(columns) * n_theta))
    for lo in range(0, radii.size, step):
        n_rings = min(step, radii.size - lo)
        part = slice(rings.start + lo, rings.start + lo + n_rings)
        arrays = [np.asarray(get(part), dtype=complex) for get in columns]
        for a in arrays:
            _check_shape(a, (n_rings, n_theta),
                         f"rings {part.start}-{part.stop - 1}'s")
        # a single column goes as its own float view, without a copy
        values = (arrays[0][..., None] if len(arrays) == 1
                  else np.stack(arrays, axis=-1))
        cells = floatrepr.spell(values.view(float))
        cells[..., -1, -1] = ord("\n")
        line = np.concatenate([
            np.broadcast_to(lead_r[lo:lo + n_rings, None],
                            (n_rings, n_theta, lead_r.shape[1])),
            np.broadcast_to(lead_theta, (n_rings,) + lead_theta.shape),
            cells.reshape(n_rings, n_theta, -1)], axis=-1)
        yield line.tobytes().translate(None, b"\0")


def _fork_block(grid: PolarGrid, columns, rings: slice, inherited) -> tuple:
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
            payload = [b"\0", *_ring_lines(grid, rings, columns)]
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


def _write_grid_csv(path, header: str, grid: PolarGrid, columns) -> None:
    """Write the rings of ``grid`` with the values of ``columns``, each an
    array shaped like the grid or a function of points (see ``_sampler``).

    Block 0 is sampled and formatted here and every other block in a forked
    worker; the blocks are written in ring order, so the bytes do not depend
    on the number of workers.  The file's missing directories are made just
    before it is opened.  If a block fails, the error of the first failing
    block in ring order is raised, neither the file nor a directory made
    here is left, and every worker is reaped.
    """
    columns = _sampler(grid, columns)
    blocks = _ring_blocks(grid)
    workers = []  # (pid, pipe) of the workers not yet reaped
    try:
        for rings in blocks[1:]:
            workers.append(_fork_block(grid, columns, rings,
                                       [pipe for _, pipe in workers]))
        head = _ring_lines(grid, blocks[0], columns)
        parent = Path(path).parent
        made = list(takewhile(lambda d: not d.exists(),
                              (parent, *parent.parents)))
        parent.mkdir(parents=True, exist_ok=True)
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
                for directory in made:  # innermost first
                    directory.rmdir()
                raise
    finally:
        # close first: a worker blocked on a full pipe then ends and is reaped
        for _, pipe in workers:
            pipe.close()
        for pid, _ in workers:
            os.waitpid(pid, 0)


def write_values_csv(path, grid: PolarGrid, values) -> None:
    """``values`` is an array shaped like the grid or a function of points."""
    _write_grid_csv(path, VALUE_CSV_HEADER, grid, [values])


def write_solution_csv(path, grid: PolarGrid, w_values, residuals) -> None:
    """Each column is an array shaped like the grid or a function of points."""
    _write_grid_csv(path, SOLUTION_CSV_HEADER, grid, [w_values, residuals])


def _holds_sample(line: str) -> bool:
    """Whether ``line`` holds more than spaces once its ``#`` comment is cut.

    ``np.loadtxt`` skips a line that is empty once its comment is cut, but
    reads one of spaces as a row of one column; the reader skips both.
    """
    return bool(line.partition("#")[0].strip())


def read_values_csv(path) -> PolarGrid:
    """Parse a value-grid CSV back into a PolarGrid with values attached.

    Rows come ring by ring, every ring at the first ring's angles in order,
    and hold finite numbers only; empty lines and lines of spaces are
    skipped.  ``np.loadtxt`` is handed the path and the number of lines up
    to the header, so it parses the rows in C without a Python string per
    line; only if it fails are the lines that hold samples handed over
    instead.
    """
    no_samples = f"expected header {VALUE_CSV_HEADER!r} and samples"
    with open(path) as fh:
        header, skip = fh.readline(), 1
        while header and not header.strip():
            header, skip = fh.readline(), skip + 1
        if (header.strip() != VALUE_CSV_HEADER
                or not any(map(_holds_sample, fh))):
            raise ValueError(no_samples)
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    except ValueError:  # a line of spaces, or text that is not a number
        with open(path) as fh:
            data = np.loadtxt(filter(_holds_sample, islice(fh, skip, None)),
                              delimiter=",", ndmin=2)
    if data.shape[1] != 4:
        raise ValueError("expected four numbers per row")
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        with open(path) as fh:
            rows = filter(_holds_sample, islice(fh, skip, None))
            line = next(islice(rows, row, None)).rstrip("\n")
        raise ValueError(f"samples row {row + 1} is not finite: {line}")
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
