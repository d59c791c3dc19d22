"""Grid CSV writers: byte-identity with the per-row repr loop, shape checks;
the numpy spelling of floats: byte-identity with repr; polynomial terms:
byte-identity with the dict reference."""

import json
import math
import os
import subprocess
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_meta, term_lists
from metadisk import floatrepr, formats
from metadisk.boundary import BoundaryDistribution, poisson_extend
from metadisk.disk import PolarGrid
from metadisk.integral import PolyAnalytic, schwarz_pompeiu_poly, teodorescu_poly
from metadisk.meta import MetaExpr
from oracles import dict_from_data, dict_to_data

SPECIAL = (-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 5e-324,
           -5e-324, 2.2250738585072014e-308, 1e16, 1e-5, 1.5e-05, 1e22,
           -1e22, 0.1, 1.7976931348623157e308, 123456789.0)


def oracle_csv(header, grid, *arrays) -> str:
    """The per-row writer of earlier versions: one ``repr(float(x))`` per cell."""
    shape = (grid.radii.size, grid.angles.size)
    columns = [np.broadcast_to(grid.radii[:, None], shape),
               np.broadcast_to(grid.angles[None, :], shape)]
    for a in arrays:
        a = np.asarray(a, dtype=complex)
        columns += [a.real, a.imag]
    lines = [header]
    for row in zip(*(np.asarray(c).ravel() for c in columns)):
        lines.append(",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def write(path, grid, arrays) -> bytes:
    if len(arrays) == 1:
        formats.write_values_csv(path, grid, arrays[0])
    else:
        formats.write_solution_csv(path, grid, *arrays)
    return path.read_bytes()


def write_both(path, grid, arrays):
    header = (formats.VALUE_CSV_HEADER if len(arrays) == 1
              else formats.SOLUTION_CSV_HEADER)
    return write(path, grid, arrays), oracle_csv(header, grid, *arrays).encode()


@contextmanager
def forced_workers(count: int):
    """Split every grid into ``count`` blocks of rings, or one per ring."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formats, "_cpu_count", lambda: count)
        patch.setattr(formats, "MIN_POINTS_PER_WORKER", 1)
        yield


@st.composite
def grids_with_values(draw, max_rings=9, max_angles=32):
    n_radial = draw(st.integers(1, max_rings))
    n_angular = 2 * draw(st.integers(4, max_angles // 2))
    grid = PolarGrid.mesh(n_radial, n_angular,
                          r_min=draw(st.floats(0.001, 0.4)),
                          r_max=draw(st.floats(0.6, 0.999)))
    k = draw(st.sampled_from((1, 2)))
    size = 2 * k * n_radial * n_angular
    # ordinary floats over every exponent, subnormals included
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    floats = rng.standard_normal(size) * 10.0 ** rng.integers(-320, 300, size)
    plants = draw(st.lists(
        st.tuples(st.integers(0, size - 1), st.sampled_from(SPECIAL) | st.floats()),
        max_size=3 * len(SPECIAL)))
    for i, x in plants:
        floats[i] = x
    return grid, floats.view(complex).reshape(k, n_radial, n_angular)


@given(grids_with_values())
def test_grid_csv_matches_per_row_oracle(tmp_path_factory, case):
    grid, arrays = case
    path = tmp_path_factory.mktemp("csv") / "grid.csv"
    ours, oracle = write_both(path, grid, arrays)
    assert ours == oracle


@pytest.mark.parametrize("k", [1, 2])
def test_grid_csv_matches_oracle_on_every_special_float(tmp_path, k):
    grid = PolarGrid.mesh(4, 8)
    floats = np.resize(np.array(SPECIAL), 2 * k * 32)
    arrays = floats.view(complex).reshape(k, 4, 8)
    ours, oracle = write_both(tmp_path / "grid.csv", grid, arrays)
    assert ours == oracle
    cells = set(ours.replace(b"\n", b",").split(b","))
    assert {b"-0.0", b"nan", b"-inf", b"5e-324", b"1e+16", b"1.5e-05"} <= cells


def test_teodorescu_grid_matches_oracle_at_benchmark_size(tmp_path):
    grid = PolarGrid.mesh(256, 512)
    f = PolyAnalytic.from_terms({(0, 0): 0.7 - 0.2j, (2, 1): 0.3 + 0.7j,
                                 (0, 3): -1.1 + 0.2j})
    values = teodorescu_poly(f).monomial_sum(grid.points())
    ours, oracle = write_both(tmp_path / "transform.csv", grid, [values])
    assert ours.count(b"\n") == 1 + 256 * 512
    assert ours == oracle


@pytest.mark.parametrize("write, arrays, bad_shape", [
    (formats.write_values_csv, [np.ones(5)], "(5,)"),
    (formats.write_values_csv, [1.0 + 2.0j], "()"),
    (formats.write_values_csv, [np.ones((8, 4))], "(8, 4)"),
    (formats.write_solution_csv, [np.ones((4, 8)), np.ones(3)], "(3,)"),
    (formats.write_solution_csv, [np.ones(32), np.ones((4, 8))], "(32,)"),
])
def test_grid_csv_rejects_values_not_shaped_like_the_grid(tmp_path, write,
                                                         arrays, bad_shape):
    path = tmp_path / "grid.csv"
    with pytest.raises(ValueError) as err:
        write(path, PolarGrid.mesh(4, 8), *arrays)
    assert bad_shape in str(err.value) and "(4, 8)" in str(err.value)
    assert not path.exists()


@given(grids_with_values(max_rings=40, max_angles=64), st.integers(2, 4))
def test_grid_csv_bytes_do_not_depend_on_the_worker_count(tmp_path_factory,
                                                          case, workers):
    grid, arrays = case
    path = tmp_path_factory.mktemp("csv") / "grid.csv"
    with forced_workers(1):
        assert len(formats._ring_blocks(grid)) == 1
        one = write(path, grid, arrays)
    with forced_workers(workers):
        n_rings = grid.radii.size
        assert len(formats._ring_blocks(grid)) == min(workers, n_rings)
        assert write(path, grid, arrays) == one


@pytest.mark.parametrize("workers", [1, 2, 3, 16])
def test_values_function_is_sampled_block_by_block(tmp_path, workers):
    grid = PolarGrid.mesh(13, 24)
    table = teodorescu_poly(PolyAnalytic.from_terms(
        {(0, 0): 0.7 - 0.2j, (2, 1): 0.3 + 0.7j, (0, 3): -1.1 + 0.2j}))
    formats.write_values_csv(tmp_path / "arrays.csv", grid,
                             table.monomial_sum(grid.points()))
    with forced_workers(workers):
        formats.write_values_csv(tmp_path / "blocks.csv", grid,
                                 table.monomial_sum)
    assert ((tmp_path / "blocks.csv").read_bytes()
            == (tmp_path / "arrays.csv").read_bytes())


def _grid_functions():
    """The functions the commands hand the grid writer, by name."""
    rng = np.random.default_rng(13)
    u = BoundaryDistribution({n: complex(*rng.standard_normal(2))
                              for n in range(-7, 6)})
    f = PolyAnalytic.from_terms({(0, 1): 0.3 - 0.7j, (2, 1): -1.1 + 0.2j,
                                 (1, 3): 0.9 + 0.4j})
    functions = {"poisson": partial(poisson_extend, u),
                 "teodorescu": teodorescu_poly(f).monomial_sum,
                 "schwarz_pompeiu": schwarz_pompeiu_poly(f).monomial_sum}
    for kind in ("cauchy", "schwarz"):
        w = random_meta(rng, n_max=4, kind=kind)
        residual = MetaExpr(w.s, w.poly.dbar_stack(w.order + 1)[-1])
        functions[f"{kind}-solution"] = w
        functions[f"{kind}-residual"] = lambda z, e=residual: e(z) + 0.0
    return functions


GRID_FUNCTIONS = _grid_functions()


@pytest.mark.parametrize("name", GRID_FUNCTIONS)
def test_grid_functions_give_the_same_bits_on_any_slice_of_rings(name):
    # the writer evaluates each chunk of rings on its own, in any process
    f = GRID_FUNCTIONS[name]
    points = PolarGrid.mesh(13, 64).points()
    whole = f(points)
    assert whole.shape == points.shape
    for lo in range(13):
        for hi in range(lo + 1, 14):
            assert f(points[lo:hi]).tobytes() == whole[lo:hi].tobytes()


@pytest.mark.parametrize("failing_ring, block, rows", [
    (0, "0-2", 3), (5, "3-5", 3), (12, "9-12", 4)])
def test_values_function_not_shaped_like_its_rings_leaves_no_file(
        tmp_path, failing_ring, block, rows):
    # four workers split 13 rings 3, 3, 3, 4; the parent formats the first
    grid = PolarGrid.mesh(13, 24)
    radius = grid.radii[failing_ring]

    def values(z):
        return z[:, :-1] if np.any(np.abs(z) == radius) else z

    path = tmp_path / "grid.csv"
    with forced_workers(4), pytest.raises(ValueError) as err:
        formats.write_values_csv(path, grid, values)
    assert str(err.value) == (f"values of shape ({rows}, 23) do not match "
                              f"rings {block}'s shape ({rows}, 24)")
    assert not path.exists()


@given(term_lists())
def test_terms_round_trip_writes_the_dict_bytes(pairs):
    # repeated keys keep their last coefficient on reading, as before
    data = {"terms": [{"m": m, "k": k, "re": c.real, "im": c.imag}
                      for (m, k), c in pairs]}
    ours = formats.bivar_to_data(formats.bivar_from_data(data))
    want = dict_to_data(dict_from_data(data))
    assert (json.dumps(ours, sort_keys=True, indent=2)
            == json.dumps(want, sort_keys=True, indent=2))


def spelled(x) -> bytes:
    """``floatrepr.spell``'s cells of ``x`` with their NULs dropped."""
    return floatrepr.spell(np.asarray(x, dtype=float)).tobytes().translate(
        None, b"\0")


def repr_spelled(x) -> bytes:
    return "".join(repr(float(v)) + "," for v in np.ravel(x)).encode()


def nudged(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, math.copysign(math.inf, ulps)))
    return x


# The ends of repr's fixed notation, powers of ten, every power of two of
# floatrepr's band (which it spells without Schubfach's narrower interval
# below them), significands that end a binade, and reprs of 15, 16 and 17
# digits.
EDGE_FLOATS = sorted({
    nudged(x, ulps)
    for x in ([1e-4, 9999999999999998.0, 1e16, 2.0 ** 52, 2.0 ** 53]
              + [10.0 ** p for p in range(-5, 17)]
              + [2.0 ** p for p in range(-15, 55)])
    for ulps in range(-3, 4)
} | {0.0, 0.1, 0.3, 1 / 3, 2 / 3, 123456789012345.0, 1234567890123456.0,
     0.12345678901234566, 1125899906842624.25, 1125899906842624.75,
     4503599627370495.5, 9007199254740993.0})


def test_spelling_matches_repr_on_the_edges():
    x = np.array(EDGE_FLOATS)
    assert {len(repr(v).strip("-0.").replace(".", "")) for v in EDGE_FLOATS
            if "e" not in repr(v)} >= {15, 16, 17}
    assert spelled(x) == repr_spelled(x)
    assert spelled(-x) == repr_spelled(-x)
    assert spelled(-0.0) == b"-0.0," and spelled(0.0) == b"0.0,"


def test_every_float_of_fixed_notation_is_spelled_without_repr(monkeypatch):
    fixed = [x for x in EDGE_FLOATS if "e" not in repr(x)]
    assert min(filter(None, fixed)) == 1e-4 and max(fixed) == nudged(1e16, -1)
    monkeypatch.setattr(floatrepr, "repr", None, raising=False)
    assert spelled(fixed) == repr_spelled(fixed)
    with pytest.raises(TypeError):
        spelled([1e16])


@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_spelling_matches_repr_on_random_bits(bits):
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    assert spelled(x) == repr_spelled(x)


@given(st.lists(st.floats(1e-4, 1e16, exclude_max=True), min_size=1,
                max_size=64), st.integers(0, 2 ** 64 - 1))
def test_spelling_matches_repr_in_fixed_notation(floats, signs):
    x = np.array(floats) * np.where([signs >> i & 1 for i in range(len(floats))],
                                    -1.0, 1.0)
    assert spelled(x) == repr_spelled(x)


def test_spelling_keeps_the_shape_of_its_input():
    x = np.arange(24.0).reshape(2, 3, 4) / 7
    cells = floatrepr.spell(x)
    assert cells.shape == (2, 3, 4, floatrepr.CELL)
    assert cells.tobytes().translate(None, b"\0") == repr_spelled(x)


@pytest.mark.parametrize("workers", [1, 3])
def test_large_blocks_mixing_every_kind_of_float_match_the_oracle(tmp_path,
                                                                  workers):
    # chunks of 5 rings of 64 points split the 40 rings inside every block
    grid = PolarGrid.mesh(40, 64)
    rng = np.random.default_rng(21)
    floats = rng.standard_normal(2 * 40 * 64) * 10.0 ** rng.integers(-8, 20,
                                                                     2 * 40 * 64)
    kinds = np.array(SPECIAL + tuple(EDGE_FLOATS[::7]))
    floats[::5] = np.resize(kinds, floats[::5].size)
    values = floats.view(complex).reshape(40, 64)
    with forced_workers(workers), pytest.MonkeyPatch.context() as patch:
        patch.setattr(formats, "FLOATS_PER_CHUNK", 5 * 64 * 2)
        ours, oracle = write_both(tmp_path / "grid.csv", grid, [values])
    assert ours == oracle


@given(grids_with_values())
def test_grid_csv_in_small_chunks_matches_per_row_oracle(tmp_path_factory,
                                                        case):
    grid, arrays = case
    path = tmp_path_factory.mktemp("csv") / "grid.csv"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formats, "FLOATS_PER_CHUNK", 100)
        ours, oracle = write_both(path, grid, arrays)
    assert ours == oracle


def test_cli_import_leaves_floatrepr_unloaded():
    code = ("import sys, metadisk.cli; "
            "sys.exit('metadisk.floatrepr' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(formats.__file__).parents[1]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
