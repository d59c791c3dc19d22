"""The check table: README's copy of it, and which checks each corruption of a
solution file fails.

Each edit below adds 1e-6 to one number of the solved README problem's
``solution.json`` (h given non-trivial terms; an extra part adds 1e-3) and
runs ``verify`` on it.
"""

import copy
import json
import re
from pathlib import Path

import pytest

from metadisk.cli import main
from metadisk.schwarz import CHECKS, FACTOR_KINDS

README = Path(__file__).parents[1] / "README.md"

PROBLEM = {
    "n": 2,
    "A": {"terms": [{"m": 0, "k": 0, "re": 1.0, "im": 0.0}]},
    "levels": [{"h": {"coeffs": [[1.0, 0.0], [0.3, 0.1]]}, "c": 0.0},
               {"h": {"coeffs": [[0.0, 0.0], [0.2, -0.1]]}, "c": 2.0}],
}


def _bump(*path):
    def edit(data):
        *keys, last = path
        for key in keys:
            data = data[key]
        data[last] += 1e-6
    return edit


def _bump_coeff(data):
    # both copies of A: a consistent new problem, which the same F solves
    _bump("A", "terms", 0, "re")(data)
    _bump("problem", "A", "terms", 0, "re")(data)


def _extra_part(data):
    data["parts"].append({"coeffs": [[1e-3, 0.0]]})


PAIRING = {"boundary_pairing_max"}

# (edit, checks it fails for the cauchy kind, for the schwarz kind)
CATALOGUE = {
    "none": (lambda data: None, set(), set()),
    "top part": (_bump("parts", -1, "coeffs", 0, 0), PAIRING, PAIRING),
    "re a_1 of part 0": (_bump("parts", 0, "coeffs", 1, 0), PAIRING, PAIRING),
    "top of h_0": (_bump("problem", "levels", 0, "h", "coeffs", -1, 0),
                   PAIRING, PAIRING),
    "top of h_1": (_bump("problem", "levels", 1, "h", "coeffs", -1, 0),
                   PAIRING, PAIRING),
    "im a_0 of part 0": (_bump("parts", 0, "coeffs", 0, 1),
                         {"imag_at_origin"},
                         {"imag_at_origin_smooth", *PAIRING}),
    "c_0": (_bump("problem", "levels", 0, "c"),
            {"imag_at_origin"}, {"imag_at_origin_smooth", *PAIRING}),
    "c_1": (_bump("problem", "levels", 1, "c"),
            {"imag_at_origin"}, {"imag_at_origin_smooth", *PAIRING}),
    "I_0": (_bump("I", 0, 1), {"origin_constants"},
            {"origin_constants", *PAIRING}),
    "A": (_bump_coeff, set(), set()),
    "extra part": (_extra_part,
                   {"pde_residual", "chain_derivative", *PAIRING},
                   {"pde_residual", "chain_derivative", *PAIRING}),
}

# the checks that no edit above fails; a check made able to fail leaves this
# set, with an edit that fails it added to the catalogue.
# similarity_re_on_circle can fail (test_schwarz bends the exponent), but no
# file edit reaches it: a solution file holds A, and verify rebuilds s from it
NEVER_FAILED = {
    "cauchy": {"negative_control"},
    "schwarz": {"negative_control", "similarity_imag_at_origin",
                "similarity_re_on_circle"},
}


@pytest.fixture(scope="module", params=FACTOR_KINDS)
def failed(request, tmp_path_factory):
    """(kind, edit label -> names of the checks that ``verify`` fails)."""
    kind = request.param
    tmp = tmp_path_factory.mktemp(kind)
    config = tmp / "problem.json"
    config.write_text(json.dumps({**PROBLEM, "psi_kind": kind}))
    assert main(["solve", "--config", str(config),
                 "--out", str(tmp / "run")]) == 0
    solution = json.loads((tmp / "run" / "solution.json").read_text())
    order = [name for name, (kinds, _, _) in CHECKS.items() if kind in kinds]
    seen = {}
    for i, (label, (edit, _, _)) in enumerate(CATALOGUE.items()):
        data = copy.deepcopy(solution)
        edit(data)
        path, out = tmp / f"edit{i}.json", tmp / f"edit{i}"
        path.write_text(json.dumps(data))
        code = main(["verify", "--config", str(path), "--out", str(out)])
        checks = json.loads((out / "report.json").read_text())["checks"]
        assert [c["name"] for c in checks] == order
        seen[label] = {c["name"] for c in checks if not c["passed"]}
        assert code == (2 if seen[label] else 0), label
    return kind, seen


def test_each_corruption_fails_exactly_its_checks(failed):
    kind, seen = failed
    column = FACTOR_KINDS.index(kind)
    want = {label: row[1 + column] for label, row in CATALOGUE.items()}
    assert seen == want


def test_checks_that_no_corruption_fails(failed):
    kind, seen = failed
    live = set().union(*seen.values())
    names = {name for name, (kinds, _, _) in CHECKS.items() if kind in kinds}
    assert names - live == NEVER_FAILED[kind]


def test_readme_check_table_is_checks():
    lines = README.read_text().splitlines()
    start = lines.index("| Check | Kinds | Threshold | A value passes "
                        "| Value divided by |")
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        name, kinds, threshold, passes, _ = (
            cell.strip() for cell in line.strip("|").split("|"))
        rows.append((re.fullmatch(r"`(\w+)`", name)[1],
                     (tuple(kinds.split(", ")), float(threshold),
                      {"below": "<", "above": ">"}[passes])))
    assert rows == list(CHECKS.items())
