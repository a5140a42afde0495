"""Golden `--json` reports of the command line.

Every subcommand runs on every bundled fixture it accepts (`tetrahedron`
on one passing and one failing fixture, the two the benchmark sweeps),
and its stdout must match `golden_reports.json` byte for byte once
`elapsed_s` is masked and the fixture directory in `command` is replaced
by a placeholder.  A refactor that claims unchanged reports is
held to this; a change that means to alter a report regenerates the file
with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import re
from pathlib import Path

import pytest

from lie2alg.cli import fixture_dir, run

GOLDEN = Path(__file__).with_name("golden_reports.json")
FIXTURES = "<fixtures>"
TWO_TERM = ("ghbar_so3_0", "ghbar_so3_1", "ghbar_so3_2", "cross_product", "broken_abelian4")
ALGEBRAS = ("abelian3", "so3", "sl2", "broken_jacobi3")


def golden_cases() -> list:
    cases = [[cmd, f"{FIXTURES}/{name}.json"] for name in TWO_TERM
             for cmd in ("check-linfty", "check-lie2", "skeletalize", "classify")]
    for name in ALGEBRAS:
        g = f"{FIXTURES}/{name}.json"
        cases += [["killing", g], ["ybe", g],
                  ["build-ghbar", "--hbar=1", g], ["build-ghbar", "--hbar=1/2", g]]
        cases += [["cohomology", "--degree", str(n), g] for n in range(4)]
    cases += [["tetrahedron", f"{FIXTURES}/{name}.json"]
              for name in ("ghbar_so3_1", "broken_abelian4")]
    return cases + [["check-dcm", f"{FIXTURES}/dcm_so3_adjoint.json"], ["fixtures"]]


def masked_run(case: list) -> tuple:
    """Exit code and masked `--json` stdout of one case."""
    argv = ["--json"] + [a.replace(FIXTURES, str(fixture_dir())) for a in case]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code, _ = run(argv)
    text = re.sub(r'"elapsed_s": [0-9.e+-]+', '"elapsed_s": "masked"', out.getvalue())
    return code, text.replace(str(fixture_dir()), FIXTURES)


@functools.cache
def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return {" ".join(entry["argv"]): entry for entry in json.load(fh)}


def test_golden_covers_every_case():
    assert list(_golden()) == [" ".join(case) for case in golden_cases()]


@pytest.mark.parametrize("case", golden_cases(), ids=" ".join)
def test_json_report_matches_golden(case):
    entry = _golden()[" ".join(case)]
    code, text = masked_run(case)
    assert code == entry["exit"]
    assert text == json.dumps(entry["report"], indent=1) + "\n"


if __name__ == "__main__":
    entries = []
    for case in golden_cases():
        code, text = masked_run(case)
        entries.append({"argv": case, "exit": code, "report": json.loads(text)})
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")
