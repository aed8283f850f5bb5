"""CLI outputs replayed against recorded golden files.

tests/golden/cases.json lists each case's argv and exit code; the stdout
of case NAME is tests/golden/NAME.out.  The argv holds paths relative to
the repository root, which `verify` prints, so the cases run from there."""

import contextlib
import io
import json
from pathlib import Path

import pytest

import coxlow.cli
import coxlow.conjecture
import coxlow.elements

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = coxlow.cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_output_matches_golden(case, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out = run_cli(case["argv"])
    assert out == (GOLDEN / (case["name"] + ".out")).read_text()
    assert code == case["exit"]


def test_verify_runs_one_low_element_search(monkeypatch):
    calls = []
    search = coxlow.elements._low_search

    def counting(*args):
        calls.append(args[2])
        return search(*args)

    for module in (coxlow.elements, coxlow.conjecture):
        monkeypatch.setattr(module, "_low_search", counting)
    path = str(ROOT / "demos" / "groups" / "universal.json")
    code, _ = run_cli(["verify", path, "--max-length", "6", "--polytopes"])
    assert code == 0
    assert calls == [6]
