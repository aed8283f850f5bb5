"""CLI outputs replayed against recorded golden files.

tests/golden/cases.json lists each case's argv and exit code; the stdout
of case NAME is tests/golden/NAME.out.  The argv holds paths relative to
the repository root, which `verify` prints, so the cases run from there."""

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import coxlow
import coxlow.cli
import coxlow.conjecture
import coxlow.core
import coxlow.elements
import coxlow.groupfile
import coxlow.projective
import coxlow.smallroots
from coxlow import INF, small_roots

from conftest import inversion_levels

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


def test_verify_builds_sigma_and_the_shortlex_automaton_once(monkeypatch):
    # the G_bip walk reads the Sigma that verify already holds; every
    # coxlow module's name for either builder is counted
    calls = []
    modules = [module for name, module in sys.modules.items()
               if name == "coxlow" or name.startswith("coxlow.")]
    for name in ("small_roots", "build_shortlex_automaton"):
        original = getattr(coxlow, name)

        def counting(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        for module in modules:
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counting)
    path = str(ROOT / "demos" / "groups" / "universal.json")
    code, out = run_cli(["verify", path, "--max-length", "12"])
    assert code == 0
    assert "graph checks (length <= 8): 766 elements, 0 violations" in out
    assert sorted(calls) == ["build_shortlex_automaton", "small_roots"]


def test_verify_polytopes_builds_no_inversion_set(monkeypatch):
    # the polytope check reads each low element's N(x) off the low search,
    # which built it, on the benchmark's three verify files
    calls = []
    inversion_set = coxlow.elements.inversion_set

    def counting(rs, w):
        calls.append(w)
        return inversion_set(rs, w)

    for module in (coxlow.elements, coxlow.conjecture):
        monkeypatch.setattr(module, "inversion_set", counting)
    for name in ("hyperbolic-3-3-4", "universal", "affine-3-3-3"):
        path = str(ROOT / "demos" / "groups" / (name + ".json"))
        code, out = run_cli(["verify", path, "--max-length", "12",
                             "--polytopes"])
        assert code == 0 and "inversion polytopes: " in out, name
    assert calls == []


def test_verify_polytopes_charts_each_root_once(monkeypatch):
    calls = []
    chart = coxlow.projective.normalize_projective

    def counting(rs, v):
        calls.append(rs.vec_key(v))
        return chart(rs, v)

    def never(*args):
        raise AssertionError("hulls_equal called")

    monkeypatch.setattr(coxlow.projective, "normalize_projective", counting)
    for module in (coxlow.projective, coxlow.conjecture):
        monkeypatch.setattr(module, "hulls_equal", never, raising=False)
    path = str(ROOT / "demos" / "groups" / "hyperbolic-3-3-4.json")
    code, out = run_cli(["verify", path, "--max-length", "12", "--polytopes"])
    assert code == 0
    assert "inversion polytopes: 18/18 matched" in out
    assert calls and len(calls) == len(set(calls))


@pytest.mark.parametrize("polytopes", [False, True])
def test_verify_builds_no_root_past_sigma(polytopes, monkeypatch):
    # the root table keeps each root's data in id-indexed lists: the G_bip
    # walk builds no Root, and neither does a whole verify; --polytopes
    # reads Sigma's coordinates off the table by id
    path = ROOT / "demos" / "groups" / "universal.json"
    made = []
    init = coxlow.core.Root.__init__

    def counting(self, *args):
        init(self, *args)
        made.append(self.key)

    monkeypatch.setattr(coxlow.core.Root, "__init__", counting)
    rs = coxlow.groupfile.load_root_system(path.read_text())
    assert coxlow.conjecture.check_gbip_walk(rs, small_roots(rs), 8) \
        == (766, [])
    assert made == []
    argv = ["verify", str(path), "--max-length", "12"]
    code, out = run_cli(argv + ["--polytopes"] * polytopes)
    assert code == 0
    assert "graph checks (length <= 8): 766 elements, 0 violations" in out
    assert made == []


@pytest.mark.parametrize("name", ["affine-3-3-3", "universal",
                                  "universal-override"])
def test_verify_output_does_not_depend_on_the_backend(name, monkeypatch):
    # the whole report, G_bip counts and polytopes included, not only the
    # Sigma, Lambda and low sets that acceptance criterion 9 compares
    monkeypatch.chdir(ROOT)
    argv = ["verify", "demos/groups/%s.json" % name, "--max-length", "12",
            "--polytopes", "--backend"]
    code, out = run_cli(argv + ["float"])
    assert code == 0 and '"n_sigma"' in out
    assert run_cli(argv + ["rational"]) == (code, out)


def test_override_with_a_fractional_double_keeps_fractions(tmp_path):
    # universal with B(alpha_0, alpha_1) = -1.25: 2B = -5/2 is not an
    # integer, so the exact table keeps Fractions on the same code path
    # (s0 . alpha_1 = (5/2, 1, 0)), and verify's report, |Sigma| and
    # |Lambda| included, is the float backend's
    text = coxlow.groupfile.group_to_json(
        coxlow.core.triangle_matrix(INF, INF, INF), {(0, 1): -1.25})
    rs = coxlow.groupfile.load_root_system(text, backend="rational")
    small_roots(rs)
    for _ in inversion_levels(rs, 8):
        pass
    table = rs.root_table
    assert Fraction(5, 2) in table.coords[table.reflect(1, 0)]
    assert any(type(x) is Fraction and x.denominator != 1
               for v in table.forms for x in v)
    path = tmp_path / "override.json"
    path.write_text(text)
    argv = ["verify", str(path), "--max-length", "12", "--polytopes",
            "--backend"]
    code, out = run_cli(argv + ["float"])
    assert code == 0 and '"n_sigma"' in out
    assert run_cli(argv + ["rational"]) == (code, out)
