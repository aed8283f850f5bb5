import argparse
import itertools
import json
import math
import re
import runpy
import sys
import warnings
from pathlib import Path

import pytest

import coxlow.cli
import coxlow.conjecture
from coxlow import (
    BATTERY,
    IDENTITY,
    INF,
    build_automaton,
    build_root_system,
    convex_hull_2d,
    dihedral_matrix,
    group_to_json,
    hulls_equal,
    load_root_system,
    normalize_projective,
    parse_group_file,
    render_svg,
    small_roots,
    triangle_matrix,
)
from coxlow.cli import main
from coxlow.errors import (
    CoxlowError,
    ParseError,
    RankNotThree,
    ValidationError,
    ZeroSum,
)
from coxlow.projective import _cross

UNIVERSAL_JSON = """{
  "rank": 3,
  "coxeter": [[1, "inf", "inf"], ["inf", 1, "inf"], ["inf", "inf", 1]],
  "backend": "float"
}"""


# -- projective chart ---------------------------------------------------

def test_normalize_projective_examples(battery):
    rs, _, _ = battery.get("universal")
    tri = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)]
    for s in range(3):
        assert normalize_projective(rs, rs.simple_roots[s]) == pytest.approx(tri[s])
    mid = normalize_projective(rs, (1, 1, 0))
    assert mid == pytest.approx((0.5, 0.0))


def test_normalize_projective_dihedral_point():
    rs = build_root_system(dihedral_matrix(INF))
    # alpha_t + 2 alpha_s sits 2/3 of the way from the t-vertex to the s-vertex
    assert normalize_projective(rs, (2, 1)) == pytest.approx((1 / 3, 0.0))


def test_normalize_projective_scale_invariant(battery):
    rs, _, _ = battery.get("affine-3-3-3")
    v = (0.3, 1.7, 0.2)
    doubled = tuple(2 * c for c in v)
    assert normalize_projective(rs, v) == pytest.approx(
        normalize_projective(rs, doubled))


def test_normalize_projective_zero_sum():
    rs = build_root_system(dihedral_matrix(INF))
    with pytest.raises(ZeroSum, match=r"^coordinate sum of \(1\.0, -1\.0\) "):
        normalize_projective(rs, (1.0, -1.0))


def test_chart_rank_guard(battery):
    from coxlow.projective import chart_vertices
    with pytest.raises(RankNotThree):
        chart_vertices(4)


RANK_GUARDS = {
    "build_gbip": lambda rs: coxlow.conjecture.build_gbip(rs, IDENTITY),
    "check_gbip": lambda rs: coxlow.conjecture.check_gbip(rs, frozenset()),
    "check_gbip_walk": lambda rs: coxlow.conjecture.check_gbip_walk(
        rs, small_roots(rs), 2),
    "verify_inversion_polytopes": lambda rs: (
        coxlow.conjecture.verify_inversion_polytopes(rs, small_roots(rs),
                                                     None, {})),
    "render_svg": lambda rs: render_svg(rs, small_roots(rs)),
    "chart": lambda rs: normalize_projective(rs, rs.simple_roots[0]),
}


@pytest.mark.parametrize("site, rank", [
    (site, rank) for site in RANK_GUARDS for rank in (2, 4)
    if (site, rank) != ("chart", 2)])      # rank 2 has a chart, a segment
def test_rank_errors_name_the_rank(site, rank):
    matrix = (dihedral_matrix(3) if rank == 2 else
              [[1, 3, 2, 2], [3, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]])  # A4
    rs = build_root_system(matrix)
    with pytest.raises(RankNotThree, match=r", not rank %d$" % rank):
        RANK_GUARDS[site](rs)


# -- hulls --------------------------------------------------------------

def test_convex_hull_degenerate():
    assert convex_hull_2d([(0.2, 0.3), (0.2, 0.3)]) == ((0.2, 0.3),)
    seg = convex_hull_2d([(0, 0), (0.5, 0.0), (1, 0)])
    assert seg == ((0, 0), (1, 0))


def test_convex_hull_square():
    pts = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5), (0.3, 0.9)]
    assert convex_hull_2d(pts) == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_hulls_equal_tolerance():
    h1 = ((0.0, 0.0), (1.0, 0.0))
    h2 = ((1e-8, -1e-8), (1.0, 1e-8))
    assert hulls_equal(h1, h2)
    assert not hulls_equal(h1, ((0.0, 0.0),))
    assert not hulls_equal(h1, ((0.0, 0.0), (1.0, 0.1)))


# -- SVG rendering ------------------------------------------------------

def test_render_requires_rank3():
    rs = build_root_system(dihedral_matrix(3))
    with pytest.raises(RankNotThree):
        render_svg(rs, small_roots(rs))


def test_render_options_validate(battery):
    rs, sigma, _ = battery.get("universal")
    with pytest.raises(ValidationError,
                       match=r"^render depth 0 must be >= 1$"):
        render_svg(rs, sigma, depth=0)
    for depth in (2.5, 2.0, True):
        with pytest.raises(ValidationError,
                           match=r"^render depth %s must be an int$"
                                 % re.escape(repr(depth))):
            render_svg(rs, sigma, depth=depth)
    with pytest.raises(ValidationError,
                       match=r"^canvas size 50 px must be >= 100 px$"):
        render_svg(rs, sigma, size=50)
    for size in (150.5, float("nan"), True):
        with pytest.raises(ValidationError,
                           match=r"^canvas size %s px must be an int$"
                                 % re.escape(repr(size))):
            render_svg(rs, sigma, size=size)


def test_render_byte_stable(battery):
    rs, sigma, aut = battery.get("affine-3-3-3")
    a = render_svg(rs, sigma, aut.states, depth=3, labels=True)
    b = render_svg(rs, sigma, aut.states, depth=3, labels=True)
    assert a == b
    assert a.startswith("<svg") and a.rstrip().endswith("</svg>")


def test_render_universal_depth1(battery):
    rs, sigma, _ = battery.get("universal")
    svg = render_svg(rs, sigma, depth=1)
    # exactly the 3 highlighted small-root dots, no others
    assert svg.count('r="4"') == 3
    assert svg.count('r="2.5"') == 0


def _point_segment_dist(p, a, b):
    ax, ay = a
    vx, vy = b[0] - ax, b[1] - ay
    t = ((p[0] - ax) * vx + (p[1] - ay) * vy) / (vx * vx + vy * vy)
    t = max(0.0, min(1.0, t))
    return math.hypot(p[0] - (ax + t * vx), p[1] - (ay + t * vy))


def test_sigma_points_on_triangle_edges(battery):
    # groups passing the edge condition draw Sigma on the triangle boundary
    rs, sigma, _ = battery.get("affine-3-3-3")
    svg = render_svg(rs, sigma, depth=3)
    corners = re.search(r'<polygon points="([^"]+)"', svg).group(1)
    tri = [tuple(map(float, xy.split(","))) for xy in corners.split()]
    reds = re.findall(r'<circle cx="([0-9.]+)" cy="([0-9.]+)" r="4"', svg)
    assert len(reds) == len(sigma) == 6
    for sx, sy in reds:
        p = (float(sx), float(sy))
        d = min(_point_segment_dist(p, tri[i], tri[(i + 1) % 3])
                for i in range(3))
        assert d <= 0.5, p


def _crosses(a, b, c, d):
    """Do the segments ab and cd cross at a point inside both?"""
    return (_cross(a, b, c) * _cross(a, b, d) < 0
            and _cross(c, d, a) * _cross(c, d, b) < 0)


def test_overlays_do_not_cross_themselves(battery):
    # each lambda hull is drawn around its boundary, so no two edges of an
    # overlay that share no vertex cross; the overlays do not depend on
    # the depth of the dots
    large = 0
    for name, _, _ in BATTERY:
        rs, sigma, aut = battery.get(name)
        svg = render_svg(rs, sigma, aut.states, depth=1)
        for points in re.findall(r'<polygon points="([^"]+)" fill="#3366cc"',
                                 svg):
            poly = [tuple(map(float, xy.split(","))) for xy in points.split()]
            n = len(poly)
            large += n >= 4
            edges = [(poly[k], poly[(k + 1) % n]) for k in range(n)]
            for i, j in itertools.combinations(range(n), 2):
                if (j - i) % n not in (1, n - 1):
                    assert not _crosses(*edges[i], *edges[j]), (name, points)
    assert large == 86


# -- group files --------------------------------------------------------

def test_parse_group_file_minimal():
    matrix, overrides, backend = parse_group_file(
        '{"rank": 2, "coxeter": [[1, 3], [3, 1]]}')
    assert matrix[0, 1] == 3 and overrides == {} and backend == "float"


def test_parse_group_file_inf_and_override():
    matrix, overrides, backend = parse_group_file("""
        {"rank": 2, "coxeter": [[1, "inf"], ["inf", 1]],
         "gram_overrides": [{"pair": [0, 1], "value": -1.5}],
         "backend": "rational"}""")
    assert matrix[0, 1] == INF
    assert overrides == {(0, 1): -1.5}
    assert backend == "rational"


def test_parse_group_file_errors():
    with pytest.raises(ParseError):
        parse_group_file("{not json")
    with pytest.raises(ValidationError, match="coxeter"):
        parse_group_file('{"rank": 2, "coxeter": [[1, 1], [1, 1]]}')
    with pytest.raises(ValidationError, match="gram_overrides"):
        parse_group_file("""
            {"rank": 2, "coxeter": [[1, 3], [3, 1]],
             "gram_overrides": [{"pair": [0, 1], "value": -1.5}]}""")
    with pytest.raises(ValidationError, match="rank"):
        parse_group_file('{"coxeter": [[1]]}')
    with pytest.raises(ValidationError,
                       match="^top-level document must be a JSON object$"):
        parse_group_file("[1]")
    with pytest.raises(ValidationError,
                       match=r'^field "coxeter": must be a 2x2 matrix$'):
        parse_group_file('{"rank": 2, "coxeter": [[1, 3]]}')
    with pytest.raises(ValidationError,
                       match=r'^field "gram_overrides"\[0\]: must be '
                             r'\{"pair": \[i, j\], "value": v\}$'):
        parse_group_file("""
            {"rank": 2, "coxeter": [[1, "inf"], ["inf", 1]],
             "gram_overrides": [{"pair": [0, 1]}]}""")


def test_group_json_roundtrip():
    text = group_to_json(triangle_matrix(3, INF, 2), {(1, 2): -2}, "float")
    matrix, overrides, backend = parse_group_file(text)
    assert matrix == triangle_matrix(3, INF, 2)
    assert overrides == {(1, 2): -2}


# -- CLI ----------------------------------------------------------------

@pytest.fixture
def universal_file(tmp_path):
    path = tmp_path / "universal.json"
    path.write_text(UNIVERSAL_JSON)
    return str(path)


def test_cli_small_roots(universal_file, capsys):
    assert main(["small-roots", universal_file]) == 0
    out = capsys.readouterr().out
    assert "small roots (3)" in out


def test_cli_growth_elements(universal_file, capsys):
    assert main(["growth", universal_file, "--terms", "4", "--elements"]) == 0
    out = capsys.readouterr().out
    assert "[1, 3, 6, 12, 24]" in out


def test_cli_verify_ok(universal_file, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(["verify", universal_file, "--max-length", "4",
                 "--gbip-length", "4", "--polytopes",
                 "--out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["schema"] == "coxlow/verify/1"
    assert report["bijective"] is True
    assert report["gbip"]["violations"] == 0
    assert report["polytopes"]["matched"] == report["polytopes"]["total"] == 4


def test_cli_runs_as_a_module(universal_file, capsys, monkeypatch):
    # python -m coxlow.cli exits with main's return code
    monkeypatch.setattr(sys, "argv", ["coxlow", "growth", universal_file,
                                      "--terms", "-1"])
    with warnings.catch_warnings():
        # coxlow.cli is imported already, and runpy says so
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SystemExit) as info:
            runpy.run_module("coxlow.cli", run_name="__main__")
    assert info.value.code == 2
    assert capsys.readouterr().err == "error: --terms -1 must be >= 0\n"


def test_cli_low_elements_incomplete(tmp_path, capsys, monkeypatch):
    # length 2 realizes 10 of hyperbolic-3-3-4's 18 small inversion sets;
    # an incomplete search is reported, not an error
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    out_path = tmp_path / "low.json"
    assert main(["low-elements", "demos/groups/hyperbolic-3-3-4.json",
                 "--max-length", "2", "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == ("completeness: INCOMPLETE: 8 of 18 small "
                                    "inversion sets unrealized (|Lambda| = 18)")
    doc = json.loads(out_path.read_text())
    assert doc["complete"] is False
    assert doc["unrealized_masks"] == [11, 25, 38, 42, 81, 84, 85, 100]


def test_cli_verify_unresolved(tmp_path, capsys):
    path = tmp_path / "h3.json"
    path.write_text(group_to_json(triangle_matrix(5, 3, 2)))
    code = main(["verify", str(path), "--max-length", "3",
                 "--gbip-length", "3"])
    assert code == 3
    assert "unresolved" in capsys.readouterr().out


def test_cli_verify_polytopes_needs_rank_three(tmp_path, capsys):
    # the rank is checked before verify prints anything
    path = tmp_path / "dihedral.json"
    path.write_text(group_to_json(dihedral_matrix(INF)))
    assert main(["verify", str(path), "--max-length", "4",
                 "--polytopes"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --polytopes needs rank 3, not 2\n"


def test_cli_verify_polytopes_outside_hypothesis(tmp_path, capsys):
    # A3's small roots leave the simplex edges: the check still runs,
    # says so, and a full match exits 0
    path = tmp_path / "a3.json"
    path.write_text(group_to_json(triangle_matrix(3, 3, 2)))
    report_path = tmp_path / "report.json"
    assert main(["verify", str(path), "--max-length", "6", "--polytopes",
                 "--out", str(report_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == [
        "note: small roots leave the simplex edges; the polytope claim is "
        "outside its stated hypothesis",
        "inversion polytopes: 24/24 matched (hypothesis not met)"]
    assert json.loads(report_path.read_text())["polytopes"] == {
        "hypothesis_met": False, "matched": 24, "total": 24}


def test_cli_validation_exit(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"rank": 2, "coxeter": [[1, 1], [1, 1]]}')
    assert main(["small-roots", str(path)]) == 2
    assert "coxeter" in capsys.readouterr().err
    assert main(["small-roots", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("argv", [
    ["small-roots"], ["low-elements", "--max-length", "4"], ["automaton"],
    ["growth", "--terms", "4", "--elements"],
    ["verify", "--max-length", "4", "--gbip-length", "4", "--polytopes"],
    ["render", "--depth", "2", "--lambdas"],
], ids=lambda argv: argv[0])
def test_cli_writes_its_document_to_out(universal_file, tmp_path, capsys,
                                        argv):
    # with --out the document leaves stdout for the file, and the text
    # lines before it stay
    argv = argv[:1] + [universal_file] + argv[1:]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    path = tmp_path / "document"
    assert main(argv + ["--out", str(path)]) == 0
    lines = capsys.readouterr().out
    document = path.read_text()
    assert document and lines + document == plain


@pytest.mark.parametrize("option,value,message", [
    ("--tolerance", "abc", "--tolerance 'abc' is not a number"),
    ("--tolerance", "", "--tolerance '' is not a number"),
    ("--backend", "exact", 'backend \'exact\' must be "float" or "rational"'),
    ("--backend", "", 'backend \'\' must be "float" or "rational"'),
], ids=["tolerance-text", "tolerance-empty", "backend-name", "backend-empty"])
def test_cli_option_errors_are_one_line(universal_file, capsys, option,
                                        value, message):
    # the option's value is checked by its owner, not by argparse's usage
    assert main(["small-roots", universal_file, option, value]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: %s\n" % message


def test_cli_automaton_dot(universal_file, tmp_path, capsys):
    dot_path = tmp_path / "aut.dot"
    assert main(["automaton", universal_file, "--dot", str(dot_path)]) == 0
    dot = dot_path.read_text()
    assert dot.startswith("digraph") and dot.count("shape=circle") == 4


def test_cli_render(universal_file, tmp_path):
    svg_path = tmp_path / "pic.svg"
    assert main(["render", universal_file, "--depth", "2",
                 "--out", str(svg_path)]) == 0
    text = svg_path.read_text()
    assert text.startswith("<svg")
    # determinism doubles as the golden-file check
    svg_path2 = tmp_path / "pic2.svg"
    main(["render", universal_file, "--depth", "2", "--out", str(svg_path2)])
    assert text == svg_path2.read_text()


def test_cli_tolerance_env(universal_file, monkeypatch):
    monkeypatch.setenv("COXLOW_TOLERANCE", "1e-6")
    assert main(["small-roots", universal_file]) == 0


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_cli_tolerance_must_be_finite_and_nonnegative(universal_file, capsys,
                                                      value):
    assert main(["small-roots", universal_file, "--tolerance", value]) == 2
    assert ("tolerance %r must be finite" % float(value)
            in capsys.readouterr().err)
    with pytest.raises(ValidationError, match="tolerance"):
        build_root_system(dihedral_matrix(INF), eps=float(value))


def test_cli_tolerance_env_must_be_a_number(universal_file, monkeypatch,
                                            capsys):
    monkeypatch.setenv("COXLOW_TOLERANCE", "abc")
    assert main(["small-roots", universal_file]) == 2
    assert "COXLOW_TOLERANCE='abc' is not a number" in capsys.readouterr().err


@pytest.mark.parametrize("command,option", [
    ("low-elements", ["--max-length", "-2"]),
    ("verify", ["--max-length", "-1"]),
    ("verify", ["--max-length", "3", "--gbip-length", "-1"]),
    ("growth", ["--terms", "-3"]),
])
def test_cli_lengths_must_be_nonnegative(universal_file, capsys, monkeypatch,
                                         command, option):
    argv = [command, universal_file] + option
    named = " ".join(option[-2:])
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: %s must be >= 0\n" % named
    # the one line comes from a ValidationError: uncaught, it escapes main
    monkeypatch.setattr(coxlow.cli, "CoxlowError", ZeroDivisionError)
    with pytest.raises(ValidationError, match="^%s must be >= 0$" % named):
        main(argv)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("command", [
    ["small-roots"], ["growth", "--terms", "5", "--elements"],
    ["verify", "--max-length", "4"]])
def test_cli_rejects_non_finite_override(tmp_path, capsys, literal, command):
    # JSON has no such literals, but Python's reader accepts them; the file
    # keeps each as its spelling, so no NaN is compared with -1 and the
    # override check refuses the value as not a number
    path = tmp_path / "group.json"
    path.write_text(UNIVERSAL_JSON.replace(
        '"backend"', '"gram_overrides": [{"pair": [0, 1], "value": %s}],\n'
        '  "backend"' % literal))
    assert main([command[0], str(path)] + command[1:]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ('error: field "gram_overrides"[0]: override value %r on '
                   'bond (0,1) must be a number\n' % literal)


def _with_overrides(value):
    return UNIVERSAL_JSON.replace(
        '"backend"', '"gram_overrides": %s,\n  "backend"' % value)


NOT_A_LIST = 'field "gram_overrides": must be a list'


@pytest.mark.parametrize("text,message", [
    (_with_overrides("5"), NOT_A_LIST),
    (_with_overrides("null"), NOT_A_LIST),
    (_with_overrides('{"pair": [0, 1], "value": -1.5}'), NOT_A_LIST),
    (_with_overrides('"[]"'), NOT_A_LIST),
    ('{"rank": true, "coxeter": [[1]]}',
     'field "rank": must be a positive integer'),
    (_with_overrides('[{"pair": [false, true], "value": -1.5}]'),
     'field "gram_overrides"[0]: override pair (False, True) must be two '
     'distinct generator indices in [0, 3)'),
], ids=["number", "null", "dict", "string", "bool-rank", "bool-pair"])
def test_cli_rejects_malformed_group_fields(tmp_path, capsys, text, message):
    # each names its field and exits 2: none may crash, and no dict or
    # string is read as the list, no bool as an integer
    path = tmp_path / "group.json"
    path.write_text(text)
    assert main(["small-roots", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: %s\n" % message


def _rank2_file(coxeter=(1, "inf"), override=None, backend="float"):
    """A rank-2 group file; ``coxeter`` is a matrix or its first row."""
    if not isinstance(coxeter[0], list):
        coxeter = [list(coxeter), list(coxeter[::-1])]
    doc = {"rank": 2, "coxeter": coxeter, "backend": backend}
    if override:
        doc["gram_overrides"] = [{"pair": override[0], "value": override[1]}]
    return json.dumps(doc)


INF2 = [[1, INF], [INF, 1]]
COXETER, OVERRIDE = '"coxeter"', '"gram_overrides"[0]'

# For each value rule of a group file: the field, a file that breaks the
# rule, and the same values as build_root_system's arguments.  A file
# keeps a number that is not finite as its spelling ("NaN", "Infinity").
VALUE_RULES = {
    "diagonal": (COXETER, _rank2_file([[2, "inf"], ["inf", 1]]),
                 ([[2, INF], [INF, 1]],)),
    "diagonal-bool": (COXETER, _rank2_file([[True, "inf"], ["inf", 1]]),
                      ([[True, INF], [INF, 1]],)),
    "diagonal-float": (COXETER, _rank2_file([[1.0, "inf"], ["inf", 1]]),
                       ([[1.0, INF], [INF, 1]],)),
    "label": (COXETER, _rank2_file((1, 1)), ([[1, 1], [1, 1]],)),
    "label-float": (COXETER, _rank2_file((1, 3.0)), ([[1, 3.0], [3.0, 1]],)),
    "label-bool": (COXETER, _rank2_file((1, True)),
                   ([[1, True], [True, 1]],)),
    "label-string": (COXETER, _rank2_file((1, "x")), ([[1, "x"], ["x", 1]],)),
    "label-infinity": (COXETER, _rank2_file((1, math.inf)),
                       ([[1, "Infinity"], ["Infinity", 1]],)),
    "asymmetric": (COXETER, _rank2_file([[1, 3], [2, 1]]),
                   ([[1, 3], [2, 1]],)),
    "pair-range": (OVERRIDE, _rank2_file(override=([0, 2], -1.5)),
                   (INF2, {(0, 2): -1.5})),
    "pair-repeated": (OVERRIDE, _rank2_file(override=([1, 1], -1.5)),
                      (INF2, {(1, 1): -1.5})),
    "pair-bool": (OVERRIDE, _rank2_file(override=([False, True], -1.5)),
                  (INF2, {(False, True): -1.5})),
    "pair-length": (OVERRIDE, _rank2_file(override=([0, 1, 1], -1.5)),
                    (INF2, {(0, 1, 1): -1.5})),
    "pair-scalar": (OVERRIDE, _rank2_file(override=(0, -1.5)),
                    (INF2, {0: -1.5})),
    "finite-bond": (OVERRIDE, _rank2_file((1, 3), ([0, 1], -1.5)),
                    ([[1, 3], [3, 1]], {(0, 1): -1.5})),
    "value-null": (OVERRIDE, _rank2_file(override=([0, 1], None)),
                   (INF2, {(0, 1): None})),
    "value-string": (OVERRIDE, _rank2_file(override=([0, 1], "-2")),
                     (INF2, {(0, 1): "-2"})),
    "value-bool": (OVERRIDE, _rank2_file(override=([0, 1], True)),
                   (INF2, {(0, 1): True})),
    "value-nan": (OVERRIDE, _rank2_file(override=([0, 1], math.nan)),
                  (INF2, {(0, 1): "NaN"})),
    "value-above": (OVERRIDE, _rank2_file(override=([0, 1], -0.5)),
                    (INF2, {(0, 1): -0.5})),
    "backend": ('"backend"', _rank2_file(backend="rationl"),
                (INF2, None, "rationl")),
}


@pytest.mark.parametrize("rule", VALUE_RULES)
def test_group_file_errors_are_the_owners(tmp_path, capsys, rule):
    # a group file checks no value itself: its one stderr line names the
    # field, then gives the text the API raises for the same values
    field, text, args = VALUE_RULES[rule]
    with pytest.raises(CoxlowError) as owner:
        build_root_system(*args)
    path = tmp_path / "group.json"
    path.write_text(text)
    assert main(["small-roots", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: field %s: %s\n" % (field, owner.value)


@pytest.mark.parametrize("option", ["--out", "--dot"])
@pytest.mark.parametrize("target", ["missing-dir", "dir"])
def test_cli_write_errors_exit_2(universal_file, tmp_path, capsys, option,
                                 target):
    path = str(tmp_path / "missing" / "x") if target == "missing-dir" \
        else str(tmp_path)
    command = "automaton" if option == "--dot" else "growth"
    argv = [command, universal_file, option, path]
    if command == "growth":
        argv += ["--terms", "3"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    # growth prints its lines before it writes the report
    assert out == ("" if command == "automaton"
                   else "reduced words by length: [1, 3, 6, 12]\n")
    assert err.startswith("error: cannot write %s: " % path)
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("case", ["missing", "not-utf8"])
def test_cli_group_file_read_errors_exit_2(tmp_path, capsys, case):
    path = tmp_path / "group.json"
    if case == "not-utf8":
        path.write_bytes(UNIVERSAL_JSON.replace('"float"', '"fl\xf6at"')
                         .encode("latin-1"))
        reason = "'utf-8' codec can't decode byte 0xf6"
    else:
        reason = "No such file or directory\n"
    assert main(["small-roots", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot read %s: %s" % (path, reason))
    assert err.count("\n") == 1 and err.endswith("\n")


def test_cli_builds_its_parser_once(universal_file, capsys, monkeypatch):
    # options set by one call must not leak into the next
    argvs = [
        ["verify", universal_file, "--max-length", "3", "--gbip-length",
         "3", "--polytopes"],
        ["verify", universal_file, "--max-length", "3", "--gbip-length",
         "3"],
        ["growth", universal_file, "--terms", "4", "--elements"],
        ["growth", universal_file, "--terms", "4"],
        ["render", universal_file, "--depth", "1", "--lambdas", "--labels",
         "--size", "300"],
        ["render", universal_file, "--depth", "1"],
        ["small-roots", universal_file, "--backend", "rational",
         "--tolerance", "1e-9"],
        ["small-roots", universal_file],
        ["low-elements", universal_file, "--max-length", "-1"],
        ["low-elements", universal_file, "--max-length", "2"],
    ]

    def run(argv):
        code = main(argv)
        return (code,) + tuple(capsys.readouterr())

    expected = []
    for argv in argvs:
        coxlow.cli.build_parser.cache_clear()
        expected.append(run(argv))
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    coxlow.cli.build_parser.cache_clear()
    coxlow.cli.build_parser()
    per_parser = len(built)
    coxlow.cli.build_parser.cache_clear()
    del built[:]
    assert [run(argv) for argv in argvs] == expected
    assert len(built) == per_parser > 0


def test_cli_verify_builds_no_graph(capsys, monkeypatch):
    # verify decides the G_bip claim on bitmasks, with the golden output
    root = Path(__file__).resolve().parent.parent
    golden = root / "tests" / "golden"
    made = []

    class CountingGraph(coxlow.conjecture.BipGraph):
        def __init__(self, *args):
            made.append(self)
            super().__init__(*args)

    monkeypatch.setattr(coxlow.conjecture, "BipGraph", CountingGraph)
    monkeypatch.chdir(root)
    cases = [case for case in json.loads((golden / "cases.json").read_text())
             if case["argv"][0] == "verify"]
    assert len(cases) == 5
    for case in cases:
        assert main(case["argv"]) == case["exit"]
        out = capsys.readouterr().out
        assert out == (golden / (case["name"] + ".out")).read_text()
    assert made == []
    rs = load_root_system((root / "demos" / "groups" /
                           "hyperbolic-3-3-4.json").read_text())
    coxlow.conjecture.build_gbip(rs, IDENTITY)
    assert len(made) == 1       # the count sees a graph that is built


def test_golden_dot_infinite_dihedral():
    rs = build_root_system(dihedral_matrix(INF))
    sigma = small_roots(rs)
    from coxlow import export_dot
    dot = export_dot(build_automaton(rs, sigma))
    golden = (
        'digraph reduced_words {\n'
        '  rankdir=LR;\n'
        '  start [shape=point, label=""];\n'
        '  n0 [shape=circle, label="0: {}"];\n'
        '  n1 [shape=circle, label="2: {1}"];\n'
        '  n2 [shape=circle, label="1: {0}"];\n'
        '  start -> n0;\n'
        '  n0 -> n1 [label="s0"];\n'
        '  n0 -> n2 [label="s1"];\n'
        '  n1 -> n2 [label="s1"];\n'
        '  n2 -> n1 [label="s0"];\n'
        '}\n'
    )
    assert dot == golden
