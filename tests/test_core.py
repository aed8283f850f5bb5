import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from coxlow import (
    BATTERY,
    INF,
    DEFAULT_EPS,
    CoxeterMatrix,
    battery_root_system,
    build_root_system,
    dihedral_matrix,
    inversion_set,
    load_root_system,
    roots_up_to_depth,
    small_roots,
    triangle_matrix,
)
from coxlow.errors import (
    CoxlowError,
    DimensionMismatch,
    InvalidBondLabel,
    IrrationalEntryForExactBackend,
    NonSymmetricMatrix,
    OverrideAboveMinusOne,
    OverrideOnFiniteBond,
    ValidationError,
)

from conftest import RATIONAL_NAMES, inversion_levels, peel_depth


def dihedral(m, **kw):
    return build_root_system(dihedral_matrix(m), **kw)


# -- matrices -----------------------------------------------------------

def test_matrix_validation():
    with pytest.raises(NonSymmetricMatrix):
        CoxeterMatrix([[1, 3], [2, 1]])
    with pytest.raises(NonSymmetricMatrix,
                       match=r"^matrix is not square: row 0 has 3 entries, "
                             r"not 2$"):
        CoxeterMatrix([[1, 3, 2], [3, 1, 2]])
    with pytest.raises(InvalidBondLabel,
                       match=r"^diagonal entries must be 1, not "
                             r"m\(0,0\) = 2$"):
        CoxeterMatrix([[2, 3], [3, 1]])
    with pytest.raises(InvalidBondLabel):
        CoxeterMatrix([[1, 1], [1, 1]])
    with pytest.raises(InvalidBondLabel):
        CoxeterMatrix([[1, 2.5], [2.5, 1]])


def test_bond_values():
    # m=3 -> -1/2, m=2 -> 0, inf -> -1 by default
    assert dihedral(3).gram[0][1] == pytest.approx(-0.5)
    assert dihedral(2).gram[0][1] == pytest.approx(0.0)
    assert dihedral(INF).gram[0][1] == pytest.approx(-1.0)
    assert dihedral(4).gram[0][1] == pytest.approx(-math.cos(math.pi / 4))


def test_override_rules():
    rs = build_root_system(dihedral_matrix(INF), gram_overrides={(0, 1): -1.5})
    assert rs.gram[0][1] == pytest.approx(-1.5)
    assert rs.gram[1][0] == pytest.approx(-1.5)
    with pytest.raises(OverrideOnFiniteBond):
        build_root_system(dihedral_matrix(3), gram_overrides={(0, 1): -1.5})
    with pytest.raises(OverrideAboveMinusOne):
        build_root_system(dihedral_matrix(INF), gram_overrides={(0, 1): -0.5})


@pytest.mark.parametrize("backend", ["float", "rational"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_override_must_be_finite(backend, value):
    with pytest.raises(ValidationError, match=r"\(0,1\) must be finite"):
        build_root_system(dihedral_matrix(INF), gram_overrides={(0, 1): value},
                          backend=backend)


def test_matrix_errors_name_the_value():
    with pytest.raises(NonSymmetricMatrix,
                       match=r"^m\(0,1\) = 3 != m\(1,0\) = 2$"):
        CoxeterMatrix([[1, 3], [2, 1]])
    with pytest.raises(InvalidBondLabel,
                       match=r"^m\(0,1\) = 1 must be an integer >= 2 or inf$"):
        CoxeterMatrix([[1, 1], [1, 1]])


# Inputs the API path accepted, or failed on with a bare TypeError, while
# the group-file path refused them: each now raises a CoxlowError that
# names the value.
@pytest.mark.parametrize("diagonal", [True, 1.0])
def test_matrix_diagonal_must_be_the_int_1(diagonal):
    with pytest.raises(InvalidBondLabel,
                       match=r"^diagonal entries must be 1, not "
                             r"m\(0,0\) = %s$" % diagonal):
        build_root_system([[diagonal, 3], [3, 1]])


def test_backend_name_is_checked():
    with pytest.raises(CoxlowError,
                       match=r"^backend 'rationl' must be \"float\" or "
                             r"\"rational\"$"):
        build_root_system(dihedral_matrix(3), backend="rationl")


@pytest.mark.parametrize("eps", [True, False])
def test_tolerance_must_not_be_a_bool(eps):
    # a bool is an int to isinstance: True would set eps2 = 2
    with pytest.raises(ValidationError,
                       match=r"^tolerance %s must be a number$" % eps):
        build_root_system(dihedral_matrix(3), eps=eps)


@pytest.mark.parametrize("value, whole",
                         [(-2, True), (-1.5, True), (Fraction(-3, 2), True),
                          (-1.25, False)],
                         ids=["int", "float", "Fraction", "quarter"])
def test_override_is_held_in_the_backend_scalar(value, whole):
    # a float system holds floats, an exact one Fractions, however the
    # caller spelled the override; the table's doubled form follows the
    # system too: ints when every 2B is whole, else the backend's scalar
    rs = build_root_system(dihedral_matrix(INF),
                           gram_overrides={(0, 1): value})
    exact = build_root_system(dihedral_matrix(INF),
                              gram_overrides={(0, 1): value},
                              backend="rational")
    assert type(rs.gram[0][1]) is type(rs.gram[1][0]) is float
    assert rs.gram[0][1] == exact.gram[0][1] == value
    assert type(exact.gram[0][1]) is Fraction
    assert type(rs.root_table.gram2[0][1]) is (int if whole else float)
    assert type(exact.root_table.gram2[0][1]) is (int if whole else Fraction)
    assert rs.root_table.gram2[0][1] == exact.root_table.gram2[0][1]


def test_override_pair_must_be_two_ints():
    with pytest.raises(CoxlowError,
                       match=r"^override pair \(False, True\) must be two "
                             r"distinct generator indices in \[0, 2\)$"):
        build_root_system(dihedral_matrix(INF),
                          gram_overrides={(False, True): -1.5})


@pytest.mark.parametrize("backend", ["float", "rational"])
@pytest.mark.parametrize("value", [None, "-2"])
def test_override_value_must_be_a_number(backend, value):
    with pytest.raises(CoxlowError,
                       match=r"^override value %s on bond \(0,1\) must be a "
                             r"number$" % re.escape(repr(value))):
        build_root_system(dihedral_matrix(INF), gram_overrides={(0, 1): value},
                          backend=backend)


def test_rational_backend_rejects_irrational_bonds():
    with pytest.raises(IrrationalEntryForExactBackend):
        dihedral(4, backend="rational")
    rs = dihedral(3, backend="rational")
    assert rs.gram[0][1] == Fraction(-1, 2)


# -- bilinear form and reflections --------------------------------------

def test_bilinear_examples():
    rs = dihedral(INF)
    assert rs.bilinear((1, 0), (1, 0)) == pytest.approx(1.0)
    # s=0, t=1: B(alpha_t + 2 alpha_s, alpha_s) = 1
    assert rs.bilinear((2, 1), (1, 0)) == pytest.approx(1.0)
    rs3 = dihedral(3)
    assert rs3.bilinear((1, 1), (1, 0)) == pytest.approx(0.5)
    with pytest.raises(DimensionMismatch):
        rs.bilinear((1, 0, 0), (1, 0))


def test_reflect_examples():
    rs = dihedral(INF)
    assert rs.reflect(0, (1, 0)) == pytest.approx((-1, 0))
    assert rs.reflect(0, (0, 1)) == pytest.approx((2, 1))
    rs3 = dihedral(3)
    assert rs3.reflect(0, (0, 1)) == pytest.approx((1, 1))


def test_reflect_involution_random():
    rng = random.Random(7)
    for name in ("A3", "hyperbolic-3-3-4", "universal-override"):
        rs = _battery(name)
        for _ in range(50):
            v = tuple(rng.uniform(-3, 3) for _ in range(rs.rank))
            for s in range(rs.rank):
                assert rs.reflect(s, rs.reflect(s, v)) == pytest.approx(v)


def _battery(name, backend="float"):
    from coxlow import battery_root_system
    return battery_root_system(name, backend=backend)


# -- root enumeration ---------------------------------------------------

def test_depth_one_is_simple():
    rs = _battery("A3")
    roots = roots_up_to_depth(rs, 1)
    assert sorted(tuple(round(c, 9) for c in r.coords) for r in roots) == sorted(rs.simple_roots)
    assert all(r.depth == 1 for r in roots)


def test_depth_bound_error_names_the_bound():
    with pytest.raises(ValueError, match=r"^depth bound 0 must be >= 1$"):
        roots_up_to_depth(dihedral(3), 0)


@pytest.mark.parametrize("d", [2.5, 2.0, True, "3"])
def test_non_int_depth_bound_is_rejected(d):
    # 2.5 and 2.0 used to reach range() and True was read as depth 1
    with pytest.raises(ValueError,
                       match=r"^depth bound %s must be an int$"
                             % re.escape(repr(d))):
        roots_up_to_depth(dihedral(3), d)


def test_dihedral_m3_depth2_is_all():
    rs = dihedral(3)
    roots = roots_up_to_depth(rs, 2)
    assert sorted(tuple(round(c, 9) for c in r.coords) for r in roots) == [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]


def test_infinite_dihedral_depth2():
    rs = dihedral(INF)
    coords = sorted(tuple(round(c, 9) for c in r.coords) for r in roots_up_to_depth(rs, 2))
    assert coords == [(0.0, 1.0), (1.0, 0.0), (1.0, 2.0), (2.0, 1.0)]


@pytest.mark.parametrize("m,count", [(3, 3), (4, 4), (5, 5)])
def test_finite_dihedral_stabilizes(m, count):
    rs = dihedral(m)
    # closure to stability: find d with roots(d) == roots(d+1)
    prev = None
    for d in range(1, 12):
        cur = len(roots_up_to_depth(rs, d))
        if cur == prev:
            break
        prev = cur
    else:
        pytest.fail("did not stabilize")
    assert prev == count


def test_roots_sign_purity_and_norm():
    for name in ("B3", "hyperbolic-2-3-7", "universal-override"):
        rs = _battery(name)
        for root in roots_up_to_depth(rs, 5):
            assert rs.bilinear(root.coords, root.coords) == pytest.approx(1.0)
            for s in range(rs.rank):
                image = rs.reflect(s, root.coords)
                assert not (any(rs.is_pos(c) for c in image)
                            and any(rs.is_neg(c) for c in image)), \
                    (name, root, s)


def test_root_depths_are_correct():
    # root_depth fills the table by peeling; the oracle peels from scratch.
    # The roots come from another root system, so that rs's table is
    # filled by root_depth alone
    for name, _, _ in BATTERY:
        rs = _battery(name)
        for root in roots_up_to_depth(_battery(name), 8):
            assert (rs.root_depth(root.coords) == peel_depth(rs, root.coords)
                    == root.depth), (name, root)


@pytest.mark.parametrize("backend", ["float", "rational"])
def test_root_depth_keeps_an_exact_table_exact(backend):
    # universal's table is exact under both backends; a float vector's
    # peeling path enters it as ints, with int forms and keys
    rs = battery_root_system("universal", backend=backend)
    assert rs.root_depth((15.0, 6.0, 2.0)) == 4
    table = rs.root_table
    assert (15, 6, 2) in table.ids and len(table.coords) == 6
    for values in (table.coords, table.forms,
                   [key for _, key in table.sort_keys]):
        assert all(type(c) is int for v in values for c in v)


def test_root_depth_and_reflect_errors():
    rs = battery_root_system("universal")
    with pytest.raises(ValueError,
                       match=r"^not a positive root: \(1\.0, 1\.0, 0\.5\)$"):
        rs.root_depth((1.0, 1.0, 0.5))
    with pytest.raises(DimensionMismatch,
                       match=r"^expected vector of length 3, got 2$"):
        rs.root_depth((1.0, 1.0))
    with pytest.raises(ValueError, match=r"^s1 negates alpha_1$"):
        rs.root_table.reflect(1, 1)


@pytest.mark.parametrize("backend", ["float", "rational"])
def test_root_table_per_root_data(backend):
    # each root's stored form values are the doubled form 2B recomputed,
    # bit for bit (doubling a float is exact); its up mask (2B > 2 eps) and
    # sort key follow from them; and each root that
    # reflect added has exactly the coordinates rs.reflect gives its parent,
    # and its parent's depth stepped by the sign of the parent's form value
    names = ([name for name, _, _ in BATTERY] if backend == "float"
             else RATIONAL_NAMES)
    for name in names:
        rs = battery_root_system(name, backend=backend)
        table = rs.root_table
        parents = {}

        def recording(i, s, reflect=table.reflect):
            n = len(table.coords)
            j = reflect(i, s)
            if len(table.coords) > n:
                parents[j] = (i, s)
            return j

        table.reflect = recording
        for _, level, invs in inversion_levels(rs, 8):
            for (elem, _, _), inv in zip(level, map(frozenset, invs)):
                assert inversion_set(rs, elem) == inv, (name, elem)
        n = len(table.coords)
        assert set(parents) == set(range(rs.rank, n)), name
        assert (len(table.forms) == len(table.ups) == len(table.sort_keys)
                == n), name
        eps2 = 2 * rs.eps
        for i, coords in enumerate(table.coords):
            forms = tuple(2 * rs.form_simple(t, coords)
                          for t in range(rs.rank))
            assert table.forms[i] == forms, (name, i)
            assert table.ups[i] == sum(
                1 << t for t, b in enumerate(forms) if b > eps2), (name, i)
            assert table.sort_keys[i][1] == rs.vec_key(coords), (name, i)
            assert table.ids[table.sort_keys[i][1]] == i, (name, i)
        # each depth, sort_keys[j][0], is checked against its parent's
        for j, (i, s) in parents.items():
            assert table.coords[j] == rs.reflect(
                s, table.coords[i]), (name, i, s)
            # a root s fixes adds nothing; otherwise the form's sign steps
            # the depth
            b = table.forms[i][s]
            assert abs(b) > eps2, (name, i, s)
            assert table.sort_keys[j][0] == table.sort_keys[i][0] - (
                1 if b > eps2 else -1), (name, i, s)


def test_root_table_reflections_match_peeling_oracle():
    # the deepest roots enter by root_depth, which records only their
    # peeling paths; reflect(i, s) fills in the rest, up and down, with
    # depths from the signs of the stored form values alone
    for name, _, _ in BATTERY:
        rs = _battery(name)
        table = rs.root_table
        for i in range(rs.rank):
            assert table.sort_keys[i] == (1, rs.vec_key(rs.simple_roots[i]))
        roots = roots_up_to_depth(_battery(name), 8)
        for root in roots:
            if root.depth == roots[-1].depth:
                rs.root_depth(root.coords)
        i = 0
        while i < len(table.coords):
            for s in range(rs.rank):
                if i != s and (table.sort_keys[i][0] < 8
                               or table.ups[i] >> s & 1):
                    j = table.reflect(i, s)
                    assert table.sort_keys[j][1] == rs.vec_key(
                        rs.reflect(s, table.coords[i])), (name, i, s)
                    assert table.reflect(j, s) == i, (name, i, s)
            i += 1
        held = [table.root(i) for i in range(len(table.coords))]
        for root in held:
            assert root.depth == peel_depth(rs, root.coords), (name, root)
            assert table.ids[root.key] == held.index(root)
        assert ({r.key: r.depth for r in held}
                == {r.key: r.depth for r in roots}), name
        # one id-indexed column per generator, agreeing with reflect
        assert len(table.cols) == rs.rank
        for s, col in enumerate(table.cols):
            assert len(col) == len(table.coords), (name, s)
            assert col[s] is None, (name, s)
            for i, j in enumerate(col):
                if j is not None:
                    assert j == table.reflect(i, s), (name, i, s)
                    assert table.sort_keys[j][1] == rs.vec_key(
                        rs.reflect(s, table.coords[i])), (name, i, s)
                    assert col[j] == i, (name, i, s)


def test_depth_changes_by_at_most_one():
    rs = _battery("affine-3-3-3")
    roots = {r.key: r for r in roots_up_to_depth(rs, 6)}
    for root in roots.values():
        for s in range(rs.rank):
            image = rs.reflect(s, root.coords)
            other = roots.get(rs.vec_key(image))
            if other is not None:
                assert abs(other.depth - root.depth) <= 1


def test_backend_agreement_depth6():
    for name in RATIONAL_NAMES:
        rf = _battery(name, "float")
        rq = _battery(name, "rational")
        ff = sorted(tuple(round(float(c), 6) for c in r.coords)
                    for r in roots_up_to_depth(rf, 6))
        qq = sorted(tuple(round(float(c), 6) for c in r.coords)
                    for r in roots_up_to_depth(rq, 6))
        assert ff == qq


def test_exact_root_table_holds_ints():
    # 2B is integral on every rational battery group, so the exact table's
    # coordinates and form values are ints: Fraction never enters the hot
    # path, and a return to it fails here
    for name in RATIONAL_NAMES:
        rs = battery_root_system(name, backend="rational")
        small_roots(rs)
        for _ in inversion_levels(rs, 8):
            pass
        table = rs.root_table
        assert all(type(x) is int for v in table.coords for x in v), name
        assert all(type(x) is int for v in table.forms for x in v), name


WHOLE_FLOAT_NAMES = ("universal", "universal-override")
WHOLE_FLOAT_FILES = WHOLE_FLOAT_NAMES + ("infinite-dihedral",)
DEMO_GROUPS = Path(__file__).resolve().parent.parent / "demos" / "groups"


def _whole_float_systems():
    # (label, float system, the same group under the rational backend)
    for name in WHOLE_FLOAT_FILES:
        text = (DEMO_GROUPS / (name + ".json")).read_text()
        yield (name + ".json", load_root_system(text),
               load_root_system(text, backend="rational"))
    for name in WHOLE_FLOAT_NAMES:
        yield name, _battery(name), _battery(name, "rational")


def test_whole_float_systems_hold_an_exact_table():
    # every float 2B is whole here (bonds inf, overrides in Z/2), so the
    # table is the rational backend's: ints, and a root's key is its
    # coordinate tuple itself; the system's own form and tolerance stay float
    for label, rs, exact in _whole_float_systems():
        assert rs.backend == "float" and not rs.exact, label
        assert rs.eps == DEFAULT_EPS, label
        assert all(type(x) is float for row in rs.gram for x in row), label
        roots = roots_up_to_depth(rs, 10)
        table = rs.root_table
        assert all(type(x) is int for row in table.gram2 for x in row), label
        for held in (table.coords, table.forms):
            assert all(type(x) is int for v in held for x in v), label
        assert all(table.sort_keys[i][1] is v
                   for i, v in enumerate(table.coords)), label
        assert ([(r.coords, r.depth) for r in roots]
                == [(r.coords, r.depth)
                    for r in roots_up_to_depth(exact, 10)]), label


def test_float_table_unless_every_2b_is_whole():
    # bonds 2 and 3 double to -1.22e-16 and -1.0000000000000002 in float,
    # so every other float system keeps the float table and its key grid
    for name, _, _ in BATTERY:
        table = _battery(name).root_table
        whole = name in WHOLE_FLOAT_NAMES
        assert (table.vec_key is tuple) == whole, name
        assert all(type(x) is (int if whole else float)
                   for row in table.gram2 for x in row), name
        assert all(type(x) is (int if whole else float)
                   for v in table.coords for x in v), name


def test_deterministic_ordering():
    rs = _battery("B3")
    a = [r.coords for r in roots_up_to_depth(rs, 5)]
    b = [r.coords for r in roots_up_to_depth(rs, 5)]
    assert a == b
    depths = [r.depth for r in roots_up_to_depth(rs, 5)]
    assert depths == sorted(depths)


def test_triangle_matrix_layout():
    m = triangle_matrix(3, 4, 5)
    assert m[0, 1] == 3 and m[1, 2] == 4 and m[0, 2] == 5


def test_matrix_and_root_system_reprs_and_hashes():
    m = triangle_matrix(3, 4, 5)
    assert repr(m) == "CoxeterMatrix(((1, 3, 5), (3, 1, 4), (5, 4, 1)))"
    assert hash(m) == hash(triangle_matrix(3, 4, 5))
    assert len({m, triangle_matrix(3, 4, 5)}) == 1
    assert repr(build_root_system(m)) == ("BasedRootSystem(rank=3, "
                                          "backend='float')")
    rs = build_root_system(triangle_matrix(3, 3, 2), backend="rational")
    assert repr(rs) == "BasedRootSystem(rank=3, backend='rational')"


def test_roots_from_one_table_id_hash_alike():
    rs = _battery("A3")
    i = small_roots(rs).ids[-1]     # a deep root, added by the closure
    a, b = rs.root_table.root(i), rs.root_table.root(i)
    assert a is not b and hash(a) == hash(b)
    assert {a, b} == {a}
