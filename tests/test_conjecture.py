import gc
import itertools
import random
import re
import weakref
from collections import Counter
from pathlib import Path

import pytest

import coxlow.conjecture
import coxlow.elements
from coxlow import (
    BATTERY,
    BipGraph,
    Element,
    IDENTITY,
    INF,
    SmallRootSet,
    battery_root_system,
    build_automaton,
    build_gbip,
    build_root_system,
    check_acyclic,
    check_gbip,
    check_simplex_edge_condition,
    construct_low_from_lambda,
    dihedral_matrix,
    elements_up_to_length,
    enumerate_low,
    enumerate_low_stable,
    inversion_set,
    is_low,
    left_descents,
    load_root_system,
    normalize,
    roots_up_to_depth,
    small_inversion_mask,
    small_roots,
    source_generators,
    triangle_matrix,
    verify_bijection,
    verify_inversion_polytopes,
)
from coxlow.conjecture import check_gbip_walk
from coxlow.core import RootTable
from coxlow.errors import ConstructionFailed, RankNotThree
from coxlow.projective import EPS, EPS_AREA, _cross, chart_points

from conftest import (
    RATIONAL_NAMES, gbip_oracle, inversion_levels, matrix_edge_condition,
    pairwise_polytope_witnesses, reference_gbip, topological_sort)

RANK3_SAMPLE = ("A3", "affine-3-3-3", "hyperbolic-3-3-4", "universal-override")
DEMO_GROUPS = Path(__file__).resolve().parent.parent / "demos" / "groups"


def test_battery_is_fixed():
    assert len(BATTERY) == 16
    names = [name for name, _, _ in BATTERY]
    assert names[0] == "2-2-2" and "hyperbolic-2-3-7" in names


def test_battery_root_system_rejects_an_unknown_name():
    with pytest.raises(KeyError) as info:
        battery_root_system("nope")
    assert info.value.args == ("nope",)


# -- synthetic graphs ---------------------------------------------------

def _is_cycle_of(witness, vertices, arcs):
    edges = {(vertices[u], vertices[v]) for u, v in arcs}
    return len(set(witness)) == len(witness) > 0 and all(
        (u, witness[(n + 1) % len(witness)]) in edges
        for n, u in enumerate(witness))


def test_check_acyclic_synthetic():
    # check_acyclic takes no hand-built arc graph: the verdict and the
    # witness cycle in arc direction are checked on Kahn's sort, the
    # tests' reference, whose sources are empty on a cyclic graph
    assert topological_sort([], []) == (True, None, ())
    two = [("g", "a"), ("r", "x")]
    with pytest.raises(TypeError, match="not a G_bip graph"):
        check_acyclic((two, [(0, 1), (1, 0)]))
    ok, witness, srcs = topological_sort(two, [(0, 1), (1, 0)])
    assert not ok and srcs == ()
    assert set(witness) == set(two)
    assert _is_cycle_of(witness, two, [(0, 1), (1, 0)])
    # the least vertex, ("g", "0"), is a sink downstream of the cycle
    three = [("g", "0"), ("g", "a"), ("r", "x")]
    arcs = [(1, 2), (2, 1), (2, 0)]
    ok, witness, srcs = topological_sort(three, arcs)
    assert not ok and srcs == ()
    assert _is_cycle_of(witness, three, arcs)
    # a BipGraph's arcs run descent -> root -> non-descent, so it has no
    # cycle, whatever its generator side holds
    assert check_acyclic(BipGraph((0, 1, 2), (0, 2))) == (True, None)


def test_sources_synthetic():
    # an unblocked generator and an unsupported root are sources
    loose = [("g", "a"), ("g", "b"), ("g", "c"), ("r", "x"), ("r", "y")]
    assert topological_sort(loose, [(0, 3), (4, 1)]) == (True, None,
                                                          (0, 2, 4))
    # ("g", "a") -> ("r", "b") -> ("g", "c")
    chain = [("g", "a"), ("g", "c"), ("r", "b")]
    assert topological_sort(chain, [(0, 2), (2, 1)]) == (True, None, (0,))
    # source_generators reads the generator sources a BipGraph holds
    assert source_generators(BipGraph((), ())) == ()
    assert source_generators(BipGraph((0, 2), (0,))) == (0,)


# -- the graph on real elements -----------------------------------------

def test_gbip_identity(battery):
    rs, _, _ = battery.get("hyperbolic-3-3-4")
    graph = build_gbip(rs, IDENTITY)
    assert isinstance(graph, BipGraph)
    assert graph.gen_labels == graph.sources == ()
    assert reference_gbip(rs, frozenset()) == ([], [])
    # a hand-built arc graph is not a BipGraph, whose check reads no arcs
    with pytest.raises(TypeError, match="not a G_bip graph"):
        check_acyclic(([("g", 0), ("r", "x")], [(0, 1), (1, 0)]))


def test_warm_table_adds_and_reflects_nothing(monkeypatch):
    # a second pass over the same elements finds every root and column
    # entry it needs in the table: these routines call reflect only for a
    # missing cols entry, and add no root
    for name, _, _ in BATTERY:
        rs = battery_root_system(name)
        sigma = small_roots(rs)
        elems = elements_up_to_length(rs, 8)

        def run():
            for elem, _, _ in elems:
                inv = inversion_set(rs, elem)
                left_descents(rs, elem)
                build_gbip(rs, elem)
                check_gbip(rs, inv)
                is_low(rs, sigma, elem)

        run()
        calls = {"add": 0, "reflect": 0}
        for method in calls:
            def counted(*args, fn=getattr(RootTable, method), method=method):
                calls[method] += 1
                return fn(*args)
            monkeypatch.setattr(RootTable, method, counted)
        run()
        monkeypatch.undo()
        assert calls == {"add": 0, "reflect": 0}, name


def _assert_matches_oracle(rs, elem, where):
    """build_gbip's generators and the reference graph against the
    coordinate oracle, which reads no root table."""
    gens, roots, edges = gbip_oracle(rs, elem.word)
    vertices, arcs = reference_gbip(rs, inversion_set(rs, elem))
    assert list(build_gbip(rs, elem).gen_labels) == gens, where
    assert [v for tag, v in vertices if tag == "g"] == gens, where
    assert [v for tag, v in vertices if tag == "r"] == roots, where
    assert [(vertices[u], vertices[v]) for u, v in arcs] == edges, where


def test_gbip_matches_coordinate_oracle():
    # fresh root systems: the table is filled by N(w) alone.  The
    # rational backend labels roots by keys of Fractions.
    cases = [(name, "float") for name, _, _ in BATTERY]
    cases += [(name, "rational") for name in RATIONAL_NAMES]
    for name, backend in cases:
        rs = battery_root_system(name, backend)
        for elem, _, _ in elements_up_to_length(rs, 7):
            _assert_matches_oracle(rs, elem, (name, backend, elem))


def _reversed_root_system(name, depth):
    """A fresh root system whose table already holds every root of depth
    <= ``depth``, the non-simple ones entered deepest first, so that each
    root's shallower neighbours have larger ids than the root."""
    rs = battery_root_system(name)
    table = rs.root_table
    for root in reversed(roots_up_to_depth(battery_root_system(name), depth)):
        if root.key not in table.ids:
            table.add(root.coords, root.key, root.depth)
    return rs


def test_gbip_supports_do_not_depend_on_id_order():
    # supports are computed in (depth, key) order, never id order
    cases = [(name, 8) for name, _, _ in BATTERY] + [("universal", 10)]
    for name, max_len in cases:
        rs = _reversed_root_system(name, max_len)
        for elem, _, _ in elements_up_to_length(rs, max_len):
            _assert_matches_oracle(rs, elem, (name, elem))


def test_gbip_and_descents_compute_one_inversion_set(monkeypatch):
    # the bench's per-element pattern: build_gbip computes N(w) once, and
    # left_descents reads the descents off signed traces, building none
    calls = []

    def counted(rs, w):
        calls.append(w)
        return inversion_set(rs, w)
    monkeypatch.setattr(coxlow.conjecture, "inversion_set", counted)
    monkeypatch.setattr(coxlow.elements, "inversion_set", counted)
    for name, _, _ in BATTERY:
        rs = battery_root_system(name)
        for elem, _, _ in elements_up_to_length(rs, 6):
            del calls[:]
            graph = build_gbip(rs, elem)
            assert set(source_generators(graph)) == left_descents(rs, elem)
            assert calls == [elem], (name, elem)


def test_root_table_keeps_no_cycle_with_its_root_system():
    # without a cycle a root system and its filled table are freed as soon
    # as the last reference goes, not at the next cyclic collection
    rs = battery_root_system("hyperbolic-3-3-4")
    for elem, _, _ in elements_up_to_length(rs, 6):
        build_gbip(rs, elem)
    assert len(rs.root_table.coords) > rs.rank
    ref = weakref.ref(rs)
    gc.disable()
    try:
        del rs
        assert ref() is None
    finally:
        gc.enable()


def test_gbip_requires_rank3(monkeypatch):
    # the rank is checked before N(w) is computed
    calls = []
    monkeypatch.setattr(coxlow.conjecture, "inversion_set",
                        lambda rs, w: calls.append(w))
    rank4 = [[1, 3, 2, 2], [3, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]]
    for rs in (build_root_system(dihedral_matrix(3)),
               build_root_system(rank4)):
        for w in (IDENTITY, normalize(rs, (0, 1, 0))):
            with pytest.raises(RankNotThree):
                build_gbip(rs, w)
    assert calls == []


def _generator_sources(vertices, srcs):
    """The generator labels among Kahn's sources."""
    return tuple(vertices[k][1] for k in srcs if vertices[k][0] == "g")


def test_gbip_acyclic_and_sources_are_descents():
    # check_acyclic and the sources build_gbip reads are Kahn's on the
    # reference graph, on every element of every battery group to length 8
    cases = [(name, "float") for name, _, _ in BATTERY]
    cases += [(name, "rational") for name in RATIONAL_NAMES]
    for name, backend in cases:
        rs = battery_root_system(name, backend)
        for _, level, invs in inversion_levels(rs, 8):
            for (elem, _, _), inv in zip(level, map(frozenset, invs)):
                vertices, arcs = reference_gbip(rs, inv)
                ok, cycle, srcs = topological_sort(vertices, arcs)
                graph = build_gbip(rs, elem)
                where = (name, backend, elem)
                assert check_acyclic(graph) == (ok, cycle) == (True, None), \
                    where
                assert source_generators(graph) \
                    == _generator_sources(vertices, srcs) \
                    == tuple(s for s in range(3) if s in inv), where


def _kahn_claim(rs, inv):
    """check_gbip's answer for ``inv`` read off the reference graph by
    Kahn's sort, not by the standing rule: (True, None) when the graph is
    acyclic and no root is a source, else (False, (first root source,))."""
    vertices, arcs = reference_gbip(rs, inv)
    ok, cycle, srcs = topological_sort(vertices, arcs)
    roots = [vertices[k] for k in srcs if vertices[k][0] == "r"]
    if roots:
        return False, (roots[0],)
    return ok, cycle


def test_gbip_sort_result_on_arbitrary_id_sets():
    # random sets of table ids, coclosed or not: supported and unsupported
    # roots both occur, the reference graph stays acyclic, and check_gbip
    # gives Kahn's verdict, naming Kahn's first root source when it fails
    rng = random.Random(20)
    root_sources = supported = 0
    for name in ("hyperbolic-3-3-4", "universal", "affine-6-3-2", "H3"):
        rs = battery_root_system(name)
        for _ in inversion_levels(rs, 8):
            pass
        n = len(rs.root_table.coords)
        for _ in range(500):
            inv = {s for s in range(3) if rng.random() < 0.5}
            inv |= set(rng.sample(range(3, n), rng.randrange(1, 8)))
            assert check_gbip(rs, inv) == _kahn_claim(rs, inv), (name, inv)
            vertices, arcs = reference_gbip(rs, inv)
            acyclic, _, srcs = topological_sort(vertices, arcs)
            assert acyclic, (name, inv)
            n_src = sum(vertices[k][0] == "r" for k in srcs)
            root_sources += n_src > 0
            supported += n_src < sum(tag == "r" for tag, _ in vertices)
    assert root_sources >= 200 and supported >= 200, (root_sources, supported)


def test_gbip_sources_are_exactly_descents_on_lows(battery):
    rs, sigma, _ = battery.get("hyperbolic-3-3-4")
    for elem, _, _ in elements_up_to_length(rs, 6):
        if is_low(rs, sigma, elem) and elem.length:
            assert set(source_generators(build_gbip(rs, elem))) \
                == left_descents(rs, elem)


def test_peeling_a_source_keeps_lowness(battery):
    rs, sigma, _ = battery.get("affine-4-4-2")
    for elem, _, _ in elements_up_to_length(rs, 7):
        if not elem.length or not is_low(rs, sigma, elem):
            continue
        for s in source_generators(build_gbip(rs, elem)):
            peeled = normalize(rs, (s,) + elem.word)
            assert peeled.length == elem.length - 1
            assert is_low(rs, sigma, peeled), (elem, s)


# -- the mask check -----------------------------------------------------

def test_check_gbip_agrees_with_the_graph_check():
    cases = [(name, "float") for name, _, _ in BATTERY]
    cases += [(name, "rational") for name in RATIONAL_NAMES]
    for name, backend in cases:
        rs = battery_root_system(name, backend)
        for _, level, invs in inversion_levels(rs, 8):
            for (elem, _, _), inv in zip(level, map(frozenset, invs)):
                assert check_gbip(rs, inv) == _kahn_claim(rs, inv) \
                    == (True, None), (name, backend, elem)


def test_check_gbip_flags_sets_that_are_not_coclosed():
    # N(w) without its simple roots: no deep root has a supporting
    # descent.  The reference graph is still acyclic, with no generator
    # source; check_gbip must flag each set, naming Kahn's first root
    # source.
    rs = battery_root_system("hyperbolic-3-3-4")
    cut_sets = 0
    for _, level, invs in inversion_levels(rs, 10):
        for (elem, _, _), inv in zip(level, map(frozenset, invs)):
            cut = inv - {0, 1, 2}
            if not cut:
                continue
            cut_sets += 1
            vertices, arcs = reference_gbip(rs, cut)
            acyclic, _, srcs = topological_sort(vertices, arcs)
            assert acyclic and not _generator_sources(vertices, srcs), elem
            ok, witness = check_gbip(rs, cut)
            assert not ok, elem
            assert (ok, witness) == _kahn_claim(rs, cut), elem
    assert cut_sets == 399      # elements of length 2 to 10


# -- the check along the walk -------------------------------------------

def _walk_result(rs, max_len):
    """check_gbip_walk's (checked, failing words, sorted)."""
    checked, failed = check_gbip_walk(rs, small_roots(rs), max_len)
    return checked, sorted(failed)


def _reference_flags(rs, max_len):
    """(word, fails) for each element of the breadth-first reference, from
    the full check_gbip on its N(w)."""
    return [(elem.word, not check_gbip(rs, frozenset(inv))[0])
            for _, level, invs in inversion_levels(rs, max_len)
            for (elem, _, _), inv in zip(level, invs)]


def _full_result(rs, max_len):
    """_walk_result's pair from the reference flags."""
    flags = _reference_flags(rs, max_len)
    return len(flags), sorted(word for word, bad in flags if bad)


def _count_fallbacks(monkeypatch):
    """Record the sets of the full checks that check_gbip_walk falls back
    to."""
    calls = []

    def counted(rs, inv):
        calls.append(frozenset(inv))
        return check_gbip(rs, inv)
    monkeypatch.setattr(coxlow.conjecture, "check_gbip", counted)
    return calls


def test_check_gbip_walk_matches_check_gbip_per_element(monkeypatch):
    # every battery set passes, so the induction decides all of them and
    # the full check is never called
    fallbacks = _count_fallbacks(monkeypatch)
    cases = [(name, "float") for name, _, _ in BATTERY]
    cases += [(name, "rational") for name in RATIONAL_NAMES]
    for name, backend in cases:
        rs = battery_root_system(name, backend)
        result = _walk_result(rs, 8)
        assert result == _full_result(rs, 8), (name, backend)
        assert result[1] == [], (name, backend)
    assert not fallbacks


def test_check_gbip_walk_matches_check_gbip_under_mutation(monkeypatch):
    # clearing ups for 2 random deep roots leaves roots unsupported; the
    # induction must flag exactly the elements the full check flags, in
    # walk order (depth first, least letter first: lexicographic), and
    # falls back to the full check below every element that fails, on that
    # element's N(w); the full check names Kahn's first root source of the
    # reference graph on the same ups
    fallbacks = _count_fallbacks(monkeypatch)
    rng = random.Random(21)
    violations = 0
    for name in ("H3", "affine-4-4-2", "hyperbolic-3-3-4", "universal",
                 "inf-3-3"):
        for _ in range(6):
            rs = battery_root_system(name)
            for _ in inversion_levels(rs, 8):
                pass
            ups = rs.root_table.ups
            for i in rng.sample(range(3, len(ups)), 2):
                ups[i] = 0
            start = len(fallbacks)
            checked, failed = check_gbip_walk(rs, small_roots(rs), 8)
            assert failed == sorted(failed), name
            assert (checked, failed) == _full_result(rs, 8), name
            violations += len(failed)
            reference = set()
            for _, level, invs in inversion_levels(rs, 8):
                for (elem, _, _), inv in zip(level, map(frozenset, invs)):
                    assert check_gbip(rs, inv) == _kahn_claim(rs, inv), \
                        (name, elem)
                    reference.add(inv)
            assert reference.issuperset(fallbacks[start:]), name
    assert violations > 0 and fallbacks


def _gbip_groups():
    """(where, root system): the 16 battery groups in float, the rational
    ones in rational, and the rank-3 demo files."""
    for name, _, _ in BATTERY:
        yield (name, "float"), battery_root_system(name)
    for name in RATIONAL_NAMES:
        yield (name, "rational"), battery_root_system(name, "rational")
    for path in sorted(DEMO_GROUPS.glob("*.json")):
        rs = load_root_system(path.read_text())
        if rs.rank == 3:
            yield (path.name, "float"), rs


def test_check_gbip_walk_matches_the_reference_at_every_length():
    demos = 0
    for where, rs in _gbip_groups():
        demos += where[0].endswith(".json")
        sigma = small_roots(rs)
        flags = _reference_flags(rs, 12)
        sizes = Counter(len(word) for word, _ in flags)
        bad = sorted(word for word, fails in flags if fails)
        for n in range(13):
            expected = (sum(sizes[k] for k in range(n + 1)),
                        [word for word in bad if len(word) <= n])
            checked, failed = check_gbip_walk(rs, sigma, n)
            assert (checked, sorted(failed)) == expected, (where, n)
    assert demos == 4
    rs = battery_root_system("hyperbolic-3-3-4")
    assert check_gbip_walk(rs, small_roots(rs), 20) == (12429, [])


def test_check_gbip_walk_holds_no_frame_per_letter():
    # 2-2-inf is Z_2 x D_inf, with 1, 3 and then 4 elements of each
    # length, so |W_(<= L)| = 4 L; 1,100 letters is past the interpreter's
    # frame limit, so a recursive walk would fail here
    rs = battery_root_system("2-2-inf")
    assert check_gbip_walk(rs, small_roots(rs), 1100) == (4400, [])


def test_check_gbip_walk_requires_rank3():
    with pytest.raises(RankNotThree):
        rs = build_root_system(dihedral_matrix(3))
        check_gbip_walk(rs, small_roots(rs), 2)


# -- the bijection ------------------------------------------------------

def test_bijection_infinite_dihedral():
    rs = build_root_system(dihedral_matrix(INF))
    sigma = small_roots(rs)
    from coxlow import build_automaton
    aut = build_automaton(rs, sigma)
    rep = verify_bijection(rs, sigma, aut, 6)
    assert rep.n_lambda == 3 and rep.n_low == 3
    assert rep.bijective


def test_bijection_m3_dihedral():
    rs = build_root_system(dihedral_matrix(3))
    sigma = small_roots(rs)
    from coxlow import build_automaton
    aut = build_automaton(rs, sigma)
    rep = verify_bijection(rs, sigma, aut, 5)
    assert rep.n_lambda == 6 and rep.n_low == 6 and rep.bijective


def test_bijection_universal(battery):
    rs, sigma, aut = battery.get("universal")
    rep = verify_bijection(rs, sigma, aut, 4)
    assert rep.n_lambda == 4 and rep.n_low == 4 and rep.bijective


def test_bijection_reports_unresolved_not_false(battery):
    # truncated search: missing lambdas are unresolved, never a disproof
    rs, sigma, aut = battery.get("H3")
    rep = verify_bijection(rs, sigma, aut, 3)
    assert not rep.complete
    assert rep.unresolved_masks
    assert rep.injective  # the found ones still map injectively


# -- constructive builder -----------------------------------------------

def test_construct_identity(battery):
    rs, sigma, _ = battery.get("A3")
    assert construct_low_from_lambda(rs, sigma, 0) == IDENTITY


def test_construct_rejects_a_mask_that_is_not_a_state(battery):
    # a bool or a float is no mask, even where it equals one
    rs, sigma, _ = battery.get("A3")
    for mask in (-1, "3", True, 1.0):
        with pytest.raises(ConstructionFailed,
                           match=r"^mask %s is not a state of the automaton$"
                                 % re.escape(repr(mask))):
            construct_low_from_lambda(rs, sigma, mask)


def test_construct_rank2():
    rs = build_root_system(dihedral_matrix(INF))
    sigma = small_roots(rs)
    lam = 1 << sigma.bit[0]          # alpha_0 has id 0
    got = construct_low_from_lambda(rs, sigma, lam)
    assert got.word == (0,)


def test_construct_failure_names_the_shortest_element(battery, monkeypatch):
    # a candidate that fails its check: the error names the mask and its
    # shortest element, in ShortLex normal form
    rs, sigma, aut = battery.get("B3")
    shortest = {}
    for elem, _, _ in elements_up_to_length(rs, 9):     # B3 has length 9
        shortest.setdefault(small_inversion_mask(rs, sigma, elem), elem.length)
    for k, mask in enumerate(aut.states):
        if not mask:
            continue
        memo = {"automaton": aut}
        parent = aut.states[aut.first_in[k][0]]
        construct_low_from_lambda(rs, sigma, parent, _memo=memo)
        with monkeypatch.context() as patch:
            patch.setattr(coxlow.conjecture, "is_low", lambda *args: False)
            with pytest.raises(ConstructionFailed) as info:
                construct_low_from_lambda(rs, sigma, mask, _memo=memo)
        message = str(info.value)
        assert "realizing mask %d " % mask in message
        named = re.findall(r"Element\((\d+)\)", message)
        assert len(named) == 1, message
        w_min = Element(tuple(int(c) for c in named[0]))
        assert normalize(rs, w_min.word) == w_min
        assert small_inversion_mask(rs, sigma, w_min) == mask
        assert w_min.length == shortest[mask]


def test_construct_computes_one_inversion_set_per_mask(battery, monkeypatch):
    # each non-zero mask reads its candidate's N(s x) = {alpha_s} u s N(x)
    # off the memo, x the element built for the state the automaton first
    # reaches it from, with one left multiplication, builds no N(.) from a
    # word, and reads the one normal form off that set
    calls = dict.fromkeys(
        ["normalize", "inversion_set", "_word_inversions", "_shortlex",
         "_left_multiply"], 0)
    for name in calls:
        def counted(*args, fn=getattr(coxlow.elements, name), name=name):
            calls[name] += 1
            return fn(*args)
        # the builder's own _left_multiply; _shortlex peels without it
        mods = ((coxlow.conjecture,) if name == "_left_multiply"
                else (coxlow.elements, coxlow.conjecture))
        for mod in mods:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted)
    rs, sigma, aut = battery.get("B3")
    memo = {}
    for mask in aut.states:
        construct_low_from_lambda(rs, sigma, mask, _memo=memo)
    nonzero = len(aut.states) - 1
    assert calls == {"normalize": 0, "inversion_set": 0,
                     "_word_inversions": 0, "_shortlex": nonzero,
                     "_left_multiply": nonzero}


def test_construct_all_lambdas(battery):
    for name in RANK3_SAMPLE:
        rs, sigma, aut = battery.get(name)
        memo = {}
        for mask in aut.states:
            x = construct_low_from_lambda(rs, sigma, mask, _memo=memo)
            assert is_low(rs, sigma, x)
            assert small_inversion_mask(rs, sigma, x) == mask


@pytest.mark.parametrize("bonds,n_lambda", [
    ({(0, 1): 3, (1, 2): 3, (2, 3): 3}, 120),              # A4: |W| = 120
    ({(0, 1): 3, (1, 2): 3, (2, 3): 3, (0, 3): 3}, 125),   # affine A3: 5^3
], ids=["A4", "affine-A3"])
def test_construct_all_lambdas_rank4(bonds, n_lambda):
    # outside rank 3 descent peeling runs on plain left descents, and there
    # is no other path: every mask must be built by it
    entries = [[1 if i == j else 2 for j in range(4)] for i in range(4)]
    for (i, j), m in bonds.items():
        entries[i][j] = entries[j][i] = m
    rs = build_root_system(entries)
    sigma = small_roots(rs)
    aut = build_automaton(rs, sigma)
    assert len(aut.states) == n_lambda
    memo = {}
    for mask in aut.states:
        x = construct_low_from_lambda(rs, sigma, mask, _memo=memo)
        assert is_low(rs, sigma, x)
        assert small_inversion_mask(rs, sigma, x) == mask


def test_low_search_and_builder_solve_no_cone(monkeypatch):
    # lowness is read off root-table ids; no cone is solved on the way; and
    # the builder gives each lambda the low element the search finds for it
    def refuse(*args):
        raise AssertionError("cone_membership called")

    monkeypatch.setattr(coxlow.elements, "cone_membership", refuse)
    for name, _, _ in BATTERY:
        rs = battery_root_system(name)
        sigma = small_roots(rs)
        aut = build_automaton(rs, sigma)
        lows, report, reached = enumerate_low_stable(rs, sigma)
        rep = verify_bijection(rs, sigma, aut, reached)
        assert report.complete and rep.bijective, name
        assert list(rep.mapping) == lows, name
        memo = {}
        for mask in aut.states:
            x = construct_low_from_lambda(rs, sigma, mask, _memo=memo)
            assert rep.mapping[x] == mask, (name, mask)


# -- polytopes ----------------------------------------------------------

def test_simplex_edge_condition(battery):
    rs, sigma, _ = battery.get("universal")
    assert check_simplex_edge_condition(rs, sigma)
    rs2, sigma2, _ = battery.get("2-inf-inf")
    assert check_simplex_edge_condition(rs2, sigma2)
    rs3, sigma3, _ = battery.get("B3")
    assert not check_simplex_edge_condition(rs3, sigma3)


def test_matrix_condition_implies_the_edge_condition():
    # on the 9 battery groups that meet the matrix condition (the edge
    # condition also holds on 3-2-2, which does not), and on every bond
    # triple from {2, ..., 8, inf} that meets it, up to order; the builder
    # gives each lambda the low element the search finds for it
    groups = [(bonds, overrides) for _, bonds, overrides in BATTERY
              if matrix_edge_condition(bonds)]
    triples = [bonds for bonds in itertools.combinations_with_replacement(
        (2, 3, 4, 5, 6, 7, 8, INF), 3) if matrix_edge_condition(bonds)]
    assert (len(groups), len(triples)) == (9, 87)
    for bonds, overrides in groups + [(bonds, None) for bonds in triples]:
        rs = build_root_system(triangle_matrix(*bonds),
                               gram_overrides=overrides)
        sigma = small_roots(rs)
        assert check_simplex_edge_condition(rs, sigma), bonds
        # and so the bijection and the polytope claim hold
        lows, report, _ = enumerate_low_stable(rs, sigma)
        assert report.bijective, bonds
        aut = build_automaton(rs, sigma)
        rep = verify_inversion_polytopes(rs, sigma, aut, report.inversions)
        assert rep.matched == len(rep.witnesses), bonds
        assert rep.witnesses == pairwise_polytope_witnesses(
            rs, sigma, aut, lows), bonds
        low_for = {mask: x for x, mask in report.mapping.items()}
        memo = {"automaton": aut}
        for mask in aut.states:
            assert construct_low_from_lambda(
                rs, sigma, mask, _memo=memo) == low_for[mask], (bonds, mask)


def test_polytope_witnesses_match_the_pairwise_reference(battery):
    # matching extreme-root id sets gives the witnesses that comparing
    # every pair of float hulls gives, on the stable low elements and on
    # their first half, which leaves some lambdas unmatched
    unmatched = 0
    for name, _, _ in BATTERY:
        rs, sigma, aut = battery.get(name)
        invs = enumerate_low_stable(rs, sigma)[1].inversions
        half = dict(itertools.islice(invs.items(), len(invs) // 2))
        for some in (invs, half):
            rep = verify_inversion_polytopes(rs, sigma, aut, some)
            assert rep.witnesses == pairwise_polytope_witnesses(
                rs, sigma, aut, list(some)), name
            unmatched += list(rep.witnesses.values()).count(None)
    assert unmatched > 0


def _det(u, v, w):
    return (u[0] * (v[1] * w[2] - v[2] * w[1])
            - u[1] * (v[0] * w[2] - v[2] * w[0])
            + u[2] * (v[0] * w[1] - v[1] * w[0]))


def test_chart_margins_dwarf_the_hull_tolerances(battery):
    # Polytopes are matched on float chart points with EPS = 1e-6 and
    # EPS_AREA = 1e-9: the chain sorts the points on the 1e-9 grid and
    # takes its turns on the points as charted.  Over every N(x) of a stable
    # low element and every lambda, on the battery and the rank-3 demo
    # files: distinct roots lie far apart (measured 0.0107, affine-6-3-2),
    # and on the points the chain crosses, triples are either collinear,
    # with |cross| at rounding level (2.2e-16), or far from it (1.37e-4,
    # affine-6-3-2)
    systems = [battery.get(name)[:2] for name, _, _ in BATTERY]
    for path in sorted(DEMO_GROUPS.glob("*.json")):
        rs = load_root_system(path.read_text())
        if rs.rank == 3:
            systems.append((rs, small_roots(rs)))
    counts = {"collinear": 0, "exact": 0, "turn": 0}
    for rs, sigma in systems:
        lows, _, _ = enumerate_low_stable(rs, sigma)
        sets = {frozenset(inversion_set(rs, x)) for x in lows}
        sets |= {frozenset(sigma.mask_to_ids(mask))
                 for mask in build_automaton(rs, sigma).states}
        coords = rs.root_table.coords
        points = {i: p for i, (_, p) in
                  chart_points(rs, set().union(*sets)).items()}
        for a, b in {p for ids in sets
                     for p in itertools.combinations(sorted(ids), 2)}:
            gap = max(abs(points[a][0] - points[b][0]),
                      abs(points[a][1] - points[b][1]))
            assert gap >= 1e-3 > EPS, (rs.matrix, a, b)
        for t in {t for ids in sets
                  for t in itertools.combinations(sorted(ids), 3)}:
            cross = abs(_cross(*[points[i] for i in t]))
            collinear = cross <= 1e-12
            if not collinear:
                assert cross >= 1e-5 > EPS_AREA, (rs.matrix, t, cross)
            if rs.exact:
                assert collinear == (_det(*[coords[i] for i in t]) == 0)
                counts["exact"] += 1
            counts["collinear" if collinear else "turn"] += 1
    assert min(counts.values()) > 0, counts


def test_polytopes_universal(battery):
    rs, sigma, aut = battery.get("universal")
    _, report = enumerate_low(rs, sigma, 4)
    rep = verify_inversion_polytopes(rs, sigma, aut, report.inversions)
    assert rep.hypothesis_met and rep.matched == len(rep.witnesses) == 4


def test_polytopes_edge_groups(battery):
    for name, bound in (("hyperbolic-3-3-4", 12), ("inf-3-3", 8)):
        rs, sigma, aut = battery.get(name)
        assert check_simplex_edge_condition(rs, sigma)
        _, report = enumerate_low(rs, sigma, bound)
        rep = verify_inversion_polytopes(rs, sigma, aut, report.inversions)
        assert rep.hypothesis_met, name
        assert rep.matched == len(rep.witnesses), name


def test_polytope_symmetry_3_3_3(battery):
    # the (3,3,3) form is generator-symmetric: lambda counts per hull shape
    # must be invariant under cyclically relabeling the generators
    rs, sigma, aut = battery.get("affine-3-3-3")
    from coxlow import projective_hull
    table = rs.root_table
    sizes = {}
    for mask in aut.states:
        hull = projective_hull(
            rs, [table.root(i) for i in sigma.mask_to_ids(mask)])
        sizes[len(hull)] = sizes.get(len(hull), 0) + 1
    # relabeled system is the same matrix, so the multiset must reproduce;
    # a rolled small root is a root the table already holds
    sizes2 = {}
    for mask in aut.states:
        rolled = [table.root(table.ids[rs.vec_key(c[1:] + c[:1])])
                  for c in map(table.coords.__getitem__,
                               sigma.mask_to_ids(mask))]
        hull = projective_hull(rs, rolled)
        sizes2[len(hull)] = sizes2.get(len(hull), 0) + 1
    assert sizes == sizes2


def test_construct_keys_automata_by_sigma_content():
    # the longest element of A2 inverts all three small roots; with the
    # simple roots alone as Sigma that mask is no automaton state
    rs = build_root_system(dihedral_matrix(3))
    full = (1 << len(small_roots(rs))) - 1
    for _ in range(20):
        simple_only = SmallRootSet(rs, range(2))
        with pytest.raises(ConstructionFailed):
            construct_low_from_lambda(rs, simple_only, full)
        del simple_only
        # a new set may be given the id of the one just freed
        low = construct_low_from_lambda(rs, small_roots(rs), full)
        assert low.length == 3
