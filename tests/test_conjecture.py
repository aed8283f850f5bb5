import gc
import itertools
import random
import re
import weakref
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
    inversion_walk,
    is_low,
    left_descents,
    load_root_system,
    normalize,
    normalize_projective,
    roots_up_to_depth,
    small_inversion_mask,
    small_roots,
    source_generators,
    sources,
    triangle_matrix,
    verify_bijection,
    verify_inversion_polytopes,
)
from coxlow.conjecture import _topological_sort, check_gbip_walk
from coxlow.core import RootTable
from coxlow.errors import ConstructionFailed, CyclicGraph, RankNotThree
from coxlow.projective import EPS, EPS_AREA, _cross, chart_points

from conftest import (
    RATIONAL_NAMES, gbip_oracle, matrix_edge_condition,
    pairwise_polytope_witnesses)

RANK3_SAMPLE = ("A3", "affine-3-3-3", "hyperbolic-3-3-4", "universal-override")
DEMO_GROUPS = Path(__file__).resolve().parent.parent / "demos" / "groups"


def test_battery_is_fixed():
    assert len(BATTERY) == 16
    names = [name for name, _, _ in BATTERY]
    assert names[0] == "2-2-2" and "hyperbolic-2-3-7" in names


# -- synthetic graphs ---------------------------------------------------

def _is_cycle_of(witness, graph):
    edges = set(graph.edges)
    return len(set(witness)) == len(witness) > 0 and all(
        (u, witness[(n + 1) % len(witness)]) in edges
        for n, u in enumerate(witness))


def test_check_acyclic_synthetic():
    empty = BipGraph([], [], [])
    assert check_acyclic(empty) == (True, None)
    # vertex 0 is ("g", "a") and vertex 1 is ("r", "x")
    two_cycle = BipGraph(["a"], ["x"], [(0, 1), (1, 0)])
    assert two_cycle.edges == ((("g", "a"), ("r", "x")),
                               (("r", "x"), ("g", "a")))
    ok, witness = check_acyclic(two_cycle)
    assert not ok
    assert set(witness) == {("g", "a"), ("r", "x")}
    assert _is_cycle_of(witness, two_cycle)
    # the least vertex, ("g", "0"), is a sink downstream of the cycle
    sink_below_cycle = BipGraph(["0", "a"], ["x"], [(1, 2), (2, 1), (2, 0)])
    ok, witness = check_acyclic(sink_below_cycle)
    assert not ok
    assert _is_cycle_of(witness, sink_below_cycle)
    with pytest.raises(CyclicGraph):
        sources(sink_below_cycle)


def test_sources_synthetic():
    assert sources(BipGraph([], [], [])) == ()
    # ("g", "a") -> ("r", "b") -> ("g", "c")
    chain = BipGraph(["a", "c"], ["b"], [(0, 2), (2, 1)])
    assert sources(chain) == (("g", "a"),)
    assert source_generators(chain) == ("a",)
    cyclic = BipGraph(["a"], ["x"], [(0, 1), (1, 0)])
    with pytest.raises(CyclicGraph):
        sources(cyclic)


def test_bipgraph_rejects_same_class_edges():
    with pytest.raises(ValueError, match="two classes"):
        BipGraph(["a", "b"], [], [(0, 1)])
    with pytest.raises(ValueError, match="two classes"):
        BipGraph(["a"], ["x", "y"], [(1, 2)])
    # two vertices: index 2 and index -1 are out of range
    for arc in [(0, 2), (2, 0), (-1, 1), (1, -1)]:
        with pytest.raises(ValueError, match="out of range"):
            BipGraph(["a"], ["x"], [arc])


# -- the graph on real elements -----------------------------------------

def test_gbip_identity(battery):
    rs, _, _ = battery.get("hyperbolic-3-3-4")
    graph = build_gbip(rs, IDENTITY)
    assert graph.vertices == ()


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


def test_gbip_matches_coordinate_oracle():
    # fresh root systems: the table is filled by build_gbip alone.  The
    # rational backend labels roots by keys of Fractions.
    cases = [(name, "float") for name, _, _ in BATTERY]
    cases += [(name, "rational") for name in RATIONAL_NAMES]
    for name, backend in cases:
        rs = battery_root_system(name, backend)
        for elem, _, _ in elements_up_to_length(rs, 7):
            graph = build_gbip(rs, elem)
            gens, roots, edges = gbip_oracle(rs, elem.word)
            assert [v for _, v in graph.gen_vertices] == gens, (name, elem)
            assert [v for _, v in graph.root_vertices] == roots, (name, elem)
            assert list(graph.edges) == edges, (name, elem)


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
    # build_gbip computes supports in (depth, key) order, never id order
    cases = [(name, 8) for name, _, _ in BATTERY] + [("universal", 10)]
    for name, max_len in cases:
        rs = _reversed_root_system(name, max_len)
        for elem, _, _ in elements_up_to_length(rs, max_len):
            graph = build_gbip(rs, elem)
            gens, roots, edges = gbip_oracle(rs, elem.word)
            assert [v for _, v in graph.gen_vertices] == gens, (name, elem)
            assert [v for _, v in graph.root_vertices] == roots, (name, elem)
            assert list(graph.edges) == edges, (name, elem)


def test_each_graph_is_sorted_once(monkeypatch):
    # a graph from build_gbip arrives with its sort result, so the checks
    # sort none; a hand-built graph is sorted on the first check only
    calls = []
    monkeypatch.setattr(coxlow.conjecture, "_topological_sort",
                        lambda graph: calls.append(graph)
                        or _topological_sort(graph))
    rs = battery_root_system("hyperbolic-3-3-4")
    for elem, _, _ in elements_up_to_length(rs, 6):
        graph = build_gbip(rs, elem)
        assert check_acyclic(graph) == (True, None)
        assert sources(graph) or not elem.length
        assert set(source_generators(graph)) == left_descents(rs, elem)
    assert calls == []
    chain = BipGraph(["a", "c"], ["b"], [(0, 2), (2, 1)])
    assert check_acyclic(chain) == (True, None)
    assert sources(chain) == (("g", "a"),)
    assert source_generators(chain) == ("a",)
    assert calls == [chain]


def test_root_table_keeps_no_cycle_with_its_root_system():
    # without a cycle a root system and its filled table are freed as soon
    # as the last reference goes, not at the next cyclic collection
    rs = battery_root_system("hyperbolic-3-3-4")
    for elem, _, _ in elements_up_to_length(rs, 6):
        build_gbip(rs, elem)
    assert len(rs.root_table.roots) > rs.rank
    ref = weakref.ref(rs)
    gc.disable()
    try:
        del rs
        assert ref() is None
    finally:
        gc.enable()


def test_gbip_requires_rank3():
    rs = build_root_system(dihedral_matrix(3))
    with pytest.raises(RankNotThree):
        build_gbip(rs, IDENTITY)


def test_gbip_acyclic_and_sources_are_descents():
    # the sort result build_gbip hands each graph is Kahn's, on every
    # graph of every battery group to length 8
    cases = [(name, "float") for name, _, _ in BATTERY]
    cases += [(name, "rational") for name in RATIONAL_NAMES]
    for name, backend in cases:
        rs = battery_root_system(name, backend)
        for _, entries in inversion_walk(rs, 8):
            for elem, inv in entries:
                graph = build_gbip(rs, elem, inv=inv)
                assert graph._topo == _topological_sort(graph), \
                    (name, backend, elem)
                ok, witness = check_acyclic(graph)
                assert ok, (name, backend, elem, witness)
                assert set(source_generators(graph)) \
                    == left_descents(rs, elem, inv=inv), (name, backend, elem)


def _graph_verdict(graph):
    """The claim read off a BipGraph by Kahn's sort, whatever sort result
    the graph arrived with: acyclic, and no root is a source."""
    ok, _, srcs = _topological_sort(graph)
    return ok and all(v < len(graph.gen_labels) for v in srcs)


def test_gbip_sort_result_on_arbitrary_id_sets():
    # random sets of table ids, coclosed or not: supported and unsupported
    # roots both occur, the seeded sort result is still Kahn's, and
    # check_gbip gives Kahn's verdict, naming a root source when it fails
    rng = random.Random(20)
    root_sources = supported = 0
    for name in ("hyperbolic-3-3-4", "universal", "affine-6-3-2", "H3"):
        rs = battery_root_system(name)
        for _ in inversion_walk(rs, 8):
            pass
        n = len(rs.root_table.roots)
        for _ in range(500):
            inv = {s for s in range(3) if rng.random() < 0.5}
            inv |= set(rng.sample(range(3, n), rng.randrange(1, 8)))
            graph = build_gbip(rs, IDENTITY, inv=inv)    # w is not read
            assert graph._topo == _topological_sort(graph), (name, inv)
            ok, witness = check_gbip(rs, inv)
            assert ok == _graph_verdict(graph), (name, inv)
            if not ok:
                assert len(witness) == 1 and witness[0][0] == "r", (name, inv)
                assert witness[0] in sources(graph), (name, inv)
            g = len(graph.gen_labels)
            n_src = sum(v >= g for v in graph._topo[2])
            root_sources += n_src > 0
            supported += n_src < len(graph.root_labels)
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
        for _, entries in inversion_walk(rs, 8):
            for elem, inv in entries:
                graph = build_gbip(rs, elem, inv=inv)
                ok, witness = check_gbip(rs, inv)
                assert ok == _graph_verdict(graph), (name, backend, elem)
                assert ok and witness is None, (name, backend, elem)


def test_check_gbip_flags_sets_that_are_not_coclosed():
    # N(w) without its simple roots: no deep root has a supporting
    # descent.  The graph check passes every such set; the mask check must
    # flag each one, naming a root that is a source.
    rs = battery_root_system("hyperbolic-3-3-4")
    cut_sets = 0
    for _, entries in inversion_walk(rs, 10):
        for elem, inv in entries:
            cut = inv - {0, 1, 2}
            if not cut:
                continue
            cut_sets += 1
            graph = build_gbip(rs, elem, inv=cut)
            assert graph._topo == _topological_sort(graph), elem
            assert check_acyclic(graph)[0]
            assert set(source_generators(graph)) <= \
                left_descents(rs, elem, inv=cut)
            ok, witness = check_gbip(rs, cut)
            assert not ok, elem
            assert len(witness) == 1 and witness[0] in sources(graph), elem
            assert witness[0][0] == "r", elem
    assert cut_sets == 399      # elements of length 2 to 10


# -- the check along the walk -------------------------------------------

def _walk_flags(rs, max_len):
    """Per element, in walk order: does check_gbip_walk find a root source?"""
    return b"".join(coxlow.conjecture._gbip_walk_failures(rs, max_len))


def _full_flags(rs, max_len):
    """The same flags from the full check_gbip on every N(w) of the walk."""
    return bytes(not check_gbip(rs, inv)[0]
                 for _, entries in inversion_walk(rs, max_len)
                 for _, inv in entries)


def _count_fallbacks(monkeypatch):
    """Count the full checks that check_gbip_walk falls back to."""
    calls = []

    def counted(rs, inv):
        calls.append(inv)
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
        flags = _walk_flags(rs, 8)
        assert flags == _full_flags(rs, 8), (name, backend)
        assert check_gbip_walk(rs, 8) == (len(flags), 0), (name, backend)
    assert not fallbacks


def test_check_gbip_walk_matches_check_gbip_under_mutation(monkeypatch):
    # clearing ups for 2 random deep roots leaves roots unsupported; the
    # induction must flag exactly the elements the full check flags, and
    # falls back to it below every element that fails
    fallbacks = _count_fallbacks(monkeypatch)
    rng = random.Random(21)
    violations = 0
    for name in ("H3", "affine-4-4-2", "hyperbolic-3-3-4", "universal",
                 "inf-3-3"):
        for _ in range(6):
            rs = battery_root_system(name)
            for _ in inversion_walk(rs, 8):
                pass
            ups = rs.root_table.ups
            for i in rng.sample(range(3, len(ups)), 2):
                ups[i] = 0
            flags = _walk_flags(rs, 8)
            assert flags == _full_flags(rs, 8), name
            assert check_gbip_walk(rs, 8) == (len(flags), flags.count(1))
            violations += flags.count(1)
    assert violations > 0 and fallbacks


def test_check_gbip_walk_requires_rank3():
    with pytest.raises(RankNotThree):
        check_gbip_walk(build_root_system(dihedral_matrix(3)), 2)


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


def test_construct_rank2():
    rs = build_root_system(dihedral_matrix(INF))
    sigma = small_roots(rs)
    lam = 1 << sigma.bit[0]          # alpha_0 has id 0
    got = construct_low_from_lambda(rs, sigma, lam)
    assert got.word == (0,)


def test_construct_failure_names_the_shortest_element(battery, monkeypatch):
    # no descent to peel: the error names the mask and its shortest
    # element, in ShortLex normal form
    monkeypatch.setattr(coxlow.conjecture, "left_descents",
                        lambda rs, w, inv=None: set())
    rs, sigma, aut = battery.get("B3")
    shortest = {}
    for elem, _, _ in elements_up_to_length(rs, 9):     # B3 has length 9
        shortest.setdefault(small_inversion_mask(rs, sigma, elem), elem.length)
    for mask in aut.states:
        if not mask:
            continue
        with pytest.raises(ConstructionFailed) as info:
            construct_low_from_lambda(rs, sigma, mask)
        message = str(info.value)
        assert "realizing mask %d " % mask in message
        named = re.findall(r"Element\((\d+)\)", message)
        assert len(named) == 1, message
        w_min = Element(tuple(int(c) for c in named[0]))
        assert normalize(rs, w_min.word) == w_min
        assert small_inversion_mask(rs, sigma, w_min) == mask
        assert w_min.length == shortest[mask]


def test_construct_computes_two_inversion_sets_per_mask(battery, monkeypatch):
    # each non-zero mask builds N(.) from a word once, for its shortest
    # element, and reads the candidate's N(s x) = {alpha_s} u s N(x) off the
    # memo; both normal forms are read off those sets
    calls = dict.fromkeys(
        ["normalize", "inversion_set", "_word_inversions", "_shortlex"], 0)
    for name in calls:
        def counted(*args, fn=getattr(coxlow.elements, name), name=name):
            calls[name] += 1
            return fn(*args)
        for mod in (coxlow.elements, coxlow.conjecture):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted)
    rs, sigma, aut = battery.get("B3")
    memo = {}
    for mask in aut.states:
        construct_low_from_lambda(rs, sigma, mask, _memo=memo)
    nonzero = len(aut.states) - 1
    assert calls == {"normalize": 0, "inversion_set": 0,
                     "_word_inversions": nonzero, "_shortlex": 2 * nonzero}


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
    # lowness is read off root-table ids; no cone is solved on the way
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
    # triple from {2, ..., 8, inf} that meets it, up to order
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
        rep = verify_inversion_polytopes(rs, sigma, aut, lows)
        assert rep.matched_all, bonds
        assert rep.witnesses == pairwise_polytope_witnesses(
            rs, sigma, aut, lows), bonds


def test_polytope_witnesses_match_the_pairwise_reference(battery):
    # matching extreme-root id sets gives the witnesses that comparing
    # every pair of float hulls gives, on the stable low elements and on
    # their first half, which leaves some lambdas unmatched
    unmatched = 0
    for name, _, _ in BATTERY:
        rs, sigma, aut = battery.get(name)
        lows, _, _ = enumerate_low_stable(rs, sigma)
        for some in (lows, lows[:len(lows) // 2]):
            rep = verify_inversion_polytopes(rs, sigma, aut, some)
            assert rep.witnesses == pairwise_polytope_witnesses(
                rs, sigma, aut, some), name
            unmatched += list(rep.witnesses.values()).count(None)
    assert unmatched > 0


def _det(u, v, w):
    return (u[0] * (v[1] * w[2] - v[2] * w[1])
            - u[1] * (v[0] * w[2] - v[2] * w[0])
            + u[2] * (v[0] * w[1] - v[1] * w[0]))


def test_chart_margins_dwarf_the_hull_tolerances(battery):
    # Polytopes are matched on float chart points (snapped to the 1e-9
    # grid) with EPS = 1e-6 and EPS_AREA = 1e-9.  Over every N(x) of a
    # stable low element and every lambda, on the battery and the rank-3
    # demo files: distinct roots lie far apart (measured 0.0107,
    # affine-6-3-2), and triples are either collinear, with |cross| at
    # rounding level (2.2e-16) before the snap and below EPS_AREA after it
    # (6.1e-10, affine-6-3-2), or far from it (1.37e-4, affine-6-3-2)
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
        roots = rs.root_table.roots
        snapped = chart_points(rs, set().union(*sets))
        raw = {i: normalize_projective(rs, roots[i].coords) for i in snapped}
        for a, b in {p for ids in sets
                     for p in itertools.combinations(sorted(ids), 2)}:
            gap = max(abs(snapped[a][0] - snapped[b][0]),
                      abs(snapped[a][1] - snapped[b][1]))
            assert gap >= 1e-3 > EPS, (rs.matrix, a, b)
        for t in {t for ids in sets
                  for t in itertools.combinations(sorted(ids), 3)}:
            cross = abs(_cross(*[raw[i] for i in t]))
            on_grid = abs(_cross(*[snapped[i] for i in t]))
            collinear = cross <= 1e-12
            if collinear:
                assert on_grid < EPS_AREA, (rs.matrix, t, on_grid)
            else:
                assert min(cross, on_grid) >= 1e-5, (rs.matrix, t, cross)
            if rs.exact:
                assert collinear == (_det(*[roots[i].coords for i in t]) == 0)
                counts["exact"] += 1
            counts["collinear" if collinear else "turn"] += 1
    assert min(counts.values()) > 0, counts


def test_polytopes_universal(battery):
    rs, sigma, aut = battery.get("universal")
    lows, _ = enumerate_low(rs, sigma, 4)
    rep = verify_inversion_polytopes(rs, sigma, aut, lows)
    assert rep.hypothesis_met and rep.matched_all
    assert len(rep.witnesses) == 4


def test_polytopes_edge_groups(battery):
    for name, bound in (("hyperbolic-3-3-4", 12), ("inf-3-3", 8)):
        rs, sigma, aut = battery.get(name)
        assert check_simplex_edge_condition(rs, sigma)
        lows, _ = enumerate_low(rs, sigma, bound)
        rep = verify_inversion_polytopes(rs, sigma, aut, lows)
        assert rep.hypothesis_met and rep.matched_all, name


def test_polytope_symmetry_3_3_3(battery):
    # the (3,3,3) form is generator-symmetric: lambda counts per hull shape
    # must be invariant under cyclically relabeling the generators
    rs, sigma, aut = battery.get("affine-3-3-3")
    from coxlow import projective_hull
    sizes = {}
    for mask in aut.states:
        hull = projective_hull(rs, sigma.mask_to_roots(mask))
        sizes[len(hull)] = sizes.get(len(hull), 0) + 1
    # relabeled system is the same matrix, so the multiset must reproduce
    sizes2 = {}
    for mask in aut.states:
        roots = sigma.mask_to_roots(mask)
        rolled = [rs.make_root(r.coords[1:] + r.coords[:1], r.depth)
                  for r in roots]
        hull = projective_hull(rs, rolled)
        sizes2[len(hull)] = sizes2.get(len(hull), 0) + 1
    assert sizes == sizes2


def test_construct_keys_automata_by_sigma_content():
    # the longest element of A2 inverts all three small roots; with the
    # simple roots alone as Sigma that mask is no automaton state
    rs = build_root_system(dihedral_matrix(3))
    full = (1 << len(small_roots(rs))) - 1
    for _ in range(20):
        simple_only = SmallRootSet(
            rs, [rs.root_table.roots[s] for s in range(2)])
        with pytest.raises(ConstructionFailed):
            construct_low_from_lambda(rs, simple_only, full)
        del simple_only
        # a new set may be given the id of the one just freed
        low = construct_low_from_lambda(rs, small_roots(rs), full)
        assert low.length == 3
