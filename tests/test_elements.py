import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coxlow.elements
from coxlow import (
    BATTERY,
    INF,
    Element,
    IDENTITY,
    battery_root_system,
    build_automaton,
    build_root_system,
    build_shortlex_automaton,
    cone_membership,
    count_elements,
    dihedral_matrix,
    elements_by_length,
    elements_up_to_length,
    enumerate_low,
    enumerate_low_stable,
    growth_series,
    inversion_set,
    is_bipodal,
    is_low,
    left_descents,
    normalize,
    small_inversion_mask,
    small_roots,
    triangle_matrix,
)
from coxlow.conjecture import check_gbip_walk
from coxlow.elements import _inversion_levels, _solve_subset
from coxlow.errors import NonReducedInput, NumericallyAmbiguous

from conftest import (
    RATIONAL_NAMES, cone_is_low, identity_matrix, mat_mul, matrix_bfs_levels,
    prefix_inversion_roots, reflection_matrix)


def dihedral(m, **kw):
    return build_root_system(dihedral_matrix(m), **kw)


# -- normal forms -------------------------------------------------------

def test_normalize_examples():
    rs = dihedral(3)
    assert normalize(rs, (0, 0)) == IDENTITY
    # braid relation tst = sts; ShortLex prefers the s-first word
    assert normalize(rs, (1, 0, 1)) == Element((0, 1, 0))
    rs_inf = dihedral(INF)
    assert normalize(rs_inf, (0, 1)) == Element((0, 1))


def test_normalize_idempotent():
    rs = dihedral(5)
    for word in [(0, 1, 0, 1), (1, 0, 1, 0, 1, 0), (0, 0, 1)]:
        once = normalize(rs, word)
        assert normalize(rs, once.word) == once


def test_group_operations():
    rs = dihedral(3)
    st = normalize(rs, (0, 1))
    assert st == Element((0, 1))
    assert normalize(rs, st.word + tuple(reversed(st.word))) == IDENTITY
    assert normalize(rs, tuple(reversed((0, 1, 0)))) == Element((0, 1, 0))


def test_float_normalize_matches_rational():
    # seeded random words, non-reduced ones included: the float backend
    # must give the exact backend's normal forms (a float sign test on
    # matrix columns once gave five of these words 1-3 letters too short)
    rng = random.Random(7)
    words = [tuple(rng.randrange(3) for _ in range(rng.randrange(40)))
             for _ in range(200)]
    for name in RATIONAL_NAMES:
        rs_float = battery_root_system(name)
        rs_exact = battery_root_system(name, "rational")
        for word in words:
            assert (normalize(rs_float, word)
                    == normalize(rs_exact, word)), (name, word)


@pytest.mark.parametrize("name,backend", [
    ("A3", "float"), ("A3", "rational"), ("H3", "float"),
    ("hyperbolic-3-3-4", "float"), ("universal", "float"),
    ("universal", "rational")])
def test_normalize_matches_matrix_oracle(name, backend):
    # seeded random words, non-reduced ones included: a word's normal form
    # is the element the matrix walk, which reads no root table, finds
    # with the word's matrix
    rs = battery_root_system(name, backend=backend)

    def mat_key(m):
        return tuple(rs.vec_key(row) for row in m)

    oracle = {mat_key(m): elem for _, entries in matrix_bfs_levels(rs, 10)
              for elem, m in entries}
    refl = [reflection_matrix(rs, s) for s in range(rs.rank)]
    rng = random.Random(3500)
    for _ in range(500):
        word = tuple(rng.randrange(3) for _ in range(rng.randrange(11)))
        m = identity_matrix(rs)
        for s in word:
            m = mat_mul(m, refl[s])
        assert normalize(rs, word) == oracle[mat_key(m)], word


@pytest.mark.parametrize("word,letter", [
    ((0, 3), 3), ((-1,), -1), ((3, 0), 3), ((1, 2, -2), -2)])
def test_letters_outside_the_generators_are_rejected(battery, word, letter):
    # unchecked, a letter past rank indexes the root table as a root id
    # and a negative one wraps round: on A3, inversion_set((0, 3)) would
    # be {0, 1} and is_low((-1,)) True
    rs, sigma, _ = battery.get("A3")
    message = re.escape("generator %r out of range" % (letter,))
    for call in (lambda: normalize(rs, word),
                 lambda: inversion_set(rs, Element(word)),
                 lambda: left_descents(rs, Element(word)),
                 lambda: is_low(rs, sigma, Element(word))):
        with pytest.raises(ValueError, match=message):
            call()


# -- inversion sets -----------------------------------------------------

def test_inversion_set_examples():
    rs = dihedral(INF)
    coords = rs.root_table.coords
    assert len(inversion_set(rs, IDENTITY)) == 0
    n_s = inversion_set(rs, Element((0,)))
    assert [coords[i] for i in n_s] == [(1.0, 0.0)]
    n_st = inversion_set(rs, Element((0, 1)))
    assert sorted(tuple(round(c, 9) for c in coords[i]) for i in n_st) == [(1.0, 0.0), (2.0, 1.0)]


def test_inversion_set_rejects_nonreduced():
    rs = dihedral(3)
    with pytest.raises(NonReducedInput):
        inversion_set(rs, Element((0, 1, 0, 1)))  # stst = ts


@pytest.mark.parametrize("word,pos", [
    ((0, 1, 0, 1), 0),     # 0 1 0 1 = 1 0 in A3: alpha_0 in N(101)
    ((2, 0, 0, 1), 1),     # alpha_0 in N(01)
])
def test_inversion_set_names_the_nonreduced_position(word, pos):
    rs = battery_root_system("A3")
    with pytest.raises(NonReducedInput, match=re.escape(
            "word %r is not reduced at position %d" % (word, pos))):
        inversion_set(rs, Element(word))


@pytest.mark.parametrize("name,backend", [
    ("A3", "float"), ("A3", "rational"), ("H3", "float"),
    ("hyperbolic-3-3-4", "float"), ("universal", "float"),
    ("universal", "rational")])
def test_nonreduced_position_matches_suffix_oracle(name, backend):
    # the position named is the largest p with word[p:] not reduced.  The
    # oracle reads no root table: word[p:] is reduced iff every root
    # s_p ... s_(j-1)(alpha_(s_j)) of the prefix formula is positive, and
    # those vectors are alpha_(s_p) and s_p applied to word[p + 1:]'s
    rs = battery_root_system(name, backend=backend)
    rng = random.Random(1900)
    rejected = 0
    for _ in range(3000):
        word = tuple(rng.randrange(3) for _ in range(rng.randrange(13)))
        pos, roots = None, []
        for p in range(len(word) - 1, -1, -1):
            s = word[p]
            roots = [rs.simple_roots[s]] + [rs.reflect(s, v) for v in roots]
            if any(map(rs.is_negative_root_vec, roots)):
                pos = p
                break
        try:
            inv = inversion_set(rs, Element(word))
        except NonReducedInput as exc:
            assert str(exc) == (
                "word %r is not reduced at position %d: alpha_%d is already "
                "in N(%r)" % (word, pos, word[pos], word[pos + 1:])), word
            rejected += 1
        else:
            assert pos is None and len(inv) == len(word), word
    assert 300 < rejected < 2700


def test_inversion_size_is_length(battery):
    for name in ("hyperbolic-3-3-4", "affine-4-4-2"):
        rs, _, _ = battery.get(name)
        for elem, _, _ in elements_up_to_length(rs, 6):
            assert len(inversion_set(rs, elem)) == elem.length


def test_two_closure(battery):
    # if a, b in N(w) and a nonneg combo of them is a root, it is in N(w)
    from coxlow import roots_up_to_depth
    rs, _, _ = battery.get("A3")
    roots = {r.key: r for r in roots_up_to_depth(rs, 8)}
    for elem, _, _ in elements_up_to_length(rs, 6):
        pairs = [rs.root_table.root(i) for i in inversion_set(rs, elem)]
        for i, a in enumerate(pairs):
            for b in pairs[i + 1:]:
                summed = tuple(x + y for x, y in zip(a.coords, b.coords))
                key = rs.vec_key(summed)
                if key in roots:
                    assert key in {r.key for r in pairs}, (elem, a, b)


def assert_matches_oracle(rs, inv, word, where):
    """inv against the prefix-formula oracle of conftest: keys, depths and
    order exactly; coordinates exactly in the rational backend
    and to 1e-9 in float, where the root table keeps the coordinates it
    found first."""
    ref = prefix_inversion_roots(rs, word)
    table = rs.root_table
    roots = [table.root(i)
             for i in sorted(inv, key=table.sort_keys.__getitem__)]
    assert ([(r.key, r.depth) for r in roots]
            == [(r.key, r.depth) for r in ref]), where
    assert len(inv) == len(word), where
    for root, ref_root in zip(roots, ref):
        if rs.exact:
            assert root.coords == ref_root.coords, where
        else:
            assert max(abs(a - b) for a, b in zip(root.coords, ref_root.coords)
                       ) <= 1e-9, where


@pytest.mark.parametrize("backend", ["float", "rational"])
def test_inversion_walk_matches_inversion_set(battery, backend):
    # the walk's N(w) and inversion_set's both match the oracle; the walk
    # also runs on a fresh root system whose raw-vector entry points raise,
    # so it must grow the table through RootTable.reflect alone
    def refuse(*args):
        raise AssertionError("the walk keyed or peeled a vector")

    names = ([name for name, _, _ in BATTERY] if backend == "float"
             else RATIONAL_NAMES)
    for name in names:
        rs, _, _ = battery.get(name, backend)
        bare = battery_root_system(name, backend=backend)
        bare.vec_key = bare.root_depth = refuse
        walked = []
        for (length, level, invs), (_, bare_level, bare_invs) in zip(
                _inversion_levels(rs, 8), _inversion_levels(bare, 8),
                strict=True):
            for (elem, _, _), inv, (bare_elem, _, _), bare_inv in zip(
                    level, map(frozenset, invs), bare_level, bare_invs,
                    strict=True):
                assert elem.length == length
                assert_matches_oracle(rs, inv, elem.word, (name, elem))
                assert inversion_set(rs, elem) == inv, (name, elem)
                assert bare_elem == elem, name
                assert ({bare.root_table.sort_keys[i][1] for i in bare_inv}
                        == {rs.root_table.sort_keys[i][1] for i in inv}), \
                    (name, elem)
                walked.append(elem)
        assert walked == [e for e, _, _ in elements_up_to_length(rs, 8)], name


def test_left_descents():
    rs = dihedral(INF)
    assert left_descents(rs, IDENTITY) == set()
    assert left_descents(rs, Element((0,))) == {0}
    assert left_descents(rs, Element((0, 1))) == {0}


def test_descents_agree_with_length_drop(battery):
    rs, _, _ = battery.get("hyperbolic-2-3-7")
    for elem, _, _ in elements_up_to_length(rs, 5):
        via_inv = left_descents(rs, elem)
        via_len = {s for s in range(rs.rank)
                   if normalize(rs, (s,) + elem.word).length < elem.length}
        assert via_inv == via_len


def _simple_in(inv):
    """The left descents read off N(w): {s : alpha_s in N(w)}."""
    return {s for s in range(3) if s in inv}


def test_descents_from_traces_match_the_inversion_set():
    # left_descents reads the descents off signed traces and builds no
    # N(w); they must be the simple roots in N(w) everywhere
    cases = [(name, "float") for name, _, _ in BATTERY]
    cases += [(name, "rational") for name in RATIONAL_NAMES]
    for name, backend in cases:
        rs = battery_root_system(name, backend)
        for elem, _, _ in elements_up_to_length(rs, 8):
            assert left_descents(rs, elem) == _simple_in(
                inversion_set(rs, elem)), (name, backend, elem)


@pytest.mark.parametrize("name,backend", [
    ("A3", "float"), ("H3", "float"), ("hyperbolic-3-3-4", "float"),
    ("universal", "float"), ("affine-3-3-3", "rational")])
def test_descents_of_a_non_reduced_word_are_its_elements(name, backend):
    # any word answers for its element, as is_low does
    rs = battery_root_system(name, backend=backend)
    rng = random.Random(2800)
    non_reduced = 0
    for _ in range(400):
        word = tuple(rng.randrange(3) for _ in range(rng.randrange(16)))
        elem = normalize(rs, word)
        non_reduced += elem.length < len(word)
        assert left_descents(rs, Element(word)) == _simple_in(
            inversion_set(rs, elem)), (name, word)
    assert non_reduced > 100, non_reduced


def test_small_inversion_mask():
    rs = dihedral(INF)
    sigma = small_roots(rs)
    assert small_inversion_mask(rs, sigma, IDENTITY) == 0
    # lambda(st) = {alpha_s}: the deep inversion is not small
    lam = small_inversion_mask(rs, sigma, Element((0, 1)))
    assert sigma.mask_to_ids(lam) == [0]
    rs3 = dihedral(3)
    sigma3 = small_roots(rs3)
    lam3 = small_inversion_mask(rs3, sigma3, Element((0, 1, 0)))
    # the longest element inverts all of Sigma
    assert len(sigma3.mask_to_ids(lam3)) == 3


# -- cone membership ----------------------------------------------------

def test_cone_membership_basics():
    rs = dihedral(INF)
    a = [rs.root_table.root(0), rs.root_table.root(1)]
    gamma = rs.root_table.root(rs.root_table.reflect(1, 0))     # (2, 1)
    assert cone_membership(rs, a, gamma)
    assert cone_membership(rs, a, a[0])
    assert not cone_membership(rs, [], gamma)
    assert not cone_membership(rs, [a[0]], gamma)


def test_cone_membership_exact_backend():
    rs = dihedral(INF, backend="rational")
    a = [rs.root_table.root(0)]
    gamma = rs.root_table.root(rs.root_table.reflect(1, 0))     # (2, 1)
    assert gamma.coords == (Fraction(2), Fraction(1))
    assert not cone_membership(rs, a, gamma)
    assert cone_membership(
        rs, [rs.root_table.root(0), rs.root_table.root(1)], gamma)


def test_exact_cone_solve_stays_exact():
    # the exact table's coordinates are ints, and int / int is a float, so
    # the solve must turn its rows into Fractions: (3, 2, 0) = 4/3 (2, 1, 0)
    # + 1/3 (1, 2, 0) comes out in Fractions with a residual of exactly 0
    rs = battery_root_system("universal", backend="rational")
    table = rs.root_table
    a, b = table.reflect(1, 0), table.reflect(0, 1)
    gamma = table.reflect(b, 0)
    cols = [table.coords[a], table.coords[b]]
    assert cols == [(2, 1, 0), (1, 2, 0)]
    assert table.coords[gamma] == (3, 2, 0)
    assert all(type(x) is int for v in cols for x in v)
    coeffs, residual = _solve_subset(rs, cols, table.coords[gamma])
    assert coeffs == [Fraction(4, 3), Fraction(1, 3)]
    assert all(type(c) is Fraction for c in coeffs)
    assert residual == 0 and type(residual) is Fraction
    assert cone_membership(rs, [table.root(a), table.root(b)],
                           table.root(gamma))
    assert not cone_membership(rs, [table.root(a)], table.root(gamma))


def test_cone_gray_zone():
    rs = dihedral(INF)
    # target off the ray by 8e-7: residual inside the gray zone
    with pytest.raises(NumericallyAmbiguous, match=r"\(1\.0, 8e-07\)"):
        cone_membership(rs, [(1.0, 0.0)], (1.0, 8e-7))


# -- low elements -------------------------------------------------------

def test_is_low_examples():
    rs = dihedral(INF)
    sigma = small_roots(rs)
    assert is_low(rs, sigma, IDENTITY)
    assert is_low(rs, sigma, Element((0,)))
    assert not is_low(rs, sigma, Element((0, 1)))
    rs3 = dihedral(3)
    sigma3 = small_roots(rs3)
    for elem, _, _ in elements_up_to_length(rs3, 3):
        assert is_low(rs3, sigma3, elem)


@pytest.mark.parametrize("backend", ["float", "rational"])
def test_is_low_matches_cone_oracle(battery, backend):
    names, max_len = (([name for name, _, _ in BATTERY], 10)
                      if backend == "float" else (RATIONAL_NAMES, 8))
    for name in names:
        rs, sigma, _ = battery.get(name, backend)
        memo = {}
        for elem, _, _ in elements_up_to_length(rs, max_len):
            assert (is_low(rs, sigma, elem)
                    == cone_is_low(rs, sigma, elem, memo)), (name, elem)


# max_examples bounds the time: a triple takes about 10 ms (30 ms at most)
# on a 2-vCPU x86-64 machine
@settings(max_examples=100, deadline=None, database=None)
@given(st.tuples(*[st.sampled_from([2, 3, 4, 5, 6, 7, 8, INF])] * 3))
def test_is_low_matches_cone_oracle_on_random_triangles(bonds):
    # also: Sigma is bipodal, the walk's N(w), grown on a fresh root system
    # before anything else adds roots, is inversion_set's and has length(w)
    # roots, and the left-extension search finds the walk's low elements in
    # order, as low elements are closed under suffixes (Dyer-Hohlweg 2016);
    # the last id of each entry's tuple is the one root N(us) adds to N(u)
    rs = build_root_system(triangle_matrix(*bonds))
    walked = []
    invs = None
    for length, level, next_invs in _inversion_levels(rs, 6):
        for inv, p in zip(next_invs, level.parents) if length else ():
            assert set(inv) - set(invs[p]) == {inv[-1]}, (bonds, inv)
            assert len(set(inv)) == len(invs[p]) + 1 == length, (bonds, inv)
        walked += [(elem, frozenset(inv))
                   for (elem, _, _), inv in zip(level, next_invs)]
        invs = next_invs
    sigma = small_roots(rs)
    assert is_bipodal(rs, sigma.roots), bonds
    memo = {}
    lows = []
    for elem, inv in walked:
        low = is_low(rs, sigma, elem)
        assert low == cone_is_low(rs, sigma, elem, memo), (bonds, elem)
        assert inversion_set(rs, elem) == inv, (bonds, elem)
        assert len(inv) == elem.length, (bonds, elem)
        if low:
            lows.append(elem)
    assert enumerate_low(rs, sigma, 6)[0] == lows, bonds


def test_is_low_answers_for_any_word(battery):
    # is_low reads the element a word denotes, reduced or not
    rng = random.Random(9)
    shorter = low = 0
    for name in ("H3", "affine-4-4-2", "hyperbolic-3-3-4", "universal"):
        rs, sigma, _ = battery.get(name)
        memo = {}
        for _ in range(150):
            word = tuple(rng.randrange(3) for _ in range(rng.randrange(13)))
            elem = normalize(rs, word)
            answer = is_low(rs, sigma, Element(word))
            assert answer == is_low(rs, sigma, elem), (name, word)
            assert answer == cone_is_low(rs, sigma, elem, memo), (name, word)
            shorter += elem.length < len(word)
            low += answer
    assert shorter > 100 and low > 100


def test_enumerate_low_infinite_dihedral():
    rs = dihedral(INF)
    sigma = small_roots(rs)
    lows, report = enumerate_low(rs, sigma, 6)
    assert lows == [IDENTITY, Element((0,)), Element((1,))]
    assert report.complete


def test_enumerate_low_universal(battery):
    rs, sigma, _ = battery.get("universal")
    lows, report = enumerate_low(rs, sigma, 4)
    assert lows == [IDENTITY, Element((0,)), Element((1,)), Element((2,))]
    assert report.complete


def test_enumerate_low_monotone_and_stable(battery):
    rs, sigma, _ = battery.get("hyperbolic-3-3-4")
    lows_a, _ = enumerate_low(rs, sigma, 8)
    lows_b, report = enumerate_low(rs, sigma, 12)
    assert set(lows_a) <= set(lows_b)
    assert report.complete
    # stabilization: nothing new appears for four more lengths
    lows_c, _ = enumerate_low(rs, sigma, 16)
    assert lows_b == lows_c


def test_enumerate_low_stable_wrapper(battery):
    rs, sigma, _ = battery.get("A3")
    lows, report, reached = enumerate_low_stable(rs, sigma)
    assert report.complete
    assert len(lows) == 24  # all of A3 is low
    assert reached <= 25


def _assert_walk_matches_oracle(rs, max_len, where):
    """The automaton walk against the matrix BFS of conftest: the same words
    in the same order; each parent index points at the entry whose word is
    the prefix, and each state is the ShortLex automaton's transition from
    the parent's state on the last letter."""
    aut = build_shortlex_automaton(rs, small_roots(rs))
    walk = list(elements_by_length(rs, max_len))
    oracle = list(matrix_bfs_levels(rs, max_len))
    assert ([(k, [e.word for e, _, _ in entries]) for k, entries in walk]
            == [(k, [e.word for e, _ in entries]) for k, entries in oracle]
            ), where
    assert list(walk[0][1]) == [(IDENTITY, None, 0)], where
    for (_, prev), (_, entries) in zip(walk, walk[1:]):
        prev = list(prev)
        for elem, p, state in entries:
            parent, _, parent_state = prev[p]
            assert parent.word == elem.word[:-1], (where, elem)
            assert state == aut.transitions[parent_state][elem.word[-1]], \
                (where, elem)


@pytest.mark.parametrize("backend", ["float", "rational"])
def test_walk_matches_matrix_bfs_oracle(battery, backend):
    names = ([name for name, _, _ in BATTERY] if backend == "float"
             else RATIONAL_NAMES)
    for name in names:
        rs, _, _ = battery.get(name, backend)
        _assert_walk_matches_oracle(rs, 8, name)
    if backend == "float":
        rs, _, _ = battery.get("hyperbolic-2-3-7")
        _assert_walk_matches_oracle(rs, 25, "hyperbolic-2-3-7")
        # normalize peels descents off N(w) and knows no automaton
        for _, entries in elements_by_length(rs, 12):
            for elem, _, _ in entries:
                assert normalize(rs, elem.word) == elem, elem


# each entry point that takes a length bound, with a negative bound
NEGATIVE_BOUNDS = {
    "count_elements": (-2, lambda rs, sigma: count_elements(rs, sigma, -2)),
    "growth_series": (-1, lambda rs, sigma: growth_series(
        build_shortlex_automaton(rs, sigma), -1)),
    "elements_by_length": (-1, lambda rs, _: next(elements_by_length(rs, -1))),
    "enumerate_low": (-3, lambda rs, sigma: enumerate_low(rs, sigma, -3)),
    "enumerate_low_stable": (-1, lambda rs, sigma: enumerate_low_stable(
        rs, sigma, cap=-1)),
    "check_gbip_walk": (-1, lambda rs, _: check_gbip_walk(rs, -1)),
}


@pytest.mark.parametrize("entry", sorted(NEGATIVE_BOUNDS))
def test_negative_length_bound_is_rejected(battery, entry):
    # a negative bound used to be answered as if it were 0: on A3,
    # count_elements gave [1] and enumerate_low the identity as low
    rs, sigma, _ = battery.get("A3")
    bound, call = NEGATIVE_BOUNDS[entry]
    with pytest.raises(ValueError, match=re.escape(
            "length bound %d must be >= 0" % bound)):
        call(rs, sigma)


def test_walk_builds_no_element_until_drawn(monkeypatch):
    built = []

    class CountingElement(Element):
        def __init__(self, word):
            built.append(word)
            super().__init__(word)

    monkeypatch.setattr(coxlow.elements, "Element", CountingElement)
    rs = battery_root_system("hyperbolic-2-3-7")
    levels = [entries for _, entries in elements_by_length(rs, 30)]
    assert [len(entries) for entries in levels] == count_elements(
        rs, small_roots(rs), 30)
    assert built == []
    elem, _, _ = next(iter(levels[30]))  # drawing one entry builds one Element
    assert built == [elem.word] and elem.length == 30


def test_levels_read_in_any_order(battery):
    rs, _, _ = battery.get("hyperbolic-3-3-4")
    expected = []
    for _, level in elements_by_length(rs, 8):
        expected.append((list(level), list(level.letters),
                         list(level.parents)))
    assert expected[0] == ([(IDENTITY, None, 0)], [None], [None])
    levels = [level for _, level in elements_by_length(rs, 8)]
    # the deepest level first: that drops every prev link back to level 0
    deepest = list(levels[-1])
    assert all(level.prev is None for level in levels)
    for level, (entries, letters, parents) in zip(levels[:-1], expected):
        assert list(level) == entries
        assert list(level.letters) == letters
        assert list(level.parents) == parents
    assert deepest == expected[-1][0]
    assert list(levels[-1].letters) == expected[-1][1]
    assert list(levels[-1].parents) == expected[-1][2]


def test_walk_holds_few_bytes_per_element():
    # every level of a counting walk held at once: the walk stores only
    # each level's states (4 bytes an entry), not its letters or parents
    rs = battery_root_system("hyperbolic-2-3-7")
    small_roots(rs)                     # fill the root table beforehand
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        levels = [level for _, level in elements_by_length(rs, 45)]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n = sum(len(level) for level in levels)
    assert n == 68828
    assert held / n < 6, held / n


def test_element_enumeration_counts():
    rs = dihedral(3)
    assert len(elements_up_to_length(rs, 10)) == 6
    rs_inf = dihedral(INF)
    assert len(elements_up_to_length(rs_inf, 4)) == 9  # 1 + 2*4


def _reference_lows(rs, sigma, cap, settle=None):
    """enumerate_low (settle=None) or enumerate_low_stable, computed over
    elements_by_length with lowness from the cone oracle."""
    all_masks = set(build_automaton(rs, sigma).states)
    lows, realized, quiet, reached = [], set(), 0, 0
    memo = {}
    for length, entries in elements_by_length(rs, cap):
        reached = length
        new = 0
        for elem, _, _ in entries:
            if cone_is_low(rs, sigma, elem, memo):
                lows.append(elem)
                realized.add(small_inversion_mask(rs, sigma, elem))
                new += 1
        quiet = 0 if new else quiet + 1
        if settle is not None and realized >= all_masks and quiet >= settle:
            break
    lows.sort(key=lambda e: (e.length, e.word))
    return lows, reached, len(all_masks), len(realized), \
        tuple(sorted(all_masks - realized))


@pytest.mark.parametrize("name,backend", [
    ("A3", "float"), ("affine-6-3-2", "float"), ("hyperbolic-3-3-4", "float"),
    ("universal-override", "float"), ("affine-3-3-3", "rational")])
def test_enumerate_low_matches_reference(name, backend):
    # separate root systems, so that neither run sees the other's roots
    rs = battery_root_system(name, backend)
    sigma = small_roots(rs)
    ref_rs = battery_root_system(name, backend)
    ref_sigma = small_roots(ref_rs)

    lows, report = enumerate_low(rs, sigma, 9)
    ref = _reference_lows(ref_rs, ref_sigma, 9)
    assert lows == ref[0]
    assert (report.max_len, report.n_lambda,
            len(set(report.mapping.values())),
            report.unresolved_masks) == (9,) + ref[2:]

    lows, report, reached = enumerate_low_stable(rs, sigma, cap=25)
    ref = _reference_lows(ref_rs, ref_sigma, 25, settle=4)
    assert lows == ref[0]
    # the search examines one length past the longest low element
    assert reached == min(25, lows[-1].length + 1)
    assert (report.max_len, report.n_lambda,
            len(set(report.mapping.values())),
            report.unresolved_masks) == (reached,) + ref[2:]


@pytest.mark.parametrize("backend", ["float", "rational"])
def test_low_search_inversion_sets_match_inversion_set(monkeypatch, backend):
    # every candidate y = s x of the search goes to is_low, and each one it
    # accepts hands its N(y), built from the parent as {alpha_s} u s N(x),
    # to small_inversion_mask
    candidates, recorded = [], []

    def recording_is_low(rs, sigma, w):
        candidates.append(w)
        return is_low(rs, sigma, w)

    def recording_mask(rs, sigma, w, inv=None):
        recorded.append((w, inv))
        return small_inversion_mask(rs, sigma, w, inv=inv)

    monkeypatch.setattr(coxlow.elements, "is_low", recording_is_low)
    monkeypatch.setattr(coxlow.elements, "small_inversion_mask",
                        recording_mask)
    names = ([name for name, _, _ in BATTERY] if backend == "float"
             else RATIONAL_NAMES)
    for name in names:
        rs = battery_root_system(name, backend)
        sigma = small_roots(rs)
        candidates.clear()
        recorded.clear()
        lows, _, _ = enumerate_low_stable(rs, sigma)
        # no element reaches is_low twice
        assert (len({normalize(rs, w.word) for w in candidates})
                == len(candidates)), name
        assert set(lows) <= {IDENTITY} | set(candidates), name
        # each low element but the identity, in order, with its N(w)
        assert [w for w, _ in recorded] == lows[1:], name
        for w, inv in recorded:
            assert_matches_oracle(rs, inv, w.word, (name, w))
            assert inversion_set(rs, w) == inv, (name, w)
        # a low element's word is its ShortLex normal form, found without
        # normalize (a rejected candidate's word need not be)
        for w in lows:
            assert normalize(rs, w.word) == w, (name, w)
