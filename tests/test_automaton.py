import itertools
from types import SimpleNamespace

from coxlow import (
    INF,
    CoxeterMatrix,
    SmallRootSet,
    build_automaton,
    build_root_system,
    build_shortlex_automaton,
    count_elements,
    dihedral_matrix,
    elements_by_length,
    export_dot,
    growth_series,
    is_reduced,
    normalize,
    small_inversion_mask,
    small_roots,
)
from coxlow.conjecture import FINITE_BATTERY_ORDERS

from conftest import matrix_bfs_levels


def make(matrix, **kw):
    rs = build_root_system(matrix, **kw)
    sigma = small_roots(rs)
    return rs, sigma, build_automaton(rs, sigma)


def test_infinite_dihedral_states():
    rs, sigma, aut = make(dihedral_matrix(INF))
    assert len(aut) == 3
    masks = {frozenset(i for i in range(len(sigma)) if m >> i & 1)
             for m in aut.states}
    s_bit, t_bit = sigma.bit[0], sigma.bit[1]     # alpha_s has id s
    assert masks == {frozenset(), frozenset({s_bit}), frozenset({t_bit})}
    # from {alpha_s}, reading t lands in {alpha_t} and cycles there
    state = aut.run((0, 1))
    assert aut.states[state] == 1 << t_bit
    assert (aut.transitions[state][0]
            == aut.state_index[1 << s_bit])


def test_m3_dihedral_states():
    _, _, aut = make(dihedral_matrix(3))
    assert len(aut) == 6  # Sigma = Phi+, states are the 6 inversion sets


def test_universal_rank3_states(battery):
    _, _, aut = battery.get("universal")
    assert len(aut) == 4


def test_rank1_automaton():
    rs, sigma, aut = make(CoxeterMatrix([[1]]))
    assert len(aut) == 2
    assert aut.run((0,)) is not None
    assert aut.run((0, 0)) is None


def test_is_reduced_examples():
    _, _, aut = make(dihedral_matrix(INF))
    assert not is_reduced(aut, (0, 0))
    assert is_reduced(aut, (0, 1, 0, 1, 0, 1))
    _, _, aut3 = make(dihedral_matrix(3))
    assert not is_reduced(aut3, (0, 1, 0, 1))
    assert is_reduced(aut3, (0, 1, 0))


def test_reduced_agrees_with_matrix_oracle(battery):
    # exhaustive length <= 6 here; the acceptance suite pushes to 8
    for name in ("affine-3-3-3", "hyperbolic-4-4-4"):
        rs, _, aut = battery.get(name)
        for k in range(7):
            for word in itertools.product(range(rs.rank), repeat=k):
                oracle = normalize(rs, word).length == k
                assert is_reduced(aut, word) == oracle, (name, word)


def test_normal_forms_never_rejected(battery):
    rs, _, aut = battery.get("hyperbolic-2-3-7")
    for _, entries in matrix_bfs_levels(rs, 7):
        for elem, _ in entries:
            assert aut.run(elem.word) is not None


def test_state_tracks_small_inversions(battery):
    # state after reading u equals Sigma cap N(u^{-1})
    rs, sigma, aut = battery.get("hyperbolic-3-3-4")
    for _, entries in elements_by_length(rs, 6):
        for elem, _, _ in entries:
            state = aut.run(elem.word)
            u_inv = normalize(rs, tuple(reversed(elem.word)))
            expect = small_inversion_mask(rs, sigma, u_inv)
            assert aut.states[state] == expect


def test_states_equal_realized_lambdas(battery):
    rs, sigma, aut = battery.get("affine-4-4-2")
    realized = set()
    for _, entries in elements_by_length(rs, 10):
        for elem, _, _ in entries:
            realized.add(small_inversion_mask(rs, sigma, elem))
    assert realized == set(aut.states)


def test_growth_series_examples():
    _, _, aut = make(dihedral_matrix(INF))
    assert growth_series(aut, 5) == [1, 2, 2, 2, 2, 2]
    _, _, aut3 = make(dihedral_matrix(3))
    assert growth_series(aut3, 3) == [1, 2, 2, 2]  # reduced WORDS: sts and tst


def _every_step(aut, k):
    """The growth DP with all k steps, never stopping early."""
    counts = [1] + [0] * (len(aut.states) - 1)
    series = [1]
    for _ in range(k):
        new = [0] * len(counts)
        for i, row in enumerate(aut.transitions):
            for t in row:
                if t is not None:
                    new[t] += counts[i]
        counts = new
        series.append(sum(counts))
    return series


class _CountedRows(tuple):
    """Transition rows that count the DP steps iterating over them."""

    steps = 0

    def __iter__(self):
        type(self).steps += 1
        return super().__iter__()


def test_finite_growth_series_stop_at_the_first_zero_term(battery):
    for name, order in FINITE_BATTERY_ORDERS.items():
        rs, sigma, aut = battery.get(name)
        shortlex = build_shortlex_automaton(rs, sigma)
        assert growth_series(aut, 200) == _every_step(aut, 200), name
        elements = growth_series(shortlex, 200)
        assert elements == _every_step(shortlex, 200), name
        assert count_elements(rs, sigma, 200) == elements, name
        assert sum(elements) == order, name
        # the longest element has length elements.index(0) - 1, and the
        # step that reaches the first zero term is the last one taken
        _CountedRows.steps = 0
        counted = SimpleNamespace(states=shortlex.states,
                                  transitions=_CountedRows(shortlex.transitions))
        assert growth_series(counted, 200) == elements, name
        assert _CountedRows.steps == elements.index(0), name


def test_count_elements_examples(battery):
    rs = build_root_system(dihedral_matrix(3))
    sigma = small_roots(rs)
    assert count_elements(rs, sigma, 3) == [1, 2, 2, 1]
    rs_u, sigma_u, _ = battery.get("universal")
    assert count_elements(rs_u, sigma_u, 5) == [1, 3, 6, 12, 24, 48]
    rs_i = build_root_system(dihedral_matrix(INF))
    assert count_elements(rs_i, small_roots(rs_i), 4) == [1, 2, 2, 2, 2]


def test_counts_match_bfs_oracle(battery):
    for name in ("B3", "hyperbolic-3-3-4", "universal-override"):
        rs, sigma, _ = battery.get(name)
        counts = count_elements(rs, sigma, 8)
        oracle = [0] * 9
        for length, entries in matrix_bfs_levels(rs, 8):
            oracle[length] = len(entries)
        assert counts == oracle, name


def test_words_dominate_elements_termwise(battery):
    for name in ("A3", "affine-6-3-2", "universal"):
        rs, sigma, aut = battery.get(name)
        words = growth_series(aut, 8)
        elems = count_elements(rs, sigma, 8)
        assert all(w >= e for w, e in zip(words, elems)), name


def test_shortlex_automaton_accepts_exactly_normal_forms():
    rs = build_root_system(dihedral_matrix(3))
    sigma = small_roots(rs)
    aut = build_shortlex_automaton(rs, sigma)
    accepted = [w for k in range(4)
                for w in itertools.product(range(2), repeat=k)
                if aut.run(w) is not None]
    normal_forms = {e.word for _, entries in matrix_bfs_levels(rs, 3)
                    for e, _ in entries}
    assert set(accepted) == normal_forms


def test_export_dot_stable():
    _, _, aut = make(dihedral_matrix(INF))
    dot = export_dot(aut)
    assert dot == export_dot(aut)
    assert dot.count("[shape=circle") == 3
    assert dot.count(" -> ") == 5  # start edge + 4 transitions
    assert "start" in dot


def test_count_elements_keys_automata_by_sigma_content():
    # two sets of different content on one root system: the small roots of
    # A2, and the simple roots alone (whose acceptor only forbids "ss")
    rs = build_root_system(dihedral_matrix(3))
    for _ in range(20):
        simple_only = SmallRootSet(rs, range(2))
        assert count_elements(rs, simple_only, 4) == [1, 2, 2, 2, 2]
        del simple_only
        # a new set may be given the id of the one just freed
        assert count_elements(rs, small_roots(rs), 4) == [1, 2, 2, 1, 0]
