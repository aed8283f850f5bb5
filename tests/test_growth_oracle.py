"""Element counts against the growth series from Steinberg's formula
(oracles/poincare.py), which reads the Coxeter matrix alone."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxlow import BATTERY, INF, battery_root_system, build_root_system, \
    build_shortlex_automaton, count_elements, elements_by_length, \
    small_roots, triangle_matrix

from oracles.poincare import poincare_series

NAMES = [name for name, _, _ in BATTERY]


def test_series_of_small_groups():
    inf = float("inf")
    assert poincare_series([[1, 3], [3, 1]], 4) == [1, 2, 2, 1, 0]
    assert poincare_series([[1, inf], [inf, 1]], 4) == [1, 2, 2, 2, 2]
    assert sum(poincare_series(battery_root_system("H3").matrix.entries,
                             15)) == 120


@pytest.mark.parametrize("name", NAMES)
def test_count_elements_matches_series(name):
    rs = battery_root_system(name)
    assert count_elements(rs, small_roots(rs), 30) \
        == poincare_series(rs.matrix.entries, 30)


def test_count_elements_matches_series_at_depth():
    rs = battery_root_system("hyperbolic-2-3-7")
    series = poincare_series(rs.matrix.entries, 60)
    assert series[59] == 100265
    assert count_elements(rs, small_roots(rs), 60) == series


@pytest.mark.parametrize("name", NAMES)
def test_walk_levels_match_series(name):
    rs = battery_root_system(name)
    sizes = [len(level) for _, level in elements_by_length(rs, 16)]
    series = poincare_series(rs.matrix.entries, 16)
    # a finite group's walk stops after its longest element
    assert sizes == series[:len(sizes)]
    assert not any(series[len(sizes):])


def test_walk_levels_match_series_at_depth():
    # the benchmark's deep walk, level by level, against the theorem
    rs = battery_root_system("hyperbolic-2-3-7")
    sizes = [len(level) for _, level in elements_by_length(rs, 59)]
    series = poincare_series(rs.matrix.entries, 59)
    assert series[59] == 100265
    assert sizes == series


# max_examples bounds the time: a triple takes about 3 ms (11 ms at most)
# on a 2-vCPU x86-64 machine
@settings(max_examples=100, deadline=None, database=None)
@given(st.tuples(*[st.sampled_from([2, 3, 4, 5, 6, 7, 8, INF])] * 3))
def test_walk_matches_series_on_random_triangles(bonds):
    rs = build_root_system(triangle_matrix(*bonds))
    transitions = build_shortlex_automaton(rs, small_roots(rs)).transitions
    walk = [level for _, level in elements_by_length(rs, 12)]
    series = poincare_series(rs.matrix.entries, 12)
    # a finite group's walk stops after its longest element
    assert [len(level) for level in walk] == series[:len(walk)], bonds
    assert not any(series[len(walk):]), bonds
    for prev, level in zip(walk, walk[1:]):
        for s, p, state in zip(level.letters, level.parents, level.states):
            assert state == transitions[prev.states[p]][s], (bonds, s, p)
