"""Element counts against the growth series from Steinberg's formula
(oracles/poincare.py), which reads the Coxeter matrix alone."""

import pytest

from coxlow import BATTERY, battery_root_system, count_elements, \
    elements_by_length, small_roots

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
