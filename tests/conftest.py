import pytest

from coxlow import battery_root_system, build_automaton, small_roots
from coxlow.elements import (
    IDENTITY,
    Element,
    identity_matrix,
    mat_column,
    mat_mul,
    reflection_matrix,
)

# rational-form battery groups (all bond labels in {1, 2, 3, inf})
RATIONAL_NAMES = ["2-2-2", "3-2-2", "A3", "affine-3-3-3", "2-2-inf",
                  "2-inf-inf", "universal", "inf-3-3", "universal-override"]


class _BatteryCache:
    """Session-wide cache of (root system, small roots, automaton) per group."""

    def __init__(self):
        self._data = {}

    def get(self, name, backend="float"):
        key = (name, backend)
        if key not in self._data:
            rs = battery_root_system(name, backend=backend)
            sigma = small_roots(rs)
            aut = build_automaton(rs, sigma)
            self._data[key] = (rs, sigma, aut)
        return self._data[key]


@pytest.fixture(scope="session")
def battery():
    return _BatteryCache()


def matrix_bfs_levels(rs, max_len=None):
    """Test oracle: the elements of each length by a breadth-first search
    over the right Cayley graph that knows nothing of small roots or
    automata, in the same (length, entries) form as elements_by_length.

    Elements are told apart by their matrices, rounded to the vec_key grid
    (1e-6 in float), in a set of every element met so far.  Since parents
    are visited in ShortLex order and letters in increasing order, the
    discovery word of each element is its ShortLex normal form.  Exact in
    the rational backend; in float the grid fails at depth (hyperbolic-2-3-7
    counts one element of length 59 twice), far beyond the lengths the
    tests ask for."""
    def mat_key(m):
        return tuple(rs.vec_key(row) for row in m)

    ident = identity_matrix(rs)
    seen = {mat_key(ident)}
    frontier = [(IDENTITY, ident, ident)]
    refl = [reflection_matrix(rs, s) for s in range(rs.rank)]
    length = 0
    yield 0, frontier
    while frontier and (max_len is None or length < max_len):
        new_frontier = []
        for elem, w, w_inv in frontier:
            for s in range(rs.rank):
                # length increases iff w(alpha_s) is positive
                if rs.is_negative_root_vec(mat_column(w, s)):
                    continue
                nw = mat_mul(w, refl[s])
                key = mat_key(nw)
                if key in seen:
                    continue
                seen.add(key)
                new_frontier.append(
                    (Element(elem.word + (s,)), nw, mat_mul(refl[s], w_inv)))
        if not new_frontier:
            return
        frontier = new_frontier
        length += 1
        yield length, frontier
