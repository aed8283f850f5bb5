"""The growth series of a Coxeter group from its Coxeter matrix alone.

W(t) = sum_k #{w : l(w) = k} t^k.  For a finite group it is the product of
the q-integers [d_i]_t = 1 + t + ... + t^(d_i - 1) over the degrees d_i of
W.  For an infinite group, Steinberg's formula (Steinberg 1968; Humphreys,
"Reflection Groups and Coxeter Groups", 5.12) gives

    1 / W(t) = sum_J (-1)^|J| t^(N_J) / W_J(t),

summed over the subsets J of S whose parabolic subgroup W_J is finite,
where N_J = sum (d_i - 1) is the degree of W_J(t).  The series is built in
integer power-series arithmetic, truncated at a requested length; it uses
no root system and no automaton.

Finite parabolic subgroups are recognized by their connected components,
which must have rank <= 3: A1, I2(m), A3, B3 and H3 are the finite
irreducible types there.  That covers every subset of a rank-3 group.
"""

import math
from itertools import combinations

_RANK3_DEGREES = {(3, 3): (2, 3, 4), (3, 4): (2, 4, 6), (3, 5): (2, 6, 10)}


def _component_degrees(m, nodes):
    """Degrees of the connected parabolic W_nodes, or None if infinite."""
    if len(nodes) == 1:
        return (2,)
    if len(nodes) == 2:
        bond = m[nodes[0]][nodes[1]]
        return None if bond == math.inf else (2, bond)
    if len(nodes) == 3:
        bonds = sorted(m[i][j] for i, j in combinations(nodes, 2))
        if bonds[0] != 2:                  # a triangle: affine or worse
            return None
        return _RANK3_DEGREES.get((bonds[1], bonds[2]))
    raise ValueError("no degrees for a connected rank-%d parabolic"
                     % len(nodes))


def _degrees(m, subset):
    """Degrees of W_subset, or None if it is infinite."""
    left, degrees = set(subset), []
    while left:
        component, stack = set(), [left.pop()]
        while stack:
            i = stack.pop()
            component.add(i)
            linked = {j for j in left if m[i][j] != 2}
            left -= linked
            stack.extend(linked)
        found = _component_degrees(m, sorted(component))
        if found is None:
            return None
        degrees.extend(found)
    return degrees


def _times(a, b, n):
    return [sum(a[i] * b[k - i] for i in range(k + 1)
                if i < len(a) and k - i < len(b)) for k in range(n)]


def _inverse(a, n):
    """1 / a to n terms, for a series with a[0] == 1."""
    out = [1] + [0] * (n - 1)
    for k in range(1, n):
        out[k] = -sum(a[i] * out[k - i] for i in range(1, min(k, len(a) - 1) + 1))
    return out


def _poincare(degrees, n):
    out = [1]
    for d in degrees:
        out = _times(out, [1] * d, n)
    return out + [0] * (n - len(out))


def poincare_series(matrix, max_len):
    """#{w : l(w) = k} for k = 0..max_len, for the Coxeter matrix given as
    rows of bond labels (math.inf for an infinite bond)."""
    m = [list(row) for row in matrix]
    n = max_len + 1
    degrees = _degrees(m, range(len(m)))
    if degrees is not None:
        return _poincare(degrees, n)
    inverse = [0] * n
    for size in range(len(m) + 1):
        for subset in combinations(range(len(m)), size):
            degrees = _degrees(m, subset)
            if degrees is None:
                continue
            shift = sum(d - 1 for d in degrees)
            term = _inverse(_poincare(degrees, n), n)
            for k in range(n - shift):
                inverse[k + shift] += (-1) ** size * term[k]
    return _inverse(inverse, n)
