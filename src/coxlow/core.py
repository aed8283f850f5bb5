"""Coxeter matrices, based root systems and depth-bounded root enumeration.

Conventions used throughout the package:

* simple roots are the standard basis vectors, so every root is stored as a
  coordinate vector in the simple-root basis;
* the bilinear form is normalized with B(alpha_s, alpha_s) = 1 and
  B(alpha_s, alpha_t) = -cos(pi / m(s,t)), with -1 (or a Gram override
  <= -1) on infinite bonds;
* the root table holds the doubled form 2B (0, -1 or -2 on the bonds 2, 3
  and inf), so a reflection needs no division.  The table is exact when the
  backend is rational or every float 2B is whole (bonds inf, overrides in
  Z/2; in float, bonds 2 and 3 are not): its coordinates are then ints
  (Fractions where an exact 2B is not whole), keyed by their own tuple;
* the depth of a simple root is 1, and depth(beta) is 1 plus the minimal
  length of a word sending beta to a negative root.  Some texts shift this
  convention by one; everything in this package uses this one.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import (
    DimensionMismatch,
    InvalidBondLabel,
    IrrationalEntryForExactBackend,
    NonSymmetricMatrix,
    OverrideAboveMinusOne,
    OverrideOnFiniteBond,
    ValidationError,
)

INF = math.inf

DEFAULT_EPS = 1e-9

# the exact backend's bond values, for the labels whose -cos(pi/m) is rational
_RATIONAL_BONDS = {2: Fraction(0), 3: Fraction(-1, 2), INF: Fraction(-1)}

# scaling used to build hashable keys for float coordinates
_KEY_SCALE = 10 ** 6


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def check_bound(bound, name="length bound", least=0, error=ValueError):
    """Raise ``error`` naming ``bound`` unless it is an int >= ``least``."""
    if not (_is_int(bound) and bound >= least):
        raise error("%s %r must be %s" % (
            name, bound, ">= %d" % least if _is_int(bound) else "an int"))


class CoxeterMatrix:
    """Symmetric matrix of bond labels: m(s,s) = 1 and, off the diagonal,
    m(s,t) an integer >= 2 or INF; labels are ints, not bools or floats."""

    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        n = len(entries)
        for i, row in enumerate(entries):
            if len(row) != n:
                raise NonSymmetricMatrix(
                    "matrix is not square: row %d has %d entries, not %d"
                    % (i, len(row), n))
        for i in range(n):
            for j in range(n):
                m = entries[i][j]
                if i == j:
                    if not _is_int(m) or m != 1:
                        raise InvalidBondLabel("diagonal entries must be 1, "
                                               "not m(%d,%d) = %r" % (i, i, m))
                elif m != INF and not (_is_int(m) and m >= 2):
                    raise InvalidBondLabel("m(%d,%d) = %r must be an integer "
                                           ">= 2 or inf" % (i, j, m))
                elif m != entries[j][i]:
                    raise NonSymmetricMatrix("m(%d,%d) = %r != m(%d,%d) = %r"
                                             % (i, j, m, j, i, entries[j][i]))
        self.entries = entries
        self.rank = n

    def __getitem__(self, pair):
        i, j = pair
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, CoxeterMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "CoxeterMatrix(%r)" % (self.entries,)


def triangle_matrix(m12, m23, m13):
    """Rank-3 Coxeter matrix from the three bond labels."""
    return CoxeterMatrix([[1, m12, m13], [m12, 1, m23], [m13, m23, 1]])


def dihedral_matrix(m):
    return CoxeterMatrix([[1, m], [m, 1]])


@dataclass(frozen=True, slots=True)
class Root:
    """A positive root: its coordinates in the simple-root basis, its depth
    and its key.  Every root is a positive root of a RootTable."""

    coords: tuple
    depth: int
    key: tuple

    def sort_key(self):
        return (self.depth, self.key)

    def __hash__(self):
        return hash(self.key)

    def __eq__(self, other):
        return isinstance(other, Root) and self.key == other.key

    def __repr__(self):
        return "Root(%s, depth=%d)" % (list(self.coords), self.depth)


def _float_key(v):
    return tuple([round(c * _KEY_SCALE) for c in v])


class RootTable:
    """The positive roots met so far, each under an integer id.

    ``ids`` maps a root key to its id; the simple root alpha_s has id s.
    Id-indexed lists keep each root, with its form values computed once
    from ``gram2``, the doubled Gram matrix 2B (by ``add``'s dot product,
    or in O(r) from the parent's by ``reflect`` when the table is
    ``exact``, its ``vec_key`` being ``tuple``): ``coords[i]`` are
    root i's first-found coordinates; ``forms[i][t]`` is 2B(alpha_t,
    root i); ``ups[i]`` the bitmask of the generators t with
    2B(alpha_t, root i) > ``eps2`` (2 eps, or 0 in an exact table), the s
    for which s . root i is shallower; and ``sort_keys[i]`` is (depth,
    key), the order in which roots are listed.  ``cols[s]`` is one
    id-indexed column per generator: ``cols[s][i]`` is the id of s . root
    i, or None until ``reflect(i, s)`` fills it (and ``cols[s][s]`` stays
    None, since s negates alpha_s).  Every list has one entry per root, and
    ``root(i)`` builds root i as a Root.  ``reflect`` never peels: s . beta
    subtracts b = 2B(alpha_s, beta) from coordinate s; depth(s beta) is
    depth(beta) - 1 if b > eps2, depth(beta) + 1 if b < -eps2, and
    otherwise s fixes the root.  Past the simple roots, the package adds
    roots only through ``reflect``; BasedRootSystem.root_depth stays for a
    caller that holds a raw vector.  The table holds no reference to its
    root system, so the two form no cycle."""

    def __init__(self, simple_roots, gram2, eps2, vec_key):
        self.gram2 = gram2
        self.eps2 = eps2
        self.vec_key = vec_key
        self.exact = vec_key is tuple
        self.coords = []
        self.ids = {}
        self.forms = []
        self.ups = []
        self.sort_keys = []
        self.cols = tuple([] for _ in gram2)
        for v in simple_roots:
            self.add(v, vec_key(v), 1)

    def add(self, coords, key, depth, forms=None):
        """Record a new positive root (``forms`` if known); returns its id."""
        i = len(self.coords)
        self.coords.append(coords)
        self.ids[key] = i
        eps2, up = self.eps2, 0
        if forms is None:
            forms = []
            for t, row in enumerate(self.gram2):
                forms.append(b := sum(map(mul, row, coords)))
                if b > eps2:
                    up |= 1 << t
        else:
            for t, b in enumerate(forms):
                if b > eps2:
                    up |= 1 << t
        self.forms.append(tuple(forms))
        self.ups.append(up)
        self.sort_keys.append((depth, key))
        for col in self.cols:
            col.append(None)
        return i

    def root(self, i):
        return Root(self.coords[i], *self.sort_keys[i])

    def reflect(self, i, s):
        """Id of s . root i; root i must not be alpha_s, which s negates."""
        col = self.cols[s]
        j = col[i]
        if j is None:
            if i == s:
                raise ValueError("s%d negates alpha_%d" % (s, s))
            b = self.forms[i][s]
            if -self.eps2 <= b <= self.eps2:
                j = i
            else:
                v = list(self.coords[i])
                v[s] -= b
                v = tuple(v)
                key = self.vec_key(v)
                j = self.ids.get(key)
                if j is None:
                    # exact: 2B(a_t, s beta) = 2B(a_t, beta) - b 2B(a_t, a_s)
                    forms = [f - b * g for f, g in zip(
                        self.forms[i], self.gram2[s])] if self.exact else None
                    j = self.add(v, key, self.sort_keys[i][0]
                                 - (1 if b > 0 else -1), forms)
                col[j] = i
            col[i] = j
        return j


class BasedRootSystem:
    """Simple roots plus the symmetric bilinear form of a Coxeter system.

    The form, the simple roots and ``generators`` (the frozenset
    range(rank)) are fixed at construction.  What grows is ``root_table``
    (a RootTable): every positive root that the small roots, an inversion
    set, the element walk or a peeling graph has met, kept by id in lists
    (no Root objects) with its depth and its reflections, each computed
    once.  ``root_depth`` also adds roots, for a caller that holds a raw
    vector.  ``vec_key`` maps coordinates to the table's key: the tuple
    itself when the table is exact (module docstring), else a 1e-6 grid;
    ``gram``, ``eps`` and ``exact`` stay the backend's.  Derived data such
    as automata is passed explicitly."""

    def __init__(self, matrix, gram, backend, eps):
        self.matrix = matrix
        self.rank = matrix.rank
        self.generators = frozenset(range(self.rank))
        self.gram = gram
        self.backend = backend
        self.exact = backend == "rational"
        self.eps = 0 if self.exact else eps
        gram2 = tuple(tuple(2 * x for x in row) for row in gram)
        whole = all(y == int(y) for row in gram2 for y in row)
        if whole:
            gram2 = tuple(tuple(map(int, row)) for row in gram2)
        exact = whole or self.exact
        one, zero = (1, 0) if exact else (1.0, 0.0)
        self.simple_roots = tuple(
            tuple(one if i == s else zero for i in range(self.rank))
            for s in range(self.rank))
        self.vec_key = tuple if exact else _float_key
        self.root_table = RootTable(self.simple_roots, gram2,
                                    0 if exact else 2 * eps, self.vec_key)

    # -- scalar comparison helpers -------------------------------------

    def is_pos(self, x):
        return x > self.eps

    def is_neg(self, x):
        return x < -self.eps

    def is_zero(self, x):
        return abs(x) <= self.eps

    # -- vectors -------------------------------------------------------

    def check_dim(self, v):
        if len(v) != self.rank:
            raise DimensionMismatch(
                "expected vector of length %d, got %d" % (self.rank, len(v)))

    def bilinear(self, u, v):
        """Value of the symmetric form on two coordinate vectors."""
        self.check_dim(u)
        self.check_dim(v)
        g = self.gram
        return sum(u[i] * sum(g[i][j] * v[j] for j in range(self.rank))
                   for i in range(self.rank))

    def form_simple(self, s, v):
        """B(alpha_s, v); cheaper than the generic bilinear."""
        row = self.gram[s]
        return sum(row[j] * v[j] for j in range(self.rank))

    def reflect(self, s, v):
        """Simple reflection: v - 2 B(alpha_s, v) alpha_s."""
        self.check_dim(v)
        c = 2 * self.form_simple(s, v)
        return tuple(v[i] - c if i == s else v[i] for i in range(self.rank))

    def is_negative_root_vec(self, v):
        """Some coordinate is negative and none is positive."""
        return (any(self.is_neg(c) for c in v)
                and not any(self.is_pos(c) for c in v))

    def root_depth(self, v):
        """Depth of a positive root, read from root_table.

        A vector the table does not hold is peeled greedily: any s with
        B(alpha_s, v) > 0 lowers the depth by exactly one, so the steps down
        to a root the table holds count the depth exactly.  Every root on
        the way is recorded."""
        table = self.root_table
        v = start = tuple(v)
        key = self.vec_key(v)
        path = []
        while key not in table.ids:
            for s in range(self.rank):
                if self.is_pos(self.form_simple(s, v)):
                    path.append((v, key))
                    v = self.reflect(s, v)
                    key = self.vec_key(v)
                    break
            else:
                raise ValueError("not a positive root: %r" % (start,))
        depth = table.sort_keys[table.ids[key]][0]
        for u, k in reversed(path):
            depth += 1
            table.add(u, k, depth)
        return depth

    def __repr__(self):
        return "BasedRootSystem(rank=%d, backend=%r)" % (self.rank, self.backend)


def _bond_value(m, backend):
    if backend == "rational":
        if m not in _RATIONAL_BONDS:
            raise IrrationalEntryForExactBackend(
                "bond label %r has an irrational cosine; the exact backend "
                "only supports labels in {2, 3, inf}" % (m,))
        return _RATIONAL_BONDS[m]
    if m == INF:
        return -1.0
    return -math.cos(math.pi / m)


def check_backend(backend):
    """The backend names: "float" or "rational"."""
    if backend not in ("float", "rational"):
        raise ValidationError('backend %r must be "float" or "rational"'
                              % (backend,))


def check_override(matrix, pair, value):
    """The rules of one Gram override: ``pair`` is a tuple (i, j) of two
    distinct generator indices on an infinite bond, and ``value`` a finite
    int, float or Fraction (not a bool) <= -1."""
    n = matrix.rank
    if not (isinstance(pair, tuple) and len(pair) == 2
            and all(_is_int(k) and 0 <= k < n for k in pair)
            and pair[0] != pair[1]):
        raise OverrideOnFiniteBond("override pair %r must be two distinct "
                                   "generator indices in [0, %d)" % (pair, n))
    i, j = pair
    if matrix[i, j] != INF:
        raise OverrideOnFiniteBond(
            "override on finite bond (%d,%d) with m=%r" % (i, j, matrix[i, j]))
    must = "override value %r on bond (%d,%d) must be " % (value, i, j)
    if type(value) is bool or not isinstance(value, (int, float, Fraction)):
        raise ValidationError(must + "a number")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(must + "finite")
    if value > -1:
        raise OverrideAboveMinusOne(must + "<= -1")


def build_root_system(matrix, gram_overrides=None, backend="float",
                      eps=DEFAULT_EPS):
    """Build the based root system for a Coxeter matrix.

    ``gram_overrides`` maps generator pairs (i, j) to a value <= -1, and is
    only legal on infinite bonds (``check_override``).  ``backend`` is
    ``check_backend``'s "float" (double precision, overrides made floats) or
    "rational" (exact, overrides made Fractions), and ``eps`` (a finite
    number >= 0, not a bool) is the float comparison tolerance.  ``gram``
    holds B; the root table holds 2B, as ints when every 2B is whole.
    """
    if type(eps) is bool or not isinstance(eps, (int, float, Fraction)):
        raise ValidationError("tolerance %r must be a number" % (eps,))
    if not 0 <= eps < INF:
        raise ValidationError("tolerance %r must be finite and >= 0" % (eps,))
    check_backend(backend)
    if not isinstance(matrix, CoxeterMatrix):
        matrix = CoxeterMatrix(matrix)
    n, exact = matrix.rank, backend == "rational"
    for pair, value in (gram_overrides or {}).items():
        check_override(matrix, pair, value)
    one = Fraction(1) if exact else 1.0
    gram = [[one if i == j else _bond_value(matrix[i, j], backend)
             for j in range(n)] for i in range(n)]
    for (i, j), value in (gram_overrides or {}).items():
        gram[i][j] = gram[j][i] = (Fraction if exact else float)(value)
    return BasedRootSystem(matrix, tuple(map(tuple, gram)), backend, eps)


def roots_up_to_depth(rs, d):
    """All positive roots of depth <= d, sorted by (depth, key).

    Breadth-first over rs.root_table from the simple roots; a step increases
    depth exactly when 2B(alpha_s, beta) < 0 (a zero value fixes the root, a
    positive value points back to a shallower root)."""
    check_bound(d, "depth bound", 1)
    table = rs.root_table
    found = frontier = list(range(rs.rank))
    for _ in range(d - 1):
        frontier = list(dict.fromkeys(
            table.reflect(i, s) for i in frontier for s in range(rs.rank)
            if table.forms[i][s] < -table.eps2))
        found = found + frontier
    return sorted(map(table.root, found), key=Root.sort_key)
