"""Coxeter matrices, based root systems and depth-bounded root enumeration.

Conventions used throughout the package:

* simple roots are the standard basis vectors, so every root is stored as a
  coordinate vector in the simple-root basis;
* the bilinear form is normalized with B(alpha_s, alpha_s) = 1 and
  B(alpha_s, alpha_t) = -cos(pi / m(s,t)), with -1 (or a Gram override
  <= -1) on infinite bonds;
* the depth of a simple root is 1, and depth(beta) is 1 plus the minimal
  length of a word sending beta to a negative root.  Some texts shift this
  convention by one; everything in this package uses this one.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    DimensionMismatch,
    InvalidBondLabel,
    IrrationalEntryForExactBackend,
    NonSymmetricMatrix,
    OverrideAboveMinusOne,
    OverrideOnFiniteBond,
)

INF = math.inf

DEFAULT_EPS = 1e-9

# bond labels whose cosine is rational, hence usable with the exact backend
_RATIONAL_BONDS = {1: Fraction(-1), 2: Fraction(0), 3: Fraction(-1, 2)}

# scaling used to build hashable keys for float coordinates
_KEY_SCALE = 10 ** 6


class CoxeterMatrix:
    """Symmetric matrix of bond labels m(s,t), with m(s,s) = 1."""

    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise NonSymmetricMatrix("matrix is not square")
        for i in range(n):
            if entries[i][i] != 1:
                raise InvalidBondLabel("diagonal entries must be 1")
            for j in range(n):
                if entries[i][j] != entries[j][i]:
                    raise NonSymmetricMatrix(
                        "m(%d,%d) != m(%d,%d)" % (i, j, j, i))
                if i != j:
                    m = entries[i][j]
                    if m != INF and (not isinstance(m, int) or m < 2):
                        raise InvalidBondLabel(
                            "m(%d,%d) must be an integer >= 2 or inf" % (i, j))
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


@dataclass(frozen=True)
class Root:
    """A root stored by its coordinates in the simple-root basis."""

    coords: tuple
    depth: int
    sign: int
    key: tuple = field(compare=True, default=None)

    def sort_key(self):
        return (self.depth, self.key)

    def __hash__(self):
        return hash(self.key)

    def __eq__(self, other):
        return isinstance(other, Root) and self.key == other.key

    def __repr__(self):
        return "Root(%s, depth=%d)" % (list(self.coords), self.depth)


class BasedRootSystem:
    """Simple roots plus the symmetric bilinear form of a Coxeter system.

    Immutable after construction.  The one memo left is ``_caches["cone"]``,
    the cone tests of ``is_low`` keyed by (lambda keys, root key): it lets
    a second low-element search on the same root system (enumerate_low_stable
    then verify_bijection, say) skip every cone solve of the first.  Derived
    data such as automata is passed explicitly."""

    def __init__(self, matrix, gram, backend, eps):
        self.matrix = matrix
        self.rank = matrix.rank
        self.gram = gram
        self.backend = backend
        self.exact = backend == "rational"
        self.eps = 0 if self.exact else eps
        one = Fraction(1) if self.exact else 1.0
        zero = Fraction(0) if self.exact else 0.0
        self.simple_roots = tuple(
            tuple(one if i == s else zero for i in range(self.rank))
            for s in range(self.rank))
        self._caches = {}

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

    def vec_key(self, v):
        """Canonical hashable key identifying a coordinate vector."""
        if self.exact:
            return tuple(v)
        return tuple(int(round(float(c) * _KEY_SCALE)) for c in v)

    def vec_sign(self, v):
        """+1 for a nonnegative vector, -1 for nonpositive, 0 for mixed."""
        has_pos = any(self.is_pos(c) for c in v)
        has_neg = any(self.is_neg(c) for c in v)
        if has_pos and has_neg:
            return 0
        return -1 if has_neg else 1

    def is_negative_root_vec(self, v):
        return self.vec_sign(v) == -1 and any(self.is_neg(c) for c in v)

    def make_root(self, coords, depth):
        return Root(tuple(coords), depth, self.vec_sign(coords),
                    key=self.vec_key(coords))

    def simple_root(self, s):
        return self.make_root(self.simple_roots[s], 1)

    def is_simple_vec(self, v):
        nonzero = [i for i in range(self.rank) if not self.is_zero(v[i])]
        return len(nonzero) == 1 and self.is_zero(v[nonzero[0]] - 1)

    def root_depth(self, v):
        """Depth of a positive root.

        Greedy peeling: any s with B(alpha_s, v) > 0 lowers the depth by
        exactly one, so counting steps down to a simple root is exact."""
        v = tuple(v)
        steps = 0
        while not self.is_simple_vec(v):
            for s in range(self.rank):
                if self.is_pos(self.form_simple(s, v)):
                    v = self.reflect(s, v)
                    steps += 1
                    break
            else:
                raise ValueError("not a positive root: %r" % (v,))
        return steps + 1

    def __repr__(self):
        return "BasedRootSystem(rank=%d, backend=%r)" % (self.rank, self.backend)


def _bond_value(m, backend):
    if backend == "rational":
        if m == INF:
            return Fraction(-1)
        if m not in _RATIONAL_BONDS:
            raise IrrationalEntryForExactBackend(
                "bond label %r has an irrational cosine; the exact backend "
                "only supports labels in {1, 2, 3, inf}" % (m,))
        return _RATIONAL_BONDS[m]
    if m == INF:
        return -1.0
    return -math.cos(math.pi / m)


def build_root_system(matrix, gram_overrides=None, backend="float",
                      eps=DEFAULT_EPS):
    """Build the based root system for a Coxeter matrix.

    ``gram_overrides`` maps unordered generator pairs (i, j) to a value
    <= -1, and is only legal on infinite bonds.  ``backend`` selects
    double-precision ("float") or exact rational ("rational") arithmetic.
    """
    if not isinstance(matrix, CoxeterMatrix):
        matrix = CoxeterMatrix(matrix)
    n = matrix.rank
    overrides = {}
    for pair, value in (gram_overrides or {}).items():
        i, j = pair
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise OverrideOnFiniteBond("override pair %r is not a bond" % (pair,))
        if matrix[i, j] != INF:
            raise OverrideOnFiniteBond(
                "override on finite bond (%d,%d) with m=%r" % (i, j, matrix[i, j]))
        if backend == "rational":
            try:
                value = Fraction(value)
            except (TypeError, ValueError):
                raise IrrationalEntryForExactBackend(
                    "override value %r is not rational" % (value,))
        if value > -1:
            raise OverrideAboveMinusOne(
                "override value %r on bond (%d,%d) must be <= -1" % (value, i, j))
        overrides[frozenset((i, j))] = value

    one = Fraction(1) if backend == "rational" else 1.0
    gram = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(one)
            else:
                key = frozenset((i, j))
                if key in overrides:
                    row.append(overrides[key])
                else:
                    row.append(_bond_value(matrix[i, j], backend))
        gram.append(tuple(row))
    return BasedRootSystem(matrix, tuple(gram), backend, eps)


def roots_up_to_depth(rs, d):
    """All positive roots of depth <= d, sorted by (depth, coordinates).

    BFS over simple reflections starting from the simple roots; a step
    increases depth exactly when B(alpha_s, beta) < 0 (a zero value fixes
    the root, a positive value points back to an already-known root).
    """
    if d < 1:
        raise ValueError("depth bound must be >= 1")
    seen = {}
    frontier = []
    for s in range(rs.rank):
        root = rs.simple_root(s)
        seen[root.key] = root
        frontier.append(root)
    depth = 1
    while frontier and depth < d:
        new_frontier = []
        for beta in frontier:
            for s in range(rs.rank):
                if rs.is_neg(rs.form_simple(s, beta.coords)):
                    v = rs.reflect(s, beta.coords)
                    key = rs.vec_key(v)
                    if key not in seen:
                        root = rs.make_root(v, depth + 1)
                        seen[key] = root
                        new_frontier.append(root)
        frontier = new_frontier
        depth += 1
    return sorted(seen.values(), key=Root.sort_key)
