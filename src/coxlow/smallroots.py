"""Small roots, dominance, and bipodality.

A positive root is *small* when it dominates no positive root other than
itself (beta dominates alpha when every group element sending beta
negative also sends alpha negative).  The set of small roots is finite and
is computed here by the classical short-edge closure: starting from the
simple roots, apply s whenever -1 < B(alpha_s, beta) < 0.
"""

from collections import deque, namedtuple
from functools import cached_property

from .core import roots_up_to_depth
from .errors import ClosureCapExceeded

DominanceVerdict = namedtuple("DominanceVerdict", ["value", "decisive"])

# the closure's safety bound on the number of small roots
_CAP = 10000
# the word length to which dominates searches the orbit of a pair
_LCAP = 10


class SmallRootSet:
    """The small roots with a frozen 0-based indexing.

    ``ids`` are the given ids of rs.root_table in (depth, key) order, and
    ``bit`` maps an id to its index in that order; ``roots`` are the
    table's roots as Roots, built when first read.  Downstream code stores
    subsets of the small roots as integer bitmasks over this indexing, so
    the ordering must never change once built."""

    def __init__(self, rs, ids):
        self.table = table = rs.root_table
        self.ids = tuple(sorted(set(ids), key=table.sort_keys.__getitem__))
        self.bit = {i: b for b, i in enumerate(self.ids)}

    @cached_property
    def roots(self):
        return tuple(map(self.table.root, self.ids))

    def __len__(self):
        return len(self.ids)

    def __iter__(self):
        return iter(self.roots)

    def mask_to_ids(self, mask):
        return [self.ids[b] for b in range(len(self.ids)) if mask >> b & 1]

    def max_depth(self):
        return max(root.depth for root in self.roots)


def small_roots(rs):
    """Compute the set of small roots by short-edge closure on rs.root_table.

    The closure is guaranteed to terminate; ``_CAP`` bounds the number of
    roots so that a tolerance bug (roots failing to be identified) raises
    ClosureCapExceeded instead of looping."""
    table = rs.root_table
    eps2 = table.eps2
    found = set(range(rs.rank))      # the simple root alpha_s has id s
    queue = deque(range(rs.rank))
    while queue:
        i = queue.popleft()
        for s in range(rs.rank):
            b = table.forms[i][s]
            # short edge: -1 < B(alpha_s, beta) < 0, so -2 < 2B < 0
            if b < -eps2 and b + 2 > eps2:
                j = table.reflect(i, s)
                if j not in found:
                    if len(found) >= _CAP:
                        raise ClosureCapExceeded(
                            "small-root closure exceeded cap %d at root %d, %r"
                            % (_CAP, j, table.root(j)))
                    found.add(j)
                    queue.append(j)
    return SmallRootSet(rs, found)


def dominates(rs, beta, alpha):
    """Decide whether beta dominates alpha (w beta < 0 forces w alpha < 0).

    Exact fast path: distinct positive roots with B(beta, alpha) < 1 lie in
    a finite rank-2 subsystem and never dominate each other.  Otherwise the
    orbit of the pair is searched breadth-first up to word length ``_LCAP``;
    a counterexample is decisive, absence of one is a bounded verdict."""
    if beta.key == alpha.key:
        return DominanceVerdict(True, True)
    if rs.bilinear(beta.coords, alpha.coords) < 1 - rs.eps:
        return DominanceVerdict(False, True)
    start = (beta.coords, alpha.coords)
    seen = {(rs.vec_key(beta.coords), rs.vec_key(alpha.coords))}
    frontier = [start]
    for _ in range(_LCAP):
        new_frontier = []
        for vb, va in frontier:
            for s in range(rs.rank):
                wb = rs.reflect(s, vb)
                wa = rs.reflect(s, va)
                key = (rs.vec_key(wb), rs.vec_key(wa))
                if key in seen:
                    continue
                seen.add(key)
                if rs.is_negative_root_vec(wb) and not rs.is_negative_root_vec(wa):
                    return DominanceVerdict(False, True)
                new_frontier.append((wb, wa))
        frontier = new_frontier
    return DominanceVerdict(True, False)


def small_roots_by_dominance(rs, depth_bound):
    """Dominance-oracle definition of the small roots.

    Enumerates positive roots up to ``depth_bound`` and keeps those that
    dominate no other enumerated root, each pair searched to word length
    ``_LCAP``.  Independent of the short-edge closure; used to cross-check
    it."""
    roots = roots_up_to_depth(rs, depth_bound)
    return SmallRootSet(rs, [
        rs.root_table.ids[beta.key] for beta in roots
        if not any(dominates(rs, beta, alpha).value
                   for alpha in roots if alpha.key != beta.key)])


def is_bipodal(rs, roots):
    """Bipodality of a set of positive roots, given as Roots of
    rs.root_table (they must be in the table already).

    Every non-simple member beta must stand on two feet inside the set:
    for each s with B(alpha_s, beta) > 0 (so that s lowers beta's depth,
    and beta is a positive combination of alpha_s and s beta), both
    alpha_s and s beta must belong to the set.  Membership is by table id,
    and alpha_s has id s."""
    table = rs.root_table
    ids = {table.ids[root.key] for root in roots}
    return all(s in ids and table.reflect(i, s) in ids
               for i in ids if i >= rs.rank
               for s in range(rs.rank) if table.ups[i] >> s & 1)
