import weakref
from fractions import Fraction

import pytest

from coxlow import (
    INF, Root, battery_root_system, build_automaton, cone_membership,
    elements_by_length, hulls_equal, inversion_set, projective_hull,
    small_roots)
from coxlow.elements import IDENTITY, Element

# rational-form battery groups (all bond labels in {2, 3, inf})
RATIONAL_NAMES = ["2-2-2", "3-2-2", "A3", "affine-3-3-3", "2-2-inf",
                  "2-inf-inf", "universal", "inf-3-3", "universal-override"]


def matrix_edge_condition(bonds):
    """The Coxeter-matrix condition under which all small roots lie on the
    edges of conv(Delta): every m_st is 2 or infinite (the right-angled
    case), or no m_st is 2 (PAPER.md, closing paragraph)."""
    return set(bonds) <= {2, INF} or 2 not in bonds


def identity_matrix(rs):
    one, zero = (Fraction(1), Fraction(0)) if rs.exact else (1.0, 0.0)
    return tuple(tuple(one if i == j else zero for j in range(rs.rank))
                 for i in range(rs.rank))


def mat_column(m, j):
    return tuple(row[j] for row in m)


def reflection_matrix(rs, s):
    """Matrix of the simple reflection s acting on root coordinates."""
    ident = identity_matrix(rs)
    row = tuple(ident[s][j] - 2 * rs.gram[s][j] for j in range(rs.rank))
    return tuple(row if i == s else ident[i] for i in range(rs.rank))


def mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n))


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


def peel_depth(rs, v):
    """Test oracle: the depth of a positive root by greedy peeling from
    scratch, reading no root table.  Any s with B(alpha_s, v) > 0 lowers
    the depth by exactly one, so the steps down to a simple root count it."""
    v = tuple(v)
    simple = {rs.vec_key(alpha) for alpha in rs.simple_roots}
    depth = 1
    while rs.vec_key(v) not in simple:
        for s in range(rs.rank):
            if rs.is_pos(rs.form_simple(s, v)):
                v = rs.reflect(s, v)
                depth += 1
                break
        else:
            raise ValueError("not a positive root: %r" % (v,))
    return depth


# per root system: (peel_depth by root key, prefix matrix by word prefix);
# weak keys, so that the memo keeps no root system alive
_PREFIX_MEMO = weakref.WeakKeyDictionary()


def prefix_inversion_roots(rs, word):
    """Test oracle: N(w) for a reduced word by the prefix formula
    N(s1...sk) = {alpha_s1, s1(alpha_s2), ..., s1...s_{k-1}(alpha_sk)},
    with plain matrix products and depths from peel_depth, so it reads no
    root table.  The roots are sorted by Root.sort_key, (depth, key).  Depths
    and prefix matrices are memoised per root system: each is computed as
    it would be from scratch, once."""
    if rs not in _PREFIX_MEMO:
        _PREFIX_MEMO[rs] = ({}, {(): identity_matrix(rs)})
    depths, prefixes = _PREFIX_MEMO[rs]
    roots = []
    for k, s in enumerate(word):
        prefix = prefixes[word[:k]]
        v = mat_column(prefix, s)      # prefix(alpha_s)
        assert not rs.is_negative_root_vec(v), ("not reduced", word)
        key = rs.vec_key(v)
        if key not in depths:
            depths[key] = peel_depth(rs, v)
        roots.append(Root(v, depths[key], key))
        if word[:k + 1] not in prefixes:
            prefixes[word[:k + 1]] = mat_mul(prefix, reflection_matrix(rs, s))
    return sorted(roots, key=Root.sort_key)


def cone_is_low(rs, sigma, w, memo):
    """Test oracle: w is low iff every root of N(w) lies in the cone of
    lambda(w) = Sigma cap N(w), tested with cone_membership (Gaussian
    elimination over subsets of lambda(w); exact in the rational backend,
    with a gray zone in float).  ``memo`` is a dict the caller keeps for one
    root system: it holds the verdicts by (lambda ids, root id), and ids
    mean something only within one root table."""
    table = rs.root_table
    order = sorted(inversion_set(rs, w), key=table.sort_keys.__getitem__)
    lam = [i for i in order if i in sigma.bit]
    lam_ids = frozenset(lam)
    lam_coords = tuple(table.coords[i] for i in lam)
    for i in order:
        if i in lam_ids:
            continue
        key = (lam_ids, i)
        if key not in memo:
            memo[key] = cone_membership(rs, lam_coords, table.coords[i])
        if not memo[key]:
            return False
    return True


def pairwise_polytope_witnesses(rs, sigma, aut, lows):
    """Test reference for verify_inversion_polytopes' witnesses: a float
    hull by projective_hull for every low element and every lambda, and
    per lambda the first low element, in the order of ``lows``, whose hull
    hulls_equal matches (|lows| x |Lambda| comparisons), or None."""
    table = rs.root_table
    low_hulls = [(low, projective_hull(
        rs, [table.root(i) for i in inversion_set(rs, low)])) for low in lows]
    witnesses = {}
    for mask in aut.states:
        target = projective_hull(
            rs, [table.root(i) for i in sigma.mask_to_ids(mask)])
        witnesses[mask] = next((low for low, hull in low_hulls
                                if hulls_equal(hull, target)), None)
    return witnesses


def gbip_oracle(rs, word):
    """Test oracle: (generator vertices, root vertices, edges) of
    build_gbip's graph for a reduced word, from the roots of
    prefix_inversion_roots and their coordinates, reading no root table.
    Supporting edges come first, as in build_gbip."""
    inv = prefix_inversion_roots(rs, word)
    keys = {root.key for root in inv}
    simple = {rs.vec_key(rs.simple_roots[s]): s for s in range(rs.rank)}
    descents = {simple[k] for k in keys if k in simple}
    deep = [root for root in inv if root.key not in simple]
    supporting = []
    blocking = []
    gens = set(descents)
    for root in deep:
        reached = set()
        stack, seen = [root.coords], {root.key}
        while stack:               # peel inside N(w), down to descents
            v = stack.pop()
            for s in range(rs.rank):
                if not rs.is_pos(rs.form_simple(s, v)):
                    continue
                if s in descents:
                    reached.add(s)
                sv = rs.reflect(s, v)
                k = rs.vec_key(sv)
                if k in keys and k not in seen:
                    if k in simple:
                        reached.add(simple[k])
                    else:
                        seen.add(k)
                        stack.append(sv)
        supporting += [(("g", s), ("r", root.key)) for s in sorted(reached)]
        for s in range(rs.rank):
            if s not in descents and rs.is_pos(rs.form_simple(s, root.coords)):
                gens.add(s)
                blocking.append((("r", root.key), ("g", s)))
    return sorted(gens), [root.key for root in deep], supporting + blocking


def inversion_levels(rs, max_len):
    """Test reference for check_gbip_walk, breadth first: yield (length,
    Level, invs), invs[k] being N(us) for entry k = us of the level, the
    tuple of its parent's ids (level.parents[k]) and then the positive root
    u(alpha_s), read off the table's columns for u's letters in turn."""
    table = rs.root_table
    cols, reflect = table.cols, table.reflect
    invs = [()]
    for length, level in elements_by_length(rs, max_len):
        if length:
            prev_invs, invs = invs, []
            for elem, p, _ in level:
                word = elem.word
                i = word[-1]
                for t in word[-2::-1]:
                    j = cols[t][i]
                    i = reflect(i, t) if j is None else j
                invs.append(prev_invs[p] + (i,))
        yield length, level, invs


def reference_gbip(rs, inv):
    """Test reference: G_bip for any set ``inv`` of root-table ids, N(w) or
    not, built eagerly off the root table (its ``ups`` included, which a
    test may mutate), as (vertices, arcs).  The generator vertices
    ("g", s) are the descents and the engaged non-descents in increasing
    order, the root vertices ("r", key) the non-simple ids in (depth, key)
    order.  The arcs are (tail, head) vertex indices: the supporting arcs
    root by root, then the blocking arcs root by root, generators
    increasing within a root.  A root's supports are the descents reached
    by depth-decreasing peeling inside ``inv``, one step beta -> s beta per
    s in ups; a step lowers the depth by one, so one pass in (depth, key)
    order finds the support of s beta before that of beta."""
    table = rs.root_table
    descents = {s for s in range(3) if s in inv}
    deep = sorted((i for i in inv if i >= 3), key=table.sort_keys.__getitem__)
    ups = [{s for s in range(3) if table.ups[i] >> s & 1} for i in deep]
    gens = sorted(descents.union(*ups))
    index = {s: k for k, s in enumerate(gens)}
    support = {s: {s} for s in descents}
    supporting, blocking = [], []
    for j, (i, up) in enumerate(zip(deep, ups), len(gens)):
        reached = up & descents
        for s in up:
            k = table.cols[s][i]
            reached |= support.get(table.reflect(i, s) if k is None else k,
                                   set())
        support[i] = reached
        supporting += [(index[s], j) for s in sorted(reached)]
        blocking += [(j, index[s]) for s in sorted(up - descents)]
    vertices = ([("g", s) for s in gens]
                + [("r", table.sort_keys[i][1]) for i in deep])
    return vertices, supporting + blocking


def topological_sort(vertices, arcs):
    """Test reference: (acyclic, witness cycle or None, source indices) of
    the digraph on ``vertices`` with (tail, head) index ``arcs``, by one
    in-degree pass and Kahn's algorithm.  The sources are in vertex order;
    the witness is a tuple of vertices in arc direction."""
    n = len(vertices)
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for u, v in arcs:
        succ[u].append(v)
        indeg[v] += 1
    srcs = tuple(v for v in range(n) if not indeg[v])
    queue = list(srcs)
    removed = 0
    while queue:
        v = queue.pop()
        removed += 1
        for t in succ[v]:
            indeg[t] -= 1
            if not indeg[t]:
                queue.append(t)
    if removed == n:
        return True, None, srcs
    # every remaining vertex keeps a remaining predecessor, so walking
    # predecessors from any of them closes a cycle
    pred = [None] * n
    for u, v in arcs:
        if indeg[u] and pred[v] is None:
            pred[v] = u
    v = min(v for v in range(n) if indeg[v])
    path, where = [], {}
    while v not in where:
        where[v] = len(path)
        path.append(v)
        v = pred[v]
    return (False, tuple(vertices[u] for u in reversed(path[where[v]:])),
            srcs)


def matrix_bfs_levels(rs, max_len=None):
    """Test oracle: the elements of each length by a breadth-first search
    over the right Cayley graph that knows nothing of small roots or
    automata, as (length, entries) with each entry (Element, matrix).

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
    frontier = [(IDENTITY, ident)]
    refl = [reflection_matrix(rs, s) for s in range(rs.rank)]
    length = 0
    yield 0, frontier
    while frontier and (max_len is None or length < max_len):
        new_frontier = []
        for elem, w in frontier:
            for s in range(rs.rank):
                # length increases iff w(alpha_s) is positive
                if rs.is_negative_root_vec(mat_column(w, s)):
                    continue
                nw = mat_mul(w, refl[s])
                key = mat_key(nw)
                if key in seen:
                    continue
                seen.add(key)
                new_frontier.append((Element(elem.word + (s,)), nw))
        if not new_frontier:
            return
        frontier = new_frontier
        length += 1
        yield length, frontier
