"""Verification machinery for the low-elements / small-inversion-sets
bijection in rank 3, together with the supporting graph checks.

G_bip, for a rank-3 element w, is a bipartite digraph between generator
vertices and root vertices, the non-simple inversions of w:

* a descent s points to every non-simple inversion that can be peeled down
  to alpha_s inside N(w) by depth-decreasing reflections (s supports it);
* a non-simple inversion points to every engaged non-descent s (one with
  B(alpha_s, beta) > 0), blocking it.

The claim checked on every battery group is that G_bip is acyclic and no
root vertex is a source, so that its sources are exactly the left
descents of w.  Every support is built from descent bits, so arcs run
descent -> root -> non-descent, and acyclicity and "the generator sources
are the descents" hold by construction; the claim fails only at a root
that no descent supports, which coclosedness of N(w) rules out and a set
that is not coclosed can show.  A generator is a vertex only if it is a
descent or blocked: in a graph with every generator as a vertex, a
non-descent that no root blocks would be one more source, not a descent.

``check_gbip`` decides the claim for one N(w) by that root-source rule,
from per-root support bitmasks, and ``verify`` decides it along the walk
with ``check_gbip_walk``, by induction on N(us) = N(u) u {u(alpha_s)},
with ``check_gbip`` as its fallback and the tests' reference.  ``build_gbip``
builds the graph as a ``BipGraph`` that arrives with its verdict, read
off the construction; Kahn's sort, ``_topological_sort``, runs only for
hand-built graphs and is the tests' reference for both.  The builder
``construct_low_from_lambda`` peels left descents, the generator sources.
"""

from dataclasses import dataclass, field
from functools import reduce
from operator import or_

from .automaton import _shortest_state_word, build_automaton
from .core import INF, triangle_matrix, build_root_system
from .elements import (
    IDENTITY,
    _inversion_levels,
    _left_multiply,
    _low_search,
    _shortlex,
    _word_inversions,
    bijection_report,
    inversion_set,
    is_low,
    left_descents,
    small_inversion_mask,
)
from .errors import ConstructionFailed, CyclicGraph, RankNotThree
from .projective import chart_points, extreme_ids

# Fixed, versioned battery of rank-3 groups used throughout the test suite.
# Each entry: (name, (m12, m23, m13), gram overrides).
BATTERY = (
    ("2-2-2", (2, 2, 2), None),
    ("3-2-2", (3, 2, 2), None),
    ("A3", (3, 3, 2), None),
    ("B3", (4, 3, 2), None),
    ("H3", (5, 3, 2), None),
    ("affine-3-3-3", (3, 3, 3), None),
    ("affine-4-4-2", (4, 4, 2), None),
    ("affine-6-3-2", (6, 3, 2), None),
    ("hyperbolic-3-3-4", (3, 3, 4), None),
    ("hyperbolic-2-3-7", (2, 3, 7), None),
    ("hyperbolic-4-4-4", (4, 4, 4), None),
    ("2-2-inf", (2, 2, INF), None),
    ("2-inf-inf", (2, INF, INF), None),
    ("universal", (INF, INF, INF), None),
    ("inf-3-3", (INF, 3, 3), None),
    ("universal-override", (INF, INF, INF), {(0, 1): -1.5}),
)

FINITE_BATTERY_ORDERS = {"2-2-2": 8, "3-2-2": 12, "A3": 24, "B3": 48,
                         "H3": 120}


def battery_root_system(name, backend="float"):
    for bname, bonds, overrides in BATTERY:
        if bname == name:
            return build_root_system(triangle_matrix(*bonds),
                                     gram_overrides=overrides,
                                     backend=backend)
    raise KeyError(name)


class BipGraph:
    """Bipartite digraph on generator vertices and root vertices, held as
    integer indices.

    Vertex k is the generator ``gen_labels[k]`` for k < g =
    len(gen_labels), and the root ``root_labels[k - g]`` after that; each
    of the ``arcs``, (tail, head) index pairs, must be in range and join
    the two classes.  The read-only views ``gen_vertices``,
    ``root_vertices``, ``vertices`` and ``edges`` give the same graph with
    tagged vertices ('g', label) and ('r', label), built only when read.
    Synthetic graphs (for testing the checks) can be built directly, with
    any labels.  A graph is not changed after construction: one from
    ``build_gbip`` arrives with its sort result, and a hand-built one is
    topologically sorted once, on the first check."""

    def __init__(self, gen_labels, root_labels, arcs):
        self.gen_labels = tuple(gen_labels)
        self.root_labels = tuple(root_labels)
        self.arcs = tuple(arcs)
        g = len(self.gen_labels)
        n = g + len(self.root_labels)
        for u, v in self.arcs:
            if not (0 <= u < g <= v < n or 0 <= v < g <= u < n):
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError("arc %r has an endpoint out of range(%d)"
                                     % ((u, v), n))
                raise ValueError("arc %r does not join the two classes"
                                 % ((u, v),))
        self._topo = None     # _topological_sort(self), once known

    @property
    def gen_vertices(self):
        return tuple(("g", label) for label in self.gen_labels)

    @property
    def root_vertices(self):
        return tuple(("r", label) for label in self.root_labels)

    @property
    def vertices(self):
        return self.gen_vertices + self.root_vertices

    @property
    def edges(self):
        vertices = self.vertices
        return tuple((vertices[u], vertices[v]) for u, v in self.arcs)


def _sorted(graph):
    if graph._topo is None:
        graph._topo = _topological_sort(graph)
    return graph._topo


# _BITS[mask]: the generators in a bitmask over {0, 1, 2}, in increasing order
_BITS = tuple(tuple(s for s in range(3) if mask >> s & 1) for mask in range(8))
# _GEN_INDEX[gens][mask]: the vertex indices of the generators in mask (a
# subset of gens) when the generator vertices are _BITS[gens]
_GEN_INDEX = tuple(tuple(tuple(len(_BITS[gens & ((1 << s) - 1)])
                               for s in _BITS[mask]) for mask in range(8))
                   for gens in range(8))


def _gbip_masks(rs, inv):
    """(deep, descents, supports) for N(w) = ``inv``: the non-simple
    inversions in (depth, key) order, the descents as a bitmask over the
    generators, and per deep root the bitmask of the descents that support
    it.

    The supports come from one pass in (depth, key) order: a down step
    beta -> s beta lowers the depth by one, so the support of s beta is
    known before that of beta."""
    if rs.rank != 3:
        raise RankNotThree("the graph construction requires rank 3")
    table = rs.root_table
    ups, cols = table.ups, table.cols
    # ids 0, 1, 2 are the simple roots; the others in (depth, key) order
    deep = sorted([i for i in inv if i >= 3], key=table.sort_keys.__getitem__)
    # support[i]: the descents reachable from root i by depth-decreasing
    # peeling inside N(w).  Each step beta -> s beta with
    # B(alpha_s, beta) > 0 (a down edge of the table) writes beta as a
    # positive combination of alpha_s and s beta, and coclosedness of N(w)
    # puts at least one of the two feet inside N(w); a foot that is a
    # simple root of N(w), a descent, supports itself.
    support = {s: 1 << s for s in range(3) if s in inv}
    descents = sum(support.values())      # the bits are distinct
    supports = []
    for i in deep:
        up = ups[i]
        reached = up & descents
        for s in _BITS[up]:
            k = cols[s][i]
            if k is None:
                k = table.reflect(i, s)
            reached |= support.get(k, 0)
        support[i] = reached
        supports.append(reached)
    return deep, descents, supports


def build_gbip(rs, w, inv=None):
    """The bipartite digraph described in the module docstring, as a
    BipGraph: the generator vertices are the descents and the engaged
    non-descents in increasing order, the root vertices the non-simple
    inversions in (depth, key) order, labelled by key, and the arcs are
    the supporting ones (root by root, descents in increasing order)
    followed by the blocking ones (likewise).

    ``inv`` is N(w) when the caller already has it."""
    if inv is None:
        inv = inversion_set(rs, w)
    deep, descents, supports = _gbip_masks(rs, inv)
    ups = rs.root_table.ups
    engaged = [ups[i] for i in deep]      # the s with B(alpha_s, beta) > 0
    gens = reduce(or_, engaged, descents)
    # the generators in a mask are the vertices index[mask]; root deep[j]
    # is vertex g + j
    gen_labels = _BITS[gens]
    g = len(gen_labels)
    index = _GEN_INDEX[gens]
    arcs = [(k, g + j) for j, reached in enumerate(supports)
            for k in index[reached]]
    arcs += [(g + j, k) for j, up in enumerate(engaged)
             for k in index[up & ~descents]]
    roots = rs.root_table.roots
    graph = BipGraph(gen_labels, [roots[i].key for i in deep], arcs)
    # supports hold descent bits only and blocks are up & ~descents, so no
    # generator has arcs both in and out (no cycle), every blocked
    # non-descent has an in-arc, and a root is a source iff unsupported
    srcs = index[descents]
    if 0 in supports:
        srcs += tuple(g + j for j, reached in enumerate(supports)
                      if not reached)
    graph._topo = (True, None, srcs)
    return graph


def check_gbip(rs, inv):
    """The claim of the module docstring for N(w) = ``inv``, decided from
    the supports of ``_gbip_masks`` without building the graph: (True,
    None), or (False, (("r", key),)) for the first deep root, in (depth,
    key) order, that no descent supports."""
    deep, _, supports = _gbip_masks(rs, inv)
    if 0 in supports:
        key = rs.root_table.roots[deep[supports.index(0)]].key
        return False, (("r", key),)
    return True, None


def check_gbip_walk(rs, max_len):
    """(checked, violations) of ``check_gbip`` on the walk to max_len."""
    flags = b"".join(_gbip_walk_failures(rs, max_len))
    return len(flags), flags.count(1)


def _gbip_walk_failures(rs, max_len):
    """Per level of the walk, a bytearray flagging what check_gbip fails."""
    if rs.rank != 3:
        raise RankNotThree("the graph construction requires rank 3")
    ups, reflect = rs.root_table.ups, rs.root_table.reflect
    # N(us) = N(u) u {g}.  If N(u) has no root source, N(us) has none but
    # perhaps g: supports only grow as roots are added, and the descents of
    # us include u's.  A deep g is supported iff some s in ups[g] is a
    # descent of us or has s g != g in N(us), so in N(u), where it is a
    # descent or a supported deep root.  So r lookups give check_gbip's
    # verdict exactly; an entry whose parent failed gets the full check.
    failed = bytearray(1)       # N(e) is empty
    for length, level, invs in _inversion_levels(rs, max_len):
        if length:
            prev, failed = failed, bytearray()
            for inv, p in zip(invs, level.parents):
                g = inv[-1]
                ok = (check_gbip(rs, inv)[0] if prev[p] else g < 3 or any(
                    s in inv or reflect(g, s) in inv for s in _BITS[ups[g]]))
                failed.append(not ok)
        yield failed


def _topological_sort(graph):
    """(acyclic, witness cycle or None, source indices) of a BipGraph, by
    one in-degree pass and Kahn's algorithm on lists indexed by vertex.
    The sources are in vertex order; the witness is a tuple of tagged
    vertices in arc direction."""
    n = len(graph.gen_labels) + len(graph.root_labels)
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for u, v in graph.arcs:
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
    for u, v in graph.arcs:
        if indeg[u] and pred[v] is None:
            pred[v] = u
    v = min(v for v in range(n) if indeg[v])
    path, where = [], {}
    while v not in where:
        where[v] = len(path)
        path.append(v)
        v = pred[v]
    vertices = graph.vertices
    return (False, tuple(vertices[u] for u in reversed(path[where[v]:])),
            srcs)


def check_acyclic(graph):
    """(acyclic, witness cycle or None), the cycle listed in edge
    direction.  A graph from ``build_gbip`` arrives with its verdict;
    Kahn's sort runs only for a hand-built graph."""
    ok, cycle, _ = _sorted(graph)
    return ok, cycle


def _source_indices(graph):
    ok, cycle, srcs = _sorted(graph)
    if not ok:
        raise CyclicGraph("graph has a cycle: %r" % (cycle,))
    return srcs


def sources(graph):
    """Vertices with no incoming edge (requires an acyclic graph)."""
    srcs = _source_indices(graph)
    vertices = graph.vertices
    return tuple(vertices[v] for v in srcs)


def source_generators(graph):
    labels = graph.gen_labels
    return tuple(labels[v] for v in _source_indices(graph)
                 if v < len(labels))


def verify_bijection(rs, sigma, aut, max_len):
    """Map each low element of length <= max_len to its small inversion set
    (``mapping``, in (length, word) order) and compare the image with the
    states of ``aut``, the automaton built from sigma."""
    mapping, _ = _low_search(rs, sigma, max_len)
    return bijection_report(aut, mapping, max_len)


def construct_low_from_lambda(rs, sigma, mask, _memo=None):
    """Build a low element whose small inversion set is ``mask``.

    Take the shortest element realizing the mask, peel off one of its left
    descents (in rank 3, the generator sources of its G_bip) and recurse;
    the candidate is verified before being returned.
    There is no other path: a mask that descent peeling cannot build raises
    ConstructionFailed, naming the mask and its shortest element, since
    that signals a bug in the construction, not a counterexample.
    N(w_min) is the one inversion set built from a word; the others are
    read off it, N(s w_min) = s (N(w_min) - {alpha_s}), or off the memo,
    N(s x) = {alpha_s} u s N(x) for the element x built for the peeled
    mask.  ``_memo`` also holds the automaton and, under
    ("inversions", mask), the N(x) of each element built, so one memo
    serves one (rs, sigma) only."""
    if _memo is None:
        _memo = {}
    if mask in _memo:
        return _memo[mask]
    if "automaton" not in _memo:
        _memo["automaton"] = build_automaton(rs, sigma)
    if mask == 0:
        _memo[0] = IDENTITY
        _memo["inversions", 0] = frozenset()
        return IDENTITY
    letters = _shortest_state_word(_memo["automaton"], mask)
    if letters is None:
        raise ConstructionFailed("mask %d is not a state of the automaton"
                                 % mask)
    inv = _word_inversions(rs, tuple(reversed(letters)))
    w_min = _shortlex(rs, inv)
    for s in sorted(left_descents(rs, w_min, inv=inv)):
        # N(s w_min) = s (N(w_min) - {alpha_s}), s being a left descent
        sub_mask = small_inversion_mask(
            rs, sigma, None, inv=_left_multiply(rs, s, inv))
        try:
            x_sub = construct_low_from_lambda(rs, sigma, sub_mask, _memo)
        except ConstructionFailed:
            continue
        inv_c = _left_multiply(rs, s, _memo["inversions", sub_mask])
        candidate = _shortlex(rs, inv_c)
        if (small_inversion_mask(rs, sigma, candidate, inv=inv_c) == mask
                and is_low(rs, sigma, candidate)):
            _memo[mask] = candidate
            _memo["inversions", mask] = inv_c
            return candidate
    raise ConstructionFailed(
        "no low element realizing mask %d found (descent peeling from its "
        "shortest element %r failed)" % (mask, w_min))


def check_simplex_edge_condition(rs, sigma):
    """Do all small roots lie on edges of the simplex (<= 2 nonzero coords)?"""
    for root in sigma:
        nonzero = sum(1 for c in root.coords if not rs.is_zero(c))
        if nonzero > 2:
            return False
    return True


@dataclass
class PolytopeReport:
    hypothesis_met: bool
    witnesses: dict = field(default_factory=dict)   # mask -> Element or None

    @property
    def matched_all(self):
        return all(w is not None for w in self.witnesses.values())


def verify_inversion_polytopes(rs, sigma, aut, lows):
    """For each automaton state lam, look for a low element x among
    ``lows`` whose inversion polytope conv(N(x)) equals conv(lam) on the
    projective chart.  Two hulls are equal exactly when their sets of
    extreme root ids are (see ``coxlow.projective``), so the witness is
    the first low element, in the order of ``lows``, whose N(x) has lam's
    extreme-root id set, or None; each root's chart point is computed once.

    The underlying claim is only asserted when all small roots lie on
    simplex edges; outside that hypothesis the check still runs and the
    report flags it."""
    if rs.rank != 3:
        raise RankNotThree("inversion polytopes are checked on the rank-3 chart")
    report = PolytopeReport(
        hypothesis_met=check_simplex_edge_condition(rs, sigma))
    invs = [(low, inversion_set(rs, low)) for low in lows]
    points = chart_points(rs, set(sigma.ids).union(*[inv for _, inv in invs]))
    first = {}
    for low, inv in invs:
        first.setdefault(extreme_ids(inv, points), low)
    for mask in aut.states:
        report.witnesses[mask] = first.get(
            extreme_ids(sigma.mask_to_ids(mask), points))
    return report
