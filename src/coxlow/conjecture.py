"""Verification machinery for the low-elements / small-inversion-sets
bijection in rank 3, together with the supporting graph checks.

G_bip, for a rank-3 element w, is a bipartite digraph between generator
vertices and root vertices, the non-simple inversions of w:

* a descent s points to every non-simple inversion that can be peeled down
  to alpha_s inside N(w) by depth-decreasing reflections (s supports it);
* a non-simple inversion points to every engaged non-descent s (one with
  B(alpha_s, beta) > 0), blocking it.

A generator is a vertex only if it is a descent or blocked.  The claim
checked on every battery group is that G_bip is acyclic and no root vertex
is a source, so that its sources are exactly the left descents of w.  Arcs
run descent -> root -> non-descent, so the claim fails only at a root that
no descent supports.  It is decided by one rule: a deep root beta stands in
N(w) when it has a foot there, alpha_s or s beta for an engaged s.  A foot
is one step shallower, so the (depth, key)-least unsupported root is the
least root that does not stand; coclosedness of N(w) gives every root a
foot (Dyer-Hohlweg 2016), and a set that is not coclosed can lack one.

``check_gbip`` applies the rule to one N(w), and ``verify``'s
``check_gbip_walk`` along the walk, by induction on N(us) = N(u) u
{u(alpha_s)}.  ``build_gbip`` builds a ``BipGraph``'s generator side,
acyclic by construction; its root side, two bitmasks per root (supports
and blocked generators), comes from a support pass on first read.  Sources
are read off the masks; Kahn's sort, ``_topological_sort``, decides only
whether a hand-built graph is acyclic, and is the tests' reference.  The
builder ``construct_low_from_lambda`` peels, off the shortest element
realizing lambda, the letter of the automaton's first transition into
lambda: a left descent, so a generator source.
"""

from dataclasses import dataclass, field

from .automaton import build_automaton
from .core import INF, triangle_matrix, build_root_system
from .elements import (
    IDENTITY,
    _inversion_levels,
    _left_multiply,
    _low_search,
    _shortlex,
    bijection_report,
    inversion_set,
    is_low,
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
    integer indices and bitmasks over the generator vertices.

    Vertex k is the generator ``gen_labels[k]`` for k < g =
    len(gen_labels), and the root ``root_labels[k - g]`` after that.
    ``blocked`` has bit k when some root has an arc into generator k.  For
    root vertex g + j, bit k of ``ins[j]`` is an arc from generator k into
    the root (k supports it), and bit k of ``outs[j]`` an arc from the root
    to generator k (the root blocks k).  A hand-built graph is given by its
    ``arcs``, (tail, head) index pairs, which must be in range and join the
    two classes.  ``build_gbip`` passes None for both, sets ``blocked``,
    and leaves ``root_labels``, ``ins`` and ``outs`` to one support pass
    over N(w) on first read.

    The read-only view ``arcs`` is derived from the masks on first read and
    kept: the supporting arcs root by root, then the blocking arcs root by
    root, generator indices increasing within a root.  ``gen_vertices``,
    ``root_vertices``, ``vertices`` and ``edges`` tag the vertices ('g',
    label) and ('r', label) when read; synthetic graphs (for testing the
    checks) can have any labels.  A hand-built graph is topologically
    sorted once, on the first check; one from ``build_gbip`` is acyclic by
    construction."""

    def __init__(self, gen_labels, root_labels, arcs):
        self.gen_labels = tuple(gen_labels)
        self._arcs = None       # derived from the masks when first read
        self._verdict = None    # check_acyclic's answer, once known
        if root_labels is None:
            return
        self.root_labels = tuple(root_labels)
        g = len(self.gen_labels)
        n = g + len(self.root_labels)
        ins, outs, blocked = [0] * (n - g), [0] * (n - g), 0
        for u, v in arcs:
            if 0 <= u < g <= v < n:
                ins[v - g] |= 1 << u
            elif 0 <= v < g <= u < n:
                outs[u - g] |= 1 << v
                blocked |= 1 << v
            elif not (0 <= u < n and 0 <= v < n):
                raise ValueError("arc %r has an endpoint out of range(%d)"
                                 % ((u, v), n))
            else:
                raise ValueError("arc %r does not join the two classes"
                                 % ((u, v),))
        self.ins, self.outs, self.blocked = tuple(ins), tuple(outs), blocked

    def __getattr__(self, name):
        # only for a graph from build_gbip, whose root side is not set yet
        if name not in ("root_labels", "ins", "outs"):
            raise AttributeError(name)
        self.root_labels, self.ins, self.outs = _support_pass(*self._support)
        return getattr(self, name)

    @property
    def arcs(self):
        if self._arcs is None:
            g = len(self.gen_labels)
            self._arcs = tuple(
                [(k, g + j) for j, mask in enumerate(self.ins)
                 for k in range(g) if mask >> k & 1]
                + [(g + j, k) for j, mask in enumerate(self.outs)
                   for k in range(g) if mask >> k & 1])
        return self._arcs

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


# _BITS[mask]: the generators in a bitmask over {0, 1, 2}, in increasing order
_BITS = tuple(tuple(s for s in range(3) if mask >> s & 1) for mask in range(8))
# _VERTEX_MASK[gens][mask]: mask (a subset of gens) as a bitmask over the
# vertex indices of its generators when the generator vertices are
# _BITS[gens]
_VERTEX_MASK = tuple(tuple(sum(1 << len(_BITS[gens & ((1 << s) - 1)])
                               for s in _BITS[mask]) for mask in range(8))
                     for gens in range(8))


def _stands(table, g, inv):
    """Does the deep root g have a foot in ``inv``: some s in ups[g] that is
    a descent (alpha_s in inv) or has s g in inv?"""
    for s in _BITS[table.ups[g]]:
        k = table.cols[s][g]
        if s in inv or (table.reflect(g, s) if k is None else k) in inv:
            return True
    return False


def build_gbip(rs, w, inv=None):
    """The bipartite digraph described in the module docstring, as a
    BipGraph: the generator vertices are the descents and the engaged
    non-descents in increasing order, the root vertices the non-simple
    inversions in (depth, key) order, labelled by key.  Only the generator
    side is built here, acyclic as descents have only out-arcs and
    non-descents only in-arcs; the root side waits for its first read.

    ``inv`` is N(w) when the caller already has it."""
    if rs.rank != 3:
        raise RankNotThree("the graph construction requires rank 3, not "
                           "rank %d" % rs.rank)
    if inv is None:
        inv = inversion_set(rs, w)
    table = rs.root_table
    descents = gens = (0 in inv) | (1 in inv) << 1 | (2 in inv) << 2
    for i in inv:               # a simple root adds its descent, a deep
        gens |= table.ups[i]    # root the non-descents it blocks
    graph = BipGraph(_BITS[gens], None, None)
    graph.blocked = _VERTEX_MASK[gens][gens & ~descents]
    graph._verdict, graph._support = (True, None), (table, inv, descents, gens)
    return graph


def _support_pass(table, inv, descents, gens):
    """build_gbip's root side for N(w) = ``inv``: (root_labels, ins, outs)."""
    ups, cols = table.ups, table.cols
    # ids 0, 1, 2 are the simple roots; the others in (depth, key) order
    deep = sorted([i for i in inv if i >= 3], key=table.sort_keys.__getitem__)
    # supports[j]: the bitmask of the descents reachable from root deep[j]
    # by depth-decreasing peeling inside N(w), one step beta -> s beta per s
    # in ups; a step lowers the depth by one, so the support of s beta is
    # known before that of beta, and a descent supports itself
    support = {s: 1 << s for s in _BITS[descents]}
    supports = []
    for i in deep:
        up = ups[i]                 # the s with B(alpha_s, beta) > 0
        reached = up & descents
        for s in _BITS[up]:
            k = cols[s][i]
            if k is None:
                k = table.reflect(i, s)
            reached |= support.get(k, 0)
        support[i] = reached
        supports.append(reached)
    # label masks become vertex masks; every mask is a subset of gens
    vertex = _VERTEX_MASK[gens]
    return (tuple([table.sort_keys[i][1] for i in deep]),
            tuple([vertex[m] for m in supports]),
            tuple([vertex[ups[i] & ~descents] for i in deep]))


def check_gbip(rs, inv):
    """The claim of the module docstring for N(w) = ``inv``, decided by the
    standing rule without building the graph: (True, None), or (False,
    (("r", key),)) for the (depth, key)-least deep root that does not
    stand, which is the first one that no descent supports."""
    if rs.rank != 3:
        raise RankNotThree("the graph construction requires rank 3, not "
                           "rank %d" % rs.rank)
    table = rs.root_table
    fallen = [table.sort_keys[i] for i in inv
              if i >= 3 and not _stands(table, i, inv)]
    if fallen:
        return False, (("r", min(fallen)[1]),)
    return True, None


def check_gbip_walk(rs, max_len):
    """(checked, violations) of ``check_gbip`` on the walk to max_len."""
    flags = b"".join(_gbip_walk_failures(rs, max_len))
    return len(flags), flags.count(1)


def _gbip_walk_failures(rs, max_len):
    """Per level of the walk, a bytearray flagging what check_gbip fails."""
    if rs.rank != 3:
        raise RankNotThree("the graph construction requires rank 3, not "
                           "rank %d" % rs.rank)
    table = rs.root_table
    # N(us) = N(u) u {g}, and a root that stands in N(u) stands in N(us):
    # if N(u) passes, N(us) passes iff g is simple or stands, in at most r
    # lookups.  An entry whose parent failed gets the full check.
    failed = bytearray(1)       # N(e) is empty
    for length, level, invs in _inversion_levels(rs, max_len):
        if length:
            prev, failed = failed, bytearray()
            for inv, p in zip(invs, level.parents):
                g = inv[-1]
                ok = (check_gbip(rs, inv)[0] if prev[p]
                      else g < 3 or _stands(table, g, inv))
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
    direction.  A graph from ``build_gbip`` is acyclic by construction;
    Kahn's sort runs once, only for a hand-built graph."""
    if graph._verdict is None:
        graph._verdict = _topological_sort(graph)[:2]
    return graph._verdict


def _source_indices(graph):
    """Acyclic graphs only: unblocked generators, then roots with no ins."""
    ok, cycle = check_acyclic(graph)
    if not ok:
        raise CyclicGraph("graph has a cycle: %r" % (cycle,))
    g = len(graph.gen_labels)
    return tuple([k for k in range(g) if not graph.blocked >> k & 1]
                 + [g + j for j, mask in enumerate(graph.ins) if not mask])


def sources(graph):
    """Vertices with no incoming edge (requires an acyclic graph)."""
    return tuple(map(graph.vertices.__getitem__, _source_indices(graph)))


def source_generators(graph):
    """The generators with no in-arc, read off gen_labels and blocked."""
    labels, blocked = graph.gen_labels, graph.blocked
    return tuple([s for k, s in enumerate(labels) if not blocked >> k & 1])


def verify_bijection(rs, sigma, aut, max_len):
    """Map each low element of length <= max_len to its small inversion set
    (``mapping``, in (length, word) order) and compare the image with the
    states of ``aut``, the automaton built from sigma."""
    mapping, _ = _low_search(rs, sigma, max_len)
    return bijection_report(aut, mapping, max_len)


def construct_low_from_lambda(rs, sigma, mask, _memo=None):
    """Build a low element whose small inversion set is ``mask``.

    The automaton numbers its states breadth first, so the first
    in-transition (k', s) of the state lambda gives the shortest element
    realizing lambda as s w', w' the shortest one realizing lambda' =
    states[k'], and s as one of its left descents (in rank 3, a generator
    source of its G_bip).  Build the element x for lambda' and take
    s x, with N(s x) = {alpha_s} u s N(x) read off the memo: by induction
    this candidate is the shortest element realizing lambda, and it is
    verified before being returned.  There is no other path: where this
    peeling fails, ConstructionFailed names the mask and the candidate,
    since a failure signals a bug in the construction, not a
    counterexample.  ``_memo`` holds the automaton and, under each mask
    built, the pair (x, N(x)), so one memo serves one (rs, sigma) only."""
    if _memo is None:
        _memo = {}
    if "automaton" not in _memo:
        _memo["automaton"] = build_automaton(rs, sigma)
    _memo.setdefault(0, (IDENTITY, frozenset()))  # the caller may seed aut
    if mask in _memo:
        return _memo[mask][0]
    aut = _memo["automaton"]
    k = aut.state_index.get(mask)
    if k is None:
        raise ConstructionFailed("mask %d is not a state of the automaton"
                                 % mask)
    parent, s = aut.first_in[k]
    sub_mask = aut.states[parent]
    construct_low_from_lambda(rs, sigma, sub_mask, _memo)
    inv = _left_multiply(rs, s, _memo[sub_mask][1])
    candidate = _shortlex(rs, inv)
    if (small_inversion_mask(rs, sigma, candidate, inv=inv) != mask
            or not is_low(rs, sigma, candidate)):
        raise ConstructionFailed(
            "no low element realizing mask %d found (descent peeling from "
            "its shortest element %r failed)" % (mask, candidate))
    _memo[mask] = candidate, inv
    return candidate


def check_simplex_edge_condition(rs, sigma):
    """Do all small roots lie on edges of the simplex (<= 2 nonzero coords)?"""
    coords = rs.root_table.coords
    return all(sum(not rs.is_zero(c) for c in coords[i]) <= 2
               for i in sigma.ids)


@dataclass
class PolytopeReport:
    hypothesis_met: bool
    witnesses: dict = field(default_factory=dict)   # mask -> Element or None

    @property
    def matched(self):       # the number of lambdas with a witness
        return sum(w is not None for w in self.witnesses.values())


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
        raise RankNotThree("inversion polytopes are checked on the rank-3 "
                           "chart, not rank %d" % rs.rank)
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
