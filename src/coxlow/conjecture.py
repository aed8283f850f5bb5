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
run descent -> root -> non-descent, so the graph is acyclic by
construction, and the claim fails only at a root that no descent supports.
It is decided by one rule: a deep root beta stands in N(w) when it has a
foot there, alpha_s or s beta for an engaged s.  A foot is one step
shallower, so the (depth, key)-least unsupported root is the least root
that does not stand; coclosedness of N(w) gives every root a foot
(Dyer-Hohlweg 2016), and a set that is not coclosed can lack one.

``check_gbip`` applies the rule to one N(w), and ``verify``'s
``check_gbip_walk`` depth first along one path of the ShortLex automaton
at a time, by induction on N(us) = N(u) u {u(alpha_s)}, listing the words
that fail.  ``build_gbip`` builds only the generator side, a ``BipGraph``
of the generator labels and the sources among them; ``check_acyclic`` and
``source_generators`` read it.  The whole graph, root side and Kahn's
sort included, is the tests' reference.  The builder
``construct_low_from_lambda`` peels, off the shortest element realizing
lambda, the letter of the automaton's first transition into lambda: a
left descent, so a generator source.
"""

from dataclasses import dataclass, field

from .automaton import build_automaton, build_shortlex_automaton
from .core import INF, check_bound, triangle_matrix, build_root_system
from .elements import (
    IDENTITY,
    _left_multiply,
    _low_search,
    _shortlex,
    bijection_report,
    inversion_set,
    is_low,
    small_inversion_mask,
)
from .errors import ConstructionFailed, RankNotThree
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
    """G_bip's generator side for one element w, as ``build_gbip`` fills
    it: ``gen_labels``, the descents and the engaged non-descents in
    increasing order, and ``sources``, the generators with no in-arc, which
    are exactly the descents.  The root side is not held: the tests build
    the whole graph eagerly, as their reference."""

    __slots__ = ("gen_labels", "sources")

    def __init__(self, gen_labels, sources):
        self.gen_labels, self.sources = gen_labels, sources


# _BITS[mask]: the generators in a bitmask over {0, 1, 2}, in increasing order
_BITS = tuple(tuple(s for s in range(3) if mask >> s & 1) for mask in range(8))


def _require_rank3(rs):
    if rs.rank != 3:
        raise RankNotThree("the graph construction requires rank 3, not "
                           "rank %d" % rs.rank)


def _stands(table, g, inv):
    """Does the deep root g have a foot in ``inv``: some s in ups[g] that is
    a descent (alpha_s in inv) or has s g in inv?"""
    for s in _BITS[table.ups[g]]:
        k = table.cols[s][g]
        if s in inv or (table.reflect(g, s) if k is None else k) in inv:
            return True
    return False


def build_gbip(rs, w):
    """G_bip's generator side for w, as a BipGraph: the descents, and the
    non-descents that some non-simple inversion blocks.  The rank is
    checked before N(w) is computed."""
    _require_rank3(rs)
    inv = inversion_set(rs, w)
    ups = rs.root_table.ups
    descents = gens = (0 in inv) | (1 in inv) << 1 | (2 in inv) << 2
    for i in inv:               # a simple root adds its descent, a deep
        gens |= ups[i]          # root the non-descents it blocks
    return BipGraph(_BITS[gens], _BITS[descents])


def check_gbip(rs, inv):
    """The claim of the module docstring for N(w) = ``inv``, decided by the
    standing rule without building the graph: (True, None), or (False,
    (("r", key),)) for the (depth, key)-least deep root that does not
    stand, which is the first one that no descent supports."""
    _require_rank3(rs)
    table = rs.root_table
    fallen = [table.sort_keys[i] for i in inv
              if i >= 3 and not _stands(table, i, inv)]
    if fallen:
        return False, (("r", min(fallen)[1]),)
    return True, None


def check_gbip_walk(rs, sigma, max_len):
    """(checked, failed): the number of elements of length <= max_len, and
    the words of those whose N(w) fails ``check_gbip``, in walk order, depth
    first over the ShortLex automaton of ``sigma`` (one word per element,
    Brink-Howlett 1993).  The path holds its word, the root g = u(alpha_s)
    each letter added and their set N(u).  A root that stands in N(u)
    stands in N(us) = N(u) u {g}, so if N(u) passes, N(us) passes iff g is
    simple or stands; below a failure the full check decides."""
    check_bound(max_len)
    _require_rank3(rs)
    table = rs.root_table
    cols, reflect = table.cols, table.reflect
    # each state's moves, last letter first, so the least is popped first
    moves = [[(s, t) for s, t in enumerate(row) if t is not None][::-1]
             for row in build_shortlex_automaton(rs, sigma).transitions]
    word, roots, inv = [], [], set()
    checked, failed = 1, []                 # N(e) is empty and passes
    stack = [(0, s, t, False) for s, t in moves[0]] if max_len else []
    while stack:
        n, s, state, parent_failed = stack.pop()
        while len(word) > n:    # back up to the parent, one letter a time
            word.pop()
            inv.discard(roots.pop())
        g = s
        for t in reversed(word):
            j = cols[t][g]
            g = reflect(g, t) if j is None else j
        word.append(s)
        roots.append(g)
        inv.add(g)
        ok = (check_gbip(rs, inv)[0] if parent_failed
              else g < 3 or _stands(table, g, inv))
        checked += 1
        if not ok:
            failed.append(tuple(word))
        if n + 1 < max_len:
            stack += [(n + 1, s, t, not ok) for s, t in moves[state]]
    return checked, failed


def check_acyclic(graph):
    """(acyclic, witness cycle or None) for a graph from ``build_gbip``:
    always (True, None).  Arcs run descent -> root -> non-descent, so a
    descent has only out-arcs and a non-descent only in-arcs, and no path
    comes back to a generator it left.  Anything else, such as a hand-built
    arc graph, raises TypeError."""
    if not isinstance(graph, BipGraph):
        raise TypeError("not a G_bip graph from build_gbip: %r" % (graph,))
    return True, None


def source_generators(graph):
    """The generators with no in-arc: the descents."""
    return graph.sources


def verify_bijection(rs, sigma, aut, max_len):
    """Map each low element of length <= max_len to its small inversion set
    (``mapping``, in (length, word) order) and compare the image with the
    states of ``aut``, the automaton built from sigma."""
    mapping, invs, _ = _low_search(rs, sigma, max_len)
    return bijection_report(aut, mapping, invs, max_len)


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


def verify_inversion_polytopes(rs, sigma, aut, inversions):
    """For each automaton state lam, look for a low element x among
    ``inversions`` ({x: N(x)}, as in BijectionReport.inversions) whose
    inversion polytope conv(N(x)) equals conv(lam) on the projective
    chart.  Two hulls are equal exactly when their sets of extreme root ids
    are (see ``coxlow.projective``), so the witness is the first low
    element, in the order of ``inversions``, whose N(x) has lam's
    extreme-root id set, or None; each root's chart point is computed once.

    The underlying claim is only asserted when all small roots lie on
    simplex edges; outside that hypothesis the check still runs and the
    report flags it."""
    if rs.rank != 3:
        raise RankNotThree("inversion polytopes are checked on the rank-3 "
                           "chart, not rank %d" % rs.rank)
    report = PolytopeReport(
        hypothesis_met=check_simplex_edge_condition(rs, sigma))
    points = chart_points(rs, set(sigma.ids).union(*inversions.values()))
    first = {}
    for low, inv in inversions.items():
        first.setdefault(extreme_ids(inv, points), low)
    for mask in aut.states:
        report.witnesses[mask] = first.get(
            extreme_ids(sigma.mask_to_ids(mask), points))
    return report
