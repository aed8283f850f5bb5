"""The projective picture: the affine slice where coordinates sum to 1.

Positive roots are normalized by their coordinate sum and drawn inside the
simplex spanned by the simple roots; for rank 3 the chart is an
equilateral triangle.  Convex hulls on the chart are computed with a small
monotone-chain implementation that keeps only extreme points.  Distinct
positive roots are never proportional, so they are distinct chart points,
and two sets of roots have the same hull exactly when they have the same
extreme roots: ``chart_points`` and ``extreme_ids`` reduce a set of root
ids to the frozenset of its extreme ids, which compare as plain sets.
``convex_hull_2d`` and ``projective_hull`` take arbitrary points and
roots, and merge points closer than EPS.
"""

import math

from .errors import RankNotThree, ZeroSum

# points closer than EPS on the chart are one point; a turn of signed area
# at most EPS_AREA is no turn
EPS = 1e-6
EPS_AREA = 1e-9

_TRIANGLE = ((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0))
_SEGMENT = ((0.0, 0.0), (1.0, 0.0))


def chart_vertices(rank):
    if rank == 3:
        return _TRIANGLE
    if rank == 2:
        return _SEGMENT
    raise RankNotThree("projective chart only defined for rank 2 or 3, "
                       "not rank %d" % rank)


def normalize_projective(rs, v):
    """Map a vector with positive coordinate sum to the 2D chart."""
    total = sum(v)
    if rs.is_zero(total):
        raise ZeroSum("coordinate sum of %r vanishes: direction at infinity"
                      % (v,))
    bary = [c / total for c in v]
    chart = chart_vertices(rs.rank)
    x = sum(float(b) * p[0] for b, p in zip(bary, chart))
    y = sum(float(b) * p[1] for b, p in zip(bary, chart))
    return (x, y)


def _dedupe(points):
    out = []
    for p in sorted(points):
        if not any(abs(p[0] - q[0]) <= EPS and abs(p[1] - q[1]) <= EPS
                   for q in out):
            out.append(p)
    return out


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _snap(point):
    return (round(point[0], 9), round(point[1], 9))


def _chain(pts):
    """Indices of the extreme points of ``pts``, distinct points sorted
    lexicographically on the 1e-9 grid, by Andrew's monotone chain: the
    lower hull, then the upper one.  A turn of signed area at most EPS_AREA
    is no turn, so collinear interior points are dropped."""
    n = len(pts)
    if n <= 2:
        return range(n)
    hull = []
    for order in (range(n), range(n - 1, -1, -1)):
        chain = []
        for k in order:
            p = pts[k]
            while (len(chain) >= 2
                   and _cross(pts[chain[-2]], pts[chain[-1]], p) <= EPS_AREA):
                chain.pop()
            chain.append(k)
        hull += chain[:-1]
    return hull


def convex_hull_2d(points):
    """Extreme points of a planar point set, sorted lexicographically.

    Collinear interior points are dropped, so a segment reduces to its two
    endpoints and a repeated point to a single vertex.  Coordinates are
    snapped to a 1e-9 grid first so that float jitter cannot scramble the
    sweep order of genuinely equal coordinates."""
    pts = _dedupe([_snap(p) for p in points])
    return tuple(sorted([pts[k] for k in _chain(pts)]))


def chart_points(rs, ids):
    """{id: (chart point on the 1e-9 grid, chart point as computed)} for
    root ids of rs.root_table; one normalize_projective per id."""
    coords = rs.root_table.coords
    points = {i: normalize_projective(rs, coords[i]) for i in ids}
    return {i: (_snap(p), p) for i, p in points.items()}


def extreme_ids(ids, points):
    """The frozenset of the ids whose chart points, ``points[i]`` from
    ``chart_points``, are extreme in the hull of the ids' points: the
    sweep of ``convex_hull_2d``, in the same snapped order and with the same
    turn test, but with the turns taken on the points as computed, where a
    collinear triple's cross is at rounding level rather than at the
    grid's.  Distinct roots lie far apart on the chart, so no merging is
    needed, and equal sets mean equal hulls."""
    return frozenset(_hull_cycle(ids, points))


def _hull_cycle(ids, points):
    """The extreme ids of ``extreme_ids`` in order around the hull: from the
    lexicographically least, toward the lesser of its two neighbours."""
    order = sorted(ids, key=points.__getitem__)
    chain = _chain([points[i][1] for i in order])
    if len(chain) > 2 and chain[-1] < chain[1]:
        chain = chain[:1] + chain[:0:-1]
    return [order[k] for k in chain]


def hulls_equal(h1, h2):
    """Vertex-set equality of two hulls, within EPS.

    Matched as sets (not positionally): nearly-equal coordinates can sort
    in different orders across the two computations.  Nothing in the
    package calls it: polytopes are matched by ``extreme_ids``.  It stays
    for the tests' pairwise reference and for the benchmark's tracer."""
    if len(h1) != len(h2):
        return False
    unused = list(h2)
    for a in h1:
        for i, b in enumerate(unused):
            if abs(a[0] - b[0]) <= EPS and abs(a[1] - b[1]) <= EPS:
                del unused[i]
                break
        else:
            return False
    return True


def projective_hull(rs, roots):
    """Canonical hull of a set of roots on the chart."""
    return convex_hull_2d([normalize_projective(rs, r.coords) for r in roots])
