"""The projective picture: the affine slice where coordinates sum to 1.

Positive roots are normalized by their coordinate sum and drawn inside the
simplex spanned by the simple roots; for rank 3 the chart is an
equilateral triangle.  Convex hulls on the chart are computed with a small
monotone-chain implementation that returns only extreme points, so that
degenerate (collinear, single-point) inputs compare cleanly.
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
    raise RankNotThree("projective chart only defined for rank 2 or 3")


def normalize_projective(rs, v):
    """Map a vector with positive coordinate sum to the 2D chart."""
    total = sum(v)
    if rs.is_zero(total):
        raise ZeroSum("coordinate sum vanishes: direction at infinity")
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


def convex_hull_2d(points):
    """Extreme points of a planar point set, sorted lexicographically.

    Collinear interior points are dropped, so a segment reduces to its two
    endpoints and a repeated point to a single vertex.  Coordinates are
    snapped to a 1e-9 grid first so that float jitter cannot scramble the
    sweep order of genuinely equal coordinates."""
    pts = _dedupe([(round(p[0], 9), round(p[1], 9)) for p in points])
    if len(pts) <= 2:
        return tuple(pts)
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= EPS_AREA:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= EPS_AREA:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    return tuple(sorted(hull))


def hulls_equal(h1, h2):
    """Vertex-set equality of two hulls, within EPS.

    Matched as sets (not positionally): nearly-equal coordinates can sort
    in different orders across the two computations."""
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
