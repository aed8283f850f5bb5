"""Static SVG rendering of the projective picture.

Pure function of the root system and render_svg's settings: repeated
runs produce byte-identical output.  The rank-3 chart is an equilateral
triangle whose vertices are the simple roots; positive roots appear as
dots shaded by depth, small roots are highlighted, and conv(lambda)
polygons can be overlaid for chosen small inversion sets.
"""

from .core import check_bound, roots_up_to_depth
from .errors import RankNotThree, ValidationError
from .projective import (
    chart_points, chart_vertices, hull_cycle, normalize_projective)


_MARGIN = 0.12


def _to_px(point, size):
    # chart y grows upward, SVG y grows downward
    scale = size * (1 - 2 * _MARGIN)
    x = size * _MARGIN + point[0] * scale
    y = size - (size * _MARGIN + point[1] * scale)
    return x, y


def _fmt(x):
    return "%.2f" % x


def _depth_shade(depth, max_depth):
    # depth 1 dark, deeper roots lighter
    t = 0 if max_depth <= 1 else (depth - 1) / (max_depth - 1)
    v = int(40 + 160 * t)
    return "#%02x%02x%02x" % (v, v, v)


def render_svg(rs, sigma, lambdas=(), *, depth=4, size=600, labels=False):
    """Render the projective picture; returns SVG text.

    ``lambdas`` is an iterable of bitmasks over sigma's indexing whose
    convex hulls are drawn, around their boundary, from Sigma's chart
    points, computed once.  The dots are the positive roots of depth
    <= ``depth`` (an int >= 1) on a ``size`` px square canvas (an int, at
    least 100 px); ``labels`` names the simple roots at the corners."""
    if rs.rank != 3:
        raise RankNotThree("SVG rendering uses the rank-3 triangle chart, "
                           "not rank %d" % rs.rank)
    check_bound(depth, "render depth", 1, ValidationError)
    if isinstance(size, bool) or not isinstance(size, int):
        raise ValidationError("canvas size %r px must be an int" % (size,))
    if size < 100:
        raise ValidationError("canvas size %r px must be >= 100 px" % (size,))
    chart = chart_vertices(rs.rank)
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (size, size, size, size),
        '  <rect width="%d" height="%d" fill="white"/>' % (size, size),
    ]
    # simplex outline
    corners = [_to_px(p, size) for p in chart]
    path = " ".join("%s,%s" % (_fmt(x), _fmt(y)) for x, y in corners)
    lines.append('  <polygon points="%s" fill="none" stroke="black" '
                 'stroke-width="1.5"/>' % path)

    roots = roots_up_to_depth(rs, depth)
    max_depth = max(r.depth for r in roots)
    sigma_keys = {r.key for r in sigma}

    points = chart_points(rs, sigma.ids)
    for mask in lambdas:
        if not mask:
            continue
        px = [_to_px(points[i][0], size)
              for i in hull_cycle(sigma.mask_to_ids(mask), points)]
        coords = " ".join("%s,%s" % (_fmt(x), _fmt(y)) for x, y in px)
        if len(px) == 1:
            x, y = px[0]
            lines.append('  <circle cx="%s" cy="%s" r="7" fill="none" '
                         'stroke="#3366cc" stroke-width="1"/>'
                         % (_fmt(x), _fmt(y)))
        else:
            lines.append('  <polygon points="%s" fill="#3366cc" '
                         'fill-opacity="0.10" stroke="#3366cc" '
                         'stroke-width="1"/>' % coords)

    for root in roots:
        x, y = _to_px(normalize_projective(rs, root.coords), size)
        if root.key in sigma_keys:
            lines.append('  <circle cx="%s" cy="%s" r="4" fill="#cc2222"/>'
                         % (_fmt(x), _fmt(y)))
        else:
            lines.append('  <circle cx="%s" cy="%s" r="2.5" fill="%s"/>'
                         % (_fmt(x), _fmt(y),
                            _depth_shade(root.depth, max_depth)))

    if labels:
        for s in range(rs.rank):
            x, y = _to_px(chart[s], size)
            dy = -8 if chart[s][1] > 0 else 16
            lines.append('  <text x="%s" y="%s" font-size="14" '
                         'text-anchor="middle">a%d</text>'
                         % (_fmt(x), _fmt(y + dy), s + 1))

    lines.append("</svg>")
    return "\n".join(lines) + "\n"
