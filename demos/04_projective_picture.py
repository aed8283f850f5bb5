"""The projective picture: roots in the triangle, and inversion polytopes.

Writes SVG charts for two groups and runs the simplex-edge /
inversion-polytope check where its hypothesis holds.  Output lands in
demos/out/.
"""

from pathlib import Path

from coxlow import (
    build_automaton,
    check_simplex_edge_condition,
    load_root_system,
    render_svg,
    small_roots,
    verify_bijection,
    verify_inversion_polytopes,
)

out = Path("demos/out")
out.mkdir(exist_ok=True)

for name, depth in [("affine-3-3-3", 4), ("hyperbolic-3-3-4", 5)]:
    rs = load_root_system(Path("demos/groups/%s.json" % name).read_text())
    sigma = small_roots(rs)
    aut = build_automaton(rs, sigma)

    svg = render_svg(rs, sigma, aut.states, depth=depth, labels=True)
    path = out / ("%s.svg" % name)
    path.write_text(svg)
    print("wrote %s (%d small roots highlighted)" % (path, len(sigma)))

    if check_simplex_edge_condition(rs, sigma):
        bij = verify_bijection(rs, sigma, aut, 12)
        rep = verify_inversion_polytopes(rs, sigma, aut, bij.inversions)
        print("  small roots lie on simplex edges; conv(lambda) matched "
              "an inversion polytope for %d/%d lambdas"
              % (rep.matched, len(rep.witnesses)))
    else:
        print("  small roots leave the simplex edges; polytope claim "
              "not asserted here")
