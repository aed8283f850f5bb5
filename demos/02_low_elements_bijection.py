"""Low elements and the bijection onto small inversion sets.

For each demo group: enumerate the low elements, check that x -> Sigma
cap N(x) is a bijection onto the automaton states, and rebuild a low
element from each small inversion set by descent peeling.
"""

from pathlib import Path

from coxlow import (
    build_automaton,
    construct_low_from_lambda,
    enumerate_low_stable,
    load_root_system,
    small_inversion_mask,
    small_roots,
    verify_bijection,
)

for name in ["infinite-dihedral", "universal", "affine-3-3-3",
             "hyperbolic-3-3-4", "universal-override"]:
    rs = load_root_system(Path("demos/groups/%s.json" % name).read_text())
    sigma = small_roots(rs)
    aut = build_automaton(rs, sigma)

    lows, report, reached = enumerate_low_stable(rs, sigma)
    bij = verify_bijection(rs, sigma, aut, reached)
    print("%-20s |Sigma|=%2d |Lambda|=%3d lows=%3d (search ended at length %d) "
          "bijective=%s" % (name, len(sigma), bij.n_lambda, bij.n_low,
                            reached, bij.bijective))

    # constructive direction: every state of the automaton is realized
    memo = {}
    for mask in aut.states:
        x = construct_low_from_lambda(rs, sigma, mask, _memo=memo)
        assert small_inversion_mask(rs, sigma, x) == mask
    print("%-20s rebuilt all %d lambdas by descent peeling"
          % ("", len(aut.states)))
