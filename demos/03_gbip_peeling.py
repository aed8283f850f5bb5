"""The bipartite graph behind the rank-3 proof machinery.

Sweeps all short elements of a rank-3 group, checking with check_gbip that
each graph is acyclic with no root source, so that its sources are exactly
the left descents, then walks one concrete peeling chain step by step.
"""

from pathlib import Path

from coxlow import (
    check_gbip,
    elements_up_to_length,
    enumerate_low_stable,
    inversion_set,
    is_low,
    left_descents,
    load_root_system,
    normalize,
    small_roots,
)

rs = load_root_system(Path("demos/groups/hyperbolic-3-3-4.json").read_text())
sigma = small_roots(rs)

checked = 0
for elem, _, _ in elements_up_to_length(rs, 8):
    ok, witness = check_gbip(rs, inversion_set(rs, elem))
    assert ok, (elem, witness)
    checked += 1
print("checked %d elements (length <= 8): all graphs acyclic, "
      "all sources are descents" % checked)

# peel the longest low element down to the identity along graph sources,
# which are its left descents wherever check_gbip passes
lows, _, _ = enumerate_low_stable(rs, sigma)
w = lows[-1]
print("\npeeling w = %r (low: %s)" % (w, is_low(rs, sigma, w)))
while w.length:
    assert check_gbip(rs, inversion_set(rs, w))[0], w
    srcs = sorted(left_descents(rs, w))
    s = srcs[0]
    print("  sources %s -> peel s%d" % (srcs, s))
    w = normalize(rs, (s,) + w.word)
    print("  now w = %r, still low: %s" % (w, is_low(rs, sigma, w)))
