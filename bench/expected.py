"""Expected answers, each tagged with where it comes from.

* ``THEOREM``: a published result that does not depend on this code.
  Every element of a finite Coxeter group is low, so n_low = |W|; for an
  affine Weyl group of rank n + 1 the low elements are in bijection with
  the regions of the Shi arrangement, (h + 1)^n of them (Shi 1987;
  Dyer-Fishel-Hohlweg-Mark, "Shi arrangements and low elements in affine
  Coxeter groups", 2023).
* ``CROSS_CHECK``: a second computation by an independent route, run by
  the benchmark after the timed region (for example the dominance oracle
  for the small roots, or the matrix walk for element counts).
* ``RECORDED``: a value recorded from the code as it stood when the
  benchmark was defined.  It guards against silent change, not against a
  bug that was already there.
"""

THEOREM = "theorem"
CROSS_CHECK = "cross-check"
RECORDED = "recorded"

# |W| of the finite battery groups
FINITE_ORDER = {"2-2-2": 8, "3-2-2": 12, "A3": 24, "B3": 48, "H3": 120}

# (h + 1)^2 Shi regions: A~2 (h = 3), C~2 (h = 4), G~2 (h = 6)
SHI_REGIONS = {"affine-3-3-3": 16, "affine-4-4-2": 25, "affine-6-3-2": 49}

# recorded: |Sigma| and |Lambda| (automaton states) per group
SIGMA = {
    "2-2-2": 3, "3-2-2": 4, "A3": 6, "B3": 9, "H3": 15,
    "affine-3-3-3": 6, "affine-4-4-2": 8, "affine-6-3-2": 12,
    "hyperbolic-3-3-4": 7, "hyperbolic-2-3-7": 12, "hyperbolic-4-4-4": 9,
    "2-2-inf": 3, "2-inf-inf": 3, "universal": 3, "inf-3-3": 5,
    "universal-override": 3, "infinite-dihedral": 2,
}
LAMBDA = {
    "2-2-2": 8, "3-2-2": 12, "A3": 24, "B3": 48, "H3": 120,
    "affine-3-3-3": 16, "affine-4-4-2": 25, "affine-6-3-2": 49,
    "hyperbolic-3-3-4": 18, "hyperbolic-2-3-7": 40, "hyperbolic-4-4-4": 22,
    "2-2-inf": 6, "2-inf-inf": 5, "universal": 4, "inf-3-3": 10,
    "universal-override": 4, "infinite-dihedral": 3,
}

# recorded: elements of length <= 10 put through the G_bip check
GBIP_ELEMENTS = {
    "2-2-2": 8, "3-2-2": 12, "A3": 24, "B3": 48, "H3": 95,
    "affine-3-3-3": 166, "affine-4-4-2": 148, "affine-6-3-2": 133,
    "hyperbolic-3-3-4": 403, "hyperbolic-2-3-7": 158,
    "hyperbolic-4-4-4": 1309, "2-2-inf": 40, "2-inf-inf": 606,
    "universal": 3070, "inf-3-3": 748, "universal-override": 3070,
}
GBIP_LENGTH = 10

# recorded: elements checked by `verify`'s G_bip pass (default length 8)
VERIFY_GBIP_ELEMENTS = {"hyperbolic-3-3-4": 194, "universal": 766,
                        "affine-3-3-3": 109}

# A known defect keeps counting as a failed check, but it does not make a
# run incorrect as long as it shows exactly as recorded here: any other
# wrong answer does.  Key: (job label, check label); value: the wrong
# answer observed when the benchmark was defined.
KNOWN_DEFECTS = {
    # Float duplicate removal in elements_by_length rounds matrices to a
    # 1e-6 grid, which fails at depth: one element of length 59 of
    # hyperbolic-2-3-7 is counted twice (ROADMAP item 3).
    ("walk hyperbolic-2-3-7 to 59", "level 59 size"): 100266,
}
