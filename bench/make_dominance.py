"""Write bench/dominance.json: the small roots of every rank-3 group with
bonds from light-cli's set, by the dominance definition.

    python3 bench/make_dominance.py

The dominance oracle (smallroots.small_roots_by_dominance) takes seconds
per group, too long to run in every benchmark run, so light-cli compares
the `small-roots` output of its seed-drawn groups with this table.  Keys
are the sorted bond labels, since relabelling the generators permutes the
roots; values are the sorted depths of the small roots.
"""

import itertools
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import coxlow  # noqa: E402
from workloads import RANDOM_BONDS, bond_key  # noqa: E402


def main():
    table = {}
    for bonds in itertools.combinations_with_replacement(RANDOM_BONDS, 3):
        rs = coxlow.build_root_system(coxlow.triangle_matrix(*bonds))
        depth = coxlow.small_roots(rs).max_depth() + 2
        roots = coxlow.small_roots_by_dominance(rs, depth)
        table[bond_key(bonds)] = sorted(r.depth for r in roots)
        print(bond_key(bonds), len(roots), flush=True)
    lines = ['  "%s": %s' % (key, json.dumps(depths))
             for key, depths in table.items()]
    (BENCH / "dominance.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
