"""Write reference.json: the expected outputs the benchmark checks against.

Run from the repository root at the commit whose outputs are the
reference:

    python3 perfbench/make_reference.py

It records the digest of every input pool, the exact affine-independence
bit of every pooled set, and the JSON of the (5, 5) exhaustive search.
"""

from __future__ import annotations

import json
import sys

import inputs
import workload

sys.path.insert(0, workload.SRC)

from cubedist import cube, search  # noqa: E402
from cubedist.cube import PointSet  # noqa: E402


def main() -> int:
    h4 = inputs.h4_tails()
    n6 = inputs.n6_pool()
    small = inputs.small_tree_codes()
    neg = inputs.negtype_pool()
    result = search.min_dinv_ones(inputs.SEARCH_N, inputs.SEARCH_M)
    ref = {
        "commit": workload.git_commit(),
        "h4_digest": inputs.digest(h4),
        "h4_independent": inputs.pack_bits(cube.rank_of_bits(t, 4) == len(t) for t in h4),
        "n6_digest": inputs.digest(n6),
        "n6_independent": inputs.pack_bits(cube.rank_of_bits(t, 6) == len(t) for t in n6),
        "small_trees_digest": inputs.digest(small),
        "negtype_digest": inputs.digest(neg),
        "negtype_independent": inputs.pack_bits(
            cube.affinely_independent(PointSet.from_bits(n, pts)) for n, pts in neg
        ),
        "search_json": result.to_json(),
    }
    with open(inputs.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {inputs.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
