#!/usr/bin/env python3
"""Survey the fiber-dimension bounds over a seeded family of morphisms.

Tabulates how often the even equality and the odd equality hold, split by
whether the morphism is a structural split projection.  The odd-equality
column is observational data only; nothing is asserted about it.
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from superscheme.corpus import seeded_random  # noqa: E402
from superscheme.ksdim import theorem_fiber_dimension_check  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=200)
    args = parser.parse_args()
    counts = Counter()
    for seed in range(args.seeds):
        (f,) = seeded_random("presentation-morphism", seed).payload
        rep = theorem_fiber_dimension_check(f)
        assert rep.even_inequality, f"even bound failed at seed {seed}"
        kind = rep.flat_mode or "general"
        counts[(kind, "even-equal", rep.sdim_source[0]
                == rep.sdim_target[0] + rep.sdim_fiber[0])] += 1
        counts[(kind, "odd-equal", rep.odd_equality_observed)] += 1
    print(f"{args.seeds} seeded morphisms; even inequality held on all.\n")
    print(f"{'mode':18s} {'statistic':12s} {'yes':>6s} {'no':>6s}")
    for mode in sorted({k for k, _, _ in counts}):
        for stat in ("even-equal", "odd-equal"):
            yes = counts[(mode, stat, True)]
            no = counts[(mode, stat, False)]
            print(f"{mode:18s} {stat:12s} {yes:6d} {no:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
