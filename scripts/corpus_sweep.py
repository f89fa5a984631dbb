#!/usr/bin/env python3
"""Sweep the seeded corpus and recheck every construction-derived label.

Usage: python scripts/corpus_sweep.py [--seeds N] [--field Q|F3|F5]
Prints one line per (kind, seed) and a final tally; exits nonzero on any
label mismatch, so the sweep doubles as a regression run.
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from superscheme.cli import CORPUS_KINDS as KINDS  # noqa: E402
from superscheme.fields import PrimeField, QQ  # noqa: E402
from superscheme.corpus import seeded_random, validate_entry  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=50)
    parser.add_argument("--field", default="Q", choices=["Q", "F3", "F5"])
    args = parser.parse_args()
    field = {"Q": QQ, "F3": PrimeField(3), "F5": PrimeField(5)}[args.field]
    tally = Counter()
    bad = 0
    for seed in range(args.seeds):
        for kind in KINDS:
            entry = seeded_random(kind, seed, field=field)
            problems = validate_entry(entry)
            status = "ok" if not problems else "MISMATCH " + "; ".join(problems)
            label = entry.expected.get("label", "-")
            print(f"{kind:24s} seed={seed:<4d} label={label:20s} {status}")
            tally[(kind, label)] += 1
            bad += len(problems)
    print()
    for (kind, label), n in sorted(tally.items()):
        print(f"{n:4d}  {kind} / {label}")
    print(f"\n{'PASS' if bad == 0 else 'FAIL'}: {sum(tally.values())} entries, "
          f"{bad} mismatches")
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
