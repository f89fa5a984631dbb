#!/usr/bin/env python3
"""Time the size-wall stages on the Grassmann duals over Q.

Usage: python scripts/size_wall.py [--max N]
Prints one row per n = 1..N (default 5) for C = Grassmann(n)*, of
dimension 2^n: the seconds spent in dual + validate, dual_radical plus
coradical_filtration, flat_check(regular_comodule) and
irreducible_components, each timed on its own.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from superscheme.corpus import grassmann  # noqa: E402
from superscheme.supercoalgebra import (  # noqa: E402
    coradical_filtration, dual_radical, dualize_algebra,
    irreducible_components, validate_supercoalgebra,
)
from superscheme.supercomodule import flat_check, regular_comodule  # noqa: E402


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def _dual_and_validate(A):
    C = dualize_algebra(A)
    problems = validate_supercoalgebra(C)
    if problems:
        raise SystemExit(f"invalid dual: {problems[0]}")
    return C


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--max", type=int, default=5)
    args = parser.parse_args()
    print(f"{'coalgebra':16s} {'dim':>4s} {'dual+validate':>14s} "
          f"{'filtration':>11s} {'flat_check':>11s} {'components':>11s}")
    for n in range(1, args.max + 1):
        C, t_dual = _timed(_dual_and_validate, grassmann(n))
        _, t_filt = _timed(lambda C: coradical_filtration(C, dual_radical(C)), C)
        verdict, t_flat = _timed(flat_check, regular_comodule(C))
        comps, t_comp = _timed(lambda C: irreducible_components(C, dual_radical(C)), C)
        if not verdict.free or len(comps) != 1:
            raise SystemExit(f"Grassmann({n})*: unexpected verdict {verdict}, "
                             f"{len(comps)} components")
        print(f"{f'Grassmann({n})*':16s} {C.dim:4d} {t_dual:14.2f} "
              f"{t_filt:11.2f} {t_flat:11.2f} {t_comp:11.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
