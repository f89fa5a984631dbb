#!/usr/bin/env python3
"""Time the size-wall stages on the Grassmann duals over Q.

Usage: python scripts/size_wall.py [--max N] [--json]
Prints one row per n = 1..N (default 5) for C = Grassmann(n)*, of
dimension 2^n: the seconds spent in dual + validate, dual_radical plus
coradical_filtration, flat_check(regular_comodule) and
irreducible_components, each timed on its own, and in
validate_superalgebra and in radical plus ksdim_finite on the algebra
Grassmann(n), as report-all runs them.  With
--json the rows are printed at the end as one JSON object, keyed by
coalgebra, each row holding its dim and its seconds per stage, so a
benchmark record takes them as data.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from superscheme.corpus import grassmann  # noqa: E402
from superscheme.superalgebra import ksdim_finite, radical, validate_superalgebra  # noqa: E402
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


STAGES = ("dual+validate", "filtration", "flat_check", "components", "validate",
          "radical+ksdim")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--max", type=int, default=5)
    parser.add_argument("--json", action="store_true", help="print the rows as one JSON object")
    args = parser.parse_args()
    rows = {}
    if not args.json:
        print(f"{'coalgebra':16s} {'dim':>4s} {'dual+validate':>14s} "
              f"{'filtration':>11s} {'flat_check':>11s} {'components':>11s} "
              f"{'validate':>9s} {'radical+ksdim':>14s}")
    for n in range(1, args.max + 1):
        C, t_dual = _timed(_dual_and_validate, grassmann(n))
        _, t_filt = _timed(lambda C: coradical_filtration(C, dual_radical(C)), C)
        verdict, t_flat = _timed(flat_check, regular_comodule(C))
        comps, t_comp = _timed(lambda C: irreducible_components(C, dual_radical(C)), C)
        problems, t_valid = _timed(validate_superalgebra, grassmann(n))
        (_, sd), t_alg = _timed(lambda G: (radical(G), ksdim_finite(G)), grassmann(n))
        if not verdict.free or len(comps) != 1 or problems or sd != (0, n):
            raise SystemExit(f"Grassmann({n})*: unexpected verdict {verdict}, "
                             f"{len(comps)} components, {len(problems)} problems, ksdim {sd}")
        times = (t_dual, t_filt, t_flat, t_comp, t_valid, t_alg)
        rows[f"Grassmann({n})*"] = dict(zip(("dim",) + STAGES,
                                            (C.dim,) + tuple(round(t, 4) for t in times)))
        if not args.json:
            print(f"{f'Grassmann({n})*':16s} {C.dim:4d} {t_dual:14.2f} "
                  f"{t_filt:11.2f} {t_flat:11.2f} {t_comp:11.2f} {t_valid:9.2f} {t_alg:14.2f}",
                  flush=True)
    if args.json:
        print(json.dumps(rows, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
