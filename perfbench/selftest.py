"""Self-test of the benchmark's own oracles; uses no superscheme code.

    python3 perfbench/selftest.py

On tiny cases over F3 it counts superalgebra morphisms C* -> R by brute
force over all even linear maps and checks the count against the closed
form, and against a brute-force count of the even group-likes of R (x) C.
It also checks the generators: the dense basis change inverts and keeps
parity, and the generated structures satisfy the superalgebra axioms (a
coalgebra through its dual).  run.py calls it before every run.
"""

from __future__ import annotations

import itertools
import sys

from algebra import (
    QQ, PrimeField, algebra_problems, change_basis, dense_basis, divided_power, dual,
    grassmann, hom_count_closed_form, identity, is_grouplike_over, mat_mul, multiply,
    quadratic, rescale, tensor, truncated,
)
from workloads import Rng


def _vectors(F, n, allowed):
    """All vectors of length n supported on the index set ``allowed``."""
    for vals in itertools.product(F.elements(), repeat=len(allowed)):
        v = [F.zero] * n
        for i, c in zip(allowed, vals):
            v[i] = c
        yield v


def count_homs(A, R):
    """Unital multiplicative even linear maps A -> R, by brute force."""
    F = A.field
    choices = [list(_vectors(F, R.dim, [b for b in range(R.dim) if R.parities[b] == p]))
               for p in A.parities]
    e = [[F.one if i == j else F.zero for j in range(A.dim)] for i in range(A.dim)]
    count = 0
    for images in itertools.product(*choices):
        def phi(x):
            out = [F.zero] * R.dim
            for i, c in enumerate(x):
                if c != F.zero:
                    out = [F.add(o, F.mul(c, y)) for o, y in zip(out, images[i])]
            return out
        if phi(A.vec) != R.vec:
            continue
        if all(phi(multiply(A, e[i], e[j])) == multiply(R, images[i], images[j])
               for i in range(A.dim) for j in range(A.dim)):
            count += 1
    return count


def count_grouplikes(C, R):
    F = C.field
    slots = [a * C.dim + m for a in range(R.dim) for m in range(C.dim)
             if (R.parities[a] + C.parities[m]) % 2 == 0]
    count = 0
    for flat in _vectors(F, R.dim * C.dim, slots):
        u = [flat[a * C.dim:(a + 1) * C.dim] for a in range(R.dim)]
        count += is_grouplike_over(C, R, u)
    return count


def selftest_problems():
    out = []
    F = PrimeField(3)
    G1, G2 = grassmann(F, 1), grassmann(F, 2)
    rings = {"G1": G1, "G2": G2, "T1": truncated(F, 1)}
    hosts = [("G1*", dual(G1), 0, 1, ("G1", "G2", "T1")),
             ("G2*", dual(G2), 0, 2, ("G1", "T1")),
             ("D1", divided_power(F, 1), 1, 0, ("G1", "T1")),
             ("D2", divided_power(F, 2), 1, 0, ("G2",)),
             ("D1xG1*", tensor(divided_power(F, 1), dual(G1)), 1, 1, ("G1", "T1"))]
    rng = Rng(7)
    for cname, C, even_gens, odd_gens, rnames in hosts:
        for rname in rnames:
            R = rings[rname]
            want = hom_count_closed_form(3, even_gens, odd_gens, R)
            homs = count_homs(dual(C), R)
            Cs = rescale(C, [rng.unit(F) for _ in range(C.dim)])[0]
            gls = count_grouplikes(Cs, R)
            if not homs == gls == want:
                out.append(f"|Hom({cname}*, {rname})|: brute force {homs}, group-likes {gls}, "
                           f"closed form {want}")
    for K in (QQ, PrimeField(5)):
        parities = [0, 1, 1, 0, 1, 0, 0]
        P, Pinv = dense_basis(K, parities, Rng(11))
        if mat_mul(K, P, Pinv) != identity(K, len(parities)):
            out.append("dense basis change does not invert")
        if any(P[a][i] != K.zero and parities[a] != parities[i]
               for a in range(len(parities)) for i in range(len(parities))):
            out.append("dense basis change mixes parities")
    G3 = grassmann(QQ, 3)
    structures = [("G3 dense", change_basis(G3, *dense_basis(QQ, G3.parities, Rng(3)))),
                  ("(D3 dense)*", dual(change_basis(divided_power(QQ, 3),
                                                    *dense_basis(QQ, [0] * 4, Rng(5))))),
                  ("G1 (x) G2", tensor(grassmann(QQ, 1), grassmann(QQ, 2))),
                  ("(D1 (x) G1*)*", dual(tensor(divided_power(QQ, 1), dual(grassmann(QQ, 1))))),
                  ("k[x]/(x^2-5)", quadratic(QQ, QQ.from_int(5)))]
    for name, S in structures:
        bad = algebra_problems(S)
        if bad:
            out.append(f"{name} is not a superalgebra: {bad[0]}")
    return out


if __name__ == "__main__":
    problems = selftest_problems()
    for p in problems:
        print(p)
    print("selftest", "FAILED" if problems else "ok")
    sys.exit(1 if problems else 0)
