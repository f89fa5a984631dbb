"""The power chain against the loops over a basis.

canonical_ideal, ksdim_finite and coradical_filtration read the powers of
one nilpotent ideal, each multiplied by one generator set per algebra:
the odd generators V of A * A_odd, plus lifts of a basis of J / A * V.
The references in conftest multiply by the odd basis, by the basis of A
and by the basis of J.  The algebras are those of test_decomposition over
Q, F3 and F9, Grassmann(0) to (4), algebras with rad(A / A * A_odd) != 0
and a dense homogeneous basis change.
"""

import math

import pytest

from superscheme.corpus import Rng, divided_power, grassmann, truncated_polynomial
from superscheme.fields import ExtensionField, PrimeField, QQ
from superscheme.superalgebra import (
    SuperAlgebra, Superideal, canonical_ideal, ideal_powers, ksdim_finite, make_superalgebra,
    radical, tensor_superalgebra, validate_superalgebra,
)
from superscheme.supercoalgebra import (
    coradical_filtration, dual_radical, dualize_algebra, dualize_coalgebra,
)
from superscheme.superlinear import Matrix, Subspace, _transpose, unit_vec, vector

from conftest import (
    ALGEBRA_KINDS, canonical_ideal_by_odd_basis, filtration_by_square, ksdim_by_odd_chain,
    odd_subspace, radical_by_quotient, rank,
)

F3 = PrimeField(3)
F9 = ExtensionField(F3, (1, 0, 1), "j")
FIELDS = {"Q": QQ, "F3": F3, "F9": F9}


def dense_basis_change(A, rng):
    """A in the basis b'_i = sum_j P_ji b_j, for a seeded invertible P
    that is even and dense on each parity block."""
    F, n = A.field, A.dim
    while True:
        cols = [vector(F, [(j, rng.scalar(F)) for j in range(n) if A.parity(j) == A.parity(i)])
                for i in range(n)]
        P = Matrix(F, _transpose(cols, n), n)
        if rank(P) == n:
            break
    *products, unit = P.solve(A.products(cols, cols) + [A.unit])
    return make_superalgebra(A.space, _transpose(products, n), unit)


def _extras(F):
    """Grassmann(0) to (4); k[x]/(x^3) (x) Grassmann(1) and the duals of the
    divided power coalgebras, whose A / A * A_odd has a nonzero radical; a
    dense basis change of k[x]/(x^3) (x) Grassmann(2)."""
    out = [(f"Grassmann({q})", grassmann(q, F)) for q in range(5)]
    out.append(("k[x]/(x^3) (x) Grassmann(1)",
                tensor_superalgebra(truncated_polynomial(2, F), grassmann(1, F))))
    out += [(f"(D{d})*", dualize_coalgebra(divided_power(d, F))) for d in range(1, 5)]
    base = tensor_superalgebra(truncated_polynomial(2, F), grassmann(2, F))
    out.append(("dense basis change", dense_basis_change(base, Rng(41))))
    return out


KINDS = {**ALGEBRA_KINDS, "extra": _extras}


@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("fname", list(FIELDS))
def test_power_chain_matches_the_basis_loops(fname, kind):
    """Per algebra A: V spans A_odd over A_even, canonical_ideal, ksdim_finite
    and radical equal their references, and so does the coradical
    filtration of C = A*, read through C* (A again, relabelled)."""
    for name, A in KINDS[kind](FIELDS[fname]):
        assert validate_superalgebra(A) == [], name
        gens, _ = A._odd_generators
        even = [unit_vec(A.field, i) for i in range(A.dim) if A.parity(i) == 0]
        assert Subspace.from_vectors(A.space, A.products(even, gens)) == odd_subspace(A), name
        assert canonical_ideal(A) == canonical_ideal_by_odd_basis(A), name
        assert ksdim_finite(A) == ksdim_by_odd_chain(A), name
        assert radical(A) == radical_by_quotient(A), name
        C = dualize_algebra(A)
        assert coradical_filtration(C) == filtration_by_square(C, dual_radical(C)), name


def test_radical_has_lifts_beyond_the_canonical_ideal():
    """The corpus above reaches the lifts of W: rad A is larger than
    A * A_odd, and its chain is longer than that of A * A_odd."""
    for A in (tensor_superalgebra(truncated_polynomial(2), grassmann(1)),
              dualize_coalgebra(divided_power(3))):
        rad, jc = radical(A), canonical_ideal(A)
        assert rad.subspace.dim > jc.subspace.dim
        assert len(ideal_powers(rad)) > len(ideal_powers(jc))


def test_ideal_powers_stall_on_an_ideal_that_is_not_nilpotent():
    G = grassmann(2)
    with pytest.raises(AssertionError, match="ideal powers stalled"):
        ideal_powers(Superideal(G, Subspace.full(G.space)))


def _pairs(monkeypatch):
    """A list that collects the number of (x, y) pairs of every call of
    SuperAlgebra.products."""
    pairs = []
    products = SuperAlgebra.products

    def counted(self, xs, ys):
        pairs.append(len(xs) * len(ys))
        return products(self, xs, ys)

    monkeypatch.setattr(SuperAlgebra, "products", counted)
    return pairs


def test_power_chain_multiplies_by_generators(monkeypatch):
    """On Grassmann(6), finding V takes at most |A_odd| * dim A pairs, and
    power k of J = A * A_odd = rad A takes |W| * dim J^k, with W = V the
    6 generators: dim J^k = sum_(i >= k) C(6, i)."""
    n = 6
    bound = 2 ** (n - 1) * 2 ** n + n * sum(
        sum(math.comb(n, i) for i in range(k, n + 1)) for k in range(1, n + 1))
    pairs = _pairs(monkeypatch)
    assert ksdim_finite(grassmann(n)) == (0, n)
    assert sum(pairs) <= bound
    pairs.clear()
    C = dualize_algebra(grassmann(n))
    assert len(coradical_filtration(C)) == n + 1
    assert sum(pairs) <= bound
