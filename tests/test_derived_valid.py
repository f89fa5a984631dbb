"""The validators as the oracle of every builder that derives a structure.

The make_* constructors do not validate, so each builder below is trusted
to turn valid inputs into a valid output; these tests check that trust
with validate_* on the canonical corpora over Q, F3 and F9 and on seeded
comodules.
"""

import pytest

from superscheme.fields import ExtensionField, PrimeField, QQ
from superscheme.superalgebra import (
    _subalgebra_on, canonical_ideal, ideal_generated_by, local_decomposition,
    monomial_superalgebra, quotient_by_superideal, radical, tensor_superalgebra,
    validate_superalgebra,
)
from superscheme.supercoalgebra import (
    direct_sum_coalgebra, dualize_algebra, dualize_coalgebra,
    grouplikes, irreducible_components, tensor_coalgebra, unit_coalgebra,
    validate_supercoalgebra,
)
from superscheme.supercomodule import (
    comodule_along, free_comodule, regular_comodule, subcoalgebra_comodule,
    trivial_comodule, validate_comodule,
)
from superscheme.superlinear import linear_form, standard_space
from superscheme.corpus import (
    canonical_algebras, canonical_coalgebras, divided_power, grassmann,
    seeded_random,
)
from conftest import cosocle_epi

F3 = PrimeField(3)
F9 = ExtensionField(F3, (1, 0, 1), "j")
FIELDS = {"Q": QQ, "F3": F3, "F9": F9}


def _cases(corpus):
    return [pytest.param(F, name, id=f"{fname}-{name}")
            for fname, F in FIELDS.items() for name, _ in corpus(F)]


def _named(corpus, F, name):
    return dict(corpus(F))[name]


@pytest.mark.parametrize("F, name", _cases(canonical_algebras))
def test_algebra_builders_give_valid_structures(F, name):
    A = _named(canonical_algebras, F, name)
    assert validate_supercoalgebra(dualize_algebra(A)) == []
    for ideal in (radical(A), canonical_ideal(A)):
        quot = quotient_by_superideal(A, ideal)[0]
        assert validate_superalgebra(quot) == []
    for factor in local_decomposition(A):
        # the factor algebra eA, built as local_decomposition builds it
        e = factor.idempotent
        B = _subalgebra_on(A, ideal_generated_by(A, [e]).subspace, e)
        assert validate_superalgebra(B) == []
    assert validate_superalgebra(tensor_superalgebra(A, grassmann(1, F))) == []


@pytest.mark.parametrize("F, name", _cases(canonical_coalgebras))
def test_coalgebra_builders_give_valid_structures(F, name):
    C = _named(canonical_coalgebras, F, name)
    K = unit_coalgebra(F)
    assert validate_superalgebra(dualize_coalgebra(C)) == []
    for comp in irreducible_components(C):
        assert validate_supercoalgebra(comp.coalgebra) == []
        M = subcoalgebra_comodule(C, comp.subspace)
        assert validate_comodule(M) == []
        # the regular comodule of a component, pushed into C
        pushed = comodule_along(regular_comodule(comp.coalgebra), comp.subspace.basis(), C)
        assert validate_comodule(pushed) == []
    assert validate_supercoalgebra(tensor_coalgebra(C, divided_power(1, F))) == []
    assert validate_supercoalgebra(direct_sum_coalgebra([C, K])) == []
    for g in grouplikes(C):
        assert validate_comodule(trivial_comodule(C, g, 1, 1)) == []
    W = standard_space(F, 1, 1, even_prefix="w", odd_prefix="u")
    assert validate_comodule(free_comodule(W, C)) == []
    counit = linear_form(C.dim, C.counit)
    assert validate_comodule(comodule_along(free_comodule(W, C), counit, K)) == []


@pytest.mark.parametrize("F", list(FIELDS.values()), ids=list(FIELDS))
def test_monomial_and_cofree_builders_give_valid_structures(F):
    assert validate_supercoalgebra(unit_coalgebra(F)) == []
    for p, q, d, gens in [(1, 0, 2, ()), (1, 1, 2, ()), (2, 1, 3, [((1, 1), frozenset())]),
                          (0, 3, 3, [((), frozenset({0, 1}))])]:
        A = monomial_superalgebra(F, p, q, d, gens)
        assert validate_superalgebra(A) == [], (p, q, d, gens)
    for even, odd, d in [(1, 0, 2), (1, 1, 2), (0, 2, 2)]:
        # the truncated cofree coalgebra on k^{even|odd}
        cof = dualize_algebra(monomial_superalgebra(F, even, odd, d))
        assert validate_supercoalgebra(cof) == [], (even, odd, d)


@pytest.mark.parametrize("fname", ["Q", "F3"])
@pytest.mark.parametrize("seed", range(4))
def test_seeded_comodule_builders_give_valid_structures(fname, seed):
    C, M = seeded_random("comodule", seed, FIELDS[fname]).payload
    assert validate_supercoalgebra(C) == []
    assert validate_comodule(M) == []
    quot, _ = cosocle_epi(M)
    assert validate_comodule(quot) == []
