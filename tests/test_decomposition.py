"""The decomposition exits against the general path.

radical, local_decomposition, irreducible_components and flat_check take
a quotient of dimension 1 as the base field and a decomposition into one
piece as the object itself, building nothing to confirm either.  Each exit
must return what the general path returns: the references in conftest
build every quotient, residue and subcoalgebra.  The objects are the
canonical algebras and coalgebras over Q, F3 and F9, their duals, their
tensor products of dimension at most 16, and seeded monomial algebras.
"""

import pytest

from superscheme.fields import ExtensionField, PrimeField, QQ
from superscheme.superalgebra import local_decomposition, radical
from superscheme.supercoalgebra import (
    coradical, dualize_algebra, dualize_coalgebra, grouplikes, irreducible_components,
)
from superscheme.supercomodule import flat_check, regular_comodule, trivial_comodule

from conftest import (
    ALGEBRA_KINDS as KINDS, components_by_subcoalgebras, flat_check_by_residue,
    local_decomposition_by_residues, radical_by_quotient,
)

F3 = PrimeField(3)
F9 = ExtensionField(F3, (1, 0, 1), "j")
FIELDS = {"Q": QQ, "F3": F3, "F9": F9}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:    # the exits must raise where the general path does
        return type(exc)


def _component_data(comps):
    """Everything of a component but the labels of its coalgebra, which no
    report prints: a component that is the whole keeps the labels of C."""
    return [(c.subspace, c.degree, c.coalgebra.space.parities, c.coalgebra.delta,
             c.coalgebra.counit) for c in comps]


@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("fname", list(FIELDS))
def test_decomposition_matches_the_general_path(fname, kind):
    """Per algebra A: the radical and the local factors of A, and the
    components of C = A* and the flat verdicts of comodules over C, read
    through C* (A again, relabelled), the way the commands read them."""
    for name, A in KINDS[kind](FIELDS[fname]):
        C = dualize_algebra(A)
        dual = dualize_coalgebra(C)
        rad, ref = radical(dual), radical_by_quotient(dual)
        assert rad == ref, name
        assert local_decomposition(dual, rad) == local_decomposition_by_residues(dual, ref), name
        comps = irreducible_components(C, rad)
        assert _component_data(comps) == \
            _component_data(components_by_subcoalgebras(C, ref)), name
        modules = [regular_comodule(C)]
        if len(comps) == 1 and comps[0].degree == 1:
            (g,) = grouplikes(C, comps, coradical(C, rad))
            modules.append(trivial_comodule(C, g, 1, 1))
        for M in modules:
            assert _outcome(flat_check, M) == _outcome(flat_check_by_residue, M), name
