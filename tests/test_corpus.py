from fractions import Fraction

import pytest

from superscheme.fields import ExtensionField, PrimeField, QQ
from superscheme.superalgebra import (
    canonical_ideal, quotient_by_superideal, tensor_superalgebra, validate_superalgebra,
)
from superscheme.supercoalgebra import (
    base_change_coalgebra, coradical, coradical_filtration, direct_sum_coalgebra,
    dual_radical, dualize_algebra, dualize_coalgebra, grouplikes, irreducible_components,
    subcoalgebra_on, tensor_coalgebra, validate_supercoalgebra,
)
from superscheme.supercomodule import free_comodule, regular_comodule, trivial_comodule
from superscheme.superlinear import standard_space, unit_vec
from superscheme.corpus import (
    Rng, canonical_algebras, canonical_coalgebras, divided_power,
    grassmann, grouplike_coalgebra, seeded_random, validate_entry,
)
from conftest import base_change_comodule, cosocle_epi

F3 = PrimeField(3)
KINDS = ("subspace-triple", "comodule", "morphism", "presentation",
         "presentation-morphism")


def test_splitmix64_reference_vectors():
    # standard splitmix64 outputs; fixed constants keep streams portable
    r = Rng(0)
    assert r.next64() == 0xE220A8397B1DCDAF
    assert r.next64() == 0x6E789E6AA1B965F4
    assert r.next64() == 0x06C45D188009454F
    r42 = Rng(42)
    first = r42.next64()
    assert Rng(42).next64() == first


def test_grassmann_shapes(dense_view):
    assert grassmann(0).dim == 1
    assert grassmann(1).space.sdim == (1, 1)
    for q in (1, 2, 3):
        G = grassmann(q)
        assert validate_superalgebra(G) == []
        assert G.space.sdim == (2 ** (q - 1), 2 ** (q - 1))
    G3 = grassmann(3)
    # th2*th1 = -th1*th2
    i1 = G3.space.labels.index("th1")
    i2 = G3.space.labels.index("th2")
    i12 = G3.space.labels.index("th1*th2")
    assert dense_view.table(G3)[i2][i1][i12] == Fraction(-1)


def test_divided_power_shapes():
    assert divided_power(0).dim == 1
    from superscheme.corpus import split_pair, truncated_polynomial
    from superscheme.supercoalgebra import dualize_coalgebra
    # duals are the truncated polynomial algebras, constants on the nose
    for d in (1, 2):
        assert dualize_coalgebra(divided_power(d)).cop == \
            truncated_polynomial(d).cop
    assert dualize_coalgebra(grouplike_coalgebra(2)).cop == split_pair().cop
    D3 = divided_power(3)
    chain = coradical_filtration(D3, dual_radical(D3))
    assert [s.dim for s in chain] == [1, 2, 3, 4]


def test_grouplike_coalgebra_shapes():
    assert grouplike_coalgebra(1).dim == 1
    gl2 = grouplike_coalgebra(2)
    for gl, count in ((gl2, 2), (grouplike_coalgebra(3, F3), 3)):
        rad = dual_radical(gl)
        assert len(grouplikes(gl, irreducible_components(gl, rad), coradical(gl, rad))) == count
    with pytest.raises(ValueError):
        grouplike_coalgebra(0)


def test_canonical_corpora_validate():
    for field in (QQ, F3):
        for name, A in canonical_algebras(field):
            assert validate_superalgebra(A) == [], name
        for name, C in canonical_coalgebras(field):
            assert validate_supercoalgebra(C) == [], name


def test_seeded_entries_self_validate():
    for seed in range(20):
        for kind in KINDS:
            entry = seeded_random(kind, seed)
            assert validate_entry(entry) == [], (kind, seed)


def test_seeded_entries_deterministic():
    for kind in KINDS:
        a = seeded_random(kind, 123)
        b = seeded_random(kind, 123)
        assert a.expected == b.expected
        assert a.provenance == b.provenance
        if kind == "comodule":
            assert a.payload[1].psi == b.payload[1].psi
        if kind == "morphism":
            assert a.payload[0].columns == b.payload[0].columns
        if kind == "presentation":
            assert a.payload[0] == b.payload[0]


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        seeded_random("nonsense", 0)


def _constructions():
    """(name, object) for every way the package, or a reference of
    conftest, builds an algebra, a coalgebra or a comodule."""
    out = []
    for F in (QQ, F3):
        for name, A in canonical_algebras(F):
            out += [(f"algebra {name}/{F.describe()}", A),
                    (f"dual of algebra {name}/{F.describe()}", dualize_algebra(A))]
        for name, C in canonical_coalgebras(F):
            out += [(f"coalgebra {name}/{F.describe()}", C),
                    (f"dual of coalgebra {name}/{F.describe()}", dualize_coalgebra(C))]
    G2, D2 = grassmann(2), divided_power(2)
    G2d = dualize_algebra(G2)
    QI = ExtensionField(QQ, (QQ.one, QQ.zero, QQ.one), "i")
    D2i = base_change_coalgebra(D2, QI)
    W = standard_space(QQ, 1, 1, even_prefix="w", odd_prefix="u")
    comp = irreducible_components(grouplike_coalgebra(2), dual_radical(grouplike_coalgebra(2)))[0]
    return out + [
        ("tensor algebra", tensor_superalgebra(G2, grassmann(1))),
        ("tensor coalgebra", tensor_coalgebra(D2, G2d)),
        ("direct sum", direct_sum_coalgebra([D2, G2d])),
        ("base change coalgebra", D2i),
        ("base change comodule", base_change_comodule(free_comodule(W, D2), QI, D2i)),
        ("quotient algebra", quotient_by_superideal(G2, canonical_ideal(G2))[0]),
        ("quotient comodule", cosocle_epi(free_comodule(W, D2))[0]),
        ("subcoalgebra", subcoalgebra_on(grouplike_coalgebra(2), comp.subspace)),
        ("regular comodule", regular_comodule(G2d)),
        ("free comodule", free_comodule(W, G2d)),
        ("trivial comodule", trivial_comodule(D2, unit_vec(QQ, 0), 2, 1)),
    ]


@pytest.mark.parametrize("x", [pytest.param(x, id=name) for name, x in _constructions()])
def test_stored_columns_are_canonical(x):
    """cop, delta and psi are stored once, as the sparse columns of their
    maps: one tuple per domain basis vector of sorted (index, entry) pairs,
    every entry nonzero and every index in range."""
    if hasattr(x, "cop"):
        cols, count, height = x.cop, x.dim, x.dim * x.dim
    elif hasattr(x, "delta"):
        cols, count, height = x.delta, x.dim, x.dim * x.dim
    else:
        cols, count, height = x.psi, x.dim, x.dim * x.coalgebra.dim
    assert isinstance(cols, tuple) and len(cols) == count
    for col in cols:
        assert isinstance(col, tuple)
        indices = [i for i, _ in col]
        assert indices == sorted(set(indices))
        assert all(0 <= i < height for i in indices)
        assert not any(x.field.is_zero(a) for _, a in col)
