from fractions import Fraction

import pytest

from superscheme.fields import PrimeField, QQ
from superscheme.superalgebra import validate_superalgebra
from superscheme.supercoalgebra import (
    coradical, coradical_filtration, dual_radical, dualize_algebra, grouplikes,
    irreducible_components, validate_supercoalgebra,
)
from superscheme.corpus import (
    CorpusEntry, Rng, canonical_algebras, canonical_coalgebras, divided_power,
    grassmann, grouplike_coalgebra, seeded_random, validate_entry,
)

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


def test_grassmann_shapes():
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
    assert G3.mul[i2][i1][i12] == Fraction(-1)


def test_divided_power_shapes():
    assert divided_power(0).dim == 1
    from superscheme.corpus import split_pair, truncated_polynomial
    from superscheme.supercoalgebra import dualize_coalgebra
    # duals are the truncated polynomial algebras, constants on the nose
    for d in (1, 2):
        assert dualize_coalgebra(divided_power(d)).mul == \
            truncated_polynomial(d).mul
    assert dualize_coalgebra(grouplike_coalgebra(2)).mul == split_pair().mul
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
            assert a.payload[0].deep.matrix == b.payload[0].deep.matrix
        if kind == "presentation":
            assert a.payload[0] == b.payload[0]


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        seeded_random("nonsense", 0)
