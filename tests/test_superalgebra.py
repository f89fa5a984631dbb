import math
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from superscheme import superalgebra
from superscheme.fields import FieldError, PrimeField, QQ, ExtensionField
from superscheme.superlinear import (
    Matrix, Subspace, SuperVectorSpace, _images, standard_space, unit_vec,
)
from superscheme.superalgebra import (
    FactorizationIncomplete, SuperAlgebra, WordBasis, _minimal_polynomial, canonical_ideal,
    enumerate_homs, ideal_generated_by, ksdim_finite,
    local_decomposition, make_superalgebra, quotient_by_superideal, radical,
    tensor_superalgebra, validate_superalgebra,
)
from superscheme.corpus import (
    Rng, canonical_algebras, divided_power, grassmann, quotient_ring_algebra, split_pair,
    truncated_polynomial,
)
from superscheme.supercoalgebra import (
    _koszul_signed, dualize_algebra, dualize_coalgebra, tensor_coalgebra,
)

from conftest import (
    GradedMap, dense, dense_columns, dense_matrix, dense_rows, enumerate_homs_by_scan,
    is_superalgebra_morphism, minimal_polynomial_by_powers, odd_subspace, rational, sparse,
    transpose,
)

F3 = PrimeField(3)
F5 = PrimeField(5)


def test_grassmann_validates():
    for q in range(4):
        assert validate_superalgebra(grassmann(q)) == []


def test_flipped_sign_fails_supercommutativity(dense_view):
    G = grassmann(2)
    mul = dense_view.table(G)
    mul[2][1] = list(mul[1][2])  # th2*th1 := +th1*th2
    bad = make_superalgebra(G.space, dense_view.columns("mul", mul), G.unit)
    problems = validate_superalgebra(bad)
    assert any("supercommutativity" in p for p in problems)


def test_broken_unit_fails():
    G = grassmann(1)
    bad = SuperAlgebra(G.space, G.cop, sparse(QQ, (QQ.zero, QQ.zero)))
    problems = validate_superalgebra(bad)
    assert any("unit" in p for p in problems)


def test_odd_square_violation_detected():
    # one odd basis vector with th^2 = 1 breaks both axioms
    from superscheme.superlinear import SuperVectorSpace
    space = SuperVectorSpace(QQ, ("1", "th"), (0, 1))
    # 1*1 = 1, 1*th = th*1 = th, th*th = 1: rows 0 and 3 of column 1, rows
    # 1 and 2 of column th
    cop = [[(0, Fraction(1)), (3, Fraction(1))], [(1, Fraction(1)), (2, Fraction(1))]]
    bad = make_superalgebra(space, cop, sparse(QQ, (Fraction(1), Fraction(0))))
    problems = validate_superalgebra(bad)
    assert any("odd square" in p for p in problems) or \
        any("parity" in p for p in problems)


def test_canonical_ideal_examples():
    assert canonical_ideal(truncated_polynomial(1)).subspace.dim == 0
    G1 = grassmann(1)
    assert canonical_ideal(G1).subspace.basis() == [sparse(QQ, (Fraction(0), Fraction(1)))]
    G2 = grassmann(2)
    assert canonical_ideal(G2).subspace.sdim == (1, 2)


def _bosonic_reduction(A):
    return quotient_by_superideal(A, canonical_ideal(A))[0]


def test_bosonic_reduction_examples():
    assert _bosonic_reduction(grassmann(1)).dim == 1
    D = truncated_polynomial(1)
    assert _bosonic_reduction(D).cop == D.cop
    DT = tensor_superalgebra(truncated_polynomial(1), grassmann(1))
    B = _bosonic_reduction(DT)
    assert B.dim == 2
    assert validate_superalgebra(B) == []
    assert all(p == 0 for p in B.space.parities)


def test_power_by_squaring(monkeypatch):
    """x^n takes at most 2 floor(log2 n) products; in k[x]/(x^2 + 2) an odd
    power x^n is (-2)^((n - 1)/2) x."""
    F = PrimeField(1000000007)
    A = quotient_ring_algebra([2, 0, 1], F)
    x = unit_vec(F, 1)
    assert A.power(x, 0) == A.unit and A.power(x, 1) == x
    products = []
    multiply = SuperAlgebra.multiply

    def counting(self, a, b):
        products.append((a, b))
        return multiply(self, a, b)

    monkeypatch.setattr(SuperAlgebra, "multiply", counting)
    for n in (3, 9, F.p):
        products.clear()
        assert A.power(x, n) == ((1, F.pow(F.from_int(-2), (n - 1) // 2)),)
        assert len(products) <= 2 * (n.bit_length() - 1), n


def test_radical_semisimple_is_zero():
    assert radical(split_pair()).subspace.dim == 0


def test_radical_grassmann():
    G = grassmann(1)
    assert radical(G).subspace.basis() == [sparse(QQ, (Fraction(0), Fraction(1)))]


def test_radical_dual_numbers_matches_trace_oracle():
    # oracle: gram matrix of tr(L_{xy}) is [[2, 0], [0, 0]], kernel span{x}
    D = truncated_polynomial(1)
    left = []
    for i in range(2):
        cols = [D.multiply(unit_vec(QQ, i), unit_vec(QQ, j)) for j in range(2)]
        left.append(dense_rows(transpose(Matrix(QQ, cols, 2))))
    gram = [[sum(dense(QQ, 2, D.multiply(unit_vec(QQ, i), unit_vec(QQ, j)))[k]
                 * left[k][t][t]
                 for k in range(2) for t in range(2)) for j in range(2)]
            for i in range(2)]
    assert gram == [[2, 0], [0, 0]]
    expected = Subspace(D.space, dense_matrix(QQ, gram, 2).null_space())
    assert radical(D).subspace == expected


def test_radical_char_p_and_extension_field():
    G = grassmann(2, F3)
    rad = radical(G)
    assert rad.subspace.dim == 3
    F9 = ExtensionField(F3, (1, 0, 1), "j")
    D9 = truncated_polynomial(1, F9)
    assert radical(D9).subspace.basis() == [sparse(F9, (F9.zero, F9.one))]


def test_radical_invariants_on_corpus():
    for name, A in canonical_algebras(QQ) + canonical_algebras(F3):
        rad = radical(A)
        assert rad.subspace.contains_subspace(odd_subspace(A)), name
        S = quotient_by_superideal(A, rad)[0]
        assert radical(S).subspace.dim == 0, name


def _factor_dim(A, factor):
    """dim eA for the idempotent e of a local factor."""
    return ideal_generated_by(A, [factor.idempotent]).subspace.dim


def test_local_decomposition_split():
    A = quotient_ring_algebra([Fraction(-1), Fraction(0), Fraction(1)])
    facs = local_decomposition(A, radical(A))
    assert len(facs) == 2
    idems = sorted(dense(A.field, A.dim, f.idempotent) for f in facs)
    assert idems == [(Fraction(1, 2), Fraction(-1, 2)),
                     (Fraction(1, 2), Fraction(1, 2))]
    assert all(f.degree == 1 for f in facs)


def test_local_decomposition_local():
    G = grassmann(2)
    facs = local_decomposition(G, radical(G))
    assert len(facs) == 1
    assert facs[0].idempotent == G.unit


def test_local_decomposition_extension_residue():
    A = quotient_ring_algebra([F3.one, F3.zero, F3.one], F3)
    facs = local_decomposition(A, radical(A))
    assert len(facs) == 1
    assert facs[0].degree == 2


def test_local_decomposition_invariants():
    for name, A in canonical_algebras(QQ) + canonical_algebras(F3):
        facs = local_decomposition(A, radical(A))
        F = A.field
        total = tuple([F.zero] * A.dim)
        for f in facs:
            total = tuple(F.add(a, b) for a, b in zip(total, dense(F, A.dim, f.idempotent)))
            assert A.multiply(f.idempotent, f.idempotent) == f.idempotent
        assert total == dense(F, A.dim, A.unit), name
        for i, f in enumerate(facs):
            for g in facs[i + 1:]:
                zero = tuple([F.zero] * A.dim)
                assert dense(F, A.dim, A.multiply(f.idempotent, g.idempotent)) == zero
        assert sum(_factor_dim(A, f) for f in facs) == A.dim, name


def test_factorization_incomplete_over_q():
    # Q[x]/(x^4+1) is semisimple; its splitting needs a quartic factorization
    A = quotient_ring_algebra([Fraction(c) for c in (1, 0, 0, 0, 1)])
    with pytest.raises(FactorizationIncomplete):
        local_decomposition(A, radical(A))
    # the finite-field model handles it
    B = quotient_ring_algebra([F3.one, F3.zero, F3.zero, F3.zero, F3.one], F3)
    assert len(local_decomposition(B, radical(B))) == 2  # x^4+1 = two quadratics over F3


def test_local_decomposition_many_factors():
    from superscheme.fields import poly_mul
    A = quotient_ring_algebra([0, 4, 0, 1], F5)  # x^3 - x, three roots
    assert [f.degree for f in local_decomposition(A, radical(A))] == [1, 1, 1]
    poly = poly_mul(F3, (1, 0, 1), (0, 2, 1))    # (x^2+1)(x^2-x)
    B = quotient_ring_algebra(poly, F3)
    assert sorted(f.degree for f in local_decomposition(B, radical(B))) == [1, 1, 2]
    C = tensor_superalgebra(B, grassmann(1, F3))
    facs = local_decomposition(C, radical(C))
    assert sorted(f.degree for f in facs) == [1, 1, 2]
    assert sum(_factor_dim(C, f) for f in facs) == C.dim
    D = tensor_superalgebra(
        quotient_ring_algebra([Fraction(-1), Fraction(0), Fraction(1)]),
        truncated_polynomial(1))
    facs_d = local_decomposition(D, radical(D))
    assert [_factor_dim(D, f) for f in facs_d] == [2, 2]
    assert radical(D).subspace.dim == 2


def test_ksdim_finite_examples():
    assert ksdim_finite(truncated_polynomial(2)) == (0, 0)
    assert ksdim_finite(grassmann(2)) == (0, 2)
    assert ksdim_finite(tensor_superalgebra(truncated_polynomial(1),
                                            grassmann(1))) == (0, 1)
    for q in range(4):
        odd_dim = grassmann(q).space.sdim[1]
        val = ksdim_finite(grassmann(q))
        assert val == (0, q)
        assert val[1] <= odd_dim


def test_morphism_checks():
    G = grassmann(1)
    assert is_superalgebra_morphism(GradedMap.identity(G.space), G, G)
    K = grassmann(0)
    to_k = GradedMap(G.space, K.space, dense_columns(QQ, [[Fraction(1), Fraction(0)]]), 0)
    assert is_superalgebra_morphism(to_k, G, K)
    # x -> 1 + eps is not square-zero
    D = truncated_polynomial(1)
    phi = GradedMap(D.space, D.space,
                    dense_columns(QQ, [[Fraction(1), Fraction(1)],
                                      [Fraction(0), Fraction(1)]]), 0)
    assert not is_superalgebra_morphism(phi, D, D)


def test_enumerate_homs_counts():
    G = grassmann(1, F3)
    K = grassmann(0, F3)
    theta = unit_vec(F3, 1)
    assert len(enumerate_homs(G, K, WordBasis(G, [theta]))) == 1
    assert len(enumerate_homs(G, G, WordBasis(G, [theta]))) == 3
    D = truncated_polynomial(1, F3)
    x = unit_vec(F3, 1)
    assert len(enumerate_homs(D, K, WordBasis(D, [x]))) == 1


def test_enumerate_homs_requires_finite_field():
    G = grassmann(1)
    with pytest.raises(FieldError):
        enumerate_homs(G, G, WordBasis(G, [unit_vec(QQ, 1)]))


def test_enumerate_homs_rejects_non_generators():
    G = grassmann(2, F3)
    with pytest.raises(ValueError):
        enumerate_homs(G, G, WordBasis(G, [unit_vec(F3, 1)]))  # th1 alone does not generate


def _hom_sources(F):
    """(name, A, generators): Grassmann algebras, truncated polynomials, one
    of each with a generator the others already generate, t2 (x) t2, the
    Koszul-signed dual of D1 (x) G(1)*, which has an even and an odd
    generator, and split_pair (x) t1 on an idempotent u and a square-zero
    v = 1 (x) x, given as a vector that is no basis vector."""
    G = [grassmann(n, F) for n in range(4)]
    t = [truncated_polynomial(d, F) for d in range(4)]
    mixed = _koszul_signed(dualize_coalgebra(tensor_coalgebra(
        divided_power(1, F), dualize_algebra(G[1]))))
    sources = [(f"G({n})", G[n], [[i] for i in range(1, n + 1)]) for n in (1, 2, 3)]
    sources += [(f"t{d}", t[d], [[1]]) for d in (1, 2, 3)]
    sources += [("G(2) with th1th2", G[2], [[1], [2], [3]]), ("t3 with x^2", t[3], [[1], [2]]),
                ("t2 (x) t2", tensor_superalgebra(t[2], t[2]), [[1], [3]]),
                ("(D1 (x) G(1)*)*", mixed, [[2], [1]]),
                ("split_pair (x) t1", tensor_superalgebra(split_pair(F), t[1]), [[0], [1, 3]])]
    return [(name, A, [tuple((i, F.one) for i in g) for g in gens]) for name, A, gens in sources]


def _upper_triangular(F):
    """The upper triangular 2 x 2 matrices on e11, e12, e22: associative and
    unital but not commutative, so no relation of a source holds in it for
    free."""
    space = SuperVectorSpace(F, ("e11", "e12", "e22"), (0, 0, 0))
    # e11 e11 = e11, e11 e12 = e12 = e12 e22, e22 e22 = e22
    return make_superalgebra(space, [[(0, F.one)], [(1, F.one), (5, F.one)], [(8, F.one)]],
                             [(0, F.one), (2, F.one)])


def test_enumerate_homs_matches_scan():
    """The depth-first search finds the hits of the flat scan, in its order,
    from every source into Grassmann(0..2), truncated_polynomial(1..3),
    split_pair and the upper triangular matrices over F3, F5 and F9,
    wherever the scan has at most 2,000 candidates."""
    F9 = ExtensionField(F3, (1, 0, 1), "j")
    compared = 0
    for F in (F3, F5, F9):
        targets = ([grassmann(n, F) for n in range(3)] + [truncated_polynomial(d, F) for d in (1, 2, 3)]
                   + [split_pair(F), _upper_triangular(F)])
        for name, A, gens in _hom_sources(F):
            for R in targets:
                if math.prod(F.order ** R.space.sdim[A.parity(g[0][0])] for g in gens) > 2000:
                    continue
                assert enumerate_homs(A, R, WordBasis(A, gens)) == enumerate_homs_by_scan(A, R, gens), (
                    F.describe(), name, R.space.labels)
                compared += 1
    assert compared >= 100


def test_enumerate_homs_deterministic():
    G = grassmann(1, F3)
    a = enumerate_homs(G, G, WordBasis(G, [unit_vec(F3, 1)]))
    assert a == enumerate_homs(G, G, WordBasis(G, [unit_vec(F3, 1)]))


def test_odd_generators_grow_one_echelon(monkeypatch):
    """Grassmann(6) keeps its six generators, and their ideal, A * A_odd,
    comes out of one growing echelon form with no Matrix reduction; one
    reduction per kept generator and one for the zero ideal would be 7.
    A Matrix.rref call reduces when its rref is not cached yet."""
    A = grassmann(6)
    basis = [unit_vec(QQ, i) for i in range(A.dim)]
    odd = [b for i, b in enumerate(basis) if A.parity(i)]
    want = Subspace.from_vectors(A.space, A.products(odd, basis))
    calls = []
    rref = Matrix.rref

    def counting(self):
        calls.append(self._rref is None)
        return rref(self)

    monkeypatch.setattr(Matrix, "rref", counting)
    gens, ideal = A._odd_generators
    assert gens == basis[1:7]
    assert ideal == want
    assert not any(calls), calls


def test_minimal_polynomial_takes_one_kernel(monkeypatch):
    """_minimal_polynomial equals the power loop that solves once per power,
    with one superlinear._kernel and no Matrix.solve, on the basis vectors,
    the unit and seeded elements of the canonical algebras, Grassmann(3),
    k[x]/(x^6) and k[x]/(x^2-1) (x) k[x]/(x^3), over Q, F3 and F9."""
    calls = []
    solve, kernel = Matrix.solve, superalgebra._kernel

    def counting(self, bs):
        calls.append("solve")
        return solve(self, bs)

    def counting_kernel(F, cols, height):
        calls.append("kernel")
        return kernel(F, cols, height)

    rng = Rng(48)
    F9 = ExtensionField(F3, (1, 0, 1), "j")
    checked = 0
    for F in (QQ, F3, F9):
        algebras = [A for _, A in canonical_algebras(F)] + [
            grassmann(3, F), truncated_polynomial(5, F),
            tensor_superalgebra(quotient_ring_algebra([F.neg(F.one), F.zero, F.one], F),
                                truncated_polynomial(2, F))]
        for A in algebras:
            elements = [unit_vec(F, i) for i in range(A.dim)] + [A.unit] + [
                sparse(F, [rng.scalar(F) for _ in range(A.dim)]) for _ in range(3)]
            for x in elements:
                want = minimal_polynomial_by_powers(A, x)
                with monkeypatch.context() as m:
                    m.setattr(Matrix, "solve", counting)
                    m.setattr(superalgebra, "_kernel", counting_kernel)
                    del calls[:]
                    got = _minimal_polynomial(A, x)
                    assert calls == ["kernel"]
                assert got == want, (F.describe(), A.space.labels, x)
                checked += 1
    assert checked >= 150


def test_tensor_superalgebra_koszul():
    G = tensor_superalgebra(grassmann(1), grassmann(1))
    assert validate_superalgebra(G) == []
    # (1 (x) eta)(th (x) 1) = -(th (x) eta)
    v_eta = unit_vec(QQ, 1)
    v_th = unit_vec(QQ, 2)
    prod = G.multiply(v_eta, v_th)
    assert dense(QQ, 4, prod) == (Fraction(0), Fraction(0), Fraction(0), Fraction(-1))


def test_ideal_and_quotient():
    G = grassmann(2)
    ideal = ideal_generated_by(G, [unit_vec(QQ, 1)])
    assert ideal.subspace.dim == 2  # th1, th1*th2
    quot, proj, reps = quotient_by_superideal(G, ideal)
    assert quot.dim == 2
    assert validate_superalgebra(quot) == []
    assert proj[reps[0]] == quot.unit == next(_images(QQ, proj, [G.unit]))


def test_ideal_generated_by_matches_fixpoint(ideal_oracle):
    # one or two random generators, each homogeneous of a random parity
    F9 = ExtensionField(F3, (1, 0, 1), "j")
    rng = Rng(11)
    for field in (QQ, F3, F9):
        for name, A in canonical_algebras(field):
            for _ in range(6):
                gens = []
                for _ in range(1 + rng.randint(2)):
                    parity = rng.randint(2)
                    gens.append(sparse(field, [rng.scalar(field) if A.parity(i) == parity
                                               else field.zero for i in range(A.dim)]))
                ideal = ideal_generated_by(A, gens).subspace
                assert ideal == ideal_oracle(A, gens), (field.describe(), name, gens)


def _edited(dense_view, x, F, edits):
    """The columns of x with some [i][j][k] entries of its table replaced."""
    out = dense_view.table(x)
    for (i, j, k), v in edits.items():
        out[i][j][k] = F.from_int(v)
    return dense_view.columns("mul", out)


_F9 = ExtensionField(F3, (1, 0, 1), "j")

# Grassmann(2) with edited products (and possibly another unit), and the
# complete problem list in the validator's order: parity, unit,
# supercommutativity with odd squares after their row, associativity.
BROKEN_GRASSMANN_2 = {
    "parity": (QQ, {(1, 2, 1): 1, (0, 3, 1): 1}, None,
               ['parity: 1*th1*th2 has a component on th1',
                'parity: th1*th2 has a component on th1',
                'unit: 1*th1*th2 != th1*th2',
                'supercommutativity: 1*th1*th2 != (-1)^|x||y| th1*th2*1',
                'supercommutativity: th1*th2 != (-1)^|x||y| th2*th1',
                'supercommutativity: th2*th1 != (-1)^|x||y| th1*th2',
                'supercommutativity: th1*th2*1 != (-1)^|x||y| 1*th1*th2',
                'associativity: (1*1)*th1*th2 != 1*(1*th1*th2)',
                'associativity: (1*th1)*th2 != 1*(th1*th2)',
                'associativity: (1*th2)*th1 != 1*(th2*th1)',
                'associativity: (1*th1*th2)*th2 != 1*(th1*th2*th2)',
                'associativity: (th1*th2)*th2 != th1*(th2*th2)',
                'associativity: (th2*1)*th1*th2 != th2*(1*th1*th2)',
                'associativity: (th2*th1)*th2 != th2*(th1*th2)']),
    "unit": (QQ, {(0, 1, 1): 2}, None,
             ['unit: 1*th1 != th1',
              'supercommutativity: 1*th1 != (-1)^|x||y| th1*1',
              'supercommutativity: th1*1 != (-1)^|x||y| 1*th1',
              'associativity: (1*1)*th1 != 1*(1*th1)',
              'associativity: (1*th1)*th2 != 1*(th1*th2)',
              'associativity: (th2*1)*th1 != th2*(1*th1)']),
    "odd-square": (F3, {(1, 1, 3): 1}, None,
                   ['supercommutativity: th1*th1 != (-1)^|x||y| th1*th1',
                    'odd square: th1^2 != 0']),
    "sign": (F3, {(2, 1, 3): 1}, None,
             ['supercommutativity: th1*th2 != (-1)^|x||y| th2*th1',
              'supercommutativity: th2*th1 != (-1)^|x||y| th1*th2']),
    "f9": (_F9, {(1, 2, 1): 1, (0, 3, 3): 2}, None,
           ['parity: th1*th2 has a component on th1',
            'unit: 1*th1*th2 != th1*th2',
            'supercommutativity: 1*th1*th2 != (-1)^|x||y| th1*th2*1',
            'supercommutativity: th1*th2 != (-1)^|x||y| th2*th1',
            'supercommutativity: th2*th1 != (-1)^|x||y| th1*th2',
            'supercommutativity: th1*th2*1 != (-1)^|x||y| 1*th1*th2',
            'associativity: (1*1)*th1*th2 != 1*(1*th1*th2)',
            'associativity: (1*th1)*th2 != 1*(th1*th2)',
            'associativity: (1*th2)*th1 != 1*(th2*th1)',
            'associativity: (th1*th2)*th2 != th1*(th2*th2)',
            'associativity: (th2*th1)*th2 != th2*(th1*th2)']),
    "unit-vector": (QQ, {}, (0, 0, 0, 1),
                    ['unit: 1*1 != 1',
                     'unit: 1*1 != 1',
                     'unit: 1*th1 != th1',
                     'unit: th1*1 != th1',
                     'unit: 1*th2 != th2',
                     'unit: th2*1 != th2',
                     'unit: 1*th1*th2 != th1*th2',
                     'unit: th1*th2*1 != th1*th2']),
}


@pytest.mark.parametrize("case", list(BROKEN_GRASSMANN_2))
def test_validate_superalgebra_full_problem_list(case, dense_view):
    F, edits, unit, expected = BROKEN_GRASSMANN_2[case]
    G = grassmann(2, F)
    unit = G.unit if unit is None else sparse(F, [F.from_int(c) for c in unit])
    A = make_superalgebra(G.space, _edited(dense_view, G, F, edits), unit)
    assert validate_superalgebra(A) == expected


def _rational(rng):
    """a/b with |a| <= 9 and 1 <= b <= 9."""
    return rational(rng.randint(19) - 9, rng.randint(9) + 1)


def test_validate_dense_rational_grassmann_3_against_generic_path(generic_field,
                                                                 dense_view):
    """Grassmann(3) over Q in a dense rational basis b'_i = P b_i, P = LU
    with L and U unitriangular within each parity block, with three products
    edited: over Q every sum of products runs on integer numerators over a
    common denominator, and the problem list must be that of the same
    constants over GenericField(QQ), which computes on Fractions."""
    A = grassmann(3)
    n, parities = A.dim, A.space.parities
    rng = Rng(15)

    def unitriangular(lower):
        return dense_matrix(QQ, [[QQ.one if i == j else _rational(rng)
                                  if (i > j) == lower and parities[i] == parities[j]
                                  else QQ.zero for j in range(n)] for i in range(n)], n)

    P = unitriangular(True).mul(unitriangular(False))
    basis = transpose(P).rows
    products = P.solve([A.multiply(x, y) for x in basis for y in basis])
    mul = [[list(dense(QQ, n, products[i * n + j])) for j in range(n)] for i in range(n)]
    assert len({c.denominator for row in mul for cell in row for c in cell}) > 10
    for (i, j, k), c in {(1, 2, 3): Fraction(1, 7), (0, 4, 1): Fraction(2, 3),
                         (3, 5, 7): Fraction(-5, 9)}.items():
        mul[i][j][k] += c
    unit = P.solve([A.unit])[0]
    mul = dense_view.columns("mul", mul)
    problems = validate_superalgebra(make_superalgebra(A.space, mul, unit))
    G = generic_field(QQ)
    space = SuperVectorSpace(G, A.space.labels, parities)
    assert problems == validate_superalgebra(make_superalgebra(space, mul, unit))
    assert len(problems) == 177
    assert problems[:3] == ['parity: 1*th1*th2 has a component on th1',
                            'parity: th1*th2 has a component on th3',
                            'unit: 1*1 != 1']
    assert {p.split(":")[0] for p in problems} == {
        "parity", "unit", "supercommutativity", "associativity"}


def _typed(vec):
    """Entries with their types, so a Q result must hold its canonical form
    throughout: an int exactly when the entry is integral, a Fraction
    otherwise."""
    return tuple((type(c), j, c) for j, c in vec)


@seed(314)
@given(st.sampled_from([QQ, F3, _F9]), st.booleans(), st.integers(0, 3),
       st.integers(0, 2), st.data())
@settings(max_examples=120, deadline=None)
def test_multiply_matches_dense_loop(generic_field, multiply_oracle, dense_view, F,
                                     generic, even, odd, data):
    """multiply and products over the cached nonzero terms agree with the
    dense loop on arbitrary structure constants, on the plain path over Q
    and F3, over F9, and on the generic path through the Field methods.
    products lifts all its operands over one D, so its lists mix
    denominators, the zero vector and the empty list."""
    K = generic_field(F) if generic else F
    if F.is_finite():
        nonzero = st.sampled_from(sorted((c for c in F.elements() if c != F.zero),
                                         key=F.sort_key))
    else:
        nonzero = st.builds(rational, st.integers(-9, 9).filter(bool), st.integers(1, 9))
    n = even + odd
    vec = st.lists(st.one_of(st.just(F.zero), nonzero), min_size=n, max_size=n).map(tuple)
    mul = data.draw(st.lists(st.lists(vec, min_size=n, max_size=n), min_size=n, max_size=n))
    A = make_superalgebra(standard_space(K, even, odd), dense_view.columns("mul", mul), ())
    for _ in range(3):
        x, y = sparse(F, data.draw(vec)), sparse(F, data.draw(vec))
        assert _typed(A.multiply(x, y)) == _typed(multiply_oracle(A, x, y))
    operands = st.lists(st.one_of(st.just(()), vec.map(lambda v: sparse(F, v))), max_size=3)
    xs, ys = data.draw(operands), data.draw(operands)
    assert list(map(_typed, A.products(xs, ys))) == [
        _typed(multiply_oracle(A, x, y)) for x in xs for y in ys]
