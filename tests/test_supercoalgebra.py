import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest

from superscheme.fields import ExtensionField, PrimeField, QQ
from superscheme.superalgebra import make_superalgebra, monomial_superalgebra, validate_superalgebra
from superscheme.superlinear import (
    Matrix, Subspace, SuperVectorSpace, _images, _transpose, linear_form, unit_vec,
)
from superscheme.supercoalgebra import (
    SearchBoundExceeded, SuperCoalgebra, coradical,
    coradical_filtration, direct_sum_coalgebra, dual_radical, dualize_algebra,
    dualize_coalgebra, grouplikes, grouplikes_over, irreducible_components,
    is_coalgebra_morphism, is_grouplike,
    make_supercoalgebra, subcoalgebra_on, tensor_coalgebra, unit_coalgebra,
    validate_supercoalgebra,
    wedge,
)
from conftest import (
    GradedMap, _count_calls, compose, coproduct, dense, dense_matrix, dense_rows, is_subcoalgebra,
    sparse, tensor_after, tensor_structure_by_maps, transpose,
)
from superscheme.corpus import (
    Rng, canonical_algebras, canonical_coalgebras, divided_power, grassmann,
    grouplike_coalgebra, quotient_ring_algebra, split_pair,
    truncated_polynomial, seeded_random,
)

F3 = PrimeField(3)
F5 = PrimeField(5)
_F9 = ExtensionField(F3, (1, 0, 1), "j")


def _grouplikes(C):
    rad = dual_radical(C)
    return grouplikes(C, irreducible_components(C, rad), coradical(C, rad))


def test_broken_counit_detected():
    C = divided_power(1)
    bad = SuperCoalgebra(C.space, C.delta, sparse(QQ, (QQ.zero, QQ.zero)))
    assert any("counit" in p for p in validate_supercoalgebra(bad))


def test_flipped_cocommutativity_detected(dense_view):
    G = dualize_algebra(grassmann(2))
    delta = dense_view.table(G)
    # flip one Koszul sign on the th1*th2 component
    delta[3][2][1] = QQ.neg(delta[3][2][1])
    bad = make_supercoalgebra(G.space, dense_view.columns("delta", delta), G.counit)
    assert any("cocommutativity" in p or "coassociativity" in p
               for p in validate_supercoalgebra(bad))


def test_dualize_algebra_examples(dense_view):
    C = dualize_algebra(truncated_polynomial(1))
    delta = dense_view.table(C)
    # x* is primitive
    assert delta[1][0][1] == 1 and delta[1][1][0] == 1 and delta[1][1][1] == 0
    KK = dualize_algebra(split_pair())
    assert is_grouplike(KK, unit_vec(QQ, 0))
    assert is_grouplike(KK, unit_vec(QQ, 1))
    G = dualize_algebra(grassmann(1))
    assert G.space.parities == (0, 1)
    delta = dense_view.table(G)
    assert delta[1][0][1] == 1 and delta[1][1][0] == 1


def test_dualization_shares_the_columns(monkeypatch):
    """An algebra stores its transpose coproduct in the layout of delta, so
    each dualization hands on the input's column tuple itself, with its
    unit or counit, and builds no vector: only the labels are new."""
    objects = ([A for _, A in canonical_algebras(F3)]
               + [C for _, C in canonical_coalgebras(F3)])
    built = _count_calls(monkeypatch, "superlinear", "vector")
    for X in objects:
        if hasattr(X, "cop"):
            D = dualize_algebra(X)
            assert D.delta is X.cop and D.counit is X.unit
        else:
            D = dualize_coalgebra(X)
            assert D.cop is X.delta and D.unit is X.counit
        assert D.space.labels == tuple(f"{label}*" for label in X.space.labels)
    assert built == []


def test_double_dual_round_trip():
    for name, A in canonical_algebras(QQ):
        back = dualize_coalgebra(dualize_algebra(A))
        assert back.cop == A.cop and back.unit == A.unit, name
    for name, C in canonical_coalgebras(QQ):
        back = dualize_algebra(dualize_coalgebra(C))
        assert back.delta == C.delta and back.counit == C.counit, name


def test_is_subcoalgebra_examples():
    D = divided_power(2)
    g = Subspace.from_vectors(D.space, [unit_vec(QQ, 0)])
    assert is_subcoalgebra(D, g)
    C = dualize_algebra(truncated_polynomial(1))
    xonly = Subspace.from_vectors(C.space, [unit_vec(QQ, 1)])
    assert not is_subcoalgebra(C, xonly)
    assert is_subcoalgebra(D, Subspace.full(D.space))


def test_subcoalgebra_on_accepts_exactly_the_subcoalgebras():
    """subcoalgebra_on rebuilds each delta(w) from its entries on the pivot
    columns; it must accept exactly the subspaces is_subcoalgebra accepts,
    here every coordinate subspace of small coalgebras, in the standard
    and in a dense basis."""
    rng = Rng(17)
    for F in (QQ, F3):
        cases = canonical_coalgebras(F) + [
            ("dense Grassmann(2)*", _dense_basis_dual(grassmann(2, F), rng))]
        for name, C in cases:
            for size in range(C.dim + 1):
                for cols in itertools.combinations(range(C.dim), size):
                    W = Subspace.from_vectors(C.space, [unit_vec(F, c) for c in cols])
                    try:
                        sub = subcoalgebra_on(C, W)
                    except ValueError:
                        assert not is_subcoalgebra(C, W), (name, cols)
                        continue
                    assert is_subcoalgebra(C, W), (name, cols)
                    assert validate_supercoalgebra(sub) == [], (name, cols)
                    incl = GradedMap(sub.space, C.space, W.basis(), 0)
                    assert is_coalgebra_morphism(incl.columns, sub, C), (name, cols)


def _coalgebra_morphism_by_tensor_space(f, C, D):
    """Reference for is_coalgebra_morphism: delta_D f and (f (x) f) delta_C
    built as maps into D (x) D."""
    if f.parity != 0 or f.domain != C.space or f.codomain != D.space:
        return False
    lhs = compose(coproduct(D), f)
    rhs = tensor_after(f, f, coproduct(C))
    counit = list(_images(C.field, linear_form(D.dim, D.counit), f.columns))
    return lhs.columns == rhs.columns and counit == linear_form(C.dim, C.counit)


def test_morphism_check_matches_the_tensor_space_reference():
    """Identities, counit collapses, group-like inclusions and seeded even
    maps between the small canonical coalgebras."""
    rng = Rng(31)
    verdicts = set()
    for F in (QQ, F3):
        small = [C for _, C in canonical_coalgebras(F) if C.dim <= 4]
        K = unit_coalgebra(F)
        for C in small:
            rad = dual_radical(C)
            cases = [(GradedMap.identity(C.space), C, C),
                     (GradedMap(C.space, K.space, linear_form(C.dim, C.counit), 0), C, K)]
            cases += [(GradedMap(K.space, C.space, [g], 0), K, C)
                      for g in grouplikes(C, irreducible_components(C, rad), coradical(C, rad))]
            for D in small:
                for _ in range(2):
                    cols = [sparse(F, [rng.scalar(F) if D.parity(j) == C.parity(i) else F.zero
                                       for j in range(D.dim)]) for i in range(C.dim)]
                    cases.append((GradedMap(C.space, D.space, cols, 0), C, D))
            for f, X, Y in cases:
                verdict = is_coalgebra_morphism(f.columns, X, Y)
                assert verdict == _coalgebra_morphism_by_tensor_space(f, X, Y)
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_morphism_check_builds_no_tensor_space(monkeypatch):
    """The check makes no labelled tensor space."""
    C = dualize_algebra(grassmann(2))
    K = unit_coalgebra(QQ)
    collapse = linear_form(C.dim, C.counit)
    calls = []
    original = SuperVectorSpace.tensor

    def counting(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(SuperVectorSpace, "tensor", counting)
    assert is_coalgebra_morphism(collapse, C, K)
    assert calls == []


def test_wedge_examples():
    D = divided_power(3)
    z = Subspace.zero(D.space)
    assert wedge(D, z, z).dim == 0
    B = Subspace.from_vectors(D.space, [unit_vec(QQ, 0), unit_vec(QQ, 1)])
    assert wedge(D, z, B) == B
    g = Subspace.from_vectors(D.space, [unit_vec(QQ, 0)])
    w = wedge(D, g, g)
    assert w == Subspace.from_vectors(D.space, [unit_vec(QQ, 0),
                                                unit_vec(QQ, 1)])


def test_wedge_monotone_and_associative_seeded():
    for seed in range(12):
        entry = seeded_random("subspace-triple", seed)
        C, (X, Y, Z) = entry.payload
        XY = wedge(C, X, Y)
        assert XY.contains_subspace(X.intersect(XY))
        bigger = wedge(C, X.sum(Y), Y)
        assert bigger.contains_subspace(XY)
        left = wedge(C, wedge(C, X, Y), Z)
        right = wedge(C, X, wedge(C, Y, Z))
        assert left == right, seed


def test_coradical_examples():
    for d in range(1, 4):
        D = divided_power(d)
        assert coradical(D, dual_radical(D)).basis() == [unit_vec(QQ, 0)]
    S = dualize_algebra(quotient_ring_algebra([Fraction(-1), Fraction(0),
                                               Fraction(1)]))
    assert coradical(S, dual_radical(S)) == Subspace.full(S.space)
    G = dualize_algebra(grassmann(1))
    assert coradical(G, dual_radical(G)).basis() == [unit_vec(QQ, 0)]


def test_filtration_examples():
    for C, dims in [(divided_power(3), [1, 2, 3, 4]),
                    (dualize_algebra(split_pair()), [2]),
                    (dualize_algebra(grassmann(2)), [1, 3, 4]),
                    (dualize_algebra(grassmann(3)), [1, 4, 7, 8])]:
        assert [s.dim for s in coradical_filtration(C, dual_radical(C))] == dims


def test_filtration_stabilizes_within_dim_steps():
    for name, C in canonical_coalgebras(QQ):
        chain = coradical_filtration(C, dual_radical(C))
        assert len(chain) <= C.dim + 1, name
        assert chain[-1] == Subspace.full(C.space)
        for a, b in zip(chain, chain[1:]):
            assert b.contains_subspace(a) and b.dim > a.dim


def test_filtration_wedge_superadditivity():
    # A_m wedge A_n <= A_{m+n+1}
    for C in (divided_power(3), dualize_algebra(grassmann(2))):
        chain = coradical_filtration(C, dual_radical(C))
        ext = chain + [chain[-1]] * (2 * len(chain))
        for m in range(len(chain)):
            for n in range(len(chain)):
                w = wedge(C, chain[m], chain[n])
                assert ext[m + n + 1].contains_subspace(w)


def _dense_basis_dual(A, rng):
    """The dual of A in the dense basis b'_i = sum_j P_ij b_j, P = LU with L
    and U unitriangular within each parity block, so the echelon basis of
    the radical of its dual algebra is not made of unit vectors."""
    F, n, parities = A.field, A.dim, A.space.parities

    def unitriangular(lower):
        return dense_matrix(F, [[F.one if i == j else rng.scalar(F)
                                 if (i > j) == lower and parities[i] == parities[j]
                                 else F.zero for j in range(n)] for i in range(n)], n)

    P = unitriangular(True).mul(unitriangular(False))
    basis = P.rows
    products = transpose(P).solve([A.multiply(x, y) for x in basis for y in basis])
    cop = _transpose(products, n)      # entry i * n + j of b'_i * b'_j
    unit = transpose(P).solve([A.unit])[0]
    return dualize_algebra(make_superalgebra(A.space, cop, unit))


def _filtration_cases(F):
    """Coalgebras over F with one and with several components, and
    Grassmann duals in a dense basis."""
    rng = Rng(16)
    cases = canonical_coalgebras(F) + [
        ("(k x k)*", dualize_algebra(split_pair(F))),
        ("D2 + G2", direct_sum_coalgebra([divided_power(2, F), grouplike_coalgebra(2, F)])),
    ]
    cases += [(f"dense Grassmann({q})*", _dense_basis_dual(grassmann(q, F), rng))
              for q in (2, 3)]
    return cases


@pytest.mark.parametrize("F", [QQ, F3, _F9], ids=["Q", "F3", "F9"])
def test_wedge_and_filtration_match_kernel_oracle(F, wedge_oracle, filtration_oracle):
    """wedge and coradical_filtration, read in C*, against the kernel of
    C -> C/X (x) C/Y and its wedge powers of the coradical."""
    rng = Rng(61)
    for name, C in _filtration_cases(F):
        assert validate_supercoalgebra(C) == [], name
        rad = dual_radical(C)
        chain = coradical_filtration(C, rad)
        assert chain == filtration_oracle(C, coradical(C, rad)), name
        comps = irreducible_components(C, rad)
        subspaces = [Subspace.zero(C.space), chain[0], chain[min(1, len(chain) - 1)],
                     comps[-1].subspace, Subspace.from_vectors(
                         C.space, [sparse(F, [rng.scalar(F) for _ in range(C.dim)])
                                   for _ in range(1 + rng.randint(C.dim))])]
        for X in subspaces:
            for Y in subspaces:
                assert wedge(C, X, Y) == wedge_oracle(C, X, Y), name


def test_grassmann_dual_filtration_closed_form():
    """C_k of Grassmann(n)* is spanned by the duals of the monomials of
    degree at most k: dim C_k = sum over i <= k of binomial(n, i)."""
    for F, top in ((QQ, 6), (F3, 4)):
        for n in range(top + 1):
            C = dualize_algebra(grassmann(n, F))
            dims = [s.dim for s in coradical_filtration(C, dual_radical(C))]
            assert dims == [sum(math.comb(n, i) for i in range(k + 1))
                            for k in range(n + 1)], (F.describe(), n)


def test_components_examples():
    S = dualize_algebra(quotient_ring_algebra([Fraction(-1), Fraction(0),
                                               Fraction(1)]))
    comps = irreducible_components(S, dual_radical(S))
    assert len(comps) == 2 and all(c.subspace.dim == 1 for c in comps)
    D = divided_power(2)
    comps = irreducible_components(D, dual_radical(D))
    assert len(comps) == 1 and comps[0].subspace == Subspace.full(D.space)
    C9 = dualize_algebra(quotient_ring_algebra([F3.one, F3.zero, F3.one], F3))
    comps = irreducible_components(C9, dual_radical(C9))
    assert len(comps) == 1 and comps[0].degree == 2


def test_component_decomposition_invariants():
    for name, C in canonical_coalgebras(QQ) + canonical_coalgebras(F3):
        comps = irreducible_components(C, dual_radical(C))
        assert sum(c.subspace.dim for c in comps) == C.dim, name
        for i, a in enumerate(comps):
            for b in comps[i + 1:]:
                assert a.subspace.intersect(b.subspace).dim == 0
        base_count = sum(1 for c in comps if c.degree == 1)
        assert base_count == len(_grouplikes(C)), name


def test_grouplikes_examples():
    KK = dualize_algebra(split_pair())
    gls = _grouplikes(KK)
    assert sorted(dense(QQ, 2, g) for g in gls) == [(Fraction(0), Fraction(1)),
                                                    (Fraction(1), Fraction(0))]
    D = divided_power(3)
    assert _grouplikes(D) == [unit_vec(QQ, 0)]
    C9 = dualize_algebra(quotient_ring_algebra([F3.one, F3.zero, F3.one], F3))
    assert _grouplikes(C9) == []


def test_grouplikes_always_even():
    for name, C in canonical_coalgebras(QQ):
        for g in _grouplikes(C):
            for i, c in enumerate(dense(QQ, C.dim, g)):
                if not QQ.is_zero(c):
                    assert C.parity(i) == 0, name


def test_grouplikes_structural_vs_brute_force():
    for field in (F3, F5):
        one = unit_coalgebra(field)
        k_as_algebra = grassmann(0, field)
        for name, C in canonical_coalgebras(field):
            if C.dim > 4:
                continue
            structural = _grouplikes(C)
            brute = grouplikes_over(C, k_as_algebra)
            assert len(structural) == len(brute), (field.p, name)
            brute_vecs = sorted(tuple(u[0]) for u in brute)
            assert sorted(structural) == brute_vecs, (field.p, name)


def test_grouplikes_over_examples():
    G = dualize_algebra(grassmann(1, F3))
    R1 = grassmann(0, F3)
    out = [dense_rows(Matrix(F3, u, G.dim)) for u in grouplikes_over(G, R1)]
    assert len(out) == 1 and out[0] == ((1, 0),)
    R2 = grassmann(1, F3)
    out2 = [dense_rows(Matrix(F3, u, G.dim)) for u in grouplikes_over(G, R2)]
    assert len(out2) == 3
    for u in out2:
        assert u[0] == (1, 0)  # 1 (x) 1* head
        assert u[1][0] == 0    # eta (x) 1* coefficient vanishes
    KK = dualize_algebra(split_pair(F3))
    assert len(grouplikes_over(KK, R1)) == 2


def test_grouplikes_over_matches_scan(grouplike_oracle):
    # the scan is capped at 3^8 candidates over F3, which admits Grassmann(2)*
    # over Grassmann(2), and at 9^3 over F9
    F9 = ExtensionField(F3, (1, 0, 1), "j")
    for field, cap in ((F3, 3 ** 8), (F9, 9 ** 3)):
        algebras = [grassmann(0, field), grassmann(1, field), grassmann(2, field),
                    truncated_polynomial(1, field), split_pair(field)]
        for name, C in canonical_coalgebras(field):
            for R in algebras:
                (re, ro), (ce, co) = R.space.sdim, C.space.sdim
                if field.order ** (re * ce + ro * co) > cap:
                    continue
                assert grouplikes_over(C, R) == grouplike_oracle(C, R), (
                    field.describe(), name, R.space.labels)


def test_grouplikes_over_bound(monkeypatch):
    from superscheme import supercoalgebra
    C = dualize_algebra(grassmann(2, F3))
    R = grassmann(2, F3)
    monkeypatch.setattr(supercoalgebra, "DEFAULT_GROUPLIKE_BOUND", 10)
    with pytest.raises(SearchBoundExceeded, match=r"^81 candidates .*: 6561\) .* 10$"):
        grouplikes_over(C, R)
    monkeypatch.setattr(supercoalgebra, "DEFAULT_GROUPLIKE_BOUND", 81)
    assert len(grouplikes_over(C, R)) == 81


def test_tensor_coalgebra_examples():
    C = divided_power(1)
    K = unit_coalgebra(QQ)
    T = tensor_coalgebra(K, C)
    assert T.delta == C.delta and T.counit == C.counit
    KK = dualize_algebra(split_pair())
    T4 = tensor_coalgebra(KK, KK)
    assert len(_grouplikes(T4)) == 4
    GG = tensor_coalgebra(dualize_algebra(grassmann(1)),
                          dualize_algebra(grassmann(1)))
    assert validate_supercoalgebra(GG) == []


def test_tensor_coalgebra_is_dual_of_tensor_algebra():
    from superscheme.superalgebra import tensor_superalgebra
    for A, B in [(grassmann(1), grassmann(1)),
                 (grassmann(2), truncated_polynomial(1)),
                 (truncated_polynomial(1), grassmann(1))]:
        lhs = tensor_coalgebra(dualize_algebra(A), dualize_algebra(B))
        rhs = dualize_algebra(tensor_superalgebra(A, B))
        assert lhs.delta == rhs.delta and lhs.counit == rhs.counit


@pytest.mark.parametrize("F", [QQ, F3], ids=["Q", "F3"])
def test_tensor_coalgebra_is_transpose_of_dual_tensor_algebra(F, dense_view):
    # odd x odd: the Koszul sign of the twist shows on both sides
    from superscheme.superalgebra import tensor_superalgebra
    C, D = dualize_algebra(grassmann(1, F)), dualize_algebra(grassmann(2, F))
    T = tensor_coalgebra(C, D)
    A = tensor_superalgebra(dualize_coalgebra(C), dualize_coalgebra(D))
    n, nd = T.dim, D.dim
    T_delta, A_mul = dense_view.table(T), dense_view.table(A)
    C_delta, D_delta = dense_view.table(C), dense_view.table(D)
    for s in range(n):
        for a in range(n):
            for b in range(n):
                assert T_delta[s][a][b] == A_mul[a][b][s]
                (i, j), (k, l), (m, p) = divmod(s, nd), divmod(a, nd), divmod(b, nd)
                expected = F.mul(C_delta[i][k][m], D_delta[j][l][p])
                if C.parity(m) and D.parity(l):
                    expected = F.neg(expected)
                assert T_delta[s][a][b] == expected


@pytest.mark.parametrize("F", [QQ, F3, _F9], ids=["Q", "F3", "F9"])
def test_tensor_structure_matches_the_tensor_of_maps(F):
    """tensor_structure, one pass over the nonzero entries, equals
    (id (x) twist (x) id)(f (x) g) built from labelled maps, on every pair
    of canonical coalgebras and algebras, with Grassmann(3) and its dual:
    products of dimension at most 64."""
    from superscheme.superlinear import tensor_structure
    structures = [(X.space, X.delta) for _, X in canonical_coalgebras(F)]
    structures += [(X.space, X.cop) for _, X in canonical_algebras(F)]
    G3 = grassmann(3, F)
    structures += [(G3.space, G3.cop), (dualize_algebra(G3).space, G3.cop)]
    for V, f in structures:
        for W, g in structures:
            expected = tensor_structure_by_maps(GradedMap(V, V.tensor(V), f),
                                                GradedMap(W, W.tensor(W), g))
            assert tensor_structure(F, f, V.parities, g, W.parities) == expected.columns


def _sizes_of_built_spaces(monkeypatch):
    """The dimension of every SuperVectorSpace built from here on."""
    sizes = []
    init = SuperVectorSpace.__init__

    def counting(self, field, labels, parities):
        sizes.append(len(labels))
        init(self, field, labels, parities)

    monkeypatch.setattr(SuperVectorSpace, "__init__", counting)
    return sizes


@pytest.mark.parametrize("q", [3, 5])
def test_tensor_products_build_no_space_beyond_their_output(monkeypatch, q):
    """The tensor structure is index arithmetic: tensor_superalgebra builds
    only its output space, and tensor_coalgebra also the cached C (x) C and
    D (x) D of its factors' coproduct maps, here as large as its output."""
    from superscheme.superalgebra import tensor_superalgebra
    G, G2 = grassmann(q, F3), grassmann(2, F3)
    C = dualize_algebra(G)
    sizes = _sizes_of_built_spaces(monkeypatch)
    P = tensor_coalgebra(C, C)
    assert P.dim == 4 ** q and max(sizes) <= P.dim
    sizes.clear()
    A = tensor_superalgebra(G, G2)
    assert sizes == [A.dim]


def test_truncated_cofree_shapes():
    """The truncated cofree coalgebra on k^{e|o} is the graded dual of the
    monomial algebra k[T|th]/(degree > d)."""
    G = dualize_algebra(grassmann(1))
    assert dualize_algebra(monomial_superalgebra(QQ, 0, 1, 1)).delta == G.delta
    assert dualize_algebra(monomial_superalgebra(QQ, 1, 0, 3)).delta == \
        divided_power(3).delta


def _edited(dense_view, x, F, edits):
    """The columns of x with some [i][j][k] entries of its table replaced."""
    out = dense_view.table(x)
    for (i, j, k), v in edits.items():
        out[i][j][k] = F.from_int(v)
    return dense_view.columns("delta", out)



# The dual of Grassmann(2) with edited coproducts (and possibly another
# counit), and the complete problem list in the validator's order: parity
# with each odd counit value after its row, counit, coassociativity,
# cocommutativity.
BROKEN_GRASSMANN_2_DUAL = {
    "parity": (QQ, {(1, 0, 0): 1}, None,
               ['parity: delta(th1*) hits 1*(x)1*',
                'counit: (eps(x)id)delta(th1*) != th1*',
                'counit: (id(x)eps)delta(th1*) != th1*',
                'coassociativity fails on th1*th2* at (1*,1*,th2*)',
                'coassociativity fails on th1*th2* at (th2*,1*,1*)']),
    "odd-counit": (QQ, {}, (1, 1, 0, 0),
                   ['counit: nonzero on odd th1*',
                    'counit: (eps(x)id)delta(th1*) != th1*',
                    'counit: (id(x)eps)delta(th1*) != th1*',
                    'counit: (eps(x)id)delta(th1*th2*) != th1*th2*',
                    'counit: (id(x)eps)delta(th1*th2*) != th1*th2*']),
    "asymmetric": (F3, {(3, 1, 2): 2}, None,
                   ['cocommutativity: delta(th1*th2*) asymmetric at (th1*,th2*)',
                    'cocommutativity: delta(th1*th2*) asymmetric at (th2*,th1*)']),
    "f9": (_F9, {(2, 0, 0): 1, (3, 1, 2): 2}, None,
           ['parity: delta(th2*) hits 1*(x)1*',
            'counit: (eps(x)id)delta(th2*) != th2*',
            'counit: (id(x)eps)delta(th2*) != th2*',
            'coassociativity fails on th1*th2* at (1*,1*,th1*)',
            'coassociativity fails on th1*th2* at (th1*,1*,1*)',
            'cocommutativity: delta(th1*th2*) asymmetric at (th1*,th2*)',
            'cocommutativity: delta(th1*th2*) asymmetric at (th2*,th1*)']),
    "coassociativity": (F3, {(3, 0, 3): 2}, None,
                        ['counit: (eps(x)id)delta(th1*th2*) != th1*th2*',
                         'coassociativity fails on th1*th2* at (1*,1*,th1*th2*)',
                         'coassociativity fails on th1*th2* at (1*,th1*,th2*)',
                         'coassociativity fails on th1*th2* at (1*,th2*,th1*)',
                         'cocommutativity: delta(th1*th2*) asymmetric at (1*,th1*th2*)',
                         'cocommutativity: delta(th1*th2*) asymmetric at (th1*th2*,1*)']),
}


@pytest.mark.parametrize("case", list(BROKEN_GRASSMANN_2_DUAL))
def test_validate_supercoalgebra_full_problem_list(case, dense_view):
    F, edits, counit, expected = BROKEN_GRASSMANN_2_DUAL[case]
    C = dualize_algebra(grassmann(2, F))
    counit = C.counit if counit is None else sparse(F, [F.from_int(c) for c in counit])
    D = make_supercoalgebra(C.space, _edited(dense_view, C, F, edits), counit)
    assert validate_supercoalgebra(D) == expected


def test_the_validators_build_no_image_of_a_composed_map():
    """validate_superalgebra(Grassmann(8)) and validate_supercoalgebra of its
    dual each peak below 1.5 MB under tracemalloc: every axiom sums its two
    sides into one accumulator per column, so no image of a composed map is
    built, lowered or compared (comparing images peaked at ~2.6 MB)."""
    A = grassmann(8)
    for validate, x in ((validate_superalgebra, A), (validate_supercoalgebra, dualize_algebra(A))):
        tracemalloc.start()
        try:
            assert validate(x) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6, (validate.__name__, peak)

