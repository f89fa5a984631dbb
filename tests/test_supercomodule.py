from fractions import Fraction

import pytest

from superscheme.fields import ExtensionField, PrimeField, QQ
from superscheme.superlinear import (
    Matrix, Subspace, SuperVectorSpace, standard_space, unit_vec,
)
from superscheme.supercoalgebra import (
    base_change_coalgebra, coradical, coradical_filtration, dualize_algebra,
    dualize_coalgebra, irreducible_components, subcoalgebra_on, tensor_coalgebra,
)
from superscheme.formal_scheme import flatness
from superscheme.supercomodule import (
    FlatVerdict, NotConnected, cotensor, cotensor_kernel, flat_check, free_comodule,
    make_supercomodule, regular_comodule, subcoalgebra_comodule, trivial_comodule, validate_comodule,
)
from conftest import (
    GradedMap, _count_calls, base_change_comodule, check_dual_action_axioms, coproduct,
    cosocle_epi, dense, dense_columns, dense_cotensor_map, dense_matrix, dual_action,
    dual_action_of, exactness_probe, faithfulness_probe, flat_by_lifting,
    graded_map, is_comodule_morphism, kernel_by_rows, matrix_of, rank, sparse, tensor_map,
    transpose,
)
from superscheme.corpus import (
    Rng, canonical_coalgebras, divided_power, grassmann, grouplike_coalgebra, quotient_ring_algebra,
    seeded_random,
)

F3 = PrimeField(3)


def test_validate_examples():
    D = divided_power(2)
    assert validate_comodule(regular_comodule(D)) == []
    T = trivial_comodule(D, unit_vec(QQ, 0))
    assert validate_comodule(T) == []
    # coaction through a primitive fails the counit axiom: psi(m) = m (x) x1
    bad_psi = [[(1, QQ.one)]]
    M = make_supercomodule(standard_space(QQ, 1, 0, even_prefix="m"), D, bad_psi)
    assert any("counit" in p for p in validate_comodule(M))


def test_dual_action_sign_example():
    C = dualize_algebra(grassmann(1))
    M = regular_comodule(C)
    mats = dual_action(M)
    # (th*)* acts on th* and yields +1*
    assert (dense(QQ, 2, next(graded_map(mats[1]).images([unit_vec(QQ, 1)])))
            == (Fraction(1), Fraction(0)))
    # counit functional acts as the identity
    eps = dualize_coalgebra(C).unit
    assert dual_action_of(M, mats, eps) == Matrix.identity(QQ, 2)


def test_dual_action_axioms_on_corpus():
    for C in (divided_power(2), dualize_algebra(grassmann(2)),
              grouplike_coalgebra(2)):
        assert check_dual_action_axioms(regular_comodule(C)) == []
        T = trivial_comodule(C, unit_vec(QQ, 0))
        assert check_dual_action_axioms(T) == []


def test_trivial_coaction_factors_through_evaluation():
    C = grouplike_coalgebra(2)
    T = trivial_comodule(C, unit_vec(QQ, 1))
    mats = dual_action(T)
    # g1* acts as 0, g2* acts as 1 on the trivial comodule over g2
    assert dense(QQ, 1, next(graded_map(mats[0]).images([sparse(QQ, (QQ.one,))]))) == (QQ.zero,)
    assert dense(QQ, 1, next(graded_map(mats[1]).images([sparse(QQ, (QQ.one,))]))) == (QQ.one,)


def test_comodule_vs_module_morphisms_seeded():
    # a graded map is a comodule morphism iff it intertwines the dual action
    rng = Rng(23)
    C = divided_power(2)
    M = regular_comodule(C)
    N = free_comodule(standard_space(QQ, 1, 0, even_prefix="w"), C)
    matsM = dual_action(M)
    matsN = dual_action(N)
    candidates = []
    for _ in range(40):
        rows = [[QQ.from_int(rng.randint(3) - 1) for _ in range(M.dim)]
                for _ in range(N.dim)]
        candidates.append(GradedMap(M.space, N.space, dense_columns(QQ, rows, M.dim),
                                    None))
    # the canonical identification m -> w (x) m is a genuine morphism
    candidates.append(GradedMap(M.space, N.space, Matrix.identity(QQ, 3).rows, None))
    agree = 0
    for f in candidates:
        comod = is_comodule_morphism(f, M, N)
        module = all(matrix_of(f).mul(matsM[t]) == matsN[t].mul(matrix_of(f))
                     for t in range(C.dim))
        assert comod == module
        agree += comod
    assert agree > 0  # the family contains genuine morphisms


def test_cotensor_counit_isos():
    for C in (divided_power(2), dualize_algebra(grassmann(2))):
        M = regular_comodule(C)
        assert cotensor(M, M).dim == C.dim
        W = standard_space(QQ, 1, 1, even_prefix="w", odd_prefix="u")
        free = free_comodule(W, C)
        assert cotensor(free, M).dim == free.dim


def test_cotensor_opposite_components_vanish():
    C = grouplike_coalgebra(2)
    M1 = trivial_comodule(C, unit_vec(QQ, 0))
    M2 = trivial_comodule(C, unit_vec(QQ, 1))
    assert cotensor(M1, M2).dim == 0
    assert cotensor(M1, M1).dim == 1


def test_cotensor_dimension_duality():
    # dim(M box N) equals dim(M* (x)_{C*} N*) computed independently
    hosts = [divided_power(1), divided_power(2), dualize_algebra(grassmann(1)),
             dualize_algebra(grassmann(2)), grouplike_coalgebra(2)]
    for C in hosts:
        mods = [regular_comodule(C),
                trivial_comodule(C, _grouplike_of(C), 1, 0),
                free_comodule(standard_space(QQ, 1, 1, even_prefix="w",
                                             odd_prefix="u"), C)]
        for M in mods:
            for N in mods:
                assert cotensor(M, N).dim == _module_tensor_dim(M, N)


@pytest.mark.parametrize("F", [QQ, F3, ExtensionField(F3, (1, 0, 1), "j")],
                         ids=["Q", "F3", "F9"])
def test_cotensor_kernel_matches_the_dense_map(F):
    """cotensor_kernel builds the columns of psi (x) id - id (x) theta; its
    kernel is the row path's kernel (kernel_by_rows) of the same map filled
    densely row by row, on every pair of the regular, a free and the
    coradical comodule of every canonical coalgebra."""
    for _, C in canonical_coalgebras(F):
        mods = [regular_comodule(C), free_comodule(standard_space(F, 1, 1), C),
                subcoalgebra_comodule(C, coradical(C))]
        for M in mods:
            psi = transpose(Matrix(F, M.psi, M.dim * C.dim))
            for N in mods:
                theta = N.left_coaction()
                got = cotensor_kernel(M.psi, theta, M.space, N.space, C.dim)
                T = dense_cotensor_map(psi, transpose(Matrix(F, theta, C.dim * N.dim)),
                                       M.space, N.space, C.dim)
                assert got == kernel_by_rows(F, transpose(T).rows, T.nrows)


def _grouplike_of(C):
    return unit_vec(C.field, 0)


def _module_tensor_dim(M, N):
    """dim of M* (x)_{C*} N* from the balanced-tensor relations."""
    F = M.field
    C = M.coalgebra
    matsM = [transpose(m) for m in dual_action(M)]   # right action on M*
    matsN = [transpose(m) for m in dual_action(N)]
    nm, nn = M.dim, N.dim
    rels = []
    for t in range(C.dim):
        pt = C.parity(t)
        for u in range(nm):
            fu = unit_vec(F, u)
            fa = dense(F, nm, next(graded_map(matsM[t]).images([fu])))
            for v in range(nn):
                gv = unit_vec(F, v)
                # a.g = (-1)^{|a||g|} g.a
                ag = dense(F, nn, next(graded_map(matsN[t]).images([gv])))
                sign = F.neg(F.one) if (pt * N.space.parities[v]) % 2 else F.one
                rel = [F.zero] * (nm * nn)
                for i, c in enumerate(fa):
                    rel[i * nn + v] = F.add(rel[i * nn + v], c)
                for j, c in enumerate(ag):
                    rel[u * nn + j] = F.sub(rel[u * nn + j], F.mul(sign, c))
                rels.append(rel)
    return nm * nn - rank(dense_matrix(F, rels, nm * nn))


def test_socle_filtration_examples(socle_filtration):
    D = divided_power(3)
    M = regular_comodule(D)
    stages = socle_filtration(M)
    assert [s.dim for s in stages] == [1, 2, 3, 4]
    T = trivial_comodule(D, unit_vec(QQ, 0))
    assert [s.dim for s in socle_filtration(T)] == [1]
    G = dualize_algebra(grassmann(1))
    free = free_comodule(standard_space(QQ, 1, 0, even_prefix="w"), G)
    assert [s.dim for s in socle_filtration(free)] == [1, 2]


def test_flat_check_examples():
    D = divided_power(1)
    assert flat_check(regular_comodule(D)).rank == (1, 0)
    W = standard_space(QQ, 1, 1, even_prefix="w", odd_prefix="u")
    G = dualize_algebra(grassmann(1))
    v = flat_check(free_comodule(W, G))
    assert v.free and v.rank == (1, 1)
    T = trivial_comodule(D, unit_vec(QQ, 0))
    assert not flat_check(T).free


def test_flat_check_needs_connected():
    C = grouplike_coalgebra(2)
    with pytest.raises(NotConnected):
        flat_check(regular_comodule(C))


def test_flat_check_base_change_invariance():
    F9 = ExtensionField(F3, (1, 0, 1), "j")
    QI = ExtensionField(QQ, (Fraction(1), Fraction(0), Fraction(1)), "i")
    cases = []
    for field, ext in ((F3, F9), (QQ, QI)):
        C = dualize_algebra(grassmann(1, field))
        cases.append((C, regular_comodule(C), ext))
        cases.append((C, trivial_comodule(C, unit_vec(field, 0)), ext))
    for C, M, ext in cases:
        before = flat_check(M)
        C2 = base_change_coalgebra(C, ext)
        M2 = base_change_comodule(M, ext, C2)
        after = flat_check(M2)
        assert before.free == after.free
        if before.free:
            assert before.rank == after.rank


def test_exactness_probe_agrees_with_verdict():
    G = dualize_algebra(grassmann(1))
    reg = regular_comodule(G)
    quot, proj = cosocle_epi(reg)
    epis = [(proj, reg, quot)]
    assert exactness_probe(reg, epis)
    T = trivial_comodule(G, unit_vec(QQ, 0))
    assert not exactness_probe(T, epis)


def test_trivial_comodule_needs_a_grouplike():
    D = divided_power(2)
    for g in [unit_vec(QQ, 1), sparse(QQ, (QQ.zero,) * 3),
              sparse(QQ, (Fraction(2), QQ.zero, QQ.zero))]:
        with pytest.raises(ValueError, match="group-like"):
            trivial_comodule(D, g)


def test_faithfulness_probe_on_free():
    D = divided_power(1)
    free = regular_comodule(D)
    others = [regular_comodule(D), trivial_comodule(D, unit_vec(QQ, 0))]
    assert faithfulness_probe(free, others)


def test_quotient_comodule_and_cosocle():
    D = divided_power(2)
    reg = regular_comodule(D)
    quot, proj = cosocle_epi(reg)
    assert quot.dim == 1
    assert validate_comodule(quot) == []
    assert is_comodule_morphism(proj, reg, quot)


def test_seeded_comodules_match_labels():
    for seed in range(25):
        entry = seeded_random("comodule", seed)
        C, M = entry.payload
        verdict = flat_check(M)
        assert verdict.free == entry.expected["flat"], seed
        if "rank" in entry.expected:
            assert verdict.rank == tuple(entry.expected["rank"])


def _flat_outcome(check, M):
    """(free, rank) of a flatness verdict, or the NotConnected it raises."""
    try:
        verdict = check(M)
    except NotConnected as exc:
        return ("NotConnected", str(exc))
    return (verdict.free, verdict.rank)


def _residue_degree_two_comodules():
    """Regular, free of sdim 1|1 and coradical-filtration-stage comodules
    over (k[x]/(f))* (x) H, f irreducible of degree 2, whose residue field
    k[x]/(f) has degree 2 over k."""
    out = []
    for poly, fields in (((1, 0, 1), (QQ, F3)), ((2, 0, 1), (QQ, PrimeField(5)))):
        for F in fields:
            K = dualize_algebra(quotient_ring_algebra([F.from_int(c) for c in poly], F))
            for H in (divided_power(1, F), divided_power(2, F), dualize_algebra(grassmann(1, F))):
                C = tensor_coalgebra(K, H)
                W = standard_space(F, 1, 1, even_prefix="w", odd_prefix="u")
                out += [regular_comodule(C), free_comodule(W, C)]
                out += [subcoalgebra_comodule(C, stage)
                        for stage in coradical_filtration(C)]
    return out


def test_flat_check_matches_greedy_lifting(monkeypatch):
    """The Nakayama count agrees with lifting a minimal generating set and
    testing (C*)^r -> M* for bijectivity, on corpus, canonical, residue
    degree 2 and point comodules."""
    degree_two = _residue_degree_two_comodules()
    fields = (QQ, F3, PrimeField(5), _F9)
    comodules = degree_two + [seeded_random("comodule", seed, field=F).payload[1]
                              for F in fields for seed in range(60)]
    comodules += [regular_comodule(C) for F in fields for _, C in canonical_coalgebras(F)]
    points = _count_calls(monkeypatch, "supercomodule", "flat_check")
    for F in fields:
        for seed in range(40):
            flatness(seeded_random("morphism", seed, field=F).payload[0])
    comodules += [M for M, in points]
    outcomes = [_flat_outcome(flat_check, M) for M in comodules]
    assert outcomes == [_flat_outcome(flat_by_lifting, M) for M in comodules]
    kinds = [verdict for verdict, _ in outcomes]
    assert min(kinds.count(True), kinds.count(False), kinds.count("NotConnected")) > 0
    assert {(True, (1, 0)), (True, (1, 1))} <= set(outcomes[:len(degree_two)])


@pytest.mark.parametrize("F", [QQ, F3], ids=["Q", "F3"])
def test_flat_check_eliminations_do_not_grow_with_the_rank(F, monkeypatch):
    """The free rank is one count on M*/rad(C*)M*, so a free comodule of
    any rank costs flat_check the same eliminations.  Each rank gets a
    fresh C, whose radical flat_check finds again: C keeps its radical,
    which would hide that cost after the first rank."""
    calls = _count_calls(monkeypatch, "superlinear", "_rref_sparse")
    counts = []
    for r0, r1 in ((1, 0), (2, 0), (2, 1), (3, 2)):
        C = divided_power(2, F)
        M = free_comodule(standard_space(F, r0, r1, even_prefix="w", odd_prefix="u"), C)
        before = len(calls)
        assert flat_check(M) == FlatVerdict(True, (r0, r1))
        counts.append(len(calls) - before)
    assert len(set(counts)) == 1, counts


def _edited(dense_view, x, F, edits):
    """The columns of x with some [i][j][k] entries of its table replaced."""
    out = dense_view.table(x)
    for (i, j, k), v in edits.items():
        out[i][j][k] = F.from_int(v)
    return dense_view.columns("psi", out)


_F9 = ExtensionField(F3, (1, 0, 1), "j")

# The regular comodule of the dual of Grassmann(2) with edited coactions,
# and the complete problem list in the validator's order: parity, counit,
# coassociativity with integer coalgebra indices.
BROKEN_REGULAR_COMODULES = {
    "parity": (QQ, {(1, 0, 0): 1, (1, 3, 0): 1},
               ['parity: psi(th1*) is not homogeneous',
                'parity: psi(th1*) is not homogeneous',
                'counit: (id(x)eps)psi(th1*) != th1*',
                'coassociativity fails on th1* at (1*,0,0)',
                'coassociativity fails on th1* at (1*,3,0)',
                'coassociativity fails on th1* at (th1*,2,0)',
                'coassociativity fails on th1* at (th2*,1,0)',
                'coassociativity fails on th1* at (th1*th2*,0,0)',
                'coassociativity fails on th1*th2* at (1*,0,2)',
                'coassociativity fails on th1*th2* at (th1*th2*,0,2)']),
    "counit": (QQ, {(0, 0, 0): 2},
               ['counit: (id(x)eps)psi(1*) != 1*',
                'coassociativity fails on 1* at (1*,0,0)',
                'coassociativity fails on th1* at (1*,0,1)',
                'coassociativity fails on th2* at (1*,0,2)',
                'coassociativity fails on th1*th2* at (1*,0,3)']),
    "coassociativity": (F3, {(3, 1, 2): 2},
                        ['coassociativity fails on th1*th2* at (1*,1,2)']),
    "f9": (_F9, {(0, 1, 0): 1, (2, 1, 0): 1, (3, 0, 3): 2},
           ['parity: psi(1*) is not homogeneous',
            'counit: (id(x)eps)psi(1*) != 1*',
            'counit: (id(x)eps)psi(th2*) != th2*',
            'coassociativity fails on 1* at (1*,1,0)',
            'coassociativity fails on 1* at (th1*,0,0)',
            'coassociativity fails on th1* at (th1*,0,1)',
            'coassociativity fails on th2* at (1*,1,0)',
            'coassociativity fails on th2* at (th1*,0,0)',
            'coassociativity fails on th2* at (th1*,0,2)',
            'coassociativity fails on th1*th2* at (1*,1,2)',
            'coassociativity fails on th1*th2* at (1*,2,1)',
            'coassociativity fails on th1*th2* at (th1*,0,1)',
            'coassociativity fails on th1*th2* at (th1*,0,3)']),
}


@pytest.mark.parametrize("case", list(BROKEN_REGULAR_COMODULES))
def test_validate_comodule_full_problem_list(case, dense_view):
    F, edits, expected = BROKEN_REGULAR_COMODULES[case]
    C = dualize_algebra(grassmann(2, F))
    R = regular_comodule(C)
    M = make_supercomodule(R.space, C, _edited(dense_view, R, F, edits))
    assert validate_comodule(M) == expected


def test_validate_comodule_builds_no_tensor_space(monkeypatch):
    """The parity of a row of M (x) C is read off the two factors: checking
    a valid and a broken comodule builds no labelled tensor space."""
    C = dualize_algebra(grassmann(4, F3))
    broken = make_supercomodule(C.space, C, C.delta[1:] + ((),))
    calls = []
    tensor = SuperVectorSpace.tensor
    monkeypatch.setattr(SuperVectorSpace, "tensor",
                        lambda V, W: calls.append((V.dim, W.dim)) or tensor(V, W))
    assert validate_comodule(regular_comodule(C)) == []
    assert validate_comodule(broken) != []
    assert calls == []


@pytest.mark.parametrize("F", [QQ, F3], ids=["Q", "F3"])
def test_subcoalgebra_coordinates_match_solve(F, dense_view):
    """Structure constants of a subcoalgebra and of its comodule agree with
    solving against the inclusion, on a W whose echelon basis is not made
    of unit vectors: W (x) G1* for the component W of (k[x]/((x^2-1)^2))*
    at x = 1, inside (k[x]/((x^2-1)^2))* (x) Grassmann(1)*."""
    D = dualize_algebra(quotient_ring_algebra(
        [F.from_int(c) for c in (1, 0, -2, 0, 1)], F))
    G = dualize_algebra(grassmann(1, F))
    C = tensor_coalgebra(D, G)
    comp = irreducible_components(D)[0]
    W = Subspace.from_vectors(C.space, [
        sparse(F, [F.mul(a, b) for a in dense(F, D.dim, w)
                   for b in dense(F, G.dim, unit_vec(F, k))])
        for w in comp.subspace.basis() for k in range(G.dim)])
    assert any(len(row) > 1 for row in W.basis())
    M, sub = subcoalgebra_comodule(C, W), subcoalgebra_on(C, W)
    incl = GradedMap(sub.space, C.space, W.basis(), 0)
    pair = matrix_of(tensor_map(incl, incl))
    delta = coproduct(C)
    bigs = [next(delta.images([v])) for v in W.basis()]
    flat = [dense(F, W.dim * W.dim, x) for x in pair.solve(bigs)]
    slots = matrix_of(incl).solve([sparse(F, dense(F, C.dim * C.dim, big)[k::C.dim])
                                  for big in bigs for k in range(C.dim)])
    slots = [dense(F, W.dim, x) for x in slots]
    sub_delta, psi = dense_view.table(sub), dense_view.table(M)
    for i in range(W.dim):
        assert tuple(c for row in sub_delta[i] for c in row) == flat[i]
        sols = slots[i * C.dim:(i + 1) * C.dim]
        assert psi[i] == [[s[j] for s in sols] for j in range(W.dim)]


def _connected_by_flat_check(C):
    try:
        flat_check(regular_comodule(C))
    except NotConnected:
        return False
    return True


def test_flat_check_connected_iff_one_component():
    # C*/rad C* is a field exactly when C* has one local factor
    coalgebras = [dualize_algebra(quotient_ring_algebra([QQ.one, QQ.zero, QQ.one])),
                  grouplike_coalgebra(2)]
    for field in (QQ, F3):
        coalgebras += [C for _, C in canonical_coalgebras(field)]
        for seed in range(6):
            coalgebras.append(seeded_random("subspace-triple", seed, field=field).payload[0])
            coalgebras.append(seeded_random("comodule", seed, field=field).payload[0])
            f = seeded_random("morphism", seed, field=field).payload[0]
            coalgebras += [f.source, f.target]
    verdicts = [_connected_by_flat_check(C) for C in coalgebras]
    assert verdicts == [len(irreducible_components(C)) == 1 for C in coalgebras]
    assert verdicts[:2] == [True, False] and verdicts.count(False) >= 10
