import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from superscheme.fields import ExtensionField, PrimeField, QQ
from superscheme.superlinear import Matrix, SuperVectorSpace, linear_form, unit_vec
from superscheme.superalgebra import WordBasis, enumerate_homs, monomial_superalgebra
from superscheme.supercomodule import comodule_along, regular_comodule
from superscheme.supercoalgebra import (
    base_change_coalgebra, direct_sum_coalgebra, dualize_algebra, grouplikes_over,
    make_supercoalgebra, tensor_coalgebra, unit_coalgebra,
)
from superscheme import formal_scheme
from superscheme.formal_scheme import (
    FormalSuperscheme, SchemeMorphism, descent_check, fiber, fiber_product, finiteness,
    identity_morphism, is_closed_immersion, is_open_immersion, is_strictly_surjective,
    is_surjective, morphism_components, points,
)
from conftest import (
    GradedMap, _alternating_sum, _count_calls, _dense_tower, base_change_morphism,
    coequalizer_by_cotensor,
    bosonic_reduction_morphism, bosonic_reduction_scheme, bounded_degree_by_dual_action,
    compose, dense, dense_columns, dense_rows, fiber_by_cotensor, flatness_of,
    immersion_fiberwise_check, is_algebraic_at, map_of, matrix_of, point_map, sparse,
    transport_point, transport_point_inverse, truncation_tower,
)
from superscheme.corpus import (
    divided_power, grassmann, grouplike_coalgebra, quotient_ring_algebra,
    seeded_random, split_pair, truncated_polynomial,
)

F3 = PrimeField(3)
F5 = PrimeField(5)
F9 = ExtensionField(F3, (1, 0, 1), "j")
SRC = Path(__file__).resolve().parent.parent / "src"
TESTS = Path(__file__).resolve().parent


def _collapse(C):
    """Counit morphism Sp*(C) -> Sp*(k)."""
    F = C.field
    K = unit_coalgebra(F)
    return SchemeMorphism.finite(linear_form(C.dim, C.counit), C, K)


def test_points_examples():
    X = dualize_algebra(split_pair())
    assert len(points(X)) == 2
    Y = divided_power(3)
    pts = points(Y)
    assert len(pts) == 1 and pts[0].kappa.dim == 1
    Z = dualize_algebra(quotient_ring_algebra([F3.one, F3.zero, F3.one], F3))
    pz = points(Z)
    assert len(pz) == 1 and pz[0].kappa.dim == 2


def test_bosonic_reduction_scheme():
    G = dualize_algebra(grassmann(1))
    B, _ = bosonic_reduction_scheme(G)
    assert B.dim == 1
    assert len(points(B)) == len(points(G))
    D = divided_power(2)
    assert bosonic_reduction_scheme(D)[0].delta == D.delta
    G2 = dualize_algebra(grassmann(2))
    B2, _ = bosonic_reduction_scheme(G2)
    assert B2.dim == 1
    assert all(p == 0 for p in B2.space.parities)


def test_point_map_equals_bosonic_point_map():
    for seed in range(20):
        entry = seeded_random("morphism", seed)
        (f,) = entry.payload
        g = bosonic_reduction_morphism(f)
        assert point_map(f) == point_map(g), seed
        # the restricted map, read off the carrier's pivot columns, closes
        # the square incl_dst g = f incl_src
        _, incl_src = bosonic_reduction_scheme(f.source)
        _, incl_dst = bosonic_reduction_scheme(f.target)
        assert compose(incl_dst, map_of(g)).columns == compose(map_of(f), incl_src).columns, seed


def test_restrict_between_escape_is_named_under_python_O():
    """The escape check raises by itself, so python -O keeps it: the image of
    e2 under the identity leaves the carrier spanned by e1."""
    code = "\n".join([
        "from superscheme.fields import QQ",
        "from conftest import GradedMap, _restrict_between",
        "from superscheme.superlinear import standard_space, unit_vec",
        "V, W = standard_space(QQ, 2, 0), standard_space(QQ, 1, 0)",
        "ident = GradedMap.identity(V)",
        "_restrict_between(ident, ident,"
        " GradedMap(W, V, [unit_vec(QQ, 0)]))",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.strip().splitlines()[-1] == \
        "AssertionError: bosonic image escapes the target carrier"


def test_transport_point_example():
    D = truncated_polynomial(1)
    phi = GradedMap(D.space, D.space,
                    dense_columns(QQ, [[Fraction(1), Fraction(0)],
                                      [Fraction(0), Fraction(2)]]), 0)
    u = transport_point(phi, D, D)
    assert dense_rows(Matrix(QQ, u, 2)) == ((Fraction(1), Fraction(0)),
                                            (Fraction(0), Fraction(2)))
    back = transport_point_inverse(u, D, D)
    assert matrix_of(back).rows == u


def test_transport_rejects_non_morphism():
    D = truncated_polynomial(1)
    bad = GradedMap(D.space, D.space,
                    dense_columns(QQ, [[Fraction(1), Fraction(1)],
                                      [Fraction(0), Fraction(1)]]), 0)
    with pytest.raises(ValueError):
        transport_point(bad, D, D)


def test_transport_bijection_over_f3():
    # full enumerations correspond elementwise through transport
    pairs = [(grassmann(1, F3), grassmann(1, F3)),
             (grassmann(1, F3), truncated_polynomial(1, F3)),
             (truncated_polynomial(1, F3), grassmann(1, F3))]
    gens = {2: [unit_vec(F3, 1)]}
    for A, R in pairs:
        homs = [GradedMap(A.space, R.space, cols, 0)
                for cols in enumerate_homs(A, R, WordBasis(A, gens[A.dim]))]
        gls = grouplikes_over(dualize_algebra(A), R)
        assert len(homs) == len(gls)
        transported = sorted(transport_point(phi, A, R) for phi in homs)
        assert transported == sorted(gls)
        for phi in homs:
            u = transport_point(phi, A, R)
            assert transport_point_inverse(u, A, R).columns == phi.columns


def test_transport_grassmann_odd_products_over_f3():
    # phi(th1) phi(th2) != 0 for 48 of the 81 morphisms: the Koszul sign of
    # the dual shows
    G = grassmann(2, F3)
    homs = [GradedMap(G.space, G.space, cols, 0)
            for cols in enumerate_homs(G, G, WordBasis(G, [unit_vec(F3, 1), unit_vec(F3, 2)]))]
    assert len(homs) == 81
    for phi in homs:
        u = transport_point(phi, G, G)
        assert transport_point_inverse(u, G, G).columns == phi.columns


def test_transport_natural_in_target():
    # postcomposition with an algebra morphism commutes with transport
    A = grassmann(1, F3)
    R = grassmann(1, F3)
    Rp = grassmann(0, F3)
    rho = GradedMap(R.space, Rp.space, dense_columns(F3, [[1, 0]]), 0)
    for cols in enumerate_homs(A, R, WordBasis(A, [unit_vec(F3, 1)])):
        phi = GradedMap(A.space, R.space, cols, 0)
        u = dense_rows(Matrix(F3, transport_point(compose(rho, phi), A, Rp), A.dim))
        v = dense_rows(Matrix(F3, transport_point(phi, A, R), A.dim))
        pushed = tuple(dense(F3, Rp.dim, next(rho.images([sparse(F3, [row[i] for row in v])])))
                       for i in range(A.dim))
        pushed = tuple(tuple(pushed[i][a] for i in range(A.dim))
                       for a in range(Rp.dim))
        assert u == pushed


def test_immersion_predicates():
    KK = dualize_algebra(split_pair())
    K = unit_coalgebra(QQ)
    incl = SchemeMorphism.finite(dense_columns(QQ, [[Fraction(1)], [Fraction(0)]]), K, KK)
    xcomps, ycomps = morphism_components(incl)
    assert is_closed_immersion(incl) and is_open_immersion(incl, ycomps)
    assert not is_surjective(incl, xcomps, ycomps)
    G = dualize_algebra(grassmann(1))
    j = SchemeMorphism.finite(dense_columns(QQ, [[Fraction(1)], [Fraction(0)]]), K, G)
    assert is_closed_immersion(j) and not is_open_immersion(j, morphism_components(j)[1])
    ident = identity_morphism(KK)
    xcomps, ycomps = morphism_components(ident)
    assert is_closed_immersion(ident) and is_open_immersion(ident, ycomps)
    assert is_surjective(ident, xcomps, ycomps) and is_strictly_surjective(ident)


def test_strict_surjectivity_implies_surjectivity():
    for seed in range(20):
        (f,) = seeded_random("morphism", seed).payload
        if is_strictly_surjective(f):
            assert is_surjective(f, *morphism_components(f))


def test_product_coproduct():
    KK = dualize_algebra(split_pair())
    P = tensor_coalgebra(KK, KK)
    assert len(points(P)) == 4
    S = direct_sum_coalgebra([KK, divided_power(1)])
    assert len(points(S)) == 3
    assert S.dim == 4


def test_fiber_product_over_self():
    # A box_A A along identities is A again
    D = divided_power(2)
    ident = identity_morphism(D)
    W = fiber_product(ident, ident)
    assert W.dim == D.dim
    assert len(points(W)) == 1


def test_fiber_examples():
    KK = dualize_algebra(split_pair())
    ident = identity_morphism(KK)
    pts = points(KK)
    fib = fiber(ident, pts[0])
    assert fib.dim == 1
    col = _collapse(KK)
    fib2 = fiber(col, points(col.target)[0])
    assert fib2.dim == 2
    K = unit_coalgebra(QQ)
    incl = SchemeMorphism.finite(dense_columns(QQ, [[Fraction(1)], [Fraction(0)]]), K, KK)
    assert fiber(incl, pts[1]).dim == 0


def test_immersion_fiberwise():
    KK = dualize_algebra(split_pair())
    K = unit_coalgebra(QQ)
    incl = SchemeMorphism.finite(dense_columns(QQ, [[Fraction(1)], [Fraction(0)]]), K, KK)
    ok, total, fiberwise = immersion_fiberwise_check(incl)
    assert ok and total and fiberwise
    col = _collapse(KK)
    ok2, total2, fiberwise2 = immersion_fiberwise_check(col)
    assert ok2 and not total2 and not fiberwise2


def test_base_change_splits_components():
    C = dualize_algebra(quotient_ring_algebra([F3.one, F3.zero, F3.one], F3))
    assert len(points(C)) == 1
    assert len(points(base_change_coalgebra(C, F9))) == 2
    CQ = dualize_algebra(quotient_ring_algebra([Fraction(1), Fraction(0),
                                                Fraction(1)]))
    QI = ExtensionField(QQ, (Fraction(1), Fraction(0), Fraction(1)), "i")
    assert len(points(base_change_coalgebra(CQ, QI))) == 2


def test_flat_morphism_examples():
    KK = dualize_algebra(split_pair())
    col = _collapse(KK)
    assert flatness_of(col).faithfully_flat
    K = unit_coalgebra(QQ)
    incl = SchemeMorphism.finite(dense_columns(QQ, [[Fraction(1)], [Fraction(0)]]), K, KK)
    assert flatness_of(incl).flat and not flatness_of(incl).faithfully_flat
    D = divided_power(1)
    pt = SchemeMorphism.finite(dense_columns(QQ, [[Fraction(1)], [Fraction(0)]]), K, D)
    assert not flatness_of(pt).flat


def test_faithfully_flat_equivalences_on_seeds():
    for seed in range(25):
        (f,) = seeded_random("morphism", seed).payload
        verdict = flatness_of(f)
        flat, ff = verdict.flat, verdict.faithfully_flat
        surj = is_surjective(f, *morphism_components(f))
        assert ff == (flat and surj)
        if flat:
            assert surj == is_strictly_surjective(f)


def test_flat_invariant_under_base_change():
    for seed in range(12):
        (f,) = seeded_random("morphism", seed, field=F3).payload
        f9 = base_change_morphism(f, F9)
        before, after = flatness_of(f), flatness_of(f9)
        assert before.flat == after.flat, seed
        assert before.faithfully_flat == after.faithfully_flat, seed


def test_descent_examples():
    KK = dualize_algebra(split_pair())
    rep = descent_check(_collapse(KK), depth=3)
    assert rep.passed
    ident = identity_morphism(divided_power(1))
    assert descent_check(ident, depth=2).passed
    K = unit_coalgebra(QQ)
    incl = SchemeMorphism.finite(dense_columns(QQ, [[Fraction(1)], [Fraction(0)]]), K, KK)
    rep3 = descent_check(incl, depth=2)
    assert not rep3.passed
    assert ("kappa(1)", 0) in rep3.failures


@pytest.mark.parametrize("field", [QQ, F3, F9], ids=["Q", "F3", "F9"])
def test_descent_degrees_match_dense_tower(descent_oracle, field):
    """The sparse tower's exactness per (comodule, degree) equals that of
    the dense reference tower on seeded morphisms of every label."""
    labels = set()
    for seed in range(10):
        entry = seeded_random("morphism", seed, field=field)
        (f,) = entry.payload
        labels.add(entry.expected["label"])
        for depth in (1, 2, 3):
            assert descent_check(f, depth).degrees == descent_oracle(f, depth), \
                (seed, depth)
    assert labels == {"counit-collapse", "identity", "component-inclusion",
                      "point-into-fat"}


@pytest.mark.parametrize("make, per_level", [(_collapse, False),
                                              (identity_morphism, True)],
                         ids=["collapse", "identity"])
def test_tower_reads_coordinates_twice_per_level_above_the_first(monkeypatch, make, per_level):
    """Over B = A level n solves one cotensor kernel and reads its coaction,
    and for n > 1 its boundary d_(n-1) (x) id_A, back in one call each: a
    tower of depth d makes d kernels and 2d - 1 reads.  Over B = k a level
    is the whole tensor T_(n-1) (x) A, so the tower makes neither."""
    f = make(dualize_algebra(grassmann(2, F3)))
    A, B = f.source, f.target
    reg = comodule_along(regular_comodule(A), f.columns, B)
    reads = _count_calls(monkeypatch, "formal_scheme", "_read_coordinates")
    kernels = _count_calls(monkeypatch, "formal_scheme", "cotensor_kernel")
    for depth in range(1, 5):
        reads.clear()
        kernels.clear()
        levels = formal_scheme._iterated_cotensor_tower(regular_comodule(B), A, reg, depth)
        assert len(levels) == depth + 1
        assert len(reads) == (2 * depth - 1 if per_level else 0), depth
        assert len(kernels) == (depth if per_level else 0), depth


@pytest.mark.parametrize("field", [QQ, F3, F9], ids=["Q", "F3", "F9"])
def test_point_target_tower_matches_dense_tower(field):
    """Over B = k the carriers of the dense reference tower are the identity
    in RREF, so every level of the tower equals the dense one exactly: its
    dim, its parities and its boundary columns, the dense boundary taken as
    the alternating sum of its faces."""
    collapses = 0
    for seed in range(10):
        entry = seeded_random("morphism", seed, field=field)
        if entry.expected["label"] != "counit-collapse":
            continue
        collapses += 1
        (f,) = entry.payload
        A, B = f.source, f.target
        assert B.dim == 1
        reg = comodule_along(regular_comodule(A), f.columns, B)
        M = regular_comodule(B)
        for depth in (1, 2, 3):
            levels = formal_scheme._iterated_cotensor_tower(M, A, reg, depth)
            reference = _dense_tower(M, A, reg, depth)
            assert len(levels) == len(reference) == depth + 1
            for n, (level, (space, _, carrier, faces)) in enumerate(zip(levels, reference)):
                assert level.dim == space.dim, (seed, depth, n)
                assert level.parities == space.parities, (seed, depth, n)
                if n == 0:
                    continue
                assert carrier.matrix.rows == tuple(unit_vec(field, s)
                                                    for s in range(space.dim))
                assert list(level.boundary) == list(_alternating_sum(faces).columns), \
                    (seed, depth, n)
    assert collapses > 0


def test_complex_exactness_is_checked_under_python_O():
    """The boundary check raises by itself, so python -O keeps it: the
    boundaries d1 = 1 and d2 = -1 give d1 o d2 = -1 on one-dimensional levels."""
    code = "\n".join([
        "from superscheme.fields import QQ",
        "from superscheme.formal_scheme import _TowerLevel, _complex_exactness",
        "one = QQ.one",
        "levels = [_TowerLevel(QQ, (0,), None),",
        "          _TowerLevel(QQ, (0,), None, None, [[(0, one)]]),",
        "          _TowerLevel(QQ, (0,), None, None, [[(0, -one)]])]",
        "_complex_exactness(levels, 1)",
    ])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.strip().splitlines()[-1] == \
        "AssertionError: boundary maps do not compose to zero"


def test_point_image_check_holds_under_python_O():
    """The point-image check raises by itself, so python -O keeps it: a map
    sending the group-like e1 of k x k to e1 + e2 meets no component."""
    code = "\n".join([
        "from fractions import Fraction",
        "from superscheme.corpus import split_pair",
        "from superscheme.formal_scheme import SchemeMorphism, morphism_components, point_images",
        "from superscheme.supercoalgebra import dualize_algebra",
        "C = dualize_algebra(split_pair())",
        "one, zero = Fraction(1), Fraction(0)",
        "g = SchemeMorphism(C, C, (((0, one), (1, one)), ((1, one),)))",
        "point_images(g, *morphism_components(g))",
    ])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.strip().splitlines()[-1] == \
        "AssertionError: component image must meet exactly one component"


def test_finite_morphism_degrees():
    KK = dualize_algebra(split_pair())
    assert finiteness(identity_morphism(KK)) == (1, 1)
    assert finiteness(_collapse(KK)) == (2, 2)
    assert finiteness(_collapse(dualize_algebra(grassmann(1)))) == (2, 1)


def test_fiber_over_non_rational_point():
    # the target's unique point has residue field F9; kappa(y) is 2-dimensional
    C9 = dualize_algebra(quotient_ring_algebra([F3.one, F3.zero, F3.one], F3))
    ident = identity_morphism(C9)
    y = points(C9)[0]
    assert y.kappa.dim == 2
    fib = fiber(ident, y)
    assert fib.dim == 2
    assert flatness_of(ident).faithfully_flat


def test_descent_over_extension_residue_target():
    # faithfully flat cover of a scheme whose point has residue field F9
    from superscheme.superalgebra import tensor_superalgebra
    B = quotient_ring_algebra([F3.one, F3.zero, F3.one], F3)
    C9 = dualize_algebra(B)
    A = tensor_superalgebra(B, grassmann(1, F3))
    CA = dualize_algebra(A)
    rows = [[F3.zero] * CA.dim for _ in range(C9.dim)]
    for i in range(2):
        rows[i][i * 2] = F3.one  # dual of the inclusion b -> b (x) 1
    f = SchemeMorphism.finite(dense_columns(F3, rows, CA.dim), CA, C9)
    assert flatness_of(f).faithfully_flat
    assert descent_check(f, depth=2).passed
    assert descent_check(identity_morphism(C9), depth=2).passed


def test_finite_bounded_degree_deeper():
    colD2 = _collapse(divided_power(2))
    assert finiteness(colD2)[1] == 3  # dual module k[x]/(x^3) over k
    colG2 = _collapse(dualize_algebra(grassmann(2)))
    assert finiteness(colG2)[1] == 2  # sdim 2|2 needs two mixed slots


def _projection(C, D):
    """The product projection Sp*(C (x) D) -> Sp*(C), id (x) eps_D."""
    P = tensor_coalgebra(C, D)
    eps = linear_form(D.dim, D.counit)
    cols = [tuple((i, c) for _, c in eps[j]) for i in range(C.dim) for j in range(D.dim)]
    return SchemeMorphism.finite(cols, P, C)


def _fiber_corpus():
    """The first 40 seeded morphisms over Q, F3, F5 and F9; and over Q, F3
    and F5 the identity and the counit collapse of eight small coalgebras,
    one of them (k[x]/(q))* for an irreducible quadratic q, whose point has a
    residue field of degree 2, and six product projections."""
    out = [seeded_random("morphism", seed, field=F).payload[0]
           for F in (QQ, F3, F5, F9) for seed in range(40)]
    for F, quadratic in ((QQ, (1, 0, 1)), (F3, (1, 0, 1)), (F5, (2, 0, 1))):
        KK, R = (dualize_algebra(split_pair(F)),
                 dualize_algebra(quotient_ring_algebra([F.from_int(c) for c in quadratic], F)))
        D1, D2 = divided_power(1, F), divided_power(2, F)
        G1 = dualize_algebra(grassmann(1, F))
        for C in (KK, R, D1, D2, divided_power(3, F), G1, dualize_algebra(grassmann(2, F)),
                  grouplike_coalgebra(2, F)):
            out += [identity_morphism(C), _collapse(C)]
        out += [_projection(C, D) for C, D in ((D1, G1), (G1, D2), (KK, R), (R, G1), (R, D1),
                                               (D2, KK))]
    return out


def test_fibers_and_degrees_match_the_cotensor_and_dual_action_references():
    """fiber reads X_y as the preimage psi^-1(A (x) kappa(y)), and the
    degree is its sdim over the residue degree; the references build X_y as
    the fiber product with the inclusion of {y}, and the degree from the
    action of B* on A*."""
    morphisms = _fiber_corpus()
    assert len(morphisms) == 226
    residue_degrees = set()
    for f in morphisms:
        dims = []
        for y in points(f.target):
            got = fiber(f, y).space.sdim
            assert got == fiber_by_cotensor(f, y).space.sdim
            dims.append(sum(got))
            residue_degrees.add(y.component.degree)
        assert finiteness(f) == (max(dims, default=0), bounded_degree_by_dual_action(f))
    assert residue_degrees == {1, 2}


def test_coequalizer_is_read_off_degrees_0_and_1_of_o_y(descent_oracle):
    """descent_check reads the coequalizer A box_B A => A -> B off the
    complex of O(Y) in degrees 0 and 1, at every depth; the reference
    builds A box_B A and its two projections itself.  passed is the
    coequalizer and the exactness of every reported degree, which the dense
    tower decides apart."""
    morphisms = _fiber_corpus()
    assert len(morphisms) == 226
    verdicts = set()
    for f in morphisms:
        coeq = coequalizer_by_cotensor(f)
        dense = descent_oracle(f, 2)
        for depth in (0, 1, 2):
            rep = descent_check(f, depth)
            assert rep.coequalizer_ok == coeq, (f, depth)
            exact = all(ok for results in dense for _, ok in results[:depth + 1])
            assert rep.passed == (coeq and exact), (f, depth)
        verdicts.add((coeq, dense[0][0][1]))
    # maps that are not onto fail at degree 0, and some onto maps pass
    assert verdicts == {(True, True), (False, False)}


def test_finiteness_of_an_empty_source():
    """A = 0 has empty fibers: every fiber dimension and the degree are 0."""
    empty = make_supercoalgebra(SuperVectorSpace(F3, (), ()), (), ())
    for B in (divided_power(2, F3), dualize_algebra(split_pair(F3))):
        f = SchemeMorphism.finite([], empty, B)
        assert finiteness(f) == (0, 0)
        assert bounded_degree_by_dual_action(f) == 0
        assert [fiber(f, y).dim for y in points(B)] == [0] * len(points(B))
        assert immersion_fiberwise_check(f) == (True, True, True)


def test_algebraicity_divided_power_tower():
    from superscheme.ksdim import presentation
    P = presentation(1, 0, [])
    tower = truncation_tower(P, 3)   # D1 < D2 < D3
    verdict = is_algebraic_at(tower, 0)
    assert verdict.stabilized
    assert verdict.stage_dims[-1] == 2


def test_algebraicity_finite_level_trivial():
    X = FormalSuperscheme((divided_power(2),))
    assert is_algebraic_at(X, 0).stabilized


def test_empty_scheme_predicates():
    empty = make_supercoalgebra(SuperVectorSpace(QQ, (), ()), (), ())
    assert points(empty) == []
    KK = dualize_algebra(split_pair())
    f = SchemeMorphism.finite(dense_columns(QQ, [[], []], 0), empty, KK)
    assert flatness_of(f).flat                      # vacuously, no points
    assert not flatness_of(f).faithfully_flat       # misses every point
    assert is_closed_immersion(f)
    assert fiber(f, points(KK)[0]).dim == 0


def test_product_of_finite_level_algebraic_everywhere():
    P = tensor_coalgebra(dualize_algebra(split_pair()), divided_power(2))
    for p in points(P):
        assert is_algebraic_at(FormalSuperscheme((P,)), p.index).stabilized


def test_algebraicity_growing_cofree_tower():
    # first-jet coalgebras on k^{d|0}: A_1 grows with level
    levels = []
    for d in (1, 2, 3):
        levels.append(dualize_algebra(monomial_superalgebra(QQ, d, 0, 1)))
    maps = []
    for small, big in zip(levels, levels[1:]):
        big_index = {l: i for i, l in enumerate(big.space.labels)}
        rows = [[QQ.zero] * small.dim for _ in range(big.dim)]
        for j, lab in enumerate(small.space.labels):
            rows[big_index[lab]][j] = QQ.one
        maps.append(SchemeMorphism(small, big, dense_columns(QQ, rows, small.dim)))
    tower = FormalSuperscheme.tower(levels, maps)
    verdict = is_algebraic_at(tower, 0)
    assert not verdict.stabilized
    assert verdict.stage_dims == (2, 3, 4)
