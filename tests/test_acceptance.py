"""Acceptance suite: one test per criterion, exact checks, one summary line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

from fractions import Fraction

from superscheme.fields import ExtensionField, PrimeField, QQ
from superscheme.superlinear import Subspace, linear_form, standard_space, unit_vec
from superscheme.superalgebra import (
    WordBasis, enumerate_homs, ksdim_finite, make_superalgebra, validate_superalgebra,
)
from superscheme.supercoalgebra import (
    SuperCoalgebra, base_change_coalgebra, coradical, coradical_filtration, dual_radical, dualize_algebra,
    dualize_coalgebra, grouplikes, grouplikes_over, irreducible_components,
    unit_coalgebra, validate_supercoalgebra, wedge,
)
from superscheme.supercomodule import (
    flat_check, free_comodule, make_supercomodule, regular_comodule, trivial_comodule,
    validate_comodule,
)
from superscheme.formal_scheme import (
    SchemeMorphism, descent_check, identity_morphism, points,
)
from superscheme.ksdim import (
    even_kdim, ksdim, odd_annihilator_dim, oracle_annihilator_dim,
    presentation, theorem_fiber_dimension_check,
    theorem_product_dimension_check, is_split_projection,
)
from superscheme.corpus import (
    Rng, canonical_algebras, canonical_coalgebras, divided_power, grassmann,
    grouplike_coalgebra, quotient_ring_algebra, seeded_random, split_pair,
    truncated_polynomial,
)
from superscheme.cli import run as cli_run
from superscheme.objfile import serialize_document
from conftest import (
    GradedMap, base_change_comodule, bosonic_reduction_morphism, cosocle_epi, dense_columns,
    dual_action, dual_action_of, even_part, exactness_probe, graded_map, is_subcoalgebra,
    odd_part, point_map,
    presentation_truncation, quotient_comodule, sparse, transport_point,
    transport_point_inverse,
)

F3 = PrimeField(3)
F5 = PrimeField(5)


def _report(n, label, ok):
    print(f"ACCEPTANCE {n} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} ({label}) failed"


# -------------------------------------------------------------------- 1

def test_criterion_1_axiom_suites(dense_view):
    ok = True
    for field in (QQ, F3):
        for name, A in canonical_algebras(field):
            ok &= validate_superalgebra(A) == []
        for name, C in canonical_coalgebras(field):
            ok &= validate_supercoalgebra(C) == []
    hosts = [divided_power(2), dualize_algebra(grassmann(2))]
    for C in hosts:
        ok &= validate_comodule(regular_comodule(C)) == []
        ok &= validate_comodule(trivial_comodule(C, unit_vec(QQ, 0))) == []
    # flipped Koszul sign: the violated instance is named
    G = grassmann(2)
    mul = dense_view.table(G)
    mul[2][1] = list(mul[1][2])
    bad = make_superalgebra(G.space, dense_view.columns("mul", mul), G.unit)
    problems = validate_superalgebra(bad)
    ok &= any("supercommutativity" in p and "th2" in p for p in problems)
    # broken counit: named instance
    D = divided_power(1)
    badc = SuperCoalgebra(D.space, D.delta, sparse(QQ, (QQ.zero, QQ.zero)))
    problems_c = validate_supercoalgebra(badc)
    ok &= any("counit" in p for p in problems_c)
    # broken comodule coaction
    bad_psi = [[(1, QQ.one)]]     # psi(m) = m (x) x1
    badm = make_supercomodule(standard_space(QQ, 1, 0, even_prefix="m"),
                              divided_power(2), bad_psi)
    ok &= any("counit" in p for p in validate_comodule(badm))
    _report(1, "axiom suites", ok)


# -------------------------------------------------------------------- 2

def _hom_grouplike_pairs(field):
    lam1 = grassmann(1, field)
    lam2 = grassmann(2, field)
    dual_num = truncated_polynomial(1, field)
    kk = split_pair(field)
    k = grassmann(0, field)
    th = unit_vec(field, 1)
    x = unit_vec(field, 1)
    e1 = unit_vec(field, 0)
    th12 = [unit_vec(field, 1), unit_vec(field, 2)]
    pairs = [
        (lam1, [th], k), (lam1, [th], lam1), (lam1, [th], dual_num),
        (dual_num, [x], k), (dual_num, [x], dual_num),
        (kk, [e1], k), (lam1, [th], kk),
    ]
    if field.order == 3:
        pairs.append((lam2, th12, lam1))
        pairs.append((kk, [e1], kk))
    return pairs


def test_criterion_2_duality_equivalence(grouplike_oracle):
    ok = True
    for field in (QQ, F3):
        for name, A in canonical_algebras(field):
            if A.dim > 8:
                continue
            back = dualize_coalgebra(dualize_algebra(A))
            ok &= back.cop == A.cop and back.unit == A.unit
    pair_count = 0
    for field in (F3, F5):
        for A, gens, R in _hom_grouplike_pairs(field):
            # every hit is even: its columns make a map of parity 0
            homs = [GradedMap(A.space, R.space, cols, 0) for cols in enumerate_homs(A, R, WordBasis(A, gens))]
            gls = grouplike_oracle(dualize_algebra(A), R)
            ok &= len(homs) == len(gls)
            transported = sorted(transport_point(phi, A, R) for phi in homs)
            ok &= transported == sorted(gls)
            for phi in homs:
                u = transport_point(phi, A, R)
                ok &= transport_point_inverse(u, A, R).columns == phi.columns
            pair_count += 1
    ok &= pair_count >= 10
    _report(2, f"duality equivalence ({pair_count} pairs)", ok)


# -------------------------------------------------------------------- 3

def _binomial(n, k):
    from math import comb
    return comb(n, k)


def test_criterion_3_coradical_machinery():
    ok = True
    for d in range(1, 5):
        C = divided_power(d)
        dims = [s.dim for s in coradical_filtration(C, dual_radical(C))]
        ok &= dims == list(range(1, d + 2))
    for q in range(1, 4):
        C = dualize_algebra(grassmann(q))
        dims = [s.dim for s in coradical_filtration(C, dual_radical(C))]
        expected = [sum(_binomial(q, i) for i in range(n + 1))
                    for n in range(q + 1)]
        ok &= dims == expected
    for field in (QQ, F3):
        for name, C in canonical_coalgebras(field):
            chain = coradical_filtration(C, dual_radical(C))
            ok &= len(chain) <= C.dim + 1
            ok &= chain[-1] == Subspace.full(C.space)
    _report(3, "coradical machinery", ok)


# -------------------------------------------------------------------- 4

def test_criterion_4_wedge_algebra():
    ok = True
    triples = 0
    seed = 0
    while triples < 100:
        entry = seeded_random("subspace-triple", seed)
        seed += 1
        C, (X, Y, Z) = entry.payload
        if C.dim > 6:
            continue
        triples += 1
        left = wedge(C, wedge(C, X, Y), Z)
        right = wedge(C, X, wedge(C, Y, Z))
        ok &= left == right
        XY = wedge(C, X, Y)
        ok &= wedge(C, X.sum(Z), Y).contains_subspace(XY)
        ok &= wedge(C, X, Y.sum(Z)).contains_subspace(XY)
    # {0} wedge B = B on 20 subcoalgebra instances
    instances = 0
    hosts = [divided_power(3), dualize_algebra(grassmann(2)),
             grouplike_coalgebra(3), divided_power(2),
             dualize_algebra(grassmann(1))]
    for C in hosts:
        zero = Subspace.zero(C.space)
        cands = [c.subspace for c in irreducible_components(C, dual_radical(C))]
        cands += coradical_filtration(C, dual_radical(C))
        cands.append(Subspace.full(C.space))
        for B in cands:
            if not is_subcoalgebra(C, B):
                continue
            ok &= wedge(C, zero, B) == B
            instances += 1
    ok &= instances >= 20
    _report(4, f"wedge algebra (100 triples, {instances} subcoalgebras)", ok)


# -------------------------------------------------------------------- 5

def test_criterion_5_components_and_grouplikes():
    ok = True
    for field in (QQ, F3):
        for name, C in canonical_coalgebras(field):
            comps = irreducible_components(C, dual_radical(C))
            ok &= sum(c.subspace.dim for c in comps) == C.dim
            total = Subspace.zero(C.space)
            for c in comps:
                ok &= total.intersect(c.subspace).dim == 0
                total = total.sum(c.subspace)
            ok &= total == Subspace.full(C.space)
    for field in (F3, F5):
        k_alg = grassmann(0, field)
        for name, C in canonical_coalgebras(field):
            if field.order ** sum(1 for m in range(C.dim)
                                  if C.parity(m) == 0) > 3 ** 12:
                continue
            rad = dual_radical(C)
            structural = grouplikes(C, irreducible_components(C, rad), coradical(C, rad))
            brute = grouplikes_over(C, k_alg)
            ok &= len(structural) == len(brute)
            ok &= sorted(structural) == sorted(tuple(u[0]) for u in brute)
    C9 = dualize_algebra(quotient_ring_algebra([F3.one, F3.zero, F3.one], F3))
    ok &= len(points(C9)) == 1
    F9 = ExtensionField(F3, (1, 0, 1), "j")
    ok &= len(points(base_change_coalgebra(C9, F9))) == 2
    _report(5, "components and group-likes", ok)


# -------------------------------------------------------------------- 6

def _seeded_epis(C, count=10):
    """Comodule epimorphisms over C: the cosocle collapse plus seeded
    quotients of free comodules by dual-action-closed subcomodules."""
    rng = Rng(97)
    out = []
    reg = regular_comodule(C)
    quot, proj = cosocle_epi(reg)
    out.append((proj, reg, quot))
    F = C.field
    while len(out) < count:
        r0 = 1 + rng.randint(2)
        W = standard_space(F, r0, rng.randint(2), even_prefix="w",
                           odd_prefix="u")
        P = free_comodule(W, C)
        vec = sparse(F, [F.from_int(rng.randint(5) - 2) for _ in range(P.dim)])
        mats = dual_action(P)
        closure = [vec] + [next(graded_map(dual_action_of(P, mats, [(t, F.one)])).images([vec]))
                           for t in range(C.dim)]
        sub = Subspace.from_vectors(P.space, closure)
        prev = None
        while prev != sub:
            prev = sub
            vecs = list(sub.basis())
            for v in sub.basis():
                for t in range(C.dim):
                    vecs.append(next(graded_map(dual_action_of(P, mats, [(t, F.one)])).images([v])))
            sub = Subspace.from_vectors(P.space, vecs)
        if not sub.is_graded():
            even = even_part(sub)
            odd = odd_part(sub)
            sub = even.sum(odd)  # graded subcomodule generated inside
            vecs = list(sub.basis())
            for v in sub.basis():
                for t in range(C.dim):
                    vecs.append(next(graded_map(dual_action_of(P, mats, [(t, F.one)])).images([v])))
            sub2 = Subspace.from_vectors(P.space, vecs)
            if sub2 != sub:
                continue
        try:
            Q, pr = quotient_comodule(P, sub)
        except ValueError:
            continue
        out.append((pr, P, Q))
    return out


def test_criterion_6_flatness():
    ok = True
    QI = ExtensionField(QQ, (Fraction(1), Fraction(0), Fraction(1)), "i")
    epis_cache = {}
    checked = 0
    for seed in range(50):
        entry = seeded_random("comodule", seed)
        C, M = entry.payload
        verdict = flat_check(M)
        ok &= verdict.free == entry.expected["flat"]
        if "rank" in entry.expected:
            ok &= verdict.rank == tuple(entry.expected["rank"])
        # quadratic base change preserves the verdict
        C2 = base_change_coalgebra(C, QI)
        M2 = base_change_comodule(M, QI, C2)
        after = flat_check(M2)
        ok &= after.free == verdict.free
        if verdict.free:
            ok &= after.rank == verdict.rank
        key = C.space.labels
        if key not in epis_cache:
            epis_cache[key] = _seeded_epis(C, 10)
        probe = exactness_probe(M, epis_cache[key])
        ok &= probe == verdict.free
        checked += 1
    ok &= checked == 50
    _report(6, "flatness (50 seeded comodules)", ok)


# -------------------------------------------------------------------- 7

def _collapse_morphism(C):
    F = C.field
    K = unit_coalgebra(F)
    return SchemeMorphism.finite(linear_form(C.dim, C.counit), C, K)


def _component_inclusion(C, extra):
    from superscheme.supercoalgebra import direct_sum_coalgebra
    F = C.field
    big = direct_sum_coalgebra([C, extra])
    rows = [[F.zero] * C.dim for _ in range(big.dim)]
    for i in range(C.dim):
        rows[i][i] = F.one
    return SchemeMorphism.finite(dense_columns(F, rows, C.dim), C, big)


def test_criterion_7_descent():
    ok = True
    faithfully_flat = [
        ("two-group-like collapse", _collapse_morphism(grouplike_coalgebra(2))),
        ("three-group-like collapse", _collapse_morphism(grouplike_coalgebra(3))),
        ("D1 collapse", _collapse_morphism(divided_power(1))),
        ("D2 collapse", _collapse_morphism(divided_power(2))),
        ("odd-line collapse", _collapse_morphism(dualize_algebra(grassmann(1)))),
        ("identity on D1", identity_morphism(divided_power(1))),
    ]
    for name, f in faithfully_flat:
        rep = descent_check(f, depth=3)
        ok &= rep.passed
        ok &= [deg for deg, _ in rep.degrees[0]] == [0, 1, 2, 3]
    controls = [
        ("point into two group-likes",
         _component_inclusion(unit_coalgebra(QQ), grouplike_coalgebra(1))),
        ("D1 into D1 + point",
         _component_inclusion(divided_power(1), grouplike_coalgebra(1))),
        ("odd line into line + two points",
         _component_inclusion(dualize_algebra(grassmann(1)),
                              grouplike_coalgebra(2))),
    ]
    for name, f in controls:
        rep = descent_check(f, depth=2)
        ok &= not rep.passed
        ok &= len(rep.failures) > 0
        ok &= all(isinstance(c, str) and isinstance(d, int)
                  for c, d in rep.failures)
    _report(7, "descent (6 faithfully flat, 3 controls)", ok)


# -------------------------------------------------------------------- 8

def test_criterion_8_superdimension():
    ok = True
    table = [
        (presentation(0, 1, []), (0, 1)),
        (presentation(0, 2, []), (0, 2)),
        (presentation(0, 4, []), (0, 4)),
        (presentation(1, 2, [((1,), {0})]), (1, 1)),
        (presentation(2, 1, [((1, 1), set())]), (1, 1)),
    ]
    import itertools
    for P, expected in table:
        ok &= ksdim(P) == expected
        ok &= oracle_annihilator_dim(P) == even_kdim(P)
        for size in range(P.q + 1):
            for I in itertools.combinations(range(P.q), size):
                ok &= oracle_annihilator_dim(P, frozenset(I)) == \
                    odd_annihilator_dim(P, frozenset(I))
    splits = 0
    for seed in range(100):
        (f,) = seeded_random("presentation-morphism", seed).payload
        rep = theorem_fiber_dimension_check(f)
        ok &= rep.even_inequality
        if is_split_projection(f):
            ok &= rep.even_equality
            splits += 1
    ok &= splits > 0
    for seed in range(20):
        (P,) = seeded_random("presentation", seed).payload
        (Q,) = seeded_random("presentation", seed + 500).payload
        rep = theorem_product_dimension_check(P, Q)
        ok &= rep.even_additive and rep.odd_superadditive
    _report(8, f"superdimension (table + 100 morphisms, {splits} splits)", ok)


# -------------------------------------------------------------------- 9

def test_criterion_9_cross_module():
    ok = True
    purely_odd = [presentation(0, q, []) for q in (1, 2, 3)]
    purely_odd.append(presentation(0, 3, [((), {0, 1})]))
    purely_odd.append(presentation(0, 2, [((), {0})]))
    for P in purely_odd:
        stable = presentation_truncation(P, max(P.q, 1))
        ok &= ksdim_finite(stable) == ksdim(P)
    for seed in range(20):
        (f,) = seeded_random("morphism", seed).payload
        ok &= point_map(f) == point_map(bosonic_reduction_morphism(f))
    _report(9, "cross-module consistency", ok)


# -------------------------------------------------------------------- 10

def test_criterion_10_cli_determinism(tmp_path):
    files = {}

    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        files[name] = str(p)

    write("g2.alg", serialize_document(QQ, [("G2", grassmann(2))]))
    write("d3.coalg", serialize_document(QQ, [("D3", divided_power(3))]))
    GK = grouplike_coalgebra(2)
    K = unit_coalgebra(QQ)
    f = SchemeMorphism.finite(dense_columns(QQ, [[QQ.one, QQ.one]]), GK, K)
    write("collapse.mor", serialize_document(
        QQ, [("GK", GK), ("K", K), ("f", f, None, ("GK", "K"))]))
    write("pres.pres", "superscheme 1\nfield Q\nobject presentation P\n"
          "  evar T\n  ovar a b\n  gen T a\nend\n")
    write("gdual3.coalg", serialize_document(
        F3, [("C", dualize_algebra(grassmann(1, F3)))]))
    write("r3.alg", serialize_document(F3, [("R", grassmann(1, F3))]))
    from superscheme.supercomodule import regular_comodule as _reg
    D1 = divided_power(1)
    write("mods.comod", serialize_document(QQ, [
        ("C", D1), ("M", _reg(D1), "C"),
        ("N", trivial_comodule(D1, unit_vec(QQ, 0)), "C")]))
    write("twopres.pres", "superscheme 1\nfield Q\n"
          "object presentation P\n  ovar a\nend\n"
          "object presentation Q2\n  ovar b\nend\n")
    write("presmor.pres", "superscheme 1\nfield Q\n"
          "object presentation S\n  evar T U\n  ovar a\nend\n"
          "object presentation Y\n  evar T\n  ovar a\nend\n"
          "object presmorphism proj from S to Y\n"
          "  eimage T T\n  oimage a a\nend\n")
    write("f9.coalg", serialize_document(
        F3, [("C", dualize_algebra(
            quotient_ring_algebra([F3.one, F3.zero, F3.one], F3)))]))
    commands = [
        ["validate", files["g2.alg"]],
        ["dual", files["g2.alg"]],
        ["radical", files["g2.alg"]],
        ["coradical", files["d3.coalg"]],
        ["filtration", files["d3.coalg"]],
        ["components", files["f9.coalg"]],
        ["grouplikes", files["d3.coalg"]],
        ["grouplikes", files["gdual3.coalg"], "--over", files["r3.alg"]],
        ["cotensor", files["mods.comod"]],
        ["product", files["collapse.mor"]],
        ["coproduct", files["collapse.mor"]],
        ["fiber-product", files["collapse.mor"], "--f", "f", "--g", "f"],
        ["fiber", files["collapse.mor"], "--morphism", "f", "--point", "0"],
        ["base-change", files["f9.coalg"], "--minpoly", "1 0 1", "--name", "j"],
        ["immersion-check", files["collapse.mor"]],
        ["flat-check", files["collapse.mor"]],
        ["flat-check", files["mods.comod"]],
        ["descent-check", files["collapse.mor"], "--depth", "2"],
        ["finite-check", files["collapse.mor"]],
        ["ksdim", files["pres.pres"], "--oracle"],
        ["check-thm513", files["presmor.pres"]],
        ["check-thm515", files["twopres.pres"]],
        ["corpus", "--seed", "4"],
        ["report-all", files["collapse.mor"]],
    ]
    ok = True
    for argv in commands:
        outs = [cli_run(argv) for _ in range(3)]
        ok &= outs[0] == outs[1] == outs[2]
    _report(10, f"CLI determinism ({len(commands)} commands x 3 runs)", ok)
