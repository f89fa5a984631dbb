import pytest

from superscheme.superalgebra import ksdim_finite
from superscheme.ksdim import (
    SubsetBoundExceeded, even_kdim, fiber_presentation, is_split_projection,
    ksdim, odd_annihilator_dim, oracle_annihilator_dim, presentation,
    presentation_morphism, theorem_fiber_dimension_check, theorem_product_dimension_check,
)
from superscheme.corpus import Rng, seeded_random
from conftest import presentation_truncation, truncation_tower


def test_even_kdim_examples():
    assert even_kdim(presentation(3, 0, [])) == 3
    assert even_kdim(presentation(2, 0, [((1, 1), set())])) == 1
    assert even_kdim(presentation(2, 0, [((1, 0), set())])) == 1


def test_even_kdim_monotone_under_new_generators():
    rng = Rng(3)
    for _ in range(30):
        p = 1 + rng.randint(3)
        gens = []
        P = presentation(p, 0, gens)
        last = even_kdim(P)
        for _ in range(3):
            exps = tuple(rng.randint(2) for _ in range(p))
            if sum(exps) == 0:
                continue
            gens.append((exps, frozenset()))
            cur = even_kdim(presentation(p, 0, gens))
            assert cur <= last
            last = cur


def test_odd_annihilator_examples():
    P = presentation(1, 2, [((1,), {0})])
    assert odd_annihilator_dim(P, {1}) == 1
    assert odd_annihilator_dim(P, {0}) == 0
    L = presentation(0, 2, [])
    assert odd_annihilator_dim(L, {0, 1}) == 0
    # bottom value when theta^I is inside the ideal
    Q = presentation(0, 2, [((), {0})])
    assert odd_annihilator_dim(Q, {0}) is None


def test_ksdim_table():
    assert ksdim(presentation(0, 1, [])) == (0, 1)
    assert ksdim(presentation(0, 2, [])) == (0, 2)
    assert ksdim(presentation(0, 5, [])) == (0, 5)
    assert ksdim(presentation(1, 2, [((1,), {0})])) == (1, 1)
    assert ksdim(presentation(2, 1, [((1, 1), set())])) == (1, 1)


def test_oracle_agrees_on_table_and_seeds():
    table = [presentation(0, 3, []),
             presentation(1, 2, [((1,), {0})]),
             presentation(2, 1, [((1, 1), set())])]
    for P in table:
        assert oracle_annihilator_dim(P) == even_kdim(P)
        import itertools
        for size in range(P.q + 1):
            for I in itertools.combinations(range(P.q), size):
                assert oracle_annihilator_dim(P, frozenset(I)) == \
                    odd_annihilator_dim(P, frozenset(I))
    for seed in range(15):
        (P,) = seeded_random("presentation", seed).payload
        assert oracle_annihilator_dim(P) == even_kdim(P), seed


def test_ksdim_odd_bounded_by_q():
    for seed in range(20):
        (P,) = seeded_random("presentation", seed).payload
        val = ksdim(P)
        assert val[1] <= P.q


def test_subset_bound(monkeypatch):
    from superscheme import ksdim as ksdim_module
    P = presentation(0, 13, [])
    with pytest.raises(SubsetBoundExceeded):
        ksdim(P)
    monkeypatch.setattr(ksdim_module, "DEFAULT_ODD_SEARCH_BOUND", 13)
    assert ksdim(P) == (0, 13)


def test_fiber_dimension_split_projection():
    S = presentation(2, 2, [])
    Y = presentation(1, 1, [])
    f = presentation_morphism(S, Y, [((1, 0), set())], [((0, 0), {0})])
    assert is_split_projection(f)
    rep = theorem_fiber_dimension_check(f)
    assert rep.sdim_source == (2, 2)
    assert rep.sdim_target == (1, 1)
    assert rep.sdim_fiber == (1, 1)
    assert rep.even_inequality and rep.even_equality
    assert rep.target_regular and rep.odd_inequality
    assert rep.passed


def test_fiber_dimension_closed_immersion():
    X = presentation(2, 0, [((1, 0), set())])
    Y = presentation(2, 0, [])
    f = presentation_morphism(X, Y, [((1, 0), set()), ((0, 1), set())], [])
    rep = theorem_fiber_dimension_check(f)
    assert rep.sdim_source == (1, 0)
    assert rep.sdim_target == (2, 0)
    assert rep.sdim_fiber == (0, 0)
    assert rep.even_inequality
    assert rep.flat_mode is None


def test_fiber_dimension_identity():
    P = presentation(1, 2, [((1,), {0})])
    f = presentation_morphism(P, P, [((1,), set())],
                              [((0,), {0}), ((0,), {1})])
    rep = theorem_fiber_dimension_check(f)
    assert rep.even_equality and rep.flat_mode == "split-projection"
    assert rep.sdim_fiber == (0, 0)


def test_fiber_dimension_asserted_flat_echo():
    X = presentation(1, 0, [])
    f = presentation_morphism(X, X, [((1,), set())], [])
    rep = theorem_fiber_dimension_check(f, assert_flat=True)
    assert rep.flat_mode == "split-projection"  # structural detection wins
    Y = presentation(1, 0, [])
    g = presentation_morphism(X, Y, [((2,), set())], [])
    rep2 = theorem_fiber_dimension_check(g, assert_flat=True)
    assert rep2.flat_mode == "asserted"
    assert any("asserted" in n for n in rep2.notes)


def test_even_inequality_on_seeds():
    for seed in range(100):
        (f,) = seeded_random("presentation-morphism", seed).payload
        rep = theorem_fiber_dimension_check(f)
        assert rep.even_inequality, seed
        if rep.flat_mode == "split-projection":
            assert rep.even_equality, seed


def test_product_dimension_examples():
    L1 = presentation(0, 1, [])
    r = theorem_product_dimension_check(L1, L1)
    assert r.sdim_product == (0, 2) and r.even_additive and r.odd_superadditive
    T = presentation(1, 0, [])
    r2 = theorem_product_dimension_check(T, T)
    assert r2.sdim_product == (2, 0)
    point = presentation(0, 0, [])
    P = presentation(1, 2, [((1,), {0})])
    r3 = theorem_product_dimension_check(P, point)
    assert r3.sdim_product == ksdim(P)


def test_product_additivity_on_seeds():
    for seed in range(20):
        (P,) = seeded_random("presentation", seed).payload
        (Q,) = seeded_random("presentation", seed + 1000).payload
        r = theorem_product_dimension_check(P, Q)
        assert r.even_additive and r.odd_superadditive, seed


def test_truncation_examples():
    L2 = presentation(0, 2, [])
    A = presentation_truncation(L2, 2)
    assert A.dim == 4
    assert ksdim_finite(A) == ksdim(L2)
    T = presentation_truncation(presentation(1, 0, []), 2)
    assert T.dim == 3  # 1, T, T^2
    d1 = presentation_truncation(presentation(1, 1, [((1,), {0})]), 1)
    assert d1.dim == 3  # 1, T, th


def test_truncation_tower_and_stabilization():
    L2 = presentation(0, 2, [])
    tower = truncation_tower(L2, 4)
    assert tower.validate() == []
    dims = [c.dim for c in tower.levels]
    assert dims == [3, 4, 4, 4]  # stabilizes at d = q = 2
    stable = presentation_truncation(L2, 2)
    assert ksdim_finite(stable) == ksdim(L2)


def test_fiber_presentation_shape():
    S = presentation(2, 1, [])
    Y = presentation(1, 0, [])
    f = presentation_morphism(S, Y, [((1, 1), set())], [])
    fib = fiber_presentation(f)
    assert ((1, 1), frozenset()) in fib.generators


def test_presentation_pruning_and_validation():
    P = presentation(2, 1, [((1, 0), set()), ((1, 1), set()), ((1, 0), {0})])
    assert P.generators == (((1, 0), frozenset()),)
    with pytest.raises(ValueError):
        presentation(1, 0, [((0,), set())])  # unit generator
    with pytest.raises(ValueError):
        presentation_morphism(P, presentation(1, 0, []),
                              [((0, 0), {0})], [])  # odd-degree even image
