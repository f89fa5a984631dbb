"""Deterministic generators for canonical and seeded test objects.

Expected properties of seeded objects are derived from the construction,
never from the algorithms under test, so corpus entries double as oracles.
The PRNG is splitmix64 with the standard constants; draws map to ranges by
remainder, so streams are reproducible across platforms and languages.
"""

from __future__ import annotations

from .fields import QQ
from .superlinear import (
    Record, Subspace, SuperVectorSpace, linear_form, standard_space, unit_vec, vector,
)
from .superalgebra import make_superalgebra, monomial_superalgebra, tensor_superalgebra
from .supercoalgebra import (
    dualize_algebra, make_supercoalgebra, tensor_coalgebra, unit_coalgebra,
)
from .supercomodule import free_comodule, trivial_comodule
from .formal_scheme import SchemeMorphism, identity_morphism
from .ksdim import (
    _substitute_monomial, presentation, presentation_morphism, product_presentation,
)


_MASK = (1 << 64) - 1


class Rng:
    """splitmix64; next() = mix(state += 0x9E3779B97F4A7C15)."""

    def __init__(self, seed):
        self.state = seed & _MASK

    def next64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, n):
        return self.next64() % n

    def scalar(self, F, spread=5):
        """A small scalar: integers -2..2 over Q, any element over F_p."""
        if F.is_finite():
            elems = sorted(F.elements(), key=F.sort_key)
            return elems[self.randint(len(elems))]
        return F.from_int(self.randint(spread) - 2)


# ---------------------------------------------------------------------------
# canonical objects

def grassmann(q, field=QQ):
    """Exterior algebra on q odd generators th1..thq, basis ordered by
    (degree, lex): the monomial superalgebra with no even variable and no
    generator, truncated in degree q."""
    return monomial_superalgebra(field, 0, q, q)


def divided_power(d, field=QQ):
    """Coalgebra on g, x_1..x_d with delta(x_n) = sum x_i (x) x_{n-i}."""
    F = field
    labels = tuple(["g"] + [f"x{i}" for i in range(1, d + 1)])
    space = SuperVectorSpace(F, labels, (0,) * (d + 1))
    delta = [[(i * (d + 1) + n - i, F.one) for i in range(n + 1)] for n in range(d + 1)]
    return make_supercoalgebra(space, delta, [(0, F.one)])


def grouplike_coalgebra(n, field=QQ):
    """n group-like basis vectors; the dual algebra is k^n."""
    if n < 1:
        raise ValueError("need at least one group-like")
    F = field
    space = SuperVectorSpace(F, tuple(f"g{i + 1}" for i in range(n)), (0,) * n)
    delta = [[(i * n + i, F.one)] for i in range(n)]
    return make_supercoalgebra(space, delta, [(i, F.one) for i in range(n)])


def truncated_polynomial(d, field=QQ):
    """k[x]/(x^{d+1}) with x even; the dual is the divided power coalgebra."""
    return monomial_superalgebra(field, 1, 0, d, even_names=("x",))


def quotient_ring_algebra(poly, field=QQ):
    """k[x]/(f) for a monic polynomial f, as a purely even superalgebra."""
    from .fields import poly_divmod, poly_trim
    F = field
    f = poly_trim(F, poly)
    deg = len(f) - 1
    labels = tuple("1" if i == 0 else ("x" if i == 1 else f"x^{i}") for i in range(deg))
    space = SuperVectorSpace(F, labels, (0,) * deg)
    cop = [[] for _ in range(deg)]
    for i in range(deg):
        for j in range(deg):
            prod = [F.zero] * (i + j + 1)
            prod[i + j] = F.one
            _, rem = poly_divmod(F, prod, f)
            for k, c in enumerate(rem):
                cop[k].append((i * deg + j, c))
    return make_superalgebra(space, cop, [(0, F.one)])


def split_pair(field=QQ):
    """k x k with idempotent basis."""
    F = field
    space = SuperVectorSpace(F, ("e1", "e2"), (0, 0))
    cop = [[(0, F.one)], [(3, F.one)]]
    return make_superalgebra(space, cop, [(0, F.one), (1, F.one)])


def canonical_algebras(field=QQ):
    """The named algebra corpus over the given field: the example catalogue
    the test suites sweep, and the only caller of truncated_polynomial and
    split_pair in the package.  No command reads it."""
    F = field
    out = [
        ("k", grassmann(0, F)),
        ("Grassmann(1)", grassmann(1, F)),
        ("Grassmann(2)", grassmann(2, F)),
        ("k[x]/(x^2)", truncated_polynomial(1, F)),
        ("k[x]/(x^3)", truncated_polynomial(2, F)),
        ("k x k", split_pair(F)),
        ("k[x]/(x^2-1)", quotient_ring_algebra([F.neg(F.one), F.zero, F.one], F)),
        ("k[x]/(x^2+1)", quotient_ring_algebra([F.one, F.zero, F.one], F)),
        ("k[x]/(x^2) (x) Grassmann(1)",
         tensor_superalgebra(truncated_polynomial(1, F), grassmann(1, F))),
    ]
    return out


def canonical_coalgebras(field=QQ):
    """The named coalgebra corpus over the given field; the seeded comodules
    and morphisms draw their connected hosts from it by name."""
    F = field
    out = [
        ("k", unit_coalgebra(F)),
        ("D1", divided_power(1, F)),
        ("D2", divided_power(2, F)),
        ("D3", divided_power(3, F)),
        ("G2", grouplike_coalgebra(2, F)),
        ("G3", grouplike_coalgebra(3, F)),
        ("Grassmann(1)*", dualize_algebra(grassmann(1, F))),
        ("Grassmann(2)*", dualize_algebra(grassmann(2, F))),
        ("(k[x]/(x^2+1))*", dualize_algebra(
            quotient_ring_algebra([F.one, F.zero, F.one], F))),
        ("D1 (x) Grassmann(1)*",
         tensor_coalgebra(divided_power(1, F), dualize_algebra(grassmann(1, F)))),
    ]
    return out


# ---------------------------------------------------------------------------
# seeded generators

class CorpusEntry(Record):
    kind: str
    seed: int
    payload: tuple
    expected: dict
    provenance: str


def _seeded_subspace(rng, space, rows):
    F = space.field
    vecs = []
    for _ in range(rows):
        vecs.append(vector(F, enumerate([rng.scalar(F) for _ in range(space.dim)])))
    return Subspace.from_vectors(space, vecs)


_CONNECTED_HOSTS = ("D1", "D2", "Grassmann(1)*", "Grassmann(2)*")


def _connected_coalgebra(rng, field):
    name = _CONNECTED_HOSTS[rng.randint(len(_CONNECTED_HOSTS))]
    return name, dict(canonical_coalgebras(field))[name]


def seeded_random(kind, seed, field=QQ, **bounds):
    """Reproducible corpus entry of a documented kind.

    Kinds: subspace-triple, comodule, morphism, presentation,
    presentation-morphism.  Labels in `expected` derive from the
    construction only.
    """
    rng = Rng(seed)
    if kind == "subspace-triple":
        dim = bounds.get("dim", 4 + rng.randint(3))
        hosts = [divided_power(dim - 1, field),
                 dualize_algebra(grassmann(2, field)),
                 grouplike_coalgebra(dim, field)]
        C = hosts[rng.randint(len(hosts))]
        triple = tuple(_seeded_subspace(rng, C.space, 1 + rng.randint(C.dim))
                       for _ in range(3))
        return CorpusEntry(kind, seed, (C, triple),
                           {"ambient_dim": C.dim},
                           "random spans over a fixed host coalgebra")
    if kind == "comodule":
        name, C = _connected_coalgebra(rng, field)
        shape = rng.randint(3)
        if shape == 0:
            r0, r1 = 1 + rng.randint(2), rng.randint(2)
            W = standard_space(field, r0, r1, even_prefix="w", odd_prefix="u")
            M = free_comodule(W, C)
            return CorpusEntry(kind, seed, (C, M),
                               {"flat": True, "rank": (r0, r1), "host": name},
                               f"free comodule W (x) {name} by construction")
        g = _host_grouplike(C)
        d0, d1 = 1 + rng.randint(2), rng.randint(2)
        M = trivial_comodule(C, g, d0, d1)
        if shape == 2 and C.dim > 1:
            M = _direct_sum_comodule(free_comodule(
                standard_space(field, 1, 0, even_prefix="w"), C), M)
        return CorpusEntry(kind, seed, (C, M),
                           {"flat": False, "host": name},
                           "trivial summand cannot be free over a local dual "
                           "of dimension > 1")
    if kind == "morphism":
        return _seeded_morphism(rng, seed, field)
    if kind == "presentation":
        p = rng.randint(bounds.get("max_p", 3) + 1)
        q = rng.randint(bounds.get("max_q", 3) + 1)
        gens = []
        for _ in range(rng.randint(3)):
            exps = tuple(rng.randint(2) for _ in range(p))
            odds = frozenset(j for j in range(q) if rng.randint(2))
            if sum(exps) + len(odds) > 0:
                gens.append((exps, odds))
        P = presentation(p, q, gens, field)
        return CorpusEntry(kind, seed, (P,), {"p": p, "q": q},
                           "random monomial generators")
    if kind == "presentation-morphism":
        return _seeded_presentation_morphism(rng, seed, field)
    raise ValueError(f"unknown corpus kind {kind!r}")


def _host_grouplike(C):
    """The canonical group-like of the connected hosts (counit-normalized
    first basis vector, which is group-like for every host in the list)."""
    return unit_vec(C.field, 0)


def _direct_sum_comodule(M, N):
    from .supercomodule import make_supercomodule
    if M.coalgebra != N.coalgebra:
        raise AssertionError("direct sum of comodules over different coalgebras")
    # m_j (x) c_k keeps its index j * nc + k; n_j (x) c_k moves to (dim M + j) * nc + k
    shift = M.dim * M.coalgebra.dim
    psi = M.psi + tuple([(jk + shift, c) for jk, c in col] for col in N.psi)
    return make_supercomodule(M.space.direct_sum(N.space), M.coalgebra, psi)


def _seeded_morphism(rng, seed, field):
    """Scheme morphisms with construction-derived flatness labels."""
    F = field
    shape = rng.randint(4)
    name, C = _connected_coalgebra(rng, F)
    if shape == 0:
        # collapse to the point: O(X) -> k by the counit
        K = unit_coalgebra(F)
        f = SchemeMorphism.finite(linear_form(C.dim, C.counit), C, K)
        return CorpusEntry("morphism", seed, (f,),
                           {"flat": True, "faithfully_flat": True,
                            "label": "counit-collapse"},
                           f"counit collapse of {name}: the source is the "
                           "free rank-1 comodule over the point")
    if shape == 1:
        f = identity_morphism(C)
        return CorpusEntry("morphism", seed, (f,),
                           {"flat": True, "faithfully_flat": True,
                            "label": "identity"},
                           "identity morphism")
    if shape == 2:
        # inclusion of one summand into a two-component coproduct
        other = grouplike_coalgebra(1 + rng.randint(2), F)
        from .supercoalgebra import direct_sum_coalgebra
        big = direct_sum_coalgebra([C, other])
        f = SchemeMorphism.finite([unit_vec(F, i) for i in range(C.dim)], C, big)
        return CorpusEntry("morphism", seed, (f,),
                           {"flat": True, "faithfully_flat": False,
                            "label": "component-inclusion"},
                           "summand inclusion misses the other components")
    # point into a fat connected scheme: not flat when dim > 1
    K = unit_coalgebra(F)
    g = _host_grouplike(C)
    f = SchemeMorphism.finite([g], K, C)
    return CorpusEntry("morphism", seed, (f,),
                       {"flat": False, "faithfully_flat": False,
                        "label": "point-into-fat"},
                       f"the point is the residue comodule of {name}, whose "
                       "dual is not free over the local dual algebra")


def _seeded_presentation_morphism(rng, seed, field):
    shape = rng.randint(3)
    p1, q1 = 1 + rng.randint(2), rng.randint(3)
    gens1 = []
    for _ in range(rng.randint(3)):
        exps = tuple(rng.randint(2) for _ in range(p1))
        odds = frozenset(j for j in range(q1) if rng.randint(2))
        if sum(exps) + len(odds) > 0:
            gens1.append((exps, odds))
    R = presentation(p1, q1, gens1, field)
    if shape == 0:
        # split projection from a product onto the left factor
        p2, q2 = rng.randint(3), rng.randint(2)
        gens2 = []
        for _ in range(rng.randint(2)):
            exps = tuple(rng.randint(2) for _ in range(p2))
            odds = frozenset(j for j in range(q2) if rng.randint(2))
            if sum(exps) + len(odds) > 0:
                gens2.append((exps, odds))
        Rp = presentation(p2, q2, gens2, field)
        S = product_presentation(R, Rp)
        even_images = [(tuple(1 if k == i else 0 for k in range(S.p)), frozenset())
                       for i in range(R.p)]
        odd_images = [((0,) * S.p, frozenset([j])) for j in range(R.q)]
        f = presentation_morphism(S, R, even_images, odd_images)
        return CorpusEntry("presentation-morphism", seed, (f,),
                           {"split": True, "label": "split-projection"},
                           "projection of an explicit product presentation")
    if shape == 1:
        # closed immersion: enlarge the ideal, keep the variables
        extra = []
        for _ in range(1 + rng.randint(2)):
            exps = tuple(rng.randint(2) for _ in range(R.p))
            odds = frozenset(j for j in range(R.q) if rng.randint(3) == 0)
            if sum(exps) + len(odds) > 0:
                extra.append((exps, odds))
        X = presentation(R.p, R.q, list(R.generators) + extra, field)
        even_images = [(tuple(1 if k == i else 0 for k in range(R.p)), frozenset())
                       for i in range(R.p)]
        odd_images = [((0,) * R.p, frozenset([j])) for j in range(R.q)]
        f = presentation_morphism(X, R, even_images, odd_images)
        # identity substitutions are split exactly when no generator was added
        return CorpusEntry("presentation-morphism", seed, (f,),
                           {"split": X.generators == R.generators,
                            "label": "closed-immersion"},
                           "identity substitution into a larger ideal")
    # monomial substitution with target generators filtered by membership
    monos = _nonunit_monomials(rng, R, count=R.p + R.q + 2)
    even_images = []
    odd_images = []
    for _ in range(1 + rng.randint(2)):
        even_images.append(_pick_parity_monomial(rng, monos, 0, R))
    odd_count = rng.randint(3) if any(len(o) % 2 == 1 for _, o in monos) else 0
    for _ in range(odd_count):
        odd_images.append(_pick_parity_monomial(rng, monos, 1, R))
    tp, tq = len(even_images), len(odd_images)
    candidates = []
    for _ in range(3):
        exps = tuple(rng.randint(2) for _ in range(tp))
        odds = frozenset(j for j in range(tq) if rng.randint(3) == 0)
        if sum(exps) + len(odds) > 0:
            candidates.append((exps, odds))
    images = [_substitute_monomial(R.p, even_images, odd_images, g) for g in candidates]
    kept = [g for g, img in zip(candidates, images) if img is None or R.contains_monomial(*img)]
    Y = presentation(tp, tq, kept, field)
    f = presentation_morphism(R, Y, even_images, odd_images)
    # no construction-level splitness claim for free-form substitutions
    return CorpusEntry("presentation-morphism", seed, (f,),
                       {"label": "substitution"},
                       "target generators filtered by substitution membership")


def _nonunit_monomials(rng, P, count):
    monos = []
    for _ in range(count * 3):
        exps = tuple(rng.randint(2) for _ in range(P.p))
        odds = frozenset(j for j in range(P.q) if rng.randint(3) == 0)
        if sum(exps) + len(odds) >= 1 and not P.contains_monomial(exps, odds):
            monos.append((exps, odds))
        if len(monos) >= count:
            break
    return monos


def _pick_parity_monomial(rng, monos, parity, P):
    pool = [m for m in monos if len(m[1]) % 2 == parity]
    if pool:
        return pool[rng.randint(len(pool))]
    if parity == 0:
        # T_1 is always a legal even image, even when it dies in the quotient
        return ((1,) + (0,) * (P.p - 1), frozenset())
    raise ValueError("no odd monomial available for an odd image")


def validate_entry(entry):
    """Recompute every expected property; the list of mismatches is returned."""
    problems = []
    exp = entry.expected
    if entry.kind == "comodule":
        from .supercomodule import flat_check
        C, M = entry.payload
        verdict = flat_check(M)
        if verdict.free != exp["flat"]:
            problems.append(f"flat label mismatch: {verdict.free} vs {exp['flat']}")
        if exp.get("rank") and verdict.rank != tuple(exp["rank"]):
            problems.append(f"rank mismatch: {verdict.rank} vs {exp['rank']}")
    elif entry.kind == "morphism":
        from .formal_scheme import flatness, morphism_components
        (f,) = entry.payload
        verdict = flatness(f, *morphism_components(f))
        if verdict.flat != exp["flat"]:
            problems.append("flat label mismatch")
        if verdict.faithfully_flat != exp["faithfully_flat"]:
            problems.append("faithfully flat label mismatch")
    elif entry.kind == "presentation-morphism":
        from .ksdim import is_split_projection, theorem_fiber_dimension_check
        (f,) = entry.payload
        if "split" in exp and is_split_projection(f) != exp["split"]:
            problems.append("split label mismatch")
        if not theorem_fiber_dimension_check(f).even_inequality:
            problems.append("even fiber inequality fails")
    elif entry.kind == "subspace-triple":
        C, triple = entry.payload
        if C.dim != exp["ambient_dim"]:
            problems.append("ambient dimension mismatch")
    elif entry.kind == "presentation":
        (P,) = entry.payload
        if (P.p, P.q) != (exp["p"], exp["q"]):
            problems.append("shape mismatch")
    return problems
