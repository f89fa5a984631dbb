"""Krull superdimension of monomial formal presentations.

A presentation is k[[T_1..T_p | th_1..th_q]] modulo a monomial superideal;
all dimensions reduce to exact combinatorics on generator supports, and the
theorem harnesses record the justifications they rely on.
"""

from __future__ import annotations

import itertools

from .fields import QQ
from .superalgebra import _exponents
from .supercoalgebra import SearchBoundExceeded
from .superlinear import Record


class SubsetBoundExceeded(SearchBoundExceeded):
    pass


DEFAULT_ODD_SEARCH_BOUND = 12

EVEN_CONTRACTION_NOTE = (
    "even Krull dimension computed on the even contraction: "
    "theta-even nilpotents cannot change the dimension of the even part")
ODD_GENERATOR_NOTE = (
    "odd parameter candidates restricted to the odd variables: a parameter "
    "system can be chosen among module generators of the odd part, and for "
    "monomial ideals annihilators only grow when generators are mixed")


class MonomialSuperPresentation(Record):
    p: int
    q: int
    generators: tuple
    field: object = QQ

    @property
    def is_regular(self):
        return not self.generators

    def contains_monomial(self, exps, odds):
        odds = frozenset(odds)
        return any(all(a >= b for a, b in zip(exps, ge)) and go <= odds
                   for ge, go in self.generators)

    def generator_labels(self):
        from .superalgebra import monomial_label
        even = tuple(f"T{i + 1}" for i in range(self.p))
        odd = tuple(f"th{j + 1}" for j in range(self.q))
        return [monomial_label(e, o, even, odd) for e, o in self.generators]


def presentation(p, q, generators, field=QQ):
    """Build a presentation, pruning to minimal monomial generators."""
    gens = []
    for exps, odds in generators:
        exps = tuple(exps)
        odds = frozenset(odds)
        if len(exps) != p:
            raise ValueError("exponent vector length disagrees with p")
        if any(e < 0 for e in exps):
            raise ValueError("negative exponent")
        if not odds <= frozenset(range(q)):
            raise ValueError("odd index out of range")
        if sum(exps) + len(odds) == 0:
            raise ValueError("the unit monomial cannot generate a proper ideal")
        gens.append((exps, odds))
    minimal = []
    for exps, odds in sorted(set(gens), key=lambda m: (sum(m[0]) + len(m[1]),
                                                       m[0], tuple(sorted(m[1])))):
        if not any(all(a >= b for a, b in zip(exps, ge)) and go <= odds
                   for ge, go in minimal):
            minimal.append((exps, odds))
    return MonomialSuperPresentation(p, q, tuple(minimal), field)


# ---------------------------------------------------------------------------
# combinatorial dimensions

def _combinatorial_dim(p, even_gens):
    """Krull dimension of k[[T_1..T_p]] / (monomials with the given supports).

    The dimension is the largest coordinate subset S such that no generator
    is supported inside S.
    """
    supports = [frozenset(i for i, e in enumerate(exps) if e > 0)
                for exps in even_gens]
    if any(not s for s in supports):
        raise ValueError("unit generator makes the quotient the zero ring")
    for size in range(p, -1, -1):
        for S in itertools.combinations(range(p), size):
            sset = frozenset(S)
            if not any(supp <= sset for supp in supports):
                return size
    raise AssertionError("unreachable: the empty set always survives")


def even_contraction(P):
    """Minimal generators of c_empty: even parts of purely even generators."""
    return [exps for exps, odds in P.generators if not odds]


def even_kdim(P):
    return _combinatorial_dim(P.p, even_contraction(P))


def odd_annihilator_contraction(P, I):
    """Minimal generators of c_I = {T^a : T^a th^I in the ideal}."""
    I = frozenset(I)
    return [exps for exps, odds in P.generators if odds <= I]


def odd_annihilator_dim(P, I):
    """Dimension of k[[T]]/c_I, or None when th^I is already in the ideal."""
    I = frozenset(I)
    if P.contains_monomial((0,) * P.p, I):
        return None
    return _combinatorial_dim(P.p, odd_annihilator_contraction(P, I))


def ksdim(P, odd_bound=DEFAULT_ODD_SEARCH_BOUND):
    """(even Krull dimension | largest odd parameter system length)."""
    if P.q > odd_bound:
        raise SubsetBoundExceeded(
            f"{P.q} odd variables exceed the subset search bound {odd_bound}")
    even = even_kdim(P)
    best = 0
    for size in range(P.q, 0, -1):
        for I in itertools.combinations(range(P.q), size):
            d = odd_annihilator_dim(P, frozenset(I))
            if d == even:
                best = size
                break
        if best:
            break
    return (even, best)


# ---------------------------------------------------------------------------
# independent brute-force oracle

def oracle_annihilator_dim(P, I=frozenset()):
    """Recompute the c_I dimension from exhaustive monomial membership.

    Enumerates every T-monomial up to total degree max(generator degree) +
    q + 1, keeps the ones with T^a th^I in the ideal, and then searches
    coordinate subsets directly.  Returns None when th^I itself is inside.
    """
    I = frozenset(I)
    if P.contains_monomial((0,) * P.p, I):
        return None
    bound = max((sum(e) + len(o) for e, o in P.generators), default=0) + P.q + 1
    members = []
    for total in range(bound + 1):
        for exps in _exponents(P.p, total):
            if P.contains_monomial(exps, I):
                members.append(frozenset(i for i, e in enumerate(exps) if e > 0))
    for size in range(P.p, -1, -1):
        for S in itertools.combinations(range(P.p), size):
            sset = frozenset(S)
            if not any(supp <= sset for supp in members):
                return size
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# presentation morphisms

class PresentationMorphism(Record):
    """X -> Y given by substituting source monomials for target variables."""
    source: MonomialSuperPresentation
    target: MonomialSuperPresentation
    even_images: tuple
    odd_images: tuple


def presentation_morphism(source, target, even_images, odd_images):
    even_images = tuple((tuple(e), frozenset(o)) for e, o in even_images)
    odd_images = tuple((tuple(e), frozenset(o)) for e, o in odd_images)
    if len(even_images) != target.p or len(odd_images) != target.q:
        raise ValueError("need one image per target variable")
    for exps, odds in even_images:
        if len(odds) % 2 != 0:
            raise ValueError("even variable must map to an even-degree monomial")
        if sum(exps) + len(odds) == 0:
            raise ValueError("substitution must respect the maximal ideals")
    for exps, odds in odd_images:
        if len(odds) % 2 != 1:
            raise ValueError("odd variable must map to an odd-degree monomial")
    for gen in target.generators:
        img = _substitute_monomial(source.p, even_images, odd_images, gen)
        if img is not None and not source.contains_monomial(*img):
            raise ValueError("substitution does not map the ideal into the ideal")
    return PresentationMorphism(source, target, even_images, odd_images)


def _substitute_monomial(p, even_images, odd_images, monomial):
    """Image of a target monomial under the substitution of these
    monomials, in p even source variables, for the target variables; None
    encodes 0 (odd square collision)."""
    exps, odds = monomial
    total_exps = [0] * p
    total_odds = set()
    for i, e in enumerate(exps):
        if e == 0:
            continue
        ie, io = even_images[i]
        if e >= 2 and io:
            return None  # an odd factor squares to zero
        for k, v in enumerate(ie):
            total_exps[k] += v * e
        if io & total_odds:
            return None
        total_odds |= io
    for j in odds:
        ie, io = odd_images[j]
        for k, v in enumerate(ie):
            total_exps[k] += v
        if io & total_odds:
            return None
        total_odds |= io
    return tuple(total_exps), frozenset(total_odds)


def fiber_presentation(f):
    """Source modulo the images of the target maximal-ideal generators."""
    extra = []
    for exps, odds in list(f.even_images) + list(f.odd_images):
        if sum(exps) + len(odds) == 0:
            raise ValueError("fiber is not a monomial presentation")
        extra.append((exps, odds))
    return presentation(f.source.p, f.source.q,
                        list(f.source.generators) + extra, f.source.field)


def is_split_projection(f):
    """S isomorphic to R (x) R' with f the projection onto the R factor.

    Holds when the target variables map bijectively onto distinct source
    variables and every source generator lives entirely on the image side
    (matching a target generator) or entirely on the complement.
    """
    img_even = []
    for exps, odds in f.even_images:
        if sum(exps) != 1 or odds or 1 not in exps:
            return False
        img_even.append(exps.index(1))
    img_odd = []
    for exps, odds in f.odd_images:
        if sum(exps) != 0 or len(odds) != 1:
            return False
        img_odd.append(next(iter(odds)))
    if len(set(img_even)) != len(img_even) or len(set(img_odd)) != len(img_odd):
        return False
    even_set, odd_set = set(img_even), set(img_odd)
    target_gen_images = set()
    for gen in f.target.generators:
        img = _substitute_monomial(f.source.p, f.even_images, f.odd_images, gen)
        if img is None:
            return False
        target_gen_images.add(img)
    for exps, odds in f.source.generators:
        support_even = {i for i, e in enumerate(exps) if e > 0}
        on_image = support_even <= even_set and odds <= odd_set
        off_image = not (support_even & even_set) and not (odds & odd_set)
        if on_image:
            if (exps, odds) not in target_gen_images:
                return False
        elif not off_image:
            return False
    return True


# ---------------------------------------------------------------------------
# theorem harnesses

class FiberDimensionReport(Record):
    sdim_source: tuple
    sdim_target: tuple
    sdim_fiber: tuple
    even_inequality: bool
    flat_mode: object       # "split-projection", "asserted" or None
    even_equality: object   # bool when flat_mode set, else None
    target_regular: bool
    odd_inequality: object  # bool when the target is regular, else None
    odd_equality_observed: bool
    notes: tuple

    @property
    def passed(self):
        if not self.even_inequality:
            return False
        if self.flat_mode and self.even_equality is False:
            return False
        if self.target_regular and self.odd_inequality is False:
            return False
        return True


def theorem_fiber_dimension_check(f, assert_flat=False):
    """Fiber dimension bounds for a presentation morphism.

    Even inequality always; even equality when flat (split projections are
    detected structurally, anything else must be asserted by the caller and
    is echoed); odd inequality when the target is regular (zero superideal).
    """
    sx = ksdim(f.source)
    sy = ksdim(f.target)
    fib = fiber_presentation(f)
    sf = ksdim(fib)
    even_ineq = sx[0] <= sy[0] + sf[0]
    notes = [EVEN_CONTRACTION_NOTE, ODD_GENERATOR_NOTE]
    flat_mode = None
    if is_split_projection(f):
        flat_mode = "split-projection"
        notes.append("flatness certified structurally: split product projection")
    elif assert_flat:
        flat_mode = "asserted"
        notes.append("flatness asserted by the caller; echoed, not inferred")
    even_eq = (sx[0] == sy[0] + sf[0]) if flat_mode else None
    target_regular = f.target.is_regular
    odd_ineq = None
    if target_regular:
        odd_ineq = sx[1] >= sy[1] + sf[1]
        notes.append("odd bound applies: target is regular (zero superideal) "
                     "and both sides are algebras over the base field")
    odd_eq = sx[1] == sy[1] + sf[1]
    return FiberDimensionReport(sx, sy, sf, even_ineq, flat_mode, even_eq,
                                target_regular, odd_ineq, odd_eq, tuple(notes))


class ProductDimensionReport(Record):
    sdim_left: tuple
    sdim_right: tuple
    sdim_product: tuple
    even_additive: bool
    odd_superadditive: bool

    @property
    def passed(self):
        return self.even_additive and self.odd_superadditive


def product_presentation(P, Q):
    """Disjoint union of variables, union of generators."""
    gens = [(tuple(e) + (0,) * Q.p, frozenset(o)) for e, o in P.generators]
    gens += [((0,) * P.p + tuple(e), frozenset(j + P.q for j in o))
             for e, o in Q.generators]
    return presentation(P.p + Q.p, P.q + Q.q, gens, P.field)


def theorem_product_dimension_check(P, Q):
    sp = ksdim(P)
    sq = ksdim(Q)
    prod = ksdim(product_presentation(P, Q))
    return ProductDimensionReport(
        sp, sq, prod,
        prod[0] == sp[0] + sq[0],
        prod[1] >= sp[1] + sq[1])
