"""Finite-dimensional super-cocommutative super-coalgebras.

delta holds the sparse columns of the coproduct C -> C (x) C: column i
lists the (j * n + k, c) pairs, sorted with c nonzero, of the terms
c b_j (x) b_k of delta(b_i).  A superalgebra stores its transpose
coproduct in the same layout, so duality with superalgebras is the same
columns, relabelled, and it preserves all the super axioms in both
directions.  Points over a superalgebra R pair C with its Koszul-signed
dual instead (_koszul_signed).
"""

from __future__ import annotations

import functools

from .fields import FieldError
from .superalgebra import (
    WordBasis, enumerate_homs, ideal_generated_by, ideal_powers, make_superalgebra,
    local_decomposition, radical,
)
from .superlinear import (
    Record, StructureRecord, Subspace, SuperVectorSpace, _axiom_defects, _images,
    _read_coordinates, _tensor_apply_sparse, _transpose, canonical_columns, linear_form, perp,
    tensor_structure, unit_vec, vec_scale, vec_sub,
)


class NotSubcoalgebra(ValueError):
    """delta(W) does not lie in W (x) W: the carrier does not close."""


class SearchBoundExceeded(RuntimeError):
    pass


class SuperCoalgebra(StructureRecord):
    space: object
    delta: tuple
    counit: tuple

    def coproduct_map(self):
        """delta: C -> C (x) C, as its columns."""
        return self.delta

    @functools.cached_property
    def _problems(self):
        """The verdict of validate_supercoalgebra, found once per frozen
        coalgebra."""
        return tuple(_coalgebra_problems(self))

    @functools.cached_property
    def _dual(self):
        """C*, which keeps rad C*."""
        return dualize_coalgebra(self)

    @functools.cached_property
    def _coradical(self):
        """C_0 = (rad C*) perp, a subspace of C."""
        return perp(self._dual._radical, self.space)

    @functools.cached_property
    def _decomposition(self):
        """(subcoalgebra, subspace, residue degree) per direct summand of C
        dual to a local factor of C*.  One piece is C itself, on the full
        subspace: no subcoalgebra is built, and None stands for C, as no
        value C keeps may hold C (cli.main runs without the cyclic GC)."""
        dual, F = self._dual, self.field
        factors = local_decomposition(dual)
        if len(factors) == 1:
            return ((None, Subspace.full(self.space), factors[0].degree),)
        comps = []
        for fac in factors:
            rest = ideal_generated_by(dual, [vec_sub(F, dual.unit, fac.idempotent)])
            sub = perp(rest.subspace, self.space)
            comps.append((subcoalgebra_on(self, sub), sub, fac.degree))
        if sum(sub.dim for _, sub, _ in comps) != self.dim:
            raise AssertionError("components do not fill the coalgebra")
        return tuple(comps)


def make_supercoalgebra(space, delta, counit):
    """The coalgebra with these columns of delta and this counit (see
    canonical_columns); the one constructor.  It does not validate: call
    validate_supercoalgebra."""
    n = space.dim
    (counit,) = canonical_columns(space.field, (counit,), 1, n)
    return SuperCoalgebra(space, canonical_columns(space.field, delta, n, n * n), counit)


def validate_supercoalgebra(C):
    """Violated axiom instances for parity, counit, coassociativity and
    super-cocommutativity (empty list means valid), as a fresh list.  The
    check runs once per coalgebra, which keeps its verdict.

    Each axiom is an equality of two composed structure maps, compared
    column by column: (eps (x) id) delta = id = (id (x) eps) delta,
    (delta (x) id) delta = (id (x) delta) delta and twist o delta = delta.
    """
    return list(C._problems)


def _coalgebra_problems(C):
    n = C.dim
    labels = C.space.labels
    parity, left, right, coassoc, twisted = _axiom_defects(C.space, C.delta, C.counit)
    problems = []
    # the odd counit value of b_i, on row n * n, comes after the coproduct
    # violations of b_i
    for i, r in parity:
        if r < n * n:
            problems.append(
                f"parity: delta({labels[i]}) hits {labels[r // n]}(x){labels[r % n]}")
        else:
            problems.append(f"counit: nonzero on odd {labels[i]}")
    left = {i for i, _ in left}
    right = {i for i, _ in right}
    for i in range(n):
        if i in left:
            problems.append(f"counit: (eps(x)id)delta({labels[i]}) != {labels[i]}")
        if i in right:
            problems.append(f"counit: (id(x)eps)delta({labels[i]}) != {labels[i]}")
    for i, abc in coassoc:
        a, bc = divmod(abc, n * n)
        problems.append(
            f"coassociativity fails on {labels[i]} at "
            f"({labels[a]},{labels[bc // n]},{labels[bc % n]})")
    for i, jk in twisted:
        problems.append(
            f"cocommutativity: delta({labels[i]}) asymmetric at "
            f"({labels[jk // n]},{labels[jk % n]})")
    return problems


# ---------------------------------------------------------------------------
# duality

def dualize_algebra(A):
    """Coproduct = the transpose coproduct of A, its columns as they are;
    counit = evaluation at 1."""
    return make_supercoalgebra(A.space.dual(), A.cop, A.unit)


def dualize_coalgebra(C):
    """Transpose coproduct = delta, its columns as they are; unit = counit."""
    return make_superalgebra(C.space.dual(), C.delta, C.counit)


def is_coalgebra_morphism(cols, C, D):
    """delta_D f = (f (x) f) delta_C and eps_D f = eps_C for the map f with
    these sparse columns, one per basis vector of C, compared column by
    column, with delta_D f read off the columns of D's delta: no labelled
    map into D (x) D is built.  f is taken to be even, as every morphism is
    (one an object file names is checked as it is parsed), so f (x) f
    carries no Koszul sign."""
    F = D.field
    if (list(_images(F, D.delta, cols))
            != list(_tensor_apply_sparse(F, cols, cols, D.dim, C.delta))):
        return False
    return list(_images(F, linear_form(D.dim, D.counit), cols)) == linear_form(C.dim, C.counit)


# ---------------------------------------------------------------------------
# subobjects, wedge

def _subcoalgebra_read(C, W):
    """(space, pivots, psi) of a subcoalgebra W <= C: W on the labels of C
    at its pivots, and delta(w) of each basis vector read in W (x) C.

    That read is the closure check: it fails, and NotSubcoalgebra is
    raised, unless delta(W) lies in W (x) C, which for a super-cocommutative
    C means in W (x) W = W (x) C intersect C (x) W.
    """
    F = C.field
    if not W.is_graded():
        raise ValueError("subcoalgebra test needs a graded subspace")
    pivots = W.pivots
    psi = _read_coordinates(F, W.matrix.rows, pivots, _images(F, C.delta, W.basis()), C.dim)
    if psi is None:
        raise NotSubcoalgebra("restricted coproduct does not close on the cotensor carrier")
    space = SuperVectorSpace(F, tuple(C.space.labels[c] for c in pivots), W.parities)
    return space, pivots, psi


def subcoalgebra_on(C, W):
    """The coalgebra structure restricted to a subcoalgebra subspace W.

    delta(w) read in W (x) C lies in W (x) W (_subcoalgebra_read), so its
    coordinates there are its right factors' entries on the pivots of W.
    """
    space, pivots, psi = _subcoalgebra_read(C, W)
    n, m = C.dim, W.dim
    slot = dict(zip(pivots, range(m)))
    # in order, since slot ascends with the pivots
    coords = [tuple([(ak // n * m + slot[ak % n], c) for ak, c in v if ak % n in slot])
              for v in psi]
    counit = [(i, a) for i, e in enumerate(_images(C.field, linear_form(n, C.counit), W.basis()))
              for _, a in e]
    return make_supercoalgebra(space, coords, counit)


def wedge(C, X, Y):
    """X ^ Y = (X^perp . Y^perp)^perp, the product taken in C* (Sweedler,
    Hopf Algebras, 1969, ch. 9): the kernel of C -> C/X (x) C/Y."""
    dual = C._dual
    xs, ys = perp(X, dual.space).basis(), perp(Y, dual.space).basis()
    return perp(Subspace.from_vectors(dual.space, dual.products(xs, ys)), C.space)


# ---------------------------------------------------------------------------
# coradical machinery

def dual_radical(C):
    """rad C*, the radical of the dual algebra (which it carries as its
    algebra), kept by C."""
    return radical(C._dual)


def coradical(C):
    """C_0 = (rad C*) perp, as a subspace of C, kept by C."""
    return C._coradical


def coradical_filtration(C):
    """C_0 <= C_1 <= ... <= C with C_k = (J^(k+1)) perp, for J = rad C*
    (Montgomery, Hopf Algebras and Their Actions on Rings, 1993, 5.2): the
    perps of the powers J^k * W of ideal_powers, W a generator set of J
    with |W| <= dim J, then C."""
    return [perp(P, C.space) for P in ideal_powers(dual_radical(C))] + [Subspace.full(C.space)]


class Component(Record):
    """An irreducible component: a subcoalgebra on a subspace of C, and the
    degree of its residue field over the base field."""
    coalgebra: object
    subspace: object
    degree: int


def irreducible_components(C):
    """The direct summands dual to the local factors of C*, kept by C."""
    return [Component(C if coalg is None else coalg, sub, degree)
            for coalg, sub, degree in C._decomposition]


class Point(Record):
    index: int
    component: object
    kappa: object           # the subcoalgebra kappa(y), a Subspace of the whole coalgebra


def points(C):
    """Per irreducible component of C, its coradical kappa: where the
    coradical of C meets the component."""
    corad = coradical(C)
    return [Point(i, comp, corad.intersect(comp.subspace))
            for i, comp in enumerate(irreducible_components(C))]


def is_grouplike(C, u):
    """eps(u) = 1 and delta(u) = u (x) u, with delta(u) read off the columns
    of delta: no labelled map into C (x) C is built."""
    F = C.field
    if next(_images(F, linear_form(C.dim, C.counit), (u,))) != ((0, F.one),):
        return False
    n = C.dim
    return next(_images(F, C.delta, (u,))) == tuple((i * n + j, F.mul(a, b))
                                                   for i, a in u for j, b in u)


def grouplikes(C):
    """Group-like elements of C, one per point with base residue field: its
    kappa, the coradical of its component, is the line of its group-like."""
    F = C.field
    out = []
    for y in points(C):
        if y.component.degree != 1:
            continue
        if y.kappa.dim != 1:
            raise AssertionError("a component with base residue field has a "
                                 "coradical of dimension other than 1")
        v = y.kappa.basis()[0]
        eps_v = next(_images(F, linear_form(C.dim, C.counit), (v,)))[0][1]
        g = vec_scale(F, F.inv(eps_v), v)
        if not is_grouplike(C, g):
            raise AssertionError("component candidate is not group-like")
        out.append(g)
    return out


# ---------------------------------------------------------------------------
# group-likes over a finite-dimensional superalgebra

DEFAULT_GROUPLIKE_BOUND = 3 ** 12


def _koszul_signed(A):
    """A with b_i * b_j negated when b_i and b_j are both odd: the odd x odd
    rows of cop.

    Group-likes of (R (x) C)_even are the superalgebra morphisms into R of
    the Koszul-signed dual _koszul_signed(dualize_coalgebra(C)), not of the
    plain transpose.  Signing is an involution and keeps every axiom.
    """
    neg, n, par = A.field.neg, A.dim, A.space.parities
    cop = tuple(tuple((ij, neg(c)) if par[ij // n] and par[ij % n] else (ij, c)
                      for ij, c in col) for col in A.cop)
    return make_superalgebra(A.space, cop, A.unit)


def grouplikes_over(C, R):
    """All group-likes in (R (x) C)_even, as the rows of R.dim x C.dim
    coefficient matrices, in the order of their entries (row-major, field
    elements in sort_key order).

    They are read off the superalgebra morphisms A -> R of the
    Koszul-signed dual A of C, found by enumerate_homs on the word basis of
    the generators kept greedily from the basis of A: b_i is kept when the
    basis grown so far does not contain it.  The depth-first search visits
    at most q^(sum over generators g of dim R_|g|) complete assignments, a
    count checked against DEFAULT_GROUPLIKE_BOUND before the search.
    """
    F = C.field
    if not F.is_finite():
        raise FieldError("group-like enumeration needs a finite base field")
    if R.field != F:
        raise ValueError("coefficient algebra over a different field")
    A = _koszul_signed(C._dual)
    basis, slots = WordBasis(A), 0
    for i in range(A.dim):
        if not basis.echelon.has_unit_vec(i):
            basis.grow(unit_vec(F, i))
            slots += R.space.sdim[A.parity(i)]
    q = F.order
    total = q ** slots
    if total > DEFAULT_GROUPLIKE_BOUND:
        (re, ro), (ce, co) = R.space.sdim, C.space.sdim
        blind = q ** (re * ce + ro * co)
        raise SearchBoundExceeded(
            f"{total} candidates (blind scan of the even slots: {blind}) "
            f"exceed the configured bound {DEFAULT_GROUPLIKE_BOUND}")
    rank = {c: r for r, c in enumerate(sorted(F.elements(), key=F.sort_key))}
    n = C.dim
    # phi is the element sum_i phi(a_i) (x) a_i* of R (x) C, read by R-row
    hits = [_transpose(cols, R.dim) for cols in enumerate_homs(A, R, basis)]
    # zero comes first in sort_key order, so the row-major entries compare
    # as the (-position, rank) pairs of the nonzero ones
    return sorted(hits, key=lambda u: [(-(a * n + m), rank[c])
                                       for a, row in enumerate(u) for m, c in row])


# ---------------------------------------------------------------------------
# tensor and elementary constructions

def tensor_coalgebra(C, D):
    """Coproduct (id (x) twist (x) id)(delta_C (x) delta_D); counit product."""
    F = C.field
    # read through coproduct_map, whose calls perfbench's layer trace counts
    delta = tensor_structure(F, C.coproduct_map(), C.space.parities,
                             D.coproduct_map(), D.space.parities)
    counit = [(i * D.dim + j, F.mul(a, b)) for i, a in C.counit for j, b in D.counit]
    return make_supercoalgebra(C.space.tensor(D.space), delta, counit)


def unit_coalgebra(field):
    space = SuperVectorSpace(field, ("g",), (0,))
    return make_supercoalgebra(space, [[(0, field.one)]], [(0, field.one)])


def direct_sum_coalgebra(summands):
    """Coproduct-preserving direct sum (disjoint union of spectra)."""
    if not summands:
        raise ValueError("need at least one summand")
    F = summands[0].field
    total = sum(c.dim for c in summands)
    space = SuperVectorSpace(F, tuple(f"{l}.{s}" for s, c in enumerate(summands)
                                      for l in c.space.labels),
                             tuple(p for c in summands for p in c.space.parities))
    delta, counit = [], []
    for c in summands:
        # b_j (x) b_k of a summand at this offset is (offset + j) (x) (offset + k)
        offset = len(delta)
        delta += [[((offset + jk // c.dim) * total + offset + jk % c.dim, a) for jk, a in col]
                  for col in c.delta]
        counit += [(offset + j, a) for j, a in c.counit]
    return make_supercoalgebra(space, delta, counit)


def base_change_coalgebra(C, ext):
    if ext.base != C.field:
        raise ValueError("extension field has a different base")
    emb = ext.embed
    space = SuperVectorSpace(ext, C.space.labels, C.space.parities)
    delta = [[(jk, emb(c)) for jk, c in col] for col in C.delta]
    return make_supercoalgebra(space, delta, [(j, emb(c)) for j, c in C.counit])
