"""Finite-dimensional supercommutative superalgebras by structure constants.

Elements are vectors (see superlinear.vector) over the underlying super
vector space.  cop holds the sparse columns of the transpose coproduct
A -> A (x) A: column k lists the (i * n + j, c) pairs, sorted with c
nonzero, of the coefficient c of b_k in b_i * b_j.  It is the layout of
a coalgebra's delta, so a dual is the same columns, relabelled.
"""

from __future__ import annotations

import functools
import itertools

from .fields import (
    FieldError, poly_ext_gcd, poly_factor_supported, poly_mul, poly_roots,
)
from .superlinear import (
    Echelon, Matrix, Record, StructureRecord, Subspace, SuperVectorSpace, _axiom_defects,
    _identity_columns, _images, _kernel, _sum_ops, _transpose, canonical_columns, coordinates,
    quotient_data, tensor_structure, unit_vec, vec_add, vec_scale, vec_sub, vector,
)


class InvalidStructure(ValueError):
    """Structure constants that violate an axiom; the message names instances."""


class FactorizationIncomplete(RuntimeError):
    """Raised when idempotent splitting needs an unsupported factorization."""


class SuperAlgebra(StructureRecord):
    space: object
    cop: tuple
    unit: tuple

    @functools.cached_property
    def _terms(self):
        """Per basis pair (i, j), the (k, c) pairs of b_i * b_j, lifted over
        D by the field's accumulation rule; D; and the rule (_sum_ops)
        itself, read off cop in one pass; an empty cell is ()."""
        n = self.dim
        rule = _sum_ops(self.field)
        cop, D = rule[0](self.cop)
        cells = [[()] * n for _ in range(n)]
        for k, col in enumerate(cop):
            for ij, c in col:
                cells[ij // n][ij % n] += ((k, c),)
        return cells, D, rule

    @functools.cached_property
    def _odd_generators(self):
        """(V, A * V): V the odd basis vectors b_i, in order, outside the
        ideal of those kept before them, one Echelon grown by the products
        of each.  So A * V = A * A_odd, and A_even * V spans A_odd.  Finding
        V takes |V| * dim A <= |A_odd| * dim A products, and |V| <= dim A * V."""
        F = self.field
        basis = _identity_columns(F, self.dim)
        gens, ideal = [], Echelon(F)
        for i, b in enumerate(basis):
            if self.parity(i) and not ideal.has_unit_vec(i):
                gens.append(b)
                ideal.extend(self.products([b], basis))
        rows, pivots = ideal.rows()
        return gens, Subspace(self.space, Matrix(F, rows, self.dim, pivots))

    def products(self, xs, ys):
        """x * y for every x of xs and every y of ys, x major: the one sum of
        products over cop.  The operands are lifted together, once."""
        terms, dm, (lift, _, add, mul, lower) = self._terms
        lifted, d = lift([*xs, *ys])
        nx = len(xs)
        lys = lifted[nx:]
        D = dm * d * d
        return [lower(_pair_sums(terms, add, mul, x, y), D) for x in lifted[:nx] for y in lys]

    def multiply(self, x, y):
        """x * y, the one-pair case of products: the pair is lifted as it
        is, which over a finite field builds nothing."""
        terms, dm, (lift, _, add, mul, lower) = self._terms
        (x, y), d = lift((x, y))
        return lower(_pair_sums(terms, add, mul, x, y), dm * d * d)

    def power(self, x, n):
        """x^n by square-and-multiply from the top bit of n down: at most
        2 floor(log2 n) products."""
        if n == 0:
            return self.unit
        out = x
        for bit in bin(n)[3:]:
            out = self.multiply(out, out)
            if bit == "1":
                out = self.multiply(out, x)
        return out


def _pair_sums(terms, add, mul, x, y):
    """The (k, sum) items of x * y for lifted x and y, accumulated over the
    cells of SuperAlgebra._terms: the per-pair body of products and
    multiply."""
    acc = {}
    for i, xi in x:
        row = terms[i]
        for j, yj in y:
            xy = mul(xi, yj)
            for k, c in row[j]:
                t = mul(xy, c)
                acc[k] = add(acc[k], t) if k in acc else t
    return acc.items()


def make_superalgebra(space, cop, unit):
    """The algebra with these columns of the transpose coproduct and this
    unit (see canonical_columns); the one constructor.  It does not
    validate: call validate_superalgebra."""
    n = space.dim
    (unit,) = canonical_columns(space.field, (unit,), 1, n)
    return SuperAlgebra(space, canonical_columns(space.field, cop, n, n * n), unit)


def validate_superalgebra(A):
    """Return the list of violated axiom instances (empty means valid).

    Each axiom is an equality of two composed structure maps, compared
    column by column on the transpose coproduct cop: A -> A (x) A, as for a
    coalgebra (_axiom_defects).  The unit is the counit of cop,
    supercommutativity is twist o cop = cop and associativity is
    (cop (x) id) cop = (id (x) cop) cop.
    """
    n = A.dim
    labels = A.space.labels
    parity, left, right, assoc, twisted = _axiom_defects(A.space, A.cop, A.unit)
    # the unit's own parity is no axiom of an algebra: row n * n is skipped
    problems = [
        f"parity: {labels[ij // n]}*{labels[ij % n]} has a component on {labels[k]}"
        for ij, k in sorted((ij, k) for k, ij in parity if ij < n * n)]
    left = {j for _, j in left}
    right = {i for _, i in right}
    for i in range(n):
        if i in left:
            problems.append(f"unit: 1*{labels[i]} != {labels[i]}")
        if i in right:
            problems.append(f"unit: {labels[i]}*1 != {labels[i]}")
    # per i, the asymmetric products b_i * b_j by j, then an odd square b_i^2
    squares = {ij // n for col in A.cop for ij, _ in col if ij // n == ij % n}
    for i, last, j in sorted({(ij // n, 0, ij % n) for _, ij in twisted}
                             | {(i, 1, i) for i in squares if A.parity(i) == 1}):
        if last:
            problems.append(f"odd square: {labels[i]}^2 != 0")
        else:
            problems.append(
                f"supercommutativity: {labels[i]}*{labels[j]} != "
                f"(-1)^|x||y| {labels[j]}*{labels[i]}")
    for ijk in sorted({r for _, r in assoc}):
        i, jk = divmod(ijk, n * n)
        j, k = divmod(jk, n)
        problems.append(
            f"associativity: ({labels[i]}*{labels[j]})*{labels[k]} != "
            f"{labels[i]}*({labels[j]}*{labels[k]})")
    return problems


class Superideal(Record):
    algebra: object
    subspace: object


def ideal_generated_by(A, elements):
    """Smallest superideal containing the given homogeneous elements.

    A unital, associative, supercommutative algebra makes A * S a two-sided
    ideal already, so it is the span of the products s * b_i.
    """
    sub = Subspace.from_vectors(A.space, A.products(elements, _identity_columns(A.field, A.dim)))
    if not sub.is_graded():
        raise ValueError("generators span a non-graded ideal: ideal subspace is not graded")
    return Superideal(A, sub)


def canonical_ideal(A):
    """The smallest superideal containing the odd part: A * A_odd = A * V,
    for V the odd generators of SuperAlgebra._odd_generators."""
    return Superideal(A, A._odd_generators[1])


def ideal_powers(ideal):
    """J, J^2, ..., J^m, the nonzero powers of a nilpotent superideal J >= A_odd:
    J = A * W for W the odd generators V of A * A_odd and the echelon rows of
    J off the pivots of A * V, which lift a basis of J / A * V.  J^k is an
    ideal, so J^(k+1) = J^k * A * W = J^k * W: power k takes |W| * dim J^k
    products, and |W| <= dim J."""
    A, power = ideal.algebra, ideal.subspace
    gens, jc = A._odd_generators
    known = set(jc.pivots)
    gens = gens + [x for x, c in zip(power.basis(), power.pivots) if c not in known]
    powers = []
    while power.dim:
        if powers and power.dim >= powers[-1].dim:
            raise AssertionError("ideal powers stalled: the ideal is not nilpotent")
        powers.append(power)
        power = Subspace.from_vectors(A.space, A.products(power.basis(), gens))
    return powers


def ksdim_finite(A):
    """(0 | largest n with a nonzero n-fold product of odd elements): the
    number of nonzero powers of J = A * A_odd (ideal_powers), since
    J^n = A * A_odd^n is nonzero exactly when A_odd^n is."""
    return (0, len(ideal_powers(canonical_ideal(A))))


def quotient_by_superideal(A, ideal):
    """The quotient superalgebra by a Superideal, the columns of the
    projection onto it and the basis vectors of A that represent its basis
    (quotient_data)."""
    F = A.field
    qspace, proj, reps = quotient_data(A.space, ideal.subspace)
    lifts = [unit_vec(F, r) for r in reps]
    *products, unit = _images(F, proj, A.products(lifts, lifts) + [A.unit])
    quot = make_superalgebra(qspace, _transpose(products, qspace.dim), unit)
    return quot, proj, reps


# ---------------------------------------------------------------------------
# radical

def _frobenius_kernel(A):
    """Nilradical of a finite-dimensional commutative algebra in char p: the
    kernel of the p^m-power map for the least m with p^m >= n = dim A, as a
    nilpotent x has x^n = 0 (k[x] has dimension at most n) and the map is
    additive.  It is semilinear, so the coordinate null space is pulled
    back through the inverse field automorphism before spanning.
    """
    F = A.field
    n = A.dim
    p = F.char
    e = 1
    base_order = F.order
    while p ** e != base_order:
        e += 1
    m = 1
    # the p^m-th power of b_i is the p-th power of its p^(m-1)-th power
    cols = [A.power(unit_vec(F, i), p) for i in range(n)]
    while p ** m < n:
        cols = [A.power(c, p) for c in cols]
        m += 1
    inv_exp = p ** ((e - (m % e)) % e)
    rows = [tuple((j, F.pow(c, inv_exp)) for j, c in row)
            for row in _kernel(F, cols, n).rows]
    return Subspace.from_vectors(A.space, rows)


def _trace_form_kernel(A):
    """Radical of a finite-dimensional algebra over a char-0 field: the kernel
    of the trace form (b_i, b_j) -> Tr(L_{b_i b_j}) = sum_k c_ijk Tr(L_{b_k}),
    with Tr(L_{b_k}) the sum of the coefficients of b_i in b_k * b_i (row
    k * n + i of column i of cop): the Gram matrix is cop applied to them.
    A is the purely even, commutative A/J, so the Gram matrix is symmetric
    and its rows are its columns."""
    F = A.field
    n = A.dim
    traces = [F.zero] * n
    for i, col in enumerate(A.cop):
        for ki, c in col:
            if ki % n == i:
                traces[ki // n] = F.add(traces[ki // n], c)
    gram = [[] for _ in range(n)]
    for ij, c in next(_images(F, A.cop, (vector(F, enumerate(traces)),))):
        gram[ij // n].append((ij % n, c))
    return Subspace(A.space, _kernel(F, gram, n))


def radical(A):
    """Jacobson radical (= nilradical here); always contains the odd part.

    rad A is the preimage of rad(A/J) in A, J the canonical ideal, and so
    contains J.  A quotient of dimension 1 is the base field, whose radical
    is 0: when dim A - dim J <= 1, rad A = J and no quotient is built.
    Otherwise the preimage is J plus the lifts of a basis of rad(A/J),
    basis vector q of A/J lifting to basis vector reps[q] of A.
    """
    jc = canonical_ideal(A)
    if A.dim - jc.subspace.dim <= 1:
        return jc
    abar, _, reps = quotient_by_superideal(A, jc)
    if A.field.char == 0:
        radbar = _trace_form_kernel(abar)
    else:
        radbar = _frobenius_kernel(abar)
    if radbar.dim == 0:
        return jc
    lifts = [tuple((reps[q], c) for q, c in row) for row in radbar.basis()]
    return Superideal(A, Subspace.from_vectors(A.space, jc.subspace.basis() + lifts))


# ---------------------------------------------------------------------------
# local decomposition

class LocalFactor(Record):
    """A primitive idempotent e of A and the degree of the residue field of
    eA over the base field: 1 when the residue field is the base field."""
    idempotent: tuple
    degree: int


def _minimal_polynomial(A, x):
    """Minimal polynomial of an algebra element, low to high, monic: the
    powers of x join one Echelon until x^d lies in the span of those before
    it, and the one-dimensional kernel of the columns 1, x, ..., x^d,
    divided by its coefficient of x^d, writes x^d in them."""
    F = A.field
    span = Echelon(F)
    powers = [A.unit]
    while span.add(powers[-1]):
        powers.append(A.multiply(powers[-1], x))
    (row,) = _kernel(F, powers, A.dim).rows
    s, coeffs = F.inv(row[-1][1]), dict(row)
    return tuple(F.mul(s, coeffs[j]) if j in coeffs else F.zero for j in range(len(powers)))


def _eval_in_algebra(A, poly, x):
    F = A.field
    out = ()
    for c in reversed(poly):
        out = vec_add(F, A.multiply(out, x), vec_scale(F, c, A.unit))
    return out


def _bezout_idempotent(A, x, f, rest):
    """Exact idempotent from a coprime factorization of the minimal polynomial."""
    F = A.field
    g, u, _ = poly_ext_gcd(F, f, rest)
    if len(g) != 1:
        raise AssertionError("factors are not coprime")
    uf = poly_mul(F, u, f)
    return _eval_in_algebra(A, uf, x)


def _split_candidates(S):
    F = S.field
    n = S.dim
    basis = [unit_vec(F, i) for i in range(n)]
    for b in basis:
        yield b
    two = F.from_int(2)
    for i in range(n):
        for j in range(i + 1, n):
            yield vec_add(F, basis[i], basis[j])
            yield vec_add(F, basis[i], vec_scale(F, two, basis[j]))


def _semisimple_idempotent(S):
    """A nontrivial idempotent of a commutative semisimple algebra, or None.

    None certifies that S is a field.  Char p uses the subalgebra fixed by the
    q-power Frobenius, whose multiplication operators split over the base
    field; char 0 searches minimal polynomials with the supported
    factorizations and raises FactorizationIncomplete when they run out.
    """
    F = S.field
    n = S.dim
    if F.char != 0:
        q = F.order
        cols = [vec_sub(F, S.power(b, q), b) for b in _identity_columns(F, n)]
        fixed = _kernel(F, cols, n).rows
        if len(fixed) == 1:
            return None  # one component: S is a field
        for b in fixed:
            if Subspace.from_vectors(S.space, [b, S.unit]).dim == 1:
                continue
            minpoly = _minimal_polynomial(S, b)
            roots = poly_roots(F, minpoly)
            if not len(roots) == len(minpoly) - 1 >= 2:
                raise AssertionError("Frobenius-fixed element must split")
            c0 = roots[0]
            e = S.unit
            denom = F.one
            for c in roots[1:]:
                e = S.multiply(e, vec_add(F, b, vec_scale(F, F.neg(c), S.unit)))
                denom = F.mul(denom, F.sub(c0, c))
            e = vec_scale(F, F.inv(denom), e)
            if S.multiply(e, e) != e:
                raise AssertionError("split element is not idempotent")
            return e
        raise AssertionError("unreachable: no splitting element in fixed algebra")
    certified_field = False
    for b in _split_candidates(S):
        minpoly = _minimal_polynomial(S, b)
        factors, complete = poly_factor_supported(F, minpoly)
        if len(factors) >= 2:
            rest = factors[1]
            for extra in factors[2:]:
                rest = poly_mul(F, rest, extra)
            e = _bezout_idempotent(S, b, factors[0], rest)
            if S.multiply(e, e) != e:
                raise AssertionError("split element is not idempotent")
            if e and e != S.unit:
                return e
        elif complete and len(minpoly) - 1 == n:
            certified_field = True
    if certified_field:
        return None
    raise FactorizationIncomplete(
        f"cannot split semisimple algebra of dimension {n} over {F.describe()}; "
        "use a finite-field model")


def _lift_idempotent(A, reps, e_bar):
    """Lift an idempotent e_bar of a quotient of A by a nilpotent ideal, its
    basis vector q represented by basis vector reps[q] of A, to an
    idempotent of A."""
    F = A.field
    # reps ascend, so the lifted coordinates stay sorted
    x = tuple((reps[q], a) for q, a in e_bar)
    three = F.from_int(3)
    two = F.from_int(2)
    for _ in range(A.dim + 2):
        sq = A.multiply(x, x)
        if sq == x:
            return x
        cube = A.multiply(sq, x)
        x = vec_add(F, vec_scale(F, three, sq), vec_scale(F, F.neg(two), cube))
    raise AssertionError("idempotent lifting did not converge")


def _subalgebra_on(A, sub, unit):
    """Structure constants of a unital subalgebra given by a closed graded
    subspace, on the labels of A at its pivots."""
    basis = sub.basis()
    space = SuperVectorSpace(A.field, tuple(A.space.labels[c] for c in sub.pivots),
                             sub.parities)
    coords = coordinates(sub, A.products(basis, basis) + [unit])
    if coords is None:
        raise AssertionError("a product or the unit escapes the subalgebra subspace")
    *products, ucoords = coords
    return make_superalgebra(space, _transpose(products, sub.dim), ucoords)


def local_decomposition(A, rad):
    """Complete orthogonal idempotents and the corresponding local factors;
    rad is radical(A).

    Each pending idempotent e gives B = eA, its radical and S = B / rad B
    once: a nontrivial idempotent of S is lifted and splits e in two,
    otherwise S is the residue field of the local factor B, recorded by
    its degree dim S.  For e = 1, B is A itself, with the given radical.
    A quotient of dimension 1 is the base field: when dim B - dim rad B
    = 1, B is local with residue k, and S is not built.
    """
    if A.dim == 0:
        return []
    F = A.field
    pending = [A.unit]
    factors = []
    while pending:
        e = pending.pop(0)
        if e == A.unit:
            B, incl, rad_b = A, _identity_columns(F, A.dim), rad
        else:
            sub = ideal_generated_by(A, [e]).subspace
            B, incl = _subalgebra_on(A, sub, e), sub.basis()
            rad_b = radical(B)
        if B.dim - rad_b.subspace.dim == 1:
            factors.append(LocalFactor(e, 1))
            continue
        S, _, reps = quotient_by_superideal(B, rad_b)
        e_bar = _semisimple_idempotent(S)
        if e_bar is None:
            factors.append(LocalFactor(e, S.dim))
            continue
        e1 = next(_images(F, incl, (_lift_idempotent(B, reps, e_bar),)))
        pending[:0] = [e1, vec_sub(F, e, e1)]
    total = ()
    for fac in factors:
        total = vec_add(F, total, fac.idempotent)
    if total != A.unit:
        raise AssertionError("idempotents do not sum to 1")
    return factors


# ---------------------------------------------------------------------------
# morphism enumeration over finite fields

class WordBasis:
    """Words in generators of an algebra whose values form a basis of the
    subalgebra the generators generate, grown one generator at a time.

    A word is a (parent word, generator index) pair, its value the parent's
    value times the generator; word 0, (-1, -1), is the unit, unless the
    unit is zero.  Generator k adds the words from starts[k] on, of level
    k: each is a product of generators 0..k.  echelon is the span of the
    values, so a product is a new word exactly when it grows the echelon.
    relations[k] lists the products w * g_h met at level k that are no
    word, as (w, h, value): each lies in the span of the words of level <= k.
    """

    __slots__ = ("algebra", "gens", "words", "values", "starts", "echelon", "relations")

    def __init__(self, A, generators=()):
        self.algebra = A
        self.gens, self.words, self.values, self.starts, self.relations = [], [], [], [], []
        self.echelon = Echelon(A.field)
        if self.echelon.add(A.unit):
            self.words.append((-1, -1))
            self.values.append(A.unit)
        for g in generators:
            self.grow(g)

    def grow(self, g):
        """Add generator g: every word so far times g, then every new word
        times every generator, until no new word appears.  The span is then
        closed under every generator, so it is the subalgebra they generate,
        and each product that is no word is a relation of this level."""
        A = self.algebra
        k = len(self.gens)
        self.gens.append(g)
        self.starts.append(len(self.words))
        relations = []
        self.relations.append(relations)
        pairs = [(w, k) for w in range(len(self.words))]
        values = A.products(self.values, [g])
        while pairs:
            first = len(self.words)
            for (w, h), value, grew in zip(pairs, values, self.echelon.extend(values)):
                if grew:
                    self.words.append((w, h))
                    self.values.append(value)
                else:
                    relations.append((w, h, value))
            new = range(first, len(self.words))
            pairs = [(w, h) for w in new for h in range(k + 1)]
            values = A.products([self.values[w] for w in new], self.gens)


def enumerate_homs(A, R, basis):
    """All superalgebra morphisms A -> R over a finite field, as columns.

    basis is a WordBasis of A grown from its generators.  Generator
    images range over the matching parity component of R and fix the image
    of every word.  The induced linear map is multiplicative once
    phi(w * g) = phi(w) phi(g) for every word w and generator g; that holds
    by construction when w * g is itself a word, so only the relations of
    the word basis are checked, against their coordinates over the words.
    A relation of level k involves generators 0..k alone, so the images are
    assigned depth first, generator 0 first: at depth k each image of
    generator k gives the words of level k their values, one product from
    the parent each, and the relations of level k are checked, so no
    assignment that breaks one is extended.  The result order follows the
    lexicographic enumeration of images, generator 0 major.  A morphism is
    even: b_i has coordinates only on words of its parity, whose images
    have it.
    """
    F = A.field
    if not F.is_finite():
        raise FieldError("morphism enumeration needs a finite base field")
    if F != R.field:
        raise ValueError("source and target over different fields")
    gens = basis.gens
    gen_parities = []
    for g in gens:
        ps = {A.parity(i) for i, _ in g}
        if len(ps) != 1:
            raise ValueError("generators must be nonzero homogeneous")
        gen_parities.append(ps.pop())
    if not all(map(basis.echelon.has_unit_vec, range(A.dim))):
        raise ValueError("declared generators do not generate the algebra")
    words, m = basis.words, len(gens)
    starts = basis.starts + [len(words)]
    # one solve: the word coordinates of each basis vector, then of each
    # relation's product, level by level
    coords = Matrix(F, _transpose(basis.values, A.dim), len(words)).solve(
        [*_identity_columns(F, A.dim),
         *(value for level in basis.relations for _, _, value in level)])
    read, coords = coords[:A.dim], iter(coords[A.dim:])
    # per level: its words; its relations as (w, h), those whose product is
    # zero first; as many empty right-hand sides; and the coordinates of the
    # others, whose right-hand sides one _images call reads only if needed
    levels = []
    for k, level in enumerate(basis.relations):
        rels = sorted(((w, h, next(coords)) for w, h, _ in level), key=lambda r: bool(r[2]))
        levels.append((words[starts[k]:starts[k + 1]], [(w, h) for w, h, _ in rels],
                       tuple(c for *_, c in rels if not c), [c for *_, c in rels if c]))
    elems = sorted(F.elements(), key=F.sort_key)
    # every candidate image of a generator of each parity, as a vector, in
    # the lexicographic order of its coefficients on the slots; the (slot,
    # c) pairs are shared, so a candidate costs no more than its coefficients
    images = {p: [tuple(t for t in combo if t) for combo in itertools.product(
                  *([(s, c) if not F.is_zero(c) else () for c in elems]
                    for s in range(R.dim) if R.parity(s) == p))]
              for p in set(gen_parities)}
    multiply = R.multiply
    img = [None] * m
    values = [R.unit]
    if not m:
        # phi(1) = 1_R; the unit of A = 0 is zero and no word, so A = 0
        # maps only to R = 0
        return [tuple(_images(F, values, read))] if words or not R.unit else []
    found = []
    # the search's stack: per depth k, the images of generator k not yet tried
    stack = [iter(images[gen_parities[0]])]
    while stack:
        k = len(stack) - 1
        r = next(stack[k], None)
        if r is None:
            stack.pop()
            continue
        img[k] = r
        new, checks, zeros, rhs = levels[k]
        del values[starts[k]:]
        for parent, h in new:
            values.append(multiply(values[parent], img[h]))
        # the right-hand sides come one at a time: the first failure ends it
        for (w, h), v in zip(checks, itertools.chain(zeros, _images(F, values, rhs))):
            if multiply(values[w], img[h]) != v:
                break
        else:
            if k + 1 < m:
                stack.append(iter(images[gen_parities[k + 1]]))
            else:
                found.append(tuple(_images(F, values, read)))
    return found


# ---------------------------------------------------------------------------
# tensor product

def tensor_superalgebra(A, B):
    """(a (x) b)(a' (x) b') = (-1)^{|b||a'|} aa' (x) bb', so cop is
    (id (x) twist(A, B) (x) id)(cop_A (x) cop_B), as for a tensor coalgebra."""
    F = A.field
    cop = tensor_structure(F, A.cop, A.space.parities, B.cop, B.space.parities)
    unit = [(i * B.dim + j, F.mul(a, b)) for i, a in A.unit for j, b in B.unit]
    return make_superalgebra(A.space.tensor(B.space), cop, unit)


# ---------------------------------------------------------------------------
# truncated monomial algebras

def monomial_label(exps, odds, even_names, odd_names):
    parts = []
    for i, e in enumerate(exps):
        if e == 1:
            parts.append(even_names[i])
        elif e > 1:
            parts.append(f"{even_names[i]}^{e}")
    parts.extend(odd_names[j] for j in sorted(odds))
    return "*".join(parts) if parts else "1"


def _monomial_divisible(exps, odds, gen_exps, gen_odds):
    return all(a >= b for a, b in zip(exps, gen_exps)) and gen_odds <= odds


def _exponents(p, total):
    """The exponent tuples of p variables with this sum, in lexicographic
    order (not nested: a closure that calls itself is a reference cycle)."""
    if p == 0:
        if total == 0:
            yield ()
        return
    for e in range(total + 1):
        for rest in _exponents(p - 1, total - e):
            yield (e,) + rest


def monomial_superalgebra(field, p, q, degree, generators=(),
                          even_names=None, odd_names=None):
    """k[T_1..T_p | th_1..th_q] modulo a monomial superideal and degree > d.

    generators are (exponent tuple, odd index frozenset) pairs.  The basis is
    the set of surviving monomials of total degree <= degree, ordered by
    (degree, exponents, odd part); multiplication carries the Koszul sign of
    sorting the odd factors.
    """
    F = field
    even_names = even_names or tuple(f"T{i + 1}" for i in range(p))
    odd_names = odd_names or tuple(f"th{j + 1}" for j in range(q))
    gens = [(tuple(e), frozenset(o)) for e, o in generators]

    def in_ideal(exps, odds):
        return any(_monomial_divisible(exps, odds, ge, go) for ge, go in gens)

    monomials = []
    for total in range(degree + 1):
        layer = []
        for odd_size in range(min(q, total) + 1):
            for odds in itertools.combinations(range(q), odd_size):
                for exps in _exponents(p, total - odd_size):
                    if not in_ideal(exps, frozenset(odds)):
                        layer.append((exps, frozenset(odds)))
        layer.sort(key=lambda m: (m[0], tuple(sorted(m[1]))))
        monomials.extend(layer)
    index = {m: i for i, m in enumerate(monomials)}
    labels = tuple(monomial_label(e, o, even_names, odd_names) for e, o in monomials)
    parities = tuple(len(o) % 2 for _, o in monomials)
    space = SuperVectorSpace(F, labels, parities)
    n = len(monomials)
    cop = [[] for _ in range(n)]
    for i, (exps1, odds1) in enumerate(monomials):
        for j, (exps2, odds2) in enumerate(monomials):
            if not (odds1 & odds2):
                exps = tuple(a + b for a, b in zip(exps1, exps2))
                odds = odds1 | odds2
                if sum(exps) + len(odds) <= degree and not in_ideal(exps, odds):
                    inv = sum(1 for a in odds1 for b in odds2 if a > b)
                    cop[index[(exps, odds)]].append(
                        (i * n + j, F.neg(F.one) if inv % 2 else F.one))
    unit = [(index[((0,) * p, frozenset())], F.one)]
    return make_superalgebra(space, cop, unit)
