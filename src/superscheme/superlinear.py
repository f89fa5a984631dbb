"""Z2-graded exact linear algebra: spaces, canonical subspaces, graded maps.

Subspaces are kept in reduced row-echelon form so equality is syntactic.
Tensor bases are ordered lexicographically with the left factor major; the
Koszul sign (-1)^{|x||y|} enters whenever two odd symbols swap.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .fields import PrimeField, RationalField


class DimensionMismatch(ValueError):
    pass


def _plain_char(F):
    """p for F_p, 0 for Q, None for any other field.

    Over F_p and Q the elements are plain ints in [0, p) and Fractions, so
    _sum_ops, the one accumulation rule, sums products on plain values;
    every other field, and any field that only wraps one of these, sums
    through the Field methods, which the tests use as the oracle.
    """
    kind = type(F)
    if kind is PrimeField:
        return F.p
    if kind is RationalField:
        return 0
    return None


# ---------------------------------------------------------------------------
# exact matrices


class Matrix:
    """Immutable dense matrix over an explicit field.

    The rref and the nonzero entries of each row are cached.  A cached rref
    of (None, pivots) marks a matrix that is its own rref.  A matrix built
    from its support by ``from_support`` makes its dense rows on first use.
    Every field takes the same path: one sparse elimination, products
    summed by _sum_ops, and the Field methods everywhere else.
    """

    __slots__ = ("field", "rows", "nrows", "ncols", "_rref", "_support")

    def __init__(self, field, rows, ncols=None):
        rows = tuple(map(tuple, rows))
        self.field = field
        self.rows = rows
        self._rref = None
        self._support = None
        self.nrows = len(rows)
        if rows:
            widths = {len(r) for r in rows}
            if len(widths) != 1:
                raise DimensionMismatch("ragged rows")
            self.ncols = widths.pop()
            if ncols is not None and ncols != self.ncols:
                raise DimensionMismatch("declared width disagrees with rows")
        else:
            self.ncols = 0 if ncols is None else ncols

    @classmethod
    def from_support(cls, field, support, ncols, pivots=None, nrows=None):
        """The matrix whose rows have this support (sorted (column, entry)
        pairs with a nonzero entry), then zero rows up to nrows.  Given the
        pivots, it is the reduced echelon matrix over them and is marked as
        its own rref."""
        out = cls.__new__(cls)
        out.field, out.ncols = field, ncols
        out._support = tuple(support)
        out._support += ((),) * ((nrows or len(out._support)) - len(out._support))
        out.nrows = len(out._support)
        out._rref = None if pivots is None else (None, tuple(pivots))
        return out

    def __getattr__(self, name):
        # only an unset slot gets here: the rows of a matrix made by from_support
        if name != "rows":
            raise AttributeError(name)
        zero, n = self.field.zero, self.ncols
        rows = []
        for entries in self._support:
            row = [zero] * n
            for j, a in entries:
                row[j] = a
            rows.append(tuple(row))
        self.rows = tuple(rows)
        return self.rows

    @classmethod
    def zero(cls, field, m, n):
        return cls(field, [[field.zero] * n for _ in range(m)], n)

    @classmethod
    def identity(cls, field, n):
        return cls(field, [[field.one if i == j else field.zero for j in range(n)]
                           for i in range(n)], n)

    def __eq__(self, other):
        # the support is canonical, so it decides equality without dense rows
        return (isinstance(other, Matrix) and self.field == other.field
                and self.support() == other.support() and self.ncols == other.ncols)

    def __hash__(self):
        return hash((self.support(), self.ncols))

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"

    def transpose(self):
        return Matrix(self.field,
                      [[self.rows[i][j] for i in range(self.nrows)]
                       for j in range(self.ncols)], self.nrows)

    def add(self, other):
        F = self.field
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("matrix addition shape mismatch")
        add = F.add
        rows = []
        for r, s in zip(self.rows, other.support()):
            row = list(r)
            for j, b in s:
                row[j] = add(row[j], b)
            rows.append(row)
        return Matrix(F, rows, self.ncols)

    def sub(self, other):
        return self.add(other.scale(self.field.neg(self.field.one)))

    def scale(self, c):
        F = self.field
        return Matrix(F, [[F.mul(c, a) for a in r] for r in self.rows], self.ncols)

    def support(self):
        """Per row, the (column, entry) pairs with a nonzero entry."""
        if self._support is None:
            nonzeros = self.field.nonzeros
            self._support = tuple(tuple(nonzeros(r)) for r in self.rows)
        return self._support

    def mul(self, other):
        """Row r of the product is other^T applied to row r of self: the
        sparse tensor kernel with g = id_k."""
        F = self.field
        if self.ncols != other.nrows:
            raise DimensionMismatch("matrix product shape mismatch")
        return Matrix(F, _dense(F, other.ncols, _tensor_apply_sparse(
            F, other.support(), [[(0, F.one)]], 1, (), self.support())), other.ncols)

    def apply(self, vec):
        F = self.field
        if len(vec) != self.ncols:
            raise DimensionMismatch("vector length mismatch")
        add, mul, zero = F.add, F.mul, F.zero
        terms = dict(F.nonzeros(vec))
        out = []
        for row in self.support():
            acc = zero
            for j, a in row:
                if j in terms:
                    acc = add(acc, mul(a, terms[j]))
            out.append(acc)
        return tuple(out)

    def stack(self, other):
        if self.ncols != other.ncols:
            raise DimensionMismatch("stack width mismatch")
        return Matrix(self.field, self.rows + other.rows, self.ncols)

    def rref(self):
        """Reduced row-echelon form and the pivot column tuple."""
        if self._rref is not None:
            red, pivots = self._rref
            return (self if red is None else red), pivots
        red, pivots = _rref_sparse(self.field, self.support())
        red = Matrix.from_support(self.field, red, self.ncols, pivots, self.nrows)
        self._rref = (red, pivots)
        return red, pivots

    def rank(self):
        _, pivots = self.rref()
        return len(pivots)

    def row_space(self):
        """Canonical spanning matrix: RREF with zero rows dropped."""
        red, pivots = self.rref()
        if red.nrows == len(pivots):
            return red
        # an rref with its zero rows dropped is its own rref
        return Matrix.from_support(self.field, red.support()[:len(pivots)], self.ncols,
                                   pivots)

    def null_space(self):
        """Canonical matrix whose rows span {v : M v = 0}."""
        red, pivots = self.rref()
        kernel, kpivots = _null_space_sparse(self.field, red.support()[:len(pivots)],
                                             pivots, self.ncols)
        return Matrix.from_support(self.field, kernel, self.ncols, kpivots)

    def solve(self, bs):
        """Solutions x of M x = b, one per right-hand side b in bs, from one
        reduction of [M | B]; None if any b lies outside the column space."""
        F = self.field
        n = self.ncols
        cols = list(zip(*bs)) or [()] * self.nrows
        aug = Matrix(F, [r + c for r, c in zip(self.rows, cols)], n + len(bs))
        red, pivots = aug.rref()
        if pivots and pivots[-1] >= n:
            return None
        out = [[F.zero] * n for _ in bs]
        for row, pc in zip(red.support(), pivots):
            for j, c in row:
                if j >= n:
                    out[j - n][pc] = c
        return [tuple(x) for x in out]


def _rref_sparse(F, rows):
    """Gauss-Jordan elimination over sparse rows (column -> nonzero entry
    dicts, or lists of such pairs).

    Each incoming row is reduced against the pivot rows found so far.  Its
    least column becomes a new pivot, which is cleared only from the pivot
    rows that hold it, found through a column -> pivot-rows index; only
    nonzeros are touched (LaMacchia-Odlyzko, CRYPTO 1990).  A pivot row's
    pivot stays its least column, so the rows in pivot order are the unique
    reduced echelon form.  Returns (rows, pivots), each row as sorted
    (column, entry) pairs.
    """
    add, mul, neg, inv, is_zero = F.add, F.mul, F.neg, F.inv, F.is_zero
    one = F.one
    red = {}            # pivot column -> its row
    holders = {}        # non-pivot column -> pivot columns whose rows hold it
    for row in rows:
        row = dict(row)
        # pivot rows hold no other pivot column, so one pass clears them all
        for c in [c for c in row if c in red]:
            fac = neg(row.pop(c))
            for j, y in red[c].items():
                if j != c:
                    x = add(row[j], mul(fac, y)) if j in row else mul(fac, y)
                    if is_zero(x):
                        del row[j]
                    else:
                        row[j] = x
        if not row:
            continue
        c = min(row)
        if row[c] != one:
            s = inv(row[c])
            row = {j: mul(s, y) for j, y in row.items()}
        for pc in holders.pop(c, ()):
            prow = red[pc]
            fac = neg(prow.pop(c))
            for j, y in row.items():
                if j == c:
                    continue
                if j in prow:
                    x = add(prow[j], mul(fac, y))
                    if is_zero(x):
                        del prow[j]
                        holders[j].discard(pc)
                    else:
                        prow[j] = x
                else:
                    prow[j] = mul(fac, y)
                    holders.setdefault(j, set()).add(pc)
        red[c] = row
        for j in row:
            if j != c:
                holders.setdefault(j, set()).add(c)
    pivots = sorted(red)
    return [tuple(sorted(red[c].items())) for c in pivots], tuple(pivots)


def _null_space_sparse(F, red, pivots, ncols):
    """Sparse RREF (rows as sorted pairs, pivots) of {v : M v = 0}, from
    that of M: one vector per free column, reduced by _rref_sparse."""
    kernel = {c: {c: F.one} for c in range(ncols)}
    for c in pivots:
        del kernel[c]
    for row, c in zip(red, pivots):
        for j, y in row:
            if j != c:
                kernel[j][c] = F.neg(y)
    return _rref_sparse(F, kernel.values())


def vec_add(F, u, v):
    return tuple(F.add(a, b) for a, b in zip(u, v))


def vec_sub(F, u, v):
    return tuple(F.sub(a, b) for a, b in zip(u, v))


def vec_scale(F, c, u):
    return tuple(F.mul(c, a) for a in u)


def zero_vec(F, n):
    return tuple([F.zero] * n)


def unit_vec(F, n, i):
    return tuple(F.one if j == i else F.zero for j in range(n))


# ---------------------------------------------------------------------------
# super vector spaces


@dataclass(frozen=True)
class SuperVectorSpace:
    field: object
    labels: tuple
    parities: tuple

    def __post_init__(self):
        if len(self.labels) != len(self.parities):
            raise DimensionMismatch("labels/parities length mismatch")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("basis labels must be unique")
        if any(p not in (0, 1) for p in self.parities):
            raise ValueError("parities must be 0 or 1")

    @property
    def dim(self):
        return len(self.labels)

    @property
    def sdim(self):
        even = sum(1 for p in self.parities if p == 0)
        return (even, self.dim - even)

    def parity(self, i):
        return self.parities[i]

    def dual(self):
        return SuperVectorSpace(self.field,
                                tuple(f"{l}*" for l in self.labels), self.parities)

    def tensor(self, other):
        if self.field != other.field:
            raise ValueError("tensor factors over different fields")
        labels = tuple(f"{a}⊗{b}" for a in self.labels for b in other.labels)
        parities = tuple((p + q) % 2 for p in self.parities for q in other.parities)
        return SuperVectorSpace(self.field, labels, parities)

    def direct_sum(self, other):
        if self.field != other.field:
            raise ValueError("summands over different fields")
        return SuperVectorSpace(
            self.field,
            tuple(f"{l}.0" for l in self.labels) + tuple(f"{l}.1" for l in other.labels),
            self.parities + other.parities)

    def parity_shift(self):
        return SuperVectorSpace(self.field,
                                tuple(f"Π{l}" for l in self.labels),
                                tuple(1 - p for p in self.parities))

    def tensor_index(self, other, i, j):
        return i * other.dim + j


def standard_space(field, even, odd, even_prefix="e", odd_prefix="o"):
    labels = tuple(f"{even_prefix}{i + 1}" for i in range(even)) + \
        tuple(f"{odd_prefix}{i + 1}" for i in range(odd))
    return SuperVectorSpace(field, labels, (0,) * even + (1,) * odd)


class Subspace:
    """Subspace of a super vector space in canonical reduced echelon form."""

    __slots__ = ("space", "matrix")

    def __init__(self, space, matrix):
        if matrix.ncols != space.dim:
            raise DimensionMismatch("subspace width disagrees with ambient")
        self.space = space
        self.matrix = matrix.row_space()

    @classmethod
    def from_vectors(cls, space, vectors):
        return cls(space, Matrix(space.field, list(vectors), space.dim))

    @classmethod
    def zero(cls, space):
        return cls(space, Matrix.zero(space.field, 0, space.dim))

    @classmethod
    def full(cls, space):
        return cls(space, Matrix.identity(space.field, space.dim))

    @property
    def dim(self):
        return self.matrix.nrows

    def basis(self):
        return list(self.matrix.rows)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.space == other.space
                and self.matrix == other.matrix)

    def __hash__(self):
        return hash((self.space, self.matrix))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.space.dim})"

    def contains(self, vec):
        """Read against the cached echelon basis; no fresh reduction."""
        return coordinates(self, [vec]) is not None

    def contains_subspace(self, other):
        return coordinates(self, other.basis()) is not None

    def sum(self, other):
        if self.space != other.space:
            raise DimensionMismatch("subspace sum in different ambients")
        return Subspace(self.space, self.matrix.stack(other.matrix))

    def intersect(self, other):
        """Via the kernel of the stacked spanning matrices."""
        if self.space != other.space:
            raise DimensionMismatch("subspace intersection in different ambients")
        F = self.space.field
        a, b = self.matrix, other.matrix
        if a.nrows == 0 or b.nrows == 0:
            return Subspace.zero(self.space)
        # x a = y b exactly when (x, y) is in the kernel of [a^T | -b^T]
        combined = Matrix(F, [list(ra) + [F.neg(c) for c in rb]
                              for ra, rb in zip(a.transpose().rows, b.transpose().rows)],
                          a.nrows + b.nrows)
        coeffs = [s[:a.nrows] for s in combined.null_space().rows]
        return Subspace.from_vectors(self.space, Matrix(F, coeffs, a.nrows).mul(a).rows)

    def parity_component(self, parity):
        """Intersection with the even or odd coordinate subspace."""
        axis = Subspace.from_vectors(
            self.space,
            [unit_vec(self.space.field, self.space.dim, i)
             for i, p in enumerate(self.space.parities) if p == parity])
        return self.intersect(axis)

    def even_part(self):
        return self.parity_component(0)

    def odd_part(self):
        return self.parity_component(1)

    def is_graded(self):
        """W = W_even + W_odd iff the even part of each basis vector of W lies in W."""
        zero = self.space.field.zero
        return coordinates(self, [[c if p == 0 else zero
                                   for c, p in zip(v, self.space.parities)]
                                  for v in self.basis()]) is not None

    @property
    def sdim(self):
        return (self.even_part().dim, self.odd_part().dim)


# ---------------------------------------------------------------------------
# graded maps


class GradedMap:
    """Linear map between super vector spaces with a declared parity.

    parity 0 and 1 are enforced as matrix block structure; parity None marks
    raw linear data exempt from homogeneity.
    """

    __slots__ = ("domain", "codomain", "matrix", "parity")

    def __init__(self, domain, codomain, matrix, parity=0):
        if matrix.nrows != codomain.dim or matrix.ncols != domain.dim:
            raise DimensionMismatch(
                f"map shape {matrix.nrows}x{matrix.ncols} vs "
                f"{codomain.dim}x{domain.dim}")
        if domain.field != codomain.field:
            raise ValueError("domain and codomain over different fields")
        if parity not in (0, 1, None):
            raise ValueError("parity must be 0, 1 or None")
        if parity is not None:
            # row i of a map of this parity may only hit domain parity |i| + parity
            shifted = [(p + parity) % 2 for p in codomain.parities]
            for i, j in _parity_defects(matrix.support(), shifted, domain.parities):
                raise ValueError(f"entry ({i},{j}) violates declared parity {parity}")
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix
        self.parity = parity

    @classmethod
    def identity(cls, space):
        return cls(space, space, Matrix.identity(space.field, space.dim), 0)

    @classmethod
    def zero(cls, domain, codomain):
        return cls(domain, codomain,
                   Matrix.zero(domain.field, codomain.dim, domain.dim), 0)

    @classmethod
    def from_columns(cls, domain, codomain, cols, parity=0):
        """The map sending basis vector j of the domain to cols[j]."""
        return cls(domain, codomain,
                   Matrix(domain.field, cols, codomain.dim).transpose(), parity)

    @classmethod
    def from_sparse_columns(cls, domain, codomain, cols, parity=0):
        """The map sending basis vector j of the domain to the sparse vector
        cols[j] (sorted (index, entry) pairs), built without dense rows."""
        return cls(domain, codomain, Matrix.from_support(
            domain.field, _transpose(cols, codomain.dim), domain.dim), parity)

    def __eq__(self, other):
        return (isinstance(other, GradedMap) and self.domain == other.domain
                and self.codomain == other.codomain and self.matrix == other.matrix)

    def __hash__(self):
        return hash((self.domain, self.codomain, self.matrix))

    def __repr__(self):
        return f"GradedMap({self.domain.dim}->{self.codomain.dim}, parity={self.parity})"

    def apply(self, vec):
        return self.matrix.apply(vec)

    def column(self, j):
        return tuple(self.matrix.rows[i][j] for i in range(self.matrix.nrows))

    def compose(self, other):
        """self after other."""
        if other.codomain != self.domain:
            raise DimensionMismatch("composition domain mismatch")
        return GradedMap(other.domain, self.codomain, self.matrix.mul(other.matrix),
                         _parity_sum(self.parity, other.parity))

    def add(self, other):
        parity = self.parity if self.parity == other.parity else None
        return GradedMap(self.domain, self.codomain,
                         self.matrix.add(other.matrix), parity)

    def sub(self, other):
        parity = self.parity if self.parity == other.parity else None
        return GradedMap(self.domain, self.codomain,
                         self.matrix.sub(other.matrix), parity)

    def kernel(self):
        return Subspace(self.domain, self.matrix.null_space())

    def image(self):
        return Subspace(self.codomain, self.matrix.transpose().row_space())

    def rank(self):
        return self.matrix.rank()

    def is_injective(self):
        return self.rank() == self.domain.dim

    def is_surjective(self):
        return self.rank() == self.codomain.dim

    def tensor(self, other):
        """f (x) g: (f (x) g)(v (x) w) = (-1)^{|g||v|} f(v) (x) g(w).

        A factor g of parity None contributes no sign; the product has a
        declared parity only when both factors do.
        """
        return tensor_after(self, other,
                            GradedMap.identity(self.domain.tensor(other.domain)))


def _parity_sum(p, q):
    """Parity of a composite or tensor product; None if either is undeclared."""
    return None if p is None or q is None else (p + q) % 2


def tensor_apply(f, g, vecs):
    """(f (x) g)(v) for each v in vecs, in the tensor basis of the codomains.

    (f (x) g)(x_k (x) y_l) = (-1)^{|g||x_k|} f(x_k) (x) g(y_l); a factor g of
    parity None contributes no sign.  The dense vectors are read through
    _tensor_apply_sparse, and images are yielded one at a time.
    """
    F = f.domain.field
    odd = {k for k, q in enumerate(f.domain.parities) if q} if g.parity else ()
    yield from _dense(F, f.codomain.dim * g.codomain.dim, _tensor_apply_sparse(
        F, _sparse_columns(f), _sparse_columns(g), g.codomain.dim, odd,
        map(F.nonzeros, vecs)))


def _dense(F, n, images):
    """Each index -> entry dict of images as a dense n-tuple, one at a time."""
    zero = F.zero
    for image in images:
        out = [zero] * n
        for j, c in image.items():
            out[j] = c
        yield tuple(out)


def _tensor_apply_sparse(F, fcols, gcols, nj, odd, vecs):
    """(f (x) g)(v) for each sparse vector v, with f and g given by their
    sparse columns and nj = dim of g's codomain; the columns x_k of f with k
    in odd are negated.  Sparse row products in the manner of Gustavson (ACM
    TOMS 1978): only the nonzero coordinates of v and the nonzero column
    entries of f and g are visited, and sums are accumulated by _sum_ops.
    Images are yielded one at a time, as index -> entry dicts.
    """
    lift, lift_each, add, mul, lower = _sum_ops(F)
    neg = F.neg
    fcols, df = lift([[(i, neg(a)) for i, a in col] if k in odd else col
                      for k, col in enumerate(fcols)])
    gcols, dg = lift(gcols)
    nl = len(gcols)
    for v, dv in lift_each(vecs):
        acc = {}
        for kl, c in v:
            k, l = divmod(kl, nl)
            gl = gcols[l]
            for i, a in fcols[k]:
                ca = mul(c, a)
                base = i * nj
                for j, b in gl:
                    t = mul(ca, b)
                    ij = base + j
                    acc[ij] = add(acc[ij], t) if ij in acc else t
        yield lower(acc.items(), df * dg * dv, {})


def _sum_ops(F):
    """(lift, lift_each, add, mul, lower): how sums of products accumulate.

    lift takes one operand set (a list of sparse vectors) to (lifted, D),
    lift_each a stream of vectors to one (lifted, D) per vector.  Kernels
    add and multiply lifted entries; lower(items, D, out) writes the nonzero
    sums of one output, D the product of its operands' D, into out (a dict
    or a dense list).  Over Q lifted entries are ints over D, the lcm of the
    denominators, and lower makes one Fraction per entry; over F_p sums are
    plain ints reduced mod p once; other fields use their Field methods.
    """
    p = _plain_char(F)
    if p == 0:
        return _lift_q, _lift_each_q, operator.add, operator.mul, _lower_q
    if p:
        return _no_lift, _no_lift_each, operator.add, operator.mul, partial(_lower_mod, p)
    return _no_lift, _no_lift_each, F.add, F.mul, partial(_lower_field, F.is_zero)


def _no_lift(vecs):
    return vecs, 1


def _no_lift_each(vecs):
    return zip(vecs, itertools.repeat(1))


def _lift_q(vecs):
    D = math.lcm(*(a.denominator for v in vecs for _, a in v))
    return [[(i, a.numerator * (D // a.denominator)) for i, a in v] for v in vecs], D


def _lift_each_q(vecs):
    for v in vecs:
        (v,), D = _lift_q((v,))
        yield v, D


def _lower_q(items, D, out):
    for k, n in items:
        if n:
            out[k] = Fraction(n, D) if D != 1 else Fraction(n)
    return out


def _lower_mod(p, items, D, out):
    for k, c in items:
        if c := c % p:
            out[k] = c
    return out


def _lower_field(is_zero, items, D, out):
    for k, c in items:
        if not is_zero(c):
            out[k] = c
    return out


def tensor_after(f, g, h):
    """(f (x) g) o h, built column by column without the Kronecker matrix."""
    if h.codomain.dim != f.domain.dim * g.domain.dim:
        raise DimensionMismatch(
            f"{h.codomain.dim}-dimensional codomain vs tensor of "
            f"{f.domain.dim} and {g.domain.dim}")
    return GradedMap.from_columns(
        h.domain, f.codomain.tensor(g.codomain),
        tensor_apply(f, g, h.matrix.transpose().rows),
        _parity_sum(_parity_sum(f.parity, g.parity), h.parity))


def _sparse_columns(f):
    """The columns of f as sparse vectors: per column k, the (row, entry)
    pairs with a nonzero entry."""
    return _transpose(f.matrix.support(), f.domain.dim)


def _transpose(vecs, n):
    """Sparse vectors read the other way, for indices below n: entry i of
    the result lists (k, a) for each pair (i, a) of vecs[k].  Sorted pairs
    in give sorted pairs out."""
    out = [[] for _ in range(n)]
    for k, v in enumerate(vecs):
        for i, a in v:
            out[i].append((k, a))
    return tuple(map(tuple, out))


def _identity_columns(F, n):
    """The sparse columns of the identity of an n-dimensional space."""
    return tuple(((k, F.one),) for k in range(n))


def canonical_columns(F, cols, count, height):
    """The stored form of a structure map with count domain and height
    codomain basis vectors: per column, the (index, entry) pairs with a
    nonzero entry, sorted by index.  A column may come as such pairs in any
    order or as an index -> entry dict; of repeated indices the last counts."""
    is_zero = F.is_zero
    out = tuple(tuple(sorted((i, a) for i, a in dict(col).items() if not is_zero(a)))
                for col in cols)
    if len(out) != count or any(col and not 0 <= col[0][0] <= col[-1][0] < height
                                for col in out):
        raise DimensionMismatch(
            f"a structure map needs {count} columns with indices below {height}")
    return out


def _defects(lhs, rhs):
    """The (column, row) positions where two maps, given as iterables of
    sparse columns (pairs or index -> entry dicts), differ; the columns are
    consumed in step, one at a time."""
    for c, (u, v) in enumerate(zip(lhs, rhs)):
        u, v = dict(u), dict(v)
        if u != v:
            yield from ((c, r) for r in sorted(u.keys() | v.keys()) if u.get(r) != v.get(r))


def _parity_defects(cols, domain_parities, codomain_parities):
    """The (column, row) positions of the entries that keep a raw map, given
    by its sparse columns, from being even."""
    return ((c, r) for c, (col, p) in enumerate(zip(cols, domain_parities))
            for r, _ in col if codomain_parities[r] != p)


def twist(V, W):
    """Koszul twist c: V (x) W -> W (x) V, v (x) w -> (-1)^{|v||w|} w (x) v."""
    F = V.field
    dom = V.tensor(W)
    cod = W.tensor(V)
    rows = [[F.zero] * dom.dim for _ in range(cod.dim)]
    for i in range(V.dim):
        for j in range(W.dim):
            src = V.tensor_index(W, i, j)
            dst = W.tensor_index(V, j, i)
            val = F.one
            if V.parities[i] and W.parities[j]:
                val = F.neg(val)
            rows[dst][src] = val
    return GradedMap(dom, cod, Matrix(F, rows, dom.dim), 0)


def twist_apply(V, W, vecs):
    """twist(V, W)(v) for each sparse v in V (x) W, read as the signed
    permutation v_i (x) w_j -> (-1)^{|v_i||w_j|} w_j (x) v_i, without the
    twist matrix; images are sorted (index, entry) pairs."""
    neg, nv, nw = V.field.neg, V.dim, W.dim
    pv, pw = V.parities, W.parities
    for v in vecs:
        out = []
        for k, a in v:
            i, j = divmod(k, nw)
            out.append((j * nv + i, neg(a) if pv[i] and pw[j] else a))
        out.sort()
        yield tuple(out)


def linear_form(space, values, parity=0):
    """The map space -> k sending basis vector i to values[i]."""
    F = space.field
    return GradedMap(space, SuperVectorSpace(F, ("k",), (0,)),
                     Matrix(F, [values], space.dim), parity)


def perp(sub, space=None):
    """{f in V* : f(s) = 0 for all s in S}, V the space of S, as a subspace
    of space (by default V*) read in the dual basis."""
    space = sub.space.dual() if space is None else space
    if sub.dim == 0:
        return Subspace.full(space)
    return Subspace(space, sub.matrix.null_space())


def coordinates(sub, vecs):
    """Coordinates of each vector in the canonical basis of sub, or None if
    any of them lies outside sub: _read_coordinates on the nonzero entries."""
    F = sub.space.field
    _, pivots = sub.matrix.rref()
    coeffs = _read_coordinates(F, sub.matrix.support(), pivots, map(F.nonzeros, vecs))
    if coeffs is None:
        return None
    out = []
    for x in coeffs:
        row = [F.zero] * sub.dim
        for s, a in x:
            row[s] = a
        out.append(tuple(row))
    return out


def _read_coordinates(F, support, pivots, vecs):
    """Coordinates of sparse vectors in the echelon basis with this support
    and these pivots, as sparse vectors over its rows; None if any vector
    lies outside the span.

    The basis is in RREF, so the coordinates are the entries on the pivot
    columns; rebuilding each vector from the rows' supports checks them.
    """
    lift, lift_each, add, mul, lower = _sum_ops(F)
    support, ds = lift(support)
    row_of = {c: s for s, c in enumerate(pivots)}
    vecs = [dict(v) for v in vecs]
    out = [[(row_of[c], a) for c, a in v.items() if c in row_of] for v in vecs]
    for v, (lifted, dc) in zip(vecs, lift_each(out)):
        recon = {}
        for s, a in lifted:
            for j, b in support[s]:
                t = mul(a, b)
                recon[j] = add(recon[j], t) if j in recon else t
        if lower(recon.items(), ds * dc, {}) != v:
            return None
    return out


def pivot_selection(sub, space):
    """The even map V -> space that reads the coordinates of a vector of sub
    in its echelon basis off the pivot columns; row s of sub is basis vector
    s of space."""
    F = sub.space.field
    _, pivots = sub.matrix.rref()
    return GradedMap(sub.space, space,
                     Matrix(F, [unit_vec(F, sub.space.dim, c) for c in pivots],
                            sub.space.dim), 0)


def quotient_data(space, sub):
    """Quotient space, projection and section for V / W.

    The quotient basis consists of the non-pivot coordinates of W, so its
    labels are original basis labels.  The projection is even when W is
    graded, raw otherwise.
    """
    F = space.field
    red, pivots = sub.matrix.rref()
    pivot_set = set(pivots)
    reps = [c for c in range(space.dim) if c not in pivot_set]
    qspace = SuperVectorSpace(F, tuple(space.labels[c] for c in reps),
                              tuple(space.parities[c] for c in reps))
    pivot_rows = list(zip(pivots, map(dict, red.support())))
    rows = []
    for r in reps:
        row = [F.zero] * space.dim
        row[r] = F.one
        for pc, entries in pivot_rows:
            if r in entries:
                row[pc] = F.neg(entries[r])
        rows.append(row)
    parity = 0 if sub.is_graded() else None
    proj = GradedMap(space, qspace, Matrix(F, rows, space.dim), parity)
    section = GradedMap.from_columns(
        qspace, space, [unit_vec(F, space.dim, r) for r in reps], parity)
    return qspace, proj, section
