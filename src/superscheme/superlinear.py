"""Z2-graded exact linear algebra: spaces, canonical subspaces, linear maps.

Every vector is sparse: a tuple of (index, entry) pairs, sorted by index,
with every entry nonzero (see vector).  So is every matrix row and every
column of a linear map, and equal vectors are equal tuples.  A linear map
is its sparse columns, column j the image of basis vector j; the spaces
it runs between are known where it is used.  A Matrix holds rows.
Subspaces are kept in reduced row-echelon form so equality is syntactic.
Every kernel, null space and intersection is one column elimination with
an identity tail (_kernel), which yields that form directly.
Tensor bases are ordered lexicographically with the left factor major; the
Koszul sign (-1)^{|x||y|} enters whenever two odd symbols swap.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import partial

from .fields import PrimeField, RationalField


class DimensionMismatch(ValueError):
    pass


def _plain_char(F):
    """p for F_p, 0 for Q, None for any other field.

    Over F_p the elements are plain ints in [0, p), over Q ints and
    Fractions (an int exactly when the value is integral), so _sum_ops, the
    one accumulation rule, sums products on plain values;
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
# sparse vectors


def vector(F, entries):
    """The vector with these (index, entry) pairs, given in any order or as
    an index -> entry dict: sorted by index, zero entries dropped; of
    repeated indices the last counts."""
    is_zero = F.is_zero
    return tuple(sorted((i, a) for i, a in dict(entries).items() if not is_zero(a)))


def unit_vec(F, i):
    return ((i, F.one),)


def vec_add(F, u, v):
    if not u or not v:
        return u or v
    add, is_zero = F.add, F.is_zero
    out = dict(u)
    for j, b in v:
        if j in out:
            x = add(out[j], b)
            if is_zero(x):
                del out[j]
            else:
                out[j] = x
        else:
            out[j] = b
    return tuple(sorted(out.items()))


def vec_scale(F, c, u):
    # a product of nonzero field elements is nonzero
    if F.is_zero(c):
        return ()
    mul = F.mul
    return tuple((j, mul(c, a)) for j, a in u)


def vec_sub(F, u, v):
    return vec_add(F, u, vec_scale(F, F.neg(F.one), v))


# ---------------------------------------------------------------------------
# exact matrices


class Matrix:
    """Immutable matrix over an explicit field, held as its rows, each a
    vector (sorted (column, entry) pairs with a nonzero entry): what
    elimination runs on.  A linear map is held as its columns.

    The rref is cached.  A cached rref of (None, pivots) marks a matrix that
    is its own rref; the pivots given to the constructor say so.  Every
    field takes the same path: one sparse elimination, products summed by
    _sum_ops, and the Field methods everywhere else.
    """

    __slots__ = ("field", "rows", "nrows", "ncols", "_rref")

    def __init__(self, field, rows, ncols, pivots=None):
        rows = tuple(rows)
        if any(r and not 0 <= r[0][0] <= r[-1][0] < ncols for r in rows):
            raise DimensionMismatch(f"a row has an index outside width {ncols}")
        self.field = field
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols
        self._rref = None if pivots is None else (None, tuple(pivots))

    @classmethod
    def zero(cls, field, m, n):
        return cls(field, ((),) * m, n)

    @classmethod
    def identity(cls, field, n):
        return cls(field, _identity_columns(field, n), n, range(n))

    def __eq__(self, other):
        # rows are canonical, so they decide equality
        return (isinstance(other, Matrix) and self.field == other.field
                and self.ncols == other.ncols and self.rows == other.rows)

    def __hash__(self):
        return hash((self.rows, self.ncols))

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"

    def mul(self, other):
        """Row r of the product is other^T applied to row r of self."""
        F = self.field
        if self.ncols != other.nrows:
            raise DimensionMismatch("matrix product shape mismatch")
        return Matrix(F, _images(F, other.rows, self.rows), other.ncols)

    def stack(self, other):
        if self.ncols != other.ncols:
            raise DimensionMismatch("stack width mismatch")
        return Matrix(self.field, self.rows + other.rows, self.ncols)

    def rref(self):
        """Reduced row-echelon form and the pivot column tuple."""
        if self._rref is not None:
            red, pivots = self._rref
            return (self if red is None else red), pivots
        rows, pivots = _rref_sparse(self.field, self.rows)
        red = Matrix(self.field, rows + [()] * (self.nrows - len(rows)), self.ncols, pivots)
        self._rref = (red, pivots)
        return red, pivots

    def row_space(self):
        """Canonical spanning matrix: RREF with zero rows dropped."""
        red, pivots = self.rref()
        if red.nrows == len(pivots):
            return red
        # an rref with its zero rows dropped is its own rref
        return Matrix(self.field, red.rows[:len(pivots)], self.ncols, pivots)

    def null_space(self):
        """Canonical matrix whose rows span {v : M v = 0}: the kernel of the
        map whose columns are the columns of M."""
        return _kernel(self.field, _transpose(self.rows, self.ncols), self.nrows)

    def solve(self, bs):
        """Solutions x of M x = b, one per right-hand side b in bs, from one
        reduction of [M | B]; None if any b lies outside the column space."""
        F = self.field
        n = self.ncols
        # row r of B holds (k, entry r of bs[k]); it goes to column n + k
        aug = Matrix(F, [r + tuple((n + k, c) for k, c in b)
                         for r, b in zip(self.rows, _transpose(bs, self.nrows))],
                     n + len(bs))
        red, pivots = aug.rref()
        if pivots and pivots[-1] >= n:
            return None
        out = [[] for _ in bs]
        for row, pc in zip(red.rows, pivots):
            for j, c in row:
                if j >= n:
                    out[j - n].append((pc, c))
        return [tuple(x) for x in out]


class Echelon:
    """A growing span over F, kept in reduced row-echelon form: the one
    elimination, a sparse Gauss-Jordan over rows given as column -> nonzero
    entry dicts, or vectors.

    Each incoming row is reduced against the pivot rows found so far.  Its
    least column becomes a new pivot, which is cleared only from the pivot
    rows that hold it, found through a column -> pivot-rows index; only
    nonzero entries are touched (LaMacchia-Odlyzko, CRYPTO 1990).  A pivot row's
    pivot stays its least column, so the rows in pivot order are the unique
    reduced echelon form, whatever order the rows came in.
    """

    __slots__ = ("field", "red", "holders")

    def __init__(self, F):
        self.field = F
        self.red = {}       # pivot column -> its row
        self.holders = {}   # non-pivot column -> pivot columns whose rows hold it

    def extend(self, rows):
        """Add the rows in order; per row, whether it grew the span."""
        F = self.field
        add, mul, neg, inv, is_zero = F.add, F.mul, F.neg, F.inv, F.is_zero
        one = F.one
        red, holders = self.red, self.holders
        grew = []
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
            grew.append(bool(row))
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
        return grew

    def add(self, row):
        """Add one row; whether it grew the span."""
        return self.extend((row,))[0]

    def rows(self):
        """(rows, pivots): the rows as vectors, in pivot order."""
        pivots = sorted(self.red)
        return [tuple(sorted(self.red[c].items())) for c in pivots], tuple(pivots)

    def has_unit_vec(self, i):
        """Whether basis vector i lies in the span: exactly when the row at
        pivot i is b_i, as the other rows hold no pivot column."""
        return len(self.red.get(i, ())) == 1


def _rref_sparse(F, rows):
    """The reduced row-echelon form (rows, pivots) of these rows, each row
    a vector: one Echelon, extended once."""
    echelon = Echelon(F)
    echelon.extend(rows)
    return echelon.rows()


def _kernel(F, cols, height):
    """The kernel of the map given by cols, its columns with indices below
    height (each as (index, entry) pairs in any order), as its canonical
    Matrix over the domain: every kernel, null space and intersection.

    Column i joins one Echelon with the identity tail, entry 1 at index
    height + i (the kernel by column echelon form; Cohen, A Course in
    Computational Algebraic Number Theory, 1993, 2.3.1).  A pivot is a
    row's least column, so a reduced row whose pivot is at least height
    has a zero map part, and its tail is the coefficient vector of a
    vanishing combination; there are dim ker of them.  Gauss-Jordan clears
    every pivot from every other row, so those tails, shifted by -height,
    are already the kernel's reduced echelon form.
    """
    one = F.one
    echelon = Echelon(F)
    n = len(echelon.extend([*col, (height + i, one)] for i, col in enumerate(cols)))
    red = echelon.red
    pivots = sorted(c for c in red if c >= height)
    rows = [tuple(sorted((j - height, y) for j, y in red[c].items())) for c in pivots]
    return Matrix(F, rows, n, [c - height for c in pivots])


# ---------------------------------------------------------------------------
# records and super vector spaces


class Record:
    """An immutable record, the contract of a frozen dataclass.

    Its fields are the names annotated in the class body, in order; a class
    attribute of the same name is a field's default.  It takes its fields
    positionally or by keyword, compares equal to a record of the same type
    with equal fields, hashes as the tuple of its fields, and refuses
    assignment.  Defining a subclass generates no code, where a dataclass
    execs the source of five methods.  An instance keeps a __dict__, so
    functools.cached_property works on it.
    """

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        body = cls.__dict__
        cls._fields = tuple(body.get("__annotations__", ()))
        cls._defaults = {name: body[name] for name in cls._fields if name in body}

    # Fields are set and read as attributes, never through self.__dict__: on
    # CPython 3.11 touching __dict__ turns the instance's inline attribute
    # values into a plain dict, and every later attribute read is slower.

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._arguments(args, kwargs)
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)

    @classmethod
    def _arguments(cls, args, kwargs):
        """Every field's value, in order, from a call that passes some by
        keyword or leaves some to their defaults."""
        fields, name = cls._fields, cls.__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = list(args)
        for field in fields[:len(args)]:
            if field in kwargs:
                raise TypeError(f"{name}() got multiple values for argument {field!r}")
        for field in fields[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in cls._defaults:
                values.append(cls._defaults[field])
            else:
                raise TypeError(f"{name}() missing argument {field!r}")
        if kwargs:
            raise TypeError(f"{name}() got an unexpected argument {next(iter(kwargs))!r}")
        return values

    def _values(self):
        return tuple([getattr(self, field) for field in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{field}={value!r}" for field, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SuperVectorSpace(Record):
    """A parity and a label per basis vector.  Labels are names for files
    and reports, checked for uniqueness where a file reads or writes them
    (objfile): a tensor of labels that hold ⊗ may repeat one."""

    field: object
    labels: tuple
    parities: tuple

    def __init__(self, field, labels, parities):
        if len(labels) != len(parities):
            raise DimensionMismatch("labels/parities length mismatch")
        if any(p not in (0, 1) for p in parities):
            raise ValueError("parities must be 0 or 1")
        super().__init__(field, labels, parities)

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


class StructureRecord(Record):
    """An algebra, a coalgebra or a comodule on the super vector space space."""

    @property
    def field(self):
        return self.space.field

    @property
    def dim(self):
        return self.space.dim

    def parity(self, i):
        return self.space.parities[i]


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
        return cls(space, Matrix(space.field, vectors, space.dim))

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
        """x a = -y b for each (x, y) in the kernel of the map whose columns
        are the rows of a and then those of b.  The whole space meets a
        subspace in that subspace, which is returned as it is."""
        if self.space != other.space:
            raise DimensionMismatch("subspace intersection in different ambients")
        F = self.space.field
        a, b = self.matrix, other.matrix
        if a.nrows == 0 or b.nrows == 0:
            return Subspace.zero(self.space)
        if a.nrows == a.ncols:
            return other
        if b.nrows == b.ncols:
            return self
        na = a.nrows
        coeffs = [tuple(t for t in s if t[0] < na)
                  for s in _kernel(F, a.rows + b.rows, a.ncols).rows]
        return Subspace.from_vectors(self.space, Matrix(F, coeffs, na).mul(a).rows)

    def is_graded(self):
        """W = W_even + W_odd iff the even part of each basis vector of W lies in W."""
        parities = self.space.parities
        return coordinates(self, [tuple(t for t in v if not parities[t[0]])
                                  for v in self.basis()]) is not None

    @property
    def parities(self):
        """The parity of each echelon row's pivot.  In a graded subspace W
        it is the row's parity: the row's component of that parity lies in
        W and has the row's entries on the pivots, so it is the row."""
        par = self.space.parities
        return tuple(par[c] for c in self.matrix.rref()[1])

    @property
    def sdim(self):
        if not self.is_graded():
            raise ValueError("a subspace that is not graded has no sdim")
        odd = sum(self.parities)
        return (self.dim - odd, odd)


def _tensor_apply_sparse(F, fcols, gcols, nj, vecs):
    """(f (x) g)(v) for each vector v, with f and g given by their sparse
    columns and nj = dim of g's codomain.  No Koszul sign enters, as is right
    for an even g, and every g the package tensors is even (a validator takes
    a structure map as even and lists its parity defects apart).  Sparse row
    products in the manner of Gustavson (ACM TOMS 1978): only the nonzero
    coordinates of v and the nonzero column entries of f and g are visited,
    and sums are accumulated by _sum_ops.  Images are yielded one at a time,
    as vectors.
    """
    lift, lift_each, add, mul, lower = _sum_ops(F)
    fcols, df = lift(fcols)
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
        yield lower(acc.items(), df * dg * dv)


def _images(F, cols, vecs):
    """Each vector of vecs applied to cols: the tensor kernel, f = id_k."""
    return _tensor_apply_sparse(F, (((0, F.one),),), cols, 0, vecs)


def _sum_ops(F):
    """(lift, lift_each, add, mul, lower): how sums of products accumulate.

    lift takes one operand set (a list of vectors) to (lifted, D),
    lift_each a stream of vectors to one (lifted, D) per vector.  Kernels
    add and multiply lifted entries; lower(items, D) turns the (index, sum)
    items of one output, D the product of its operands' D, into a vector.
    Over Q lifted entries are ints over D, the lcm of the denominators, and
    lower writes each entry in the canonical form of Q: the int n // D when
    D divides n, one Fraction(n, D) otherwise.  Over F_p sums are plain ints
    reduced mod p once; other fields use their Field methods.
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
    if D == 1:
        return vecs, 1      # every entry is an int, its own numerator
    return [[(i, a.numerator * (D // a.denominator)) for i, a in v] for v in vecs], D


def _lift_each_q(vecs):
    for v in vecs:
        (v,), D = _lift_q((v,))
        yield v, D


# Most images are empty or have one entry (4,729 of 4,757 in the descent
# tower of the counit collapse of Grassmann(3)* over F3), so the lowerings
# test for those before they build or sort a list.

def _lower_q(items, D):
    """The vector of the nonzero sums n / D, each an int when D divides n
    and a Fraction otherwise: no Fraction is built for an integer."""
    if not items:
        return ()
    if D == 1:
        out = [(k, n) for k, n in items if n]
    else:
        out = [(k, Fraction(n, D) if n % D else n // D) for k, n in items if n]
    if len(out) > 1:
        out.sort()
    return tuple(out)


def _lower_mod(p, items, D):
    if not items:
        return ()
    out = [(k, r) for k, c in items if (r := c % p)]
    if len(out) > 1:
        out.sort()
    return tuple(out)


def _lower_field(is_zero, items, D):
    if not items:
        return ()
    out = [(k, c) for k, c in items if not is_zero(c)]
    if len(out) > 1:
        out.sort()
    return tuple(out)


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
    codomain basis vectors: per column, a vector.  A column may come as
    (index, entry) pairs in any order or as an index -> entry dict; a tuple
    of vectors, such as a stored map's columns, is kept as it is."""
    if not (type(cols) is tuple and all(_is_vector(F, col) for col in cols)):
        cols = tuple(vector(F, col) if col else () for col in cols)
    if len(cols) != count or any(col and not 0 <= col[0][0] <= col[-1][0] < height
                                 for col in cols):
        raise DimensionMismatch(
            f"a structure map needs {count} columns with indices below {height}")
    return cols


def _is_vector(F, col):
    """Whether col is a vector: a tuple of (index, entry) pairs with
    ascending indices and nonzero entries."""
    return (type(col) is tuple and all(a < b for (a, _), (b, _) in zip(col, col[1:]))
            and not any(F.is_zero(c) for _, c in col))


def _parity_defects(cols, domain_parities, codomain_parities):
    """The (column, row) positions of the entries that keep a raw map, given
    by its sparse columns, from being even."""
    return ((c, r) for c, (col, p) in enumerate(zip(cols, domain_parities))
            for r, _ in col if codomain_parities[r] != p)


def _coaction_defects(space, cols, cspace, delta, counit, regular=False):
    """The (column, row) positions where cols, the columns of a map
    M -> M (x) C on M = space, breaks the axioms of a right coaction over
    the coalgebra (delta, counit) on C = cspace: five lists, for parity,
    (eps (x) id) cols = id, (id (x) eps) cols = id, (cols (x) id) cols =
    (id (x) delta) cols and twist o cols = cols, the first counit law and
    the twist (and the counit's parity, on row n * n) for a regular
    coaction only.  One pass per column: each term c on row m nc + a is
    expanded through column m of cols and, negated, through column a of
    delta into one dict, whose nonzero sums are the defects; the counit
    sums and the twist gather their two sides alike.  Sums go by _sum_ops,
    over Q with every operand lifted to one denominator D, so each sum and
    the identity it meets are numerators over D * D."""
    F, par, cpar, nc = space.field, space.parities, cspace.parities, cspace.dim
    lift, _, add, mul, lower = _sum_ops(F)
    n, minus = len(cols), F.neg(F.one)
    *lifted, eps, ((_, one),) = lift([*cols, *(() if regular else delta), counit,
                                       ((0, F.one),)])[0]
    cols = lifted[:n]
    delta = cols if regular else lifted[n:]
    eps, minus_id, nn, zero = dict(eps), mul(minus, mul(one, one)), nc * nc, F.zero
    parity, left, right, coassoc, twisted = [], [], [], [], []
    for i, col in enumerate(cols):
        acc, back, front, twist = {}, {i: minus_id}, {i: minus_id}, dict(col) if regular else None
        get = acc.get
        for r, c in col:
            m, a = divmod(r, nc)
            if par[m] ^ cpar[a] != par[i]:
                parity.append((i, r))
            if a in eps:
                back[m] = add(back.get(m, zero), mul(c, eps[a]))
            if regular:
                if m in eps:
                    front[a] = add(front.get(a, zero), mul(eps[m], c))
                k = a * nc + m
                twist[k] = add(twist.get(k, zero), c if par[m] and par[a] else mul(minus, c))
            for s, d in cols[m]:
                k = s * nc + a
                acc[k] = add(get(k, zero), mul(c, d))
            c, base = mul(minus, c), m * nn
            for jk, d in delta[a]:
                k = base + jk
                acc[k] = add(get(k, zero), mul(c, d))
        if regular:
            parity += [(i, nn)] if par[i] and i in eps else []
            left += [(i, r) for r, _ in lower(front.items(), 1)]
            twisted += [(i, r) for r, _ in lower(twist.items(), 1)]
        right += [(i, r) for r, _ in lower(back.items(), 1)]
        coassoc += [(i, r) for r, _ in lower(acc.items(), 1)]
    return parity, left, right, coassoc, twisted


def _axiom_defects(space, cols, counit):
    """The five lists of _coaction_defects for the regular coaction of cols,
    the columns of a map V -> V (x) V on V = space, with the form counit:
    where a coalgebra's delta, or an algebra's cop with its unit, breaks
    the axioms of a super-cocommutative super-coalgebra."""
    return _coaction_defects(space, cols, space, cols, counit, regular=True)


def tensor_structure(F, f, fpar, g, gpar):
    """(id (x) twist(V, W) (x) id)(f (x) g) for the columns f of an even map
    V -> V (x) V and g of an even map W -> W (x) W, fpar and gpar the
    parities of V and W: the structure map of a tensor (co)algebra, in one
    pass over the nonzero entries.  Entry (ab, x) of column i of f and
    entry (cd, y) of column j of g give the entry xy of column i nW + j on
    row (a nW + c) nV nW + b nW + d, negated when b and c are both odd."""
    mul, neg = F.mul, F.neg
    nv, nw = len(fpar), len(gpar)
    # column i of f as (row offset of a (x) . (x) b (x) ., |b|, x), column j
    # of g as (row offset of . (x) c (x) . (x) d, |c|, y)
    fterms = [[(ab // nv * nw * nv * nw + ab % nv * nw, fpar[ab % nv], x) for ab, x in col]
              for col in f]
    gterms = [[(cd // nw * nv * nw + cd % nw, gpar[cd // nw], y) for cd, y in col]
              for col in g]
    out = []
    for fcol in fterms:
        for gcol in gterms:
            col = []
            for fr, odd_b, x in fcol:
                for gr, odd_c, y in gcol:
                    t = mul(x, y)
                    col.append((fr + gr, neg(t) if odd_b and odd_c else t))
            col.sort()
            out.append(tuple(col))
    return tuple(out)


def twist_apply(V, W, vecs):
    """twist(V, W)(v) for each vector v in V (x) W, read as the signed
    permutation v_i (x) w_j -> (-1)^{|v_i||w_j|} w_j (x) v_i, without the
    twist matrix."""
    neg, nv, nw = V.field.neg, V.dim, W.dim
    pv, pw = V.parities, W.parities
    for v in vecs:
        out = []
        for k, a in v:
            i, j = divmod(k, nw)
            out.append((j * nv + i, neg(a) if pv[i] and pw[j] else a))
        out.sort()
        yield tuple(out)


def linear_form(n, values):
    """The columns of the form on an n-dimensional space that sends basis
    vector i to entry i of the vector values."""
    cols = [()] * n
    for i, a in values:
        cols[i] = ((0, a),)
    return cols


def perp(sub, space):
    """{f in V* : f(s) = 0 for all s in S}, V the space of S, as a subspace
    of space, which stands for V* in the dual basis."""
    if sub.dim == 0:
        return Subspace.full(space)
    return Subspace(space, sub.matrix.null_space())


def coordinates(sub, vecs):
    """Coordinates of each vector in the canonical basis of sub, as vectors
    over its rows, or None if any of them lies outside sub."""
    _, pivots = sub.matrix.rref()
    return _read_coordinates(sub.space.field, sub.matrix.rows, pivots, vecs)


def _read_coordinates(F, rows, pivots, vecs, width=1):
    """Coordinates of vectors of V (x) k^width in the basis S (x) k^width,
    S the echelon basis of V with these rows and these pivots: entry
    c width + k of a vector is read as entry s width + k, for c the pivot
    of row s.  None if any vector lies outside the span.

    The basis is in RREF, so the coordinates are the entries on the pivot
    columns; rebuilding each vector from the rows (tensored with the
    identity of k^width) checks them.
    """
    row_of = dict(zip(pivots, itertools.count()))
    vecs = list(vecs)
    # pivots ascend with their rows, so the coordinates come out sorted
    if width == 1:
        # the plain read: the general one pays a // and a % per entry and a
        # product with the entry of id_1 per row entry, 2-4% of contains
        # and is_graded over F3
        out = [tuple([(row_of[c], a) for c, a in v if c in row_of]) for v in vecs]
        rebuilt = _images(F, rows, out)
    else:
        out = [tuple([(row_of[c // width] * width + c % width, a) for c, a in v
                      if c // width in row_of]) for v in vecs]
        rebuilt = _tensor_apply_sparse(F, rows, _identity_columns(F, width), width, out)
    if not all(map(operator.eq, rebuilt, vecs)):
        return None
    return out


def quotient_data(space, sub):
    """The quotient space V / W, the columns of the projection V -> V / W
    and reps, the basis vectors of V that represent the quotient basis.

    The quotient basis consists of the non-pivot coordinates of W, so its
    labels are original basis labels, and basis vector q of V / W lifts to
    basis vector reps[q] of V.  The projection is even when W is graded.
    """
    F = space.field
    red, pivots = sub.matrix.rref()
    pivot_set = set(pivots)
    reps = [c for c in range(space.dim) if c not in pivot_set]
    qspace = SuperVectorSpace(F, tuple(space.labels[c] for c in reps),
                              tuple(space.parities[c] for c in reps))
    # a basis vector off the pivots is its own class; a pivot column is the
    # negated rest of its echelon row, whose other entries lie off the pivots
    slot = {r: q for q, r in enumerate(reps)}
    cols = {r: ((q, F.one),) for r, q in slot.items()}
    for row, pc in zip(red.rows, pivots):
        cols[pc] = tuple((slot[j], F.neg(a)) for j, a in row if j != pc)
    return qspace, [cols[c] for c in range(space.dim)], reps
