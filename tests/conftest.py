import itertools
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

import pytest

# allow running the suite from a fresh checkout without installing
_src = os.path.join(os.path.dirname(__file__), "..", "src")
if not any(os.path.samefile(p, _src) if os.path.exists(p) else False for p in sys.path):
    sys.path.insert(0, os.path.abspath(_src))

from superscheme.corpus import Rng, canonical_algebras, canonical_coalgebras  # noqa: E402
from superscheme.fields import QQ, Field, poly_trim  # noqa: E402
from superscheme.formal_scheme import (  # noqa: E402
    FormalSuperscheme, SchemeMorphism, _point_fibers, fiber_product, is_closed_immersion,
    point_images, points,
)
from superscheme.superalgebra import (  # noqa: E402
    LocalFactor, Superideal, _frobenius_kernel, _lift_idempotent,
    _semisimple_idempotent, _trace_form_kernel,
    canonical_ideal, ideal_generated_by, local_decomposition, make_superalgebra,
    monomial_superalgebra, quotient_by_superideal, radical, tensor_superalgebra,
)
from superscheme.supercoalgebra import (  # noqa: E402
    Component, _koszul_signed, base_change_coalgebra, coradical_filtration,
    dual_radical, dualize_algebra, dualize_coalgebra, irreducible_components, subcoalgebra_on,
)
from superscheme.supercomodule import (  # noqa: E402
    FlatVerdict, NotConnected, comodule_along, cotensor, make_supercomodule, preimage,
    regular_comodule, subcoalgebra_comodule,
)
from superscheme.superlinear import (  # noqa: E402
    DimensionMismatch, Matrix, Record, Subspace, SuperVectorSpace, _identity_columns, _images,
    _kernel, _parity_defects, _tensor_apply_sparse, _transpose, coordinates, linear_form, perp,
    quotient_data, standard_space, twist_apply, unit_vec, vec_add, vec_scale, vec_sub, vector,
)


# ---------------------------------------------------------------------------
# dense views: the package keeps every vector sparse (sorted (index, entry)
# pairs with a nonzero entry); tests that state vectors and matrices as
# dense coordinate tuples convert at this boundary


def sparse(F, vec):
    """A dense coordinate sequence as a vector."""
    return vector(F, enumerate(vec))


def dense(F, n, vec):
    """A vector as its dense n-tuple of coordinates."""
    out = [F.zero] * n
    for j, a in vec:
        out[j] = a
    return tuple(out)


def dense_matrix(F, rows, ncols=None):
    """The Matrix with these dense rows; the width defaults to that of the
    first row."""
    rows = [tuple(r) for r in rows]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged dense rows")
    return Matrix(F, [sparse(F, r) for r in rows], ncols)


def dense_rows(M):
    """The rows of a Matrix as dense tuples."""
    return tuple(dense(M.field, M.ncols, r) for r in M.rows)


def transpose(M):
    """The transpose of a Matrix."""
    return Matrix(M.field, _transpose(M.rows, M.ncols), M.nrows)


def rank(M):
    """The rank of a Matrix: the number of pivots of its rref."""
    return len(M.rref()[1])


def dense_columns(F, rows, ncols=None):
    """The columns, as vectors, of the matrix with these dense rows: what a
    map holds."""
    return transpose(dense_matrix(F, rows, ncols)).rows


# ---------------------------------------------------------------------------
# maps with their spaces: the package holds a map as its sparse columns
# alone; these reference maps also carry a domain, a codomain and a parity


class GradedMap(Record):
    """columns[j], a vector, is the image of basis vector j of domain.
    Parity 0 and 1 are enforced as block structure; None marks raw data."""
    domain: object
    codomain: object
    columns: tuple
    parity: object = 0

    def __init__(self, domain, codomain, columns, parity=0):
        columns = tuple(columns)
        if len(columns) != domain.dim or any(
                col and not 0 <= col[0][0] <= col[-1][0] < codomain.dim for col in columns):
            raise DimensionMismatch(f"a {codomain.dim}x{domain.dim} map needs {domain.dim} "
                                    f"columns with indices below {codomain.dim}")
        if parity is not None and next(_parity_defects(
                columns, [(p + parity) % 2 for p in domain.parities], codomain.parities), None):
            raise ValueError(f"an entry violates declared parity {parity}")
        super().__init__(domain, codomain, columns, parity)

    @classmethod
    def identity(cls, space):
        return cls(space, space, _identity_columns(space.field, space.dim))

    def images(self, vecs):
        return _images(self.domain.field, self.columns, vecs)

    def kernel(self):
        return Subspace(self.domain, _kernel(self.domain.field, self.columns, self.codomain.dim))

    def image(self):
        return Subspace.from_vectors(self.codomain, self.columns)


def map_of(f):
    """The map of a SchemeMorphism, between the spaces of its coalgebras."""
    return GradedMap(f.source.space, f.target.space, f.columns)


def coproduct(C):
    """The coproduct delta: C -> C (x) C of a coalgebra as a map."""
    return GradedMap(C.space, C.space.tensor(C.space), C.delta)


def coaction_map(M):
    """The coaction psi: M -> M (x) C of a comodule as a map."""
    return GradedMap(M.space, M.space.tensor(M.coalgebra.space), M.psi)


def projection(space, sub):
    """The projection V -> V / W of quotient_data as a map, raw if W is not graded."""
    qspace, cols, _ = quotient_data(space, sub)
    return GradedMap(space, qspace, cols, 0 if sub.is_graded() else None)


def compose(f, g):
    """f after g: f applied to each column of g."""
    return GradedMap(g.domain, f.codomain, f.images(g.columns), _parity_sum(f.parity, g.parity))


def matrix_of(f):
    """The Matrix of a GradedMap: its rows, read off its columns."""
    return transpose(Matrix(f.domain.field, f.columns, f.codomain.dim))


def graded_map(M):
    """The raw map k^n -> k^m whose matrix is the m x n Matrix M."""
    F = M.field
    return GradedMap(standard_space(F, M.ncols, 0), standard_space(F, M.nrows, 0),
                     transpose(M).rows, None)


class DenseView:
    """The [i][j][k] tables of the structure maps of algebras, coalgebras
    and comodules, which store them as sparse columns: mul[i][j][k] is the
    coefficient of b_k in b_i * b_j, row i * n + j of column k of the
    transpose coproduct cop; delta[i][j][k] that of b_j (x) b_k in
    delta(b_i), psi[i][j][k] that of m_j (x) c_k in psi(m_i), row j * w + k
    of column i."""

    @staticmethod
    def table(x):
        """The table of x as nested lists, to read or to edit."""
        F, n = x.field, x.dim
        if hasattr(x, "cop"):
            out = [[[F.zero] * n for _ in range(n)] for _ in range(n)]
            for k, col in enumerate(x.cop):
                for ij, a in col:
                    out[ij // n][ij % n][k] = a
            return out
        cols, w = (x.delta, n) if hasattr(x, "delta") else (x.psi, x.coalgebra.dim)
        out = [[[F.zero] * w for _ in range(n)] for _ in range(n)]
        for i, col in enumerate(cols):
            for jk, a in col:
                out[i][jk // w][jk % w] = a
        return out

    @staticmethod
    def columns(kind, table):
        """A table of kind "mul", "delta" or "psi" as the columns make_*
        takes: one per k for mul, one per i otherwise."""
        if kind == "mul":
            n = len(table)
            return [[(i * n + j, cell[k]) for i, row in enumerate(table)
                     for j, cell in enumerate(row)] for k in range(n)]
        return [[(j * len(cell) + k, a) for j, cell in enumerate(row)
                 for k, a in enumerate(cell)] for row in table]


@pytest.fixture(scope="session")
def dense_view():
    return DenseView


# ---------------------------------------------------------------------------
# tensor products of maps and graded parts of subspaces: the package builds
# tensor structure maps by index arithmetic (superlinear.tensor_structure)
# and reads the parities of a graded subspace off its pivots


def tensor_map(f, g):
    """f (x) g: (f (x) g)(v (x) w) = (-1)^{|g||v|} f(v) (x) g(w).

    A factor g of parity None contributes no sign; the product has a
    declared parity only when both factors do.
    """
    return tensor_after(f, g, GradedMap.identity(f.domain.tensor(g.domain)))


def _parity_sum(p, q):
    """Parity of a composite or tensor product; None if either is undeclared."""
    return None if p is None or q is None else (p + q) % 2


def tensor_apply(f, g, vecs):
    """(f (x) g)(v) for each v of vecs, (f (x) g)(x_k (x) y_l) = (-1)^{|g||x_k|}
    f(x_k) (x) g(y_l); a factor g of parity None contributes no sign."""
    F = f.domain.field
    fcols = [vec_scale(F, F.neg(F.one), col) if g.parity and p else col
             for col, p in zip(f.columns, f.domain.parities)]
    return _tensor_apply_sparse(F, fcols, g.columns, g.codomain.dim, vecs)


def tensor_after(f, g, h):
    """(f (x) g) o h, built column by column without the Kronecker matrix."""
    if h.codomain.dim != f.domain.dim * g.domain.dim:
        raise DimensionMismatch(
            f"{h.codomain.dim}-dimensional codomain vs tensor of "
            f"{f.domain.dim} and {g.domain.dim}")
    return GradedMap(h.domain, f.codomain.tensor(g.codomain), tensor_apply(f, g, h.columns),
                     _parity_sum(_parity_sum(f.parity, g.parity), h.parity))


def twist(V, W):
    """Koszul twist c: V (x) W -> W (x) V, v (x) w -> (-1)^{|v||w|} w (x) v."""
    dom = V.tensor(W)
    return GradedMap(dom, W.tensor(V), twist_apply(V, W, _identity_columns(V.field, dom.dim)), 0)


def tensor_structure_by_maps(f, g):
    """Reference for superlinear.tensor_structure:
    (id (x) twist(V, W) (x) id)(f (x) g) for f: V -> V (x) V and
    g: W -> W (x) W, built as a tensor of labelled maps."""
    V, W = f.domain, g.domain
    swap = tensor_map(twist(V, W), GradedMap.identity(W))
    return tensor_after(GradedMap.identity(V), swap, tensor_map(f, g))


def _differences(lhs, rhs):
    """The (column, row) positions where two maps, given as iterables of
    vectors, differ; the columns are consumed in step, one at a time."""
    for c, (u, v) in enumerate(zip(lhs, rhs)):
        if u != v:
            u, v = dict(u), dict(v)
            yield from ((c, r) for r in sorted(u.keys() | v.keys()) if u.get(r) != v.get(r))


def coaction_defects_by_composition(space, cols, cspace, delta, counit):
    """Reference for superlinear._coaction_defects: each side of an axiom
    is composed as a map by _tensor_apply_sparse and the two are compared
    column by column.  Three lists, for parity, (id (x) eps) cols = id and
    (cols (x) id) cols = (id (x) delta) cols."""
    F, par, cpar, nc = space.field, space.parities, cspace.parities, cspace.dim
    eps = linear_form(nc, counit)
    ident = _identity_columns(F, space.dim)
    rows = {r: par[r // nc] ^ cpar[r % nc] for col in cols for r, _ in col}
    return (list(_parity_defects(cols, par, rows)),
            list(_differences(_tensor_apply_sparse(F, ident, eps, 1, cols), ident)),
            list(_differences(_tensor_apply_sparse(F, cols, _identity_columns(F, nc), nc, cols),
                              _tensor_apply_sparse(F, ident, delta, nc * nc, cols))))


def axiom_defects_by_composition(space, cols, counit):
    """Reference for superlinear._axiom_defects, composed as above: five
    lists, for parity (counit on row n * n), the two counit laws,
    coassociativity and twist o cols = cols."""
    F, n, par = space.field, space.dim, space.parities
    parity, right, coassoc = coaction_defects_by_composition(space, cols, space, cols, counit)
    parity = sorted(parity + [(i, n * n) for i, _ in counit if par[i]])
    eps = linear_form(n, counit)
    ident = _identity_columns(F, n)
    return (parity, list(_differences(_tensor_apply_sparse(F, eps, ident, n, cols), ident)),
            right, coassoc, list(_differences(cols, twist_apply(space, space, cols))))


def in_rational_basis(A, rng):
    """A in the dense basis b'_i = P b_i, P = LU with L and U unitriangular
    within each parity block and entries a/b, |a| <= 9, 1 <= b <= 9, drawn
    from rng: the same algebra with rational structure constants."""
    n, parities = A.dim, A.space.parities

    def unitriangular(lower):
        return dense_matrix(QQ, [[QQ.one if i == j else rational(rng.randint(19) - 9,
                                                                 rng.randint(9) + 1)
                                  if (i > j) == lower and parities[i] == parities[j]
                                  else QQ.zero for j in range(n)] for i in range(n)], n)

    P = unitriangular(True).mul(unitriangular(False))
    basis = transpose(P).rows
    products = P.solve([A.multiply(x, y) for x in basis for y in basis])
    return make_superalgebra(A.space, _transpose(products, n), P.solve([A.unit])[0])


def parity_component(sub, parity):
    """Intersection with the even or odd coordinate subspace."""
    axis = Subspace.from_vectors(
        sub.space, [unit_vec(sub.space.field, i)
                    for i, p in enumerate(sub.space.parities) if p == parity])
    return sub.intersect(axis)


def even_part(sub):
    return parity_component(sub, 0)


def odd_part(sub):
    return parity_component(sub, 1)


# ---------------------------------------------------------------------------
# points over a superalgebra R: algebra morphisms A -> R and group-likes of
# (R (x) C)_even, C the Koszul-signed dual of A (criterion 2)


def is_superalgebra_morphism(phi, A, B):
    if phi.parity != 0:
        return False
    if phi.domain != A.space or phi.codomain != B.space:
        return False
    if next(phi.images([A.unit])) != B.unit:
        return False
    # column i * n + j of m is b_i * b_j
    return B.products(phi.columns, phi.columns) == list(
        phi.images(multiplication_map(A).columns))


def multiplication_map(A):
    """Reference: m: A (x) A -> A, the transpose of the transpose coproduct
    cop, whose column i * n + j is b_i * b_j."""
    return GradedMap(A.space.tensor(A.space), A.space, _transpose(A.cop, A.dim * A.dim))


def is_grouplike_over(C, R, u):
    """u, the rows (vectors over C, one per basis vector of R) of the
    R.dim x C.dim coefficient matrix of an element of R (x) C, is
    group-like: (id (x) eps)u = 1_R and
    (id_R (x) delta)u = (m_R (x) id)(id (x) twist(C, R) (x) id)(u (x) u)."""
    F = C.field
    nc, nv = C.dim, R.dim * C.dim
    v = tuple((a * nc + m, c) for a, row in enumerate(u) for m, c in row)
    id_r, id_c = GradedMap.identity(R.space), GradedMap.identity(C.space)
    eps = linear_form(nc, C.counit)
    if next(_tensor_apply_sparse(F, _identity_columns(F, R.dim), eps, 1, [v])) != R.unit:
        return False
    # the even map twist (x) id acts on u (x) u one R coordinate at a time
    swapped = tensor_apply(twist(C.space, R.space), id_c,
                           [tuple((m * nv + k, F.mul(a, b)) for m, a in row for k, b in v)
                            for row in u])
    uu = tuple((a * nv * nc + k, c) for a, w in enumerate(swapped) for k, c in w)
    id_cc = GradedMap.identity(C.space.tensor(C.space))
    rhs = next(tensor_apply(multiplication_map(R), id_cc, [uu]))
    return next(tensor_apply(id_r, coproduct(C), [v])) == rhs


def transport_point(phi, A, R):
    """Algebra morphism phi: A -> R as a group-like in (R (x) C)_even, where
    C is the Koszul-signed dual of A: the transpose of A with b_i * b_j
    negated when b_i and b_j are both odd.

    u = sum_i phi(a_i) (x) a_i*, returned as an R.dim x A.dim coefficient
    matrix, as its rows; the group-like property is verified on the result.
    """
    if not is_superalgebra_morphism(phi, A, R):
        raise ValueError("transport_point needs a superalgebra morphism")
    # u = sum_i phi(a_i) (x) a_i*, read by R-row
    u = _transpose(phi.columns, R.dim)
    if not is_grouplike_over(dualize_algebra(_koszul_signed(A)), R, u):
        raise AssertionError("transported point is not group-like")
    return u


def transport_point_inverse(u, A, R):
    """Group-like in (R (x) C)_even, C the Koszul-signed dual of A, back to
    the algebra morphism A -> R."""
    if not is_grouplike_over(dualize_algebra(_koszul_signed(A)), R, u):
        raise ValueError("input is not group-like")
    phi = GradedMap(A.space, R.space, _transpose(u, A.dim), 0)
    if not is_superalgebra_morphism(phi, A, R):
        raise AssertionError("transported map is not a superalgebra morphism")
    return phi


def grouplikes_by_scan(C, R):
    """Reference for supercoalgebra.grouplikes_over: every even u in R (x) C,
    in mixed radix over the even slots (R basis major, C basis minor), kept
    when it is group-like."""
    F = C.field
    slots = [(a, m) for a in range(R.dim) for m in range(C.dim)
             if R.parity(a) == C.parity(m)]
    out = []
    for values in itertools.product(sorted(F.elements(), key=F.sort_key),
                                    repeat=len(slots)):
        u = [[F.zero] * C.dim for _ in range(R.dim)]
        for (a, m), c in zip(slots, values):
            u[a][m] = c
        u = tuple(sparse(F, row) for row in u)
        if is_grouplike_over(C, R, u):
            out.append(u)
    return out


@pytest.fixture
def grouplike_oracle():
    return grouplikes_by_scan


def minimal_polynomial_by_powers(A, x):
    """Reference for superalgebra._minimal_polynomial: one fresh solve per
    power x^d against the powers before it, until one succeeds."""
    F = A.field
    powers = [A.unit]
    while True:
        powers.append(A.multiply(powers[-1], x))
        mat = transpose(Matrix(F, powers[:-1], A.dim))
        sol = mat.solve([powers[-1]])
        if sol is not None:
            sol = dict(sol[0])
            coeffs = [F.neg(sol.get(j, F.zero)) for j in range(mat.ncols)] + [F.one]
            return poly_trim(F, coeffs)


def enumerate_homs_by_scan(A, R, generators):
    """Reference for superalgebra.enumerate_homs: the flat scan.  Words
    (parent, generator) are found breadth first from the unit, a product
    kept when a fresh echelon form of the values so far does not contain
    it.  Every tuple of generator images, in itertools.product order over
    the lexicographic images of each, gives every word its value from the
    unit, and is kept when phi(w * g) = phi(w) phi(g) for every word w and
    generator g that is no word."""
    F = A.field
    gens = [tuple(g) for g in generators]
    words, values, frontier = [(-1, -1)], [A.unit], [0]
    while frontier:
        new = []
        for w, (gi, g) in itertools.product(frontier, enumerate(gens)):
            value = A.multiply(values[w], g)
            if not Subspace.from_vectors(A.space, values).contains(value):
                words.append((w, gi))
                values.append(value)
                new.append(len(words) - 1)
        frontier = new
    basis_coeffs = Matrix(F, _transpose(values, A.dim), len(words)).solve(
        Matrix.identity(F, A.dim).rows)
    if basis_coeffs is None:
        raise ValueError("declared generators do not generate the algebra")
    built = set(words)
    unbuilt = [(w, gi) for w, gi in itertools.product(range(len(words)), range(len(gens)))
               if (w, gi) not in built]
    relation_coeffs = list(_images(F, basis_coeffs, [A.multiply(values[w], gens[gi])
                                                     for w, gi in unbuilt]))
    elems = sorted(F.elements(), key=F.sort_key)
    spaces = []
    for g in gens:
        parity = A.parity(g[0][0])
        slots = [s for s in range(R.dim) if R.parity(s) == parity]
        spaces.append([sparse(F, [dict(zip(slots, combo)).get(s, F.zero) for s in range(R.dim)])
                       for combo in itertools.product(elems, repeat=len(slots))])
    found = []
    for gen_imgs in itertools.product(*spaces):
        word_values = [R.unit]
        for parent, gi in words[1:]:
            word_values.append(R.multiply(word_values[parent], gen_imgs[gi]))
        rhs = _images(F, word_values, relation_coeffs)
        if all(R.multiply(word_values[w], gen_imgs[gi]) == r
               for (w, gi), r in zip(unbuilt, rhs)):
            found.append(tuple(_images(F, word_values, basis_coeffs)))
    return found


def multiply_by_dense_loop(A, x, y):
    """Reference for SuperAlgebra.multiply: for every pair of nonzero
    coordinates x_i, y_j, add x_i y_j times the dense row mul[i][j]."""
    F = A.field
    mul = DenseView.table(A)
    out = ()
    for i, xi in x:
        for j, yj in y:
            out = vec_add(F, out, vec_scale(F, F.mul(xi, yj), sparse(F, mul[i][j])))
    return out


@pytest.fixture(scope="session")
def multiply_oracle():
    return multiply_by_dense_loop


def ideal_by_fixpoint(A, elements):
    """Reference for superalgebra.ideal_generated_by: grow the span of the
    elements by the products b_i * x with every basis vector until it is
    stable."""
    F = A.field
    current = Subspace.from_vectors(A.space, list(elements))
    while True:
        vecs = list(current.basis())
        for x in current.basis():
            for i in range(A.dim):
                vecs.append(A.multiply(unit_vec(F, i), x))
        grown = Subspace.from_vectors(A.space, vecs)
        if grown == current:
            return current
        current = grown


@pytest.fixture
def ideal_oracle():
    return ideal_by_fixpoint


def is_subcoalgebra(C, W):
    """Reference for the subcoalgebra test of supercoalgebra.subcoalgebra_on:
    delta(W) <= W (x) W = W (x) C intersect C (x) W, for a graded subspace
    W, tested via the quotient projection."""
    if not W.is_graded():
        raise ValueError("subcoalgebra test needs a graded subspace")
    proj = projection(C.space, W)
    ident = GradedMap.identity(C.space)
    delta = coproduct(C)
    left = tensor_after(proj, ident, delta)
    right = tensor_after(ident, proj, delta)
    return not any(left.images(W.basis())) and not any(right.images(W.basis()))


def wedge_by_kernel(C, X, Y):
    """Reference for supercoalgebra.wedge: the kernel of
    C -> C (x) C -> C/X (x) C/Y."""
    proj_x, proj_y = projection(C.space, X), projection(C.space, Y)
    return tensor_after(proj_x, proj_y, coproduct(C)).kernel()


def filtration_by_wedge_powers(C, corad):
    """Reference for supercoalgebra.coradical_filtration: C_0 = corad, the
    coradical of C, and C_(k+1) = C_k ^ C_0 by wedge_by_kernel, ending at C
    itself."""
    if C.dim == 0:
        return [Subspace.zero(C.space)]
    chain = [corad]
    full = Subspace.full(C.space)
    while chain[-1] != full:
        nxt = wedge_by_kernel(C, chain[-1], chain[0])
        assert nxt != chain[-1], "coradical filtration stalled below the whole space"
        chain.append(nxt)
        assert len(chain) <= C.dim + 1, "coradical filtration failed to stabilize"
    return chain


@pytest.fixture(scope="session")
def wedge_oracle():
    return wedge_by_kernel


@pytest.fixture(scope="session")
def filtration_oracle():
    return filtration_by_wedge_powers


def socle_by_filtration(M):
    """M_n = ker(M -> M (x) C/A_n) along the coradical filtration A_n of the
    coalgebra C of M."""
    C = M.coalgebra
    psi = coaction_map(M)
    ident = GradedMap.identity(M.space)
    out = []
    full = Subspace.full(M.space)
    for stage in coradical_filtration(C):
        out.append(tensor_after(ident, projection(C.space, stage), psi).kernel())
        if out[-1] == full:
            break
    assert out[-1] == full, "socle filtration did not exhaust the comodule"
    return out


@pytest.fixture(scope="session")
def socle_filtration():
    return socle_by_filtration


def dense_cotensor_map(psi_right, theta_left, m_space, n_space, c_dim):
    """psi_M (x) id - id (x) theta_N as the dense (nm * c_dim * nn) x (nm * nn)
    Matrix, filled row by row; psi_right and theta_left are the coaction
    matrices."""
    F = m_space.field
    nm, nn = m_space.dim, n_space.dim
    rows = [[F.zero] * (nm * nn) for _ in range(nm * c_dim * nn)]
    for r, entries in enumerate(psi_right.rows):      # r = a * c_dim + k
        for i, c in entries:
            for j in range(nn):
                row = rows[r * nn + j]
                row[i * nn + j] = F.add(row[i * nn + j], c)
    for r, entries in enumerate(theta_left.rows):     # r = k * nn + b
        for j, c in entries:
            for i in range(nm):
                row = rows[i * c_dim * nn + r]
                row[i * nn + j] = F.sub(row[i * nn + j], c)
    return dense_matrix(F, rows, nm * nn)


def _dense_cotensor_kernel(psi_right, theta_left, m_space, n_space, c_dim):
    """Kernel of psi_M (x) id - id (x) theta_N as the null space of
    dense_cotensor_map."""
    T = dense_cotensor_map(psi_right, theta_left, m_space, n_space, c_dim)
    return Subspace(m_space.tensor(n_space), T.null_space())


def _dense_tower(M, A, reg, depth):
    """Levels (space, psi, carrier, faces) of M box_B A^{box n}, every map a
    dense Matrix or GradedMap: the reference for the sparse tower of
    formal_scheme._iterated_cotensor_tower."""
    F = M.field
    rho = coaction_map(reg)
    theta_l = matrix_of(compose(twist(reg.space, reg.coalgebra.space), rho))
    B_dim = reg.coalgebra.dim
    ident_A = GradedMap.identity(A.space)
    levels = [(M.space, matrix_of(coaction_map(M)), None, ())]
    for n in range(1, depth + 1):
        prev_space, prev_psi, prev_carrier, prev_faces = levels[-1]
        ident_P = GradedMap.identity(prev_space)
        carrier = _dense_cotensor_kernel(prev_psi, theta_l, prev_space, A.space, B_dim)
        parities = []
        for row in carrier.matrix.rows:
            ps = {carrier.space.parities[j] for j, _ in row}
            parities.append(ps.pop() if len(ps) == 1 else 0)
        space = SuperVectorSpace(F, tuple(f"t{n}_{s + 1}" for s in range(carrier.dim)),
                                 tuple(parities))
        basis = carrier.basis()
        big_dim = prev_space.dim * A.dim * B_dim
        slots = coordinates(carrier, [sparse(F, dense(F, big_dim, big)[k::B_dim]) for big in
                                      tensor_apply(ident_P, rho, basis)
                                      for k in range(B_dim)])
        assert slots is not None, "right coaction escapes the carrier"
        slots = [dense(F, space.dim, s) for s in slots]
        psi_cols = [sparse(F, [c for row in zip(*slots[s * B_dim:(s + 1) * B_dim])
                               for c in row])
                    for s in range(len(basis))]
        faces = [coordinates(prev_carrier, tensor_apply(pf, ident_A, basis))
                 for pf in prev_faces]
        assert None not in faces, "face map escapes the carrier"
        faces.append(_tensor_apply_sparse(F, ident_P.columns, linear_form(A.dim, A.counit), 1,
                                          basis))
        faces = tuple(GradedMap(space, prev_space, cols, None) for cols in faces)
        psi = transpose(Matrix(F, psi_cols, space.dim * B_dim))
        levels.append((space, psi, carrier, faces))
    return levels


def _alternating_sum(faces):
    """The boundary of a dense tower level: the alternating sum of its faces."""
    F, cols = faces[0].domain.field, faces[0].columns
    for idx, face in enumerate(faces[1:], start=1):
        cols = [(vec_sub if idx % 2 else vec_add)(F, u, v) for u, v in zip(cols, face.columns)]
    return GradedMap(faces[0].domain, faces[0].codomain, cols, None)


def _dense_exactness(levels, depth):
    """Per-degree exactness of the dense tower: boundaries as alternating
    sums of the face maps, ker and im as dense row spaces."""
    boundaries = [matrix_of(_alternating_sum(faces)) for _, _, _, faces in levels[1:]]
    for lower, upper in zip(boundaries, boundaries[1:]):
        prod = lower.mul(upper)
        assert all(lower.field.is_zero(c) for row in dense_rows(prod) for c in row)
    results = []
    for deg in range(depth + 1):
        if deg == 0:
            exact = rank(boundaries[0]) == levels[0][0].dim
        else:
            exact = (boundaries[deg - 1].null_space()
                     == transpose(boundaries[deg]).row_space())
        results.append((deg, exact))
    return tuple(results)


def descent_degrees_by_dense_tower(f, depth):
    """Reference for the per-comodule degrees of formal_scheme.descent_check:
    the same test comodules (O(Y), then kappa(y) per point), each complex
    built and checked densely."""
    A, B = f.source, f.target
    reg = comodule_along(regular_comodule(A), f.columns, B)
    tests = [regular_comodule(B)]
    for y in points(B):
        tests.append(subcoalgebra_comodule(B, y.kappa))
    return tuple(_dense_exactness(_dense_tower(M, A, reg, depth + 1), depth)
                 for M in tests)


@pytest.fixture
def descent_oracle():
    return descent_degrees_by_dense_tower


def _coideal_by_tensor_space(C, W):
    """Whether W is a coideal of C: eps(W) = 0 and (pi (x) pi) delta, built
    as a map into C/W (x) C/W, kills W."""
    if any(_images(C.field, linear_form(C.dim, C.counit), W.basis())):
        return False
    proj = projection(C.space, W)
    return not any(tensor_after(proj, proj, coproduct(C)).images(W.basis()))


def coequalizer_by_cotensor(f):
    """Reference for DescentReport.coequalizer_ok: A modulo im(p1 - p2) on
    A box_B A, built as its own cotensor, recovers B.

    The two projections are coalgebra maps, so the image of their difference
    is a coideal (asserted).  The coequalizer agrees with B exactly when
    that image is the kernel of f and f is onto.
    """
    A = f.source
    F = A.field
    M = comodule_along(regular_comodule(A), f.columns, f.target)
    basis = cotensor(M, M).basis()
    ident, eps = _identity_columns(F, A.dim), linear_form(A.dim, A.counit)
    p1 = _tensor_apply_sparse(F, ident, eps, 1, basis)
    p2 = _tensor_apply_sparse(F, eps, ident, A.dim, basis)
    coideal = Subspace.from_vectors(A.space, [vec_sub(F, a, b) for a, b in zip(p1, p2)])
    assert _coideal_by_tensor_space(A, coideal)
    f_map = map_of(f)
    return coideal == f_map.kernel() and f_map.image().dim == f.target.dim


def fiber_by_cotensor(f, y):
    """Reference for formal_scheme.fiber: the fiber product of f with the
    inclusion of {y} = Sp*(kappa(y)), a cotensor inside A (x) kappa(y)."""
    kappa = subcoalgebra_on(f.target, y.kappa)
    return fiber_product(f, SchemeMorphism(kappa, f.target, tuple(y.kappa.basis())))


def bounded_degree_by_dual_action(f):
    """Reference for the degree of formal_scheme.finiteness: the largest minimal
    homogeneous generator count, per parity, of the dual module A* over any
    local factor of B*, with B* acting on A* through the transpose of f."""
    A, B = f.source, f.target
    F = A.field
    if A.dim == 0:
        return 0
    dualA = dualize_coalgebra(A)
    dualB = dualize_coalgebra(B)
    radB = radical(dualB)
    factors = local_decomposition(dualB)

    def acting(w):
        """w . a* for every basis vector a* of A*: B* acts on A* through the
        transpose of the coalgebra map, which sends w to w o f."""
        cols = _images(F, linear_form(B.dim, w), f.columns)
        pulled = tuple((j, c) for j, col in enumerate(cols) for _, c in col)
        return dualA.products([pulled], _identity_columns(F, dualA.dim))

    JA = Subspace.from_vectors(dualA.space,
                               [v for w in radB.subspace.basis() for v in acting(w)])
    qspace, proj, _ = quotient_data(dualA.space, JA)
    degree = 0
    for fac in factors:
        comp = Subspace.from_vectors(qspace, _images(F, proj, acting(fac.idempotent)))
        even = even_part(comp).dim
        odd = odd_part(comp).dim
        d = fac.degree
        if even % d or odd % d:
            raise AssertionError("residue field does not divide the cogenerator count")
        degree = max(degree, even // d, odd // d)
    return degree


# ---------------------------------------------------------------------------
# morphism helpers no command reaches: point maps, bosonic reductions, base
# change, fiberwise immersion and algebraicity along towers (criterion 9)


def point_map(f):
    """Index map points(X) -> points(Y)."""
    return [j for j, _ in point_images(f)]


def bosonic_reduction_scheme(C):
    """The subcoalgebra dual to the bosonic reduction of the dual algebra,
    with its inclusion into C; a purely even coalgebra.

    Killing only the odd coideal is not enough: even products of odd dual
    functionals (like (th1*th2)*) must die too, so the carrier is the perp
    of the canonical superideal of C*.
    """
    carrier = perp(canonical_ideal(dualize_coalgebra(C)).subspace, C.space)
    sub = subcoalgebra_on(C, carrier)
    return sub, GradedMap(sub.space, C.space, carrier.basis(), 0)


def _restrict_between(m, incl_src, incl_dst):
    """Restriction of m to the bosonic carriers, in carrier coordinates.

    The columns of incl_dst are the echelon rows of the target carrier, so
    the coordinates of the images are read on that carrier.
    """
    carrier = incl_dst.image()
    cols = coordinates(carrier, m.images(incl_src.columns))
    if cols is None:
        raise AssertionError("bosonic image escapes the target carrier")
    return GradedMap(incl_src.domain, incl_dst.domain, cols, 0)


def bosonic_reduction_morphism(f):
    X, incl_src = bosonic_reduction_scheme(f.source)
    Y, incl_dst = bosonic_reduction_scheme(f.target)
    return SchemeMorphism(X, Y, _restrict_between(map_of(f), incl_src, incl_dst).columns)


def base_change_morphism(f, ext):
    X, Y = (base_change_coalgebra(C, ext) for C in (f.source, f.target))
    return SchemeMorphism(X, Y, tuple(tuple((i, ext.embed(c)) for i, c in col)
                                      for col in f.columns))


def immersion_fiberwise_check(f):
    """Immersion iff every fiber maps to its point as an immersion.  The map
    from X_y = psi^-1(A (x) kappa(y)) to {y} is (eps (x) id) psi = f, so it
    is one iff f is injective on that preimage."""
    total = is_closed_immersion(f)
    m = map_of(f)
    fiberwise = all(Subspace.from_vectors(m.codomain, m.images(P.basis())).dim == P.dim
                    for P, _, _ in _point_fibers(f))
    return total == fiberwise, total, fiberwise


def presentation_truncation(P, d):
    """The finite-dimensional quotient of a ksdim presentation by all
    monomials of degree > d."""
    return monomial_superalgebra(P.field, P.p, P.q, d, P.generators)


def truncation_tower(P, depth):
    """Duals of the truncations d = 1..depth as a formal superscheme tower."""
    algebras = [presentation_truncation(P, d) for d in range(1, depth + 1)]
    coalgebras = [dualize_algebra(A) for A in algebras]
    maps = []
    for small, big in zip(coalgebras, coalgebras[1:]):
        big_index = {l: i for i, l in enumerate(big.space.labels)}
        maps.append(SchemeMorphism(
            small, big, tuple(unit_vec(small.field, big_index[l]) for l in small.space.labels)))
    return FormalSuperscheme.tower(coalgebras, maps)


@dataclass(frozen=True)
class AlgebraicityVerdict:
    stabilized: bool
    checked_levels: int
    stage_dims: tuple

    def __str__(self):
        status = "verified" if self.stabilized else "not stabilized"
        return (f"finite-type {status} to level {self.checked_levels - 1} "
                f"(A_1 dims {list(self.stage_dims)})")


def inclusion_to_deepest(X, level):
    """Composite transition map X.levels[level] -> deepest level."""
    comp = GradedMap.identity(X.levels[level].space)
    for m in X.maps[level:]:
        comp = compose(map_of(m), comp)
    return comp


def is_algebraic_at(X, point_index):
    """Stabilization of the coradical-filtration stage A_1 along a tower.

    A one-level tower is always verified.  Otherwise the A_1 stage of the
    component of the point is computed at each level and compared (as
    subspaces of the deepest coalgebra) across the last two levels.
    """
    deepest = X.levels[-1]
    if len(X.levels) == 1:
        comp = irreducible_components(deepest)[point_index]
        B = comp.coalgebra
        chain = coradical_filtration(B)
        a1 = chain[min(1, len(chain) - 1)]
        return AlgebraicityVerdict(True, 1, (a1.dim,))
    target = irreducible_components(deepest)[point_index].subspace
    images = []
    dims = []
    for lvl in range(len(X.levels)):
        C = X.levels[lvl]
        inc = inclusion_to_deepest(X, lvl)
        piece = Subspace.zero(C.space)
        for comp in irreducible_components(C):
            img = list(inc.images(comp.subspace.basis()))
            if coordinates(target, img) is not None:
                piece = piece.sum(comp.subspace)
        if piece.dim == 0:
            images.append(Subspace.zero(deepest.space))
            dims.append(0)
            continue
        sub = subcoalgebra_on(C, piece)
        chain = coradical_filtration(sub)
        a1 = chain[min(1, len(chain) - 1)]
        img_vecs = inc.images(_images(C.field, piece.basis(), a1.basis()))
        images.append(Subspace.from_vectors(deepest.space, img_vecs))
        dims.append(a1.dim)
    stabilized = len(images) >= 2 and images[-1] == images[-2]
    return AlgebraicityVerdict(stabilized, len(X.levels), tuple(dims))


def _count_calls(monkeypatch, module, name):
    """Count the calls of superscheme function `name` of `module`, wrapped
    in every superscheme module that holds it by name; a list of the
    argument tuples of the calls."""
    original = getattr(sys.modules[f"superscheme.{module}"], name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("superscheme") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


# ---------------------------------------------------------------------------
# comodule helpers no command reaches: morphisms, quotients, the cosocle
# epimorphism and base change (criterion 6)


def is_comodule_morphism(f, M, N):
    if M.coalgebra != N.coalgebra:
        return False
    ident = GradedMap.identity(M.coalgebra.space)
    lhs = compose(coaction_map(N), f)
    # f (x) id carries no Koszul sign whatever the parity of f
    rhs = tensor_after(f, ident, coaction_map(M))
    return lhs.columns == rhs.columns


def is_subcomodule(M, W):
    """psi(W) <= W (x) C."""
    ident = GradedMap.identity(M.coalgebra.space)
    test = tensor_after(projection(M.space, W), ident, coaction_map(M))
    return not any(test.images(W.basis()))


def quotient_comodule(M, W):
    """Quotient by a graded subcomodule, with the projection morphism."""
    if not W.is_graded():
        raise ValueError("comodule quotient needs a graded subcomodule")
    if not is_subcomodule(M, W):
        raise ValueError("subspace is not a subcomodule")
    C = M.coalgebra
    proj = projection(M.space, W)
    psi = tensor_apply(proj, GradedMap.identity(C.space),
                       [M.psi[r] for r in quotient_data(M.space, W)[2]])
    return make_supercomodule(proj.codomain, C, psi), proj


def cosocle_epi(M):
    """The quotient of M by rad(C*) . M, a canonical comodule surjection."""
    C = M.coalgebra
    rad = dual_radical(C).subspace
    # w . m = (id (x) w)(psi(m)), the pairing with no Koszul sign
    F = M.field
    sub = Subspace.from_vectors(M.space, [v for w in rad.basis() for v in _tensor_apply_sparse(
        F, _identity_columns(F, M.dim), linear_form(C.dim, w), 1, M.psi)])
    return quotient_comodule(M, sub)


def base_change_comodule(M, ext, C_ext):
    emb = ext.embed
    space = SuperVectorSpace(ext, M.space.labels, M.space.parities)
    psi = [[(jk, emb(c)) for jk, c in col] for col in M.psi]
    return make_supercomodule(space, C_ext, psi)


def dual_action(M):
    """Action matrices of the dual basis of C* on M (rational structure).

    a* . m = (id (x) a*)(psi(m)); the evaluation pairing carries no Koszul
    sign, matching the plain-transpose convention of the dual algebra (the
    signed variant belongs to the signed dual product and breaks
    associativity against the transpose product on odd pairs).
    """
    nm, nc = M.dim, M.coalgebra.dim
    # entry (j, i) of mats[t] is the coefficient of m_j (x) c_t in psi(m_i)
    rows = [[[] for _ in range(nm)] for _ in range(nc)]
    for i, col in enumerate(M.psi):
        for jt, c in col:
            j, t = divmod(jt, nc)
            rows[t][j].append((i, c))
    return [Matrix(M.field, map(tuple, mat), nm) for mat in rows]


def dual_action_of(M, mats, terms):
    """Action matrix of an arbitrary element of C*, given by its sparse
    coordinates terms over the dual basis ((t, c) pairs, c nonzero).

    A basis functional acts by mats[t] itself; otherwise the nonzero
    entries of the terms are summed into one matrix.
    """
    F = M.field
    if len(terms) == 1 and F.is_one(terms[0][1]):
        return mats[terms[0][0]]
    rows = [{} for _ in range(M.dim)]
    for t, c in terms:
        for row, entries in zip(rows, mats[t].rows):
            for j, a in entries:
                x = F.mul(c, a)
                row[j] = F.add(row[j], x) if j in row else x
    return Matrix(F, [vector(F, row) for row in rows], M.dim)


def check_dual_action_axioms(M):
    """Module axioms of the dual action against the dual algebra of C."""
    F = M.field
    C = M.coalgebra
    dual = dualize_coalgebra(C)
    mats = dual_action(M)
    problems = []
    unit_mat = dual_action_of(M, mats, dual.unit)
    products = multiplication_map(dual).columns
    if unit_mat != Matrix.identity(F, M.dim):
        problems.append("counit functional does not act as identity")
    for s in range(C.dim):
        for t in range(C.dim):
            lhs = dual_action_of(M, mats, products[s * C.dim + t])
            rhs = mats[s].mul(mats[t])
            if lhs != rhs:
                problems.append(f"action not multiplicative at ({s},{t})")
    return problems


def _field_combination(F, coeffs, rows):
    """The sum of c * rows[s] over the pairs (s, c) of coeffs, by the Field
    methods alone."""
    acc = {}
    for s, c in coeffs:
        for j, a in rows[s]:
            x = F.mul(c, a)
            acc[j] = F.add(acc[j], x) if j in acc else x
    return vector(F, acc)


def flat_by_lifting(M):
    """Reference for supercomodule.flat_check: a minimal homogeneous
    generating set of M* over the local dual algebra C* is lifted greedily
    in echelon order, each kept lift widening the span by its C*-orbit, and
    freeness is bijectivity of the induced map (C*)^r -> M*."""
    C = M.coalgebra
    if C.dim == 0:
        raise NotConnected("flatness over the zero coalgebra is undefined")
    F = M.field
    dual = dualize_coalgebra(C)
    rad = radical(dual)
    residue = quotient_by_superideal(dual, rad)[0]
    if residue.dim > 1 and _semisimple_idempotent(residue) is not None:
        raise NotConnected("flat_check needs a connected coalgebra; decompose first")
    mats = dual_action(M)
    dual_space = M.space.dual()
    # on M* each w acts by the transpose of its action, whose columns are
    # the rows of the action itself: a lift goes to the combination of the
    # rows of mats[t] that its entries give
    radM = Subspace.from_vectors(
        dual_space, [row for w in rad.subspace.matrix.rows
                     for row in dual_action_of(M, mats, w).rows])
    qspace, _, reps = quotient_data(dual_space, radM)
    kept = []
    span = radM
    for lift, parity in zip([unit_vec(F, r) for r in reps], qspace.parities):
        if span.contains(lift):
            continue
        kept.append((lift, parity))
        generated = list(span.basis())
        for t in range(dual.dim):
            generated.append(_field_combination(F, lift, mats[t].rows))
        span = Subspace.from_vectors(dual_space, generated)
    if span != Subspace.full(dual_space):
        raise AssertionError("echelon lifts fail to generate over the local dual algebra")
    r = len(kept)
    r_even = sum(1 for _, p in kept if p == 0)
    if r * dual.dim != M.dim:
        return FlatVerdict(False)
    cols = [_field_combination(F, lift, mats[t].rows)
            for lift, _ in kept for t in range(dual.dim)]
    # phi: (C*)^r -> M* sends its basis to cols; rank phi = rank of its columns
    if rank(Matrix(F, cols, M.dim)) == M.dim:
        return FlatVerdict(True, (r_even, r - r_even))
    return FlatVerdict(False)


# ---------------------------------------------------------------------------
# the general decomposition path: references for the exits that take a
# quotient of dimension 1 as the base field and a decomposition into one
# piece as the object itself

def subalgebra_by_homogeneous_rows(A, sub, unit):
    """Reference for superalgebra._subalgebra_on: the parity of each basis
    row read off its entries, which must all have one parity, and the rows
    labelled f1, ..., fn."""
    F = A.field
    basis = sub.basis()
    parities = []
    for row in basis:
        ps = {A.parity(j) for j, _ in row}
        if len(ps) != 1:
            raise AssertionError("subalgebra basis vector is not homogeneous")
        parities.append(ps.pop())
    space = SuperVectorSpace(F, tuple(f"f{i + 1}" for i in range(sub.dim)),
                             tuple(parities))
    coords = coordinates(sub, A.products(basis, basis) + [unit])
    if coords is None:
        raise AssertionError("a product or the unit escapes the subalgebra subspace")
    *products, ucoords = coords
    return make_superalgebra(space, _transpose(products, sub.dim), ucoords)


def radical_by_quotient(A):
    """Reference for superalgebra.radical: the preimage of the radical of
    A/J, J the canonical ideal, with A/J built whatever its dimension."""
    if A.dim == 0:
        return Superideal(A, Subspace.zero(A.space))
    jc = canonical_ideal(A)
    abar = quotient_by_superideal(A, jc)[0]
    if abar.dim == 0:
        return Superideal(A, jc.subspace)
    if A.field.char == 0:
        radbar = _trace_form_kernel(abar)
    else:
        radbar = _frobenius_kernel(abar)
    if radbar.dim == 0:
        pre = jc.subspace
    else:
        pre = compose(projection(abar.space, radbar), projection(A.space, jc.subspace)).kernel()
    return Superideal(A, pre.sum(jc.subspace))


def local_decomposition_by_residues(A, rad):
    """Reference for superalgebra.local_decomposition: every pending
    idempotent e builds S = eA / rad eA and searches it for an idempotent,
    a 1-dimensional S included."""
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
            B, incl = subalgebra_by_homogeneous_rows(A, sub, e), sub.basis()
            rad_b = radical_by_quotient(B)
        S, _, reps = quotient_by_superideal(B, rad_b)
        e_bar = None if S.dim == 1 else _semisimple_idempotent(S)
        if e_bar is None:
            factors.append(LocalFactor(e, S.dim))
            continue
        e1 = next(_images(F, incl, [_lift_idempotent(B, reps, e_bar)]))
        pending[:0] = [e1, vec_sub(F, e, e1)]
    total = ()
    for fac in factors:
        total = vec_add(F, total, fac.idempotent)
    if total != A.unit:
        raise AssertionError("idempotents do not sum to 1")
    return factors


def components_by_subcoalgebras(C, rad):
    """Reference for supercoalgebra.irreducible_components: every component,
    the only one included, is rebuilt by subcoalgebra_on on the perp of the
    ideal of its complementary idempotent; rad is radical_by_quotient of C*."""
    dual = rad.algebra
    F = C.field
    comps = []
    for fac in local_decomposition_by_residues(dual, rad):
        rest = ideal_generated_by(dual, [vec_sub(F, dual.unit, fac.idempotent)])
        sub = perp(rest.subspace, C.space)
        coalg = subcoalgebra_on(C, sub)
        comps.append(Component(coalg, sub, fac.degree))
    if sum(c.subspace.dim for c in comps) != C.dim:
        raise AssertionError("components do not fill the coalgebra")
    return comps


def flat_check_by_residue(M):
    """Reference for supercomodule.flat_check: the residue algebra
    C*/rad C* is built, and its dimension read, whatever that dimension."""
    C = M.coalgebra
    if C.dim == 0:
        raise NotConnected("flatness over the zero coalgebra is undefined")
    rad = radical_by_quotient(dualize_coalgebra(C))
    residue = quotient_by_superideal(rad.algebra, rad)[0]
    if residue.dim > 1 and _semisimple_idempotent(residue) is not None:
        raise NotConnected("flat_check needs a connected coalgebra; decompose first")
    _, (e, o) = preimage(M, perp(rad.subspace, C.space))
    d = residue.dim
    if e % d or o % d:
        raise AssertionError(f"M*/rad(C*)M* of sdim {e}|{o} is no vector space "
                             f"over a residue field of degree {d}")
    if (e + o) // d * C.dim != M.dim:
        return FlatVerdict(False)
    return FlatVerdict(True, (e // d, o // d))


# ---------------------------------------------------------------------------
# the power chain: references for canonical_ideal, ksdim_finite and
# coradical_filtration, which multiply by a generator set, not by a basis

def odd_subspace(A):
    """The odd part A_odd, spanned by the odd basis vectors."""
    return Subspace.from_vectors(
        A.space, [unit_vec(A.field, i) for i in range(A.dim) if A.parity(i) == 1])


def canonical_ideal_by_odd_basis(A):
    """Reference for superalgebra.canonical_ideal: the products of every odd
    basis vector with every basis vector."""
    odd = [unit_vec(A.field, i) for i in range(A.dim) if A.parity(i) == 1]
    if not odd:
        return Superideal(A, Subspace.zero(A.space))
    return ideal_generated_by(A, odd)


def ksdim_by_odd_chain(A):
    """Reference for superalgebra.ksdim_finite: the chain O, O^2, ... of
    A_odd = O, each power a basis of O^n times the odd basis."""
    odd = odd_subspace(A)
    if odd.dim == 0:
        return (0, 0)
    current = odd
    n = 1
    while True:
        nxt = Subspace.from_vectors(A.space, A.products(current.basis(), odd.basis()))
        if nxt.dim == 0:
            return (0, n)
        current = nxt
        n += 1


def filtration_by_square(C, rad):
    """Reference for supercoalgebra.coradical_filtration: J^2 from the
    products of the echelon rows of J = rad C*, then J^(k+1) = J^k . S for
    S the rows of J off the pivots of J^2, which lift a basis of J/J^2."""
    dual, J = rad.algebra, rad.subspace
    if J.dim == 0:
        return [Subspace.full(C.space)]
    basis = J.basis()
    powers = [J, Subspace.from_vectors(dual.space, dual.products(basis, basis))]
    square = set(powers[1].matrix.rref()[1])
    gens = [x for x, c in zip(basis, J.matrix.rref()[1]) if c not in square]
    while True:
        if powers[-1].dim >= powers[-2].dim:
            raise AssertionError("coradical filtration stalled below the whole space")
        if powers[-1].dim == 0:
            return [perp(power, C.space) for power in powers]
        powers.append(Subspace.from_vectors(dual.space, dual.products(powers[-1].basis(), gens)))


def algebras_canonical(F):
    """The canonical algebras and the duals of the canonical coalgebras."""
    return ([(name, A) for name, A in canonical_algebras(F)]
            + [(f"({name})*", dualize_coalgebra(C)) for name, C in canonical_coalgebras(F)])


def algebras_tensor(F):
    """The tensor products of the canonical algebras of dimension 2 to 16."""
    return [(f"{a} (x) {b}", tensor_superalgebra(A, B))
            for (a, A), (b, B) in itertools.combinations_with_replacement(algebras_canonical(F), 2)
            if 1 < A.dim * B.dim <= 16]


def algebras_monomial(F, count=12):
    """Seeded truncated monomial algebras: up to 2 even and 3 odd variables,
    degree 1 to 3, up to two monomial generators."""
    rng = Rng(37)
    out = []
    for _ in range(count):
        p, q, d = rng.randint(3), rng.randint(4), 1 + rng.randint(3)
        gens = [(tuple(rng.randint(3) for _ in range(p)),
                 frozenset(j for j in range(q) if rng.randint(2)))
                for _ in range(rng.randint(3))]
        gens = [(e, o) for e, o in gens if sum(e) + len(o) > 0]
        A = monomial_superalgebra(F, p, q, d, gens)
        out.append((f"monomial({p}, {q}, {d}, {gens})", A))
    return out


ALGEBRA_KINDS = {"canonical": algebras_canonical, "tensor": algebras_tensor,
                 "monomial": algebras_monomial}


def cotensor_functor_image(phi, P, Q, M):
    """Image of P box M -> Q box M induced by a comodule epi phi: P -> Q.

    Returns (image subspace, Q box M subspace); the functor - box M is exact
    on this epi iff the two agree.
    """
    pm = cotensor(P, M)
    qm = cotensor(Q, M)
    image_vecs = tensor_apply(phi, GradedMap.identity(M.space), pm.basis())
    image = Subspace.from_vectors(qm.space, image_vecs)
    if not qm.contains_subspace(image):
        raise AssertionError("functor image escapes the cotensor subspace")
    return image, qm


def exactness_probe(M, epis):
    """True when - box M preserves surjectivity on every given epi."""
    for phi, P, Q in epis:
        image, qm = cotensor_functor_image(phi, P, Q, M)
        if image.dim != qm.dim:
            return False
    return True


def faithfulness_probe(M, others):
    """Nonzero cotensor against every nonzero comodule in the list."""
    for N in others:
        if N.dim > 0 and cotensor(N, M).dim == 0:
            return False
    return True


class GenericField(Field):
    """Computes by an inner PrimeField or Q without being one, so every
    kernel of superlinear takes its generic path through the Field methods:
    the oracle for the plain-value kernels over F_p and Q."""

    def __init__(self, inner):
        self.inner = inner
        self.char, self.order = inner.char, inner.order
        self.zero, self.one = inner.zero, inner.one

    def add(self, a, b):
        return self.inner.add(a, b)

    def neg(self, a):
        return self.inner.neg(a)

    def mul(self, a, b):
        return self.inner.mul(a, b)

    def inv(self, a):
        return self.inner.inv(a)

    def elements(self):
        return self.inner.elements()

    def describe(self):
        return f"generic {self.inner.describe()}"

    def __eq__(self, other):
        return isinstance(other, GenericField) and other.inner == self.inner

    def __hash__(self):
        return hash(("generic", self.inner))


@pytest.fixture(scope="session")
def generic_field():
    return GenericField


def rational(num, den=1):
    """num/den in the canonical form of Q: an int when it is integral, a
    normalized Fraction otherwise."""
    x = Fraction(num, den)
    return x.numerator if x.denominator == 1 else x


def rref_by_gauss_jordan(F, rows, ncols):
    """Reference for Matrix.rref over F_p and Q: dense Gauss-Jordan
    elimination on plain values (residues mod p, or exact Fractions written
    in the canonical form of Q at the end) with the arithmetic inlined and
    no Field method.  Returns (rows, pivots), the rows as dense tuples, zero
    rows last."""
    p = F.char
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    n = len(rows)
    for c in range(ncols):
        if r == n:
            break
        for i in range(r, n):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        prow = rows[r]
        inv = pow(prow[c], p - 2, p) if p else Fraction(1) / prow[c]
        for j in range(c, ncols):
            prow[j] = prow[j] * inv % p if p else prow[j] * inv
        for i, row in enumerate(rows):
            fac = row[c]
            if fac and i != r:
                for j in range(c, ncols):
                    row[j] = (row[j] - fac * prow[j]) % p if p else row[j] - fac * prow[j]
        pivots.append(c)
        r += 1
    if not p:
        rows = [map(rational, row) for row in rows]
    return tuple(map(tuple, rows)), tuple(pivots)


def kernel_by_rows(F, cols, height):
    """Reference for superlinear._kernel, the row path it replaced: the
    columns are transposed into height rows and reduced, one vector per
    free column is read off that rref, and those vectors are reduced
    again.  The canonical Matrix of the kernel."""
    n = len(cols)
    red, pivots = Matrix(F, _transpose(cols, height), n).rref()
    kernel = {c: {c: F.one} for c in range(n) if c not in pivots}
    for row, c in zip(red.rows, pivots):
        for j, y in row:
            if j != c:
                kernel[j][c] = F.neg(y)
    return Matrix(F, [vector(F, v) for v in kernel.values()], n).row_space()


def null_space_by_gauss_jordan(F, rows, ncols):
    """Reference for Matrix.null_space over F_p and Q: one vector per free
    column of the dense RREF, reduced by rref_by_gauss_jordan, zero rows
    dropped."""
    red, pivots = rref_by_gauss_jordan(F, rows, ncols)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [F.zero] * ncols
        v[fc] = F.one
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc] % F.char if F.char else -row[fc]
        basis.append(v)
    kernel, kernel_pivots = rref_by_gauss_jordan(F, basis, ncols)
    return kernel[:len(kernel_pivots)]


@pytest.fixture(scope="session")
def rref_oracle():
    return rref_by_gauss_jordan


@pytest.fixture(scope="session")
def null_space_oracle():
    return null_space_by_gauss_jordan


class DenseReference:
    """Reference for the operations of Matrix and GradedMap: the same
    operations on dense rows (lists of field elements), through the Field
    methods only, so it holds over every field; elimination is dense
    Gauss-Jordan."""

    @staticmethod
    def transpose(rows, ncols):
        return [[row[j] for row in rows] for j in range(ncols)]

    @staticmethod
    def add(F, a, b):
        return [[F.add(x, y) for x, y in zip(r, s)] for r, s in zip(a, b)]

    @staticmethod
    def sub(F, a, b):
        return [[F.sub(x, y) for x, y in zip(r, s)] for r, s in zip(a, b)]

    @staticmethod
    def scale(F, c, a):
        return [[F.mul(c, x) for x in r] for r in a]

    @staticmethod
    def stack(a, b):
        return [list(r) for r in a] + [list(r) for r in b]

    @staticmethod
    def mul(F, a, b, ncols):
        out = []
        for r in a:
            row = []
            for j in range(ncols):
                acc = F.zero
                for x, brow in zip(r, b):
                    acc = F.add(acc, F.mul(x, brow[j]))
                row.append(acc)
            out.append(row)
        return out

    @staticmethod
    def apply(F, a, v):
        return [DenseReference.mul(F, [v], DenseReference.transpose(a, len(v)), len(a))[0][i]
                for i in range(len(a))]

    @staticmethod
    def rref(F, rows, ncols):
        """(rows, pivots): the reduced row-echelon form, zero rows last."""
        rows = [list(r) for r in rows]
        pivots = []
        r = 0
        for c in range(ncols):
            hit = next((i for i in range(r, len(rows)) if not F.is_zero(rows[i][c])), None)
            if hit is None:
                continue
            rows[r], rows[hit] = rows[hit], rows[r]
            inv = F.inv(rows[r][c])
            rows[r] = [F.mul(inv, x) for x in rows[r]]
            for i, row in enumerate(rows):
                if i != r and not F.is_zero(row[c]):
                    fac = row[c]
                    rows[i] = [F.sub(x, F.mul(fac, y)) for x, y in zip(row, rows[r])]
            pivots.append(c)
            r += 1
        return rows, pivots

    @staticmethod
    def rank(F, rows, ncols):
        return len(DenseReference.rref(F, rows, ncols)[1])

    @staticmethod
    def image(F, rows, ncols):
        """The column space, as the reduced rows of the transpose."""
        red, pivots = DenseReference.rref(F, DenseReference.transpose(rows, ncols), len(rows))
        return red[:len(pivots)]

    @staticmethod
    def null_space(F, rows, ncols):
        """One vector per free column of the rref, reduced, zero rows dropped."""
        red, pivots = DenseReference.rref(F, rows, ncols)
        basis = []
        for fc in range(ncols):
            if fc in pivots:
                continue
            v = [F.zero] * ncols
            v[fc] = F.one
            for row, pc in zip(red, pivots):
                v[pc] = F.neg(row[fc])
            basis.append(v)
        kernel, kernel_pivots = DenseReference.rref(F, basis, ncols)
        return kernel[:len(kernel_pivots)]

    @staticmethod
    def solve(F, rows, ncols, bs):
        """Per right-hand side b, the solution of M x = b with every free
        coordinate zero; None if any b lies outside the column space."""
        aug = [list(r) + [b[i] for b in bs] for i, r in enumerate(rows)]
        red, pivots = DenseReference.rref(F, aug, ncols + len(bs))
        if pivots and pivots[-1] >= ncols:
            return None
        out = [[F.zero] * ncols for _ in bs]
        for row, pc in zip(red, pivots):
            for k in range(len(bs)):
                out[k][pc] = row[ncols + k]
        return out


@pytest.fixture(scope="session")
def dense_reference():
    return DenseReference
