import dataclasses
import functools
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from superscheme.fields import QQ, ExtensionField, PrimeField
from superscheme.superlinear import (
    DimensionMismatch, Echelon, Matrix, Record, Subspace, _axiom_defects, _coaction_defects,
    _kernel, _parity_defects, _read_coordinates, _rref_sparse, coordinates, perp,
    quotient_data, standard_space, unit_vec, vec_add, vec_scale, vec_sub, vector,
)
from superscheme.corpus import Rng

from conftest import (
    GradedMap, axiom_defects_by_composition, coaction_defects_by_composition, compose, dense,
    dense_columns, dense_matrix, dense_rows, even_part, graded_map, in_rational_basis,
    kernel_by_rows, matrix_of, odd_part, rank, rational, sparse, tensor_after, tensor_apply, tensor_map,
    transpose, twist,
)

F3 = PrimeField(3)

small_scalars = st.integers(min_value=-3, max_value=3).map(Fraction)


def mat_strategy(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(small_scalars, min_size=n, max_size=n),
                min_size=m, max_size=m).map(lambda rows: dense_matrix(QQ, rows, n))))


@given(mat_strategy())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(M):
    assert rank(M) + M.null_space().nrows == M.ncols


@given(mat_strategy())
@settings(max_examples=60, deadline=None)
def test_rref_idempotent_and_kernel(M):
    red, pivots = M.rref()
    red2, pivots2 = red.rref()
    assert red.rows == red2.rows and pivots == pivots2
    for row in M.null_space().rows:
        assert all(c == 0 for c in dense(QQ, M.nrows, next(graded_map(M).images([row]))))


@given(mat_strategy(3), mat_strategy(3))
@settings(max_examples=40, deadline=None)
def test_modular_law(A, B):
    n = max(A.ncols, B.ncols)
    V = standard_space(QQ, n, 0)
    pad = lambda M: dense_matrix(QQ, [list(r) + [Fraction(0)] * (n - M.ncols)
                                      for r in dense_rows(M)], n)
    X = Subspace(V, pad(A))
    Y = Subspace(V, pad(B))
    assert X.sum(Y).dim + X.intersect(Y).dim == X.dim + Y.dim


def test_kernel_examples():
    # zero map on k^{2|1}: kernel is everything
    V = standard_space(QQ, 2, 1)
    W = standard_space(QQ, 1, 0)
    z = GradedMap(V, W, [()] * V.dim, 0)
    assert z.kernel() == Subspace.full(V)
    assert z.kernel().sdim == (2, 1)
    # identity on k^{1|1}: kernel 0
    U = standard_space(QQ, 1, 1)
    assert GradedMap.identity(U).kernel().dim == 0
    # (1 1): kernel spanned by (1, -1)
    V2 = standard_space(QQ, 2, 0)
    f = GradedMap(V2, W, dense_columns(QQ, [[Fraction(1), Fraction(1)]]), 0)
    assert [dense(QQ, 2, v) for v in f.kernel().basis()] == [(Fraction(1), Fraction(-1))]


def test_twist_signs_and_involution():
    V = standard_space(QQ, 1, 1)
    W = standard_space(QQ, 1, 1)
    c = twist(V, W)
    # even (x) even keeps sign, odd (x) odd flips
    ee = dense(QQ, 4, next(c.images([unit_vec(QQ, 0)])))       # e (x) e slot -> e (x) e
    assert ee[0] == 1
    oo = dense(QQ, 4, next(c.images([unit_vec(QQ, 3)])))       # o (x) o
    assert oo[3] == -1
    back = compose(twist(W, V), c)
    assert back.columns == Matrix.identity(QQ, 4).rows


def _small_int(rng, F):
    return F.from_int(rng.randint(5) - 2)


def _scalar(rng, F):
    """Any element over F_p; over Q, a/b with |a| <= 9 and 1 <= b <= 9."""
    if F.is_finite():
        return rng.scalar(F)
    return rational(rng.randint(19) - 9, rng.randint(9) + 1)


def _random_homogeneous_map(rng, dom, cod, parity, scalar=_small_int):
    F = dom.field
    rows = []
    for i in range(cod.dim):
        row = []
        for j in range(dom.dim):
            if parity is None or (cod.parities[i] - dom.parities[j] - parity) % 2 == 0:
                row.append(scalar(rng, F))
            else:
                row.append(F.zero)
        rows.append(row)
    return GradedMap(dom, cod, dense_columns(F, rows, dom.dim), parity)


def test_tensor_map_identity_and_even_kronecker():
    V = standard_space(QQ, 1, 1)
    i = GradedMap.identity(V)
    assert tensor_map(i, i).columns == Matrix.identity(QQ, 4).rows


def test_tensor_map_odd_sign_block():
    # g odd, v odd: the sign -1 shows on that column block
    V = standard_space(QQ, 1, 1)
    rng = Rng(11)
    f = GradedMap.identity(V)
    g = _random_homogeneous_map(rng, V, V, 1)
    fg = tensor_map(f, g)
    f_rows, g_rows, fg_rows = (dense_rows(matrix_of(h)) for h in (f, g, fg))
    # column (v_odd (x) w): entries use -g
    for i in range(V.dim):
        for j in range(V.dim):
            for k in range(V.dim):
                for l in range(V.dim):
                    expected = f_rows[i][k] * g_rows[j][l]
                    if V.parities[k] == 1:
                        expected = -expected
                    assert fg_rows[i * 2 + j][k * 2 + l] == expected


def test_tensor_compose_sign_rule():
    # (f (x) g)(f' (x) g') = (-1)^{|g||f'|} (ff' (x) gg')
    V = standard_space(QQ, 2, 1)
    rng = Rng(5)
    for pf, pg, pf2, pg2 in [(0, 1, 1, 0), (1, 1, 1, 1), (0, 0, 1, 1)]:
        f = _random_homogeneous_map(rng, V, V, pf)
        g = _random_homogeneous_map(rng, V, V, pg)
        f2 = _random_homogeneous_map(rng, V, V, pf2)
        g2 = _random_homogeneous_map(rng, V, V, pg2)
        lhs = compose(tensor_map(f, g), tensor_map(f2, g2))
        rhs = tensor_map(compose(f, f2), compose(g, g2))
        sign = (-1) ** (pg * pf2)
        assert lhs.columns == tuple(vec_scale(QQ, Fraction(sign), col) for col in rhs.columns)


def _tensor_by_entry_formula(f, g):
    """(f (x) g)[i nj + j][k nl + l] = (-1)^{|g||v_k|} f[i][k] g[j][l]."""
    F = f.domain.field
    nj, nl = g.codomain.dim, g.domain.dim
    rows = [[F.zero] * (f.domain.dim * nl) for _ in range(f.codomain.dim * nj)]
    for i, frow in enumerate(dense_rows(matrix_of(f))):
        for j, grow in enumerate(dense_rows(matrix_of(g))):
            for k, a in enumerate(frow):
                for l, b in enumerate(grow):
                    val = F.mul(a, b)
                    if (g.parity or 0) * f.domain.parities[k]:
                        val = F.neg(val)
                    rows[i * nj + j][k * nl + l] = val
    return dense_matrix(F, rows, f.domain.dim * nl)


@pytest.mark.parametrize("F", [QQ, F3], ids=["Q", "F3"])
def test_tensor_apply_matches_entry_formula(F):
    rng = Rng(17)
    V, W, U = standard_space(F, 2, 1), standard_space(F, 1, 2), standard_space(F, 2, 2)
    for pf in (0, 1, None):
        for pg in (0, 1, None):
            f = _random_homogeneous_map(rng, V, W, pf)
            g = _random_homogeneous_map(rng, W, V, pg)
            expected = _tensor_by_entry_formula(f, g)
            dom = V.tensor(W)
            cols = tensor_apply(f, g, [unit_vec(F, c) for c in range(dom.dim)])
            assert transpose(Matrix(F, cols, expected.nrows)) == expected
            assert matrix_of(tensor_map(f, g)) == expected
            h = _random_homogeneous_map(rng, U, dom, None)
            fgh = tensor_after(f, g, h)
            assert matrix_of(fgh) == expected.mul(matrix_of(h))
            assert fgh.columns == compose(tensor_map(f, g), h).columns
            assert fgh.domain == U and fgh.codomain == W.tensor(V)


def test_tensor_after_rejects_wrong_size():
    V = standard_space(QQ, 1, 1)
    f = GradedMap.identity(V)
    with pytest.raises(DimensionMismatch):
        tensor_after(f, f, GradedMap.identity(standard_space(QQ, 2, 1)))


def test_perp_examples():
    V = standard_space(QQ, 2, 0)
    zero = Subspace.zero(V)
    assert perp(zero, V.dual()) == Subspace.full(V.dual())
    assert perp(Subspace.full(V), V.dual()).dim == 0
    S = Subspace.from_vectors(V, [sparse(QQ, (Fraction(1), Fraction(1)))])
    P = perp(S, V.dual())
    assert [dense(QQ, 2, v) for v in P.basis()] == [(Fraction(1), Fraction(-1))]
    assert S.dim + P.dim == V.dim
    assert perp(P, V) == S       # V** is V


_WIDTH_FIELDS = [QQ, PrimeField(3), ExtensionField(PrimeField(3), (1, 0, 1), "j")]


def _width_scalars(F):
    if F.order is None:
        return st.builds(rational, st.integers(-3, 3), st.integers(1, 3))
    return st.sampled_from(list(F.elements()))


def _tensor_combination(F, rows, coeffs, width, n):
    """The dense entries of sum of coeffs[s width + k] rows[s] (x) e_k in
    V (x) k^width, V of dimension n."""
    entries = [F.zero] * (n * width)
    for sk, a in enumerate(coeffs):
        s, k = divmod(sk, width)
        for c, b in rows[s]:
            entries[c * width + k] = F.add(entries[c * width + k], F.mul(a, b))
    return entries


@seed(1618)
@given(st.data())
@settings(max_examples=150, deadline=None)
def test_width_read_matches_a_read_per_slot(data):
    """_read_coordinates with a tensor width reads V (x) k^width as width
    slots of V: entry c width + k of a vector is entry c of slot k, and its
    coordinate s width + k is coordinate s of that slot.  Each vector is a
    drawn combination of the basis S (x) k^width, perturbed about half the
    time, so that some vectors lie outside the span.  The reference reads
    each slot at width 1 and interleaves the coordinates; a vector is in the
    span exactly when no slot raises the rank of S, and an unperturbed one
    is read back as its drawn coefficients."""
    F = data.draw(st.sampled_from(_WIDTH_FIELDS))
    scalars = _width_scalars(F)
    width, n = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 5))
    drawn = data.draw(st.lists(st.lists(scalars, min_size=n, max_size=n), max_size=4))
    S = Matrix(F, [sparse(F, r) for r in drawn], n).row_space()
    rows, pivots = S.rows, S.rref()[1]
    vecs, wanted = [], []
    for _ in range(data.draw(st.integers(0, 3))):
        size = len(rows) * width
        coeffs = data.draw(st.lists(scalars, min_size=size, max_size=size))
        entries = _tensor_combination(F, rows, coeffs, width, n)
        perturbed = data.draw(st.booleans())
        if perturbed:
            noise = data.draw(st.lists(scalars, min_size=n * width, max_size=n * width))
            entries = [F.add(a, b) for a, b in zip(entries, noise)]
        vecs.append(sparse(F, entries))
        wanted.append(None if perturbed else sparse(F, coeffs))
    got = _read_coordinates(F, rows, pivots, vecs, width)

    def slots(v):
        return [tuple((ck // width, a) for ck, a in v if ck % width == k) for k in range(width)]

    inside = all(Matrix(F, rows + (slot,), n).row_space().nrows == len(rows)
                 for v in vecs for slot in slots(v))
    reads = [_read_coordinates(F, rows, pivots, slots(v)) for v in vecs]
    if not inside:
        assert got is None and None in reads
        return
    assert got == [tuple(sorted((s * width + k, a) for k, coords in enumerate(read)
                                for s, a in coords)) for read in reads]
    assert all(coords == want for coords, want in zip(got, wanted) if want is not None)


def test_parity_defects_find_the_entries_off_parity():
    """The evenness check of a morphism a file names: the entry in row 0 of
    the odd column 1 breaks parity 0, and nothing breaks parity 1."""
    V = standard_space(QQ, 1, 1)
    bad = dense_columns(QQ, [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]], 2)
    assert list(_parity_defects(bad, V.parities, V.parities)) == [(1, 0)]
    odd = [(p + 1) % 2 for p in V.parities]
    assert list(_parity_defects(bad, odd, V.parities)) == []  # odd block structure is fine


def test_quotient_data_and_coordinates():
    V = standard_space(QQ, 3, 0)
    W = Subspace.from_vectors(V, [sparse(QQ, (Fraction(1), Fraction(1), Fraction(0)))])
    q, proj, reps = quotient_data(V, W)
    assert q.dim == 2
    # the projection kills W and sends each representative to its class
    assert not any(GradedMap(V, q, proj, 0).images(W.basis()))
    assert [proj[r] for r in reps] == [unit_vec(QQ, i) for i in range(q.dim)]
    coords = coordinates(W, [sparse(QQ, (Fraction(2), Fraction(2), Fraction(0)))])
    assert [dense(QQ, 1, c) for c in coords] == [(Fraction(2),)]
    assert coordinates(W, [sparse(QQ, (Fraction(1), Fraction(0), Fraction(0)))]) is None


def test_quotient_projection_of_a_graded_subspace_is_even():
    """quotient_data returns the projection as columns alone; for a graded W
    they make an even map, and for a W that is not graded they do not."""
    V = standard_space(F3, 2, 2)
    rng = Rng(23)
    for _ in range(20):
        vecs = [sparse(F3, [rng.scalar(F3) if p == parity else 0 for p in V.parities])
                for parity in (0, 0, 1)]
        W = Subspace.from_vectors(V, vecs[:1 + rng.randint(3)])
        assert W.is_graded()
        q, proj, _ = quotient_data(V, W)
        GradedMap(V, q, proj, 0)
    mixed = Subspace.from_vectors(V, [sparse(F3, (1, 0, 1, 0))])
    q, proj, _ = quotient_data(V, mixed)
    with pytest.raises(ValueError):
        GradedMap(V, q, proj, 0)


def test_subspace_graded_parts():
    V = standard_space(QQ, 1, 1)
    mixed = Subspace.from_vectors(V, [sparse(QQ, (Fraction(1), Fraction(1)))])
    assert not mixed.is_graded()
    graded = Subspace.from_vectors(V, [sparse(QQ, (Fraction(1), Fraction(0))),
                                       sparse(QQ, (Fraction(0), Fraction(1)))])
    assert graded.is_graded()
    assert graded.sdim == (1, 1)
    with pytest.raises(ValueError):
        mixed.sdim


def test_subspace_membership_matches_rank_and_intersection():
    # contains and is_graded read the echelon basis; the references are a
    # rank test of the stacked rows and W = (W meet V_even) + (W meet V_odd)
    rng = Rng(23)
    for F in (QQ, PrimeField(3)):
        for even, odd in ((1, 1), (2, 1), (2, 3)):
            V = standard_space(F, even, odd)
            for _ in range(25):
                vecs = []
                for _ in range(rng.randint(V.dim + 1)):
                    keep = rng.randint(3)   # 0 even, 1 odd, 2 mixed support
                    vecs.append(sparse(F, [rng.scalar(F) if keep in (2, p) else F.zero
                                           for p in V.parities]))
                W = Subspace.from_vectors(V, vecs)
                assert W.is_graded() == (even_part(W).sum(odd_part(W)) == W)
                if W.is_graded():
                    # each echelon row has its pivot's parity
                    assert W.sdim == (even_part(W).dim, odd_part(W).dim)
                    assert all(V.parities[i] == p for row, p in zip(W.basis(), W.parities)
                               for i, _ in row)
                probe = sparse(F, [rng.scalar(F) for _ in range(V.dim)])
                for v in vecs + [probe]:
                    stacked = W.matrix.stack(Matrix(F, [v], V.dim))
                    assert W.contains(v) == (rank(stacked) == W.dim)


# ---------------------------------------------------------------------------
# plain-value kernels over F_p and Q against the generic path

PLAIN_FIELDS = [QQ, PrimeField(3), PrimeField(5), PrimeField(7)]


def _entries(F):
    """Scalars of F, zero about half the time; over Q, a/b with |a| <= 9 and
    1 <= b <= 9, so that sums of products need a common denominator."""
    if F == QQ:
        scalars = st.builds(rational, st.integers(-9, 9), st.integers(1, 9))
    else:
        scalars = st.integers(0, F.p - 1)
    return st.one_of(st.just(F.zero), scalars)


@st.composite
def plain_matrices(draw):
    """(field, rows, width), with zero rows and 0 x n shapes among them."""
    F = draw(st.sampled_from(PLAIN_FIELDS))
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(_entries(F), min_size=n, max_size=n),
                         min_size=m, max_size=m))
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, m - 1))] = [F.zero] * n
    return F, rows, n


def _dense(F, rows, n):
    """Vectors as dense tuples."""
    return tuple(dense(F, n, r) for r in rows)


def _typed(rows):
    """Entries with their types, so a Q result must hold its canonical form
    throughout (an int exactly when the entry is integral, a Fraction
    otherwise); rows are dense tuples or vectors, whose entries are the
    second items of their pairs."""
    return tuple(tuple((type(x[1]), x) if isinstance(x, tuple) else (type(x), x) for x in r)
                 for r in rows)


@seed(2718)
@given(plain_matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_plain_kernels_match_generic_path(generic_field, rref_oracle, null_space_oracle,
                                         case, data):
    F, rows, n = case
    G = generic_field(F)
    fast, slow = dense_matrix(F, rows, n), dense_matrix(G, rows, n)
    # Matrix runs one sparse elimination for every field; the dense
    # Gauss-Jordan reference on plain values checks it from outside
    want, want_pivots = rref_oracle(F, rows, n)
    assert fast.rref()[1] == want_pivots
    assert _typed(dense_rows(fast.rref()[0])) == _typed(want)
    assert _typed(dense_rows(fast.null_space())) == _typed(null_space_oracle(F, rows, n))
    assert fast.rref()[1] == slow.rref()[1]
    for f_out, g_out in [(fast.rref()[0], slow.rref()[0]),
                         (fast.row_space(), slow.row_space()),
                         (fast.null_space(), slow.null_space()),
                         (fast.mul(transpose(fast)), slow.mul(transpose(slow))),
                         (Matrix(F, [vec_add(F, r, r) for r in fast.rows], n),
                          Matrix(G, [vec_add(G, r, r) for r in slow.rows], n))]:
        assert _typed(f_out.rows) == _typed(g_out.rows)
        assert (f_out.nrows, f_out.ncols) == (g_out.nrows, g_out.ncols)
    # a canonical matrix is its own rref and is not reduced again
    canon = fast.row_space()
    assert canon.rref() == (canon, fast.rref()[1]) and canon.row_space() is canon
    # the sparse elimination on the same rows, over F and over G, against
    # Matrix.rref, which runs it
    for K, M in ((F, fast), (G, slow)):
        red, pivots = _rref_sparse(K, [dict(r) for r in M.rows])
        assert pivots == M.rref()[1]
        assert _typed(_dense(K, red, n)) == _typed(dense_rows(M.row_space()))

    VF, VG = standard_space(F, n, 0), standard_space(G, n, 0)
    sub_f, sub_g = Subspace(VF, fast), Subspace(VG, slow)
    entries = _entries(F)
    inside = ()
    for row in sub_f.basis():
        inside = vec_add(F, inside, vec_scale(F, data.draw(entries), row))
    outside = sparse(F, data.draw(st.lists(entries, min_size=n, max_size=n)))
    assert coordinates(sub_f, [inside]) is not None
    for v in (inside, outside):
        got, want = coordinates(sub_f, [v]), coordinates(sub_g, [v])
        assert (got is None) == (want is None)
        if got is not None:
            assert _typed(got) == _typed(want)
        assert _typed(graded_map(fast).images([v])) == _typed(graded_map(slow).images([v]))
    # a batch is read whole: one vector outside makes it None, against a rank test
    outside_in = rank(fast.stack(Matrix(F, [outside], n))) == rank(fast)
    assert (coordinates(sub_f, [inside, outside, inside]) is None) == (not outside_in)
    batch = [inside, vec_scale(F, F.neg(F.one), inside), ()]
    assert _typed(coordinates(sub_f, batch)) == _typed(coordinates(sub_g, batch))

    # solve reduces [M | B] once: M X = B, and None exactly when rank [M | B] > rank M
    m = fast.nrows
    xs = [sparse(F, data.draw(st.lists(entries, min_size=n, max_size=n))) for _ in range(2)]
    bs = [next(graded_map(fast).images([x])) for x in xs]
    if data.draw(st.booleans()):
        bs.append(sparse(F, data.draw(st.lists(entries, min_size=m, max_size=m))))
    B = transpose(Matrix(F, bs, m))
    aug = dense_matrix(F, [r + c for r, c in zip(dense_rows(fast), dense_rows(B))],
                       n + len(bs))
    X = fast.solve(bs)
    assert (X is None) == (rank(aug) > rank(fast))
    if X is not None:
        assert fast.mul(transpose(Matrix(F, X, n))) == B
    slow_x = slow.solve(bs)
    assert (X is None) == (slow_x is None)
    if X is not None:
        assert _typed(X) == _typed(slow_x)

    # a combination of the sparse rows is the transpose applied to its
    # coefficients: over F, over the generic path, and as the row of
    # coefficients times the matrix
    coeffs = sparse(F, data.draw(st.lists(entries, min_size=m, max_size=m)))
    combo = next(graded_map(transpose(fast)).images([coeffs]))
    assert _typed([combo]) == _typed([next(graded_map(transpose(slow)).images([coeffs]))])
    assert _typed([combo]) == _typed(Matrix(F, [coeffs], m).mul(fast).rows)


@seed(2718)
@given(st.sampled_from(PLAIN_FIELDS), st.sampled_from([0, 1, None]),
       st.sampled_from([0, 1, None]), st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_plain_tensor_apply_matches_generic_path(generic_field, F, pf, pg, rng_seed):
    G = generic_field(F)
    rng = Rng(rng_seed)
    shapes = [standard_space(F, rng.randint(3), rng.randint(3)) for _ in range(4)]
    V, W, X, Y = shapes
    f = _random_homogeneous_map(rng, V, W, pf, _scalar)
    g = _random_homogeneous_map(rng, X, Y, pg, _scalar)

    def over_g(h):
        dom = standard_space(G, *h.domain.sdim)
        cod = standard_space(G, *h.codomain.sdim)
        return GradedMap(dom, cod, h.columns, h.parity)

    dim = V.dim * X.dim
    vecs = [sparse(F, [_scalar(rng, F) if rng.randint(2) else F.zero for _ in range(dim)])
            for _ in range(3)] + [()]
    fast = list(tensor_apply(f, g, vecs))
    slow = list(tensor_apply(over_g(f), over_g(g), vecs))
    assert _typed(fast) == _typed(slow)
    # both run the one sparse body: check it against the Koszul-signed
    # formula, entry by entry
    nl, nj = X.dim, Y.dim
    f_rows, g_rows = dense_rows(matrix_of(f)), dense_rows(matrix_of(g))
    for v, image in zip(vecs, fast):
        v = dense(F, dim, v)
        want = [F.zero] * (W.dim * nj)
        for k in range(V.dim):
            sign = F.neg(F.one) if pg and V.parities[k] else F.one
            for l in range(nl):
                for i in range(W.dim):
                    for j in range(nj):
                        term = F.mul(F.mul(sign, v[k * nl + l]),
                                     F.mul(f_rows[i][k], g_rows[j][l]))
                        want[i * nj + j] = F.add(want[i * nj + j], term)
        assert image == sparse(F, want)


@seed(2718)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n),
                         max_size=5))), st.data())
@settings(max_examples=40, deadline=None)
def test_sparse_elimination_over_f9(rref_oracle, null_space_oracle, case, data):
    """Scaling the rows of an F3 matrix by units of F9 and appending F9
    combinations of them keeps its row space, so the RREF and null space
    over F9 must be those over F3, embedded: those of Matrix and those of
    the dense Gauss-Jordan reference."""
    n, rows = case
    F9 = ExtensionField(F3, (1, 0, 1), "j")
    units = [a for a in F9.elements() if a != F9.zero]
    emb = [[F9.embed(x) for x in r] for r in rows]
    mixed = [[F9.mul(u, x) for x in r] for u, r in
             zip(data.draw(st.lists(st.sampled_from(units), min_size=len(emb),
                                    max_size=len(emb))), emb)]
    for _ in range(data.draw(st.integers(0, 2))):
        combo = [F9.zero] * n
        for r in mixed:
            c = data.draw(st.sampled_from([F9.zero] + units))
            combo = [F9.add(a, F9.mul(c, b)) for a, b in zip(combo, r)]
        mixed.append(combo)
    base = dense_matrix(F3, rows, n)
    ref, ref_pivots = rref_oracle(F3, rows, n)
    ref_kernel = null_space_oracle(F3, rows, n)
    assert base.rref()[1] == ref_pivots
    assert dense_rows(base.row_space()) == ref[:len(ref_pivots)]
    assert dense_rows(base.null_space()) == ref_kernel
    want = dense_matrix(F9, [[F9.embed(x) for x in r] for r in dense_rows(base.row_space())],
                        n)
    red, pivots = _rref_sparse(F9, [{j: x for j, x in enumerate(r) if x != F9.zero}
                                    for r in mixed])
    assert pivots == base.rref()[1]
    assert _dense(F9, red, n) == dense_rows(want)
    assert dense_matrix(F9, mixed, n).row_space() == want
    assert dense_rows(dense_matrix(F9, mixed, n).null_space()) == tuple(
        tuple(F9.embed(x) for x in r) for r in dense_rows(base.null_space()))


F9 = ExtensionField(F3, (1, 0, 1), "j")


def _mostly_zero(F):
    """Entries of F, zero two times in three."""
    if F == QQ:
        nonzero = st.builds(rational, st.integers(-9, 9).filter(bool), st.integers(1, 9))
    else:
        nonzero = st.sampled_from(sorted((a for a in F.elements() if a != F.zero),
                                         key=F.sort_key))
    return st.one_of(st.just(F.zero), st.just(F.zero), nonzero)


@st.composite
def _matrix_cases(draw):
    """A field, shapes m, n, k, matrices A and B (m x n), C (k x n) and
    D (n x k), a vector v, a scalar c and right-hand sides for A x = b, one
    of them possibly outside the column space; most entries zero."""
    F = draw(st.sampled_from([QQ, F3, F9]))
    entry = _mostly_zero(F)
    m, n, k = (draw(st.integers(0, 4)) for _ in range(3))

    def rows(h, w):
        return draw(st.lists(st.lists(entry, min_size=w, max_size=w), min_size=h, max_size=h))
    v = draw(st.lists(entry, min_size=n, max_size=n))
    xs = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(2)]
    extra = draw(st.lists(st.lists(entry, min_size=m, max_size=m), max_size=1))
    return F, m, n, k, rows(m, n), rows(m, n), rows(k, n), rows(n, k), v, draw(entry), xs, extra


@seed(1978)
@given(_matrix_cases())
@settings(max_examples=150, deadline=None)
def test_matrix_operations_match_the_dense_reference(dense_reference, case):
    """Every Matrix operation, on sparse rows, and every operation on the
    sparse columns of a map, against the same operation on dense rows over
    Q, F3 and F9."""
    R = dense_reference
    F, m, n, k, a, b, c_rows, d, v, c, xs, extra = case
    A = dense_matrix(F, a, n)
    C, D = dense_matrix(F, c_rows, n), dense_matrix(F, d, k)
    # the maps k^n -> k^m of the rows a and b, and k^k -> k^n of the rows d
    Vk, Vn, Vm = (standard_space(F, dim, 0) for dim in (k, n, m))
    f, h = (GradedMap(Vn, Vm, dense_columns(F, rows, n), None) for rows in (a, b))
    g = GradedMap(Vk, Vn, dense_columns(F, d, k), None)

    def same(M, rows, shape):
        assert (M.nrows, M.ncols) == shape
        assert dense_rows(M) == tuple(map(tuple, rows))
        # the rows are in the one vector form
        assert all(list(r) == sorted(r) and all(not F.is_zero(x) for _, x in r)
                   for r in M.rows)

    same(transpose(A), R.transpose(a, n), (n, m))
    added, subtracted = ([op(F, u, w) for u, w in zip(f.columns, h.columns)]
                         for op in (vec_add, vec_sub))
    same(transpose(Matrix(F, added, m)), R.add(F, a, b), (m, n))
    same(transpose(Matrix(F, subtracted, m)), R.sub(F, a, b), (m, n))
    scaled = GradedMap(Vn, Vm, [vec_scale(F, c, col) for col in f.columns], None)
    same(matrix_of(scaled), R.scale(F, c, a), (m, n))
    same(A.stack(C), R.stack(a, c_rows), (m + k, n))
    same(A.mul(D), R.mul(F, a, d, k), (m, k))
    assert dense(F, m, next(f.images([sparse(F, v)]))) == tuple(R.apply(F, a, v))
    same(matrix_of(compose(f, g)), R.mul(F, a, d, k), (m, k))
    same(f.kernel().matrix, R.null_space(F, a, n), (len(R.null_space(F, a, n)), n))
    image = R.image(F, a, n)
    same(f.image().matrix, image, (len(image), m))
    assert f.image().dim == R.rank(F, a, n) == len(image)
    # the columns are in the one vector form
    assert all(list(col) == sorted(col) and all(not F.is_zero(x) for _, x in col)
               for col in compose(f, g).columns + tuple(added) + tuple(subtracted))
    same(A.null_space(), R.null_space(F, a, n), (len(R.null_space(F, a, n)), n))
    bs = [R.apply(F, a, x) for x in xs] + extra
    got = A.solve([sparse(F, b) for b in bs])
    want = R.solve(F, a, n, bs)
    assert (got is None) == (want is None)
    if got is not None:
        assert [dense(F, n, x) for x in got] == [tuple(x) for x in want]


@st.composite
def _echelon_cases(draw):
    """A field, a width n, up to seven rows of width n, the last ones
    combinations of those before them, and an order to add them in."""
    F = draw(st.sampled_from([QQ, F3, F9]))
    entry = _mostly_zero(F)
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        combo = [F.zero] * n
        for r in list(rows):
            c = draw(entry)
            combo = [F.add(a, F.mul(c, b)) for a, b in zip(combo, r)]
        rows.append(combo)
    return F, n, rows, draw(st.permutations(range(len(rows))))


@seed(48)
@given(_echelon_cases())
@settings(max_examples=150, deadline=None)
def test_echelon_grows_to_the_one_reduced_form(dense_reference, case):
    """Rows added to an Echelon one at a time, in any order, give the rows
    and pivots of _rref_sparse on all of them at once and those of the
    dense reference, over Q, F3 and F9.  add is True exactly when the rank
    grows, extend gives the same answer per row, and basis vector i lies in
    the span exactly when Subspace.contains says so."""
    F, n, rows, order = case
    vecs = [sparse(F, r) for r in rows]
    echelon, grew = Echelon(F), []
    for i in order:
        rank = len(echelon.rows()[1])
        grew.append(echelon.add(vecs[i]))
        assert grew[-1] == (len(echelon.rows()[1]) > rank)
    red, pivots = echelon.rows()
    assert (red, pivots) == _rref_sparse(F, vecs)
    want, want_pivots = dense_reference.rref(F, rows, n)
    assert pivots == tuple(want_pivots)
    assert _dense(F, red, n) == tuple(map(tuple, want[:len(want_pivots)]))
    batch = Echelon(F)
    assert batch.extend([vecs[i] for i in order]) == grew
    assert batch.rows() == (red, pivots)
    span = Subspace.from_vectors(standard_space(F, n, 0), vecs)
    assert [echelon.has_unit_vec(i) for i in range(n)] == [
        span.contains(unit_vec(F, i)) for i in range(n)]


@st.composite
def _kernel_cases(draw):
    """A field, a height h and the columns of a map k^n -> k^h, n and h
    down to 0: sparse columns with a zero column among them, the zero map,
    or a map of full rank min(n, h), most entries zero."""
    F = draw(st.sampled_from([QQ, F3, F9]))
    entry = _mostly_zero(F)
    nonzero = entry.filter(lambda x: not F.is_zero(x))
    kind = draw(st.sampled_from(["sparse", "zero map", "full rank"]))
    h, n = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    cols = [draw(st.lists(entry, min_size=h, max_size=h)) for _ in range(n)]
    if kind == "zero map":
        cols = [[F.zero] * h for _ in range(n)]
    elif kind == "full rank":
        # column j < h has its first nonzero entry at j
        for j, col in enumerate(cols[:h]):
            col[:j + 1] = [F.zero] * j + [draw(nonzero)]
    elif n and draw(st.booleans()):
        cols[draw(st.integers(0, n - 1))] = [F.zero] * h
    return F, h, [sparse(F, col) for col in cols]


@seed(51)
@given(_kernel_cases())
@settings(max_examples=200, deadline=None)
def test_one_kernel_matches_the_row_path(dense_reference, null_space_oracle, case):
    """superlinear._kernel, one column elimination with an identity tail,
    gives the canonical rows and pivots of the row path it replaced
    (kernel_by_rows), of the dense Gauss-Jordan reference and, over Q and
    F3, of the plain-value oracle; its pivots are its own, and it takes its
    columns as any iterable of (index, entry) pairs in any order."""
    F, h, cols = case
    n = len(cols)
    K = _kernel(F, cols, h)
    want = kernel_by_rows(F, cols, h)
    assert (K.nrows, K.ncols) == (want.nrows, n)
    assert _typed(K.rows) == _typed(want.rows)
    assert K.rref()[1] == want.rref()[1]
    fresh = Matrix(F, K.rows, n).rref()
    assert (fresh[0].rows, fresh[1]) == (K.rows, K.rref()[1])
    rows = dense_rows(transpose(Matrix(F, cols, h)))
    assert dense_rows(K) == tuple(map(tuple, dense_reference.null_space(F, rows, n)))
    if F != F9:
        assert _typed(dense_rows(K)) == _typed(null_space_oracle(F, rows, n))
    assert _kernel(F, (reversed(col) for col in cols), h) == K


# ---------------------------------------------------------------------------
# Record against the frozen dataclass it stands in for


@dataclasses.dataclass(frozen=True)
class _Frozen:
    a: object
    b: tuple
    c: object = None


class _Rec(Record):
    a: object
    b: tuple
    c: object = None


class _OtherRec(Record):
    a: object
    b: tuple
    c: object = None


def _outcome(cls, args, kwargs):
    try:
        made = cls(*args, **kwargs)
    except TypeError:
        return TypeError
    return (made.a, made.b, made.c)


@pytest.mark.parametrize("args, kwargs", [
    ((1, (2,)), {}), ((1, (2,), 3), {}), ((), {"b": (2,), "a": 1}),
    ((1,), {"b": (2,), "c": 3}), ((), {}), ((1,), {}), ((1, (2,), 3, 4), {}),
    ((1, (2,)), {"a": 1}), ((1, (2,)), {"d": 4}), ((), {"a": 1, "c": 3}),
])
def test_record_init_matches_a_frozen_dataclass(args, kwargs):
    """Positional and keyword arguments, defaults, and a TypeError for a
    missing, an extra, a repeated or an unknown argument."""
    assert _outcome(_Rec, args, kwargs) == _outcome(_Frozen, args, kwargs)


def test_record_compares_hashes_and_refuses_assignment_as_a_frozen_dataclass():
    for cls in (_Rec, _Frozen):
        x, y, z = cls(1, (2,)), cls(1, (2,), None), cls(1, (3,))
        assert x == y and hash(x) == hash(y) == hash((1, (2,), None))
        assert x != z and len({x, y, z}) == 2
        for target, name in [(x, "a"), (x, "c"), (x, "new")]:
            with pytest.raises(AttributeError):
                setattr(target, name, 0)
            with pytest.raises(AttributeError):
                delattr(target, name)
        assert x == cls(1, (2,)) and not hasattr(x, "new")
    # equal fields in another class: NotImplemented both ways, so unequal
    for x, other in [(_Rec(1, (2,)), _Frozen(1, (2,))), (_Rec(1, (2,)), _OtherRec(1, (2,))),
                     (_Frozen(1, (2,)), _Rec(1, (2,)))]:
        assert x.__eq__(other) is NotImplemented and x != other
    assert repr(_Rec(1, (2,))) == repr(_Frozen(1, (2,))).replace("_Frozen", "_Rec")
    assert _Rec._fields == tuple(f.name for f in dataclasses.fields(_Frozen))


def test_cached_properties_compute_once_on_records(monkeypatch):
    """SuperAlgebra._terms is cached in the instance's __dict__: it is
    computed once, and neither the cache nor its absence changes equality
    or hashing.  SuperCoalgebra.coproduct_map is delta itself: nothing is
    cached."""
    from superscheme import superalgebra
    from superscheme.corpus import grassmann
    from superscheme.supercoalgebra import dualize_algebra

    calls = []
    rule = superalgebra._sum_ops
    monkeypatch.setattr(superalgebra, "_sum_ops", lambda F: calls.append(F) or rule(F))
    A, twin = grassmann(2), grassmann(2)
    terms = A._terms
    assert A._terms is terms and len(calls) == 1 and "_terms" in vars(A)
    A.multiply(A.unit, A.unit)
    assert len(calls) == 1
    assert A == twin and hash(A) == hash(twin) and "_terms" not in vars(twin)
    C, twin = dualize_algebra(A), dualize_algebra(twin)
    assert C.coproduct_map() is C.delta and C.coproduct_map() == twin.coproduct_map()
    assert set(vars(C)) == set(C._fields)
    assert C == twin and hash(C) == hash(twin)


_F9 = ExtensionField(F3, (1, 0, 1), "j")


@functools.cache
def _axiom_kernel_cases(F):
    """The validator kernel's arguments (space, cols, cspace, delta, counit,
    regular) over F: the cop and unit of every canonical algebra, the delta
    and counit of every canonical coalgebra, and the regular comodule and
    the free comodule on a one even, one odd space of each coalgebra.  Over
    Q also the canonical algebras that a dense rational basis gives
    denominators, their duals and the comodules of those, so that every
    operand is lifted to a common denominator above 1."""
    from superscheme.corpus import canonical_algebras, canonical_coalgebras
    from superscheme.supercoalgebra import dualize_algebra
    from superscheme.supercomodule import free_comodule, regular_comodule

    algebras = [A for _, A in canonical_algebras(F)]
    coalgebras = [C for _, C in canonical_coalgebras(F)]
    if F == QQ:
        rng = Rng(49)
        rational_algebras = [B for B in (in_rational_basis(A, rng) for A in algebras)
                             if any(c.denominator > 1 for col in B.cop for _, c in col)]
        assert len(rational_algebras) >= 5
        algebras += rational_algebras
        coalgebras += [dualize_algebra(A) for A in rational_algebras]
    W = standard_space(F, 1, 1)
    cases = [(A.space, A.cop, A.space, A.cop, A.unit, True) for A in algebras]
    cases += [(C.space, C.delta, C.space, C.delta, C.counit, True) for C in coalgebras]
    cases += [(M.space, M.psi, C.space, C.delta, C.counit, False)
              for C in coalgebras for M in (regular_comodule(C), free_comodule(W, C))]
    return cases


def _kernel_against_reference(space, cols, cspace, delta, counit, regular):
    if regular:
        got, want = (_axiom_defects(space, cols, counit),
                     axiom_defects_by_composition(space, cols, counit))
    else:
        parity, left, right, coassoc, twisted = _coaction_defects(
            space, cols, cspace, delta, counit)
        assert left == twisted == []
        got, want = ((parity, right, coassoc),
                     coaction_defects_by_composition(space, cols, cspace, delta, counit))
    assert got == want
    return got


@pytest.mark.parametrize("F", [QQ, F3, _F9], ids=["Q", "F3", "F9"])
def test_axiom_kernel_passes_every_canonical_structure(F):
    """Every canonical algebra, coalgebra and comodule, and over Q the same
    in a dense rational basis, satisfies its axioms by the one-pass kernel
    and by the composed reference alike."""
    for case in _axiom_kernel_cases(F):
        assert not any(_kernel_against_reference(*case))


@seed(4949)
@given(st.data())
@settings(max_examples=400, deadline=None)
def test_axiom_kernel_finds_the_defects_of_the_composed_reference(data):
    """The one-pass validator kernel lists the positions of the composed
    reference, list by list and in its order: the five lists of an algebra's
    cop or a coalgebra's delta, the three of a comodule's psi.  Each case
    may carry a one-entry mutant of cols, alone or with its twisted partner
    (the entry on the row whose last two C factors are swapped, with the
    Koszul sign), which keeps a cop or delta super-cocommutative and so
    tests the other laws apart from the twist."""
    F = data.draw(st.sampled_from([QQ, F3, _F9]))
    space, cols, cspace, delta, counit, regular = data.draw(
        st.sampled_from(_axiom_kernel_cases(F)))
    nc, cpar = cspace.dim, cspace.parities
    mutants = data.draw(st.sampled_from([0, 1, 2]))
    if mutants and cols:
        i = data.draw(st.integers(0, len(cols) - 1))
        r = data.draw(st.integers(0, space.dim * nc - 1))
        units = ([1, -1, 2, Fraction(1, 3), Fraction(-5, 7)] if F == QQ
                 else [a for a in F.elements() if a != F.zero])
        v = data.draw(st.sampled_from(units))
        col = dict(cols[i])
        col[r] = F.add(col.get(r, F.zero), v)
        m, k = divmod(r, nc)
        w, j = divmod(m, nc)
        partner = (w * nc + k) * nc + j
        if mutants == 2 and partner != r:
            col[partner] = F.add(col.get(partner, F.zero),
                                 F.neg(v) if cpar[j] and cpar[k] else v)
        cols = cols[:i] + (vector(F, col),) + cols[i + 1:]
        if regular:
            delta = cols
    _kernel_against_reference(space, cols, cspace, delta, counit, regular)
