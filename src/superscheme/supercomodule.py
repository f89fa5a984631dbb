"""Right super-comodules over a super-coalgebra.

psi holds the sparse columns of the coaction M -> M (x) C: column i lists
the (j * nc + k, c) pairs, sorted with c nonzero, of the terms c m_j (x) c_k
of psi(m_i), nc = dim C.
Left comodules are derived by composing with the Koszul twist, which is
canonical here because all coalgebras are super-cocommutative.
"""

from __future__ import annotations

from .superalgebra import _semisimple_idempotent, quotient_by_superideal
from .supercoalgebra import _subcoalgebra_read, coradical, dual_radical, is_grouplike
from .superlinear import (
    Record, StructureRecord, Subspace, SuperVectorSpace, _coaction_defects,
    _identity_columns, _kernel, _tensor_apply_sparse, canonical_columns, quotient_data,
    twist_apply,
)


class NotConnected(ValueError):
    pass


class SuperComodule(StructureRecord):
    space: object
    coalgebra: object
    psi: tuple

    def left_coaction(self):
        """The sparse columns of the twisted coaction M -> C (x) M."""
        return tuple(twist_apply(self.space, self.coalgebra.space, self.psi))


def make_supercomodule(space, coalgebra, psi):
    """The comodule with these columns of psi (see canonical_columns); the
    one constructor.  It does not validate: call validate_comodule."""
    n = space.dim
    return SuperComodule(space, coalgebra,
                         canonical_columns(space.field, psi, n, n * coalgebra.dim))


def validate_comodule(M):
    """Violated coaction axioms (parity, counit, coassociativity).

    Each axiom is an equality of two composed structure maps, compared
    column by column: (id (x) eps) psi = id and
    (psi (x) id) psi = (id (x) delta) psi.
    """
    C = M.coalgebra
    nc = C.dim
    labels = M.space.labels
    parity, _, back, coassoc, _ = _coaction_defects(M.space, M.psi, C.space, C.delta, C.counit)
    problems = [f"parity: psi({labels[i]}) is not homogeneous" for i, _ in parity]
    problems += [f"counit: (id(x)eps)psi({labels[i]}) != {labels[i]}"
                 for i in dict.fromkeys(i for i, _ in back)]
    for i, jab in coassoc:
        j, ab = divmod(jab, nc * nc)
        problems.append(
            f"coassociativity fails on {labels[i]} at ({labels[j]},{ab // nc},{ab % nc})")
    return problems


# ---------------------------------------------------------------------------
# constructions

def regular_comodule(C):
    return make_supercomodule(C.space, C, C.delta)


def free_comodule(W, C):
    """W (x) C with coaction id_W (x) delta: w (x) b_j (x) b_k sits at index
    w * nc^2 + j * nc + k of (W (x) C) (x) C."""
    shift = C.dim * C.dim
    psi = [[(w * shift + jk, c) for jk, c in col] for w in range(W.dim) for col in C.delta]
    return make_supercomodule(W.tensor(C.space), C, psi)


def trivial_comodule(C, g, dim_even=1, dim_odd=0):
    """W (x) span(g) for a group-like g: psi(m) = m (x) g."""
    if not is_grouplike(C, g):
        raise ValueError("trivial comodule needs a group-like element")
    F = C.field
    space = SuperVectorSpace(
        F,
        tuple(f"m{i + 1}" for i in range(dim_even + dim_odd)),
        (0,) * dim_even + (1,) * dim_odd)
    psi = [[(i * C.dim + k, c) for k, c in g] for i in range(space.dim)]
    return make_supercomodule(space, C, psi)


def subcoalgebra_comodule(C, W):
    """A subcoalgebra W <= C as a right C-comodule via the coproduct: the
    coaction is delta(w) read in W (x) C, which is the closure check."""
    space, _, psi = _subcoalgebra_read(C, W)
    return make_supercomodule(space, C, psi)


def comodule_along(M, f, B):
    """Push a C-comodule to a B-comodule along a coalgebra map f: C -> B,
    given by its columns: the coaction (id (x) f) psi.  f is even, so
    id (x) f carries no Koszul sign."""
    F = M.field
    return make_supercomodule(M.space, B, _tensor_apply_sparse(
        F, _identity_columns(F, M.dim), f, B.dim, M.psi))


def preimage(M, W):
    """psi^-1(M (x) W) for a graded subspace W of C, with its sdim: the
    kernel of (id (x) pi) psi for pi: C -> C/W.  For a subcoalgebra K of B
    and psi the coaction of A pushed along f: A -> B, this is the image of
    the cotensor A box_B K in A under id (x) eps (Takeuchi, Formal schemes
    over fields, Comm. Algebra 5, 1977).  psi and pi are even, so the
    kernel is graded.
    """
    F = M.field
    qspace, pi, _ = quotient_data(M.coalgebra.space, W)
    cols = _tensor_apply_sparse(F, _identity_columns(F, M.dim), pi, qspace.dim, M.psi)
    P = Subspace(M.space, _kernel(F, cols, M.dim * qspace.dim))
    o = sum(P.parities)
    return P, (P.dim - o, o)


# ---------------------------------------------------------------------------
# cotensor product

def cotensor_kernel(psi_right, theta_left, m_space, n_space, c_dim):
    """Kernel of psi_M (x) id - id (x) theta_N inside M (x) N.

    psi_right and theta_left are the sparse columns (per basis vector, the
    (index, entry) pairs of its image with a nonzero entry) of M -> M (x) C
    and N -> C (x) N; of m_space and n_space only .field and .dim are read.
    The kernel is returned as its canonical Matrix, in the basis
    m_i (x) n_j at index i * dim N + j.
    """
    F = m_space.field
    nn = n_space.dim
    neg, sub, is_zero = F.neg, F.sub, F.is_zero
    # column (i, j) is psi(m_i) (x) n_j - m_i (x) theta(n_j); the term
    # m_a (x) c_k (x) n_b lands on row (a * c_dim + k) * nn + b
    cols = []
    for i, pcol in enumerate(psi_right):
        base = i * c_dim * nn
        for j, tcol in enumerate(theta_left):
            col = {r * nn + j: c for r, c in pcol}      # r = a * c_dim + k
            for r, c in tcol:                           # r = k * nn + b
                k = base + r
                x = sub(col[k], c) if k in col else neg(c)
                if is_zero(x):
                    del col[k]
                else:
                    col[k] = x
            cols.append(col.items())
    return _kernel(F, cols, m_space.dim * c_dim * nn)


def cotensor(M, N):
    """M box_C N for two right comodules; N is twisted to the left side."""
    if M.coalgebra != N.coalgebra:
        raise ValueError("cotensor factors over different coalgebras")
    return Subspace(M.space.tensor(N.space), cotensor_kernel(
        M.psi, N.left_coaction(), M.space, N.space, M.coalgebra.dim))


# ---------------------------------------------------------------------------
# flatness via dual freeness

class FlatVerdict(Record):
    free: bool
    rank: tuple = None


def flat_check(M):
    """Lemma: over a connected coalgebra, flat comodule <=> free comodule.

    C is connected iff K = C*/rad C* is a field, that is, has no nontrivial
    idempotent.  M* is then a finite module over the local algebra C*, and
    its freeness is one count.  K is even, because the odd part of C* lies
    in J = rad C*, so M*/JM* is a graded K-vector space and d = dim K
    divides both parts (e, o) of its sdim.  By Nakayama's lemma (Matsumura,
    Commutative Ring Theory, Thm 2.3) lifts of a homogeneous K-basis of
    M*/JM* generate M*, so phi: (C*)^r -> M*, r = (e + o)/d, is onto; it is
    bijective exactly when r dim C* = dim M, and the free rank is then
    (e/d, o/d).  The count is read in M: w in C* acts on M by
    (id (x) w) psi and on M* by the transpose, so (e, o) is the sdim of
    (JM*) perp = psi^-1(M (x) J perp) = psi^-1(M (x) C_0), the socle of M,
    for C_0 the coradical (Montgomery, Hopf Algebras and Their Actions on
    Rings, 1993, 5.1-5.2): the preimage of C_0.  A K of dimension 1 is the
    base field, so K is built, and searched for an idempotent, only when
    d > 1.
    """
    C = M.coalgebra
    if C.dim == 0:
        raise NotConnected("flatness over the zero coalgebra is undefined")
    rad = dual_radical(C)
    d = C.dim - rad.subspace.dim
    if d > 1:
        residue, _, _ = quotient_by_superideal(rad.algebra, rad)
        if _semisimple_idempotent(residue) is not None:
            raise NotConnected("flat_check needs a connected coalgebra; decompose first")
    _, (e, o) = preimage(M, coradical(C, rad))
    if e % d or o % d:
        raise AssertionError(f"M*/rad(C*)M* of sdim {e}|{o} is no vector space "
                             f"over a residue field of degree {d}")
    if (e + o) // d * C.dim != M.dim:
        return FlatVerdict(False)
    return FlatVerdict(True, (e // d, o // d))
