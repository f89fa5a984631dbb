"""Formal superschemes as super-cocommutative coalgebras, plus finite towers.

A finite-level scheme is its coalgebra, and a morphism of such schemes is
one coalgebra map in the same direction.  A tower is a chain of injective
coalgebra maps standing in for a filtered system.  Points are the
irreducible components (dual local factors) of a coalgebra.
"""

from __future__ import annotations

from .supercoalgebra import (
    coradical, dual_radical, irreducible_components, is_coalgebra_morphism, NotSubcoalgebra,
    SearchBoundExceeded, subcoalgebra_on, tensor_coalgebra, validate_supercoalgebra,
)
from .supercomodule import (
    comodule_along, cotensor, cotensor_kernel, flat_check, preimage, regular_comodule,
    subcoalgebra_comodule,
)
from .superlinear import (
    Record, Subspace, _identity_columns, _images, _read_coordinates, _rref_sparse,
    _tensor_apply_sparse, coordinates, linear_form, vec_add, vec_sub,
)


class CotensorNotSubcoalgebra(RuntimeError):
    """The restricted coproduct failed to close on a cotensor carrier."""


class FormalSuperscheme(Record):
    """A tower: levels joined by injective coalgebra maps, standing in for a
    filtered system.  A finite-level scheme is its coalgebra and needs none.
    maps holds the SchemeMorphisms from each level to the next."""
    levels: tuple
    maps: tuple = ()

    @classmethod
    def tower(cls, coalgebras, maps):
        X = cls(tuple(coalgebras), tuple(maps))
        problems = X.validate()
        if problems:
            raise ValueError("invalid tower: " + "; ".join(problems[:3]))
        return X

    def validate(self):
        if len(self.maps) != len(self.levels) - 1:
            return ["tower needs one transition map per adjacent pair"]
        bad = [l for l, C in enumerate(self.levels) if validate_supercoalgebra(C)]
        problems = [f"level {l} is not a valid super-coalgebra" for l in bad]
        for i, m in enumerate(self.maps):
            if i in bad or i + 1 in bad:
                continue
            C, D = self.levels[i], self.levels[i + 1]
            if (m.source.space != C.space or m.target.space != D.space
                    or not is_coalgebra_morphism(m.columns, C, D)):
                problems.append(f"transition {i} is not a coalgebra morphism")
            elif _image(m).dim != C.dim:
                problems.append(f"transition {i} is not injective")
        return problems


class Point(Record):
    index: int
    component: object
    kappa: object           # the subcoalgebra kappa(y), a Subspace of the whole coalgebra


class SchemeMorphism(Record):
    """Sp*(source) -> Sp*(target): two super-coalgebras and one even
    coalgebra map between them, held as its sparse columns: columns[j], a
    vector, is the image of basis vector j of the source."""
    source: object
    target: object
    columns: tuple

    @classmethod
    def finite(cls, cols, C, D):
        m = cls(C, D, tuple(cols))
        problems = m.validate()
        if problems:
            raise ValueError("invalid morphism: " + "; ".join(problems[:3]))
        return m

    def validate(self):
        problems = [f"{end} level 0 is not a valid super-coalgebra"
                    for end, C in (("source", self.source), ("target", self.target))
                    if validate_supercoalgebra(C)]
        # a map out of or into an invalid coalgebra is not checked, as its
        # coproduct map may not even be even
        if not problems and not is_coalgebra_morphism(self.columns, self.source, self.target):
            problems.append("level 0 map is not a coalgebra morphism")
        return problems


def identity_morphism(C):
    return SchemeMorphism(C, C, _identity_columns(C.field, C.dim))


# ---------------------------------------------------------------------------
# points and components

def points(C):
    """Per irreducible component of C, its coradical kappa: where the
    coradical of C meets the component."""
    rad = dual_radical(C)
    corad = coradical(C, rad)
    return [Point(i, comp, corad.intersect(comp.subspace))
            for i, comp in enumerate(irreducible_components(C, rad))]


def point_images(f, xcomps, ycomps):
    """Where f sends each point of its source.

    xcomps and ycomps are the irreducible components of the source and the
    target.  Per source component, the index of the one target component
    that holds its image, and the coordinates of that image in the target
    component's echelon basis.
    """
    out = []
    for xcomp in xcomps:
        img = list(_images(f.source.field, f.columns, xcomp.subspace.basis()))
        hits = [(j, cols) for j, ycomp in enumerate(ycomps)
                if (cols := coordinates(ycomp.subspace, img)) is not None]
        if len(hits) != 1:
            raise AssertionError("component image must meet exactly one component")
        out.append(hits[0])
    return out


def morphism_components(f):
    """The irreducible components of the source and of the target of f."""
    return tuple(irreducible_components(C, dual_radical(C))
                 for C in (f.source, f.target))


# ---------------------------------------------------------------------------
# morphism predicates

def _image(f):
    """The image of f, a Subspace of its target."""
    return Subspace.from_vectors(f.target.space, f.columns)


def is_closed_immersion(f):
    return _image(f).dim == f.source.dim


def is_strictly_surjective(f):
    return _image(f).dim == f.target.dim


def _hits_every_point(images, ycomps):
    return len({j for j, _ in images}) == len(ycomps)


def is_surjective(f, xcomps, ycomps):
    """Every point of the target is the image of a point of the source;
    xcomps and ycomps are the irreducible components of source and target."""
    return _hits_every_point(point_images(f, xcomps, ycomps), ycomps)


def is_open_immersion(f, ycomps):
    """Injective with image a union of ycomps, the irreducible components of
    the target."""
    if not is_closed_immersion(f):
        return False
    img = _image(f)
    covered = Subspace.zero(f.target.space)
    for comp in ycomps:
        if img.contains_subspace(comp.subspace):
            covered = covered.sum(comp.subspace)
    return covered == img


# ---------------------------------------------------------------------------
# fiber products and fibers

def _pushed(f):
    """The source coalgebra A of f as a right B-comodule: psi = (id (x) f) delta."""
    return comodule_along(regular_comodule(f.source), f.columns, f.target)


def _closed_scheme(C, carrier):
    """The subcoalgebra of C on carrier; a carrier the coproduct does not
    close on is a CotensorNotSubcoalgebra."""
    try:
        return subcoalgebra_on(C, carrier)
    except NotSubcoalgebra as exc:
        raise CotensorNotSubcoalgebra(
            "restricted coproduct does not close on the cotensor carrier") from exc


def _fiber_product_carrier(f, g):
    return cotensor(_pushed(f), _pushed(g)), f.source, g.source


def fiber_product(f, g):
    """The cotensor A1 box_B A2, with closure explicitly verified."""
    if f.target is not g.target and f.target != g.target:
        raise ValueError("fiber product needs a shared target")
    carrier, A1, A2 = _fiber_product_carrier(f, g)
    return _closed_scheme(tensor_coalgebra(A1, A2), carrier)


def fiber(f, y):
    """X_y = X x_Y Sp*(kappa(y)) for a point y of the target: the cotensor
    A box_B kappa(y), read in A as the preimage psi^-1(A (x) kappa(y)) of
    the coaction psi of A pushed along f, with closure explicitly verified."""
    carrier, _ = preimage(_pushed(f), y.kappa)
    return _closed_scheme(f.source, carrier)


def _point_fibers(f):
    """Per point y of the target, the fiber psi^-1(A (x) kappa(y)) with its
    sdim, and the degree of the residue field of y."""
    psi = _pushed(f)
    for y in points(f.target):
        carrier, sdim = preimage(psi, y.kappa)
        yield carrier, sdim, y.component.degree


# ---------------------------------------------------------------------------
# flatness of morphisms

class Flatness(Record):
    """Flatness of a morphism at each point of its source, in the order of
    the source's irreducible components, and surjectivity on points."""
    flat_at: tuple
    surjective: bool

    @property
    def flat(self):
        return all(self.flat_at)

    @property
    def faithfully_flat(self):
        return self.flat and self.surjective


def flatness(f, xcomps, ycomps):
    """Flatness of f at each source point and surjectivity on points, from
    xcomps and ycomps, the irreducible components of source and target.

    f is flat at x when O_x is a flat comodule over the target component
    that holds its image.  A flat f is surjective exactly when it is
    strictly surjective; that equivalence is re-checked.
    """
    images = point_images(f, xcomps, ycomps)
    flat_at = []
    for xcomp, (j, cols) in zip(xcomps, images):
        O_x, O_y = xcomp.coalgebra, ycomps[j].coalgebra
        flat_at.append(flat_check(comodule_along(regular_comodule(O_x), cols, O_y)).free)
    surjective = _hits_every_point(images, ycomps)
    if all(flat_at) and surjective != is_strictly_surjective(f):
        raise AssertionError(
            "flat morphism breaks the surjective/strictly-surjective equivalence")
    return Flatness(tuple(flat_at), surjective)


# ---------------------------------------------------------------------------
# descent complex

class DescentReport(Record):
    passed: bool
    comodules: tuple
    degrees: tuple          # per comodule: tuple of (degree, exact: bool)
    failures: tuple         # (comodule name, degree) pairs
    coequalizer_ok: bool


class _TowerLevel:
    def __init__(self, field, parities, psi, carrier=None, boundary=None):
        self.field = field
        self.parities = parities    # of the basis of S_n
        self.psi = psi              # right B-coaction S_n -> S_n (x) B; None over B = k, n > 0
        self.carrier = carrier      # canonical Matrix, rows in S_(n-1) (x) A; None at n = 0, B = k
        self.boundary = boundary    # d_n: S_n -> S_(n-1), as sparse columns; None at level 0

    @property
    def dim(self):
        return len(self.parities)


# The largest ambient space T_(n-1) (x) A a level of a descent tower may be
# cut from.  The counit collapse of Grassmann(3)* reaches 8^6 = 2^18 at
# depth 5, where descent-check over F3 takes about 0.9 s and 85 MB peak RSS
# on a 2-core x86-64 VM; each further level is 8 times larger.
TOWER_AMBIENT_BOUND = 2 ** 18
# The deepest descent complex descent_check builds: a tower whose levels do not
# grow (an identity) never meets TOWER_AMBIENT_BOUND, yet each level costs a
# cotensor kernel and an elimination, so the time grows linearly with the depth.
TOWER_DEPTH_BOUND = 64


def _check_ambient(n, prev_dim, a_dim):
    """Refuse level n of a descent tower when T_(n-1) (x) A is over the bound."""
    ambient = prev_dim * a_dim
    if ambient > TOWER_AMBIENT_BOUND:
        raise SearchBoundExceeded(
            f"descent tower level {n} lies in a space of dimension "
            f"{prev_dim} x {a_dim} = {ambient}, over the bound {TOWER_AMBIENT_BOUND}")


def _iterated_cotensor_tower(M, A, reg, depth):
    """Levels T_n = M box_B A^{box n} with their boundaries, built iteratively.

    reg is A as a right B-comodule.  Face j collapses A-slot j with the
    counit of A (the net effect of applying the structure map there); faces
    j < n - 1 of T_n are those of T_(n-1) tensored with id_A, and face n - 1
    is id (x) eps.  So the alternating face sum is d_n = (d_(n-1) (x) id_A) +
    (-1)^(n-1) id (x) eps, with d_1 = id (x) eps.  Maps are kept as sparse
    columns.  Over B = k the cotensor is the whole tensor T_(n-1) (x) A, its
    basis vector (s, a) at index s dim A + a with parity p_s + q_a, so d_n is
    written down by index arithmetic and a level has no carrier and no
    coaction; as dim T_n = dim M (dim A)^n, a tower with a level over
    TOWER_AMBIENT_BOUND is refused at once.  Otherwise T_n is the cotensor of
    T_(n-1) with A, its basis vector s row s of its carrier, and its coaction
    and (for n > 1) d_(n-1) (x) id_A are read back in that carrier; a level
    whose ambient space exceeds TOWER_AMBIENT_BOUND is not built.  A level
    keeps the parities of its basis, not a labelled space.
    """
    F = M.field
    B_dim = reg.coalgebra.dim
    a_dim, a_parities = A.dim, A.space.parities
    eps = linear_form(a_dim, A.counit)
    levels = [_TowerLevel(F, M.space.parities, M.psi)]
    if B_dim == 1:
        for n in range(1, depth + 1):
            _check_ambient(n, M.dim * a_dim ** (n - 1), a_dim)
        for n in range(1, depth + 1):
            prev = levels[-1]
            sign = F.one if n % 2 else F.neg(F.one)
            # the id (x) eps term of column (s, a), at index s
            ends = [F.mul(sign, e[0][1]) if e else None for e in eps]
            boundary = []
            for s, col in enumerate(prev.boundary or [()] * prev.dim):
                for a, end in enumerate(ends):
                    lifted = tuple((i * a_dim + a, c) for i, c in col)
                    boundary.append(lifted if end is None else vec_add(F, lifted, ((s, end),)))
            parities = tuple((p + q) % 2 for p in prev.parities for q in a_parities)
            levels.append(_TowerLevel(F, parities, None, boundary=boundary))
        return levels
    rho, theta = reg.psi, reg.left_coaction()
    ident_A = _identity_columns(F, a_dim)
    for n in range(1, depth + 1):
        prev = levels[-1]
        _check_ambient(n, prev.dim, a_dim)
        carrier = cotensor_kernel(prev.psi, theta, prev, A.space, B_dim)
        support, (_, pivots) = carrier.rows, carrier.rref()
        # rows of a graded subspace in RREF are homogeneous: each has the
        # parity of its pivot (s, a), which is p_s + q_a
        parities = tuple((prev.parities[c // a_dim] + a_parities[c % a_dim]) % 2
                         for c in pivots)
        ident_P = _identity_columns(F, prev.dim)
        # right coaction id (x) rho on the carrier, read back in carrier (x) B
        psi = _read_coordinates(
            F, support, pivots,
            _tensor_apply_sparse(F, ident_P, rho, a_dim * B_dim, support), B_dim)
        if psi is None:
            raise AssertionError("right coaction escapes the carrier")
        collapse = list(_tensor_apply_sparse(F, ident_P, eps, 1, support))
        if prev.boundary is None:
            boundary = collapse
        else:
            lifted = _read_coordinates(
                F, prev.carrier.rows, prev.carrier.rref()[1],
                _tensor_apply_sparse(F, prev.boundary, ident_A, a_dim, support))
            if lifted is None:
                raise AssertionError("boundary escapes the carrier")
            signed = vec_add if n % 2 else vec_sub
            boundary = [signed(F, u, v) for u, v in zip(lifted, collapse)]
        levels.append(_TowerLevel(F, parities, psi, carrier, boundary))
    return levels


def _complex_exactness(levels, depth):
    """Per-degree exactness of 0 <- T_0 <- T_1 <- ... up to the given depth.

    Once consecutive boundaries compose to zero, im d_(n+1) lies in ker d_n,
    so the complex is exact at T_n exactly when rank d_n + rank d_(n+1) =
    dim T_n, with d_0 = 0.
    """
    F = levels[0].field
    # lower o upper, read as (lower (x) id_k) on T_n (x) k = T_n
    ident_k = [[(0, F.one)]]
    for lower, upper in zip(levels[1:], levels[2:]):
        if any(_tensor_apply_sparse(F, lower.boundary, ident_k, 1, upper.boundary)):
            raise AssertionError("boundary maps do not compose to zero")
    ranks = [0] + [len(_rref_sparse(F, level.boundary)[1]) for level in levels[1:]]
    return [(deg, ranks[deg] + ranks[deg + 1] == levels[deg].dim)
            for deg in range(depth + 1)]


def descent_check(f, depth=3):
    """Exactness of the descent complex for M = B and every simple comodule.

    For each test comodule the complex 0 <- M <- M box A <- M box A box A ...
    is built from alternating sums of counit collapses; the report names any
    failing (comodule, degree) pair and includes the coequalizer check.
    A kappa(y) whose carrier is all of B is O(Y) up to the names of its
    basis, so it takes the degrees of O(Y) and builds no tower of its own.

    The coequalizer A box_B A => A -> B is the complex of O(Y) in degrees 0
    and 1 (Takeuchi, Formal schemes over fields, Comm. Algebra 5, 1977;
    Brzezinski and Wisbauer, Corings and Comodules, 2003, 10).  T_1 =
    B box_B A is A by a -> sum f(a_(1)) (x) a_(2), with inverse eps_B (x)
    id, and under it d_1 = id (x) eps is f.  Likewise T_2 is A box_B A, and
    d_2 = (d_1 (x) id) - id (x) eps is p2 - p1 for the projections p1 =
    id (x) eps and p2 = eps (x) id.  So "f is onto and im(p1 - p2) = ker f"
    is "O(Y) is exact in degrees 0 and 1": O(Y) is built to degree
    max(depth, 1), and reports its degrees 0..depth.
    """
    if depth > TOWER_DEPTH_BOUND:
        raise SearchBoundExceeded(
            f"descent depth {depth} is over the bound {TOWER_DEPTH_BOUND}")
    A, B = f.source, f.target
    reg = _pushed(f)

    def degrees(M, top):
        return tuple(_complex_exactness(_iterated_cotensor_tower(M, A, reg, top + 1), top))

    whole = degrees(regular_comodule(B), max(depth, 1))
    coeq = whole[0][1] and whole[1][1]
    whole = whole[:depth + 1]
    tests = [("O(Y)", whole)]
    for y in points(B):
        if y.kappa.dim == B.dim:
            results = whole
        else:
            results = degrees(subcoalgebra_comodule(B, y.kappa), depth)
        tests.append((f"kappa({y.index})", results))
    failures = tuple((name, deg) for name, results in tests
                     for deg, ok in results if not ok)
    return DescentReport(not failures and coeq, tuple(name for name, _ in tests),
                         tuple(results for _, results in tests), failures, coeq)


# ---------------------------------------------------------------------------
# finiteness of morphisms

def finiteness(f):
    """The largest fiber dimension of f, and its bounded degree: the minimal
    n with f_* O_*(X) embedding into (O_*(Y) + parity shift)^n.  Every fiber
    of a finite-level morphism is finite-dimensional.

    The degree is the largest minimal homogeneous generator count, per
    parity, of the dual module A* over a local factor B_i* of B*: by
    Nakayama's lemma the sdim (e, o) of A*/rad(B_i*)A*, over a residue field
    of degree d, divided by d.  That quotient is dual to the fiber
    psi^-1(A (x) kappa_i), as in flat_check.
    """
    largest = degree = 0
    for _, (e, o), d in _point_fibers(f):
        if e % d or o % d:
            raise AssertionError("residue field does not divide the cogenerator count")
        largest = max(largest, e + o)
        degree = max(degree, e // d, o // d)
    return largest, degree
