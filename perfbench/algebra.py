"""Exact structure constants, object-file text and oracles for the benchmark.

Nothing here imports superscheme: the inputs the benchmark feeds the
program, and the values it checks the program's reports against, are
computed by this module alone.

Structures are sparse.  For an algebra, ``table[(i, j, k)]`` is the
coefficient of b_k in b_i * b_j and ``vec`` is the unit; for a coalgebra,
``table[(i, j, k)]`` is the coefficient of b_j (x) b_k in the coproduct of
b_i and ``vec`` is the counit.  A comodule's ``table[(i, j, k)]`` is the
coefficient of m_j (x) c_k in the coaction of m_i.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction


# ---------------------------------------------------------------------------
# fields

class Rationals:
    order = None
    zero = Fraction(0)
    one = Fraction(1)
    header = "Q"

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / a

    def from_int(self, n):
        return Fraction(n)

    def fmt(self, a):
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"

    def parse(self, s):
        return Fraction(s)


class PrimeField:
    def __init__(self, p):
        self.p = self.order = p
        self.zero, self.one = 0, 1
        self.header = f"Fp {p}"

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        return pow(a, self.p - 2, self.p)

    def from_int(self, n):
        return n % self.p

    def fmt(self, a):
        return str(a)

    def parse(self, s):
        return int(s) % self.p

    def elements(self):
        return list(range(self.p))


class F9:
    """F_3[j]/(j^2 + 1); an element (a, b) is a + b j."""

    order = 9
    zero = (0, 0)
    one = (1, 0)
    header = "ext Fp 3 poly 1 0 1 name j"

    def add(self, a, b):
        return ((a[0] + b[0]) % 3, (a[1] + b[1]) % 3)

    def mul(self, a, b):
        return ((a[0] * b[0] - a[1] * b[1]) % 3, (a[0] * b[1] + a[1] * b[0]) % 3)

    def neg(self, a):
        return (-a[0] % 3, -a[1] % 3)

    def inv(self, a):
        return next(x for x in self.elements() if self.mul(a, x) == self.one)

    def from_int(self, n):
        return (n % 3, 0)

    def fmt(self, a):
        return f"{a[0]},{a[1]}"

    def parse(self, s):
        parts = [int(t) % 3 for t in s.split(",")] + [0]
        return (parts[0], parts[1])

    def elements(self):
        return [(a, b) for a in range(3) for b in range(3)]


QQ = Rationals()


# ---------------------------------------------------------------------------
# structures

@dataclass
class Struct:
    kind: str            # "algebra" or "coalgebra"
    field: object
    labels: list
    parities: list
    table: dict
    vec: list

    @property
    def dim(self):
        return len(self.labels)


@dataclass
class Comodule:
    coalgebra: Struct
    labels: list
    parities: list
    table: dict


def _put(F, table, key, c):
    c = F.add(table.get(key, F.zero), c)
    if c == F.zero:
        table.pop(key, None)
    else:
        table[key] = c


def grassmann(F, q):
    """Exterior algebra on q odd generators, basis by (degree, lex)."""
    subsets = [s for size in range(q + 1) for s in itertools.combinations(range(q), size)]
    index = {s: i for i, s in enumerate(subsets)}
    table = {}
    for i, s in enumerate(subsets):
        for j, t in enumerate(subsets):
            if set(s) & set(t):
                continue
            inversions = sum(1 for a in s for b in t if a > b)
            table[(i, j, index[tuple(sorted(s + t))])] = F.neg(F.one) if inversions % 2 else F.one
    labels = ["1" if not s else "".join(f"t{a + 1}" for a in s) for s in subsets]
    return Struct("algebra", F, labels, [len(s) % 2 for s in subsets], table,
                  [F.one] + [F.zero] * (len(subsets) - 1))


def truncated(F, d):
    """k[x]/(x^(d+1)), purely even."""
    table = {(i, j, i + j): F.one for i in range(d + 1) for j in range(d + 1) if i + j <= d}
    return Struct("algebra", F, ["1"] + [f"x{i}" for i in range(1, d + 1)], [0] * (d + 1),
                  table, [F.one] + [F.zero] * d)


def quadratic(F, c):
    """k[x]/(x^2 - c)."""
    table = {(0, 0, 0): F.one, (0, 1, 1): F.one, (1, 0, 1): F.one, (1, 1, 0): c}
    return Struct("algebra", F, ["1", "x"], [0, 0], table, [F.one, F.zero])


def divided_power(F, d):
    """Coalgebra on g, x1..xd with delta(x_n) = sum x_i (x) x_(n-i)."""
    table = {(n, i, n - i): F.one for n in range(d + 1) for i in range(n + 1)}
    return Struct("coalgebra", F, ["g"] + [f"x{i}" for i in range(1, d + 1)], [0] * (d + 1),
                  table, [F.one] + [F.zero] * d)


def point(F):
    """The one-dimensional coalgebra k = Sp*(k)."""
    return Struct("coalgebra", F, ["g"], [0], {(0, 0, 0): F.one}, [F.one])


def dual(S):
    """Transpose of the structure constants; the unit and counit swap."""
    kind = "coalgebra" if S.kind == "algebra" else "algebra"
    if S.kind == "algebra":
        table = {(k, i, j): c for (i, j, k), c in S.table.items()}
    else:
        table = {(j, k, i): c for (i, j, k), c in S.table.items()}
    return Struct(kind, S.field, [f"{l}*" for l in S.labels], list(S.parities), table, list(S.vec))


def tensor(S, T):
    """Tensor product with the Koszul sign, left factor major."""
    F, nt = S.field, T.dim
    table = {}
    for (a, b, c), x in S.table.items():
        for (d, e, f), y in T.table.items():
            if S.kind == "algebra":      # (a (x) d)(b (x) e) = (-1)^|d||b| ab (x) de
                sign, key = T.parities[d] * S.parities[b], (a * nt + d, b * nt + e, c * nt + f)
            else:                        # delta(a (x) d) has (b (x) e) (x) (c (x) f)
                sign, key = S.parities[c] * T.parities[e], (a * nt + d, b * nt + e, c * nt + f)
            v = F.mul(x, y)
            _put(F, table, key, F.neg(v) if sign % 2 else v)
    labels = [f"{l}.{m}" for l in S.labels for m in T.labels]
    parities = [(p + r) % 2 for p in S.parities for r in T.parities]
    vec = [F.mul(x, y) for x in S.vec for y in T.vec]
    return Struct(S.kind, F, labels, parities, table, vec)


def direct_sum(S, T):
    """Coalgebra direct sum; S's basis first."""
    n = S.dim
    table = dict(S.table)
    table.update({(i + n, j + n, k + n): c for (i, j, k), c in T.table.items()})
    return Struct("coalgebra", S.field, [f"a.{l}" for l in S.labels] + [f"b.{l}" for l in T.labels],
                  S.parities + T.parities, table, S.vec + T.vec)


def change_basis(S, P, Pinv):
    """New basis b'_i = sum_a P[a][i] b_a."""
    F, n = S.field, S.dim
    cols = [[(a, P[a][i]) for a in range(n) if P[a][i] != F.zero] for i in range(n)]
    rows = [[(k, Pinv[k][c]) for k in range(n) if Pinv[k][c] != F.zero] for c in range(n)]
    table = {}
    if S.kind == "algebra":
        # b'_i b'_j = sum P[a][i] P[b][j] mul[a][b][c] b_c,  b_c = sum_k Pinv[k][c] b'_k
        by_ab = {}
        for (a, b, c), x in S.table.items():
            by_ab.setdefault((a, b), []).append((c, x))
        for i in range(n):
            for j in range(n):
                for a, pa in cols[i]:
                    for b, pb in cols[j]:
                        for c, x in by_ab.get((a, b), ()):
                            w = F.mul(F.mul(pa, pb), x)
                            for k, q in rows[c]:
                                _put(F, table, (i, j, k), F.mul(w, q))
        vec = [sum_field(F, (F.mul(Pinv[k][c], S.vec[c]) for c in range(n))) for k in range(n)]
    else:
        by_a = {}
        for (a, j, k), x in S.table.items():
            by_a.setdefault(a, []).append((j, k, x))
        for i in range(n):
            for a, pa in cols[i]:
                for j, k, x in by_a.get(a, ()):
                    w = F.mul(pa, x)
                    for s, q in rows[j]:
                        for t, r in rows[k]:
                            _put(F, table, (i, s, t), F.mul(w, F.mul(q, r)))
        vec = [sum_field(F, (F.mul(P[a][i], S.vec[a]) for a in range(n))) for i in range(n)]
    return Struct(S.kind, F, [f"{l}'" for l in S.labels], list(S.parities), table, vec)


def sum_field(F, terms):
    out = F.zero
    for t in terms:
        out = F.add(out, t)
    return out


def mat_mul(F, A, B):
    return [[sum_field(F, (F.mul(A[i][k], B[k][j]) for k in range(len(B))))
             for j in range(len(B[0]))] for i in range(len(A))]


def identity(F, n):
    return [[F.one if i == j else F.zero for j in range(n)] for i in range(n)]


def dense_basis(F, parities, rng):
    """A parity-preserving P = L U, both unit-triangular with +-1 off the
    diagonal inside each parity block, with its exact inverse U^-1 L^-1."""
    n = len(parities)
    L, U = identity(F, n), identity(F, n)
    for par in (0, 1):
        idx = [i for i in range(n) if parities[i] == par]
        for x, i in enumerate(idx):
            for j in idx[:x]:
                L[i][j] = F.from_int(rng.sign())
                U[j][i] = F.from_int(rng.sign())
    return mat_mul(F, L, U), mat_mul(F, _unit_upper_inverse(F, U), _unit_lower_inverse(F, L))


def _unit_lower_inverse(F, L):
    n = len(L)
    X = identity(F, n)
    for i in range(n):
        for j in range(i):
            X[i][j] = F.neg(sum_field(F, (F.mul(L[i][k], X[k][j]) for k in range(j, i))))
    return X


def _unit_upper_inverse(F, U):
    T = [list(r) for r in zip(*U)]
    return [list(r) for r in zip(*_unit_lower_inverse(F, T))]


def rescale(S, lam):
    """Diagonal change of basis b'_i = lam_i b_i (sparsity is kept)."""
    F, n = S.field, S.dim
    P = [[lam[i] if i == j else F.zero for j in range(n)] for i in range(n)]
    Pinv = [[F.inv(lam[i]) if i == j else F.zero for j in range(n)] for i in range(n)]
    return change_basis(S, P, Pinv), Pinv


def transform_vec(F, Pinv, x):
    """Coordinates of a vector in the new basis of ``change_basis``."""
    return [sum_field(F, (F.mul(Pinv[k][c], x[c]) for c in range(len(x)))) for k in range(len(x))]


# comodules over a coalgebra C

def regular_comodule(C):
    return Comodule(C, [f"m{i}" for i in range(C.dim)], list(C.parities), dict(C.table))


def free_comodule(C, w_parities):
    """W (x) C with coaction id_W (x) delta."""
    n = C.dim
    table = {(w * n + i, w * n + j, k): c
             for w in range(len(w_parities)) for (i, j, k), c in C.table.items()}
    return Comodule(C, [f"w{w}.{l}" for w in range(len(w_parities)) for l in C.labels],
                    [(p + q) % 2 for p in w_parities for q in C.parities], table)


def trivial_comodule(C, g, parities):
    """psi(m) = m (x) g for a group-like g."""
    table = {(i, i, k): c for i in range(len(parities))
             for k, c in enumerate(g) if c != C.field.zero}
    return Comodule(C, [f"s{i}" for i in range(len(parities))], list(parities), table)


def comodule_sum(M, N):
    n = len(M.labels)
    table = dict(M.table)
    table.update({(i + n, j + n, k): c for (i, j, k), c in N.table.items()})
    return Comodule(M.coalgebra, M.labels + N.labels, M.parities + N.parities, table)


# morphisms, as target.dim x source.dim matrices

def counit_collapse(C):
    return [list(C.vec)]


def identity_map(C):
    return identity(C.field, C.dim)


def inclusion_map(F, n_source, n_target):
    return [[F.one if i == j else F.zero for j in range(n_source)] for i in range(n_target)]


def point_map(F, g):
    return [[c] for c in g]


# ---------------------------------------------------------------------------
# object-file text

def _basis_lines(labels, parities):
    return [f"  basis {l} {'odd' if p else 'even'}" for l, p in zip(labels, parities)]


def _table_lines(F, word, table):
    return [f"  {word} {i} {j} {k} {F.fmt(c)}" for (i, j, k), c in sorted(table.items())]


def document(F, objects):
    """objects: ("struct", name, Struct) | ("comodule", name, Comodule, over)
    | ("morphism", name, matrix, source, target)."""
    lines = ["superscheme 1", f"field {F.header}"]
    for entry in objects:
        kind, name, value = entry[:3]
        if kind == "struct":
            lines.append(f"object {value.kind} {name}")
            lines += _basis_lines(value.labels, value.parities)
            word, vword = ("mul", "unit") if value.kind == "algebra" else ("delta", "counit")
            lines += [f"  {vword} {i} {F.fmt(c)}" for i, c in enumerate(value.vec) if c != F.zero]
            lines += _table_lines(F, word, value.table)
        elif kind == "comodule":
            lines.append(f"object comodule {name} over {entry[3]}")
            lines += _basis_lines(value.labels, value.parities)
            lines += _table_lines(F, "coaction", value.table)
        else:
            lines.append(f"object morphism {name} from {entry[3]} to {entry[4]}")
            lines += [f"  map {i} {j} {F.fmt(c)}" for i, row in enumerate(value)
                      for j, c in enumerate(row) if c != F.zero]
        lines.append("end")
    return "\n".join(lines) + "\n"


def parse_object(F, text):
    """Read back the one algebra or coalgebra of an object-file text."""
    labels, parities, table, vec, kind = [], [], {}, {}, None
    for raw in text.splitlines():
        tok = raw.split("#", 1)[0].split()
        if not tok:
            continue
        if tok[0] == "object":
            kind = tok[1]
        elif tok[0] == "basis":
            labels.append(tok[1])
            parities.append(1 if tok[2] == "odd" else 0)
        elif tok[0] in ("mul", "delta"):
            table[(int(tok[1]), int(tok[2]), int(tok[3]))] = F.parse(tok[4])
        elif tok[0] in ("unit", "counit"):
            vec[int(tok[1])] = F.parse(tok[2])
    n = len(labels)
    table = {k: c for k, c in table.items() if c != F.zero}
    return Struct(kind, F, labels, parities, table, [vec.get(i, F.zero) for i in range(n)])


# ---------------------------------------------------------------------------
# oracles

def multiply(A, x, y):
    F, out = A.field, [A.field.zero] * A.dim
    xs = {i: c for i, c in enumerate(x) if c != F.zero}
    ys = {j: c for j, c in enumerate(y) if c != F.zero}
    for (i, j, k), c in A.table.items():
        if i in xs and j in ys:
            out[k] = F.add(out[k], F.mul(F.mul(xs[i], ys[j]), c))
    return out


def algebra_problems(A):
    """Axioms of a supercommutative superalgebra, checked on basis elements."""
    F, n = A.field, A.dim
    e = [[F.one if i == j else F.zero for j in range(n)] for i in range(n)]
    out = []
    for (i, j, k), c in A.table.items():
        if (A.parities[i] + A.parities[j] + A.parities[k]) % 2:
            out.append(f"parity {i} {j} {k}")
    for i in range(n):
        if multiply(A, A.vec, e[i]) != e[i] or multiply(A, e[i], A.vec) != e[i]:
            out.append(f"unit {i}")
        for j in range(n):
            ij, ji = multiply(A, e[i], e[j]), multiply(A, e[j], e[i])
            if A.parities[i] * A.parities[j]:
                ji = [F.neg(c) for c in ji]
            if ij != ji:
                out.append(f"supercommutativity {i} {j}")
            for k in range(n):
                if multiply(A, ij, e[k]) != multiply(A, e[i], multiply(A, e[j], e[k])):
                    out.append(f"associativity {i} {j} {k}")
        if A.parities[i] and any(c != F.zero for c in multiply(A, e[i], e[i])):
            out.append(f"odd square {i}")
    return out


def is_grouplike_over(C, R, u):
    """u[a][m] holds the coefficient of r_a (x) c_m.  Group-like in the
    R-coalgebra R (x) C: the counit gives 1 and
    (id (x) delta)(u) = u_12 u_13 = sum (-1)^|r_b||c_m| r_a r_b (x) c_m (x) c_n."""
    F = C.field
    for a in range(R.dim):
        if sum_field(F, (F.mul(u[a][m], C.vec[m]) for m in range(C.dim))) != R.vec[a]:
            return False
    lhs, rhs = {}, {}
    for (m, j, k), d in C.table.items():
        for a in range(R.dim):
            if u[a][m] != F.zero:
                _put(F, lhs, (a, j, k), F.mul(u[a][m], d))
    for (a, b, c), r in R.table.items():
        for m in range(C.dim):
            if u[a][m] == F.zero:
                continue
            for n in range(C.dim):
                if u[b][n] == F.zero:
                    continue
                v = F.mul(F.mul(u[a][m], u[b][n]), r)
                _put(F, rhs, (c, m, n), F.neg(v) if R.parities[b] * C.parities[m] else v)
    return lhs == rhs


def hom_count_closed_form(p, even_gens, odd_gens, R):
    """|Hom(C*, R)| for C* generated by even_gens nilpotent even generators of
    order at least 2 and odd_gens odd ones, when R's even maximal ideal m
    squares to zero: p ** (even_gens * dim m + odd_gens * dim R_odd)."""
    dim_m = R.parities.count(0) - 1
    return p ** (even_gens * dim_m + odd_gens * R.parities.count(1))


def binomial_prefix(q):
    """Coradical filtration dims of Grassmann(q)*: sum_{i<=k} C(q, i)."""
    from math import comb
    return [sum(comb(q, i) for i in range(k + 1)) for k in range(q + 1)]
