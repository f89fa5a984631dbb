"""The benchmark's workloads: seeded inputs, CLI jobs and their expected reports.

A seed changes scalars (diagonal rescalings, dense basis changes, the
constant c, the parity split of free comodules) but never a size, so every
seed has the same job list and the same cost profile.  Every expected value
comes from ``algebra``'s closed forms and oracles, never from superscheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from algebra import (
    F9, QQ, PrimeField, binomial_prefix, change_basis, comodule_sum, counit_collapse,
    dense_basis, direct_sum, divided_power, document, dual, free_comodule, grassmann,
    hom_count_closed_form, identity_map, inclusion_map, is_grouplike_over, parse_object,
    point, point_map, quadratic, regular_comodule, rescale, tensor, transform_vec,
    trivial_comodule, truncated,
)

_MASK = (1 << 64) - 1


class Rng:
    """splitmix64, draws mapped to ranges by remainder."""

    def __init__(self, seed):
        self.state = seed & _MASK

    def next64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, n):
        return self.next64() % n

    def sign(self):
        return 1 if self.randint(2) else -1

    def unit(self, F):
        """A nonzero scalar: +-1 over Q, any unit of a finite field."""
        if F.order is None:
            return F.from_int(self.sign())
        return [x for x in F.elements() if x != F.zero][self.randint(F.order - 1)]


@dataclass
class Job:
    name: str
    argv: list                  # "{0}", "{1}" stand for the job's files
    files: list                 # (file name, text)
    check: object               # (report text, exit code) -> list of problems
    largest: bool = False


@dataclass
class Workload:
    name: str
    nominal_pass_s: float       # wall time of one pass when the benchmark was written
    jobs: list = dc_field(default_factory=list)


# ---------------------------------------------------------------------------
# report checks

def _report_problems(text, code, lines, want_code=0, status="ok"):
    got = text.splitlines()
    out = []
    if code != want_code:
        out.append(f"exit code {code}, expected {want_code}")
    if f"status {status}" not in got:
        out.append(f"missing 'status {status}'")
    out += [f"missing line {l!r}" for l in lines if l not in got]
    return out


def expect(lines, want_code=0, status="ok"):
    return lambda text, code: _report_problems(text, code, lines, want_code, status)


def _sdim(parities):
    return f"{parities.count(0)}|{parities.count(1)}"


def algebra_lines(name, sdim, radical, odd_gens, factors):
    return [f"algebra {name} valid True", f"algebra {name} sdim {sdim}",
            f"algebra {name} radical-dim {radical}", f"algebra {name} ksdim-finite 0|{odd_gens}",
            f"algebra {name} local-factors {factors}"]


def coalgebra_lines(name, filtration, components=1, grouplikes=1):
    return [f"coalgebra {name} valid True", f"coalgebra {name} coradical-dim {filtration[0]}",
            f"coalgebra {name} filtration-dims " + " ".join(map(str, filtration)),
            f"coalgebra {name} components {components}",
            f"coalgebra {name} grouplikes {grouplikes}"]


def check_dual(S, name):
    """The dual's body must be the transpose of the input, read back here."""
    want = dual(S)

    def check(text, code):
        out = _report_problems(text, code, [f"dualized {S.kind} {name}"])
        body = text.split("status ok\n", 1)[-1]
        got = parse_object(S.field, body)
        if (got.kind, got.labels, got.parities, got.table, got.vec) != \
                (want.kind, want.labels, want.parities, want.table, want.vec):
            out.append("dual body is not the transpose of the input")
        return out
    return check


def check_grouplikes(C, R, count):
    """The count must equal |Hom(C*, R)| and every listed element must be a
    distinct even group-like of R (x) C; together these pin the whole set."""
    F = C.field

    def check(text, code):
        out = _report_problems(text, code, [f"grouplike-count {count}"])
        rows = [l.split()[1:] for l in text.splitlines() if l.startswith("grouplike ")]
        if len(rows) != count or len(set(map(tuple, rows))) != len(rows):
            out.append(f"{len(rows)} grouplike lines, {len(set(map(tuple, rows)))} distinct")
        for row in rows:
            vals = [F.parse(t) for t in row]
            u = [vals[a * C.dim:(a + 1) * C.dim] for a in range(R.dim)]
            odd = any(u[a][m] != F.zero for a in range(R.dim) for m in range(C.dim)
                      if (R.parities[a] + C.parities[m]) % 2)
            if len(vals) != R.dim * C.dim or odd or not is_grouplike_over(C, R, u):
                out.append(f"not an even group-like: {' '.join(row)}")
                break
        return out
    return check


def check_descent(depth, points, failing_kappas, coequalizer_ok):
    """descent-check: exactness per comodule and degree.  O(Y) and the residue
    comodules kappa(i) of the target's points are tested.  A faithfully flat
    morphism is exact everywhere; a control fails at degree 0 of O(Y) and of
    ``failing_kappas`` kappa's (their indices follow the program's point
    order, so only their number is fixed here) and nowhere else."""
    passed = coequalizer_ok and failing_kappas == 0

    def check(text, code):
        lines = [f"depth {depth}", f"coequalizer {'ok' if coequalizer_ok else 'FAIL'}",
                 f"descent {'pass' if passed else 'fail'}"]
        out = _report_problems(text, code, lines, 0 if passed else 1,
                               "ok" if passed else "fail")
        got = set(text.splitlines())
        inexact = set()
        for name in ["O(Y)"] + [f"kappa({i})" for i in range(points)]:
            for deg in range(depth + 1):
                if f"exact {name} degree {deg} yes" not in got:
                    inexact.add((name, deg))
                    if f"exact {name} degree {deg} NO" not in got:
                        out.append(f"no exactness line for {name} degree {deg}")
        listed = {(l.split()[2], int(l.split()[4]))
                  for l in got if l.startswith("failure comodule ")}
        if listed != inexact:
            out.append("failure lines disagree with the exactness lines")
        kappas = [n for n, deg in inexact if n != "O(Y)" and deg == 0]
        want = 0 if passed else 1 + failing_kappas
        if len(inexact) != want or len(kappas) != failing_kappas or \
                (not passed and ("O(Y)", 0) not in inexact):
            out.append(f"inexact at {sorted(inexact)}, expected O(Y) degree 0 and "
                       f"{failing_kappas} kappa at degree 0" if not passed else
                       f"inexact at {sorted(inexact)}, expected exact everywhere")
        return out
    return check


# ---------------------------------------------------------------------------
# structure-q

def _quadratic_constants(rng):
    """Two squares s^2 and two non-squares s^2 + t (0 < t <= 2s), s < 1000."""
    out = []
    for square in (True, False, True, False):
        s = 100 + rng.randint(900)
        out.append((Fraction(s * s if square else s * s + 1 + rng.randint(2 * s)), square))
    return out


def structure_q(seed):
    rng = Rng(seed)
    F = QQ
    jobs = []

    def signs(S):
        return rescale(S, [rng.unit(F) for _ in range(S.dim)])[0]

    def add(name, cmd, S, check, largest=False):
        text = document(F, [("struct", name.replace("-", "_"), S)])
        jobs.append(Job(name, [cmd, "{0}"], [(f"{name}.ss", text)], check, largest))

    def report(name, S, lines, largest=False):
        add(name, "report-all", S, expect(lines), largest)

    G = {q: grassmann(F, q) for q in (1, 2, 3)}

    def grassmann_dual(nm, q, largest=False):
        report(nm, signs(dual(G[q])), coalgebra_lines(nm, binomial_prefix(q)), largest)

    for q in (1, 2, 3):
        h = 2 ** (q - 1)
        nm = f"grassmann{q}"
        report(nm, signs(G[q]), algebra_lines(nm, f"{h}|{h}", 2 ** q - 1, q, 1))
        grassmann_dual(f"grassmann{q}_dual", q, largest=q == 3)
    for d in (3, 4, 5, 6):
        nm = f"divided{d}"
        report(nm, signs(divided_power(F, d)), coalgebra_lines(nm, list(range(1, d + 2))))
    for d in (2, 4, 6):
        nm = f"truncated{d}"
        report(nm, signs(truncated(F, d)), algebra_lines(nm, f"{d + 1}|0", d, 0, 1))
    nm = "tensor_t1_g1"
    report(nm, signs(tensor(truncated(F, 1), G[1])), algebra_lines(nm, "2|2", 3, 1, 1))
    nm = "tensor_g1_g2"
    report(nm, signs(tensor(G[1], G[2])), algebra_lines(nm, "4|4", 7, 3, 1))
    nm = "tensor_d1_g1dual"
    report(nm, signs(tensor(divided_power(F, 1), dual(G[1]))), coalgebra_lines(nm, [1, 3, 4]))
    quads = _quadratic_constants(rng)
    for i, (c, square) in enumerate(quads[:2]):
        nm = f"quadratic{i}"
        report(nm, quadratic(F, c), algebra_lines(nm, "2|0", 0, 0, 2 if square else 1))
    G3dense = change_basis(G[3], *dense_basis(F, G[3].parities, rng))
    report("grassmann3_dense", G3dense, algebra_lines("grassmann3_dense", "4|4", 7, 3, 1))
    D4dense = change_basis(divided_power(F, 4), *dense_basis(F, [0] * 5, rng))
    report("divided4_dense", D4dense, coalgebra_lines("divided4_dense", list(range(1, 6))))
    # two more inputs of the largest job's size, spread through the pass, so
    # that largest_job_s is a median of three samples per pass
    grassmann_dual("grassmann3_dual_copy1", 3, largest=True)

    for nm, S in (("dual-grassmann3", signs(G[3])), ("dual-divided7", signs(divided_power(F, 7))),
                  ("dual-grassmann2-dense",
                   change_basis(dual(G[2]), *dense_basis(F, G[2].parities, rng)))):
        add(nm, "dual", S, check_dual(S, nm.replace("-", "_")))
    for nm, S, dims in (("filtration-grassmann3-dual", signs(dual(G[3])), binomial_prefix(3)),
                        ("filtration-divided8", signs(divided_power(F, 8)), list(range(1, 10))),
                        ("filtration-divided4-dense",
                         change_basis(divided_power(F, 4), *dense_basis(F, [0] * 5, rng)),
                         list(range(1, 6)))):
        add(nm, "filtration", S,
            expect(["stages %d" % len(dims)] + [f"stage {k} dim {v}" for k, v in enumerate(dims)]))
    add("components-grassmann3-dual", "components", signs(dual(G[3])),
        expect(["component-count 1", "component 0 dim 8 residue base"]))
    for i, (c, square) in enumerate(quads[2:], start=2):
        lines = (["component-count 2", "component 0 dim 1 residue base",
                  "component 1 dim 1 residue base"] if square else
                 ["component-count 1", "component 0 dim 2 residue extension-degree-2"])
        add(f"components-quadratic{i}-dual", "components", dual(quadratic(F, c)), expect(lines))
    for nm, S, sd in (("radical-grassmann3", signs(G[3]), "3|4"),
                      ("radical-truncated6", signs(truncated(F, 6)), "6|0"),
                      ("radical-grassmann2-dense",
                       change_basis(G[2], *dense_basis(F, G[2].parities, rng)), "1|2")):
        rdim = sum(map(int, sd.split("|")))
        add(nm, "radical", S, expect([f"radical-dim {rdim}", f"radical-sdim {sd}"]))
    grassmann_dual("grassmann3_dual_copy2", 3, largest=True)
    return Workload("structure-q", 10.0, jobs)


# ---------------------------------------------------------------------------
# descent-fp

def descent_fp(seed):
    rng = Rng(seed)
    jobs = []

    def host(F, kind, n):
        S = dual(grassmann(F, n)) if kind == "G" else divided_power(F, n)
        S, Pinv = rescale(S, [rng.unit(F) for _ in range(S.dim)])
        g = transform_vec(F, Pinv, [F.one] + [F.zero] * (S.dim - 1))
        return S, g

    def w_parities():
        return [rng.randint(2) for _ in range(2)]

    def add(name, F, objects, argv, check, largest=False):
        jobs.append(Job(name, argv[:1] + ["{0}"] + argv[1:],
                        [(f"{name}.ss", document(F, objects))], check, largest))

    def flat_module(name, F, C, M, lines):
        add(name, F, [("struct", "C", C), ("comodule", "M", M, "C")], ["flat-check"],
            expect(["comodule M"] + lines))

    def morphism_objects(F, kind, C, g):
        """(objects, points of the target, flat, faithfully flat) for C -> D."""
        if kind == "collapse":
            return ([("struct", "A", C), ("struct", "B", point(F)),
                     ("morphism", "f", counit_collapse(C), "A", "B")], 1, True, True)
        if kind == "identity":
            return ([("struct", "A", C), ("morphism", "f", identity_map(C), "A", "A")],
                    1, True, True)
        if kind == "point":
            return ([("struct", "A", point(F)), ("struct", "B", C),
                     ("morphism", "f", point_map(F, g), "A", "B")], 1, False, False)
        B = direct_sum(C, point(F))
        return ([("struct", "A", C), ("struct", "B", B),
                 ("morphism", "f", inclusion_map(F, C.dim, B.dim), "A", "B")], 2, True, False)

    def flat_morphism(name, F, kind, C, g):
        objs, _, flat, ff = morphism_objects(F, kind, C, g)
        add(name, F, objs, ["flat-check"],
            expect(["morphism f", f"flat-at 0 {flat}", f"flat {flat}", f"faithfully-flat {ff}"]))

    def descent(name, F, kind, C, g, depth, largest=False):
        objs, target_points, _, ff = morphism_objects(F, kind, C, g)
        failing = 1 if kind == "inclusion" else 0
        add(name, F, objs, ["descent-check", "--depth", str(depth)],
            check_descent(depth, target_points, failing, ff), largest)

    for fname, F in (("f3", PrimeField(3)), ("f5", PrimeField(5)), ("f9", F9())):
        big = fname != "f9"     # extension arithmetic is ~10x slower; keep its jobs small
        G1, g1 = host(F, "G", 1)
        G2, g2 = host(F, "G", 2)
        G3, g3 = host(F, "G", 3)
        D2, d2 = host(F, "D", 2)
        D3, d3 = host(F, "D", 3)
        D4, d4 = host(F, "D", 4)
        # flat-check on comodules
        R = G3 if big else G2
        flat_module(f"flat-regular-{fname}", F, R, regular_comodule(R), ["flat True", "rank 1|0"])
        for C, tag in ((G2, "g2"), (D3, "d3")):
            w = w_parities()
            flat_module(f"flat-free-{tag}-{fname}", F, C, free_comodule(C, w),
                        ["flat True", f"rank {w.count(0)}|{w.count(1)}"])
        triv = trivial_comodule(D2, d2, [rng.randint(2)])
        flat_module(f"flat-trivial-sum-{fname}", F, D2,
                    comodule_sum(free_comodule(D2, w_parities()), triv), ["flat False"])
        # flat-check on morphisms
        hosts = ((G2, g2), (D3, d3), (G1, g1), (D2, d2)) if big else \
            ((G1, g1), (D2, d2), (G1, g1), (G1, g1))
        for kind, (C, g) in zip(("collapse", "identity", "point", "inclusion"), hosts):
            flat_morphism(f"flat-{kind}-{fname}", F, kind, C, g)
        # descent-check
        plan = [("collapse", G3, g3, 2 if fname == "f3" else 1, "g3"),
                ("collapse", G2, g2, 3 if big else 2, "g2"),
                ("collapse", G1, g1, 3, "g1"),
                ("collapse", D4 if big else D3, None, 2, "d4" if big else "d3"),
                ("identity", G2, g2, 2, "g2"),
                ("identity", D3, d3, 3, "d3"),
                ("point", G2, g2, 2, "g2"),
                ("point", D4, d4, 1, "d4"),
                ("inclusion", G1, g1, 2, "g1")]
        for kind, C, g, depth, tag in plan:
            if C is G3 and not big:
                continue
            descent(f"descent-{kind}-{tag}-depth{depth}-{fname}", F, kind, C, g, depth,
                    largest=(fname == "f3" and C is G3))
        # two more inputs of the largest job's size, spread through the pass,
        # so that largest_job_s is a median of three samples per pass
        if fname != "f3":
            F3 = PrimeField(3)
            descent(f"descent-collapse-g3-depth2-f3-copy-{fname}", F3, "collapse",
                    host(F3, "G", 3)[0], None, 2, largest=True)
        # cotensor: (W (x) C) box_C N = W (x) N, and two trivial comodules give T1 (x) T2
        C, tag = (G2, "g2") if big else (G1, "g1")
        w = w_parities()
        M, N = free_comodule(C, w), regular_comodule(C)
        sd = (w.count(0) * C.parities.count(0) + w.count(1) * C.parities.count(1),
              w.count(0) * C.parities.count(1) + w.count(1) * C.parities.count(0))
        add(f"cotensor-free-{tag}-{fname}", F,
            [("struct", "C", C), ("comodule", "M", M, "C"), ("comodule", "N", N, "C")],
            ["cotensor"], expect([f"cotensor-dim {len(M.labels)}",
                                  f"cotensor-sdim {sd[0]}|{sd[1]}"]))
        p1, p2 = [rng.randint(2) for _ in range(2)], [rng.randint(2) for _ in range(3)]
        T1, T2 = trivial_comodule(D3, d3, p1), trivial_comodule(D3, d3, p2)
        even = p1.count(0) * p2.count(0) + p1.count(1) * p2.count(1)
        add(f"cotensor-trivial-d3-{fname}", F,
            [("struct", "C", D3), ("comodule", "M", T1, "C"), ("comodule", "N", T2, "C")],
            ["cotensor"], expect(["cotensor-dim 6", f"cotensor-sdim {even}|{6 - even}"]))
        # fiber products: over the point (a tensor product) and along a point of G2*
        A1, A2 = G1, (D2 if big else G1)
        add(f"fiber-product-collapse-{fname}", F,
            [("struct", "A1", A1), ("struct", "A2", A2), ("struct", "B", point(F)),
             ("morphism", "f", counit_collapse(A1), "A1", "B"),
             ("morphism", "g", counit_collapse(A2), "A2", "B")],
            ["fiber-product", "--f", "f", "--g", "g"],
            expect([f"carrier-dim {A1.dim * A2.dim}",
                    f"carrier-sdim {_sdim(tensor(A1, A2).parities)}", "points 1"]))
        add(f"fiber-product-point-{fname}", F,
            [("struct", "P", point(F)), ("struct", "B", G2),
             ("morphism", "f", identity_map(G2), "B", "B"),
             ("morphism", "g", point_map(F, g2), "P", "B")],
            ["fiber-product", "--f", "f", "--g", "g"],
            expect(["carrier-dim 1", "carrier-sdim 1|0", "points 1"]))
    return Workload("descent-fp", 10.0, jobs)


# ---------------------------------------------------------------------------
# grouplike-scan-fp

def grouplike_scan_fp(seed):
    rng = Rng(seed)
    jobs = []
    for p in (3, 5):
        F = PrimeField(p)
        hosts = [("g1dual", dual(grassmann(F, 1)), 0, 1), ("g2dual", dual(grassmann(F, 2)), 0, 2),
                 ("d1xg1dual", tensor(divided_power(F, 1), dual(grassmann(F, 1))), 1, 1)]
        hosts += [(f"d{d}", divided_power(F, d), 1, 0) for d in range(1, p)]
        rings = [("g1", grassmann(F, 1)), ("g2", grassmann(F, 2)), ("x2", truncated(F, 1))]
        for cname, C0, even_gens, odd_gens in hosts:
            for rname, R0 in rings:
                even_slots = sum(1 for a in R0.parities for m in C0.parities if a == m)
                if p ** even_slots > 3 ** 12:       # the program's scan bound
                    continue
                if p ** even_slots == 5 ** 8 and (cname, rname) != ("d3", "g2"):
                    continue                        # one 5^8 scan per pass; see README
                C = rescale(C0, [rng.unit(F) for _ in range(C0.dim)])[0]
                R = rescale(R0, [rng.unit(F) for _ in range(R0.dim)])[0]
                name = f"grouplikes-{cname}-over-{rname}-f{p}"
                count = hom_count_closed_form(p, even_gens, odd_gens, R0)
                jobs.append(Job(name, ["grouplikes", "{0}", "--over", "{1}"],
                                [(f"{name}-C.ss", document(F, [("struct", "C", C)])),
                                 (f"{name}-R.ss", document(F, [("struct", "R", R)]))],
                                check_grouplikes(C, R, count),
                                largest=(p, cname, rname) == (5, "d3", "g2")))
    return Workload("grouplike-scan-fp", 7.5, jobs)


WORKLOADS = {"structure-q": structure_q, "descent-fp": descent_fp,
             "grouplike-scan-fp": grouplike_scan_fp}
