"""Batch command-line surface with deterministic reports.

Every command reads object files, runs one operation and prints a report
with a stable key order; the same inputs always produce byte-identical
output.  Exit codes: 0 success, 1 axiom or validation failure,
2 unsupported computation, 3 parse or I/O error.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys

from . import __version__
from .fields import ExtensionField, FieldError
from .objfile import ParseError, parse_path, serialize_document
from .superalgebra import (
    FactorizationIncomplete, InvalidStructure, SuperAlgebra, ksdim_finite,
    local_decomposition, radical, validate_superalgebra,
)
from .supercoalgebra import (
    SearchBoundExceeded, base_change_coalgebra, coradical, coradical_filtration,
    direct_sum_coalgebra, dual_radical, dualize_algebra, dualize_coalgebra, grouplikes,
    grouplikes_over, irreducible_components, tensor_coalgebra, validate_supercoalgebra, wedge,
)
from .supercomodule import NotConnected, cotensor, flat_check, validate_comodule
from .formal_scheme import (
    CotensorNotSubcoalgebra, descent_check, fiber, fiber_product, finiteness, flatness,
    is_closed_immersion, is_open_immersion, is_strictly_surjective, is_surjective,
    morphism_components, points,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNSUPPORTED = 2
EXIT_IO = 3

# The kinds of seeded corpus entry, in report order.  Held here so that the
# parser is built without importing the corpus module.
CORPUS_KINDS = ("subspace-triple", "comodule", "morphism", "presentation",
                "presentation-morphism")


class Report:
    def __init__(self, command, docs=()):
        self.lines = [f"superscheme-report {command}", f"tool-version {__version__}"]
        for path, doc in docs:
            self.lines.append(f"input {path} sha256 {doc.digest}")

    def add(self, key, *values):
        txt = " ".join(str(v) for v in values)
        self.lines.append(f"{key} {txt}".rstrip())

    def emit(self, status="ok"):
        self.lines.append(f"status {status}")
        return "\n".join(self.lines) + "\n"


def _sdim(pair):
    return f"{pair[0]}|{pair[1]}"


def _load(path):
    return path, parse_path(path)


def _problems(kind, value):
    """Violated axiom instances of one built object (empty means valid)."""
    if kind == "algebra":
        return validate_superalgebra(value)
    if kind == "coalgebra":
        return validate_supercoalgebra(value)
    if kind == "comodule":
        return validate_comodule(value)
    if kind in ("morphism", "tower"):
        return value.validate()
    return []


_NOUNS = {"algebra": "superalgebra", "coalgebra": "super-coalgebra",
          "comodule": "super-comodule"}


def _load_valid(path):
    """_load, raising InvalidStructure on the first object that fails its
    axioms, so that no computation starts on an invalid input."""
    path, doc = _load(path)
    for name, (kind, value) in doc.built.items():
        problems = _problems(kind, value)
        if problems:
            raise InvalidStructure(f"invalid {_NOUNS.get(kind, kind)} {name}: "
                                   + "; ".join(problems[:3]))
    return path, doc


def _basis_line(space, vec):
    F = space.field
    parts = [f"{F.format(c)}*{space.labels[i]}" for i, c in vec]
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# command handlers; each returns (report_text, exit_code)

def cmd_validate(args):
    path, doc = _load(args.file)
    rep = Report("validate", [(path, doc)])
    failures = 0
    for name, (kind, value) in doc.built.items():
        problems = _problems(kind, value)
        rep.add(f"object {name}", "pass" if not problems else "FAIL")
        for p in problems:
            rep.add(f"  violation {name}", p)
            failures += 1
    return rep.emit("ok" if failures == 0 else "fail"), \
        EXIT_OK if failures == 0 else EXIT_FAIL


def cmd_dual(args):
    path, doc = _load_valid(args.file)
    rep = Report("dual", [(path, doc)])
    name, value = doc.first("algebra", "coalgebra")
    if isinstance(value, SuperAlgebra):
        out = dualize_algebra(value)
        rep.add("dualized algebra", name)
    else:
        out = dualize_coalgebra(value)
        rep.add("dualized coalgebra", name)
    body = serialize_document(doc.field, [(f"{name}_dual", out)])
    return rep.emit() + body, EXIT_OK


def cmd_radical(args):
    path, doc = _load_valid(args.file)
    rep = Report("radical", [(path, doc)])
    name, A = doc.first("algebra")
    rad = radical(A)
    rep.add("algebra", name)
    rep.add("radical-dim", rad.subspace.dim)
    rep.add("radical-sdim", _sdim(rad.subspace.sdim))
    for row in rad.subspace.basis():
        rep.add("radical-basis", _basis_line(A.space, row))
    return rep.emit(), EXIT_OK


def cmd_coradical(args):
    path, doc = _load_valid(args.file)
    rep = Report("coradical", [(path, doc)])
    name, C = doc.first("coalgebra")
    cor = coradical(C, dual_radical(C))
    rep.add("coalgebra", name)
    rep.add("coradical-dim", cor.dim)
    for row in cor.basis():
        rep.add("coradical-basis", _basis_line(C.space, row))
    return rep.emit(), EXIT_OK


def cmd_filtration(args):
    path, doc = _load_valid(args.file)
    rep = Report("filtration", [(path, doc)])
    name, C = doc.first("coalgebra")
    chain = coradical_filtration(C, dual_radical(C))
    rep.add("coalgebra", name)
    rep.add("stages", len(chain))
    for n, stage in enumerate(chain):
        rep.add(f"stage {n} dim", stage.dim)
    return rep.emit(), EXIT_OK


def cmd_wedge(args):
    path, doc = _load_valid(args.file)
    rep = Report("wedge", [(path, doc)])
    name, C = doc.first("coalgebra")
    X = doc.get(args.x, "subspace")
    Y = doc.get(args.y, "subspace")
    if X.space != C.space or Y.space != C.space:
        raise ParseError(f"wedge needs two subspaces of coalgebra {name}")
    W = wedge(C, X, Y)
    rep.add("wedge-dim", W.dim)
    for row in W.basis():
        rep.add("wedge-basis", _basis_line(C.space, row))
    return rep.emit(), EXIT_OK


def cmd_components(args):
    path, doc = _load_valid(args.file)
    rep = Report("components", [(path, doc)])
    name, C = doc.first("coalgebra")
    comps = irreducible_components(C, dual_radical(C))
    rep.add("coalgebra", name)
    rep.add("component-count", len(comps))
    for i, comp in enumerate(comps):
        res = "base" if comp.degree == 1 else f"extension-degree-{comp.degree}"
        rep.add(f"component {i}", f"dim {comp.subspace.dim} residue {res}")
    return rep.emit(), EXIT_OK


def cmd_grouplikes(args):
    path, doc = _load_valid(args.file)
    docs = [(path, doc)]
    over = None
    if args.over:
        opath, odoc = _load_valid(args.over)
        docs.append((opath, odoc))
        _, over = odoc.first("algebra")
    rep = Report("grouplikes", docs)
    name, C = doc.first("coalgebra")
    if over is not None and over.field != C.field:
        raise ParseError(f"coefficient algebra over {over.field.describe()}, coalgebra over "
                         f"{C.field.describe()}")
    rep.add("coalgebra", name)
    if over is None:
        rad = dual_radical(C)
        gls = grouplikes(C, irreducible_components(C, rad), coradical(C, rad))
        rep.add("grouplike-count", len(gls))
        for g in gls:
            rep.add("grouplike", _basis_line(C.space, g))
    else:
        gls = grouplikes_over(C, over)
        rep.add("grouplike-count", len(gls))
        F, n = C.field, C.dim
        text = {c: F.format(c) for c in F.elements()}
        zero = text[F.zero]
        for u in gls:
            # every entry of the coefficient matrix, row-major, zeros included
            dense = [zero] * (len(u) * n)
            for a, row in enumerate(u):
                for m, c in row:
                    dense[a * n + m] = text[c]
            rep.add("grouplike", " ".join(dense))
    return rep.emit(), EXIT_OK


def cmd_cotensor(args):
    path, doc = _load_valid(args.file)
    rep = Report("cotensor", [(path, doc)])
    mods = doc.all_of("comodule")
    if len(mods) < 2:
        raise ParseError("cotensor needs two comodules in the file")
    (nm, M), (nn, N) = mods[0], mods[1]
    W = cotensor(M, N)
    rep.add("left", nm)
    rep.add("right", nn)
    rep.add("cotensor-dim", W.dim)
    rep.add("cotensor-sdim", _sdim(W.sdim))
    return rep.emit(), EXIT_OK


def _point_count(C):
    """The number of points of Sp*(C): the irreducible components of C."""
    return len(irreducible_components(C, dual_radical(C)))


def cmd_product(args):
    path, doc = _load_valid(args.file)
    rep = Report("product", [(path, doc)])
    coalgs = doc.all_of("coalgebra")
    if len(coalgs) < 2:
        raise ParseError("product needs two coalgebras in the file")
    (na, A), (nb, B) = coalgs[0], coalgs[1]
    P = tensor_coalgebra(A, B)
    rep.add("factors", na, nb)
    rep.add("product-dim", P.dim)
    rep.add("product-points", _point_count(P))
    body = serialize_document(doc.field, [(f"{na}_x_{nb}", P)])
    return rep.emit() + body, EXIT_OK


def cmd_coproduct(args):
    path, doc = _load_valid(args.file)
    rep = Report("coproduct", [(path, doc)])
    coalgs = doc.all_of("coalgebra")
    if not coalgs:
        raise ParseError("coproduct needs coalgebras in the file")
    S = direct_sum_coalgebra([C for _, C in coalgs])
    rep.add("summands", *(n for n, _ in coalgs))
    rep.add("coproduct-dim", S.dim)
    rep.add("coproduct-points", _point_count(S))
    return rep.emit(), EXIT_OK


def cmd_fiber_product(args):
    path, doc = _load_valid(args.file)
    rep = Report("fiber-product", [(path, doc)])
    f = doc.get(args.f, "morphism")
    g = doc.get(args.g, "morphism")
    if f.target != g.target:
        raise ParseError(f"morphisms {args.f} and {args.g} have different targets")
    W = fiber_product(f, g)
    rep.add("carrier-dim", W.dim)
    rep.add("carrier-sdim", _sdim(W.space.sdim))
    rep.add("points", _point_count(W))
    return rep.emit(), EXIT_OK


def cmd_fiber(args):
    path, doc = _load_valid(args.file)
    rep = Report("fiber", [(path, doc)])
    f = doc.get(args.morphism, "morphism")
    pts = points(f.target)
    if args.point >= len(pts):
        raise ParseError(f"target has only {len(pts)} points")
    fib = fiber(f, pts[args.point])
    rep.add("morphism", args.morphism)
    rep.add("point", args.point)
    rep.add("fiber-dim", fib.dim)
    rep.add("fiber-sdim", _sdim(fib.space.sdim))
    return rep.emit(), EXIT_OK


def cmd_base_change(args):
    path, doc = _load_valid(args.file)
    rep = Report("base-change", [(path, doc)])
    name, C = doc.first("coalgebra")
    try:
        minpoly = [doc.field.parse(t) for t in args.minpoly.split()]
        ext = ExtensionField(doc.field, minpoly, args.name)
    except FieldError as exc:
        raise ParseError(str(exc))
    before = _point_count(C)
    after = _point_count(base_change_coalgebra(C, ext))
    rep.add("coalgebra", name)
    rep.add("extension", ext.describe())
    rep.add("points-before", before)
    rep.add("points-after", after)
    return rep.emit(), EXIT_OK


def cmd_immersion_check(args):
    path, doc = _load_valid(args.file)
    rep = Report("immersion-check", [(path, doc)])
    name, f = doc.first("morphism")
    xcomps, ycomps = morphism_components(f)
    rep.add("morphism", name)
    rep.add("closed-immersion", is_closed_immersion(f))
    rep.add("open-immersion", is_open_immersion(f, ycomps))
    rep.add("surjective", is_surjective(f, xcomps, ycomps))
    rep.add("strictly-surjective", is_strictly_surjective(f))
    return rep.emit(), EXIT_OK


def cmd_flat_check(args):
    path, doc = _load_valid(args.file)
    rep = Report("flat-check", [(path, doc)])
    mods = doc.all_of("comodule")
    if mods:
        name, M = mods[0]
        verdict = flat_check(M)
        rep.add("comodule", name)
        rep.add("flat", verdict.free)
        if verdict.free:
            rep.add("rank", _sdim(verdict.rank))
        return rep.emit(), EXIT_OK
    name, f = doc.first("morphism")
    verdict = flatness(f, *morphism_components(f))
    rep.add("morphism", name)
    for i, flat in enumerate(verdict.flat_at):
        rep.add(f"flat-at {i}", flat)
    rep.add("flat", verdict.flat)
    rep.add("faithfully-flat", verdict.faithfully_flat)
    return rep.emit(), EXIT_OK


def cmd_descent_check(args):
    path, doc = _load_valid(args.file)
    rep = Report("descent-check", [(path, doc)])
    name, f = doc.first("morphism")
    result = descent_check(f, depth=args.depth)
    rep.add("morphism", name)
    rep.add("depth", args.depth)
    for cname, degs in zip(result.comodules, result.degrees):
        for deg, ok in degs:
            rep.add(f"exact {cname} degree {deg}", "yes" if ok else "NO")
    rep.add("coequalizer", "ok" if result.coequalizer_ok else "FAIL")
    for cname, deg in result.failures:
        rep.add("failure", f"comodule {cname} degree {deg}")
    rep.add("descent", "pass" if result.passed else "fail")
    return rep.emit("ok" if result.passed else "fail"), \
        EXIT_OK if result.passed else EXIT_FAIL


def cmd_finite_check(args):
    path, doc = _load_valid(args.file)
    rep = Report("finite-check", [(path, doc)])
    name, f = doc.first("morphism")
    max_dim, degree = finiteness(f)
    rep.add("morphism", name)
    rep.add("finite", True)
    rep.add("max-fiber-dim", max_dim)
    rep.add("bounded-degree", degree)
    return rep.emit(), EXIT_OK


# ksdim and corpus are imported by the commands that use them, not with the
# CLI: no flatness, descent or structure command reaches them.

def cmd_ksdim(args):
    from .ksdim import ksdim, oracle_annihilator_dim
    path, doc = _load_valid(args.file)
    rep = Report("ksdim", [(path, doc)])
    name, P = doc.first("presentation")
    val = ksdim(P)
    rep.add("presentation", name)
    rep.add("generators", *(P.generator_labels() or ["(zero ideal)"]))
    rep.add("ksdim", _sdim(val))
    rep.add("note", "even part computed on the even contraction;"
            " theta-even nilpotents cannot change it")
    if args.oracle:
        rep.add("oracle-even", oracle_annihilator_dim(P))
    return rep.emit(), EXIT_OK


def cmd_check_thm513(args):
    from .ksdim import theorem_fiber_dimension_check
    path, doc = _load_valid(args.file)
    rep = Report("check-thm513", [(path, doc)])
    name, f = doc.first("presmorphism")
    result = theorem_fiber_dimension_check(f, assert_flat=args.assert_flat)
    rep.add("morphism", name)
    rep.add("sdim-source", _sdim(result.sdim_source))
    rep.add("sdim-target", _sdim(result.sdim_target))
    rep.add("sdim-fiber", _sdim(result.sdim_fiber))
    rep.add("even-inequality", result.even_inequality)
    rep.add("flat-mode", result.flat_mode or "none")
    if result.flat_mode:
        rep.add("even-equality", result.even_equality)
    rep.add("target-regular", result.target_regular)
    if result.target_regular:
        rep.add("odd-inequality", result.odd_inequality)
    rep.add("odd-equality-observed", result.odd_equality_observed)
    for note in result.notes:
        rep.add("note", note)
    return rep.emit("ok" if result.passed else "fail"), \
        EXIT_OK if result.passed else EXIT_FAIL


def cmd_check_thm515(args):
    from .ksdim import theorem_product_dimension_check
    path, doc = _load_valid(args.file)
    rep = Report("check-thm515", [(path, doc)])
    pres = doc.all_of("presentation")
    if len(pres) < 2:
        raise ParseError("check-thm515 needs two presentations")
    (na, P), (nb, Q) = pres[0], pres[1]
    result = theorem_product_dimension_check(P, Q)
    rep.add("left", na, _sdim(result.sdim_left))
    rep.add("right", nb, _sdim(result.sdim_right))
    rep.add("product", _sdim(result.sdim_product))
    rep.add("even-additive", result.even_additive)
    rep.add("odd-superadditive", result.odd_superadditive)
    return rep.emit("ok" if result.passed else "fail"), \
        EXIT_OK if result.passed else EXIT_FAIL


def cmd_corpus(args):
    from .corpus import seeded_random, validate_entry
    rep = Report("corpus")
    kinds = [args.kind] if args.kind else CORPUS_KINDS
    failures = 0
    for kind in kinds:
        entry = seeded_random(kind, args.seed)
        problems = validate_entry(entry)
        rep.add(f"entry {kind} seed {args.seed}",
                "pass" if not problems else "FAIL")
        rep.add(f"  provenance {kind}", entry.provenance)
        for k in sorted(entry.expected):
            rep.add(f"  expected {kind} {k}", entry.expected[k])
        for p in problems:
            rep.add(f"  mismatch {kind}", p)
            failures += 1
    return rep.emit("ok" if failures == 0 else "fail"), \
        EXIT_OK if failures == 0 else EXIT_FAIL


def cmd_report_all(args):
    path, doc = _load(args.file)
    rep = Report("report-all", [(path, doc)])
    failures = 0
    invalid = set()
    for name, (kind, value) in doc.built.items():
        problems = _problems(kind, value)
        if kind in ("algebra", "coalgebra", "comodule", "morphism", "tower"):
            rep.add(f"{kind} {name} valid", not problems)
            failures += len(problems)
        over = ([value.coalgebra] if kind == "comodule" else
                (value.source, value.target) if kind == "morphism" else ())
        if problems or any(id(c) in invalid for c in over):
            invalid.add(id(value))      # nothing is computed on or over it
            continue
        if kind == "algebra":
            rad = radical(value)
            rep.add(f"algebra {name} sdim", _sdim(value.space.sdim))
            rep.add(f"algebra {name} radical-dim", rad.subspace.dim)
            rep.add(f"algebra {name} ksdim-finite", _sdim(ksdim_finite(value)))
            try:
                rep.add(f"algebra {name} local-factors",
                        len(local_decomposition(value, rad)))
            except FactorizationIncomplete:
                rep.add(f"algebra {name} local-factors",
                        "unsupported-factorization")
        elif kind == "coalgebra":
            rad = dual_radical(value)
            corad = coradical(value, rad)
            comps = irreducible_components(value, rad)
            rep.add(f"coalgebra {name} coradical-dim", corad.dim)
            rep.add(f"coalgebra {name} filtration-dims",
                    *(s.dim for s in coradical_filtration(value, rad)))
            rep.add(f"coalgebra {name} components", len(comps))
            rep.add(f"coalgebra {name} grouplikes", len(grouplikes(value, comps, corad)))
        elif kind == "comodule":
            try:
                rep.add(f"comodule {name} flat", flat_check(value).free)
            except NotConnected:
                rep.add(f"comodule {name} flat", "needs-connected-base")
        elif kind == "morphism":
            verdict = flatness(value, *morphism_components(value))
            rep.add(f"morphism {name} closed-immersion",
                    is_closed_immersion(value))
            rep.add(f"morphism {name} flat", verdict.flat)
            rep.add(f"morphism {name} faithfully-flat", verdict.faithfully_flat)
        elif kind == "presentation":
            from .ksdim import ksdim
            rep.add(f"presentation {name} ksdim", _sdim(ksdim(value)))
        elif kind == "presmorphism":
            from .ksdim import theorem_fiber_dimension_check
            result = theorem_fiber_dimension_check(value)
            rep.add(f"presmorphism {name} even-inequality",
                    result.even_inequality)
    return rep.emit("ok" if failures == 0 else "fail"), \
        EXIT_OK if failures == 0 else EXIT_FAIL


# ---------------------------------------------------------------------------

def _count(text):
    """A non-negative int argument: a depth or an index, which Python would
    otherwise read from the end when negative."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def _arg(*names, **options):
    return names, options


_FILE = _arg("file")

# Each command's handler and arguments, in help order.  A parser binds the
# handler that the module holds under the handler's name when the parser is
# built, and _parse when it reads argv, so that a handler wrapped after
# import (by a tracer, say) runs.
COMMANDS = {
    "validate": (cmd_validate, _FILE),
    "dual": (cmd_dual, _FILE),
    "radical": (cmd_radical, _FILE),
    "coradical": (cmd_coradical, _FILE),
    "filtration": (cmd_filtration, _FILE),
    "wedge": (cmd_wedge, _FILE, _arg("--x", required=True), _arg("--y", required=True)),
    "components": (cmd_components, _FILE),
    "grouplikes": (cmd_grouplikes, _FILE, _arg("--over", default=None)),
    "cotensor": (cmd_cotensor, _FILE),
    "product": (cmd_product, _FILE),
    "coproduct": (cmd_coproduct, _FILE),
    "fiber-product": (cmd_fiber_product, _FILE, _arg("--f", required=True),
                      _arg("--g", required=True)),
    "fiber": (cmd_fiber, _FILE, _arg("--morphism", required=True),
              _arg("--point", type=_count, required=True)),
    "base-change": (cmd_base_change, _FILE,
                    _arg("--minpoly", required=True,
                         help="monic minimal polynomial, low to high, e.g. '1 0 1'"),
                    _arg("--name", default="a")),
    "immersion-check": (cmd_immersion_check, _FILE),
    "flat-check": (cmd_flat_check, _FILE),
    "descent-check": (cmd_descent_check, _FILE, _arg("--depth", type=_count, default=3)),
    "finite-check": (cmd_finite_check, _FILE),
    "ksdim": (cmd_ksdim, _FILE,
              _arg("--oracle", action="store_true",
                   help="recompute the even dimension by exhaustive monomial membership")),
    "check-thm513": (cmd_check_thm513, _FILE,
                     _arg("--assert-flat", action="store_true",
                          help="caller asserts flatness; echoed in the report")),
    "check-thm515": (cmd_check_thm515, _FILE),
    "corpus": (cmd_corpus, _arg("--seed", type=int, default=0),
               _arg("--kind", default=None, choices=CORPUS_KINDS)),
    "report-all": (cmd_report_all, _FILE),
}


def _declare(parser, name):
    handler, *arguments = COMMANDS[name]
    for names, options in arguments:
        parser.add_argument(*names, **options)
    parser.set_defaults(handler=globals()[handler.__name__])
    return parser


@functools.cache
def build_parser():
    """Every command as a subparser: the parser of an empty argv, a help
    request and an unknown command.  Built once, when first needed."""
    parser = argparse.ArgumentParser(
        prog="superscheme",
        description="exact checks for superalgebra duality, formal "
                    "superschemes and Krull superdimension")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        _declare(sub.add_parser(name), name)
    return parser


def _parse(argv):
    """argv read straight off COMMANDS when it names a command and every
    token stands as it is: each positional in turn, each option by its
    exact name and once, no value dash-led or refused by its type or
    choices, nothing required left out.  Any other argv goes to the full
    parser, which prints its help, usage and errors and exits as it always
    has.  The handler is looked up by name now, as a parser does when built."""
    if argv and argv[0] in COMMANDS:
        handler, *arguments = COMMANDS[argv[0]]
        options = {names[0]: opts for names, opts in arguments}
        positionals = iter([name for name in options if not name.startswith("-")])
        given, tokens = {}, iter(argv[1:])
        for token in tokens:
            positional = not token.startswith("-")
            name = next(positionals, None) if positional else token
            opts = options.get(name)
            if opts is None or name in given:
                break
            if opts.get("action") == "store_true":
                given[name] = True
                continue
            value = token if positional else next(tokens, "-")
            if value.startswith("-"):
                break
            try:
                value = opts.get("type", str)(value)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                break
            if value not in opts.get("choices", (value,)):
                break
            given[name] = value
        else:
            if next(positionals, None) is None and all(
                    name in given for name, opts in options.items() if opts.get("required")):
                return argparse.Namespace(command=argv[0], handler=globals()[handler.__name__], **{
                    name.lstrip("-").replace("-", "_"): given.get(name, opts.get(
                        "default", False if opts.get("action") == "store_true" else None))
                    for name, opts in options.items()})
    return build_parser().parse_args(argv)


def run(argv):
    try:
        args = _parse(argv)
    except SystemExit as exc:
        if exc.code == 0:
            return "", EXIT_OK
        return "superscheme-report error\nargument-error\nstatus error\n", EXIT_IO
    try:
        text, code = args.handler(args)
    except ParseError as exc:
        return f"superscheme-report error\nparse-error {exc}\nstatus error\n", EXIT_IO
    except (FactorizationIncomplete, SearchBoundExceeded, NotConnected, FieldError) as exc:
        return (f"superscheme-report error\nunsupported {exc}\nstatus error\n",
                EXIT_UNSUPPORTED)
    except CotensorNotSubcoalgebra as exc:
        return (f"superscheme-report error\nclosure-failure {exc}\nstatus error\n",
                EXIT_FAIL)
    except InvalidStructure as exc:
        return f"superscheme-report error\naxiom-failure {exc}\nstatus fail\n", EXIT_FAIL
    except (MemoryError, RecursionError) as exc:     # the last line of defence
        return (f"superscheme-report error\nunsupported resource {type(exc).__name__}\n"
                "status error\n", EXIT_UNSUPPORTED)
    return text, code


def main(argv=None):
    gc.disable()    # commands make no reference cycles, which a test guards
    text, code = run(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
