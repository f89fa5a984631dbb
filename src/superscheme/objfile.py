"""Line-oriented text format for exact algebra objects.

A file declares one field, then any number of named objects, each built
when its end line is read.  Every line of an expected ... end block
between objects is skipped: no command reads them.  Scalars are exact
strings: "a/b" or "a" over Q, integer residues over F_p, comma-separated
coordinates over an extension field.
Parsing then serializing is the identity on canonical files.
"""

from __future__ import annotations

from collections import defaultdict

try:                        # the interpreter's own sha256: hashlib loads OpenSSL
    from _sha2 import sha256            # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256      # CPython 3.10, 3.11
    except ImportError:
        from hashlib import sha256

from .fields import ExtensionField, FieldError, PrimeField, QQ
from .superlinear import Subspace, SuperVectorSpace, _parity_defects, _transpose, vector
from .superalgebra import SuperAlgebra, make_superalgebra
from .supercoalgebra import SuperCoalgebra, make_supercoalgebra
from .supercomodule import SuperComodule, make_supercomodule
from .formal_scheme import FormalSuperscheme, SchemeMorphism

FORMAT_HEADER = "superscheme"
FORMAT_VERSION = 1


class ParseError(ValueError):
    def __init__(self, message, lineno=None):
        prefix = f"line {lineno}: " if lineno is not None else ""
        super().__init__(prefix + message)
        self.lineno = lineno


class ParsedObject:
    """An object between its object and end lines: its lines are kept,
    grouped by keyword, only until the end line, where it is built."""

    def __init__(self, kind, name):
        self.kind = kind
        self.name = name
        self.over = None        # set by the qualifiers of the object line
        self.source = None
        self.target = None
        self.lines = defaultdict(list)      # keyword -> [(lineno, tokens)], in file order

    def take(self, keyword):
        """The lines that start with keyword, dropped from the object."""
        return self.lines.pop(keyword, ())


class ObjectFile:
    def __init__(self, digest):
        self.field = None
        self.digest = digest
        self.built = {}         # name -> (kind, value), filled in file order
        self.variables = {}     # presentation name -> (even names, odd names)

    def first(self, *kinds):
        for name, (kind, value) in self.built.items():
            if kind in kinds:
                return name, value
        raise ParseError(f"no object of kind {'/'.join(kinds)} in file")

    def all_of(self, *kinds):
        return [(name, value) for name, (kind, value) in self.built.items()
                if kind in kinds]

    def get(self, name, *kinds):
        """The object called name; with kinds given, it must have one of them."""
        if name not in self.built:
            raise ParseError(f"no object named {name!r} in file")
        kind, value = self.built[name]
        if kinds and kind not in kinds:
            raise ParseError(f"object {name!r} has kind {kind}, expected {'/'.join(kinds)}")
        return value


def _parse_field(tokens, lineno):
    if tokens == ["Q"]:
        return QQ
    if tokens[:1] == ["Fp"] and len(tokens) == 2:
        try:
            return PrimeField(int(tokens[1]))
        except (ValueError, FieldError) as exc:
            raise ParseError(str(exc), lineno)
    if tokens[:1] == ["ext"]:
        # field ext <base...> poly <c0> ... <cn> name <label>
        try:
            split_poly = tokens.index("poly")
            split_name = tokens.index("name")
        except ValueError:
            raise ParseError("extension needs 'poly' and 'name' sections", lineno)
        if split_name != len(tokens) - 2:
            raise ParseError("extension needs one label after 'name'", lineno)
        base = _parse_field(tokens[1:split_poly], lineno)
        try:
            coeffs = [base.parse(t) for t in tokens[split_poly + 1:split_name]]
            return ExtensionField(base, coeffs, tokens[-1])
        except FieldError as exc:
            raise ParseError(str(exc), lineno)
    raise ParseError(f"unknown field descriptor {' '.join(tokens)!r}", lineno)


def _field_tokens(F):
    if F == QQ:
        return ["Q"]
    if isinstance(F, PrimeField):
        return ["Fp", str(F.p)]
    if isinstance(F, ExtensionField):
        return (["ext"] + _field_tokens(F.base) + ["poly"]
                + [F.base.format(c) for c in F.minpoly] + ["name", F.gen_name])
    raise ValueError(f"cannot serialize field {F!r}")


def parse_text(text):
    """Parse a document.  Each object is built and cross-checked when its
    end line is read, so it may name only the objects before it, and its
    lines are dropped then."""
    doc = ObjectFile(sha256(text.encode()).hexdigest())
    current = None
    in_expected = False
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if not header_seen:
            if tokens[0] != FORMAT_HEADER or len(tokens) != 2:
                raise ParseError("file must start with 'superscheme <version>'", lineno)
            try:
                version = int(tokens[1])
            except ValueError:
                version = None
            if version != FORMAT_VERSION:
                raise ParseError(f"unsupported format version {tokens[1]}", lineno)
            header_seen = True
            continue
        if in_expected:
            # no command reads an expected block: every line up to its end is skipped
            in_expected = tokens[0] != "end"
            continue
        if tokens[0] == "field":
            if doc.field is not None:
                raise ParseError("duplicate field declaration", lineno)
            doc.field = _parse_field(tokens[1:], lineno)
            continue
        if tokens[0] == "object":
            if current is not None:
                raise ParseError("nested object", lineno)
            if len(tokens) < 3:
                raise ParseError("object needs a kind and a name", lineno)
            if doc.field is None:
                raise ParseError("the field line must precede the first object", lineno)
            if tokens[1] not in _BUILDERS:
                raise ParseError(f"unknown object kind {tokens[1]!r}", lineno)
            if tokens[2] in doc.built:
                raise ParseError(f"duplicate object name {tokens[2]!r}", lineno)
            current = ParsedObject(tokens[1], tokens[2])
            rest = tokens[3:]
            while rest:
                if rest[0] == "over" and len(rest) >= 2:
                    current.over = rest[1]
                    rest = rest[2:]
                elif rest[0] == "from" and len(rest) >= 2:
                    current.source = rest[1]
                    rest = rest[2:]
                elif rest[0] == "to" and len(rest) >= 2:
                    current.target = rest[1]
                    rest = rest[2:]
                else:
                    raise ParseError(f"bad object qualifier {rest[0]!r}", lineno)
            continue
        if tokens[0] == "expected":
            if current is not None:
                raise ParseError("expected block inside object", lineno)
            in_expected = True
            continue
        if tokens[0] == "end":
            if current is not None:
                doc.built[current.name] = (current.kind, _BUILDERS[current.kind](doc, current))
                current = None
            else:
                raise ParseError("stray end", lineno)
            continue
        if current is not None:
            current.lines[tokens[0]].append((lineno, tokens))
        else:
            raise ParseError(f"unexpected content {line!r}", lineno)
    if current is not None:
        raise ParseError("unterminated object")
    if in_expected:
        raise ParseError("unterminated expected block")
    if doc.field is None:
        raise ParseError("missing field declaration")
    return doc


def parse_path(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_text(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")


def _collect_basis(doc, po):
    parities = {}           # label -> parity, in the order of the lines
    for lineno, tokens in po.take("basis"):
        if len(tokens) != 3 or tokens[2] not in ("even", "odd"):
            raise ParseError("basis line needs 'basis <label> even|odd'", lineno)
        if tokens[1] in parities:
            raise ParseError(f"{po.kind} {po.name}: duplicate basis label "
                             f"{tokens[1]!r}", lineno)
        parities[tokens[1]] = 0 if tokens[2] == "even" else 1
    return SuperVectorSpace(doc.field, tuple(parities), tuple(parities.values()))


def _index(token, n):
    """A basis index in range(n); a negative one would wrap around in Python."""
    i = int(token)
    if not 0 <= i < n:
        raise IndexError(f"index {i} out of range for dimension {n}")
    return i


def _triple_tensor(doc, po, keyword, n, w, by_last=False):
    """The "keyword i j k c" lines of an n x n x w table as index -> entry
    dicts, one per column: entry (i, j, k) is row j * w + k of column i, or
    with by_last, row i * n + j of column k (an algebra's cop, w = n).  The
    last line for an entry counts; make_* drops the zeros."""
    F = doc.field
    cols = [{} for _ in range(w if by_last else n)]
    for lineno, tokens in po.take(keyword):
        if len(tokens) != 5:
            raise ParseError(f"{keyword} line needs 3 indices and a scalar", lineno)
        try:
            i, j, k = _index(tokens[1], n), _index(tokens[2], n), _index(tokens[3], w)
            c, r = (k, i * n + j) if by_last else (i, j * w + k)
            cols[c][r] = F.parse(tokens[4])
        except (ValueError, IndexError) as exc:
            raise ParseError(f"bad {keyword} entry: {exc}", lineno)
        except FieldError as exc:
            raise ParseError(str(exc), lineno)
    return cols


def _vector(doc, po, keyword, n):
    """The "keyword i c" lines as an index -> entry dict; the last line for
    an index counts, and make_* drops the zeros."""
    F = doc.field
    vec = {}
    for lineno, tokens in po.take(keyword):
        if len(tokens) != 3:
            raise ParseError(f"{keyword} line needs an index and a scalar", lineno)
        try:
            vec[_index(tokens[1], n)] = F.parse(tokens[2])
        except (ValueError, IndexError, FieldError) as exc:
            raise ParseError(f"bad {keyword} entry: {exc}", lineno)
    return vec


def _build_algebra(doc, po):
    space = _collect_basis(doc, po)
    n = space.dim
    cop = _triple_tensor(doc, po, "mul", n, n, by_last=True)
    unit = _vector(doc, po, "unit", n)
    return make_superalgebra(space, cop, unit)


def _build_coalgebra(doc, po):
    space = _collect_basis(doc, po)
    n = space.dim
    delta = _triple_tensor(doc, po, "delta", n, n)
    counit = _vector(doc, po, "counit", n)
    return make_supercoalgebra(space, delta, counit)


def _build_comodule(doc, po):
    if po.over is None:
        raise ParseError(f"comodule {po.name} needs 'over <coalgebra>'")
    C = doc.get(po.over, "coalgebra")
    space = _collect_basis(doc, po)
    psi = _triple_tensor(doc, po, "coaction", space.dim, C.dim)
    return make_supercomodule(space, C, psi)


def _build_morphism(doc, po):
    if po.source is None or po.target is None:
        raise ParseError(f"morphism {po.name} needs 'from <C> to <D>'")
    C = doc.get(po.source, "coalgebra")
    D = doc.get(po.target, "coalgebra")
    F = doc.field
    cols = [{} for _ in range(C.dim)]
    for lineno, tokens in po.take("map"):
        if len(tokens) != 4:
            raise ParseError("map line needs 'map <row> <col> <scalar>'", lineno)
        try:
            c = F.parse(tokens[3])
            i = _index(tokens[1], D.dim)
            cols[_index(tokens[2], C.dim)][i] = c
        except (ValueError, IndexError, FieldError) as exc:
            raise ParseError(f"bad map entry: {exc}", lineno)
    cols = tuple(vector(F, col) for col in cols)
    bad = min(((i, j) for j, i in _parity_defects(cols, C.space.parities, D.space.parities)),
              default=None)
    if bad:
        raise ParseError(f"morphism {po.name}: entry ({bad[0]},{bad[1]}) "
                         "violates declared parity 0")
    return SchemeMorphism(C, D, cols)


def _build_subspace(doc, po):
    if po.over is None:
        raise ParseError(f"subspace {po.name} needs 'over <object>'")
    host = doc.get(po.over, "algebra", "coalgebra", "comodule")
    space = host.space
    F = doc.field
    vecs = []
    for lineno, tokens in po.take("row"):
        coords = tokens[1:]
        if len(coords) != space.dim:
            raise ParseError(f"row needs {space.dim} scalars", lineno)
        try:
            vecs.append(vector(F, enumerate(F.parse(c) for c in coords)))
        except FieldError as exc:
            raise ParseError(str(exc), lineno)
    return Subspace.from_vectors(space, vecs)


def _parse_monomial_tokens(tokens, evars, ovars, lineno):
    exps = [0] * len(evars)
    odds = set()
    for tok in tokens:
        if "^" in tok:
            name, power = tok.split("^", 1)
            try:
                power = int(power)
            except ValueError:
                raise ParseError(f"bad exponent in {tok!r}", lineno)
        else:
            name, power = tok, 1
        if name in evars:
            exps[evars.index(name)] += power
        elif name in ovars:
            if power != 1:
                raise ParseError(f"odd variable {name} cannot carry a power", lineno)
            if ovars.index(name) in odds:
                raise ParseError(f"odd variable {name} repeated", lineno)
            odds.add(ovars.index(name))
        else:
            raise ParseError(f"unknown variable {name!r}", lineno)
    return tuple(exps), frozenset(odds)


def _variables(po, keyword, seen):
    """The variable names of the keyword lines; a name is refused if seen
    holds it, and added to seen."""
    names = []
    for lineno, tokens in po.take(keyword):
        for name in tokens[1:]:
            if name in seen:
                raise ParseError(f"presentation {po.name}: repeated variable {name!r}", lineno)
            seen.add(name)
            names.append(name)
    return tuple(names)


def _build_presentation(doc, po):
    seen = set()
    evars = _variables(po, "evar", seen)
    ovars = _variables(po, "ovar", seen)
    gens = [_parse_monomial_tokens(tokens[1:], evars, ovars, lineno)
            for lineno, tokens in po.take("gen")]
    from .ksdim import presentation
    try:
        P = presentation(len(evars), len(ovars), gens, doc.field)
    except ValueError as exc:
        raise ParseError(str(exc))
    doc.variables[po.name] = evars, ovars
    return P


def _named(po, keyword):
    """(lineno, name, rest) for each "keyword name rest..." line."""
    for lineno, tokens in po.take(keyword):
        if len(tokens) < 2:
            raise ParseError(f"{keyword} line needs a name after the keyword", lineno)
        yield lineno, tokens[1], tokens[2:]


def _build_presmorphism(doc, po):
    if po.source is None or po.target is None:
        raise ParseError(f"presmorphism {po.name} needs 'from <P> to <Q>'")
    src = doc.get(po.source, "presentation")
    dst = doc.get(po.target, "presentation")
    evars, ovars = doc.variables[po.source]
    images = [None] * dst.p, [None] * dst.q     # of the even and the odd target variables
    for keyword, parity, names, found in zip(("eimage", "oimage"), ("even", "odd"),
                                             doc.variables[po.target], images):
        for lineno, name, monomial in _named(po, keyword):
            if name not in names:
                raise ParseError(f"unknown target {parity} variable {name!r}", lineno)
            found[names.index(name)] = _parse_monomial_tokens(monomial, evars, ovars, lineno)
    if None in images[0] + images[1]:
        raise ParseError(f"presmorphism {po.name} is missing variable images")
    from .ksdim import presentation_morphism
    try:
        return presentation_morphism(src, dst, *images)
    except ValueError as exc:
        raise ParseError(str(exc))


def _build_tower(doc, po):
    levels = [doc.get(name, "coalgebra") for _, name, _ in _named(po, "level")]
    tmaps = [doc.get(name, "morphism") for _, name, _ in _named(po, "tmap")]
    if len(levels) == 1 and not tmaps:
        return FormalSuperscheme((levels[0],))
    try:
        return FormalSuperscheme.tower(levels, tmaps)
    except ValueError as exc:
        raise ParseError(str(exc))


_BUILDERS = {
    "algebra": _build_algebra,
    "coalgebra": _build_coalgebra,
    "comodule": _build_comodule,
    "morphism": _build_morphism,
    "subspace": _build_subspace,
    "presentation": _build_presentation,
    "presmorphism": _build_presmorphism,
    "tower": _build_tower,
}


# ---------------------------------------------------------------------------
# serialization

def _scalar_lines(F, keyword, cols, n, w, by_last=False):
    """One "keyword i j k c" line per stored entry of the columns that
    _triple_tensor reads, in ascending order of the flat index
    (i * n + j) * w + k: i * n * w + r for row r of column i, or r * w + k
    for row r of column k with by_last."""
    lines = []
    for flat, a in sorted((r * w + c if by_last else c * n * w + r, a)
                          for c, col in enumerate(cols) for r, a in col):
        i, jk = divmod(flat, n * w)
        lines.append(f"  {keyword} {i} {jk // w} {jk % w} {F.format(a)}")
    return lines


def _basis_lines(name, space):
    """The basis lines of an object; a file names each basis vector once,
    so a repeated label, which a tensor of labels holding ⊗ can make, is
    refused here, where labels are written."""
    seen = set()
    for l in space.labels:
        if l in seen:
            raise ParseError(f"object {name}: repeated basis label {l!r}")
        seen.add(l)
    return [f"  basis {l} {'odd' if p else 'even'}" for l, p in zip(space.labels, space.parities)]


def _vector_lines(F, keyword, vec):
    return [f"  {keyword} {i} {F.format(c)}" for i, c in vec]


def serialize_object(name, value, F, over=None, endpoints=None):
    lines = []
    if isinstance(value, SuperAlgebra):
        lines.append(f"object algebra {name}")
        lines.extend(_basis_lines(name, value.space))
        lines.extend(_vector_lines(F, "unit", value.unit))
        lines.extend(_scalar_lines(F, "mul", value.cop, value.dim, value.dim, by_last=True))
    elif isinstance(value, SuperCoalgebra):
        lines.append(f"object coalgebra {name}")
        lines.extend(_basis_lines(name, value.space))
        lines.extend(_vector_lines(F, "counit", value.counit))
        lines.extend(_scalar_lines(F, "delta", value.delta, value.dim, value.dim))
    elif isinstance(value, SuperComodule):
        lines.append(f"object comodule {name} over {over}")
        lines.extend(_basis_lines(name, value.space))
        lines.extend(_scalar_lines(F, "coaction", value.psi, value.dim,
                                   value.coalgebra.dim))
    elif isinstance(value, SchemeMorphism):
        src, dst = endpoints
        lines.append(f"object morphism {name} from {src} to {dst}")
        for i, row in enumerate(_transpose(value.columns, value.target.dim)):
            lines.extend(f"  map {i} {j} {F.format(c)}" for j, c in row)
    else:
        raise ValueError(f"cannot serialize {type(value).__name__}")
    lines.append("end")
    return lines


def serialize_document(F, named_objects):
    lines = [f"{FORMAT_HEADER} {FORMAT_VERSION}", "field " + " ".join(_field_tokens(F))]
    for entry in named_objects:
        lines.extend(serialize_object(*entry[:2], F, *entry[2:]))
    return "\n".join(lines) + "\n"
