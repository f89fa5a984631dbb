import gc
import time
import tracemalloc
import types

import pytest

from superscheme.fields import PrimeField, QQ
from superscheme.objfile import (
    ParseError, parse_text, serialize_document,
)
from superscheme.corpus import divided_power, grassmann
from superscheme.supercoalgebra import dualize_algebra

from conftest import dense

F3 = PrimeField(3)


def test_algebra_round_trip():
    G = grassmann(2)
    text = serialize_document(QQ, [("G2", G)])
    doc = parse_text(text)
    _, A = doc.first("algebra")
    assert A.cop == G.cop and A.unit == G.unit
    assert A.space.labels == G.space.labels
    assert serialize_document(QQ, [("G2", A)]) == text


def test_shuffled_mul_lines_parse_to_the_stored_form():
    """A mul line is stored in its column wherever it stands in the file:
    lines in any order, with one entry repeated where the last line counts,
    parse to the canonical algebra, which writes them back in (i, j, k)
    order."""
    G = grassmann(3)
    text = serialize_document(QQ, [("G3", G)])
    lines = text.splitlines(keepends=True)
    muls = [line for line in lines if line.startswith("  mul ")]
    assert muls == sorted(muls, key=lambda line: [int(t) for t in line.split()[1:4]])
    shuffled = muls[::-1]
    shuffled.insert(5, muls[7].replace(muls[7].split()[-1] + "\n", "7\n"))
    rest = [line for line in lines if not line.startswith("  mul ")]
    _, parsed = parse_text("".join(rest[:-1] + shuffled + rest[-1:])).first("algebra")
    assert parsed == G and parsed.cop == G.cop
    assert serialize_document(QQ, [("G3", parsed)]) == text


def test_zero_and_repeated_entries_parse_to_the_stored_form():
    """An explicit zero is dropped and of two lines for one entry the last
    counts, so the parsed algebra equals that of the file without them."""
    text = serialize_document(QQ, [("G2", grassmann(2))])
    head, tail = text.split("  mul ", 1)
    # 1*1 and th1*th2 are repeated later in the file; th1*th1 has no term on 1
    noisy = (head + "  mul 0 0 0 0\n  mul 1 2 3 5\n  mul "
             + tail.replace("end\n", "  mul 1 1 0 0\nend\n"))
    assert tail.startswith("0 0 0 1\n") and "mul 1 2 3 1\n" in tail
    _, plain = parse_text(text).first("algebra")
    _, parsed = parse_text(noisy).first("algebra")
    assert parsed == plain
    assert serialize_document(QQ, [("G2", parsed)]) == text


def test_coalgebra_round_trip_fp():
    C = divided_power(2, F3)
    text = serialize_document(F3, [("D2", C)])
    doc = parse_text(text)
    _, back = doc.first("coalgebra")
    assert back.delta == C.delta and back.counit == C.counit


def test_extension_field_header():
    text = """superscheme 1
field ext Fp 3 poly 1 0 1 name j
object coalgebra C
  basis g even
  counit 0 1,0
  delta 0 0 0 1,0
end
"""
    doc = parse_text(text)
    assert doc.field.order == 9
    _, C = doc.first("coalgebra")
    assert dense(doc.field, 1, C.counit) == ((1, 0),)


def test_comodule_and_morphism_sections():
    text = """superscheme 1
field Q
object coalgebra C
  basis g even
  counit 0 1
  delta 0 0 0 1
end
object comodule M over C
  basis m even
  coaction 0 0 0 1
end
object morphism f from C to C
  map 0 0 1
end
"""
    doc = parse_text(text)
    _, M = doc.first("comodule")
    assert M.coalgebra.dim == 1
    _, f = doc.first("morphism")
    assert f.validate() == []


def test_subspace_section():
    text = """superscheme 1
field Q
object coalgebra C
  basis g even
  basis x even
  counit 0 1
  delta 0 0 0 1
  delta 1 0 1 1
  delta 1 1 0 1
end
object subspace W over C
  row 1 0
end
"""
    doc = parse_text(text)
    W = doc.get("W")
    assert W.dim == 1


PRESENTATIONS = """superscheme 1
field Q
object presentation P
  evar T S
  ovar a b
  gen T a
end
object presentation Q
  evar U
  ovar c
end
object presmorphism f from P to Q
  eimage U S
  oimage c b
end
"""


def test_presentation_and_morphism_sections():
    doc = parse_text(PRESENTATIONS)
    P = doc.get("P")
    assert P.p == 2 and P.q == 2
    assert P.generators == (((1, 0), frozenset({0})),)
    f = doc.get("f")
    assert f.even_images == (((0, 1), frozenset()),)
    assert f.odd_images == (((0, 0), frozenset({1})),)


TOWER = """superscheme 1
field Q
object coalgebra C1
  basis g even
  basis x1 even
  counit 0 1
  delta 0 0 0 1
  delta 1 0 1 1
  delta 1 1 0 1
end
object coalgebra C2
  basis g even
  basis x1 even
  basis x2 even
  counit 0 1
  delta 0 0 0 1
  delta 1 0 1 1
  delta 1 1 0 1
  delta 2 0 2 1
  delta 2 1 1 1
  delta 2 2 0 1
end
object morphism i from C1 to C2
  map 0 0 1
  map 1 1 1
end
object tower X
  level C1
  level C2
  tmap i
end
"""


def test_tower_section():
    doc = parse_text(TOWER)
    X = doc.get("X")
    assert len(X.levels) == 2
    assert X.validate() == []


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_text("not a header\n")
    with pytest.raises(ParseError):
        parse_text("superscheme 99\nfield Q\n")
    with pytest.raises(ParseError):
        parse_text("superscheme 1\n")  # missing field
    with pytest.raises(ParseError):
        parse_text("superscheme 1\nfield Fp 2\n")  # char 2 rejected at parse
    with pytest.raises(ParseError):
        parse_text("superscheme 1\nfield Q\nobject widget W\nend\n")
    with pytest.raises(ParseError):
        parse_text("superscheme 1\nfield Q\nobject coalgebra C\n"
                    "  basis g even\n  counit 0 nonsense\nend\n")
    with pytest.raises(ParseError):
        parse_text("superscheme 1\nfield Q\n" + 2 * (
            "object coalgebra C\n  basis g even\n  counit 0 1\n"
            "  delta 0 0 0 1\nend\n"))
    for bad in ["field", "field ext poly 1 0 1 name j",
                "field ext Fp 3 poly 1 0 1 name", "field ext Fp 3 poly 1 z 1 name j"]:
        with pytest.raises(ParseError):
            parse_text(f"superscheme 1\n{bad}\n")
    with pytest.raises(ParseError, match="unsupported format version x"):
        parse_text("superscheme x\nfield Q\n")
    with pytest.raises(ParseError, match="algebra A: duplicate basis label '1'"):
        parse_text("superscheme 1\nfield Q\nobject algebra A\n"
                   "  basis 1 even\n  basis 1 even\nend\n")
    # Python's negative indexing would write these into the last slot
    one_dim = ("superscheme 1\nfield Q\nobject algebra A\n  basis 1 even\n"
               "  mul 0 0 0 1\n  unit 0 1\n{}end\n"
               "object coalgebra C\n  basis g even\n  counit 0 1\n"
               "  delta 0 0 0 1\nend\n"
               "object comodule M over C\n  basis m even\n  coaction 0 0 0 1\n{}end\n"
               "object morphism f from C to C\n  map 0 0 1\n{}end\n")
    assert parse_text(one_dim.format("", "", "")).built["A"][0] == "algebra"
    for bad in [("  mul -1 -1 -1 1\n", "", ""), ("  unit -1 1\n", "", ""),
                ("", "  coaction 0 0 -1 1\n", ""), ("", "", "  map -1 0 1\n"),
                ("  mul 0 1 0 1\n", "", "")]:
        with pytest.raises(ParseError, match="out of range"):
            parse_text(one_dim.format(*bad))
    # a line that names an object or a variable, with only its keyword
    for text, line in [(TOWER, "  level C2\n"), (TOWER, "  tmap i\n"),
                       (PRESENTATIONS, "  eimage U S\n"), (PRESENTATIONS, "  oimage c b\n")]:
        keyword = line.split()[0]
        lineno = text[:text.index(line)].count("\n") + 1
        with pytest.raises(ParseError, match=f"^line {lineno}: {keyword} line needs a name"):
            parse_text(text.replace(line, f"  {keyword}\n"))


def test_repeated_variable_names_are_refused():
    """Each variable of a presentation has its own name: an even and an
    odd T would leave gen T to pick one, and evar T T a variable no line
    can name."""
    for lines, lineno in [("  evar T\n  ovar T\n  gen T\n", 5), ("  evar T T\n", 4),
                          ("  evar S\n  ovar a b a\n", 5)]:
        with pytest.raises(ParseError, match=f"^line {lineno}: presentation P: repeated variable"):
            parse_text("superscheme 1\nfield Q\nobject presentation P\n" + lines + "end\n")


def test_field_line_precedes_the_first_object():
    """An object is built at its end line, over the field declared before
    it, so a field line after an object is refused."""
    coalgebra = "object coalgebra C\n  basis g even\n  counit 0 1\n  delta 0 0 0 1\nend\n"
    assert parse_text("superscheme 1\nfield Q\n" + coalgebra).get("C").dim == 1
    with pytest.raises(ParseError, match="^line 2: the field line must precede the first object"):
        parse_text("superscheme 1\n" + coalgebra + "field Q\n")


def _reachable_str_lists(root):
    """The lists of strings reachable from root through containers and
    instance attributes, not through classes, modules or functions."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
            types.MethodType)
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if type(obj) is list and obj and all(type(x) is str for x in obj):
            found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


def test_no_token_list_outlives_its_object():
    """A parsed document holds the built objects, not the token lists of
    the lines they were built from."""
    D1 = divided_power(1)
    from superscheme.supercomodule import regular_comodule
    text = (serialize_document(QQ, [("G", grassmann(2)), ("D", D1),
                                    ("M", regular_comodule(D1), "D")])
            + TOWER.split("\n", 2)[2] + "object subspace W over D\n  row 1 0\nend\n"
            + PRESENTATIONS.split("\n", 2)[2])
    doc = parse_text(text)
    assert sorted(kind for kind, _ in doc.built.values()) == [
        "algebra", "coalgebra", "coalgebra", "coalgebra", "comodule", "morphism",
        "presentation", "presentation", "presmorphism", "subspace", "tower"]
    assert _reachable_str_lists(doc) == []


def test_parsing_an_object_twice_over_peaks_below_twice_once():
    """The lines of an object are dropped when it is built, so a second
    copy of it adds its built form to the peak, not the first copy's lines
    too."""
    C = dualize_algebra(grassmann(7))
    peaks = []
    for copies in (1, 2):
        text = serialize_document(QQ, [(f"C{i}", C) for i in range(copies)])
        tracemalloc.start()
        try:
            parse_text(text)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_wide_basis_is_collected_in_linear_time():
    """Duplicate basis labels are found by a lookup, not by a scan of the
    labels so far: 20,000 distinct basis lines parse in well under a second
    where a quadratic check took seconds."""
    n = 20000
    text = ("superscheme 1\nfield Fp 3\nobject coalgebra C\n"
            + "".join(f"  basis b{i} even\n" for i in range(n)) + "  counit 0 1\nend\n")
    start = time.perf_counter()
    _, C = parse_text(text).first("coalgebra")
    assert time.perf_counter() - start < 1.0
    assert C.space.labels == tuple(f"b{i}" for i in range(n))
    duplicate = f"^line {n + 4}: coalgebra C: duplicate basis label 'b7'"
    with pytest.raises(ParseError, match=duplicate):
        parse_text(text.replace("  counit", "  basis b7 odd\n  counit"))


def test_expected_block():
    """An expected block between objects is read past: the objects around
    it are built, and its lines are kept nowhere."""
    text = """superscheme 1
field Q
object coalgebra C
  basis g even
  counit 0 1
  delta 0 0 0 1
end
expected
  components 1
  grouplikes 1
end
object coalgebra D
  basis h even
  counit 0 1
  delta 0 0 0 1
end
"""
    doc = parse_text(text)
    assert [(name, C.dim) for name, C in doc.all_of("coalgebra")] == [("C", 1), ("D", 1)]
    assert not hasattr(doc, "expected")


def test_expected_block_lines_are_skipped_to_its_end():
    """Every line of an expected block up to its end is skipped, keyword or
    not, and a file that ends inside the block is a parse error."""
    with pytest.raises(ParseError, match="missing field declaration"):
        parse_text("superscheme 1\nexpected\nfield Q\nend\n")
    doc = parse_text("superscheme 1\nfield Q\nexpected\nobject coalgebra C\nend\n")
    assert doc.all_of("coalgebra") == []
    with pytest.raises(ParseError, match="unterminated expected block"):
        parse_text("superscheme 1\nfield Q\nexpected\n  components 1\n")


def test_readme_format_example_validates():
    from superscheme.superalgebra import validate_superalgebra
    text = """superscheme 1
field Q
object algebra A
  basis 1 even
  basis th odd
  unit 0 1
  mul 0 0 0 1
  mul 0 1 1 1
  mul 1 0 1 1
end
"""
    doc = parse_text(text)
    _, A = doc.first("algebra")
    assert validate_superalgebra(A) == []


def test_comments_and_blank_lines():
    text = """superscheme 1
# a comment
field Q

object coalgebra C   # trailing comment
  basis g even
  counit 0 1
  delta 0 0 0 1
end
"""
    doc = parse_text(text)
    assert doc.get("C").dim == 1
