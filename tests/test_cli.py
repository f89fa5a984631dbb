import gc
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from superscheme import cli
from superscheme.cli import EXIT_FAIL, EXIT_IO, EXIT_OK, EXIT_UNSUPPORTED, run
from superscheme.fields import PRIMALITY_BOUND, QQ, ExtensionField, PrimeField
from superscheme.objfile import serialize_document
from superscheme.superlinear import SuperVectorSpace, linear_form
from superscheme.supercoalgebra import (
    dualize_algebra, grouplikes_over, make_supercoalgebra, unit_coalgebra,
)
from superscheme.formal_scheme import (
    TOWER_AMBIENT_BOUND, TOWER_DEPTH_BOUND, SchemeMorphism,
)
from superscheme.corpus import (
    divided_power, grassmann, grouplike_coalgebra, quotient_ring_algebra, seeded_random,
    truncated_polynomial,
)
from superscheme.superalgebra import SuperAlgebra, make_superalgebra, tensor_superalgebra

from conftest import _count_calls, dense_columns, sparse

ROOT = Path(__file__).resolve().parent.parent

F3 = PrimeField(3)


@pytest.fixture
def files(tmp_path):
    out = {}

    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        out[name] = str(p)

    write("g2.alg", serialize_document(QQ, [("G2", grassmann(2))]))
    write("d3.coalg", serialize_document(QQ, [("D3", divided_power(3))]))
    GK = grouplike_coalgebra(2)
    K = unit_coalgebra(QQ)
    f = SchemeMorphism.finite(dense_columns(QQ, [[QQ.one, QQ.one]]), GK, K)
    write("collapse.mor", serialize_document(
        QQ, [("GK", GK), ("K", K), ("f", f, None, ("GK", "K"))]))
    fj = SchemeMorphism.finite(dense_columns(QQ, [[QQ.one], [QQ.zero]]), K, GK)
    write("inclusion.mor", serialize_document(
        QQ, [("K", K), ("GK", GK), ("fj", fj, None, ("K", "GK"))]))
    write("pres.pres", """superscheme 1
field Q
object presentation P
  evar T
  ovar a b
  gen T a
end
""")
    write("twopres.pres", """superscheme 1
field Q
object presentation P
  ovar a
end
object presentation Q2
  ovar b
end
""")
    write("presmor.pres", """superscheme 1
field Q
object presentation S
  evar T U
  ovar a b
end
object presentation Y
  evar T
  ovar a
end
object presmorphism proj from S to Y
  eimage T T
  oimage a a
end
""")
    C3 = dualize_algebra(quotient_ring_algebra([F3.one, F3.zero, F3.one], F3))
    write("f9split.coalg", serialize_document(F3, [("C", C3)]))
    GD = dualize_algebra(grassmann(1, F3))
    write("gdual3.coalg", serialize_document(F3, [("C", GD)]))
    write("r3.alg", serialize_document(F3, [("R", grassmann(1, F3))]))
    wedge_host = serialize_document(QQ, [("D3", divided_power(3))]).rstrip()
    write("wedge.coalg", wedge_host + """
object subspace X over D3
  row 1 0 0 0
end
object subspace Y over D3
  row 1 0 0 0
end
""")
    two = serialize_document(QQ, [("A", grouplike_coalgebra(2)),
                                  ("B", divided_power(1))])
    write("pair.coalg", two)
    from superscheme.supercomodule import regular_comodule, trivial_comodule
    from superscheme.superlinear import unit_vec
    D1 = divided_power(1)
    write("mods.comod", serialize_document(QQ, [
        ("C", D1),
        ("M", regular_comodule(D1), "C"),
        ("N", trivial_comodule(D1, unit_vec(QQ, 0)), "C")]))
    bad = serialize_document(QQ, [("G2", grassmann(2))])
    bad = bad.replace("mul 2 1 3 -1", "mul 2 1 3 1")
    write("bad.alg", bad)
    return out


def _ok(argv):
    text, code = run(argv)
    assert code == EXIT_OK, text
    return text


def test_validate(files):
    text = _ok(["validate", files["g2.alg"]])
    assert "object G2 pass" in text
    bad_text, bad_code = run(["validate", files["bad.alg"]])
    assert bad_code == EXIT_FAIL
    digest = hashlib.sha256(open(files["bad.alg"]).read().encode()).hexdigest()
    assert bad_text == (
        "superscheme-report validate\n"
        "tool-version 0.1.0\n"
        f"input {files['bad.alg']} sha256 {digest}\n"
        "object G2 FAIL\n"
        "  violation G2 supercommutativity: th1*th2 != (-1)^|x||y| th2*th1\n"
        "  violation G2 supercommutativity: th2*th1 != (-1)^|x||y| th1*th2\n"
        "status fail\n")


def test_dual_and_product(files):
    text = _ok(["dual", files["g2.alg"]])
    assert "object coalgebra G2_dual" in text
    text2 = _ok(["product", files["pair.coalg"]])
    assert "product-points 2" in text2


def test_radical_coradical_filtration(files):
    assert "radical-sdim 1|2" in _ok(["radical", files["g2.alg"]])
    assert "coradical-dim 1" in _ok(["coradical", files["d3.coalg"]])
    text = _ok(["filtration", files["d3.coalg"]])
    assert "stage 3 dim 4" in text


def test_wedge(files):
    text = _ok(["wedge", files["wedge.coalg"], "--x", "X", "--y", "Y"])
    assert "wedge-dim 2" in text


def test_components_and_grouplikes(files):
    assert "component-count 1" in _ok(["components", files["f9split.coalg"]])
    text = _ok(["grouplikes", files["gdual3.coalg"], "--over", files["r3.alg"]])
    assert "grouplike-count 3" in text
    assert "grouplike-count 0" in _ok(["grouplikes", files["f9split.coalg"]])


def test_morphism_commands(files):
    assert "faithfully-flat True" in _ok(["flat-check", files["collapse.mor"]])
    text = _ok(["immersion-check", files["inclusion.mor"]])
    assert "closed-immersion True" in text and "open-immersion True" in text
    assert "descent pass" in _ok(["descent-check", files["collapse.mor"],
                                  "--depth", "2"])
    fail_text, fail_code = run(["descent-check", files["inclusion.mor"],
                                "--depth", "1"])
    assert fail_code == EXIT_FAIL and "failure comodule kappa(1) degree 0" in fail_text
    assert "bounded-degree 2" in _ok(["finite-check", files["collapse.mor"]])


def test_flat_check_computes_each_invariant_once(files, monkeypatch):
    """flat-check on a morphism: the components of source and target once
    each, one flat_check per source point."""
    comps = _count_calls(monkeypatch, "supercoalgebra", "irreducible_components")
    flats = _count_calls(monkeypatch, "supercomodule", "flat_check")
    text = _ok(["flat-check", files["collapse.mor"]])
    assert "flat-at 0 True\nflat-at 1 True\n" in text
    assert [C.dim for C, _ in comps] == [2, 1]
    assert len(flats) == 2


def test_descent_check_on_a_counit_collapse_builds_one_tower(files, monkeypatch):
    """The target k is its own residue field, so kappa(0) shares the O(Y)
    tower."""
    towers = _count_calls(monkeypatch, "formal_scheme", "_iterated_cotensor_tower")
    text = _ok(["descent-check", files["collapse.mor"], "--depth", "2"])
    assert "exact kappa(0) degree 2 yes" in text
    assert len(towers) == 1


def test_descent_check_pushes_the_source_once_and_builds_no_coproduct_map(files, monkeypatch):
    """The towers share one pushed comodule, and a point target (B = k),
    whose towers are written down by index arithmetic, builds none; checking
    the morphism on loading reads the coalgebras' delta columns: neither
    builds a labelled C (x) C space."""
    pushed = _count_calls(monkeypatch, "formal_scheme", "_pushed")
    assert "descent pass" in _ok(["descent-check", files["collapse.mor"], "--depth", "2"])
    assert len(pushed) == 0
    text, code = run(["descent-check", files["inclusion.mor"], "--depth", "2"])
    assert code == EXIT_FAIL and "exact kappa(1) degree 0 NO" in text.splitlines()
    assert len(pushed) == 1
    GK = grouplike_coalgebra(2)
    K = unit_coalgebra(QQ)
    calls = []
    tensor = SuperVectorSpace.tensor
    monkeypatch.setattr(SuperVectorSpace, "tensor",
                        lambda V, W: calls.append((V.dim, W.dim)) or tensor(V, W))
    assert SchemeMorphism(GK, K, dense_columns(QQ, [[QQ.one, QQ.one]])).validate() == []
    assert calls == []


def test_descent_check_builds_no_cotensor_outside_its_towers(files, monkeypatch):
    """The coequalizer is O(Y)'s degrees 0 and 1, so descent-check builds no
    A box_B A of its own: at every depth, over B = k and over a target of
    two points, it makes no cotensor call, and its towers alone cut
    cotensor kernels."""
    cotensors = _count_calls(monkeypatch, "formal_scheme", "cotensor")
    kernels = _count_calls(monkeypatch, "formal_scheme", "cotensor_kernel")
    for depth in ("0", "1", "2"):
        assert "descent pass" in _ok(["descent-check", files["collapse.mor"], "--depth", depth])
        text, code = run(["descent-check", files["inclusion.mor"], "--depth", depth])
        assert code == EXIT_FAIL and "coequalizer FAIL" in text
    assert cotensors == []
    assert kernels


def test_report_all_computes_components_once(files, monkeypatch):
    comps = _count_calls(monkeypatch, "supercoalgebra", "irreducible_components")
    text = _ok(["report-all", files["pair.coalg"]])
    assert "coalgebra A grouplikes 2" in text
    assert len(comps) == 2          # once for each of the file's two coalgebras


def test_descent_check_validates_each_coalgebra_once(files, monkeypatch):
    """The file's two coalgebras are validated on loading, and the morphism
    between them reads their kept verdicts instead of checking them again."""
    checks = _count_calls(monkeypatch, "supercoalgebra", "_coalgebra_problems")
    assert "descent pass" in _ok(["descent-check", files["collapse.mor"], "--depth", "2"])
    assert sorted(C.space.labels for C, in checks) == [("g",), ("g1", "g2")]


def test_report_all_takes_each_radical_once(monkeypatch, tmp_path):
    """An algebra's radical serves its radical-dim and its local factors; a
    coalgebra's one dual, and the radical of that dual, serve its coradical
    and its components.  Calls on other objects (the component coalgebras
    of grouplikes, subalgebras of local factors) carry other labels."""
    G = grassmann(3)
    C = dualize_algebra(G)
    path = tmp_path / "both.ss"
    path.write_text(serialize_document(QQ, [("A", G), ("C", C)]))
    radicals = _count_calls(monkeypatch, "superalgebra", "radical")
    duals = _count_calls(monkeypatch, "supercoalgebra", "dualize_coalgebra")
    text = _ok(["report-all", str(path)])
    assert "algebra A local-factors 1\n" in text and "coalgebra C components 1\n" in text

    def on(calls, labels):
        return sum(1 for args in calls if args[0].space.labels == labels)

    assert on(radicals, G.space.labels) == 1
    assert on(duals, C.space.labels) == 1
    assert on(radicals, tuple(f"{label}*" for label in C.space.labels)) == 1


def test_report_all_builds_no_tensor_space(monkeypatch, tmp_path):
    """The validators read the parities of A (x) A off those of A, and a
    dual is the same columns relabelled: report-all on an algebra and its
    dual builds no labelled tensor space."""
    G = grassmann(4)
    path = tmp_path / "both.ss"
    path.write_text(serialize_document(QQ, [("A", G), ("C", dualize_algebra(G))]))
    calls = []
    tensor = SuperVectorSpace.tensor
    monkeypatch.setattr(SuperVectorSpace, "tensor",
                        lambda V, W: calls.append((V.dim, W.dim)) or tensor(V, W))
    text = _ok(["report-all", str(path)])
    assert "algebra A valid True\n" in text and "coalgebra C valid True\n" in text
    assert calls == []


@pytest.mark.parametrize("line", ["mul 2 0 0 1", "mul 0 2 0 1", "mul 0 0 2 1"])
def test_mul_index_out_of_range_is_a_parse_error(tmp_path, line):
    """Each index of a mul line is checked before the entry is stored in
    its column: one out of range exits 3 and names it."""
    path = tmp_path / "wide.alg"
    path.write_text("superscheme 1\nfield Q\nobject algebra A\n  basis 1 even\n"
                    f"  basis x even\n  unit 0 1\n  mul 0 0 0 1\n  {line}\nend\n")
    assert run(["validate", str(path)]) == (
        "superscheme-report error\nparse-error line 8: bad mul entry: index 2 out of range "
        "for dimension 2\nstatus error\n", EXIT_IO)


def test_cotensor_and_comodule_flat(files):
    text = _ok(["cotensor", files["mods.comod"]])
    assert "cotensor-dim 1" in text
    text2 = _ok(["flat-check", files["mods.comod"]])
    assert "flat True" in text2 and "rank 1|0" in text2


def test_fiber_commands(files):
    text = _ok(["fiber", files["collapse.mor"], "--morphism", "f",
                "--point", "0"])
    assert "fiber-dim 2" in text
    text2 = _ok(["fiber-product", files["collapse.mor"], "--f", "f", "--g", "f"])
    assert "carrier-dim 4" in text2


def _tensor_label_files(tmp_path):
    """Two files that differ only in basis labels: the morphism file of the
    counit collapse and a file of two regular comodules, with the labels of
    the source (or of both comodules) renamed to p and p⊗p.  A tensor of
    those labels repeats one: p⊗p⊗p is both p ⊗ (p⊗p) and (p⊗p) ⊗ p."""
    from superscheme.supercomodule import regular_comodule
    GK, K, D1 = grouplike_coalgebra(2), unit_coalgebra(QQ), divided_power(1)
    f = SchemeMorphism.finite(dense_columns(QQ, [[QQ.one, QQ.one]]), GK, K)
    mor = serialize_document(QQ, [("GK", GK), ("K", K), ("f", f, None, ("GK", "K"))])
    mods = serialize_document(QQ, [("C", D1), ("M", regular_comodule(D1), "C"),
                                   ("N", regular_comodule(D1), "C")])
    head, tail = mods.split("object comodule M", 1)
    renamed = {
        "mor": mor.replace("basis g1 ", "basis p ").replace("basis g2 ", "basis p⊗p "),
        "mods": head + "object comodule M" + tail.replace("basis g ", "basis p ").replace(
            "basis x1 ", "basis p⊗p "),
    }
    paths = {}
    for name, plain in (("mor", mor), ("mods", mods)):
        for kind, text in (("plain", plain), ("tensor", renamed[name])):
            assert kind == "plain" or text != plain
            paths[name, kind] = tmp_path / f"{name}-{kind}.ss"
            paths[name, kind].write_text(text, encoding="utf-8")
    return paths


@pytest.mark.parametrize("name, argv", [
    ("mor", ["descent-check", "--depth", "2"]),
    ("mor", ["fiber-product", "--f", "f", "--g", "f"]),
    ("mods", ["cotensor"]),
])
def test_tensor_labels_are_checked_only_where_written(tmp_path, name, argv):
    """A command that prints no tensor label answers on basis labels whose
    tensor repeats one, with the report of the same file relabelled; only
    the input line differs."""
    paths = _tensor_label_files(tmp_path)
    reports = []
    for kind in ("plain", "tensor"):
        text, code = run([argv[0], str(paths[name, kind])] + argv[1:])
        assert code == EXIT_OK, text
        reports.append([line for line in text.splitlines() if not line.startswith("input ")])
    assert reports[0] == reports[1]


def test_product_refuses_to_write_a_repeated_label(tmp_path):
    """The tensor of the labels a⊗b, a and c, b⊗c names two basis vectors
    a⊗b⊗c; the product's file would name them once, so it is refused with
    exit 3, naming the label."""
    path = tmp_path / "pair.ss"
    path.write_text(
        "superscheme 1\nfield Q\n"
        "object coalgebra A\n  basis a⊗b even\n  basis a even\n  counit 0 1\n  counit 1 1\n"
        "  delta 0 0 0 1\n  delta 1 1 1 1\nend\n"
        "object coalgebra B\n  basis c even\n  basis b⊗c even\n  counit 0 1\n  counit 1 1\n"
        "  delta 0 0 0 1\n  delta 1 1 1 1\nend\n", encoding="utf-8")
    assert run(["product", str(path)]) == (
        "superscheme-report error\nparse-error object A_x_B: repeated basis label 'a⊗b⊗c'\n"
        "status error\n", EXIT_IO)


@pytest.mark.parametrize("depth, code, line", [
    ("-1", EXIT_IO, "argument-error"),
    ("0", EXIT_OK, "exact O(Y) degree 0 yes"),
])
def test_descent_check_rejects_a_negative_depth(files, depth, code, line):
    """A negative depth would build no degree and pass vacuously."""
    text, got = run(["descent-check", files["collapse.mor"], "--depth", depth])
    assert got == code and line in text.splitlines(), text


@pytest.mark.parametrize("point, code, line", [
    ("-1", EXIT_IO, "argument-error"),
    ("0", EXIT_OK, "fiber-dim 2"),
    ("1", EXIT_IO, "argument-error point 1 out of range: the target has 1 point"),
])
def test_fiber_rejects_a_point_out_of_range(files, point, code, line):
    """A negative index would read the points from the end; an index past
    the last point is an argument error, not a parse error, as the file
    parsed."""
    text, got = run(["fiber", files["collapse.mor"], "--morphism", "f", "--point", point])
    assert got == code and line in text.splitlines(), text


@pytest.mark.parametrize("value", [str(10 ** 6), str(10 ** 30)])
@pytest.mark.parametrize("argv, code, line", [
    (["descent-check", "collapse.mor", "--depth"], EXIT_UNSUPPORTED,
     f"unsupported descent depth {{}} is over the bound {TOWER_DEPTH_BOUND}"),
    (["fiber", "collapse.mor", "--morphism", "f", "--point"], EXIT_IO,
     "argument-error point {} out of range: the target has 1 point"),
    (["corpus", "--seed"], EXIT_OK, "entry subspace-triple seed {} pass"),
])
def test_huge_counts_keep_the_exit_code_contract(files, value, argv, code, line):
    """A huge depth is refused before any tower level is built, a huge point
    is out of range and a huge seed is read modulo 2^64: each run ends at
    once, with no traceback."""
    start = time.perf_counter()
    text, got = run([files.get(a, a) for a in argv] + [value])
    assert time.perf_counter() - start < 1.0
    assert got == code and line.format(value) in text.splitlines(), text
    assert "Traceback" not in text


@pytest.mark.parametrize("command, build, line", [
    ("radical", lambda F: quotient_ring_algebra([2, 0, 1], F), "radical-dim 0"),
    ("grouplikes", lambda F: dualize_algebra(grassmann(1, F)), "grouplike-count 1"),
    ("components", lambda F: dualize_algebra(quotient_ring_algebra([2, 0, 1], F)),
     "component 0 dim 2 residue extension-degree-2"),
    ("report-all", lambda F: quotient_ring_algebra([2, 0, 1], F), "algebra X local-factors 1"),
], ids=["radical", "grouplikes", "components", "report-all"])
def test_frobenius_powers_over_a_large_prime_field_end_at_once(tmp_path, command, build, line):
    """The p-th power maps of radical and the q-th power test of a residue
    field take ~2 log2 p products each, so over F_(10^9 + 7) the run ends
    at once.  A residue field that is not the base field is reported by its
    degree alone: x^2 + 2 has no root mod 10^9 + 7, and no polynomial over
    the field is factored."""
    F = PrimeField(1000000007)
    path = tmp_path / "big-prime.ss"
    path.write_text(serialize_document(F, [("X", build(F))]))
    start = time.perf_counter()
    text, code = run([command, str(path)])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_OK and line in text.splitlines(), text
    assert "Traceback" not in text


@pytest.mark.parametrize("p, code, line", [
    ("1000000007", EXIT_OK, "object X pass"),
    ("1000000000000000000000000000057", EXIT_IO, None),
    (str(2 ** 127 - 1), EXIT_IO, None),
], ids=["1e9+7", "1e30+57", "2^127-1"])
def test_prime_field_lines_answer_at_once(tmp_path, p, code, line):
    """Primality is Miller-Rabin, so a field line answers at once: F_(10^9 + 7)
    validates, and a prime at or above the bound of the test is refused
    with a parse error that names the bound."""
    F = PrimeField(1000000007)
    text = serialize_document(F, [("X", quotient_ring_algebra([2, 0, 1], F))])
    path = tmp_path / "prime.ss"
    path.write_text(text.replace("field Fp 1000000007", f"field Fp {p}"))
    start = time.perf_counter()
    text, got = run(["validate", str(path)])
    assert time.perf_counter() - start < 1.0
    if line is None:
        line = (f"parse-error line 2: cannot certify that {p} is prime: Miller-Rabin on the "
                f"first 13 prime bases is a proof only below {PRIMALITY_BOUND}")
    assert got == code and line in text.splitlines(), text
    assert "Traceback" not in text


@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_exhausted_resource_is_unsupported(tmp_path, monkeypatch, error):
    """run turns an exhausted resource into an unsupported line with exit 2,
    whatever the command was doing."""
    def exhausted(path):
        raise error()

    monkeypatch.setattr(cli, "_load", exhausted)
    text, code = run(["validate", str(tmp_path / "any.ss")])
    assert code == EXIT_UNSUPPORTED
    assert text.splitlines() == ["superscheme-report error",
                                 f"unsupported resource {error.__name__}", "status error"]
    assert "Traceback" not in text


def test_descent_tower_over_the_bound_is_unsupported(tmp_path):
    """Depth 50 on the counit collapse of 65 group-likes: level 3 would lie
    in a space of dimension 65^3, over the bound, so the run stops before
    building it, with an unsupported line that names the bound."""
    assert 65 ** 2 <= TOWER_AMBIENT_BOUND < 65 ** 3
    C, K = grouplike_coalgebra(65, F3), unit_coalgebra(F3)
    f = SchemeMorphism.finite(linear_form(C.dim, C.counit), C, K)
    path = tmp_path / "collapse65.mor"
    path.write_text(serialize_document(F3, [("C", C), ("K", K), ("f", f, None, ("C", "K"))]))
    start = time.perf_counter()
    text, code = run(["descent-check", str(path), "--depth", "50"])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_UNSUPPORTED
    assert text.splitlines()[1] == (
        "unsupported descent tower level 3 lies in a space of dimension 4225 x 65 = "
        f"274625, over the bound {TOWER_AMBIENT_BOUND}")


def test_descent_check_at_depth_0_bounds_the_coequalizer_level(tmp_path):
    """The coequalizer is read off level 2 of O(Y), A box_B A, so depth 0
    builds that level too, under the bound: on the counit collapse of 513
    group-likes it lies in a space of dimension 513^2, just over the bound,
    and the run stops before building it."""
    assert 512 ** 2 <= TOWER_AMBIENT_BOUND < 513 ** 2
    C, K = grouplike_coalgebra(513, F3), unit_coalgebra(F3)
    f = SchemeMorphism.finite(linear_form(C.dim, C.counit), C, K)
    path = tmp_path / "collapse513.mor"
    path.write_text(serialize_document(F3, [("C", C), ("K", K), ("f", f, None, ("C", "K"))]))
    start = time.perf_counter()
    text, code = run(["descent-check", str(path), "--depth", "0"])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_UNSUPPORTED
    assert text.splitlines()[1] == (
        "unsupported descent tower level 2 lies in a space of dimension 513 x 513 = "
        f"263169, over the bound {TOWER_AMBIENT_BOUND}")


def test_counit_collapse_tower_over_the_bound_is_refused_before_any_level(tmp_path):
    """Over B = k every level is the whole tensor, dim T_n = 8^n for the
    counit collapse of Grassmann(3)*, so depth 6 is refused for its level 7
    before level 1 is built."""
    C, K = dualize_algebra(grassmann(3, F3)), unit_coalgebra(F3)
    f = SchemeMorphism.finite(linear_form(C.dim, C.counit), C, K)
    path = tmp_path / "collapse-g3.mor"
    path.write_text(serialize_document(F3, [("C", C), ("K", K), ("f", f, None, ("C", "K"))]))
    start = time.perf_counter()
    text, code = run(["descent-check", str(path), "--depth", "6"])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_UNSUPPORTED
    assert "Traceback" not in text
    assert text.splitlines()[1] == (
        "unsupported descent tower level 7 lies in a space of dimension 262144 x 8 = "
        f"2097152, over the bound {TOWER_AMBIENT_BOUND}")


def test_base_change(files):
    text = _ok(["base-change", files["f9split.coalg"],
                "--minpoly", "1 0 1", "--name", "j"])
    assert "points-before 1" in text and "points-after 2" in text


@pytest.mark.parametrize("minpoly, line", [
    ("1 x", "parse-error bad rational scalar 'x'"),
    ("1 0 2", "parse-error minimal polynomial must be monic"),
])
def test_base_change_reports_a_malformed_minpoly_as_a_parse_error(files, minpoly, line):
    """A scalar that does not parse and a polynomial that is not monic are
    both faults of the input: exit 3, not an unsupported computation."""
    text, code = run(["base-change", files["d3.coalg"], "--minpoly", minpoly])
    assert code == EXIT_IO
    assert text.splitlines() == ["superscheme-report error", line, "status error"]


def test_corpus_rejects_an_unknown_kind():
    """--kind takes the five documented kinds; any other word is an
    argument error, not a traceback."""
    text, code = run(["corpus", "--kind", "bogus"])
    assert code == EXIT_IO
    assert text.splitlines() == ["superscheme-report error", "argument-error", "status error"]
    for kind in cli.CORPUS_KINDS:
        assert run(["corpus", "--kind", kind, "--seed", "3"])[1] == EXIT_OK


@pytest.mark.parametrize("command", ["ksdim", "report-all"])
def test_subset_bound_is_unsupported_through_the_cli(tmp_path, command):
    """13 odd variables are over the odd subset search bound of ksdim: both
    commands that reach it exit 2 and name the bound."""
    path = tmp_path / "odd13.pres"
    path.write_text("superscheme 1\nfield Q\nobject presentation P\n"
                    "  ovar " + " ".join(f"a{i}" for i in range(13)) + "\n  gen a0 a1\nend\n")
    text, code = run([command, str(path)])
    assert code == EXIT_UNSUPPORTED
    assert text.splitlines() == [
        "superscheme-report error",
        "unsupported 13 odd variables exceed the subset search bound 12", "status error"]


def _fresh(*args):
    """A run of python in a fresh interpreter that sees the package source."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_cli_import_loads_the_traced_modules_and_nothing_more(files):
    """import superscheme.cli loads every module the layer tracer wraps, and
    not dataclasses (with the inspect it pulls in), ksdim, corpus or
    hashlib (with the OpenSSL it loads: the input digests use the
    interpreter's own sha256); the commands that need ksdim and corpus
    import them when they run."""
    spec = importlib.util.spec_from_file_location(
        "layertrace", ROOT / "perfbench" / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    proc = _fresh("-c", "import sys, superscheme.cli; print(*sorted(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert loaded.isdisjoint({"dataclasses", "inspect", "superscheme.ksdim", "superscheme.corpus",
                              "hashlib", "_hashlib"})
    assert {f"superscheme.{modname}" for modname, _, _ in layertrace.SPANS} <= loaded
    for argv in (["ksdim", files["pres.pres"]], ["check-thm515", files["twopres.pres"]],
                 ["corpus", "--kind", "presentation"]):
        proc = _fresh("-m", "superscheme.cli", *argv)
        assert proc.returncode == EXIT_OK, proc.stdout + proc.stderr
        assert proc.stdout.endswith("status ok\n"), proc.stdout


ARGV_TABLE = ([[name, "--help"] for name in cli.COMMANDS]
              + [[name, "missing.ss"] for name in cli.COMMANDS if name != "corpus"]
              + [[name, "missing.ss", "--bogus"] for name in cli.COMMANDS]
              + [["descent-check", "x.ss", "--depth", "-1"], ["descent-check", "x.ss", "--dep", "1"],
                 ["descent-check"], ["fiber", "x.ss", "--morphism", "f", "--point", "-2"],
                 ["corpus", "--kind", "bogus"], ["corpus", "--seed", "3", "--kind", "comodule"],
                 ["grouplikes", "x.ss", "--over"], ["bogus"], [], ["--help"]])


@pytest.mark.parametrize("argv", ARGV_TABLE, ids=" ".join)
def test_a_command_parser_answers_as_the_full_parser_does(argv, monkeypatch, capsys):
    """A named command is parsed by its own parser; its help, usage and
    error text, and the exit code, are the full parser's."""
    got = run(argv), capsys.readouterr()
    monkeypatch.setattr(cli, "_parse", lambda argv: cli.build_parser().parse_args(argv))
    want = run(argv), capsys.readouterr()
    assert got == want


def test_a_named_command_builds_only_its_own_parser(files, monkeypatch):
    def refuse():
        raise AssertionError("the full parser was built")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert "descent pass" in _ok(["descent-check", files["collapse.mor"], "--depth", "2"])
    assert _ok(["corpus", "--kind", "comodule"]).endswith("status ok\n")


def _perfbench_workloads():
    """perfbench's workloads module, imported from its own directory."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return workloads


def _well_formed_argv():
    """Every argv of the seed-1 job lists of the three perfbench workloads,
    and for each command its file followed and preceded by its options:
    the required ones only, and all of them with each store_true flag set.
    A value is one its type takes, and each of its choices in turn."""
    out = [[token.format("a.ss", "b.ss") for token in job.argv]
           for make in _perfbench_workloads().WORKLOADS.values() for job in make(1).jobs]
    for name, (_, *arguments) in cli.COMMANDS.items():
        files = [names[0] + ".ss" for names, _ in arguments if not names[0].startswith("-")]
        options = [(names[0], opts) for names, opts in arguments if names[0].startswith("-")]
        for choice in range(max([1] + [len(opts.get("choices", ())) for _, opts in options])):
            for everything in (False, True):
                tokens = []
                for option, opts in options:
                    if opts.get("action") == "store_true":
                        tokens += [option] if everything else []
                    elif everything or opts.get("required"):
                        choices = opts.get("choices") or ["2" if "type" in opts else "v"]
                        tokens += [option, choices[choice % len(choices)]]
                out += [[name, *files, *tokens], [name, *tokens, *files]]
    return [list(argv) for argv in dict.fromkeys(map(tuple, out))]


def test_a_well_formed_argv_is_read_as_the_full_parser_reads_it():
    argvs = _well_formed_argv()
    assert {argv[0] for argv in argvs} == set(cli.COMMANDS)
    for argv in argvs:
        assert vars(cli._parse(argv)) == vars(cli.build_parser().parse_args(argv)), argv


def test_a_well_formed_argv_builds_no_parser():
    """_parse reads a well-formed argv without an argparse parser: in a
    fresh interpreter, where no parser is cached, ArgumentParser.__init__
    raises, and every argv above still parses."""
    proc = _fresh("-c", "import argparse, json, sys\n"
                        "from superscheme import cli\n"
                        "def refuse(*args, **kwargs):\n"
                        "    raise AssertionError('an ArgumentParser was built')\n"
                        "argparse.ArgumentParser.__init__ = refuse\n"
                        "for argv in json.loads(sys.argv[1]):\n"
                        "    assert cli._parse(argv).command == argv[0]\n",
                  json.dumps(_well_formed_argv()))
    assert proc.returncode == 0, proc.stderr


def test_grouplikes_over_another_field_is_a_parse_error(tmp_path):
    """The coalgebra of one grouplike-scan-fp job over F3 and the coefficient
    algebra of another over F5, and the other way round: exit 3 with a
    parse-error line that names both fields, not a traceback."""
    jobs = {job.name: job for job in _perfbench_workloads().grouplike_scan_fp(1).jobs}
    for coalgebra_job, algebra_job, want in [
            ("grouplikes-d1-over-g1-f3", "grouplikes-d1-over-g1-f5", "over F5, coalgebra over F3"),
            ("grouplikes-d1-over-g1-f5", "grouplikes-d1-over-g1-f3", "over F3, coalgebra over F5")]:
        (c_name, c_text), _ = jobs[coalgebra_job].files
        _, (r_name, r_text) = jobs[algebra_job].files
        (tmp_path / c_name).write_text(c_text)
        (tmp_path / r_name).write_text(r_text)
        text, code = run(["grouplikes", str(tmp_path / c_name), "--over", str(tmp_path / r_name)])
        assert code == EXIT_IO
        assert text.splitlines()[1:] == [f"parse-error coefficient algebra {want}", "status error"]


TRACED_JOB = """
import json, sys
sys.path.insert(0, sys.argv[1])
from superscheme import cli
from layertrace import Tracer
import run
tracer = Tracer()
tracer.install()
walls = []
for argv in json.loads(sys.argv[2]):
    text, code = tracer.run_job(len(walls), cli.run, argv)
    # layer_report divides by the summed job walls; their values do not matter here
    walls.append({"wall_s": 1.0, "code": code})
traced = {"layers": tracer.metrics(), "skipped": tracer.skipped, "jobs": walls}
per_layer = run.layer_report(traced, [traced], "test")
print(json.dumps({"skipped": tracer.skipped, "codes": [j["code"] for j in walls],
                  "per_layer": sorted(per_layer)}))
"""


def test_traced_run_measures_every_per_layer_metric(files):
    """In a fresh interpreter the perfbench layer tracer wraps every span of
    an imported superscheme.cli but formal_scheme.is_flat, and a traced run
    yields every per_layer metric that BENCHMARK.json names, the
    layer.<module>.self_s sums by run.py's own rule included."""
    jobs = [["report-all", files["g2.alg"]], ["report-all", files["d3.coalg"]],
            ["flat-check", files["collapse.mor"]]]
    proc = _fresh("-c", TRACED_JOB, str(ROOT / "perfbench"), json.dumps(jobs))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["skipped"] == ["formal_scheme.is_flat"]
    assert result["codes"] == [EXIT_OK] * len(jobs)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert result["per_layer"] == sorted(m["name"] for m in benchmark["per_layer"])


def test_ksdim_and_theorems(files):
    text = _ok(["ksdim", files["pres.pres"], "--oracle"])
    assert "ksdim 1|1" in text and "oracle-even 1" in text
    text2 = _ok(["check-thm513", files["presmor.pres"]])
    assert "flat-mode split-projection" in text2
    assert "even-equality True" in text2
    text3 = _ok(["check-thm515", files["twopres.pres"]])
    assert "even-additive True" in text3 and "odd-superadditive True" in text3


def test_corpus_and_report_all(files):
    assert "status ok" in _ok(["corpus", "--seed", "5"])
    text = _ok(["report-all", files["g2.alg"]])
    assert "algebra G2 ksdim-finite 0|2" in text


def test_exit_codes(files, tmp_path):
    _, code = run(["validate", str(tmp_path / "missing.alg")])
    assert code == EXIT_IO
    p = tmp_path / "char2.alg"
    p.write_text("superscheme 1\nfield Fp 2\n")
    _, code2 = run(["validate", str(p)])
    assert code2 == EXIT_IO
    # group-like enumeration over Q is unsupported
    d3 = tmp_path / "d3q.coalg"
    d3.write_text(serialize_document(QQ, [("C", divided_power(1))]))
    qalg = serialize_document(QQ, [("R", grassmann(0))])
    r = tmp_path / "r.alg"
    r.write_text(qalg)
    _, code3 = run(["grouplikes", str(d3), "--over", str(r)])
    assert code3 == EXIT_UNSUPPORTED
    _, code4 = run(["no-such-command"])
    assert code4 == EXIT_IO


def test_malformed_field_lines_are_parse_errors(tmp_path):
    p = tmp_path / "bad.coalg"
    for bad in ["field", "field ext poly 1 0 1 name j",
                "field ext Fp 3 poly 1 0 1 name", "field ext Fp 3 poly 1 z 1 name j"]:
        p.write_text(f"superscheme 1\n{bad}\n")
        text, code = run(["validate", str(p)])
        assert code == EXIT_IO, (bad, text)
        assert text.splitlines()[1].startswith("parse-error"), (bad, text)


UPPER_TRIANGULAR_DUAL = """object coalgebra {name}
  basis a even
  basis b even
  basis c even
  counit 0 1
  counit 2 1
  delta 0 0 0 1
  delta 1 0 1 1
  delta 1 1 2 1
  delta 2 2 2 1
end
"""


# every command that reads an object file, with the options it needs
FILE_COMMANDS = [
    ["dual"], ["radical"], ["coradical"], ["filtration"],
    ["wedge", "--x", "X", "--y", "Y"], ["components"], ["grouplikes"],
    ["cotensor"], ["product"], ["coproduct"], ["fiber-product", "--f", "f", "--g", "g"],
    ["fiber", "--morphism", "f", "--point", "0"], ["base-change", "--minpoly", "1 0 1"],
    ["immersion-check"], ["flat-check"], ["descent-check", "--depth", "1"],
    ["finite-check"], ["ksdim"], ["check-thm513"], ["check-thm515"],
    ["validate"], ["report-all"],
]


def test_invalid_coalgebra_is_an_axiom_failure(tmp_path):
    # coassociative and counital, but not cocommutative: its dual algebra is
    # the noncommutative upper triangular 2x2 matrices
    p = tmp_path / "upper.coalg"
    p.write_text("superscheme 1\nfield Q\n" + UPPER_TRIANGULAR_DUAL.format(name="T")
                 + UPPER_TRIANGULAR_DUAL.format(name="U"))
    for command, *options in FILE_COMMANDS:
        text, code = run([command, str(p)] + options)
        assert code == EXIT_FAIL, (command, text)
        lines = text.splitlines()
        if command in ("validate", "report-all"):
            # these two report each object's problems themselves
            assert lines[-1] == "status fail", (command, text)
            continue
        assert lines == [
            "superscheme-report error",
            "axiom-failure invalid super-coalgebra T: "
            "cocommutativity: delta(b) asymmetric at (a,b); "
            "cocommutativity: delta(b) asymmetric at (b,a); "
            "cocommutativity: delta(b) asymmetric at (b,c)",
            "status fail"], (command, text)


@pytest.mark.parametrize("command", ["radical", "dual"])
def test_invalid_algebra_is_an_axiom_failure(files, command):
    # bad.alg breaks supercommutativity; radical used to compute on it
    text, code = run([command, files["bad.alg"]])
    assert code == EXIT_FAIL, text
    assert text.splitlines() == [
        "superscheme-report error",
        "axiom-failure invalid superalgebra G2: supercommutativity: "
        "th1*th2 != (-1)^|x||y| th2*th1; supercommutativity: th2*th1 != (-1)^|x||y| th1*th2",
        "status fail"]


def test_references_are_checked_before_computing(tmp_path):
    G = serialize_document(QQ, [("G", grassmann(1)), ("D", divided_power(1)),
                                ("GK", grouplike_coalgebra(2))])
    cases = [
        ("object comodule M over G\n  basis m even\n  coaction 0 0 0 1\nend\n",
         ["validate"], "parse-error object 'G' has kind algebra, expected coalgebra"),
        ("object tower T\n  level D\n  level D\n  tmap D\nend\n",
         ["validate"], "parse-error object 'D' has kind coalgebra, expected morphism"),
        ("object subspace X over GK\n  row 1 0\nend\n", ["wedge", "--x", "X", "--y", "X"],
         "parse-error wedge needs two subspaces of coalgebra D"),
        ("object morphism f from D to D\n  map 0 0 1\n  map 1 1 1\nend\n"
         "object morphism g from GK to GK\n  map 0 0 1\n  map 1 1 1\nend\n",
         ["fiber-product", "--f", "f", "--g", "g"],
         "parse-error morphisms f and g have different targets"),
    ]
    p = tmp_path / "refs.obj"
    for extra, (command, *options), line in cases:
        p.write_text(G + extra)
        text, code = run([command, str(p)] + options)
        assert code == EXIT_IO and text.splitlines()[1] == line, text


def test_report_all_skips_objects_over_an_invalid_coalgebra(files, tmp_path):
    # delta(x1) = x1 (x) g breaks the counit of C; the trivial comodule N
    # reads only delta(g) and eps(g), so it satisfies its own axioms
    p = tmp_path / "mods.comod"
    p.write_text(Path(files["mods.comod"]).read_text().replace("  delta 1 1 0 1\n", ""))
    text, code = run(["report-all", str(p)])
    assert code == EXIT_FAIL
    assert "coalgebra C valid False" in text and "comodule N valid True" in text, text
    assert "flat" not in text, text


def test_flat_check_validates_its_comodule(tmp_path):
    # psi(n) = 0 breaks the counit axiom; computing on it used to escape as
    # an AssertionError from flat_check
    p = tmp_path / "bad.comod"
    p.write_text("""superscheme 1
field Q
object coalgebra C
  basis g even
  basis x odd
  counit 0 1
  delta 0 0 0 1
  delta 1 0 1 1
  delta 1 1 0 1
end
object comodule M over C
  basis m even
  basis n odd
  coaction 0 0 0 1
  coaction 0 1 1 1
end
""")
    assert run(["validate", str(p)])[1] == EXIT_FAIL
    text, code = run(["flat-check", str(p)])
    assert code == EXIT_FAIL
    assert text.splitlines() == [
        "superscheme-report error",
        "axiom-failure invalid super-comodule M: counit: (id(x)eps)psi(n) != n; "
        "coassociativity fails on m at (n,0,1)",
        "status fail"]


def test_grouplikes_over_validates_its_algebra(files, tmp_path):
    # without th1*1 = th1 the morphism search would run on a non-unital R
    p = tmp_path / "bad.alg"
    p.write_text(Path(files["r3.alg"]).read_text().replace("  mul 1 0 1 1\n", ""))
    text, code = run(["grouplikes", files["gdual3.coalg"], "--over", str(p)])
    assert code == EXIT_FAIL
    assert text.splitlines()[1].startswith("axiom-failure invalid superalgebra R: unit: ")


def test_grouplikes_over_prints_every_entry_as_its_field_formats_it(tmp_path):
    """Each grouplike line is the coefficient matrix read row-major, zeros
    included, each entry as the field formats it: over F9 an entry is its
    two coordinates."""
    F9 = ExtensionField(F3, (1, 0, 1), "j")
    C, R = dualize_algebra(grassmann(1, F9)), grassmann(1, F9)
    (tmp_path / "c.ss").write_text(serialize_document(F9, [("C", C)]))
    (tmp_path / "r.ss").write_text(serialize_document(F9, [("R", R)]))
    text, code = run(["grouplikes", str(tmp_path / "c.ss"), "--over", str(tmp_path / "r.ss")])
    want = []
    for u in grouplikes_over(C, R):
        entries = [dict(row).get(m, F9.zero) for row in u for m in range(C.dim)]
        want.append("grouplike " + " ".join(F9.format(c) for c in entries))
    assert code == EXIT_OK and len(want) == 9
    assert [l for l in text.splitlines() if l.startswith("grouplike ")] == want


def test_grouplikes_of_the_zero_coalgebra(tmp_path):
    """The zero coalgebra Z has no group-like.  Its points over R are the
    morphisms 0 -> R, and phi(1) = 1_R where 1 = 0: one point, with no
    entry, over R = 0, and none over R = k."""
    E = SuperVectorSpace(F3, (), ())
    (tmp_path / "z.ss").write_text(serialize_document(F3, [("Z", make_supercoalgebra(E, [], []))]))
    (tmp_path / "k.ss").write_text(serialize_document(F3, [("R", grassmann(0, F3))]))
    (tmp_path / "zero.ss").write_text(serialize_document(F3, [("R", make_superalgebra(E, [], []))]))

    def counted(*over):
        text, code = run(["grouplikes", str(tmp_path / "z.ss"), *over])
        assert code == EXIT_OK, text
        return [l for l in text.splitlines() if l.startswith("grouplike")]

    assert counted() == ["grouplike-count 0"]
    assert counted("--over", str(tmp_path / "k.ss")) == ["grouplike-count 0"]
    assert counted("--over", str(tmp_path / "zero.ss")) == ["grouplike-count 1", "grouplike"]


def test_grouplikes_over_prunes_at_the_first_deciding_level(tmp_path, monkeypatch):
    """Points of (t2 (x) t2)* over R = k[x]/(x^5), F3: the images r of the
    generators u = 1 (x) x and v = x (x) 1 must each have r^3 = 0, so r
    lies in (x^2) and there are 27^2 hits.  u^3 = 0 is checked as soon as
    the image of u is chosen, so the six words of level 1 (v, uv, u^2 v,
    v^2, uv^2, u^2 v^2) get values on 27 * 243 assignments, not on all
    243^2 of an unpruned search."""
    t2 = truncated_polynomial(2, F3)
    (tmp_path / "c.ss").write_text(
        serialize_document(F3, [("C", dualize_algebra(tensor_superalgebra(t2, t2)))]))
    (tmp_path / "r.ss").write_text(serialize_document(F3, [("R", truncated_polynomial(4, F3))]))
    products = []
    multiply = SuperAlgebra.multiply

    def counting(self, x, y):
        products.append(None)
        return multiply(self, x, y)

    monkeypatch.setattr(SuperAlgebra, "multiply", counting)
    start = time.perf_counter()
    text, code = run(["grouplikes", str(tmp_path / "c.ss"), "--over", str(tmp_path / "r.ss")])
    seconds = time.perf_counter() - start
    assert code == EXIT_OK and "grouplike-count 729" in text.splitlines(), text
    assert len(products) < 6 * 243 ** 2
    assert seconds < 1.0


def test_huge_rational_constant_is_unsupported(tmp_path):
    p = tmp_path / "huge.alg"
    A = quotient_ring_algebra([Fraction(-10 ** 700), Fraction(0), Fraction(1)], QQ)
    p.write_text(serialize_document(QQ, [("A", A)]))
    text, code = run(["report-all", str(p)])
    assert code == EXIT_UNSUPPORTED
    assert "unsupported rational root search" in text and "10^12" in text


def test_byte_identical_runs(files):
    argv = ["grouplikes", files["gdual3.coalg"], "--over", files["r3.alg"]]
    outs = {run(argv)[0] for _ in range(3)}
    assert len(outs) == 1
    # argparse rejects an unknown option with exit 3
    assert run(["--threads", "4"] + argv)[1] == EXIT_IO


def _one_job_per_command(files):
    return [
        ["validate", files["g2.alg"]],
        ["dual", files["g2.alg"]],
        ["radical", files["g2.alg"]],
        ["coradical", files["d3.coalg"]],
        ["filtration", files["d3.coalg"]],
        ["wedge", files["wedge.coalg"], "--x", "X", "--y", "Y"],
        ["components", files["f9split.coalg"]],
        ["grouplikes", files["gdual3.coalg"], "--over", files["r3.alg"]],
        ["product", files["pair.coalg"]],
        ["coproduct", files["pair.coalg"]],
        ["cotensor", files["mods.comod"]],
        ["fiber-product", files["collapse.mor"], "--f", "f", "--g", "f"],
        ["fiber", files["collapse.mor"], "--morphism", "f", "--point", "0"],
        ["base-change", files["f9split.coalg"], "--minpoly", "1 0 1"],
        ["immersion-check", files["inclusion.mor"]],
        ["flat-check", files["collapse.mor"]],
        ["descent-check", files["collapse.mor"], "--depth", "1"],
        ["finite-check", files["collapse.mor"]],
        ["ksdim", files["pres.pres"]],
        ["check-thm513", files["presmor.pres"]],
        ["check-thm515", files["twopres.pres"]],
        ["corpus", "--seed", "2"],
        ["report-all", files["collapse.mor"]],
    ]


def test_every_command_deterministic(files):
    for argv in _one_job_per_command(files):
        a = run(argv)
        b = run(argv)
        assert a == b, argv


def test_only_the_cli_process_runs_without_the_collector(files):
    """cli.main switches the cyclic collector off for its one-shot process;
    run, which the library and the benchmark call in-process, leaves it on."""
    assert gc.isenabled()
    assert run(["validate", files["g2.alg"]])[1] == EXIT_OK
    assert gc.isenabled()
    proc = _fresh("-c", "import gc, sys\nfrom superscheme import cli\n"
                  "code = cli.main(['validate', sys.argv[1]])\n"
                  "print(code, gc.isenabled(), file=sys.stderr)", files["g2.alg"])
    assert proc.returncode == 0 and proc.stderr == "0 False\n", proc.stderr


def test_commands_make_no_reference_cycles(files):
    """cli.main runs without the cyclic collector, so no command may leave
    cyclic garbage.  Every command runs through run with the collector off,
    on valid input and on paths that raise (an invalid structure, a missing
    file, a bad argument, an unsupported computation); the cycles that
    gc.collect() then finds are argparse's alone: its help formatters hold
    their sections, which hold them."""
    cases = _one_job_per_command(files) + [
        ["radical", files["bad.alg"]], ["report-all", files["bad.alg"]],
        ["validate", "missing.ss"], ["dual", files["g2.alg"], "--bogus"],
        ["descent-check", files["collapse.mor"], "--depth", str(10 ** 6)],
        ["ksdim", files["pres.pres"], "--oracle"],
        ["grouplikes", files["gdual3.coalg"], "--over", files["r3.alg"]],
        ["report-all", files["g2.alg"]], ["report-all", files["f9split.coalg"]],
    ]
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv in cases:
            run(argv)
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    ids = {id(o) for o in garbage}
    stack = [o for o in garbage if type(o).__module__ == "argparse"]
    seen = {id(o) for o in stack}
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if id(ref) in ids and id(ref) not in seen:
                seen.add(id(ref))
                stack.append(ref)
    assert [type(o).__name__ for o in garbage if id(o) not in seen] == []


def _fuzz_inputs():
    """Small corpus object files and the commands that read each of them."""
    GK, K, D1, D2 = grouplike_coalgebra(2), unit_coalgebra(QQ), divided_power(1), divided_power(2)
    f = SchemeMorphism.finite(dense_columns(QQ, [[QQ.one, QQ.one]]), GK, K)
    # the counit collapse of Grassmann(2)*, whose source has odd basis vectors
    G2d = dualize_algebra(grassmann(2, F3))
    K3 = unit_coalgebra(F3)
    g = SchemeMorphism.finite(linear_form(G2d.dim, G2d.counit), G2d, K3)
    from superscheme.supercomodule import regular_comodule, trivial_comodule
    from superscheme.superlinear import unit_vec
    coalg = serialize_document(QQ, [("D2", D2), ("GK", GK)]) + (
        "object subspace X over D2\n  row 1 0 0\nend\n"
        "object subspace Y over D2\n  row 1 0 0\n  row 0 1 0\nend\n")
    texts = {
        "alg": serialize_document(QQ, [("G2", grassmann(2))]),
        "alg3": serialize_document(F3, [("R", quotient_ring_algebra([F3.one, F3.zero, F3.one], F3))]),
        "coalg": coalg,
        "comod": serialize_document(QQ, [("C", D1), ("M", regular_comodule(D1), "C"),
                                         ("N", trivial_comodule(D1, unit_vec(QQ, 0)), "C")]),
        "mor": serialize_document(QQ, [("GK", GK), ("K", K), ("f", f, None, ("GK", "K"))]),
        # an explicit zero on delta(1*) at 1* (x) th1*: one scalar mutation
        # makes G fail its parity axiom under a morphism out of it
        "mor_odd": serialize_document(
            F3, [("G", G2d), ("K", K3), ("f", g, None, ("G", "K"))]).replace(
                "  counit 0 1\n", "  counit 0 1\n  delta 0 0 1 0\n", 1),
        "tower": serialize_document(QQ, [("D1", D1), ("D2", D2)]) + (
            "object morphism i from D1 to D2\n  map 0 0 1\n  map 1 1 1\nend\n"
            "object tower T\n  level D1\n  level D2\n  tmap i\nend\n"),
        "pres": ("superscheme 1\nfield Q\n"
                 "object presentation S\n  evar T U\n  ovar a b\n  gen T a\nend\n"
                 "object presentation Y\n  evar T\n  ovar a\nend\n"
                 "object presmorphism proj from S to Y\n  eimage T T\n  oimage a a\nend\n"),
    }
    commands = {
        "alg": [["radical"], ["dual"]],
        "alg3": [["radical"], ["dual"]],
        "coalg": [["dual"], ["coradical"], ["filtration"], ["components"], ["grouplikes"],
                  ["product"], ["coproduct"], ["base-change", "--minpoly", "1 0 1"],
                  ["wedge", "--x", "X", "--y", "Y"]],
        "comod": [["cotensor"], ["flat-check"]],
        "mor": [["flat-check"], ["descent-check", "--depth", "1"],
                ["fiber", "--morphism", "f", "--point", "0"],
                ["fiber-product", "--f", "f", "--g", "f"], ["immersion-check"],
                ["finite-check"]],
        "mor_odd": [["flat-check"], ["descent-check", "--depth", "1"], ["immersion-check"]],
        "tower": [],
        "pres": [["ksdim"], ["check-thm513"], ["check-thm515"]],
    }
    return [(texts[key], argv) for key in texts
            for argv in commands[key] + [["validate"], ["report-all"]]]


FUZZ_INPUTS = _fuzz_inputs()


def _mutate(text, kind, index, scalar):
    lines = text.splitlines()
    i = index % len(lines)
    tokens = lines[i].split()
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "truncate":
        lines[i] = " ".join(tokens[:-1])
    elif kind == "first":
        lines[i] = " ".join(tokens[:1])
    else:
        lines[i] = " ".join(tokens[:-1] + [scalar])
    return "\n".join(lines) + "\n"


@seed(20261018)
@given(case=st.sampled_from(FUZZ_INPUTS),
       kind=st.sampled_from(["delete", "duplicate", "truncate", "first", "scalar"]),
       index=st.integers(min_value=0, max_value=200),
       # a scalar, or the name of an object of another kind
       scalar=st.sampled_from(["0", "1", "-1", "2", "1/2", "x", "C", "GK", "f", "S"]))
@settings(max_examples=150, deadline=None, database=None)
def test_mutated_inputs_keep_the_exit_code_contract(tmp_path_factory, case, kind, index, scalar):
    text, (command, *options) = case
    path = tmp_path_factory.mktemp("fuzz") / "input.obj"
    path.write_text(_mutate(text, kind, index, scalar))
    report, code = run([command, str(path)] + options)
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_UNSUPPORTED, EXIT_IO), report
    assert any(line.startswith("status ") for line in report.splitlines()), report


def test_every_line_cut_to_its_keyword_keeps_the_exit_code_contract(tmp_path):
    """The "first" mutation of every line of every fuzz input, each read by
    report-all: a line left with its keyword alone never ends in a
    traceback."""
    path = tmp_path / "input.obj"
    for text in dict.fromkeys(text for text, _ in FUZZ_INPUTS):
        for index in range(len(text.splitlines())):
            path.write_text(_mutate(text, "first", index, None))
            report, code = run(["report-all", str(path)])
            assert code in (EXIT_OK, EXIT_FAIL, EXIT_UNSUPPORTED, EXIT_IO), report
            assert report.splitlines()[-1].startswith("status "), report


PARITY_BROKEN_SOURCE = """superscheme 1
field Fp 3
object coalgebra A
  basis g even
  basis x odd
  counit 0 1
  delta 0 0 0 1
  delta 1 0 1 1
  delta 1 1 0 1
  delta 0 0 1 1
end
object coalgebra B
  basis h even
  counit 0 1
  delta 0 0 0 1
end
object morphism f from A to B
  map 0 0 1
end
"""


@pytest.mark.parametrize("command", ["validate", "report-all"])
def test_a_morphism_out_of_a_coalgebra_failing_parity_is_reported(tmp_path, command):
    """delta(g) hits g (x) x, so A fails its parity axiom and its coproduct
    is not even: the morphism out of it names the invalid source instead of
    building that map, and the report ends with exit 1."""
    path = tmp_path / "parity.ss"
    path.write_text(PARITY_BROKEN_SOURCE)
    text, code = run([command, str(path)])
    assert code == EXIT_FAIL
    assert text.endswith("status fail\n") and "Traceback" not in text
    if command == "validate":
        assert text.splitlines()[-3:-1] == [
            "object f FAIL", "  violation f source level 0 is not a valid super-coalgebra"]
    else:
        assert text.splitlines()[-3:-1] == ["coalgebra B grouplikes 1", "morphism f valid False"]
        assert "coalgebra A valid False" in text.splitlines()


def test_fiber_product_reports_a_carrier_that_is_not_a_subcoalgebra(files, monkeypatch):
    """fiber_product makes its one subcoalgebra test in subcoalgebra_on; a
    graded carrier that fails it is a closure failure with exit 1."""
    from superscheme import formal_scheme
    from superscheme.superlinear import Subspace
    real = formal_scheme._fiber_product_carrier

    def skewed(f, g):
        carrier, A1, A2 = real(f, g)
        # g1 (x) g1 + g2 (x) g2 is even, but its coproduct has cross terms
        # outside W (x) W
        return Subspace.from_vectors(carrier.space, [sparse(QQ, [QQ.one, QQ.zero, QQ.zero,
                                                                QQ.one])]), A1, A2

    monkeypatch.setattr(formal_scheme, "_fiber_product_carrier", skewed)
    tests_made = _count_calls(monkeypatch, "supercoalgebra", "subcoalgebra_on")
    text, code = run(["fiber-product", files["collapse.mor"], "--f", "f", "--g", "f"])
    assert (text, code) == ("superscheme-report error\nclosure-failure restricted "
                            "coproduct does not close on the cotensor carrier\n"
                            "status error\n", EXIT_FAIL)
    assert len(tests_made) == 1


def test_fiber_reports_a_carrier_that_is_not_a_subcoalgebra(files, monkeypatch):
    """fiber makes its one subcoalgebra test in subcoalgebra_on; a graded
    preimage that fails it is a closure failure with exit 1, not a traceback."""
    from superscheme import formal_scheme
    from superscheme.superlinear import Subspace

    def skewed(M, W):
        # g1 + g2 is even, but its coproduct g1 (x) g1 + g2 (x) g2 leaves W (x) W
        return Subspace.from_vectors(M.space, [sparse(QQ, [QQ.one, QQ.one])]), (1, 0)

    monkeypatch.setattr(formal_scheme, "preimage", skewed)
    text, code = run(["fiber", files["collapse.mor"], "--morphism", "f", "--point", "0"])
    assert (text, code) == ("superscheme-report error\nclosure-failure restricted "
                            "coproduct does not close on the cotensor carrier\n"
                            "status error\n", EXIT_FAIL)
    assert "Traceback" not in text


# The fiber and finite-check reports of seeded_random("morphism", 0..4) over
# F3 and Q, per entry: the sha256 of the serialized input, the finite-check
# lines after "morphism f" and, per point i, the fiber lines after "point i".
PINNED_FIBER_REPORTS = {
    ("F3", 0): ("775235860d5098d46c29aa6a1e446238aa0bb34ed3ef7479fe3a3f1a56c9bbd1",
                ("finite True", "max-fiber-dim 1", "bounded-degree 1"),
                [("fiber-dim 1", "fiber-sdim 1|0")]),
    ("F3", 1): ("5c3b018e6d5fc5f09a50a74ebcad2aa8f69252ff460c07601c22c96a9372ce1d",
                ("finite True", "max-fiber-dim 1", "bounded-degree 1"),
                [("fiber-dim 1", "fiber-sdim 1|0")]),
    ("F3", 2): ("e14ae967f6a6e0440b1780c9e981581b47078ee350b9ca7d65d00042526a9308",
                ("finite True", "max-fiber-dim 1", "bounded-degree 1"),
                [("fiber-dim 0", "fiber-sdim 0|0"),
                 ("fiber-dim 0", "fiber-sdim 0|0"),
                 ("fiber-dim 1", "fiber-sdim 1|0")]),
    ("F3", 3): ("8691506163007fb708dddd3fcee14754d1eec20060f4e41db355704eb1083288",
                ("finite True", "max-fiber-dim 1", "bounded-degree 1"),
                [("fiber-dim 1", "fiber-sdim 1|0")]),
    ("F3", 4): ("7230fe494b833ad737795d41cee355a2240ac2e25fbc108ab5d480bb867ce67a",
                ("finite True", "max-fiber-dim 1", "bounded-degree 1"),
                [("fiber-dim 0", "fiber-sdim 0|0"),
                 ("fiber-dim 0", "fiber-sdim 0|0"),
                 ("fiber-dim 1", "fiber-sdim 1|0")]),
    ("Q", 0):  ("e9250fcb8a44cf09f550e84964878b87f5f8c6b7b790562b0daeb1711dd1ff24",
                ("finite True", "max-fiber-dim 1", "bounded-degree 1"),
                [("fiber-dim 1", "fiber-sdim 1|0")]),
    ("Q", 1):  ("4ed4d8686ee70304cf7674c00b68ebf34a230eea81b3257a5c5619c744331168",
                ("finite True", "max-fiber-dim 1", "bounded-degree 1"),
                [("fiber-dim 1", "fiber-sdim 1|0")]),
    ("Q", 2):  ("1a2ea77b44c2bd85064ef7638ddd7e47fd8a64afbd18eeb926cf8f6ae3a9e057",
                ("finite True", "max-fiber-dim 1", "bounded-degree 1"),
                [("fiber-dim 1", "fiber-sdim 1|0"),
                 ("fiber-dim 0", "fiber-sdim 0|0"),
                 ("fiber-dim 0", "fiber-sdim 0|0")]),
    ("Q", 3):  ("bf220a1bf09ad9f9f5786531121b5e7a621eb90c3417e2c693decc0b0c5c4a07",
                ("finite True", "max-fiber-dim 1", "bounded-degree 1"),
                [("fiber-dim 1", "fiber-sdim 1|0")]),
    ("Q", 4):  ("812c96741d6e0a1a2dbb7217ef5cbe8505b32d1743e73b6c829bb76aa9566e24",
                ("finite True", "max-fiber-dim 1", "bounded-degree 1"),
                [("fiber-dim 1", "fiber-sdim 1|0"),
                 ("fiber-dim 0", "fiber-sdim 0|0"),
                 ("fiber-dim 0", "fiber-sdim 0|0")]),
}


@pytest.mark.parametrize("key", sorted(PINNED_FIBER_REPORTS), ids=lambda k: f"{k[0]}-{k[1]}")
def test_fiber_and_finite_check_reports_are_pinned(tmp_path, key):
    """The reports of finite-check and of fiber at every point are pinned
    byte for byte, and one point past the last is out of range."""
    name, seed = key
    F = {"F3": F3, "Q": QQ}[name]
    digest, finite_lines, fiber_lines = PINNED_FIBER_REPORTS[key]
    (f,) = seeded_random("morphism", seed, field=F).payload
    path = tmp_path / "m.ss"
    path.write_text(serialize_document(F, [("A", f.source), ("B", f.target),
                                           ("f", f, None, ("A", "B"))]))

    def report(command, *lines):
        return "\n".join([f"superscheme-report {command}", "tool-version 0.1.0",
                          f"input {path} sha256 {digest}", "morphism f", *lines,
                          "status ok"]) + "\n"

    assert run(["finite-check", str(path)]) == (report("finite-check", *finite_lines), EXIT_OK)
    for i, lines in enumerate(fiber_lines):
        assert run(["fiber", str(path), "--morphism", "f", "--point", str(i)]) == \
            (report("fiber", f"point {i}", *lines), EXIT_OK)
    text, code = run(["fiber", str(path), "--morphism", "f", "--point", str(len(fiber_lines))])
    count = f"{len(fiber_lines)} point" + "s" * (len(fiber_lines) != 1)
    assert (text, code) == ("superscheme-report error\nargument-error point "
                            f"{len(fiber_lines)} out of range: the target has {count}\n"
                            "status error\n", EXIT_IO)


def test_finite_check_takes_each_preimage_once(tmp_path, monkeypatch):
    """finite-check reads the largest fiber dimension and the degree from
    one pass over the fibers: A is pushed along f once, and each of the 3
    target points of the seed-2 morphism over Q takes one preimage."""
    (f,) = seeded_random("morphism", 2).payload
    path = tmp_path / "m.ss"
    path.write_text(serialize_document(QQ, [("A", f.source), ("B", f.target),
                                            ("f", f, None, ("A", "B"))]))
    pushed = _count_calls(monkeypatch, "formal_scheme", "_pushed")
    preimages = _count_calls(monkeypatch, "supercomodule", "preimage")
    assert "max-fiber-dim 1" in _ok(["finite-check", str(path)])
    assert (len(pushed), len(preimages)) == (1, 3)


# B breaks the counit axiom: delta(h) = 0.
BROKEN_COUNIT = "object coalgebra B\n  basis h even\n  counit 0 1\nend\n"

# Objects added to a file holding the coalgebras D1, D2, GK and K; the last
# lines validate and report-all print before their status line; and the exit
# code of both.
MORPHISM_AND_TOWER_CASES = {
    # f sends the group-like of k to x, which is not group-like
    "map-not-a-coalgebra-morphism": (
        "object morphism f from K to D1\n  map 1 0 1\nend\n",
        ["object f FAIL", "  violation f level 0 map is not a coalgebra morphism"],
        ["morphism f valid False"], EXIT_FAIL),
    "morphism-into-an-invalid-coalgebra": (
        BROKEN_COUNIT + "object morphism f from K to B\n  map 0 0 1\nend\n",
        ["object f FAIL", "  violation f target level 0 is not a valid super-coalgebra"],
        ["coalgebra B valid False", "morphism f valid False"], EXIT_FAIL),
    "two-level-tower": (
        "object morphism i from D1 to D2\n  map 0 0 1\n  map 1 1 1\nend\n"
        "object tower T\n  level D1\n  level D2\n  tmap i\nend\n",
        ["object i pass", "object T pass"],
        ["morphism i valid True", "morphism i closed-immersion True", "morphism i flat False",
         "morphism i faithfully-flat False", "tower T valid True"], EXIT_OK),
    "one-level-tower-with-an-invalid-level": (
        BROKEN_COUNIT + "object tower T\n  level B\nend\n",
        ["object T FAIL", "  violation T level 0 is not a valid super-coalgebra"],
        ["coalgebra B valid False", "tower T valid False"], EXIT_FAIL),
}


def _with_coalgebras(tmp_path, extra):
    path = tmp_path / "objects.ss"
    path.write_text(serialize_document(QQ, [
        ("D1", divided_power(1)), ("D2", divided_power(2)), ("GK", grouplike_coalgebra(2)),
        ("K", unit_coalgebra(QQ))]) + extra)
    return str(path)


@pytest.mark.parametrize("case", sorted(MORPHISM_AND_TOWER_CASES))
def test_morphism_and_tower_reports_are_pinned(tmp_path, case):
    extra, validate_lines, report_lines, code = MORPHISM_AND_TOWER_CASES[case]
    path = _with_coalgebras(tmp_path, extra)
    status = "status ok" if code == EXIT_OK else "status fail"
    for command, lines in (("validate", validate_lines), ("report-all", report_lines)):
        text, got = run([command, path])
        assert got == code, text
        assert text.splitlines()[-len(lines) - 1:] == lines + [status], text


@pytest.mark.parametrize("keyword", ["level", "tmap", "eimage", "oimage"])
def test_a_line_without_the_name_it_needs_is_a_parse_error(tmp_path, keyword):
    """A tower's level and tmap lines and a presmorphism's eimage and
    oimage lines name an object or a variable first; a line with only the
    keyword exits 3 and names the line."""
    path = Path(_with_coalgebras(tmp_path, (
        "object morphism i from D1 to D2\n  map 0 0 1\n  map 1 1 1\nend\n"
        "object tower T\n  level D1\n  level D2\n  tmap i\nend\n"
        "object presentation S\n  evar T U\n  ovar a b\nend\n"
        "object presentation Y\n  evar T\n  ovar a\nend\n"
        "object presmorphism proj from S to Y\n  eimage T T\n  oimage a a\nend\n")))
    lines = path.read_text().splitlines()
    index = next(i for i, line in enumerate(lines) if line.startswith(f"  {keyword} "))
    lines[index] = f"  {keyword}"
    path.write_text("\n".join(lines) + "\n")
    assert run(["report-all", str(path)]) == (
        "superscheme-report error\n"
        f"parse-error line {index + 1}: {keyword} line needs a name after the keyword\n"
        "status error\n", EXIT_IO)


@pytest.mark.parametrize("command", ["validate", "report-all"])
def test_a_tower_with_a_non_injective_transition_is_a_parse_error(tmp_path, command):
    """The counit collapse of two group-likes is a coalgebra map but not
    injective, so it cannot join two levels of a tower."""
    path = _with_coalgebras(tmp_path, (
        "object morphism f from GK to K\n  map 0 0 1\n  map 0 1 1\nend\n"
        "object tower T\n  level GK\n  level K\n  tmap f\nend\n"))
    assert run([command, path]) == (
        "superscheme-report error\n"
        "parse-error invalid tower: transition 0 is not injective\n"
        "status error\n", EXIT_IO)


def test_a_tower_transition_between_other_levels_is_a_parse_error(tmp_path):
    """A tmap runs from its level to the next: i from D1 to D2 cannot join
    the levels D2 and D1."""
    path = _with_coalgebras(tmp_path, (
        "object morphism i from D1 to D2\n  map 0 0 1\n  map 1 1 1\nend\n"
        "object tower T\n  level D2\n  level D1\n  tmap i\nend\n"))
    assert run(["validate", path]) == (
        "superscheme-report error\n"
        "parse-error invalid tower: transition 0 is not a coalgebra morphism\n"
        "status error\n", EXIT_IO)


@pytest.mark.parametrize("entries, bad", [
    ("  map 0 0 1\n  map 1 0 1\n", "(1,0)"),
    ("  map 0 0 1\n  map 1 1 1\n  map 0 1 1\n", "(0,1)"),
])
def test_a_morphism_that_is_not_even_is_a_parse_error(tmp_path, entries, bad):
    """A morphism is even: on the dual of Grassmann(1), of parities 0 and 1,
    an entry joining the two parities exits 3 and names the least such
    (row, column)."""
    path = tmp_path / "odd.mor"
    path.write_text(serialize_document(QQ, [("C", dualize_algebra(grassmann(1)))])
                    + f"object morphism f from C to C\n{entries}end\n")
    assert run(["validate", str(path)]) == (
        "superscheme-report error\n"
        f"parse-error morphism f: entry {bad} violates declared parity 0\n"
        "status error\n", EXIT_IO)
