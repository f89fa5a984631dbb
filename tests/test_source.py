"""Checks on the package source itself."""

import ast
import inspect
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "superscheme"


def test_no_bare_assert_in_package():
    """Internal invariants raise AssertionError explicitly, so they still
    fire under python -O, which strips assert statements."""
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_catch_all_except_in_package():
    """A handler names the errors it expects, so an internal AssertionError
    is never swallowed: no bare except and no except Exception."""
    catch_all = {"Exception", "BaseException"}
    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ExceptHandler)
             and (node.type is None or catch_all & {n.id for n in ast.walk(node.type)
                                                    if isinstance(n, ast.Name)})]
    assert found == []


def test_no_true_division_in_package():
    """Field elements are divided only through Field.inv: / on two ints
    gives a float, and an element of Q may be an int."""
    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)]
    assert found == []


def _references(tree, name, calls=False):
    """The innermost enclosing function of every reference to name, as a
    variable, an attribute or an import, or with calls set, of every call
    of it; "<module>" at top level."""
    found = []

    def named(node):
        return (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.alias) and node.name == name)

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call) and named(node.func) if calls else named(node):
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_field_arithmetic_in_one_place():
    """Only _sum_ops, the one accumulation rule, asks which field it runs
    over; every other kernel takes the same path for every field."""
    found = {(path.name, scope) for path in sorted(PACKAGE.glob("*.py"))
             for scope in _references(ast.parse(path.read_text(encoding="utf-8")),
                                      "_plain_char")}
    assert found == {("superlinear.py", "_sum_ops")}


def test_structure_maps_in_one_form():
    """cop, delta and psi are stored once, as sparse columns: no converter
    to or from dense [i][j][k] tables is left, and each object is built
    only by its make_*, which puts the columns in canonical form."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    for name in ("flat_columns", "tensor_blocks"):
        assert [scope for tree in trees.values() for scope in _references(tree, name)] == []
    for cls, module, maker in [("SuperAlgebra", "superalgebra.py", "make_superalgebra"),
                               ("SuperCoalgebra", "supercoalgebra.py", "make_supercoalgebra"),
                               ("SuperComodule", "supercomodule.py", "make_supercomodule")]:
        found = {(fname, scope) for fname, tree in trees.items()
                 for scope in _references(tree, cls, calls=True)}
        assert found == {(module, maker)}, cls


def test_vectors_in_one_form():
    """Every vector and matrix row is a sorted tuple of nonzero (index,
    entry) pairs: no dense scan or converter between two forms is left, and
    a Matrix holds its rows in one slot."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]
    for name in ("nonzeros", "_dense", "from_sparse_columns", "_support", "from_support"):
        assert [scope for tree in trees for scope in _references(tree, name)] == [], name
    from superscheme.superlinear import Matrix
    assert set(Matrix.__slots__) - {"field", "nrows", "ncols", "_rref"} == {"rows"}


def test_maps_in_one_orientation():
    """A morphism holds its map as sparse columns in one field, and a Matrix
    holds rows only for elimination: nothing applies a Matrix to a vector,
    and no converter from rows to columns or back is left."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]
    for name in ("_sparse_columns", "from_columns"):
        assert [scope for tree in trees for scope in _references(tree, name)] == [], name
    from superscheme.formal_scheme import SchemeMorphism
    from superscheme.superlinear import Matrix
    assert not hasattr(Matrix, "apply")
    assert set(SchemeMorphism._fields) - {"source", "target"} == {"columns"}


def test_one_product_rule():
    """SuperAlgebra.products is the one sum of products over cop: no other
    helper multiplies two element lists, and multiply, its one-pair case,
    is called only where each product needs the one before it."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    defined = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    for name in ("_products", "_ideal_span"):
        assert name not in defined, name
        assert [scope for tree in trees.values() for scope in _references(tree, name)] == [], name
    found = {(fname, scope) for fname, tree in trees.items()
             for scope in _references(tree, "multiply", calls=True)}
    assert found <= {("superalgebra.py", scope) for scope in (
        "power", "_minimal_polynomial", "_eval_in_algebra", "_semisimple_idempotent",
        "_lift_idempotent", "enumerate_homs")}, found


def test_one_sum_of_products():
    """_tensor_apply_sparse is the one kernel for every linear combination
    of sparse columns, and SuperAlgebra.products the one over cop: only
    these two ask _sum_ops how sums of products accumulate, and the
    validator kernel _coaction_defects, which sums both sides of every
    axiom into one accumulator and builds no image to compare.  No helper
    for a combination, for the counit of one vector or for the action
    matrices of C* is left."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    found = sorted((fname, scope) for fname, tree in trees.items()
                   for scope in _references(tree, "_sum_ops", calls=True))
    assert found == [("superalgebra.py", "_terms"), ("superlinear.py", "_coaction_defects"),
                     ("superlinear.py", "_tensor_apply_sparse")]
    defined = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    for name in ("_combination", "dual_action", "dual_action_of", "counit_value"):
        assert name not in defined, name


def test_a_fiber_is_one_preimage():
    """fiber, finite-check and flat_check read one kernel, psi^-1(M (x) W) =
    ker (id (x) pi) psi for pi: C -> C/W, built by supercomodule.preimage: no
    point scheme and no projection flags are defined, and no other function
    applies a quotient projection and takes a kernel."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    for name in ("point_scheme", "with_projection", "with_projections"):
        defined = [node for tree in trees.values() for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == name
                   or isinstance(node, ast.arg) and node.arg == name]
        assert defined == [], name
        assert [scope for tree in trees.values() for scope in _references(tree, name)] == [], name

    def scopes(tree, *names):
        return {scope for name in names for scope in _references(tree, name)}

    builders = {(fname, scope) for fname, tree in trees.items()
                for scope in scopes(tree, "quotient_data")
                & scopes(tree, "_tensor_apply_sparse", "tensor_apply", "tensor_after")
                & scopes(tree, "null_space", "kernel", "_kernel") - {"<module>"}}
    assert builders == {("supercomodule.py", "preimage")}


def test_a_residue_field_is_its_degree():
    """Every command reports a residue field by its degree alone, so no
    residue descriptor is defined or referenced, and a local factor and a
    component hold only what the commands read."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]
    for name in ("_residue_descriptor", "ResidueField"):
        defined = [node for tree in trees for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name]
        assert defined == [], name
        assert [scope for tree in trees for scope in _references(tree, name)] == [], name
    from superscheme.superalgebra import LocalFactor
    from superscheme.supercoalgebra import Component
    assert LocalFactor._fields == ("idempotent", "degree")
    assert Component._fields == ("coalgebra", "subspace", "degree")


def test_a_map_the_kernel_builds_is_its_columns():
    """Every map is its sparse columns: no map class is defined or named, a
    morphism is its two coalgebras and its columns, and a coalgebra's
    coproduct map is its delta, with no cached copy.  Every map the kernel
    tensors is even, so the tensor kernel takes no Koszul sign, and no
    helper of an algebra of maps is left."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert [scope for tree in trees.values() for scope in _references(tree, "GradedMap")] == []
    defined = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    for name in ("GradedMap", "tensor_apply", "pivot_selection", "counit_map", "_parity_sum"):
        assert name not in defined, name
    from superscheme.formal_scheme import SchemeMorphism
    from superscheme.supercoalgebra import SuperCoalgebra
    from superscheme.superlinear import _tensor_apply_sparse
    assert SchemeMorphism._fields == ("source", "target", "columns")
    assert "_coproduct" not in vars(SuperCoalgebra)
    for name in ("compose", "add", "sub", "zero"):
        assert not hasattr(SchemeMorphism, name), name
    assert "odd" not in inspect.signature(_tensor_apply_sparse).parameters


def test_one_elimination():
    """superlinear.Echelon is the one elimination: no private semi-echelon
    (_reduce, _keep) and no pivot -> row map (row_at) is left beside it,
    and a WordBasis reads its span off its Echelon, with no rows of its
    own."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]
    for name in ("_reduce", "_keep", "row_at"):
        defined = [node for tree in trees for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   and node.name == name]
        assert defined == [], name
        assert [scope for tree in trees for scope in _references(tree, name)] == [], name
    from superscheme.superalgebra import WordBasis
    assert "rows" not in WordBasis.__slots__ and "echelon" in WordBasis.__slots__


def test_one_kernel():
    """superlinear._kernel, one column elimination with an identity tail, is
    the one kernel: no null space is read off the free columns of a row
    reduction, a Matrix is neither transposed nor ranked on its own, and
    every null space, cotensor, intersection, minimal polynomial and socle
    reaches _kernel."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    defined = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert "_null_space_sparse" not in defined
    assert [scope for tree in trees.values()
            for scope in _references(tree, "_null_space_sparse")] == []
    from superscheme.superlinear import Matrix
    for name in ("_transpose", "rank"):
        assert not hasattr(Matrix, name), name
    found = {(fname, scope) for fname, tree in trees.items()
             for scope in _references(tree, "_kernel", calls=True)}
    assert {("superlinear.py", "null_space"), ("superlinear.py", "intersect"),
            ("supercomodule.py", "cotensor_kernel"), ("supercomodule.py", "preimage"),
            ("superalgebra.py", "_minimal_polynomial")} <= found, found


def test_the_descent_complex_decides_the_coequalizer():
    """The coequalizer is read off the complex of O(Y) in degrees 0 and 1:
    no second A box_B A (_coequalizer_check) and no coideal check is left,
    and a subcoalgebra comodule reads its coaction in W (x) C, which is its
    closure check, without building the subcoalgebra.  The subcoalgebra
    takes the same read, with no tensor rebuild of its own."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    defined = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    for name in ("_coequalizer_check", "is_coideal"):
        assert name not in defined, name
        assert [scope for tree in trees.values() for scope in _references(tree, name)] == [], name
    assert "subcoalgebra_comodule" not in _references(trees["supercomodule.py"],
                                                      "subcoalgebra_on")
    assert "subcoalgebra_comodule" in _references(trees["supercomodule.py"],
                                                  "_subcoalgebra_read", calls=True)
    assert "subcoalgebra_on" in _references(trees["supercoalgebra.py"],
                                            "_subcoalgebra_read", calls=True)
    assert "subcoalgebra_on" not in _references(trees["supercoalgebra.py"],
                                                "_tensor_apply_sparse")


# Top-level names of the package that only tests reach.  The list may only
# shrink: a new helper without a caller in src/ or scripts/ fails the guard,
# and a listed one that gains a caller must leave the list.
# canonical_algebras is the named example catalogue the suites sweep.
UNREFERENCED_ALLOWED = {"canonical_algebras"}


def test_no_new_unreferenced_helper():
    """Every top-level function and class of the package, and every method
    and property of its classes other than the dunders, has a word-boundary
    reference outside its own definition somewhere in src/ or scripts/;
    top-level names may instead be on the allowlist, methods may not.  A
    name is an identifier, so a word-boundary match of it is a whole word
    of a line."""
    root = PACKAGE.parent.parent
    places = {}
    for folder in ("src", "scripts"):
        for path in sorted((root / folder).rglob("*.py")):
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
                for word in re.findall(r"\w+", line):
                    places.setdefault(word, []).append((path, n))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def unreferenced(path, node):
        start = min([node.lineno] + [d.lineno for d in node.decorator_list])
        return all(other == path and start <= n <= node.end_lineno
                   for other, n in places[node.name])

    names, methods = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, defs):
                continue
            if unreferenced(path, node):
                names.add(node.name)
            if isinstance(node, ast.ClassDef):
                methods |= {f"{node.name}.{member.name}" for member in node.body
                            if isinstance(member, defs[:2])
                            and not (member.name.startswith("__") and member.name.endswith("__"))
                            and unreferenced(path, member)}
    assert names == UNREFERENCED_ALLOWED
    assert methods == set()
