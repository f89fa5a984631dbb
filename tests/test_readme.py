"""The library quick start of README.md runs and gives its commented results."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_gives_its_commented_results():
    """Each expression line of the block ends in a comment that starts with
    the repr of its value; the other lines run as they are."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S).group(1)
    lines = block.splitlines()
    namespace, shown = {}, []
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        value = repr(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
        comment = lines[node.lineno - 1].split("#", 1)[1].strip()
        assert re.match(re.escape(value) + r"(\Z|[ :])", comment), (value, comment)
        shown.append(value)
    assert shown == ["[1, 3, 4]", "1", "[((0, 1),)]", "FlatVerdict(free=True, rank=(1, 0))",
                     "(1, 1)"]
