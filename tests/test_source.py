import ast
from pathlib import Path

import seritree

SOURCE = Path(seritree.__file__).resolve().parent


def test_no_assert_statements():
    # `python -O` strips asserts; invariants must raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
