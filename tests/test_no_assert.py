"""No check in the library may rest on ``assert``.

``python -O`` strips assert statements, so a verification written as one
would silently pass.  Every check must raise or report explicitly.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dorroh"


def test_library_has_no_assert_statements():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
