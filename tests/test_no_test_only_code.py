"""No private library code may live only for the tests.

A private module-level function or class of ``src/dorroh`` that nothing
in the package refers to, besides its own definition, is kept alive by
the tests alone (or by nothing): it belongs in ``tests/support.py``, or
nowhere.  A reference is a name or an attribute spelled like it
anywhere in the package outside the definition itself.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dorroh"


def _names(node):
    """The names and attribute names read anywhere under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_private_definition_has_a_library_reference():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    assert trees
    used = Counter(name for tree in trees.values() for name in _names(tree))
    unused = [
        f"{module}:{node.lineno} {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and used[node.name] == Counter(_names(node))[node.name]
    ]
    assert unused == []
