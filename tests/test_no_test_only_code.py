"""No library code may live only for the tests.

A private module-level function or class of ``src/dorroh``, or a public
method of one of its classes, that nothing in the package refers to,
besides its own definition, is kept alive by the tests alone (or by
nothing): it belongs in ``tests/support.py``, or nowhere.  A reference
is a name or an attribute spelled like it anywhere in the package
outside the definition itself.  Dunder methods are called by Python.
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


def _unreferenced(candidates):
    """The ``(module, node)`` candidates whose name the package reads only
    inside their own definitions."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    assert trees
    used = Counter(name for tree in trees.values() for name in _names(tree))
    return [
        f"{module}:{node.lineno} {node.name}"
        for module, node in candidates(trees)
        if used[node.name] == Counter(_names(node))[node.name]
    ]


def _definitions(body):
    return (node for node in body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))


def test_every_private_definition_has_a_library_reference():
    def private(trees):
        for module, tree in trees.items():
            for node in _definitions(tree.body):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    yield module, node

    assert _unreferenced(private) == []


def test_every_public_method_has_a_library_reference():
    def public_methods(trees):
        for module, tree in trees.items():
            for cls in tree.body:
                if isinstance(cls, ast.ClassDef):
                    for node in _definitions(cls.body):
                        if not node.name.startswith("_") and not isinstance(node, ast.ClassDef):
                            yield module, node

    assert _unreferenced(public_methods) == []
