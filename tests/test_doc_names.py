"""Every private name the docs give must exist in the library.

A private name (``_x``, not a dunder) that a ``src/dorroh`` docstring or
comment sets in double backticks, that README.md sets in backticks, or
that README's "Library layout" block names at all, must be defined or
read somewhere in ``src/dorroh``: a def, a class, a name, an attribute,
an argument or an import.  A helper renamed or folded away otherwise
lives on in the prose that explains the code.

Bare names are read only in the layout block: elsewhere an underscore
also writes math (``e_j``) and name patterns (``verify_*_morphism``).
"""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dorroh"
README = ROOT / "README.md"

# a private identifier, not the tail of a longer word, a pattern or a dunder
PRIVATE = re.compile(r"(?<![\w*])_[A-Za-z]\w*")
DOUBLE_TICKS = re.compile(r"``(.+?)``")
TICKS = re.compile(r"`([^`\n]+)`")
FENCE = re.compile(r"^```.*?^```", re.S | re.M)


def _library_names() -> set:
    names = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name)
    return names


def _source_prose(path: Path):
    """(line, text) of every docstring and comment of a module."""
    text = path.read_text()
    for node in ast.walk(ast.parse(text, filename=str(path))):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield node.body[0].lineno, doc
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT:
            yield token.start[0], token.string


def _layout_block(readme: str) -> str:
    tail = readme.split("## Library layout", 1)[1]
    return FENCE.search(tail).group(0)


def _places() -> dict:
    """Each checked place: the private names it gives, with where."""
    places = {"source": [], "readme": [], "layout": []}
    for path in sorted(SRC.glob("*.py")):
        for line, prose in _source_prose(path):
            for span in DOUBLE_TICKS.finditer(prose):
                at = line + prose.count("\n", 0, span.start())
                places["source"] += [(f"{path.name}:{at}", name) for name in PRIVATE.findall(span.group(1))]
    readme = README.read_text()
    ticked = TICKS.findall(FENCE.sub("", readme))
    places["readme"] = [("README.md", n) for span in ticked for n in PRIVATE.findall(span)]
    places["layout"] = [("README.md layout", n) for n in PRIVATE.findall(_layout_block(readme))]
    return places


def test_every_private_name_in_the_docs_exists_in_the_library():
    known = _library_names()
    places = _places()
    for where, found in places.items():
        assert found, f"no private name found in {where}: the scan reads nothing"
    missing = [f"{at} {name}" for found in places.values() for at, name in found if name not in known]
    assert missing == []
