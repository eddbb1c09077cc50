"""Golden parse outcomes of malformed ``dorroh/1`` documents.

The corpus starts from one canonical document of every kind (algebra and
coalgebra morphisms both count), over Q and GF(5), and derives variants
from it: every key dropped, an unknown key added to every object, every
declared dim off by one, and on every tensor or vector an index out of
range, a duplicate entry, an explicit zero and a non-canonical scalar,
plus a wrong unit or counit, a bad module side and a sequence list one
past MAX_ORDER.
``tests/data/exchange_golden.json`` holds, per variant, the exact
``InputError`` text or, when the variant still parses, the re-emitted
document; the test rebuilds the corpus and requires byte-equal output.

Regenerate the golden file (only for an intended behaviour change) with
``PYTHONPATH=src python tests/test_exchange_golden.py``.
"""

import copy
import json
from pathlib import Path

from dorroh import exchange
from dorroh.algebra import regular_bimodule, verify_algebra_morphism
from dorroh.coalgebra import regular_bicomodule, verify_coalgebra_morphism
from dorroh.errors import InputError
from dorroh.fields import GF, QQ
from dorroh.findual import MAX_ORDER
from dorroh.gallery import divided_power, dual_numbers, fibonacci, regular_copair, regular_pair
from support import identity_comorphism, identity_morphism

GOLDEN = Path(__file__).parent / "data" / "exchange_golden.json"
TENSOR_KEYS = ("mul", "delta", "left", "right", "rho_l", "rho_r")
VECTOR_KEYS = ("unit", "counit", "initial", "recurrence")
NONCANONICAL = {QQ: "2/4", GF(5): "7"}


def _objects(field):
    a, c = dual_numbers(field), divided_power(1, field)
    f, g = identity_morphism(a), identity_comorphism(c)
    verify_algebra_morphism(f, iso=True)
    verify_coalgebra_morphism(g, iso=True)
    return {
        "algebra": a,
        "coalgebra": c,
        "pair-algebra": regular_pair(a),
        "pair-coalgebra": regular_copair(c),
        "module": regular_bimodule(a),
        "comodule": regular_bicomodule(c),
        "morphism-algebra": f,
        "morphism-coalgebra": g,
        "sequence": fibonacci(field),
    }


def _nodes(node, path=()):
    """Every (path, value) below ``node``, parents before children."""
    yield path, node
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _nodes(v, path + (k,))
    elif isinstance(node, list) and not (len(node) == 4 and isinstance(node[0], int)):
        for i, v in enumerate(node):
            yield from _nodes(v, path + (i,))


def _edited(doc, path, edit):
    out = copy.deepcopy(doc)
    parent = out
    for k in path[:-1]:
        parent = parent[k]
    edit(parent, path[-1])
    return out


def _set(value):
    def edit(parent, key):
        parent[key] = value
    return edit


def _variants(doc, field):
    """(name, document) for every variant of one canonical document."""
    bad = NONCANONICAL[field]
    for path, node in _nodes(doc):
        where = "".join(f"[{k!r}]" for k in path)
        if isinstance(node, dict):
            for k in node:
                yield f"drop{where}[{k!r}]", _edited(doc, path + (k,), lambda p, key: p.pop(key))
            yield f"unknown{where}", _edited(doc, path + ("spurious",), _set(1))
        if not path:
            continue
        key = path[-1]
        if key == "dim":
            yield f"dim+1{where}", _edited(doc, path, _set(node + 1))
            yield f"dim-1{where}", _edited(doc, path, _set(node - 1))
            # without labels the short dim reaches the tensor and vector checks
            unlabelled = _edited(doc, path[:-1] + ("labels",), lambda p, k: p.pop(k, None))
            yield f"dim-1,nolabels{where}", _edited(unlabelled, path, _set(node - 1))
        if key == "side":
            yield f"side{where}", _edited(doc, path, _set("up"))
        if key in TENSOR_KEYS:
            first = node[0] if node else [0, 0, 0, "1"]
            rest = node[1:]
            yield f"range{where}", _edited(doc, path, _set([[99, *first[1:]], *rest]))
            yield f"duplicate{where}", _edited(doc, path, _set([first, first, *rest]))
            yield f"zero{where}", _edited(doc, path, _set([[*first[:3], "0"], *rest]))
            yield f"scalar{where}", _edited(doc, path, _set([[*first[:3], bad], *rest]))
        if key in VECTOR_KEYS or (path[-2:-1] == ("matrix",) and key == 0):
            yield f"scalar{where}", _edited(doc, path, _set([bad, *node[1:]]))
            if key in ("initial", "recurrence"):
                yield f"long{where}", _edited(doc, path, _set(node[:1] * (MAX_ORDER + 1)))
            if key in ("unit", "counit"):
                yield f"wrong{where}", _edited(doc, path, _set(["1" if node[0] == "0" else "0", *node[1:]]))


def _outcome(doc):
    try:
        return exchange.emit(exchange.decode(doc))
    except InputError as err:
        return f"InputError: {err}"


def corpus():
    out = {}
    for field in NONCANONICAL:
        for kind, obj in _objects(field).items():
            doc = exchange.encode(obj)
            for name, variant in _variants(doc, field):
                out[f"{field!r}|{kind}|{name}"] = _outcome(variant)
    return out


def render(records):
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in records.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_corpus_matches_golden_outcomes():
    assert render(corpus()) == GOLDEN.read_text()


def test_corpus_reaches_every_payload_parser():
    records = json.loads(GOLDEN.read_text())
    for kind in ("algebra", "coalgebra", "pair-algebra", "pair-coalgebra", "module", "comodule"):
        rejected = [v for k, v in records.items() if f"|{kind}|" in k and v.startswith("InputError")]
        assert any("$.payload" in v for v in rejected), kind


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render(corpus()))
