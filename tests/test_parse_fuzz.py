"""Differential fuzzing of the ``dorroh/1`` parser.

The reference below is the scalar, vector and tensor parsing that
``exchange`` used before it memoised scalar strings per document: it
parses every entry on its own, builds its location string up front and
lets ``SparseTensor3`` canonicalise the entries again.  ``_parse_scalar``,
``_parse_tensor`` and ``_parse_vector`` are kept verbatim; ``Reference``
fits them to the per-document reader that ``exchange.decode`` creates.
``_render``, also verbatim, writes every leaf list with ``json.dumps``;
``exchange.emit`` must give the same text.

For arbitrary JSON values, and for mutations of canonical documents of
every kind over Q and GF(5), ``exchange.parse`` must return the same
object as the reference or raise ``InputError`` with the same text, and
raise nothing else.  ``dorroh check`` on the same documents exits 0, 1
or 2 and nothing else.
"""

import contextlib
import io
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dorroh import cli, exchange
from dorroh.algebra import Algebra, AlgebraMorphism, regular_bimodule, verify_algebra_morphism
from dorroh.coalgebra import regular_bicomodule, verify_coalgebra_morphism
from dorroh.errors import InputError
from dorroh.exchange import _fail
from dorroh.fields import GF, QQ, FieldSpec
from dorroh.gallery import (
    conjugate_algebra,
    conjugate_coalgebra,
    divided_power,
    dual_numbers,
    fibonacci,
    geometric,
    matrix_algebra_2,
    random_invertible,
    regular_copair,
    regular_pair,
    trunc_poly_pair,
)
from dorroh.tensors import SparseTensor3
from support import identity_comorphism, identity_morphism

# ---------------------------------------------------------------------------
# reference: the per-entry parser, verbatim


def _parse_scalar(field, s, path):
    try:
        return field.parse(s)
    except InputError as e:
        _fail(path, str(e))


def _parse_tensor(field, obj, dims, path):
    if not isinstance(obj, list):
        _fail(path, "expected a list of entries")
    entries = {}
    for idx, row in enumerate(obj):
        here = f"{path}[{idx}]"
        if not isinstance(row, list) or len(row) != 4:
            _fail(here, "expected [i, j, k, scalar]")
        i, j, k, s = row
        for t, name in ((i, "i"), (j, "j"), (k, "k")):
            if not isinstance(t, int) or isinstance(t, bool):
                _fail(here, f"index {name} must be an integer")
        if not (0 <= i < dims[0] and 0 <= j < dims[1] and 0 <= k < dims[2]):
            _fail(here, f"index ({i},{j},{k}) out of range for dims {dims}")
        if (i, j, k) in entries:
            _fail(here, f"duplicate entry at ({i},{j},{k})")
        v = _parse_scalar(field, s, here)
        if v == 0:
            _fail(here, "explicit zero entries are not allowed")
        entries[(i, j, k)] = v
    return SparseTensor3(dims, entries, field)


def _parse_vector(field, obj, length, path):
    if not isinstance(obj, list) or len(obj) != length:
        _fail(path, f"expected a list of {length} scalars")
    return [_parse_scalar(field, s, f"{path}[{i}]") for i, s in enumerate(obj)]


def _render(value, indent=0):
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(k)}: {_render(v, indent + 1)}" for k, v in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(value, list):
        if all(not isinstance(x, (dict, list)) for x in value):
            return json.dumps(value, ensure_ascii=False)
        inner = ",\n".join(f"{pad}  {_render(x, indent + 1)}" for x in value)
        return "[\n" + inner + "\n" + pad + "]"
    return json.dumps(value, ensure_ascii=False)


class Reference:
    """The reference functions in the shape of ``exchange._Reader``."""

    def __init__(self, field):
        self.field = field

    def scalar(self, s, path):
        return _parse_scalar(self.field, s, path)

    def scalars(self, items, path):
        return [_parse_scalar(self.field, s, f"{path}[{i}]") for i, s in enumerate(items)]

    def vector(self, obj, length, path):
        return _parse_vector(self.field, obj, length, path)

    def tensor(self, obj, dims, path):
        return _parse_tensor(self.field, obj, dims, path)


# ---------------------------------------------------------------------------
# outcomes


def _fingerprint(x, seen):
    """Everything a parsed object holds, scalars with their types."""
    if x is None or isinstance(x, (bool, int, Fraction, str)):
        return (type(x).__name__, x)
    if isinstance(x, FieldSpec):
        return repr(x)
    if isinstance(x, dict):
        return [(repr(k), _fingerprint(v, seen)) for k, v in sorted(x.items(), key=lambda kv: repr(kv[0]))]
    if isinstance(x, (list, tuple)):
        return [_fingerprint(v, seen) for v in x]
    if id(x) in seen:
        return ("seen", type(x).__name__)
    seen.add(id(x))
    state = vars(x) if hasattr(x, "__dict__") else {k: getattr(x, k) for k in type(x).__slots__}
    return (type(x).__name__, {k: _fingerprint(v, seen) for k, v in sorted(state.items())})


def _outcome(text):
    try:
        obj = exchange.parse(text)
    except InputError as err:
        return f"InputError: {err}"
    return _fingerprint(obj, set())


def _reference_outcome(text):
    with mock.patch.object(exchange, "_Reader", Reference):
        return _outcome(text)


# ---------------------------------------------------------------------------
# documents


def _documents(field):
    rng = random.Random(5)
    a, m2, c = dual_numbers(field), matrix_algebra_2(field), divided_power(2, field)
    f, g = identity_morphism(a), identity_comorphism(c)
    verify_algebra_morphism(f, iso=True)
    verify_coalgebra_morphism(g, iso=True)
    dense = conjugate_algebra(m2, random_invertible(rng, 4, field))
    objects = [
        a,
        dense,
        conjugate_coalgebra(c, random_invertible(rng, 3, field)),
        regular_pair(a),
        trunc_poly_pair(3, field),
        regular_copair(c),
        regular_bimodule(a),
        regular_bicomodule(c),
        f,
        g,
        AlgebraMorphism(m2, dense, random_invertible(rng, 4, field)),
        fibonacci(field),
        geometric(3, field),
    ]
    return [exchange.encode(obj) for obj in objects]


CANONICAL = {field: _documents(field) for field in (QQ, GF(5))}
TENSOR_KEYS = {"mul", "delta", "left", "right", "rho_l", "rho_r"}
VECTOR_KEYS = {"unit", "counit", "initial", "recurrence"}


def _vector_slots(node, path):
    if isinstance(node, list):
        yield "list", path
        for e in range(len(node)):
            yield "scalar", path + (e,)


def _slots(node, path=()):
    """(kind, path) of every value in a document, with the tensors, rows,
    vectors and scalars among them marked."""
    if not isinstance(node, dict):
        return
    for k, v in node.items():
        where = path + (k,)
        yield "node", where
        if k == "s0":
            yield "scalar", where
        elif k in TENSOR_KEYS and isinstance(v, list):
            yield "list", where
            for r in range(len(v)):
                yield "row", where + (r,)
        elif k in VECTOR_KEYS:
            yield from _vector_slots(v, where)
        elif k == "matrix" and isinstance(v, list):
            for r, row in enumerate(v):
                yield from _vector_slots(row, where + (r,))
        else:
            yield from _slots(v, where)


def _get(doc, path):
    for k in path:
        doc = doc[k]
    return doc


def _put(doc, path, value):
    _get(doc, path[:-1])[path[-1]] = value


BAD_SCALARS = st.sampled_from(
    ["2/4", "-0", "07", "+1", " 1", "1.0", "1/1", "-1/-2", "1/0", "", "x", "5", "7", "-1", "-3/4", "10"]
)
HUGE = "9" * 4400
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
scalar_values = st.one_of(
    st.sampled_from(["0", "1"]),
    BAD_SCALARS,
    st.sampled_from(["0", "1", "2", "3", "4", "1/2", "-2/3", HUGE]),
    st.sampled_from([0, 1, True, None, 1.5, [], ["1"], {}]),
)


EDITS = ("scalar", "row", "list", "node")


@st.composite
def mutated(draw):
    """A canonical document with up to three edits, scalar-level ones first."""
    field = draw(st.sampled_from(list(CANONICAL)))
    doc = json.loads(json.dumps(draw(st.sampled_from(CANONICAL[field]))))
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(EDITS))
        slots = [path for kind, path in _slots(doc) if kind == edit]
        if not slots:
            continue
        path = draw(st.sampled_from(slots))
        node = _get(doc, path)
        if edit == "scalar":
            _put(doc, path, draw(scalar_values))
        elif edit == "row" and isinstance(node, list) and len(node) == 4:
            _edit_row(draw, doc, path, list(node))
        elif edit == "list" and isinstance(node, list):
            # repeat one scalar string over many entries, valid or not
            s = draw(scalar_values)
            for i, item in enumerate(node):
                if draw(st.booleans()):
                    if isinstance(item, list) and len(item) == 4:
                        item[3] = s
                    elif not isinstance(item, list):
                        node[i] = s
        else:
            _put(doc, path, draw(json_values))
    return json.dumps(doc)


def _edit_row(draw, doc, path, row):
    edit = draw(st.sampled_from(["index", "bool", "range", "scalar", "shape", "duplicate"]))
    leg = draw(st.integers(0, 2))
    if edit == "duplicate":
        parent = _get(doc, path[:-1])
        parent.insert(draw(st.integers(0, len(parent))), row)
        return
    if edit == "index":
        row[leg] = draw(json_values)
    elif edit == "bool":
        row[leg] = draw(st.booleans())
    elif edit == "range":
        row[leg] = draw(st.sampled_from([-1, 1, 3, 99, 2**70]))
    elif edit == "scalar":
        row[3] = draw(scalar_values)
    else:
        row = draw(st.sampled_from([row[:3], row + ["1"], "1234", None]))
    _put(doc, path, row)


documents = st.one_of(
    json_values.map(json.dumps),
    st.builds(
        lambda kind, payload: json.dumps({"format": "dorroh/1", "field": {"kind": "Q"}, "kind": kind, "payload": payload}),
        st.sampled_from(exchange.KINDS),
        json_values,
    ),
    mutated(),
    mutated(),
    mutated(),
)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents)
def test_parse_matches_the_per_entry_reference(text):
    assert _outcome(text) == _reference_outcome(text)


def test_the_reference_replaces_the_reader():
    read = []

    class Counting(Reference):
        def tensor(self, obj, dims, path):
            read.append(path)
            return super().tensor(obj, dims, path)

    text = exchange.emit(dual_numbers(QQ))
    with mock.patch.object(exchange, "_Reader", Counting):
        exchange.parse(text)
    assert read == ["$.payload.mul"]


# Edits of the last tensor read from the regular pair of the dual numbers,
# each with a scalar string read before it (the units hold "1" and "0"),
# and the failure the per-entry checks give.
SEEN_EDITS = {
    "zero": (lambda rows: rows.__setitem__(0, [*rows[0][:3], "0"]), "[0]: explicit zero entries are not allowed"),
    "duplicate": (lambda rows: rows.append(rows[0]), "[3]: duplicate entry at (0,0,0)"),
    "bool index": (lambda rows: rows.append([True, 1, 1, "1"]), "[3]: index i must be an integer"),
    "out of range": (lambda rows: rows.append([0, 2, 1, "1"]), "[3]: index (0,2,1) out of range for dims (2, 2, 2)"),
    "bad after good": (lambda rows: rows.append([1, 1, 1, "2/4"]), "[3]: non-canonical rational '2/4'"),
    # rows the one-pass read hands back to the per-entry checks
    "float index": (lambda rows: rows.append([1.0, 1, 1, "1"]), "[3]: index i must be an integer"),
    "unhashable scalar": (lambda rows: rows.append([1, 1, 1, ["1"]]), "[3]: scalar must be a string, got list"),
    "integer scalar": (lambda rows: rows.append([1, 1, 1, 1]), "[3]: scalar must be a string, got int"),
    "string row": (lambda rows: rows.append("1234"), "[3]: expected [i, j, k, scalar]"),
    "short row": (lambda rows: rows.append([0, 0, 0]), "[3]: expected [i, j, k, scalar]"),
    "zero before bad shape": (
        lambda rows: rows.__setitem__(0, [*rows[0][:3], "0"]) or rows.append([0, 0, 0]),
        "[0]: explicit zero entries are not allowed",
    ),
    "duplicate before bad scalar": (
        lambda rows: rows.extend([rows[0], [1, 1, 1, "2/4"]]),
        "[3]: duplicate entry at (0,0,0)",
    ),
}


@pytest.mark.parametrize("edit", SEEN_EDITS)
def test_a_scalar_read_before_does_not_mask_a_failure(edit):
    change, message = SEEN_EDITS[edit]
    doc = exchange.encode(regular_pair(dual_numbers(QQ)))
    change(doc["payload"]["i"]["mul"])
    text = json.dumps(doc)
    assert _outcome(text) == _reference_outcome(text) == f"InputError: $.payload.i.mul{message}"


_DOCDIR = tempfile.TemporaryDirectory(prefix="dorroh-fuzz-")


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents)
def test_check_exits_only_0_1_or_2(text):
    path = Path(_DOCDIR.name) / "doc.json"
    path.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["check", str(path)])
    assert code in (0, 1, 2)


# Bytes as a document file may hold them: arbitrary, a document in another
# encoding, or a document with a byte that is not UTF-8 spliced in.
document_bytes = st.one_of(
    st.binary(max_size=64),
    st.builds(lambda text, codec: text.encode(codec), documents, st.sampled_from(("utf-16", "utf-16-le", "latin-1"))),
    st.builds(lambda text, at, byte: text.encode()[:at] + bytes([byte]) + text.encode()[at:],
              documents, st.integers(0, 200), st.integers(0x80, 0xFF)),
)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(document_bytes)
def test_load_reads_any_bytes_as_a_document_or_an_input_error(data):
    """``exchange.load`` returns what ``exchange.parse`` returns on the
    bytes decoded as UTF-8, or raises ``InputError``, and nothing else;
    ``dorroh check`` exits 0, 1 or 2."""
    path = Path(_DOCDIR.name) / "bytes.json"
    path.write_bytes(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        expected = f"InputError: not valid UTF-8: {e}"
    else:
        expected = _outcome(text.replace("\r\n", "\n").replace("\r", "\n"))  # as text mode reads it
    try:
        outcome = _fingerprint(exchange.load(str(path)), set())
    except InputError as err:
        outcome = f"InputError: {err}"
    assert outcome == expected
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["check", str(path)]) in (0, 1, 2)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated())
def test_emit_matches_the_json_dumps_renderer(text):
    try:
        obj = exchange.parse(text)
    except InputError:
        return
    assert exchange.emit(obj) == _render(exchange.encode(obj)) + "\n"


def test_emit_matches_the_json_dumps_renderer_on_escaped_labels():
    dn = dual_numbers(QQ)
    labelled = Algebra(dn.dim, dn.mul, QQ, labels=['"1"', "\u03b5\\\n"])
    docs = [labelled, *(exchange.decode(doc) for docs in CANONICAL.values() for doc in docs)]
    for obj in docs:
        assert exchange.emit(obj) == _render(exchange.encode(obj)) + "\n"
