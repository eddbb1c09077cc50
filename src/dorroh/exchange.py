"""The ``dorroh/1`` exchange format.

UTF-8 JSON documents with canonical key order and canonical scalar
strings ("a/b" over Q, decimal representative in [0,p) over F_p), so
emit -> parse -> emit is byte-identical.  Sparse tensor entries are
emitted in lexicographic index order; parsing is strict and rejects
out-of-range indices, duplicate entries, explicit zeros and
non-canonical scalars with a location diagnostic.
"""

from __future__ import annotations

import json
from functools import partial

from .algebra import ALGEBRA, SIDES
from .coalgebra import COALGEBRA
from .errors import InputError
from .fields import FieldSpec
from .findual import RecurrentSequence, check_size
from .linalg import Matrix
from .tensors import SparseTensor3

FORMAT = "dorroh/1"
KINDS = (
    "algebra",
    "coalgebra",
    "pair-algebra",
    "pair-coalgebra",
    "module",
    "comodule",
    "morphism",
    "sequence",
)
VERIFIED = ("unchecked", "hom", "iso")

# The largest side of a morphism matrix ``emit`` writes.  A document holds
# a matrix as dense rows, so a short document declaring a large dim (the
# associator of ``dorroh iso --which associator``, a duality witness) would
# otherwise ask for n^2 output; at the cap an emitted identity is 1.3 MB.
# Matrices in memory are sparse and uncapped.
MAX_DENSE_DIM = 512

# The largest dim a document may declare.  A dim costs no bytes in the
# document, but a dualization, a double dual or an associator builds an
# identity matrix with one column per basis vector: at 10^12 that ran out
# of memory.  At the cap, a pair with both dims at MAX_DIM dualizes in
# 0.4 s on a 2-vCPU machine, and its associator exits 2 at MAX_DENSE_DIM in
# 0.5 s.
MAX_DIM = 2**16


def _fail(path, msg):
    raise InputError(f"{path}: {msg}")


def _expect_dict(obj, path, keys_required, keys_optional=()):
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    for k in keys_required:
        if k not in obj:
            _fail(path, f"missing key {k!r}")
    allowed = set(keys_required) | set(keys_optional)
    for k in obj:
        if k not in allowed:
            _fail(path, f"unknown key {k!r}")


def _expect_count(obj, path, name):
    v = obj.get(name)
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        _fail(f"{path}.{name}", "expected a nonnegative integer")
    if v > MAX_DIM:
        _fail(f"{path}.{name}", f"{name} {v} is past the cap MAX_DIM = {MAX_DIM}")
    return v


# ---------------------------------------------------------------------------
# scalars and tensors


# Every stored scalar (tensor entry, (co)unit, matrix entry, sequence
# value) is canonical already, so its string is its canonical spelling.
def _emit_tensor(tensor):
    return [[i, j, k, str(v)] for (i, j, k), v in tensor.sorted_items()]


def _emit_vector(vec):
    return [str(v) for v in vec]


class _Reader:
    """Reads the scalars, vectors and tensors of one document over its field.

    ``memo`` maps each scalar string already read to its value, so every
    distinct string is parsed once per document.  A location ``path[idx]``
    is formatted only for an entry that fails.
    """

    __slots__ = ("field", "memo")

    def __init__(self, field):
        self.field = field
        self.memo = {}

    def scalar(self, s, path, idx=None):
        v = self.memo.get(s) if type(s) is str else None
        if v is None:
            try:
                v = self.field.parse(s)
            except InputError as e:
                _fail(path if idx is None else f"{path}[{idx}]", str(e))
            self.memo[s] = v
        return v

    def scalars(self, items, path):
        return [self.scalar(s, path, idx) for idx, s in enumerate(items)]

    def vector(self, obj, length, path):
        if not isinstance(obj, list) or len(obj) != length:
            _fail(path, f"expected a list of {length} scalars")
        return self.scalars(obj, path)

    def tensor(self, obj, dims, path):
        """The tensor of shape ``dims`` whose entries are the rows of ``obj``.

        One pass reads rows ``[i, j, k, scalar]`` of int indices in range
        and nonzero string scalars, parsing each new string once.  Any
        other row, a scalar that fails to parse or a repeated key (caught
        by counting at the end) reruns every check of ``_entry`` from row
        0, so the first failure in document order is the one reported.
        """
        if not isinstance(obj, list):
            _fail(path, "expected a list of entries")
        d0, d1, d2 = dims
        memo, parse = self.memo, self.field.parse
        entries = {}
        try:
            for i, j, k, s in obj:
                if not (type(i) is int and type(j) is int and type(k) is int and type(s) is str
                        and 0 <= i < d0 and 0 <= j < d1 and 0 <= k < d2):
                    break
                v = memo.get(s)
                if v is None:
                    v = memo[s] = parse(s)
                if not v:
                    break
                entries[(i, j, k)] = v
            else:
                if len(entries) == len(obj):
                    return SparseTensor3._canonical(dims, entries, self.field)
        except (TypeError, ValueError, InputError):  # a row of bad shape, a bad scalar
            pass
        entries = {}
        for idx, row in enumerate(obj):
            key, v = self._entry(row, dims, entries, path, idx)
            entries[key] = v
        return SparseTensor3._canonical(dims, entries, self.field)

    def _entry(self, row, dims, entries, path, idx):
        """The key and value of tensor entry ``row``, every check in order."""
        if not isinstance(row, list) or len(row) != 4:
            _fail(f"{path}[{idx}]", "expected [i, j, k, scalar]")
        i, j, k, s = row
        for t, name in ((i, "i"), (j, "j"), (k, "k")):
            if not isinstance(t, int) or isinstance(t, bool):
                _fail(f"{path}[{idx}]", f"index {name} must be an integer")
        if not (0 <= i < dims[0] and 0 <= j < dims[1] and 0 <= k < dims[2]):
            _fail(f"{path}[{idx}]", f"index ({i},{j},{k}) out of range for dims {dims}")
        if (i, j, k) in entries:
            _fail(f"{path}[{idx}]", f"duplicate entry at ({i},{j},{k})")
        v = self.scalar(s, path, idx)
        if v == 0:
            _fail(f"{path}[{idx}]", "explicit zero entries are not allowed")
        return (i, j, k), v


def _parse_labels(obj, dim, path):
    if not isinstance(obj, list) or len(obj) != dim or not all(isinstance(s, str) for s in obj):
        _fail(path, f"expected a list of {dim} strings")
    return obj


# ---------------------------------------------------------------------------
# payloads


# How each side's structures, pairs, modules and morphisms map to payloads.
# A payload key is also the attribute holding its value and the constructor
# keyword taking it.
_SIDES = {conv.name: conv for conv in (ALGEBRA, COALGEBRA)}


def _structure_payload(side, s):
    payload = {"dim": s.dim}
    if s.labels is not None:
        payload["labels"] = list(s.labels)
    payload[side.tensor] = _emit_tensor(getattr(s, side.tensor))
    unit = getattr(s, side.find_unit)()
    if unit is not None:
        payload[side.unit] = _emit_vector(unit)
    return payload


def _parse_structure(side, reader, payload, path):
    _expect_dict(payload, path, ("dim", side.tensor), ("labels", side.unit))
    dim = _expect_count(payload, path, "dim")
    labels = _parse_labels(payload["labels"], dim, f"{path}.labels") if "labels" in payload else None
    tensor = reader.tensor(payload[side.tensor], (dim, dim, dim), f"{path}.{side.tensor}")
    unit = None
    if side.unit in payload:
        unit = reader.vector(payload[side.unit], dim, f"{path}.{side.unit}")
    try:
        return side.structure(dim, tensor, reader.field, labels=labels, **{side.unit: unit})
    except InputError as e:
        _fail(path, str(e))


def _action_payload(side, owner):
    """The action tensors ``owner`` holds, by key."""
    return {key: _emit_tensor(t) for key, t in zip(side.actions, side.tensors(owner)) if t is not None}


def _parse_actions(side, reader, payload, acting, carrier, path):
    """The action tensors in ``payload``, by key, for the dims ``acting`` and ``carrier``."""
    tensors = {}
    for key, dims in zip(side.actions, ((acting, carrier, carrier), (carrier, acting, carrier))):
        if key in payload:
            tensors[key] = reader.tensor(payload[key], side.lay(dims), f"{path}.{key}")
    return tensors


def _pair_payload(side, pair):
    payload = {key: _structure_payload(side, getattr(pair, attr)) for key, attr in side.parts}
    return payload | _action_payload(side, getattr(pair, side.action))


def _parse_pair(side, reader, payload, path):
    _expect_dict(payload, path, tuple(key for key, _ in side.parts) + side.actions)
    acting, carrier = (_parse_structure(side, reader, payload[key], f"{path}.{key}") for key, _ in side.parts)
    left, right = _parse_actions(side, reader, payload, acting.dim, carrier.dim, path).values()
    return side.pair(acting, carrier, side.action_type(acting, carrier.dim, left, right))


def _module_payload(side, m):
    acting = getattr(m, side.name)
    payload = {side.name: _structure_payload(side, acting), "dim": m.dim, "side": m.side}
    return payload | _action_payload(side, m)


def _parse_module(side, reader, payload, path):
    _expect_dict(payload, path, (side.name, "dim", "side"), side.actions)
    acting = _parse_structure(side, reader, payload[side.name], f"{path}.{side.name}")
    dim = _expect_count(payload, path, "dim")
    if payload["side"] not in SIDES:
        _fail(f"{path}.side", f"expected one of {SIDES}")
    tensors = _parse_actions(side, reader, payload, acting.dim, dim, path)
    try:
        return side.module(acting, dim, payload["side"], **tensors)
    except InputError as e:
        _fail(path, str(e))


def _morphism_payload(side, m):
    n = max(m.matrix.rows, m.matrix.cols)
    if n > MAX_DENSE_DIM:
        raise InputError(f"dense dimension {n} is past the cap MAX_DENSE_DIM = {MAX_DENSE_DIM}")
    return {
        "structure": side.name,
        "source": _structure_payload(side, m.source),
        "target": _structure_payload(side, m.target),
        "matrix": [_emit_vector(row) for row in m.matrix.dense()],
        "verified": m.verified,
    }


def _parse_morphism(reader, payload, path):
    _expect_dict(payload, path, ("structure", "source", "target", "matrix", "verified"))
    if not isinstance(payload["structure"], str) or payload["structure"] not in _SIDES:
        _fail(f"{path}.structure", "expected 'algebra' or 'coalgebra'")
    if payload["verified"] not in VERIFIED:
        _fail(f"{path}.verified", f"expected one of {VERIFIED}")
    side = _SIDES[payload["structure"]]
    source = _parse_structure(side, reader, payload["source"], f"{path}.source")
    target = _parse_structure(side, reader, payload["target"], f"{path}.target")
    rows = payload["matrix"]
    if not isinstance(rows, list) or len(rows) != target.dim:
        _fail(f"{path}.matrix", f"expected {target.dim} rows")
    data = [reader.vector(row, source.dim, f"{path}.matrix[{i}]") for i, row in enumerate(rows)]
    matrix = Matrix(target.dim, source.dim, data, reader.field)
    return side.morphism(source, target, matrix, verified=payload["verified"])


def _sequence_payload(s: RecurrentSequence):
    payload = {}
    if s.s0 is not None:
        payload["s0"] = str(s.s0)
    payload["initial"] = _emit_vector(s.initial)
    payload["recurrence"] = _emit_vector(s.coeffs)
    return payload


def _parse_sequence(reader, payload, path):
    _expect_dict(payload, path, ("initial", "recurrence"), ("s0",))
    s0 = reader.scalar(payload["s0"], f"{path}.s0") if "s0" in payload else None
    lists = []
    for key in ("initial", "recurrence"):
        items = payload[key]
        if not isinstance(items, list):
            _fail(f"{path}.{key}", "expected a list of scalars")
        lists.append(reader.scalars(items, f"{path}.{key}"))
    try:
        return check_size(RecurrentSequence(reader.field, s0, *lists))
    except InputError as e:
        _fail(path, str(e))


# ---------------------------------------------------------------------------
# documents

_ENCODERS = [(RecurrentSequence, "sequence", _sequence_payload)]
_PARSERS = {"morphism": _parse_morphism, "sequence": _parse_sequence}
for _side in _SIDES.values():
    _ENCODERS += [
        (_side.structure, _side.name, partial(_structure_payload, _side)),
        (_side.pair, f"pair-{_side.name}", partial(_pair_payload, _side)),
        (_side.module, f"{_side.co}module", partial(_module_payload, _side)),
        (_side.morphism, "morphism", partial(_morphism_payload, _side)),
    ]
    _PARSERS[_side.name] = partial(_parse_structure, _side)
    _PARSERS[f"pair-{_side.name}"] = partial(_parse_pair, _side)
    _PARSERS[f"{_side.co}module"] = partial(_parse_module, _side)


def encode(obj) -> dict:
    for cls, kind, payload_fn in _ENCODERS:
        if isinstance(obj, cls):
            return {
                "format": FORMAT,
                "field": obj.field.to_json(),
                "kind": kind,
                "payload": payload_fn(obj),
            }
    raise InputError(f"cannot encode object of type {type(obj).__name__}")


def decode(doc: dict):
    _expect_dict(doc, "$", ("format", "field", "kind", "payload"))
    if doc["format"] != FORMAT:
        _fail("$.format", f"expected {FORMAT!r}")
    try:
        field = FieldSpec.from_json(doc["field"])
    except InputError as e:
        _fail("$.field", str(e))
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in _PARSERS:
        _fail("$.kind", f"expected one of {KINDS}")
    return _PARSERS[kind](_Reader(field), doc["payload"], "$.payload")


def _render_rows(rows, pad):
    """The lines of tensor entries ``[i, j, k, scalar]`` or of matrix rows,
    as ``json.dumps`` writes them: canonical scalar strings need no escapes."""
    if rows[0] and type(rows[0][0]) is int:
        return [f'{pad}[{i}, {j}, {k}, "{s}"]' for i, j, k, s in rows]
    return [pad + "[" + ", ".join([f'"{s}"' for s in row]) + "]" for row in rows]


# one encoder for every value: json.dumps(..., ensure_ascii=False) builds one per call
_dumps = json.JSONEncoder(ensure_ascii=False).encode


def _render(value, indent=0):
    """The text of an ``encode`` result.  A list of lists in it holds
    tensor entries or matrix rows."""
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        # every key is a fixed ASCII payload name, which json.dumps would only quote
        inner = ",\n".join(f'{pad}  "{k}": {_render(v, indent + 1)}' for k, v in value.items())
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(value, list):
        if all(not isinstance(x, (dict, list)) for x in value):
            return _dumps(value)
        return "[\n" + ",\n".join(_render_rows(value, pad + "  ")) + "\n" + pad + "]"
    return _dumps(value)


def emit(obj) -> str:
    """Canonical text form; stable byte-for-byte across emit/parse cycles."""
    return _render(encode(obj)) + "\n"


def parse(text: str):
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:
        # a JSONDecodeError, an integer literal past the int-from-string
        # digit limit, or arrays or objects nested past the recursion limit
        raise InputError(f"not valid JSON: {e}") from None
    return decode(doc)


def load(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise InputError(f"not valid UTF-8: {e}") from None
    return parse(text)
