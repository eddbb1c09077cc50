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
from operator import attrgetter
from types import SimpleNamespace

from .algebra import SIDES, Algebra, AlgebraMorphism, BimoduleAction, DorrohPairAlgebra, ModuleOverAlgebra
from .coalgebra import (
    BicomoduleCoaction,
    Coalgebra,
    CoalgebraMorphism,
    ComoduleOverCoalgebra,
    DorrohPairCoalgebra,
)
from .errors import InputError
from .fields import FieldSpec
from .findual import RecurrentSequence
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
    return v


# ---------------------------------------------------------------------------
# scalars and tensors


def _emit_scalar(field, v):
    return field.fmt(v)


def _parse_scalar(field, s, path):
    try:
        return field.parse(s)
    except InputError as e:
        _fail(path, str(e))


def _emit_tensor(field, tensor):
    return [[i, j, k, _emit_scalar(field, v)] for (i, j, k), v in tensor.sorted_items()]


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


def _emit_vector(field, vec):
    return [_emit_scalar(field, v) for v in vec]


def _parse_vector(field, obj, length, path):
    if not isinstance(obj, list) or len(obj) != length:
        _fail(path, f"expected a list of {length} scalars")
    return [_parse_scalar(field, s, f"{path}[{i}]") for i, s in enumerate(obj)]


def _parse_labels(obj, dim, path):
    if not isinstance(obj, list) or len(obj) != dim or not all(isinstance(s, str) for s in obj):
        _fail(path, f"expected a list of {dim} strings")
    return obj


# ---------------------------------------------------------------------------
# payloads


# How each side's structures, pairs, modules and morphisms map to payloads.
# A payload key is also the attribute holding its value and the constructor
# keyword taking it.  In an action shape "a" is the acting dim, "c" the carrier's.
_SIDES = {
    "algebra": SimpleNamespace(
        name="algebra", structure=Algebra, tensor="mul", unit="unit", find_unit="find_identity",
        morphism=AlgebraMorphism, pair=DorrohPairAlgebra, parts=(("a", "A"), ("i", "I")),
        action="action", action_type=BimoduleAction, actions=(("left", "acc"), ("right", "cac")),
        module_kind="module", module=ModuleOverAlgebra,
    ),
    "coalgebra": SimpleNamespace(
        name="coalgebra", structure=Coalgebra, tensor="delta", unit="counit", find_unit="find_counit",
        morphism=CoalgebraMorphism, pair=DorrohPairCoalgebra, parts=(("c", "C"), ("p", "P")),
        action="coaction", action_type=BicomoduleCoaction, actions=(("rho_l", "cac"), ("rho_r", "cca")),
        module_kind="comodule", module=ComoduleOverCoalgebra,
    ),
}


def _structure_payload(side, s):
    payload = {"dim": s.dim}
    if s.labels is not None:
        payload["labels"] = list(s.labels)
    payload[side.tensor] = _emit_tensor(s.field, getattr(s, side.tensor))
    unit = getattr(s, side.find_unit)()
    if unit is not None:
        payload[side.unit] = _emit_vector(s.field, unit)
    return payload


def _parse_structure(side, field, payload, path):
    _expect_dict(payload, path, ("dim", side.tensor), ("labels", side.unit))
    dim = _expect_count(payload, path, "dim")
    labels = _parse_labels(payload["labels"], dim, f"{path}.labels") if "labels" in payload else None
    tensor = _parse_tensor(field, payload[side.tensor], (dim, dim, dim), f"{path}.{side.tensor}")
    unit = None
    if side.unit in payload:
        unit = _parse_vector(field, payload[side.unit], dim, f"{path}.{side.unit}")
    try:
        return side.structure(dim, tensor, field, labels=labels, **{side.unit: unit})
    except InputError as e:
        _fail(path, str(e))


def _action_payload(side, field, owner):
    """The action tensors ``owner`` holds, by key."""
    tensors = ((key, getattr(owner, key)) for key, _ in side.actions)
    return {key: _emit_tensor(field, t) for key, t in tensors if t is not None}


def _parse_actions(side, field, payload, acting, carrier, path):
    """The action tensors in ``payload``, by key, for the dims ``acting`` and ``carrier``."""
    tensors = {}
    for key, shape in side.actions:
        if key in payload:
            dims = tuple(acting if c == "a" else carrier for c in shape)
            tensors[key] = _parse_tensor(field, payload[key], dims, f"{path}.{key}")
    return tensors


def _pair_payload(side, pair):
    payload = {key: _structure_payload(side, getattr(pair, attr)) for key, attr in side.parts}
    return payload | _action_payload(side, pair.field, getattr(pair, side.action))


def _parse_pair(side, field, payload, path):
    _expect_dict(payload, path, tuple(key for key, _ in side.parts + side.actions))
    acting, carrier = (_parse_structure(side, field, payload[key], f"{path}.{key}") for key, _ in side.parts)
    left, right = _parse_actions(side, field, payload, acting.dim, carrier.dim, path).values()
    return side.pair(acting, carrier, side.action_type(acting, carrier.dim, left, right))


def _module_payload(side, m):
    acting = getattr(m, side.name)
    payload = {side.name: _structure_payload(side, acting), "dim": m.dim, "side": m.side}
    return payload | _action_payload(side, acting.field, m)


def _parse_module(side, field, payload, path):
    _expect_dict(payload, path, (side.name, "dim", "side"), tuple(key for key, _ in side.actions))
    acting = _parse_structure(side, field, payload[side.name], f"{path}.{side.name}")
    dim = _expect_count(payload, path, "dim")
    if payload["side"] not in SIDES:
        _fail(f"{path}.side", f"expected one of {SIDES}")
    tensors = _parse_actions(side, field, payload, acting.dim, dim, path)
    try:
        return side.module(acting, dim, payload["side"], **tensors)
    except InputError as e:
        _fail(path, str(e))


def _morphism_payload(side, m):
    return {
        "structure": side.name,
        "source": _structure_payload(side, m.source),
        "target": _structure_payload(side, m.target),
        "matrix": [_emit_vector(m.source.field, row) for row in m.matrix.data],
        "verified": m.verified,
    }


def _parse_morphism(field, payload, path):
    _expect_dict(payload, path, ("structure", "source", "target", "matrix", "verified"))
    if payload["structure"] not in _SIDES:
        _fail(f"{path}.structure", "expected 'algebra' or 'coalgebra'")
    if payload["verified"] not in VERIFIED:
        _fail(f"{path}.verified", f"expected one of {VERIFIED}")
    side = _SIDES[payload["structure"]]
    source = _parse_structure(side, field, payload["source"], f"{path}.source")
    target = _parse_structure(side, field, payload["target"], f"{path}.target")
    rows = payload["matrix"]
    if not isinstance(rows, list) or len(rows) != target.dim:
        _fail(f"{path}.matrix", f"expected {target.dim} rows")
    data = [
        _parse_vector(field, row, source.dim, f"{path}.matrix[{i}]") for i, row in enumerate(rows)
    ]
    matrix = Matrix(target.dim, source.dim, data, field)
    return side.morphism(source, target, matrix, verified=payload["verified"])


def _sequence_payload(s: RecurrentSequence):
    payload = {}
    if s.s0 is not None:
        payload["s0"] = _emit_scalar(s.field, s.s0)
    payload["initial"] = _emit_vector(s.field, s.initial)
    payload["recurrence"] = _emit_vector(s.field, s.coeffs)
    return payload


def _parse_sequence(field, payload, path):
    _expect_dict(payload, path, ("initial", "recurrence"), ("s0",))
    s0 = _parse_scalar(field, payload["s0"], f"{path}.s0") if "s0" in payload else None
    initial = payload["initial"]
    if not isinstance(initial, list):
        _fail(f"{path}.initial", "expected a list of scalars")
    initial = [_parse_scalar(field, s, f"{path}.initial[{i}]") for i, s in enumerate(initial)]
    rec = payload["recurrence"]
    if not isinstance(rec, list):
        _fail(f"{path}.recurrence", "expected a list of scalars")
    rec = [_parse_scalar(field, s, f"{path}.recurrence[{i}]") for i, s in enumerate(rec)]
    try:
        return RecurrentSequence(field, s0, initial, rec)
    except InputError as e:
        _fail(path, str(e))


# ---------------------------------------------------------------------------
# documents

_ENCODERS = [(RecurrentSequence, "sequence", _sequence_payload, lambda o: o.field)]
_PARSERS = {"morphism": _parse_morphism, "sequence": _parse_sequence}
for _side in _SIDES.values():
    _ENCODERS += [
        (_side.structure, _side.name, partial(_structure_payload, _side), lambda o: o.field),
        (_side.pair, f"pair-{_side.name}", partial(_pair_payload, _side), lambda o: o.field),
        (_side.module, _side.module_kind, partial(_module_payload, _side), attrgetter(f"{_side.name}.field")),
        (_side.morphism, "morphism", partial(_morphism_payload, _side), lambda o: o.source.field),
    ]
    _PARSERS[_side.name] = partial(_parse_structure, _side)
    _PARSERS[f"pair-{_side.name}"] = partial(_parse_pair, _side)
    _PARSERS[_side.module_kind] = partial(_parse_module, _side)


def encode(obj) -> dict:
    for cls, kind, payload_fn, field_fn in _ENCODERS:
        if isinstance(obj, cls):
            return {
                "format": FORMAT,
                "field": field_fn(obj).to_json(),
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
    if kind not in _PARSERS:
        _fail("$.kind", f"expected one of {KINDS}")
    return _PARSERS[kind](field, doc["payload"], "$.payload")


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


def emit(obj) -> str:
    """Canonical text form; stable byte-for-byte across emit/parse cycles."""
    return _render(encode(obj)) + "\n"


def parse(text: str):
    try:
        doc = json.loads(text)
    except ValueError as e:
        # a JSONDecodeError, or an integer literal past the int-from-string digit limit
        raise InputError(f"not valid JSON: {e}") from None
    return decode(doc)


def load(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def dump(obj, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit(obj))
