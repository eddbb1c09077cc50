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


def _algebra_payload(a: Algebra):
    payload = {"dim": a.dim}
    if a.labels is not None:
        payload["labels"] = list(a.labels)
    payload["mul"] = _emit_tensor(a.field, a.mul)
    unit = a.find_identity()
    if unit is not None:
        payload["unit"] = _emit_vector(a.field, unit)
    return payload


def _parse_algebra(field, payload, path):
    _expect_dict(payload, path, ("dim", "mul"), ("labels", "unit"))
    dim = _expect_count(payload, path, "dim")
    labels = _parse_labels(payload["labels"], dim, f"{path}.labels") if "labels" in payload else None
    mul = _parse_tensor(field, payload["mul"], (dim, dim, dim), f"{path}.mul")
    unit = _parse_vector(field, payload["unit"], dim, f"{path}.unit") if "unit" in payload else None
    try:
        return Algebra(dim, mul, field, labels=labels, unit=unit)
    except InputError as e:
        _fail(path, str(e))


def _coalgebra_payload(c: Coalgebra):
    payload = {"dim": c.dim}
    if c.labels is not None:
        payload["labels"] = list(c.labels)
    payload["delta"] = _emit_tensor(c.field, c.delta)
    counit = c.find_counit()
    if counit is not None:
        payload["counit"] = _emit_vector(c.field, counit)
    return payload


def _parse_coalgebra(field, payload, path):
    _expect_dict(payload, path, ("dim", "delta"), ("labels", "counit"))
    dim = _expect_count(payload, path, "dim")
    labels = _parse_labels(payload["labels"], dim, f"{path}.labels") if "labels" in payload else None
    delta = _parse_tensor(field, payload["delta"], (dim, dim, dim), f"{path}.delta")
    counit = _parse_vector(field, payload["counit"], dim, f"{path}.counit") if "counit" in payload else None
    try:
        return Coalgebra(dim, delta, field, labels=labels, counit=counit)
    except InputError as e:
        _fail(path, str(e))


def _pair_algebra_payload(pair: DorrohPairAlgebra):
    return {
        "a": _algebra_payload(pair.A),
        "i": _algebra_payload(pair.I),
        "left": _emit_tensor(pair.field, pair.action.left),
        "right": _emit_tensor(pair.field, pair.action.right),
    }


def _parse_pair_algebra(field, payload, path):
    _expect_dict(payload, path, ("a", "i", "left", "right"))
    A = _parse_algebra(field, payload["a"], f"{path}.a")
    I = _parse_algebra(field, payload["i"], f"{path}.i")
    left = _parse_tensor(field, payload["left"], (A.dim, I.dim, I.dim), f"{path}.left")
    right = _parse_tensor(field, payload["right"], (I.dim, A.dim, I.dim), f"{path}.right")
    return DorrohPairAlgebra(A, I, BimoduleAction(A, I.dim, left, right))


def _pair_coalgebra_payload(pair: DorrohPairCoalgebra):
    return {
        "c": _coalgebra_payload(pair.C),
        "p": _coalgebra_payload(pair.P),
        "rho_l": _emit_tensor(pair.field, pair.coaction.rho_l),
        "rho_r": _emit_tensor(pair.field, pair.coaction.rho_r),
    }


def _parse_pair_coalgebra(field, payload, path):
    _expect_dict(payload, path, ("c", "p", "rho_l", "rho_r"))
    C = _parse_coalgebra(field, payload["c"], f"{path}.c")
    P = _parse_coalgebra(field, payload["p"], f"{path}.p")
    rho_l = _parse_tensor(field, payload["rho_l"], (P.dim, C.dim, P.dim), f"{path}.rho_l")
    rho_r = _parse_tensor(field, payload["rho_r"], (P.dim, P.dim, C.dim), f"{path}.rho_r")
    return DorrohPairCoalgebra(C, P, BicomoduleCoaction(C, P.dim, rho_l, rho_r))


def _module_payload(m: ModuleOverAlgebra):
    payload = {"algebra": _algebra_payload(m.algebra), "dim": m.dim, "side": m.side}
    if m.left is not None:
        payload["left"] = _emit_tensor(m.algebra.field, m.left)
    if m.right is not None:
        payload["right"] = _emit_tensor(m.algebra.field, m.right)
    return payload


def _parse_module(field, payload, path):
    _expect_dict(payload, path, ("algebra", "dim", "side"), ("left", "right"))
    a = _parse_algebra(field, payload["algebra"], f"{path}.algebra")
    dim = _expect_count(payload, path, "dim")
    side = payload["side"]
    if side not in SIDES:
        _fail(f"{path}.side", f"expected one of {SIDES}")
    left = right = None
    if "left" in payload:
        left = _parse_tensor(field, payload["left"], (a.dim, dim, dim), f"{path}.left")
    if "right" in payload:
        right = _parse_tensor(field, payload["right"], (dim, a.dim, dim), f"{path}.right")
    try:
        return ModuleOverAlgebra(a, dim, side, left=left, right=right)
    except InputError as e:
        _fail(path, str(e))


def _comodule_payload(m: ComoduleOverCoalgebra):
    payload = {"coalgebra": _coalgebra_payload(m.coalgebra), "dim": m.dim, "side": m.side}
    if m.rho_l is not None:
        payload["rho_l"] = _emit_tensor(m.coalgebra.field, m.rho_l)
    if m.rho_r is not None:
        payload["rho_r"] = _emit_tensor(m.coalgebra.field, m.rho_r)
    return payload


def _parse_comodule(field, payload, path):
    _expect_dict(payload, path, ("coalgebra", "dim", "side"), ("rho_l", "rho_r"))
    c = _parse_coalgebra(field, payload["coalgebra"], f"{path}.coalgebra")
    dim = _expect_count(payload, path, "dim")
    side = payload["side"]
    if side not in SIDES:
        _fail(f"{path}.side", f"expected one of {SIDES}")
    rho_l = rho_r = None
    if "rho_l" in payload:
        rho_l = _parse_tensor(field, payload["rho_l"], (dim, c.dim, dim), f"{path}.rho_l")
    if "rho_r" in payload:
        rho_r = _parse_tensor(field, payload["rho_r"], (dim, dim, c.dim), f"{path}.rho_r")
    try:
        return ComoduleOverCoalgebra(c, dim, side, rho_l=rho_l, rho_r=rho_r)
    except InputError as e:
        _fail(path, str(e))


def _morphism_payload(m):
    structure = "algebra" if isinstance(m, AlgebraMorphism) else "coalgebra"
    source = _algebra_payload(m.source) if structure == "algebra" else _coalgebra_payload(m.source)
    target = _algebra_payload(m.target) if structure == "algebra" else _coalgebra_payload(m.target)
    field = m.source.field
    return {
        "structure": structure,
        "source": source,
        "target": target,
        "matrix": [_emit_vector(field, row) for row in m.matrix.data],
        "verified": m.verified,
    }


def _parse_morphism(field, payload, path):
    _expect_dict(payload, path, ("structure", "source", "target", "matrix", "verified"))
    structure = payload["structure"]
    if structure not in ("algebra", "coalgebra"):
        _fail(f"{path}.structure", "expected 'algebra' or 'coalgebra'")
    if payload["verified"] not in VERIFIED:
        _fail(f"{path}.verified", f"expected one of {VERIFIED}")
    if structure == "algebra":
        source = _parse_algebra(field, payload["source"], f"{path}.source")
        target = _parse_algebra(field, payload["target"], f"{path}.target")
    else:
        source = _parse_coalgebra(field, payload["source"], f"{path}.source")
        target = _parse_coalgebra(field, payload["target"], f"{path}.target")
    rows = payload["matrix"]
    if not isinstance(rows, list) or len(rows) != target.dim:
        _fail(f"{path}.matrix", f"expected {target.dim} rows")
    data = [
        _parse_vector(field, row, source.dim, f"{path}.matrix[{i}]") for i, row in enumerate(rows)
    ]
    matrix = Matrix(target.dim, source.dim, data, field)
    cls = AlgebraMorphism if structure == "algebra" else CoalgebraMorphism
    return cls(source, target, matrix, verified=payload["verified"])


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

_ENCODERS = (
    (DorrohPairAlgebra, "pair-algebra", _pair_algebra_payload, lambda o: o.field),
    (DorrohPairCoalgebra, "pair-coalgebra", _pair_coalgebra_payload, lambda o: o.field),
    (ModuleOverAlgebra, "module", _module_payload, lambda o: o.algebra.field),
    (ComoduleOverCoalgebra, "comodule", _comodule_payload, lambda o: o.coalgebra.field),
    (AlgebraMorphism, "morphism", _morphism_payload, lambda o: o.source.field),
    (CoalgebraMorphism, "morphism", _morphism_payload, lambda o: o.source.field),
    (Algebra, "algebra", _algebra_payload, lambda o: o.field),
    (Coalgebra, "coalgebra", _coalgebra_payload, lambda o: o.field),
    (RecurrentSequence, "sequence", _sequence_payload, lambda o: o.field),
)

_PARSERS = {
    "algebra": _parse_algebra,
    "coalgebra": _parse_coalgebra,
    "pair-algebra": _parse_pair_algebra,
    "pair-coalgebra": _parse_pair_coalgebra,
    "module": _parse_module,
    "comodule": _parse_comodule,
    "morphism": _parse_morphism,
    "sequence": _parse_sequence,
}


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
    field = FieldSpec.from_json(doc["field"])
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
