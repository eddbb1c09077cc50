import json

import pytest

from dorroh import exchange
from dorroh.algebra import AlgebraMorphism
from dorroh.errors import InputError
from dorroh.fields import GF, QQ
from dorroh.findual import MAX_ORDER, RecurrentSequence
from dorroh.gallery import (
    grouplike_pair,
    instance,
    matrix_algebra_2,
    regular_bimodule,
    standard_algebra_pairs,
    standard_coalgebra_pairs,
)
from support import identity_morphism

ALL_NAMES = [
    "k",
    "dual_numbers",
    "M2",
    "kZ2",
    "nilpotent1",
    "trunc_poly(3)",
    "Mc2",
    "grouplikes(2)",
    "divided_power(3)",
    "fibonacci",
    "geometric(2)",
]


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
def test_instance_round_trip_byte_identical(name, field):
    obj = instance(name, field)
    text = exchange.emit(obj)
    assert exchange.emit(exchange.parse(text)) == text


def test_pair_round_trips():
    for name, pair in standard_algebra_pairs(QQ) + standard_coalgebra_pairs(QQ):
        text = exchange.emit(pair)
        assert exchange.emit(exchange.parse(text)) == text, name


def test_module_and_comodule_round_trip():
    m2 = matrix_algebra_2(QQ)
    mod = regular_bimodule(m2)
    text = exchange.emit(mod)
    again = exchange.parse(text)
    assert exchange.emit(again) == text
    from dorroh.duality import dual_actions

    com = dual_actions(mod)
    text = exchange.emit(com)
    assert exchange.emit(exchange.parse(text)) == text


def test_morphism_round_trip():
    m2 = matrix_algebra_2(QQ)
    F = identity_morphism(m2)
    F.verified = "iso"
    text = exchange.emit(F)
    again = exchange.parse(text)
    assert isinstance(again, AlgebraMorphism)
    assert again.verified == "iso"
    assert exchange.emit(again) == text


def test_sequence_round_trip_without_s0():
    seq = RecurrentSequence(QQ, None, [1, 1], [1, 1])
    text = exchange.emit(seq)
    assert '"s0"' not in text
    assert exchange.emit(exchange.parse(text)) == text


def test_entries_sorted_lexicographically():
    doc = exchange.encode(matrix_algebra_2(QQ))
    entries = [tuple(e[:3]) for e in doc["payload"]["mul"]]
    assert entries == sorted(entries)


def _doc(name="M2", field=QQ):
    return json.loads(exchange.emit(instance(name, field)))


def _expect_input_error(doc, fragment):
    with pytest.raises(InputError) as err:
        exchange.decode(doc)
    assert fragment in str(err.value)


def test_reject_wrong_format():
    doc = _doc()
    doc["format"] = "dorroh/2"
    _expect_input_error(doc, "$.format")


def test_reject_unknown_kind():
    doc = _doc()
    doc["kind"] = "bialgebra"
    _expect_input_error(doc, "$.kind")


def test_reject_out_of_range_index():
    doc = _doc()
    doc["payload"]["mul"][0][0] = 99
    _expect_input_error(doc, "out of range")


def test_reject_duplicate_entry():
    doc = _doc()
    doc["payload"]["mul"].append(doc["payload"]["mul"][0])
    _expect_input_error(doc, "duplicate")


def test_reject_explicit_zero():
    doc = _doc()
    doc["payload"]["mul"][0][3] = "0"
    _expect_input_error(doc, "zero")


def test_reject_noncanonical_scalar():
    doc = _doc()
    doc["payload"]["mul"][0][3] = "2/4"
    _expect_input_error(doc, "non-canonical")


def test_reject_out_of_field_scalar():
    doc = _doc("M2", GF(5))
    doc["payload"]["mul"][0][3] = "7"
    _expect_input_error(doc, "out of range")


def test_reject_unknown_payload_key():
    doc = _doc()
    doc["payload"]["spurious"] = 1
    _expect_input_error(doc, "unknown key")


def test_reject_wrong_unit():
    doc = _doc()
    doc["payload"]["unit"] = ["1", "1", "0", "1"]
    _expect_input_error(doc, "unit")


def test_reject_bad_field_spec():
    doc = _doc()
    doc["field"] = {"kind": "Fp", "p": 6}
    with pytest.raises(InputError):
        exchange.decode(doc)


def test_reject_non_json():
    with pytest.raises(InputError):
        exchange.parse("not json {")


def test_pair_document_shape():
    doc = exchange.encode(grouplike_pair(QQ))
    assert doc["kind"] == "pair-coalgebra"
    assert list(doc["payload"].keys()) == ["c", "p", "rho_l", "rho_r"]


def test_sequence_past_the_order_cap_is_reported_at_its_payload():
    doc = exchange.encode(RecurrentSequence(GF(5), 0, [1, 1], [1, 1]))
    cap = MAX_ORDER
    for key, message in (
        ("initial", f"{cap + 1} initial values are past the cap MAX_ORDER = {cap}"),
        ("recurrence", f"recurrence order {cap + 1} is past the cap MAX_ORDER = {cap}"),
    ):
        long = json.loads(json.dumps(doc))
        long["payload"][key] = ["1"] * (cap + 1)
        with pytest.raises(InputError) as err:
            exchange.decode(long)
        assert str(err.value) == f"$.payload: {message}"
    at_cap = json.loads(json.dumps(doc))
    at_cap["payload"]["initial"] = at_cap["payload"]["recurrence"] = ["1"] * cap
    assert exchange.decode(at_cap).order == cap
