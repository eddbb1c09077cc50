"""A pair's decisions travel with the pair.

Each action holds one record (``algebra._known``) of what is decided about
the pair of its acting and carrier objects: the report, the law memo it
was decided in, the unit law and the laid-out extension tensor.  A pair
of other acting or carrier objects replaces the record and decides
again.  An iterated triple opens its memo with copies of the decisions
recorded with (A1, A2) and (A1, A3), so on the canonical triple (A, I, I)
of a validated pair only the associativity of I is decided; a triple
builds (A1, A2) before (A1, A3) can replace the record on a shared
action.  ``_build`` lays an extension's tensor out once per record, and
``_unit_law`` decides every unit law by one pass over the action.

The references are law by law on fresh copies (``reference_triple`` and
``reference_check`` of ``test_derived_reports``), the reference layout of
the extension and ``_acts_as_identity``, on both sides over Q, GF(3) and
GF(5).  The last test guards the records against reference cycles, which
would leave a whole pipeline's objects to the collector.
"""

import gc
import random

import pytest

from dorroh import algebra, coalgebra, exchange, gallery
from dorroh.algebra import _acts_as_identity, _unit_law, split_algebra_extension, unital_ideal_iso
from dorroh.cli import _canonical_triple
from dorroh.coalgebra import counital_split_iso, split_coalgebra_extension
from dorroh.duality import dualize_algebra_pair, dualize_coalgebra_pair
from dorroh.errors import ValidationFailure
from dorroh.fields import GF, QQ
from dorroh.gallery import standard_algebra_pairs, standard_coalgebra_pairs
from dorroh.tensors import SparseTensor3

from support import random_algebra_pair, random_coalgebra_pair
from test_derived_reports import ALGEBRA, COALGEBRA, _bent, _checks, _tangled, reference_check, reference_triple

FIELDS = (QQ, GF(3), GF(5))
SEED = 18

SIDES = {
    "algebra": dict(ALGEBRA, build=algebra.build_dorroh_algebra, split=split_algebra_extension,
                    iso=unital_ideal_iso, dualize=dualize_algebra_pair),
    "coalgebra": dict(COALGEBRA, build=coalgebra.build_dorroh_coalgebra, split=split_coalgebra_extension,
                      iso=counital_split_iso, dualize=dualize_coalgebra_pair),
}


def _side(pair):
    return SIDES["algebra" if isinstance(pair, algebra.DorrohPairAlgebra) else "coalgebra"]


def _counter(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _parsed_pairs(field):
    """The gallery pairs of both sides as a document loader returns them."""
    pairs = [p for _, p in standard_algebra_pairs(field)] + [p for _, p in standard_coalgebra_pairs(field)]
    return [exchange.parse(exchange.emit(p)) for p in pairs]


def _copy(t):
    return SparseTensor3(t.dims, dict(t.entries), t.field)


def _own(side, s):
    return getattr(s, side["conv"].tensor)


def _regular(side, s):
    """s acting on itself through its own tensor, on a new action object."""
    return side["make"](s, s.dim, _own(side, s), _own(side, s))


def _legs(side, act):
    return side["conv"].tensors(act)


def _fresh(side, algs, acts):
    """The triple on new structure, action and tensor objects: no stamp, no memo."""
    copies = {}
    for s in algs:
        copies.setdefault(id(s), side["structure"](s.dim, _copy(_own(side, s)), s.field))
    fresh_algs = tuple(copies[id(s)] for s in algs)
    actings = (fresh_algs[0], fresh_algs[0], fresh_algs[1])
    fresh_acts = tuple(
        side["make"](x, act.carrier_dim, *map(_copy, _legs(side, act))) for x, act in zip(actings, acts)
    )
    return fresh_algs, fresh_acts


def _outcome(side, algs, acts):
    """The checks of the library's triple, or None when (A1, A2) raised."""
    try:
        report, _ = side["triple"](*algs, *acts)
    except ValidationFailure:
        return None
    return _checks(report)


def _reference_outcome(side, algs, acts):
    pair12, parts, _, full, _ = reference_triple(side, *_fresh(side, algs, acts))
    if not pair12.ok:
        return None
    return _checks(parts if full is None else full)


def _validated_pairs(field, rng):
    """Parsed gallery pairs and seeded random pairs, each validated."""
    pairs = _parsed_pairs(field) + [
        make(rng, field) for make in (random_algebra_pair, random_coalgebra_pair) for _ in range(6)
    ]
    for pair in pairs:
        assert pair.validate().ok
    return pairs


def _triples(pair, rng):
    """Triples on a validated pair's parts: the canonical one, one whose I is
    replaced by a random structure under zero actions (almost never
    (co)associative), and the canonical one with act12, act13 or act23
    bent in one entry."""
    side = _side(pair)
    conv = side["conv"]
    a, i, left, right = conv.parts_of(pair)
    act = getattr(pair, conv.action)
    out = [((a, i, i), (act, act, _regular(side, i)))]

    j = _tangled(side, i.dim, pair.field, rng)
    zero = side["make"](a, j.dim, *(SparseTensor3.zero(t.dims, pair.field) for t in (left, right)))
    assert conv.pair(a, j, zero).validate().ok  # stamped with its memo
    out.append(((a, j, j), (zero, zero, _regular(side, j))))

    for which in range(3):
        acts = [act, act, _regular(side, i)]
        legs = list(_legs(side, acts[which]))
        leg = rng.randrange(2)
        legs[leg] = _bent(legs[leg], rng)
        acts[which] = side["make"]((a, a, i)[which], acts[which].carrier_dim, *legs)
        out.append(((a, i, i), tuple(acts)))
    return out


# ---------------------------------------------------------------------------
# law decisions


def test_canonical_triple_on_a_validated_pair_runs_one_contraction(monkeypatch):
    """(A1, A2) and (A1, A3) take the pair's stamped report and memo, and the
    mixed laws are the pair's own laws renamed: only the associativity of
    I is decided, however often the pair goes through a triple."""
    calls = _counter(monkeypatch, algebra, "first_witness")
    for field in FIELDS:
        for pair in _parsed_pairs(field):
            assert pair.validate().ok
            for _ in range(2):
                del calls[:]
                report, associator = _canonical_triple(pair)
                assert report.ok and associator.verified == "iso"
                assert len(calls) == 1, (pair, len(calls))


@pytest.mark.parametrize("name,counts", [("algebra", (14, 15, 28, 21)), ("coalgebra", (13, 22, 26, 34))])
def test_a_twin_a3_triple_decides_a1_a2_once(monkeypatch, name, counts):
    """With A3 an equal but distinct copy of A2 (sharing its tensor) and
    act13 = act12, (A1, A3) replaces the record on the shared action, but
    (A1, A2) was built and its unit law read before: the triple checks
    (A1, A3) and (A2, A3) and never (A1, A2).  The counts are the pair
    checks and contractions over the Q gallery pairs, with A3 = A2 and
    with the twin."""
    side, module = SIDES[name], {"algebra": algebra, "coalgebra": coalgebra}[name]
    conv = side["conv"]
    pairs = [p for _, p in getattr(gallery, f"standard_{name}_pairs")(QQ)]
    for pair in pairs:
        assert pair.validate().ok
    checks = _counter(monkeypatch, module, f"check_dorroh_pair_{name}")
    contractions = _counter(monkeypatch, algebra, "first_witness")
    got = []
    for twin in (False, True):
        del checks[:], contractions[:]
        for pair in pairs:
            a, i = conv.parts_of(pair)[:2]
            a3 = side["structure"](i.dim, _own(side, i), QQ) if twin else i
            act = getattr(pair, conv.action)
            before = len(checks)
            report, _ = side["triple"](a, i, a3, act, act, _regular(side, i))
            assert report.ok
            assert len(checks) - before == 1 + twin
        got += [len(checks), len(contractions)]
    assert tuple(got) == counts


def test_triples_on_validated_pairs_report_what_the_reference_finds():
    rng = random.Random(SEED)
    passed = failed = raised = 0
    for field in FIELDS:
        for pair in _validated_pairs(field, rng):
            side = _side(pair)
            for algs, acts in _triples(pair, rng):
                got = _outcome(side, algs, acts)
                assert got == _reference_outcome(side, algs, acts), (algs, acts)
                raised += got is None
                passed += got is not None and all(c["status"] == "pass" for c in got)
                failed += got is not None and any(c["status"] == "fail" for c in got)
    assert passed >= 40 and failed >= 100 and raised >= 20, (passed, failed, raised)


def test_parts_of_equal_but_distinct_objects_decide_and_lay_out_anew(monkeypatch):
    """A stamp holds for the A and I objects it was made with.  A pair of an
    equal but distinct A or I (one sharing the tensor, so every law key
    would match) decides its laws again and its build lays a new tensor
    out, and a triple whose (A1, A3) action carries a stamp of such an A
    decides (A1, A3) as one whose action carries none."""
    calls = _counter(monkeypatch, algebra, "first_witness")
    for field in FIELDS:
        for pair in _parsed_pairs(field):
            side = _side(pair)
            conv = side["conv"]
            a, i, left, right = conv.parts_of(pair)
            act = getattr(pair, conv.action)
            built = side["build"](pair)
            assert _own(side, side["build"](conv.pair(a, i, act))) is _own(side, built)

            twin = side["structure"](a.dim, _own(side, a), field)
            for parts in ((twin, i), (a, side["structure"](i.dim, _own(side, i), field))):
                del calls[:]
                other = conv.pair(*parts, act)
                assert _checks(other.validate()) == _checks(pair.validate()) and calls
                rebuilt = _own(side, side["build"](other))
                assert rebuilt == _own(side, built) and rebuilt is not _own(side, built)

            counts = []
            for stamp_with in (None, twin):
                assert conv.pair(a, i, act).validate().ok  # the stamp of (A1, A2), restored
                act13 = side["make"](a, i.dim, _copy(left), _copy(right))
                if stamp_with is not None:
                    assert conv.pair(stamp_with, i, act13).validate().ok
                del calls[:]
                report, _ = side["triple"](a, i, i, act, act13, _regular(side, i))
                assert report.ok
                counts.append(len(calls))
            assert counts[0] == counts[1] > 1, counts


def test_builds_of_the_same_parts_share_one_tensor(monkeypatch):
    """The pipeline's build, the (co)unital iso's source, the dual's source
    and the triple's (A1, A2) build one pair's parts and share its tensor."""
    for field in FIELDS:
        for pair in _parsed_pairs(field):
            side = _side(pair)
            conv = side["conv"]
            a, i = conv.parts_of(pair)[:2]
            act = getattr(pair, conv.action)
            tensor = _own(side, side["build"](pair))
            shared = []
            original = algebra._build

            def recording(conv, built_pair):
                built = original(conv, built_pair)
                acting, carrier = conv.parts_of(built_pair)[:2]
                if acting is a and carrier is i and getattr(built_pair, conv.action) is act:
                    shared.append(getattr(built, conv.tensor))
                return built

            for module in (algebra, coalgebra):
                monkeypatch.setattr(module, "_build", recording)
            if getattr(i, conv.find_unit)() is not None:
                side["iso"](pair)
            side["dualize"](pair)
            _canonical_triple(pair)
            monkeypatch.undo()
            assert len(shared) >= 2 and all(t is tensor for t in shared), len(shared)


def _fresh_pair(side, pair):
    """pair on new structure, action and tensor objects: no record, no cached unit."""
    conv = side["conv"]
    acting, carrier, left, right = conv.parts_of(pair)
    a, i = (side["structure"](s.dim, _copy(_own(side, s)), s.field) for s in (acting, carrier))
    return conv.pair(a, i, side["make"](a, carrier.dim, _copy(left), _copy(right)))


def _sharing(side, pair):
    """Two pairs on pair's action object: with the same acting structure and
    equal but distinct carriers, then with equal but distinct acting
    structures and the same carrier.  Each twin shares its original's
    tensor, so every law key would match."""
    conv = side["conv"]
    a, i = conv.parts_of(pair)[:2]
    act = getattr(pair, conv.action)

    def twin(s):
        return side["structure"](s.dim, _own(side, s), s.field)

    return [(conv.pair(a, i, act), conv.pair(a, twin(i), act)), (conv.pair(a, i, act), conv.pair(twin(a), i, act))]


def test_an_action_shared_by_two_pairs_decides_anew_at_each_switch():
    """The record on an action holds for one acting and one carrier object.
    Two pairs sharing the action, used in alternation over three rounds,
    each replace it: every report, layout and unit law is the one a fresh
    copy finds, and the record is the current pair's throughout its turn."""
    rng = random.Random(SEED + 2)
    laws, invalid = {True: 0, False: 0}, 0
    for field in (QQ, GF(5)):
        for pair in _parsed_pairs(field):
            side = _side(pair)
            conv = side["conv"]
            a, i, left, right = conv.parts_of(pair)
            bent = conv.pair(a, i, side["make"](a, i.dim, _bent(left, rng), right))
            for pairs in _sharing(side, pair) + _sharing(side, bent):
                act = getattr(pairs[0], conv.action)
                for _ in range(3):
                    for p in pairs:
                        acting, carrier, left, right = conv.parts_of(p)
                        fresh = _fresh_pair(side, p)
                        expected = reference_check(side, fresh)
                        assert _checks(p.validate()) == _checks(expected)
                        known = act._known
                        assert known.acting is acting and known.carrier is carrier
                        if expected.ok:
                            built = side["build"](p)
                            assert _own(side, built) == _own(side, side["extension"](fresh))
                        else:
                            with pytest.raises(ValidationFailure):
                                side["build"](p)
                            invalid += 1
                        unit = getattr(acting, conv.find_unit)()
                        if unit is not None:
                            law = _unit_law(conv, p, unit)
                            assert law == _acts_as_identity(left, right, unit, carrier.dim, conv.order)
                            laws[law] += 1
                        assert act._known is known
    assert laws[True] >= 300 and laws[False] >= 300 and invalid >= 300, (laws, invalid)


# ---------------------------------------------------------------------------
# the unit law of a regular action


def _structures(side, field, rng):
    conv = side["conv"]
    out = []
    for pair in _parsed_pairs(field):
        if _side(pair) is side:
            out += conv.parts_of(pair)[:2]
    out += [_tangled(side, dim, field, rng) for dim in (1, 2, 3, 4)]
    return out


def test_regular_unit_law_stamp_equals_acts_as_identity():
    """The stamp of every action and vector, the regular action with the
    found (co)unit included, on unital and non-unital structures alike,
    agrees with the law."""
    rng = random.Random(SEED + 1)
    regular = decided = 0
    for field in FIELDS:
        for side in SIDES.values():
            conv = side["conv"]
            for s in _structures(side, field, rng):
                n, own = s.dim, _own(side, s)
                unit = getattr(s, conv.find_unit)()
                vectors = [[rng.randrange(3) for _ in range(n)] for _ in range(2)]
                if unit is not None:
                    vectors += [unit, list(unit)]  # the found (co)unit, and an equal copy
                zero = SparseTensor3.zero(own.dims, field)
                carriers = (s, _tangled(side, n, field, rng)) if n else (s,)
                for left, right in ((own, own), (own, zero), (zero, own), (own, _bent(own, rng)),
                                    (_copy(own), own), (own, _copy(own))):
                    for u in vectors:
                        for carrier in carriers:  # the law reads no carrier tensor
                            pair = conv.pair(s, carrier, side["make"](s, n, left, right))
                            expected = _acts_as_identity(left, right, u, n, conv.order)
                            assert _unit_law(conv, pair, u) == expected, (s, u)
                            regular += left is own and right is own and u is unit
                            decided += not expected
                fresh = side["structure"](n, _copy(own), field)
                pair = conv.pair(fresh, fresh, _regular(side, fresh))
                if pair.validate().ok:  # the build stores (u, 0) exactly when s has a (co)unit u
                    found = getattr(side["build"](pair), conv.find_unit)()
                    assert found == (None if unit is None else unit + [0] * n)
    assert regular >= 20 and decided >= 200, (regular, decided)


# ---------------------------------------------------------------------------
# no reference cycles


def _pipeline(text):
    """The benchmark's pair pipeline on one document: parse, validate, build,
    split, iso, dualize, canonical triple and emit."""
    pair = exchange.parse(text)
    side = _side(pair)
    conv = side["conv"]
    a, i = conv.parts_of(pair)[:2]
    out = [pair.validate()]
    built = side["build"](pair)
    blocks = [[int(t == k) for t in range(built.dim)] for k in range(built.dim)]
    out.append(side["split"](built, blocks[: a.dim], blocks[a.dim:]))
    if getattr(i, conv.find_unit)() is not None:
        out.append(side["iso"](pair))
    dual = side["dualize"](pair)
    out += [dual, _canonical_triple(pair), exchange.emit(built), exchange.emit(dual[0])]
    return out


def test_the_pipeline_leaves_no_reference_cycles():
    texts = [exchange.emit(p) for field in (QQ, GF(5)) for p in _parsed_pairs(field)]
    gc.collect()
    gc.disable()
    try:
        results = [_pipeline(text) for text in texts]
        assert len(results) == len(texts)
        del results
        assert gc.collect() == 0
    finally:
        gc.enable()
