"""Golden outputs of the finite dual of k[x] and of x k[x].

The corpus runs, over Q, GF(3), GF(5) and GF(10007), on ``fibonacci``,
``geometric(2)``, ``geometric(3)`` and seeded random sequences of order
0..7 (with and without s_0, some with extra initial values), at the
verification depths 0, 1, 2 and the default 2r + 16:
  * ``coproduct_decompose``: rank, pivots and the emitted left and right
    factors, or the error it raised;
  * the ``dorroh_decompose`` report;
  * the ``vanishing_check`` reports for the sequence's own recurrence
    polynomial p and for x p;
and once per sequence the ``minimal_recurrence`` of a prefix long enough
for the bound order + 1.

``tests/data/findual_golden.json`` holds one line per corpus object; the
test rebuilds the corpus and requires byte-equal text.

Regenerate the golden file (only for an intended behaviour change) with
``PYTHONPATH=src python tests/test_findual_golden.py``.
"""

import json
import random
from pathlib import Path

from dorroh import exchange
from dorroh.errors import DorrohError, ValidationFailure
from dorroh.fields import GF, QQ
from dorroh.findual import (
    RecurrentSequence,
    coproduct_decompose,
    dorroh_decompose,
    minimal_recurrence,
    vanishing_check,
)
from dorroh.gallery import fibonacci, geometric

GOLDEN = Path(__file__).parent / "data" / "findual_golden.json"
SEED = 20260
FIELDS = (QQ, GF(3), GF(5), GF(10007))
DEPTHS = (0, 1, 2, None)
RANDOM_PER_ORDER = 2


def _checks(report):
    return [c.to_json() for c in report.checks]


def _outcome(fn, *args):
    """What ``fn`` returned, rendered by the caller, or the error it raised."""
    try:
        return fn(*args)
    except ValidationFailure as err:
        return {"raised": "ValidationFailure", "message": str(err), "checks": _checks(err.report)}
    except DorrohError as err:
        return {"raised": type(err).__name__, "message": str(err)}


def _scalar(rng, field):
    if field.p is None:
        return rng.randint(-4, 4)
    return rng.randrange(field.p)


def random_sequence(rng, field, order, with_s0):
    """An order-``order`` sequence; about a third carry extra initial values."""
    extra = rng.choice((0, 0, 1, 2))
    coeffs = [_scalar(rng, field) for _ in range(order)]
    initial = [_scalar(rng, field) for _ in range(order + extra)]
    s0 = _scalar(rng, field) if with_s0 else None
    return RecurrentSequence(field, s0, initial, coeffs)


def sequences(field, rng):
    out = [("fibonacci", fibonacci(field)), ("geometric2", geometric(2, field)), ("geometric3", geometric(3, field))]
    for order in range(8):
        for with_s0 in (True, False):
            for i in range(RANDOM_PER_ORDER):
                tag = f"order{order}/{'s0' if with_s0 else 'ideal'}/{i}"
                out.append((tag, random_sequence(rng, field, order, with_s0)))
    return out


def _decomposition(dec):
    if isinstance(dec, dict):
        return dec
    return {
        "rank": dec.rank,
        "pivots": dec.pivots,
        "left": [exchange.emit(s) for s in dec.left],
        "right": [exchange.emit(s) for s in dec.right],
    }


def _report(report):
    return report if isinstance(report, dict) else _checks(report)


def _minrec(seq):
    bound = seq.order + 1
    found = _outcome(minimal_recurrence, seq.prefix(2 * bound + 2), bound, seq.field)
    if found is None or isinstance(found, dict):
        return found
    return exchange.emit(found)


def sequence_records(tag, seq):
    out = {f"minrec|{tag}": _minrec(seq)}
    for depth in DEPTHS:
        at = f"{tag}|depth={'default' if depth is None else depth}"
        out[f"coproduct|{at}"] = _decomposition(_outcome(coproduct_decompose, seq, depth))
        out[f"dorroh|{at}"] = _report(_outcome(dorroh_decompose, seq, depth))
        out[f"vanish|{at}"] = _report(_outcome(vanishing_check, seq, list(seq.coeffs), depth))
        out[f"vanish-x|{at}"] = _report(_outcome(vanishing_check, seq, list(seq.coeffs) + [0], depth))
    return out


def corpus():
    out = {}
    rng = random.Random(SEED)
    for field in FIELDS:
        for name, seq in sequences(field, rng):
            out.update(sequence_records(f"{field!r}|{name}", seq))
    return out


def render(records):
    """The golden file's text: a JSON object with one object per line."""
    lines = [f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}" for k, v in records.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_corpus_matches_golden_outputs():
    assert render(corpus()) == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render(corpus()))
