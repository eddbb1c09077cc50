"""Every span the benchmark tracer wraps must still name a library callable.

The tracer in ``perfbench/bench_trace.py`` patches ``(module, attribute)``
pairs of ``dorroh``; a rename in the library would silently drop a span
from the traced run, so this checks the names without running the bench.
A dotted ``Class.method`` must be defined on that class itself, because
the tracer patches it through ``Class.__dict__``.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

BENCH_TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"


def _bench_trace():
    spec = importlib.util.spec_from_file_location("bench_trace", BENCH_TRACE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _spans():
    return _bench_trace().SPANS


def test_every_traced_span_resolves():
    spans = _spans()
    assert spans
    for module, attribute, _, _ in spans:
        obj = importlib.import_module(f"dorroh.{module}")
        for part in attribute.split("."):
            # the tracer reads a method from its class's own __dict__, so
            # one inherited from a base class would break a traced run
            if isinstance(obj, type):
                assert part in obj.__dict__, (module, attribute)
            obj = getattr(obj, part)
        assert callable(obj), (module, attribute)


def _resolve(module, attribute):
    obj = importlib.import_module(f"dorroh.{module}")
    for part in attribute.split("."):
        obj = obj.__dict__[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


def test_every_traced_span_is_its_own_callable():
    """The tracer swaps a callable wherever a module holds it, so two
    entries naming one object would wrap it twice and lose a span name."""
    callables = [_resolve(module, attribute) for module, attribute, _, _ in _spans()]
    assert len({id(c) for c in callables}) == len(callables)


# Span names recorded by one build, one gluing and one triple per side of
# the pair (k, dual numbers) over Q.  The constructions share one body for
# both sides; a nested build or verification reached other than through its
# side's module global would drop out of these counts or change sides.
# The pairs are validated, so each triple's (A1, A2) and (A1, A3) take the
# report stamped on the pair's action and only (A2, A3) is checked: one
# pair-check span and one action span per side.
CONSTRUCTION_SPANS = {
    "task": 1,
    "algebra.associator": 1,
    "algebra.build": 6,
    "algebra.find_identity": 6,
    "algebra.validate": 2,
    "algebra.verify_morphism": 1,
    "coalgebra.associator": 1,
    "coalgebra.build": 6,
    "coalgebra.find_counit": 6,
    "coalgebra.validate": 2,
    "coalgebra.verify_morphism": 1,
}


def test_constructions_record_the_same_spans():
    from dorroh import algebra, coalgebra, duality
    from dorroh.fields import QQ
    from dorroh.gallery import dual_numbers, scalar_action_pair

    pair = scalar_action_pair(QQ, dual_numbers(QQ))
    reg = algebra.regular_bimodule(algebra.build_dorroh_algebra(pair))
    na, n = pair.A.dim, reg.dim
    m_a = algebra.ModuleOverAlgebra(
        pair.A, n, "bi", left=reg.left.block((0, 0, 0), (na, n, n)), right=reg.right.block((0, 0, 0), (n, na, n))
    )
    m_i = algebra.ModuleOverAlgebra(
        pair.I, n, "bi", left=reg.left.block((na, 0, 0), (n, n, n)), right=reg.right.block((0, na, 0), (n, n, n))
    )
    copair = duality.dualize_algebra_pair(pair)[0]
    c_a, c_i = duality.dual_actions(m_a), duality.dual_actions(m_i)
    regular = algebra.BimoduleAction(pair.I, pair.I.dim, pair.I.mul, pair.I.mul)
    coregular = coalgebra.BicomoduleCoaction(copair.P, copair.P.dim, copair.P.delta, copair.P.delta)

    bench_trace = _bench_trace()
    for module, *_ in bench_trace.SPANS:  # the tracer patches every module it names
        importlib.import_module(f"dorroh.{module}")
    tracer = bench_trace.Tracer()
    with tracer.patched(), tracer.task(0):
        algebra.build_dorroh_algebra(pair)
        algebra.assemble_module(pair, m_a, m_i, "bi")
        algebra.check_iterated_algebra_triple(pair.A, pair.I, pair.I, pair.action, pair.action, regular)
        coalgebra.build_dorroh_coalgebra(copair)
        coalgebra.assemble_comodule(copair, c_a, c_i, "bi")
        coalgebra.check_iterated_coalgebra_triple(
            copair.C, copair.P, copair.P, copair.coaction, copair.coaction, coregular
        )
    assert Counter(name for name, *_ in tracer.spans) == CONSTRUCTION_SPANS


# Span names recorded by each duality entry point on the pair (k, dual
# numbers) over Q and on its dual copair.  Each entry point runs one body
# for both directions; its builds and verifications must still be reached
# through the wrapper's module globals, on the right side, as often as the
# per-side functions it replaced reached them.
DUALITY_SPANS = {
    "dualize_algebra_pair": {
        "task": 1,
        "duality.dualize": 1,
        "algebra.build": 1,
        "algebra.find_identity": 4,
        "coalgebra.build": 1,
        "coalgebra.find_counit": 1,
        "coalgebra.verify_morphism": 1,
    },
    "dualize_coalgebra_pair": {
        "task": 1,
        "duality.dualize": 1,
        "algebra.build": 1,
        "algebra.find_identity": 1,
        "algebra.verify_morphism": 1,
        "coalgebra.build": 1,
        "coalgebra.find_counit": 4,
    },
    "double_dual_iso": {
        "task": 1,
        "algebra.find_identity": 1,
        "algebra.verify_morphism": 1,
        "coalgebra.find_counit": 1,
    },
    "double_dual_iso_coalgebra": {
        "task": 1,
        "algebra.find_identity": 1,
        "coalgebra.find_counit": 1,
        "coalgebra.verify_morphism": 1,
    },
}


def test_duality_records_the_same_spans():
    from dorroh import duality
    from dorroh.fields import QQ
    from dorroh.gallery import dual_numbers, scalar_action_pair

    pair = scalar_action_pair(QQ, dual_numbers(QQ))
    copair = duality.dualize_algebra_pair(pair)[0]
    inputs = {
        "dualize_algebra_pair": pair,
        "dualize_coalgebra_pair": copair,
        "double_dual_iso": pair.I,
        "double_dual_iso_coalgebra": copair.P,
    }

    bench_trace = _bench_trace()
    for module, *_ in bench_trace.SPANS:
        importlib.import_module(f"dorroh.{module}")
    counts = {}
    for name, arg in inputs.items():
        tracer = bench_trace.Tracer()
        with tracer.patched(), tracer.task(0):
            getattr(duality, name)(arg)
        counts[name] = Counter(span for span, *_ in tracer.spans)
    assert counts == DUALITY_SPANS


# Span names recorded by the split of each side's extension of the pair
# (k, dual numbers) over Q along its own blocks, and of the same extension
# parsed from its document.  The split body is shared by both sides; its
# build and verification must still be reached through its side's module
# globals.  The built extension's split takes the pair's report, so only
# the parsed one records a pair check (and its bimodule check).
SPLIT_SPANS = {
    "built": {
        "task": 1,
        "algebra.split": 1,
        "algebra.build": 1,
        "algebra.find_identity": 1,
        "algebra.verify_morphism": 1,
        "coalgebra.split": 1,
        "coalgebra.build": 1,
        "coalgebra.find_counit": 1,
        "coalgebra.verify_morphism": 1,
    },
    "parsed": {
        "task": 1,
        "algebra.split": 1,
        "algebra.build": 1,
        "algebra.find_identity": 1,
        "algebra.validate": 2,
        "algebra.verify_morphism": 1,
        "coalgebra.split": 1,
        "coalgebra.build": 1,
        "coalgebra.find_counit": 1,
        "coalgebra.validate": 2,
        "coalgebra.verify_morphism": 1,
    },
}


def test_splits_record_the_same_spans():
    from dorroh import algebra, coalgebra, duality, exchange
    from dorroh.fields import QQ
    from dorroh.gallery import dual_numbers, scalar_action_pair

    pair = scalar_action_pair(QQ, dual_numbers(QQ))
    copair = duality.dualize_algebra_pair(pair)[0]
    built = {"built": (algebra.build_dorroh_algebra(pair), coalgebra.build_dorroh_coalgebra(copair))}
    built["parsed"] = tuple(exchange.parse(exchange.emit(b)) for b in built["built"])
    n, na = built["built"][0].dim, pair.A.dim
    rows = [[int(t == i) for t in range(n)] for i in range(n)]

    bench_trace = _bench_trace()
    for module, *_ in bench_trace.SPANS:
        importlib.import_module(f"dorroh.{module}")
    counts = {}
    for kind, (b, d) in built.items():
        tracer = bench_trace.Tracer()
        with tracer.patched(), tracer.task(0):
            algebra.split_algebra_extension(b, rows[:na], rows[na:])
            coalgebra.split_coalgebra_extension(d, rows[:na], rows[na:])
        counts[kind] = Counter(span for span, *_ in tracer.spans)
    assert counts == SPLIT_SPANS


# The construction span of each command that dispatches on the kind of its
# document, run through cli.main on the regular pairs of k: the command
# finds the library function when it runs, so the tracer's wrapper on the
# module global is the one it calls.
CLI_SPANS = {
    "build pair-algebra": "algebra.build",
    "build pair-coalgebra": "coalgebra.build",
    "split algebra": "algebra.split",
    "split coalgebra": "coalgebra.split",
    "dualize pair-algebra": "duality.dualize",
    "dualize pair-coalgebra": "duality.dualize",
}


def test_cli_commands_record_their_construction_spans(tmp_path, capsys):
    from dorroh import cli

    for table in (cli._BUILDS, cli._SPLITS, cli._DUALS):  # the tables name module globals
        assert all(callable(getattr(cli, name)) for name in table.values()), table
    docs = {kind: tmp_path / f"{kind}.json" for kind in ("pair-algebra", "pair-coalgebra", "algebra", "coalgebra")}
    assert cli.main(["gallery", "--emit", "pair-algebra:k_regular", "-o", str(docs["pair-algebra"])]) == 0
    assert cli.main(["gallery", "--emit", "pair-coalgebra:grouplike", "-o", str(docs["pair-coalgebra"])]) == 0
    assert cli.main(["build", str(docs["pair-algebra"]), "-o", str(docs["algebra"])]) == 0
    assert cli.main(["build", str(docs["pair-coalgebra"]), "-o", str(docs["coalgebra"])]) == 0
    capsys.readouterr()

    bench_trace = _bench_trace()
    for module, *_ in bench_trace.SPANS:
        importlib.import_module(f"dorroh.{module}")
    recorded = {}
    for command, span in CLI_SPANS.items():
        verb, kind = command.split()
        argv = [verb, str(docs[kind]), "-o", str(tmp_path / "out.json")]
        if verb == "split":
            argv += ["--a-basis", "1,0", "--i-basis", "0,1"]
        tracer = bench_trace.Tracer()
        with tracer.patched(), tracer.task(0):
            assert cli.main(argv) == 0, command
        recorded[command] = span if span in {name for name, *_ in tracer.spans} else None
    assert recorded == CLI_SPANS
