"""The task of each workload and the checks on its output.

A task function takes a ``Case`` and the library namespace and returns
what the program produced; only the task function is timed.  The check
function then verifies that output and returns the strings that enter the
workload digest (emitted documents, reports and witnesses), or raises
``CheckFailed``.  Library calls go through module attributes at call time
so that the tracer's wrappers see them.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout


class CheckFailed(Exception):
    pass


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


def _block_basis(n, lo, hi):
    return [[1 if t == i else 0 for t in range(n)] for i in range(lo, hi)]


# ---------------------------------------------------------------------------
# pair-pipeline: parse -> validate -> build -> split -> iso -> dualize ->
# iterated triple -> emit


def pair_pipeline(case, lib):
    alg, coalg, duality, exchange = lib.algebra, lib.coalgebra, lib.duality, lib.exchange
    pair = exchange.parse(case.text)
    out = {"pair": pair, "report": pair.validate(), "iso": None}
    if isinstance(pair, alg.DorrohPairAlgebra):
        na, ni = pair.A.dim, pair.I.dim
        built = alg.build_dorroh_algebra(pair)
        out["split"] = alg.split_algebra_extension(built, _block_basis(na + ni, 0, na), _block_basis(na + ni, na, na + ni))
        if pair.I.find_identity() is not None:
            out["iso"] = alg.unital_ideal_iso(pair)
        out["dual"] = duality.dualize_algebra_pair(pair)
        regular = alg.BimoduleAction(pair.I, ni, pair.I.mul, pair.I.mul)
        out["triple"] = alg.check_iterated_algebra_triple(pair.A, pair.I, pair.I, pair.action, pair.action, regular)
    else:
        nc, np_ = pair.C.dim, pair.P.dim
        built = coalg.build_dorroh_coalgebra(pair)
        out["split"] = coalg.split_coalgebra_extension(built, _block_basis(nc + np_, 0, nc), _block_basis(nc + np_, nc, nc + np_))
        if pair.P.find_counit() is not None:
            out["iso"] = coalg.counital_split_iso(pair)
        out["dual"] = duality.dualize_coalgebra_pair(pair)
        regular = coalg.BicomoduleCoaction(pair.P, np_, pair.P.delta, pair.P.delta)
        out["triple"] = coalg.check_iterated_coalgebra_triple(pair.C, pair.P, pair.P, pair.coaction, pair.coaction, regular)
    out["docs"] = [exchange.emit(built), exchange.emit(out["dual"][0])]
    return out


def check_pair_pipeline(case, out, lib):
    exchange = lib.exchange
    pair = out["pair"]
    require(out["report"].ok, "generated pair does not validate: " + out["report"].headline())
    require(exchange.emit(pair) == case.text, "input document is not canonical")
    split_pair, split_iso = out["split"]
    require(split_pair == pair, "split did not return the generating pair")
    triple_report, associator = out["triple"]
    require(triple_report.ok, "iterated triple failed: " + triple_report.headline())
    morphisms = [split_iso, out["dual"][1].forward, associator] + ([out["iso"]] if out["iso"] else [])
    require(all(m.verified == "iso" for m in morphisms), "a returned morphism is not a verified iso")
    for doc in out["docs"]:
        require(exchange.emit(exchange.parse(doc)) == doc, "emit -> parse -> emit is not byte-identical")
    return out["docs"] + [out["report"].headline(), triple_report.headline(), f"iso={out['iso'] is not None}"]


# ---------------------------------------------------------------------------
# wide-check: `dorroh check <doc> --report json`, in process


def wide_check(case, lib):
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = lib.cli.main(["check", case.path, "--report", "json"])
    return code, stdout.getvalue(), stderr.getvalue()


def check_wide_check(case, out, lib):
    code, stdout, stderr = out
    require(code == case.expect, f"exit code {code}, expected {case.expect}: {stderr.strip()}")
    report = json.loads(stdout)
    if case.expect == 0:
        require(report["status"] == "pass", "valid document did not pass")
    else:
        failing = [c for c in report["checks"] if c["status"] == "fail"]
        require(report["status"] == "fail" and failing and "witness" in failing[0], "perturbed document failed without a witness")
    return [str(code), stdout]


# ---------------------------------------------------------------------------
# recurrences: minimal recurrence of a prefix, coproduct, Dorroh split,
# vanishing of x * (characteristic polynomial)


def recurrences(case, lib):
    findual, exchange = lib.findual, lib.exchange
    seq = exchange.parse(case.text)
    bound = case.order + 1
    prefix = seq.prefix(2 * bound + 2)
    found = findual.minimal_recurrence(prefix, bound, seq.field)
    return {
        "prefix": prefix,
        "found": found,
        "doc": exchange.emit(found) if found is not None else "",
        "coproduct": findual.coproduct_decompose(seq),
        "dorroh": findual.dorroh_decompose(seq),
        # s_0 is free, so the functional on k[x] is killed by x times the
        # characteristic polynomial of its recurrence.
        "vanish": findual.vanishing_check(seq, list(seq.coeffs) + [0]),
    }


def check_recurrences(case, out, lib):
    exchange = lib.exchange
    found, prefix = out["found"], out["prefix"]
    require(found is not None, "no recurrence found within the bound")
    require(found.order <= case.order, "recovered recurrence is longer than the generating one")
    require(found.prefix(len(prefix)) == prefix, "recovered recurrence does not reproduce the prefix")
    require(exchange.emit(exchange.parse(out["doc"])) == out["doc"], "emit -> parse -> emit is not byte-identical")
    require(out["dorroh"].ok, "dorroh decomposition failed: " + out["dorroh"].headline())
    require(out["vanish"].ok, "vanishing check failed: " + out["vanish"].headline())
    dec = out["coproduct"]
    return [out["doc"], f"rank={dec.rank} pivots={dec.pivots}", out["dorroh"].headline(), out["vanish"].headline()]


WORKLOADS = {
    "pair-pipeline": (pair_pipeline, check_pair_pipeline),
    "wide-check": (wide_check, check_wide_check),
    "recurrences": (recurrences, check_recurrences),
}
