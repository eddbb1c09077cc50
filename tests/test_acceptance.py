"""Acceptance suite: one test per criterion, exact equality throughout.

Run with `pytest tests/test_acceptance.py -s` to see one line per criterion.
"""

import json
import math
import random
import time

from dorroh.algebra import (
    BimoduleAction,
    build_dorroh_algebra,
    check_associativity,
    check_iterated_algebra_triple,
    split_algebra_extension,
    unital_ideal_iso,
    verify_algebra_morphism,
)
from dorroh.coalgebra import (
    BicomoduleCoaction,
    build_dorroh_coalgebra,
    check_coassociativity,
    check_iterated_coalgebra_triple,
    counit_balance_check,
    counital_split_iso,
    split_coalgebra_extension,
)
from dorroh.cli import main as cli_main
from dorroh import exchange
from dorroh.duality import double_dual_iso, dualize_algebra_pair, dualize_coalgebra_pair
from dorroh.fields import GF, QQ
from dorroh.findual import coproduct_decompose, dorroh_decompose, minimal_recurrence
from dorroh.gallery import (
    algebra_k,
    fibonacci,
    group_algebra_z2,
    grouplikes,
    instance,
    matrix_algebra_2,
    regular_pair,
    standard_algebra_pairs,
    standard_coalgebra_pairs,
)
from dorroh.tensors import SparseTensor3
from support import act_left, act_right, basis, random_algebra_pair, random_coalgebra_pair

GALLERY_NAMES = [
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


def announce(num, name, ok):
    print(f"\nACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def _action_is_unital(pair, unit):
    act = pair.action
    return all(
        act_left(act, unit, basis(pair.I, x)) == basis(pair.I, x)
        and act_right(act, basis(pair.I, x), unit) == basis(pair.I, x)
        for x in range(pair.I.dim)
    )


def test_criterion_1_axiom_closure():
    start = time.perf_counter()
    f5 = GF(5)
    gallery = standard_algebra_pairs(f5)
    ok = len(gallery) >= 12
    for name, pair in gallery:
        built = build_dorroh_algebra(pair)
        ok = ok and check_associativity(built).ok
    rng = random.Random(501)
    for _ in range(500):
        pair = random_algebra_pair(rng, f5, 8)
        ok = ok and pair.A.dim + pair.I.dim <= 8
        built = build_dorroh_algebra(pair)
        ok = ok and check_associativity(built).ok
    elapsed = time.perf_counter() - start
    announce(1, f"axiom closure ({elapsed:.2f}s < 30s)", ok and elapsed < 30)


def test_criterion_2_unit_law():
    ok = True
    checked = 0
    for field in (QQ, GF(5)):
        for name, pair in standard_algebra_pairs(field):
            unit = pair.A.find_identity()
            if unit is None or not _action_is_unital(pair, unit):
                continue
            checked += 1
            built = build_dorroh_algebra(pair)
            ok = ok and built.find_identity() == unit + [0] * pair.I.dim
    announce(2, f"unit law on {checked} unital pairs", ok and checked >= 10)


def test_criterion_3_unital_ideal_iso():
    ok = True
    for field in (QQ, GF(5)):
        for base in (algebra_k(field), group_algebra_z2(field), matrix_algebra_2(field)):
            pair = regular_pair(base)
            eta = unital_ideal_iso(pair)
            report = verify_algebra_morphism(eta, iso=True)
            ok = ok and report.ok and eta.verified == "iso"
            one_i = pair.I.find_identity()
            for a in range(pair.A.dim):
                ea = basis(pair.A, a)
                ok = ok and act_left(pair.action, ea, one_i) == act_right(pair.action, one_i, ea)
    announce(3, "unital-ideal isomorphism for (k,k), (kZ2,kZ2), (M2,M2)", ok)


def test_criterion_4_coassociativity_closure():
    start = time.perf_counter()
    f5 = GF(5)
    ok = True
    for name, pair in standard_coalgebra_pairs(f5):
        built = build_dorroh_coalgebra(pair)
        ok = ok and check_coassociativity(built).ok
    rng = random.Random(502)
    for _ in range(500):
        pair = random_coalgebra_pair(rng, f5, 8)
        built = build_dorroh_coalgebra(pair)
        ok = ok and check_coassociativity(built).ok
    elapsed = time.perf_counter() - start
    announce(4, f"coassociativity closure ({elapsed:.2f}s)", ok and elapsed < 30)


def test_criterion_5_round_trips():
    ok = True
    for name, pair in standard_algebra_pairs(QQ):
        built = build_dorroh_algebra(pair)
        na = pair.A.dim
        pair2, iso = split_algebra_extension(
            built,
            [basis(built, i) for i in range(na)],
            [basis(built, na + x) for x in range(pair.I.dim)],
        )
        ok = ok and pair2.A.mul == pair.A.mul and pair2.I.mul == pair.I.mul
        ok = ok and pair2.action.left == pair.action.left
        ok = ok and pair2.action.right == pair.action.right
        ok = ok and iso.verified == "iso"
    for name, pair in standard_coalgebra_pairs(QQ):
        built = build_dorroh_coalgebra(pair)
        nc = pair.C.dim
        pair2, iso = split_coalgebra_extension(
            built,
            [basis(built, i) for i in range(nc)],
            [basis(built, nc + x) for x in range(pair.P.dim)],
        )
        ok = ok and pair2.C.delta == pair.C.delta and pair2.P.delta == pair.P.delta
        ok = ok and pair2.coaction.rho_l == pair.coaction.rho_l
        ok = ok and pair2.coaction.rho_r == pair.coaction.rho_r
        ok = ok and iso.verified == "iso"
    announce(5, "split/build round trips on both sides", ok)


def test_criterion_6_counital_split():
    ok = True
    checked = 0
    for name, pair in standard_coalgebra_pairs(QQ):
        eps_p = pair.P.find_counit()
        if eps_p is None:
            continue
        checked += 1
        zeta = counital_split_iso(pair)
        ok = ok and zeta.verified == "iso"
        ok = ok and counit_balance_check(pair, eps_p).ok
    announce(6, f"counital split + balance on {checked} pairs", ok and checked >= 5)


def test_criterion_7_duality():
    ok = True
    for name, pair in standard_coalgebra_pairs(QQ):
        apair, witness = dualize_coalgebra_pair(pair)
        ok = ok and witness.forward.verified == "iso"
    for name, pair in standard_algebra_pairs(QQ):
        copair, witness = dualize_algebra_pair(pair)
        ok = ok and witness.forward.verified == "iso"
    for name in ("k", "dual_numbers", "M2", "kZ2", "nilpotent1", "trunc_poly(3)"):
        ok = ok and double_dual_iso(instance(name, QQ)).verified == "iso"
    announce(7, "pair duality witnesses in both directions", ok)


def test_criterion_8_iterated_extensions():
    field = QQ
    k = algebra_k(field)
    one = SparseTensor3((1, 1, 1), {(0, 0, 0): 1}, field)
    two = SparseTensor3((1, 1, 1), {(0, 0, 0): 2}, field)
    act = BimoduleAction(k, 1, one, one)
    report, assoc = check_iterated_algebra_triple(k, k, k, act, act, act)
    ok = report.ok and assoc.verified == "iso"

    a1, a2, a3 = matrix_algebra_2(field), group_algebra_z2(field), algebra_k(field)

    def zero_act(x, y):
        return BimoduleAction(
            x,
            y.dim,
            SparseTensor3.zero((x.dim, y.dim, y.dim), field),
            SparseTensor3.zero((y.dim, x.dim, y.dim), field),
        )

    report, assoc = check_iterated_algebra_triple(
        a1, a2, a3, zero_act(a1, a2), zero_act(a1, a3), zero_act(a2, a3)
    )
    ok = ok and report.ok and assoc.verified == "iso"

    bad = BimoduleAction(k, 1, two, one)
    report, assoc = check_iterated_algebra_triple(k, k, k, act, bad, act)
    ok = ok and not report.ok and assoc is None
    ok = ok and "a1(a2a3)=(a1a2)a3" in {c.name for c in report.checks if not c.ok}

    g = grouplikes(1, field)
    co = BicomoduleCoaction(g, 1, one, one)
    report, coassoc = check_iterated_coalgebra_triple(g, g, g, co, co, co)
    ok = ok and report.ok and coassoc.verified == "iso"

    c1, c2, c3 = grouplikes(2, field), grouplikes(1, field), grouplikes(1, field)

    def zero_co(c, p):
        return BicomoduleCoaction(
            c,
            p.dim,
            SparseTensor3.zero((p.dim, c.dim, p.dim), field),
            SparseTensor3.zero((p.dim, p.dim, c.dim), field),
        )

    report, coassoc = check_iterated_coalgebra_triple(
        c1, c2, c3, zero_co(c1, c2), zero_co(c1, c3), zero_co(c2, c3)
    )
    ok = ok and report.ok and coassoc.verified == "iso"

    bad_co = BicomoduleCoaction(g, 1, two, one)
    report, coassoc = check_iterated_coalgebra_triple(g, g, g, co, bad_co, co)
    ok = ok and not report.ok and coassoc is None
    failed = {c.name for c in report.checks if not c.ok}
    ok = ok and failed & {"eq11", "eq12", "eq13", "eq14"}
    announce(8, "iterated extension associators and named failures", bool(ok))


def test_criterion_9_finite_dual_desk_scale():
    start = time.perf_counter()
    fib = fibonacci(QQ)
    rec = minimal_recurrence(fib.prefix(10), 4, QQ)
    ok = rec is not None and rec.order == 2

    dec = coproduct_decompose(fib, 20)  # verifies the identity for i+j <= 20
    for i in range(21):
        for j in range(21 - i):
            ok = ok and fib.value(i + j) == sum(
                ft.value(i) * gt.value(j) for ft, gt in zip(dec.left, dec.right)
            )
    coproduct_decompose(fib, 12)  # depth-12 coassociativity is asserted inside

    ok = ok and dorroh_decompose(fib, 20).ok
    ok = ok and minimal_recurrence([math.factorial(n) for n in range(1, 11)], 4, QQ) is None
    elapsed = time.perf_counter() - start
    announce(9, f"finite dual at desk scale ({elapsed:.3f}s < 1s)", ok and elapsed < 1.0)


def test_criterion_10_cli_contract(tmp_path):
    ok = True
    # byte-identical round trips on every gallery document
    for name in GALLERY_NAMES:
        obj = instance(name, QQ)
        text = exchange.emit(obj)
        ok = ok and exchange.emit(exchange.parse(text)) == text
    for name, pair in standard_algebra_pairs(QQ) + standard_coalgebra_pairs(QQ):
        text = exchange.emit(pair)
        ok = ok and exchange.emit(exchange.parse(text)) == text

    # three golden invocations exercising the exit-code contract
    good = tmp_path / "m2.json"
    ok = ok and cli_main(["gallery", "--emit", "M2", "-o", str(good)]) == 0
    ok = ok and cli_main(["check", str(good)]) == 0

    corrupted = tmp_path / "corrupt.json"
    data = json.loads(good.read_text())
    data["payload"]["mul"][0] = [0, 0, 1, "1"]
    del data["payload"]["unit"]
    corrupted.write_text(json.dumps(data))
    ok = ok and cli_main(["check", str(corrupted)]) == 1

    malformed = tmp_path / "malformed.json"
    data = json.loads(good.read_text())
    data["payload"]["mul"][0][0] = 99
    malformed.write_text(json.dumps(data))
    ok = ok and cli_main(["check", str(malformed)]) == 2
    announce(10, "CLI round trips and exit-code contract", ok)
