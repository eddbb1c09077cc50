import logging
import math
import random
import time
from fractions import Fraction

import pytest

from dorroh import findual
from dorroh.errors import InputError, PreconditionError, ValidationFailure
from dorroh.fields import GF, QQ
from dorroh.findual import (
    RecurrentSequence,
    coproduct_decompose,
    dorroh_decompose,
    eval_sequence,
    minimal_recurrence,
    vanishing_check,
)
from dorroh.gallery import fibonacci, geometric
from dorroh.linalg import _rref
from dorroh.reports import Report


def rightmost_pivot_rank(rows):
    """Independent rank oracle: elimination picking the rightmost pivot."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    used = set()
    for c in reversed(range(ncols)):
        pivot = None
        for i, row in enumerate(rows):
            if i not in used and row[c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        used.add(pivot)
        rank += 1
        for i, row in enumerate(rows):
            if i != pivot and row[c] != 0:
                f = row[c] / rows[pivot][c]
                rows[i] = [a - f * b for a, b in zip(row, rows[pivot])]
    return rank


def order_fits_prefix(prefix, r):
    """Independent consistency oracle for an order-r recurrence on the prefix."""
    m = len(prefix)
    if r == 0:
        return all(v == 0 for v in prefix)
    rows = [[prefix[n - 1 - i] for i in range(1, r + 1)] for n in range(r + 1, m + 1)]
    aug = [row + [prefix[n - 1]] for row, n in zip(rows, range(r + 1, m + 1))]
    return rightmost_pivot_rank(rows) == rightmost_pivot_rank(aug)


def test_eval_fibonacci():
    fib = fibonacci(QQ)
    assert eval_sequence(fib, 6) == 8
    assert fib.prefix(10) == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]


def test_eval_geometric():
    geo = geometric(2, QQ)
    assert eval_sequence(geo, 10) == 1024
    assert eval_sequence(geo, 0) == 1


def test_eval_zero_sequence():
    zero = RecurrentSequence(QQ, None, [], [])
    assert all(eval_sequence(zero, n) == 0 for n in range(1, 8))
    with pytest.raises(InputError):
        eval_sequence(zero, 0)


def test_minimal_recurrence_geometric():
    prefix = [2 ** n for n in range(1, 9)]
    rec = minimal_recurrence(prefix, 3, QQ)
    assert rec.order == 1 and rec.coeffs == [2]
    # oracle: no order-0 fit, order-1 fit
    assert not order_fits_prefix(prefix, 0)
    assert order_fits_prefix(prefix, 1)


def test_minimal_recurrence_fibonacci():
    prefix = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    rec = minimal_recurrence(prefix, 4, QQ)
    assert rec.order == 2 and rec.coeffs == [1, 1]
    assert not order_fits_prefix(prefix, 1)
    assert order_fits_prefix(prefix, 2)
    # direct substitution on the prefix
    for n in range(3, 11):
        assert prefix[n - 1] == prefix[n - 2] + prefix[n - 3]


def test_minimal_recurrence_rejects_factorials():
    prefix = [math.factorial(n) for n in range(1, 11)]
    for r in range(5):
        assert not order_fits_prefix(prefix, r)
    assert minimal_recurrence(prefix, 4, QQ) is None


def test_minimal_recurrence_needs_long_prefix():
    with pytest.raises(InputError):
        minimal_recurrence([1, 2, 3], 4, QQ)


def test_minimal_recurrence_idempotent():
    rec = minimal_recurrence([1, 1, 2, 3, 5, 8, 13, 21, 34, 55], 4, QQ)
    again = minimal_recurrence(rec.prefix(12), 5, QQ)
    assert again.order == rec.order and again.coeffs == rec.coeffs


# ---------------------------------------------------------------------------
# coproducts


def test_coproduct_geometric_is_grouplike():
    geo = geometric(2, QQ)
    dec = coproduct_decompose(geo, 20)
    assert dec.rank == 1
    assert dec.left[0] == geo and dec.right[0] == geo  # Delta(f) = f (x) f


def test_coproduct_of_n_is_primitive():
    # f(x^n) = n, i.e. s0 = 0 with s_n = 2 s_{n-1} - s_{n-2}
    f = RecurrentSequence(QQ, 0, [1, 2], [2, -1])
    dec = coproduct_decompose(f, 20)
    assert dec.rank == 2
    # equivalent to the primitive form f (x) u + u (x) f where u is
    # evaluation at 1 (the all-ones group-like), as a bilinear form
    u = RecurrentSequence(QQ, 1, [1], [1])
    for i in range(21):
        for j in range(21 - i):
            ours = sum(ft.value(i) * gt.value(j) for ft, gt in zip(dec.left, dec.right))
            primitive = f.value(i) * u.value(j) + u.value(i) * f.value(j)
            assert ours == primitive == i + j


def test_coproduct_fibonacci_rank_two():
    dec = coproduct_decompose(fibonacci(QQ), 20)
    assert dec.rank == 2
    assert dec.pivots == [0, 1]


def test_coproduct_identity_explicitly():
    fib = fibonacci(QQ)
    dec = coproduct_decompose(fib, 20)
    for i in range(21):
        for j in range(21 - i):
            assert fib.value(i + j) == sum(
                ft.value(i) * gt.value(j) for ft, gt in zip(dec.left, dec.right)
            )


def test_coproduct_on_ideal_functional():
    # no s0: a functional on x k[x]; indices start at 1
    f = RecurrentSequence(QQ, None, [1, 1], [1, 1])
    dec = coproduct_decompose(f, 20)
    assert dec.rank == 2
    for i in range(1, 20):
        for j in range(1, 21 - i):
            assert f.value(i + j) == sum(
                ft.value(i) * gt.value(j) for ft, gt in zip(dec.left, dec.right)
            )


def test_coproduct_counit_law():
    # eps = evaluation at 1: sum_t f_t(1) g_t(x^j) = f(x^j)
    for f in (fibonacci(QQ), geometric(3, QQ), RecurrentSequence(QQ, 0, [1, 2], [2, -1])):
        dec = coproduct_decompose(f, 16)
        for j in range(17):
            assert f.value(j) == sum(
                ft.value(0) * gt.value(j) for ft, gt in zip(dec.left, dec.right)
            )


def test_coproduct_bilinearity_mod7():
    field = GF(7)
    rng = random.Random(7)
    f = RecurrentSequence(field, 0, [1, 1], [1, 1])
    g = RecurrentSequence(field, 1, [3], [3])
    for _ in range(5):
        alpha, beta = rng.randrange(7), rng.randrange(7)
        combo_prefix = [field.canon(alpha * f.value(n) + beta * g.value(n)) for n in range(1, 12)]
        rec = minimal_recurrence(combo_prefix, 4, field)
        assert rec is not None
        combo = RecurrentSequence(
            field, field.canon(alpha * f.value(0) + beta * g.value(0)), rec.initial, rec.coeffs
        )
        # representation is linear: values agree with the combination
        for n in range(12):
            assert combo.value(n) == field.canon(alpha * f.value(n) + beta * g.value(n))
        coproduct_decompose(combo, 16)  # self-verifying


# ---------------------------------------------------------------------------
# the k |x (x k[x]) split


def test_dorroh_decompose_counit_functional():
    eps = RecurrentSequence(QQ, 1, [], [])
    report = dorroh_decompose(eps, 12)
    assert report.ok


def test_dorroh_decompose_fibonacci():
    report = dorroh_decompose(fibonacci(QQ), 20)
    assert report.ok


def test_dorroh_decompose_geometric():
    report = dorroh_decompose(geometric(2, QQ), 20)
    assert report.ok


def test_dorroh_decompose_needs_s0():
    f = RecurrentSequence(QQ, None, [1, 1], [1, 1])
    with pytest.raises(PreconditionError):
        dorroh_decompose(f, 10)


# ---------------------------------------------------------------------------
# ideal annihilation


def test_vanishing_fibonacci_on_its_ideal():
    assert vanishing_check(fibonacci(QQ), [1, 1], 30).ok


def test_vanishing_geometric():
    assert vanishing_check(geometric(2, QQ), [2], 30).ok


def test_vanishing_fibonacci_wrong_polynomial():
    report = vanishing_check(fibonacci(QQ), [2], 30)
    assert not report.ok
    assert report.checks[0].witness == (0,)  # s_1 - 2 s_0 = 1


def test_vanishing_rejects_empty_polynomial():
    with pytest.raises(InputError):
        vanishing_check(fibonacci(QQ), [], 10)


def test_vanishing_without_s0_starts_inside_ideal():
    f = RecurrentSequence(QQ, None, [1, 1], [1, 1])
    assert vanishing_check(f, [1, 1], 30).ok


def test_minimal_recurrence_zero_prefix():
    rec = minimal_recurrence([0] * 10, 4, QQ)
    assert rec.order == 0
    assert rec.initial == [] and rec.coeffs == []


def test_negative_index_rejected():
    with pytest.raises(InputError):
        fibonacci(QQ).value(-1)


def test_ideal_side_rank_equals_minimal_order():
    # over x k[x], the shift space of an order-r sequence has dimension r
    for initial, coeffs in ([1, 1], [1, 1]), ([2], [2]), ([1, 2, 1], [1, 1, 1]):
        f = RecurrentSequence(QQ, None, initial, coeffs)
        rec = minimal_recurrence(f.prefix(2 * len(coeffs) + 4), len(coeffs) + 1, QQ)
        dec = coproduct_decompose(f, 14)
        assert dec.rank == rec.order


# ---------------------------------------------------------------------------
# coassociativity: the factor certificate against the triple scan

FIRST = "f(x^(i+j))=sum f_t(x^i)g_t(x^j)"
CERTIFICATE = "h(x^(a+b))=sum h_u(x^a)h'_u(x^b) for h in {f_t, g_t}"


def _first_pair_failure(lefts, rights, h, lo, top):
    """Least (i, j), i + j <= top, where sum_u lefts[u](x^i) rights[u](x^j) != h(x^(i+j))."""
    for i in range(lo, top + 1):
        for j in range(lo, top - i + 1):
            if h.field.canon(sum(u.value(i) * v.value(j) for u, v in zip(lefts, rights))) != h.value(i + j):
                return (i, j)
    return None


def reference_coproduct_checks(f, depth):
    """The checks coproduct_decompose reports, as [(name, ok, witness, detail)],
    entry by entry through value(): the first identity, then each factor
    f_0, f_1, ..., g_0, ... against its own decomposition on a + b <= depth - lo."""
    left, right, _, lo = findual._shift_space(f)
    first = _first_pair_failure(left, right, f, lo, depth)
    wit, detail = None, ""
    for name, t, h in [("f", t, h) for t, h in enumerate(left)] + [("g", t, h) for t, h in enumerate(right)]:
        wit = _first_pair_failure(*findual._shift_space(h)[:2], h, lo, depth - lo)
        if wit is not None:
            detail = f"decomposition of {name}_{t}"
            break
    return [(FIRST, first is None, first, ""), (CERTIFICATE, wit is None, wit, detail)]


def triple_scan_witness(f, depth):
    """First (a, b, c), a + b + c <= depth, where the two expansions of m*(f)
    through the factors' own decompositions differ; None when none does."""
    left, right, _, lo = findual._shift_space(f)
    canon = f.field.canon
    inner = {id(h): findual._shift_space(h)[:2] for h in left + right}

    def pairing(h, a, b):
        return sum(u.value(a) * v.value(b) for u, v in zip(*inner[id(h)]))

    for a in range(lo, depth + 1):
        for b in range(lo, depth - a + 1):
            for c in range(lo, depth - a - b + 1):
                lhs = sum(pairing(ft, a, b) * gt.value(c) for ft, gt in zip(left, right))
                rhs = sum(ft.value(a) * pairing(gt, b, c) for ft, gt in zip(left, right))
                if canon(lhs - rhs) != 0:
                    return (a, b, c)
    return None


def _outcome(f, depth):
    """The report of coproduct_decompose as [(name, ok, witness, detail)]; None when it passes."""
    try:
        coproduct_decompose(f, depth)
    except ValidationFailure as err:
        assert str(err) == "coproduct decomposition is internally inconsistent"
        return [(c.name, c.ok, c.witness, c.detail) for c in err.report.checks]
    return None


def _expected(f, depth):
    """reference_coproduct_checks, or None when every check passes."""
    checks = reference_coproduct_checks(f, depth)
    return None if all(ok for _, ok, _, _ in checks) else checks


def _random_sequence(rng, field, with_s0):
    order = rng.randint(1, 4)
    scalar = (lambda: rng.randint(-3, 3)) if field.p is None else (lambda: rng.randrange(field.p))
    initial = [scalar() for _ in range(order + rng.choice((0, 0, 1)))]
    return RecurrentSequence(field, scalar() if with_s0 else None, initial, [scalar() for _ in range(order)])


def _bent(h, position, delta):
    """h with s_position moved by delta (position 0 is s_0 when present)."""
    s0, initial = h.s0, list(h.initial)
    if s0 is not None and position == 0:
        s0 += delta
    elif initial:
        initial[(position - 1) % len(initial)] += delta
    else:
        s0 = None if s0 is None else s0 + delta
    return RecurrentSequence(h.field, s0, initial, h.coeffs)


def _bent_from(h, degree, delta):
    """h with s_degree moved by delta and s_n unchanged for n < degree."""
    if degree == 0:
        return _bent(h, 0, delta)
    values = h.prefix(max(degree, len(h.initial)))
    values[degree - 1] += delta
    return RecurrentSequence(h.field, h.s0, values, h.coeffs)


def _bend_decomposition_of(monkeypatch, target, side, index, bend):
    """Make _shift_space(h), for every h equal to target, return its
    decomposition with one factor bent; every other call is untouched."""
    original = findual._shift_space

    def bent(h):
        basis, shifts, pivots, lo = original(h)
        if h == target:
            parts = [list(basis), list(shifts)]
            if parts[side]:
                k = index % len(parts[side])
                parts[side][k] = bend(parts[side][k])
            basis, shifts = parts
        return basis, shifts, pivots, lo

    monkeypatch.setattr(findual, "_shift_space", bent)


def test_bent_decompositions_report_the_failing_factor(monkeypatch):
    rng = random.Random(505)
    kinds = {"first identity": 0, "certificate only": 0, "seen by the triples": 0}
    for case in range(120):
        field = (QQ, GF(5), GF(10007))[case % 3]
        f = _random_sequence(rng, field, with_s0=case % 2 == 0)
        depth = rng.randint(0, 20)
        left, right = findual._shift_space(f)[:2]
        # the outer decomposition in about a third of the cases, a factor's otherwise
        factors = left + right
        target = f if rng.random() < 0.35 or not factors else rng.choice(factors)
        with monkeypatch.context() as m:
            position, delta = rng.randrange(4), rng.randint(1, 4)
            _bend_decomposition_of(m, target, rng.randrange(2), rng.randrange(4), lambda h: _bent(h, position, delta))
            expected = _expected(f, depth)
            got = _outcome(f, depth)
            assert got == expected, (case, f, depth)
            # the certificate is sound: a coassociativity failure never passes
            if triple_scan_witness(f, depth) is not None:
                assert got is not None, (case, f, depth)
                kinds["seen by the triples"] += 1
        if expected is not None:
            kinds["first identity" if not expected[0][1] else "certificate only"] += 1
    assert all(count >= 10 for count in kinds.values()), kinds


def test_factors_bent_at_the_last_degree_the_certificate_reads(monkeypatch):
    # A factor's decomposition bent only from degree depth - 2 lo on first
    # disagrees with the factor at a + b = depth - lo, the edge of the
    # range the triple sums read.
    rng = random.Random(507)
    edge_witnesses = 0
    for field in (QQ, GF(10007)):
        for with_s0 in (True, False):
            lo = 0 if with_s0 else 1
            for depth in (5, 9):
                f = _random_sequence(rng, field, with_s0)
                left, right = findual._shift_space(f)[:2]
                for target in left + right:
                    for side in (0, 1):
                        with monkeypatch.context() as m:
                            _bend_decomposition_of(m, target, side, 0, lambda h: _bent_from(h, depth - 2 * lo, 1))
                            expected = _expected(f, depth)
                            assert _outcome(f, depth) == expected, (f, depth, target, side)
                        if expected is not None and expected[1][2] is not None and sum(expected[1][2]) == depth - lo:
                            edge_witnesses += 1
    assert edge_witnesses >= 10, edge_witnesses


def test_unbent_decompositions_pass_the_triple_scan():
    rng = random.Random(506)
    for case in range(30):
        field = (QQ, GF(3), GF(10007))[case % 3]
        f = _random_sequence(rng, field, with_s0=case % 2 == 0)
        depth = rng.randint(0, 20)
        assert triple_scan_witness(f, depth) is None
        assert reference_coproduct_checks(f, depth)[1][1]
        assert _outcome(f, depth) is None


def _order8(field, rng, with_s0):
    coeffs = [rng.randrange(field.p) for _ in range(7)] + [rng.randrange(1, field.p)]
    s0 = rng.randrange(field.p) if with_s0 else None
    return RecurrentSequence(field, s0, [rng.randrange(field.p) for _ in range(8)], coeffs)


def test_order8_depth160_coproduct_is_fast():
    # the triple scan took about 4.3 s (with s_0) and 3.4 s (without) here
    rng = random.Random(8)
    for with_s0 in (True, False):
        f = _order8(GF(10007), rng, with_s0)
        start = time.perf_counter()
        dec = coproduct_decompose(f, 160)
        assert time.perf_counter() - start < 2.0
        assert dec.rank == 8 + with_s0


def test_coproduct_logs_one_event_per_call(caplog, monkeypatch):
    rng = random.Random(9)
    caplog.set_level(logging.DEBUG, logger="dorroh.findual")
    # benchmark-like sequences: roots +-1, +-2 over Q, uniform residues over F_p
    genuine = [
        (RecurrentSequence(QQ, 2, [1, -3, 0, 2], [0, 5, 0, -4]), 28),
        (_order8(GF(10007), rng, True), 32),
        (_order8(GF(10007), rng, False), 32),
        (RecurrentSequence(QQ, None, [1, 2, -1], [2, 1, -2]), 22),
    ]
    for f, depth in genuine:
        caplog.clear()
        dec = coproduct_decompose(f, depth)
        (record,) = caplog.records
        assert record.name == "dorroh.findual" and record.levelno == logging.DEBUG
        lo = 0 if f.s0 is not None else 1
        assert record.args == (dec.rank, depth, depth - lo + 1)
    f = genuine[0][0]
    left = findual._shift_space(f)[0]
    _bend_decomposition_of(monkeypatch, left[1], 0, 0, lambda h: _bent(h, 2, 1))
    caplog.clear()
    with pytest.raises(ValidationFailure) as err:
        coproduct_decompose(f, 28)
    assert err.value.report.checks[1].detail == "decomposition of f_1"
    (record,) = caplog.records
    assert record.args == (len(left), 28, 29)


# ---------------------------------------------------------------------------
# caps


def test_depth_and_bound_caps():
    fib = fibonacci(QQ)
    for call in (
        lambda d: coproduct_decompose(fib, d),
        lambda d: dorroh_decompose(fib, d),
        lambda d: vanishing_check(fib, [1, 1], d),
    ):
        with pytest.raises(InputError, match="MAX_DEPTH"):
            call(findual.MAX_DEPTH + 1)
        with pytest.raises(InputError, match="nonnegative"):
            call(-1)
    assert vanishing_check(fib, [1, 1], findual.MAX_DEPTH).ok
    with pytest.raises(InputError, match="MAX_BOUND"):
        minimal_recurrence([0] * (2 * findual.MAX_BOUND + 4), findual.MAX_BOUND + 1, QQ)
    assert minimal_recurrence([0] * (2 * findual.MAX_BOUND + 2), findual.MAX_BOUND, QQ).order == 0
    # the default depth 2r + 16 is not capped
    long = RecurrentSequence(GF(5), None, [1] * 200, [0] * 199 + [1])
    assert vanishing_check(long, long.coeffs).ok


def test_value_steps_match_the_recurrence_formula():
    rng = random.Random(10)
    for field in (QQ, GF(7)):
        for f in [RecurrentSequence(field, 1, [], [])] + [_random_sequence(rng, field, True) for _ in range(6)]:
            vals = list(f.initial)
            while len(vals) < 40:
                m = len(vals) + 1
                vals.append(field.canon(sum(f.coeffs[i - 1] * vals[m - 1 - i] for i in range(1, f.order + 1))))
            assert f.prefix(40) == vals


# ---------------------------------------------------------------------------
# differential oracle: the value-table rewrite against the per-entry code
# it replaced (shift space, Dorroh assembly and vanishing loop, verbatim)


def reference_shift_space(f):
    """_shift_space as written before the value table, one value() per entry."""
    lo = 0 if f.s0 is not None else 1
    L = len(f.initial)
    hi = max(L, lo)
    cols = list(range(lo, hi + 1))
    rows = [[f.value(n + j) for n in cols] for j in range(lo, L + 1)]
    pivots = _rref(rows, len(cols), f.field)

    basis = []
    shifts = []
    for t, pc in enumerate(pivots):
        row = rows[t]
        if lo == 0:
            fi = RecurrentSequence(f.field, row[0], row[1 : L + 1], f.coeffs)
        else:
            fi = RecurrentSequence(f.field, None, row[:L] if L else [], f.coeffs)
        basis.append(fi)
        degree = cols[pc]
        if lo == 0:
            gi = RecurrentSequence(
                f.field, f.value(degree), [f.value(n + degree) for n in range(1, L + 1)], f.coeffs
            )
        else:
            gi = RecurrentSequence(
                f.field, None, [f.value(n + degree) for n in range(1, L + 1)] if L else [], f.coeffs
            )
        shifts.append(gi)
    return basis, shifts, [cols[pc] for pc in pivots], lo


def reference_dorroh_report(f, dec, depth):
    """The blockwise assembly loop of dorroh_decompose as written before the
    pairing kernel, run on the decomposition dec of phi_I."""
    field = f.field
    phi_i = RecurrentSequence(field, None, f.initial, f.coeffs)
    report = Report()
    report.add("phi_I coproduct verified", True, detail=f"rank {dec.rank}")
    canon = field.canon
    lv = [findual._values(ft, depth) for ft in dec.left]  # lo = 1: x^n at index n - 1
    rv = [findual._values(gt, depth) for gt in dec.right]
    ok, wit = True, None
    for i in range(depth + 1):
        for j in range(depth - i + 1):
            assembled = 0
            if i == 0 and j == 0:
                assembled += f.s0
            if i == 0 and j >= 1:
                assembled += phi_i.value(j)
            if j == 0 and i >= 1:
                assembled += phi_i.value(i)
            if i >= 1 and j >= 1:
                assembled += sum(fv[i - 1] * gv[j - 1] for fv, gv in zip(lv, rv))
            if canon(assembled) != f.value(i + j):
                ok, wit = False, (i, j)
                break
        if not ok:
            break
    report.add("blockwise coproduct assembly matches m*(f)", ok, wit)
    return report


def reference_vanishing_report(f, pcoeffs, depth):
    """vanishing_check's loop as written before the value table."""
    r = len(pcoeffs)
    field = f.field
    pcoeffs = [field.canon(v) for v in pcoeffs]
    canon = field.canon
    lo = 0 if f.s0 is not None else 1
    report = Report()
    ok, wit = True, None
    for n in range(lo, depth + 1):
        val = f.value(n + r) - sum(pcoeffs[i - 1] * f.value(n + r - i) for i in range(1, r + 1))
        if canon(val) != 0:
            ok, wit = False, (n,)
            break
    report.add("f(x^n p(x))=0", ok, wit)
    return report


def _checks(report):
    return [(c.name, c.ok, c.witness, c.detail) for c in report.checks]


def _oracle_scalar(rng, field):
    if field.p is not None:
        return rng.randrange(field.p)
    return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))


def _oracle_sequence(rng, field, with_s0, empty):
    """Order 0..5 with 0..2 extra initial values; L = 0 when empty."""
    order = 0 if empty else rng.randint(0, 5)
    extra = 0 if empty else rng.randint(0, 2)
    initial = [_oracle_scalar(rng, field) for _ in range(order + extra)]
    s0 = _oracle_scalar(rng, field) if with_s0 else None
    return RecurrentSequence(field, s0, initial, [_oracle_scalar(rng, field) for _ in range(order)])


def _oracle_cases(seed, count=100):
    rng = random.Random(seed)
    for case in range(count):
        field = (QQ, GF(5), GF(10007))[case % 3]
        f = _oracle_sequence(rng, field, with_s0=case % 2 == 0, empty=case % 10 in (0, 1))
        yield rng, f, rng.choice((None, rng.randint(0, 24)))


def test_shift_space_matches_the_per_entry_reference():
    ranks = set()
    for _, f, _ in _oracle_cases(701):
        basis, shifts, pivots, lo = findual._shift_space(f)
        assert (basis, shifts, pivots, lo) == reference_shift_space(f), f
        ranks.add(len(basis))
    assert ranks >= set(range(7)), ranks


def test_dorroh_assembly_matches_the_loop_on_bent_decompositions(monkeypatch):
    # Once phi_I's coproduct has passed, the assembly can fail only through
    # the factors it is handed, so bend one of them.
    kinds = {"pass": 0, "fail": 0}
    for rng, f, depth in _oracle_cases(702):
        if f.s0 is None:
            f = RecurrentSequence(f.field, _oracle_scalar(rng, f.field), f.initial, f.coeffs)
        phi_i = RecurrentSequence(f.field, None, f.initial, f.coeffs)
        side, index, position, delta = rng.randrange(2), rng.randrange(4), rng.randrange(6), rng.randint(0, 4)
        original = findual.coproduct_decompose
        handed = []

        def bent(h, depth=None):
            dec = original(h, depth)
            if h == phi_i:
                parts = [list(dec.left), list(dec.right)]
                if parts[side]:
                    k = index % len(parts[side])
                    parts[side][k] = _bent(parts[side][k], position, delta)
                dec = findual.CoproductDecomposition(dec.rank, *parts, dec.pivots)
                handed.append(dec)
            return dec

        with monkeypatch.context() as m:
            m.setattr(findual, "coproduct_decompose", bent)
            got = _checks(dorroh_decompose(f, depth))
        (dec,) = handed
        expected = _checks(reference_dorroh_report(f, dec, findual._depth(f, depth)))
        assert got == expected, (f, depth, side, index, position, delta)
        kinds["pass" if got[-1][1] else "fail"] += 1
    assert min(kinds.values()) >= 20, kinds


def test_vanishing_matches_the_per_entry_reference():
    kinds = {"pass": 0, "fail": 0}
    for rng, f, depth in _oracle_cases(703):
        polys = [[_oracle_scalar(rng, f.field) for _ in range(rng.randint(1, 4))]]
        if f.order:
            polys += [list(f.coeffs), list(f.coeffs) + [0]]
        for p in polys:
            got = _checks(vanishing_check(f, p, depth))
            assert got == _checks(reference_vanishing_report(f, p, findual._depth(f, depth))), (f, p, depth)
            kinds["pass" if got[0][1] else "fail"] += 1
    assert min(kinds.values()) >= 20, kinds


def test_dorroh_decompose_runs_one_coproduct(monkeypatch):
    calls = []
    original = findual.coproduct_decompose

    def counted(h, depth=None):
        calls.append(h)
        return original(h, depth)

    monkeypatch.setattr(findual, "coproduct_decompose", counted)
    for f in (fibonacci(QQ), geometric(2, GF(5)), RecurrentSequence(QQ, 3, [], [])):
        calls.clear()
        assert dorroh_decompose(f, 12).ok
        assert calls == [RecurrentSequence(f.field, None, f.initial, f.coeffs)]
