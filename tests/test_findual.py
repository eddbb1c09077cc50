import cProfile
import itertools
import logging
import math
import operator
import pstats
import random
import time
from fractions import Fraction

import pytest

from dorroh import findual, linalg
from dorroh.errors import InputError, PreconditionError, ValidationFailure
from dorroh.fields import GF, QQ
from dorroh.findual import (
    RecurrentSequence,
    coproduct_decompose,
    dorroh_decompose,
    minimal_recurrence,
    vanishing_check,
)
from dorroh.gallery import fibonacci, geometric
from dorroh.linalg import Matrix
from dorroh.reports import Report
from support import dense_rref, solve_linear


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
    assert fib.value(6) == 8
    assert fib.prefix(10) == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]


def test_eval_geometric():
    geo = geometric(2, QQ)
    assert geo.value(10) == 1024
    assert geo.value(0) == 1


def test_eval_zero_sequence():
    zero = RecurrentSequence(QQ, None, [], [])
    assert all(zero.value(n) == 0 for n in range(1, 8))
    with pytest.raises(InputError):
        zero.value(0)


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
# coassociativity: the certificate against per-entry references and the
# triple scan

ROWS = (
    "f_t(x^(p_u))=delta_tu",
    "f_t(x^(n+1))=sum_u f_t(x^(p_u+1))f_u(x^n)",
    "h(x^n)=sum_u h(x^(p_u))f_u(x^n) for h=sigma^lo f",
    "g_t(x^n)=f(x^(n+p_t))",
)


def _first_pair_failure(lefts, rights, h, lo, top):
    """Least (i, j), i + j <= top, where sum_u lefts[u](x^i) rights[u](x^j) != h(x^(i+j))."""
    for i in range(lo, top + 1):
        for j in range(lo, top - i + 1):
            if h.field.canon(sum(u.value(i) * v.value(j) for u, v in zip(lefts, rights))) != h.value(i + j):
                return (i, j)
    return None


def certified_degrees(pivots, lo, depth):
    """(N, M): N = P + max(depth - 2 lo, 1), the last degree the certificate
    reads of the shifts, and M = N + P - lo, of the basis; P the largest
    pivot, lo at rank 0."""
    P = max(pivots, default=lo)
    N = P + max(depth - 2 * lo, 1)
    return N, N + P - lo


def reference_coproduct_checks(f, depth):
    """The rows coproduct_decompose reports, as [(name, ok, witness, detail)],
    entry by entry through value(): the first failing instance, t before u
    or n, of (1) f_t(x^(p_u)) = delta_tu, (2) f_t(x^(n+1)) =
    sum_u f_t(x^(p_u+1)) f_u(x^n) on n = lo..M-1, (4) f(x^(n+lo)) =
    sum_u f(x^(p_u+lo)) f_u(x^n) on n = lo..M and (5) g_t(x^n) =
    f(x^(n+p_t)) on n = lo..N."""
    left, right, pivots, lo = findual._shift_space(f)
    N, M = certified_degrees(pivots, lo, findual._depth(f, depth))
    canon = f.field.canon

    def expansion(h, n):
        """sum_u h(p_u) f_u(x^n) for h a function of the degree."""
        return canon(sum(h(p) * u.value(n) for p, u in zip(pivots, left)))

    def first(instances):
        return next(iter(instances), None)

    witnesses = (
        first((t, p) for t, ft in enumerate(left) for u, p in enumerate(pivots) if ft.value(p) != (1 if u == t else 0)),
        first(
            (t, n)
            for t, ft in enumerate(left)
            for n in range(lo, M)
            if expansion(lambda d, ft=ft: ft.value(d + 1), n) != ft.value(n + 1)
        ),
        first((n,) for n in range(lo, M + 1) if expansion(lambda d: f.value(d + lo), n) != f.value(n + lo)),
        first((t, n) for t, (p, gt) in enumerate(zip(pivots, right)) for n in range(lo, N + 1) if gt.value(n) != f.value(n + p)),
    )
    return [(name, wit is None, wit, "") for name, wit in zip(ROWS, witnesses)]


def triple_scan_witness(f, depth):
    """First (a, b, c), a + b + c <= depth, where the two expansions of m*(f)
    through the factors' decompositions h = sum_u f_u (x) sigma^(p_u) h
    differ; None when none does."""
    left, right, pivots, lo = findual._shift_space(f)
    canon = f.field.canon

    def pairing(h, a, b):
        return sum(u.value(a) * h.value(p + b) for u, p in zip(left, pivots))

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
    """h with s_degree moved by delta and s_n unchanged for n < degree.  Its
    initial values run to x^degree, past MAX_ORDER at large depths: the
    cap bounds documents, not the certificate."""
    if degree == 0:
        return _bent(h, 0, delta)
    values = h.prefix(max(degree, len(h.initial)))
    values[degree - 1] = h.field.canon(values[degree - 1] + delta)
    bent = RecurrentSequence(h.field, h.s0, values[: h.order], h.coeffs)
    bent.initial, bent._vals = values, list(values)
    return bent


def _shifted(f, d):
    """sigma^d f, the window of f's values from x^d on, as its own sequence."""
    return RecurrentSequence(f.field, f.value(d) if f.s0 is not None else None, f.prefix(d + len(f.initial))[d:], f.coeffs)


def _bend_decomposition_of(monkeypatch, target, edit):
    """Make _shift_space(target) return its basis, shifts and pivots after
    edit(basis, shifts, pivots) has changed those lists in place; every
    other call is untouched."""
    original = findual._shift_space

    def bent(h):
        basis, shifts, pivots, lo = original(h)
        if h == target:
            basis, shifts, pivots = list(basis), list(shifts), list(pivots)
            edit(basis, shifts, pivots)
        return basis, shifts, pivots, lo

    monkeypatch.setattr(findual, "_shift_space", bent)


def _random_bend(rng, f, depth):
    """One edit of f's decomposition: a basis element or a shift bent at a
    random position, or only past the degrees the first identity reads; a
    shift taken one degree too far (a right window off by one); or a pivot
    moved with its shift (a wrong pivot window)."""
    kind, position, delta, index = rng.randrange(6), rng.randrange(6), rng.randint(1, 4), rng.randrange(4)
    move, share = rng.choice((-1, 1, 2)), rng.random()
    lo = 0 if f.s0 is not None else 1

    def edit(basis, shifts, pivots):
        if not pivots:
            return
        k = index % len(pivots)
        part = (basis, shifts)[kind % 2]
        if kind < 2:
            part[k] = _bent(part[k], position, delta)
        elif kind < 4:
            # from a degree in depth - lo + 1 .. N, past the first identity
            last = certified_degrees(pivots, lo, depth)[0]
            first = min(depth - lo + 1, last)
            part[k] = _bent_from(part[k], first + int(share * (last - first + 1)), delta)
        elif kind == 4:
            shifts[k] = _shifted(f, pivots[k] + 1)
        else:
            pivots[k] = max(pivots[k] + move, lo)
            shifts[k] = _shifted(f, pivots[k])

    return edit


def _bent_outcome(monkeypatch, f, depth, edit):
    """coproduct_decompose's report on f's decomposition after edit, which
    must equal the per-entry reference."""
    with monkeypatch.context() as m:
        _bend_decomposition_of(m, f, edit)
        got = _outcome(f, depth)
        assert got == _expected(f, depth), (f, depth)
    return got


def _bend_cases_505():
    """180 random bends: (f, depth, edit)."""
    rng = random.Random(505)
    for case in range(180):
        field = (QQ, GF(5), GF(10007))[case % 3]
        f = _random_sequence(rng, field, with_s0=case % 2 == 0)
        depth = rng.randint(0, 20)
        yield f, depth, _random_bend(rng, f, depth)


def _bend_cases_507():
    """Each factor bent only from the last degree the certificate reads of
    it: (f, depth, edit, row, witness), where row and witness are those of
    the failure at that degree, or None for basis elements bent from N."""
    rng = random.Random(507)
    for field in (QQ, GF(10007)):
        for with_s0 in (True, False):
            lo = 0 if with_s0 else 1
            for depth in (0, 2, 5, 9):
                f = _random_sequence(rng, field, with_s0)
                pivots = findual._shift_space(f)[2]
                N, M = certified_degrees(pivots, lo, depth)
                for side, last, row, edge in ((0, N, None, None), (0, M, 1, M - 1), (1, N, 3, N)):
                    for k in range(len(pivots)):

                        def edit(basis, shifts, pivots, side=side, k=k, last=last):
                            part = (basis, shifts)[side]
                            part[k] = _bent_from(part[k], last, 1)

                        yield f, depth, edit, row, None if edge is None else (k, edge)


def test_bent_decompositions_report_the_failing_factor(monkeypatch):
    failing = dict.fromkeys(ROWS, 0)
    for f, depth, edit in _bend_cases_505():
        for name, ok, _, _ in _bent_outcome(monkeypatch, f, depth, edit) or ():
            failing[name] += not ok
    assert all(count >= 10 for count in failing.values()), failing


def test_factors_bent_at_the_last_degree_the_certificate_reads(monkeypatch):
    # A basis element bent only from degree M on, or a shift only from N on,
    # is out of V at the last degree the certificate reads of it: in (2) at
    # n = M - 1 for an f_t and in (5) at n = N for a g_t.  Basis elements
    # bent from N on are in the corpus too.
    edge_witnesses = {ROWS[1]: 0, ROWS[3]: 0}
    for f, depth, edit, row, witness in _bend_cases_507():
        got = _bent_outcome(monkeypatch, f, depth, edit)
        if row is not None and got is not None and got[row][2] == witness:
            edge_witnesses[ROWS[row]] += 1
    assert min(edge_witnesses.values()) >= 10, edge_witnesses


def test_certified_coproduct_matches_the_scanning_reference_on_bent_decompositions(monkeypatch):
    # The bends of the two tests above against the scans the certificate
    # stands in for: a bend that fails the per-entry first identity or the
    # triple scan is rejected.
    kinds = {"first identity": 0, "triple scan": 0, "certificate only": 0, "pass": 0}
    bends = itertools.chain(_bend_cases_505(), (case[:3] for case in _bend_cases_507()))
    for f, depth, edit in bends:
        with monkeypatch.context() as m:
            _bend_decomposition_of(m, f, edit)
            got = _outcome(f, depth)
            left, right, _, lo = findual._shift_space(f)
            first = _first_pair_failure(left, right, f, lo, depth) is not None
            triples = triple_scan_witness(f, depth) is not None
        assert got is not None or not (first or triples), (f, depth)
        kinds["first identity"] += first
        kinds["triple scan"] += triples
        kinds["certificate only"] += got is not None and not (first or triples)
        kinds["pass"] += got is None
    assert min(kinds.values()) >= 10, kinds


def test_each_identity_reports_its_least_failing_instance(monkeypatch):
    # f = 0, 1, 1, 2, 3, 5, ...: lo = 0, pivots 0 and 1, and at depth 6
    # N = 7 and M = 8.  f_1 = 0, 2, 1, ... in place of 0, 1, 1, ... fails
    # (1) at f_1(x^1), (2) first for f_0 at n = 1 (f_0(x^2) = 1 against
    # f_1(x^1) = 2) and (4) at n = 1; the shift sigma^2 f in place of
    # sigma f fails (5) only, at n = 1 (f(x^3) = 2 against f(x^2) = 1).
    fib = fibonacci(QQ)

    def bent_basis(basis, shifts, pivots):
        basis[1] = _bent(basis[1], 1, 1)

    def far_shift(basis, shifts, pivots):
        shifts[1] = _shifted(fib, 2)

    for edit, witnesses in ((bent_basis, [(1, 1), (0, 1), (1,), None]), (far_shift, [None, None, None, (1, 1)])):
        got = _bent_outcome(monkeypatch, fib, 6, edit)
        assert got == [(name, wit is None, wit, "") for name, wit in zip(ROWS, witnesses)]


def test_unbent_decompositions_pass_the_triple_scan():
    rng = random.Random(506)
    for case in range(30):
        field = (QQ, GF(3), GF(10007))[case % 3]
        f = _random_sequence(rng, field, with_s0=case % 2 == 0)
        depth = rng.randint(0, 20)
        assert triple_scan_witness(f, depth) is None
        assert _expected(f, depth) is None
        assert _outcome(f, depth) is None


def test_a_basis_of_another_shift_space_fails_the_certificate(monkeypatch):
    # The echelon basis of another sequence with the same pivots satisfies
    # (1) and (2), and the shifts are still windows of f; only the
    # expansion (4) of h = sigma^lo f through the basis, and with it the
    # first identity, sees that f is not in their span.
    rng = random.Random(509)
    caught = 0
    for case in range(60):
        field = (QQ, GF(5), GF(10007))[case % 3]
        f = _random_sequence(rng, field, with_s0=case % 2 == 0)
        scalar = (lambda: rng.randint(-3, 3)) if field.p is None else (lambda: rng.randrange(field.p))
        other = RecurrentSequence(
            field, None if f.s0 is None else scalar(), [scalar() for _ in f.initial], [scalar() for _ in f.coeffs]
        )
        basis, _, pivots, _ = findual._shift_space(other)
        depth = rng.randint(0, 20)
        if pivots != findual._shift_space(f)[2]:
            continue

        def edit(b, shifts, p, basis=basis):
            b[:] = basis

        got = _bent_outcome(monkeypatch, f, depth, edit)
        if got is not None:
            assert [ok for _, ok, _, _ in got] == [True, True, False, True], (f, other, depth)
            caught += 1
    assert caught >= 20, caught


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


# ---------------------------------------------------------------------------
# the recurrence window


def _order6_q(rng, with_s0):
    coeffs = [rng.randint(-3, 3) for _ in range(5)] + [rng.choice((-2, -1, 1, 2))]
    s0 = rng.randint(-3, 3) if with_s0 else None
    return RecurrentSequence(QQ, s0, [rng.randint(-3, 3) for _ in range(6)], coeffs)


def test_the_certificate_reads_no_table_past_the_recurrence_window(monkeypatch):
    # Every factor has f's coefficients and len(f.initial) = E initial
    # values, so the tables stop at E + P + 1 at any depth.
    tops, original = [], findual._tables

    def recorded(hs, top, field):
        tops.append(top)
        return original(hs, top, field)

    monkeypatch.setattr(findual, "_tables", recorded)
    rng = random.Random(23)
    for with_s0 in (True, False):
        for f in (_order8(GF(10007), rng, with_s0), _order6_q(rng, with_s0)):
            for depth in (26, findual.MAX_DEPTH):
                tops.clear()
                dec = coproduct_decompose(f, depth)
                E, P = len(f.initial), max(dec.pivots)
                assert len(tops) == 2 and max(tops) <= E + P + 1 < depth, (f, depth, tops)
                assert _expected(f, depth) is None


def test_the_window_reports_as_the_full_range_up_to_max_depth(monkeypatch):
    # Random sequences at depths up to MAX_DEPTH, and a basis element or a
    # shift bent from a degree between E + 1 and M, past f's E initial
    # values: the bent factor's own initial values reach that degree, so
    # the window does too, and the report is the full-range reference's.
    rng = random.Random(2301)
    failed = 0
    for case in range(48):
        field = (QQ, GF(3), GF(10007))[case % 3]
        f = _random_sequence(rng, field, with_s0=case % 2 == 0)
        depth = rng.choice((rng.randint(0, findual.MAX_DEPTH), findual.MAX_DEPTH))
        assert _outcome(f, depth) is None and _expected(f, depth) is None, (f, depth)
        lo = 0 if f.s0 is not None else 1
        pivots = findual._shift_space(f)[2]
        if not pivots:
            continue
        M = certified_degrees(pivots, lo, depth)[1]
        side, k = rng.randrange(2), rng.randrange(len(pivots))
        degree = rng.randint(len(f.initial) + 1, max(len(f.initial) + 1, M))

        def edit(basis, shifts, pivots, side=side, k=k, degree=degree):
            part = (basis, shifts)[side]
            part[k] = _bent_from(part[k], degree, 1)

        failed += _bent_outcome(monkeypatch, f, depth, edit) is not None
    assert failed >= 20, failed


def test_a_factor_with_other_coefficients_keeps_the_full_range(monkeypatch):
    # A factor that keeps its values up to x^(d-1), d - 1 past f's initial
    # values, and then follows other coefficients first leaves V at x^d.
    # Its d - 1 initial values would stop a window before x^d, so the
    # certificate reads the full range and reports the failure there: at
    # n = d - 1 in (2) for a basis element and at n = d in (5) for a shift.
    rng = random.Random(2302)
    caught = {ROWS[1]: 0, ROWS[3]: 0}
    for case in range(60):
        field = (QQ, GF(5), GF(10007))[case % 3]
        f = _random_sequence(rng, field, with_s0=case % 2 == 0)
        lo = 0 if f.s0 is not None else 1
        depth = rng.randint(12, 40)
        pivots = findual._shift_space(f)[2]
        if not pivots:
            continue
        side, k = (case // 2) % 2, rng.randrange(len(pivots))
        last = certified_degrees(pivots, lo, depth)[1 - side]  # M for a basis element, N for a shift
        d = rng.randint(len(f.initial) + 2, last)

        def edit(basis, shifts, pivots, side=side, k=k, d=d):
            part = (basis, shifts)[side]
            h = part[k]
            part[k] = RecurrentSequence(h.field, h.s0, h.prefix(d - 1), h.coeffs[:-1] + [h.coeffs[-1] + 1])

        got = _bent_outcome(monkeypatch, f, depth, edit)
        row = (1, 3)[side]
        if got is not None and got[row][2] == (k, d - 1 + side):
            caught[ROWS[row]] += 1
    assert min(caught.values()) >= 10, caught


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

    def edit(basis, shifts, pivots):
        basis[1] = _bent(basis[1], 2, 1)

    _bend_decomposition_of(monkeypatch, f, edit)
    caplog.clear()
    with pytest.raises(ValidationFailure) as err:
        coproduct_decompose(f, 28)
    (record,) = caplog.records
    assert record.args == (len(left), 28, 29)
    assert err.value.report.first_failure().witness[0] == 1
    assert _checks(err.value.report) == reference_coproduct_checks(f, 28)


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
    # the default depth 2r + 16 of the longest sequence stays within MAX_DEPTH
    long = RecurrentSequence(GF(5), None, [1] * findual.MAX_ORDER, [0] * (findual.MAX_ORDER - 1) + [1])
    assert findual.default_depth(long) <= findual.MAX_DEPTH
    assert vanishing_check(long, long.coeffs).ok


def test_vanishing_polynomial_degree_is_capped():
    # f is read to degree min(depth, L) + r, L its initial values; past
    # READ_DEGREE, MAX_HEIGHT does not bound the values read.  Over Q on
    # f = (1, 200 s), r = 8000 took 49 MB and 24000 took 315 MB, and one
    # 128 KB argument holds r = 65000.
    cap = 2 * findual.MAX_ORDER
    assert cap == findual.READ_DEGREE - findual.MAX_DEPTH
    steep = RecurrentSequence(QQ, 1, [200], [200])
    for degree in (cap + 1, 65000):
        start = time.perf_counter()
        with pytest.raises(InputError, match=f"^polynomial degree {degree} is past the cap 2 MAX_ORDER = {cap}$"):
            vanishing_check(steep, [0] * degree)
        assert time.perf_counter() - start < 0.1
    # an order-80 sequence and x p(x), and x^80 p(x) at the cap, at MAX_DEPTH
    periodic = RecurrentSequence(QQ, 2, [1, -1] * 40, [0] * 79 + [1])
    for extra in (1, findual.MAX_ORDER):
        assert vanishing_check(periodic, list(periodic.coeffs) + [0] * extra, findual.MAX_DEPTH).ok


def test_sequence_order_and_initial_values_are_capped():
    cap = findual.MAX_ORDER
    assert RecurrentSequence(QQ, None, [1] * cap, [0] * (cap - 1) + [1]).order == cap
    with pytest.raises(InputError, match=f"recurrence order {cap + 1} is past the cap MAX_ORDER = {cap}"):
        RecurrentSequence(QQ, None, [1] * (cap + 1), [0] * (cap + 1))
    with pytest.raises(InputError, match=f"^{cap + 1} initial values are past the cap MAX_ORDER = {cap}"):
        RecurrentSequence(GF(5), 1, [1] * (cap + 1), [1])
    with pytest.raises(InputError, match="recurrence order 1000 is past the cap"):
        RecurrentSequence(QQ, None, [], [1] * 1000)


def test_sequence_scalar_size_is_capped_over_q():
    bits, height, read = findual.MAX_SCALAR_BITS, findual.MAX_HEIGHT, findual.READ_DEGREE
    # order 10 with 1000-digit values took 8.8 s at its default depth
    big = 10**999 + 7
    with pytest.raises(InputError, match=f"past the cap MAX_SCALAR_BITS = {bits}$"):
        findual.check_size(RecurrentSequence(QQ, big, [big] * 10, [big] * 10))
    # 64 bits in all, but the values grow 62 bits a step: 6 s at MAX_DEPTH
    steep = RecurrentSequence(QQ, 1, [1], [2**62 - 1])
    assert findual.height_bound(steep) == 1 + read * 62
    with pytest.raises(InputError, match=f"past the cap MAX_HEIGHT = {height}$"):
        findual.check_size(steep)
    # the common denominator counts: d = 6 and S = 6 (1/2 + 1/3) = 5
    assert findual.height_bound(RecurrentSequence(QQ, None, [Fraction(-7, 4), 1], [Fraction(1, 2), Fraction(-1, 3)])) == (
        5 + read * (3 + 3 - 1)
    )
    # at each cap the sequence passes, one bit past it fails
    wide = RecurrentSequence(QQ, None, [2 ** (bits - 1) - 1], [1])
    assert findual.check_size(wide) is wide
    with pytest.raises(InputError, match=f"^scalars of {bits + 1} bits in all are past the cap"):
        findual.check_size(RecurrentSequence(QQ, None, [2 ** (bits - 1)], [1]))
    g = (height - 1) // read  # the steepest growth with h0 = 1
    edge = RecurrentSequence(QQ, 1, [1], [2**g - 1])
    assert findual.height_bound(edge) == 1 + read * g and findual.check_size(edge) is edge
    with pytest.raises(InputError, match=f"^values of up to {1 + read * (g + 1)} bits at depth MAX_DEPTH"):
        findual.check_size(RecurrentSequence(QQ, 1, [1], [2**g]))
    # the slowest kind of document under both caps: order 80, coefficients 3
    slow = RecurrentSequence(QQ, 5, [-15] * 80, [3] * 80)
    assert findual.check_size(slow) is slow
    # over F_p every value is below p: no cap
    residues = RecurrentSequence(GF(10007), 10006, [10006] * 80, [10006] * 80)
    assert findual.check_size(residues) is residues


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
    pivots = dense_rref(rows, len(cols), f.field)

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


def _shift_space_edge_cases():
    """(f, rank): orders past MAX_BOUND up to MAX_ORDER over GF(10007),
    with s_0 (rank order + 1, up to MAX_ORDER + 1) and without; order 12
    over Q; delayed sequences whose minimal polynomial has the factor x;
    and 2^n under the order-2 recurrence of (x - 2)(x - 3), rank 1."""
    rng = random.Random(704)
    F = GF(10007)
    for order in (findual.MAX_BOUND + 1, 57, findual.MAX_ORDER):
        for s0 in (rng.randrange(F.p), None):
            initial, coeffs = ([rng.randrange(1, F.p) for _ in range(order)] for _ in range(2))
            yield RecurrentSequence(F, s0, initial, coeffs), order + (s0 is not None)
    initial, coeffs = ([Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(12)] for _ in range(2))
    yield RecurrentSequence(QQ, Fraction(1, 3), initial, coeffs), 13
    for field in (QQ, GF(5)):  # s_n = s_(n-1) + s_(n-2) from n = 6: x^4, x^2 divide the minimal polynomials
        yield RecurrentSequence(field, 1, [2, 0, 3, 1, 1], [1, 1, 0, 0]), 6
        yield RecurrentSequence(field, None, [2, 0, 3, 1, 1], [1, 1, 0, 0]), 4
    yield RecurrentSequence(QQ, 1, [2, 4], [5, -6]), 1


def test_shift_space_matches_the_per_entry_reference():
    ranks = set()
    for _, f, _ in _oracle_cases(701):
        basis, shifts, pivots, lo = findual._shift_space(f)
        assert (basis, shifts, pivots, lo) == reference_shift_space(f), f
        ranks.add(len(basis))
    assert ranks >= set(range(7)), ranks
    for f, rank in _shift_space_edge_cases():
        basis, shifts, pivots, lo = findual._shift_space(f)
        assert (basis, shifts, pivots, lo) == reference_shift_space(f), f
        assert len(basis) == rank, f


def test_dorroh_assembly_matches_the_loop_on_bent_decompositions(monkeypatch):
    # The split reads only the edge of its pairing, as the interior is the
    # first identity of phi_I's decomposition, which coproduct_decompose
    # certifies or raises on.  So bend that decomposition before it is
    # certified: the split is refused with it, or equals the full assembly
    # loop on the decomposition that passed.
    kinds = {"assembled": 0, "refused": 0}
    for rng, f, depth in _oracle_cases(702):
        if f.s0 is None:
            f = RecurrentSequence(f.field, _oracle_scalar(rng, f.field), f.initial, f.coeffs)
        phi_i = RecurrentSequence(f.field, None, f.initial, f.coeffs)
        side, index, position, delta = rng.randrange(2), rng.randrange(4), rng.randrange(6), rng.randint(0, 4)

        def edit(basis, shifts, pivots):
            part = (basis, shifts)[side]
            if part:
                k = index % len(part)
                part[k] = _bent(part[k], position, delta)

        with monkeypatch.context() as m:
            _bend_decomposition_of(m, phi_i, edit)
            try:
                got = _checks(dorroh_decompose(f, depth))
            except ValidationFailure as err:
                assert str(err) == "coproduct decomposition is internally inconsistent"
                kinds["refused"] += 1
                continue
            dec = coproduct_decompose(phi_i, depth)
        expected = _checks(reference_dorroh_report(f, dec, findual._depth(f, depth)))
        assert got == expected, (f, depth, side, index, position, delta)
        kinds["assembled"] += 1
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


def reference_vanishing_check(f, pcoeffs, depth=None):
    """vanishing_check as written before it stopped at the recurrence
    window: the full scan of n = lo..depth, reading f to x^(depth+r)."""
    r = len(pcoeffs)
    depth = findual._depth(f, depth)
    canon = f.field.canon
    rcoeffs = [canon(v) for v in reversed(pcoeffs)]  # c_r .. c_1
    lo = 0 if f.s0 is not None else 1
    vals = ([f.s0] if f.s0 is not None else []) + f.prefix(depth + r)  # f(x^m) at index m - lo
    wit = None
    for k in range(depth - lo + 1):
        if canon(vals[k + r] - sum(map(operator.mul, rcoeffs, vals[k : k + r]))) != 0:
            wit = (k + lo,)
            break
    return Report().add_witness("f(x^n p(x))=0", wit)


def _window_scalar(rng, field):
    """Mostly a small integer; over Q now and then a fraction."""
    if field.p is not None:
        return rng.randrange(field.p)
    if rng.random() < 0.15:
        return Fraction(rng.randint(-3, 3), rng.choice((2, 3)))
    return rng.randint(-2, 2)


def _poly_mul(a, b, field):
    """The product of two coefficient lists, lowest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [field.canon(v) for v in out]


def _vanishing_cases(seed, count):
    """(f, pcoeffs, depth, kind): a sequence over Q, GF(7) or GF(10007)
    with and without s_0, with L = order or L > order, at a depth from 0
    to MAX_DEPTH (below L a quarter of the time) or the default, and a
    polynomial that passes (x^j chi_f q with j large enough for every
    n >= lo, a multiple of x chi_f), one that may fail inside the window
    (j too small) or a random one of degree 1..2 MAX_ORDER."""
    rng = random.Random(seed)
    cap = 2 * findual.MAX_ORDER
    for case in range(count):
        field = (QQ, GF(7), GF(10007))[case % 3]
        order = rng.randint(0, 8) if field.p is None or rng.random() < 0.9 else rng.randint(9, findual.MAX_ORDER)
        L = order if case % 2 == 0 else min(order + rng.randint(1, 8), findual.MAX_ORDER)
        s0 = _window_scalar(rng, field) if case % 4 < 2 else None
        coeffs = [_window_scalar(rng, field) for _ in range(order)]
        initial = [_window_scalar(rng, field) for _ in range(L)]
        kind = ("pass", "window", "random")[rng.randrange(3)]
        if kind == "window" or rng.random() < 0.3:  # follow the recurrence from s_(order+1) but for one bend: failures come late
            bend = rng.randint(order + 1, L) if L > order else None
            for k in range(order + 1, L + 1):
                step = sum(c * initial[k - 1 - i] for i, c in enumerate(coeffs, 1))
                initial[k - 1] = field.canon(step + (rng.randint(1, 3) if k == bend else 0))
        f = RecurrentSequence(field, s0, initial, coeffs)
        lo = 0 if s0 is not None else 1
        depth = rng.choice((rng.randint(0, max(L - 1, 0)), rng.randint(0, findual.MAX_DEPTH), findual.MAX_DEPTH, None))
        chi = [field.canon(-c) for c in reversed(f.coeffs)] + [1]  # x^r - sum_i c_i x^(r-i), lowest degree first
        need = max(1, L - order + 1 - lo)  # x^need chi_f kills x^n for every n >= lo
        if kind == "random" or (kind == "window" and need == 1):
            kind = "random"
            p = [_window_scalar(rng, field) for _ in range(rng.randint(1, cap))] + [1]
        else:
            j = need + rng.randint(0, 2) if kind == "pass" else rng.randint(0, need - 1)
            q = [_window_scalar(rng, field) for _ in range(rng.randint(0, 3) if rng.random() < 0.9 else cap)] + [1]
            p = _poly_mul([0] * j + chi, q, field)
            if len(p) > cap + 1:  # cut to the cap, still monic: then it need not pass
                p, kind = p[:cap] + [1], "cut"
        r = len(p) - 1
        if r == 0:
            p, r = [0, 1], 1
        yield f, [field.canon(-p[r - i]) for i in range(1, r + 1)], depth, kind


def test_vanishing_window_matches_the_full_scan():
    found = {"pass": 0, "fail": 0, "late witness": 0, "depth below L": 0, "depth MAX_DEPTH": 0, "L > order": 0, "no s_0": 0}
    for f, pcoeffs, depth, kind in _vanishing_cases(727, 720):
        got = _checks(vanishing_check(f, pcoeffs, depth))
        want = _checks(reference_vanishing_check(RecurrentSequence(f.field, f.s0, f.initial, f.coeffs), pcoeffs, depth))
        assert got == want, (f, pcoeffs, depth)
        if kind == "pass":
            assert got[0][1], (f, pcoeffs, depth)
        lo = 0 if f.s0 is not None else 1
        found["pass" if got[0][1] else "fail"] += 1
        found["late witness"] += not got[0][1] and got[0][2][0] > lo
        found["depth below L"] += depth is not None and depth < len(f.initial)
        found["depth MAX_DEPTH"] += depth == findual.MAX_DEPTH
        found["L > order"] += len(f.initial) > f.order
        found["no s_0"] += f.s0 is None
    assert min(found.values()) >= 40, found


def test_vanishing_extends_the_value_memo_only_to_the_window():
    rng = random.Random(728)
    for field in (QQ, GF(7), GF(10007)):
        for order, extra, r in ((0, 0, 1), (3, 0, 2), (5, 3, 7), (8, 2, 2 * findual.MAX_ORDER)):
            for depth in (0, 1, order + extra - 1, order + extra, 40, findual.MAX_DEPTH):
                if depth < 0:
                    continue
                s0 = _window_scalar(rng, field) if depth % 2 else None
                initial = [_window_scalar(rng, field) for _ in range(order + extra)]
                f = RecurrentSequence(field, s0, initial, [_window_scalar(rng, field) for _ in range(order)])
                vanishing_check(f, [_window_scalar(rng, field) for _ in range(r)], depth)
                L = order + extra
                assert len(f._vals) == max(L, min(depth, L) + r), (f, r, depth)
    # prefix still hands out a copy of the memo
    f = fibonacci(QQ)
    head = f.prefix(5)
    head.append(0)
    assert f.prefix(6) == [1, 1, 2, 3, 5, 8]


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


# ---------------------------------------------------------------------------
# differential oracle: the basis certificate and Berlekamp-Massey against
# the code they replaced, kept verbatim but for the pairing and the value
# tables, written out here in integers (the coproduct also hands back its
# report, and logs nothing)


def pairing_failure(lefts, rights, values, lo, top, p):
    """Least (i, j), lexicographic, with i, j >= lo and i + j <= top at which
    sum_u lefts[u](x^i) rights[u](x^j) differs from values(x^(i+j)); None
    when there is none.  Every sequence is a table (T, D) over n = lo, lo+1,
    ..., its values T[n - lo] / D, as ``_value_table`` gives it.

    The lefts and the rights are each brought to a common denominator, dl
    and dr, so over Q the identity is compared in integers, without a
    Fraction, as sum L R D = V dl dr; over F_p every denominator is 1 and
    the difference is reduced mod ``p``."""
    size = top - 2 * lo + 1
    (lefts, dl), (rights, dr), (values, dv) = _common(lefts), _common(rights), values
    dlr = dl * dr
    cols = list(zip(*rights)) or [()] * size
    for a in range(size):
        row = [v[a] for v in lefts]
        for b, col in enumerate(cols[: size - a]):
            diff = sum(map(operator.mul, row, col)) * dv - values[a + b + lo] * dlr
            if diff and (p is None or diff % p):
                return (a + lo, b + lo)
    return None


def _common(tables):
    """Tables (T, D) over their least common denominator d, and d."""
    d = math.lcm(*(D for _, D in tables))
    return [[t * (d // D) for t in T] for T, D in tables], d


def _value_table(h, top):
    """(T, D) with h(x^n) = T[n - lo] / D for n = lo..top, lo = 0 with s_0 and
    1 without, the recurrence run in integers: mod p over F_p, and over Q on
    t_n = s_n D0 d^n, where D0 clears the given values and d = lcm of the
    coefficients' denominators, c_i = b_i / d, so t_n = sum_i b_i d^(i-1) t_(n-i)."""
    lo = 0 if h.s0 is not None else 1
    given = [h.s0][lo:] + h.initial
    r, p = len(h.coeffs), h.field.p
    if p is not None:
        t, weights, d0, d = list(given), h.coeffs[::-1], 1, 1
    else:
        d0 = math.lcm(*(v.denominator for v in given))
        d = math.lcm(*(c.denominator for c in h.coeffs))
        weights = [c.numerator * (d // c.denominator) * d ** (i - 1) for i, c in enumerate(h.coeffs, 1)][::-1]
        t = [v.numerator * (d0 // v.denominator) * d ** (n + lo) for n, v in enumerate(given)]
    for _ in range(len(t) + lo, top + 1):
        step = sum(map(operator.mul, weights, t[len(t) - r :]))
        t.append(step % p if p else step)
    t = t[: top + 1 - lo]
    return [v * d ** (top - n - lo) for n, v in enumerate(t)], d0 * d**top


def reference_coproduct_decompose(f, depth=None):
    """coproduct_decompose as written before the basis certificate: every
    factor decomposed again through its own shift space, found by
    elimination (reference_shift_space), and paired on a + b <= depth - lo.
    The value tables are in integers (``_value_table``), one per distinct
    sequence: the factors' shift spaces share most of their sequences."""
    _shift_space, tables = reference_shift_space, {}
    depth = findual._depth(f, depth)

    def _values(h, depth):
        key = (h.s0, tuple(h.initial), tuple(h.coeffs))
        if key not in tables:
            tables[key] = _value_table(h, depth)
        return tables[key]

    left, right, pivots, lo = _shift_space(f)
    dec = findual.CoproductDecomposition(len(left), left, right, pivots)
    p = f.field.p
    lv = [_values(ft, depth) for ft in left]
    rv = [_values(gt, depth) for gt in right]

    report = Report()
    first = pairing_failure(lv, rv, _values(f, depth), lo, depth, p)
    report.add_witness("f(x^(i+j))=sum f_t(x^i)g_t(x^j)", first)

    wit, detail = None, ""
    factors = [("f", t, ft, v) for t, (ft, v) in enumerate(zip(left, lv))]
    factors += [("g", t, gt, v) for t, (gt, v) in enumerate(zip(right, rv))]
    for name, t, h, hv in factors:
        hl, hr = ([_values(u, depth) for u in part] for part in _shift_space(h)[:2])
        wit = pairing_failure(hl, hr, hv, lo, depth - lo, p)
        if wit is not None:
            detail = f"decomposition of {name}_{t}"
            break
    report.add("h(x^(a+b))=sum h_u(x^a)h'_u(x^b) for h in {f_t, g_t}", wit is None, wit, detail)

    if not report.ok:
        raise ValidationFailure(report, "coproduct decomposition is internally inconsistent")
    return dec, report


def reference_minimal_recurrence(prefix, bound, field):
    """minimal_recurrence as written before Berlekamp-Massey: for growing r,
    a monic vector in the kernel of the (r+1)-column Hankel matrix."""
    findual.check_bound(bound)
    m = len(prefix)
    if m < 2 * bound + 2:
        raise InputError(f"prefix of length {m} is too short for bound {bound} (need {2 * bound + 2})")
    prefix = [field.canon(v) for v in prefix]
    for r in range(bound + 1):
        if r == 0:
            if all(v == 0 for v in prefix):
                return RecurrentSequence(field, None, [], [])
            continue
        rows = []
        rhs = []
        for n in range(r + 1, m + 1):
            rows.append([prefix[n - 1 - i] for i in range(1, r + 1)])
            rhs.append(prefix[n - 1])
        sol = solve_linear(Matrix(len(rows), r, rows, field), rhs)
        if sol is not None:
            return RecurrentSequence(field, None, prefix[:r], sol)
    return None


def _differential_cases(seed, count):
    """Q with fractions, GF(5) and GF(10007), with and without s_0, orders
    0..8 with 0..2 extra initial values, depths 0..40 or the default."""
    rng = random.Random(seed)
    for case in range(count):
        field = (QQ, GF(5), GF(10007))[case % 3]
        order, extra = rng.randint(0, 8), rng.randint(0, 2)
        initial = [_oracle_scalar(rng, field) for _ in range(order + extra)]
        s0 = _oracle_scalar(rng, field) if case % 2 == 0 else None
        f = RecurrentSequence(field, s0, initial, [_oracle_scalar(rng, field) for _ in range(order)])
        yield rng, f, rng.choice((None, rng.randint(0, 40)))


class _KeptReports(Report):
    """A Report that keeps every instance made, to read a passing report."""

    made = []

    def __init__(self):
        super().__init__()
        self.made.append(self)


def test_coproduct_matches_the_per_factor_reference():
    ranks, depths = set(), set()
    for _, f, depth in _differential_cases(801, 300):
        dec = coproduct_decompose(f, depth)
        ref, ref_report = reference_coproduct_decompose(f, depth)
        assert (dec.rank, dec.left, dec.right, dec.pivots) == (ref.rank, ref.left, ref.right, ref.pivots), (f, depth)
        assert ref_report.ok, (f, depth)
        ranks.add(dec.rank)
        depths.add(depth)
    assert ranks >= set(range(10)) and len(depths) >= 30, (ranks, depths)


def test_certified_coproduct_and_dorroh_split_match_the_scanning_references(monkeypatch):
    # On the sequences above: the passing report against the per-entry
    # reference of its four rows, and the Dorroh split of the unital
    # functional against the full assembly loop.
    monkeypatch.setattr(findual, "Report", _KeptReports)
    ranks = set()
    for _, f, depth in _differential_cases(801, 300):
        _KeptReports.made.clear()
        dec = coproduct_decompose(f, depth)
        (report,) = _KeptReports.made
        assert _checks(report) == reference_coproduct_checks(f, depth), (f, depth)
        ranks.add(dec.rank)
        unital = RecurrentSequence(f.field, 1, f.initial, f.coeffs) if f.s0 is None else f
        phi = coproduct_decompose(RecurrentSequence(f.field, None, f.initial, f.coeffs), depth)
        expected = _checks(reference_dorroh_report(unital, phi, findual._depth(f, depth)))
        assert _checks(dorroh_decompose(unital, depth)) == expected, (unital, depth)
    assert ranks >= set(range(10)), ranks


def test_minimal_recurrence_matches_the_hankel_reference():
    found = {"recurrence": 0, "none": 0}
    for rng, f, _ in _differential_cases(802, 300):
        # the sequence's prefixes at every bound, and random values at one
        prefixes = [(f.prefix(2 * bound + 2 + rng.randint(0, 3)), bound) for bound in range(9)]
        bound = rng.randint(0, 8)
        prefixes.append(([_oracle_scalar(rng, f.field) for _ in range(2 * bound + 2 + rng.randint(0, 3))], bound))
        for prefix, bound in prefixes:
            got = minimal_recurrence(prefix, bound, f.field)
            assert got == reference_minimal_recurrence(prefix, bound, f.field), (prefix, bound)
            found["none" if got is None else "recurrence"] += 1
    assert min(found.values()) >= 1000, found


def test_no_elimination_per_coproduct_or_minimal_recurrence(monkeypatch):
    # Berlekamp-Massey finds the shift-space basis as well as the minimal
    # recurrence; solve_linear, the Hankel solver, went through _rref too
    calls = []
    original = linalg._rref

    def counted(rows, width, field):
        calls.append(width)
        return original(rows, width, field)

    monkeypatch.setattr(linalg, "_rref", counted)
    assert not hasattr(findual, "_rref")
    for _, f, depth in _differential_cases(803, 30):
        coproduct_decompose(f, depth)
        minimal_recurrence(f.prefix(18), 8, f.field)
    assert calls == []


def test_minimal_recurrence_logs_one_event_per_call(caplog):
    caplog.set_level(logging.DEBUG, logger="dorroh.findual")
    cases = [
        ([1, 1, 2, 3, 5, 8, 13, 21, 34, 55], 4, 2),
        ([0] * 6, 2, 0),
        ([math.factorial(n) for n in range(1, 11)], 4, None),
    ]
    for prefix, bound, order in cases:
        caplog.clear()
        minimal_recurrence(prefix, bound, QQ)
        (record,) = caplog.records
        assert record.name == "dorroh.findual" and record.levelno == logging.DEBUG
        assert record.args == (len(prefix), bound, order)


# ---------------------------------------------------------------------------
# the certificate's logs and arithmetic


def test_dorroh_and_vanishing_log_one_event_per_call(caplog):
    caplog.set_level(logging.DEBUG, logger="dorroh.findual")
    fib = fibonacci(QQ)
    assert dorroh_decompose(fib, 12).ok
    coproduct, split = caplog.records
    assert coproduct.args == (2, 12, 12)
    assert split.name == "dorroh.findual" and split.levelno == logging.DEBUG
    assert split.args == (2, 12)
    caplog.clear()
    assert vanishing_check(fib, [2], 30).checks[0].witness == (0,)
    (record,) = caplog.records
    assert record.args == (1, 30, (0,))


def test_the_certificate_over_q_runs_on_integers(monkeypatch):
    # Over Q with fractional coefficients the values' denominators grow
    # with the degree.  The order-80 document with every coefficient 1/2
    # took 9-12 s at depth 40 before the certificate, and a certificate on
    # Fraction tables to M ran 1.3-1.6x slower than that; on integer tables
    # over one common denominator it makes no Fraction at all, whether it
    # passes or names the witnesses of a failure.
    profiles, original = [], findual._certified

    def profiled(*args):
        profiles.append(cProfile.Profile())
        return profiles[-1].runcall(original, *args)

    def edit(basis, shifts, pivots):
        basis[-1] = _bent(basis[-1], 1, 1)

    monkeypatch.setattr(findual, "_certified", profiled)
    rng = random.Random(3)
    for coeffs in ([Fraction(1, 2)] * 12, [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(6)]):
        f = RecurrentSequence(QQ, rng.randint(-4, 4), [rng.randint(-4, 4) for _ in coeffs], coeffs)
        profiles.clear()
        coproduct_decompose(f, 40)
        with monkeypatch.context() as m:
            _bend_decomposition_of(m, f, edit)
            with pytest.raises(ValidationFailure) as err:
                coproduct_decompose(f, 40)
            assert _checks(err.value.report) == reference_coproduct_checks(f, 40)
        for profile in profiles:
            called = {(path.rsplit("/", 1)[-1], name) for path, _, name in pstats.Stats(profile).stats}
            assert ("findual.py", "_integer_table") in called and ("fractions.py", "__new__") not in called
        assert len(profiles) == 2


# ---------------------------------------------------------------------------
# one Berlekamp-Massey run per sequence: phi_I takes f's, without two
# factors of x


def _with_x_power(rng, field, j):
    """A functional on k[x] that follows a recurrence with polynomial x^j g,
    g(0) != 0 of degree 0..3, from s_(deg) on, its first values random,
    and sometimes one or two initial values more that break it."""
    k = rng.randint(0, 3)
    coeffs = [_oracle_scalar(rng, field) for _ in range(k - 1)] + ([rng.randint(1, 4)] if k else []) + [0] * j
    r = len(coeffs)
    head = [_oracle_scalar(rng, field) for _ in range(r)] if r else [rng.randint(1, 3)]
    vals = RecurrentSequence(field, None, head, coeffs).prefix(r + 1)
    extra = [_oracle_scalar(rng, field) for _ in range(rng.choice((0, 0, 1, 2)))]
    return RecurrentSequence(field, vals[0], vals[1:] + extra, coeffs)


def _spied_phi(monkeypatch):
    """Make coproduct_decompose keep each sequence it decomposes, with
    its decomposition, in the list returned."""
    seen, original = [], findual.coproduct_decompose

    def spied(h, depth=None):
        dec = original(h, depth)
        seen.append((h, dec))
        return dec

    monkeypatch.setattr(findual, "coproduct_decompose", spied)
    return seen


def _types(run):
    return [type(c) for c in run[1]]


def test_phi_i_takes_the_run_of_its_sequence_without_two_factors_of_x(monkeypatch):
    # phi_I's shift space reads f from x^2 on, so its minimal polynomial is
    # m_f / gcd(m_f, x^2): at most two factors of x come off, also when x^3
    # divides m_f.
    seen = _spied_phi(monkeypatch)
    rng = random.Random(26)
    powers = {}
    for case in range(600):
        field = (QQ, GF(7), GF(10007))[case % 3]
        f = _with_x_power(rng, field, rng.randint(0, 4))
        seen.clear()
        assert dorroh_decompose(f, rng.choice((None, 12))).ok
        ((phi, _),) = seen
        run = findual._minimal_polynomial(f)
        own = findual._berlekamp_massey(f.prefix(2 * len(f.initial) + 1)[1:], len(f.initial), field)
        assert phi._minpoly == own and _types(phi._minpoly) == _types(own), (f, run)
        j = next((k for k, c in enumerate(reversed(run[1])) if c != 0), run[0])  # x^j divides m_f exactly
        powers[field.p, min(j, 3)] = powers.get((field.p, min(j, 3)), 0) + 1
    assert {(p, j) for p, j in powers} == {(p, j) for p in (None, 7, 10007) for j in range(4)}, powers
    assert min(powers.values()) >= 10, powers


def test_dorroh_decompose_alone_matches_it_after_the_coproduct(monkeypatch):
    # Called alone, dorroh_decompose runs f's Berlekamp-Massey itself; after
    # coproduct_decompose(f) it takes the run kept on f.  Both give the
    # decomposition of phi_I decomposed on its own.
    seen = _spied_phi(monkeypatch)
    rng = random.Random(27)
    for case in range(300):
        field = (QQ, GF(7), GF(10007))[case % 3]
        f = _with_x_power(rng, field, rng.randint(0, 4))
        depth = rng.choice((None, rng.randint(0, 30)))
        runs = []
        for first in (False, True):
            g = RecurrentSequence(field, f.s0, f.initial, f.coeffs)
            if first:
                coproduct_decompose(g, depth)
            seen.clear()
            report = dorroh_decompose(g, depth)
            ((_, dec),) = seen
            runs.append((_checks(report), dec.rank, dec.left, dec.right, dec.pivots))
        own = coproduct_decompose(RecurrentSequence(field, None, f.initial, f.coeffs), depth)
        assert runs[0] == runs[1], (f, depth)
        assert runs[0][1:] == (own.rank, own.left, own.right, own.pivots), (f, depth)


def _counted_runs(monkeypatch):
    calls, original = [], findual._berlekamp_massey

    def counted(prefix, bound, field):
        calls.append(len(prefix))
        return original(prefix, bound, field)

    monkeypatch.setattr(findual, "_berlekamp_massey", counted)
    return calls


def test_a_recurrences_task_runs_berlekamp_massey_twice(monkeypatch):
    # minimal_recurrence on the bare prefix, and f's run, which the Dorroh
    # split's phi_I takes; dorroh_decompose alone runs f's once.
    calls = _counted_runs(monkeypatch)
    rng = random.Random(28)
    for case in range(30):
        field = (QQ, GF(10007))[case % 2]
        f = _with_x_power(rng, field, rng.randint(0, 2))
        bound = len(f.initial)
        calls.clear()
        assert minimal_recurrence(f.prefix(2 * bound + 2), bound, field) is not None
        coproduct_decompose(f)
        assert dorroh_decompose(f).ok
        vanishing_check(f, list(f.coeffs) + [0])
        assert len(calls) == 2, calls
        calls.clear()
        assert dorroh_decompose(RecurrentSequence(field, f.s0, f.initial, f.coeffs)).ok
        assert len(calls) == 1, calls


# ---------------------------------------------------------------------------
# differential oracle: Berlekamp-Massey on integers against the Fraction
# run it replaced, kept verbatim


def reference_berlekamp_massey(prefix, bound, field):
    """_berlekamp_massey as written before it ran fraction-free: the
    connection polynomial kept with constant term 1, corrected by d / b in
    field arithmetic."""
    canon, m = field.canon, len(prefix)
    rev = prefix[::-1]  # s_n, s_(n-1), ... from rev[m - n]
    conn, last = [1], [1]  # the connection polynomial, and the one before its last length change
    order, gap, last_d = 0, 1, 1  # last_d: the discrepancy at that change
    for n in range(m):
        d = canon(prefix[n] + sum(map(operator.mul, conn[1:], rev[m - n : m - n + len(conn) - 1])))
        if d == 0:
            gap += 1
            continue
        scale = canon(d * field.inv(last_d))
        grown = conn + [0] * (gap + len(last) - len(conn))
        for i, c in enumerate(last, gap):
            grown[i] = canon(grown[i] - scale * c)
        if 2 * order <= n:
            order, last, last_d, gap = n + 1 - order, conn, d, 1
            if order > bound:
                break
        else:
            gap += 1
        conn = grown
    coeffs = [canon(-c) for c in conn[1 : order + 1]]
    return order, coeffs + [0] * (order - len(coeffs))


def _wide_scalar(rng, field, kind):
    """A small, fractional or large scalar, or 0."""
    if rng.random() < 0.2:
        return 0
    if field.p is not None:
        return rng.randrange(field.p)
    if kind == 0:
        return rng.randint(-3, 3)
    if kind == 1:
        return field.canon(Fraction(rng.randint(-40, 40), rng.randint(1, 12)))
    return field.canon(Fraction(rng.randint(-(10**30), 10**30), rng.choice((1, 1, rng.randint(1, 10**12)))))


def test_integer_berlekamp_massey_matches_the_fraction_run():
    found = {"within": 0, "past": 0}
    rng = random.Random(29)
    for case in range(900):
        field = (QQ, QQ, GF(7), GF(10007))[case % 4]
        bound = case % (findual.MAX_BOUND + 1)
        kind = rng.randrange(3 if bound <= 8 else 2)  # large values cost the Fraction run seconds past that
        m = 2 * bound + 2 + rng.randint(0, 3)
        if rng.random() < 0.5:  # a recurrence within the bound, or one past it
            r = rng.randint(0, bound + 2)
            coeffs = [_wide_scalar(rng, field, kind) for _ in range(r)]
            prefix = RecurrentSequence(field, None, [_wide_scalar(rng, field, kind) for _ in range(r)], coeffs).prefix(m)
        else:
            prefix = [_wide_scalar(rng, field, kind) for _ in range(m)]
        got = findual._berlekamp_massey(prefix, bound, field)
        want = reference_berlekamp_massey(prefix, bound, field)
        assert got == want and _types(got) == _types(want), (prefix, bound, field)
        found["within" if got[0] <= bound else "past"] += 1
    assert min(found.values()) >= 200, found


def test_berlekamp_massey_over_q_makes_no_fraction_before_its_coefficients():
    # The run scales the values to integers and divides the connection
    # polynomial by its content; a Fraction is made only for each
    # fractional coefficient -C_i / C_0 at the end, and no Fraction
    # arithmetic runs.
    rng = random.Random(30)
    fractional = 0
    for kind in (0, 1, 1, 2, 2):
        coeffs = [_wide_scalar(rng, QQ, kind) for _ in range(6)]
        initial = [_wide_scalar(rng, QQ, kind) for _ in range(6)]
        prefix = RecurrentSequence(QQ, None, initial, coeffs).prefix(16)
        profile = cProfile.Profile()
        order, got = profile.runcall(findual._berlekamp_massey, prefix, 7, QQ)
        assert order <= 6 and RecurrentSequence(QQ, None, prefix[:order], got).prefix(16) == prefix
        stats = pstats.Stats(profile).stats
        made = {name: calls for (path, _, name), (calls, *_) in stats.items() if path.endswith("fractions.py")}
        assert set(made) <= {"__new__", "numerator", "denominator"}, made
        assert made.get("__new__", 0) == sum(type(c) is Fraction for c in got), (made, got)
        fractional += made.get("__new__", 0)
    assert fractional >= 3
