"""The (co)module laws decided on carrier generators (``algebra._action_laws``).

Over an associative A, the carrier vectors at which (ab)x = a(bx) holds
for all a, b form a left submodule, those at which x(ab) = (xa)b holds a
right one, and those at which (ax)b = a(xb) holds a left (right)
submodule once the first (second) law holds everywhere.  So each law is
decided on vectors that generate the carrier, behind the associativity
of A (the premise), and a law with a residual there is summed in full.
These tests draw free (co)modules over trunc_poly(m), m >= 6, with a few
entries bent, and check every report against ``first_witness`` run law
by law with no certificate.  They count the restricted decisions and
their failures, so they cannot pass on a path that never ran.
"""

from collections import Counter
from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings, strategies as st

from dorroh import algebra, tensors
from dorroh.algebra import (
    ACTION_LAWS,
    BI,
    LEFT,
    MODULE_LAWS,
    PAIR_LAWS,
    RIGHT,
    Algebra,
    BimoduleAction,
    DorrohPairAlgebra,
    ModuleOverAlgebra,
)
from dorroh.coalgebra import BicomoduleCoaction, Coalgebra, ComoduleOverCoalgebra, DorrohPairCoalgebra
from dorroh.fields import GF, QQ
from dorroh.reports import Report
from dorroh.tensors import TO_COALGEBRA, SparseTensor3, first_witness

FIELDS = (QQ, GF(2), GF(3), GF(7))


def _trunc_poly(m):
    """The entries of trunc_poly(m)'s product, x^i x^j = x^(i+j)."""
    return {(i, j, i + j): 1 for i in range(m + 1) for j in range(m + 1 - i)}


def _free(mul, na, r):
    """The left and right entries of the free bimodule A^r over an algebra
    of dim ``na`` whose product has ``mul``: A acting on each copy by its
    product, the copy at s holding the unit at f_s."""
    left = {(a, s + b, s + c): v for s in range(0, r * na, na) for (a, b, c), v in mul.items()}
    right = {(s + b, a, s + c): v for s in range(0, r * na, na) for (b, a, c), v in mul.items()}
    return left, right


def _turn(entries):
    """Entries in algebra legs laid out in coalgebra legs (``TO_COALGEBRA``)."""
    p, q, r = TO_COALGEBRA
    return {(key[p], key[q], key[r]): v for key, v in entries.items()}


def _structure(coalgebra, mul, na, field):
    if coalgebra:
        return Coalgebra(na, SparseTensor3((na, na, na), _turn(mul), field), field)
    return Algebra(na, SparseTensor3((na, na, na), mul, field), field)


def _checked(kind, coalgebra, mul, left, right, na, n, field):
    """A pair over the zero structure on the carrier, or a one- or
    two-sided (co)module, with the report each law gets from the plain
    engine, law by law."""
    A = _structure(coalgebra, mul, na, field)
    if coalgebra:
        left, right = _turn(left), _turn(right)
        dims = ((n, na, n), (n, n, na))
    else:
        dims = ((na, n, n), (n, na, n))
    L, R = (SparseTensor3(d, e, field) for d, e in zip(dims, (left, right)))
    tensor = "delta" if coalgebra else "mul"
    if kind == "pair":
        carrier = _structure(coalgebra, {}, n, field)
        if coalgebra:
            obj = DorrohPairCoalgebra(A, carrier, BicomoduleCoaction(A, n, L, R))
        else:
            obj = DorrohPairAlgebra(A, carrier, BimoduleAction(A, n, L, R))
        tables = (ACTION_LAWS, PAIR_LAWS)
        bound = {"mul": getattr(A, tensor), "mi": getattr(carrier, tensor), "left": L, "right": R}
    else:
        L, R = L if kind in (LEFT, BI) else None, R if kind in (RIGHT, BI) else None
        if coalgebra:
            obj = ComoduleOverCoalgebra(A, n, kind, rho_l=L, rho_r=R)
        else:
            obj = ModuleOverAlgebra(A, n, kind, left=L, right=R)
        tables = (MODULE_LAWS,)
        bound = {"mul": getattr(A, tensor), "left": L, "right": R}
    reference = Report()
    for table in tables:
        for name, box, out, (ls, l1, l2), (rs, r1, r2) in table.coalgebra if coalgebra else table.algebra:
            if all(bound.get(role) is not None for role in (l1, l2, r1, r2)):
                lhs, rhs = (ls, bound[l1], bound[l2]), (rs, bound[r1], bound[r2])
                reference.add_witness(name, first_witness(field, box, out, lhs, rhs))
    return obj, reference


@contextmanager
def _restricted(counts):
    """Count the laws the grouped loop decides on generators, and those of
    them that fail."""
    grouped = tensors._grouped

    def counted(terms, stride, p, on=None, groupings=None):
        bad = grouped(terms, stride, p, on, groupings)
        if on:
            counts["decided"] += 1
            counts["failed"] += bad is not None
        return bad

    with mock.patch.object(tensors, "_grouped", counted):
        yield


def _bend(data, entries, dims, field):
    """Set one drawn entry to a drawn value, 0 removing it."""
    key = tuple(data.draw(st.integers(0, d - 1)) for d in dims)
    value = data.draw(st.integers(0, (field.p or 4) - 1))
    if value:
        entries[key] = value
    else:
        entries.pop(key, None)


def test_reports_match_the_plain_engine_law_by_law():
    counts = Counter()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        field = data.draw(st.sampled_from(FIELDS))
        m, r = data.draw(st.integers(6, 8)), data.draw(st.integers(1, 4))
        na, n = m + 1, r * (m + 1)
        shapes = {"mul": (na, na, na), "left": (na, n, n), "right": (n, na, n)}
        mul = _trunc_poly(m)
        if data.draw(st.booleans()):  # act by a product that may not associate
            _bend(data, mul, shapes["mul"], field)
        left, right = _free(mul, na, r)
        for _ in range(data.draw(st.integers(0, 3))):
            which = data.draw(st.sampled_from(sorted(shapes)))
            _bend(data, {"mul": mul, "left": left, "right": right}[which], shapes[which], field)
        kind = data.draw(st.sampled_from(["pair", LEFT, RIGHT, BI]))
        obj, reference = _checked(kind, data.draw(st.booleans()), mul, left, right, na, n, field)
        assert obj.validate().to_json() == reference.to_json()

    with _restricted(counts):
        check()
    assert counts["decided"] >= 150 and counts["failed"] >= 40, counts


def _bent_pair(field, coalgebra):
    """trunc_poly(6) with x.x^2 = 2 x^3, so x(x x) != (x x)x, and the unit
    kept, acting on two copies of itself by its own product."""
    mul = _trunc_poly(6)
    mul[1, 2, 3] = 2
    left, right = _free(mul, 7, 2)
    return _checked("pair", coalgebra, mul, left, right, 7, 14, field)


def test_a_non_associative_algebra_decides_the_module_laws_in_full():
    """Over trunc_poly(6) with one product bent, acting on itself by its
    product, (ab)x = a(bx) holds at the two units of the carrier, which
    generate it, and fails elsewhere: decided on the generators it would
    pass, so the failed premise keeps the plain engine's witness."""
    for field in FIELDS:
        for coalgebra in (False, True):
            pair, reference = _bent_pair(field, coalgebra)
            conv = pair._conv
            acting, _, left, _ = conv.parts_of(pair)
            name, box, out, (ls, _, _), (rs, _, _) = getattr(ACTION_LAWS, conv.name)[0]
            lhs, rhs = (ls, getattr(acting, conv.tensor), left), (rs, left, left)
            assert first_witness(field, box, out, lhs, rhs) is not None
            assert first_witness(field, box, out, lhs, rhs, ("x", frozenset({0, 7}))) is None
            counts = Counter()
            with _restricted(counts):
                report = pair.validate()
            assert report.to_json() == reference.to_json()
            assert report.checks[0].name == name and not report.checks[0].ok
            assert counts["decided"] == 0


def _exchange_decision(bend, field, coalgebra):
    """A pair of trunc_poly(6) on two copies of itself with ``bend`` applied
    to its left and right entries, its report, the plain engine's, and
    the certificate and witness its exchange law (ax)b = a(xb) was
    decided with."""
    mul = _trunc_poly(6)
    left, right = _free(mul, 7, 2)
    bend(left, right)
    pair, reference = _checked("pair", coalgebra, mul, left, right, 7, 14, field)
    calls = []
    decide = algebra.first_witness

    def recorded(field, box, out, lhs, rhs, on=None, groupings=None):
        witness = decide(field, box, out, lhs, rhs, on, groupings)
        calls.append((box + out, on, witness))
        return witness

    with mock.patch.object(algebra, "first_witness", recorded):
        report = pair.validate()
    exchange = getattr(ACTION_LAWS, pair._conv.name)[2]
    (decision,) = [(on, w) for letters, on, w in calls if letters == exchange[1] + exchange[2]]
    return report, reference, decision


def test_a_failing_left_law_decides_the_exchange_law_on_the_right_generators():
    """The unit of trunc_poly(6) acting twice on f_3 from the left fails
    (ab)x = a(bx) and (ax)b = a(xb), and x(ab) = (xa)b passes on the right
    generators, so the exchange law is decided on them: with a residual
    there, summed in full, and named with the plain engine's witness."""
    def bend(left, right):
        left[0, 3, 3] = 2

    for field in (QQ, GF(3), GF(7)):
        for coalgebra in (False, True):
            report, reference, (on, witness) = _exchange_decision(bend, field, coalgebra)
            assert report.to_json() == reference.to_json()
            assert [c.ok for c in report.checks[:3]] == [False, True, False]
            assert on == ("x", frozenset({0, 7})) and witness == report.checks[2].witness


def test_two_failing_laws_decide_the_exchange_law_in_full():
    """x f_1 = 2 f_2 on both sides of the first copy breaks (ab)x = a(bx)
    and x(ab) = (xa)b, and (ax)b = a(xb) still holds at the two units,
    which generate the carrier, but fails at f_1: with neither side law
    holding, the x at which the exchange law holds need not form a
    submodule, so it is decided in full and fails."""
    def bend(left, right):
        left[1, 1, 2] = right[1, 1, 2] = 2

    for field in (QQ, GF(3), GF(7)):
        for coalgebra in (False, True):
            report, reference, (on, witness) = _exchange_decision(bend, field, coalgebra)
            assert report.to_json() == reference.to_json()
            assert [c.ok for c in report.checks[:3]] == [False, False, False]
            assert on is None and witness == report.checks[2].witness
