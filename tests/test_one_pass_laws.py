"""One-pass (co)unit laws, triangular invertibility and matrices built canonical.

``algebra._unit_on`` decides a (co)unit law, u.e_x = e_x on every basis
vector, in one pass over a tensor's entries; ``reference_unit_on``
(``support``) decides it by a transport round trip against a dense
identity.  ``linalg._invertible`` reads a triangular matrix's
invertibility off its diagonal and eliminates any other.
``Matrix._canonical`` builds the identity, an inverse and the unitriangular
iso A|xI -> A x I without canonicalising, so each must equal what
``Matrix(...)`` builds from the same data; ``Matrix(...)`` and
``Matrix.from_columns`` canonicalise only the nonzero entries they are
given, so a 0/1 basis of dim n costs n ``canon`` calls.

Every morphism the constructions return is emitted as a ``dorroh/1``
document, so its entries must be canonical: the golden corpora format
entries through ``field.fmt``, which would hide a stored -1 over F_p.
All tests run on both sides over Q, GF(3) and GF(5).
"""

import random
import sys
from fractions import Fraction

import pytest

from dorroh import algebra, coalgebra, exchange, linalg
from dorroh.algebra import ALGEBRA, _acts_as_identity, _unit_law, _unit_on, split_algebra_extension, unital_ideal_iso
from dorroh.cli import _canonical_triple
from dorroh.coalgebra import COALGEBRA, counital_split_iso, split_coalgebra_extension
from dorroh.duality import double_dual_iso, double_dual_iso_coalgebra, dualize_algebra_pair, dualize_coalgebra_pair
from dorroh.errors import ValidationFailure
from dorroh.fields import GF, QQ, FieldSpec
from dorroh.gallery import random_invertible, standard_algebra_pairs, standard_coalgebra_pairs
from dorroh.linalg import Matrix, _invertible, invert, is_identity

from support import dense_columns, reference_unit_on, zeros

FIELDS = (QQ, GF(3), GF(5))
SEED = 20

SIDES = {
    ALGEBRA.name: dict(conv=ALGEBRA, build=algebra.build_dorroh_algebra, split=split_algebra_extension,
                       iso=unital_ideal_iso, dualize=dualize_algebra_pair, double_dual=double_dual_iso),
    COALGEBRA.name: dict(conv=COALGEBRA, build=coalgebra.build_dorroh_coalgebra, split=split_coalgebra_extension,
                         iso=counital_split_iso, dualize=dualize_coalgebra_pair,
                         double_dual=double_dual_iso_coalgebra),
}


def _side(pair):
    return SIDES[ALGEBRA.name if isinstance(pair, algebra.DorrohPairAlgebra) else COALGEBRA.name]


def _pairs(field):
    return [p for _, p in standard_algebra_pairs(field)] + [p for _, p in standard_coalgebra_pairs(field)]


def _parsed_pairs(field):
    return [exchange.parse(exchange.emit(p)) for p in _pairs(field)]


def _counter(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _block_basis(rng, field, na, n):
    """The columns of a block-diagonal random change of basis, split at na."""
    SA, SI = random_invertible(rng, na, field), random_invertible(rng, n - na, field)
    columns = [c + [0] * (n - na) for c in dense_columns(SA)] + [[0] * na + c for c in dense_columns(SI)]
    return columns[:na], columns[na:]


# ---------------------------------------------------------------------------
# the one-pass unit law against the transport round trip


def _units(rng, field, n, unit):
    """Vectors to test as a (co)unit of a structure of dimension n whose own
    is ``unit``: it and each one-coordinate bend of it, zero, all ones and
    random vectors (several nonzero coordinates, whose products collide on
    one index pair), and over Q Fraction vectors, the unit's included."""
    units = [[0] * n, [field.of(1)] * n]
    if unit is not None:
        units.append(list(unit))
        for i in range(n):
            bent = list(unit)
            bent[i] = field.canon(bent[i] + 1)
            units.append(bent)
    units += [[field.of(rng.randrange(-2, 3)) for _ in range(n)] for _ in range(4)]
    if field.p is None:
        units += [[Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in range(n)] for _ in range(2)]
        if unit is not None:
            units.append([Fraction(v) for v in unit])
    return units


def _laws(pair):
    """(tensor, acting leg, carrier dim, acting structure) of each unit law
    of a pair: its action's two and each component structure's own two."""
    conv = _side(pair)["conv"]
    acting, carrier, left, right = conv.parts_of(pair)
    legs = (conv.order.index(0), conv.order.index(1))
    laws = [(left, legs[0], carrier.dim, acting), (right, legs[1], carrier.dim, acting)]
    for s in (acting, carrier):
        own = getattr(s, conv.tensor)
        laws += [(own, legs[0], s.dim, s), (own, legs[1], s.dim, s)]
    return laws


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_one_pass_unit_law_equals_the_transport_round_trip(field):
    rng = random.Random(SEED)
    holds = fails = 0
    for pair in _pairs(field):
        conv = _side(pair)["conv"]
        for T, leg, n, s in _laws(pair):
            for u in _units(rng, field, s.dim, getattr(s, conv.find_unit)()):
                want = reference_unit_on(T, leg, u, n)
                assert _unit_on(T, leg, u, n) == want, (pair, T, leg, u)
                holds, fails = holds + want, fails + (not want)
        acting, carrier, left, right = conv.parts_of(pair)
        for u in _units(rng, field, acting.dim, getattr(acting, conv.find_unit)()):
            want = all(reference_unit_on(T, leg, u, n) for T, leg, n, _ in _laws(pair)[:2])
            assert _acts_as_identity(left, right, u, carrier.dim, conv.order) == want
    assert holds >= 50 and fails >= 500


# ---------------------------------------------------------------------------
# triangular invertibility and matrices built canonical


def _scalar(rng, field):
    if field.p is None and rng.random() < 0.3:
        return Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
    return rng.randrange(-2, 3)


def _matrices(rng, field):
    """0 x 0, zero, identity, non-square and, for n = 1..5, dense, upper and
    lower triangular matrices, the triangular ones with a nonzero diagonal
    and with one zero on it."""
    out = [Matrix(0, 0, [], field), zeros(3, 3, field), Matrix.identity(4, field), zeros(2, 3, field)]
    for n in range(1, 6):
        out += [Matrix(n, n + 1, [[_scalar(rng, field) for _ in range(n + 1)] for _ in range(n)], field)]
        out += [Matrix(n + 1, n, [[_scalar(rng, field) for _ in range(n)] for _ in range(n + 1)], field)]
        for _ in range(8):
            dense = [[_scalar(rng, field) for _ in range(n)] for _ in range(n)]
            out.append(Matrix(n, n, dense, field))
            for keep in (lambda i, j: j >= i, lambda i, j: j <= i):
                tri = [[v if keep(i, j) else 0 for j, v in enumerate(row)] for i, row in enumerate(dense)]
                for i in range(n):
                    tri[i][i] = rng.choice((1, 2, -1, Fraction(1, 2) if field.p is None else 1))
                out.append(Matrix(n, n, tri, field))
                zero = rng.randrange(n)
                tri[zero][zero] = 0
                out.append(Matrix(n, n, tri, field))
    return out


def _same(a: Matrix, b: Matrix) -> bool:
    """Equal, and equal entry by entry in type: an int is not a whole Fraction."""
    return a == b and [[type(x) for _, x in col] for col in a.columns] == [[type(x) for _, x in col] for col in b.columns]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_invertible_equals_elimination(field):
    rng = random.Random(SEED)
    answers = []
    for M in _matrices(rng, field):
        want = M.rows == M.cols and invert(M) is not None
        assert _invertible(M) == want, M.dense()
        answers.append(want)
    assert sum(answers) >= 40 and answers.count(False) >= 40


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_identity_and_inverse_equal_what_matrix_builds(field):
    rng = random.Random(SEED)
    for n in range(6):
        identity = Matrix.identity(n, field)
        assert _same(identity, Matrix(n, n, identity.dense(), field))
    inverses = 0
    for M in _matrices(rng, field) + [random_invertible(rng, n, field) for n in range(1, 6)]:
        inv = invert(M) if M.rows == M.cols else None
        if inv is not None:
            assert _same(inv, Matrix(inv.rows, inv.cols, inv.dense(), field))
            inverses += 1
    assert inverses >= 40


# ---------------------------------------------------------------------------
# work counts on the gallery pairs


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_unit_laws_run_no_transport(monkeypatch, field):
    """Parsing structures with a (co)unit and deciding each pair's unit law."""
    texts = [exchange.emit(p) for p in _pairs(field)]
    transports = _counter(monkeypatch, algebra, "transport")
    decided = 0
    for text in texts:
        pair = exchange.parse(text)
        conv = _side(pair)["conv"]
        acting, carrier, left, right = conv.parts_of(pair)
        unit = getattr(acting, conv.find_unit)()
        if unit is not None:
            law = _acts_as_identity(left, right, unit, carrier.dim, conv.order)
            assert _unit_law(conv, pair, unit) == law
            decided += 1
    assert transports == []
    assert decided >= 20


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_unitriangular_isos_run_no_elimination(monkeypatch, field):
    pairs = _parsed_pairs(field)
    inverts = [_counter(monkeypatch, module, "invert") for module in (linalg, algebra)]
    made = 0
    for pair in pairs:
        side = _side(pair)
        carrier = side["conv"].parts_of(pair)[1]
        if getattr(carrier, side["conv"].find_unit)() is None:
            continue
        try:
            iso = side["iso"](pair)
        except ValidationFailure:  # the unit of I is not central in the actions
            continue
        assert iso.verified == "iso"
        made += 1
    assert inverts == [[], []]
    assert made >= 10


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_a_split_along_a_basis_change_inverts_it_once(monkeypatch, field):
    rng = random.Random(SEED)
    cases = []
    for pair in _pairs(field):
        side = _side(pair)
        built = side["build"](pair)
        na = side["conv"].parts_of(pair)[0].dim
        cases.append((side, built, _block_basis(rng, field, na, built.dim)))
    inverts = [_counter(monkeypatch, module, "invert") for module in (linalg, algebra)]
    moved = 0
    for side, built, (acting_basis, carrier_basis) in cases:
        before = sum(map(len, inverts))
        _, iso = side["split"](built, acting_basis, carrier_basis)
        assert iso.verified == "iso"
        identity = is_identity(iso.matrix)  # a split along the identity basis inverts nothing
        assert sum(map(len, inverts)) - before == (not identity)
        moved += not identity
    assert moved >= 20


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_a_split_along_a_0_1_block_basis_canonicalises_its_n_ones(monkeypatch, field):
    """A dim-n 0/1 block basis has n nonzero entries, and only nonzero
    entries reach ``canon`` in ``linalg``: at most n calls, not n^2."""
    cases = []
    for pair in _pairs(field):
        side = _side(pair)
        built = side["build"](pair)
        n, na = built.dim, side["conv"].parts_of(pair)[0].dim
        standard = [[int(i == j) for i in range(n)] for j in range(n)]
        cases.append((side, built, standard[:na], standard[na:]))
    calls = []
    canon = FieldSpec.canon

    def counted(self, x):
        if sys._getframe(1).f_code.co_filename == linalg.__file__:
            calls.append(x)
        return canon(self, x)

    monkeypatch.setattr(FieldSpec, "canon", counted)
    for side, built, acting_basis, carrier_basis in cases:
        del calls[:]
        side["split"](built, acting_basis, carrier_basis)
        assert len(calls) <= built.dim
    assert max(built.dim for _, built, _, _ in cases) >= 8


# ---------------------------------------------------------------------------
# returned maps hold canonical entries


def _respelled(vectors, field, rng):
    """The same vectors spelled non-canonically: over F_p each entry moved
    by a multiple of p, below 0 or past p (a 0 becomes a nonzero int);
    over Q each int made a whole Fraction."""
    if field.p is None:
        return [[Fraction(v) if type(v) is int else v for v in vec] for vec in vectors]
    return [[v + field.p * rng.choice((-2, -1, 1, 2)) for v in vec] for vec in vectors]


def _returned_morphisms(field, rng):
    """Every morphism the constructions return on the gallery pairs: the
    split isos along the identity basis, a block-diagonal one and a
    non-canonical spelling of it, the identity built from non-canonical
    rows, the unital-ideal and counital-split isos (whose -v entries are
    negated here), the duality witnesses, the (co)associators and the
    double duals of the components."""
    for pair in _pairs(field):
        side = _side(pair)
        conv = side["conv"]
        acting, carrier = conv.parts_of(pair)[:2]
        built = side["build"](pair)
        n, na = built.dim, acting.dim
        standard = [[int(i == j) for i in range(n)] for j in range(n)]
        block = _block_basis(rng, field, na, n)
        respelled = [_respelled(vectors, field, rng) for vectors in block]
        for bases in ((standard[:na], standard[na:]), block, respelled):
            yield side["split"](built, *bases)[1]
        yield conv.morphism(built, built, Matrix(n, n, _respelled(standard, field, rng), field))
        if getattr(carrier, conv.find_unit)() is not None:
            try:
                yield side["iso"](pair)
            except ValidationFailure:  # the unit of I is not central in the actions
                pass
        yield side["dualize"](pair)[1].forward
        report, associator = _canonical_triple(pair)
        if associator is not None:
            yield associator
        for s in (acting, carrier):
            yield side["double_dual"](s)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_returned_maps_hold_canonical_entries(field):
    rng = random.Random(SEED)
    canon = field.canon
    count = 0
    for morphism in _returned_morphisms(field, rng):
        assert all(v and type(v) is type(canon(v)) and v == canon(v) for col in morphism.matrix.columns for _, v in col)
        text = exchange.emit(morphism)
        assert exchange.emit(exchange.parse(text)) == text
        count += 1
    assert count >= 150
