import itertools

import pytest
from hypothesis import given, settings, strategies as st

from dorroh.errors import InputError
from dorroh.fields import GF, QQ
from dorroh.linalg import Matrix
from dorroh.tensors import SparseTensor3, first_difference, place, transport
from support import entry


def test_zero_entries_are_dropped():
    t = SparseTensor3((2, 2, 2), {(0, 0, 0): 1, (1, 1, 1): 0}, QQ)
    assert t.entries == {(0, 0, 0): 1}


def test_entries_canonicalized():
    t = SparseTensor3((1, 1, 1), {(0, 0, 0): 7}, GF(5))
    assert t.entries == {(0, 0, 0): 2}


def test_out_of_range_rejected():
    with pytest.raises(InputError):
        SparseTensor3((2, 2, 2), {(0, 0, 2): 1}, QQ)
    with pytest.raises(InputError):
        SparseTensor3((2, 2, 2), {(-1, 0, 0): 1}, QQ)


def test_duplicate_triple_rejected():
    with pytest.raises(InputError):
        SparseTensor3((2, 2, 2), [((0, 0, 0), 1), ((0, 0, 0), 2)], QQ)


def test_transport_sums_and_cancels():
    # old indices 0 and 1 of the first leg both go to new index 0
    rows = [[1, 1, 0], [0, 0, 1]]
    t = SparseTensor3((3, 1, 1), {(0, 0, 0): 1, (1, 0, 0): -1, (2, 0, 0): 3}, QQ)
    assert transport(t, (Matrix(2, 3, rows, QQ), None, None)) == SparseTensor3((2, 1, 1), {(1, 0, 0): 3}, QQ)
    t = SparseTensor3((3, 1, 1), {(0, 0, 0): 2, (1, 0, 0): 3, (2, 0, 0): 4}, GF(5))
    assert transport(t, (Matrix(2, 3, rows, GF(5)), None, None)).entries == {(1, 0, 0): 4}


def test_transport_rejects_mis_sized_leg():
    t = SparseTensor3((2, 2, 2), {(0, 0, 0): 1}, QQ)
    with pytest.raises(ValueError):
        transport(t, (None, Matrix(1, 3, [[1, 0, 0]], QQ), None))


def test_groupings():
    t = SparseTensor3((2, 2, 2), {(0, 1, 0): 2, (0, 0, 1): 3}, QQ)
    assert t.sorted_items() == [((0, 0, 1), 3), ((0, 1, 0), 2)]


def test_equality_includes_dims_and_field():
    a = SparseTensor3((1, 1, 1), {(0, 0, 0): 1}, QQ)
    b = SparseTensor3((1, 1, 1), {(0, 0, 0): 1}, GF(5))
    assert a != b
    assert a == SparseTensor3((1, 1, 1), {(0, 0, 0): 1}, QQ)


def _dense_transport(T, legs):
    """Reference: sum T[i,j,k] M0[a][i] M1[b][j] M2[c][k] over the whole box."""
    mats = [
        [[int(r == c) for c in range(d)] for r in range(d)] if M is None else M.dense()
        for d, M in zip(T.dims, legs)
    ]
    new = tuple(len(M) for M in mats)
    out = {}
    for key in itertools.product(*(range(d) for d in new)):
        total = 0
        for i, j, k in itertools.product(*(range(d) for d in T.dims)):
            total += entry(T, i, j, k) * mats[0][key[0]][i] * mats[1][key[1]][j] * mats[2][key[2]][k]
        out[key] = total
    return SparseTensor3(new, out, T.field)


def _scalars(field):
    return st.integers(-2, 2) if field.p is None else st.integers(0, field.p - 1)


def _tensors(data, field):
    dims = tuple(data.draw(st.integers(0, 3)) for _ in range(3))
    cells = st.tuples(*(st.integers(0, max(d - 1, 0)) for d in dims))
    entries = data.draw(st.dictionaries(cells, _scalars(field), max_size=8)) if all(dims) else {}
    return SparseTensor3(dims, entries, field)


@settings(max_examples=120, deadline=None)
@given(st.data(), st.sampled_from([QQ, GF(2), GF(3)]))
def test_transport_matches_dense_contraction(data, field):
    T = _tensors(data, field)
    legs = []
    for d in T.dims:
        kind = data.draw(st.sampled_from(["keep", "matrix", "vector"]))
        rows = 1 if kind == "vector" else data.draw(st.integers(0, 3))
        M = [data.draw(st.lists(_scalars(field), min_size=d, max_size=d)) for _ in range(rows)]
        legs.append(None if kind == "keep" else Matrix(rows, d, M, field))
    assert transport(T, legs) == _dense_transport(T, legs)


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(0, 3))
def test_first_difference_is_the_least_differing_prefix(data, width):
    cells = st.tuples(*(st.integers(0, 2) for _ in range(3)))
    lhs = data.draw(st.dictionaries(cells, st.integers(1, 2), max_size=6))
    rhs = data.draw(st.dictionaries(cells, st.integers(1, 2), max_size=6))
    box = itertools.product(range(3), repeat=3)
    expected = next((key[:width] for key in box if lhs.get(key) != rhs.get(key)), None)
    assert first_difference(lhs, rhs, width) == expected


def _scanned_difference(lhs, rhs, width):
    """``first_difference`` as it was: every key of both dicts scanned."""
    bad = [key for key in lhs.keys() | rhs.keys() if lhs.get(key) != rhs.get(key)]
    return min(bad)[:width] if bad else None


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(["equal", "missing", "value"]), st.integers(0, 4))
def test_first_difference_matches_the_full_scan(data, kind, width):
    """Equal dicts, a key missing on one side, and one differing value."""
    cells = st.tuples(*(st.integers(0, 3) for _ in range(4)))
    lhs = data.draw(st.dictionaries(cells, st.integers(1, 4), max_size=12))
    rhs = dict(lhs)
    if lhs and kind != "equal":
        key = data.draw(st.sampled_from(sorted(lhs)))
        if kind == "missing":
            del rhs[key]
        else:
            rhs[key] = lhs[key] % 4 + 1
    if data.draw(st.booleans()):
        lhs, rhs = rhs, lhs
    expected = _scanned_difference(lhs, rhs, width)
    assert (expected is None) == (lhs == rhs)
    assert first_difference(lhs, rhs, width) == expected


def _dense_place(dims, field, parts):
    """Reference: every cell of every part's box written to its placed cell."""
    out = {}
    for T, offsets, order in parts:
        for key in itertools.product(*(range(d) for d in T.dims)):
            v = entry(T, *key)
            if v:
                out[tuple(offsets[t] + key[order[t]] for t in range(3))] = v
    return SparseTensor3(dims, out, field)


@settings(max_examples=120, deadline=None)
@given(st.data(), st.sampled_from([QQ, GF(2), GF(3)]))
def test_place_matches_dense_reindex(data, field):
    parts = []
    corner = [0, 0, 0]
    for _ in range(data.draw(st.integers(0, 3))):
        T = _tensors(data, field)
        order = data.draw(st.permutations((0, 1, 2)))
        # parts sit along the diagonal, so their boxes never overlap
        offsets = tuple(c + data.draw(st.integers(0, 1)) for c in corner)
        corner = [o + T.dims[p] for o, p in zip(offsets, order)]
        parts.append((T, offsets, tuple(order)))
    dims = tuple(c + data.draw(st.integers(0, 1)) for c in corner)
    placed = place(dims, field, *parts)
    assert placed == _dense_place(dims, field, parts)
    for T, offsets, order in parts:
        shape = tuple(T.dims[p] for p in order)
        hi = tuple(o + d for o, d in zip(offsets, shape))
        assert placed.block(offsets, hi) == _dense_place(shape, field, [(T, (0, 0, 0), order)])


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([QQ, GF(3)]))
def test_rotations_are_inverse(data, field):
    T = _tensors(data, field)
    once = place((T.dims[2], T.dims[0], T.dims[1]), field, (T, (0, 0, 0), (2, 0, 1)))
    assert place(T.dims, field, (once, (0, 0, 0), (1, 2, 0))) == T


def test_place_rejects_overflow_and_overlap():
    t = SparseTensor3((2, 1, 1), {(0, 0, 0): 1, (1, 0, 0): 2}, QQ)
    assert place((2, 1, 1), QQ, (t, (0, 0, 0))) == t
    with pytest.raises(ValueError):
        place((2, 2, 2), QQ, (t, (1, 0, 0)))
    with pytest.raises(ValueError):
        place((3, 1, 1), QQ, (t, (0, 0, 0)), (t, (1, 0, 0)))
    assert place((4, 1, 1), QQ, (t, (0, 0, 0)), (t, (2, 0, 0))).entries == {
        (0, 0, 0): 1, (1, 0, 0): 2, (2, 0, 0): 1, (3, 0, 0): 2,
    }


@pytest.mark.parametrize(
    "offsets, order",
    [((0, 0, 0), None), ((0, 0, 0), (0, 1, 2)), ((1, 0, 2), None), ((0, 0, 0), (2, 0, 1)), ((1, 2, 0), (1, 2, 0))],
    ids=["origin", "origin-identity-order", "offset", "rotated", "rotated-offset"],
)
def test_place_matches_dense_reindex_on_each_layout(offsets, order):
    # a block at the origin in leg order, an unpermuted one at an offset and a permuted one
    field = GF(7)
    T = SparseTensor3((2, 3, 4), {key: sum(key) + 1 for key in itertools.product(range(2), range(3), range(4))}, field)
    shape = T.dims if order is None else tuple(T.dims[p] for p in order)
    dims = tuple(o + d + 1 for o, d in zip(offsets, shape))
    part = (T, offsets) if order is None else (T, offsets, order)
    placed = place(dims, field, part)
    assert placed == _dense_place(dims, field, [(T, offsets, order or (0, 1, 2))])
    assert placed.entries is not T.entries
