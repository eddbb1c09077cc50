import itertools
import logging
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from dorroh.errors import InputError
from dorroh.fields import GF, QQ
from dorroh.linalg import Matrix
from dorroh.tensors import (
    IN_ORDER,
    SparseTensor3,
    first_difference,
    first_tensor_difference,
    place,
    rotate,
    transport,
)
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


@contextmanager
def _layout_events():
    """The ``dorroh.tensors`` debug events logged inside the block: one per
    layout that lays its entries out."""
    events = []
    handler = logging.Handler(logging.DEBUG)
    handler.emit = events.append
    logger = logging.getLogger("dorroh.tensors")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield events
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _dense_block(T, lo, hi):
    """Reference: every cell of the box lo..hi of T, shifted to the origin."""
    shape = tuple(b - a for a, b in zip(lo, hi))
    cells = itertools.product(*(range(d) for d in shape))
    return SparseTensor3(shape, {key: entry(T, *(a + k for a, k in zip(lo, key))) for key in cells}, T.field)


def _drawn_tensor(data, field, depth=2):
    """A tensor to place and its eager dense reference: a drawn tensor, a
    rotation of a drawn tensor or layout, or a layout of two of them."""
    kind = data.draw(st.sampled_from(["eager", "rotated", "nested"] if depth else ["eager"]))
    if kind == "eager":
        T = _tensors(data, field)
        return T, T
    T, ref = _drawn_tensor(data, field, depth - 1)
    if kind == "rotated":
        order = tuple(data.draw(st.permutations((0, 1, 2))))
        dims = tuple(T.dims[p] for p in order)
        return rotate(T, order), _dense_place(dims, field, [(ref, (0, 0, 0), order)])
    U, u_ref = _drawn_tensor(data, field, depth - 1)
    dims = tuple(t + u for t, u in zip(T.dims, U.dims))
    laid = place(dims, field, (T, (0, 0, 0)), (U, T.dims))
    return laid, _dense_place(dims, field, [(ref, (0, 0, 0), IN_ORDER), (u_ref, T.dims, IN_ORDER)])


@settings(max_examples=120, deadline=None)
@given(st.data(), st.sampled_from([QQ, GF(2), GF(3)]))
def test_place_matches_dense_reindex(data, field):
    """Parts that are tensors, rotations and nested layouts, each block read
    back, one leaf-aligned block read as the leaf itself, and a block
    that may cut across leaves, read from the leaves without laying the
    layout out."""
    parts, refs = [], []
    corner = [0, 0, 0]
    for _ in range(data.draw(st.integers(0, 3))):
        T, ref = _drawn_tensor(data, field)
        order = tuple(data.draw(st.permutations((0, 1, 2))))
        # parts sit along the diagonal, so their boxes never overlap
        offsets = tuple(c + data.draw(st.integers(0, 1)) for c in corner)
        corner = [o + T.dims[p] for o, p in zip(offsets, order)]
        parts.append((T, offsets, order))
        refs.append((ref, offsets, order))
    dims = tuple(c + data.draw(st.integers(0, 1)) for c in corner)
    placed = place(dims, field, *parts)
    expected = _dense_place(dims, field, refs)
    for (T, offsets, order), (ref, _, _) in zip(parts, refs):
        shape = tuple(T.dims[p] for p in order)
        hi = tuple(o + d for o, d in zip(offsets, shape))
        got = placed.block(offsets, hi)
        assert got == _dense_place(shape, field, [(ref, (0, 0, 0), order)])
        if order == IN_ORDER and type(T) is SparseTensor3 and T.entries:
            assert got is T
    lo = tuple(data.draw(st.integers(0, d)) for d in dims)
    hi = tuple(data.draw(st.integers(a, d)) for a, d in zip(lo, dims))
    with _layout_events() as events:
        block = placed.block(lo, hi)
    assert block == _dense_block(expected, lo, hi) and events == []
    assert placed == expected


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


def _wrapped(T, wrap):
    """T as a part: itself, a layout of T and a 1x1x1 block, or a rotation
    of T; with an eager dense reference."""
    field = T.field
    if wrap is None:
        return T, T
    if wrap == "nested":
        one = SparseTensor3((1, 1, 1), {(0, 0, 0): 5}, field)
        dims = tuple(d + 1 for d in T.dims)
        laid = place(dims, field, (T, (1, 1, 1)), (one, (0, 0, 0)))
        return laid, _dense_place(dims, field, [(T, (1, 1, 1), IN_ORDER), (one, (0, 0, 0), IN_ORDER)])
    dims = (T.dims[1], T.dims[2], T.dims[0])
    return rotate(T, (1, 2, 0)), _dense_place(dims, field, [(T, (0, 0, 0), (1, 2, 0))])


@pytest.mark.parametrize(
    "offsets, order, wrap",
    [
        ((0, 0, 0), None, None),
        ((0, 0, 0), (0, 1, 2), None),
        ((1, 0, 2), None, None),
        ((0, 0, 0), (2, 0, 1), None),
        ((1, 2, 0), (1, 2, 0), None),
        ((1, 0, 2), None, "nested"),
        ((1, 2, 0), (1, 2, 0), "nested"),
        ((0, 0, 0), None, "rotated"),
        ((1, 2, 0), (2, 0, 1), "rotated"),
    ],
    ids=[
        "origin", "origin-identity-order", "offset", "rotated", "rotated-offset",
        "nested-offset", "nested-rotated-offset", "rotation-of-layout", "rotated-rotation-of-layout",
    ],
)
def test_place_matches_dense_reindex_on_each_layout(offsets, order, wrap):
    # a block at the origin in leg order, an unpermuted one at an offset and
    # a permuted one; each as a tensor, inside a layout and rotated
    field = GF(7)
    T = SparseTensor3((2, 3, 4), {key: sum(key) + 1 for key in itertools.product(range(2), range(3), range(4))}, field)
    part_tensor, ref = _wrapped(T, wrap)
    shape = ref.dims if order is None else tuple(ref.dims[p] for p in order)
    dims = tuple(o + d + 1 for o, d in zip(offsets, shape))
    part = (part_tensor, offsets) if order is None else (part_tensor, offsets, order)
    placed = place(dims, field, part)
    expected = _dense_place(dims, field, [(ref, offsets, order or IN_ORDER)])
    hi = tuple(o + d for o, d in zip(offsets, shape))
    assert placed.block(offsets, hi) == _dense_place(shape, field, [(ref, (0, 0, 0), order or IN_ORDER)])
    # the block is T itself when T lands in its own leg order: placed as it
    # is, or rotated by (1, 2, 0) and placed back by (2, 0, 1)
    in_order = wrap != "nested" and (order or IN_ORDER) == {None: IN_ORDER, "rotated": (2, 0, 1)}[wrap]
    assert (placed.block(offsets, hi) is T) == in_order
    # a box cutting across the block and the empty margin around it, read
    # from the leaf without laying the layout out
    with _layout_events() as events:
        block = placed.block((0, 1, 1), dims)
    assert block == _dense_block(expected, (0, 1, 1), dims) and events == []
    assert placed == expected
    assert placed.entries is not T.entries


def test_a_leg_permuted_leaf_is_read_back_in_its_orientation():
    # a cube's box is the same in every leg order, so only the order tells
    # the leaf from its block
    T = SparseTensor3((2, 2, 2), {(0, 0, 1): 1, (1, 0, 0): 2}, QQ)
    for order in itertools.permutations(IN_ORDER):
        placed = place((3, 3, 3), QQ, (T, (1, 1, 1), order))
        block = placed.block((1, 1, 1), (3, 3, 3))
        assert block == _dense_place((2, 2, 2), QQ, [(T, (0, 0, 0), order)])
        assert (block is T) == (order == IN_ORDER)


def test_block_and_place_reject_boxes_outside_the_tensor():
    t = SparseTensor3((2, 2, 2), {(0, 0, 0): 1, (1, 1, 1): 2}, QQ)
    laid = place((3, 2, 2), QQ, (t, (1, 0, 0)))
    for T in (t, laid):
        d0, d1, d2 = T.dims
        bad = [
            ((0, 0, 0), (d0 + 1, d1, d2)),  # past dims
            ((1, 0, 0), (0, d1, d2)),  # lo > hi
            ((-1, 0, 0), (1, d1, d2)),  # a negative corner
            ((0, 0), (1, 1)),  # not three legs
        ]
        for lo, hi in bad:
            with pytest.raises(ValueError):
                T.block(lo, hi)
        assert T.block((1, 1, 1), (1, 2, 2)) == SparseTensor3((0, 1, 1), {}, QQ)
    for offsets in ((-1, 0, 0), (0, 0, -1)):
        with pytest.raises(ValueError):
            place((3, 3, 3), QQ, (t, offsets))


@settings(max_examples=250, deadline=None)
@given(
    st.data(),
    st.sampled_from([QQ, GF(2), GF(3)]),
    st.sampled_from(["equal", "copied", "moved", "reoriented", "replaced", "entry", "eager"]),
    st.integers(0, 3),
)
def test_block_by_block_comparison_matches_the_full_comparison(data, field, change, width):
    """Two layouts of drawn blocks along the diagonal, the second with one
    block copied, moved to another box, re-oriented, replaced by another
    tensor of its dims or with one entry changed, or laid out eagerly; both
    sometimes rotated.  The witness is first_difference's on the dense
    entries, and equal blocks are decided without laying either out."""
    count = data.draw(st.integers(1, 3))
    ours = [[_tensors(data, field), tuple(data.draw(st.permutations((0, 1, 2)))), data.draw(st.integers(0, 1))]
            for _ in range(count)]
    theirs = [list(part) for part in ours]
    changed = theirs[data.draw(st.integers(0, count - 1))]
    T = changed[0]
    if change == "copied":
        changed[0] = SparseTensor3(T.dims, dict(T.entries), field)
    elif change == "moved":
        changed[2] = 1 - changed[2]
    elif change == "reoriented":
        changed[1] = tuple(data.draw(st.permutations((0, 1, 2)).filter(lambda o: o != changed[1])))
    elif change == "replaced" and all(T.dims):
        cells = st.tuples(*(st.integers(0, d - 1) for d in T.dims))
        changed[0] = SparseTensor3(T.dims, data.draw(st.dictionaries(cells, _scalars(field), max_size=8)), field)
    elif change == "entry" and all(T.dims):
        key = tuple(data.draw(st.integers(0, d - 1)) for d in T.dims)
        entries = dict(T.entries)
        entries[key] = entry(T, *key) + data.draw(st.integers(1, (field.p or 3) - 1))
        changed[0] = SparseTensor3(T.dims, entries, field)

    def laid_along_the_diagonal(parts):
        corner, out = [0, 0, 0], []
        for T, order, gap in parts:
            offsets = tuple(c + gap for c in corner)
            corner = [o + T.dims[p] for o, p in zip(offsets, order)]
            out.append((T, offsets, order))
        return out

    dims = (4 * count + 1,) * 3
    lhs_parts, rhs_parts = laid_along_the_diagonal(ours), laid_along_the_diagonal(theirs)
    lhs, rhs = place(dims, field, *lhs_parts), place(dims, field, *rhs_parts)
    lhs_ref, rhs_ref = _dense_place(dims, field, lhs_parts), _dense_place(dims, field, rhs_parts)
    if change == "eager":
        rhs = rhs_ref
    turn = data.draw(st.sampled_from([None, (2, 0, 1), (1, 0, 2)]))
    if turn:
        lhs, rhs = rotate(lhs, turn), rotate(rhs, turn)
        lhs_ref, rhs_ref = (_dense_place(dims, field, [(ref, (0, 0, 0), turn)]) for ref in (lhs_ref, rhs_ref))
    expected = first_difference(lhs_ref.entries, rhs_ref.entries, width)
    assert first_tensor_difference(lhs, rhs, width) == expected
    if change in ("equal", "copied"):
        assert expected is None and lhs._laid is None and rhs._laid is None
