import pytest

from dorroh.errors import InputError
from dorroh.fields import GF, QQ
from dorroh.tensors import SparseTensor3, accumulate


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


def test_accumulate_sums_and_cancels():
    t = accumulate((2, 2, 2), [(0, 0, 0, 1), (0, 0, 0, -1), (1, 0, 0, 3)], QQ)
    assert t.entries == {(1, 0, 0): 3}


def test_groupings():
    t = SparseTensor3((2, 2, 2), {(0, 1, 0): 2, (0, 0, 1): 3}, QQ)
    assert sorted(t.by_first()[0]) == [(0, 1, 3), (1, 0, 2)]
    assert t.sorted_items() == [((0, 0, 1), 3), ((0, 1, 0), 2)]


def test_equality_includes_dims_and_field():
    a = SparseTensor3((1, 1, 1), {(0, 0, 0): 1}, QQ)
    b = SparseTensor3((1, 1, 1), {(0, 0, 0): 1}, GF(5))
    assert a != b
    assert a == SparseTensor3((1, 1, 1), {(0, 0, 0): 1}, QQ)
