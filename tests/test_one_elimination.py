"""The one elimination, ``linalg._rref``, against the dense one it replaced.

``invert`` and the (co)unit solve behind ``find_identity`` and
``find_counit`` both run the sparse Gauss-Jordan ``linalg._rref``.
``support.dense_rref`` is the dense elimination the library used before,
kept as the reference: an inverse and a two-sided (co)unit are unique, so
the two must agree whatever order each pivots in.  Every test runs over
Q, GF(3) and GF(5).
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from dorroh.algebra import Algebra, build_dorroh_algebra
from dorroh.coalgebra import Coalgebra, DorrohPairCoalgebra, build_dorroh_coalgebra
from dorroh.fields import GF, QQ
from dorroh.gallery import standard_algebra_pairs, standard_coalgebra_pairs
from dorroh.linalg import Matrix, invert
from dorroh.tensors import SparseTensor3

from support import dense_rref, dense_unit, entry, random_algebra_pair, random_coalgebra_pair

FIELDS = (QQ, GF(3), GF(5))
SEED = 21


def _dense_inverse(A: Matrix) -> Matrix | None:
    n = A.rows
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(A.dense())]
    if len(dense_rref(aug, n, A.field)) < n:
        return None
    return Matrix(n, n, [row[n:] for row in aug], A.field)


def _scalar(rng, field):
    if field.p is None:
        return rng.choice((-2, -1, 0, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3)))
    return rng.randrange(field.p)


def _square_matrices(rng, field):
    """(kind, matrix) pairs: the 0 x 0 matrix and, for n = 1..6, zero,
    singular, permutation, upper and lower triangular and dense ones."""
    yield "empty", Matrix(0, 0, [], field)
    for n in range(1, 7):
        for _ in range(6):
            dense = [[_scalar(rng, field) for _ in range(n)] for _ in range(n)]
            yield "dense", Matrix(n, n, dense, field)
            yield "zero", Matrix(n, n, [[0] * n for _ in range(n)], field)
            singular = [list(row) for row in dense]  # one row a multiple of another, or zero
            i, j, c = *(rng.sample(range(n), 2) if n > 1 else (0, 0)), rng.choice((0, 1, 2))
            singular[i] = [c * v for v in dense[j]] if n > 1 else [0]
            yield "singular", Matrix(n, n, singular, field)
            perm = list(range(n))
            rng.shuffle(perm)
            yield "permutation", Matrix(n, n, [[int(perm[j] == i) for j in range(n)] for i in range(n)], field)
            for kind, keep in (("upper", lambda i, j: j >= i), ("lower", lambda i, j: j <= i)):
                yield kind, Matrix(n, n, [[v if keep(i, j) else 0 for j, v in enumerate(r)] for i, r in enumerate(dense)], field)


def _typed(M: Matrix) -> list:
    """M's entries with their types: an int is not a whole Fraction."""
    return [[(i, v, type(v)) for i, v in col] for col in M.columns]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_invert_equals_the_dense_elimination(field):
    rng = random.Random(SEED)
    seen = Counter()
    for kind, M in _square_matrices(rng, field):
        got, want = invert(M), _dense_inverse(M)
        assert (got is None) == (want is None), (kind, M.dense())
        if got is not None:
            assert _typed(got) == _typed(want), (kind, M.dense())
        seen[kind, got is None] += 1
    assert seen["empty", False] == 1
    assert seen["zero", True] == seen["singular", True] == seen["permutation", False] == 36
    for kind in ("dense", "upper", "lower"):
        assert seen[kind, False] >= 5 and seen[kind, True] >= 2, seen


def _structures(field, rng):
    """The components and extensions of every gallery pair and of random
    pairs, then k^n with a few random structure constants added, as fresh
    structures whose (co)unit is not yet found."""
    pairs = [p for _, p in standard_algebra_pairs(field)] + [p for _, p in standard_coalgebra_pairs(field)]
    pairs += [random_algebra_pair(rng, field) for _ in range(30)]
    pairs += [random_coalgebra_pair(rng, field) for _ in range(30)]
    for pair in pairs:
        if isinstance(pair, DorrohPairCoalgebra):
            for c in (pair.C, pair.P, build_dorroh_coalgebra(pair)):
                yield Coalgebra(c.dim, c.delta, field)
        else:
            for a in (pair.A, pair.I, build_dorroh_algebra(pair)):
                yield Algebra(a.dim, a.mul, field)
    for _ in range(100):
        n = rng.randint(1, 4)
        entries = {(i, i, i): 1 for i in range(n)}
        for _ in range(rng.randint(1, n)):
            entries[tuple(rng.randrange(n) for _ in range(3))] = _scalar(rng, field)
        t = SparseTensor3((n, n, n), entries, field)
        yield Algebra(n, t, field)
        yield Coalgebra(n, t, field)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_units_and_counits_equal_the_dense_solve(field):
    rng = random.Random(SEED)
    found = Counter()
    for s in _structures(field, rng):
        n = s.dim
        if isinstance(s, Algebra):
            got, want = s.find_identity(), dense_unit(n, lambda i, j, m: entry(s.mul, i, j, m), field)
        else:
            got, want = s.find_counit(), dense_unit(n, lambda i, j, m: entry(s.delta, m, i, j), field)
        assert got == want and [type(v) for v in got or ()] == [type(v) for v in want or ()]
        found[type(s).__name__, got is None] += 1
    for side in ("Algebra", "Coalgebra"):
        assert found[side, False] >= 30 and found[side, True] >= 5, found
