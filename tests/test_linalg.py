import itertools

import pytest
from hypothesis import given, settings, strategies as st
from support import solve_linear

from dorroh.errors import InputError
from dorroh.fields import GF, QQ
from dorroh.linalg import Matrix, invert, is_identity


def test_solve_identity():
    A = Matrix.identity(2, QQ)
    assert solve_linear(A, [3, 4]) == [3, 4]


def test_solve_mod5():
    A = Matrix(1, 1, [[2]], GF(5))
    assert solve_linear(A, [3]) == [4]  # 2*4 = 8 = 3 mod 5


def test_solve_inconsistent():
    A = Matrix(2, 2, [[1, 1], [1, 1]], QQ)
    assert solve_linear(A, [1, 0]) is None


def test_solve_dimension_mismatch():
    with pytest.raises(InputError):
        solve_linear(Matrix.identity(2, QQ), [1, 2, 3])


def test_invert_identity():
    A = Matrix.identity(3, QQ)
    assert invert(A) == A


def test_invert_unipotent():
    A = Matrix(2, 2, [[1, 1], [0, 1]], QQ)
    assert invert(A).data == [[1, -1], [0, 1]]


def test_invert_singular():
    assert invert(Matrix(2, 2, [[1, 1], [1, 1]], QQ)) is None


def test_invert_requires_square():
    with pytest.raises(InputError):
        invert(Matrix.zeros(2, 3, QQ))


def _determinant(A):
    """Leibniz expansion, independent of the elimination under test."""
    total = 0
    for perm in itertools.permutations(range(A.rows)):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= A.data[i][j]
        total += term
    return A.field.canon(total)


def _random_matrix(draw, field, rows, cols):
    if field.p is None:
        elems = st.integers(-4, 4)
    else:
        elems = st.integers(0, field.p - 1)
    data = draw(st.lists(st.lists(elems, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return Matrix(rows, cols, data, field)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(1, 4), st.booleans())
def test_solve_is_exact(data, rows, cols, over_q):
    field = QQ if over_q else GF(7)
    A = _random_matrix(data.draw, field, rows, cols)
    b = [field.canon(data.draw(st.integers(-4, 4))) for _ in range(rows)]
    x = solve_linear(A, b)
    if x is not None:
        assert A.apply(x) == [field.canon(v) for v in b]


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 4), st.booleans())
def test_inverse_is_two_sided(data, n, over_q):
    field = QQ if over_q else GF(7)
    A = _random_matrix(data.draw, field, n, n)
    cols = A.columns()
    assert Matrix.from_columns(cols, field).columns() == cols
    stacked = Matrix.from_columns([c + c for c in cols], field)
    assert [stacked.column(j)[:n] for j in range(n)] == cols
    assert [stacked.column(j)[n:] for j in range(n)] == cols
    B = invert(A)
    if B is not None:
        assert is_identity(A.mul(B))
        assert is_identity(B.mul(A))
    else:
        assert _determinant(A) == 0


def test_dense_identity_past_the_cap_is_an_input_error():
    from dorroh.algebra import Algebra, unital_ideal_iso
    from dorroh.coalgebra import counital_split_iso
    from dorroh.gallery import counital_hull, grouplikes, scalar_action_pair
    from dorroh.linalg import MAX_DENSE_DIM
    from dorroh.tensors import SparseTensor3

    assert is_identity(Matrix.identity(MAX_DENSE_DIM, GF(5)))
    message = f"dense dimension {MAX_DENSE_DIM + 1} is past the cap MAX_DENSE_DIM = {MAX_DENSE_DIM}"
    with pytest.raises(InputError, match=message):
        Matrix.identity(MAX_DENSE_DIM + 1, QQ)
    # both isos start from the identity of the extension's size, 1 + n
    n = MAX_DENSE_DIM
    kn = Algebra(n, SparseTensor3((n, n, n), {(i, i, i): 1 for i in range(n)}, QQ), QQ)
    with pytest.raises(InputError, match=message):
        unital_ideal_iso(scalar_action_pair(QQ, kn))
    with pytest.raises(InputError, match=message):
        counital_split_iso(counital_hull(grouplikes(n, QQ)))
