import itertools

import pytest
from hypothesis import given, settings, strategies as st
from support import apply, dense_columns, matmul, solve_linear, zeros

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
    assert invert(A).dense() == [[1, -1], [0, 1]]


def test_invert_singular():
    assert invert(Matrix(2, 2, [[1, 1], [1, 1]], QQ)) is None


def test_invert_requires_square():
    with pytest.raises(InputError):
        invert(zeros(2, 3, QQ))


def _determinant(A):
    """Leibniz expansion, independent of the elimination under test."""
    total = 0
    rows = A.dense()
    for perm in itertools.permutations(range(A.rows)):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= rows[i][j]
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
        assert apply(A, x) == [field.canon(v) for v in b]


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 4), st.booleans())
def test_inverse_is_two_sided(data, n, over_q):
    field = QQ if over_q else GF(7)
    A = _random_matrix(data.draw, field, n, n)
    cols = dense_columns(A)
    assert Matrix.from_columns(cols, field) == A
    stacked = dense_columns(Matrix.from_columns([c + c for c in cols], field))
    assert [c[:n] for c in stacked] == cols
    assert [c[n:] for c in stacked] == cols
    B = invert(A)
    if B is not None:
        assert is_identity(matmul(A, B))
        assert is_identity(matmul(B, A))
    else:
        assert _determinant(A) == 0


def test_dense_identity_past_the_cap_is_an_input_error():
    """Identities are sparse at any size; only emitting one as a morphism
    document's dense rows is capped."""
    from dorroh import exchange
    from dorroh.algebra import Algebra, unital_ideal_iso
    from dorroh.coalgebra import counital_split_iso
    from dorroh.exchange import MAX_DENSE_DIM
    from dorroh.gallery import counital_hull, grouplikes, scalar_action_pair
    from dorroh.tensors import SparseTensor3

    big = Matrix.identity(10**5, GF(5))
    assert is_identity(big) and big.columns[-1] == [(10**5 - 1, 1)]
    message = f"dense dimension {MAX_DENSE_DIM + 1} is past the cap MAX_DENSE_DIM = {MAX_DENSE_DIM}"
    # both isos are of the extension's size, 1 + n: built and verified, not emitted
    n = MAX_DENSE_DIM
    kn = Algebra(n, SparseTensor3((n, n, n), {(i, i, i): 1 for i in range(n)}, QQ), QQ)
    for iso in (unital_ideal_iso(scalar_action_pair(QQ, kn)), counital_split_iso(counital_hull(grouplikes(n, QQ)))):
        assert iso.verified == "iso" and iso.matrix.rows == n + 1
        with pytest.raises(InputError, match=message):
            exchange.emit(iso)
