"""Dense references and identity maps shared by the tests.

The library carries every action through sparse tensors; ``act_left`` and
``act_right`` apply one to coordinate vectors entry by entry, as an
independent reference for the tests that check a law on single elements,
and ``basis`` gives the coordinates of one basis vector.
``solve_linear`` solves a dense system by the library's elimination.
"""

from dorroh.algebra import AlgebraMorphism
from dorroh.coalgebra import CoalgebraMorphism
from dorroh.errors import InputError
from dorroh.linalg import Matrix, _rref


def act_left(action, a_vec, x_vec):
    """Coordinates of a . x under a ``BimoduleAction``."""
    acc = [0] * action.carrier_dim
    for (a, x, y), c in action.left.entries.items():
        va = a_vec[a]
        if va:
            vx = x_vec[x]
            if vx:
                acc[y] += va * vx * c
    canon = action.acting.field.canon
    return [canon(v) for v in acc]


def act_right(action, x_vec, a_vec):
    """Coordinates of x . a under a ``BimoduleAction``."""
    acc = [0] * action.carrier_dim
    for (x, a, y), c in action.right.entries.items():
        vx = x_vec[x]
        if vx:
            va = a_vec[a]
            if va:
                acc[y] += vx * va * c
    canon = action.acting.field.canon
    return [canon(v) for v in acc]


def basis(s, i) -> list:
    """Coordinates of the i-th basis vector of an algebra or coalgebra."""
    v = [0] * s.dim
    v[i] = 1
    return v


def identity_morphism(a) -> AlgebraMorphism:
    return AlgebraMorphism(a, a, Matrix.identity(a.dim, a.field))


def identity_comorphism(c) -> CoalgebraMorphism:
    return CoalgebraMorphism(c, c, Matrix.identity(c.dim, c.field))


def solve_linear(A: Matrix, b) -> list | None:
    """One solution of A x = b (free variables set to 0), or None if inconsistent."""
    if len(b) != A.rows:
        raise InputError("right-hand side length must equal row count")
    field = A.field
    canon = field.canon
    aug = [row + [canon(bi)] for row, bi in zip(A.data, b)]
    pivots = _rref(aug, A.cols, field)
    rank = len(pivots)
    for i in range(rank, A.rows):
        if aug[i][A.cols] != 0:
            return None
    x = [0] * A.cols
    for r, c in enumerate(pivots):
        x[c] = aug[r][A.cols]
    return x
