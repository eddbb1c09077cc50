"""Dense references and identity maps shared by the tests.

The library carries every action through sparse tensors; ``act_left`` and
``act_right`` apply one to coordinate vectors entry by entry, as an
independent reference for the tests that check a law on single elements.
"""

from dorroh.algebra import AlgebraMorphism
from dorroh.coalgebra import CoalgebraMorphism
from dorroh.linalg import Matrix


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


def identity_morphism(a) -> AlgebraMorphism:
    return AlgebraMorphism(a, a, Matrix.identity(a.dim, a.field))


def identity_comorphism(c) -> CoalgebraMorphism:
    return CoalgebraMorphism(c, c, Matrix.identity(c.dim, c.field))


def is_identity(M: Matrix) -> bool:
    return M.rows == M.cols and all(
        M.data[i][j] == (1 if i == j else 0) for i in range(M.rows) for j in range(M.cols)
    )
