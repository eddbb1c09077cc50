"""Dense references and identity maps shared by the tests.

The library carries every action through sparse tensors; ``act_left`` and
``act_right`` apply one to coordinate vectors entry by entry, and
``product`` an algebra's multiplication, as an independent reference for
the tests that check a law on single elements, and ``basis`` gives the
coordinates of one basis vector.  ``entry`` reads one structure constant
of a tensor, zero where it stores none.
``dense_rref`` is the dense Gauss-Jordan the library once used, the
reference for its one sparse elimination ``linalg._rref``;
``solve_linear`` solves a dense system by it, and ``dense_unit`` the
(co)unit system by ``solve_linear``.  ``zeros``, ``matmul``,
``apply`` and ``dense_columns`` are dense matrix helpers, and ``inverse``
the inverse of a morphism, that no library code needs.
``reference_unit_on`` decides a (co)unit law by a transport round
trip against a dense identity, the reference for ``algebra._unit_on``.
``random_algebra_pair`` and ``random_coalgebra_pair`` draw valid pairs
from the gallery's constructions, never by rejection-sampling raw
tensors: raw random tensors essentially never satisfy the pair axioms.
"""

from dorroh.algebra import Algebra, AlgebraMorphism, DorrohPairAlgebra, direct_product_pair, regular_bimodule
from dorroh.coalgebra import (
    BicomoduleCoaction,
    Coalgebra,
    CoalgebraMorphism,
    DorrohPairCoalgebra,
    regular_bicomodule,
    zero_coaction_pair,
)
from dorroh.errors import InputError, PreconditionError
from dorroh.fields import FieldSpec
from dorroh.gallery import (
    algebra_k,
    conjugate_algebra_pair,
    conjugate_coalgebra_pair,
    counital_hull,
    divided_power,
    dual_numbers,
    group_algebra_z2,
    grouplikes,
    matrix_algebra_2,
    matrix_coalgebra_2,
    nilpotent_line,
    random_invertible,
    regular_copair,
    regular_pair,
    scalar_action_pair,
    triangular_pair,
    trivial_coextension_pair,
    trivial_extension_pair,
    truncated_polynomials,
)
from dorroh.linalg import Matrix, invert
from dorroh.tensors import SparseTensor3, transport


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


def product(a, x, y) -> list:
    """Coordinates of x.y in the ``Algebra`` a."""
    acc = [0] * a.dim
    for (i, j, k), c in a.mul.entries.items():
        xi = x[i]
        if xi:
            yj = y[j]
            if yj:
                acc[k] += xi * yj * c
    canon = a.field.canon
    return [canon(v) for v in acc]


def entry(T: SparseTensor3, i: int, j: int, k: int):
    """T's structure constant at (i, j, k), zero where T stores none."""
    return T.entries.get((i, j, k), 0)


def basis(s, i) -> list:
    """Coordinates of the i-th basis vector of an algebra or coalgebra."""
    v = [0] * s.dim
    v[i] = 1
    return v


def identity_morphism(a) -> AlgebraMorphism:
    return AlgebraMorphism(a, a, Matrix.identity(a.dim, a.field))


def identity_comorphism(c) -> CoalgebraMorphism:
    return CoalgebraMorphism(c, c, Matrix.identity(c.dim, c.field))


def inverse(F):
    """The morphism of F's inverse matrix, target to source, stamped as F is."""
    inv = invert(F.matrix)
    if inv is None:
        raise PreconditionError("morphism matrix is singular")
    return type(F)(F.target, F.source, inv, verified=F.verified)


def zeros(rows: int, cols: int, field: FieldSpec) -> Matrix:
    return Matrix(rows, cols, [[0] * cols for _ in range(rows)], field)


def dense_columns(M: Matrix) -> list:
    """The columns of M as dense lists."""
    return [list(c) for c in zip(*M.dense())] if M.rows else [[] for _ in range(M.cols)]


def matmul(A: Matrix, B: Matrix) -> Matrix:
    if A.cols != B.rows:
        raise InputError("matrix product dimension mismatch")
    a, b = A.dense(), B.dense()
    return Matrix(A.rows, B.cols, [[sum(r[k] * b[k][j] for k in range(A.cols)) for j in range(B.cols)] for r in a], A.field)


def apply(A: Matrix, vec) -> list:
    if len(vec) != A.cols:
        raise InputError("matrix-vector dimension mismatch")
    canon = A.field.canon
    return [canon(sum(r[j] * vec[j] for j in range(A.cols))) for r in A.dense()]


def dense_rref(rows, width, field):
    """In-place reduced row echelon of dense rows of canonical scalars over
    the first ``width`` columns, leftmost pivot column and first nonzero row
    first; returns the pivot columns."""
    canon = field.canon
    inv = field.inv
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(width):
        pivot = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = inv(rows[r][c])
        # a canonical entry that the step leaves as it is (a zero of the
        # pivot row, or a zero scaled) is kept without arithmetic
        if scale != 1:
            rows[r] = [canon(x * scale) if x else x for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rr = rows[r]
                rows[i] = [canon(x - f * y) if y else x for x, y in zip(rows[i], rr)]
        pivots.append(c)
        r += 1
    return pivots


def reference_unit_on(T, leg, u, n) -> bool:
    """Contracting ``leg`` of T with u leaves the identity: 1 at each (x, x), 0 at ``leg``."""
    legs = [Matrix(1, len(u), [u], T.field) if t == leg else None for t in range(3)]
    identity = dict.fromkeys(zip(*[[0] * n if t == leg else range(n) for t in range(3)]), 1)
    return transport(T, legs).entries == identity


def solve_linear(A: Matrix, b) -> list | None:
    """One solution of A x = b (free variables set to 0), or None if inconsistent."""
    if len(b) != A.rows:
        raise InputError("right-hand side length must equal row count")
    field = A.field
    canon = field.canon
    aug = [row + [canon(bi)] for row, bi in zip(A.dense(), b)]
    pivots = dense_rref(aug, A.cols, field)
    rank = len(pivots)
    for i in range(rank, A.rows):
        if aug[i][A.cols] != 0:
            return None
    x = [0] * A.cols
    for r, c in enumerate(pivots):
        x[c] = aug[r][A.cols]
    return x


def dense_unit(n, coefficient, field):
    """Solve the dense 2n^2 x n system u.e_j = e_j = e_j.u in every
    coordinate m, with coefficient(i, j, m) the structure constant."""
    if n == 0:
        return None
    rows, rhs = [], []
    for j in range(n):
        for m in range(n):
            rows += [[coefficient(i, j, m) for i in range(n)], [coefficient(j, i, m) for i in range(n)]]
            rhs += [int(j == m)] * 2
    return solve_linear(Matrix(len(rows), n, rows, field), rhs)


def _random_small_algebra(rng, field: FieldSpec, max_dim: int) -> Algebra:
    choices = [lambda: algebra_k(field), lambda: nilpotent_line(field)]
    if max_dim >= 2:
        choices += [
            lambda: dual_numbers(field),
            lambda: group_algebra_z2(field),
            lambda: truncated_polynomials(1, field),
        ]
    if max_dim >= 3:
        choices.append(lambda: truncated_polynomials(2, field))
    if max_dim >= 4:
        choices.append(lambda: matrix_algebra_2(field))
    return rng.choice(choices)()


def random_algebra_pair(rng, field: FieldSpec, max_total_dim: int = 8) -> DorrohPairAlgebra:
    kind = rng.randrange(5)
    half = max_total_dim // 2
    if kind == 0:
        a = _random_small_algebra(rng, field, half)
        pair = trivial_extension_pair(a, regular_bimodule(a))
    elif kind == 1:
        a = _random_small_algebra(rng, field, half)
        b = _random_small_algebra(rng, field, max_total_dim - a.dim)
        pair = direct_product_pair(a, b)
    elif kind == 2:
        a = _random_small_algebra(rng, field, half)
        pair = regular_pair(a)
    elif kind == 3:
        i = _random_small_algebra(rng, field, max_total_dim - 1)
        pair = scalar_action_pair(field, i)
    else:
        a = _random_small_algebra(rng, field, (max_total_dim - 1) // 2)
        b = algebra_k(field)
        # left-regular A, zero right B-action
        right = SparseTensor3.zero((a.dim, 1, a.dim), field)
        pair = triangular_pair(a, b, a.mul, right)[0]
    if rng.random() < 0.5:
        pair = conjugate_algebra_pair(
            pair,
            random_invertible(rng, pair.A.dim, field),
            random_invertible(rng, pair.I.dim, field),
        )
    return pair


def _random_small_coalgebra(rng, field: FieldSpec, max_dim: int) -> Coalgebra:
    choices = [lambda: grouplikes(1, field)]
    if max_dim >= 2:
        choices += [lambda: grouplikes(2, field), lambda: divided_power(1, field)]
    if max_dim >= 3:
        choices.append(lambda: divided_power(2, field))
    if max_dim >= 4:
        choices.append(lambda: matrix_coalgebra_2(field))
    return rng.choice(choices)()


def random_coalgebra_pair(rng, field: FieldSpec, max_total_dim: int = 8) -> DorrohPairCoalgebra:
    kind = rng.randrange(5)
    half = max_total_dim // 2
    if kind == 0:
        c = _random_small_coalgebra(rng, field, half)
        pair = trivial_coextension_pair(c, regular_bicomodule(c))
    elif kind == 1:
        c = _random_small_coalgebra(rng, field, half)
        p = _random_small_coalgebra(rng, field, max_total_dim - c.dim)
        pair = zero_coaction_pair(c, p)
    elif kind == 2:
        c = _random_small_coalgebra(rng, field, half)
        pair = regular_copair(c)
    elif kind == 3:
        p = _random_small_coalgebra(rng, field, max_total_dim - 1)
        pair = counital_hull(p)
    else:
        # random grouplike pair: each p_i coacts through one group-like of C
        nc = rng.randint(1, max(1, half))
        npp = rng.randint(1, max(1, max_total_dim - nc))
        c = grouplikes(nc, field)
        p = grouplikes(npp, field)
        assign = [rng.randrange(nc) for _ in range(npp)]
        rho_l = SparseTensor3(
            (npp, nc, npp), {(x, assign[x], x): 1 for x in range(npp)}, field
        )
        rho_r = SparseTensor3(
            (npp, npp, nc), {(x, x, assign[x]): 1 for x in range(npp)}, field
        )
        pair = DorrohPairCoalgebra(c, p, BicomoduleCoaction(c, npp, rho_l, rho_r))
    if rng.random() < 0.5:
        pair = conjugate_coalgebra_pair(
            pair,
            random_invertible(rng, pair.C.dim, field),
            random_invertible(rng, pair.P.dim, field),
        )
    return pair
