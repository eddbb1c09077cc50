"""Dense exact matrices with deterministic Gaussian elimination.

Elimination always picks the leftmost pivot column and the first row with
a nonzero entry, so eliminations and inverses are reproducible across
runs and platforms.
"""

from __future__ import annotations

from .errors import InputError
from .fields import FieldSpec

# The largest identity ``Matrix.identity`` builds.  Every dense matrix sized
# by a declared dim starts from it, so a short document cannot ask for n^2
# work: at the cap ``dorroh iso --which duality`` takes about 0.3 s and 44 MB.
MAX_DENSE_DIM = 512


class Matrix:
    __slots__ = ("rows", "cols", "data", "field")

    def __init__(self, rows: int, cols: int, data, field: FieldSpec):
        data = [list(r) for r in data]
        if len(data) != rows or any(len(r) != cols for r in data):
            raise InputError(f"matrix data does not fill {rows}x{cols}")
        canon = field.canon
        self.rows = rows
        self.cols = cols
        self.data = [[canon(x) for x in r] for r in data]
        self.field = field

    @classmethod
    def _canonical(cls, rows: int, cols: int, data, field: FieldSpec) -> "Matrix":
        """A matrix from a rows x cols list of rows already canonical over field."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.data, m.field = rows, cols, data, field
        return m

    @classmethod
    def identity(cls, n: int, field: FieldSpec) -> "Matrix":
        """The n x n identity; InputError when n is past MAX_DENSE_DIM."""
        if n > MAX_DENSE_DIM:
            raise InputError(f"dense dimension {n} is past the cap MAX_DENSE_DIM = {MAX_DENSE_DIM}")
        return cls._canonical(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)], field)

    @classmethod
    def zeros(cls, rows: int, cols: int, field: FieldSpec) -> "Matrix":
        return cls(rows, cols, [[0] * cols for _ in range(rows)], field)

    @classmethod
    def from_columns(cls, columns, field: FieldSpec) -> "Matrix":
        if not columns:
            return cls(0, 0, [], field)
        rows = len(columns[0])
        if any(len(c) != rows for c in columns):
            raise InputError("columns of unequal length")
        return cls(rows, len(columns), [[c[i] for c in columns] for i in range(rows)], field)

    def column(self, j: int) -> list:
        return [r[j] for r in self.data]

    def columns(self) -> list:
        return [self.column(j) for j in range(self.cols)]

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise InputError("matrix product dimension mismatch")
        canon = self.field.canon
        out = []
        for i in range(self.rows):
            row = self.data[i]
            out.append(
                [
                    canon(sum(row[k] * other.data[k][j] for k in range(self.cols)))
                    for j in range(other.cols)
                ]
            )
        return Matrix(self.rows, other.cols, out, self.field)

    def apply(self, vec) -> list:
        if len(vec) != self.cols:
            raise InputError("matrix-vector dimension mismatch")
        canon = self.field.canon
        return [canon(sum(r[j] * vec[j] for j in range(self.cols))) for r in self.data]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.field == other.field
            and self.data == other.data
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field!r})"


def is_identity(M: Matrix) -> bool:
    """M is the square identity; entries are canonical, so 0 is falsy."""
    return M.rows == M.cols and all(
        row[i] == 1 and not any(row[:i]) and not any(row[i + 1 :]) for i, row in enumerate(M.data)
    )


def _rref(rows, width, field):
    """In-place reduced row echelon over the first `width` columns; returns pivot columns."""
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
        if scale != 1:
            rows[r] = [canon(x * scale) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rr = rows[r]
                rows[i] = [canon(x - f * y) for x, y in zip(rows[i], rr)]
        pivots.append(c)
        r += 1
    return pivots


def _invertible(M: Matrix) -> bool:
    """M is square and invertible.  A triangular matrix (the identity, the
    unitriangular isos A|xI -> A x I and C|xP -> C x P) is invertible
    exactly when its diagonal has no zero; any other goes through
    elimination.  Entries are canonical, so 0 is falsy."""
    if M.rows != M.cols:
        return False
    rows = M.data
    below = any(any(row[:i]) for i, row in enumerate(rows))
    if not below or not any(any(row[i + 1 :]) for i, row in enumerate(rows)):
        return all(row[i] for i, row in enumerate(rows))
    return invert(M) is not None


def invert(A: Matrix) -> Matrix | None:
    """The two-sided inverse, or None when A is singular.  Elimination
    canonicalises every entry it writes, so the inverse is built as is."""
    if A.rows != A.cols:
        raise InputError("only square matrices can be inverted")
    n = A.rows
    field = A.field
    aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(A.data)]
    pivots = _rref(aug, n, field)
    if len(pivots) < n:
        return None
    return Matrix._canonical(n, n, [row[n:] for row in aug], field)
