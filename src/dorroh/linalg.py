"""Exact matrices as sparse columns, with one deterministic Gauss-Jordan.

A ``Matrix`` keeps, for each column, its (row, value) nonzeros in row
order, every value canonical.  The isomorphisms of the package are
mostly the identity or unitriangular, so their cost is their nonzeros,
not the square of their size.  ``transport`` carries tensor legs through
the columns as they are, and ``_rref`` is the one elimination, behind
``invert`` and the (co)unit solve.
"""

from __future__ import annotations

from .errors import InputError
from .fields import FieldSpec


def _nonzeros(vec, canon) -> list:
    """The (index, canonical value) pairs of vec's nonzero entries; a zero
    entry costs no ``canon`` call."""
    return [(i, y) for i, x in enumerate(vec) if x and (y := canon(x))]


class Matrix:
    __slots__ = ("rows", "cols", "columns", "field")

    def __init__(self, rows: int, cols: int, data, field: FieldSpec):
        """The matrix with the dense rows ``data``: each nonzero entry is
        canonicalised, and only the nonzeros are kept."""
        data = [list(r) for r in data]
        if len(data) != rows or any(len(r) != cols for r in data):
            raise InputError(f"matrix data does not fill {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.columns = [_nonzeros(c, field.canon) for c in zip(*data)] if rows else [[] for _ in range(cols)]
        self.field = field

    @classmethod
    def _canonical(cls, rows: int, cols: int, columns, field: FieldSpec) -> "Matrix":
        """A matrix from sparse columns already in row order, nonzero and canonical."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.columns, m.field = rows, cols, columns, field
        return m

    @classmethod
    def identity(cls, n: int, field: FieldSpec) -> "Matrix":
        return cls._canonical(n, n, [[(j, 1)] for j in range(n)], field)

    @classmethod
    def from_columns(cls, columns, field: FieldSpec) -> "Matrix":
        if not columns:
            return cls(0, 0, [], field)
        rows = len(columns[0])
        if any(len(c) != rows for c in columns):
            raise InputError("columns of unequal length")
        return cls._canonical(rows, len(columns), [_nonzeros(c, field.canon) for c in columns], field)

    def transpose(self) -> "Matrix":
        columns = [[] for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, v in col:
                columns[i].append((j, v))
        return Matrix._canonical(self.cols, self.rows, columns, self.field)

    def dense(self) -> list:
        """The dense list of rows, as a morphism document writes them."""
        rows = [[0] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, v in col:
                rows[i][j] = v
        return rows

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.field == other.field
            and self.columns == other.columns
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field!r})"


def is_identity(M: Matrix) -> bool:
    """M is the square identity; entries are canonical, so 1 is the int 1."""
    return M.rows == M.cols and all(col == [(j, 1)] for j, col in enumerate(M.columns))


def _subtract(row: dict, f, pivot: dict, canon):
    """row -= f * pivot, keeping row's values canonical and nonzero."""
    for c, v in pivot.items():
        x = canon(row.get(c, 0) - f * v)
        if x:
            row[c] = x
        else:
            row.pop(c, None)


def _rref(rows, width, field):
    """Gauss-Jordan on sparse rows over their first ``width`` columns.

    A row is a dict column -> nonzero canonical value; columns from
    ``width`` on are the augmented part.  Rows are taken in order and
    consumed: each is reduced by the pivots so far, pivots on its least
    column below ``width`` and is cleared from the earlier pivot rows.
    Returns pivot column -> the rest of its row (1 at the pivot, 0 at
    every other pivot column), or None when a row reduces to zero below
    ``width`` but not past it, so the augmented system is inconsistent.
    """
    canon, inv = field.canon, field.inv
    pivots = {}
    for row in rows:
        for c in [c for c in row if c in pivots]:
            _subtract(row, row.pop(c), pivots[c], canon)
        lead = min((c for c in row if c < width), default=None)
        if lead is None:
            if row:
                return None
            continue
        scale = inv(row.pop(lead))
        if scale != 1:
            row = {c: canon(v * scale) for c, v in row.items()}
        for other in pivots.values():
            if lead in other:
                _subtract(other, other.pop(lead), row, canon)
        pivots[lead] = row
    return pivots


def _invertible(M: Matrix) -> bool:
    """M is square and invertible.  A triangular matrix (the identity, the
    unitriangular isos A|xI -> A x I and C|xP -> C x P) is invertible
    exactly when its diagonal has no zero; any other goes through
    elimination."""
    if M.rows != M.cols:
        return False
    cols = M.columns
    if all(i <= j for j, col in enumerate(cols) for i, _ in col) or all(
        i >= j for j, col in enumerate(cols) for i, _ in col
    ):
        return all(any(i == j for i, _ in col) for j, col in enumerate(cols))
    return invert(M) is not None


def invert(A: Matrix) -> Matrix | None:
    """The two-sided inverse, or None when A is singular: the elimination
    of [A | 1] leaves row c of the inverse past column n of pivot row c."""
    if A.rows != A.cols:
        raise InputError("only square matrices can be inverted")
    n = A.rows
    rows = [{n + i: 1} for i in range(n)]
    for j, col in enumerate(A.columns):
        for i, v in col:
            rows[i][j] = v
    pivots = _rref(rows, n, A.field)
    if pivots is None or len(pivots) < n:
        return None
    columns = [[] for _ in range(n)]
    for c in range(n):
        for k, v in pivots[c].items():
            columns[k - n].append((c, v))
    return Matrix._canonical(n, n, columns, A.field)
