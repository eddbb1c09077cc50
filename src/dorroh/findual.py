"""The finite dual of k[x] and of its ideal x k[x], via recurrent sequences.

A functional f on k[x] with f(x^n) = s_n has finite-dimensional shift
space exactly when (s_n) satisfies a linear recurrence; the shifts
sigma^j f, sigma(f)(x^n) = f(x^{n+1}), then span it.  Functionals on the
non-unital ideal x k[x] are the same data without the value s_0 and with
shifts starting at j = 1.

Coproducts come from factoring f(x^{i+j}) through a shift-space basis:
with the basis in reduced echelon form (leftmost pivots), the dual
elements are plain monomials x^{p_t} at the pivot degrees, so the right
factors are the corresponding shifts of f.  Everything is verified to a
requested depth against direct evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .errors import InputError, PreconditionError, ValidationFailure
from .fields import FieldSpec
from .linalg import Matrix, _rref, solve_linear
from .reports import Report


class RecurrentSequence:
    """s_n = sum_i coeffs[i-1] s_{n-i} for n > len(initial); s_0 optional.

    ``initial`` holds s_1 .. s_L with L >= len(coeffs); extra initial
    values simply delay where the recurrence takes over.
    """

    def __init__(self, field: FieldSpec, s0, initial, coeffs):
        if len(initial) < len(coeffs):
            raise InputError("initial values must cover the recurrence order")
        self.field = field
        self.s0 = field.canon(s0) if s0 is not None else None
        self.initial = [field.canon(v) for v in initial]
        self.coeffs = [field.canon(v) for v in coeffs]
        self._vals = list(self.initial)  # memo of s_1..; grows on demand

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def value(self, n: int):
        """s_n; n = 0 needs s_0 present."""
        if n < 0:
            raise InputError("sequence indices start at 0")
        if n == 0:
            if self.s0 is None:
                raise InputError("this functional lives on x k[x]; s_0 is undefined")
            return self.s0
        vals = self._vals
        canon = self.field.canon
        r = len(self.coeffs)
        while len(vals) < n:
            if r == 0:
                vals.append(0)
            else:
                m = len(vals) + 1
                vals.append(canon(sum(self.coeffs[i - 1] * vals[m - 1 - i] for i in range(1, r + 1))))
        return vals[n - 1]

    def prefix(self, n: int) -> list:
        """[s_1, ..., s_n]."""
        if n > 0:
            self.value(n)
        return list(self._vals[:n])

    def __eq__(self, other):
        return (
            isinstance(other, RecurrentSequence)
            and self.field == other.field
            and self.s0 == other.s0
            and self.initial == other.initial
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        head = f"s0={self.s0}, " if self.s0 is not None else ""
        return f"RecurrentSequence({head}initial={self.initial}, coeffs={self.coeffs})"


def eval_sequence(f: RecurrentSequence, n: int):
    return f.value(n)


def minimal_recurrence(prefix, bound: int, field: FieldSpec) -> RecurrentSequence | None:
    """Smallest-order recurrence (order <= bound) consistent with s_1..s_m.

    Equivalent to finding, for growing r, a monic vector in the kernel of
    the (r+1)-column Hankel matrix of the prefix.  Returns None when no
    order within the bound fits.
    """
    if bound < 0:
        raise InputError("bound must be nonnegative")
    m = len(prefix)
    if m < 2 * bound + 2:
        raise InputError(f"prefix of length {m} is too short for bound {bound} (need {2 * bound + 2})")
    prefix = [field.canon(v) for v in prefix]
    for r in range(bound + 1):
        if r == 0:
            if all(v == 0 for v in prefix):
                return RecurrentSequence(field, None, [], [])
            continue
        rows = []
        rhs = []
        for n in range(r + 1, m + 1):
            rows.append([prefix[n - 1 - i] for i in range(1, r + 1)])
            rhs.append(prefix[n - 1])
        sol = solve_linear(Matrix(len(rows), r, rows, field), rhs)
        if sol is not None:
            return RecurrentSequence(field, None, prefix[:r], sol)
    return None


@dataclass
class CoproductDecomposition:
    rank: int
    left: list
    right: list
    pivots: list = dataclass_field(default_factory=list)


def _shift_space(f: RecurrentSequence):
    """Echelon basis of span{sigma^j f} and the pivot degrees.

    Rows are the shifts sigma^j f for j = lo..L sampled on columns
    n = lo..max(L, lo); elements of the span are determined by those
    values, so the sampled rank is the true rank.
    """
    lo = 0 if f.s0 is not None else 1
    L = len(f.initial)
    hi = max(L, lo)
    cols = list(range(lo, hi + 1))
    rows = [[f.value(n + j) for n in cols] for j in range(lo, L + 1)]
    pivots = _rref(rows, len(cols), f.field)

    basis = []
    shifts = []
    for t, pc in enumerate(pivots):
        row = rows[t]
        if lo == 0:
            fi = RecurrentSequence(f.field, row[0], row[1 : L + 1], f.coeffs)
        else:
            fi = RecurrentSequence(f.field, None, row[:L] if L else [], f.coeffs)
        basis.append(fi)
        degree = cols[pc]
        if lo == 0:
            gi = RecurrentSequence(
                f.field, f.value(degree), [f.value(n + degree) for n in range(1, L + 1)], f.coeffs
            )
        else:
            gi = RecurrentSequence(
                f.field, None, [f.value(n + degree) for n in range(1, L + 1)] if L else [], f.coeffs
            )
        shifts.append(gi)
    return basis, shifts, [cols[pc] for pc in pivots], lo


def default_depth(f: RecurrentSequence) -> int:
    """Verification depth 2r + 16: comfortably past rank stabilization."""
    return 2 * f.order + 16


def coproduct_decompose(f: RecurrentSequence, depth: int | None = None) -> CoproductDecomposition:
    """m*(f) = sum_t f_t (x) g_t with the f_t a shift-space basis and the
    g_t the shifts of f by the pivot degrees; verified on all monomial
    pairs x^i (x) x^j with i+j <= depth, along with coassociativity."""
    if depth is None:
        depth = default_depth(f)
    if depth < 0:
        raise InputError("depth must be nonnegative")
    left, right, pivots, lo = _shift_space(f)
    dec = CoproductDecomposition(len(left), left, right, pivots)

    report = Report()
    canon = f.field.canon
    lcache = [[ft.value(n) for n in range(lo, depth + 1)] for ft in left]
    rcache = [[gt.value(n) for n in range(lo, depth + 1)] for gt in right]
    ok, wit = True, None
    for i in range(lo, depth + 1):
        for j in range(lo, depth - i + 1):
            got = canon(sum(lc[i - lo] * rc[j - lo] for lc, rc in zip(lcache, rcache)))
            if got != f.value(i + j):
                ok, wit = False, (i, j)
                break
        if not ok:
            break
    report.add("f(x^(i+j))=sum f_t(x^i)g_t(x^j)", ok, wit)

    # Coassociativity at depth: expand each tensor leg once more and
    # compare the two triple expansions on monomials.  The inner pairings
    # are tabulated up front so the triple loop stays cheap; it reads only
    # the triangle a + b < width of each table.
    span = range(lo, depth + 1)
    width = len(span)

    def table(seq_pairs):
        out = []
        for fparts, gparts in seq_pairs:
            tab = [[0] * width for _ in range(width)]
            if fparts:
                fv = [[u.value(n) for n in span] for u in fparts]
                gv = [[v.value(n) for n in span] for v in gparts]
                for a in range(width):
                    row = tab[a]
                    for b in range(width - a):
                        row[b] = sum(fv[u][a] * gv[u][b] for u in range(len(fparts)))
            out.append(tab)
        return out

    ldecs = table([_shift_space(ft)[:2] for ft in left])
    rdecs = table([_shift_space(gt)[:2] for gt in right])
    lv = [[ft.value(n) for n in span] for ft in left]
    rv = [[gt.value(n) for n in span] for gt in right]
    ok, wit = True, None
    for a in range(lo, depth + 1):
        if not ok:
            break
        for b in range(lo, depth - a + 1):
            if not ok:
                break
            for c in range(lo, depth - a - b + 1):
                lhs = sum(ldecs[t][a - lo][b - lo] * rv[t][c - lo] for t in range(dec.rank))
                rhs = sum(lv[t][a - lo] * rdecs[t][b - lo][c - lo] for t in range(dec.rank))
                if canon(lhs - rhs) != 0:
                    ok, wit = False, (a, b, c)
                    break
    report.add("(Delta(x)1)Delta=(1(x)Delta)Delta", ok, wit)

    if not report.ok:
        raise ValidationFailure(report, "coproduct decomposition is internally inconsistent")
    return dec


def dorroh_decompose(f: RecurrentSequence, depth: int | None = None) -> Report:
    """Split f on k[x] = k |x (x k[x]) into phi_A + phi_I and verify that
    the assembled blockwise coproduct reproduces m*(f) on all monomial
    pairs x^i (x) x^j with i+j <= depth.

    The k-block contributes s_0 e (x) e; the coactions contribute
    e (x) phi_I and phi_I (x) e; the ideal-side coproduct of phi_I covers
    the rest.  Here e is evaluation at x^0.
    """
    if f.s0 is None:
        raise PreconditionError("dorroh_decompose needs a functional on unital k[x] (s_0 present)")
    if depth is None:
        depth = default_depth(f)
    if depth < 0:
        raise InputError("depth must be nonnegative")
    field = f.field
    phi_i = RecurrentSequence(field, None, f.initial, f.coeffs)
    dec = coproduct_decompose(phi_i, depth)
    coproduct_decompose(f, depth)

    report = Report()
    report.add("phi_I coproduct verified", True, detail=f"rank {dec.rank}")
    canon = field.canon
    ok, wit = True, None
    for i in range(depth + 1):
        for j in range(depth - i + 1):
            assembled = 0
            if i == 0 and j == 0:
                assembled += f.s0
            if i == 0 and j >= 1:
                assembled += phi_i.value(j)
            if j == 0 and i >= 1:
                assembled += phi_i.value(i)
            if i >= 1 and j >= 1:
                assembled += sum(ft.value(i) * gt.value(j) for ft, gt in zip(dec.left, dec.right))
            if canon(assembled) != f.value(i + j):
                ok, wit = False, (i, j)
                break
        if not ok:
            break
    report.add("blockwise coproduct assembly matches m*(f)", ok, wit)
    return report


def vanishing_check(f: RecurrentSequence, pcoeffs, depth: int | None = None) -> Report:
    """f kills x^n p(x) for 0 <= n <= depth, where p = x^r - sum c_i x^{r-i}.

    For functionals on x k[x] (no s_0) the range starts at n = 1, staying
    inside the ideal.
    """
    r = len(pcoeffs)
    if r < 1:
        raise InputError("polynomial degree mismatch: need degree >= 1")
    if depth is None:
        depth = default_depth(f)
    if depth < 0:
        raise InputError("depth must be nonnegative")
    field = f.field
    pcoeffs = [field.canon(v) for v in pcoeffs]
    canon = field.canon
    lo = 0 if f.s0 is not None else 1
    report = Report()
    ok, wit = True, None
    for n in range(lo, depth + 1):
        val = f.value(n + r) - sum(pcoeffs[i - 1] * f.value(n + r - i) for i in range(1, r + 1))
        if canon(val) != 0:
            ok, wit = False, (n,)
            break
    report.add("f(x^n p(x))=0", ok, wit)
    return report
