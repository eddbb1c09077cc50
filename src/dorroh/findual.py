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
requested depth, at most MAX_DEPTH, against direct evaluation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field as dataclass_field
from operator import mul

from .errors import InputError, PreconditionError, ValidationFailure
from .fields import FieldSpec
from .linalg import Matrix, _rref, solve_linear
from .reports import Report

_log = logging.getLogger("dorroh.findual")

# Caps on the verification depth and the recurrence-order bound, past
# which the functions below raise InputError.  The coproduct check costs
# about rank^2 * depth^2 products of values that grow with the depth;
# minimal_recurrence solves up to bound + 1 Hankel systems on a prefix of
# length 2 * bound + 2, about bound^4 operations when no order fits.  On
# an order-8 sequence over Q whose values grow like 2^n, `dorroh findual
# --command dorroh` (two coproducts) takes about 5 s at MAX_DEPTH; a
# random prefix over Q with no recurrence within MAX_BOUND about 4 s.
MAX_DEPTH = 320
MAX_BOUND = 32


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
        if len(vals) < n:
            canon = self.field.canon
            r = len(self.coeffs)
            rcoeffs = self.coeffs[::-1]  # c_r .. c_1 meet s_{m-r} .. s_{m-1}
            while len(vals) < n:
                vals.append(canon(sum(map(mul, rcoeffs, vals[len(vals) - r :]))))
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


def check_bound(bound: int) -> int:
    """A recurrence-order bound in [0, MAX_BOUND], else InputError."""
    if bound < 0:
        raise InputError("bound must be nonnegative")
    if bound > MAX_BOUND:
        raise InputError(f"bound {bound} is past the cap MAX_BOUND = {MAX_BOUND}")
    return bound


def minimal_recurrence(prefix, bound: int, field: FieldSpec) -> RecurrentSequence | None:
    """Smallest-order recurrence (order <= bound) consistent with s_1..s_m.

    Equivalent to finding, for growing r, a monic vector in the kernel of
    the (r+1)-column Hankel matrix of the prefix.  Returns None when no
    order within the bound fits.
    """
    check_bound(bound)
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


def _depth(f: RecurrentSequence, depth: int | None) -> int:
    """The requested depth in [0, MAX_DEPTH], else InputError; None gives
    the default depth, which grows with the order and is not capped."""
    if depth is None:
        return default_depth(f)
    if depth < 0:
        raise InputError("depth must be nonnegative")
    if depth > MAX_DEPTH:
        raise InputError(f"depth {depth} is past the cap MAX_DEPTH = {MAX_DEPTH}")
    return depth


def _values(h: RecurrentSequence, depth: int) -> list:
    """[h(x^n) for n = lo..depth], lo = 0 with s_0 and 1 without."""
    return ([h.s0] if h.s0 is not None else []) + h.prefix(depth)


def _pairing_failure(lefts, rights, values, lo, top, canon):
    """Least (i, j), lexicographic, with i, j >= lo and i + j <= top at which
    sum_u lefts[u](x^i) rights[u](x^j) differs from values(x^(i+j)); None
    when there is none.  Every sequence is a value list over n = lo, lo+1, ...

    Each row i is read once per sequence; its entries are sum(map(mul, ...))
    over the column tuples of the rights."""
    size = top - 2 * lo + 1
    cols = list(zip(*rights)) or [()] * size
    for a in range(size):
        row = [v[a] for v in lefts]
        got = [canon(sum(map(mul, row, c))) for c in cols[: size - a]]
        want = values[a + lo : a + lo + len(got)]
        if got != want:
            b = next(b for b, (x, y) in enumerate(zip(got, want)) if x != y)
            return (a + lo, b + lo)
    return None


def coproduct_decompose(f: RecurrentSequence, depth: int | None = None) -> CoproductDecomposition:
    """m*(f) = sum_t f_t (x) g_t with the f_t a shift-space basis and the
    g_t the shifts of f by the pivot degrees; verified on all monomial
    pairs x^i (x) x^j with i+j <= depth, along with coassociativity.

    Coassociativity expands each leg once more through the factor's own
    decomposition h = sum_u h_u (x) h'_u and compares the two triple sums
    on monomials x^a (x) x^b (x) x^c, a+b+c <= depth.  It is certified
    without visiting the triples: if every factor h in {f_t} u {g_t}
    satisfies sum_u h_u(x^a) h'_u(x^b) = h(x^(a+b)) for a+b <= depth - lo,
    and the first identity holds, then both triple sums equal
    f(x^(a+b+c)), since sum_t f_t(x^(a+b)) g_t(x^c) = f(x^(a+b+c)) =
    sum_t f_t(x^a) g_t(x^(b+c)).  That costs O(rank^2 depth^2) where the
    triples cost O(rank depth^3).  The certificate is checked as its own
    identity: a factor whose decomposition fails it is reported with the
    first (a, b), whatever the triple sums would show.
    """
    depth = _depth(f, depth)
    left, right, pivots, lo = _shift_space(f)
    dec = CoproductDecomposition(len(left), left, right, pivots)
    canon = f.field.canon
    width = depth - lo + 1
    lv = [_values(ft, depth) for ft in left]
    rv = [_values(gt, depth) for gt in right]

    report = Report()
    first = _pairing_failure(lv, rv, _values(f, depth), lo, depth, canon)
    report.add_witness("f(x^(i+j))=sum f_t(x^i)g_t(x^j)", first)

    wit, detail = None, ""
    factors = [("f", t, ft, v) for t, (ft, v) in enumerate(zip(left, lv))]
    factors += [("g", t, gt, v) for t, (gt, v) in enumerate(zip(right, rv))]
    for name, t, h, hv in factors:
        hl, hr = ([_values(u, depth) for u in part] for part in _shift_space(h)[:2])
        wit = _pairing_failure(hl, hr, hv, lo, depth - lo, canon)
        if wit is not None:
            detail = f"decomposition of {name}_{t}"
            break
    report.add("h(x^(a+b))=sum h_u(x^a)h'_u(x^b) for h in {f_t, g_t}", wit is None, wit, detail)
    _log.debug("coproduct_decompose rank=%d depth=%d width=%d", dec.rank, depth, width)

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
    field = f.field
    phi_i = RecurrentSequence(field, None, f.initial, f.coeffs)
    # phi_I has f's order, so a default depth is the same for both
    dec = coproduct_decompose(phi_i, depth)
    coproduct_decompose(f, depth)
    depth = _depth(f, depth)

    report = Report()
    report.add("phi_I coproduct verified", True, detail=f"rank {dec.rank}")
    canon = field.canon
    lv = [_values(ft, depth) for ft in dec.left]  # lo = 1: x^n at index n - 1
    rv = [_values(gt, depth) for gt in dec.right]
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
                assembled += sum(fv[i - 1] * gv[j - 1] for fv, gv in zip(lv, rv))
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
    depth = _depth(f, depth)
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
