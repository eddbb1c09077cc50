"""The finite dual of k[x] and of its ideal x k[x], via recurrent sequences.

A functional f on k[x] with f(x^n) = s_n has finite-dimensional shift
space exactly when (s_n) satisfies a linear recurrence; the shifts
sigma^j f, sigma(f)(x^n) = f(x^{n+1}), then span it.  Functionals on the
non-unital ideal x k[x] are the same data without the value s_0 and with
shifts starting at j = 1.

Coproducts come from factoring f(x^{i+j}) through a shift-space basis:
with the basis in reduced echelon form (leftmost pivots), the dual
elements are plain monomials x^{p_t} at the pivot degrees, so the right
factors are the corresponding shifts of f.  The Dorroh split of the
finite dual, k[x]^o = k e |x (x k[x])^o with e evaluation at x^0, is the
same pairing check, over the factors e, phi_I and those of phi_I.
Everything is verified to a requested depth, at most MAX_DEPTH, against
direct evaluation.
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


def _sequence(f: RecurrentSequence, vals, lo: int) -> RecurrentSequence:
    """The sequence with f's recurrence and the values vals over n = lo, lo+1, ..."""
    return RecurrentSequence(f.field, vals[0] if lo == 0 else None, vals[1 - lo :], f.coeffs)


def _shift_space(f: RecurrentSequence):
    """Echelon basis of span{sigma^j f} and the pivot degrees.

    Rows are the shifts sigma^j f for j = lo..L sampled on columns
    n = lo..max(L, lo); elements of the span are determined by those
    values, so the sampled rank is the true rank.  Every row and shift is
    a window of one value table: sigma^d f over n = lo..max(L, lo) is
    vals[d : d + width].
    """
    lo = 0 if f.s0 is not None else 1
    L = len(f.initial)
    width = max(L, lo) - lo + 1
    vals = _values(f, 2 * max(L, lo))
    rows = [vals[j : j + width] for j in range(lo, L + 1)]
    pivots = [lo + pc for pc in _rref(rows, width, f.field)]
    basis = [_sequence(f, row, lo) for row in rows[: len(pivots)]]
    shifts = [_sequence(f, vals[d : d + width], lo) for d in pivots]
    return basis, shifts, pivots, lo


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
    the coalgebra Dorroh extension k e |x (x k[x])^o reproduces m*(f) on
    all monomial pairs x^i (x) x^j with i+j <= depth.

    Its coproduct of f is s_0 e (x) e + e (x) phi_I + phi_I (x) e +
    sum_t f_t (x) g_t, the last sum the coproduct of phi_I; e is
    evaluation at x^0, where phi_I, f_t and g_t vanish.  The check is one
    pairing of those factors over n = 0..depth.
    """
    if f.s0 is None:
        raise PreconditionError("dorroh_decompose needs a functional on unital k[x] (s_0 present)")
    field = f.field
    phi_i = RecurrentSequence(field, None, f.initial, f.coeffs)
    # phi_I has f's order, so a default depth is the same for both
    dec = coproduct_decompose(phi_i, depth)
    depth = _depth(f, depth)

    report = Report().add("phi_I coproduct verified", True, detail=f"rank {dec.rank}")
    e = [1] + [0] * depth
    phi = [0] + _values(phi_i, depth)
    fs = [[0] + _values(ft, depth) for ft in dec.left]
    gs = [[0] + _values(gt, depth) for gt in dec.right]
    lefts = [[f.s0] + e[1:], e, phi] + fs
    rights = [e, phi, e] + gs
    wit = _pairing_failure(lefts, rights, _values(f, depth), 0, depth, field.canon)
    return report.add_witness("blockwise coproduct assembly matches m*(f)", wit)


def vanishing_check(f: RecurrentSequence, pcoeffs, depth: int | None = None) -> Report:
    """f kills x^n p(x) for 0 <= n <= depth, where p = x^r - sum c_i x^{r-i}.

    For functionals on x k[x] (no s_0) the range starts at n = 1, staying
    inside the ideal.
    """
    r = len(pcoeffs)
    if r < 1:
        raise InputError("polynomial degree mismatch: need degree >= 1")
    depth = _depth(f, depth)
    canon = f.field.canon
    rcoeffs = [canon(v) for v in reversed(pcoeffs)]  # c_r .. c_1
    lo = 0 if f.s0 is not None else 1
    vals = _values(f, depth + r)  # f(x^m) at index m - lo
    wit = None
    for k in range(depth - lo + 1):
        if canon(vals[k + r] - sum(map(mul, rcoeffs, vals[k : k + r]))) != 0:
            wit = (k + lo,)
            break
    return Report().add_witness("f(x^n p(x))=0", wit)
