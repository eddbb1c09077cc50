"""The finite dual of k[x] and of its ideal x k[x], via recurrent sequences.

A functional f on k[x] with f(x^n) = s_n has finite-dimensional shift
space exactly when (s_n) satisfies a linear recurrence (k[x]^o is the
space of linearly recursive sequences); the shifts sigma^j f,
sigma(f)(x^n) = f(x^{n+1}), then span it.  Functionals on the non-unital
ideal x k[x] are the same data without the value s_0 and with shifts
starting at j = 1.  The minimal recurrence of a prefix comes from
Berlekamp-Massey.

Coproducts come from factoring f(x^{i+j}) through a shift-space basis:
with the basis in reduced echelon form (leftmost pivots), the dual
elements are plain monomials x^{p_t} at the pivot degrees, so the right
factors are the corresponding shifts of f.  The shift space V is
shift-invariant, so every factor h lies in V and factors through the
same basis, h(x^(a+b)) = sum_u f_u(x^a) h(x^(p_u+b)); coassociativity is
certified from three identities of the basis and the factors' values,
with one elimination per sequence (see coproduct_decompose).  The Dorroh
split of the finite dual, k[x]^o = k e |x (x k[x])^o with e evaluation
at x^0, is the pairing of the factors e, phi_I and those of phi_I against
f.  Everything is verified to a requested depth, at most MAX_DEPTH.  A
pass is decided by one certificate on the basis, the shifts and f's
values, in O(rank^2 (depth + order)) operations, and by the edge of the
Dorroh pairing; the pairings against direct evaluation run only when a
certificate fails, to name the least failing pair.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field as dataclass_field
from math import lcm
from operator import is_, mul

from .errors import InputError, PreconditionError, ValidationFailure
from .fields import FieldSpec
from .linalg import _rref
from .reports import Report

_log = logging.getLogger("dorroh.findual")

# Caps on the verification depth, the recurrence-order bound and the size
# of a sequence (its order and its number of initial values), past which
# the functions below raise InputError.  A coproduct of a sequence with L
# initial values and a rank-r shift space costs one elimination of an
# (L+1)^2 matrix, the value tables of the basis to degree M <= depth + 2L
# + 1 and a certificate of about r^2 M products (over Q in integers), on
# values that grow with the depth over Q; only a failing certificate adds
# the scans that name its witness, among them the first identity
# (r depth^2 / 2 products).  The Dorroh split adds the coproduct of phi_I
# and a comparison of depth + 1 values.  minimal_recurrence is
# Berlekamp-Massey, O(m * bound) operations on a prefix of length m; a
# random prefix over Q with no recurrence within MAX_BOUND takes 0.02 s.
# In-process on a 2-vCPU machine, `dorroh findual --command dorroh` takes
# about 0.02 s at MAX_DEPTH on an order-8 sequence over Q whose values
# grow like 2^n, and on a random order-MAX_ORDER sequence over Q with
# coefficients in -3..3 about 4.5 s both at its default depth
# 2 MAX_ORDER + 16 and at MAX_DEPTH, nearly all of it the elimination
# (0.4 s and 0.65 s over GF(10007)).
MAX_DEPTH = 320
MAX_BOUND = 32
MAX_ORDER = 80

# Over Q the order caps do not bound the work, because the cost follows
# the size of the scalars: the elimination works on the initial values and
# every later value grows with the degree.  Two caps on a sequence document
# over Q (``check_size``), in bits of numerator plus bits of denominator
# beyond 1: MAX_SCALAR_BITS on the total of s_0, the initial values and
# the coefficients, and MAX_HEIGHT on h0 + READ_DEGREE g, a bound on the
# values read at MAX_DEPTH: h0 is the largest of s_0 and the initial
# values, and with d the least common denominator of the coefficients and
# S = d sum |c_i|, a step past the initial values multiplies by at most
# S / d, so it adds at most g = bits(S) + bits(d) - 1.  In-process on a
# 2-vCPU machine, `dorroh findual --command dorroh --depth MAX_DEPTH` takes
# about 8 s on the slowest integer documents under both caps (order 80,
# every coefficient 3, 4-bit initial values), as on order 80 with values in
# -3..3; refused, an order-1 document with a 62-bit coefficient took 6 s,
# an order-80 one with 45-bit initial values 29 s, and the 1000-digit
# order-10 one 8.8 s at its default depth.  Over F_p every value is below
# p < 2^64, and the order caps bound the work.
READ_DEGREE = MAX_DEPTH + 2 * MAX_ORDER
MAX_SCALAR_BITS = 512
MAX_HEIGHT = 4096


class RecurrentSequence:
    """s_n = sum_i coeffs[i-1] s_{n-i} for n > len(initial); s_0 optional.

    ``initial`` holds s_1 .. s_L with L >= len(coeffs); extra initial
    values simply delay where the recurrence takes over.  Both lists are
    capped at MAX_ORDER entries.
    """

    def __init__(self, field: FieldSpec, s0, initial, coeffs):
        if len(coeffs) > MAX_ORDER:
            raise InputError(f"recurrence order {len(coeffs)} is past the cap MAX_ORDER = {MAX_ORDER}")
        if len(initial) > MAX_ORDER:
            raise InputError(f"{len(initial)} initial values are past the cap MAX_ORDER = {MAX_ORDER}")
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
            p = self.field.p
            r = len(self.coeffs)
            rcoeffs = self.coeffs[::-1]  # c_r .. c_1 meet s_{m-r} .. s_{m-1}
            if p is not None:  # canonical residues: the sum is an int, reduced mod p
                while len(vals) < n:
                    vals.append(sum(map(mul, rcoeffs, vals[len(vals) - r :])) % p)
            else:
                canon = self.field.canon
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


def _height(q) -> int:
    """Bits of the numerator plus bits of the denominator beyond 1 of an
    int or Fraction."""
    return q.numerator.bit_length() + q.denominator.bit_length() - 1


def height_bound(f: RecurrentSequence) -> int:
    """h0 + READ_DEGREE g, the bound on the height of f's values read at
    MAX_DEPTH over Q (see MAX_HEIGHT)."""
    d = lcm(*(c.denominator for c in f.coeffs))
    step = int(d * sum(map(abs, f.coeffs)))
    h0 = max(map(_height, f.initial + ([f.s0] if f.s0 is not None else [])), default=0)
    return h0 + READ_DEGREE * (step.bit_length() + d.bit_length() - 1)


def check_size(f: RecurrentSequence) -> RecurrentSequence:
    """f, or InputError when f is over Q and past MAX_SCALAR_BITS or MAX_HEIGHT."""
    if f.field.p is None:
        scalars = f.initial + f.coeffs + ([f.s0] if f.s0 is not None else [])
        bits = sum(map(_height, scalars))
        if bits > MAX_SCALAR_BITS:
            raise InputError(f"scalars of {bits} bits in all are past the cap MAX_SCALAR_BITS = {MAX_SCALAR_BITS}")
        bound = height_bound(f)
        if bound > MAX_HEIGHT:
            raise InputError(f"values of up to {bound} bits at depth MAX_DEPTH are past the cap MAX_HEIGHT = {MAX_HEIGHT}")
    return f


def check_bound(bound: int) -> int:
    """A recurrence-order bound in [0, MAX_BOUND], else InputError."""
    if bound < 0:
        raise InputError("bound must be nonnegative")
    if bound > MAX_BOUND:
        raise InputError(f"bound {bound} is past the cap MAX_BOUND = {MAX_BOUND}")
    return bound


def minimal_recurrence(prefix, bound: int, field: FieldSpec) -> RecurrentSequence | None:
    """Smallest-order recurrence (order <= bound) consistent with s_1..s_m.

    Berlekamp-Massey: after s_1..s_n it holds a shortest recurrence
    1 + C_1 x + ... + C_L x^L (s_k + sum_i C_i s_{k-i} = 0 for L < k <= n)
    and corrects it by the recurrence in hand at its last length change
    whenever s_{n+1} breaks it.  L never falls, so the search stops once
    L passes the bound and returns None.  O(m * bound) field operations.
    The result equals the monic kernel vector of the (L+1)-column Hankel
    matrix of the prefix: m >= 2 bound + 2 > 2L, and a shortest recurrence
    of a prefix at least twice its length is unique (Massey 1969).
    """
    check_bound(bound)
    m = len(prefix)
    if m < 2 * bound + 2:
        raise InputError(f"prefix of length {m} is too short for bound {bound} (need {2 * bound + 2})")
    canon = field.canon
    prefix = [canon(v) for v in prefix]
    rev = prefix[::-1]  # s_n, s_(n-1), ... from rev[m - n]
    conn, last = [1], [1]  # the connection polynomial, and the one before its last length change
    order, gap, last_d = 0, 1, 1  # last_d: the discrepancy at that change
    for n in range(m):
        d = canon(prefix[n] + sum(map(mul, conn[1:], rev[m - n : m - n + len(conn) - 1])))
        if d == 0:
            gap += 1
            continue
        scale = canon(d * field.inv(last_d))
        grown = conn + [0] * (gap + len(last) - len(conn))
        for i, c in enumerate(last, gap):
            grown[i] = canon(grown[i] - scale * c)
        if 2 * order <= n:
            order, last, last_d, gap = n + 1 - order, conn, d, 1
            if order > bound:
                break
        else:
            gap += 1
        conn = grown
    fits = order <= bound
    _log.debug("minimal_recurrence length=%d bound=%d order=%s", m, bound, order if fits else None)
    if not fits:
        return None
    coeffs = [canon(-c) for c in conn[1 : order + 1]]
    return RecurrentSequence(field, None, prefix[:order], coeffs + [0] * (order - len(coeffs)))


@dataclass
class CoproductDecomposition:
    rank: int
    left: list
    right: list
    pivots: list = dataclass_field(default_factory=list)
    _verified: tuple | None = dataclass_field(default=None, init=False, repr=False, compare=False)  # see _keep


def _keep(dec: CoproductDecomposition, h: RecurrentSequence, depth: int) -> CoproductDecomposition:
    """Stamp dec as the decomposition of h whose first identity holds to
    depth, with the factor objects it was verified on."""
    dec._verified = (h, depth, dec.left + dec.right)
    return dec


def _stamped(dec: CoproductDecomposition, h: RecurrentSequence, depth: int) -> bool:
    """True when dec carries the stamp of h at depth and still holds the
    factor objects that were verified."""
    stamp = dec._verified
    factors = dec.left + dec.right
    return (
        stamp is not None
        and stamp[0] is h
        and stamp[1] == depth
        and len(stamp[2]) == len(factors)
        and all(map(is_, stamp[2], factors))
    )


def _sequence(f: RecurrentSequence, vals, lo: int) -> RecurrentSequence:
    """The sequence with f's recurrence and the values vals over n = lo, lo+1, ...

    Its values up to x^L, L = len(f.initial), define it; the rest of vals
    are its next values already and become its memo."""
    L = len(f.initial)
    h = RecurrentSequence(f.field, vals[0] if lo == 0 else None, vals[1 - lo : L + 1 - lo], f.coeffs)
    h._vals = vals[1 - lo :]
    return h


def _shift_space(f: RecurrentSequence, reach: int = 0):
    """Echelon basis of span{sigma^j f}, the shifts of f by the pivot
    degrees, the pivots and lo.

    Rows are the shifts sigma^j f for j = lo..L sampled on columns
    n = lo..max(L, lo); elements of the span are determined by those
    values, so the sampled rank is the true rank.  Every row and shift is
    a window of one value table: sigma^d f over n = lo, lo+1, ... is
    vals[d:], and each shift keeps its window, which reaches at least
    degree max(L, lo, reach), as its values.
    """
    lo = 0 if f.s0 is not None else 1
    L = len(f.initial)
    hi = max(L, lo)
    width = hi - lo + 1
    vals = _values(f, hi + max(hi, reach))
    rows = [vals[j : j + width] for j in range(lo, L + 1)]
    pivots = [lo + pc for pc in _rref(rows, width, f.field)]
    basis = [_sequence(f, row, lo) for row in rows[: len(pivots)]]
    shifts = [_sequence(f, vals[d:], lo) for d in pivots]
    return basis, shifts, pivots, lo


def default_depth(f: RecurrentSequence) -> int:
    """Verification depth 2r + 16: comfortably past rank stabilization."""
    return 2 * f.order + 16


def _depth(f: RecurrentSequence, depth: int | None) -> int:
    """The requested depth in [0, MAX_DEPTH], else InputError; None gives
    the default depth, at most 2 MAX_ORDER + 16 <= MAX_DEPTH."""
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


def _integer_table(h: RecurrentSequence, top: int):
    """(T, D): ints with h(x^n) = T[n - lo] / D for n = lo..top, over Q.

    The values h already holds, up to x^K, are scaled by D0, their least
    common denominator.  Past them the recurrence runs in integers: with
    c_i = b_i / d over the least common denominator d of the coefficients,
    T_n = D0 d^(n-K) h(x^n) = sum_i b_i d^min(i-1, n-K-1) T_(n-i).  Every
    entry is then brought to D = D0 d^(top-K), so no Fraction is made."""
    lo = 0 if h.s0 is not None else 1
    K = min(len(h._vals), top)
    held = _values(h, K)
    D0 = lcm(*(v.denominator for v in held))
    T = [v.numerator * (D0 // v.denominator) for v in held]
    d = lcm(*(c.denominator for c in h.coeffs))
    bs = [c.numerator * (d // c.denominator) for c in h.coeffs]  # b_1 .. b_r
    r, weights = len(bs), []
    for j in range(1, top - K + 1):  # x^(K+j)
        if j <= r:  # the weights settle at b_i d^(i-1) once j reaches r
            weights = [b * d ** min(i, j - 1) for i, b in enumerate(bs)][::-1]
        T.append(sum(map(mul, weights, T[len(T) - r :])))
    e = top - K
    if e and d != 1:
        held_count = K - lo + 1
        T = [t * d**e for t in T[:held_count]] + [t * d ** (e - j) for j, t in enumerate(T[held_count:], 1)]
    return T, D0 * d**e


def _tables(hs, top: int, field: FieldSpec):
    """The value tables of hs over n = lo..top as ints over one common
    denominator D, and D; over F_p the canonical values and D = 1."""
    if field.p is not None:
        return [_values(h, top) for h in hs], 1
    scaled = [_integer_table(h, top) for h in hs]
    D = lcm(*(d for _, d in scaled))
    return [T if d == D else [t * (D // d) for t in T] for T, d in scaled], D


def _expands(coords, cols, want, scale, p) -> bool:
    """sum_u coords[u] cols[k][u] = scale want[k] for every k: in integers
    over Q, and mod p over F_p, where scale is 1."""
    if p is None:
        return [sum(map(mul, coords, c)) for c in cols] == [scale * w for w in want]
    return [sum(map(mul, coords, c)) % p for c in cols] == want


def _certified(f: RecurrentSequence, dec: CoproductDecomposition, lo: int, depth: int) -> bool:
    """The pass decision of coproduct_decompose: with P the largest pivot
    (lo when there is none), N = P + max(depth - 2 lo, 1) and M = N + P - lo,
    (1) on every pivot, (2) on n = lo..M-1, the expansion of h = sigma^lo f
    on n = lo..M and the windows g_t(x^n) = f(x^(n+p_t)) on n = lo..N."""
    pivots, field = dec.pivots, f.field
    P = max(pivots, default=lo)
    N = P + max(depth - 2 * lo, 1)
    M = N + P - lo
    fv = _values(f, N + P)  # f(x^n) at index n - lo, up to x^(M+lo)
    if any(_values(gt, N) != fv[p : p + N - lo + 1] for p, gt in zip(pivots, dec.right)):
        return False
    F, D = _tables(dec.left, M, field)  # f_t(x^n) = F[t][n - lo] / D
    (H,), _ = _tables([f], N + P, field)  # h(x^n) = f(x^(n+lo)) is H[n] over a common denominator
    cols = list(zip(*F)) or [()] * (M - lo + 1)
    at = [p - lo for p in pivots]
    return (
        all(Ft[k] == (D if u == t else 0) for t, Ft in enumerate(F) for u, k in enumerate(at))
        and all(_expands([Ft[k + 1] for k in at], cols[:-1], Ft[1:], D, field.p) for Ft in F)
        and _expands([H[p] for p in pivots], cols, H[lo : M + 1], D, field.p)
    )


def _first_difference(got, want):
    """The first index at which two equal-length lists differ; None when equal."""
    if got == want:
        return None
    return next(k for k, (x, y) in enumerate(zip(got, want)) if x != y)


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
        b = _first_difference(got, values[a + lo : a + lo + len(got)])
        if b is not None:
            return (a + lo, b + lo)
    return None


def _certificate_failure(lv, rv, pivots, lo, canon):
    """The first factor, f_0, f_1, ... then g_0, ..., that fails identity
    (1), (2) or (3) of coproduct_decompose, with the least failing (a, b)
    of its factorization: (p_u, 0) for (1), (n, 1) for (2) and (n, 0) for
    (3); (None, "") when every factor passes.  lv and rv are the value
    lists of the f_t and g_t over n = lo..N, N the last degree read."""
    cols = list(zip(*lv))  # cols[k][u] = f_u(x^(lo+k))
    at = [p - lo for p in pivots]

    def expansion(hv, b):
        """Least (n, b) at which h(x^(n+b)) differs from sum_u h(x^(p_u+b)) f_u(x^n)."""
        coords = [hv[k + b] for k in at]
        k = _first_difference([canon(sum(map(mul, coords, c))) for c in cols[: len(cols) - b]], hv[b:])
        return None if k is None else (k + lo, b)

    for t, hv in enumerate(lv):
        wits = [(p, 0) for u, (p, k) in enumerate(zip(pivots, at)) if hv[k] != (1 if u == t else 0)]
        wits += [w for w in [expansion(hv, 1)] if w]
        if wits:
            return min(wits), f"decomposition of f_{t}"
    for t, hv in enumerate(rv):
        wit = expansion(hv, 0)
        if wit:
            return wit, f"decomposition of g_{t}"
    return None, ""


def coproduct_decompose(f: RecurrentSequence, depth: int | None = None) -> CoproductDecomposition:
    """m*(f) = sum_t f_t (x) g_t with the f_t the echelon basis of the shift
    space V and g_t = sigma^(p_t) f the shifts of f by the pivot degrees
    p_t; verified on all monomial pairs x^i (x) x^j with i+j <= depth,
    along with coassociativity.

    Coassociativity expands each leg once more.  A factor h in {f_t, g_t}
    lies in V, whose echelon coordinates are the values at the pivots, so
    h factors as h(x^(a+b)) = sum_u f_u(x^a) h(x^(p_u+b)): the lefts are
    the f_u and the rights are windows of h's own value table (g_t's is a
    window of f's, g_t(x^n) = f(x^(n+p_t))).  If every factor satisfies
    this for a, b >= lo, a+b <= depth - lo, and the first identity holds,
    then both triple sums on x^a (x) x^b (x) x^c, a+b+c <= depth, equal
    f(x^(a+b+c)), since sum_t f_t(x^(a+b)) g_t(x^c) = f(x^(a+b+c)) =
    sum_t f_t(x^a) g_t(x^(b+c)).

    The factorizations are certified without visiting the pairs (a, b).
    With s = depth - 2 lo, P the largest pivot and N = P + max(s, 1), the
    last degree read, it checks on n = lo..N:
      (1) f_t(x^(p_u)) = delta_tu;
      (2) f_t(x^(n+1)) = sum_u f_t(x^(p_u+1)) f_u(x^n), for n < N;
      (3) g_t(x^n) = sum_u g_t(x^(p_u)) f_u(x^n).
    Let Q_h(b) say h(x^(n+b)) = sum_u h(x^(p_u+b)) f_u(x^n) for
    n = lo..N-b.  (1) gives Q_h(0) for h = f_t, and (3) is Q_h(0) for
    h = g_t.  For b < s, Q_h(b) gives Q_h(b+1): for n <= N-b-1,
      h(x^(n+b+1)) = sum_u h(x^(p_u+b)) f_u(x^(n+1))           [Q_h(b) at n+1]
                   = sum_v (sum_u h(x^(p_u+b)) f_u(x^(p_v+1))) f_v(x^n)   [(2)]
                   = sum_v h(x^(p_v+b+1)) f_v(x^n)          [Q_h(b) at p_v+1],
    the last step reading Q_h(b) at p_v + 1 <= P + 1 <= N - b.  So Q_h(b)
    holds for b = 0..s on n = lo..N-b, and N - b >= depth - lo - b is the
    whole range of the factorization.  At the truncation edge, b = s,
    the factorization reads h up to x^(P+s) = x^N, exactly where (1)-(3)
    stop; for s < 1 there is no step, and N = P + 1 only keeps (2) in
    range.  A factor that fails is reported as the decomposition of f_t or
    g_t, with the least failing (a, b) of its factorization among the
    instances (1)-(3) read: (p_u, 0), (n, 1) or (n, 0).

    A pass is decided without the pairs (i, j) of the first identity
    either, and without (3).  With h = sigma^lo f, h(x^n) = f(x^(n+lo)),
    P the largest pivot (lo at rank 0) and M = N + P - lo, it checks
      (1) on every pivot, and (2) on n = lo..M-1;
      (4) h(x^n) = sum_u h(x^(p_u)) f_u(x^n) on n = lo..M;
      (5) g_t(x^n) = f(x^(n+p_t)) on n = lo..N,
    in O(rank^2 M) operations (over Q on integer tables, one common
    denominator each for the f_t and for h).  (4) is Q_h(0) on n = lo..M,
    and the step above, run to M in place of N with (2) to M - 1, gives
    Q_h(b) on n = lo..M-b for every b <= M - P.  The first identity at
    (i, j) is Q_h(j - lo) at n = i: j - lo <= s <= M - P, i + j <= depth
    <= M + lo, and h(x^(p_u+j-lo)) = f(x^(p_u+j)) = g_u(x^j) by (5), as
    j <= depth - lo <= N.  Identity (3) for g_t is Q_h(p_t - lo) on
    n = lo..N (p_t - lo <= M - P and N <= M - p_t + lo), read through (5)
    at n and at the pivots.  So a pass of (1), (2), (4) and (5) is a pass
    of the first identity and of (1)-(3).  Only when one of them fails
    are the first identity, paired against direct evaluation in
    O(rank depth^2), and (1)-(3) checked as above, to name the witness,
    so the report is the same whichever way it was decided.
    """
    depth = _depth(f, depth)
    lo = 0 if f.s0 is not None else 1
    steps = max(depth - 2 * lo, 1)
    # the shifts carry their values up to the last degree a certificate can read
    left, right, pivots, lo = _shift_space(f, max(len(f.initial), lo) + steps)
    dec = CoproductDecomposition(len(left), left, right, pivots)
    if _certified(f, dec, lo, depth):
        decided, first, (wit, detail) = "certificate", None, (None, "")
    else:
        canon = f.field.canon
        last = (pivots[-1] if pivots else 0) + steps
        lv = [_values(ft, last) for ft in left]
        rv = [_values(gt, last) for gt in right]
        decided = "scan"
        first = _pairing_failure(lv, rv, _values(f, depth), lo, depth, canon)
        wit, detail = _certificate_failure(lv, rv, pivots, lo, canon)

    report = Report()
    report.add_witness("f(x^(i+j))=sum f_t(x^i)g_t(x^j)", first)
    report.add("h(x^(a+b))=sum h_u(x^a)h'_u(x^b) for h in {f_t, g_t}", wit is None, wit, detail)
    _log.debug("coproduct_decompose rank=%d depth=%d width=%d decided=%s", dec.rank, depth, depth - lo + 1, decided)

    if not report.ok:
        raise ValidationFailure(report, "coproduct decomposition is internally inconsistent")
    return _keep(dec, f, depth)


def dorroh_decompose(f: RecurrentSequence, depth: int | None = None) -> Report:
    """Split f on k[x] = k |x (x k[x]) into phi_A + phi_I and verify that
    the coalgebra Dorroh extension k e |x (x k[x])^o reproduces m*(f) on
    all monomial pairs x^i (x) x^j with i+j <= depth.

    Its coproduct of f is s_0 e (x) e + e (x) phi_I + phi_I (x) e +
    sum_t f_t (x) g_t, the last sum the coproduct of phi_I; e is
    evaluation at x^0, where phi_I, f_t and g_t vanish.  The check is one
    pairing of those factors over n = 0..depth, with the witness of the
    least failing (i, j).  On the decomposition coproduct_decompose has
    just verified for phi_I at this depth (``_stamped``) only the edge is
    read: row i = 0 and column j = 0 both hold s_0 e + phi_I, and once it
    matches f, phi_I = f on x^1..x^depth and the interior i, j >= 1 is
    phi_I's first identity.  Any other decomposition is paired in full.
    """
    if f.s0 is None:
        raise PreconditionError("dorroh_decompose needs a functional on unital k[x] (s_0 present)")
    field = f.field
    phi_i = RecurrentSequence(field, None, f.initial, f.coeffs)
    # phi_I has f's order, so a default depth is the same for both
    dec = coproduct_decompose(phi_i, depth)
    depth = _depth(f, depth)

    report = Report().add("phi_I coproduct verified", True, detail=f"rank {dec.rank}")
    values = _values(f, depth)
    phi = [0] + _values(phi_i, depth)
    reused = _stamped(dec, phi_i, depth)
    if reused:
        k = _first_difference([f.s0] + phi[1:], values)
        wit = None if k is None else (0, k)
    else:
        e = [1] + [0] * depth
        fs = [[0] + _values(ft, depth) for ft in dec.left]
        gs = [[0] + _values(gt, depth) for gt in dec.right]
        lefts = [[f.s0] + e[1:], e, phi] + fs
        rights = [e, phi, e] + gs
        wit = _pairing_failure(lefts, rights, values, 0, depth, field.canon)
    _log.debug("dorroh_decompose rank=%d depth=%d interior=%s", dec.rank, depth, "coproduct" if reused else "scan")
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
    _log.debug("vanishing_check degree=%d depth=%d witness=%s", r, depth, wit)
    return Report().add_witness("f(x^n p(x))=0", wit)
