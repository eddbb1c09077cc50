"""The finite dual of k[x] and of its ideal x k[x], via recurrent sequences.

A functional f on k[x] with f(x^n) = s_n has finite-dimensional shift
space exactly when (s_n) satisfies a linear recurrence (k[x]^o is the
space of linearly recursive sequences); the shifts sigma^j f,
sigma(f)(x^n) = f(x^{n+1}), then span it.  Functionals on the non-unital
ideal x k[x] are the same data without the value s_0 and with shifts
starting at j = 1.  One Berlekamp-Massey body finds the minimal
recurrence of a prefix and the reduced echelon basis of the shift space,
with no elimination; over Q it runs fraction-free, on integers.  A
sequence keeps its run, as it keeps its values, and the Dorroh split
derives phi_I's from it, so a sequence decomposed both ways runs it once.

Coproducts come from factoring f(x^{i+j}) through that basis, whose dual
elements are plain monomials x^{p_t} at the pivot degrees, so the right
factors are the corresponding shifts of f.  The shift space V is
shift-invariant, so every factor h lies in V and factors through the
same basis, h(x^(a+b)) = sum_u f_u(x^a) h(x^(p_u+b)).  The first identity
and coassociativity are decided by one certificate, which names the least
failing instance of each identity.  Every sequence it compares follows
f's recurrence past f's L initial values, so it reads them only up to
about x^(2L+1), in O(rank^2 L) operations whatever the depth, and a pass
holds at every depth (see coproduct_decompose).  The Dorroh split
k[x]^o = k e |x (x k[x])^o, e evaluation at x^0, holds once phi_I's
coproduct is certified.  The vanishing check of f on x^n p(x) stops
at n = L too, since past it the residuals follow f's recurrence (see
vanishing_check), so nothing here reads f past x^(L + 2 MAX_ORDER).
Depths are capped at MAX_DEPTH.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import InputError, PreconditionError
from .fields import FieldSpec
from .reports import Report

_log = logging.getLogger("dorroh.findual")

# Caps on the verification depth, the recurrence-order bound, the size of
# a sequence (its order and its number of initial values) and the degree
# of a vanishing polynomial (2 MAX_ORDER), past which the functions below
# raise InputError.  A coproduct of a sequence with L initial values and a
# rank-r shift space costs Berlekamp-Massey on 2L + 2 values, O(L^2), and
# a certificate of about r^2 L products on tables that stop by x^(2L+2)
# (both over Q in integers), passing or failing, whatever the depth; the
# Dorroh split is the coproduct of phi_I, on f's Berlekamp-Massey run.  A
# vanishing check of a degree-r polynomial reads f to x^(L+r) and makes
# about (L + 1) r products, whatever the depth.
# minimal_recurrence, Berlekamp-Massey on a prefix of length m, costs
# O(m * bound).  In-process on a 2-vCPU machine it takes 1.0 ms on a
# random prefix of small fractions over Q with no recurrence within
# MAX_BOUND, and dorroh_decompose takes 0.12 ms at MAX_DEPTH on an order-8
# sequence over Q with roots +-1, +-2, each twice; on a random
# order-MAX_ORDER one with coefficients and initial values in -3..3,
# 0.03 s over Q at its default depth 2 MAX_ORDER + 16 and at MAX_DEPTH
# alike, and 0.02 s over GF(10007).
MAX_DEPTH = 320
MAX_BOUND = 32
MAX_ORDER = 80

# Over Q the order caps do not bound the work, because the cost follows
# the size of the scalars, and every value read grows with the degree.
# Two caps on a sequence document over Q (``check_size``), in bits of
# numerator plus bits of denominator beyond 1: MAX_SCALAR_BITS on the
# total of s_0, the initial values and the coefficients, and MAX_HEIGHT on
# h0 + READ_DEGREE g, a bound on the values up to x^READ_DEGREE: h0 is the
# largest of s_0 and the initial values, and with d the least common
# denominator of the coefficients and S = d sum |c_i|, a step past the
# initial values multiplies by at most S / d, so it adds at most
# g = bits(S) + bits(d) - 1.  The certificate and the vanishing check stop
# where the recurrence takes over, so nothing reads past x^(L + 2
# MAX_ORDER), at most x^240, well below READ_DEGREE = 480; the caps stay
# as they are.  In-process, dorroh_decompose at MAX_DEPTH takes about
# 0.03 s on an order-80 document under both caps with every coefficient 3
# and initial values in -3..3, and 0.065 s with every coefficient 1/2,
# and vanishing_check at MAX_DEPTH of x^80 times their characteristic
# polynomials (degree 160) 2 ms and 0.1 s; refused, an order-80 one with
# 45-bit initial values and every coefficient 1 took 0.4 s and an
# order-10 one of 1000-digit scalars 0.3 s at its default depth, nearly
# all of both the one Berlekamp-Massey run (its content gcds and integer
# corrections).
# Over F_p every value is below p < 2^64, and the order caps bound the
# work.
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
        self._minpoly = None  # memo of _minimal_polynomial

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
    """h0 + READ_DEGREE g, the bound on the height of f's values up to
    x^READ_DEGREE over Q (see MAX_HEIGHT)."""
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


def _berlekamp_massey(prefix, bound: int, field: FieldSpec):
    """(order, coeffs): the length L of a shortest recurrence s_k =
    sum_i coeffs[i-1] s_{k-i} (L < k <= m) of the canonical values
    s_1..s_m, or a length past the bound, where the search stopped.
    Berlekamp-Massey: the connection polynomial in hand, C with
    coeffs[i-1] = -C_i / C_0, is corrected by the one at its last length
    change, B, whenever s_{n+1} breaks it, C <- b C - d x^gap B with d and
    b the discrepancies sum_(i>=0) C_i s_(n+1-i) of C and of B; L never
    falls.  Over F_p, C_0 = 1 and C is corrected by d / b.  Over Q the run
    is fraction-free (as Bareiss's elimination): the values are scaled to
    integers by their common denominator, which scales every discrepancy
    alike, and C is divided by its content after each correction, so no
    Fraction is made before the coefficients.  O(m * bound) operations."""
    p, m = field.p, len(prefix)
    if p is None:
        D = lcm(*(v.denominator for v in prefix))
        prefix = [v.numerator * (D // v.denominator) for v in prefix]
    rev = prefix[::-1]  # s_n, s_(n-1), ... from rev[m - n]
    conn, last = [1], [1]  # the connection polynomial, and the one before its last length change
    order, gap, last_d = 0, 1, 1  # last_d: the discrepancy at that change
    for n in range(m):
        d = sum(map(mul, conn, rev[m - 1 - n : m - 1 - n + len(conn)]))
        if p is not None:
            d %= p
        if d == 0:
            gap += 1
            continue
        grown = conn + [0] * (gap + len(last) - len(conn))
        if p is None:
            grown = [last_d * c for c in grown]
            for i, c in enumerate(last, gap):
                grown[i] -= d * c
            content = gcd(*grown)
            grown = [c // content for c in grown]
        else:
            scale = d * pow(last_d, -1, p) % p
            for i, c in enumerate(last, gap):
                grown[i] = (grown[i] - scale * c) % p
        if 2 * order <= n:
            order, last, last_d, gap = n + 1 - order, conn, d, 1
            if order > bound:
                break
        else:
            gap += 1
        conn = grown
    c0, tail = conn[0], conn[1 : order + 1]
    if p is None:
        coeffs = [Fraction(-c, c0) if c % c0 else -c // c0 for c in tail]
    else:
        coeffs = [-c % p for c in tail]
    return order, coeffs + [0] * (order - len(coeffs))


def minimal_recurrence(prefix, bound: int, field: FieldSpec) -> RecurrentSequence | None:
    """Smallest-order recurrence (order <= bound) consistent with s_1..s_m,
    or None.  It equals the monic kernel vector of the (L+1)-column Hankel
    matrix of the prefix: m >= 2 bound + 2 > 2L, and a shortest recurrence
    of a prefix at least twice its length is unique (Massey 1969)."""
    check_bound(bound)
    m = len(prefix)
    if m < 2 * bound + 2:
        raise InputError(f"prefix of length {m} is too short for bound {bound} (need {2 * bound + 2})")
    prefix = [field.canon(v) for v in prefix]
    order, coeffs = _berlekamp_massey(prefix, bound, field)
    fits = order <= bound
    _log.debug("minimal_recurrence length=%d bound=%d order=%s", m, bound, order if fits else None)
    return RecurrentSequence(field, None, prefix[:order], coeffs) if fits else None


@dataclass
class CoproductDecomposition:
    rank: int
    left: list
    right: list
    pivots: list = dataclass_field(default_factory=list)


def _sequence(f: RecurrentSequence, vals, lo: int) -> RecurrentSequence:
    """The sequence with f's recurrence and the values vals over n = lo, lo+1, ...

    Its values up to x^L, L = len(f.initial), define it; the rest of vals
    are its next values already and become its memo.  f passed the size
    caps and vals are canonical, so nothing is checked or canonicalised."""
    L = len(f.initial)
    h = RecurrentSequence.__new__(RecurrentSequence)
    h.field, h.s0, h.coeffs = f.field, vals[0] if lo == 0 else None, list(f.coeffs)
    h.initial, h._vals = vals[1 - lo : L + 1 - lo], vals[1 - lo :]
    h._minpoly = None
    return h


def _minimal_polynomial(f: RecurrentSequence):
    """(r, coeffs): the minimal polynomial m = x^r - sum_i coeffs[i-1]
    x^(r-i) of h = sigma^lo f, kept on f as its values are.

    f's recurrence past x^L, L = len(f.initial), kills h by a polynomial
    of degree at most w = L + 1 - lo, so r <= w.  Two recurrences of
    lengths r' <= r that agree on r + r' <= 2w values agree everywhere
    (Massey 1969), so Berlekamp-Massey on h's first 2w values on x^lo, ...,
    f's values on x^(2 lo)..x^(2L+1), finds m."""
    if f._minpoly is None:
        lo = 0 if f.s0 is not None else 1
        w = len(f.initial) + 1 - lo
        f._minpoly = _berlekamp_massey(_values(f, 2 * len(f.initial) + 1)[lo:], w, f.field)
    return f._minpoly


def _over_x2(run):
    """(r, coeffs) of m / gcd(m, x^2) from those of m: x^j divides
    m = x^r - sum_i c_i x^(r-i) exactly when c_r, ..., c_(r-j+1) vanish,
    and each factor of x dropped drops one of them."""
    order, coeffs = run
    drop = 0
    while drop < min(2, order) and coeffs[order - 1 - drop] == 0:
        drop += 1
    return order - drop, coeffs[: order - drop]


def _shift_space(f: RecurrentSequence):
    """Reduced echelon basis of V = span{sigma^j f : j >= lo} on x^lo,
    x^(lo+1), ..., the shifts of f by the pivot degrees, the pivots and lo.

    V = k[sigma] h, h = sigma^lo f, is spanned by the w = L + 1 - lo
    shifts j = lo..L (L = len(f.initial)): f's recurrence makes sigma^j f,
    j > L, a combination of sigma^(j-i) f, j - i > L - order >= lo - 1.
    With m the minimal polynomial of h, of degree r <= w, V = k[sigma]/(m)
    and each g in V satisfies m, so evaluation at x^lo..x^(lo+r-1) is
    injective on V, hence bijective.  So the pivots are lo..lo+r-1, and
    f_t, the g in V with g(x^(lo+u)) = delta_tu, is the dual basis of
    1, x, ..., x^(r-1) in k[x]/(m): f_t(x^(lo+k)) = [x^t](x^k mod m).
    m comes from f's one Berlekamp-Massey run (_minimal_polynomial), or,
    for phi_I, from its sequence's run (dorroh_decompose).  Each f_t, in
    V, satisfies f's recurrence past x^L, which extends its values on
    lo..max(L, lo); each shift sigma^d f keeps its window vals[d:] of f's
    value table, through x^(2 max(L, lo) + 1 - d).
    """
    lo = 0 if f.s0 is not None else 1
    hi = max(len(f.initial), lo)
    vals = _values(f, 2 * hi + 1)
    r, coeffs = _minimal_polynomial(f)
    canon, p, steps = f.field.canon, f.field.p, coeffs[::-1]  # x^r = sum_i c_i x^(r-i) mod m, c_r first
    cols, v = [], [int(t == 0) for t in range(r)]  # x^k mod m, k = 0, 1, ...
    for _ in range(hi - lo + 1):
        cols.append(v)
        if p is None:
            v = [canon(a + v[-1] * c) for a, c in zip([0] + v[:-1], steps)]
        else:
            v = [(a + v[-1] * c) % p for a, c in zip([0] + v[:-1], steps)]
    pivots = list(range(lo, lo + r))
    basis = [_sequence(f, list(row), lo) for row in zip(*cols)]
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
    if len(h._vals) < depth:
        h.value(depth)
    if h.s0 is None:
        return h._vals[:depth]
    return [h.s0, *h._vals[:depth]]


def _integer_table(h: RecurrentSequence, top: int):
    """(T, D): ints with h(x^n) = T[n - lo] / D for n = lo..top, over Q.

    The values h already holds, up to x^K, are scaled by D, their least
    common denominator.  Past them the recurrence runs in integers: with
    c_i = b_i / d over the least common denominator d of the coefficients,
    each step appends sum_i b_i T_(n-i) and multiplies D and the entries
    before it by d, so no Fraction is made.  The certificate's window
    leaves at most one step on the sequences coproduct_decompose builds."""
    K = min(len(h._vals), top)
    held = _values(h, K)
    D = lcm(*(v.denominator for v in held))
    T = [v.numerator * (D // v.denominator) for v in held]
    d = lcm(*(c.denominator for c in h.coeffs))
    weights = [c.numerator * (d // c.denominator) for c in reversed(h.coeffs)]  # b_r .. b_1
    r = len(weights)
    for _ in range(top - K):
        step = sum(map(mul, weights, T[len(T) - r :]))
        if d != 1:
            T, D = [t * d for t in T], D * d
        T.append(step)
    return T, D


def _tables(hs, top: int, field: FieldSpec):
    """The value tables of hs over n = lo..top as ints over one common
    denominator D, and D; over F_p the canonical values and D = 1."""
    if field.p is not None:
        return [_values(h, top) for h in hs], 1
    scaled = [_integer_table(h, top) for h in hs]
    D = lcm(*(d for _, d in scaled))
    return [T if d == D else [t * (D // d) for t in T] for T, d in scaled], D


def _first_difference(got, want):
    """The first index at which two equal-length lists differ; None when equal."""
    if got == want:
        return None
    return next(k for k, (x, y) in enumerate(zip(got, want)) if x != y)


def _window(f: RecurrentSequence, dec: CoproductDecomposition) -> int | None:
    """E, the most initial values among f and its factors when they all
    have f's coefficients, past which each of them follows f's recurrence;
    None when some factor has other coefficients."""
    factors = dec.left + dec.right
    if any(h.coeffs != f.coeffs for h in factors):
        return None
    return max(len(h.initial) for h in (f, *factors))


def _certified(f: RecurrentSequence, dec: CoproductDecomposition, lo: int, depth: int) -> Report:
    """The report of coproduct_decompose: with P the largest pivot (lo at
    rank 0), N = P + max(depth - 2 lo, 1) and M = N + P - lo, cut to
    min(N, E) and min(M, E + 1) when the factors follow f's recurrence past
    E (``_window``), one row for each of its identities (1), (2), (4) and
    (5), decided by one equality of lists of value lists, with the least
    failing instance as the witness: the first differing list t, and the
    first differing k in it."""
    pivots, p = dec.pivots, f.field.p
    P = max(pivots, default=lo)
    N = P + max(depth - 2 * lo, 1)
    M = N + P - lo
    E = _window(f, dec)
    if E is not None:
        N, M = min(N, E), min(M, E + 1)
    F, D = _tables(dec.left, max(M, P + 1), f.field)  # f_t(x^n) = F[t][n - lo] / D
    last = max(M + lo, N + P)  # the last degree read of f
    (H,), _ = _tables([f], last, f.field)  # h(x^n) = f(x^(n+lo)) is H[n] over a common denominator
    cols = list(zip(*F)) or [()] * (M - lo + 1)  # cols[n - lo][u] = D f_u(x^n)
    fv, at, r = _values(f, last), [q - lo for q in pivots], range(len(pivots))

    def expand(coords, top):
        """sum_u coords[u] cols[n - lo][u] for n = lo..top (mod p over F_p)."""
        if p is None:
            return [sum(map(mul, coords, c)) for c in cols[: top - lo + 1]]
        return [sum(map(mul, coords, c)) % p for c in cols[: top - lo + 1]]

    def scaled(values):
        """D times values: an expansion's sums carry the f_u's D once more."""
        return values if D == 1 else [D * v for v in values]

    report = Report()
    for name, got, want, witness in [
        ("f_t(x^(p_u))=delta_tu", [[Ft[k] for k in at] for Ft in F],
         [[D if u == t else 0 for u in r] for t in r], lambda t, k: (t, pivots[k])),
        ("f_t(x^(n+1))=sum_u f_t(x^(p_u+1))f_u(x^n)", [expand([Ft[k + 1] for k in at], M - 1) for Ft in F],
         [scaled(Ft[1 : M - lo + 1]) for Ft in F], lambda t, k: (t, lo + k)),
        ("h(x^n)=sum_u h(x^(p_u))f_u(x^n) for h=sigma^lo f", [expand([H[q] for q in pivots], M)],
         [scaled(H[lo : M + 1])], lambda _, k: (lo + k,)),
        ("g_t(x^n)=f(x^(n+p_t))", [_values(gt, N) for _, gt in zip(pivots, dec.right)],
         [fv[q : q + N - lo + 1] for q, _ in zip(pivots, dec.right)], lambda t, k: (t, lo + k)),
    ]:
        t = _first_difference(got, want)
        report.add_witness(name, None if t is None else witness(t, _first_difference(got[t], want[t])))
    return report


def coproduct_decompose(f: RecurrentSequence, depth: int | None = None) -> CoproductDecomposition:
    """m*(f) = sum_t f_t (x) g_t with the f_t the echelon basis of the shift
    space V and g_t = sigma^(p_t) f the shifts of f by the pivot degrees
    p_t; verified on all monomial pairs x^i (x) x^j with i, j >= lo and
    i+j <= depth, along with coassociativity.

    Coassociativity expands each leg once more.  A factor k in {f_t, g_t}
    lies in V, whose echelon coordinates are the values at the pivots, so
    k factors as k(x^(a+b)) = sum_u f_u(x^a) k(x^(p_u+b)): the lefts are
    the f_u and the rights are windows of k's own value table.  If every
    factor satisfies this for a, b >= lo, a+b <= depth - lo, and the first
    identity holds, then both triple sums on x^a (x) x^b (x) x^c,
    a+b+c <= depth, equal f(x^(a+b+c)), since sum_t f_t(x^(a+b)) g_t(x^c)
    = f(x^(a+b+c)) = sum_t f_t(x^a) g_t(x^(b+c)).

    Both are decided without visiting any pair.  With s = depth - 2 lo,
    P the largest pivot (lo at rank 0), N = P + max(s, 1), M = N + P - lo
    and h = sigma^lo f, h(x^n) = f(x^(n+lo)), it checks
      (1) f_t(x^(p_u)) = delta_tu;
      (2) f_t(x^(n+1)) = sum_u f_t(x^(p_u+1)) f_u(x^n) on n = lo..M-1;
      (4) h(x^n) = sum_u h(x^(p_u)) f_u(x^n) on n = lo..M;
      (5) g_t(x^n) = f(x^(n+p_t)) on n = lo..N
    (over Q on integer tables, one common denominator each for the f_t
    and for h).  Let Q_k(b) say
    k(x^(n+b)) = sum_u k(x^(p_u+b)) f_u(x^n) on n = lo..M-b.  (4) is
    Q_h(0), and (1) gives Q_k(0) for k = f_t.  For b < M - P, Q_k(b)
    gives Q_k(b+1): for n <= M-b-1,
      k(x^(n+b+1)) = sum_u k(x^(p_u+b)) f_u(x^(n+1))             [Q_k(b) at n+1]
                   = sum_v (sum_u k(x^(p_u+b)) f_u(x^(p_v+1))) f_v(x^n)   [(2)]
                   = sum_v k(x^(p_v+b+1)) f_v(x^n)            [Q_k(b) at p_v+1],
    the last step reading Q_k(b) at p_v + 1 <= P + 1 <= M - b.  So Q_k(b)
    holds for b = 0..M-P, M - P = N - lo >= s.  The first identity at
    (i, j) is Q_h(j - lo) at n = i (j - lo <= s, i + j - lo <= depth - lo
    <= M), read through (5) at j <= depth - lo <= N.  The factorization
    of f_t at (a, b) is Q_(f_t)(b) at n = a, and that of g_t is
    Q_h(b + p_t - lo) at n = a (b + p_t - lo <= s + P - lo <= M - P and
    a + b + p_t - lo <= s + P <= M), read through (5) at a + b and at
    p_u + b <= P + s <= N.  So a pass of
    (1), (2), (4) and (5) is a pass of both.  A failure reports the rows
    that fail, each with its least failing instance: (t, p_u) for (1),
    (t, n) for (2) and (5), (n,) for (4).

    The rows are read on a window that stops where the recurrence takes
    over.  f and every factor follow s_n = sum_i c_i s_(n-i) for n past
    their initial values, with c f's coefficients, and a shift sigma^d
    only lowers the degree from which a sequence follows it.  Each row
    compares, for each t, a combination with constant coefficients of
    these sequences, so the difference e of its two sides follows it for
    n > E, E the most initial values among f and the factors, and
    E + 1 - order >= 1 >= lo.  So e vanishes on lo..n for every n once it
    vanishes on lo..E, and the least failing t, and in it the least failing
    n, are the same on lo..top and on lo..min(top, E).  (2) is read on
    n <= min(M - 1, E), (4) on n <= min(M, E + 1) and (5) on
    n <= min(N, E), so (2) reads f_t up to x^(E+1), and the tables stop
    by x^(E+P+1): O(rank^2 E) operations, whatever the depth.  A pass
    makes every difference vanish on all n >= lo, so (1)-(5) hold for M
    and N as large as one likes, and the decomposition at every depth.  A
    factor with other coefficients (a decomposition this function does
    not build) is read on the full range.
    """
    depth = _depth(f, depth)
    left, right, pivots, lo = _shift_space(f)
    dec = CoproductDecomposition(len(left), left, right, pivots)
    report = _certified(f, dec, lo, depth)
    _log.debug("coproduct_decompose rank=%d depth=%d width=%d", dec.rank, depth, depth - lo + 1)
    report.require("coproduct decomposition is internally inconsistent")
    return dec


def dorroh_decompose(f: RecurrentSequence, depth: int | None = None) -> Report:
    """Split f on k[x] = k |x (x k[x]) into phi_A + phi_I and verify that
    the coalgebra Dorroh extension k e |x (x k[x])^o reproduces m*(f) on
    all monomial pairs x^i (x) x^j with i+j <= depth.

    Its coproduct of f is s_0 e (x) e + e (x) phi_I + phi_I (x) e +
    sum_t f_t (x) g_t, with e evaluation at x^0, where phi_I, f_t and g_t
    vanish.  The pairing reads s_0 = f(x^0) at (0, 0) and phi_I(x^n) =
    f(x^n) at (0, n) and (n, 0), as phi_I has f's initial values and
    recurrence; its interior is phi_I's first identity, which
    coproduct_decompose verifies at this depth or raises on.  So the
    assembly row is a derived pass.

    phi_I's shift space reads f's values from x^2 on, so its minimal
    polynomial is the annihilator of sigma^2 f, m_f / gcd(m_f, x^2), with
    m_f f's own (_minimal_polynomial): phi_I needs no Berlekamp-Massey
    run of its own, and f's is shared with coproduct_decompose(f).
    """
    if f.s0 is None:
        raise PreconditionError("dorroh_decompose needs a functional on unital k[x] (s_0 present)")
    run = _over_x2(_minimal_polynomial(f))
    # phi_I has f's initial values and recurrence: it takes the values f
    # has computed so far, and f's default depth
    phi = _sequence(f, f._vals, 1)
    phi._minpoly = run
    dec = coproduct_decompose(phi, depth)
    _log.debug("dorroh_decompose rank=%d depth=%d", dec.rank, _depth(f, depth))
    report = Report().add("phi_I coproduct verified", True, detail=f"rank {dec.rank}")
    return report.add("blockwise coproduct assembly matches m*(f)", True)


def vanishing_check(f: RecurrentSequence, pcoeffs, depth: int | None = None) -> Report:
    """f kills x^n p(x) for 0 <= n <= depth, where p = x^r - sum c_i x^{r-i}.

    For functionals on x k[x] (no s_0) the range starts at n = 1, staying
    inside the ideal.  The degree r is at most 2 MAX_ORDER.

    It is decided on the window n = lo..min(depth, L), L = len(f.initial).
    With e_n = f(x^n p(x)) = sum_j p_j s_(n+j), every value s_(n+j) read
    by e_n for n > L follows f's recurrence s_m = sum_i a_i s_(m-i), so
    e_n = sum_i a_i e_(n-i), with n - i >= L + 1 - order >= 1 >= lo.  So
    e vanishes on lo..depth exactly when it vanishes on the window, and
    the least failing n is the same.  f is read to degree L + r <=
    3 MAX_ORDER at most, whatever the depth.
    """
    r = len(pcoeffs)
    if r < 1:
        raise InputError("polynomial degree mismatch: need degree >= 1")
    if r > 2 * MAX_ORDER:
        raise InputError(f"polynomial degree {r} is past the cap 2 MAX_ORDER = {2 * MAX_ORDER}")
    depth = _depth(f, depth)
    p = f.field.p
    rcoeffs = [f.field.canon(v) for v in reversed(pcoeffs)]  # c_r .. c_1
    lo = 0 if f.s0 is not None else 1
    top = min(depth, len(f.initial))
    vals = _values(f, top + r)  # f(x^m) at index m - lo
    wit = None
    for k in range(top - lo + 1):
        e = vals[k + r] - sum(map(mul, rcoeffs, vals[k : k + r]))
        if (e % p if p is not None else e) != 0:
            wit = (k + lo,)
            break
    _log.debug("vanishing_check degree=%d depth=%d witness=%s", r, depth, wit)
    return Report().add_witness("f(x^n p(x))=0", wit)
