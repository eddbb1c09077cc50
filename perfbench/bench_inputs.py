"""Seeded input generators for the three benchmark workloads.

Every scalable family is built from the library's public constructors
(``SparseTensor3``, ``Algebra``, ``Coalgebra``, ``BimoduleAction``, the
``gallery`` pair constructors, ``duality.dual_coalgebra_of_algebra`` and
``RecurrentSequence``) and handed to the
program only as emitted ``dorroh/1`` documents.  The seed chooses basis
permutations, dense basis changes, perturbation positions and sequence
coefficients; the families and sizes of each ladder are fixed, so a run's
cost depends on the seed only through those choices.

A ladder is one cycle of the closed loop: a list of ``Case`` objects run
in order.  Each ladder is laid out in blocks of equal-cost cases so that
the 50th and 90th latency percentiles fall inside one block rather than
on the edge between two families, and no task takes much over 80 ms, so
that contention on a shared machine averages out (see README.md).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

PRIME = 10007


@dataclass
class Case:
    """One task input: a document plus what its checks expect.

    ``expect`` is the CLI exit code for wide-check cases, whose document
    is also written to ``path``; ``order`` is the generating recurrence
    order for sequence cases.
    """

    label: str
    text: str
    expect: int | None = None
    order: int | None = None
    path: str | None = None


def fields(lib):
    return {"Q": lib.fields.QQ, "Fp": lib.fields.GF(PRIME)}


# ---------------------------------------------------------------------------
# scalable families


def matrix_algebra(lib, n, F):
    """M(n): basis e_ij at index n*i+j, e_ij e_jl = e_il."""
    entries = {(n * i + j, n * j + l, n * i + l): 1 for i in range(n) for j in range(n) for l in range(n)}
    d = n * n
    unit = [1 if i % (n + 1) == 0 else 0 for i in range(d)]
    return lib.algebra.Algebra(d, lib.tensors.SparseTensor3((d, d, d), entries, F), F, unit=unit)


def triangular_algebra(lib, n, F):
    """T(n): upper-triangular n x n matrices, basis e_ij (i <= j) in lex order."""
    index = {}
    for i in range(n):
        for j in range(i, n):
            index[(i, j)] = len(index)
    entries = {}
    for (i, j), a in index.items():
        for l in range(j, n):
            entries[(a, index[(j, l)], index[(i, l)])] = 1
    d = len(index)
    unit = [1 if i == j else 0 for (i, j) in index]
    return lib.algebra.Algebra(d, lib.tensors.SparseTensor3((d, d, d), entries, F), F, unit=unit)


def matrix_coalgebra(lib, n, F):
    """Mc(n): Delta(e_ij) = sum_k e_ik (x) e_kj, counit the trace."""
    entries = {(n * i + j, n * i + k, n * k + j): 1 for i in range(n) for j in range(n) for k in range(n)}
    d = n * n
    counit = [1 if i % (n + 1) == 0 else 0 for i in range(d)]
    return lib.coalgebra.Coalgebra(d, lib.tensors.SparseTensor3((d, d, d), entries, F), F, counit=counit)


def zero_algebra(lib, n, F):
    return lib.algebra.Algebra(n, lib.tensors.SparseTensor3((n, n, n), {}, F), F)


def free_extension_pair(lib, m, I):
    """(trunc_poly(m), M) with M = A^r the free bimodule on the carrier of
    the zero algebra I (dim r(m+1)), so that M M = 0."""
    F = I.field
    A = lib.gallery.truncated_polynomials(m, F)
    na = m + 1
    ni = I.dim
    left = {}
    right = {}
    for a in range(na):
        for s in range(0, ni, na):
            for b in range(na - a):
                left[(a, s + b, s + a + b)] = 1
                right[(s + b, a, s + a + b)] = 1
    T = lib.tensors.SparseTensor3
    action = lib.algebra.BimoduleAction(A, ni, T((na, ni, ni), left, F), T((ni, na, ni), right, F))
    return lib.algebra.DorrohPairAlgebra(A, I, action)


def dual_copair(lib, pair):
    """The Kronecker-dual coalgebra pair of an algebra pair.

    C and P come from ``duality.dual_coalgebra_of_algebra``; the coaction
    is reindexed here as ``duality.dualize_algebra_pair`` does, because
    that function also validates the pair and verifies its witness, which
    would add a dense scan to every set-up."""
    F = pair.field
    ni = pair.I.dim
    T = lib.tensors.SparseTensor3
    C = lib.duality.dual_coalgebra_of_algebra(pair.A)
    P = lib.duality.dual_coalgebra_of_algebra(pair.I)
    rho_l = T((ni, pair.A.dim, ni), {(x, a, y): v for (a, y, x), v in pair.action.left.entries.items()}, F)
    rho_r = T((ni, ni, pair.A.dim), {(x, y, a): v for (y, a, x), v in pair.action.right.entries.items()}, F)
    return lib.coalgebra.DorrohPairCoalgebra(C, P, lib.coalgebra.BicomoduleCoaction(C, ni, rho_l, rho_r))


def permutation(lib, rng, n, F):
    perm = list(range(n))
    rng.shuffle(perm)
    return lib.linalg.Matrix(n, n, [[1 if perm[j] == i else 0 for j in range(n)] for i in range(n)], F)


def unitriangular(lib, rng, n, F):
    """Dense-above-the-diagonal basis change with determinant 1, so its
    inverse stays integral and Q entries stay small."""
    data = [[(1 if i == j else rng.choice((-1, 1)) if j > i else 0) for j in range(n)] for i in range(n)]
    return lib.linalg.Matrix(n, n, data, F)


def dense_change(lib, rng, n, F):
    if F.p is None:
        return unitriangular(lib, rng, n, F)
    return lib.gallery.random_invertible(rng, n, F)


def conjugated(lib, rng, pair, change):
    """The pair in new bases of both components, each drawn by ``change``
    (``permutation`` or ``dense_change``)."""
    F = pair.field
    if isinstance(pair, lib.algebra.DorrohPairAlgebra):
        return lib.gallery.conjugate_algebra_pair(pair, change(lib, rng, pair.A.dim, F), change(lib, rng, pair.I.dim, F))
    return lib.gallery.conjugate_coalgebra_pair(pair, change(lib, rng, pair.C.dim, F), change(lib, rng, pair.P.dim, F))


def recurrent_sequence(lib, rng, r, F):
    """A functional on k[x] of order r (s_0 free).

    Over Q the characteristic polynomial has the roots +-1, +-2, +-1, ...
    with random signs, so the values grow like 2^n whatever the seed and
    elimination works on growing rationals; over F_p every coefficient
    and value is a uniform residue."""
    if F.p is None:
        poly = [1]  # coefficients of prod (x - root), highest degree first
        for i in range(r):
            root = rng.choice((-1, 1)) * (1 + i % 2)
            poly = [a - root * b for a, b in zip(poly + [0], [0] + poly)]
        coeffs = [-c for c in poly[1:]]
        initial = [rng.randint(-3, 3) for _ in range(r)]
        s0 = rng.randint(-3, 3)
    else:
        coeffs = [rng.randrange(F.p) for _ in range(r - 1)] + [rng.randrange(1, F.p)]
        initial = [rng.randrange(F.p) for _ in range(r)]
        s0 = rng.randrange(F.p)
    return lib.findual.RecurrentSequence(F, s0, initial, coeffs)


# ---------------------------------------------------------------------------
# one-entry perturbations, applied to the emitted document so that no
# unperturbed object is emitted twice


def _window(rng, size, where):
    """An index in the first or last twentieth of range(size)."""
    w = max(1, size // 20)
    return rng.randrange(w) if where == "early" else size - 1 - rng.randrange(w)


def _set_entry(entries, key, scalar):
    """Replace or add one [i, j, k, scalar] entry, keeping lexicographic order."""
    kept = [e for e in entries if tuple(e[:3]) != key]
    kept.append([*key, scalar])
    kept.sort(key=lambda e: e[:3])
    return kept


def perturb(text, where, rng):
    """One entry of a wide document changed so that a check must fail.

    * algebra with zero multiplication: e_i e_j := e_i (i != j), which
      breaks associativity first at (i, j, j);
    * algebra pair: the unit of A acts twice on f_x from the left (early)
      or from the right (late), which breaks (ab)x=a(bx) at (0, 0, x) or
      x(ab)=(xa)b at (x, 0, 0);
    * coalgebra pair: rho_l(p_x) doubled on its diagonal entry, which breaks
      left comodule coassociativity at (x,).
    """
    doc = json.loads(text)
    kind = doc["kind"]
    p = doc["payload"]
    if kind == "algebra":
        n = p["dim"]
        i = _window(rng, n, where)
        j = (i + 1 + rng.randrange(n - 1)) % n
        p["mul"] = _set_entry(p["mul"], (i, j, i), "1")
    elif kind == "pair-algebra":
        x = _window(rng, p["i"]["dim"], where)
        if where == "early":
            p["left"] = _set_entry(p["left"], (0, x, x), "2")
        else:
            p["right"] = _set_entry(p["right"], (x, 0, x), "2")
    elif kind == "pair-coalgebra":
        x = _window(rng, p["p"]["dim"], where)
        p["rho_l"] = _set_entry(p["rho_l"], (x, 0, x), "2")
    else:
        raise ValueError(f"no perturbation for kind {kind!r}")
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# ladders


def pair_pipeline_ladder(lib, rng):
    F = fields(lib)
    g = lib.gallery
    ladder = []

    def add(label, make, count=1):
        ladder.extend(Case(label, lib.exchange.emit(make())) for _ in range(count))

    def regular(algebra):
        return conjugated(lib, rng, g.regular_pair(algebra), permutation)

    def coregular(coalgebra):
        return conjugated(lib, rng, g.regular_copair(coalgebra), permutation)

    # 8 light cases (< 30 ms): both fields, both sides, every family kind.
    for f in F:
        add(f"M2-regular/{f}", lambda: regular(matrix_algebra(lib, 2, F[f])))
        add(f"product-M2xT2/{f}", lambda: g.direct_product_pair(matrix_algebra(lib, 2, F[f]), triangular_algebra(lib, 2, F[f])))
        add(f"Mc2-regular/{f}", lambda: coregular(matrix_coalgebra(lib, 2, F[f])))
    add("trunc_poly6/Q", lambda: g.trunc_poly_pair(6, F["Q"]))
    add("dual_numbers-regular-dense/Q", lambda: conjugated(lib, rng, g.regular_pair(g.dual_numbers(F["Q"])), dense_change))
    # 10 of about the same cost (~35 ms) around the median.
    add("T3-regular/Fp", lambda: regular(triangular_algebra(lib, 3, F["Fp"])), 4)
    add("Mc3-regular/Q", lambda: coregular(matrix_coalgebra(lib, 3, F["Q"])), 3)
    add("T3-regular/Q", lambda: regular(triangular_algebra(lib, 3, F["Q"])), 3)
    # 6 around the 90th percentile (~50 ms).
    add("M2-regular-dense/Fp", lambda: conjugated(lib, rng, g.regular_pair(matrix_algebra(lib, 2, F["Fp"])), dense_change), 6)
    return ladder


def wide_check_ladder(lib, rng):
    F = fields(lib)
    g = lib.gallery
    emit = lib.exchange.emit
    cases = []
    zeros = {}

    def zero(n, f):
        # one object per size, so its (absent) unit is solved for only once
        if (n, f) not in zeros:
            zeros[(n, f)] = zero_algebra(lib, n, F[f])
        return zeros[(n, f)]

    def add(label, obj, valid=True, perturbations=()):
        text = emit(obj)
        if valid:
            cases.append(Case(label, text, expect=0))
        for where in perturbations:
            cases.append(Case(f"{label}!{where}", perturb(text, where, rng), expect=1))

    ext = {f: free_extension_pair(lib, 7, zero(40, f)) for f in F}
    # By cost: 8 fast cases (the coalgebra guard, early exits), 4 free
    # extensions with na = 8, ni = 40 around the median, 4 full scans of
    # dim 48 and 60 kB documents, 4 free extensions with na = 12, ni = 48
    # around the 90th percentile.
    add("free-ext-m7r5-dual/Q", dual_copair(lib, ext["Q"]))
    add("free-ext-m7r5-dual/Fp", dual_copair(lib, ext["Fp"]), False, ("late",))
    for f in F:
        add(f"grouplike-regular64/{f}", g.regular_copair(g.grouplikes(64, F[f])))
        add(f"zero-ideal48/{f}", g.scalar_action_pair(F[f], zero(48, f)))
        add(f"zero-alg48/{f}", zero(48, f), True, ("early",))
        add(f"hull-dp64/{f}", g.counital_hull(g.divided_power(64, F[f])))
    add("free-ext-m7r5/Q", ext["Q"], True, ("early",))
    add("free-ext-m7r5/Fp", ext["Fp"], True, ("late",))
    add("free-ext-m11r4/Q", free_extension_pair(lib, 11, zero(48, "Q")), True, ("late",))
    add("free-ext-m11r4/Fp", free_extension_pair(lib, 11, zero(48, "Fp")), True, ("early",))
    return cases


def recurrences_ladder(lib, rng):
    F = fields(lib)
    emit = lib.exchange.emit

    def seqs(r, f, count):
        return [Case(f"order{r}/{f}", emit(recurrent_sequence(lib, rng, r, F[f])), order=r) for _ in range(count)]

    # By cost: 4 fast (order 4), 4 around the median (order 5 over F_p),
    # 1 between (order 5 over Q's growing rationals) and 3 around the 90th
    # percentile (order 6 over F_p).
    return seqs(4, "Fp", 2) + seqs(4, "Q", 2) + seqs(5, "Fp", 4) + seqs(5, "Q", 1) + seqs(6, "Fp", 3)


LADDERS = {
    "pair-pipeline": pair_pipeline_ladder,
    "wide-check": wide_check_ladder,
    "recurrences": recurrences_ladder,
}
