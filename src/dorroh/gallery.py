"""Named instances and pair constructors.

Catalog names are frozen identifiers (golden tests and the CLI rely on
them).  Parameterized entries are spelled ``name(arg)``, e.g.
``trunc_poly(3)`` or ``geometric(2)``.  The instances are correct by
construction and are built unchecked; the tests validate each one.

The pair constructors here (trivial extensions, direct products,
triangular pairs, regular pairs, basis conjugation) are what the tests'
random pairs are built from: raw random tensors essentially never
satisfy the pair axioms.  A pair kind that exists on both sides is
written once, over the side's ``Convention``.
"""

from __future__ import annotations

import re

from .algebra import (
    ALGEBRA,
    Algebra,
    AlgebraMorphism,
    DorrohPairAlgebra,
    ModuleOverAlgebra,
    _build,
    _zero_action_pair,
    build_dorroh_algebra,
    direct_product_pair,
    regular_bimodule,
    verify_algebra_morphism,
)
from .coalgebra import (
    COALGEBRA,
    Coalgebra,
    ComoduleOverCoalgebra,
    DorrohPairCoalgebra,
    regular_bicomodule,
    zero_coaction_pair,
)
from .duality import dualize_algebra_pair
from .errors import InputError
from .fields import FieldSpec
from .findual import RecurrentSequence
from .linalg import Matrix, invert
from .tensors import SparseTensor3, place, transport

_NAME_RE = re.compile(r"([A-Za-z_0-9]+)(?:\((-?\d+)\))?\Z")
# The largest parameter of trunc_poly, grouplikes and divided_power.  It
# bounds the documents they emit: trunc_poly(n) and divided_power(n) have
# about n^2/2 entries, and trunc_poly(200) is a 532 kB document, so a larger
# n exits 2 instead of writing megabytes.
MAX_PARAM = 200


# ---------------------------------------------------------------------------
# catalog instances


def algebra_k(field: FieldSpec) -> Algebra:
    mul = SparseTensor3((1, 1, 1), {(0, 0, 0): 1}, field)
    return Algebra(1, mul, field, labels=["1"], unit=[1])


def dual_numbers(field: FieldSpec) -> Algebra:
    mul = SparseTensor3((2, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}, field)
    return Algebra(2, mul, field, labels=["1", "eps"], unit=[1, 0])


def matrix_algebra_2(field: FieldSpec) -> Algebra:
    # basis e_ij at index 2i+j; e_ij e_kl = [j==k] e_il
    entries = {}
    for i in range(2):
        for j in range(2):
            for l in range(2):
                entries[(2 * i + j, 2 * j + l, 2 * i + l)] = 1
    mul = SparseTensor3((4, 4, 4), entries, field)
    return Algebra(4, mul, field, labels=["e11", "e12", "e21", "e22"], unit=[1, 0, 0, 1])


def group_algebra_z2(field: FieldSpec) -> Algebra:
    mul = SparseTensor3((2, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1}, field)
    return Algebra(2, mul, field, labels=["1", "g"], unit=[1, 0])


def nilpotent_line(field: FieldSpec) -> Algebra:
    return Algebra(1, SparseTensor3.zero((1, 1, 1), field), field, labels=["x"])


def truncated_polynomials(n: int, field: FieldSpec) -> Algebra:
    """k[x]/(x^{n+1}), basis 1, x, ..., x^n."""
    if n < 0:
        raise InputError("trunc_poly needs n >= 0")
    dim = n + 1
    entries = {(i, j, i + j): 1 for i in range(dim) for j in range(dim) if i + j <= n}
    mul = SparseTensor3((dim, dim, dim), entries, field)
    labels = ["1"] + [f"x^{i}" for i in range(1, dim)]
    return Algebra(dim, mul, field, labels=labels, unit=[1] + [0] * n)


def matrix_coalgebra_2(field: FieldSpec) -> Coalgebra:
    # Delta(e_ij) = sum_k e_ik (x) e_kj, eps(e_ij) = [i==j]
    entries = {}
    for i in range(2):
        for j in range(2):
            for k in range(2):
                entries[(2 * i + j, 2 * i + k, 2 * k + j)] = 1
    delta = SparseTensor3((4, 4, 4), entries, field)
    return Coalgebra(4, delta, field, labels=["e11", "e12", "e21", "e22"], counit=[1, 0, 0, 1])


def grouplikes(n: int, field: FieldSpec) -> Coalgebra:
    if n < 1:
        raise InputError("grouplikes needs n >= 1")
    delta = SparseTensor3((n, n, n), {(i, i, i): 1 for i in range(n)}, field)
    return Coalgebra(n, delta, field, labels=[f"g{i + 1}" for i in range(n)], counit=[1] * n)


def divided_power(n: int, field: FieldSpec) -> Coalgebra:
    """Basis c_0..c_n with Delta(c_m) = sum_i c_i (x) c_{m-i}."""
    if n < 0:
        raise InputError("divided_power needs n >= 0")
    dim = n + 1
    entries = {(m, i, m - i): 1 for m in range(dim) for i in range(m + 1)}
    delta = SparseTensor3((dim, dim, dim), entries, field)
    return Coalgebra(dim, delta, field, labels=[f"c{i}" for i in range(dim)], counit=[1] + [0] * n)


def fibonacci(field: FieldSpec) -> RecurrentSequence:
    return RecurrentSequence(field, 0, [1, 1], [1, 1])


def geometric(q: int, field: FieldSpec) -> RecurrentSequence:
    qv = field.of(q)
    return RecurrentSequence(field, 1, [qv], [qv])


_CATALOG = {
    "k": (algebra_k, {}),
    "dual_numbers": (dual_numbers, {}),
    "M2": (matrix_algebra_2, {}),
    "kZ2": (group_algebra_z2, {}),
    "nilpotent1": (nilpotent_line, {}),
    "trunc_poly": (truncated_polynomials, {"param": True, "capped": True}),
    "Mc2": (matrix_coalgebra_2, {}),
    "grouplikes": (grouplikes, {"param": True, "capped": True}),
    "divided_power": (divided_power, {"param": True, "capped": True}),
    "fibonacci": (fibonacci, {}),
    "geometric": (geometric, {"param": True}),
}


def catalog_names():
    return sorted(_CATALOG)


def instance(name: str, field: FieldSpec):
    """Build a catalog instance; raises on unknown names."""
    m = _NAME_RE.match(name.strip())
    if not m or m.group(1) not in _CATALOG:
        raise InputError(f"unknown gallery name {name!r}")
    base, arg = m.group(1), m.group(2)
    builder, props = _CATALOG[base]
    if props.get("param"):
        if arg is None:
            raise InputError(f"{base} needs a parameter, e.g. {base}(2)")
        try:
            n = int(arg)
        except ValueError:
            raise InputError(f"{base} parameter has {len(arg)} digits, past the conversion limit") from None
        if props.get("capped") and n > MAX_PARAM:
            raise InputError(f"{base} parameter {n} is past the cap MAX_PARAM = {MAX_PARAM}")
        return builder(n, field)
    if arg is not None:
        raise InputError(f"{base} takes no parameter")
    return builder(field)


# ---------------------------------------------------------------------------
# pair kinds, written once over the side's Convention


def _valid_pair(conv, A, I, left, right):
    """The validated pair (A, I) of the side ``conv`` acting by ``left`` and ``right``."""
    pair = conv.pair(A, I, conv.action_type(A, I.dim, left, right))
    pair.require_valid()
    return pair


def _zero_structure(conv, n, field):
    """The ``conv``-side structure of dim n whose (co)multiplication is zero."""
    return conv.structure(n, SparseTensor3.zero((n, n, n), field), field)


def _trivial_pair(conv, A, M):
    """(A, M) with zero (co)multiplication on the bi(co)module M of A."""
    co = conv.co
    if M.side != "bi" or getattr(M, conv.name) != A:
        raise InputError(f"trivial {co}extension needs {'an A' if conv is ALGEBRA else 'a C'}-bi{co}module")
    return _valid_pair(conv, A, _zero_structure(conv, M.dim, A.field), *conv.tensors(M))


def _scalar_pair(conv, one, I):
    """(k, I) with k = ``one``, the 1-dimensional (co)unital structure,
    (co)acting by scalars; valid for any I."""
    n, field = I.dim, one.field
    left = SparseTensor3(conv.lay((1, n, n)), {conv.lay((0, x, x)): 1 for x in range(n)}, field)
    right = SparseTensor3(conv.lay((n, 1, n)), {conv.lay((x, 0, x)): 1 for x in range(n)}, field)
    return _valid_pair(conv, one, I, left, right)


def _triangular(conv, A, B, left, right):
    """The pair (A x B, M) of an A-B-bi(co)module M with zero (co)multiplication,
    A (co)acting by ``left`` and B by ``right``."""
    field, na, nb = A.field, A.dim, B.dim
    nm = left.dims[2]  # a carrier leg on both sides
    if left.dims != conv.lay((na, nm, nm)) or right.dims != conv.lay((nm, nb, nm)):
        co = conv.co
        raise InputError(f"bi{co}module tensors mis-shaped for triangular {co}pair")
    ab = _build(conv, _zero_action_pair(conv, A, B))
    # (a,b) m = a m and m (a,b) = m b.
    return _valid_pair(
        conv,
        ab,
        _zero_structure(conv, nm, field),
        place(conv.lay((na + nb, nm, nm)), field, (left, (0, 0, 0))),
        place(conv.lay((nm, na + nb, nm)), field, (right, conv.lay((0, na, 0)))),
    )


# ---------------------------------------------------------------------------
# algebra pair constructors


def trivial_extension_pair(A: Algebra, M: ModuleOverAlgebra) -> DorrohPairAlgebra:
    """(A, M) with M M = 0; the extension is the trivial extension of A by M."""
    return _trivial_pair(ALGEBRA, A, M)


def regular_pair(A: Algebra) -> DorrohPairAlgebra:
    """(A, A) with the multiplication actions."""
    return _valid_pair(ALGEBRA, A, A, A.mul, A.mul)


def scalar_action_pair(field: FieldSpec, I: Algebra) -> DorrohPairAlgebra:
    """(k, I) with k acting by scalar multiplication; valid for any I."""
    return _scalar_pair(ALGEBRA, algebra_k(field), I)


def triangular_pair(A: Algebra, B: Algebra, left: SparseTensor3, right: SparseTensor3):
    """The pair (A x B, M) of an A-B-bimodule M, plus the isomorphism of its
    extension onto the block matrix algebra [[A, M], [0, B]].

    ``left`` is the A-action (a,m,m'), ``right`` the B-action (m,b,m').
    """
    pair = _triangular(ALGEBRA, A, B, left, right)
    field, na, nm, nb = A.field, A.dim, pair.I.dim, B.dim

    # Block algebra on basis [A-block, M-block, B-block].
    n = na + nm + nb
    nam = na + nm
    mul = place(
        (n, n, n), field,
        (A.mul, (0, 0, 0)),
        (left, (0, na, na)),
        (right, (na, nam, na)),
        (B.mul, (nam, nam, nam)),
    )
    block = Algebra(n, mul, field)

    # Permute the extension basis [A, B, M] into block order [A, M, B].
    order = [*range(na), *range(nam, n), *range(na, nam)]
    iso = AlgebraMorphism(build_dorroh_algebra(pair), block, Matrix._canonical(n, n, [[(i, 1)] for i in order], field))
    verify_algebra_morphism(iso, iso=True).require("triangular block isomorphism failed verification")
    return pair, iso


def one_point_pair(A: Algebra, left: SparseTensor3):
    """Triangular pair [[A, M], [0, k]] for a left A-module M with the
    unital scalar right k-action."""
    field = A.field
    nm = left.dims[1]
    k = algebra_k(field)
    right = SparseTensor3((nm, 1, nm), {(m, 0, m): 1 for m in range(nm)}, field)
    return triangular_pair(A, k, left, right)


def trunc_poly_pair(n: int, field: FieldSpec) -> DorrohPairAlgebra:
    """(k, span{x..x^n}) inside k[x]/(x^{n+1}); the graded splitting."""
    if n < 1:
        raise InputError("trunc_poly_pair needs n >= 1")
    mul = truncated_polynomials(n, field).mul.block((1, 1, 1), (n + 1, n + 1, n + 1))
    return scalar_action_pair(field, Algebra(n, mul, field))


# ---------------------------------------------------------------------------
# coalgebra pair constructors


def trivial_coextension_pair(C: Coalgebra, M: ComoduleOverCoalgebra) -> DorrohPairCoalgebra:
    """(C, M) with Delta_M = 0; the extension is the trivial coextension."""
    return _trivial_pair(COALGEBRA, C, M)


def regular_copair(C: Coalgebra) -> DorrohPairCoalgebra:
    """(C, C) with the regular coactions rho_l = rho_r = Delta."""
    return _valid_pair(COALGEBRA, C, C, C.delta, C.delta)


def counital_hull(P: Coalgebra) -> DorrohPairCoalgebra:
    """(k, P) with the trivial coactions p -> 1 (x) p and p -> p (x) 1;
    the extension is counital with counit (1, 0, ..., 0)."""
    return _scalar_pair(COALGEBRA, grouplikes(1, P.field), P)


def grouplike_pair(field: FieldSpec) -> DorrohPairCoalgebra:
    """C = k{g}, P = k{p} with Delta(p) = p (x) p, rho_l(p) = g (x) p,
    rho_r(p) = p (x) g."""
    g = SparseTensor3((1, 1, 1), {(0, 0, 0): 1}, field)
    return _valid_pair(COALGEBRA, grouplikes(1, field), grouplikes(1, field), g, g)


def triangular_copair(C: Coalgebra, D: Coalgebra, rho_l: SparseTensor3, rho_r: SparseTensor3):
    """The pair (C x D, M) of a C-D-bicomodule M with Delta_M = 0.

    ``rho_l`` is the C-coaction (m,c,m'), ``rho_r`` the D-coaction (m,m',d).
    """
    return _triangular(COALGEBRA, C, D, rho_l, rho_r)


# ---------------------------------------------------------------------------
# standard pair lists (the acceptance substrate)


def _triangular_kkk(field):
    """The pair of [[k, k], [0, k]], the upper triangular 2x2 matrices."""
    one = SparseTensor3((1, 1, 1), {(0, 0, 0): 1}, field)
    return triangular_pair(algebra_k(field), algebra_k(field), one, one)[0]


def standard_algebra_pairs(field: FieldSpec):
    """At least a dozen named, validated pairs with extensions of dim <= 8."""
    m2 = matrix_algebra_2(field)
    dn = dual_numbers(field)
    kz2 = group_algebra_z2(field)
    tp2 = truncated_polynomials(2, field)
    pairs = [
        ("k_nilpotent_scalar", scalar_action_pair(field, nilpotent_line(field))),
        ("k_regular", regular_pair(algebra_k(field))),
        ("kZ2_regular", regular_pair(kz2)),
        ("M2_regular", regular_pair(m2)),
        ("dual_numbers_regular", regular_pair(dn)),
        ("trunc_poly2_regular", regular_pair(tp2)),
        ("trivial_ext_M2_regular", trivial_extension_pair(m2, regular_bimodule(m2))),
        ("trivial_ext_dn_regular", trivial_extension_pair(dn, regular_bimodule(dn))),
        ("direct_product_M2_kZ2", direct_product_pair(m2, kz2)),
        ("direct_product_dn_tp2", direct_product_pair(dn, tp2)),
        ("triangular_kkk", _triangular_kkk(field)),
        ("one_point_M2_k2", one_point_pair(
            m2,
            SparseTensor3(
                (4, 2, 2),
                {(2 * i + j, j, i): 1 for i in range(2) for j in range(2)},
                field,
            ),
        )[0]),
        ("trunc_poly3_graded", trunc_poly_pair(3, field)),
        ("scalar_kZ2", scalar_action_pair(field, kz2)),
    ]
    return pairs


def standard_coalgebra_pairs(field: FieldSpec):
    """Named, validated coalgebra pairs with extensions of dim <= 8."""
    mc2 = matrix_coalgebra_2(field)
    gl2 = grouplikes(2, field)
    dp2 = divided_power(2, field)
    one = SparseTensor3((1, 1, 1), {(0, 0, 0): 1}, field)
    pairs = [
        ("grouplike", grouplike_pair(field)),
        ("counital_hull_dp2", counital_hull(dp2)),
        ("counital_hull_zero_line", counital_hull(_zero_structure(COALGEBRA, 1, field))),
        ("direct_product_Mc2_gl2", zero_coaction_pair(mc2, gl2)),
        ("direct_product_gl1_dp1", zero_coaction_pair(grouplikes(1, field), divided_power(1, field))),
        ("trivial_coext_Mc2_regular", trivial_coextension_pair(mc2, regular_bicomodule(mc2))),
        ("trivial_coext_gl2_regular", trivial_coextension_pair(gl2, regular_bicomodule(gl2))),
        ("triangular_gl1_gl1_line", triangular_copair(grouplikes(1, field), grouplikes(1, field), one, one)),
        ("regular_Mc2", regular_copair(mc2)),
        ("regular_gl2", regular_copair(gl2)),
        ("regular_dp2", regular_copair(dp2)),
        ("dual_of_trunc_poly3_graded", dualize_algebra_pair(trunc_poly_pair(3, field))[0]),
        ("dual_of_triangular_kkk", dualize_algebra_pair(_triangular_kkk(field))[0]),
    ]
    return pairs


# ---------------------------------------------------------------------------
# basis changes


def random_invertible(rng, n: int, field: FieldSpec) -> Matrix:
    while True:
        if field.p is not None:
            data = [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)]
        else:
            data = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        m = Matrix(n, n, data, field)
        if invert(m) is not None:
            return m


def conjugate_algebra(a: Algebra, S: Matrix) -> Algebra:
    """Structure constants in the new basis e'_j = sum_i S[i][j] e_i."""
    return _conjugate(ALGEBRA, a, S)[0]


def conjugate_coalgebra(c: Coalgebra, S: Matrix) -> Coalgebra:
    """Structure constants in the new basis e'_j = sum_i S[i][j] e_i."""
    return _conjugate(COALGEBRA, c, S)[0]


def _conjugate(conv, s, S):
    """The ``conv``-side structure s in the new basis e'_j = sum_i S[i][j] e_i,
    and the pair (S^T, S^-1) that carries its input and output legs there."""
    if S.field != s.field or (S.rows, S.cols) != (s.dim, s.dim):
        raise InputError(f"basis change must be a {s.dim}x{s.dim} matrix over {s.field!r}")
    Sinv = invert(S)
    if Sinv is None:
        raise InputError("basis change must be invertible")
    carry = S.transpose(), Sinv
    return conv.structure(s.dim, transport(getattr(s, conv.tensor), conv.legs(*carry)), s.field), carry


def conjugate_algebra_pair(pair: DorrohPairAlgebra, SA: Matrix, SI: Matrix) -> DorrohPairAlgebra:
    return _conjugate_pair(ALGEBRA, pair, SA, SI)


def conjugate_coalgebra_pair(pair: DorrohPairCoalgebra, SC: Matrix, SP: Matrix) -> DorrohPairCoalgebra:
    return _conjugate_pair(COALGEBRA, pair, SC, SP)


def _conjugate_pair(conv, pair, SA, SI):
    acting, carrier, left, right = conv.parts_of(pair)
    A2, a = _conjugate(conv, acting, SA)
    I2, i = _conjugate(conv, carrier, SI)
    # each leg of an action takes its owner's input or output matrix, as
    # the leg is an input or an output of the side's structure tensor
    kinds = conv.legs(0, 1)
    left, right = (
        transport(t, tuple(m[k] for m, k in zip(conv.lay(owners), kinds)))
        for t, owners in ((left, (a, i, i)), (right, (i, a, i)))
    )
    return conv.pair(A2, I2, conv.action_type(A2, carrier.dim, left, right))
