"""Named validated instances and pair constructors.

Catalog names are frozen identifiers (golden tests and the CLI rely on
them).  Parameterized entries are spelled ``name(arg)``, e.g.
``trunc_poly(3)`` or ``geometric(2)``.

The pair constructors here (trivial extensions, direct products,
triangular pairs, regular pairs, basis conjugation) are what the tests'
random pairs are built from: raw random tensors essentially never
satisfy the pair axioms.
"""

from __future__ import annotations

import re

from .algebra import (
    ALGEBRA,
    Algebra,
    AlgebraMorphism,
    BimoduleAction,
    DorrohPairAlgebra,
    ModuleOverAlgebra,
    build_dorroh_algebra,
    check_associativity,
    direct_product_pair,
    regular_bimodule,
    verify_algebra_morphism,
)
from .coalgebra import (
    COALGEBRA,
    BicomoduleCoaction,
    Coalgebra,
    ComoduleOverCoalgebra,
    DorrohPairCoalgebra,
    build_dorroh_coalgebra,
    check_coassociativity,
    regular_bicomodule,
    zero_coaction_pair,
)
from .duality import dualize_algebra_pair
from .errors import InputError, ValidationFailure
from .fields import FieldSpec
from .findual import RecurrentSequence
from .linalg import Matrix, invert
from .reports import Report
from .tensors import SparseTensor3, place, transport

_NAME_RE = re.compile(r"([A-Za-z_0-9]+)(?:\((-?\d+)\))?\Z")
# The largest parameter of trunc_poly, grouplikes and divided_power.  Their
# validation grows about n^3: at 200 the first two emit in 2.2 s on a
# 2-vCPU machine, at 300 in 7.5 s, so a larger n exits 2 instead of hanging.
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
    "k": (algebra_k, {"dim": 1, "unital": True}),
    "dual_numbers": (dual_numbers, {"dim": 2, "unital": True}),
    "M2": (matrix_algebra_2, {"dim": 4, "unital": True}),
    "kZ2": (group_algebra_z2, {"dim": 2, "unital": True}),
    "nilpotent1": (nilpotent_line, {"dim": 1, "unital": False}),
    "trunc_poly": (truncated_polynomials, {"unital": True, "param": True, "capped": True}),
    "Mc2": (matrix_coalgebra_2, {"dim": 4, "counital": True}),
    "grouplikes": (grouplikes, {"counital": True, "param": True, "capped": True}),
    "divided_power": (divided_power, {"counital": True, "param": True, "capped": True}),
    "fibonacci": (fibonacci, {}),
    "geometric": (geometric, {"param": True}),
}


_SELF_CHECKS = {
    Algebra: (check_associativity, "unital", Algebra.find_identity),
    Coalgebra: (check_coassociativity, "counital", Coalgebra.find_counit),
}


def catalog_names():
    return sorted(_CATALOG)


def instance(name: str, field: FieldSpec):
    """Build and validate a catalog instance; raises on unknown names."""
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
        obj = builder(n, field)
    else:
        if arg is not None:
            raise InputError(f"{base} takes no parameter")
        obj = builder(field)

    if type(obj) in _SELF_CHECKS:
        check, unital, find_unit = _SELF_CHECKS[type(obj)]  # unital: "unital" or "counital"
        report = check(obj)
        if not report.ok:
            raise ValidationFailure(report, f"gallery instance {name} failed validation")
        if unital in props and (find_unit(obj) is not None) != props[unital]:
            raise ValidationFailure(
                Report().add(f"expected {unital}ity", False), f"gallery instance {name} has wrong {unital}ity"
            )
    if "dim" in props and obj.dim != props["dim"]:
        raise ValidationFailure(
            Report().add("expected dimension", False), f"gallery instance {name} has wrong dimension"
        )
    return obj


# ---------------------------------------------------------------------------
# algebra pair constructors


def _valid_pair(conv, A, I, left, right):
    """The validated pair (A, I) of the side ``conv`` acting by ``left`` and ``right``."""
    pair = conv.pair(A, I, conv.action_type(A, I.dim, left, right))
    pair.require_valid()
    return pair


def trivial_extension_pair(A: Algebra, M: ModuleOverAlgebra) -> DorrohPairAlgebra:
    """(A, M) with M M = 0; the extension is the trivial extension of A by M."""
    if M.side != "bi" or M.algebra != A:
        raise InputError("trivial extension needs an A-bimodule")
    field = A.field
    I = Algebra(M.dim, SparseTensor3.zero((M.dim, M.dim, M.dim), field), field)
    return _valid_pair(ALGEBRA, A, I, M.left, M.right)


def regular_pair(A: Algebra) -> DorrohPairAlgebra:
    """(A, A) with the multiplication actions."""
    return _valid_pair(ALGEBRA, A, A, A.mul, A.mul)


def scalar_action_pair(field: FieldSpec, I: Algebra) -> DorrohPairAlgebra:
    """(k, I) with k acting by scalar multiplication; valid for any I."""
    left = SparseTensor3((1, I.dim, I.dim), {(0, x, x): 1 for x in range(I.dim)}, field)
    right = SparseTensor3((I.dim, 1, I.dim), {(x, 0, x): 1 for x in range(I.dim)}, field)
    return _valid_pair(ALGEBRA, algebra_k(field), I, left, right)


def triangular_pair(A: Algebra, B: Algebra, left: SparseTensor3, right: SparseTensor3):
    """The pair (A x B, M) of an A-B-bimodule M, plus the isomorphism of its
    extension onto the block matrix algebra [[A, M], [0, B]].

    ``left`` is the A-action (a,m,m'), ``right`` the B-action (m,b,m').
    """
    field = A.field
    nm = left.dims[1]
    if left.dims != (A.dim, nm, nm) or right.dims != (nm, B.dim, nm):
        raise InputError("bimodule tensors mis-shaped for triangular pair")
    ab = build_dorroh_algebra(direct_product_pair(A, B))
    na, nb = A.dim, B.dim
    # (a,b) m = a m and m (a,b) = m b.
    action = BimoduleAction(
        ab,
        nm,
        place((na + nb, nm, nm), field, (left, (0, 0, 0))),
        place((nm, na + nb, nm), field, (right, (0, na, 0))),
    )
    I = Algebra(nm, SparseTensor3.zero((nm, nm, nm), field), field)
    pair = DorrohPairAlgebra(ab, I, action)
    pair.require_valid()

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
    report = verify_algebra_morphism(iso, iso=True)
    if not report.ok:
        raise ValidationFailure(report, "triangular block isomorphism failed verification")
    return pair, iso


def one_point_pair(A: Algebra, left: SparseTensor3):
    """Triangular pair [[A, M], [0, k]] for a left A-module M with the
    unital scalar right k-action."""
    field = A.field
    nm = left.dims[1]
    k = algebra_k(field)
    right = SparseTensor3((nm, 1, nm), {(m, 0, m): 1 for m in range(nm)}, field)
    return triangular_pair(A, k, left, right)


def make_algebra_pair(kind: str, *components):
    if kind == "trivial_extension":
        return trivial_extension_pair(*components)
    if kind == "direct_product":
        return direct_product_pair(*components)
    if kind == "triangular":
        return triangular_pair(*components)
    if kind == "one_point":
        return one_point_pair(*components)
    if kind == "regular":
        return regular_pair(*components)
    raise InputError(f"unknown algebra pair kind {kind!r}")


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
    if M.side != "bi" or M.coalgebra != C:
        raise InputError("trivial coextension needs a C-bicomodule")
    field = C.field
    P = Coalgebra(M.dim, SparseTensor3.zero((M.dim, M.dim, M.dim), field), field)
    return _valid_pair(COALGEBRA, C, P, M.rho_l, M.rho_r)


def regular_copair(C: Coalgebra) -> DorrohPairCoalgebra:
    """(C, C) with the regular coactions rho_l = rho_r = Delta."""
    return _valid_pair(COALGEBRA, C, C, C.delta, C.delta)


def counital_hull(P: Coalgebra) -> DorrohPairCoalgebra:
    """(k, P) with the trivial coactions p -> 1 (x) p and p -> p (x) 1;
    the extension is counital with counit (1, 0, ..., 0)."""
    field = P.field
    rho_l = SparseTensor3((P.dim, 1, P.dim), {(x, 0, x): 1 for x in range(P.dim)}, field)
    rho_r = SparseTensor3((P.dim, P.dim, 1), {(x, x, 0): 1 for x in range(P.dim)}, field)
    return _valid_pair(COALGEBRA, grouplikes(1, field), P, rho_l, rho_r)


def grouplike_pair(field: FieldSpec) -> DorrohPairCoalgebra:
    """C = k{g}, P = k{p} with Delta(p) = p (x) p, rho_l(p) = g (x) p,
    rho_r(p) = p (x) g."""
    g = SparseTensor3((1, 1, 1), {(0, 0, 0): 1}, field)
    return _valid_pair(COALGEBRA, grouplikes(1, field), grouplikes(1, field), g, g)


def triangular_copair(C: Coalgebra, D: Coalgebra, rho_l: SparseTensor3, rho_r: SparseTensor3):
    """The pair (C x D, M) of a C-D-bicomodule M with Delta_M = 0.

    ``rho_l`` is the C-coaction (m,c,m'), ``rho_r`` the D-coaction (m,m',d).
    """
    field = C.field
    nm = rho_l.dims[0]
    if rho_l.dims != (nm, C.dim, nm) or rho_r.dims != (nm, nm, D.dim):
        raise InputError("bicomodule tensors mis-shaped for triangular copair")
    cxd = build_dorroh_coalgebra(zero_coaction_pair(C, D))
    coaction = BicomoduleCoaction(
        cxd,
        nm,
        place((nm, cxd.dim, nm), field, (rho_l, (0, 0, 0))),
        place((nm, nm, cxd.dim), field, (rho_r, (0, 0, C.dim))),
    )
    M = Coalgebra(nm, SparseTensor3.zero((nm, nm, nm), field), field)
    pair = DorrohPairCoalgebra(cxd, M, coaction)
    pair.require_valid()
    return pair


def make_coalgebra_pair(kind: str, *components):
    if kind == "trivial_coextension":
        return trivial_coextension_pair(*components)
    if kind == "direct_product":
        return zero_coaction_pair(*components)
    if kind == "triangular":
        return triangular_copair(*components)
    if kind == "counital_hull":
        return counital_hull(*components)
    if kind == "grouplike":
        return grouplike_pair(*components)
    raise InputError(f"unknown coalgebra pair kind {kind!r}")


# ---------------------------------------------------------------------------
# standard pair lists (the acceptance substrate)


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
        ("direct_product_M2_kZ2", make_algebra_pair("direct_product", m2, kz2)),
        ("direct_product_dn_tp2", make_algebra_pair("direct_product", dn, tp2)),
        ("triangular_kkk", triangular_pair(
            algebra_k(field),
            algebra_k(field),
            SparseTensor3((1, 1, 1), {(0, 0, 0): 1}, field),
            SparseTensor3((1, 1, 1), {(0, 0, 0): 1}, field),
        )[0]),
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
    pairs = [
        ("grouplike", grouplike_pair(field)),
        ("counital_hull_dp2", counital_hull(dp2)),
        ("counital_hull_zero_line", counital_hull(
            Coalgebra(1, SparseTensor3.zero((1, 1, 1), field), field)
        )),
        ("direct_product_Mc2_gl2", make_coalgebra_pair("direct_product", mc2, gl2)),
        ("direct_product_gl1_dp1", make_coalgebra_pair(
            "direct_product", grouplikes(1, field), divided_power(1, field)
        )),
        ("trivial_coext_Mc2_regular", trivial_coextension_pair(mc2, regular_bicomodule(mc2))),
        ("trivial_coext_gl2_regular", trivial_coextension_pair(gl2, regular_bicomodule(gl2))),
        ("triangular_gl1_gl1_line", triangular_copair(
            grouplikes(1, field),
            grouplikes(1, field),
            SparseTensor3((1, 1, 1), {(0, 0, 0): 1}, field),
            SparseTensor3((1, 1, 1), {(0, 0, 0): 1}, field),
        )),
        ("regular_Mc2", regular_copair(mc2)),
        ("regular_gl2", regular_copair(gl2)),
        ("regular_dp2", regular_copair(dp2)),
        ("dual_of_trunc_poly3_graded", dualize_algebra_pair(trunc_poly_pair(3, field))[0]),
        ("dual_of_triangular_kkk", dualize_algebra_pair(
            triangular_pair(
                algebra_k(field),
                algebra_k(field),
                SparseTensor3((1, 1, 1), {(0, 0, 0): 1}, field),
                SparseTensor3((1, 1, 1), {(0, 0, 0): 1}, field),
            )[0]
        )[0]),
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
    and the matrices (input, output) that carry its legs there.

    An algebra takes S^T on its input legs and S^-1 on its output leg.
    The Kronecker dual basis changes by S^-T, so a coalgebra takes the
    same two matrices the other way round, laid out by ``lay``.
    """
    if S.field != s.field or (S.rows, S.cols) != (s.dim, s.dim):
        raise InputError(f"basis change must be a {s.dim}x{s.dim} matrix over {s.field!r}")
    Sinv = invert(S)
    if Sinv is None:
        raise InputError("basis change must be invertible")
    ins, out = (S.transpose(), Sinv) if conv is ALGEBRA else (Sinv, S.transpose())
    return conv.structure(s.dim, transport(getattr(s, conv.tensor), conv.lay((ins, ins, out))), s.field), (ins, out)


def conjugate_algebra_pair(pair: DorrohPairAlgebra, SA: Matrix, SI: Matrix) -> DorrohPairAlgebra:
    return _conjugate_pair(ALGEBRA, pair, SA, SI)


def conjugate_coalgebra_pair(pair: DorrohPairCoalgebra, SC: Matrix, SP: Matrix) -> DorrohPairCoalgebra:
    return _conjugate_pair(COALGEBRA, pair, SC, SP)


def _conjugate_pair(conv, pair, SA, SI):
    acting, carrier, left, right = conv.parts_of(pair)
    A2, (a_in, _) = _conjugate(conv, acting, SA)
    I2, (i_in, i_out) = _conjugate(conv, carrier, SI)
    action = conv.action_type(
        A2,
        carrier.dim,
        transport(left, conv.lay((a_in, i_in, i_out))),
        transport(right, conv.lay((i_in, a_in, i_out))),
    )
    return conv.pair(A2, I2, action)
