import itertools
import random

import pytest

from dorroh import exchange
from dorroh.algebra import (
    Algebra,
    AlgebraMorphism,
    BimoduleAction,
    DorrohPairAlgebra,
    ModuleOverAlgebra,
    assemble_module,
    build_dorroh_algebra,
    check_associativity,
    check_dorroh_pair_algebra,
    check_iterated_algebra_triple,
    direct_product_pair,
    regular_bimodule,
    split_algebra_extension,
    unital_ideal_iso,
    universal_map_algebra,
    verify_algebra_morphism,
)
from dorroh.errors import InputError, PreconditionError, ValidationFailure
from dorroh.fields import GF, QQ
from dorroh.gallery import (
    algebra_k,
    dual_numbers,
    group_algebra_z2,
    matrix_algebra_2,
    nilpotent_line,
    regular_pair,
    scalar_action_pair,
    trivial_extension_pair,
)
from dorroh.linalg import Matrix, is_identity
from dorroh.tensors import SparseTensor3
from support import (
    act_left,
    act_right,
    basis,
    identity_morphism,
    inverse,
    matmul,
    product,
    random_algebra_pair,
    zeros,
)


def brute_force_associative(a):
    """Independent oracle: expand both triple products coordinatewise."""
    for i, j, k in itertools.product(range(a.dim), repeat=3):
        ij = product(a, basis(a, i), basis(a, j))
        jk = product(a, basis(a, j), basis(a, k))
        if product(a, ij, basis(a, k)) != product(a, basis(a, i), jk):
            return (i, j, k)
    return None


def test_associativity_matrix_units():
    assert check_associativity(matrix_algebra_2(QQ)).ok


def test_associativity_dual_numbers():
    assert check_associativity(dual_numbers(QQ)).ok


def test_associativity_corrupted_m2():
    a = matrix_algebra_2(QQ)
    entries = dict(a.mul.entries)
    entries[(0, 0, 0)] = 0
    entries[(0, 0, 1)] = 1  # e11 e11 := e12
    bad = Algebra(4, SparseTensor3((4, 4, 4), {k: v for k, v in entries.items() if v}, QQ), QQ)
    assert brute_force_associative(bad) == (0, 0, 0)
    report = check_associativity(bad)
    assert not report.ok
    assert report.checks[0].witness == (0, 0, 0)


def test_find_identity_m2():
    assert matrix_algebra_2(QQ).find_identity() == [1, 0, 0, 1]


def test_find_identity_nilpotent_absent():
    assert nilpotent_line(QQ).find_identity() is None


def test_find_identity_group_algebra():
    assert group_algebra_z2(QQ).find_identity() == [1, 0]


# ---------------------------------------------------------------------------
# Dorroh pairs


def test_pair_scalar_action_passes():
    pair = scalar_action_pair(QQ, nilpotent_line(QQ))
    assert check_dorroh_pair_algebra(pair).ok


def test_pair_trivial_extension_passes():
    m2 = matrix_algebra_2(QQ)
    pair = trivial_extension_pair(m2, regular_bimodule(m2))
    assert check_dorroh_pair_algebra(pair).ok
    # trivial extension means the ideal squares to zero
    assert pair.I.mul.entries == {}


def test_pair_violating_left_compatibility_fails():
    # I = dual numbers as algebra, A = k, scalar action perturbed on one entry
    field = QQ
    I = dual_numbers(field)
    left = SparseTensor3((1, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 2}, field)  # 1.eps := 2 eps
    right = SparseTensor3((2, 1, 2), {(0, 0, 0): 1, (1, 0, 1): 1}, field)
    pair = DorrohPairAlgebra(algebra_k(field), I, BimoduleAction(algebra_k(field), 2, left, right))
    report = check_dorroh_pair_algebra(pair)
    assert not report.ok
    failed = [c.name for c in report.checks if not c.ok]
    assert "a(xy)=(ax)y" in failed
    # brute-force confirmation on the witness: a(xy) != (ax)y at (0,0,1)
    wit = next(c.witness for c in report.checks if c.name == "a(xy)=(ax)y" and not c.ok)
    a, x, y = wit
    act = pair.action
    lhs = act_left(act, basis(pair.A, a), product(I, basis(I, x), basis(I, y)))
    rhs = product(I, act_left(act, basis(pair.A, a), basis(I, x)), basis(I, y))
    assert lhs != rhs


def test_build_k_nilpotent_gives_dual_numbers():
    pair = scalar_action_pair(QQ, nilpotent_line(QQ))
    built = build_dorroh_algebra(pair)
    assert built.dim == 2
    assert built.mul == dual_numbers(QQ).mul


def test_build_unital_pair_unit():
    pair = regular_pair(matrix_algebra_2(QQ))
    built = build_dorroh_algebra(pair)
    assert built.find_identity() == [1, 0, 0, 1, 0, 0, 0, 0]


def test_build_zero_actions_is_direct_product():
    a, b = matrix_algebra_2(QQ), group_algebra_z2(QQ)
    built = build_dorroh_algebra(direct_product_pair(a, b))
    # block-diagonal structure constants and the product identity
    for (i, j, k), v in built.mul.entries.items():
        assert (i < 4) == (j < 4) == (k < 4)
    assert built.find_identity() == [1, 0, 0, 1, 1, 0]


def test_build_refuses_invalid_pair():
    field = QQ
    I = dual_numbers(field)
    left = SparseTensor3((1, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 2}, field)
    right = SparseTensor3((2, 1, 2), {(0, 0, 0): 1, (1, 0, 1): 1}, field)
    pair = DorrohPairAlgebra(algebra_k(field), I, BimoduleAction(algebra_k(field), 2, left, right))
    with pytest.raises(ValidationFailure):
        build_dorroh_algebra(pair)


def test_built_extension_embeddings_and_blocks():
    pair = regular_pair(group_algebra_z2(QQ))
    built = build_dorroh_algebra(pair)
    na = pair.A.dim
    cols_a = [basis(built, i) for i in range(na)]
    tau_a = AlgebraMorphism(pair.A, built, Matrix.from_columns(cols_a, QQ))
    assert verify_algebra_morphism(tau_a).ok
    cols_i = [basis(built, na + x) for x in range(pair.I.dim)]
    tau_i = AlgebraMorphism(pair.I, built, Matrix.from_columns(cols_i, QQ))
    assert verify_algebra_morphism(tau_i).ok
    # ideal property as exact tensor statements
    for (i, j, k), _ in built.mul.entries.items():
        if i >= na or j >= na:
            assert k >= na
        else:
            assert k < na


# ---------------------------------------------------------------------------
# splitting


def test_split_dual_numbers():
    dn = dual_numbers(QQ)
    pair, iso = split_algebra_extension(dn, [[1, 0]], [[0, 1]])
    assert pair.A.mul.entries == {(0, 0, 0): 1}
    assert pair.I.mul.entries == {}
    assert pair.action.left.entries == {(0, 0, 0): 1}
    assert pair.action.right.entries == {(0, 0, 0): 1}
    assert iso.verified == "iso"


def test_split_upper_triangular():
    # basis {e11, e12, e22}
    field = QQ
    mul = SparseTensor3(
        (3, 3, 3),
        {(0, 0, 0): 1, (0, 1, 1): 1, (1, 2, 1): 1, (2, 2, 2): 1},
        field,
    )
    upper = Algebra(3, mul, field)
    assert check_associativity(upper).ok
    pair, iso = split_algebra_extension(upper, [[1, 0, 0], [0, 0, 1]], [[0, 1, 0]])
    # diagonal part is k x k, strict upper part the square-zero ideal
    assert pair.A.mul.entries == {(0, 0, 0): 1, (1, 1, 1): 1}
    assert pair.I.mul.entries == {}
    assert pair.action.left.entries == {(0, 0, 0): 1}
    assert pair.action.right.entries == {(0, 1, 0): 1}
    assert iso.verified == "iso"


def test_split_rejects_non_ideal():
    dn = dual_numbers(QQ)
    with pytest.raises(ValidationFailure) as err:
        split_algebra_extension(dn, [[0, 1]], [[1, 0]])  # I = span{1} is not an ideal
    assert "ideal" in str(err.value)


def test_split_rejects_dependent_basis():
    dn = dual_numbers(QQ)
    with pytest.raises(InputError):
        split_algebra_extension(dn, [[1, 0]], [[1, 0]])


def test_split_build_round_trip():
    for pair in (
        scalar_action_pair(QQ, nilpotent_line(QQ)),
        regular_pair(group_algebra_z2(QQ)),
        trivial_extension_pair(dual_numbers(QQ), regular_bimodule(dual_numbers(QQ))),
    ):
        built = build_dorroh_algebra(pair)
        na = pair.A.dim
        a_basis = [basis(built, i) for i in range(na)]
        i_basis = [basis(built, na + x) for x in range(pair.I.dim)]
        pair2, iso = split_algebra_extension(built, a_basis, i_basis)
        assert pair2.A.mul == pair.A.mul
        assert pair2.I.mul == pair.I.mul
        assert pair2.action.left == pair.action.left
        assert pair2.action.right == pair.action.right
        assert iso.verified == "iso"


# ---------------------------------------------------------------------------
# the unital-ideal isomorphism


def test_unital_ideal_iso_kk():
    pair = regular_pair(algebra_k(QQ))
    eta = unital_ideal_iso(pair)
    # eta(a, x) = (a, x + a)
    assert eta.matrix.dense() == [[1, 0], [1, 1]]
    assert eta.verified == "iso"


def test_unital_ideal_iso_m2():
    pair = regular_pair(matrix_algebra_2(QQ))
    eta = unital_ideal_iso(pair)
    assert eta.verified == "iso"
    report = verify_algebra_morphism(eta, iso=True)
    assert report.ok  # multiplicativity on all 64 basis pairs


def test_unital_ideal_iso_needs_unital_ideal():
    pair = scalar_action_pair(QQ, nilpotent_line(QQ))
    with pytest.raises(PreconditionError):
        unital_ideal_iso(pair)


def test_unital_ideal_identity_is_central_for_action():
    # unital_ideal_iso checks no a.1_I = 1_I.a: the pair laws imply it on
    # every valid pair with unital I
    pairs = [regular_pair(group_algebra_z2(QQ))]
    for field in (QQ, GF(7)):
        rng = random.Random(11)
        drawn = (random_algebra_pair(rng, field) for _ in range(60))
        unital = [pair for pair in drawn if pair.I.find_identity() is not None]
        assert len(unital) >= 20, field
        pairs += unital
    for pair in pairs:
        assert pair.validate().ok
        one_i = pair.I.find_identity()
        for a in range(pair.A.dim):
            ea = basis(pair.A, a)
            assert act_left(pair.action, ea, one_i) == act_right(pair.action, one_i, ea)
        assert unital_ideal_iso(pair).verified == "iso"


def test_unital_ideal_iso_round_trip_is_identity():
    pair = regular_pair(group_algebra_z2(QQ))
    eta = unital_ideal_iso(pair)
    assert is_identity(matmul(eta.matrix, inverse(eta).matrix))


# ---------------------------------------------------------------------------
# universal property


def test_universal_map_recovers_identity():
    pair = regular_pair(group_algebra_z2(QQ))
    built = build_dorroh_algebra(pair)
    na = pair.A.dim
    tau_a = AlgebraMorphism(pair.A, built, Matrix.from_columns([basis(built, i) for i in range(na)], QQ))
    tau_i = AlgebraMorphism(
        pair.I, built, Matrix.from_columns([basis(built, na + x) for x in range(pair.I.dim)], QQ)
    )
    verify_algebra_morphism(tau_a)
    verify_algebra_morphism(tau_i)
    eta = universal_map_algebra(pair, built, tau_a, tau_i)
    assert is_identity(eta.matrix)


def test_universal_map_projection():
    pair = scalar_action_pair(QQ, nilpotent_line(QQ))
    A = pair.A
    phi = identity_morphism(A)
    verify_algebra_morphism(phi)
    zero = AlgebraMorphism(pair.I, A, zeros(A.dim, pair.I.dim, QQ))
    verify_algebra_morphism(zero)
    eta = universal_map_algebra(pair, A, phi, zero)
    assert eta.matrix.dense() == [[1, 0]]  # projection onto the A-block


def test_universal_map_rejects_unverified():
    pair = scalar_action_pair(QQ, nilpotent_line(QQ))
    phi = identity_morphism(pair.A)
    zero = AlgebraMorphism(pair.I, pair.A, zeros(1, 1, QQ))
    with pytest.raises(PreconditionError):
        universal_map_algebra(pair, pair.A, phi, zero)


def test_universal_map_rejects_non_dorroh_hom():
    # phi = id, f = tau_I is a Dorroh hom into the extension; breaking f's
    # compatibility with a sign makes the condition fail.
    pair = regular_pair(algebra_k(QQ))
    built = build_dorroh_algebra(pair)
    tau_a = AlgebraMorphism(pair.A, built, Matrix.from_columns([basis(built, 0)], QQ))
    verify_algebra_morphism(tau_a)
    bad = AlgebraMorphism(pair.I, built, zeros(2, 1, QQ))
    verify_algebra_morphism(bad)  # zero map is a hom
    # f(ax) = 0 but phi(a) f(x) = 0 as well; zero f is fine. Use f = -tau_I instead.
    neg = AlgebraMorphism(pair.I, built, Matrix(2, 1, [[0], [-1]], QQ))
    report = verify_algebra_morphism(neg)
    assert not report.ok  # -tau_I is not multiplicative on k
    with pytest.raises(PreconditionError):
        universal_map_algebra(pair, built, tau_a, neg)


# ---------------------------------------------------------------------------
# morphism verification


def test_verify_identity_morphism_iso():
    m2 = matrix_algebra_2(QQ)
    F = identity_morphism(m2)
    report = verify_algebra_morphism(F, iso=True)
    assert report.ok and F.verified == "iso"


def test_verify_zero_morphism_hom_not_iso():
    m2 = matrix_algebra_2(QQ)
    dn = dual_numbers(QQ)
    F = AlgebraMorphism(m2, dn, zeros(2, 4, QQ))
    assert verify_algebra_morphism(F).ok
    assert F.verified == "hom"
    G = AlgebraMorphism(dn, dn, zeros(2, 2, QQ))
    report = verify_algebra_morphism(G, iso=True)
    assert not report.ok


def test_verify_swap_on_dual_numbers_fails():
    dn = dual_numbers(QQ)
    F = AlgebraMorphism(dn, dn, Matrix(2, 2, [[0, 1], [1, 0]], QQ))
    report = verify_algebra_morphism(F)
    assert not report.ok
    assert report.checks[0].witness == (0, 0)  # 1*1 = 1 but eps*eps = 0


def test_failed_verification_lowers_a_stale_iso_stamp():
    # A document may stamp any matrix "iso"; a failed check must not leave
    # that stamp for universal_map_algebra to trust.
    pair = scalar_action_pair(QQ, nilpotent_line(QQ))
    A = pair.A
    dn = dual_numbers(QQ)
    swap = exchange.parse(exchange.emit(AlgebraMorphism(dn, dn, Matrix(2, 2, [[0, 1], [1, 0]], QQ), "iso")))
    assert swap.verified == "iso"
    report = verify_algebra_morphism(swap, iso=True)
    assert report.headline() == "fail: multiplicative at (0, 0)"
    assert swap.verified == "unchecked"

    phi = identity_morphism(A)
    verify_algebra_morphism(phi)
    f = AlgebraMorphism(pair.I, A, Matrix(1, 1, [[1]], QQ), verified="iso")
    assert not verify_algebra_morphism(f, iso=True).ok  # x -> 1 is not multiplicative
    assert f.verified == "unchecked"
    with pytest.raises(PreconditionError):
        universal_map_algebra(pair, A, phi, f)


def test_singular_map_checked_as_iso_is_stamped_hom():
    dn = dual_numbers(QQ)
    zero = AlgebraMorphism(dn, dn, zeros(2, 2, QQ), verified="iso")
    report = verify_algebra_morphism(zero, iso=True)
    assert report.headline() == "fail: invertible"
    assert zero.verified == "hom"
    assert verify_algebra_morphism(zero).ok and zero.verified == "hom"


def test_passing_hom_check_lowers_an_iso_stamp_on_a_singular_map():
    # A document may stamp the zero map "iso"; verifying it as a
    # homomorphism must not leave that stamp, nor change the report.
    dn = dual_numbers(QQ)
    zero = AlgebraMorphism(dn, dn, zeros(2, 2, QQ), verified="iso")
    unstamped = AlgebraMorphism(dn, dn, zeros(2, 2, QQ))
    report = verify_algebra_morphism(zero)
    assert report.render_text() == verify_algebra_morphism(unstamped).render_text() == "pass (1 checks)\n  [ok] multiplicative"
    assert zero.verified == "hom"


def test_passing_hom_check_keeps_an_iso_stamp_on_an_invertible_map():
    m2 = matrix_algebra_2(QQ)
    iso = AlgebraMorphism(m2, m2, Matrix.identity(4, QQ), verified="iso")
    assert verify_algebra_morphism(iso).render_text() == "pass (1 checks)\n  [ok] multiplicative"
    assert iso.verified == "iso"
    hom = AlgebraMorphism(m2, m2, Matrix.identity(4, QQ), verified="hom")
    assert verify_algebra_morphism(hom).ok and hom.verified == "hom"  # no stamp is raised unasked


# ---------------------------------------------------------------------------
# modules


def test_assemble_regular_module_round_trip():
    pair = regular_pair(group_algebra_z2(QQ))
    built = build_dorroh_algebra(pair)
    na = pair.A.dim
    reg = regular_bimodule(built)
    # restrict the regular left action of the extension to A- and I-parts
    left_a = SparseTensor3(
        (na, built.dim, built.dim),
        {(a, m, m2): v for (a, m, m2), v in reg.left.entries.items() if a < na},
        QQ,
    )
    left_i = SparseTensor3(
        (pair.I.dim, built.dim, built.dim),
        {(a - na, m, m2): v for (a, m, m2), v in reg.left.entries.items() if a >= na},
        QQ,
    )
    m_a = ModuleOverAlgebra(pair.A, built.dim, "left", left=left_a)
    m_i = ModuleOverAlgebra(pair.I, built.dim, "left", left=left_i)
    out = assemble_module(pair, m_a, m_i, "left")
    assert out.left == reg.left


def test_assemble_character_module():
    # A = kZ2 acting through the sign character, I = nilpotent line acting by zero
    field = QQ
    pair = scalar_action_pair(field, nilpotent_line(field))
    m_a = ModuleOverAlgebra(
        pair.A, 1, "left", left=SparseTensor3((1, 1, 1), {(0, 0, 0): 1}, field)
    )
    m_i = ModuleOverAlgebra(pair.I, 1, "left", left=SparseTensor3.zero((1, 1, 1), field))
    out = assemble_module(pair, m_a, m_i, "left")
    assert out.validate().ok


def test_assemble_rejects_incompatible_searched_instance():
    """Exhaustive search over F_2 action tensors for a 2-dim carrier finds a
    pair of individually valid modules violating the gluing identities."""
    field = GF(2)
    pair = scalar_action_pair(field, nilpotent_line(field))
    found = None
    dims = (2, 2)
    cells = [(m, m2) for m in range(2) for m2 in range(2)]
    for bits_a in range(16):
        la = {(0, m, m2): (bits_a >> i) & 1 for i, (m, m2) in enumerate(cells)}
        la = {k: v for k, v in la.items() if v}
        m_a = ModuleOverAlgebra(pair.A, 2, "left", left=SparseTensor3((1, 2, 2), la, field))
        if not m_a.validate().ok:
            continue
        for bits_i in range(16):
            li = {(0, m, m2): (bits_i >> i) & 1 for i, (m, m2) in enumerate(cells)}
            li = {k: v for k, v in li.items() if v}
            m_i = ModuleOverAlgebra(pair.I, 2, "left", left=SparseTensor3((1, 2, 2), li, field))
            if not m_i.validate().ok:
                continue
            try:
                assemble_module(pair, m_a, m_i, "left")
            except ValidationFailure:
                found = (m_a, m_i)
                break
        if found:
            break
    assert found is not None
    m_a, m_i = found
    with pytest.raises(ValidationFailure) as err:
        assemble_module(pair, m_a, m_i, "left")
    assert err.value.report.first_failure().witness is not None


# ---------------------------------------------------------------------------
# iterated extensions


def _k_triple(field):
    k = algebra_k(field)
    one = SparseTensor3((1, 1, 1), {(0, 0, 0): 1}, field)
    act = BimoduleAction(k, 1, one, one)
    return k, act


def test_iterated_all_k_passes():
    k, act = _k_triple(QQ)
    report, assoc = check_iterated_algebra_triple(k, k, k, act, act, act)
    assert report.ok
    assert assoc.verified == "iso"
    assert is_identity(assoc.matrix)


def test_iterated_zero_actions_passes():
    field = QQ
    a1, a2, a3 = matrix_algebra_2(field), group_algebra_z2(field), nilpotent_line(field)

    def zero_act(x, y):
        return BimoduleAction(
            x,
            y.dim,
            SparseTensor3.zero((x.dim, y.dim, y.dim), field),
            SparseTensor3.zero((y.dim, x.dim, y.dim), field),
        )

    report, assoc = check_iterated_algebra_triple(
        a1, a2, a3, zero_act(a1, a2), zero_act(a1, a3), zero_act(a2, a3)
    )
    assert report.ok and assoc.verified == "iso"


def test_iterated_perturbed_fails_with_named_identity():
    field = QQ
    k = algebra_k(field)
    one = SparseTensor3((1, 1, 1), {(0, 0, 0): 1}, field)
    two = SparseTensor3((1, 1, 1), {(0, 0, 0): 2}, field)
    act = BimoduleAction(k, 1, one, one)
    act13 = BimoduleAction(k, 1, two, one)  # a1 . a3 scaled by 2
    report, assoc = check_iterated_algebra_triple(k, k, k, act, act13, act)
    assert not report.ok
    assert assoc is None
    failed = {c.name for c in report.checks if not c.ok}
    assert "a1(a2a3)=(a1a2)a3" in failed


# ---------------------------------------------------------------------------
# input validation


def test_action_dimension_mismatch_rejected():
    field = QQ
    k = algebra_k(field)
    good_left = SparseTensor3((1, 2, 2), {}, field)
    bad_right = SparseTensor3((1, 1, 1), {}, field)
    with pytest.raises(InputError):
        BimoduleAction(k, 2, good_left, bad_right)


def test_pair_carrier_mismatch_rejected():
    field = QQ
    k = algebra_k(field)
    act = BimoduleAction(
        k, 1, SparseTensor3((1, 1, 1), {}, field), SparseTensor3((1, 1, 1), {}, field)
    )
    with pytest.raises(InputError):
        DorrohPairAlgebra(k, dual_numbers(field), act)


def test_module_side_tensor_consistency():
    m2 = matrix_algebra_2(QQ)
    with pytest.raises(InputError):
        ModuleOverAlgebra(m2, 2, "left")  # missing tensor
    with pytest.raises(InputError):
        ModuleOverAlgebra(
            m2, 2, "left",
            left=SparseTensor3((4, 2, 2), {}, QQ),
            right=SparseTensor3((2, 4, 2), {}, QQ),
        )


def test_assemble_right_module_round_trip():
    pair = regular_pair(group_algebra_z2(QQ))
    built = build_dorroh_algebra(pair)
    na = pair.A.dim
    reg = regular_bimodule(built)
    right_a = SparseTensor3(
        (built.dim, na, built.dim),
        {(m, a, m2): v for (m, a, m2), v in reg.right.entries.items() if a < na},
        QQ,
    )
    right_i = SparseTensor3(
        (built.dim, pair.I.dim, built.dim),
        {(m, a - na, m2): v for (m, a, m2), v in reg.right.entries.items() if a >= na},
        QQ,
    )
    m_a = ModuleOverAlgebra(pair.A, built.dim, "right", right=right_a)
    m_i = ModuleOverAlgebra(pair.I, built.dim, "right", right=right_i)
    out = assemble_module(pair, m_a, m_i, "right")
    assert out.right == reg.right


def test_assemble_bimodule_round_trip():
    pair = scalar_action_pair(QQ, dual_numbers(QQ))
    built = build_dorroh_algebra(pair)
    na = pair.A.dim
    reg = regular_bimodule(built)

    def restrict(tensor, first):
        if first:
            lo = {(a, m, m2): v for (a, m, m2), v in tensor.entries.items() if a < na}
            hi = {(a - na, m, m2): v for (a, m, m2), v in tensor.entries.items() if a >= na}
            return (
                SparseTensor3((na, built.dim, built.dim), lo, QQ),
                SparseTensor3((pair.I.dim, built.dim, built.dim), hi, QQ),
            )
        lo = {(m, a, m2): v for (m, a, m2), v in tensor.entries.items() if a < na}
        hi = {(m, a - na, m2): v for (m, a, m2), v in tensor.entries.items() if a >= na}
        return (
            SparseTensor3((built.dim, na, built.dim), lo, QQ),
            SparseTensor3((built.dim, pair.I.dim, built.dim), hi, QQ),
        )

    left_a, left_i = restrict(reg.left, True)
    right_a, right_i = restrict(reg.right, False)
    m_a = ModuleOverAlgebra(pair.A, built.dim, "bi", left=left_a, right=right_a)
    m_i = ModuleOverAlgebra(pair.I, built.dim, "bi", left=left_i, right=right_i)
    out = assemble_module(pair, m_a, m_i, "bi")
    assert out.left == reg.left and out.right == reg.right
    assert out.validate().ok


def test_split_round_trip_over_prime_fields():
    for field in (GF(5), GF(7)):
        pair = regular_pair(group_algebra_z2(field))
        built = build_dorroh_algebra(pair)
        na = pair.A.dim
        pair2, iso = split_algebra_extension(
            built,
            [basis(built, i) for i in range(na)],
            [basis(built, na + x) for x in range(pair.I.dim)],
        )
        assert pair2.action.left == pair.action.left
        assert iso.verified == "iso"


def test_universal_map_condition_failure_with_verified_homs():
    # zero actions make f(ax) = 0 while phi(a) f(x) = ax in B = k
    field = QQ
    k = algebra_k(field)
    pair = direct_product_pair(k, k)
    pair.require_valid()
    phi = identity_morphism(k)
    verify_algebra_morphism(phi)
    f = identity_morphism(k)
    verify_algebra_morphism(f)
    with pytest.raises(ValidationFailure) as err:
        universal_map_algebra(pair, k, phi, f)
    bad = err.value.report.first_failure()
    assert bad.name == "f(ax)=phi(a)f(x)"
    assert bad.witness == (0, 0)


def test_extension_product_matches_component_formula():
    # (a,x)(b,y) = (ab, ay + xb + xy), assembled from the component operations
    import random as _random

    rng = _random.Random(17)
    field = QQ
    for pair in (
        regular_pair(group_algebra_z2(field)),
        trivial_extension_pair(dual_numbers(field), regular_bimodule(dual_numbers(field))),
        scalar_action_pair(field, matrix_algebra_2(field)),
    ):
        built = build_dorroh_algebra(pair)
        na, ni = pair.A.dim, pair.I.dim
        for _ in range(10):
            a = [rng.randint(-3, 3) for _ in range(na)]
            x = [rng.randint(-3, 3) for _ in range(ni)]
            b = [rng.randint(-3, 3) for _ in range(na)]
            y = [rng.randint(-3, 3) for _ in range(ni)]
            lhs = product(built, a + x, b + y)
            ab = product(pair.A, a, b)
            ay = act_left(pair.action, a, y)
            xb = act_right(pair.action, x, b)
            xy = product(pair.I, x, y)
            rhs = ab + [field.canon(p + q + r) for p, q, r in zip(ay, xb, xy)]
            assert lhs == rhs
