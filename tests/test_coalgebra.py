import pytest

from dorroh import exchange
from dorroh.coalgebra import (
    BicomoduleCoaction,
    Coalgebra,
    CoalgebraMorphism,
    ComoduleOverCoalgebra,
    DorrohPairCoalgebra,
    assemble_comodule,
    build_dorroh_coalgebra,
    check_coassociativity,
    check_dorroh_pair_coalgebra,
    check_iterated_coalgebra_triple,
    counit_balance_check,
    counital_split_iso,
    pushforward_pair,
    regular_bicomodule,
    split_coalgebra_extension,
    universal_map_coalgebra,
    verify_coalgebra_morphism,
    zero_coaction_pair,
)
from dorroh.errors import InputError, PreconditionError, ValidationFailure
from dorroh.fields import QQ
from dorroh.gallery import (
    counital_hull,
    divided_power,
    grouplike_pair,
    grouplikes,
    matrix_coalgebra_2,
    regular_copair,
    trivial_coextension_pair,
)
from dorroh.linalg import Matrix, is_identity
from dorroh.tensors import SparseTensor3
from support import basis, identity_comorphism, zeros


def expand_counit_laws(c, eps):
    """Independent oracle for (eps (x) 1) Delta = id = (1 (x) eps) Delta."""
    canon = c.field.canon
    for k in range(c.dim):
        left = [0] * c.dim
        right = [0] * c.dim
        for (kk, i, j), v in c.delta.entries.items():
            if kk == k:
                left[j] += eps[i] * v
                right[i] += eps[j] * v
        if [canon(v) for v in left] != basis(c, k) or [canon(v) for v in right] != basis(c, k):
            return False
    return True


def test_coassociativity_matrix_coalgebra():
    assert check_coassociativity(matrix_coalgebra_2(QQ)).ok


def test_coassociativity_grouplikes():
    assert check_coassociativity(grouplikes(2, QQ)).ok


def test_coassociativity_broken_mc2():
    mc2 = matrix_coalgebra_2(QQ)
    entries = dict(mc2.delta.entries)
    del entries[(1, 0, 1)]  # drop the e11 (x) e12 term of Delta(e12)
    bad = Coalgebra(4, SparseTensor3((4, 4, 4), entries, QQ), QQ)
    report = check_coassociativity(bad)
    assert not report.ok
    # Delta(e11) already references the broken Delta(e12), so the first
    # witness in ascending basis order is e11 itself.
    assert report.checks[0].witness == (0,)


def test_find_counit_mc2():
    mc2 = matrix_coalgebra_2(QQ)
    eps = mc2.find_counit()
    assert eps == [1, 0, 0, 1]
    assert expand_counit_laws(mc2, eps)


def test_find_counit_divided_power():
    dp = divided_power(3, QQ)
    eps = dp.find_counit()
    assert eps == [1, 0, 0, 0]
    assert expand_counit_laws(dp, eps)


def test_find_counit_absent_for_zero_delta():
    c = Coalgebra(1, SparseTensor3.zero((1, 1, 1), QQ), QQ)
    assert c.find_counit() is None


# ---------------------------------------------------------------------------
# Dorroh pairs of coalgebras


def test_grouplike_pair_passes():
    assert check_dorroh_pair_coalgebra(grouplike_pair(QQ)).ok


def test_zero_coaction_pair_passes():
    pair = zero_coaction_pair(matrix_coalgebra_2(QQ), grouplikes(2, QQ))
    assert check_dorroh_pair_coalgebra(pair).ok


def test_scaled_left_coaction_fails():
    # rho_l(p) = 2 g (x) p breaks the compatibility; expanding the three
    # equations by hand, eq5 picks up the factor 2 on one side only while
    # eq4 scales both sides equally, so eq5 is the failing equation.
    field = QQ
    C = grouplikes(1, field)
    P = grouplikes(1, field)
    rho_l = SparseTensor3((1, 1, 1), {(0, 0, 0): 2}, field)
    rho_r = SparseTensor3((1, 1, 1), {(0, 0, 0): 1}, field)
    pair = DorrohPairCoalgebra(C, P, BicomoduleCoaction(C, 1, rho_l, rho_r))
    report = check_dorroh_pair_coalgebra(pair)
    assert not report.ok
    failed = {c.name for c in report.checks if not c.ok}
    assert "eq5" in failed
    assert "eq4" not in failed and "eq3" not in failed


def test_build_grouplike_extension():
    pair = grouplike_pair(QQ)
    d = build_dorroh_coalgebra(pair)
    # Delta(Q) = G (x) Q + Q (x) G + Q (x) Q with G = (g,0), Q = (0,p)
    assert d.delta.entries == {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1, (1, 1, 1): 1}
    assert check_coassociativity(d).ok


def test_build_zero_coaction_is_block_diagonal():
    pair = zero_coaction_pair(matrix_coalgebra_2(QQ), grouplikes(2, QQ))
    d = build_dorroh_coalgebra(pair)
    for (k, i, j), _ in d.delta.entries.items():
        assert (k < 4) == (i < 4) == (j < 4)
    assert check_coassociativity(d).ok


def test_build_counit_when_counital_bicomodule():
    pair = grouplike_pair(QQ)
    d = build_dorroh_coalgebra(pair)
    assert d.find_counit() == [1, 0]


def test_built_projection_is_coalgebra_hom():
    pair = grouplike_pair(QQ)
    d = build_dorroh_coalgebra(pair)
    pi_c = CoalgebraMorphism(d, pair.C, Matrix(1, 2, [[1, 0]], QQ))
    assert verify_coalgebra_morphism(pi_c).ok


# ---------------------------------------------------------------------------
# splitting


def test_split_build_round_trip():
    for pair in (
        grouplike_pair(QQ),
        counital_hull(divided_power(2, QQ)),
        regular_copair(grouplikes(2, QQ)),
        trivial_coextension_pair(matrix_coalgebra_2(QQ), regular_bicomodule(matrix_coalgebra_2(QQ))),
    ):
        d = build_dorroh_coalgebra(pair)
        nc = pair.C.dim
        c_basis = [basis(d, i) for i in range(nc)]
        p_basis = [basis(d, nc + x) for x in range(pair.P.dim)]
        pair2, iso = split_coalgebra_extension(d, c_basis, p_basis)
        assert pair2.C.delta == pair.C.delta
        assert pair2.P.delta == pair.P.delta
        assert pair2.coaction.rho_l == pair.coaction.rho_l
        assert pair2.coaction.rho_r == pair.coaction.rho_r
        assert iso.verified == "iso"


def test_split_two_grouplikes_along_difference():
    d = grouplikes(2, QQ)
    pair, iso = split_coalgebra_extension(d, [[1, 0]], [[-1, 1]])  # C = <g1>, P = <g2 - g1>
    assert pair.coaction.rho_l.entries == {(0, 0, 0): 1}
    assert pair.coaction.rho_r.entries == {(0, 0, 0): 1}
    assert pair.P.delta.entries == {(0, 0, 0): 1}
    assert iso.verified == "iso"


def test_split_rejects_non_subcoalgebra():
    mc2 = matrix_coalgebra_2(QQ)
    c_basis = [basis(mc2, 0)]  # span{e11}: Delta(e11) has the e12 (x) e21 term
    p_basis = [basis(mc2, 1), basis(mc2, 2), basis(mc2, 3)]
    with pytest.raises(ValidationFailure) as err:
        split_coalgebra_extension(mc2, c_basis, p_basis)
    assert "subcoalgebra" in str(err.value)


def test_split_rejects_dependent_basis():
    with pytest.raises(InputError):
        split_coalgebra_extension(grouplikes(2, QQ), [[1, 0]], [[1, 0]])


# ---------------------------------------------------------------------------
# counit balance and the counital split


def test_counit_balance_grouplike():
    pair = grouplike_pair(QQ)
    report = counit_balance_check(pair, [1])
    assert report.ok
    # both sides equal g: recompute directly
    eps = [1]
    lhs = [sum(v * eps[y] for (x, c, y), v in pair.coaction.rho_l.entries.items() if x == 0 and c == 0)]
    rhs = [sum(v * eps[y] for (x, y, c), v in pair.coaction.rho_r.entries.items() if x == 0 and c == 0)]
    assert lhs == rhs == [1]


def test_counit_balance_zero_coaction():
    pair = zero_coaction_pair(grouplikes(1, QQ), divided_power(1, QQ))
    assert counit_balance_check(pair, [1, 0]).ok


def test_counit_balance_requires_counit():
    pair = counital_hull(Coalgebra(1, SparseTensor3.zero((1, 1, 1), QQ), QQ))
    with pytest.raises(PreconditionError):
        counit_balance_check(pair, [1])


def test_counital_split_iso_grouplike():
    pair = grouplike_pair(QQ)
    zeta = counital_split_iso(pair)
    assert zeta.matrix.dense() == [[1, -1], [0, 1]]  # G -> G, Q -> Q - G
    assert zeta.verified == "iso"


def test_counital_split_iso_zero_coaction_is_identity():
    pair = zero_coaction_pair(grouplikes(1, QQ), divided_power(1, QQ))
    zeta = counital_split_iso(pair)
    assert is_identity(zeta.matrix)


def test_counital_split_needs_counit():
    pair = counital_hull(Coalgebra(1, SparseTensor3.zero((1, 1, 1), QQ), QQ))
    with pytest.raises(PreconditionError):
        counital_split_iso(pair)


# ---------------------------------------------------------------------------
# universal property


def test_universal_map_from_projections_is_identity():
    pair = grouplike_pair(QQ)
    d = build_dorroh_coalgebra(pair)
    pi_c = CoalgebraMorphism(d, pair.C, Matrix(1, 2, [[1, 0]], QQ))
    pi_p = CoalgebraMorphism(d, pair.P, Matrix(1, 2, [[0, 1]], QQ))
    verify_coalgebra_morphism(pi_c)
    verify_coalgebra_morphism(pi_p)
    eta = universal_map_coalgebra(pair, d, pi_c, pi_p)
    assert is_identity(eta.matrix)


def test_universal_map_with_zero_p_component():
    pair = zero_coaction_pair(grouplikes(1, QQ), grouplikes(1, QQ))
    D = grouplikes(1, QQ)
    phi = identity_comorphism(D)
    verify_coalgebra_morphism(phi)
    zero = CoalgebraMorphism(D, pair.P, zeros(1, 1, QQ))
    verify_coalgebra_morphism(zero)
    eta = universal_map_coalgebra(pair, D, phi, zero)
    assert eta.matrix.dense() == [[1], [0]]


def test_universal_map_rejects_violating_f():
    # scaling f breaks rho_l(f(d)) = (phi (x) f) Delta(d) on the group-like pair
    pair = grouplike_pair(QQ)
    d = build_dorroh_coalgebra(pair)
    pi_c = CoalgebraMorphism(d, pair.C, Matrix(1, 2, [[1, 0]], QQ))
    verify_coalgebra_morphism(pi_c)
    # f = 2 pi_P is not even a coalgebra hom, so craft a violating verified hom:
    # map the group-like Q to the group-like p but G to p as well
    f = CoalgebraMorphism(d, pair.P, Matrix(1, 2, [[1, 1]], QQ))
    report = verify_coalgebra_morphism(f)
    assert not report.ok  # G + ... fails: Delta(G+Q) is not grouplike under f
    with pytest.raises(PreconditionError):
        universal_map_coalgebra(pair, d, pi_c, f)


# ---------------------------------------------------------------------------
# morphism verification


def test_verify_identity_on_mc2():
    F = identity_comorphism(matrix_coalgebra_2(QQ))
    assert verify_coalgebra_morphism(F, iso=True).ok
    assert F.verified == "iso"


def test_verify_grouplike_swap_iso():
    g2 = grouplikes(2, QQ)
    F = CoalgebraMorphism(g2, g2, Matrix(2, 2, [[0, 1], [1, 0]], QQ))
    assert verify_coalgebra_morphism(F, iso=True).ok


def test_verify_grouplike_smear_fails():
    g2 = grouplikes(2, QQ)
    F = CoalgebraMorphism(g2, g2, Matrix(2, 2, [[1, 0], [1, 1]], QQ))  # g1 -> g1 + g2
    report = verify_coalgebra_morphism(F)
    assert not report.ok
    assert report.checks[0].witness == (0,)


def test_failed_verification_lowers_a_stale_iso_stamp():
    g2 = grouplikes(2, QQ)
    smear = exchange.parse(exchange.emit(CoalgebraMorphism(g2, g2, Matrix(2, 2, [[1, 0], [1, 1]], QQ), "iso")))
    assert smear.verified == "iso"
    report = verify_coalgebra_morphism(smear, iso=True)
    assert report.headline() == "fail: comultiplicative at (0,)"
    assert smear.verified == "unchecked"

    pair = zero_coaction_pair(grouplikes(1, QQ), grouplikes(1, QQ))
    D = grouplikes(1, QQ)
    phi = identity_comorphism(D)
    verify_coalgebra_morphism(phi)
    f = CoalgebraMorphism(D, pair.P, Matrix(1, 1, [[2]], QQ), verified="iso")
    assert not verify_coalgebra_morphism(f, iso=True).ok  # 2g is not group-like
    assert f.verified == "unchecked"
    with pytest.raises(PreconditionError):
        universal_map_coalgebra(pair, D, phi, f)


def test_singular_map_checked_as_iso_is_stamped_hom():
    g2 = grouplikes(2, QQ)
    zero = CoalgebraMorphism(g2, g2, zeros(2, 2, QQ), verified="iso")
    report = verify_coalgebra_morphism(zero, iso=True)
    assert report.headline() == "fail: invertible"
    assert zero.verified == "hom"
    assert verify_coalgebra_morphism(zero).ok and zero.verified == "hom"


# ---------------------------------------------------------------------------
# comodules


def test_assemble_regular_comodule_round_trip():
    pair = grouplike_pair(QQ)
    d = build_dorroh_coalgebra(pair)
    nc = pair.C.dim
    reg = regular_bicomodule(d)
    rho_l_c = SparseTensor3(
        (d.dim, nc, d.dim),
        {(m, c, m2): v for (m, c, m2), v in reg.rho_l.entries.items() if c < nc},
        QQ,
    )
    rho_l_p = SparseTensor3(
        (d.dim, pair.P.dim, d.dim),
        {(m, c - nc, m2): v for (m, c, m2), v in reg.rho_l.entries.items() if c >= nc},
        QQ,
    )
    com_c = ComoduleOverCoalgebra(pair.C, d.dim, "left", rho_l=rho_l_c)
    com_p = ComoduleOverCoalgebra(pair.P, d.dim, "left", rho_l=rho_l_p)
    out = assemble_comodule(pair, com_c, com_p, "left")
    assert out.rho_l == reg.rho_l


def test_assemble_with_zero_p_coaction():
    pair = grouplike_pair(QQ)
    com_c = ComoduleOverCoalgebra(
        pair.C, 1, "left", rho_l=SparseTensor3((1, 1, 1), {(0, 0, 0): 1}, QQ)
    )
    com_p = ComoduleOverCoalgebra(pair.P, 1, "left", rho_l=SparseTensor3.zero((1, 1, 1), QQ))
    out = assemble_comodule(pair, com_c, com_p, "left")
    assert out.validate().ok


def test_assemble_rejects_corrupted_p_coaction():
    pair = grouplike_pair(QQ)
    com_c = ComoduleOverCoalgebra(
        pair.C, 1, "left", rho_l=SparseTensor3((1, 1, 1), {(0, 0, 0): 1}, QQ)
    )
    com_p = ComoduleOverCoalgebra(
        pair.P, 1, "left", rho_l=SparseTensor3((1, 1, 1), {(0, 0, 0): 1}, QQ)
    )
    # p-coaction m -> p (x) m needs the exchange with the C-coaction:
    # (1 (x) rho_l^C) rho_l^P gives p (x) g (x) m, (rho_r (x) 1) rho_l^P gives
    # p (x) g (x) m as well, but (rho_l (x) 1) rho_l^P vs (1 (x) rho_l^P) rho_l^C
    # differ once the C-coaction is scaled.
    com_c_bad = ComoduleOverCoalgebra(
        pair.C, 1, "left", rho_l=SparseTensor3((1, 1, 1), {(0, 0, 0): 2}, QQ)
    )
    assert not com_c_bad.validate().ok  # 2 g (x) m is not even coassociative
    with pytest.raises(ValidationFailure):
        assemble_comodule(pair, com_c_bad, com_p, "left")


# ---------------------------------------------------------------------------
# pushforward


def test_pushforward_identity_keeps_pair():
    pair = grouplike_pair(QQ)
    f = identity_comorphism(pair.C)
    verify_coalgebra_morphism(f)
    out = pushforward_pair(pair, f)
    assert out.coaction.rho_l == pair.coaction.rho_l
    assert out.coaction.rho_r == pair.coaction.rho_r


def test_pushforward_folding_grouplikes():
    field = QQ
    C = grouplikes(2, field)
    P = grouplikes(1, field)
    rho_l = SparseTensor3((1, 2, 1), {(0, 0, 0): 1}, field)
    rho_r = SparseTensor3((1, 1, 2), {(0, 0, 0): 1}, field)
    pair = DorrohPairCoalgebra(C, P, BicomoduleCoaction(C, 1, rho_l, rho_r))
    pair.require_valid()
    fold = CoalgebraMorphism(C, grouplikes(1, field), Matrix(1, 2, [[1, 1]], field))
    verify_coalgebra_morphism(fold)
    out = pushforward_pair(pair, fold)
    assert out.validate().ok
    assert out.C.dim == 1


def test_pushforward_rejects_unverified():
    pair = grouplike_pair(QQ)
    f = identity_comorphism(pair.C)  # left unchecked
    with pytest.raises(PreconditionError):
        pushforward_pair(pair, f)


# ---------------------------------------------------------------------------
# iterated extensions


def _grouplike_coaction(field):
    one = SparseTensor3((1, 1, 1), {(0, 0, 0): 1}, field)
    return BicomoduleCoaction(grouplikes(1, field), 1, one, one)


def test_iterated_grouplike_triple_passes():
    field = QQ
    c = grouplikes(1, field)
    co = _grouplike_coaction(field)
    report, assoc = check_iterated_coalgebra_triple(c, c, c, co, co, co)
    assert report.ok
    assert assoc.verified == "iso"
    assert is_identity(assoc.matrix)


def test_iterated_zero_coactions_passes():
    field = QQ
    c1, c2, c3 = matrix_coalgebra_2(field), grouplikes(2, field), divided_power(1, field)

    def zero_co(c, p):
        return BicomoduleCoaction(
            c,
            p.dim,
            SparseTensor3.zero((p.dim, c.dim, p.dim), field),
            SparseTensor3.zero((p.dim, p.dim, c.dim), field),
        )

    report, assoc = check_iterated_coalgebra_triple(
        c1, c2, c3, zero_co(c1, c2), zero_co(c1, c3), zero_co(c2, c3)
    )
    assert report.ok and assoc.verified == "iso"


def test_iterated_broken_eq12_named():
    field = QQ
    c = grouplikes(1, field)
    co = _grouplike_coaction(field)
    two = SparseTensor3((1, 1, 1), {(0, 0, 0): 2}, field)
    one = SparseTensor3((1, 1, 1), {(0, 0, 0): 1}, field)
    co13 = BicomoduleCoaction(c, 1, two, one)  # rho_l of C1 on C3 scaled
    report, assoc = check_iterated_coalgebra_triple(c, c, c, co, co13, co)
    assert not report.ok
    assert assoc is None
    failed = {chk.name for chk in report.checks if not chk.ok}
    assert "eq12" in failed


# ---------------------------------------------------------------------------
# input validation


def test_coaction_dimension_mismatch_rejected():
    field = QQ
    c = grouplikes(1, field)
    with pytest.raises(InputError):
        BicomoduleCoaction(
            c, 2, SparseTensor3((2, 1, 2), {}, field), SparseTensor3((1, 1, 1), {}, field)
        )


def test_pair_carrier_mismatch_rejected():
    field = QQ
    c = grouplikes(1, field)
    co = BicomoduleCoaction(
        c, 1, SparseTensor3((1, 1, 1), {}, field), SparseTensor3((1, 1, 1), {}, field)
    )
    with pytest.raises(InputError):
        DorrohPairCoalgebra(c, grouplikes(2, field), co)


def test_assemble_right_comodule_round_trip():
    pair = counital_hull(divided_power(2, QQ))
    d = build_dorroh_coalgebra(pair)
    nc = pair.C.dim
    reg = regular_bicomodule(d)
    rho_r_c = SparseTensor3(
        (d.dim, d.dim, nc),
        {(m, m2, c): v for (m, m2, c), v in reg.rho_r.entries.items() if c < nc},
        QQ,
    )
    rho_r_p = SparseTensor3(
        (d.dim, d.dim, pair.P.dim),
        {(m, m2, c - nc): v for (m, m2, c), v in reg.rho_r.entries.items() if c >= nc},
        QQ,
    )
    com_c = ComoduleOverCoalgebra(pair.C, d.dim, "right", rho_r=rho_r_c)
    com_p = ComoduleOverCoalgebra(pair.P, d.dim, "right", rho_r=rho_r_p)
    out = assemble_comodule(pair, com_c, com_p, "right")
    assert out.rho_r == reg.rho_r


def test_assemble_bicomodule_round_trip():
    pair = counital_hull(divided_power(1, QQ))
    d = build_dorroh_coalgebra(pair)
    nc = pair.C.dim
    reg = regular_bicomodule(d)
    rho_l_c = SparseTensor3(
        (d.dim, nc, d.dim),
        {(m, c, m2): v for (m, c, m2), v in reg.rho_l.entries.items() if c < nc},
        QQ,
    )
    rho_l_p = SparseTensor3(
        (d.dim, pair.P.dim, d.dim),
        {(m, c - nc, m2): v for (m, c, m2), v in reg.rho_l.entries.items() if c >= nc},
        QQ,
    )
    rho_r_c = SparseTensor3(
        (d.dim, d.dim, nc),
        {(m, m2, c): v for (m, m2, c), v in reg.rho_r.entries.items() if c < nc},
        QQ,
    )
    rho_r_p = SparseTensor3(
        (d.dim, d.dim, pair.P.dim),
        {(m, m2, c - nc): v for (m, m2, c), v in reg.rho_r.entries.items() if c >= nc},
        QQ,
    )
    com_c = ComoduleOverCoalgebra(pair.C, d.dim, "bi", rho_l=rho_l_c, rho_r=rho_r_c)
    com_p = ComoduleOverCoalgebra(pair.P, d.dim, "bi", rho_l=rho_l_p, rho_r=rho_r_p)
    out = assemble_comodule(pair, com_c, com_p, "bi")
    assert out.rho_l == reg.rho_l and out.rho_r == reg.rho_r
    assert out.validate().ok


def test_universal_map_on_larger_carrier():
    pair = counital_hull(divided_power(2, QQ))
    d = build_dorroh_coalgebra(pair)
    nc, np_ = pair.C.dim, pair.P.dim
    rows_c = [[1 if j == i else 0 for j in range(d.dim)] for i in range(nc)]
    rows_p = [[1 if j == nc + i else 0 for j in range(d.dim)] for i in range(np_)]
    pi_c = CoalgebraMorphism(d, pair.C, Matrix(nc, d.dim, rows_c, QQ))
    pi_p = CoalgebraMorphism(d, pair.P, Matrix(np_, d.dim, rows_p, QQ))
    assert verify_coalgebra_morphism(pi_c).ok
    assert verify_coalgebra_morphism(pi_p).ok
    eta = universal_map_coalgebra(pair, d, pi_c, pi_p)
    assert is_identity(eta.matrix)


def test_split_round_trip_over_prime_fields():
    from dorroh.fields import GF

    for p in (2, 5):
        field = GF(p)
        pair = regular_copair(matrix_coalgebra_2(field))
        d = build_dorroh_coalgebra(pair)
        nc = pair.C.dim
        pair2, iso = split_coalgebra_extension(
            d,
            [basis(d, i) for i in range(nc)],
            [basis(d, nc + x) for x in range(pair.P.dim)],
        )
        assert pair2.coaction.rho_l == pair.coaction.rho_l
        assert iso.verified == "iso"


def test_projection_and_counit_across_standard_pairs():
    from dorroh.gallery import standard_coalgebra_pairs
    from dorroh.algebra import _acts_as_identity
    from dorroh.tensors import TO_COALGEBRA

    for name, pair in standard_coalgebra_pairs(QQ):
        d = build_dorroh_coalgebra(pair)
        nc = pair.C.dim
        rows = [[1 if j == i else 0 for j in range(d.dim)] for i in range(nc)]
        pi_c = CoalgebraMorphism(d, pair.C, Matrix(nc, d.dim, rows, QQ))
        assert verify_coalgebra_morphism(pi_c).ok, name
        eps_c = pair.C.find_counit()
        co = pair.coaction
        if eps_c is not None and _acts_as_identity(co.rho_l, co.rho_r, eps_c, pair.P.dim, TO_COALGEBRA):
            assert d.find_counit() == eps_c + [0] * pair.P.dim, name


def test_universal_map_condition_failure_with_verified_homs():
    # zero coactions make rho_l(f(d)) = 0 while (phi (x) f) Delta(d) = g (x) p
    field = QQ
    pair = zero_coaction_pair(grouplikes(1, field), grouplikes(1, field))
    D = grouplikes(1, field)
    phi = identity_comorphism(D)
    verify_coalgebra_morphism(phi)
    f = identity_comorphism(D)
    verify_coalgebra_morphism(f)
    with pytest.raises(ValidationFailure) as err:
        universal_map_coalgebra(pair, D, phi, f)
    bad = err.value.report.first_failure()
    assert bad.name == "rho_l(f(d))=(phi(x)f)Delta(d)"
    assert bad.witness == (0,)


def test_extension_coproduct_matches_component_formula():
    # Delta(c,p) assembled from Delta_C, rho_l, rho_r and Delta_P blockwise
    import random as _random

    rng = _random.Random(19)
    field = QQ
    for pair in (
        grouplike_pair(field),
        counital_hull(divided_power(2, field)),
        regular_copair(matrix_coalgebra_2(field)),
    ):
        built = build_dorroh_coalgebra(pair)
        nc = pair.C.dim
        for _ in range(10):
            c = [rng.randint(-3, 3) for _ in range(nc)]
            p = [rng.randint(-3, 3) for _ in range(pair.P.dim)]
            x = c + p
            got = {}
            for (k, i, j), v in built.delta.entries.items():
                if x[k]:
                    got[(i, j)] = got.get((i, j), 0) + x[k] * v
            got = {k: cv for k, v in got.items() if (cv := field.canon(v)) != 0}
            expected = {}

            def put(a, b, v):
                if v:
                    key = (a, b)
                    expected[key] = expected.get(key, 0) + v

            for (k, i, j), v in pair.C.delta.entries.items():
                put(i, j, c[k] * v)
            for (x, cc, y), v in pair.coaction.rho_l.entries.items():
                put(cc, nc + y, p[x] * v)
            for (x, y, cc), v in pair.coaction.rho_r.entries.items():
                put(nc + y, cc, p[x] * v)
            for (x, i, j), v in pair.P.delta.entries.items():
                put(nc + i, nc + j, p[x] * v)
            expected = {k: cv for k, v in expected.items() if (cv := field.canon(v)) != 0}
            assert got == expected


def test_passing_hom_check_keeps_iso_only_on_an_invertible_comorphism():
    dp = divided_power(1, QQ)
    zero = CoalgebraMorphism(dp, dp, zeros(2, 2, QQ), verified="iso")
    assert verify_coalgebra_morphism(zero).render_text() == "pass (1 checks)\n  [ok] comultiplicative"
    assert zero.verified == "hom"
    iso = CoalgebraMorphism(dp, dp, Matrix.identity(2, QQ), verified="iso")
    assert verify_coalgebra_morphism(iso).ok and iso.verified == "iso"
