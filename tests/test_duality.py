from dorroh.algebra import build_dorroh_algebra, check_associativity, regular_bimodule
from dorroh.coalgebra import build_dorroh_coalgebra, regular_bicomodule
from dorroh.duality import (
    double_dual_iso,
    double_dual_iso_coalgebra,
    dual_actions,
    dual_algebra_of_coalgebra,
    dual_coactions,
    dual_coalgebra_of_algebra,
    dualize_algebra_pair,
    dualize_coalgebra_pair,
)
from dorroh.fields import GF, QQ
from dorroh.gallery import (
    algebra_k,
    divided_power,
    dual_numbers,
    group_algebra_z2,
    grouplike_pair,
    grouplikes,
    matrix_algebra_2,
    matrix_coalgebra_2,
    nilpotent_line,
    regular_pair,
    scalar_action_pair,
    standard_algebra_pairs,
    standard_coalgebra_pairs,
    triangular_copair,
    triangular_pair,
    zero_coaction_pair,
)
from dorroh.algebra import ModuleOverAlgebra
from dorroh.linalg import is_identity
from dorroh.tensors import SparseTensor3
from support import basis, product


def convolution_product_oracle(c, i, j):
    """(e_i* e_j*)(e_k) = sum over Delta(e_k) of e_i*(x_1) e_j*(x_2)."""
    out = [0] * c.dim
    for (k, a, b), v in c.delta.entries.items():
        if a == i and b == j:
            out[k] += v
    return [c.field.canon(v) for v in out]


def test_dual_of_matrix_coalgebra_is_matrix_algebra():
    mc2 = matrix_coalgebra_2(QQ)
    dual = dual_algebra_of_coalgebra(mc2)
    assert dual.mul == matrix_algebra_2(QQ).mul
    # independent convolution oracle on every basis pair
    for i in range(4):
        for j in range(4):
            assert product(dual, basis(dual, i), basis(dual, j)) == convolution_product_oracle(mc2, i, j)
    assert dual.find_identity() == mc2.find_counit()


def test_dual_of_grouplikes_is_split_idempotents():
    dual = dual_algebra_of_coalgebra(grouplikes(2, QQ))
    assert dual.mul.entries == {(0, 0, 0): 1, (1, 1, 1): 1}
    assert check_associativity(dual).ok


def test_dual_of_divided_power_is_dual_numbers():
    dual = dual_algebra_of_coalgebra(divided_power(1, QQ))
    assert dual.mul == dual_numbers(QQ).mul
    # c1* squares to zero
    assert product(dual, basis(dual, 1), basis(dual, 1)) == [0, 0]


def test_dual_of_matrix_algebra_is_matrix_coalgebra():
    dual = dual_coalgebra_of_algebra(matrix_algebra_2(QQ))
    assert dual.delta == matrix_coalgebra_2(QQ).delta
    assert dual.find_counit() == [1, 0, 0, 1]


def test_dual_of_dual_numbers_is_divided_power():
    dual = dual_coalgebra_of_algebra(dual_numbers(QQ))
    assert dual.delta == divided_power(1, QQ).delta
    assert dual.find_counit() == [1, 0]


def test_dual_of_nilpotent_has_no_counit():
    dual = dual_coalgebra_of_algebra(nilpotent_line(QQ))
    assert dual.delta.entries == {}
    assert dual.find_counit() is None


# ---------------------------------------------------------------------------
# module <-> comodule duality


def test_dual_of_regular_right_module():
    m2 = matrix_algebra_2(QQ)
    reg = regular_bimodule(m2)
    right_mod = ModuleOverAlgebra(m2, 4, "right", right=reg.right)
    com = dual_actions(right_mod)
    assert com.side == "right"
    assert com.rho_r == regular_bicomodule(matrix_coalgebra_2(QQ)).rho_r
    assert com.validate().ok


def test_dual_of_zero_action_is_zero_coaction():
    a = group_algebra_z2(QQ)
    mod = ModuleOverAlgebra(
        a, 2, "bi",
        left=SparseTensor3.zero((2, 2, 2), QQ),
        right=SparseTensor3.zero((2, 2, 2), QQ),
    )
    com = dual_actions(mod)
    assert com.rho_l.entries == {} and com.rho_r.entries == {}


def test_dual_of_regular_bimodule_is_bicomodule():
    dn = dual_numbers(QQ)
    com = dual_actions(regular_bimodule(dn))
    assert com.side == "bi"
    assert com.validate().ok  # includes the exchange identity


def test_dual_coactions_round_trip():
    mc2 = matrix_coalgebra_2(QQ)
    com = regular_bicomodule(mc2)
    mod = dual_coactions(com)
    assert mod.validate().ok
    back = dual_actions(mod)
    assert back.rho_l == com.rho_l and back.rho_r == com.rho_r


# ---------------------------------------------------------------------------
# pair duality in both directions


def test_dualize_grouplike_pair_products():
    apair, witness = dualize_coalgebra_pair(grouplike_pair(QQ))
    assert witness.forward.verified == "iso"
    alg = build_dorroh_algebra(apair)
    G, Q = [1, 0], [0, 1]
    assert product(alg, G, G) == G
    assert product(alg, G, Q) == Q
    assert product(alg, Q, G) == Q
    assert product(alg, Q, Q) == Q


def test_dualize_zero_coaction_pair_gives_zero_actions():
    pair = zero_coaction_pair(matrix_coalgebra_2(QQ), grouplikes(2, QQ))
    apair, witness = dualize_coalgebra_pair(pair)
    assert apair.action.left.entries == {} and apair.action.right.entries == {}
    assert witness.forward.verified == "iso"


def test_dualize_triangular_copair_gives_triangular_pair():
    field = QQ
    one = SparseTensor3((1, 1, 1), {(0, 0, 0): 1}, field)
    copair = triangular_copair(grouplikes(1, field), grouplikes(1, field), one, one)
    apair, witness = dualize_coalgebra_pair(copair)
    tri_pair, _ = triangular_pair(algebra_k(field), algebra_k(field), one, one)
    assert apair.A.mul == tri_pair.A.mul
    assert apair.I.mul == tri_pair.I.mul
    assert apair.action.left == tri_pair.action.left
    assert apair.action.right == tri_pair.action.right
    assert witness.forward.verified == "iso"


def test_dualize_k_nilpotent_pair_gives_divided_power():
    pair = scalar_action_pair(QQ, nilpotent_line(QQ))
    copair, witness = dualize_algebra_pair(pair)
    assert witness.forward.verified == "iso"
    ext = build_dorroh_coalgebra(copair)
    assert ext.delta == divided_power(1, QQ).delta


def test_dualize_zero_action_pair_gives_zero_coactions():
    from dorroh.algebra import direct_product_pair

    pair = direct_product_pair(matrix_algebra_2(QQ), group_algebra_z2(QQ))
    copair, witness = dualize_algebra_pair(pair)
    assert copair.coaction.rho_l.entries == {} and copair.coaction.rho_r.entries == {}
    assert witness.forward.verified == "iso"


def test_dualize_m2_regular_pair():
    copair, witness = dualize_algebra_pair(regular_pair(matrix_algebra_2(QQ)))
    assert witness.forward.verified == "iso"
    assert witness.forward.source.dim == 8


def test_dual_pair_tensors_match_dual_of_extension():
    # building the dual pair gives exactly the dual of the built extension
    for name, pair in standard_coalgebra_pairs(QQ):
        apair, _ = dualize_coalgebra_pair(pair)
        lhs = build_dorroh_algebra(apair)
        rhs = dual_algebra_of_coalgebra(build_dorroh_coalgebra(pair))
        assert lhs.mul == rhs.mul, name
    for name, pair in standard_algebra_pairs(QQ):
        copair, _ = dualize_algebra_pair(pair)
        lhs = build_dorroh_coalgebra(copair)
        rhs = dual_coalgebra_of_algebra(build_dorroh_algebra(pair))
        assert lhs.delta == rhs.delta, name


# ---------------------------------------------------------------------------
# double dual


def test_double_dual_m2():
    iso = double_dual_iso(matrix_algebra_2(QQ))
    assert iso.verified == "iso"
    assert is_identity(iso.matrix)
    assert iso.target.mul == matrix_algebra_2(QQ).mul


def test_double_dual_dual_numbers():
    assert double_dual_iso(dual_numbers(QQ)).verified == "iso"


def test_double_dual_group_algebra():
    assert double_dual_iso(group_algebra_z2(QQ)).verified == "iso"
    assert double_dual_iso(group_algebra_z2(GF(5))).verified == "iso"


def test_double_dual_coalgebra():
    iso = double_dual_iso_coalgebra(matrix_coalgebra_2(QQ))
    assert iso.verified == "iso"


def test_unit_counit_exchange():
    # dual of counital coalgebra is unital with unit = eps
    for c in (matrix_coalgebra_2(QQ), grouplikes(3, QQ), divided_power(2, QQ)):
        dual = dual_algebra_of_coalgebra(c)
        assert dual.find_identity() == c.find_counit()
    # dual of unital algebra is counital with counit = unit coordinates
    for a in (matrix_algebra_2(QQ), dual_numbers(QQ), group_algebra_z2(QQ)):
        dual = dual_coalgebra_of_algebra(a)
        assert dual.find_counit() == a.find_identity()
