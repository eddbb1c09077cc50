import random
from fractions import Fraction

import pytest

from dorroh.algebra import Algebra, build_dorroh_algebra, check_associativity, regular_bimodule
from dorroh.coalgebra import build_dorroh_coalgebra, check_coassociativity, zero_coaction_pair
from dorroh.errors import InputError
from dorroh.fields import GF, QQ
from dorroh.findual import RecurrentSequence
from dorroh.gallery import (
    algebra_k,
    catalog_names,
    counital_hull,
    grouplike_pair,
    grouplikes,
    instance,
    matrix_algebra_2,
    matrix_coalgebra_2,
    one_point_pair,
    standard_algebra_pairs,
    standard_coalgebra_pairs,
    triangular_pair,
    trivial_extension_pair,
    trunc_poly_pair,
    truncated_polynomials,
)
from dorroh.coalgebra import Coalgebra
from dorroh.tensors import SparseTensor3

from support import random_algebra_pair, random_coalgebra_pair

FIELDS = [QQ, GF(2), GF(5), GF(7)]

# The dim and whether it has a (co)unit of each catalog structure, the dim
# as a function of the parameter where it takes one.  The gallery builds
# its instances unchecked, so these are the declarations they are held to.
DECLARED = {
    "k": (1, True),
    "dual_numbers": (2, True),
    "M2": (4, True),
    "kZ2": (2, True),
    "nilpotent1": (1, False),
    "trunc_poly": (lambda n: n + 1, True),
    "Mc2": (4, True),
    "grouplikes": (lambda n: n, True),
    "divided_power": (lambda n: n + 1, True),
}

ALL_NAMES = [
    "k",
    "dual_numbers",
    "M2",
    "kZ2",
    "nilpotent1",
    "trunc_poly(3)",
    "Mc2",
    "grouplikes(2)",
    "divided_power(3)",
    "fibonacci",
    "geometric(2)",
    *(f"{name}({n})" for name in ("trunc_poly", "divided_power") for n in (0, 1, 7, 30)),
    *(f"grouplikes({n})" for n in (1, 7, 30)),
]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("name", ALL_NAMES)
def test_every_instance_validates_on_every_field(name, field):
    obj = instance(name, field)
    base, _, arg = name.rstrip(")").partition("(")
    if base not in DECLARED:
        assert isinstance(obj, RecurrentSequence)
        return
    dim, unital = DECLARED[base]
    if arg:
        dim = dim(int(arg))
    if isinstance(obj, Algebra):
        report, unit = check_associativity(obj), obj.find_identity()
    else:
        report, unit = check_coassociativity(obj), obj.find_counit()
    assert report.ok and obj.dim == dim and (unit is not None) == unital


def test_catalog_names_frozen():
    assert catalog_names() == sorted(
        ["k", "dual_numbers", "M2", "kZ2", "nilpotent1", "trunc_poly", "Mc2", "grouplikes", "divided_power", "fibonacci", "geometric"]
    )


def test_unknown_name_rejected():
    with pytest.raises(InputError):
        instance("M3", QQ)
    with pytest.raises(InputError):
        instance("trunc_poly", QQ)  # missing parameter


def test_m2_instance():
    m2 = instance("M2", QQ)
    assert m2.dim == 4
    assert m2.find_identity() == [1, 0, 0, 1]


def test_mc2_counit():
    mc2 = instance("Mc2", QQ)
    assert mc2.find_counit() == [1, 0, 0, 1]


def test_divided_power_counit():
    dp = instance("divided_power(3)", QQ)
    assert dp.dim == 4
    assert dp.find_counit() == [1, 0, 0, 0]


def test_sequences_from_catalog():
    fib = instance("fibonacci", QQ)
    assert isinstance(fib, RecurrentSequence)
    assert fib.s0 == 0 and fib.initial == [1, 1] and fib.coeffs == [1, 1]
    geo = instance("geometric(3)", GF(5))
    assert geo.s0 == 1 and geo.initial == [3] and geo.coeffs == [3]


# ---------------------------------------------------------------------------
# pair constructors


def test_trivial_extension_squares_to_zero():
    m2 = matrix_algebra_2(QQ)
    pair = trivial_extension_pair(m2, regular_bimodule(m2))
    assert pair.I.mul.entries == {}
    assert pair.validate().ok


def test_triangular_kkk_is_upper_triangular_2x2():
    field = QQ
    one = SparseTensor3((1, 1, 1), {(0, 0, 0): 1}, field)
    pair, iso = triangular_pair(algebra_k(field), algebra_k(field), one, one)
    built = build_dorroh_algebra(pair)
    assert built.dim == 3
    assert iso.verified == "iso"
    # the block algebra target is literally {e11, e12, e22}
    upper = iso.target
    assert upper.mul.entries == {
        (0, 0, 0): 1,  # e11 e11
        (0, 1, 1): 1,  # e11 e12
        (1, 2, 1): 1,  # e12 e22
        (2, 2, 2): 1,  # e22 e22
    }


def test_one_point_extension_of_m2():
    m2 = matrix_algebra_2(QQ)
    # column space k^2 with the matrix action e_ij . v_x = [x==j] v_i
    left = SparseTensor3((4, 2, 2), {(2 * i + j, j, i): 1 for i in range(2) for j in range(2)}, QQ)
    pair, iso = one_point_pair(m2, left)
    assert pair.validate().ok
    built = build_dorroh_algebra(pair)
    # dim A + dim k + dim M: the one-point extension [[M2, k^2], [0, k]]
    assert built.dim == 4 + 1 + 2
    assert iso.verified == "iso"


def test_counital_hull_formula():
    p = Coalgebra(1, SparseTensor3.zero((1, 1, 1), QQ), QQ)
    pair = counital_hull(p)
    d = build_dorroh_coalgebra(pair)
    # Delta(0,p) = (1,0) (x) (0,p) + (0,p) (x) (1,0); Delta_P = 0
    assert d.delta.entries == {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1}
    assert d.find_counit() == [1, 0]


def test_direct_product_copair_zero_coactions():
    pair = zero_coaction_pair(matrix_coalgebra_2(QQ), grouplikes(2, QQ))
    assert pair.coaction.rho_l.entries == {} and pair.coaction.rho_r.entries == {}


def test_grouplike_pair_is_standard_instance():
    pair = grouplike_pair(QQ)
    assert pair.C.dim == 1 and pair.P.dim == 1
    assert pair.coaction.rho_l.entries == {(0, 0, 0): 1}


def test_trunc_poly_pair_realizes_truncation():
    for n in (1, 2, 3):
        pair = trunc_poly_pair(n, QQ)
        built = build_dorroh_algebra(pair)
        assert built.mul == truncated_polynomials(n, QQ).mul


# ---------------------------------------------------------------------------
# gradings of built extensions


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
def test_z2_grading_algebra_side(field):
    for name, pair in standard_algebra_pairs(field):
        built = build_dorroh_algebra(pair)
        na = pair.A.dim
        for (i, j, k), _ in built.mul.entries.items():
            if i < na and j < na:
                assert k < na, name  # A-block closed
            else:
                assert k >= na, name  # products touching I land in I


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
def test_z2_grading_coalgebra_side(field):
    for name, pair in standard_coalgebra_pairs(field):
        built = build_dorroh_coalgebra(pair)
        nc = pair.C.dim
        for (k, i, j), _ in built.delta.entries.items():
            if k < nc:
                assert i < nc and j < nc, name  # Delta(C) in C (x) C
            else:
                assert i >= nc or j >= nc, name  # no C (x) C term on the P-block


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_standard_pairs_validate_and_fit(field):
    algebra_pairs = standard_algebra_pairs(field)
    assert len(algebra_pairs) >= 12
    for name, pair in algebra_pairs:
        assert pair.validate().ok, name
        assert pair.A.dim + pair.I.dim <= 8, name
    coalgebra_pairs = standard_coalgebra_pairs(field)
    assert len(coalgebra_pairs) >= 12
    for name, pair in coalgebra_pairs:
        assert pair.validate().ok, name
        assert pair.C.dim + pair.P.dim <= 8, name


# ---------------------------------------------------------------------------
# random construction generators


@pytest.mark.parametrize("field", [GF(5), GF(2), QQ], ids=repr)
def test_random_algebra_pairs_are_valid(field):
    rng = random.Random(11)
    for _ in range(25):
        pair = random_algebra_pair(rng, field, 8)
        assert pair.validate().ok
        assert pair.A.dim + pair.I.dim <= 8
        built = build_dorroh_algebra(pair)
        assert check_associativity(built).ok


@pytest.mark.parametrize("field", [GF(5), GF(2), QQ], ids=repr)
def test_random_coalgebra_pairs_are_valid(field):
    rng = random.Random(13)
    for _ in range(25):
        pair = random_coalgebra_pair(rng, field, 8)
        assert pair.validate().ok
        assert pair.C.dim + pair.P.dim <= 8
        built = build_dorroh_coalgebra(pair)
        assert check_coassociativity(built).ok


def test_basis_change_over_another_field_is_an_input_error():
    from dorroh.gallery import conjugate_algebra, conjugate_coalgebra, divided_power, dual_numbers
    from dorroh.linalg import Matrix

    twice = Matrix(2, 2, [[2, 0], [0, 2]], GF(5))
    with pytest.raises(InputError, match=r"basis change must be a 2x2 matrix over QQ"):
        conjugate_algebra(dual_numbers(QQ), twice)
    with pytest.raises(InputError, match=r"basis change must be a 2x2 matrix over QQ"):
        conjugate_coalgebra(divided_power(1, QQ), twice)
    # over Q, e'_j = 2 e_j scales every product by 2 and every coproduct by 1/2
    on_q = Matrix(2, 2, twice.dense(), QQ)
    assert conjugate_algebra(dual_numbers(QQ), on_q).mul.entries == {(0, 0, 0): 2, (0, 1, 1): 2, (1, 0, 1): 2}
    half = Fraction(1, 2)
    assert conjugate_coalgebra(divided_power(1, QQ), on_q).delta.entries == {
        (0, 0, 0): half, (1, 0, 1): half, (1, 1, 0): half
    }


def test_basis_change_of_the_wrong_size_is_an_input_error():
    from dorroh.gallery import (
        conjugate_algebra,
        conjugate_algebra_pair,
        conjugate_coalgebra,
        conjugate_coalgebra_pair,
        grouplike_pair,
        regular_pair,
    )
    from dorroh.linalg import Matrix

    three = Matrix.identity(3, QQ)
    with pytest.raises(InputError, match=r"basis change must be a 4x4 matrix over QQ"):
        conjugate_algebra(matrix_algebra_2(QQ), three)
    with pytest.raises(InputError, match=r"basis change must be a 4x4 matrix over QQ"):
        conjugate_coalgebra(matrix_coalgebra_2(QQ), three)
    one = Matrix.identity(1, QQ)
    with pytest.raises(InputError, match=r"basis change must be a 4x4 matrix over QQ"):
        conjugate_algebra_pair(regular_pair(matrix_algebra_2(QQ)), one, one)
    with pytest.raises(InputError, match=r"basis change must be a 1x1 matrix over GF\(5\)"):
        conjugate_coalgebra_pair(grouplike_pair(GF(5)), one, one)
