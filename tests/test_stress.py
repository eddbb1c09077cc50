"""Dense-data stress: random basis conjugation exercises every index
convention at once, so these catch transposition slips the sparse
gallery instances cannot see."""

import random

import pytest

from dorroh.algebra import (
    BimoduleAction,
    build_dorroh_algebra,
    check_iterated_algebra_triple,
    split_algebra_extension,
)
from dorroh.coalgebra import (
    BicomoduleCoaction,
    build_dorroh_coalgebra,
    check_iterated_coalgebra_triple,
    split_coalgebra_extension,
)
from dorroh.duality import dualize_algebra_pair, dualize_coalgebra_pair
from dorroh.fields import GF, QQ
from dorroh.gallery import (
    conjugate_algebra_pair,
    conjugate_coalgebra_pair,
    counital_hull,
    divided_power,
    dual_numbers,
    grouplike_pair,
    random_invertible,
    regular_bimodule,
    regular_pair,
    trivial_extension_pair,
)

from support import dense_columns, random_algebra_pair, random_coalgebra_pair


def test_duality_on_conjugated_random_pairs():
    field = GF(5)
    rng = random.Random(31)
    for _ in range(25):
        pair = random_algebra_pair(rng, field, 6)
        copair, witness = dualize_algebra_pair(pair)
        assert witness.forward.verified == "iso"
    for _ in range(25):
        pair = random_coalgebra_pair(rng, field, 6)
        apair, witness = dualize_coalgebra_pair(pair)
        assert witness.forward.verified == "iso"


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
def test_split_along_conjugated_blocks_algebra(field):
    # after a dense basis change, the old blocks sit at the columns of
    # S^{-1}; splitting the twisted algebra there must still succeed
    from dorroh.gallery import conjugate_algebra
    from dorroh.linalg import invert

    rng = random.Random(37)
    pair = regular_pair(dual_numbers(field))
    built = build_dorroh_algebra(pair)
    na = pair.A.dim
    for _ in range(5):
        S = random_invertible(rng, built.dim, field)
        twisted = conjugate_algebra(built, S)
        Sinv = dense_columns(invert(S))
        a_basis, i_basis = Sinv[:na], Sinv[na:]
        back, iso = split_algebra_extension(twisted, a_basis, i_basis)
        assert iso.verified == "iso"
        assert back.validate().ok


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
def test_split_along_conjugated_blocks_coalgebra(field):
    rng = random.Random(41)
    pair = counital_hull(divided_power(1, field))
    built = build_dorroh_coalgebra(pair)
    from dorroh.gallery import conjugate_coalgebra
    from dorroh.linalg import invert

    for _ in range(5):
        S = random_invertible(rng, built.dim, field)
        twisted = conjugate_coalgebra(built, S)
        Sinv = dense_columns(invert(S))
        nc = pair.C.dim
        c_basis, p_basis = Sinv[:nc], Sinv[nc:]
        back, iso = split_coalgebra_extension(twisted, c_basis, p_basis)
        assert iso.verified == "iso"
        assert back.validate().ok


def test_iterated_triples_from_bigger_pairs():
    field = QQ
    pair = trivial_extension_pair(dual_numbers(field), regular_bimodule(dual_numbers(field)))
    regular = BimoduleAction(pair.I, pair.I.dim, pair.I.mul, pair.I.mul)
    report, assoc = check_iterated_algebra_triple(
        pair.A, pair.I, pair.I, pair.action, pair.action, regular
    )
    assert report.ok and assoc.verified == "iso"

    cpair = counital_hull(divided_power(2, field))
    reg = BicomoduleCoaction(cpair.P, cpair.P.dim, cpair.P.delta, cpair.P.delta)
    report, coassoc = check_iterated_coalgebra_triple(
        cpair.C, cpair.P, cpair.P, cpair.coaction, cpair.coaction, reg
    )
    assert report.ok and coassoc.verified == "iso"


def test_conjugation_preserves_validity_densely():
    rng = random.Random(43)
    field = GF(7)
    base = regular_pair(dual_numbers(field))
    for _ in range(10):
        pair = conjugate_algebra_pair(
            base, random_invertible(rng, 2, field), random_invertible(rng, 2, field)
        )
        assert pair.validate().ok
    cbase = grouplike_pair(field)
    for _ in range(10):
        pair = conjugate_coalgebra_pair(
            cbase, random_invertible(rng, 1, field), random_invertible(rng, 1, field)
        )
        assert pair.validate().ok
