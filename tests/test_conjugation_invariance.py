"""The validators' pass/fail status does not depend on the basis.

Every axiom is an identity of multilinear maps, so a change of basis
carries each side of it to the same side in the new basis: each check of
a structure or a pair passes exactly when it passes on any conjugate.
The witnesses name basis elements and may move; the status of every
check, and whether a (co)unit exists, may not.  Inputs are the gallery's
standard pairs and seeded random pairs over Q and GF(5), each as built
or with one entry of one of its four tensors shifted, conjugated by
random invertible matrices on both components.
"""

import random
from functools import cache

from hypothesis import given, settings, strategies as st

from dorroh.algebra import Algebra, BimoduleAction, DorrohPairAlgebra, check_associativity, check_dorroh_pair_algebra
from dorroh.coalgebra import (
    BicomoduleCoaction,
    Coalgebra,
    DorrohPairCoalgebra,
    check_coassociativity,
    check_dorroh_pair_coalgebra,
)
from dorroh.fields import GF, QQ
from dorroh.gallery import (
    conjugate_algebra_pair,
    conjugate_coalgebra_pair,
    random_invertible,
    standard_algebra_pairs,
    standard_coalgebra_pairs,
)
from dorroh.tensors import SparseTensor3

from support import random_algebra_pair, random_coalgebra_pair

FIELDS = [QQ, GF(5)]


@cache
def _standard(side, field):
    pairs = standard_algebra_pairs(field) if side == "algebra" else standard_coalgebra_pairs(field)
    return [pair for _, pair in pairs]


def _algebra_parts(pair):
    return [pair.A.mul, pair.I.mul, pair.action.left, pair.action.right]


def _algebra_pair(field, parts):
    mul_a, mul_i, left, right = parts
    A, I = Algebra(mul_a.dims[0], mul_a, field), Algebra(mul_i.dims[0], mul_i, field)
    return DorrohPairAlgebra(A, I, BimoduleAction(A, I.dim, left, right))


def _coalgebra_parts(pair):
    return [pair.C.delta, pair.P.delta, pair.coaction.rho_l, pair.coaction.rho_r]


def _coalgebra_pair(field, parts):
    delta_c, delta_p, rho_l, rho_r = parts
    C, P = Coalgebra(delta_c.dims[0], delta_c, field), Coalgebra(delta_p.dims[0], delta_p, field)
    return DorrohPairCoalgebra(C, P, BicomoduleCoaction(C, P.dim, rho_l, rho_r))


SIDES = {
    "algebra": (
        random_algebra_pair,
        conjugate_algebra_pair,
        _algebra_parts,
        _algebra_pair,
        lambda pair: [check_associativity(pair.A), check_associativity(pair.I), check_dorroh_pair_algebra(pair)],
        lambda pair: (pair.A.find_identity() is not None, pair.I.find_identity() is not None),
    ),
    "coalgebra": (
        random_coalgebra_pair,
        conjugate_coalgebra_pair,
        _coalgebra_parts,
        _coalgebra_pair,
        lambda pair: [check_coassociativity(pair.C), check_coassociativity(pair.P), check_dorroh_pair_coalgebra(pair)],
        lambda pair: (pair.C.find_counit() is not None, pair.P.find_counit() is not None),
    ),
}


def _statuses(side, pair):
    *_, checks, unital = SIDES[side]
    return [[(c.name, c.ok) for c in report.checks] for report in checks(pair)], unital(pair)


@st.composite
def _cases(draw, side):
    """A pair as built or with one tensor entry shifted, and the pair
    conjugated by random invertible matrices."""
    random_pair, conjugate, parts_of, rebuild, _, _ = SIDES[side]
    field = draw(st.sampled_from(FIELDS))
    if draw(st.booleans()):
        pair = draw(st.sampled_from(_standard(side, field)))
    else:
        pair = random_pair(random.Random(draw(st.integers(0, 2**32))), field, draw(st.integers(2, 8)))
    parts = parts_of(pair)
    which = draw(st.integers(0, len(parts) - 1)) if draw(st.booleans()) else None
    if which is not None and all(parts[which].dims):
        key = tuple(draw(st.integers(0, d - 1)) for d in parts[which].dims)
        entries = dict(parts[which].entries)
        entries[key] = entries.get(key, 0) + draw(st.sampled_from((1, -1, 2)))
        parts[which] = SparseTensor3(parts[which].dims, entries, field)
        pair = rebuild(field, parts)
    rng = random.Random(draw(st.integers(0, 2**32)))
    dims = (parts[0].dims[0], parts[1].dims[0])
    return pair, conjugate(pair, *(random_invertible(rng, n, field) for n in dims))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_cases("algebra"))
def test_algebra_validators_are_invariant_under_conjugation(case):
    pair, conjugated = case
    assert _statuses("algebra", conjugated) == _statuses("algebra", pair)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_cases("coalgebra"))
def test_coalgebra_validators_are_invariant_under_conjugation(case):
    pair, conjugated = case
    assert _statuses("coalgebra", conjugated) == _statuses("coalgebra", pair)
