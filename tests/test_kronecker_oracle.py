"""Every algebra check agrees with its coalgebra check on the Kronecker dual.

The Kronecker dual of an algebra-side tensor is the same tensor with its
legs rotated by ``TO_COALGEBRA`` (multiplication (i,j,k) -> (k,i,j),
actions (a,y,x) and (y,a,x) -> (x,a,y) and (x,y,a)).  An identity of
the algebra side holds exactly when the dual identity holds on the
rotated tensors, so each of the 22 algebra checks and the coalgebra check
it dualises to must pass or fail together.  This runs both sides on
seeded random pairs and on single-entry perturbations of every tensor,
building the coalgebra objects directly (``dualize_algebra_pair``
rejects invalid pairs), and compares the status of every check by name.

The constructions commute with the dual too: where the algebra side
builds an extension, a glued module or an associator, the coalgebra side
builds the rotated tensors, and the found counit is the found unit.
"""

import random

from hypothesis import given, settings, strategies as st

from dorroh.algebra import (
    Algebra,
    BimoduleAction,
    DorrohPairAlgebra,
    ModuleOverAlgebra,
    assemble_module,
    build_dorroh_algebra,
    check_associativity,
    check_dorroh_pair_algebra,
    check_iterated_algebra_triple,
    regular_bimodule,
)
from dorroh.coalgebra import (
    BicomoduleCoaction,
    Coalgebra,
    ComoduleOverCoalgebra,
    DorrohPairCoalgebra,
    assemble_comodule,
    build_dorroh_coalgebra,
    check_coassociativity,
    check_dorroh_pair_coalgebra,
    check_iterated_coalgebra_triple,
)
from dorroh.tensors import TO_COALGEBRA
from dorroh.errors import ValidationFailure
from dorroh.fields import GF, QQ
from dorroh.tensors import SparseTensor3, place

from support import random_algebra_pair

ACTION = {
    "(ab)x=a(bx)": "(Delta(x)1)rho_l=(1(x)rho_l)rho_l",
    "x(ab)=(xa)b": "(rho_r(x)1)rho_r=(1(x)Delta)rho_r",
    "(ax)b=a(xb)": "(rho_l(x)1)rho_r=(1(x)rho_r)rho_l",
}
# algebra check name -> the coalgebra check name it dualises to
DUAL_NAME = {
    "associativity": "coassociativity",
    **ACTION,
    **{k.replace("x", "m"): v for k, v in ACTION.items()},
    "a(xy)=(ax)y": "eq4",
    "(xa)y=x(ay)": "eq5",
    "(xy)a=x(ya)": "eq3",
    "a(xm)=(ax)m": "(1(x)rho_l^P)rho_l^C=(rho_l(x)1)rho_l^P",
    "x(am)=(xa)m": "(1(x)rho_l^C)rho_l^P=(rho_r(x)1)rho_l^P",
    "(mx)a=m(xa)": "(rho_r^P(x)1)rho_r^C=(1(x)rho_r)rho_r^P",
    "(ma)x=m(ax)": "(rho_r^C(x)1)rho_r^P=(1(x)rho_l)rho_r^P",
    "(am)x=a(mx)": "(rho_l^C(x)1)rho_r^P=(1(x)rho_r^P)rho_l^C",
    "(xm)a=x(ma)": "(rho_l^P(x)1)rho_r^C=(1(x)rho_r^C)rho_l^P",
    "(a1.a3)a2=a1(a3.a2)": "C1-C2-bicomodule",
    "(a2.a3)a1=a2(a3.a1)": "C2-C1-bicomodule",
    "a1(a2a3)=(a1a2)a3": "eq12",
    "a2(a1a3)=(a2a1)a3": "eq11",
    "(a3a2)a1=a3(a2a1)": "eq14",
    "(a3a1)a2=a3(a1a2)": "eq13",
    "multiplicative": "comultiplicative",
    "invertible": "invertible",
}
DUAL_PREFIX = {
    "A-module:": "C-comodule:",
    "I-module:": "P-comodule:",
    "A1A3:": "C1C3:",
    "A2A3:": "C2C3:",
    "left-bracketing:": "left-bracketing:",
    "right-bracketing:": "right-bracketing:",
    "associator:": "coassociator:",
}
FIELDS = (QQ, GF(3), GF(5))
SIDES = ("left", "right", "bi")


def _dual_name(name):
    prefix, sep, rest = name.rpartition(":")
    return DUAL_PREFIX[prefix + sep] + DUAL_NAME[rest] if sep else DUAL_NAME[name]


def _rot(t):
    """The Kronecker dual of an algebra-side tensor, laid out directly."""
    if t is None:
        return None
    return place(tuple(t.dims[o] for o in TO_COALGEBRA), t.field, (t, (0, 0, 0), TO_COALGEBRA))


def _run(fn, *args):
    """The output (None when it raised) and the outcome (raised, {check
    name: ok}) of a report-returning or raising call."""
    try:
        out = fn(*args)
    except ValidationFailure as err:
        return None, (True, {c.name: c.ok for c in err.report.checks})
    report = out[0] if isinstance(out, tuple) else out
    checks = getattr(report, "checks", ())  # assemble_* returns the glued (co)module
    return out, (False, {c.name: c.ok for c in checks})


def _outcome(fn, *args):
    return _run(fn, *args)[1]


def _assert_dual(alg, co):
    raised, checks = alg
    assert co == (raised, {_dual_name(name): ok for name, ok in checks.items()})


def _bent(t, draw):
    """``t`` with one drawn entry shifted by a drawn nonzero integer."""
    if 0 in t.dims:
        return t
    key = tuple(draw(st.integers(0, d - 1)) for d in t.dims)
    entries = dict(t.entries)
    entries[key] = entries.get(key, 0) + draw(st.sampled_from((1, -1, 2)))
    return SparseTensor3(t.dims, entries, t.field)


def _bend_one(tensors, draw):
    """``tensors`` with at most one of them, drawn by name, perturbed."""
    slot = draw(st.sampled_from((None, *tensors)))
    return {k: _bent(t, draw) if k == slot and t is not None else t for k, t in tensors.items()}


def _coalgebra(a):
    return Coalgebra(a.dim, _rot(a.mul), a.field)


def _copair(A, I, left, right):
    C = _coalgebra(A)
    return DorrohPairCoalgebra(C, _coalgebra(I), BicomoduleCoaction(C, I.dim, _rot(left), _rot(right)))


def _check_pair_level(pair, draw):
    t = _bend_one({"A": pair.A.mul, "I": pair.I.mul, "left": pair.action.left, "right": pair.action.right}, draw)
    A = Algebra(pair.A.dim, t["A"], pair.field)
    I = Algebra(pair.I.dim, t["I"], pair.field)
    for a in (A, I):
        _assert_dual(_outcome(check_associativity, a), _outcome(check_coassociativity, _coalgebra(a)))
    apair = DorrohPairAlgebra(A, I, BimoduleAction(A, I.dim, t["left"], t["right"]))
    copair = _copair(A, I, t["left"], t["right"])
    alg = _outcome(check_dorroh_pair_algebra, apair)
    _assert_dual(alg, _outcome(check_dorroh_pair_coalgebra, copair))
    if all(alg[1].values()):
        built, cobuilt = build_dorroh_algebra(apair), build_dorroh_coalgebra(copair)
        assert cobuilt.delta == _rot(built.mul)
        assert cobuilt.find_counit() == built.find_identity()


def _split(t, slot, n):
    """The blocks of t below and above n along leg ``slot``, each from 0."""
    cut_hi, cut_lo = list(t.dims), [0, 0, 0]
    cut_hi[slot] = cut_lo[slot] = n
    return t.block((0, 0, 0), cut_hi), t.block(cut_lo, t.dims)


def _check_gluing(pair, draw):
    """The action and gluing laws on the extension's regular bimodule
    restricted to A and I, with at most one part perturbed."""
    reg = regular_bimodule(build_dorroh_algebra(pair))
    na, n = pair.A.dim, reg.dim
    la, li = _split(reg.left, 0, na)
    ra, ri = _split(reg.right, 1, na)
    side = draw(st.sampled_from(SIDES))
    parts = {
        "la": la if side != "right" else None,
        "li": li if side != "right" else None,
        "ra": ra if side != "left" else None,
        "ri": ri if side != "left" else None,
    }
    parts = _bend_one({k: t for k, t in parts.items() if t is not None}, draw)
    m_a = ModuleOverAlgebra(pair.A, n, side, left=parts.get("la"), right=parts.get("ra"))
    m_i = ModuleOverAlgebra(pair.I, n, side, left=parts.get("li"), right=parts.get("ri"))
    copair = _copair(pair.A, pair.I, pair.action.left, pair.action.right)
    c_a = ComoduleOverCoalgebra(copair.C, n, side, rho_l=_rot(m_a.left), rho_r=_rot(m_a.right))
    c_i = ComoduleOverCoalgebra(copair.P, n, side, rho_l=_rot(m_i.left), rho_r=_rot(m_i.right))
    for m, c in ((m_a, c_a), (m_i, c_i)):
        _assert_dual(_outcome(m.validate), _outcome(c.validate))
    glued, alg = _run(assemble_module, pair, m_a, m_i, side)
    coglued, co = _run(assemble_comodule, copair, c_a, c_i, side)
    _assert_dual(alg, co)
    if glued is not None:
        assert coglued.coalgebra.delta == _rot(glued.algebra.mul)
        assert (coglued.rho_l, coglued.rho_r) == (_rot(glued.left), _rot(glued.right))


def _check_triple(pair, draw):
    """The triple (A, I, I) with the pair's action twice and I's regular
    bimodule, at most one of the six action tensors perturbed."""
    A, I, act = pair.A, pair.I, pair.action
    t = _bend_one(
        {"l12": act.left, "r12": act.right, "l13": act.left, "r13": act.right, "l23": I.mul, "r23": I.mul},
        draw,
    )
    acts = [(A, t["l12"], t["r12"]), (A, t["l13"], t["r13"]), (I, t["l23"], t["r23"])]
    a_acts = [BimoduleAction(owner, I.dim, left, right) for owner, left, right in acts]
    C, P = _coalgebra(A), _coalgebra(I)
    c_acts = [
        BicomoduleCoaction(co, I.dim, _rot(left), _rot(right))
        for co, (_, left, right) in zip((C, C, P), acts)
    ]
    out, alg = _run(check_iterated_algebra_triple, A, I, I, *a_acts)
    coout, co = _run(check_iterated_coalgebra_triple, C, P, P, *c_acts)
    _assert_dual(alg, co)
    if out is not None and out[1] is not None:
        associator, coassociator = out[1], coout[1]
        assert coassociator.source.delta == _rot(associator.source.mul)
        assert coassociator.target.delta == _rot(associator.target.mul)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(0, 2**32 - 1), st.sampled_from(FIELDS))
def test_every_check_agrees_with_its_kronecker_dual(data, seed, field):
    pair = random_algebra_pair(random.Random(seed), field, max_total_dim=6)
    _check_pair_level(pair, data.draw)
    _check_gluing(pair, data.draw)
    _check_triple(pair, data.draw)


def test_the_name_map_covers_every_check_once():
    assert len(DUAL_NAME) == 24 and len(set(DUAL_NAME.values())) == 21
