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

So do morphisms and splits, the two checks that carry tensors through a
matrix: F: A -> B is an algebra map exactly when F^T: B* -> A* is a
coalgebra map, and a split of B along coordinate blocks succeeds exactly
when the same split of B* does, into the dual pair.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

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
    regular_bimodule,
    split_algebra_extension,
    verify_algebra_morphism,
)
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
    split_coalgebra_extension,
    verify_coalgebra_morphism,
)
from dorroh.duality import dual_coalgebra_of_algebra, dualize_algebra_pair
from dorroh.tensors import TO_COALGEBRA
from dorroh.errors import ValidationFailure
from dorroh.fields import GF, QQ
from dorroh.gallery import conjugate_algebra, random_invertible
from dorroh.linalg import Matrix, invert
from dorroh.tensors import SparseTensor3, place

from support import basis, random_algebra_pair

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


# ---------------------------------------------------------------------------
# morphisms and splits against their duals


ORACLE_FIELDS = (QQ, GF(2), GF(7), GF(10007))


def _scalar(rng, field):
    return rng.randrange(field.p) if field.p else rng.randint(-2, 2)


def _difference_set(F):
    """Every (i, j, k) with F(e_i e_j) != F(e_i) F(e_j) at coordinate k,
    from dense sums over the two multiplications."""
    A, B, M = F.source, F.target, F.matrix.dense()
    canon = A.field.canon
    image = {}  # F(e_i e_j)
    for (i, j, l), c in A.mul.entries.items():
        for k in range(B.dim):
            image[i, j, k] = image.get((i, j, k), 0) + c * M[k][l]
    out = set()
    for i in range(A.dim):
        for j in range(A.dim):
            product = [0] * B.dim  # F(e_i) F(e_j)
            for (p, q, k), c in B.mul.entries.items():
                product[k] += c * M[p][i] * M[q][j]
            out.update((i, j, k) for k in range(B.dim) if canon(image.get((i, j, k), 0) - product[k]))
    return out


def _morphism_case(rng, field):
    """A map into or out of a random pair's extension E: an algebra map
    (the identity carried to a conjugate of E, the projection E -> A, the
    inclusion A -> E or the zero map), half the time with one entry bent,
    or a random matrix, singular or not, onto a conjugate of E."""
    pair = random_algebra_pair(rng, field, max_total_dim=5)
    E = build_dorroh_algebra(pair)
    n, na = E.dim, pair.A.dim
    source, target = E, E
    kind = rng.randrange(5)
    if kind == 0:
        S = random_invertible(rng, n, field)
        target = conjugate_algebra(E, S)
        M = invert(S).dense()
    elif kind == 1:
        target = pair.A
        M = [[int(r == c) for c in range(n)] for r in range(na)]
    elif kind == 2:
        source = pair.A
        M = [[int(r == c) for c in range(na)] for r in range(n)]
    elif kind == 3:
        M = [[0] * n for _ in range(n)]
    else:
        target = conjugate_algebra(E, random_invertible(rng, n, field))
        M = [[_scalar(rng, field) for _ in range(n)] for _ in range(n)]
    if kind < 4 and rng.random() < 0.5:
        r, c = rng.randrange(len(M)), rng.randrange(len(M[0]))
        M[r][c] += rng.choice((1, 2))
    return AlgebraMorphism(source, target, Matrix(target.dim, source.dim, M, field))


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_a_morphism_holds_exactly_when_its_transpose_holds_on_the_duals(field):
    rng = random.Random(2024)
    outcomes = []
    for _ in range(100):
        F = _morphism_case(rng, field)
        dual = CoalgebraMorphism(
            dual_coalgebra_of_algebra(F.target), dual_coalgebra_of_algebra(F.source), F.matrix.transpose()
        )
        alg, co = verify_algebra_morphism(F).checks, verify_coalgebra_morphism(dual).checks
        assert [c.name for c in alg] == ["multiplicative"] and [c.name for c in co] == ["comultiplicative"]
        # one difference set: F at (i, j) in A and coordinate k in B is
        # F^T at k in B* and the coordinates (i, j) in A*
        diff = _difference_set(F)
        assert alg[0].witness == min(((i, j) for i, j, _ in diff), default=None)
        assert co[0].witness == min(((k,) for _, _, k in diff), default=None)
        assert alg[0].ok == co[0].ok == (not diff)
        outcomes.append(alg[0].ok)
    assert 10 <= sum(outcomes) <= 90


def _split_case(rng, field):
    """An extension, sometimes carried to a random basis, with its basis
    vectors in a random order cut into an acting and a carrier block: at
    the pair's acting dim and within the two blocks, or anywhere."""
    pair = random_algebra_pair(rng, field, max_total_dim=6)
    B = build_dorroh_algebra(pair)
    n, na = B.dim, pair.A.dim
    if rng.random() < 0.2:
        B = conjugate_algebra(B, random_invertible(rng, n, field))
    if rng.random() < 0.7:
        order = rng.sample(range(na), na) + rng.sample(range(na, n), n - na)
    else:
        order, na = rng.sample(range(n), n), rng.randint(0, n)
    return B, order, na


def _split_outcome(split, B, blocks):
    """The split's pair and isomorphism, or the name and witness of the check that failed."""
    try:
        return split(B, *blocks)
    except ValidationFailure as err:
        check = err.report.first_failure()
        return check.name, check.witness


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_a_split_holds_exactly_when_its_dual_split_holds(field):
    """Coordinate blocks order the basis by a permutation S, and S^-T = S,
    so the dual basis splits B* along the same blocks.  In that basis the
    entries (u, v, w) of B with u, v acting and w carrier both leave the
    acting span unclosed and P not a coideal, and those with w acting and
    u or v carrier both leave I no ideal and C not a subcoalgebra; each
    side reports its first check's least witness in its own legs."""
    rng = random.Random(2025)
    split = 0
    for _ in range(75):
        B, order, na = _split_case(rng, field)
        vectors = [basis(B, i) for i in order]
        blocks = vectors[:na], vectors[na:]
        at = {i: u for u, i in enumerate(order)}
        T = [(at[i], at[j], at[k]) for i, j, k in B.mul.entries]
        unclosed = [(u, v, w) for u, v, w in T if u < na and v < na and w >= na]
        no_ideal = [(u, v, w) for u, v, w in T if w < na and (u >= na or v >= na)]
        out = _split_outcome(split_algebra_extension, B, blocks)
        coout = _split_outcome(split_coalgebra_extension, dual_coalgebra_of_algebra(B), blocks)
        if unclosed:
            assert out == ("A_closed", min((u, v) for u, v, _ in unclosed))
        elif no_ideal:
            assert out == ("I_ideal", min((u >= na, v >= na, u, v) for u, v, _ in no_ideal)[2:])
        if no_ideal:
            assert coout == ("C_subcoalgebra", min((w,) for _, _, w in no_ideal))
        elif unclosed:
            assert coout == ("P_coideal", min((w - na,) for _, _, w in unclosed))
        if not unclosed and not no_ideal:
            (pair, iso), (copair, coiso) = out, coout
            assert dualize_algebra_pair(pair)[0] == copair
            assert iso.matrix == coiso.matrix and iso.verified == coiso.verified == "iso"
            split += 1
    assert 15 <= split <= 70
