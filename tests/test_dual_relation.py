"""The paper's dual relation between the two kinds of Dorroh extension, on
finite pieces of the finite dual k[x]° of k[x], across findual, coalgebra
and duality.

For a recurrent functional f on k[x] with f(x^n) = s_n, let phi_I be its
restriction to the ideal x k[x] and V_I the shift space of phi_I that
``coproduct_decompose`` finds, and let e be evaluation at x^0.  Then:

  * W = span(e, shifts of f) is a subcoalgebra of k[x]°.  In the reduced
    echelon basis w_a of its value tables, with pivot degrees q_a,
    Delta(w_a) = sum w_a(x^(q_b + q_c)) w_b (x) w_c;
  * P = k phi_I + V_I is the subcoalgebra of (x k[x])° that phi_I
    generates (phi_I need not lie in V_I), and its counital hull (k e, P)
    is a pair of coalgebras;
  * e -> e, P -> P extended by zero at x^0, is an isomorphism of the
    hull's extension onto W;
  * W's dual algebra is k[x]/W^⊥.  As e lies in W, W^⊥ lies in x k[x],
    so k[x]/W^⊥ is the extension of the algebra pair (k, J), J = x k[x]/W^⊥
    with basis the classes of x^(q_a), q_a >= 1.  That pair dualizes to the
    hull (k e, P) through ``duality``, with a verified witness.

The value tables, the echelon bases and J's multiplication are computed
here, by the dense elimination of ``support``; only V_I comes from
``findual``.  The general engine is O(r^3) to O(r^4) on these dense
structures, so the orders stay small.
"""

import random
from fractions import Fraction

import pytest

from dorroh.algebra import Algebra, AlgebraMorphism, build_dorroh_algebra, check_associativity, verify_algebra_morphism
from dorroh.coalgebra import (
    Coalgebra,
    CoalgebraMorphism,
    build_dorroh_coalgebra,
    check_coassociativity,
    check_dorroh_pair_coalgebra,
    verify_coalgebra_morphism,
)
from dorroh.duality import dual_algebra_of_coalgebra, dualize_algebra_pair
from dorroh.fields import GF, QQ
from dorroh.findual import RecurrentSequence, coproduct_decompose
from dorroh.gallery import counital_hull, fibonacci, geometric, scalar_action_pair
from dorroh.linalg import Matrix
from dorroh.tensors import SparseTensor3

from support import dense_rref

F = GF(10007)


def _random_sequence(rng, field):
    order = rng.randint(1, 6)
    scalar = (lambda: rng.randrange(1, F.p)) if field is F else (lambda: Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))))
    initial = [scalar() for _ in range(order + rng.randint(0, 2))]
    initial[0] = initial[0] or 1  # phi_I != 0
    return RecurrentSequence(field, scalar(), initial, [scalar() for _ in range(order)])


def _cases():
    rng = random.Random(24)
    yield "fibonacci", fibonacci(QQ)
    yield "geometric(3)", geometric(3, QQ)
    yield "order3/GF(10007)", RecurrentSequence(F, 5, [1, 2, 3], [4, 5, 6])
    for field in (QQ, F):
        for i in range(3):
            yield f"random{i}/{field!r}", _random_sequence(rng, field)


CASES = list(_cases())


def _echelon(tables, field):
    """The reduced echelon basis of the span of ``tables`` (value tables over
    degrees 0..N) and its pivot degrees."""
    rows = [list(t) for t in tables]
    pivots = dense_rref(rows, len(rows[0]), field)
    return rows[: len(pivots)], pivots


def _structure(basis, pivots):
    """The (a, b, c) -> w_a(x^(q_b + q_c)) entries of a space of functionals
    closed under the coproduct, in its echelon basis w with pivots q."""
    n = len(pivots)
    return {(a, b, c): v for a in range(n) for b in range(n) for c in range(n) if (v := basis[a][pivots[b] + pivots[c]])}


@pytest.mark.parametrize("label, f", CASES, ids=[label for label, _ in CASES])
def test_the_counital_hull_of_phi_i_is_dual_to_k_plus_the_ideal_part_of_k_x_mod_w_perp(label, f):
    field, L = f.field, len(f.initial)
    top = 2 * L + 6  # past twice every pivot, and past the L + 1 values that fix a table
    phi_i = RecurrentSequence(field, None, f.initial, f.coeffs)

    # W = span(e, shifts of f): its shift space is spanned by the first L + 2 shifts
    e = [1] + [0] * top
    W_basis, q = _echelon([e] + [[f.value(n + j) for n in range(top + 1)] for j in range(L + 2)], field)
    assert q[0] == 0 and W_basis[0] == e and 2 * q[-1] <= top
    nw = len(q)
    W = Coalgebra(nw, SparseTensor3((nw, nw, nw), _structure(W_basis, q), field), field)
    assert check_coassociativity(W).ok
    assert W.find_counit() == [1] + [0] * (nw - 1)

    # P = k phi_I + V_I, from findual's basis of V_I, tables extended by zero at x^0
    V_I = coproduct_decompose(phi_i).left
    P_basis, r = _echelon([[0] + h.prefix(top) for h in [phi_i, *V_I]], field)
    m = len(r)
    assert m >= len(V_I) >= 1
    P = Coalgebra(m, SparseTensor3((m, m, m), _structure(P_basis, r), field), field)
    hull = counital_hull(P)
    assert check_dorroh_pair_coalgebra(hull).ok

    # e -> e, p -> p extended by zero: column j holds the image's values at W's pivots
    images = [e, *P_basis]
    iso = CoalgebraMorphism(build_dorroh_coalgebra(hull), W, Matrix(nw, 1 + m, [[g[qa] for g in images] for qa in q], field))
    assert nw == 1 + m
    assert verify_coalgebra_morphism(iso, iso=True).ok and iso.verified == "iso"

    # J = x k[x]/W^⊥ on the classes of x^(q_a), q_a >= 1: x^(q_b) x^(q_c) = sum_a w_a(x^(q_b + q_c)) x^(q_a)
    J_mul = {(b - 1, c - 1, a - 1): v for (a, b, c), v in _structure(W_basis, q).items() if min(a, b, c) >= 1}
    J = Algebra(m, SparseTensor3((m, m, m), J_mul, field), field)
    assert check_associativity(J).ok
    pair = scalar_action_pair(field, J)
    # k |x J is k[x]/W^⊥, the dual algebra of W, on the same basis
    quotient = AlgebraMorphism(build_dorroh_algebra(pair), dual_algebra_of_coalgebra(W), Matrix.identity(nw, field))
    assert verify_algebra_morphism(quotient, iso=True).ok

    dual, witness = dualize_algebra_pair(pair)
    assert witness.forward.verified == "iso"
    assert dual == hull
