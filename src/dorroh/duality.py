"""Exact duality between finite-dimensional algebras and coalgebras.

Dual bases are always the Kronecker duals of the stored bases, so every
duality isomorphism below has the identity matrix and verification
isolates structure-constant correctness.  Each dual is written once, from
a source side to a destination side (the ``Convention`` records ``ALGEBRA``
and ``COALGEBRA``), as the leg rotation ``tensors.rotate`` between their
layouts: an algebra-side tensor (multiplication (i,j,k), actions (a,y,x)
and (y,a,x)) becomes its coalgebra-side dual by ``TO_COALGEBRA`` = (2,0,1),
giving (k,i,j), (x,a,y) and (x,y,a); a coalgebra-side tensor goes back by
``TO_ALGEBRA`` = (1,2,0).  The same rotation turns every algebra law into
its coalgebra law (``algebra._laws``).

A basis change commutes with the duality: when the basis changes by S
(e'_j = sum_i S[i][j] e_i), the Kronecker dual basis changes by S^-T.  Each
side carries its tensor by S^T on input legs and S^-1 on output legs
(``Convention.legs``), and the dual swaps inputs and outputs, so
conjugating a structure by S is conjugating its dual by S^-T.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    ALGEBRA,
    Algebra,
    AlgebraMorphism,
    DorrohPairAlgebra,
    ModuleOverAlgebra,
    _derived,
    _unit_law,
    build_dorroh_algebra,
    verify_algebra_morphism,
)
from .coalgebra import (
    COALGEBRA,
    Coalgebra,
    CoalgebraMorphism,
    ComoduleOverCoalgebra,
    DorrohPairCoalgebra,
    build_dorroh_coalgebra,
    verify_coalgebra_morphism,
)
from .linalg import Matrix
from .tensors import rotate

PAIRING_CONVENTION = "Kronecker dual bases e_i* with e_i*(e_j) = delta_ij"


@dataclass
class DualityWitness:
    forward: object  # AlgebraMorphism or CoalgebraMorphism, verified iso
    convention: str = PAIRING_CONVENTION


def _turn(src, dst) -> tuple:
    """The leg order taking a tensor in ``src``'s layout to its dual in ``dst``'s."""
    return tuple(src.order.index(o) for o in dst.order)


def _dual(src, dst, s):
    """The dual of the ``src``-side structure s, on side ``dst``.  The unit
    of one side is the counit of the other: finding the dual's solves the
    same system on the same tensor, rotated back, so the dual takes s's,
    None included, unchecked."""
    tensor = rotate(getattr(s, src.tensor), _turn(src, dst))
    labels = None if s.labels is None else [lab + "*" for lab in s.labels]
    dual = dst.structure(s.dim, tensor, s.field, labels=labels)
    dual._unit = getattr(s, src.find_unit)()
    return dual


def dual_algebra_of_coalgebra(c: Coalgebra) -> Algebra:
    """The convolution algebra C* with (fg)(x) = sum f(x_1) g(x_2)."""
    return _dual(COALGEBRA, ALGEBRA, c)


def dual_coalgebra_of_algebra(a: Algebra) -> Coalgebra:
    """A* with comultiplication m*, the transpose of the multiplication."""
    return _dual(ALGEBRA, COALGEBRA, a)


def _dual_module(src, dst, m):
    # rho_l(v_x*)(e_a (x) v_y) = v_x*(a . v_y), and back:
    # (e_c* . v_x*)(v_y) = sum e_c*(y_(-1)) v_x*(y_(0)); mirrored on the right.
    turn = _turn(src, dst)
    tensors = {key: rotate(t, turn) for key, t in zip(dst.actions, src.tensors(m))}
    return dst.module(_dual(src, dst, getattr(m, src.name)), m.dim, m.side, **tensors)


def dual_actions(m: ModuleOverAlgebra) -> ComoduleOverCoalgebra:
    """Dualize a module into a comodule over the dual coalgebra, same side."""
    return _dual_module(ALGEBRA, COALGEBRA, m)


def dual_coactions(com: ComoduleOverCoalgebra) -> ModuleOverAlgebra:
    """Dualize a comodule into a module over the convolution algebra, same side."""
    return _dual_module(COALGEBRA, ALGEBRA, com)


def _dualize_pair(src, dst, pair, build, build_dual, verify):
    """The dual of a valid ``src``-side pair, which carries the all-pass
    report, and the verified identity map from the dual of its extension
    to the extension of its dual.  The counit law of the dual action is
    the unit law of the action, so the dual action takes its decision."""
    pair.require_valid()
    acting, carrier, left, right = src.parts_of(pair)
    turn = _turn(src, dst)
    a_dual, i_dual = _dual(src, dst, acting), _dual(src, dst, carrier)
    action = dst.action_type(a_dual, carrier.dim, rotate(left, turn), rotate(right, turn))
    dual = dst.pair(a_dual, i_dual, action)
    unit = a_dual._unit  # acting's, taken by its dual
    _derived(dst, dual, _unit_law(src, pair, unit))

    identity = Matrix.identity(acting.dim + carrier.dim, pair.field)
    forward = dst.morphism(_dual(src, dst, build(pair)), build_dual(dual), identity)
    verify(forward, iso=True).require(f"{src.name}-pair duality witness failed")
    return dual, DualityWitness(forward)


def dualize_algebra_pair(pair: DorrohPairAlgebra):
    """(A, I) -> the coalgebra pair (A*, I*) and the verified isomorphism
    (A|xI)* -> A*|xI*, phi -> (phi_A, phi_I).

    (A, I) is a pair of algebras exactly when (A*, I*) is a pair of
    coalgebras: each coalgebra law is the algebra law on the rotated
    tensors.  So once (A, I) is valid the dual pair carries the all-pass
    report; the isomorphism is still verified.
    """
    return _dualize_pair(
        ALGEBRA, COALGEBRA, pair, build_dorroh_algebra, build_dorroh_coalgebra, verify_coalgebra_morphism
    )


def dualize_coalgebra_pair(pair: DorrohPairCoalgebra):
    """(C, P) -> the algebra pair (C*, P*) and the verified isomorphism
    (C|xP)* -> C*|xP*, f -> (f_C, f_P).

    As ``dualize_algebra_pair``, the dual of a valid pair carries the
    all-pass report; the isomorphism is still verified.
    """
    return _dualize_pair(
        COALGEBRA, ALGEBRA, pair, build_dorroh_coalgebra, build_dorroh_algebra, verify_algebra_morphism
    )


def _double_dual_iso(side, other, x, verify):
    double = _dual(other, side, _dual(side, other, x))
    forward = side.morphism(x, double, Matrix.identity(x.dim, x.field))
    verify(forward, iso=True).require("double dual evaluation failed verification")
    return forward


def double_dual_iso(a: Algebra) -> AlgebraMorphism:
    """The evaluation map A -> A**, an isomorphism in finite dimension."""
    return _double_dual_iso(ALGEBRA, COALGEBRA, a, verify_algebra_morphism)


def double_dual_iso_coalgebra(c: Coalgebra) -> CoalgebraMorphism:
    """The evaluation map C -> C**, an isomorphism in finite dimension."""
    return _double_dual_iso(COALGEBRA, ALGEBRA, c, verify_coalgebra_morphism)
