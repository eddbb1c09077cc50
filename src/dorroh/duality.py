"""Exact duality between finite-dimensional algebras and coalgebras.

Dual bases are always the Kronecker duals of the stored bases, so every
duality isomorphism below has the identity matrix and verification
isolates structure-constant correctness.  Every dual is the leg rotation
``tensors.rotate``: an algebra-side tensor (multiplication (i,j,k),
actions (a,y,x) and (y,a,x)) becomes its coalgebra-side dual by
``TO_COALGEBRA`` = (2,0,1), giving (k,i,j), (x,a,y) and (x,y,a); a
coalgebra-side tensor goes back by ``TO_ALGEBRA`` = (1,2,0).  The same
rotation turns every algebra law into its coalgebra law (``algebra._laws``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    ACTION_LAWS,
    PAIR_LAWS,
    Algebra,
    AlgebraMorphism,
    BimoduleAction,
    DorrohPairAlgebra,
    ModuleOverAlgebra,
    _passed,
    build_dorroh_algebra,
    verify_algebra_morphism,
)
from .coalgebra import (
    BicomoduleCoaction,
    Coalgebra,
    CoalgebraMorphism,
    ComoduleOverCoalgebra,
    DorrohPairCoalgebra,
    build_dorroh_coalgebra,
    verify_coalgebra_morphism,
)
from .errors import ValidationFailure
from .linalg import Matrix
from .tensors import TO_ALGEBRA, TO_COALGEBRA, rotate

PAIRING_CONVENTION = "Kronecker dual bases e_i* with e_i*(e_j) = delta_ij"


@dataclass
class DualityWitness:
    forward: object  # AlgebraMorphism or CoalgebraMorphism, verified iso
    convention: str = PAIRING_CONVENTION


def _dual_labels(labels):
    if labels is None:
        return None
    return [lab + "*" for lab in labels]


def dual_algebra_of_coalgebra(c: Coalgebra) -> Algebra:
    """The convolution algebra C* with (fg)(x) = sum f(x_1) g(x_2)."""
    mul = rotate(c.delta, TO_ALGEBRA)
    return Algebra(c.dim, mul, c.field, labels=_dual_labels(c.labels), unit=c.find_counit())


def dual_coalgebra_of_algebra(a: Algebra) -> Coalgebra:
    """A* with comultiplication m*, the transpose of the multiplication."""
    delta = rotate(a.mul, TO_COALGEBRA)
    return Coalgebra(a.dim, delta, a.field, labels=_dual_labels(a.labels), counit=a.find_identity())


def dual_actions(m: ModuleOverAlgebra) -> ComoduleOverCoalgebra:
    """Dualize a module into a comodule over the dual coalgebra, same side."""
    # rho_l(v_x*)(e_a (x) v_y) = v_x*(a . v_y), rho_r(v_x*)(v_y (x) e_a) = v_x*(v_y . a)
    return ComoduleOverCoalgebra(
        dual_coalgebra_of_algebra(m.algebra), m.dim, m.side,
        rho_l=rotate(m.left, TO_COALGEBRA), rho_r=rotate(m.right, TO_COALGEBRA),
    )


def dual_coactions(com: ComoduleOverCoalgebra) -> ModuleOverAlgebra:
    """Dualize a comodule into a module over the convolution algebra, same side."""
    # (e_c* . v_x*)(v_y) = sum e_c*(y_(-1)) v_x*(y_(0)), and mirrored on the right.
    return ModuleOverAlgebra(
        dual_algebra_of_coalgebra(com.coalgebra), com.dim, com.side,
        left=rotate(com.rho_l, TO_ALGEBRA), right=rotate(com.rho_r, TO_ALGEBRA),
    )


def dualize_algebra_pair(pair: DorrohPairAlgebra):
    """(A, I) -> the coalgebra pair (A*, I*) and the verified isomorphism
    (A|xI)* -> A*|xI*, phi -> (phi_A, phi_I).

    (A, I) is a pair of algebras exactly when (A*, I*) is a pair of
    coalgebras: each coalgebra law is the algebra law on the rotated
    tensors.  So once (A, I) is valid the dual pair carries the all-pass
    report; the isomorphism is still verified.
    """
    pair.require_valid()
    field = pair.field
    na, ni = pair.A.dim, pair.I.dim
    c_dual = dual_coalgebra_of_algebra(pair.A)
    p_dual = dual_coalgebra_of_algebra(pair.I)
    # rho_l(f_x*)(e_a (x) f_y) = f_x*(a . f_y), and mirrored on the right.
    rho_l = rotate(pair.action.left, TO_COALGEBRA)
    rho_r = rotate(pair.action.right, TO_COALGEBRA)
    copair = DorrohPairCoalgebra(c_dual, p_dual, BicomoduleCoaction(c_dual, ni, rho_l, rho_r))
    copair._report = _passed(ACTION_LAWS.coalgebra, PAIR_LAWS.coalgebra)

    source = dual_coalgebra_of_algebra(build_dorroh_algebra(pair))
    target = build_dorroh_coalgebra(copair)
    forward = CoalgebraMorphism(source, target, Matrix.identity(na + ni, field))
    report = verify_coalgebra_morphism(forward, iso=True)
    if not report.ok:
        raise ValidationFailure(report, "algebra-pair duality witness failed")
    return copair, DualityWitness(forward)


def dualize_coalgebra_pair(pair: DorrohPairCoalgebra):
    """(C, P) -> the algebra pair (C*, P*) and the verified isomorphism
    C*|xP* -> (C|xP)*, (f,g) -> f + g.

    As ``dualize_algebra_pair``, the dual of a valid pair carries the
    all-pass report; the isomorphism is still verified.
    """
    pair.require_valid()
    field = pair.field
    nc, np_ = pair.C.dim, pair.P.dim
    a_dual = dual_algebra_of_coalgebra(pair.C)
    i_dual = dual_algebra_of_coalgebra(pair.P)
    # (e_c* . f_x*)(f_p) = sum e_c*(p_(-1)) f_x*(p_(0)), and mirrored.
    left = rotate(pair.coaction.rho_l, TO_ALGEBRA)
    right = rotate(pair.coaction.rho_r, TO_ALGEBRA)
    apair = DorrohPairAlgebra(a_dual, i_dual, BimoduleAction(a_dual, np_, left, right))
    apair._report = _passed(ACTION_LAWS.algebra, PAIR_LAWS.algebra)

    source = build_dorroh_algebra(apair)
    target = dual_algebra_of_coalgebra(build_dorroh_coalgebra(pair))
    forward = AlgebraMorphism(source, target, Matrix.identity(nc + np_, field))
    report = verify_algebra_morphism(forward, iso=True)
    if not report.ok:
        raise ValidationFailure(report, "coalgebra-pair duality witness failed")
    return apair, DualityWitness(forward)


def double_dual_iso(a: Algebra) -> AlgebraMorphism:
    """The evaluation map A -> A**, an isomorphism in finite dimension."""
    double = dual_algebra_of_coalgebra(dual_coalgebra_of_algebra(a))
    forward = AlgebraMorphism(a, double, Matrix.identity(a.dim, a.field))
    report = verify_algebra_morphism(forward, iso=True)
    if not report.ok:
        raise ValidationFailure(report, "double dual evaluation failed verification")
    return forward


def double_dual_iso_coalgebra(c: Coalgebra) -> CoalgebraMorphism:
    """The evaluation map C -> C**, an isomorphism in finite dimension."""
    double = dual_coalgebra_of_algebra(dual_algebra_of_coalgebra(c))
    forward = CoalgebraMorphism(c, double, Matrix.identity(c.dim, c.field))
    report = verify_coalgebra_morphism(forward, iso=True)
    if not report.ok:
        raise ValidationFailure(report, "double dual evaluation failed verification")
    return forward
