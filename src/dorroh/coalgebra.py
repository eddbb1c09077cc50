"""Coalgebras by structure constants and their Dorroh extensions.

Conventions:
  * ``delta`` entry (k,i,j) -> c means Delta(e_k) contains c e_i (x) e_j.
  * Coactions on a carrier P: ``rho_l`` (x,c,y) -> a means rho_l(f_x)
    contains a e_c (x) f_y; ``rho_r`` (x,y,c) -> a means rho_r(f_x)
    contains a f_y (x) e_c.
  * Extensions order the basis C-block first, then P-block; the
    comultiplication of the extension restricted to the P-block carries
    the rho_l, rho_r and Delta_P terms.  The classes' shared code, the
    extension, split, morphism law, gluing and iterated triple are those
    of ``algebra.py``, with every block rotated by ``TO_COALGEBRA``, the
    Kronecker dual, and one input leg where an algebra has two.

Coalgebras need not be counital; a coideal is a subspace P with
Delta(P) inside D(x)P + P(x)D (the non-counital sense, which keeps the
P(x)P term available).
"""

from __future__ import annotations

from .algebra import (
    ACTION_LAWS,
    ASSOCIATIVITY,
    BI,
    PAIR_LAWS,
    Morphism,
    _Action,
    _Module,
    _Pair,
    _Structure,
    _action_laws,
    _acts_as_identity,
    _assemble,
    _build,
    _convention,
    _iterated_triple,
    _scope,
    _split,
    _split_basis,
    _two_sided_unit,
    _validate,
    _verify,
    _zero_action_pair,
    check_laws,
)
from .errors import InputError, PreconditionError
from .fields import FieldSpec
from .linalg import Matrix
from .reports import Report
from .tensors import TO_ALGEBRA, TO_COALGEBRA, SparseTensor3, first_difference, place, rotate, transport


class Coalgebra(_Structure):
    def __init__(self, dim, delta: SparseTensor3, field: FieldSpec, labels=None, counit=None):
        super().__init__(dim, delta, field, labels, counit)

    def find_counit(self):
        """The unique counit functional in dual coordinates, or None.  Cached.

        The counit of C is the unit of the convolution algebra C*.
        """
        if self._unit == "unset":
            self._unit = _two_sided_unit(rotate(self.delta, TO_ALGEBRA))
        return self._unit


def check_coassociativity(c: Coalgebra) -> Report:
    """(Delta (x) 1) Delta = (1 (x) Delta) Delta on every basis element."""
    return check_laws(Report(), c.field, ASSOCIATIVITY.coalgebra, {"mul": c.delta})


class BicomoduleCoaction(_Action):
    """A coalgebra coacting on a carrier from both sides."""

    def __init__(self, coacting: Coalgebra, carrier_dim: int, rho_l: SparseTensor3, rho_r: SparseTensor3):
        super().__init__(coacting, carrier_dim, rho_l, rho_r)

    def validate(self, memo=None) -> Report:
        """Left/right comodule coassociativity and the bicomodule exchange,
        in ``memo``, decided as ``BimoduleAction.validate`` decides the
        bimodule laws of the Kronecker duals, behind the coassociativity of
        C (``_action_laws``)."""
        return _action_laws(COALGEBRA, self.coacting, self.rho_l, self.rho_r, ACTION_LAWS.coalgebra, memo)


class DorrohPairCoalgebra(_Pair):
    """A pair (C, P) with C coacting on the coalgebra P from both sides."""

    def __init__(self, C: Coalgebra, P: Coalgebra, coaction: BicomoduleCoaction):
        super().__init__(C, P, coaction)

    def validate(self, memo=None) -> Report:
        return _validate(COALGEBRA, self, check_dorroh_pair_coalgebra, memo)


def check_dorroh_pair_coalgebra(pair: DorrohPairCoalgebra, memo=None) -> Report:
    """Bicomodule axioms plus the three compatibility equations between
    the coactions and the comultiplication of P, as ``check_dorroh_pair_algebra``
    deciding each distinct law once in ``memo`` or in a memo of its own."""
    with _scope(memo) as memo:
        tensors = {"mi": pair.P.delta, "left": pair.coaction.rho_l, "right": pair.coaction.rho_r}
        return check_laws(pair.coaction.validate(memo), pair.field, PAIR_LAWS.coalgebra, tensors, memo=memo)


def build_dorroh_coalgebra(pair: DorrohPairCoalgebra) -> Coalgebra:
    """The extension whose Delta on the P-block is
    rho_l + rho_r + Delta_P, read blockwise.

    When the counit eps_C of C is counital on both coactions, (eps_C, 0)
    is the counit of the extension: that check, on the coactions alone,
    stands for the counit law on the whole extension, so the counit is
    stored as found rather than checked again by ``Coalgebra``.
    """
    return _build(COALGEBRA, pair)


class CoalgebraMorphism(Morphism):
    """A linear map between coalgebras; ``verify_coalgebra_morphism`` checks it."""


def verify_coalgebra_morphism(F: CoalgebraMorphism, iso: bool = False) -> Report:
    """Check Delta(F(e_k)) = (F (x) F)(Delta(e_k)) basiswise; optionally invertibility."""
    return _verify(COALGEBRA, F, iso)


def zero_coaction_pair(C: Coalgebra, P: Coalgebra) -> DorrohPairCoalgebra:
    """(C, P) with zero coactions; its extension is the direct product coalgebra.

    Every term of every pair law contains a coaction, so zero coactions
    satisfy them all and the pair carries the all-pass report.
    """
    return _zero_action_pair(COALGEBRA, C, P)


def counit_balance_check(pair: DorrohPairCoalgebra, eps_p) -> Report:
    """sum p_(-1) eps_P(p_(0)) = sum eps_P(p_(0)) p_(1) for every basis p."""
    eps_p = [pair.field.canon(v) for v in eps_p]
    dp = pair.P.delta
    if len(eps_p) != pair.P.dim or not _acts_as_identity(dp, dp, eps_p, pair.P.dim, TO_COALGEBRA):
        raise PreconditionError("eps_P is not a counit of P")
    # both sides at (x, c, 0)
    eps = Matrix(1, pair.P.dim, [eps_p], pair.field)
    lhs = transport(pair.coaction.rho_l, (None, None, eps)).entries
    rhs = transport(pair.coaction.rho_r, (None, eps, None))
    rhs = place((pair.P.dim, pair.C.dim, 1), pair.field, (rhs, (0, 0, 0), (0, 2, 1))).entries
    return Report().add_witness("sum p(-1)eps(p(0)) = sum eps(p(0))p(1)", first_difference(lhs, rhs, 1))


def counital_split_iso(pair: DorrohPairCoalgebra) -> CoalgebraMorphism:
    """When P is counital, zeta(c,p) = (c,p) - (sum p_(-1) eps_P(p_(0)), 0)
    maps C|xP onto the direct product C x P."""
    eps_p = pair.P.find_counit()
    if eps_p is None:
        raise PreconditionError("P has no counit")
    pair.require_valid()
    nc, np_ = pair.C.dim, pair.P.dim
    field = pair.field
    source = build_dorroh_coalgebra(pair)
    target = build_dorroh_coalgebra(zero_coaction_pair(pair.C, pair.P))
    n = nc + np_
    # zeta^T: the identity, and -sum p_(-1) eps_P(p_(0)) below it in column c
    columns = [[(j, 1)] for j in range(n)]
    eps = Matrix(1, np_, [eps_p], field)
    for (x, c, _), v in sorted(transport(pair.coaction.rho_l, (None, None, eps)).entries.items()):
        columns[c].append((nc + x, field.canon(-v)))  # -v is not canonical over F_p
    zeta = CoalgebraMorphism(source, target, Matrix._canonical(n, n, columns, field).transpose())
    verify_coalgebra_morphism(zeta, iso=True).require("counital split isomorphism failed verification")
    return zeta


def split_coalgebra_extension(D: Coalgebra, c_basis, p_basis):
    """Recover the Dorroh pair from a splitting D = span(c_basis) + span(p_basis).

    Requires the C-span to be a subcoalgebra and the P-span a coideal;
    extracts Delta_P, rho_l, rho_r by projecting Delta of D, and returns
    the pair with the verified isomorphism C|xP -> D, (c,p) -> c + p.
    """
    S, T, nc = _split_basis(COALGEBRA, D, c_basis, p_basis, "D")
    split = T.entries  # (k, a, b) -> v means Delta(s_k) contains v s_a (x) s_b

    Report().add_witness(
        "C_subcoalgebra", min(((k,) for k, a, b in split if k < nc and (a >= nc or b >= nc)), default=None)
    ).require("C-span is not a subcoalgebra")

    Report().add_witness(
        "P_coideal", min(((k - nc,) for k, a, b in split if k >= nc and a < nc and b < nc), default=None)
    ).require("P-span is not a coideal")

    # The subcoalgebra and coideal properties leave every entry in one of four blocks.
    return _split(COALGEBRA, build_dorroh_coalgebra, verify_coalgebra_morphism, D, S, T, nc)


def universal_map_coalgebra(
    pair: DorrohPairCoalgebra, D: Coalgebra, phi: CoalgebraMorphism, f: CoalgebraMorphism
) -> CoalgebraMorphism:
    """The unique map D -> C|xP with eta(d) = (phi(d), f(d)), given a Dorroh
    pair homomorphism (phi, f) from the regular pair (D, D)."""
    if phi.verified not in ("hom", "iso") or f.verified not in ("hom", "iso"):
        raise PreconditionError("phi and f must be verified homomorphisms")
    if phi.source != D or f.source != D or phi.target != pair.C or f.target != pair.P:
        raise InputError("phi must map D to C and f must map D to P")
    pair.require_valid()
    field = pair.field
    fm, pm = f.matrix, phi.matrix
    ft = fm.transpose()
    conds = Report()
    for name, coaction, legs in (
        ("rho_l(f(d))=(phi(x)f)Delta(d)", pair.coaction.rho_l, (None, pm, fm)),
        ("rho_r(f(d))=(f(x)phi)Delta(d)", pair.coaction.rho_r, (None, fm, pm)),
    ):
        image = transport(coaction, (ft, None, None)).entries
        conds.add_witness(name, first_difference(image, transport(D.delta, legs).entries, 1))
    conds.require("not a Dorroh pair homomorphism")

    target = build_dorroh_coalgebra(pair)
    # d -> (phi(d), f(d)): each column of phi above the same column of f
    nc = pm.rows
    columns = [pc + [(nc + i, v) for i, v in fc] for pc, fc in zip(pm.columns, fm.columns)]
    eta = CoalgebraMorphism(D, target, Matrix._canonical(target.dim, D.dim, columns, field))
    verify_coalgebra_morphism(eta).require("universal map failed verification")
    return eta


class ComoduleOverCoalgebra(_Module):
    """A left/right/bi comodule by coaction structure constants.

    ``rho_l`` (m,c,m') -> a: rho_l(v_m) contains a e_c (x) v_{m'};
    ``rho_r`` (m,m',c) -> a: rho_r(v_m) contains a v_{m'} (x) e_c.
    """

    def __init__(self, coalgebra: Coalgebra, dim: int, side: str, rho_l=None, rho_r=None):
        super().__init__(coalgebra, dim, side, rho_l, rho_r)


COALGEBRA = _convention(
    name="coalgebra", co="co", order=TO_COALGEBRA, inputs=1, structure=Coalgebra, tensor="delta", unit="counit",
    unit_law="counit", find_unit="find_counit", morphism=CoalgebraMorphism, pair=DorrohPairCoalgebra,
    parts=(("c", "C"), ("p", "P")), action="coaction", action_type=BicomoduleCoaction, actions=("rho_l", "rho_r"),
    labels=("rho_l", "rho_r", "a coaction"), module=ComoduleOverCoalgebra,
)


def regular_bicomodule(c: Coalgebra) -> ComoduleOverCoalgebra:
    """C coacting on itself by its comultiplication."""
    return ComoduleOverCoalgebra(c, c.dim, BI, rho_l=c.delta, rho_r=c.delta)


def assemble_comodule(
    pair: DorrohPairCoalgebra, com_c: ComoduleOverCoalgebra, com_p: ComoduleOverCoalgebra, side: str
) -> ComoduleOverCoalgebra:
    """Glue a C-comodule and a P-comodule on one carrier into a C|xP-comodule,
    after checking the mixed coassociativity identities."""
    return _assemble(COALGEBRA, build_dorroh_coalgebra, pair, com_c, com_p, side)


def pushforward_pair(pair: DorrohPairCoalgebra, f: CoalgebraMorphism) -> DorrohPairCoalgebra:
    """Transport the coaction along a coalgebra map C -> D, giving the pair (D, P)."""
    if f.verified not in ("hom", "iso"):
        raise PreconditionError("f must be a verified coalgebra homomorphism")
    if f.source != pair.C:
        raise InputError("f must have source C")
    D = f.target
    m = f.matrix
    rho_l = transport(pair.coaction.rho_l, (None, m, None))
    rho_r = transport(pair.coaction.rho_r, (None, None, m))
    out = DorrohPairCoalgebra(D, pair.P, BicomoduleCoaction(D, pair.P.dim, rho_l, rho_r))
    out.require_valid()
    return out


def check_iterated_coalgebra_triple(
    c1: Coalgebra,
    c2: Coalgebra,
    c3: Coalgebra,
    co12: BicomoduleCoaction,
    co13: BicomoduleCoaction,
    co23: BicomoduleCoaction,
):
    """Conditions for (C1|xC2, C3) to be a Dorroh pair, and on success the
    coassociator isomorphism (C1|xC2)|xC3 -> C1|x(C2|xC3).

    As ``check_iterated_algebra_triple``: the two bracketed pairs are
    reached only when (C1, C2), (C1, C3), (C2, C3) and the six mixed laws
    pass, which prove every bracketing identity, so they carry the
    all-pass report; the coassociator is still verified.
    """
    return _iterated_triple(COALGEBRA, build_dorroh_coalgebra, verify_coalgebra_morphism, c1, c2, c3, co12, co13, co23)
