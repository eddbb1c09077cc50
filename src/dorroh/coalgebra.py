"""Coalgebras by structure constants and their Dorroh extensions.

Conventions:
  * ``delta`` entry (k,i,j) -> c means Delta(e_k) contains c e_i (x) e_j.
  * Coactions on a carrier P: ``rho_l`` (x,c,y) -> a means rho_l(f_x)
    contains a e_c (x) f_y; ``rho_r`` (x,y,c) -> a means rho_r(f_x)
    contains a f_y (x) e_c.
  * Extensions order the basis C-block first, then P-block; the
    comultiplication of the extension restricted to the P-block carries
    the rho_l, rho_r and Delta_P terms.  ``place`` lays the four blocks of
    C|xP out in that order and ``block`` reads them back.

Coalgebras need not be counital; a coideal is a subspace P with
Delta(P) inside D(x)P + P(x)D (the non-counital sense, which keeps the
P(x)P term available).
"""

from __future__ import annotations

from .algebra import (
    ACTION_LAWS,
    ASSOCIATIVITY,
    BI,
    GLUING_LAWS,
    LEFT,
    PAIR_LAWS,
    RIGHT,
    SIDES,
    TRIPLE_LAWS,
    Morphism,
    _acts_as_identity,
    _passed,
    _record_verified,
    _two_sided_unit,
    check_laws,
)
from .errors import InputError, PreconditionError, ValidationFailure
from .fields import FieldSpec
from .linalg import Matrix, invert
from .reports import Report
from .tensors import TO_ALGEBRA, TO_COALGEBRA, SparseTensor3, first_difference, place, rotate, transport


class Coalgebra:
    def __init__(self, dim, delta: SparseTensor3, field: FieldSpec, labels=None, counit=None):
        if delta.dims != (dim, dim, dim):
            raise InputError(f"delta tensor dims {delta.dims} do not match dim {dim}")
        if delta.field != field:
            raise InputError("delta tensor field mismatch")
        if labels is not None and len(labels) != dim:
            raise InputError("label count must equal dim")
        self.dim = dim
        self.delta = delta
        self.field = field
        self.labels = list(labels) if labels is not None else None
        self._counit = "unset"
        if counit is not None:
            counit = [field.canon(c) for c in counit]
            if len(counit) != dim or not _acts_as_identity(delta, delta, counit, dim, TO_COALGEBRA):
                raise InputError("cached counit fails the counit law")
            self._counit = counit

    def basis(self, i):
        v = [0] * self.dim
        v[i] = 1
        return v

    def coproduct(self, x):
        """Delta of a coordinate vector, as a dict (i,j) -> coefficient."""
        acc = {}
        for (k, i, j), c in self.delta.entries.items():
            xk = x[k]
            if xk:
                key = (i, j)
                acc[key] = acc.get(key, 0) + xk * c
        canon = self.field.canon
        return {k: cv for k, v in acc.items() if (cv := canon(v)) != 0}

    def find_counit(self):
        """The unique counit functional in dual coordinates, or None.  Cached.

        The counit of C is the unit of the convolution algebra C*.
        """
        if self._counit == "unset":
            self._counit = _two_sided_unit(rotate(self.delta, TO_ALGEBRA))
        return self._counit

    @property
    def counital(self):
        return self.find_counit() is not None

    def __eq__(self, other):
        return (
            isinstance(other, Coalgebra)
            and self.dim == other.dim
            and self.field == other.field
            and self.delta == other.delta
        )

    def __repr__(self):
        return f"Coalgebra(dim={self.dim}, field={self.field!r})"


def check_coassociativity(c: Coalgebra) -> Report:
    """(Delta (x) 1) Delta = (1 (x) Delta) Delta on every basis element."""
    return check_laws(Report(), c.field, ASSOCIATIVITY.coalgebra, {"mul": c.delta})


class BicomoduleCoaction:
    """A coalgebra coacting on a carrier from both sides."""

    def __init__(self, coacting: Coalgebra, carrier_dim: int, rho_l: SparseTensor3, rho_r: SparseTensor3):
        nc = coacting.dim
        if rho_l.dims != (carrier_dim, nc, carrier_dim):
            raise InputError(f"rho_l dims {rho_l.dims} do not match ({carrier_dim},{nc},{carrier_dim})")
        if rho_r.dims != (carrier_dim, carrier_dim, nc):
            raise InputError(f"rho_r dims {rho_r.dims} do not match ({carrier_dim},{carrier_dim},{nc})")
        if rho_l.field != coacting.field or rho_r.field != coacting.field:
            raise InputError("coaction tensor field mismatch")
        self.coacting = coacting
        self.carrier_dim = carrier_dim
        self.rho_l = rho_l
        self.rho_r = rho_r

    def validate(self) -> Report:
        """Left/right comodule coassociativity and the bicomodule exchange."""
        tensors = {"mul": self.coacting.delta, "left": self.rho_l, "right": self.rho_r}
        return check_laws(Report(), self.coacting.field, ACTION_LAWS.coalgebra, tensors)


class DorrohPairCoalgebra:
    """A pair (C, P) with C coacting on the coalgebra P from both sides."""

    def __init__(self, C: Coalgebra, P: Coalgebra, coaction: BicomoduleCoaction):
        if coaction.coacting is not C and coaction.coacting != C:
            raise InputError("coaction must be a coaction of the pair's C")
        if coaction.carrier_dim != P.dim:
            raise InputError("coaction carrier does not match P")
        if C.field != P.field:
            raise InputError("pair components over different fields")
        self.C = C
        self.P = P
        self.coaction = coaction
        self._report = None

    @property
    def field(self):
        return self.C.field

    def validate(self) -> Report:
        if self._report is None:
            self._report = check_dorroh_pair_coalgebra(self)
        return self._report

    def require_valid(self):
        report = self.validate()
        if not report.ok:
            raise ValidationFailure(report, "not a Dorroh pair of coalgebras: " + report.headline())

    def __eq__(self, other):
        return (
            isinstance(other, DorrohPairCoalgebra)
            and self.C == other.C
            and self.P == other.P
            and self.coaction.rho_l == other.coaction.rho_l
            and self.coaction.rho_r == other.coaction.rho_r
        )


def check_dorroh_pair_coalgebra(pair: DorrohPairCoalgebra) -> Report:
    """Bicomodule axioms plus the three compatibility equations between
    the coactions and the comultiplication of P."""
    tensors = {"mi": pair.P.delta, "left": pair.coaction.rho_l, "right": pair.coaction.rho_r}
    return check_laws(pair.coaction.validate(), pair.field, PAIR_LAWS.coalgebra, tensors)


def build_dorroh_coalgebra(pair: DorrohPairCoalgebra) -> Coalgebra:
    """The extension whose Delta on the P-block is
    rho_l + rho_r + Delta_P, read blockwise.

    When the counit eps_C of C is counital on both coactions, (eps_C, 0)
    is the counit of the extension: that check, on the coactions alone,
    stands for the counit law on the whole extension, so the counit is
    stored as found rather than checked again by ``Coalgebra``.
    """
    pair.require_valid()
    nc = pair.C.dim
    n = nc + pair.P.dim
    field = pair.field
    delta = place(
        (n, n, n), field,
        (pair.C.delta, (0, 0, 0)),
        (pair.coaction.rho_l, (nc, 0, nc)),
        (pair.coaction.rho_r, (nc, nc, 0)),
        (pair.P.delta, (nc, nc, nc)),
    )

    labels = None
    if pair.C.labels is not None and pair.P.labels is not None:
        labels = list(pair.C.labels) + list(pair.P.labels)

    built = Coalgebra(n, delta, field, labels=labels)
    eps_c = pair.C.find_counit()
    if eps_c is not None and _bicomodule_is_counital(pair, eps_c):
        built._counit = eps_c + [0] * pair.P.dim
    return built


def _bicomodule_is_counital(pair: DorrohPairCoalgebra, eps_c) -> bool:
    """sum eps_C(p_(-1)) p_(0) = p = sum p_(0) eps_C(p_(1)) for all basis p."""
    return _acts_as_identity(pair.coaction.rho_l, pair.coaction.rho_r, eps_c, pair.P.dim, TO_COALGEBRA)


class CoalgebraMorphism(Morphism):
    """A linear map between coalgebras; ``verify_coalgebra_morphism`` checks it."""


def identity_comorphism(c: Coalgebra) -> CoalgebraMorphism:
    return CoalgebraMorphism(c, c, Matrix.identity(c.dim, c.field))


def verify_coalgebra_morphism(F: CoalgebraMorphism, iso: bool = False) -> Report:
    """Check Delta(F(e_k)) = (F (x) F)(Delta(e_k)) basiswise; optionally invertibility.

    Both sides are tensors (k, a, b): F^T carries the first leg of the
    target comultiplication, F the last two legs of the source's.  The
    witness is the least (k,) at which they differ.
    """
    M = F.matrix
    lhs = transport(F.target.delta, (M.columns(), None, None))
    rhs = transport(F.source.delta, (None, M.data, M.data))
    report = Report().add_witness("comultiplicative", first_difference(lhs.entries, rhs.entries, 1))
    return _record_verified(F, iso, report)


def zero_coaction_pair(C: Coalgebra, P: Coalgebra) -> DorrohPairCoalgebra:
    """(C, P) with zero coactions; its extension is the direct product coalgebra.

    Every term of every pair law contains a coaction, so zero coactions
    satisfy them all and the pair carries the all-pass report.
    """
    field = C.field
    coaction = BicomoduleCoaction(
        C,
        P.dim,
        SparseTensor3.zero((P.dim, C.dim, P.dim), field),
        SparseTensor3.zero((P.dim, P.dim, C.dim), field),
    )
    pair = DorrohPairCoalgebra(C, P, coaction)
    pair._report = _passed(ACTION_LAWS.coalgebra, PAIR_LAWS.coalgebra)
    return pair


def counit_balance_check(pair: DorrohPairCoalgebra, eps_p) -> Report:
    """sum p_(-1) eps_P(p_(0)) = sum eps_P(p_(0)) p_(1) for every basis p."""
    eps_p = [pair.field.canon(v) for v in eps_p]
    dp = pair.P.delta
    if len(eps_p) != pair.P.dim or not _acts_as_identity(dp, dp, eps_p, pair.P.dim, TO_COALGEBRA):
        raise PreconditionError("eps_P is not a counit of P")
    # both sides at (x, c, 0)
    lhs = transport(pair.coaction.rho_l, (None, None, [eps_p])).entries
    rhs = transport(pair.coaction.rho_r, (None, [eps_p], None))
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
    data = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    # sum p_(-1) eps_P(p_(0)) at (x, c, 0)
    for (x, c, _), v in transport(pair.coaction.rho_l, (None, None, [eps_p])).entries.items():
        data[c][nc + x] = -v
    zeta = CoalgebraMorphism(source, target, Matrix(n, n, data, field))
    report = verify_coalgebra_morphism(zeta, iso=True)
    if not report.ok:
        raise ValidationFailure(report, "counital split isomorphism failed verification")
    return zeta


def split_coalgebra_extension(D: Coalgebra, c_basis, p_basis):
    """Recover the Dorroh pair from a splitting D = span(c_basis) + span(p_basis).

    Requires the C-span to be a subcoalgebra and the P-span a coideal;
    extracts Delta_P, rho_l, rho_r by projecting Delta of D, and returns
    the pair with the verified isomorphism C|xP -> D, (c,p) -> c + p.
    """
    field = D.field
    nc, np_ = len(c_basis), len(p_basis)
    if nc + np_ != D.dim:
        raise InputError("bases do not span a direct sum: wrong total size")
    S = Matrix.from_columns(list(c_basis) + list(p_basis), field)
    if S.rows != D.dim:
        raise InputError("basis vectors must live in D")
    Sinv = invert(S)
    if Sinv is None:
        raise InputError("bases do not span a direct sum: dependent vectors")

    # Delta in the split basis: (k, a, b) -> v means Delta(s_k) contains v s_a (x) s_b.
    T = transport(D.delta, (S.columns(), Sinv.data, Sinv.data))
    split = T.entries

    sub = Report().add_witness(
        "C_subcoalgebra", min(((k,) for k, a, b in split if k < nc and (a >= nc or b >= nc)), default=None)
    )
    if not sub.ok:
        raise ValidationFailure(sub, "C-span is not a subcoalgebra")

    coideal = Report().add_witness(
        "P_coideal", min(((k - nc,) for k, a, b in split if k >= nc and a < nc and b < nc), default=None)
    )
    if not coideal.ok:
        raise ValidationFailure(coideal, "P-span is not a coideal")

    # The subcoalgebra and coideal properties leave every entry in one of four blocks.
    n = nc + np_
    C = Coalgebra(nc, T.block((0, 0, 0), (nc, nc, nc)), field)
    P = Coalgebra(np_, T.block((nc, nc, nc), (n, n, n)), field)
    coaction = BicomoduleCoaction(C, np_, T.block((nc, 0, nc), (n, nc, n)), T.block((nc, nc, 0), (n, n, nc)))
    pair = DorrohPairCoalgebra(C, P, coaction)
    pair.require_valid()

    iso = CoalgebraMorphism(build_dorroh_coalgebra(pair), D, S)
    report = verify_coalgebra_morphism(iso, iso=True)
    if not report.ok:
        raise ValidationFailure(report, "split isomorphism failed verification")
    return pair, iso


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
    fm, pm = f.matrix.data, phi.matrix.data
    ft = f.matrix.columns()
    conds = Report()
    for name, coaction, legs in (
        ("rho_l(f(d))=(phi(x)f)Delta(d)", pair.coaction.rho_l, (None, pm, fm)),
        ("rho_r(f(d))=(f(x)phi)Delta(d)", pair.coaction.rho_r, (None, fm, pm)),
    ):
        image = transport(coaction, (ft, None, None)).entries
        conds.add_witness(name, first_difference(image, transport(D.delta, legs).entries, 1))
    if not conds.ok:
        raise ValidationFailure(conds, "not a Dorroh pair homomorphism")

    target = build_dorroh_coalgebra(pair)
    eta = CoalgebraMorphism(D, target, Matrix(target.dim, D.dim, pm + fm, field))
    report = verify_coalgebra_morphism(eta)
    if not report.ok:
        raise ValidationFailure(report, "universal map failed verification")
    return eta


class ComoduleOverCoalgebra:
    """A left/right/bi comodule by coaction structure constants.

    ``rho_l`` (m,c,m') -> a: rho_l(v_m) contains a e_c (x) v_{m'};
    ``rho_r`` (m,m',c) -> a: rho_r(v_m) contains a v_{m'} (x) e_c.
    """

    def __init__(self, coalgebra: Coalgebra, dim: int, side: str, rho_l=None, rho_r=None):
        if side not in SIDES:
            raise InputError(f"side must be one of {SIDES}")
        nc = coalgebra.dim
        if side in (LEFT, BI):
            if rho_l is None or rho_l.dims != (dim, nc, dim):
                raise InputError("rho_l tensor missing or mis-shaped")
        elif rho_l is not None:
            raise InputError("right comodule cannot carry a left coaction")
        if side in (RIGHT, BI):
            if rho_r is None or rho_r.dims != (dim, dim, nc):
                raise InputError("rho_r tensor missing or mis-shaped")
        elif rho_r is not None:
            raise InputError("left comodule cannot carry a right coaction")
        self.coalgebra = coalgebra
        self.dim = dim
        self.side = side
        self.rho_l = rho_l
        self.rho_r = rho_r

    def validate(self) -> Report:
        tensors = {"mul": self.coalgebra.delta, "left": self.rho_l, "right": self.rho_r}
        return check_laws(Report(), self.coalgebra.field, ACTION_LAWS.coalgebra, tensors)


def regular_bicomodule(c: Coalgebra) -> ComoduleOverCoalgebra:
    """C coacting on itself by its comultiplication."""
    return ComoduleOverCoalgebra(c, c.dim, BI, rho_l=c.delta, rho_r=c.delta)


def assemble_comodule(
    pair: DorrohPairCoalgebra, com_c: ComoduleOverCoalgebra, com_p: ComoduleOverCoalgebra, side: str
) -> ComoduleOverCoalgebra:
    """Glue a C-comodule and a P-comodule on one carrier into a C|xP-comodule,
    after checking the mixed coassociativity identities."""
    if side not in SIDES:
        raise InputError(f"side must be one of {SIDES}")
    if com_c.side != side or com_p.side != side:
        raise InputError("component comodules must share the requested side")
    if com_c.dim != com_p.dim:
        raise InputError("component comodules must share a carrier dimension")
    if com_c.coalgebra != pair.C or com_p.coalgebra != pair.P:
        raise InputError("comodules must be over the pair's C and P")
    pair.require_valid()
    field = pair.field
    nm, nc = com_c.dim, pair.C.dim

    report = Report()
    report.merge(com_c.validate(), prefix="C-comodule:")
    report.merge(com_p.validate(), prefix="P-comodule:")
    # a one-sided comodule leaves its other side's roles unbound, which skips their laws
    tensors = {
        "la": com_c.rho_l, "li": com_p.rho_l, "ra": com_c.rho_r, "ri": com_p.rho_r,
        "pl": pair.coaction.rho_l, "pr": pair.coaction.rho_r,
    }
    check_laws(report, field, GLUING_LAWS.coalgebra, tensors)

    if not report.ok:
        raise ValidationFailure(report, "comodule compatibility failed")

    built = build_dorroh_coalgebra(pair)
    n = built.dim
    rho_l = rho_r = None
    if side in (LEFT, BI):
        rho_l = place((nm, n, nm), field, (com_c.rho_l, (0, 0, 0)), (com_p.rho_l, (0, nc, 0)))
    if side in (RIGHT, BI):
        rho_r = place((nm, nm, n), field, (com_c.rho_r, (0, 0, 0)), (com_p.rho_r, (0, 0, nc)))
    return ComoduleOverCoalgebra(built, nm, side, rho_l=rho_l, rho_r=rho_r)


def pushforward_pair(pair: DorrohPairCoalgebra, f: CoalgebraMorphism) -> DorrohPairCoalgebra:
    """Transport the coaction along a coalgebra map C -> D, giving the pair (D, P)."""
    if f.verified not in ("hom", "iso"):
        raise PreconditionError("f must be a verified coalgebra homomorphism")
    if f.source != pair.C:
        raise InputError("f must have source C")
    D = f.target
    m = f.matrix.data
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
    pair12 = DorrohPairCoalgebra(c1, c2, co12)
    pair12.require_valid()
    pair13 = pair12 if c3 is c2 and co13 is co12 else DorrohPairCoalgebra(c1, c3, co13)
    pair23 = DorrohPairCoalgebra(c2, c3, co23)
    field = c1.field
    n1, n2, n3 = c1.dim, c2.dim, c3.dim

    report = Report()
    report.merge(pair13.validate(), prefix="C1C3:")
    report.merge(pair23.validate(), prefix="C2C3:")

    l12, r12 = co12.rho_l, co12.rho_r
    l13, r13 = co13.rho_l, co13.rho_r
    l23, r23 = co23.rho_l, co23.rho_r
    tensors = {"l12": l12, "r12": r12, "l13": l13, "r13": r13, "l23": l23, "r23": r23}
    check_laws(report, field, TRIPLE_LAWS.coalgebra, tensors)

    if not report.ok:
        return report, None

    # C1|xC2 coacts on C3 through C1 and C2 side by side ...
    n12 = n1 + n2
    d12 = build_dorroh_coalgebra(pair12)
    co_12_3 = BicomoduleCoaction(
        d12,
        n3,
        place((n3, n12, n3), field, (l13, (0, 0, 0)), (l23, (0, n1, 0))),
        place((n3, n3, n12), field, (r13, (0, 0, 0)), (r23, (0, 0, n1))),
    )
    pair_left = DorrohPairCoalgebra(d12, c3, co_12_3)

    # ... and C1 coacts on C2|xC3 through C2 and C3 side by side.
    n23 = n2 + n3
    d23 = build_dorroh_coalgebra(pair23)
    co_1_23 = BicomoduleCoaction(
        c1,
        n23,
        place((n23, n1, n23), field, (l12, (0, 0, 0)), (l13, (n2, 0, n2))),
        place((n23, n23, n1), field, (r12, (0, 0, 0)), (r13, (n2, n2, 0))),
    )
    pair_right = DorrohPairCoalgebra(c1, d23, co_1_23)
    for prefix, pair in (("left-bracketing:", pair_left), ("right-bracketing:", pair_right)):
        pair._report = _passed(ACTION_LAWS.coalgebra, PAIR_LAWS.coalgebra)
        report.merge(pair._report, prefix=prefix)

    coassociator = CoalgebraMorphism(
        build_dorroh_coalgebra(pair_left),
        build_dorroh_coalgebra(pair_right),
        Matrix.identity(n1 + n2 + n3, field),
    )
    report.merge(verify_coalgebra_morphism(coassociator, iso=True), prefix="coassociator:")
    return report, coassociator
