"""Algebras by structure constants and their Dorroh extensions.

Conventions:
  * ``mul`` entry (i,j,k) -> c means e_i . e_j contains c e_k.
  * Bimodule actions: ``left`` (a,x,y) -> c means e_a . f_x contains c f_y,
    ``right`` (x,a,y) -> c means f_x . e_a contains c f_y.
  * Morphism matrices act by columns: column j is the image of e_j.
  * Extensions order the basis A-block first, then I-block; ``place``
    lays the four blocks of A|xI out in that order and ``block`` reads
    them back.

Algebras here need not be unital and modules need not respect units.

The classes, module laws, extension, split, morphism law, zero-action
pair, gluing and iterated triple are written once, for both sides: a
``Convention`` names a side's classes and attributes, which the bases
``_Structure``, ``_Action``, ``_Pair`` and ``_Module`` read, its ``order``
lays each block out in that side's legs, and its ``legs`` tells the input
legs of the side's structure tensor from its output legs.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from functools import cache
from typing import NamedTuple

from .errors import InputError, PreconditionError
from .fields import FieldSpec
from .linalg import Matrix, _invertible, _rref, invert, is_identity
from .reports import Report
from .tensors import (
    TO_COALGEBRA,
    SparseTensor3,
    first_difference,
    first_tensor_difference,
    first_witness,
    place,
    rotate_spec,
    transport,
)

LEFT = "left"
RIGHT = "right"
BI = "bi"
SIDES = (LEFT, RIGHT, BI)

_log = logging.getLogger("dorroh.algebra")


class _Structure:
    """An algebra or a coalgebra: ``dim``, its structure tensor under the
    name its side's ``Convention`` gives (``mul`` or ``delta``), ``field``,
    optional ``labels`` and ``_unit``, its (co)unit once found (None when
    it has none, "unset" before).  A (co)unit given here is checked."""

    _conv: Convention  # the side's, set by _convention

    def __init__(self, dim, mul: SparseTensor3, field: FieldSpec, labels=None, unit=None):
        conv = self._conv
        if mul.dims != (dim, dim, dim):
            raise InputError(f"{conv.tensor} tensor dims {mul.dims} do not match dim {dim}")
        if mul.field != field:
            raise InputError(f"{conv.tensor} tensor field mismatch")
        if labels is not None and len(labels) != dim:
            raise InputError("label count must equal dim")
        self.dim = dim
        setattr(self, conv.tensor, mul)
        self.field = field
        self.labels = list(labels) if labels is not None else None
        self._built_from = None  # see _build
        self._unit = "unset"
        if unit is not None:
            unit = [field.canon(u) for u in unit]
            if len(unit) != dim or not _acts_as_identity(mul, mul, unit, dim, conv.order):
                raise InputError(f"cached {conv.unit} fails the {conv.unit_law} law")
            self._unit = unit

    def __eq__(self, other):
        conv = self._conv
        return (
            isinstance(other, conv.structure)
            and self.dim == other.dim
            and self.field == other.field
            and getattr(self, conv.tensor) == getattr(other, conv.tensor)
        )

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, field={self.field!r})"


class Algebra(_Structure):
    def find_identity(self):
        """The unique two-sided identity in coordinates, or None.  Cached."""
        if self._unit == "unset":
            self._unit = _two_sided_unit(self.mul)
        return self._unit


def _two_sided_unit(mul: SparseTensor3):
    """The u with u.e_j = e_j = e_j.u for every j, or None, for ``mul`` (i, j, k).

    Row (j, m) of u.e_j = e_j reads sum_i u_i mul[i, j, m] = [j == m], and
    row (i, m) of e_i.u = e_i reads sum_j u_j mul[i, j, m] = [i == m].  Only
    rows with a stored coefficient or right-hand side 1 can constrain u,
    and a row with right-hand side 1 but no coefficient makes the system
    inconsistent.  Two two-sided units u, u' agree (u = uu' = u'), so when
    a solution exists it is the only one, whatever order ``_rref``
    eliminates it in.
    """
    n = mul.dims[0]
    if n == 0:
        return None
    rows = {}
    for (i, j, m), c in mul.entries.items():
        rows.setdefault((0, j, m), {})[i] = c
        rows.setdefault((1, i, m), {})[j] = c
    # the right-hand sides 1 sit in column n, past the unknowns
    for side in (0, 1):
        for j in range(n):
            row = rows.get((side, j, j))
            if row is None:
                return None
            row[n] = 1
    pivots = _rref(rows.values(), n, mul.field)
    if pivots is None or len(pivots) < n:
        return None
    return [pivots[c].get(n, 0) for c in range(n)]


def _acts_as_identity(left, right, u, n, order=(0, 1, 2)) -> bool:
    """u.e_x = e_x = e_x.u on the n basis vectors e_x, where u acts through
    ``left`` (a,x,y) and ``right`` (x,a,y), or through their rotations by
    ``order``: the counit law of a coaction is the unit law of its dual."""
    return _unit_on(left, order.index(0), u, n) and _unit_on(right, order.index(1), u, n)


def _unit_on(T, leg, u, n) -> bool:
    """Contracting ``leg`` of T with u leaves the identity on T's other two
    legs, both of size n: 1 at each (x, x) and 0 everywhere else.  One pass
    over T's entries sums u[a] T[..a..] per remaining index pair."""
    i, j = (t for t in range(3) if t != leg)
    acc = {}
    get = acc.get
    for key, c in T.entries.items():
        ua = u[key[leg]]
        if ua:
            xy = (key[i], key[j])
            acc[xy] = get(xy, 0) + ua * c
    # Raw sums are ints or Fractions over Q, compared exactly, and ints
    # over F_p, reduced here.
    p = T.field.p
    ones = 0
    for (x, y), v in acc.items():
        if p:
            v %= p
        if x == y:
            if v != 1:
                return False
            ones += 1
        elif v:
            return False
    return ones == n


class Convention(NamedTuple):
    """How one side names its structures, pairs and modules.  ``name`` is
    also a (co)module's attribute for the structure it is over, ``co``
    prefixes the side's words (an action's acting structure is its
    ``co + "acting"``), and ``order`` takes legs in algebra convention to
    this side's: ``TO_COALGEBRA`` for coalgebras.  ``inputs`` counts the
    leading legs of the side's structure tensor that are inputs: 2 for a
    product (i, j, k), 1 for a coproduct (k, i, j).  ``unit_law`` names the
    (co)unit's law, and ``labels`` name the left and right action tensors
    and one action in error texts."""

    name: str
    co: str
    order: tuple
    inputs: int
    structure: type
    tensor: str
    unit: str
    unit_law: str
    find_unit: str
    morphism: type
    pair: type
    parts: tuple
    action: str
    action_type: type
    actions: tuple
    labels: tuple
    module: type

    def lay(self, legs) -> tuple:
        """Block offsets or dims in algebra convention, laid out in this side's legs."""
        return tuple(legs[o] for o in self.order)

    def legs(self, ins, out) -> tuple:
        """``ins`` on each input leg of the side's structure tensor, ``out`` on
        each output leg: a basis change S takes (S^T, S^-1)."""
        return (ins,) * self.inputs + (out,) * (3 - self.inputs)

    def parts_of(self, pair) -> tuple:
        """The acting structure, the carrier and the action tensors of ``pair``."""
        (_, acting), (_, carrier) = self.parts
        return (getattr(pair, acting), getattr(pair, carrier), *self.tensors(getattr(pair, self.action)))

    def tensors(self, owner) -> tuple:
        """The left and right tensors of an action or a (co)module."""
        return tuple(getattr(owner, key) for key in self.actions)


def _convention(**names) -> Convention:
    """A side's Convention, set as ``_conv`` on its five classes, whose
    shared bases read every side-specific name from it."""
    conv = Convention(**names)
    for cls in (conv.structure, conv.morphism, conv.action_type, conv.pair, conv.module):
        cls._conv = conv
    return conv


class Laws(NamedTuple):
    """Every axiom of one kind, as the algebra side and the coalgebra side check it."""

    algebra: tuple
    coalgebra: tuple


def _laws(co_order, *rows) -> Laws:
    """Compile rows (algebra name, coalgebra name, box, out, lhs, rhs) once.

    A row is an identity in algebra convention whose sides are terms (spec,
    role, role) over named tensors, as ``first_witness`` takes them.  Its
    coalgebra form is the identity on the Kronecker duals, the tensors
    rotated by ``TO_COALGEBRA``: the same contraction, with each slot
    triple rotated and box and out swapped.  It reports in row order
    ``co_order``.
    """
    algebra = tuple((a, box, out, lhs, rhs) for a, _, box, out, lhs, rhs in rows)
    coalgebra = []
    for i in co_order:
        _, name, box, out, lhs, rhs = rows[i]
        dual = [(rotate_spec(spec, TO_COALGEBRA), t, u) for spec, t, u in (lhs, rhs)]
        coalgebra.append((name, out, box, *dual))
    return Laws(algebra, tuple(coalgebra))


def check_laws(report: Report, field, laws, tensors: dict, memo=None) -> Report:
    """Add to ``report`` the first witness of each law whose roles are all
    bound to a tensor in ``tensors``.

    ``memo`` maps the canonical form of each law decided so far (see
    ``_law_key``) to [witness, uses, lhs, rhs]; a law whose form is there
    takes its witness without a contraction.  The two terms hold the
    tensors whose ids the key names, so no id is reused while the memo
    lives.  A check that runs several tables passes one memo through them
    all (``_scope``).
    """
    if memo is None:
        memo = {}
    for name, box, out, (ls, l1, l2), (rs, r1, r2) in laws:
        a, b, c, d = tensors.get(l1), tensors.get(l2), tensors.get(r1), tensors.get(r2)
        if a is not None and b is not None and c is not None and d is not None:
            lhs, rhs = (ls, a, b), (rs, c, d)
            key = _law_key(box, out, lhs, rhs)
            seen = memo.get(key)
            if seen is None:
                seen = memo[key] = [first_witness(field, box, out, lhs, rhs), 0, lhs, rhs]
            seen[1] += 1
            report.add_witness(name, seen[0])
    return report


@contextmanager
def _scope(memo, seeds=()):
    """The law memo of one check_dorroh_pair_* call or iterated triple: the
    caller's, or a fresh one whose counts are logged when the check returns.
    A fresh memo opens with copies of the decisions of ``seeds``, memos
    recorded by ``_validate`` (None skipped), their use counts at 0; a law
    that one of them decided counts as copied, not decided."""
    if memo is not None:
        yield memo
        return
    memo = {key: [witness, 0, *terms] for seed in seeds if seed for key, (witness, _, *terms) in seed.items()}
    seeded = len(memo)
    yield memo
    laws = sum(law[1] for law in memo.values())
    decided = len(memo) - seeded
    _log.debug("check_laws laws=%d decided=%d copied=%d", laws, decided, laws - decided)


def _law_key(box, out, lhs, rhs) -> tuple:
    """The form of the identity lhs = rhs on ``box`` that fixes its first
    witness: letters renamed in box-first order (box, then out, then the
    summed letter of each side), each side's two factors and the two sides
    unordered, and tensors by identity.  Two laws with one key contract the
    same products into the same (box, out) keys, up to sign, so they fail
    at the same least box tuple; a law whose box letters are permuted gets
    another key."""
    (t, i), (u, j) = _shape(box, out, lhs[0])
    (v, k), (w, m) = _shape(box, out, rhs[0])
    left, right = (t, id(lhs[i]), u, id(lhs[j])), (v, id(rhs[k]), w, id(rhs[m]))
    return (len(box), left, right) if left <= right else (len(box), right, left)


@cache
def _shape(box, out, spec) -> tuple:
    """The letters of each factor of ``spec`` renamed box first (box, out,
    then the summed letter), with its slot in the term (1 or 2), in the
    order of the renamed letters.  The two factors never rename alike, so
    the order needs no tensor; cached, as the law tables are fixed."""
    rename = {c: n for n, c in enumerate(box + out)}
    factors = [
        (tuple(rename.setdefault(c, len(rename)) for c in letters), slot)
        for slot, letters in enumerate(spec.split(","), 1)
    ]
    return tuple(sorted(factors))


# Roles: ``mul`` of the algebra acting by ``left`` (a,x,y) and ``right``
# (x,a,y); on the coalgebra side Delta, rho_l and rho_r.
ASSOCIATIVITY = _laws(
    (0,),
    ("associativity", "coassociativity", "ijk", "m", ("ijl,lkm", "mul", "mul"), ("jkl,ilm", "mul", "mul")),
)
ACTION_LAWS = _laws(
    (0, 1, 2),
    ("(ab)x=a(bx)", "(Delta(x)1)rho_l=(1(x)rho_l)rho_l",
     "abx", "y", ("abl,lxy", "mul", "left"), ("bxz,azy", "left", "left")),
    ("x(ab)=(xa)b", "(rho_r(x)1)rho_r=(1(x)Delta)rho_r",
     "xab", "y", ("abl,xly", "mul", "right"), ("xaz,zby", "right", "right")),
    ("(ax)b=a(xb)", "(rho_l(x)1)rho_r=(1(x)rho_r)rho_l",
     "axb", "y", ("axz,zby", "left", "right"), ("xbz,azy", "right", "left")),
)
# The action laws under the names a module states them in.
MODULE_LAWS = Laws(
    tuple((name, *row[1:]) for name, row in zip(("(ab)m=a(bm)", "m(ab)=(ma)b", "(am)b=a(mb)"), ACTION_LAWS.algebra)),
    ACTION_LAWS.coalgebra,
)
# ``mi`` is the multiplication of I (Delta_P).  Coalgebra forms, with
# p_1 (x) p_2 = Delta_P(p) and p_(-1) (x) p_(0), p_(0) (x) p_(1) the coactions:
#   eq3: sum p_1 (x) p_2(0) (x) p_2(1) = sum p_(0)1 (x) p_(0)2 (x) p_(1)
#   eq4: sum p_1(-1) (x) p_1(0) (x) p_2 = sum p_(-1) (x) p_(0)1 (x) p_(0)2
#   eq5: sum p_1(0) (x) p_1(1) (x) p_2 = sum p_1 (x) p_2(-1) (x) p_2(0)
PAIR_LAWS = _laws(
    (2, 0, 1),
    ("a(xy)=(ax)y", "eq4", "axy", "w", ("xyz,azw", "mi", "left"), ("axz,zyw", "left", "mi")),
    ("(xa)y=x(ay)", "eq5", "xay", "w", ("xaz,zyw", "right", "mi"), ("ayz,xzw", "left", "mi")),
    ("(xy)a=x(ya)", "eq3", "xya", "w", ("xyz,zaw", "mi", "right"), ("yaz,xzw", "right", "mi")),
)
# An A-module (``la``, ``ra``) and an I-module (``li``, ``ri``) on one
# carrier, glued along the pair's actions ``pl``, ``pr``.
GLUING_LAWS = _laws(
    (1, 0, 3, 2, 4, 5),
    ("a(xm)=(ax)m", "(1(x)rho_l^P)rho_l^C=(rho_l(x)1)rho_l^P",
     "axm", "n", ("xmz,azn", "li", "la"), ("axy,ymn", "pl", "li")),
    ("x(am)=(xa)m", "(1(x)rho_l^C)rho_l^P=(rho_r(x)1)rho_l^P",
     "xam", "n", ("amz,xzn", "la", "li"), ("xay,ymn", "pr", "li")),
    ("(mx)a=m(xa)", "(rho_r^P(x)1)rho_r^C=(1(x)rho_r)rho_r^P",
     "mxa", "n", ("mxz,zan", "ri", "ra"), ("xay,myn", "pr", "ri")),
    ("(ma)x=m(ax)", "(rho_r^C(x)1)rho_r^P=(1(x)rho_l)rho_r^P",
     "max", "n", ("maz,zxn", "ra", "ri"), ("axy,myn", "pl", "ri")),
    ("(am)x=a(mx)", "(rho_l^C(x)1)rho_r^P=(1(x)rho_r^P)rho_l^C",
     "amx", "n", ("amz,zxn", "la", "ri"), ("mxz,azn", "ri", "la")),
    ("(xm)a=x(ma)", "(rho_l^P(x)1)rho_r^C=(1(x)rho_r^C)rho_l^P",
     "xma", "n", ("xmz,zan", "li", "ra"), ("maz,xzn", "ra", "li")),
)
# The actions ``l12``/``r12`` of A1 on A2, ``l13``/``r13`` of A1 on A3 and
# ``l23``/``r23`` of A2 on A3 of an iterated triple.
TRIPLE_LAWS = _laws(
    (0, 1, 3, 2, 5, 4),
    ("(a1.a3)a2=a1(a3.a2)", "C1-C2-bicomodule",
     "axb", "y", ("axz,zby", "l13", "r23"), ("xbz,azy", "r23", "l13")),
    ("(a2.a3)a1=a2(a3.a1)", "C2-C1-bicomodule",
     "bxa", "y", ("bxz,zay", "l23", "r13"), ("xaz,bzy", "r13", "l23")),
    ("a1(a2a3)=(a1a2)a3", "eq12", "abx", "y", ("bxz,azy", "l23", "l13"), ("abw,wxy", "l12", "l23")),
    ("a2(a1a3)=(a2a1)a3", "eq11", "bax", "y", ("axz,bzy", "l13", "l23"), ("baw,wxy", "r12", "l23")),
    ("(a3a2)a1=a3(a2a1)", "eq14", "xba", "y", ("xbz,zay", "r23", "r13"), ("baw,xwy", "r12", "r23")),
    ("(a3a1)a2=a3(a1a2)", "eq13", "xab", "y", ("xaz,zby", "r13", "r23"), ("abw,xwy", "l12", "r23")),
)


def check_associativity(a: Algebra) -> Report:
    """(e_i e_j) e_k = e_i (e_j e_k); first witness in lex order."""
    return check_laws(Report(), a.field, ASSOCIATIVITY.algebra, {"mul": a.mul})


class _Action:
    """A structure acting on a carrier of ``carrier_dim`` from both sides,
    through the two tensors its side's ``Convention`` names."""

    _conv: Convention  # the side's, set by _convention

    def __init__(self, acting, carrier_dim: int, left: SparseTensor3, right: SparseTensor3):
        conv = self._conv
        na, n = acting.dim, carrier_dim
        for label, t, dims in zip(conv.labels, (left, right), (conv.lay((na, n, n)), conv.lay((n, na, n)))):
            if t.dims != dims:
                raise InputError(f"{label} dims {t.dims} do not match ({dims[0]},{dims[1]},{dims[2]})")
        if left.field != acting.field or right.field != acting.field:
            raise InputError(f"{conv.action} tensor field mismatch")
        setattr(self, conv.co + "acting", acting)
        self.carrier_dim = carrier_dim
        for key, t in zip(conv.actions, (left, right)):
            setattr(self, key, t)
        self._known = None  # see _known


class BimoduleAction(_Action):
    """An algebra acting on a carrier from both sides."""

    def validate(self, memo=None) -> Report:
        """Bimodule axioms over all basis triples."""
        tensors = {"mul": self.acting.mul, "left": self.left, "right": self.right}
        return check_laws(Report(), self.acting.field, ACTION_LAWS.algebra, tensors, memo=memo)


class _Pair:
    """A pair of an acting structure and a carrier structure with an action
    of the first on the second, under the names its side's ``Convention``
    gives them (``A``, ``I`` and ``action`` for algebras)."""

    _conv: Convention  # the side's, set by _convention

    def __init__(self, A, I, action):
        conv = self._conv
        (_, a), (_, i) = conv.parts
        acting = getattr(action, conv.co + "acting")
        if acting is not A and acting != A:
            raise InputError(f"{conv.action} must be {conv.labels[2]} of the pair's {a}")
        if action.carrier_dim != I.dim:
            raise InputError(f"{conv.action} carrier does not match {i}")
        if A.field != I.field:
            raise InputError("pair components over different fields")
        setattr(self, a, A)
        setattr(self, i, I)
        setattr(self, conv.action, action)
        self.field = A.field

    def require_valid(self):
        report = self.validate()
        if not report.ok:
            report.require(f"not a Dorroh pair of {self._conv.name}s: " + report.headline())

    def __eq__(self, other):
        conv = self._conv
        return isinstance(other, conv.pair) and conv.parts_of(self) == conv.parts_of(other)


class DorrohPairAlgebra(_Pair):
    """A pair (A, I) with A acting on the algebra I from both sides."""

    def validate(self, memo=None) -> Report:
        return _validate(ALGEBRA, self, check_dorroh_pair_algebra, memo)


def check_dorroh_pair_algebra(pair: DorrohPairAlgebra, memo=None) -> Report:
    """Bimodule axioms plus the three compatibility identities between
    the actions and the multiplication of I, deciding each distinct law
    once (``check_laws``) in ``memo`` or in a memo of this call's own."""
    with _scope(memo) as memo:
        tensors = {"mi": pair.I.mul, "left": pair.action.left, "right": pair.action.right}
        return check_laws(pair.action.validate(memo), pair.field, PAIR_LAWS.algebra, tensors, memo=memo)


class _Known:
    """Everything decided about the pair of ``acting`` and ``carrier`` under
    one action: its report and the law memo it was decided in (None for a
    report derived from its parts), the unit law of the acting structure's
    (co)unit (None while undecided) and the extension's laid-out tensor.
    It holds the tensor, never the extension, which records its pair and
    would close a reference cycle through the action."""

    __slots__ = ("acting", "carrier", "report", "memo", "unit_law", "laid")

    def __init__(self, acting, carrier):
        self.acting, self.carrier = acting, carrier
        self.report = self.memo = self.unit_law = self.laid = None


def _known(conv: Convention, pair) -> _Known:
    """The record on pair's action, replaced by an empty one unless it was
    made with pair's acting and carrier objects.  So every pair of the same
    three objects shares one record: the pair (A1, A2) of the canonical
    triple (A, I, I) takes a validated pair's report unchecked."""
    acting, carrier = conv.parts_of(pair)[:2]
    action = getattr(pair, conv.action)
    known = action._known
    if known is None or known.acting is not acting or known.carrier is not carrier:
        known = action._known = _Known(acting, carrier)
    return known


def _validate(conv: Convention, pair, check, memo) -> Report:
    """pair's report: its record's, or else ``check``'s, decided in ``memo``
    or in a scope of its own and recorded with that memo."""
    known = _known(conv, pair)
    if known.report is None:
        with _scope(memo) as memo:
            known.report, known.memo = check(pair, memo), memo
    return known.report


def _derived(conv: Convention, pair, unit_law) -> Report:
    """Record on pair's action the report of a pair its parts prove valid,
    as ``check_dorroh_pair_*`` gives it (each law's name, in table order,
    as a pass), and the unit law the parts decide (None: undecided)."""
    known = _known(conv, pair)
    known.report = Report()
    for table in (ACTION_LAWS, PAIR_LAWS):
        for name, *_ in getattr(table, conv.name):
            known.report.add(name, True)
    known.unit_law = unit_law
    return known.report


def build_dorroh_algebra(pair: DorrohPairAlgebra) -> Algebra:
    """The extension with multiplication (a,x)(b,y) = (ab, ay+xb+xy).

    When the unit u_A of A acts as the identity on I from both sides,
    (u_A, 0) is the unit of the extension: that check, on the actions
    alone, stands for the unit law on the whole extension, so the unit is
    stored as found rather than checked again by ``Algebra``.
    """
    return _build(ALGEBRA, pair)


def _build(conv: Convention, pair):
    """The extension of a valid pair.  Its tensor is laid out once per
    record (``_known``), so every build of the same parts shares it."""
    pair.require_valid()
    acting, carrier, left, right = conv.parts_of(pair)
    na = acting.dim
    n = na + carrier.dim
    field = pair.field
    known = _known(conv, pair)
    if known.laid is None:
        known.laid = place(
            (n, n, n), field,
            (getattr(acting, conv.tensor), (0, 0, 0)),
            (left, conv.lay((0, na, na))),
            (right, conv.lay((na, 0, na))),
            (getattr(carrier, conv.tensor), (na, na, na)),
        )

    labels = None
    if acting.labels is not None and carrier.labels is not None:
        labels = list(acting.labels) + list(carrier.labels)

    built = conv.structure(n, known.laid, field, labels=labels)
    built._built_from = pair  # see _split
    unit = getattr(acting, conv.find_unit)()
    if _unit_law(conv, pair, unit):
        built._unit = unit + [0] * carrier.dim
    return built


def _unit_law(conv: Convention, pair, unit) -> bool | None:
    """Whether ``unit``, the (co)unit of pair's acting structure, acts as
    the identity on the carrier through pair's action, decided once per
    record (``_known``); None, and nothing recorded, when there is no
    (co)unit."""
    if unit is None:
        return None
    _, carrier, left, right = conv.parts_of(pair)
    known = _known(conv, pair)
    if known.unit_law is None:
        known.unit_law = _acts_as_identity(left, right, unit, carrier.dim, conv.order)
    return known.unit_law


def _split_basis(conv: Convention, B, a_basis, i_basis, letter: str):
    """The basis S of columns a_basis then i_basis, B's tensor T in it (B's
    own when S is the identity) and the acting block's size; ``letter``
    names B in error texts."""
    na = len(a_basis)
    if na + len(i_basis) != B.dim:
        raise InputError("bases do not span a direct sum: wrong total size")
    S = Matrix.from_columns(list(a_basis) + list(i_basis), B.field)
    if S.rows != B.dim:
        raise InputError(f"basis vectors must live in {letter}")
    T = getattr(B, conv.tensor)
    if not is_identity(S):
        Sinv = invert(S)
        if Sinv is None:
            raise InputError("bases do not span a direct sum: dependent vectors")
        T = transport(T, conv.legs(S.transpose(), Sinv))
    return S, T, na


def _split(conv: Convention, build, verify, B, S: Matrix, T, na: int):
    """The pair carried by the four blocks of T, the structure of B in the
    basis S whose first ``na`` vectors span the acting block, and the
    verified isomorphism from its extension onto B.

    When S is the identity and B was built from a valid pair whose acting
    structure has dimension ``na``, T is B's tensor, the layout of that
    pair's blocks, so the blocks read back are that pair's tensors (the
    very objects, where they have entries): the recovered pair is valid,
    the acting structure takes the pair's (co)unit and the action its
    unit-law decision.  Any other split, and any B not built here, is
    validated in full.
    """
    field, n = B.field, B.dim
    acting = conv.structure(na, T.block((0, 0, 0), (na, na, na)), field)
    carrier = conv.structure(n - na, T.block((na, na, na), (n, n, n)), field)
    left = T.block(conv.lay((0, na, na)), conv.lay((na, n, n)))
    right = T.block(conv.lay((na, 0, na)), conv.lay((n, na, n)))
    action = conv.action_type(acting, n - na, left, right)
    pair = conv.pair(acting, carrier, action)

    source = B._built_from
    derived = source is not None and T is getattr(B, conv.tensor) and conv.parts_of(source)[0].dim == na
    _log.debug("split derived=%d", derived)
    if derived:
        unit = acting._unit = conv.parts_of(source)[0]._unit  # found by the build of B
        _derived(conv, pair, _unit_law(conv, source, unit))
    pair.require_valid()

    # S is invertible: it is the identity, or the caller carried B's tensor
    # through its inverse, so only the structure is left to verify.
    iso = conv.morphism(build(pair), B, S)
    verify(iso).add("invertible", True).require("split isomorphism failed verification")
    iso.verified = "iso"
    return pair, iso


class Morphism:
    """A linear map between two algebras, or two coalgebras, by its matrix."""

    def __init__(self, source, target, matrix: Matrix, verified="unchecked"):
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise InputError("morphism matrix must be target_dim x source_dim")
        if matrix.field != source.field or source.field != target.field:
            raise InputError("morphism field mismatch")
        self.source = source
        self.target = target
        self.matrix = matrix
        self.field = source.field
        self.verified = verified

    def __repr__(self):
        return f"{type(self).__name__}({self.source!r} -> {self.target!r}, {self.verified})"


class AlgebraMorphism(Morphism):
    """A linear map between algebras; ``verify_algebra_morphism`` checks it."""


def verify_algebra_morphism(F: AlgebraMorphism, iso: bool = False) -> Report:
    """Check F(e_i e_j) = F(e_i) F(e_j) on all basis pairs; optionally invertibility."""
    return _verify(ALGEBRA, F, iso)


def _verify(conv: Convention, F, iso: bool) -> Report:
    """F's structure law, and its invertibility when ``iso`` is asked for.

    F carries the source tensor's output legs, F^T the target's input legs;
    the witness is the least tuple of input legs where they differ.  An
    identity matrix carries nothing, so two layouts of the same blocks,
    an identity isomorphism's source and target, are compared block by
    block (``first_tensor_difference``).  F is stamped "unchecked" when
    the law fails, else "iso" or "hom" by invertibility; without ``iso``
    only an "iso" stamp is put to the invertibility test, outside the
    report.
    """
    M = F.matrix
    lhs, rhs = getattr(F.source, conv.tensor), getattr(F.target, conv.tensor)
    if not is_identity(M):
        lhs = transport(lhs, conv.legs(None, M))
        rhs = transport(rhs, conv.legs(M.transpose(), None))
    witness = first_tensor_difference(lhs, rhs, conv.inputs)
    report = Report().add_witness(conv.co + "multiplicative", witness)
    invertible = False
    if iso:
        invertible = _invertible(M)
        report.add("invertible", invertible)
    if witness is not None:
        F.verified = "unchecked"
    else:
        if not iso and F.verified == "iso":
            invertible = _invertible(M)
        F.verified = "iso" if invertible else "hom"
    return report


def unital_ideal_iso(pair: DorrohPairAlgebra) -> AlgebraMorphism:
    """When I is unital, (a,x) -> (a, x + a 1_I) maps A|xI onto A x I.

    The map takes no check that 1_I is central for the actions: on a valid
    pair, the law (xa)y = x(ay) at x = y = 1_I reads 1_I.a = a.1_I, as
    1_I is the identity of I and 1_I.a, a.1_I lie in I.
    """
    one_i = pair.I.find_identity()
    if one_i is None:
        raise PreconditionError("I has no identity")
    pair.require_valid()
    na, ni = pair.A.dim, pair.I.dim
    field = pair.field

    # a.1_I at (a, 0, y)
    shift = transport(pair.action.left, (None, Matrix(1, ni, [one_i], field), None)).entries
    source = build_dorroh_algebra(pair)
    target = build_dorroh_algebra(direct_product_pair(pair.A, pair.I))
    n = na + ni
    columns = [[(j, 1)] for j in range(n)]  # the identity, and a.1_I below it in column a
    for (a, _, y), v in sorted(shift.items()):
        columns[a].append((na + y, v))  # canonical, as every transported entry
    eta = AlgebraMorphism(source, target, Matrix._canonical(n, n, columns, field))
    verify_algebra_morphism(eta, iso=True).require("unital ideal isomorphism failed verification")
    return eta


def direct_product_pair(A: Algebra, B: Algebra) -> DorrohPairAlgebra:
    """(A, B) with zero actions; its extension is the direct product algebra.

    Every term of every pair law contains an action, so zero actions
    satisfy them all and the pair carries the all-pass report.  They act
    as the identity only on a zero carrier, which decides the unit law.
    """
    return _zero_action_pair(ALGEBRA, A, B)


def _zero_action_pair(conv: Convention, A, B):
    field = A.field
    action = conv.action_type(
        A,
        B.dim,
        SparseTensor3.zero(conv.lay((A.dim, B.dim, B.dim)), field),
        SparseTensor3.zero(conv.lay((B.dim, A.dim, B.dim)), field),
    )
    pair = conv.pair(A, B, action)
    _derived(conv, pair, B.dim == 0)
    return pair


def split_algebra_extension(B: Algebra, a_basis, i_basis):
    """Recover the Dorroh pair carried by a splitting B = span(a_basis) + span(i_basis).

    Verifies the A-span is a subalgebra and the I-span an ideal, reads the
    structure constants off products in B, and returns the pair together
    with the verified isomorphism A|xI -> B, (a,x) -> a + x.
    """
    S, T, na = _split_basis(ALGEBRA, B, a_basis, i_basis, "B")
    split = T.entries  # (u, v, w) -> c means s_u s_v contains c s_w

    Report().add_witness(
        "A_closed", min(((i, j) for i, j, k in split if i < na and j < na and k >= na), default=None)
    ).require("A-span is not closed under multiplication")

    # Products landing in the A-block are reported block by block: all
    # (u, na+x) first, then (na+x, u), then (na+x, na+y), each block in
    # lexicographic order.  The flags (i >= na, j >= na) sort the blocks so.
    bad = [(i >= na, j >= na, i, j) for i, j, k in split if k < na and (i >= na or j >= na)]
    Report().add_witness("I_ideal", min(bad)[2:] if bad else None).require("I-span is not an ideal")

    # Closure and the ideal property leave every entry in one of four blocks.
    return _split(ALGEBRA, build_dorroh_algebra, verify_algebra_morphism, B, S, T, na)


def universal_map_algebra(
    pair: DorrohPairAlgebra, B: Algebra, phi: AlgebraMorphism, f: AlgebraMorphism
) -> AlgebraMorphism:
    """The unique map A|xI -> B with eta(a,i) = phi(a) + f(i), given a Dorroh
    homomorphism (phi, f)."""
    if phi.verified not in ("hom", "iso") or f.verified not in ("hom", "iso"):
        raise PreconditionError("phi and f must be verified homomorphisms")
    if phi.source != pair.A or f.source != pair.I or phi.target != B or f.target != B:
        raise InputError("phi must map A to B and f must map I to B")
    pair.require_valid()
    fm = f.matrix
    ft, pt = fm.transpose(), phi.matrix.transpose()
    conds = Report()
    for name, action, legs in (
        ("f(ax)=phi(a)f(x)", pair.action.left, (pt, ft, None)),
        ("f(xa)=f(x)phi(a)", pair.action.right, (ft, pt, None)),
    ):
        image = transport(action, (None, None, fm)).entries
        conds.add_witness(name, first_difference(image, transport(B.mul, legs).entries, 2))
    conds.require("not a Dorroh homomorphism")

    columns = phi.matrix.columns + fm.columns  # (a, x) -> phi(a) + f(x)
    eta = AlgebraMorphism(build_dorroh_algebra(pair), B, Matrix._canonical(B.dim, len(columns), columns, pair.field))
    verify_algebra_morphism(eta).require("universal map failed verification")
    return eta


class _Module:
    """A left, right or two-sided (co)module of ``dim`` over a structure
    (its side's ``Convention.name``), by the action tensors the Convention
    names; a side the module does not act on has None."""

    _conv: Convention  # the side's, set by _convention

    def __init__(self, algebra, dim: int, side: str, left=None, right=None):
        conv = self._conv
        if side not in SIDES:
            raise InputError(f"side must be one of {SIDES}")
        na = algebra.dim
        shapes = (conv.lay((na, dim, dim)), conv.lay((dim, na, dim)))
        for label, t, dims, own, other in zip(conv.labels, (left, right), shapes, (LEFT, RIGHT), (RIGHT, LEFT)):
            if side in (own, BI):
                if t is None or t.dims != dims:
                    raise InputError(f"{label} tensor missing or mis-shaped")
            elif t is not None:
                raise InputError(f"{other} {conv.co}module cannot carry a {own} {conv.action}")
        setattr(self, conv.name, algebra)
        self.field = algebra.field
        self.dim = dim
        self.side = side
        for key, t in zip(conv.actions, (left, right)):
            setattr(self, key, t)

    def validate(self) -> Report:
        conv = self._conv
        left, right = conv.tensors(self)
        tensors = {"mul": getattr(getattr(self, conv.name), conv.tensor), "left": left, "right": right}
        return check_laws(Report(), self.field, getattr(MODULE_LAWS, conv.name), tensors)


class ModuleOverAlgebra(_Module):
    """A left/right/bi module by action structure constants.

    ``left`` (a,m,m') -> c: e_a . v_m contains c v_{m'};
    ``right`` (m,a,m') -> c: v_m . e_a contains c v_{m'}.
    """


ALGEBRA = _convention(
    name="algebra", co="", order=(0, 1, 2), inputs=2, structure=Algebra, tensor="mul", unit="unit",
    unit_law="identity", find_unit="find_identity", morphism=AlgebraMorphism, pair=DorrohPairAlgebra,
    parts=(("a", "A"), ("i", "I")), action="action", action_type=BimoduleAction, actions=("left", "right"),
    labels=("left action", "right action", "an action"), module=ModuleOverAlgebra,
)


def regular_bimodule(a: Algebra) -> ModuleOverAlgebra:
    """A acting on itself by multiplication."""
    return ModuleOverAlgebra(a, a.dim, BI, left=a.mul, right=a.mul)


def assemble_module(
    pair: DorrohPairAlgebra, m_a: ModuleOverAlgebra, m_i: ModuleOverAlgebra, side: str
) -> ModuleOverAlgebra:
    """Glue an A-module and an I-module on one carrier into an A|xI-module
    with (a,x)m = am + xm, after checking the compatibility identities."""
    return _assemble(ALGEBRA, build_dorroh_algebra, pair, m_a, m_i, side)


def _assemble(conv: Convention, build, pair, m_a, m_i, side: str):
    co = conv.co
    (_, a), (_, i) = conv.parts
    if side not in SIDES:
        raise InputError(f"side must be one of {SIDES}")
    if m_a.side != side or m_i.side != side:
        raise InputError(f"component {co}modules must share the requested side")
    if m_a.dim != m_i.dim:
        raise InputError(f"component {co}modules must share a carrier dimension")
    acting, carrier, pl, pr = conv.parts_of(pair)
    if getattr(m_a, conv.name) != acting or getattr(m_i, conv.name) != carrier:
        raise InputError(f"{co}modules must be over the pair's {a} and {i}")
    pair.require_valid()
    field = pair.field
    na, nm = acting.dim, m_a.dim

    report = Report()
    report.merge(m_a.validate(), prefix=f"{a}-{co}module:")
    report.merge(m_i.validate(), prefix=f"{i}-{co}module:")
    # a one-sided module leaves its other side's roles unbound, which skips their laws
    (la, ra), (li, ri) = conv.tensors(m_a), conv.tensors(m_i)
    tensors = {"la": la, "li": li, "ra": ra, "ri": ri, "pl": pl, "pr": pr}
    check_laws(report, field, getattr(GLUING_LAWS, conv.name), tensors).require(f"{co}module compatibility failed")

    built = build(pair)
    n = built.dim
    left = right = None
    if side in (LEFT, BI):
        left = place(conv.lay((n, nm, nm)), field, (la, (0, 0, 0)), (li, conv.lay((na, 0, 0))))
    if side in (RIGHT, BI):
        right = place(conv.lay((nm, n, nm)), field, (ra, (0, 0, 0)), (ri, conv.lay((0, na, 0))))
    return conv.module(built, nm, side, **dict(zip(conv.actions, (left, right))))


def check_iterated_algebra_triple(
    a1: Algebra,
    a2: Algebra,
    a3: Algebra,
    act12: BimoduleAction,
    act13: BimoduleAction,
    act23: BimoduleAction,
):
    """Conditions for (A1|xA2, A3) to be a Dorroh pair, and on success the
    associator isomorphism (A1|xA2)|xA3 -> A1|x(A2|xA3).

    The pairs (A1, A2), (A1, A3) and (A2, A3) are validated and the six
    mixed laws checked.  A pair of the same A, I and action objects as a
    pair already validated takes its report from the action's record
    (``_known``): (A1, A2) of a validated pair, and (A1, A3) when A3 is A2
    with the same action.  (A1, A2) is built, and its unit law read, before
    (A1, A3) can replace the record on a shared action: a copy of A2 as A3
    does not make (A1, A2) be decided again.  The laws of (A1, A3), (A2, A3)
    and the mixed laws share one memo, which opens with the decisions
    recorded with (A1, A2) and (A1, A3), so each distinct identity among
    them is decided once; on the canonical triple (A, I, I) of a validated
    pair the mixed laws are the pair's own, and only I's associativity is
    decided.  The two bracketings are reached only when all of these pass,
    and block by block each bracketing identity is one of them (the
    associativity of iterated Dorroh extensions), so both bracketed pairs
    carry the all-pass report and the unit laws of (A1, A2) and (A1, A3)
    (``_derived``).  The associator is still verified by structure-constant equality.
    """
    return _iterated_triple(ALGEBRA, build_dorroh_algebra, verify_algebra_morphism, a1, a2, a3, act12, act13, act23)


def _iterated_triple(conv: Convention, build, verify, a1, a2, a3, act12, act13, act23):
    # The build validates (A1, A2) and finds the (co)unit u_1 of A1.
    pair12 = conv.pair(a1, a2, act12)
    b12 = build(pair12)
    unit = a1._unit
    on_a2 = _unit_law(conv, pair12, unit)
    pair23 = conv.pair(a2, a3, act23)
    field = a1.field
    n1, n2, n3 = a1.dim, a2.dim, a3.dim
    lay = conv.lay
    a = conv.parts[0][1]

    # One law memo for (A1, A3), (A2, A3) and the mixed laws, opened with
    # the decisions recorded with (A1, A2) and (A1, A3).  With A3 = A2 acting
    # on itself, (A2, A3) is six renamings of A2's associativity and the six
    # mixed laws are (A1, A2)'s three pair laws renamed, each written twice.
    pair13 = conv.pair(a1, a3, act13)
    with _scope(None, [_known(conv, pair12).memo, _known(conv, pair13).memo]) as memo:
        report = Report()
        report.merge(pair13.validate(memo), prefix=f"{a}1{a}3:")
        report.merge(pair23.validate(memo), prefix=f"{a}2{a}3:")

        (l12, r12), (l13, r13), (l23, r23) = (conv.tensors(act) for act in (act12, act13, act23))
        tensors = {"l12": l12, "r12": r12, "l13": l13, "r13": r13, "l23": l23, "r23": r23}
        check_laws(report, field, getattr(TRIPLE_LAWS, conv.name), tensors, memo=memo)

    if not report.ok:
        return report, None

    # A1|xA2 acts on A3 through A1 and A2 side by side ...
    n12 = n1 + n2
    act_12_3 = conv.action_type(
        b12,
        n3,
        place(lay((n12, n3, n3)), field, (l13, (0, 0, 0)), (l23, lay((n1, 0, 0)))),
        place(lay((n3, n12, n3)), field, (r13, (0, 0, 0)), (r23, lay((0, n1, 0)))),
    )
    pair_left = conv.pair(b12, a3, act_12_3)

    # ... and A1 acts on A2|xA3 through A2 and A3 side by side.
    n23 = n2 + n3
    b23 = build(pair23)
    act_1_23 = conv.action_type(
        a1,
        n23,
        place(lay((n1, n23, n23)), field, (l12, (0, 0, 0)), (l13, lay((0, n2, n2)))),
        place(lay((n23, n1, n23)), field, (r12, (0, 0, 0)), (r13, lay((n2, 0, n2)))),
    )
    pair_right = conv.pair(a1, b23, act_1_23)
    # The unit u_1 of A1 acts on A2|xA3 through A2 and A3 side by side, and
    # when it acts as the identity on A2, (u_1, 0) is the unit of A1|xA2
    # and acts on A3 through A1 alone: both unit laws are (A1, A2)'s and
    # (A1, A3)'s.
    on_a3 = _unit_law(conv, pair13, unit)
    for prefix, pair, unit_law in (
        ("left-bracketing:", pair_left, on_a3 if on_a2 else None),
        ("right-bracketing:", pair_right, on_a2 and on_a3),
    ):
        report.merge(_derived(conv, pair, unit_law), prefix=prefix)

    associator = conv.morphism(build(pair_left), build(pair_right), Matrix.identity(n1 + n2 + n3, field))
    report.merge(verify(associator, iso=True), prefix=f"{conv.co}associator:")
    return report, associator
