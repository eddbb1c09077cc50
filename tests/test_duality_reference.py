"""Differential test of the duality and basis-change bodies.

``duality.py`` writes each dual once, from a source side to a destination
side, and ``gallery.py`` writes each basis change once.  The mirrored
per-side functions they replaced are kept below verbatim as the
reference.  Both run over every gallery instance, standard pair, regular
module and comodule and their one-sided parts, the extensions of the
standard pairs, and seeded random pairs, over Q, GF(3) and GF(5).  The
emitted ``dorroh/1`` text of every result must be equal, including the
duality witness and the double-dual map that no golden corpus records.

The mutation checks run the reference with the wrong rotation, and with
S in place of S^-1 on the output leg, and require the comparison to fail
in every family it covers.
"""

import random
import sys

import pytest

from dorroh import duality, exchange, gallery
from dorroh.algebra import (
    ALGEBRA,
    Algebra,
    AlgebraMorphism,
    BimoduleAction,
    DorrohPairAlgebra,
    ModuleOverAlgebra,
    _derived,
    build_dorroh_algebra,
    regular_bimodule,
    verify_algebra_morphism,
)
from dorroh.coalgebra import (
    COALGEBRA,
    BicomoduleCoaction,
    Coalgebra,
    CoalgebraMorphism,
    ComoduleOverCoalgebra,
    DorrohPairCoalgebra,
    build_dorroh_coalgebra,
    regular_bicomodule,
    verify_coalgebra_morphism,
)
from dorroh.duality import DualityWitness
from dorroh.errors import DorrohError, InputError, ValidationFailure
from dorroh.fields import GF, QQ
from dorroh.linalg import Matrix, invert
from dorroh.tensors import TO_ALGEBRA, TO_COALGEBRA, rotate, transport

from support import random_algebra_pair, random_coalgebra_pair

# ---------------------------------------------------------------------------
# reference: the per-side duality functions, verbatim


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
    _derived(COALGEBRA, copair, None)

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
    _derived(ALGEBRA, apair, None)

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


# ---------------------------------------------------------------------------
# reference: the per-side basis changes, verbatim


def conjugate_algebra(a: Algebra, S: Matrix) -> Algebra:
    """Structure constants in the new basis e'_j = sum_i S[i][j] e_i."""
    Sinv = invert(S)
    if Sinv is None:
        raise InputError("basis change must be invertible")
    St = S.transpose()
    return Algebra(a.dim, transport(a.mul, (St, St, Sinv)), a.field)


def conjugate_algebra_pair(pair: DorrohPairAlgebra, SA: Matrix, SI: Matrix) -> DorrohPairAlgebra:
    A2 = conjugate_algebra(pair.A, SA)
    I2 = conjugate_algebra(pair.I, SI)
    SAt, SIt, SIinv = SA.transpose(), SI.transpose(), invert(SI)
    action = BimoduleAction(
        A2,
        pair.I.dim,
        transport(pair.action.left, (SAt, SIt, SIinv)),
        transport(pair.action.right, (SIt, SAt, SIinv)),
    )
    return DorrohPairAlgebra(A2, I2, action)


def conjugate_coalgebra(c: Coalgebra, S: Matrix) -> Coalgebra:
    Sinv = invert(S)
    if Sinv is None:
        raise InputError("basis change must be invertible")
    return Coalgebra(c.dim, transport(c.delta, (S.transpose(), Sinv, Sinv)), c.field)


def conjugate_coalgebra_pair(pair: DorrohPairCoalgebra, SC: Matrix, SP: Matrix) -> DorrohPairCoalgebra:
    C2 = conjugate_coalgebra(pair.C, SC)
    P2 = conjugate_coalgebra(pair.P, SP)
    SPt, SCinv, SPinv = SP.transpose(), invert(SC), invert(SP)
    coaction = BicomoduleCoaction(
        C2,
        pair.P.dim,
        transport(pair.coaction.rho_l, (SPt, SCinv, SPinv)),
        transport(pair.coaction.rho_r, (SPt, SPinv, SCinv)),
    )
    return DorrohPairCoalgebra(C2, P2, coaction)


# ---------------------------------------------------------------------------
# the comparison

REFERENCE = sys.modules[__name__]
FIELDS = (QQ, GF(3), GF(5))
NAMES = (
    "k", "dual_numbers", "M2", "kZ2", "nilpotent1", "trunc_poly(0)", "trunc_poly(3)",
    "Mc2", "grouplikes(1)", "grouplikes(3)", "divided_power(0)", "divided_power(2)",
)
RANDOM_PAIRS = 12


def _modules(side, structure, regular):
    """The regular (co)module of ``structure`` and its two one-sided parts."""
    reg = regular(structure)
    left, right = side.tensors(reg)
    return {
        "bi": reg,
        "left": side.module(structure, reg.dim, "left", **{side.actions[0]: left}),
        "right": side.module(structure, reg.dim, "right", **{side.actions[1]: right}),
    }


def _corpus(field):
    """Every input of the comparison over ``field``, by family, with the
    seeded basis changes each structure and pair is conjugated by."""
    rng = random.Random(f"duality-reference-{field!r}")
    algebras, coalgebras = {}, {}
    for name in NAMES:
        obj = gallery.instance(name, field)
        (algebras if isinstance(obj, Algebra) else coalgebras)[name] = obj
    apairs = dict(gallery.standard_algebra_pairs(field))
    cpairs = dict(gallery.standard_coalgebra_pairs(field))
    for i in range(RANDOM_PAIRS):
        apairs[f"random{i}"] = random_algebra_pair(rng, field)
        cpairs[f"random{i}"] = random_coalgebra_pair(rng, field)
    for name, pair in apairs.items():
        algebras[f"ext:{name}"] = build_dorroh_algebra(pair)
    for name, pair in cpairs.items():
        coalgebras[f"ext:{name}"] = build_dorroh_coalgebra(pair)
    modules = {
        f"{name}:{kind}": m
        for name, a in algebras.items()
        for kind, m in _modules(ALGEBRA, a, regular_bimodule).items()
    }
    comodules = {
        f"{name}:{kind}": m
        for name, c in coalgebras.items()
        for kind, m in _modules(COALGEBRA, c, regular_bicomodule).items()
    }

    def change(n):
        return gallery.random_invertible(rng, n, field)

    return {
        "algebras": {name: (a, change(a.dim)) for name, a in algebras.items()},
        "coalgebras": {name: (c, change(c.dim)) for name, c in coalgebras.items()},
        "apairs": {name: (p, change(p.A.dim), change(p.I.dim)) for name, p in apairs.items()},
        "cpairs": {name: (p, change(p.C.dim), change(p.P.dim)) for name, p in cpairs.items()},
        "modules": modules,
        "comodules": comodules,
    }


def _emit(result):
    if isinstance(result, tuple):  # a dual pair and its witness
        pair, witness = result
        return "\n".join((exchange.emit(pair), exchange.emit(witness.forward), witness.convention))
    return exchange.emit(result)


def _outcome(fn, *args):
    try:
        return _emit(fn(*args))
    except DorrohError as e:
        return f"{type(e).__name__}: {e}"


def _run(impl, corpus):
    """family -> {case -> emitted text} for the functions of ``impl``."""
    out = {}
    for name, (a, S) in corpus["algebras"].items():
        out.setdefault("dual", {})[f"A|{name}"] = _outcome(impl.dual_coalgebra_of_algebra, a)
        out.setdefault("double-dual", {})[f"A|{name}"] = _outcome(impl.double_dual_iso, a)
        out.setdefault("conjugate", {})[f"A|{name}"] = _outcome(impl.conjugate_algebra, a, S)
    for name, (c, S) in corpus["coalgebras"].items():
        out["dual"][f"C|{name}"] = _outcome(impl.dual_algebra_of_coalgebra, c)
        out["double-dual"][f"C|{name}"] = _outcome(impl.double_dual_iso_coalgebra, c)
        out["conjugate"][f"C|{name}"] = _outcome(impl.conjugate_coalgebra, c, S)
    for name, (p, SA, SI) in corpus["apairs"].items():
        out.setdefault("dualize", {})[f"A|{name}"] = _outcome(impl.dualize_algebra_pair, p)
        out.setdefault("conjugate-pair", {})[f"A|{name}"] = _outcome(impl.conjugate_algebra_pair, p, SA, SI)
    for name, (p, SC, SP) in corpus["cpairs"].items():
        out["dualize"][f"C|{name}"] = _outcome(impl.dualize_coalgebra_pair, p)
        out["conjugate-pair"][f"C|{name}"] = _outcome(impl.conjugate_coalgebra_pair, p, SC, SP)
    out["module-dual"] = {f"M|{name}": _outcome(impl.dual_actions, m) for name, m in corpus["modules"].items()}
    out["module-dual"].update(
        {f"C|{name}": _outcome(impl.dual_coactions, m) for name, m in corpus["comodules"].items()}
    )
    return out


class _Library:
    """The library's functions under the reference's names."""

    def __getattr__(self, name):
        return getattr(duality, name, None) or getattr(gallery, name)


@pytest.fixture(scope="module")
def corpora():
    corpora = {field: _corpus(field) for field in FIELDS}
    return corpora, {field: _run(_Library(), corpus) for field, corpus in corpora.items()}


def _mismatches(corpora, impl):
    """family -> the cases on which ``impl`` and the library differ."""
    corpora, library = corpora
    bad = {}
    for field, corpus in corpora.items():
        for family, cases in _run(impl, corpus).items():
            for case, text in cases.items():
                if text != library[field][family][case]:
                    bad.setdefault(family, []).append(f"{field!r}|{case}")
    return bad


def test_corpus_covers_every_family_on_valid_results(corpora):
    corpora, library = corpora
    for field, families in library.items():
        assert set(families) == {"dual", "double-dual", "conjugate", "dualize", "conjugate-pair", "module-dual"}
        for family, cases in families.items():
            failed = [case for case, text in cases.items() if not text.startswith("{")]
            assert cases and not failed, (field, family, failed)


def test_one_body_per_side_matches_the_per_side_reference(corpora):
    assert _mismatches(corpora, REFERENCE) == {}


def test_reference_with_the_wrong_rotation_fails_the_comparison(corpora, monkeypatch):
    # the co-opposite: the two tensor legs of every Delta swapped
    monkeypatch.setattr(REFERENCE, "TO_COALGEBRA", (2, 1, 0))
    bad = _mismatches(corpora, REFERENCE)
    assert {"dual", "double-dual", "dualize", "module-dual"} <= set(bad)


def test_reference_with_the_wrong_output_leg_fails_the_comparison(corpora, monkeypatch):
    # S in place of S^-1 on the output leg of every basis change
    monkeypatch.setattr(REFERENCE, "invert", lambda S: S)
    bad = _mismatches(corpora, REFERENCE)
    assert {"conjugate", "conjugate-pair"} <= set(bad)
