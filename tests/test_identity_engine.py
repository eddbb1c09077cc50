"""Golden first witnesses of every axiom validator, and the identity engine.

The corpus covers the gallery's standard pairs, seeded random pairs over
Q, GF(3) and GF(5), single-entry perturbations of every tensor of those
pairs, modules and comodules glued by ``assemble_*`` and iterated
triples.  ``tests/data/validator_golden.json`` holds each object's
checks as ``CheckResult.to_json`` dicts; the test rebuilds the corpus and
requires byte-equal output, so check names, order, status and witness
are all pinned.

Regenerate the golden file (only for an intended behaviour change) with
``PYTHONPATH=src python tests/test_identity_engine.py``.
"""

import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dorroh import tensors
from dorroh.algebra import (
    ACTION_LAWS,
    ASSOCIATIVITY,
    PAIR_LAWS,
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
    regular_bicomodule,
)
from dorroh.errors import ValidationFailure
from dorroh.fields import GF, QQ
from dorroh.gallery import (
    algebra_k,
    counital_hull,
    divided_power,
    dual_numbers,
    group_algebra_z2,
    grouplikes,
    matrix_algebra_2,
    matrix_coalgebra_2,
    conjugate_algebra_pair,
    nilpotent_line,
    random_invertible,
    regular_pair,
    scalar_action_pair,
    standard_algebra_pairs,
    standard_coalgebra_pairs,
    truncated_polynomials,
)
from dorroh.tensors import TO_COALGEBRA, SparseTensor3, first_witness, rotate

from support import entry, random_algebra_pair, random_coalgebra_pair

GOLDEN = Path(__file__).parent / "data" / "validator_golden.json"
FIELDS = (QQ, GF(3), GF(5))
SEED = 20200706
RANDOM_PAIRS = 6
MODULE_FIELDS = FIELDS[:2]

# Every identity check, by the corpus kind that runs it.  Module and
# comodule reports merged into assemble_* carry a prefix and are counted
# under "module"/"comodule" through their own direct runs.
IDENTITY_CHECKS = {
    "algebra": ["associativity"],
    "pair-algebra": [
        "(ab)x=a(bx)", "x(ab)=(xa)b", "(ax)b=a(xb)",
        "a(xy)=(ax)y", "(xa)y=x(ay)", "(xy)a=x(ya)",
    ],
    "module": ["(ab)m=a(bm)", "m(ab)=(ma)b", "(am)b=a(mb)"],
    "assemble-module": [
        "a(xm)=(ax)m", "x(am)=(xa)m", "(mx)a=m(xa)",
        "(ma)x=m(ax)", "(am)x=a(mx)", "(xm)a=x(ma)",
    ],
    "triple-algebra": [
        "(a1.a3)a2=a1(a3.a2)", "(a2.a3)a1=a2(a3.a1)", "a1(a2a3)=(a1a2)a3",
        "a2(a1a3)=(a2a1)a3", "(a3a2)a1=a3(a2a1)", "(a3a1)a2=a3(a1a2)",
    ],
    "coalgebra": ["coassociativity"],
    "pair-coalgebra": [
        "(Delta(x)1)rho_l=(1(x)rho_l)rho_l",
        "(rho_r(x)1)rho_r=(1(x)Delta)rho_r",
        "(rho_l(x)1)rho_r=(1(x)rho_r)rho_l",
        "eq3", "eq4", "eq5",
    ],
    "comodule": [
        "(Delta(x)1)rho_l=(1(x)rho_l)rho_l",
        "(rho_r(x)1)rho_r=(1(x)Delta)rho_r",
        "(rho_l(x)1)rho_r=(1(x)rho_r)rho_l",
    ],
    "assemble-comodule": [
        "(1(x)rho_l^C)rho_l^P=(rho_r(x)1)rho_l^P",
        "(1(x)rho_l^P)rho_l^C=(rho_l(x)1)rho_l^P",
        "(rho_r^C(x)1)rho_r^P=(1(x)rho_l)rho_r^P",
        "(rho_r^P(x)1)rho_r^C=(1(x)rho_r)rho_r^P",
        "(rho_l^C(x)1)rho_r^P=(1(x)rho_r^P)rho_l^C",
        "(rho_l^P(x)1)rho_r^C=(1(x)rho_r^C)rho_l^P",
    ],
    "triple-coalgebra": [
        "C1-C2-bicomodule", "C2-C1-bicomodule", "eq11", "eq12", "eq13", "eq14",
    ],
}


# ---------------------------------------------------------------------------
# corpus


def _perturb(t, rng):
    """``t`` with one seeded entry shifted by a nonzero scalar; None on an empty box."""
    d0, d1, d2 = t.dims
    if not (d0 and d1 and d2):
        return None
    key = (rng.randrange(d0), rng.randrange(d1), rng.randrange(d2))
    entries = dict(t.entries)
    entries[key] = entries.get(key, 0) + rng.choice((1, -1, 2))
    return SparseTensor3(t.dims, entries, t.field)


def _checks(report):
    return [c.to_json() for c in report.checks]


def _raised(fn, *args):
    """The checks of a ValidationFailure raised by ``fn``, or None if it returned."""
    try:
        fn(*args)
    except ValidationFailure as err:
        return {"raised": _checks(err.report)}
    return None


def _algebra_pair(A, I, left, right):
    return DorrohPairAlgebra(A, I, BimoduleAction(A, I.dim, left, right))


def _coalgebra_pair(C, P, rho_l, rho_r):
    return DorrohPairCoalgebra(C, P, BicomoduleCoaction(C, P.dim, rho_l, rho_r))


def _algebra_pair_records(tag, pair, rng, rounds):
    out = {
        f"pair-algebra|{tag}|base": _checks(check_dorroh_pair_algebra(pair)),
        f"algebra|{tag}|A": _checks(check_associativity(pair.A)),
        f"algebra|{tag}|I": _checks(check_associativity(pair.I)),
        f"algebra|{tag}|extension": _checks(check_associativity(build_dorroh_algebra(pair))),
    }
    A, I, act = pair.A, pair.I, pair.action
    for r in range(rounds):
        for slot in ("A", "I", "left", "right"):
            src = {"A": A.mul, "I": I.mul, "left": act.left, "right": act.right}[slot]
            t = _perturb(src, rng)
            if t is None:
                continue
            parts = {"A": A, "I": I, "left": act.left, "right": act.right}
            if slot in ("A", "I"):
                parts[slot] = Algebra(src.dims[0], t, t.field)
                out[f"algebra|{tag}|{slot}~{r}"] = _checks(check_associativity(parts[slot]))
            else:
                parts[slot] = t
            p = _algebra_pair(parts["A"], parts["I"], parts["left"], parts["right"])
            out[f"pair-algebra|{tag}|{slot}~{r}"] = _checks(check_dorroh_pair_algebra(p))
    return out


def _coalgebra_pair_records(tag, pair, rng, rounds):
    out = {
        f"pair-coalgebra|{tag}|base": _checks(check_dorroh_pair_coalgebra(pair)),
        f"coalgebra|{tag}|C": _checks(check_coassociativity(pair.C)),
        f"coalgebra|{tag}|P": _checks(check_coassociativity(pair.P)),
        f"coalgebra|{tag}|extension": _checks(check_coassociativity(build_dorroh_coalgebra(pair))),
    }
    C, P, co = pair.C, pair.P, pair.coaction
    for r in range(rounds):
        for slot in ("C", "P", "rho_l", "rho_r"):
            src = {"C": C.delta, "P": P.delta, "rho_l": co.rho_l, "rho_r": co.rho_r}[slot]
            t = _perturb(src, rng)
            if t is None:
                continue
            parts = {"C": C, "P": P, "rho_l": co.rho_l, "rho_r": co.rho_r}
            if slot in ("C", "P"):
                parts[slot] = Coalgebra(src.dims[0], t, t.field)
                out[f"coalgebra|{tag}|{slot}~{r}"] = _checks(check_coassociativity(parts[slot]))
            else:
                parts[slot] = t
            p = _coalgebra_pair(parts["C"], parts["P"], parts["rho_l"], parts["rho_r"])
            out[f"pair-coalgebra|{tag}|{slot}~{r}"] = _checks(check_dorroh_pair_coalgebra(p))
    return out


def _split_slot(t, slot, n):
    """Split a tensor along index ``slot`` at n, shifting the upper part down."""
    parts = ({}, {})
    for key, v in t.entries.items():
        hi = key[slot] >= n
        k = list(key)
        k[slot] -= n if hi else 0
        parts[hi][tuple(k)] = v
    dims = list(t.dims), list(t.dims)
    dims[0][slot] = n
    dims[1][slot] = t.dims[slot] - n
    return tuple(SparseTensor3(tuple(d), e, t.field) for d, e in zip(dims, parts))


def _module_records(tag, pair, rng):
    """Restrict the regular bimodule of the extension to A and I, per side,
    then glue it back, before and after single-entry perturbations."""
    built = build_dorroh_algebra(pair)
    reg = regular_bimodule(built)
    na, n = pair.A.dim, built.dim
    left_a, left_i = _split_slot(reg.left, 0, na)
    right_a, right_i = _split_slot(reg.right, 1, na)
    out = {}
    for side in ("left", "right", "bi"):
        base = {
            "la": left_a if side != "right" else None,
            "li": left_i if side != "right" else None,
            "ra": right_a if side != "left" else None,
            "ri": right_i if side != "left" else None,
        }
        variants = [("base", base)]
        for slot in [s for s in ("la", "li", "ra", "ri") if base[s] is not None]:
            t = _perturb(base[slot], rng)
            if t is not None:
                variants.append((f"{slot}~", {**base, slot: t}))
        for name, parts in variants:
            m_a = ModuleOverAlgebra(pair.A, n, side, left=parts["la"], right=parts["ra"])
            m_i = ModuleOverAlgebra(pair.I, n, side, left=parts["li"], right=parts["ri"])
            key = f"{tag}|{side}|{name}"
            out[f"module|{key}|A"] = _checks(m_a.validate())
            out[f"module|{key}|I"] = _checks(m_i.validate())
            out[f"assemble-module|{key}"] = _raised(assemble_module, pair, m_a, m_i, side)
    return out


def _comodule_records(tag, pair, rng):
    built = build_dorroh_coalgebra(pair)
    reg = regular_bicomodule(built)
    nc, n = pair.C.dim, built.dim
    rl_c, rl_p = _split_slot(reg.rho_l, 1, nc)
    rr_c, rr_p = _split_slot(reg.rho_r, 2, nc)
    out = {}
    for side in ("left", "right", "bi"):
        base = {
            "lc": rl_c if side != "right" else None,
            "lp": rl_p if side != "right" else None,
            "rc": rr_c if side != "left" else None,
            "rp": rr_p if side != "left" else None,
        }
        variants = [("base", base)]
        for slot in [s for s in ("lc", "lp", "rc", "rp") if base[s] is not None]:
            t = _perturb(base[slot], rng)
            if t is not None:
                variants.append((f"{slot}~", {**base, slot: t}))
        for name, parts in variants:
            com_c = ComoduleOverCoalgebra(pair.C, n, side, rho_l=parts["lc"], rho_r=parts["rc"])
            com_p = ComoduleOverCoalgebra(pair.P, n, side, rho_l=parts["lp"], rho_r=parts["rp"])
            key = f"{tag}|{side}|{name}"
            out[f"comodule|{key}|C"] = _checks(com_c.validate())
            out[f"comodule|{key}|P"] = _checks(com_p.validate())
            out[f"assemble-comodule|{key}"] = _raised(assemble_comodule, pair, com_c, com_p, side)
    return out


def _triple_record(check, algs, acts):
    try:
        report, _ = check(*algs, *acts)
    except ValidationFailure as err:
        return {"raised": _checks(err.report)}
    return _checks(report)


def _action_parts(act):
    if isinstance(act, BimoduleAction):
        return act.acting, [act.left, act.right]
    return act.coacting, [act.rho_l, act.rho_r]


def _triple_records(kind, tag, check, algs, acts, rng, rounds):
    """Run ``check`` on a triple and on single-entry perturbations of each
    of its six action (or coaction) tensors."""
    out = {f"{kind}|{tag}|base": _triple_record(check, algs, acts)}
    for r in range(rounds):
        for which, label in enumerate(("12", "13", "23")):
            owner, tensors = _action_parts(acts[which])
            for side in range(2):
                t = _perturb(tensors[side], rng)
                if t is None:
                    continue
                parts = list(tensors)
                parts[side] = t
                bent = list(acts)
                bent[which] = type(acts[which])(owner, acts[which].carrier_dim, *parts)
                name = f"{label}{'lr'[side]}~{r}"
                out[f"{kind}|{tag}|{name}"] = _triple_record(check, algs, bent)
    return out


def _algebra_triples(field, rng):
    out = {}
    small = {
        "k": algebra_k(field),
        "dn": dual_numbers(field),
        "kZ2": group_algebra_z2(field),
        "tp2": truncated_polynomials(2, field),
        "M2": matrix_algebra_2(field),
    }
    for name, a in small.items():
        reg = regular_bimodule(a)
        act = BimoduleAction(a, a.dim, reg.left, reg.right)
        out.update(_triple_records(
            "triple-algebra", f"{field!r}|regular-{name}", check_iterated_algebra_triple,
            (a, a, a), (act, act, act), rng, 1,
        ))
    algs = (matrix_algebra_2(field), group_algebra_z2(field), nilpotent_line(field))

    def zero(x, y):
        return BimoduleAction(
            x, y.dim,
            SparseTensor3.zero((x.dim, y.dim, y.dim), field),
            SparseTensor3.zero((y.dim, x.dim, y.dim), field),
        )

    acts = (zero(algs[0], algs[1]), zero(algs[0], algs[2]), zero(algs[1], algs[2]))
    out.update(_triple_records(
        "triple-algebra", f"{field!r}|zero-M2-kZ2-line", check_iterated_algebra_triple,
        algs, acts, rng, 1,
    ))
    return out


def _coalgebra_triples(field, rng):
    out = {}
    small = {
        "gl1": grouplikes(1, field),
        "gl2": grouplikes(2, field),
        "dp1": divided_power(1, field),
        "dp2": divided_power(2, field),
        "Mc2": matrix_coalgebra_2(field),
    }
    for name, c in small.items():
        reg = regular_bicomodule(c)
        co = BicomoduleCoaction(c, c.dim, reg.rho_l, reg.rho_r)
        out.update(_triple_records(
            "triple-coalgebra", f"{field!r}|regular-{name}", check_iterated_coalgebra_triple,
            (c, c, c), (co, co, co), rng, 1,
        ))
    cos = (matrix_coalgebra_2(field), grouplikes(2, field), divided_power(1, field))

    def zero(x, y):
        return BicomoduleCoaction(
            x, y.dim,
            SparseTensor3.zero((y.dim, x.dim, y.dim), field),
            SparseTensor3.zero((y.dim, y.dim, x.dim), field),
        )

    acts = (zero(cos[0], cos[1]), zero(cos[0], cos[2]), zero(cos[1], cos[2]))
    out.update(_triple_records(
        "triple-coalgebra", f"{field!r}|zero-Mc2-gl2-dp1", check_iterated_coalgebra_triple,
        cos, acts, rng, 1,
    ))
    return out


def corpus():
    """Label -> recorded checks for every corpus object, in a fixed order."""
    out = {}
    rng = random.Random(SEED)
    for field in FIELDS:
        for name, pair in standard_algebra_pairs(field):
            tag = f"{field!r}|{name}"
            out.update(_algebra_pair_records(tag, pair, rng, 2))
            if field in MODULE_FIELDS:
                out.update(_module_records(tag, pair, rng))
        for name, pair in standard_coalgebra_pairs(field):
            tag = f"{field!r}|{name}"
            out.update(_coalgebra_pair_records(tag, pair, rng, 2))
            if field in MODULE_FIELDS:
                out.update(_comodule_records(tag, pair, rng))
        for i in range(RANDOM_PAIRS):
            pair = random_algebra_pair(rng, field)
            out.update(_algebra_pair_records(f"{field!r}|random{i}", pair, rng, 1))
            pair = random_coalgebra_pair(rng, field)
            out.update(_coalgebra_pair_records(f"{field!r}|random{i}", pair, rng, 1))
        out.update(_algebra_triples(field, rng))
        out.update(_coalgebra_triples(field, rng))
    return out


def render(records):
    """The golden file's text: a JSON object with one object per line."""
    lines = [f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}" for k, v in records.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def _failing(records):
    """(kind, check name) of every failing unprefixed check in the records."""
    seen = set()
    for label, rec in records.items():
        kind = label.split("|", 1)[0]
        if isinstance(rec, dict):
            rec = rec["raised"]
        for c in rec or ():
            if c["status"] == "fail" and ":" not in c["name"]:
                seen.add((kind, c["name"]))
    return seen


# ---------------------------------------------------------------------------
# tests


def test_corpus_matches_golden_checks():
    assert render(corpus()) == GOLDEN.read_text()


def test_every_identity_check_fails_somewhere_in_the_corpus():
    assert sum(len(names) for names in IDENTITY_CHECKS.values()) == 44
    failing = _failing(json.loads(GOLDEN.read_text()))
    missing = [(k, n) for k, names in IDENTITY_CHECKS.items() for n in names if (k, n) not in failing]
    assert missing == []


def _zero_algebra(n):
    return Algebra(n, SparseTensor3.zero((n, n, n), QQ), QQ)


def test_empty_associativity_cost_is_bounded():
    a = _zero_algebra(400)
    start = time.perf_counter()
    assert check_associativity(a).ok
    assert time.perf_counter() - start < 1.0


def test_empty_pair_check_cost_is_bounded():
    A, I = _zero_algebra(400), _zero_algebra(400)
    pair = _algebra_pair(
        A, I, SparseTensor3.zero((400, 400, 400), QQ), SparseTensor3.zero((400, 400, 400), QQ)
    )
    start = time.perf_counter()
    assert check_dorroh_pair_algebra(pair).ok
    assert time.perf_counter() - start < 1.0


def _dense_first_witness(field, box, out, lhs, rhs):
    """Reference: scan the whole box in lexicographic order."""
    sizes = {}
    for spec, T, U in (lhs, rhs):
        for letters, t in zip(spec.split(","), (T, U)):
            sizes.update(zip(letters, t.dims))
    for idx in itertools.product(*(range(sizes[c]) for c in box)):
        for jdx in itertools.product(*(range(sizes[c]) for c in out)):
            env = dict(zip(box + out, idx + jdx))
            total = 0
            for sign, (spec, T, U) in ((1, lhs), (-1, rhs)):
                t_letters, u_letters = spec.split(",")
                (l,) = set(t_letters) & set(u_letters)
                for env[l] in range(sizes[l]):
                    total += sign * entry(T, *(env[c] for c in t_letters)) * entry(U, *(env[c] for c in u_letters))
            if field.canon(total) != 0:
                return idx
    return None


def _tensor(draw, dims, field):
    cells = st.tuples(*(st.integers(0, d - 1) for d in dims))
    values = st.integers(-2, 2) if field.p is None else st.integers(0, field.p - 1)
    return SparseTensor3(dims, draw(st.dictionaries(cells, values, max_size=6)), field)


def _identities(mul, left, right, delta, rho_l):
    """(box, out, lhs, rhs) of an algebra, module, pair, coalgebra and comodule law."""
    return [
        ("ijk", "m", ("ijl,lkm", mul, mul), ("jkl,ilm", mul, mul)),
        ("abx", "y", ("abl,lxy", mul, left), ("bxz,azy", left, left)),
        ("xab", "y", ("abl,xly", mul, right), ("xaz,zby", right, right)),
        ("axb", "y", ("axz,zby", left, right), ("xbz,azy", right, left)),
        ("x", "pqr", ("xir,ipq", delta, delta), ("xpj,jqr", delta, delta)),
        ("x", "pqy", ("xcy,cpq", rho_l, mul), ("xpz,zqy", rho_l, rho_l)),
    ]


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(1, 3), st.sampled_from([QQ, GF(2), GF(3)]))
def test_first_witness_matches_dense_scan(data, na, ni, field):
    identities = _identities(
        _tensor(data.draw, (na, na, na), field),
        _tensor(data.draw, (na, ni, ni), field),
        _tensor(data.draw, (ni, na, ni), field),
        _tensor(data.draw, (ni, ni, ni), field),
        _tensor(data.draw, (ni, na, ni), field),
    )
    for box, out, lhs, rhs in identities:
        expected = _dense_first_witness(field, box, out, lhs, rhs)
        assert first_witness(field, box, out, lhs, rhs) == expected


# ---------------------------------------------------------------------------
# factors with one entry per summed index


def _one_entry_sides(lhs, rhs):
    """Per side, whether the smaller factor (U on a tie) has one entry per summed index."""
    sides = []
    for spec, T, U in (lhs, rhs):
        t_letters, u_letters = spec.split(",")
        (l,) = set(t_letters) & set(u_letters)
        if len(U.entries) > len(T.entries):
            U, u_letters = T, t_letters
        q = u_letters.index(l)
        sides.append(len({key[q] for key in U.entries}) == len(U.entries))
    return tuple(sides)


def _one_entry_laws(field, values):
    """(one-entry sides, a passing law, the law with one entry moved) for a
    grouplike coalgebra, a scalar coaction over it and over the divided
    powers, and a permuted identity module over the idempotents k^3."""
    c0, c1, c2 = values

    def t(entries):
        return SparseTensor3((3, 3, 3), entries, field)

    grouplike = {(0, 0, 0): c0, (1, 1, 1): c1, (2, 2, 2): c2}
    divided = {(n, i, n - i): c0 if n == 0 else c1 for n in range(3) for i in range(n + 1)}
    scalar = {(x, 0, x): c0 for x in range(3)}
    sigma = (1, 2, 0)
    permuted = {(sigma[x], x, x): values[sigma[x]] for x in range(3)}

    def coassociativity(delta):
        return ("x", "pqr", ("xir,ipq", delta, delta), ("xpj,jqr", delta, delta))

    def comodule(rho, delta):
        return ("x", "pqy", ("xcy,cpq", rho, delta), ("xpz,zqy", rho, rho))

    def module(mul, left):
        return ("abx", "y", ("abl,lxy", mul, left), ("bxz,azy", left, left))

    def moved(entries, old, new):
        out = dict(entries)
        out[new] = out.pop(old)
        return t(out)

    return [
        ((True, True), coassociativity(t(grouplike)),
         coassociativity(moved(grouplike, (1, 1, 1), (1, 0, 2)))),
        ((True, True), comodule(t(scalar), t(grouplike)),
         comodule(moved(scalar, (1, 0, 1), (1, 2, 0)), t(grouplike))),
        ((False, True), comodule(t(scalar), t(divided)),
         comodule(moved(scalar, (1, 0, 1), (1, 1, 1)), t(divided))),
        ((True, True), module(t(grouplike), t(permuted)),
         module(t(grouplike), moved(permuted, (1, 0, 0), (1, 0, 1)))),
    ]


@pytest.mark.parametrize(
    "field, values",
    [(QQ, (-2, Fraction(2, 3), 1)), (GF(2), (1, 1, 1)), (GF(3), (2, 1, 2))],
    ids=["QQ", "GF2", "GF3"],
)
def test_one_entry_factors_match_dense_scan(field, values):
    for sides, law, bent in _one_entry_laws(field, values):
        for (box, out, lhs, rhs), passes in ((law, True), (bent, False)):
            assert _one_entry_sides(lhs, rhs) == sides
            expected = _dense_first_witness(field, box, out, lhs, rhs)
            assert (expected is None) == passes
            assert first_witness(field, box, out, lhs, rhs) == expected


def _permutation_tensor(draw, dims, field):
    """Entries at (π0(t), π1(t), π2(t)) for t < size: one per index on every leg."""
    size = draw(st.integers(0, min(dims)))
    keys = zip(*(draw(st.permutations(range(d)))[:size] for d in dims))
    values = st.sampled_from([-2, -1, 1, 2, Fraction(1, 2)]) if field.p is None else st.integers(1, field.p - 1)
    return SparseTensor3(dims, {key: draw(values) for key in keys}, field)


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(1, 3), st.sampled_from([QQ, GF(2), GF(3)]))
def test_first_witness_matches_dense_scan_on_permutation_tensors(data, na, ni, field):
    identities = _identities(
        _permutation_tensor(data.draw, (na, na, na), field),
        _permutation_tensor(data.draw, (na, ni, ni), field),
        _permutation_tensor(data.draw, (ni, na, ni), field),
        _permutation_tensor(data.draw, (ni, ni, ni), field),
        _permutation_tensor(data.draw, (ni, na, ni), field),
    )
    for box, out, lhs, rhs in identities:
        expected = _dense_first_witness(field, box, out, lhs, rhs)
        assert first_witness(field, box, out, lhs, rhs) == expected


def test_first_witness_rejects_malformed_specs():
    t = SparseTensor3((2, 2, 2), {}, QQ)
    with pytest.raises(ValueError):
        first_witness(QQ, "ijk", "m", ("ijl,lkl", t, t), ("jkl,ilm", t, t))  # l twice
    with pytest.raises(ValueError):
        first_witness(QQ, "ijk", "m", ("ijl,lkn", t, t), ("jkl,ilm", t, t))  # n not free
    with pytest.raises(ValueError):
        u = SparseTensor3((3, 2, 2), {}, QQ)
        first_witness(QQ, "ijk", "m", ("ijl,lkm", t, u), ("jkl,ilm", t, t))  # l sized 2 and 3


# ---------------------------------------------------------------------------
# dense laws over F_p: the packed path


MERSENNE_31, MERSENNE_61 = GF(2**31 - 1), GF(2**61 - 1)


def _packs(field, box, out, lhs, rhs):
    """Whether the packed path should decide the law: no common delta
    reading decides it first (``_common_reading``), and over F_p, volume
    nonzero and at most PACK_VOLUME, at least two estimated products per
    code, and twice the least multiple of p at least size(l) (p - 1)^2
    below 2^64."""
    if _common_reading(lhs, rhs):
        return False
    sizes = {}
    for spec, T, U in (lhs, rhs):
        for letters, t in zip(spec.split(","), (T, U)):
            sizes.update(zip(letters, t.dims))
    volume = 1
    for c in box + out:
        volume *= sizes[c]
    if field.p is None or not 0 < volume <= tensors.PACK_VOLUME:
        return False
    estimate, bound = 0, 0
    for spec, T, U in (lhs, rhs):
        t_letters, u_letters = spec.split(",")
        (l,) = set(t_letters) & set(u_letters)
        estimate += Fraction(len(T.entries) * len(U.entries), sizes[l] or 1)
        bound = max(bound, sizes[l] * (field.p - 1) ** 2)
    bias = -(-bound // field.p) * field.p
    return estimate >= 2 * volume and 2 * bias < 2**64


def _witness_and_path(field, box, out, lhs, rhs):
    """first_witness's answer, and whether the packed path gave it."""
    with mock.patch.object(tensors, "_packed", wraps=tensors._packed) as packed:
        witness = first_witness(field, box, out, lhs, rhs)
    return witness, packed.called


def _dense_tensor(draw, dims, field):
    """Every cell drawn from the field, or (one time in five) no entries."""
    cells = list(itertools.product(*(range(d) for d in dims)))
    if not draw(st.integers(0, 4)):
        return SparseTensor3(dims, {}, field)
    values = draw(st.lists(st.integers(0, field.p - 1), min_size=len(cells), max_size=len(cells)))
    return SparseTensor3(dims, dict(zip(cells, values)), field)


@settings(max_examples=100, deadline=None)
@given(
    st.data(), st.integers(0, 5), st.integers(0, 5),
    st.sampled_from([GF(2), GF(7), GF(10007), MERSENNE_31, MERSENNE_61]),
)
def test_packed_path_matches_dense_scan(data, na, ni, field):
    identities = _identities(
        _dense_tensor(data.draw, (na, na, na), field),
        _dense_tensor(data.draw, (na, ni, ni), field),
        _dense_tensor(data.draw, (ni, na, ni), field),
        _dense_tensor(data.draw, (ni, ni, ni), field),
        _dense_tensor(data.draw, (ni, na, ni), field),
    )
    for box, out, lhs, rhs in identities:
        witness, packed = _witness_and_path(field, box, out, lhs, rhs)
        assert witness == _dense_first_witness(field, box, out, lhs, rhs)
        assert packed == _packs(field, box, out, lhs, rhs)
        if field is MERSENNE_61:
            assert not packed  # no slot holds a product of two values below 2^61


def _triangular_3(field):
    """T(3): upper-triangular 3 x 3 matrices, e_ij (i <= j) in lex order."""
    index = {(i, j): n for n, (i, j) in enumerate((i, j) for i in range(3) for j in range(i, 3))}
    entries = {(a, index[j, m], index[i, m]): 1 for (i, j), a in index.items() for m in range(j, 3)}
    return Algebra(6, SparseTensor3((6, 6, 6), entries, field), field)


def _pair_laws(pair):
    """(box, out, lhs, rhs) of the eight laws of a pair (associativity of A
    and of I, three action laws, three pair laws), algebra forms then
    the coalgebra forms on the Kronecker duals of its tensors."""
    roles = {"mul": pair.A.mul, "left": pair.action.left, "right": pair.action.right, "mi": pair.I.mul}
    duals = {name: rotate(t, TO_COALGEBRA) for name, t in roles.items()}
    laws = []
    for table, bound in ((ASSOCIATIVITY, ("mul",)), (ASSOCIATIVITY, ("mi",)), (ACTION_LAWS, ()), (PAIR_LAWS, ())):
        for side, named in (("algebra", roles), ("coalgebra", duals)):
            named = {"mul": named[bound[0]]} if bound else named
            for _, box, out, (ls, l1, l2), (rs, r1, r2) in getattr(table, side):
                laws.append((box, out, (ls, named[l1], named[l2]), (rs, named[r1], named[r2])))
    return laws


def _moved(T, rng):
    """T with one seeded entry added onto another cell and removed from its own."""
    entries = dict(T.entries)
    old = rng.choice(sorted(entries))
    new = tuple(rng.randrange(d) for d in T.dims)
    value = entries.pop(old)
    entries[new] = entries.get(new, 0) + value
    return SparseTensor3(T.dims, entries, T.field)


@pytest.mark.parametrize("field", [GF(7), GF(10007), MERSENNE_31], ids=["GF7", "GF10007", "GF2^31-1"])
@pytest.mark.parametrize("algebra", [matrix_algebra_2, _triangular_3], ids=["M2", "T3"])
def test_packed_path_decides_conjugated_regular_pairs(algebra, field):
    rng = random.Random(30)
    a = algebra(field)
    pair = conjugate_algebra_pair(
        regular_pair(a), random_invertible(rng, a.dim, field), random_invertible(rng, a.dim, field)
    )
    paths = []
    failed = 0
    for box, out, lhs, rhs in _pair_laws(pair):
        witness, packed = _witness_and_path(field, box, out, lhs, rhs)
        assert witness is None
        assert packed == _packs(field, box, out, lhs, rhs)
        paths.append(packed)
        side = rng.randrange(2)
        term = (lhs, rhs)[side]
        slot = rng.randrange(1, 3)
        bent = list(term)
        bent[slot] = _moved(term[slot], rng)
        lhs, rhs = (tuple(bent), rhs) if side == 0 else (lhs, tuple(bent))
        witness, packed = _witness_and_path(field, box, out, lhs, rhs)
        assert witness == _dense_first_witness(field, box, out, lhs, rhs)
        assert packed == _packs(field, box, out, lhs, rhs)
        failed += witness is not None
    assert len(paths) == 16 and failed >= 12
    # conjugated by dense changes, every law is dense; 2^31 - 1 fits a slot only at size(l) = 1
    assert all(paths) if field is not MERSENNE_31 else not any(paths)


def test_first_witness_rejects_malformed_specs_on_the_packed_path():
    field = GF(10007)
    cells = itertools.product(range(4), repeat=3)
    t = SparseTensor3((4, 4, 4), {key: 1 + sum(key) for key in cells}, field)
    law = ("ijk", "m", ("ijl,lkm", t, t), ("jkl,ilm", t, t))
    assert _witness_and_path(field, *law)[1]  # the well-formed law packs
    with pytest.raises(ValueError):
        first_witness(field, "ijk", "m", ("ijl,lkl", t, t), ("jkl,ilm", t, t))  # l twice
    with pytest.raises(ValueError):
        first_witness(field, "ijk", "m", ("ijl,lkn", t, t), ("jkl,ilm", t, t))  # n not free
    with pytest.raises(ValueError):
        u = SparseTensor3((5, 4, 4), {key: 1 for key in itertools.product(range(5), range(4), range(4))}, field)
        first_witness(field, "ijk", "m", ("ijl,lkm", t, u), ("jkl,ilm", t, t))  # l sized 4 and 5


# ---------------------------------------------------------------------------
# terms that rename a factor through a Kronecker delta


def _delta_readings(term, sizes):
    """Reference: each (X's entries, X's letters with l renamed to y, z)
    for which the other factor D of ``term`` equals, entry for entry, the
    Kronecker delta D[l, y, z] = [l = y] [z = 0] with size(y) = size(l)
    and size(z) = 1."""
    spec, T, U = term
    t_letters, u_letters = spec.split(",")
    (l,) = set(t_letters) & set(u_letters)
    readings = []
    for d_letters, D, x_letters, X in ((t_letters, T, u_letters, U), (u_letters, U, t_letters, T)):
        for y, z in itertools.permutations(d_letters.replace(l, "")):
            if sizes[y] != sizes[l] or sizes[z] != 1:
                continue
            delta = {tuple({l: m, y: m, z: 0}[c] for c in d_letters): 1 for m in range(sizes[l])}
            if D.entries == delta:
                readings.append((X.entries, x_letters.replace(l, y), z))
    return readings


def _common_reading(lhs, rhs):
    """Whether some delta reading of lhs equals some delta reading of rhs."""
    sizes = {}
    for spec, T, U in (lhs, rhs):
        for letters, t in zip(spec.split(","), (T, U)):
            sizes.update(zip(letters, t.dims))
    right = _delta_readings(rhs, sizes)
    return any(reading in right for reading in _delta_readings(lhs, sizes))


def _witness_and_contraction(field, box, out, lhs, rhs):
    """first_witness's answer, and whether the grouped or the packed path ran."""
    with mock.patch.object(tensors, "_grouped", wraps=tensors._grouped) as grouped, \
            mock.patch.object(tensors, "_packed", wraps=tensors._packed) as packed:
        witness = first_witness(field, box, out, lhs, rhs)
    return witness, grouped.called or packed.called


NEAR_DELTAS = ("exact", "value", "extra", "moved", "missing", "pinned2")


def _scalar_tensor(draw, dims, acting, field, kind):
    """The scalar (co)action on a carrier of size n = dims[2] off the
    ``acting`` leg, {(x, 0, x) laid out by dims: 1}, or a near-delta:
    one entry's value 2 or -1, one extra entry, one entry moved off the
    diagonal or one entry missing.  ``pinned2`` is exact on an acting leg
    of size 2, whose index 1 no entry uses."""
    n = dims[2]
    entries = {}
    for x in range(n):
        key = [x, x, x]
        key[acting] = 0
        entries[tuple(key)] = 1
    cells = list(itertools.product(*(range(d) for d in dims)))
    off = [key for key in cells if key not in entries]
    if kind in ("value", "moved", "missing") and entries:
        key = draw(st.sampled_from(sorted(entries)))
        value = entries.pop(key)
        if kind == "value":
            entries[key] = draw(st.sampled_from([2, -1]))
        elif kind == "moved" and off:
            entries[draw(st.sampled_from(off))] = value
    elif kind == "extra" and off:
        entries[draw(st.sampled_from(off))] = draw(st.sampled_from([1, 2, -1]))
    return SparseTensor3(dims, entries, field)


def _copy(T):
    """An equal tensor that is not the same object."""
    return SparseTensor3(T.dims, dict(T.entries), T.field)


@settings(max_examples=120, deadline=None)
@given(
    st.data(), st.integers(1, 4), st.sampled_from(NEAR_DELTAS), st.sampled_from(NEAR_DELTAS),
    st.sampled_from([QQ, GF(2), GF(7), GF(10007)]),
)
def test_delta_factors_match_dense_scan(data, ni, left_kind, right_kind, field):
    """Over the scalar (co)actions of a 1- or 2-dimensional acting
    structure and their near-deltas, every witness is the dense scan's,
    and no contraction runs exactly when the two sides share a reading."""
    na = 2 if "pinned2" in (left_kind, right_kind) else 1
    if na == 1:
        mul = SparseTensor3((1, 1, 1), {(0, 0, 0): data.draw(st.sampled_from([1, 1, 2, -1, 0]))}, field)
    else:
        mul = _tensor(data.draw, (2, 2, 2), field)
    left = _scalar_tensor(data.draw, (na, ni, ni), 0, field, left_kind)
    right = _scalar_tensor(data.draw, (ni, na, ni), 1, field, right_kind)
    rho_l = _scalar_tensor(data.draw, (ni, na, ni), 1, field, data.draw(st.sampled_from(NEAR_DELTAS[:5])))
    delta = _tensor(data.draw, (ni, ni, ni), field)
    copies = data.draw(st.booleans())
    for box, out, lhs, rhs in _identities(mul, left, right, delta, rho_l):
        if copies:
            rhs = (rhs[0], _copy(rhs[1]), _copy(rhs[2]))
        witness, contracted = _witness_and_contraction(field, box, out, lhs, rhs)
        assert witness == _dense_first_witness(field, box, out, lhs, rhs)
        assert contracted == (not _common_reading(lhs, rhs))


def test_each_near_delta_takes_a_contraction():
    """Each near-delta alone keeps the module law (ab)x=a(bx) off the delta
    rule, with the dense scan's witness; the exact scalar action takes the
    rule."""
    field, n = GF(7), 3
    one = SparseTensor3((1, 1, 1), {(0, 0, 0): 1}, field)
    exact = {(0, x, x): 1 for x in range(n)}
    near = {
        "exact": (one, exact),
        "value": (one, {**exact, (0, 1, 1): 2}),
        "extra": (one, {**exact, (0, 1, 2): 1}),
        "moved": (one, {(0, 0, 0): 1, (0, 1, 2): 1, (0, 2, 2): 1}),
        "missing": (one, {(0, 0, 0): 1, (0, 2, 2): 1}),
        "pinned2": (SparseTensor3((2, 2, 2), {(0, 0, 0): 1}, field), exact),
    }
    for kind, (mul, entries) in near.items():
        left = SparseTensor3((mul.dims[0], n, n), entries, field)
        law = ("abx", "y", ("abl,lxy", mul, left), ("bxz,azy", left, left))
        witness, contracted = _witness_and_contraction(field, *law)
        assert witness == _dense_first_witness(field, *law)
        assert contracted == (kind != "exact"), kind


@pytest.mark.parametrize("symmetric", [True, False])
def test_a_delta_reading_keeps_its_letters(symmetric):
    """X[x, y, w] = X[y, x, w] renames X through a delta on each side, to
    "xyw" and to "yxw": the rule never takes it, and it fails exactly when
    X is not symmetric in its first two legs."""
    field, n = QQ, 3
    delta = SparseTensor3((n, n, 1), {(x, x, 0): 1 for x in range(n)}, field)
    entries = {(0, 1, 0): 1, (1, 0, 0): 1 if symmetric else 2, (2, 2, 1): 3}
    X = SparseTensor3((n, n, 2), entries, field)
    law = ("xya", "w", ("xlw,lya", X, delta), ("ylw,lxa", X, delta))
    witness, contracted = _witness_and_contraction(field, *law)
    assert witness == _dense_first_witness(field, *law)
    assert (witness is None) == symmetric
    assert contracted


@pytest.mark.parametrize("field", [QQ, GF(10007)], ids=["QQ", "GF10007"])
def test_scalar_pairs_decide_every_law_without_contraction(field):
    """The counital hull of the divided powers and the scalar action pairs
    decide all six pair laws on delta readings; a hull whose rho_l is bent
    on one diagonal entry fails with the dense scan's witnesses."""
    hull = counital_hull(divided_power(5, field))
    pairs = [
        (check_dorroh_pair_coalgebra, hull),
        (check_dorroh_pair_algebra, scalar_action_pair(field, truncated_polynomials(5, field))),
        (check_dorroh_pair_algebra, scalar_action_pair(field, matrix_algebra_2(field))),
    ]
    with mock.patch.object(tensors, "_readings", wraps=tensors._readings) as readings, \
            mock.patch.object(tensors, "_grouped", wraps=tensors._grouped) as grouped, \
            mock.patch.object(tensors, "_packed", wraps=tensors._packed) as packed:
        for check, pair in pairs:
            report = check(pair)
            assert [c.ok for c in report.checks] == [True] * 6
    assert readings.call_count >= 2 * len(pairs)
    assert not grouped.called and not packed.called

    C, P, co = hull.C, hull.P, hull.coaction
    bent = dict(co.rho_l.entries)
    bent[(2, 0, 2)] = 2
    rho_l = SparseTensor3(co.rho_l.dims, bent, field)
    report = check_dorroh_pair_coalgebra(_coalgebra_pair(C, P, rho_l, co.rho_r))
    roles = {"mul": C.delta, "left": rho_l, "right": co.rho_r, "mi": P.delta}
    laws = {name: (box, out, (ls, roles[l1], roles[l2]), (rs, roles[r1], roles[r2]))
            for table in (ACTION_LAWS, PAIR_LAWS)
            for name, box, out, (ls, l1, l2), (rs, r1, r2) in table.coalgebra}
    assert [c.name for c in report.checks] == list(laws)
    for c in report.checks:
        assert c.witness == _dense_first_witness(field, *laws[c.name])
    assert not report.ok


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render(corpus()))
