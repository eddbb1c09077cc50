"""Golden documents of every construction that lays tensors out in blocks.

The corpus runs, over Q, GF(3) and GF(5), on the gallery's standard pairs
and seeded random pairs:
  * ``build_dorroh_*`` and ``split_*_extension`` along block and
    conjugated bases;
  * ``assemble_*`` gluing the restricted regular bi(co)module of the
    extension back together, on each side;
  * both bracketings (through the associator's source and target) and the
    associator of ``check_iterated_*_triple``;
  * ``triangular_pair`` with its block isomorphism, ``triangular_copair``
    and ``trunc_poly_pair``;
  * every ``dual_*`` and ``dualize_*`` output and ``regular_bi(co)module``;
  * ``find_identity``/``find_counit`` on conjugated and perturbed, often
    non-unital, structure constants.

``tests/data/blocks_golden.json`` holds one line per corpus object, each
the emitted ``dorroh/1`` text of what the construction returned; the test
rebuilds the corpus and requires byte-equal text.

Regenerate the golden file (only for an intended behaviour change) with
``PYTHONPATH=src python tests/test_blocks.py``.
"""

import json
import random
import time
from pathlib import Path

from hypothesis import given, settings, strategies as st

from dorroh import exchange
from dorroh.algebra import (
    Algebra,
    BimoduleAction,
    ModuleOverAlgebra,
    assemble_module,
    build_dorroh_algebra,
    check_iterated_algebra_triple,
    regular_bimodule,
    split_algebra_extension,
)
from dorroh.coalgebra import (
    BicomoduleCoaction,
    Coalgebra,
    ComoduleOverCoalgebra,
    assemble_comodule,
    build_dorroh_coalgebra,
    check_iterated_coalgebra_triple,
    regular_bicomodule,
    split_coalgebra_extension,
)
from dorroh.duality import (
    dual_actions,
    dual_algebra_of_coalgebra,
    dual_coactions,
    dual_coalgebra_of_algebra,
    dualize_algebra_pair,
    dualize_coalgebra_pair,
)
from dorroh.errors import DorrohError, ValidationFailure
from dorroh.fields import GF, QQ
from dorroh.gallery import (
    algebra_k,
    conjugate_algebra,
    conjugate_coalgebra,
    divided_power,
    dual_numbers,
    group_algebra_z2,
    grouplikes,
    matrix_algebra_2,
    matrix_coalgebra_2,
    nilpotent_line,
    random_invertible,
    standard_algebra_pairs,
    standard_coalgebra_pairs,
    triangular_copair,
    triangular_pair,
    trunc_poly_pair,
    truncated_polynomials,
)
from dorroh.linalg import invert
from dorroh.tensors import SparseTensor3
from support import dense_columns, dense_unit, entry, random_algebra_pair, random_coalgebra_pair

GOLDEN = Path(__file__).parent / "data" / "blocks_golden.json"
FIELDS = (QQ, GF(3), GF(5))
SEED = 20200708
RANDOM_PAIRS = 3
RANDOM_UNITS = 40


# ---------------------------------------------------------------------------
# rendering


def _checks(report):
    return [c.to_json() for c in report.checks]


def _outcome(fn, *args):
    """The emitted documents ``fn`` returned, or the error it raised."""
    try:
        out = fn(*args)
    except ValidationFailure as err:
        return {"raised": "ValidationFailure", "message": str(err), "checks": _checks(err.report)}
    except DorrohError as err:
        return {"raised": type(err).__name__, "message": str(err)}
    return [exchange.emit(x) for x in out] if isinstance(out, tuple) else exchange.emit(out)


def _vector(field, v):
    return None if v is None else [field.fmt(x) for x in v]


# ---------------------------------------------------------------------------
# corpus


def _block(n, lo, hi):
    return [[1 if t == i else 0 for t in range(n)] for i in range(lo, hi)]


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


def _algebra_records(tag, pair, rng):
    field = pair.field
    B = build_dorroh_algebra(pair)
    na, n = pair.A.dim, B.dim
    out = {f"build-algebra|{tag}": exchange.emit(B)}

    S = random_invertible(rng, n, field)
    Sinv = dense_columns(invert(S))
    for name, (target, ba, bi) in {
        "block": (B, _block(n, 0, na), _block(n, na, n)),
        "conjugated": (conjugate_algebra(B, S), Sinv[:na], Sinv[na:]),
    }.items():
        out[f"split-algebra|{tag}|{name}"] = _outcome(split_algebra_extension, target, ba, bi)

    reg = regular_bimodule(B)
    out[f"regular-bimodule|{tag}"] = exchange.emit(reg)
    out[f"dual-actions|{tag}|bi"] = exchange.emit(dual_actions(reg))
    left_a, left_i = _split_slot(reg.left, 0, na)
    right_a, right_i = _split_slot(reg.right, 1, na)
    for side in ("left", "right", "bi"):
        la, li = (left_a, left_i) if side != "right" else (None, None)
        ra, ri = (right_a, right_i) if side != "left" else (None, None)
        m_a = ModuleOverAlgebra(pair.A, n, side, left=la, right=ra)
        m_i = ModuleOverAlgebra(pair.I, n, side, left=li, right=ri)
        out[f"assemble-module|{tag}|{side}"] = _outcome(assemble_module, pair, m_a, m_i, side)
        if side != "bi":
            out[f"dual-actions|{tag}|{side}"] = exchange.emit(dual_actions(m_a))

    out[f"dual-coalgebra|{tag}"] = exchange.emit(dual_coalgebra_of_algebra(B))
    copair, witness = dualize_algebra_pair(pair)
    out[f"dualize-algebra-pair|{tag}"] = [exchange.emit(copair), exchange.emit(witness.forward)]
    return out


def _coalgebra_records(tag, pair, rng):
    field = pair.field
    D = build_dorroh_coalgebra(pair)
    nc, n = pair.C.dim, D.dim
    out = {f"build-coalgebra|{tag}": exchange.emit(D)}

    S = random_invertible(rng, n, field)
    Sinv = dense_columns(invert(S))
    for name, (target, bc, bp) in {
        "block": (D, _block(n, 0, nc), _block(n, nc, n)),
        "conjugated": (conjugate_coalgebra(D, S), Sinv[:nc], Sinv[nc:]),
    }.items():
        out[f"split-coalgebra|{tag}|{name}"] = _outcome(split_coalgebra_extension, target, bc, bp)

    reg = regular_bicomodule(D)
    out[f"regular-bicomodule|{tag}"] = exchange.emit(reg)
    out[f"dual-coactions|{tag}|bi"] = exchange.emit(dual_coactions(reg))
    rl_c, rl_p = _split_slot(reg.rho_l, 1, nc)
    rr_c, rr_p = _split_slot(reg.rho_r, 2, nc)
    for side in ("left", "right", "bi"):
        lc, lp = (rl_c, rl_p) if side != "right" else (None, None)
        rc, rp = (rr_c, rr_p) if side != "left" else (None, None)
        com_c = ComoduleOverCoalgebra(pair.C, n, side, rho_l=lc, rho_r=rc)
        com_p = ComoduleOverCoalgebra(pair.P, n, side, rho_l=lp, rho_r=rp)
        out[f"assemble-comodule|{tag}|{side}"] = _outcome(assemble_comodule, pair, com_c, com_p, side)
        if side != "bi":
            out[f"dual-coactions|{tag}|{side}"] = exchange.emit(dual_coactions(com_c))

    out[f"dual-algebra|{tag}"] = exchange.emit(dual_algebra_of_coalgebra(D))
    apair, witness = dualize_coalgebra_pair(pair)
    out[f"dualize-coalgebra-pair|{tag}"] = [exchange.emit(apair), exchange.emit(witness.forward)]
    return out


def _triple(check, algs, acts):
    try:
        report, associator = check(*algs, *acts)
    except ValidationFailure as err:
        return {"raised": _checks(err.report)}
    return [_checks(report), None if associator is None else exchange.emit(associator)]


def _triple_records(field):
    out = {}
    for name, a in {
        "k": algebra_k(field),
        "dn": dual_numbers(field),
        "kZ2": group_algebra_z2(field),
        "tp2": truncated_polynomials(2, field),
        "M2": matrix_algebra_2(field),
    }.items():
        reg = regular_bimodule(a)
        act = BimoduleAction(a, a.dim, reg.left, reg.right)
        out[f"triple-algebra|{field!r}|regular-{name}"] = _triple(
            check_iterated_algebra_triple, (a, a, a), (act, act, act)
        )
    algs = (matrix_algebra_2(field), group_algebra_z2(field), nilpotent_line(field))

    def zero(x, y):
        return BimoduleAction(
            x, y.dim,
            SparseTensor3.zero((x.dim, y.dim, y.dim), field),
            SparseTensor3.zero((y.dim, x.dim, y.dim), field),
        )

    acts = (zero(algs[0], algs[1]), zero(algs[0], algs[2]), zero(algs[1], algs[2]))
    out[f"triple-algebra|{field!r}|zero-M2-kZ2-line"] = _triple(check_iterated_algebra_triple, algs, acts)
    # k acting by scalars on a regular pair: a mixed, nonzero triple
    k, dn = algebra_k(field), dual_numbers(field)
    scalar = BimoduleAction(
        k, dn.dim,
        SparseTensor3((1, 2, 2), {(0, x, x): 1 for x in range(2)}, field),
        SparseTensor3((2, 1, 2), {(x, 0, x): 1 for x in range(2)}, field),
    )
    reg = regular_bimodule(dn)
    out[f"triple-algebra|{field!r}|scalar-k-dn-dn"] = _triple(
        check_iterated_algebra_triple, (k, dn, dn), (scalar, scalar, BimoduleAction(dn, 2, reg.left, reg.right))
    )

    for name, c in {
        "gl1": grouplikes(1, field),
        "gl2": grouplikes(2, field),
        "dp1": divided_power(1, field),
        "dp2": divided_power(2, field),
        "Mc2": matrix_coalgebra_2(field),
    }.items():
        reg = regular_bicomodule(c)
        co = BicomoduleCoaction(c, c.dim, reg.rho_l, reg.rho_r)
        out[f"triple-coalgebra|{field!r}|regular-{name}"] = _triple(
            check_iterated_coalgebra_triple, (c, c, c), (co, co, co)
        )
    cos = (matrix_coalgebra_2(field), grouplikes(2, field), divided_power(1, field))

    def cozero(x, y):
        return BicomoduleCoaction(
            x, y.dim,
            SparseTensor3.zero((y.dim, x.dim, y.dim), field),
            SparseTensor3.zero((y.dim, y.dim, x.dim), field),
        )

    acts = (cozero(cos[0], cos[1]), cozero(cos[0], cos[2]), cozero(cos[1], cos[2]))
    out[f"triple-coalgebra|{field!r}|zero-Mc2-gl2-dp1"] = _triple(check_iterated_coalgebra_triple, cos, acts)
    g, dp = grouplikes(1, field), divided_power(1, field)
    scalar = BicomoduleCoaction(
        g, dp.dim,
        SparseTensor3((2, 1, 2), {(x, 0, x): 1 for x in range(2)}, field),
        SparseTensor3((2, 2, 1), {(x, x, 0): 1 for x in range(2)}, field),
    )
    reg = regular_bicomodule(dp)
    out[f"triple-coalgebra|{field!r}|scalar-gl1-dp1-dp1"] = _triple(
        check_iterated_coalgebra_triple, (g, dp, dp), (scalar, scalar, BicomoduleCoaction(dp, 2, reg.rho_l, reg.rho_r))
    )
    return out


def _triangular_records(field):
    out = {}
    k, m2, dn = algebra_k(field), matrix_algebra_2(field), dual_numbers(field)
    one = SparseTensor3((1, 1, 1), {(0, 0, 0): 1}, field)
    for name, (A, B, left, right) in {
        "kkk": (k, k, one, one),
        "M2-M2-k": (m2, k, m2.mul, SparseTensor3.zero((4, 1, 4), field)),
        "k-M2-M2": (k, m2, SparseTensor3((1, 4, 4), {(0, x, x): 1 for x in range(4)}, field), m2.mul),
        "dn-dn-dn": (dn, dn, dn.mul, dn.mul),
    }.items():
        out[f"triangular-pair|{field!r}|{name}"] = _outcome(triangular_pair, A, B, left, right)
    g1, mc2, dp2 = grouplikes(1, field), matrix_coalgebra_2(field), divided_power(2, field)
    for name, (C, D, rho_l, rho_r) in {
        "gl1-gl1": (g1, g1, one, one),
        "Mc2-Mc2-gl1": (mc2, g1, mc2.delta, SparseTensor3((4, 4, 1), {(x, x, 0): 1 for x in range(4)}, field)),
        "gl1-Mc2-Mc2": (g1, mc2, SparseTensor3((4, 1, 4), {(x, 0, x): 1 for x in range(4)}, field), mc2.delta),
        "dp2-dp2-dp2": (dp2, dp2, dp2.delta, dp2.delta),
    }.items():
        out[f"triangular-copair|{field!r}|{name}"] = _outcome(triangular_copair, C, D, rho_l, rho_r)
    for n in range(0, 6):
        out[f"trunc-poly-pair|{field!r}|{n}"] = _outcome(trunc_poly_pair, n, field)
    return out


def _random_tensor(rng, field, n):
    entries = {}
    for _ in range(rng.randrange(3 * n + 1)):
        key = (rng.randrange(n), rng.randrange(n), rng.randrange(n))
        entries[key] = rng.randrange(1, 4) if field.p is None else rng.randrange(field.p)
    return SparseTensor3((n, n, n), entries, field)


def _bent(t, rng):
    d0, d1, d2 = t.dims
    entries = dict(t.entries)
    if d0:
        key = (rng.randrange(d0), rng.randrange(d1), rng.randrange(d2))
        entries[key] = entries.get(key, 0) + rng.choice((1, -1, 2))
    return SparseTensor3(t.dims, entries, t.field)


def _unit_records(field, rng):
    """find_identity/find_counit with no cached answer: conjugated unital
    structures, bent copies of them and random (non-associative) tensors."""
    out = {}
    algebras = {
        "k": algebra_k(field), "dn": dual_numbers(field), "kZ2": group_algebra_z2(field),
        "tp3": truncated_polynomials(3, field), "M2": matrix_algebra_2(field), "line": nilpotent_line(field),
    }
    for name, a in algebras.items():
        ac = conjugate_algebra(a, random_invertible(rng, a.dim, field))
        for kind, mul in (("conjugated", ac.mul), ("bent", _bent(ac.mul, rng))):
            out[f"find-identity|{field!r}|{name}|{kind}"] = _vector(field, Algebra(a.dim, mul, field).find_identity())
    coalgebras = {
        "gl1": grouplikes(1, field), "gl3": grouplikes(3, field), "dp2": divided_power(2, field),
        "Mc2": matrix_coalgebra_2(field),
    }
    for name, c in coalgebras.items():
        cc = conjugate_coalgebra(c, random_invertible(rng, c.dim, field))
        for kind, delta in (("conjugated", cc.delta), ("bent", _bent(cc.delta, rng))):
            out[f"find-counit|{field!r}|{name}|{kind}"] = _vector(field, Coalgebra(c.dim, delta, field).find_counit())
    for i in range(RANDOM_UNITS):
        n = rng.randrange(5)
        t = _random_tensor(rng, field, n)
        out[f"find-identity|{field!r}|random{i}"] = _vector(field, Algebra(n, t, field).find_identity())
        out[f"find-counit|{field!r}|random{i}"] = _vector(field, Coalgebra(n, t, field).find_counit())
    return out


def corpus():
    """Label -> recorded documents for every corpus object, in a fixed order."""
    out = {}
    rng = random.Random(SEED)
    for field in FIELDS:
        pairs = list(standard_algebra_pairs(field))
        pairs += [(f"random{i}", random_algebra_pair(rng, field)) for i in range(RANDOM_PAIRS)]
        for name, pair in pairs:
            out.update(_algebra_records(f"{field!r}|{name}", pair, rng))
        copairs = list(standard_coalgebra_pairs(field))
        copairs += [(f"random{i}", random_coalgebra_pair(rng, field)) for i in range(RANDOM_PAIRS)]
        for name, pair in copairs:
            out.update(_coalgebra_records(f"{field!r}|{name}", pair, rng))
        out.update(_triple_records(field))
        out.update(_triangular_records(field))
        out.update(_unit_records(field, rng))
    return out


def render(records):
    """The golden file's text: a JSON object with one object per line."""
    lines = [f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}" for k, v in records.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


# ---------------------------------------------------------------------------
# tests


def test_corpus_matches_golden_documents():
    assert render(corpus()) == GOLDEN.read_text()


def _matrix_algebra(n, field):
    """M(n): basis e_ij at index n*i+j, e_ij e_jl = e_il; no cached unit."""
    d = n * n
    entries = {(n * i + j, n * j + l, n * i + l): 1 for i in range(n) for j in range(n) for l in range(n)}
    return Algebra(d, SparseTensor3((d, d, d), entries, field), field)


def _matrix_coalgebra(n, field):
    """Mc(n): Delta(e_ij) = sum_k e_ik (x) e_kj; no cached counit."""
    d = n * n
    entries = {(n * i + j, n * i + k, n * k + j): 1 for i in range(n) for j in range(n) for k in range(n)}
    return Coalgebra(d, SparseTensor3((d, d, d), entries, field), field)


def test_unit_and_counit_solve_scale_to_dim_100():
    identity = [1 if i % 11 == 0 else 0 for i in range(100)]
    start = time.perf_counter()
    assert _matrix_algebra(10, QQ).find_identity() == identity
    assert time.perf_counter() - start < 1.5
    start = time.perf_counter()
    assert _matrix_coalgebra(10, QQ).find_counit() == identity
    assert time.perf_counter() - start < 1.5


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([QQ, GF(3), GF(5)]))
def test_unit_and_counit_match_the_dense_system(data, field):
    n = data.draw(st.integers(0, 4))
    scalars = st.integers(-2, 2) if field.p is None else st.integers(0, field.p - 1)
    cells = st.tuples(*(st.integers(0, max(n - 1, 0)),) * 3)
    entries = data.draw(st.dictionaries(cells, scalars, max_size=3 * n)) if n else {}
    if n and data.draw(st.booleans()):
        # start from the unital k^n (or its dual) so that units are common
        entries = {**{(i, i, i): 1 for i in range(n)}, **entries}
    t = SparseTensor3((n, n, n), entries, field)
    assert Algebra(n, t, field).find_identity() == dense_unit(n, lambda i, j, m: entry(t, i, j, m), field)
    assert Coalgebra(n, t, field).find_counit() == dense_unit(n, lambda i, j, m: entry(t, m, i, j), field)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render(corpus()))
