"""Golden outputs of morphism verification, split, conjugation and the
other constructions that carry tensors through matrices.

The corpus runs, over Q, GF(3) and GF(5):
  * ``verify_algebra_morphism``/``verify_coalgebra_morphism`` on identity
    maps, basis changes onto conjugated extensions, single-entry
    perturbations of those matrices and of the target tensors, and random
    sparse, dense, singular and non-square matrices;
  * ``split_*_extension`` along block bases, along conjugated bases, along
    bases with one vector bent, dependent bases and bases of wrong size;
  * ``conjugate_*`` of algebras, coalgebras and pairs, ``pushforward_pair``,
    ``unital_ideal_iso``, ``counital_split_iso``, the universal maps, the
    unit and counit laws and ``counit_balance_check``.

``tests/data/transport_golden.json`` holds one line per corpus object; the
test rebuilds the corpus and requires byte-equal text, so reports,
witnesses, returned tensors and matrices and error messages are pinned.

Regenerate the golden file (only for an intended behaviour change) with
``PYTHONPATH=src python tests/test_transport.py``.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

from dorroh.algebra import (
    Algebra,
    AlgebraMorphism,
    _acts_as_identity,
    build_dorroh_algebra,
    split_algebra_extension,
    unital_ideal_iso,
    universal_map_algebra,
    verify_algebra_morphism,
)
from dorroh.coalgebra import (
    BicomoduleCoaction,
    Coalgebra,
    CoalgebraMorphism,
    DorrohPairCoalgebra,
    build_dorroh_coalgebra,
    counit_balance_check,
    counital_split_iso,
    pushforward_pair,
    split_coalgebra_extension,
    universal_map_coalgebra,
    verify_coalgebra_morphism,
    zero_coaction_pair,
)
from dorroh.errors import DorrohError, ValidationFailure
from dorroh.fields import GF, QQ
from dorroh.gallery import (
    conjugate_algebra,
    conjugate_algebra_pair,
    conjugate_coalgebra,
    conjugate_coalgebra_pair,
    random_invertible,
    regular_pair,
    standard_algebra_pairs,
    standard_coalgebra_pairs,
)
from dorroh.linalg import Matrix, invert
from dorroh.tensors import TO_COALGEBRA, SparseTensor3

from support import dense_columns, random_algebra_pair, random_coalgebra_pair, zeros

GOLDEN = Path(__file__).parent / "data" / "transport_golden.json"
FIELDS = (QQ, GF(3), GF(5))
SEED = 20200707
RANDOM_PAIRS = 4
Q_SCALARS = (-2, -1, 1, 1, 2, Fraction(1, 2), Fraction(-1, 3))


# ---------------------------------------------------------------------------
# rendering


def _tensor(t):
    return [t.dims, [[*k, t.field.fmt(v)] for k, v in t.sorted_items()]]


def _matrix(m):
    return [[m.field.fmt(v) for v in row] for row in m.dense()]


def _vector(field, v):
    return None if v is None else [field.fmt(x) for x in v]


def _checks(report):
    return [c.to_json() for c in report.checks]


def _outcome(fn, *args):
    """What ``fn`` returned, rendered by the caller, or the error it raised."""
    try:
        return fn(*args)
    except ValidationFailure as err:
        return {"raised": "ValidationFailure", "message": str(err), "checks": _checks(err.report)}
    except DorrohError as err:
        return {"raised": type(err).__name__, "message": str(err)}


def _algebra_pair(pair):
    return [_tensor(pair.A.mul), _tensor(pair.I.mul), _tensor(pair.action.left), _tensor(pair.action.right)]


def _coalgebra_pair(pair):
    return [
        _tensor(pair.C.delta), _tensor(pair.P.delta),
        _tensor(pair.coaction.rho_l), _tensor(pair.coaction.rho_r),
    ]


# ---------------------------------------------------------------------------
# random data


def _scalar(rng, field, zero_weight):
    if rng.random() < zero_weight:
        return 0
    if field.p is not None:
        return rng.randrange(1, field.p)
    return rng.choice(Q_SCALARS)


def _random_matrix(rng, field, rows, cols, zero_weight):
    data = [[_scalar(rng, field, zero_weight) for _ in range(cols)] for _ in range(rows)]
    return Matrix(rows, cols, data, field)


def _bend(m, rng):
    """``m`` with one seeded entry shifted by a nonzero scalar."""
    data = m.dense()
    if m.rows and m.cols:
        i, j = rng.randrange(m.rows), rng.randrange(m.cols)
        data[i][j] += rng.choice((1, -1, 2))
    return Matrix(m.rows, m.cols, data, m.field)


def _bend_tensor(t, rng):
    d0, d1, d2 = t.dims
    entries = dict(t.entries)
    if d0 and d1 and d2:
        key = (rng.randrange(d0), rng.randrange(d1), rng.randrange(d2))
        entries[key] = entries.get(key, 0) + rng.choice((1, -1, 2))
    return SparseTensor3(t.dims, entries, t.field)


def _random_vector(rng, field, n, zero_weight=0.5):
    return [_scalar(rng, field, zero_weight) for _ in range(n)]


def _block(n, lo, hi):
    return [[1 if t == i else 0 for t in range(n)] for i in range(lo, hi)]


# ---------------------------------------------------------------------------
# corpus


def _verify_record(verify, morphism):
    out = []
    for iso in (False, True):
        report = verify(morphism, iso=iso)
        out.append([_checks(report), morphism.verified])
    return out


def _morphism_records(tag, X, verify, make, conjugate, tensor_of, rebuild, rng):
    """Verify maps X' -> X and X -> X for a basis change X' of X and for
    perturbed and random matrices."""
    field = X.field
    n = X.dim
    out = {}
    S = random_invertible(rng, n, field) if n else Matrix(0, 0, [], field)
    Xc = conjugate(X, S)
    out[f"{tag}|conjugate"] = _tensor(tensor_of(Xc))
    v = _random_vector(rng, field, n)
    candidates = {
        "identity": (X, X, Matrix.identity(n, field)),
        "basis-change": (Xc, X, S),
        "basis-change~": (Xc, X, _bend(S, rng)),
        "bent-target": (X, rebuild(X, _bend_tensor(tensor_of(X), rng)), Matrix.identity(n, field)),
        "bent-source": (rebuild(X, _bend_tensor(tensor_of(X), rng)), X, Matrix.identity(n, field)),
        "zero": (X, X, zeros(n, n, field)),
        "sparse": (X, X, _random_matrix(rng, field, n, n, 0.8)),
        "dense": (X, X, _random_matrix(rng, field, n, n, 0.2)),
        "rank-one": (X, X, Matrix(n, n, [[a * b for b in v] for a in v], field)),
    }
    for name, (src, tgt, m) in candidates.items():
        out[f"{tag}|{name}"] = _verify_record(verify, make(src, tgt, m))
    # non-square: random maps to and from a square-zero object of another size
    for rows in (n - 1, n + 1):
        if rows <= 0:
            continue
        Y = _small_like(X, rows)
        to_y = make(X, Y, _random_matrix(rng, field, rows, n, 0.6))
        out[f"{tag}|to{rows}"] = _verify_record(verify, to_y)
        from_y = make(Y, X, _random_matrix(rng, field, n, rows, 0.6))
        out[f"{tag}|from{rows}"] = _verify_record(verify, from_y)
    return out


def _small_like(X, n):
    """A square-zero algebra or coalgebra of dimension n over X's field."""
    zero = SparseTensor3.zero((n, n, n), X.field)
    return type(X)(n, zero, X.field)


def _algebra_records(tag, pair, rng):
    field = pair.field
    B = build_dorroh_algebra(pair)
    na, n = pair.A.dim, B.dim
    out = _morphism_records(
        f"algebra-morphism|{tag}", B, verify_algebra_morphism, AlgebraMorphism,
        conjugate_algebra, lambda a: a.mul, lambda a, t: Algebra(a.dim, t, a.field), rng,
    )

    def split(basis_a, basis_i, B=B):
        split_pair, iso = split_algebra_extension(B, basis_a, basis_i)
        return {"pair": _algebra_pair(split_pair), "iso": _matrix(iso.matrix), "verified": iso.verified}

    S = random_invertible(rng, n, field)
    Bc = conjugate_algebra(B, S)
    Sinv = dense_columns(invert(S))
    bent = [list(v) for v in Sinv]
    if n:
        # add a multiple of one vector to another, then bump one coordinate
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            bent[i] = [x + rng.choice((1, 2)) * y for x, y in zip(bent[i], Sinv[j])]
        bent[rng.randrange(n)][rng.randrange(n)] += 1
    bases = {
        "block": (B, _block(n, 0, na), _block(n, na, n)),
        "swapped": (B, _block(n, na, n), _block(n, 0, na)),
        "conjugated": (Bc, Sinv[:na], Sinv[na:]),
        "bent": (Bc, bent[:na], bent[na:]),
        "random": (B, [_random_vector(rng, field, n, 0.3) for _ in range(na)],
                   [_random_vector(rng, field, n, 0.3) for _ in range(n - na)]),
        "dependent": (B, _block(n, 0, na), _block(n, 0, n - na)),
        "short": (B, _block(n, 0, na), _block(n, na + 1, n)),
    }
    for name, (target, ba, bi) in bases.items():
        out[f"split-algebra|{tag}|{name}"] = _outcome(split, ba, bi, target)

    SA = random_invertible(rng, na, field)
    SI = random_invertible(rng, pair.I.dim, field)
    out[f"conjugate-algebra-pair|{tag}"] = _algebra_pair(conjugate_algebra_pair(pair, SA, SI))

    out[f"unital-ideal-iso|{tag}"] = _outcome(lambda: _matrix(unital_ideal_iso(pair).matrix))

    def with_unit(v):
        return _vector(field, Algebra(n, B.mul, field, unit=v).find_identity())

    unit = B.find_identity()
    for name, v in (
        ("unit", unit),
        ("random", _random_vector(rng, field, n)),
        ("bent-unit", [x + (i == 0) for i, x in enumerate(unit or [0] * n)]),
    ):
        out[f"unit-law|{tag}|{name}"] = None if v is None else _outcome(with_unit, v)

    def universal(phi_m, f_m):
        phi = AlgebraMorphism(pair.A, B, phi_m)
        f = AlgebraMorphism(pair.I, B, f_m)
        verify_algebra_morphism(phi)
        verify_algebra_morphism(f)
        eta = universal_map_algebra(pair, B, phi, f)
        return [_matrix(eta.matrix), eta.verified]

    inc_a = Matrix.from_columns(_block(n, 0, na), field) if na else zeros(n, 0, field)
    inc_i = Matrix.from_columns(_block(n, na, n), field) if n > na else zeros(n, 0, field)
    for name, (pm, fm) in {
        "inclusions": (inc_a, inc_i),
        "zero-phi": (zeros(n, na, field), inc_i),
        "zero-f": (inc_a, zeros(n, n - na, field)),
    }.items():
        out[f"universal-algebra|{tag}|{name}"] = _outcome(universal, pm, fm)
    return out


def _coalgebra_records(tag, pair, rng):
    field = pair.field
    D = build_dorroh_coalgebra(pair)
    nc, n = pair.C.dim, D.dim
    out = _morphism_records(
        f"coalgebra-morphism|{tag}", D, verify_coalgebra_morphism, CoalgebraMorphism,
        conjugate_coalgebra, lambda c: c.delta, lambda c, t: Coalgebra(c.dim, t, c.field), rng,
    )

    def split(basis_c, basis_p, D=D):
        split_pair, iso = split_coalgebra_extension(D, basis_c, basis_p)
        return {"pair": _coalgebra_pair(split_pair), "iso": _matrix(iso.matrix), "verified": iso.verified}

    S = random_invertible(rng, n, field)
    Dc = conjugate_coalgebra(D, S)
    Sinv = dense_columns(invert(S))
    bent = [list(v) for v in Sinv]
    if n:
        # add a multiple of one vector to another, then bump one coordinate
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            bent[i] = [x + rng.choice((1, 2)) * y for x, y in zip(bent[i], Sinv[j])]
        bent[rng.randrange(n)][rng.randrange(n)] += 1
    bases = {
        "block": (D, _block(n, 0, nc), _block(n, nc, n)),
        "swapped": (D, _block(n, nc, n), _block(n, 0, nc)),
        "conjugated": (Dc, Sinv[:nc], Sinv[nc:]),
        "bent": (Dc, bent[:nc], bent[nc:]),
        "random": (D, [_random_vector(rng, field, n, 0.3) for _ in range(nc)],
                   [_random_vector(rng, field, n, 0.3) for _ in range(n - nc)]),
        "dependent": (D, _block(n, 0, nc), _block(n, 0, n - nc)),
        "short": (D, _block(n, 0, nc), _block(n, nc + 1, n)),
    }
    for name, (target, bc, bp) in bases.items():
        out[f"split-coalgebra|{tag}|{name}"] = _outcome(split, bc, bp, target)

    SC = random_invertible(rng, nc, field)
    SP = random_invertible(rng, pair.P.dim, field)
    out[f"conjugate-coalgebra-pair|{tag}"] = _coalgebra_pair(conjugate_coalgebra_pair(pair, SC, SP))

    # pushforward along C -> C' (a basis change), C -> C (zero) and C -> C x C
    C = pair.C
    C2 = conjugate_coalgebra(C, SC)
    CC = build_dorroh_coalgebra(zero_coaction_pair(C, C))
    for name, (target, m) in {
        "basis-change": (C2, invert(SC)),
        "zero": (C, zeros(nc, nc, field)),
        "diagonal-block": (CC, Matrix.from_columns([c + [0] * nc for c in _block(nc, 0, nc)], field)),
        "bent": (C2, _bend(invert(SC), rng)),
    }.items():
        f = CoalgebraMorphism(C, target, m)
        record = [_checks(verify_coalgebra_morphism(f))]
        record.append(_outcome(lambda f=f: _coalgebra_pair(pushforward_pair(pair, f))))
        out[f"pushforward|{tag}|{name}"] = record

    out[f"counital-split-iso|{tag}"] = _outcome(lambda: _matrix(counital_split_iso(pair).matrix))

    def with_counit(v):
        return _vector(field, Coalgebra(n, D.delta, field, counit=v).find_counit())

    counit = D.find_counit()
    for name, v in (
        ("counit", counit),
        ("random", _random_vector(rng, field, n)),
        ("bent-counit", [x + (i == n - 1) for i, x in enumerate(counit or [0] * n)]),
    ):
        out[f"counit-law|{tag}|{name}"] = None if v is None else _outcome(with_counit, v)
    eps_c = C.find_counit()
    for name, v in (("counit", eps_c), ("random", _random_vector(rng, field, nc))):
        if v is not None:
            co = pair.coaction
            out[f"bicomodule-counital|{tag}|{name}"] = _acts_as_identity(co.rho_l, co.rho_r, v, pair.P.dim, TO_COALGEBRA)
    eps_p = pair.P.find_counit()
    if eps_p is not None:
        co = pair.coaction
        for name, (rl, rr) in {
            "base": (co.rho_l, co.rho_r),
            "rho_l~": (_bend_tensor(co.rho_l, rng), co.rho_r),
            "rho_r~": (co.rho_l, _bend_tensor(co.rho_r, rng)),
        }.items():
            bent_pair = DorrohPairCoalgebra(pair.C, pair.P, BicomoduleCoaction(pair.C, pair.P.dim, rl, rr))
            out[f"counit-balance|{tag}|{name}"] = _outcome(
                lambda p=bent_pair: _checks(counit_balance_check(p, eps_p))
            )

    def universal(phi_m, f_m):
        phi = CoalgebraMorphism(D, pair.C, phi_m)
        f = CoalgebraMorphism(D, pair.P, f_m)
        verify_coalgebra_morphism(phi)
        verify_coalgebra_morphism(f)
        eta = universal_map_coalgebra(pair, D, phi, f)
        return [_matrix(eta.matrix), eta.verified]

    np_ = n - nc
    proj_c = Matrix(nc, n, _block(n, 0, nc), field)
    proj_p = Matrix(np_, n, _block(n, nc, n), field)
    for name, (pm, fm) in {
        "projections": (proj_c, proj_p),
        "zero-phi": (zeros(nc, n, field), proj_p),
        "zero-f": (proj_c, zeros(np_, n, field)),
    }.items():
        out[f"universal-coalgebra|{tag}|{name}"] = _outcome(universal, pm, fm)
    return out


def corpus():
    """Label -> recorded outcome for every corpus object, in a fixed order."""
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
    return out


def render(records):
    """The golden file's text: a JSON object with one object per line."""
    lines = [f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}" for k, v in records.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


# ---------------------------------------------------------------------------
# tests


def test_corpus_matches_golden_outputs():
    assert render(corpus()) == GOLDEN.read_text()


def test_corpus_reaches_every_failure_region():
    """The golden file holds failing verifications of both kinds, and splits
    failing in each region: closure, ideal, subcoalgebra and coideal."""
    text = GOLDEN.read_text()
    for needle in (
        '"name":"multiplicative","status":"fail"',
        '"name":"comultiplicative","status":"fail"',
        '"name":"invertible","status":"fail"',
        '"name":"A_closed","status":"fail"',
        '"name":"I_ideal","status":"fail"',
        '"name":"C_subcoalgebra","status":"fail"',
        '"name":"P_coideal","status":"fail"',
        '"name":"sum p(-1)eps(p(0)) = sum eps(p(0))p(1)","status":"fail"',
        '"name":"f(ax)=phi(a)f(x)","status":"fail"',
        '"name":"rho_l(f(d))=(phi(x)f)Delta(d)","status":"fail"',
    ):
        assert needle in text, needle


def _matrix_algebra(n, field):
    """M(n): basis e_ij at index n*i+j, e_ij e_jl = e_il."""
    d = n * n
    entries = {(n * i + j, n * j + l, n * i + l): 1 for i in range(n) for j in range(n) for l in range(n)}
    unit = [1 if i % (n + 1) == 0 else 0 for i in range(d)]
    return Algebra(d, SparseTensor3((d, d, d), entries, field), field, unit=unit)


def test_morphism_verification_and_split_scale_to_dim_128():
    pair = regular_pair(_matrix_algebra(8, QQ))
    B = build_dorroh_algebra(pair)
    assert B.dim == 128
    start = time.perf_counter()
    F = AlgebraMorphism(B, B, Matrix.identity(B.dim, QQ))
    assert verify_algebra_morphism(F, iso=True).ok
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    split, iso = split_algebra_extension(B, _block(128, 0, 64), _block(128, 64, 128))
    assert time.perf_counter() - start < 2.0
    assert split == pair and iso.verified == "iso"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render(corpus()))
