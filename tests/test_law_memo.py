"""Each identity decided once per check, and identity-matrix morphisms
verified without arithmetic.

``check_laws`` keys each law by its canonical form (``algebra._law_key``)
and decides each key once per memo scope: one ``check_dorroh_pair_*`` call
or one iterated triple.  A pair of the same A, I and action objects as a
validated pair takes the report recorded on its action (``algebra._known``).
A morphism whose matrix is the identity is verified by comparing the two
structure tensors, block by block when they are layouts of the same
boxes, and is invertible without an elimination; only the layouts that
are emitted or transported are laid out.  The tests pin the work these
save and check the results against the paths they replace;
``test_derived_reports.py`` holds the law-by-law reference for every
report.
"""

import logging
import random

from hypothesis import given, settings, strategies as st

from dorroh import algebra, coalgebra, exchange, linalg
from dorroh.algebra import (
    ACTION_LAWS,
    ASSOCIATIVITY,
    GLUING_LAWS,
    PAIR_LAWS,
    TRIPLE_LAWS,
    AlgebraMorphism,
    BimoduleAction,
    DorrohPairAlgebra,
    _law_key,
    check_associativity,
    check_dorroh_pair_algebra,
    check_iterated_algebra_triple,
    direct_product_pair,
    split_algebra_extension,
    unital_ideal_iso,
    verify_algebra_morphism,
)
from dorroh.cli import _canonical_triple
from dorroh.coalgebra import (
    BicomoduleCoaction,
    CoalgebraMorphism,
    DorrohPairCoalgebra,
    check_dorroh_pair_coalgebra,
    counital_split_iso,
    split_coalgebra_extension,
    verify_coalgebra_morphism,
)
from dorroh.duality import double_dual_iso, double_dual_iso_coalgebra, dualize_algebra_pair, dualize_coalgebra_pair
from dorroh.fields import GF, QQ
from dorroh.gallery import (
    algebra_k,
    dual_numbers,
    matrix_algebra_2,
    matrix_coalgebra_2,
    regular_copair,
    regular_pair,
    standard_algebra_pairs,
    standard_coalgebra_pairs,
)
from dorroh.linalg import Matrix
from dorroh.tensors import SparseTensor3, first_difference, first_witness

from support import random_algebra_pair, random_coalgebra_pair

FIELDS = (QQ, GF(3), GF(5))
ALL_LAWS = tuple(
    law for table in (ASSOCIATIVITY, ACTION_LAWS, PAIR_LAWS, GLUING_LAWS, TRIPLE_LAWS) for side in table for law in side
)


def _counter(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _parsed_pairs(field):
    """The gallery pairs as a document loader returns them: fresh objects."""
    pairs = [p for _, p in standard_algebra_pairs(field)] + [p for _, p in standard_coalgebra_pairs(field)]
    return [exchange.parse(exchange.emit(p)) for p in pairs]


# ---------------------------------------------------------------------------
# the memo key


def _term_tensors(draw, law, pool_size, field, n):
    """Random n x n x n tensors bound to the law's roles, ``pool_size`` of
    them at most, so that roles may share one tensor."""
    _, _, _, lhs, rhs = law
    roles = sorted({lhs[1], lhs[2], rhs[1], rhs[2]})
    pool = []
    for _ in range(min(pool_size, len(roles))):
        keys = draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 3), max_size=2 * n, unique=True))
        pool.append(SparseTensor3((n, n, n), {k: draw(st.integers(1, 4)) for k in keys}, field))
    return {role: pool[draw(st.integers(0, len(pool) - 1))] for role in roles}


def _bound(law, tensors):
    name, box, out, (ls, l1, l2), (rs, r1, r2) = law
    return box, out, (ls, tensors[l1], tensors[l2]), (rs, tensors[r1], tensors[r2])


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_laws_sharing_a_memo_key_share_their_first_witness(data):
    """A law written again with its letters renamed, its two sides swapped
    and the factors of each side swapped has the same key and the same
    first witness; with its box letters permuted it has another key."""
    law = data.draw(st.sampled_from(ALL_LAWS))
    field = data.draw(st.sampled_from(FIELDS))
    n = data.draw(st.integers(1, 3))
    tensors = _term_tensors(data.draw, law, data.draw(st.integers(1, 4)), field, n)
    box, out, lhs, rhs = _bound(law, tensors)

    letters = sorted(set(box + out + lhs[0] + rhs[0]) - {","})
    fresh = data.draw(st.permutations("pqrstuvwz"))[: len(letters)]
    rename = dict(zip(letters, fresh))

    def renamed(text):
        return "".join(rename.get(c, c) for c in text)

    def rewritten(term):
        spec, t, u = term
        if data.draw(st.booleans()):
            first, second = spec.split(",")
            spec, t, u = f"{second},{first}", u, t
        return renamed(spec), t, u

    sides = [rewritten(lhs), rewritten(rhs)]
    if data.draw(st.booleans()):
        sides.reverse()
    twin = (renamed(box), renamed(out), *sides)
    assert _law_key(*twin) == _law_key(box, out, lhs, rhs)
    assert first_witness(field, *twin) == first_witness(field, box, out, lhs, rhs)

    # every role its own tensor: a box permutation names other box tuples
    distinct = _term_tensors(data.draw, law, 4, field, n)
    pool = list({id(t): t for t in distinct.values()}.values())
    if len(pool) == len(distinct):
        box, out, lhs, rhs = _bound(law, distinct)
        order = data.draw(st.permutations(range(len(box))).filter(lambda p: list(p) != sorted(p)))
        permuted = "".join(box[i] for i in order)
        assert _law_key(permuted, out, lhs, rhs) != _law_key(box, out, lhs, rhs)


# ---------------------------------------------------------------------------
# work counts


def test_a2a3_decides_one_law(monkeypatch):
    calls = _counter(monkeypatch, algebra, "first_witness")
    for field in FIELDS:
        for a in (matrix_algebra_2(field), dual_numbers(field)):
            del calls[:]
            pair = DorrohPairAlgebra(a, a, BimoduleAction(a, a.dim, a.mul, a.mul))
            report = check_dorroh_pair_algebra(pair)
            assert len(calls) == 1 and len(report.checks) == 6 and report.ok
        c = matrix_coalgebra_2(field)
        del calls[:]
        copair = DorrohPairCoalgebra(c, c, BicomoduleCoaction(c, c.dim, c.delta, c.delta))
        report = check_dorroh_pair_coalgebra(copair)
        assert len(calls) == 1 and len(report.checks) == 6 and report.ok


def _block_basis(n, lo, hi):
    return [[1 if t == i else 0 for t in range(n)] for i in range(lo, hi)]


def test_identity_matrix_morphisms_run_no_elimination(monkeypatch):
    """The associator, the dualization witness, the double duals and the
    split along block bases are identity matrices: verified and found
    invertible without ``invert``."""
    for field in (QQ, GF(5)):
        pairs = _parsed_pairs(field)
        calls = _counter(monkeypatch, linalg, "_rref")
        for pair in pairs:
            report, associator = _canonical_triple(pair)
            assert report.ok and associator.verified == "iso"
            if isinstance(pair, DorrohPairAlgebra):
                _, witness = dualize_algebra_pair(pair)
                double = double_dual_iso(pair.A)
                built = algebra.build_dorroh_algebra(pair)
                na, n = pair.A.dim, built.dim
                _, split = split_algebra_extension(built, _block_basis(n, 0, na), _block_basis(n, na, n))
            else:
                _, witness = dualize_coalgebra_pair(pair)
                double = double_dual_iso_coalgebra(pair.C)
                built = coalgebra.build_dorroh_coalgebra(pair)
                nc, n = pair.C.dim, built.dim
                _, split = split_coalgebra_extension(built, _block_basis(n, 0, nc), _block_basis(n, nc, n))
            assert all(m.verified == "iso" for m in (witness.forward, double, split))
        assert calls == []
        monkeypatch.undo()


def _identity_morphisms(field, rng):
    """Identity-matrix maps between structures of one dimension: to itself,
    to a copy, and to another structure, which fails."""
    out = []
    for _ in range(12):
        pair = random_algebra_pair(rng, field)
        b = algebra.build_dorroh_algebra(pair)
        other = algebra.build_dorroh_algebra(random_algebra_pair(rng, field, b.dim))
        for target in (b, algebra.Algebra(b.dim, b.mul, field), other):
            if target.dim == b.dim:
                out.append((AlgebraMorphism, verify_algebra_morphism, b, target))
        copair = random_coalgebra_pair(rng, field)
        d = coalgebra.build_dorroh_coalgebra(copair)
        other = coalgebra.build_dorroh_coalgebra(random_coalgebra_pair(rng, field, d.dim))
        for target in (d, coalgebra.Coalgebra(d.dim, d.delta, field), other):
            if target.dim == d.dim:
                out.append((CoalgebraMorphism, verify_coalgebra_morphism, d, target))
    return out


def test_identity_verification_matches_the_transport_path(monkeypatch):
    """Entry equality gives the report and the stamp that carrying both
    tensors through the identity matrix and inverting it gives, on passing
    and on failing maps, for every starting stamp, with and without iso."""
    rng = random.Random(13)
    cases = [case for field in FIELDS for case in _identity_morphisms(field, rng)]
    results = []
    for transported in (False, True):
        if transported:
            monkeypatch.setattr(algebra, "is_identity", lambda M: False)
        got = []
        for morphism, verify, source, target in cases:
            for stamp in ("unchecked", "hom", "iso"):
                for iso in (False, True):
                    F = morphism(source, target, Matrix.identity(source.dim, source.field), verified=stamp)
                    got.append((verify(F, iso=iso).to_json(), F.verified))
        results.append(got)
    assert results[0] == results[1]
    assert sum(report["status"] == "fail" for report, _ in results[0]) >= 12


def test_a_misplaced_bracketing_block_fails_the_associator_with_the_full_witness(monkeypatch):
    """The canonical triple of (k, M(2)) with zero actions, its left
    bracketing's action laying the block of A2 on A3 at the origin instead
    of below A1's: the bracketings no longer have the same boxes, so the
    associator is compared entry by entry and fails with the witness the
    full comparison names, (0, 5) as before block-by-block comparison."""
    for field in FIELDS:
        pair = direct_product_pair(algebra_k(field), matrix_algebra_2(field))
        A, I = pair.A, pair.I
        n1, n2 = A.dim, I.dim
        place = algebra.place

        def misplaced(dims, field, *parts):
            if dims == (n1 + n2, n2, n2) and len(parts) == 2 and parts[1][1] == (n1, 0, 0):
                parts = (parts[0], (parts[1][0], (0, 0, 0)))
            return place(dims, field, *parts)

        monkeypatch.setattr(algebra, "place", misplaced)
        regular = BimoduleAction(I, n2, I.mul, I.mul)
        report, associator = check_iterated_algebra_triple(A, I, I, pair.action, pair.action, regular)
        monkeypatch.undo()
        (failed,) = [c for c in report.checks if not c.ok]
        assert failed.name == "associator:multiplicative" and failed.witness == (0, 5)
        full = first_difference(associator.source.mul.entries, associator.target.mul.entries, 2)
        assert failed.witness == full


def _pair_pipeline(pair):
    """The benchmark's pair-pipeline sequence on a parsed pair: validate,
    build, split along the block basis, the unital-ideal or counital-split
    isomorphism, dualize, the canonical triple, and emit the extension and
    the dual pair.  Returns what each step made."""
    assert pair.validate().ok
    if isinstance(pair, DorrohPairAlgebra):
        steps = algebra.build_dorroh_algebra, split_algebra_extension, unital_ideal_iso, dualize_algebra_pair
    else:
        steps = coalgebra.build_dorroh_coalgebra, split_coalgebra_extension, counital_split_iso, dualize_coalgebra_pair
    build, split, iso, dualize = steps
    built = build(pair)
    na, n = _pair_tensors(pair)[0].dims[0], built.dim
    _, split_iso = split(built, _block_basis(n, 0, na), _block_basis(n, na, n))
    unital = iso(pair)
    dual, witness = dualize(pair)
    report, associator = _canonical_triple(pair)
    assert report.ok and all(m.verified == "iso" for m in (split_iso, unital, witness.forward, associator))
    exchange.emit(built)
    exchange.emit(dual)
    return built, split_iso, unital, dual, witness, associator


def _tensor(structure):
    return structure.mul if isinstance(structure, algebra.Algebra) else structure.delta


def _pair_tensors(pair):
    if isinstance(pair, DorrohPairAlgebra):
        return pair.A.mul, pair.I.mul, pair.action.left, pair.action.right
    return pair.C.delta, pair.P.delta, pair.coaction.rho_l, pair.coaction.rho_r


def test_only_emitted_and_transported_layouts_are_laid_out(caplog):
    """One ``dorroh.tensors`` event per layout that lays its entries out:
    the built extension (split scans it, emit writes it), the unital-ideal
    or counital-split isomorphism's target (carried through its matrix)
    and the dual pair's four rotated tensors (emitted).  The split's
    rebuild, both sides of the duality witness, I|xI and both bracketings
    are compared block by block and never laid out."""
    caplog.set_level(logging.DEBUG, logger="dorroh.tensors")
    for pair in (regular_pair(matrix_algebra_2(QQ)), regular_copair(matrix_coalgebra_2(GF(5)))):
        caplog.clear()
        built, split_iso, unital, dual, witness, associator = _pair_pipeline(exchange.parse(exchange.emit(pair)))
        assert all(r.name == "dorroh.tensors" and r.levelno == logging.DEBUG for r in caplog.records)
        events = [r.args for r in caplog.records]
        laid = [_tensor(built), _tensor(unital.target), *_pair_tensors(dual)]
        assert events == [(len(t.leaves), len(t.entries)) for t in laid]
        assert [len(t.leaves) for t in laid] == [4, 2, 1, 1, 1, 1]
        i_by_i = _pair_tensors(associator.target._built_from)[1]
        for structure in (split_iso.source, witness.forward.source, witness.forward.target, associator.source,
                          associator.target):
            assert _tensor(structure)._laid is None
        assert i_by_i._laid is None and len(i_by_i.leaves) == 4


# ---------------------------------------------------------------------------
# one debug event per memo scope


def test_check_laws_logs_one_event_per_scope(caplog):
    caplog.set_level(logging.DEBUG, logger="dorroh.algebra")
    field = GF(5)
    m2 = matrix_algebra_2(field)

    def events(call):
        caplog.clear()
        call()
        assert all(r.name == "dorroh.algebra" and r.levelno == logging.DEBUG for r in caplog.records)
        return [r.args for r in caplog.records]

    assert events(lambda: check_associativity(m2)) == []  # one table: no scope
    regular = DorrohPairAlgebra(m2, m2, BimoduleAction(m2, m2.dim, m2.mul, m2.mul))
    assert events(lambda: check_dorroh_pair_algebra(regular)) == [(6, 1, 5)]
    for pair in _parsed_pairs(field):
        # an unvalidated pair: its own scope, then the triple's
        first = events(lambda: _canonical_triple(pair))
        assert len(first) == 2 and first[0][0] == 6 and first[1] == (12, 1, 11)
        # validated: the triple alone; (A2, A3) and the mixed laws are 12 laws, of
        # which only I's associativity is not among the pair's stamped decisions
        assert events(lambda: _canonical_triple(pair)) == [(12, 1, 11)]
