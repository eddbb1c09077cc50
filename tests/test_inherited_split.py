"""The split of a built extension takes what its build proved.

``build_dorroh_*`` records on the extension B the valid pair it came
from.  A split of B along the identity basis, at that pair's acting
dimension, reads back that pair's tensors entry for entry, so the
recovered pair takes the pair's report, its acting structure the found
(co)unit and its action the unit-law decision.  Any other basis or split
point, and any B that was parsed rather than built, runs the full pair
check.  Beside it, the unit law is decided once per action and acting
object, and a dual takes its source's (co)unit.

The reference is law by law: ``reference_check`` of
``test_derived_reports`` on fresh copies of every recovered pair, and the
unit solver ``_two_sided_unit`` on fresh copies of every structure.  The
inputs are the pairs of that file's triple corpus that validate and the
gallery and seeded random pairs of its ``_pairs``, on both sides over Q,
GF(3) and GF(5).
"""

import logging
import random

import pytest

from dorroh import algebra, cli, coalgebra, exchange
from dorroh.algebra import (
    Algebra,
    DorrohPairAlgebra,
    _acts_as_identity,
    _two_sided_unit,
    direct_product_pair,
    split_algebra_extension,
)
from dorroh.coalgebra import (
    Coalgebra,
    split_coalgebra_extension,
    zero_coaction_pair,
)
from dorroh.duality import (
    dual_algebra_of_coalgebra,
    dual_coalgebra_of_algebra,
    dualize_algebra_pair,
    dualize_coalgebra_pair,
)
from dorroh.errors import ValidationFailure
from dorroh.fields import GF, QQ
from dorroh.gallery import algebra_k, catalog_names, divided_power, dual_numbers, grouplikes, instance
from dorroh.tensors import TO_ALGEBRA, SparseTensor3, rotate

from test_derived_reports import (
    ALGEBRA,
    COALGEBRA,
    FIELDS,
    SEED,
    _all_triples,
    _checks,
    _counting,
    _pairs,
    reference_check,
)

SIDES = {
    "algebra": dict(ALGEBRA, split=split_algebra_extension, build=algebra.build_dorroh_algebra,
                    product=direct_product_pair, dual=dual_coalgebra_of_algebra),
    "coalgebra": dict(COALGEBRA, split=split_coalgebra_extension, build=coalgebra.build_dorroh_coalgebra,
                      product=zero_coaction_pair, dual=dual_algebra_of_coalgebra),
}


def _side(pair):
    return SIDES["algebra" if isinstance(pair, DorrohPairAlgebra) else "coalgebra"]


def _unit(s):
    """The (co)unit of s as the library finds it, cached or not."""
    return s.find_identity() if isinstance(s, Algebra) else s.find_counit()


def _solved(s):
    """The (co)unit of s by the solver, on the tensor alone."""
    return _two_sided_unit(s.mul) if isinstance(s, Algebra) else _two_sided_unit(rotate(s.delta, TO_ALGEBRA))


def _fresh(side, pair):
    """A copy of pair with new structure and action objects: no stamp, no cached unit."""
    conv = side["conv"]
    acting, carrier, left, right = conv.parts_of(pair)
    tensor = conv.tensor
    a = conv.structure(acting.dim, getattr(acting, tensor), pair.field)
    i = conv.structure(carrier.dim, getattr(carrier, tensor), pair.field)
    return conv.pair(a, i, side["make"](a, carrier.dim, left, right))


def _blocks(n, lo, hi):
    return [[int(t == i) for t in range(n)] for i in range(lo, hi)]


def _block_split(side, pair, built=None):
    conv = side["conv"]
    built = built or side["build"](pair)
    na = conv.parts_of(pair)[0].dim
    return side["split"](built, _blocks(built.dim, 0, na), _blocks(built.dim, na, built.dim))


def _valid_pairs():
    """Every pair of the triple corpus that validates, and the gallery and
    random pairs of ``_pairs``, each once."""
    out, seen = [], set()
    for side, algs, acts in _all_triples():
        for x, y, act in ((algs[0], algs[1], acts[0]), (algs[0], algs[2], acts[1]), (algs[1], algs[2], acts[2])):
            key = (id(x), id(y), id(act))
            if key in seen:
                continue
            seen.add(key)
            pair = side["pair"](x, y, act)
            if reference_check(side, _fresh(side, pair)).ok:
                out.append(pair)
    rng = random.Random(SEED + 4)
    for field in FIELDS:
        algebra_pairs, coalgebra_pairs = _pairs(field, rng)
        out += algebra_pairs + coalgebra_pairs
    return out


VALID_PAIRS = _valid_pairs()


def test_the_corpus_covers_both_sides_and_unital_and_non_unital_actions():
    kinds = {(_side(p)["conv"].name, _unit(_side(p)["conv"].parts_of(p)[0]) is not None) for p in VALID_PAIRS}
    assert kinds == {(s, u) for s in ("algebra", "coalgebra") for u in (True, False)}
    assert len(VALID_PAIRS) >= 150, len(VALID_PAIRS)


def test_block_split_of_a_built_extension_reports_what_the_reference_finds():
    derived_units = 0
    for pair in VALID_PAIRS:
        side = _side(pair)
        conv = side["conv"]
        recovered, iso = _block_split(side, pair)
        assert iso.verified == "iso"
        assert recovered == pair
        assert _checks(recovered.validate()) == _checks(reference_check(side, _fresh(side, recovered)))
        acting, carrier, left, right = conv.parts_of(recovered)
        assert _unit(acting) == _solved(conv.structure(acting.dim, getattr(acting, conv.tensor), pair.field))
        # the inherited unit-law decision is the law on the recovered tensors
        known = getattr(recovered, conv.action)._known
        if _unit(acting) is not None:
            assert known.acting is acting and known.carrier is carrier
            assert known.unit_law == _acts_as_identity(left, right, _unit(acting), carrier.dim, conv.order)
            derived_units += known.unit_law
        # the split's own build takes the unit the recovered parts carry
        assert _unit(iso.source) == _solved(iso.source)
    assert derived_units >= 40, derived_units


def test_block_split_of_a_built_extension_runs_no_pair_check(monkeypatch):
    algebra_calls = _counting(monkeypatch, algebra, "check_dorroh_pair_algebra")
    coalgebra_calls = _counting(monkeypatch, coalgebra, "check_dorroh_pair_coalgebra")
    for pair in VALID_PAIRS:
        side = _side(pair)
        built = side["build"](pair)
        del algebra_calls[:], coalgebra_calls[:]
        _block_split(side, pair, built)
        assert not algebra_calls and not coalgebra_calls


def test_other_splits_and_parsed_extensions_run_the_pair_check_once(monkeypatch):
    calls = {
        "algebra": _counting(monkeypatch, algebra, "check_dorroh_pair_algebra"),
        "coalgebra": _counting(monkeypatch, coalgebra, "check_dorroh_pair_coalgebra"),
    }
    kinds = {"parsed": 0, "permuted": 0, "moved": 0}
    for pair in VALID_PAIRS:
        side = _side(pair)
        conv = side["conv"]
        built = side["build"](pair)
        n, na = built.dim, conv.parts_of(pair)[0].dim
        a_rows, i_rows, rows = _blocks(n, 0, na), _blocks(n, na, n), _blocks(n, 0, n)
        splits = [("parsed", exchange.parse(exchange.emit(built)), a_rows, i_rows)]
        if max(na, n - na) > 1:  # the same blocks, each basis in reverse order
            splits.append(("permuted", built, a_rows[::-1], i_rows[::-1]))
        if 0 < na < n:  # B splits at 0 and at n too: the other block is empty
            splits += [("moved", built, [], rows), ("moved", built, rows, [])]
        for kind, target, a_basis, i_basis in splits:
            del calls["algebra"][:], calls["coalgebra"][:]
            recovered, iso = side["split"](target, a_basis, i_basis)
            assert [p is recovered for p in calls[conv.name]] == [True], (conv.name, kind)
            assert sum(map(len, calls.values())) == 1
            assert recovered.validate().ok and iso.verified == "iso"
            kinds[kind] += 1
    assert kinds["parsed"] >= 150 and kinds["permuted"] >= 100 and kinds["moved"] >= 200, kinds


# ---------------------------------------------------------------------------
# the counter-example to stamping B "associative": B = I x I with zero
# actions and a non-associative I.  Its diagonal split is closed and an
# ideal, and the pair it recovers is I acting on itself, which fails
# (ab)x = a(bx) at the first witness of I's associativity.


def _lopsided(field):
    """e0 e0 = e1 = e1 e0: (e0 e0) e0 = e1 but e0 (e0 e0) = 0."""
    return Algebra(2, SparseTensor3((2, 2, 2), {(0, 0, 1): 1, (1, 0, 1): 1}, field), field)


def _diagonal(n):
    """a_i = (e_i, e_i) and x_i = (0, e_i) in I x I."""
    return [[int(t in (i, n + i)) for t in range(2 * n)] for i in range(n)], _blocks(2 * n, n, 2 * n)


def _codiagonal(n, field):
    """The dual split of D = J x J: c_i = (e_i, 0) and p_i = (-e_i, e_i)."""
    neg = field.canon(-1)
    return _blocks(2 * n, 0, n), [[neg if t == i else int(t == n + i) for t in range(2 * n)] for i in range(n)]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_the_diagonal_split_of_a_product_with_a_non_associative_factor_still_fails(field):
    i = _lopsided(field)
    j = dual_coalgebra_of_algebra(i)
    cases = [
        (SIDES["algebra"], i, direct_product_pair(i, i), _diagonal(i.dim)),
        (SIDES["coalgebra"], j, zero_coaction_pair(j, j), _codiagonal(j.dim, field)),
    ]
    for side, x, product, (a_basis, i_basis) in cases:
        conv = side["conv"]
        assert product.validate().ok  # zero actions pass every pair law
        built = side["build"](product)
        # the block split of the same B takes the product's report and passes
        recovered, _ = _block_split(side, product, built)
        assert recovered.validate().ok and recovered == product
        # the pair the diagonal split recovers: x acting on itself
        regular = conv.pair(x, x, side["make"](x, x.dim, getattr(x, conv.tensor), getattr(x, conv.tensor)))
        expected = reference_check(side, _fresh(side, regular))
        assert ("(ab)x=a(bx)", "(Delta(x)1)rho_l=(1(x)rho_l)rho_l")[conv.name == "coalgebra"] in [
            c.name for c in expected.checks if not c.ok
        ]
        with pytest.raises(ValidationFailure) as err:
            side["split"](built, a_basis, i_basis)
        assert _checks(err.value.report) == _checks(expected)


# ---------------------------------------------------------------------------
# the unit law and the (co)units the constructions take


def _law_holds(conv, pair):
    acting, carrier, left, right = conv.parts_of(pair)
    return _acts_as_identity(left, right, _unit(acting), carrier.dim, conv.order)


def _stamp_is_the_law(conv, pair):
    """The unit-law decision recorded on pair's action for its acting and
    carrier objects, if any, is the law."""
    known = getattr(pair, conv.action)._known
    acting, carrier = conv.parts_of(pair)[:2]
    if known is None or known.acting is not acting or known.carrier is not carrier or known.unit_law is None:
        return True
    return _unit(acting) is None or known.unit_law == _law_holds(conv, pair)


def _one_sided_triples(field):
    """(x, x, y) and (x, y, x) with x of dimension 1 acting on itself and
    by zero on y: the unit of x acts as the identity on A2 but not on A3,
    and the other way round."""
    out = []
    for side, x, y in ((SIDES["algebra"], algebra_k(field), dual_numbers(field)),
                       (SIDES["coalgebra"], grouplikes(1, field), divided_power(1, field))):
        conv = side["conv"]
        regular = side["make"](x, x.dim, getattr(x, conv.tensor), getattr(x, conv.tensor))

        def zero(a, b):
            return getattr(side["product"](a, b), conv.action)

        out.append((side, (x, x, y), (regular, zero(x, y), zero(x, y))))
        out.append((side, (x, y, x), (zero(x, y), regular, zero(y, x))))
    return out


def test_triples_duals_and_products_take_the_unit_law_their_parts_decide():
    bracketings = 0
    one_sided = [t for field in FIELDS for t in _one_sided_triples(field)]
    for side, algs, acts in _all_triples() + one_sided:
        conv = side["conv"]
        try:
            report, associator = side["triple"](*algs, *acts)
        except ValidationFailure:
            continue
        if associator is None:
            assert (side, algs, acts) not in one_sided
            continue
        for built in (associator.source, associator.target):
            bracketed = built._built_from
            assert _stamp_is_the_law(conv, bracketed)
            assert _unit(built) == _solved(built)
            bracketings += getattr(bracketed, conv.action)._known.unit_law is not None
    assert bracketings >= 60, bracketings
    for pair in VALID_PAIRS:
        side = _side(pair)
        conv = side["conv"]
        dualize = dualize_algebra_pair if conv.name == "algebra" else dualize_coalgebra_pair
        dual, witness = dualize(pair)
        other = SIDES["coalgebra" if conv.name == "algebra" else "algebra"]["conv"]
        assert _stamp_is_the_law(other, dual)
        assert _unit(witness.forward.target) == _solved(witness.forward.target)
        product = side["product"](*conv.parts_of(pair)[:2])
        assert _stamp_is_the_law(conv, product)
        assert _unit(side["build"](product)) == _solved(side["build"](product))


def _gallery_structures(field):
    out = []
    for name in catalog_names():
        parameterized = name in ("trunc_poly", "grouplikes", "divided_power", "geometric")
        for arg in ("(1)", "(2)", "(3)") if parameterized else ("",):
            obj = instance(name + arg, field)
            if isinstance(obj, (Algebra, Coalgebra)):
                out.append(obj)
    return out


@pytest.mark.parametrize("field", (QQ, GF(2), GF(5)), ids=repr)
def test_a_dual_takes_the_unit_a_fresh_copy_finds(field):
    structures = _gallery_structures(field)
    algebra_pairs, coalgebra_pairs = _pairs(field, random.Random(SEED + 5))
    for pair in algebra_pairs + coalgebra_pairs:
        side = _side(pair)
        structures += [*side["conv"].parts_of(pair)[:2], side["build"](pair)]
    found = {True: 0, False: 0}
    for s in structures:
        dual = SIDES["algebra" if isinstance(s, Algebra) else "coalgebra"]["dual"](s)
        cached = dual._unit
        assert cached != "unset"
        fresh = type(dual)(dual.dim, dual.mul if isinstance(dual, Algebra) else dual.delta, field)
        assert cached == _unit(fresh) == _unit(s)
        found[cached is not None] += 1
    assert found[True] >= 20 and found[False] >= 5, found


# ---------------------------------------------------------------------------
# observability: one debug event per split


def test_each_split_logs_one_event_naming_where_its_report_came_from(caplog):
    field = GF(5)
    algebra_pairs, coalgebra_pairs = _pairs(field, random.Random(SEED + 6))
    for pair in algebra_pairs[:4] + coalgebra_pairs[:4]:
        side = _side(pair)
        built = side["build"](pair)
        na = side["conv"].parts_of(pair)[0].dim
        rows = (_blocks(built.dim, 0, na), _blocks(built.dim, na, built.dim))
        for target, derived in ((built, 1), (exchange.parse(exchange.emit(built)), 0)):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="dorroh.algebra"):
                side["split"](target, *rows)
            events = [r.getMessage() for r in caplog.records if r.getMessage().startswith("split ")]
            assert events == [f"split derived={derived}"], events
            assert all(r.name == "dorroh.algebra" for r in caplog.records if r.getMessage().startswith("split "))


def test_dorroh_split_of_a_document_runs_the_full_pair_check(tmp_path, monkeypatch, capsys):
    """No stamp crosses a document: ``dorroh split`` of a built extension's
    document checks the pair it recovers, once."""
    calls = {
        "algebra": _counting(monkeypatch, algebra, "check_dorroh_pair_algebra"),
        "coalgebra": _counting(monkeypatch, coalgebra, "check_dorroh_pair_coalgebra"),
    }
    for name in ("pair-algebra:M2_regular", "pair-coalgebra:regular_Mc2"):
        pair_doc, built_doc = tmp_path / "pair.json", tmp_path / "built.json"
        assert cli.main(["gallery", "--emit", name, "-o", str(pair_doc)]) == 0
        assert cli.main(["build", str(pair_doc), "-o", str(built_doc)]) == 0
        pair = exchange.load(str(pair_doc))
        acting, carrier = _side(pair)["conv"].parts_of(pair)[:2]
        n, na = acting.dim + carrier.dim, acting.dim
        rows = [",".join(str(int(t == i)) for t in range(n)) for i in range(n)]
        del calls["algebra"][:], calls["coalgebra"][:]
        code = cli.main(["split", str(built_doc), "--a-basis", ";".join(rows[:na]), "--i-basis", ";".join(rows[na:]),
                         "-o", str(tmp_path / "split.json")])
        assert code == 0 and "[ok] split verified" in capsys.readouterr().out
        assert len(calls[_side(pair)["conv"].name]) == 1 and sum(map(len, calls.values())) == 1
        assert exchange.load(str(tmp_path / "split.json")) == pair
