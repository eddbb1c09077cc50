"""Reports the constructions derive, against the checks they stand for.

Four constructions carry a report or a (co)unit they did not decide
themselves, each by a theorem:

  * the bracketed pairs (A1|xA2, A3) and (A1, A2|xA3) of
    ``check_iterated_*_triple`` are reached only when (A1, A2), (A1, A3),
    (A2, A3) and the six mixed laws pass, and block by block every
    bracketing identity is one of those (iterated Dorroh extensions
    associate);
  * the dual pair of ``dualize_*_pair``: (A, I) is a pair of algebras
    exactly when (A*, I*) is a pair of coalgebras;
  * ``direct_product_pair`` and ``zero_coaction_pair``: every term of every
    pair law contains an action, so zero actions satisfy them all;
  * the (co)unit of ``build_dorroh_*``: (u_A, 0) is the unit of A|xI when
    u_A acts as the identity on I, and (eps_C, 0) the counit of C|xP when
    eps_C is counital on both coactions.

The reference below keeps the full computation: it lays both bracketings
out with ``place`` and checks every pair law by law, each with its own
``first_witness`` call, so it also stands for the law memo of
``check_laws`` (one decision per distinct identity in a check) and for the
pair reports recorded on an action (``algebra._known``).  The inputs are the
triples of the golden block corpus (regular, zero and scalar actions) and
(A, I, I) triples of seeded random pairs, with I the pair's own or a
random non-(co)associative structure of its dimension, acting on itself,
unperturbed or with one of the six action tensors bent in one entry, on
both sides over Q, GF(3) and GF(5).
"""

import random

from dorroh import algebra, coalgebra
from dorroh.algebra import (
    ACTION_LAWS,
    PAIR_LAWS,
    TRIPLE_LAWS,
    Algebra,
    AlgebraMorphism,
    BimoduleAction,
    DorrohPairAlgebra,
    _two_sided_unit,
    build_dorroh_algebra,
    check_dorroh_pair_algebra,
    check_iterated_algebra_triple,
    direct_product_pair,
    regular_bimodule,
    verify_algebra_morphism,
)
from dorroh.coalgebra import (
    BicomoduleCoaction,
    Coalgebra,
    CoalgebraMorphism,
    DorrohPairCoalgebra,
    build_dorroh_coalgebra,
    check_dorroh_pair_coalgebra,
    check_iterated_coalgebra_triple,
    regular_bicomodule,
    verify_coalgebra_morphism,
    zero_coaction_pair,
)
from dorroh.duality import dualize_algebra_pair, dualize_coalgebra_pair
from dorroh.errors import ValidationFailure
from dorroh.fields import GF, QQ
from dorroh.gallery import (
    algebra_k,
    divided_power,
    dual_numbers,
    group_algebra_z2,
    grouplikes,
    matrix_algebra_2,
    matrix_coalgebra_2,
    nilpotent_line,
    standard_algebra_pairs,
    standard_coalgebra_pairs,
    truncated_polynomials,
)
from dorroh.linalg import Matrix
from dorroh.reports import Report
from dorroh.tensors import TO_ALGEBRA, SparseTensor3, first_witness, place, rotate

from support import random_algebra_pair, random_coalgebra_pair

FIELDS = (QQ, GF(3), GF(5))
SEED = 20070250
# random (A, I, I) triples per field and side: about 200 in all
RANDOM_TRIPLES = 34


# ---------------------------------------------------------------------------
# the reference: both bracketings laid out with ``place`` and validated in full


def reference_algebra_bracketings(a1, a2, a3, act12, act13, act23):
    """(A1|xA2, A3) and (A1, A2|xA3) as pairs, validated by nothing."""
    field = a1.field
    n1, n2, n3 = a1.dim, a2.dim, a3.dim
    n12, n23 = n1 + n2, n2 + n3
    b12 = Algebra(n12, place(
        (n12, n12, n12), field,
        (a1.mul, (0, 0, 0)), (act12.left, (0, n1, n1)), (act12.right, (n1, 0, n1)), (a2.mul, (n1, n1, n1)),
    ), field)
    left = DorrohPairAlgebra(b12, a3, BimoduleAction(
        b12, n3,
        place((n12, n3, n3), field, (act13.left, (0, 0, 0)), (act23.left, (n1, 0, 0))),
        place((n3, n12, n3), field, (act13.right, (0, 0, 0)), (act23.right, (0, n1, 0))),
    ))
    b23 = Algebra(n23, place(
        (n23, n23, n23), field,
        (a2.mul, (0, 0, 0)), (act23.left, (0, n2, n2)), (act23.right, (n2, 0, n2)), (a3.mul, (n2, n2, n2)),
    ), field)
    right = DorrohPairAlgebra(a1, b23, BimoduleAction(
        a1, n23,
        place((n1, n23, n23), field, (act12.left, (0, 0, 0)), (act13.left, (0, n2, n2))),
        place((n23, n1, n23), field, (act12.right, (0, 0, 0)), (act13.right, (n2, 0, n2))),
    ))
    return left, right


def reference_coalgebra_bracketings(c1, c2, c3, co12, co13, co23):
    """(C1|xC2, C3) and (C1, C2|xC3) as pairs, validated by nothing."""
    field = c1.field
    n1, n2, n3 = c1.dim, c2.dim, c3.dim
    n12, n23 = n1 + n2, n2 + n3
    d12 = Coalgebra(n12, place(
        (n12, n12, n12), field,
        (c1.delta, (0, 0, 0)), (co12.rho_l, (n1, 0, n1)), (co12.rho_r, (n1, n1, 0)), (c2.delta, (n1, n1, n1)),
    ), field)
    left = DorrohPairCoalgebra(d12, c3, BicomoduleCoaction(
        d12, n3,
        place((n3, n12, n3), field, (co13.rho_l, (0, 0, 0)), (co23.rho_l, (0, n1, 0))),
        place((n3, n3, n12), field, (co13.rho_r, (0, 0, 0)), (co23.rho_r, (0, 0, n1))),
    ))
    d23 = Coalgebra(n23, place(
        (n23, n23, n23), field,
        (c2.delta, (0, 0, 0)), (co23.rho_l, (n2, 0, n2)), (co23.rho_r, (n2, n2, 0)), (c3.delta, (n2, n2, n2)),
    ), field)
    right = DorrohPairCoalgebra(c1, d23, BicomoduleCoaction(
        c1, n23,
        place((n23, n1, n23), field, (co12.rho_l, (0, 0, 0)), (co13.rho_l, (n2, 0, n2))),
        place((n23, n23, n1), field, (co12.rho_r, (0, 0, 0)), (co13.rho_r, (n2, n2, 0))),
    ))
    return left, right


def algebra_extension(pair):
    na, n = pair.A.dim, pair.A.dim + pair.I.dim
    return Algebra(n, place(
        (n, n, n), pair.field,
        (pair.A.mul, (0, 0, 0)), (pair.action.left, (0, na, na)),
        (pair.action.right, (na, 0, na)), (pair.I.mul, (na, na, na)),
    ), pair.field)


def coalgebra_extension(pair):
    nc, n = pair.C.dim, pair.C.dim + pair.P.dim
    return Coalgebra(n, place(
        (n, n, n), pair.field,
        (pair.C.delta, (0, 0, 0)), (pair.coaction.rho_l, (nc, 0, nc)),
        (pair.coaction.rho_r, (nc, nc, 0)), (pair.P.delta, (nc, nc, nc)),
    ), pair.field)


def reference_laws(report, field, laws, tensors):
    """``check_laws`` with no memo: each law whose roles are all bound is
    decided by its own ``first_witness`` call."""
    for name, box, out, (ls, l1, l2), (rs, r1, r2) in laws:
        if all(tensors.get(role) is not None for role in (l1, l2, r1, r2)):
            lhs, rhs = (ls, tensors[l1], tensors[l2]), (rs, tensors[r1], tensors[r2])
            report.add_witness(name, first_witness(field, box, out, lhs, rhs))
    return report


def reference_check(side, pair):
    """``check_dorroh_pair_*`` decided law by law, with no memo and no stamp."""
    conv = side["conv"]
    acting, carrier, left, right = conv.parts_of(pair)
    tensors = {"mul": getattr(acting, conv.tensor), "mi": getattr(carrier, conv.tensor), "left": left, "right": right}
    report = Report()
    for laws in (ACTION_LAWS, PAIR_LAWS):
        reference_laws(report, pair.field, getattr(laws, conv.name), tensors)
    return report


ALGEBRA = dict(
    conv=algebra.ALGEBRA, structure=Algebra, make=BimoduleAction,
    pair=DorrohPairAlgebra, check=check_dorroh_pair_algebra, laws=TRIPLE_LAWS.algebra,
    triple=check_iterated_algebra_triple, bracketings=reference_algebra_bracketings,
    extension=algebra_extension, morphism=AlgebraMorphism, verify=verify_algebra_morphism,
    prefixes=("A1A3:", "A2A3:", "associator:"),
)
COALGEBRA = dict(
    conv=coalgebra.COALGEBRA, structure=Coalgebra, make=BicomoduleCoaction,
    pair=DorrohPairCoalgebra, check=check_dorroh_pair_coalgebra, laws=TRIPLE_LAWS.coalgebra,
    triple=check_iterated_coalgebra_triple, bracketings=reference_coalgebra_bracketings,
    extension=coalgebra_extension, morphism=CoalgebraMorphism, verify=verify_coalgebra_morphism,
    prefixes=("C1C3:", "C2C3:", "coassociator:"),
)


def _legs(act):
    return (act.left, act.right) if isinstance(act, BimoduleAction) else (act.rho_l, act.rho_r)


def reference_parts(side, algs, acts):
    """(pair12 report, the report of A1A3, A2A3 and the six mixed laws)."""
    (a1, a2, a3), (act12, act13, act23) = algs, acts
    field = a1.field
    report = Report()
    report.merge(reference_check(side, side["pair"](a1, a3, act13)), prefix=side["prefixes"][0])
    report.merge(reference_check(side, side["pair"](a2, a3, act23)), prefix=side["prefixes"][1])
    tensors = dict(zip(("l12", "r12", "l13", "r13", "l23", "r23"), (*_legs(act12), *_legs(act13), *_legs(act23))))
    reference_laws(report, field, side["laws"], tensors)
    return reference_check(side, side["pair"](a1, a2, act12)), report


def reference_triple(side, algs, acts):
    """The parts, both bracketings' full reports and, when every one passes,
    the full report with the associator verified on the reference layout."""
    pair12, parts = reference_parts(side, algs, acts)
    left, right = side["bracketings"](*algs, *acts)
    checked = reference_check(side, left), reference_check(side, right)
    if not (pair12.ok and parts.ok):
        return pair12, parts, checked, None, None
    report = Report().merge(parts)
    report.merge(checked[0], prefix="left-bracketing:").merge(checked[1], prefix="right-bracketing:")
    n = sum(a.dim for a in algs)
    associator = side["morphism"](
        side["extension"](left), side["extension"](right), Matrix.identity(n, algs[0].field)
    )
    report.merge(side["verify"](associator, iso=True), prefix=side["prefixes"][2])
    return pair12, parts, checked, report, associator


def _checks(report):
    return [c.to_json() for c in report.checks]


# ---------------------------------------------------------------------------
# inputs


def _bimodule(a):
    reg = regular_bimodule(a)
    return BimoduleAction(a, a.dim, reg.left, reg.right)


def _bicomodule(c):
    reg = regular_bicomodule(c)
    return BicomoduleCoaction(c, c.dim, reg.rho_l, reg.rho_r)


def corpus_triples(field):
    """The triples of the golden block corpus: regular, zero and scalar actions."""
    out = []
    for a in (algebra_k(field), dual_numbers(field), group_algebra_z2(field),
              truncated_polynomials(2, field), matrix_algebra_2(field)):
        act = _bimodule(a)
        out.append((ALGEBRA, (a, a, a), (act, act, act)))
    algs = (matrix_algebra_2(field), group_algebra_z2(field), nilpotent_line(field))
    zero = [
        BimoduleAction(x, y.dim, SparseTensor3.zero((x.dim, y.dim, y.dim), field),
                       SparseTensor3.zero((y.dim, x.dim, y.dim), field))
        for x, y in ((algs[0], algs[1]), (algs[0], algs[2]), (algs[1], algs[2]))
    ]
    out.append((ALGEBRA, algs, tuple(zero)))
    k, dn = algebra_k(field), dual_numbers(field)
    scalar = BimoduleAction(
        k, 2,
        SparseTensor3((1, 2, 2), {(0, x, x): 1 for x in range(2)}, field),
        SparseTensor3((2, 1, 2), {(x, 0, x): 1 for x in range(2)}, field),
    )
    out.append((ALGEBRA, (k, dn, dn), (scalar, scalar, _bimodule(dn))))

    for c in (grouplikes(1, field), grouplikes(2, field), divided_power(1, field),
              divided_power(2, field), matrix_coalgebra_2(field)):
        co = _bicomodule(c)
        out.append((COALGEBRA, (c, c, c), (co, co, co)))
    cos = (matrix_coalgebra_2(field), grouplikes(2, field), divided_power(1, field))
    cozero = [
        BicomoduleCoaction(x, y.dim, SparseTensor3.zero((y.dim, x.dim, y.dim), field),
                           SparseTensor3.zero((y.dim, y.dim, x.dim), field))
        for x, y in ((cos[0], cos[1]), (cos[0], cos[2]), (cos[1], cos[2]))
    ]
    out.append((COALGEBRA, cos, tuple(cozero)))
    g, dp = grouplikes(1, field), divided_power(1, field)
    scalar = BicomoduleCoaction(
        g, 2,
        SparseTensor3((2, 1, 2), {(x, 0, x): 1 for x in range(2)}, field),
        SparseTensor3((2, 2, 1), {(x, x, 0): 1 for x in range(2)}, field),
    )
    out.append((COALGEBRA, (g, dp, dp), (scalar, scalar, _bicomodule(dp))))
    return out


def _bent(t, rng):
    """``t`` with one entry shifted by a nonzero scalar, or ``t`` if it is empty."""
    if 0 in t.dims:
        return t
    key = tuple(rng.randrange(d) for d in t.dims)
    entries = dict(t.entries)
    entries[key] = t.field.canon(entries.get(key, 0) + rng.choice((1, 2)))
    return SparseTensor3(t.dims, entries, t.field)


def random_triples(field, rng):
    """(A, I, I) of random pairs with act12 = act13 = the pair's action and
    I acting on itself; each unperturbed or with one action tensor bent."""
    out = []
    for i in range(2 * RANDOM_TRIPLES):
        if i % 2 == 0:
            pair = random_algebra_pair(rng, field)
            side, a, b, act = ALGEBRA, pair.A, pair.I, pair.action
            regular = _bimodule(b)
            make = BimoduleAction
        else:
            pair = random_coalgebra_pair(rng, field)
            side, a, b, act = COALGEBRA, pair.C, pair.P, pair.coaction
            regular = _bicomodule(b)
            make = BicomoduleCoaction
        acts = [act, act, regular]
        bend = rng.randrange(7)  # 6: unperturbed
        if bend < 6:
            which, leg = divmod(bend, 2)
            legs = list(_legs(acts[which]))
            legs[leg] = _bent(legs[leg], rng)
            acting = (a, a, b)[which]
            acts[which] = make(acting, acts[which].carrier_dim, *legs)
        out.append((side, (a, b, b), tuple(acts)))
    return out


def _tangled(side, dim, field, rng):
    """A structure of dimension ``dim`` with 2 dim random entries, almost
    never (co)associative once dim > 1."""
    entries = {}
    for _ in range(2 * dim):
        entries[tuple(rng.randrange(dim) for _ in range(3))] = rng.choice((1, 2))
    return side["structure"](dim, SparseTensor3((dim, dim, dim), entries, field), field)


def tangled_triples(field, rng):
    """(A, J, J) of random pairs with J a random structure in place of I:
    J acting on itself is a pair exactly when J is (co)associative, and each
    of its laws is the associativity of J renamed.  Each unperturbed or
    with one action tensor bent."""
    out = []
    for i in range(RANDOM_TRIPLES):
        side = (ALGEBRA, COALGEBRA)[i % 2]
        pair = (random_algebra_pair, random_coalgebra_pair)[i % 2](rng, field)
        a, b = side["conv"].parts_of(pair)[:2]
        act = getattr(pair, side["conv"].action)
        j = _tangled(side, b.dim, field, rng)
        acts = [act, act, side["make"](j, j.dim, *(getattr(j, side["conv"].tensor),) * 2)]
        bend = rng.randrange(9)  # 6..8: unperturbed
        if bend < 6:
            which, leg = divmod(bend, 2)
            legs = list(_legs(acts[which]))
            legs[leg] = _bent(legs[leg], rng)
            acts[which] = side["make"]((a, a, j)[which], acts[which].carrier_dim, *legs)
        out.append((side, (a, j, j), tuple(acts)))
    return out


def _run(side, algs, acts):
    """(report, associator) of the library's triple, or (None, None) when
    it raised because (A1, A2) is not a pair."""
    try:
        return side["triple"](*algs, *acts)
    except ValidationFailure:
        return None, None


def _all_triples():
    rng, tangled_rng = random.Random(SEED), random.Random(SEED + 3)
    out = []
    for field in FIELDS:
        out += corpus_triples(field)
        out += random_triples(field, rng)
        out += tangled_triples(field, tangled_rng)
    return out


# ---------------------------------------------------------------------------
# tests


def test_bracketings_pass_exactly_when_their_parts_pass():
    both_pass = both_fail = 0
    for side, algs, acts in _all_triples():
        pair12, parts, checked, reference, ref_associator = reference_triple(side, algs, acts)
        parts_pass = pair12.ok and parts.ok
        assert (checked[0].ok and checked[1].ok) == parts_pass, (algs, acts)
        both_pass += parts_pass
        both_fail += not parts_pass

        report, associator = _run(side, algs, acts)
        if not pair12.ok:
            assert report is None
            continue
        assert report.ok == parts_pass
        if parts_pass:
            assert _checks(report) == _checks(reference)
            assert associator.source == ref_associator.source and associator.target == ref_associator.target
        else:
            assert _checks(report) == _checks(parts) and associator is None
    assert both_pass >= 40 and both_fail >= 100, (both_pass, both_fail)


def test_pair_checks_match_the_law_by_law_reference():
    """The three pairs of every triple, each checked on a fresh action (no
    stamp), and the report a triple raises when (A1, A2) is not a pair,
    name, order, flag and witness every law as the reference does."""
    raised = tangled = 0
    for side, (a1, a2, a3), (act12, act13, act23) in _all_triples():
        for x, y, act in ((a1, a2, act12), (a1, a3, act13), (a2, a3, act23)):
            pair = side["pair"](x, y, side["make"](x, y.dim, *_legs(act)))
            report = side["check"](pair)
            assert _checks(report) == _checks(reference_check(side, pair)), (x, y)
            tangled += not report.ok and x is y
        try:
            side["triple"](a1, a2, a3, act12, act13, act23)
        except ValidationFailure as err:
            raised += 1
            assert _checks(err.report) == _checks(reference_check(side, side["pair"](a1, a2, act12)))
    assert raised >= 20 and tangled >= 20, (raised, tangled)


def _fresh_algebra_pair(pair):
    action = BimoduleAction(pair.A, pair.I.dim, pair.action.left, pair.action.right)
    return DorrohPairAlgebra(pair.A, pair.I, action)


def _fresh_coalgebra_pair(pair):
    coaction = BicomoduleCoaction(pair.C, pair.P.dim, pair.coaction.rho_l, pair.coaction.rho_r)
    return DorrohPairCoalgebra(pair.C, pair.P, coaction)


def _pairs(field, rng):
    algebra_pairs = [p for _, p in standard_algebra_pairs(field)]
    algebra_pairs += [random_algebra_pair(rng, field) for _ in range(8)]
    coalgebra_pairs = [p for _, p in standard_coalgebra_pairs(field)]
    coalgebra_pairs += [random_coalgebra_pair(rng, field) for _ in range(8)]
    return algebra_pairs, coalgebra_pairs


def test_dual_and_zero_action_pairs_report_what_a_full_check_finds():
    rng = random.Random(SEED + 1)
    for field in FIELDS:
        algebra_pairs, coalgebra_pairs = _pairs(field, rng)
        for pair in algebra_pairs:
            copair = dualize_algebra_pair(pair)[0]
            assert _checks(copair.validate()) == _checks(check_dorroh_pair_coalgebra(_fresh_coalgebra_pair(copair)))
            product = direct_product_pair(pair.A, pair.I)
            assert _checks(product.validate()) == _checks(check_dorroh_pair_algebra(_fresh_algebra_pair(product)))
        for pair in coalgebra_pairs:
            apair = dualize_coalgebra_pair(pair)[0]
            assert _checks(apair.validate()) == _checks(check_dorroh_pair_algebra(_fresh_algebra_pair(apair)))
            product = zero_coaction_pair(pair.C, pair.P)
            assert _checks(product.validate()) == _checks(check_dorroh_pair_coalgebra(_fresh_coalgebra_pair(product)))


def test_built_unit_is_the_unit_of_the_extension():
    rng = random.Random(SEED + 2)
    stored = 0
    for field in FIELDS:
        algebra_pairs, coalgebra_pairs = _pairs(field, rng)
        for pair in algebra_pairs + [direct_product_pair(p.A, p.I) for p in algebra_pairs]:
            built = build_dorroh_algebra(pair)
            stored += built._unit != "unset"
            assert built.find_identity() == _two_sided_unit(built.mul)
        for pair in coalgebra_pairs + [zero_coaction_pair(p.C, p.P) for p in coalgebra_pairs]:
            built = build_dorroh_coalgebra(pair)
            stored += built._unit != "unset"
            assert built.find_counit() == _two_sided_unit(rotate(built.delta, TO_ALGEBRA))
    assert stored >= 40


def _counting(monkeypatch, module, name):
    calls = []
    check = getattr(module, name)

    def counted(pair, *memo):
        calls.append(pair)
        return check(pair, *memo)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_triple_validates_two_pairs_and_a_dual_none(monkeypatch):
    field = GF(5)
    algebra_pairs, coalgebra_pairs = list(standard_algebra_pairs(field)), list(standard_coalgebra_pairs(field))
    algebra_calls = _counting(monkeypatch, algebra, "check_dorroh_pair_algebra")
    coalgebra_calls = _counting(monkeypatch, coalgebra, "check_dorroh_pair_coalgebra")
    for _, pair in algebra_pairs:
        regular = _bimodule(pair.I)
        fresh = _fresh_algebra_pair(pair)
        del algebra_calls[:], coalgebra_calls[:]
        report, _ = check_iterated_algebra_triple(fresh.A, fresh.I, fresh.I, fresh.action, fresh.action, regular)
        assert report.ok and len(algebra_calls) == 2 and not coalgebra_calls
        # the gallery's pair is validated: (A1, A2) takes the report stamped on its action
        del algebra_calls[:]
        regular = _bimodule(pair.I)
        report, _ = check_iterated_algebra_triple(pair.A, pair.I, pair.I, pair.action, pair.action, regular)
        assert report.ok and len(algebra_calls) == 1 and algebra_calls[0].A is pair.I
        pair.validate()
        del algebra_calls[:]
        dualize_algebra_pair(pair)
        build_dorroh_algebra(direct_product_pair(pair.A, pair.I))
        assert not algebra_calls and not coalgebra_calls
    for _, pair in coalgebra_pairs:
        regular = _bicomodule(pair.P)
        fresh = _fresh_coalgebra_pair(pair)
        del algebra_calls[:], coalgebra_calls[:]
        report, _ = check_iterated_coalgebra_triple(fresh.C, fresh.P, fresh.P, fresh.coaction, fresh.coaction, regular)
        assert report.ok and len(coalgebra_calls) == 2 and not algebra_calls
        del coalgebra_calls[:]
        regular = _bicomodule(pair.P)
        report, _ = check_iterated_coalgebra_triple(pair.C, pair.P, pair.P, pair.coaction, pair.coaction, regular)
        assert report.ok and len(coalgebra_calls) == 1 and coalgebra_calls[0].C is pair.P
        pair.validate()
        del coalgebra_calls[:]
        dualize_coalgebra_pair(pair)
        build_dorroh_coalgebra(zero_coaction_pair(pair.C, pair.P))
        assert not algebra_calls and not coalgebra_calls
