"""One failure path: a failed check becomes an exception in ``Report.require``.

``require`` returns its report when every check passed and otherwise raises
``ValidationFailure`` with the given message, carrying the report itself.
Every construction ends through it, so each site an input can reach is
pinned here by its exception type, message and first witness: the split's
closure and ideal (coideal) checks, the universal map's conditions and the
(co)module gluing on both sides, and pair validity.  The lint keeps the
raise in ``reports.py`` alone; ``cli.py`` only catches it.
"""

import ast
from pathlib import Path

import pytest

from dorroh.algebra import (
    AlgebraMorphism,
    BimoduleAction,
    DorrohPairAlgebra,
    ModuleOverAlgebra,
    assemble_module,
    build_dorroh_algebra,
    direct_product_pair,
    split_algebra_extension,
    universal_map_algebra,
    verify_algebra_morphism,
)
from dorroh.coalgebra import (
    BicomoduleCoaction,
    CoalgebraMorphism,
    ComoduleOverCoalgebra,
    DorrohPairCoalgebra,
    assemble_comodule,
    build_dorroh_coalgebra,
    split_coalgebra_extension,
    universal_map_coalgebra,
    verify_coalgebra_morphism,
    zero_coaction_pair,
)
from dorroh.errors import ValidationFailure
from dorroh.fields import QQ
from dorroh.gallery import (
    algebra_k,
    dual_numbers,
    grouplike_pair,
    grouplikes,
    matrix_algebra_2,
    matrix_coalgebra_2,
    regular_pair,
)
from dorroh.linalg import Matrix
from dorroh.reports import Report
from dorroh.tensors import SparseTensor3

SRC = Path(__file__).resolve().parents[1] / "src" / "dorroh"


def test_require_returns_the_report_on_a_pass():
    report = Report().add("a", True).add_witness("b", None)
    assert report.require("unused") is report


def test_require_raises_with_the_report_and_the_message_on_a_fail():
    report = Report().add("a", True).add_witness("b", (1, 2))
    with pytest.raises(ValidationFailure) as err:
        report.require("b failed")
    assert type(err.value) is ValidationFailure
    assert err.value.report is report
    assert str(err.value) == "b failed"
    assert report.first_failure().witness == (1, 2)


def _scalar(v):
    """The 1x1x1 tensor v, the structure of a one-dimensional (co)action."""
    return SparseTensor3((1, 1, 1), {(0, 0, 0): v} if v else {}, QQ)


def _identity(s, morphism, verify):
    f = morphism(s, s, Matrix.identity(s.dim, QQ))
    verify(f)
    return f


def _split_algebra_not_closed():
    # span{e12, e21} of M2: e12 e21 = e11 leaves it
    split_algebra_extension(matrix_algebra_2(QQ), [[0, 1, 0, 0], [0, 0, 1, 0]], [[1, 0, 0, 0], [0, 0, 0, 1]])


def _split_algebra_not_ideal():
    # span{1} of k[e]/(e^2): 1 e = e lands in A = span{e}
    split_algebra_extension(dual_numbers(QQ), [[0, 1]], [[1, 0]])


def _split_coalgebra_not_subcoalgebra():
    # span{e11} of M2^c: Delta(e11) has the e12 (x) e21 term
    split_coalgebra_extension(matrix_coalgebra_2(QQ), [[1, 0, 0, 0]], [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def _split_coalgebra_not_coideal():
    # span{g1 + g2}: Delta(g1 + g2) has a g1 (x) g1 term in C (x) C
    split_coalgebra_extension(grouplikes(2, QQ), [[1, 0]], [[1, 1]])


def _universal_algebra_conditions():
    # zero actions make f(ax) = 0 while phi(a) f(x) = ax in B = k
    k = algebra_k(QQ)
    ident = _identity(k, AlgebraMorphism, verify_algebra_morphism)
    universal_map_algebra(direct_product_pair(k, k), k, ident, ident)


def _universal_coalgebra_conditions():
    # zero coactions make rho_l(f(d)) = 0 while (phi (x) f) Delta(d) = g (x) p
    D = grouplikes(1, QQ)
    ident = _identity(D, CoalgebraMorphism, verify_coalgebra_morphism)
    universal_map_coalgebra(zero_coaction_pair(grouplikes(1, QQ), grouplikes(1, QQ)), D, ident, ident)


def _glue_module():
    # A acts by zero and I by the identity, so a(xm) = 0 but (ax)m = m
    pair = regular_pair(algebra_k(QQ))
    m_a = ModuleOverAlgebra(pair.A, 1, "left", left=_scalar(0))
    m_i = ModuleOverAlgebra(pair.I, 1, "left", left=_scalar(1))
    assemble_module(pair, m_a, m_i, "left")


def _glue_comodule():
    pair = grouplike_pair(QQ)
    com_c = ComoduleOverCoalgebra(pair.C, 1, "left", rho_l=_scalar(0))
    com_p = ComoduleOverCoalgebra(pair.P, 1, "left", rho_l=_scalar(1))
    assemble_comodule(pair, com_c, com_p, "left")


def _invalid_algebra_pair():
    # k acting on k[e]/(e^2) by 1 -> 1, e -> 2e on the left is no action
    k = algebra_k(QQ)
    left = SparseTensor3((1, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 2}, QQ)
    right = SparseTensor3((2, 1, 2), {(0, 0, 0): 1, (1, 0, 1): 1}, QQ)
    build_dorroh_algebra(DorrohPairAlgebra(k, dual_numbers(QQ), BimoduleAction(k, 2, left, right)))


def _invalid_coalgebra_pair():
    # rho_l(p) = 2 g (x) p is not coassociative
    g = grouplikes(1, QQ)
    build_dorroh_coalgebra(DorrohPairCoalgebra(g, grouplikes(1, QQ), BicomoduleCoaction(g, 1, _scalar(2), _scalar(1))))


SITES = [
    (_split_algebra_not_closed, "A-span is not closed under multiplication", "A_closed", (0, 1)),
    (_split_algebra_not_ideal, "I-span is not an ideal", "I_ideal", (0, 1)),
    (_split_coalgebra_not_subcoalgebra, "C-span is not a subcoalgebra", "C_subcoalgebra", (0,)),
    (_split_coalgebra_not_coideal, "P-span is not a coideal", "P_coideal", (0,)),
    (_universal_algebra_conditions, "not a Dorroh homomorphism", "f(ax)=phi(a)f(x)", (0, 0)),
    (
        _universal_coalgebra_conditions,
        "not a Dorroh pair homomorphism",
        "rho_l(f(d))=(phi(x)f)Delta(d)",
        (0,),
    ),
    (_glue_module, "module compatibility failed", "a(xm)=(ax)m", (0, 0, 0)),
    (_glue_comodule, "comodule compatibility failed", "(1(x)rho_l^C)rho_l^P=(rho_r(x)1)rho_l^P", (0,)),
    (
        _invalid_algebra_pair,
        "not a Dorroh pair of algebras: fail: (ab)x=a(bx) at (0, 0, 1)",
        "(ab)x=a(bx)",
        (0, 0, 1),
    ),
    (
        _invalid_coalgebra_pair,
        "not a Dorroh pair of coalgebras: fail: (Delta(x)1)rho_l=(1(x)rho_l)rho_l at (0,)",
        "(Delta(x)1)rho_l=(1(x)rho_l)rho_l",
        (0,),
    ),
]


@pytest.mark.parametrize("site, message, check, witness", SITES, ids=[s[0].__name__.lstrip("_") for s in SITES])
def test_each_reachable_failure_keeps_its_message_and_witness(site, message, check, witness):
    with pytest.raises(ValidationFailure) as err:
        site()
    assert type(err.value) is ValidationFailure
    assert str(err.value) == message
    bad = err.value.report.first_failure()
    assert (bad.name, bad.witness) == (check, witness)


def _mentions(tree, name):
    """Whether tree reads ``name``, as a name or an attribute, or imports it."""
    for node in ast.walk(tree):
        spelled = (
            node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else node.name if isinstance(node, ast.alias)
            else None
        )
        if spelled == name:
            return True
    return False


def test_only_reports_raises_validation_failure():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    assert trees
    raising = [
        f"{module}:{node.lineno}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None and _mentions(node.exc, "ValidationFailure")
    ]
    assert [site.split(":")[0] for site in raising] == ["reports.py"], raising
    # besides errors.py, which defines it: the package exports it and cli catches it
    knowing = sorted(module for module, tree in trees.items() if _mentions(tree, "ValidationFailure"))
    assert knowing == ["__init__.py", "cli.py", "reports.py"]
