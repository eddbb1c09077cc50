"""Exact toolkit for Dorroh extensions of algebras and coalgebras."""

from .algebra import (
    Algebra,
    AlgebraMorphism,
    BimoduleAction,
    DorrohPairAlgebra,
    ModuleOverAlgebra,
    assemble_module,
    build_dorroh_algebra,
    check_associativity,
    check_dorroh_pair_algebra,
    check_iterated_algebra_triple,
    direct_product_pair,
    regular_bimodule,
    split_algebra_extension,
    unital_ideal_iso,
    universal_map_algebra,
    verify_algebra_morphism,
)
from .coalgebra import (
    BicomoduleCoaction,
    Coalgebra,
    CoalgebraMorphism,
    ComoduleOverCoalgebra,
    DorrohPairCoalgebra,
    assemble_comodule,
    build_dorroh_coalgebra,
    check_coassociativity,
    check_dorroh_pair_coalgebra,
    check_iterated_coalgebra_triple,
    counit_balance_check,
    counital_split_iso,
    pushforward_pair,
    regular_bicomodule,
    split_coalgebra_extension,
    universal_map_coalgebra,
    verify_coalgebra_morphism,
    zero_coaction_pair,
)
from .duality import (
    DualityWitness,
    double_dual_iso,
    double_dual_iso_coalgebra,
    dual_actions,
    dual_algebra_of_coalgebra,
    dual_coactions,
    dual_coalgebra_of_algebra,
    dualize_algebra_pair,
    dualize_coalgebra_pair,
)
from .errors import DorrohError, InputError, PreconditionError, ValidationFailure
from .fields import GF, QQ, FieldSpec
from .findual import (
    CoproductDecomposition,
    RecurrentSequence,
    coproduct_decompose,
    dorroh_decompose,
    minimal_recurrence,
    vanishing_check,
)
from .linalg import Matrix, invert
from .reports import CheckResult, Report
from .tensors import SparseTensor3

__version__ = "0.1.0"
