"""Every constructor error text of both sides, pinned.

The structure, action, pair and (co)module classes of both sides share
one constructor each, which reads its side's names from the side's
``Convention``.  Each row builds one bad input on one side and names the
exact ``InputError`` text; a document loader reports these texts, so they
are part of the command line's output.  Inputs are built in algebra
convention and laid out in the side's legs (``Convention.lay``), so the
same bad shape is asked of both sides.
"""

import pytest

from dorroh.algebra import ALGEBRA
from dorroh.coalgebra import COALGEBRA
from dorroh.errors import InputError
from dorroh.fields import GF, QQ
from dorroh.tensors import SparseTensor3

CONVENTIONS = {"algebra": ALGEBRA, "coalgebra": COALGEBRA}


def _zero(conv, legs, field=QQ):
    return SparseTensor3.zero(conv.lay(legs), field)


def _one(conv, field=QQ):
    """k: the one-dimensional structure whose basis vector is its (co)unit."""
    return conv.structure(1, SparseTensor3((1, 1, 1), {(0, 0, 0): 1}, field), field)


def _action(conv, acting, n, left=None, right=None):
    na = acting.dim
    left = _zero(conv, (na, n, n), acting.field) if left is None else left
    right = _zero(conv, (n, na, n), acting.field) if right is None else right
    return conv.action_type(acting, n, left, right)


def _module(conv, side, left=None, right=None):
    return conv.module(_one(conv), 2, side, **dict(zip(conv.actions, (left, right))))


# (name, build, algebra text, coalgebra text) for each constructor check
ROWS = [
    ("structure-dims", lambda c: c.structure(2, _zero(c, (1, 1, 1)), QQ),
     "mul tensor dims (1, 1, 1) do not match dim 2", "delta tensor dims (1, 1, 1) do not match dim 2"),
    ("structure-field", lambda c: c.structure(1, _zero(c, (1, 1, 1), GF(3)), QQ),
     "mul tensor field mismatch", "delta tensor field mismatch"),
    ("structure-labels", lambda c: c.structure(1, _zero(c, (1, 1, 1)), QQ, labels=["x", "y"]),
     "label count must equal dim", "label count must equal dim"),
    ("structure-unit", lambda c: c.structure(1, _zero(c, (1, 1, 1)), QQ, None, [1]),
     "cached unit fails the identity law", "cached counit fails the counit law"),
    ("structure-unit-length", lambda c: c.structure(1, SparseTensor3((1, 1, 1), {(0, 0, 0): 1}, QQ), QQ, None, [1, 0]),
     "cached unit fails the identity law", "cached counit fails the counit law"),
    ("action-left-dims", lambda c: _action(c, _one(c), 2, left=_zero(c, (1, 1, 1))),
     "left action dims (1, 1, 1) do not match (1,2,2)", "rho_l dims (1, 1, 1) do not match (2,1,2)"),
    ("action-right-dims", lambda c: _action(c, _one(c), 2, right=_zero(c, (1, 1, 1))),
     "right action dims (1, 1, 1) do not match (2,1,2)", "rho_r dims (1, 1, 1) do not match (2,2,1)"),
    ("action-left-field", lambda c: _action(c, _one(c), 2, left=_zero(c, (1, 2, 2), GF(3))),
     "action tensor field mismatch", "coaction tensor field mismatch"),
    ("action-right-field", lambda c: _action(c, _one(c), 2, right=_zero(c, (2, 1, 2), GF(3))),
     "action tensor field mismatch", "coaction tensor field mismatch"),
    ("pair-acting", lambda c: c.pair(_one(c), _one(c), _action(c, c.structure(1, _zero(c, (1, 1, 1)), QQ), 1)),
     "action must be an action of the pair's A", "coaction must be a coaction of the pair's C"),
    ("pair-carrier", lambda c: c.pair(_one(c), _one(c), _action(c, _one(c), 2)),
     "action carrier does not match I", "coaction carrier does not match P"),
    ("pair-fields", lambda c: c.pair(_one(c), _one(c, GF(3)), _action(c, _one(c), 1)),
     "pair components over different fields", "pair components over different fields"),
    ("module-side", lambda c: _module(c, "both"),
     "side must be one of ('left', 'right', 'bi')", "side must be one of ('left', 'right', 'bi')"),
    ("module-left-missing", lambda c: _module(c, "left"),
     "left action tensor missing or mis-shaped", "rho_l tensor missing or mis-shaped"),
    ("module-left-shape", lambda c: _module(c, "bi", _zero(c, (1, 2, 1)), _zero(c, (2, 1, 2))),
     "left action tensor missing or mis-shaped", "rho_l tensor missing or mis-shaped"),
    ("module-right-missing", lambda c: _module(c, "bi", _zero(c, (1, 2, 2))),
     "right action tensor missing or mis-shaped", "rho_r tensor missing or mis-shaped"),
    ("module-right-shape", lambda c: _module(c, "right", None, _zero(c, (2, 2, 2))),
     "right action tensor missing or mis-shaped", "rho_r tensor missing or mis-shaped"),
    ("module-right-carries-left", lambda c: _module(c, "right", _zero(c, (1, 2, 2)), _zero(c, (2, 1, 2))),
     "right module cannot carry a left action", "right comodule cannot carry a left coaction"),
    ("module-left-carries-right", lambda c: _module(c, "left", _zero(c, (1, 2, 2)), _zero(c, (2, 1, 2))),
     "left module cannot carry a right action", "left comodule cannot carry a right coaction"),
]


CASES = [
    pytest.param(side, build, texts[i], id=f"{side}-{name}")
    for name, build, *texts in ROWS
    for i, side in enumerate(CONVENTIONS)
]


@pytest.mark.parametrize("side,build,text", CASES)
def test_constructor_error_text(side, build, text):
    with pytest.raises(InputError) as caught:
        build(CONVENTIONS[side])
    assert str(caught.value) == text

