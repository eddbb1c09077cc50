"""Command-line interface over the exchange format.

Exit codes: 0 = pass/success, 1 = a checked property failed (the report
carries a witness), 2 = input or usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import exchange
from .algebra import (
    Algebra,
    AlgebraMorphism,
    BimoduleAction,
    DorrohPairAlgebra,
    ModuleOverAlgebra,
    build_dorroh_algebra,
    check_associativity,
    check_iterated_algebra_triple,
    split_algebra_extension,
    unital_ideal_iso,
    verify_algebra_morphism,
)
from .coalgebra import (
    BicomoduleCoaction,
    Coalgebra,
    CoalgebraMorphism,
    ComoduleOverCoalgebra,
    DorrohPairCoalgebra,
    build_dorroh_coalgebra,
    check_coassociativity,
    check_iterated_coalgebra_triple,
    counital_split_iso,
    split_coalgebra_extension,
    verify_coalgebra_morphism,
)
from .duality import (
    double_dual_iso,
    double_dual_iso_coalgebra,
    dual_actions,
    dual_algebra_of_coalgebra,
    dual_coactions,
    dual_coalgebra_of_algebra,
    dualize_algebra_pair,
    dualize_coalgebra_pair,
)
from .errors import InputError, ValidationFailure
from .fields import FieldSpec
from .findual import (
    RecurrentSequence,
    check_bound,
    coproduct_decompose,
    dorroh_decompose,
    minimal_recurrence,
    vanishing_check,
)
from .gallery import catalog_names, instance, standard_algebra_pairs, standard_coalgebra_pairs
from .reports import Report

# The command for each kind of document, where the two sides differ only
# in it, by name: _command looks the function up when the command runs, so
# a wrapper put on the module global (a tracer's span, say) is the one called.
_BUILDS = {DorrohPairAlgebra: "build_dorroh_algebra", DorrohPairCoalgebra: "build_dorroh_coalgebra"}
_SPLITS = {Algebra: "split_algebra_extension", Coalgebra: "split_coalgebra_extension"}
_DUALS = {
    Algebra: "dual_coalgebra_of_algebra",
    Coalgebra: "dual_algebra_of_coalgebra",
    ModuleOverAlgebra: "dual_actions",
    ComoduleOverCoalgebra: "dual_coactions",
    DorrohPairAlgebra: "dualize_algebra_pair",
    DorrohPairCoalgebra: "dualize_coalgebra_pair",
}
_GALLERY_PAIRS = {"pair-algebra": standard_algebra_pairs, "pair-coalgebra": standard_coalgebra_pairs}


def _command(table, obj):
    """The function ``table`` names for the type of obj, or None."""
    name = table.get(type(obj))
    return None if name is None else globals()[name]


def _print_report(report: Report, args, stream):
    if args.report == "json":
        print(json.dumps(report.to_json(), indent=2), file=stream)
    else:
        print(report.render_text(), file=stream)


def _write(path, obj):
    text = exchange.emit(obj)  # before the file is opened, so an emit error leaves no file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _run(args) -> int:
    """Run a command and write what it made: its document to -o or stdout,
    a split's isomorphism to --iso-out, then its report, to stderr when
    the document took stdout.  Returns 1 when the report fails, else 0."""
    report, doc, *iso = args.func(args)
    stream = sys.stdout
    if doc is not None and args.output:
        _write(args.output, doc)
    elif doc is not None:
        sys.stdout.write(exchange.emit(doc))
        stream = sys.stderr
    if iso and args.iso_out:
        _write(args.iso_out, iso[0])
    if report is None:
        return 0
    _print_report(report, args, stream)
    return 0 if report.ok else 1


def _parse_field_flag(spec: str) -> FieldSpec:
    if spec == "Q":
        return FieldSpec.rationals()
    if spec.startswith("Fp:"):
        try:
            return FieldSpec.prime(int(spec[3:]))
        except ValueError:
            raise InputError(f"bad field spec {spec!r}") from None
    raise InputError(f"bad field spec {spec!r} (use Q or Fp:<prime>)")


def _parse_basis(spec: str, field: FieldSpec, dim: int):
    vectors = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != dim:
            raise InputError(f"basis vector {chunk!r} must have {dim} coordinates")
        vectors.append([field.parse(p) for p in parts])
    if not vectors:
        raise InputError("empty basis specification")
    return vectors


# Each command returns its report (None when it prints none) and its
# document (None when it writes none); split also returns its isomorphism.


def cmd_check(args):
    obj = exchange.load(args.file)
    if isinstance(obj, Algebra):
        return check_associativity(obj), None
    if isinstance(obj, Coalgebra):
        return check_coassociativity(obj), None
    if isinstance(obj, (DorrohPairAlgebra, DorrohPairCoalgebra, ModuleOverAlgebra, ComoduleOverCoalgebra)):
        return obj.validate(), None
    if isinstance(obj, AlgebraMorphism):
        return verify_algebra_morphism(obj, iso=obj.verified == "iso"), None
    if isinstance(obj, CoalgebraMorphism):
        return verify_coalgebra_morphism(obj, iso=obj.verified == "iso"), None
    if isinstance(obj, RecurrentSequence):
        return Report().add("well-formed", True), None
    raise InputError(f"cannot check object of type {type(obj).__name__}")


def cmd_build(args):
    pair = exchange.load(args.file)
    build = _command(_BUILDS, pair)
    if build is None:
        raise InputError("build needs a pair-algebra or pair-coalgebra document")
    built = build(pair)
    return pair.validate(), built


def cmd_split(args):
    obj = exchange.load(args.file)
    split = _command(_SPLITS, obj)
    if split is None:
        raise InputError("split needs an algebra or coalgebra document")
    a_basis = _parse_basis(args.a_basis, obj.field, obj.dim)
    i_basis = _parse_basis(args.i_basis, obj.field, obj.dim)
    pair, iso = split(obj, a_basis, i_basis)
    return Report().add("split verified", True, detail=f"iso {iso.verified}"), pair, iso


def cmd_dualize(args):
    obj = exchange.load(args.file)
    dualize = _command(_DUALS, obj)
    if dualize is None:
        raise InputError("dualize needs an algebra, coalgebra, pair, module or comodule document")
    if isinstance(obj, (DorrohPairAlgebra, DorrohPairCoalgebra)):
        out, witness = dualize(obj)
        return Report().add("duality witness verified", True, detail=witness.convention), out
    return Report().add("dualized", True), dualize(obj)


def _canonical_triple(pair):
    """The iterated triple (A, I, I) of a pair, with I acting on itself."""
    if isinstance(pair, DorrohPairAlgebra):
        regular = BimoduleAction(pair.I, pair.I.dim, pair.I.mul, pair.I.mul)
        return check_iterated_algebra_triple(pair.A, pair.I, pair.I, pair.action, pair.action, regular)
    if isinstance(pair, DorrohPairCoalgebra):
        regular = BicomoduleCoaction(pair.P, pair.P.dim, pair.P.delta, pair.P.delta)
        return check_iterated_coalgebra_triple(pair.C, pair.P, pair.P, pair.coaction, pair.coaction, regular)
    raise InputError("associator needs a pair document")


def _named_iso(which, obj):
    """The isomorphism ``which`` (prop1.1, counital-split or duality) of a
    document, built and verified."""
    if which == "prop1.1":
        if not isinstance(obj, DorrohPairAlgebra):
            raise InputError("prop1.1 needs a pair-algebra document")
        return unital_ideal_iso(obj)
    if which == "counital-split":
        if not isinstance(obj, DorrohPairCoalgebra):
            raise InputError("counital-split needs a pair-coalgebra document")
        return counital_split_iso(obj)
    if isinstance(obj, Algebra):
        return double_dual_iso(obj)
    if isinstance(obj, Coalgebra):
        return double_dual_iso_coalgebra(obj)
    if isinstance(obj, DorrohPairAlgebra):
        return dualize_algebra_pair(obj)[1].forward
    if isinstance(obj, DorrohPairCoalgebra):
        return dualize_coalgebra_pair(obj)[1].forward
    raise InputError("duality needs an algebra, coalgebra or pair document")


def cmd_iso(args):
    obj = exchange.load(args.file)
    if args.which == "associator":
        return _canonical_triple(obj)  # no associator when the report fails
    # the report of verify_*_morphism(morphism, iso=True): each constructor
    # raises unless that verification passed
    morphism = _named_iso(args.which, obj)
    return Report().add(morphism._conv.co + "multiplicative", True).add("invertible", True), morphism


def cmd_findual(args):
    seq = exchange.load(args.seq)
    if not isinstance(seq, RecurrentSequence):
        raise InputError("findual needs a sequence document")
    field = seq.field
    if args.command == "minrec":
        bound = check_bound(args.bound)  # before reading a prefix of length 2 * bound + 2
        if seq.coeffs:
            prefix = seq.prefix(2 * bound + 2)
        else:
            prefix = list(seq.initial)
        found = minimal_recurrence(prefix, bound, field)
        if found is None:
            detail = f"no recurrence of order <= {bound}"
            return Report().add("minimal recurrence", False, (bound,), detail=detail), None
        return Report().add("minimal recurrence", True, detail=f"order {found.order}"), found
    if args.command == "coproduct":
        dec = coproduct_decompose(seq, args.depth)
        return Report().add("coproduct decomposition", True, detail=f"rank {dec.rank}, pivots {dec.pivots}"), None
    if args.command == "dorroh":
        return dorroh_decompose(seq, args.depth), None
    if args.poly:  # vanish
        coeffs = [field.parse(p.strip()) for p in args.poly.split(",")]
    elif seq.coeffs:
        coeffs = list(seq.coeffs)
    else:
        raise InputError("sequence has no recurrence; pass --poly")
    return vanishing_check(seq, coeffs, args.depth), None


def cmd_gallery(args):
    field = _parse_field_flag(args.field)
    if args.list:
        for name in catalog_names():
            print(name)
        for kind, pairs in _GALLERY_PAIRS.items():
            for name, _ in pairs(field):
                print(f"{kind}:{name}")
        return None, None
    if not args.emit:
        raise InputError("gallery needs --list or --emit NAME")
    name = args.emit
    kind, colon, key = name.partition(":")
    if not (colon and kind in _GALLERY_PAIRS):
        return None, instance(name, field)
    table = dict(_GALLERY_PAIRS[kind](field))
    if key not in table:
        raise InputError(f"unknown gallery pair {name!r}")
    return None, table[key]


def _naming_the_equals_form(error):
    """A parser's ``error`` that, for a basis flag given without its value,
    also names the = form: argparse reads a separate value that starts
    with '-' as an option."""

    def hinted(message):
        for flag in ("--a-basis", "--i-basis"):
            if message == f"argument {flag}: expected one argument":
                message += f" (join a value that starts with '-' with =, as in {flag}='-1,0;...')"
        error(message)

    return hinted


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dorroh",
        description="Exact toolkit for Dorroh extensions of algebras and coalgebras.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--report", choices=("text", "json"), default="text", help="report format")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="validate any exchange document")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("build", parents=[common], help="build the extension of a pair document")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("split", parents=[common], help="split an extension along two bases")
    p.add_argument("file")
    p.add_argument("--a-basis", required=True, help="semicolon-separated coordinate vectors")
    p.add_argument("--i-basis", required=True, help="semicolon-separated coordinate vectors")
    p.add_argument("-o", "--output")
    p.add_argument("--iso-out")
    p.set_defaults(func=cmd_split)
    p.error = _naming_the_equals_form(p.error)

    p = sub.add_parser("dualize", parents=[common], help="dualize a document")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_dualize)

    p = sub.add_parser("iso", parents=[common], help="construct and verify a named isomorphism")
    p.add_argument("--which", required=True, choices=("prop1.1", "counital-split", "duality", "associator"))
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("findual", parents=[common], help="finite-dual operations on sequences")
    p.add_argument("--seq", required=True)
    p.add_argument("--depth", type=int, default=None, help="verification depth (default 2r+16)")
    p.add_argument("--command", required=True, choices=("minrec", "coproduct", "dorroh", "vanish"))
    p.add_argument("--bound", type=int, default=8)
    p.add_argument("--poly", help="comma-separated c_1..c_r encoding x^r - sum c_i x^(r-i)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_findual)

    p = sub.add_parser("gallery", parents=[common], help="list or emit named instances")
    p.add_argument("--list", action="store_true")
    p.add_argument("--emit")
    p.add_argument("--field", default="Q", help="Q or Fp:<prime>")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gallery)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``main`` call, not at import,
    and kept for the process: parsing leaves no state in it."""
    return _build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return _run(args)
    except ValidationFailure as e:
        _print_report(e.report, args, sys.stdout)
        return 1
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
