import json
import math
import re
import subprocess
import sys
import time

from dorroh import algebra, cli, coalgebra, duality, exchange
from dorroh.algebra import AlgebraMorphism, verify_algebra_morphism
from dorroh.cli import main
from dorroh.coalgebra import verify_coalgebra_morphism
from dorroh.fields import QQ
from dorroh.findual import MAX_BOUND, MAX_DEPTH, MAX_ORDER
from dorroh.exchange import MAX_DENSE_DIM, MAX_DIM
from dorroh.gallery import MAX_PARAM, instance


def run_cli(*argv):
    return main(list(argv))


def test_gallery_list(capsys):
    assert run_cli("gallery", "--list") == 0
    out = capsys.readouterr().out
    assert "M2" in out and "pair-algebra:M2_regular" in out


def test_gallery_emit_and_check(tmp_path, capsys):
    doc = tmp_path / "m2.json"
    assert run_cli("gallery", "--emit", "M2", "-o", str(doc)) == 0
    assert run_cli("check", str(doc)) == 0
    out = capsys.readouterr().out
    assert "pass" in out


def test_gallery_emit_unknown_name():
    assert run_cli("gallery", "--emit", "nope") == 2


def test_check_failing_document(tmp_path, capsys):
    doc = tmp_path / "m2.json"
    run_cli("gallery", "--emit", "M2", "-o", str(doc))
    data = json.loads(doc.read_text())
    data["payload"]["mul"][0] = [0, 0, 1, "1"]  # e11 e11 := e12
    del data["payload"]["unit"]
    doc.write_text(json.dumps(data))
    assert run_cli("check", str(doc)) == 1
    assert "witness" in capsys.readouterr().out


def test_check_malformed_document(tmp_path, capsys):
    doc = tmp_path / "m2.json"
    run_cli("gallery", "--emit", "M2", "-o", str(doc))
    data = json.loads(doc.read_text())
    data["payload"]["mul"][0][0] = 99
    doc.write_text(json.dumps(data))
    assert run_cli("check", str(doc)) == 2
    assert "out of range" in capsys.readouterr().err


def test_check_missing_file():
    assert run_cli("check", "/nonexistent/file.json") == 2


def test_usage_error_exit_code():
    assert run_cli("frobnicate") == 2


def test_field_flag_rejects_moduli_past_two_to_the_64(capsys):
    assert run_cli("gallery", "--emit", "M2", "--field", f"Fp:{2**64 + 13}") == 2
    assert "below 2**64" in capsys.readouterr().err


def test_a_composite_modulus_exits_2_on_every_parse(tmp_path, capsys):
    doc = tmp_path / "m2.json"
    assert run_cli("gallery", "--emit", "M2", "--field", "Fp:7", "-o", str(doc)) == 0
    data = json.loads(doc.read_text())
    data["field"]["p"] = 561  # Carmichael number
    doc.write_text(json.dumps(data))
    for _ in range(2):  # the second parse reads the cached decision
        assert run_cli("check", str(doc)) == 2
        assert "modulus must be prime, got 561" in capsys.readouterr().err


def test_build_and_recheck(tmp_path):
    pair_doc = tmp_path / "pair.json"
    built_doc = tmp_path / "built.json"
    assert run_cli("gallery", "--emit", "pair-algebra:k_nilpotent_scalar", "-o", str(pair_doc)) == 0
    assert run_cli("build", str(pair_doc), "-o", str(built_doc)) == 0
    assert run_cli("check", str(built_doc)) == 0
    built = exchange.load(str(built_doc))
    assert built.dim == 2
    assert built.mul == instance("dual_numbers", QQ).mul


def test_build_rejects_non_pair(tmp_path):
    doc = tmp_path / "m2.json"
    run_cli("gallery", "--emit", "M2", "-o", str(doc))
    assert run_cli("build", str(doc)) == 2


def test_split_round_trip(tmp_path):
    dn = tmp_path / "dn.json"
    pair_out = tmp_path / "pair.json"
    iso_out = tmp_path / "iso.json"
    run_cli("gallery", "--emit", "dual_numbers", "-o", str(dn))
    code = run_cli(
        "split", str(dn), "--a-basis", "1,0", "--i-basis", "0,1",
        "-o", str(pair_out), "--iso-out", str(iso_out),
    )
    assert code == 0
    pair = exchange.load(str(pair_out))
    assert pair.A.dim == 1 and pair.I.dim == 1
    iso = exchange.load(str(iso_out))
    assert iso.verified == "iso"


def test_split_non_ideal_fails(tmp_path):
    dn = tmp_path / "dn.json"
    run_cli("gallery", "--emit", "dual_numbers", "-o", str(dn))
    assert run_cli("split", str(dn), "--a-basis", "0,1", "--i-basis", "1,0") == 1


def test_split_basis_usage_error_names_the_equals_form(tmp_path, capsys):
    dn = tmp_path / "dn.json"
    run_cli("gallery", "--emit", "dual_numbers", "-o", str(dn))
    capsys.readouterr()
    for argv, flag in (
        (("--a-basis", "-1,0", "--i-basis", "0,1"), "--a-basis"),
        (("--a-basis", "1,0", "--i-basis", "-0,1"), "--i-basis"),
    ):
        assert run_cli("split", str(dn), *argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: dorroh split ")
        assert err.endswith(
            f"dorroh split: error: argument {flag}: expected one argument"
            f" (join a value that starts with '-' with =, as in {flag}='-1,0;...')\n"
        )
    # the = form reads the value; other usage errors keep argparse's text
    assert run_cli("split", str(dn), "--a-basis=-1,0", "--i-basis=0,1") == 0
    capsys.readouterr()
    assert run_cli("split", str(dn), "--a-basis", "1,0") == 2
    assert capsys.readouterr().err.endswith(
        "dorroh split: error: the following arguments are required: --i-basis\n"
    )
    assert run_cli("findual", "--seq") == 2
    assert capsys.readouterr().err.endswith("dorroh findual: error: argument --seq: expected one argument\n")


def test_dualize_pair(tmp_path):
    src = tmp_path / "pair.json"
    out = tmp_path / "dual.json"
    run_cli("gallery", "--emit", "pair-coalgebra:grouplike", "-o", str(src))
    assert run_cli("dualize", str(src), "-o", str(out)) == 0
    assert run_cli("check", str(out)) == 0


def test_dualize_twice_is_identity_on_documents(tmp_path):
    src = tmp_path / "m2.json"
    once = tmp_path / "dual.json"
    twice = tmp_path / "double.json"
    run_cli("gallery", "--emit", "M2", "-o", str(src))
    assert run_cli("dualize", str(src), "-o", str(once)) == 0
    assert run_cli("dualize", str(once), "-o", str(twice)) == 0
    original = exchange.load(str(src))
    double = exchange.load(str(twice))
    assert double.mul == original.mul  # up to the double-dual relabeling


def test_iso_duality_self_test(tmp_path):
    src = tmp_path / "m2.json"
    run_cli("gallery", "--emit", "M2", "-o", str(src))
    assert run_cli("iso", "--which", "duality", str(src)) == 0


def test_iso_prop11(tmp_path):
    src = tmp_path / "pair.json"
    out = tmp_path / "eta.json"
    run_cli("gallery", "--emit", "pair-algebra:M2_regular", "-o", str(src))
    assert run_cli("iso", "--which", "prop1.1", str(src), "-o", str(out)) == 0
    eta = exchange.load(str(out))
    assert eta.verified == "iso"


def test_iso_prop11_needs_unital_ideal(tmp_path):
    src = tmp_path / "pair.json"
    run_cli("gallery", "--emit", "pair-algebra:k_nilpotent_scalar", "-o", str(src))
    assert run_cli("iso", "--which", "prop1.1", str(src)) == 2


def test_iso_counital_split(tmp_path):
    src = tmp_path / "pair.json"
    run_cli("gallery", "--emit", "pair-coalgebra:grouplike", "-o", str(src))
    assert run_cli("iso", "--which", "counital-split", str(src)) == 0


def test_iso_associator_both_sides(tmp_path):
    a = tmp_path / "apair.json"
    c = tmp_path / "cpair.json"
    run_cli("gallery", "--emit", "pair-algebra:kZ2_regular", "-o", str(a))
    assert run_cli("iso", "--which", "associator", str(a)) == 0
    run_cli("gallery", "--emit", "pair-coalgebra:grouplike", "-o", str(c))
    assert run_cli("iso", "--which", "associator", str(c)) == 0


# (isomorphism, gallery document) for each named isomorphism and document kind
ISO_DOCUMENTS = (
    ("prop1.1", "pair-algebra:M2_regular"),
    ("prop1.1", "pair-algebra:direct_product_dn_tp2"),
    ("counital-split", "pair-coalgebra:grouplike"),
    ("counital-split", "pair-coalgebra:counital_hull_dp2"),
    ("duality", "M2"),
    ("duality", "Mc2"),
    ("duality", "pair-algebra:kZ2_regular"),
    ("duality", "pair-coalgebra:regular_dp2"),
)


def test_iso_prints_the_verification_its_constructor_made(tmp_path, capsys):
    # The report a second verify_*_morphism(..., iso=True) of the returned
    # isomorphism would give, byte for byte, in both formats.
    for which, name in ISO_DOCUMENTS:
        src = tmp_path / "doc.json"
        assert run_cli("gallery", "--emit", name, "-o", str(src)) == 0
        morphism = cli._named_iso(which, exchange.load(str(src)))
        verify = verify_algebra_morphism if isinstance(morphism, AlgebraMorphism) else verify_coalgebra_morphism
        report = verify(morphism, iso=True)
        for fmt, text in (("text", report.render_text()), ("json", json.dumps(report.to_json(), indent=2))):
            assert run_cli("iso", "--which", which, "--report", fmt, str(src)) == 0
            out = capsys.readouterr()
            assert (out.out, out.err) == (exchange.emit(morphism), text + "\n"), (which, name, fmt)


def test_iso_verifies_each_named_isomorphism_once(tmp_path, monkeypatch):
    calls = []
    for module, name in (
        (algebra, "verify_algebra_morphism"), (coalgebra, "verify_coalgebra_morphism"),
        (duality, "verify_algebra_morphism"), (duality, "verify_coalgebra_morphism"),
        (cli, "verify_algebra_morphism"), (cli, "verify_coalgebra_morphism"),
    ):
        def counted(F, iso=False, verify=getattr(module, name)):
            calls.append(F)
            return verify(F, iso)

        monkeypatch.setattr(module, name, counted)
    for which, name in ISO_DOCUMENTS:
        src = tmp_path / "doc.json"
        run_cli("gallery", "--emit", name, "-o", str(src))
        del calls[:]
        assert run_cli("iso", "--which", which, str(src), "-o", str(tmp_path / "iso.json")) == 0
        assert len(calls) == 1, (which, name)


def test_findual_pipeline(tmp_path, capsys):
    seq = tmp_path / "fib.json"
    rec = tmp_path / "rec.json"
    run_cli("gallery", "--emit", "fibonacci", "-o", str(seq))
    assert run_cli("findual", "--seq", str(seq), "--command", "minrec", "--bound", "4", "-o", str(rec)) == 0
    found = exchange.load(str(rec))
    assert found.coeffs == [1, 1]
    assert run_cli("findual", "--seq", str(seq), "--command", "coproduct", "--depth", "20") == 0
    assert run_cli("findual", "--seq", str(seq), "--command", "dorroh", "--depth", "20") == 0
    assert run_cli("findual", "--seq", str(seq), "--command", "vanish", "--depth", "30") == 0
    assert run_cli("findual", "--seq", str(seq), "--command", "vanish", "--poly", "2") == 1


def test_findual_minrec_rejects_factorials(tmp_path):
    import math

    doc = {
        "format": "dorroh/1",
        "field": {"kind": "Q"},
        "kind": "sequence",
        "payload": {
            "initial": [str(math.factorial(n)) for n in range(1, 11)],
            "recurrence": [],
        },
    }
    seq = tmp_path / "fact.json"
    seq.write_text(json.dumps(doc))
    assert run_cli("findual", "--seq", str(seq), "--command", "minrec", "--bound", "4") == 1


def test_report_json_format(tmp_path, capsys):
    doc = tmp_path / "m2.json"
    run_cli("gallery", "--emit", "M2", "-o", str(doc))
    assert run_cli("check", str(doc), "--report", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "pass"
    assert payload["summary"] == {"passed": 1, "failed": 0}


def test_cli_round_trip_byte_identical(tmp_path):
    # emit -> parse -> emit through real files
    for name in ("M2", "Mc2", "fibonacci", "pair-algebra:M2_regular", "pair-coalgebra:regular_Mc2"):
        first = tmp_path / "first.json"
        assert run_cli("gallery", "--emit", name, "-o", str(first)) == 0
        text = first.read_text()
        assert exchange.emit(exchange.parse(text)) == text, name


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dorroh.cli", "gallery", "--list"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "M2" in proc.stdout


def test_check_cost_follows_entries_not_declared_dim(tmp_path):
    doc = tmp_path / "wide.json"
    doc.write_text(
        '{"format":"dorroh/1","field":{"kind":"Q"},"kind":"algebra","payload":{"dim":3000,"mul":[]}}'
    )
    proc = subprocess.run(
        [sys.executable, "-m", "dorroh.cli", "check", str(doc)],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0


def test_check_dispatches_all_document_kinds(tmp_path):
    from support import identity_morphism
    from dorroh.duality import dual_actions
    from dorroh.gallery import matrix_algebra_2, regular_bimodule
    from dorroh.fields import QQ

    m2 = matrix_algebra_2(QQ)
    objs = {
        "morphism.json": identity_morphism(m2),
        "module.json": regular_bimodule(m2),
        "comodule.json": dual_actions(regular_bimodule(m2)),
    }
    for name, obj in objs.items():
        path = tmp_path / name
        path.write_text(exchange.emit(obj))
        assert run_cli("check", str(path)) == 0


def test_findual_default_depth(tmp_path):
    seq = tmp_path / "fib.json"
    run_cli("gallery", "--emit", "fibonacci", "-o", str(seq))
    assert run_cli("findual", "--seq", str(seq), "--command", "coproduct") == 0
    assert run_cli("findual", "--seq", str(seq), "--command", "dorroh") == 0


def test_findual_default_output_is_unchanged(tmp_path, capsys):
    seq = tmp_path / "fib.json"
    run_cli("gallery", "--emit", "fibonacci", "-o", str(seq))
    capsys.readouterr()
    expected = {
        "coproduct": "pass (1 checks)\n  [ok] coproduct decomposition\n",
        "dorroh": "pass (2 checks)\n  [ok] phi_I coproduct verified\n  [ok] blockwise coproduct assembly matches m*(f)\n",
        "vanish": "pass (1 checks)\n  [ok] f(x^n p(x))=0\n",
    }
    for command, text in expected.items():
        assert run_cli("findual", "--seq", str(seq), "--command", command) == 0
        assert capsys.readouterr() == (text, "")


def test_findual_depth_and_bound_past_their_caps_exit_2(tmp_path, capsys):
    seq = tmp_path / "fib.json"
    run_cli("gallery", "--emit", "fibonacci", "-o", str(seq))
    start = time.perf_counter()
    for command in ("coproduct", "dorroh", "vanish"):
        for depth in (MAX_DEPTH + 1, 100000):
            assert run_cli("findual", "--seq", str(seq), "--command", command, "--depth", str(depth)) == 2
            assert capsys.readouterr().err == f"error: depth {depth} is past the cap MAX_DEPTH = {MAX_DEPTH}\n"
    for bound in (MAX_BOUND + 1, 10**9):
        assert run_cli("findual", "--seq", str(seq), "--command", "minrec", "--bound", str(bound)) == 2
        assert capsys.readouterr().err == f"error: bound {bound} is past the cap MAX_BOUND = {MAX_BOUND}\n"
    assert time.perf_counter() - start < 1.0
    # at the caps the commands run
    assert run_cli("findual", "--seq", str(seq), "--command", "vanish", "--depth", str(MAX_DEPTH)) == 0
    assert run_cli("findual", "--seq", str(seq), "--command", "minrec", "--bound", str(MAX_BOUND)) == 0


def _sequence_doc(initial, recurrence):
    payload = {"s0": "1", "initial": ["1"] * initial, "recurrence": ["1"] * recurrence}
    return json.dumps({"format": "dorroh/1", "field": {"kind": "Fp", "p": 10007}, "kind": "sequence", "payload": payload})


def test_findual_sequence_past_the_order_cap_exits_2(tmp_path, capsys):
    cases = [
        (MAX_ORDER + 1, 1, f"{MAX_ORDER + 1} initial values are past the cap MAX_ORDER = {MAX_ORDER}"),
        (MAX_ORDER + 1, MAX_ORDER + 1, f"recurrence order {MAX_ORDER + 1} is past the cap MAX_ORDER = {MAX_ORDER}"),
        (1000, 1000, f"recurrence order 1000 is past the cap MAX_ORDER = {MAX_ORDER}"),
    ]
    start = time.perf_counter()
    for initial, recurrence, message in cases:
        seq = tmp_path / "long.json"
        seq.write_text(_sequence_doc(initial, recurrence))
        for command in ("minrec", "coproduct", "dorroh", "vanish"):
            assert run_cli("findual", "--seq", str(seq), "--command", command) == 2
            assert capsys.readouterr().err == f"error: $.payload: {message}\n"
    assert time.perf_counter() - start < 1.0
    # at the cap the commands run
    seq = tmp_path / "longest.json"
    seq.write_text(_sequence_doc(MAX_ORDER, MAX_ORDER))
    for command in ("coproduct", "dorroh"):
        assert run_cli("findual", "--seq", str(seq), "--command", command, "--depth", "8") == 0


def test_findual_sequence_past_the_size_caps_exits_2(tmp_path, capsys):
    def doc(s0, initial, recurrence):
        payload = {"s0": s0, "initial": initial, "recurrence": recurrence}
        return json.dumps({"format": "dorroh/1", "field": {"kind": "Q"}, "kind": "sequence", "payload": payload})

    big = "1" + "0" * 998 + "7"  # order 10 with 1000-digit values took 8.8 s at the default depth
    total = sum(len(bin(int(v))) - 2 for v in [big] * 21)
    cases = [
        (doc(big, [big] * 10, [big] * 10), f"scalars of {total} bits in all are past the cap MAX_SCALAR_BITS = 512"),
        (doc("1", ["1"], [str(2**62 - 1)]), f"values of up to {1 + 480 * 62} bits at depth MAX_DEPTH are past the cap MAX_HEIGHT = 4096"),
    ]
    start = time.perf_counter()
    for text, message in cases:
        seq = tmp_path / "big.json"
        seq.write_text(text)
        for command in ("minrec", "coproduct", "dorroh", "vanish"):
            assert run_cli("findual", "--seq", str(seq), "--command", command) == 2
            assert capsys.readouterr().err == f"error: $.payload: {message}\n"
    assert time.perf_counter() - start < 1.0


def test_findual_vanish_polynomial_past_the_degree_cap_exits_2(tmp_path, capsys):
    seq = tmp_path / "fib.json"
    run_cli("gallery", "--emit", "fibonacci", "-o", str(seq))
    capsys.readouterr()
    cap = 2 * MAX_ORDER
    start = time.perf_counter()
    for degree in (cap + 1, 65000):
        assert run_cli("findual", "--seq", str(seq), "--command", "vanish", "--poly", ",".join(["0"] * degree)) == 2
        assert capsys.readouterr().err == f"error: polynomial degree {degree} is past the cap 2 MAX_ORDER = {cap}\n"
    assert time.perf_counter() - start < 1.0
    # at the cap the command runs: x^(cap - 2) (x^2 - x - 1) kills fibonacci
    poly = ",".join(["1", "1"] + ["0"] * (cap - 2))
    assert run_cli("findual", "--seq", str(seq), "--command", "vanish", "--poly", poly) == 0


# Python refuses int-from-string conversions past 4300 digits.
NINES = "9" * 5000


def _write(tmp_path, text):
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    return str(doc)


def test_huge_scalar_literal_is_an_input_error(tmp_path, capsys):
    for field in ('{"kind": "Q"}', '{"kind": "Fp", "p": 5}'):
        text = (
            f'{{"format": "dorroh/1", "field": {field}, "kind": "algebra", '
            f'"payload": {{"dim": 1, "mul": [[0, 0, 0, "{NINES}"]]}}}}'
        )
        assert run_cli("check", _write(tmp_path, text)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: $.payload.mul[0]: ") and "conversion limit" in err


def test_huge_count_literal_is_an_input_error(tmp_path, capsys):
    text = (
        '{"format": "dorroh/1", "field": {"kind": "Q"}, "kind": "algebra", '
        f'"payload": {{"dim": {NINES}, "mul": []}}}}'
    )
    assert run_cli("check", _write(tmp_path, text)) == 2
    assert capsys.readouterr().err.startswith("error: not valid JSON: ")


def test_nesting_past_the_recursion_limit_is_an_input_error(tmp_path, capsys):
    for text in ("[" * 100000 + "]" * 100000, '{"format": ' + '{"a": ' * 100000 + "1" + "}" * 100001):
        assert run_cli("check", _write(tmp_path, text)) == 2
        assert capsys.readouterr().err.startswith("error: not valid JSON: maximum recursion depth exceeded")


def test_huge_gallery_parameter_is_an_input_error(capsys):
    for name in ("geometric", "trunc_poly"):
        assert run_cli("gallery", "--emit", f"{name}({NINES})") == 2
        assert capsys.readouterr().err.startswith(f"error: {name} parameter has 5000 digits")


def test_gallery_emit_unknown_pair_on_either_side(capsys):
    for side in ("pair-algebra", "pair-coalgebra"):
        assert run_cli("gallery", "--emit", f"{side}:nope") == 2
        assert capsys.readouterr().err == f"error: unknown gallery pair '{side}:nope'\n"


def _empty_pair(ni, na=1):
    return (
        '{"format":"dorroh/1","field":{"kind":"Q"},"kind":"pair-algebra","payload":'
        f'{{"a":{{"dim":{na},"mul":[]}},"i":{{"dim":{ni},"mul":[]}},"left":[],"right":[]}}}}'
    )


def _empty_algebra(n):
    return f'{{"format":"dorroh/1","field":{{"kind":"Q"}},"kind":"algebra","payload":{{"dim":{n},"mul":[]}}}}'


def test_dense_identities_past_the_cap_exit_2_quickly(tmp_path, capsys):
    """A short document declaring a large dim must not write a dense
    matrix of that size: the associator of (A, I, I) and the duality
    witnesses are sparse identities, refused when emitted, before
    anything is written to stdout or to -o."""
    ni = 1000
    cases = [
        (("iso", "--which", "associator"), _empty_pair(ni), 1 + 2 * ni),
        (("iso", "--which", "duality"), _empty_algebra(ni), ni),
        (("iso", "--which", "duality"), _empty_pair(ni), 1 + ni),
    ]
    out = tmp_path / "out.json"
    for argv, text, n in cases:
        assert len(text) < 170
        doc = _write(tmp_path, text)
        for extra in ((), ("-o", str(out))):
            start = time.perf_counter()
            assert run_cli(*argv, doc, *extra) == 2
            assert time.perf_counter() - start < 1.0
            assert capsys.readouterr() == ("", f"error: dense dimension {n} is past the cap MAX_DENSE_DIM = {MAX_DENSE_DIM}\n")
            assert not out.exists()


def test_dualize_of_a_large_empty_pair_exits_0(tmp_path, capsys):
    """The pair dual is a sparse document and its witness a sparse
    identity, verified and never emitted: no dense cap applies."""
    doc = _write(tmp_path, _empty_pair(3000, 3000))
    start = time.perf_counter()
    assert run_cli("dualize", doc) == 0
    assert time.perf_counter() - start < 2.0
    dual = exchange.parse(capsys.readouterr().out)
    assert (dual.C.dim, dual.P.dim) == (3000, 3000)


def test_a_declared_dim_past_the_cap_exits_2_quickly(tmp_path, capsys):
    """A dim costs no bytes, but dualize, the duality witnesses and the
    associator build an identity of that size: a short document declaring
    dim 10^12 ran out of memory before MAX_DIM refused it at parse time."""
    n = 10**12
    doc = _write(tmp_path, _empty_pair(0, n))
    runs = [
        ("check",),
        ("build",),
        ("dualize",),
        ("iso", "--which", "associator"),
        ("iso", "--which", "duality"),
        ("split", "--a-basis", "1", "--i-basis", ""),
    ]
    for argv in runs:
        start = time.perf_counter()
        assert run_cli(*argv, doc) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr() == ("", f"error: $.payload.a.dim: dim {n} is past the cap MAX_DIM = {MAX_DIM}\n")


def test_a_declared_dim_at_the_cap_dualizes(tmp_path, capsys):
    assert run_cli("dualize", _write(tmp_path, _empty_pair(MAX_DIM, MAX_DIM))) == 0
    dual = exchange.parse(capsys.readouterr().out)
    assert (dual.C.dim, dual.P.dim) == (MAX_DIM, MAX_DIM)
    assert run_cli("check", _write(tmp_path, _empty_algebra(MAX_DIM + 1))) == 2
    assert capsys.readouterr().err == f"error: $.payload.dim: dim {MAX_DIM + 1} is past the cap MAX_DIM = {MAX_DIM}\n"


def test_dense_identities_at_the_cap_still_build(tmp_path, capsys):
    ni = (MAX_DENSE_DIM - 1) // 2
    assert run_cli("iso", "--which", "associator", _write(tmp_path, _empty_pair(ni)), "-o", str(tmp_path / "a.json")) == 0
    assert run_cli("iso", "--which", "duality", _write(tmp_path, _empty_algebra(MAX_DENSE_DIM))) == 0
    assert run_cli("iso", "--which", "duality", _write(tmp_path, _empty_algebra(MAX_DENSE_DIM + 1))) == 2


def test_split_rejects_a_pair_before_reading_the_bases(tmp_path, capsys):
    doc = tmp_path / "pair.json"
    run_cli("gallery", "--emit", "pair-algebra:M2_regular", "-o", str(doc))
    capsys.readouterr()
    assert run_cli("split", str(doc), "--a-basis", "not a basis", "--i-basis", "") == 2
    assert capsys.readouterr().err == "error: split needs an algebra or coalgebra document\n"


def test_split_coalgebra_round_trip(tmp_path, capsys):
    pair_doc, built_doc = tmp_path / "pair.json", tmp_path / "built.json"
    pair_out, iso_out = tmp_path / "split.json", tmp_path / "iso.json"
    run_cli("gallery", "--emit", "pair-coalgebra:regular_Mc2", "-o", str(pair_doc))
    run_cli("build", str(pair_doc), "-o", str(built_doc))
    capsys.readouterr()
    a_basis = ";".join(",".join("1" if j == i else "0" for j in range(8)) for i in range(4))
    i_basis = ";".join(",".join("1" if j == i else "0" for j in range(8)) for i in range(4, 8))
    code = run_cli(
        "split", str(built_doc), "--a-basis", a_basis, "--i-basis", i_basis,
        "-o", str(pair_out), "--iso-out", str(iso_out),
    )
    assert code == 0
    assert "[ok] split verified" in capsys.readouterr().out
    assert exchange.load(str(pair_out)) == exchange.load(str(pair_doc))
    assert exchange.load(str(iso_out)).verified == "iso"


def test_gallery_parameter_past_the_cap_exits_2_quickly():
    proc = subprocess.run(
        [sys.executable, "-m", "dorroh.cli", "gallery", "--emit", "trunc_poly(1000000)"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: trunc_poly parameter 1000000 is past the cap MAX_PARAM = {MAX_PARAM}\n"


def test_gallery_parameter_at_the_cap_still_builds(capsys):
    for name in ("trunc_poly", "grouplikes", "divided_power"):
        assert run_cli("gallery", "--emit", f"{name}({MAX_PARAM})") == 0
        assert run_cli("gallery", "--emit", f"{name}({MAX_PARAM + 1})") == 2
    assert capsys.readouterr().err.count("is past the cap") == 3


def test_build_and_dualize_name_the_kinds_they_take(tmp_path, capsys):
    doc = tmp_path / "fib.json"
    run_cli("gallery", "--emit", "fibonacci", "-o", str(doc))
    assert run_cli("build", str(doc)) == 2
    assert run_cli("dualize", str(doc)) == 2
    assert capsys.readouterr().err == (
        "error: build needs a pair-algebra or pair-coalgebra document\n"
        "error: dualize needs an algebra, coalgebra, pair, module or comodule document\n"
    )


def test_field_errors_carry_their_location(tmp_path, capsys):
    payload = '"kind": "algebra", "payload": {"dim": 1, "mul": [[0, 0, 0, "1"]]}'
    for field, message in (
        ('{"kind": "Fp", "p": 5, "extra": 1}', "prime field takes no extra keys"),
        ('{"kind": "Fp"}', "prime field needs an integer 'p'"),
        ('{"kind": "Q", "p": 5}', "rational field takes no extra keys"),
        ('{"p": 5}', "field must be an object with a 'kind'"),
        ('{"kind": "Fp", "p": 6}', "modulus must be prime, got 6"),
    ):
        text = f'{{"format": "dorroh/1", "field": {field}, {payload}}}'
        assert run_cli("check", _write(tmp_path, text)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: $.field: ") and message in err, err


def test_consecutive_calls_build_the_parser_once(monkeypatch, capsys):
    built = []
    build = cli._build_parser

    def counting():
        built.append(True)
        return build()

    monkeypatch.setattr(cli, "_build_parser", counting)
    cli._parser.cache_clear()
    try:
        assert [run_cli("gallery", "--list"), run_cli("frobnicate"), run_cli("gallery", "--list")] == [0, 2, 0]
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_importing_the_cli_builds_no_parser():
    proc = subprocess.run(
        [sys.executable, "-c", "import dorroh.cli as c; print(c._parser.cache_info().currsize)"],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (0, "0\n")


def test_consecutive_calls_answer_as_fresh_processes(tmp_path, capsys):
    doc, seq = tmp_path / "m2.json", tmp_path / "fib.json"
    assert run_cli("gallery", "--emit", "M2", "-o", str(doc)) == 0
    assert run_cli("gallery", "--emit", "fibonacci", "-o", str(seq)) == 0
    findual = ["findual", "--seq", str(seq), "--command", "coproduct", "--report", "json"]
    sequences = [
        (["check", str(doc), "--report", "json"], ["check", str(doc)]),
        (["check", "--frobnicate", str(doc)], ["check", str(doc)]),
        ([*findual, "--depth", "6"], findual),
    ]
    capsys.readouterr()
    codes = []
    for calls in sequences:
        for argv in calls:
            codes.append(run_cli(*argv))
            out, err = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "dorroh.cli", *argv], capture_output=True, text=True)
            assert (codes[-1], out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert codes == [0, 0, 2, 0, 0, 0]


def test_a_document_not_in_utf8_is_an_input_error(tmp_path, capsys):
    """A document saved as UTF-16 (bytes ff fe first) exits 2 with an
    error, from every command that reads a file."""
    doc = tmp_path / "utf16.json"
    doc.write_bytes(_empty_algebra(1).encode("utf-16"))
    assert doc.read_bytes()[:2] == b"\xff\xfe"
    runs = [
        ("check",),
        ("build",),
        ("split", "--a-basis", "1", "--i-basis", ""),
        ("dualize",),
        *(("iso", "--which", which) for which in ("prop1.1", "counital-split", "duality", "associator")),
        *(("findual", "--command", command, "--seq") for command in ("minrec", "coproduct", "dorroh", "vanish")),
    ]
    message = "error: not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
    for argv in runs:
        assert run_cli(*argv, str(doc)) == 2, argv
        assert capsys.readouterr() == ("", message), argv


def _nonassociative_pair():
    """A valid pair whose I (e0 e0 = e1, e0 e1 = e0) is not associative:
    the zero actions of a unitless A pass every pair law."""
    i = '{"dim":2,"mul":[[0,0,1,"1"],[0,1,0,"1"]]}'
    return (
        '{"format":"dorroh/1","field":{"kind":"Q"},"kind":"pair-algebra","payload":'
        f'{{"a":{{"dim":1,"mul":[]}},"i":{i},"left":[],"right":[]}}}}'
    )


# (argv with {name} for an input document, the outputs the command makes, exit
# code).  The outputs: "doc" a document, "report" a text report, "iso" the
# split's isomorphism to --iso-out, "list" the gallery listing on stdout.
ROUTES = (
    (("check", "{m2}"), {"report"}, 0),
    (("check", "{bad}"), {"report"}, 1),
    (("build", "{pair}"), {"doc", "report"}, 0),
    (("split", "{dn}", "--a-basis", "1,0", "--i-basis", "0,1"), {"doc", "report"}, 0),
    (("split", "{dn}", "--a-basis", "1,0", "--i-basis", "0,1", "--iso-out", "{iso}"), {"doc", "report", "iso"}, 0),
    (("dualize", "{m2}"), {"doc", "report"}, 0),
    (("iso", "--which", "prop1.1", "{m2pair}"), {"doc", "report"}, 0),
    (("iso", "--which", "associator", "{nonassoc}"), {"report"}, 1),
    (("findual", "--seq", "{fib}", "--command", "minrec", "--bound", "4"), {"doc", "report"}, 0),
    (("findual", "--seq", "{fact}", "--command", "minrec", "--bound", "4"), {"report"}, 1),
    (("findual", "--seq", "{fib}", "--command", "coproduct"), {"report"}, 0),
    (("findual", "--seq", "{fib}", "--command", "dorroh"), {"report"}, 0),
    (("findual", "--seq", "{fib}", "--command", "vanish"), {"report"}, 0),
    (("gallery", "--list"), {"list"}, 0),
    (("gallery", "--emit", "M2"), {"doc"}, 0),
)


def test_every_command_routes_its_document_and_report(tmp_path, capsys):
    """The document goes to -o or stdout, the split's isomorphism to
    --iso-out, and the report to stdout, or to stderr when the document
    took stdout; the exit code is the report's.  Each command that takes
    -o runs with and without it."""
    docs = {
        "m2": exchange.emit(instance("M2", QQ)),
        "dn": exchange.emit(instance("dual_numbers", QQ)),
        "fib": exchange.emit(instance("fibonacci", QQ)),
        "nonassoc": _nonassociative_pair(),
    }
    bad = json.loads(docs["m2"])
    bad["payload"]["mul"][0] = [0, 0, 1, "1"]
    del bad["payload"]["unit"]
    docs["bad"] = json.dumps(bad)
    for key, name in (("pair", "pair-algebra:k_nilpotent_scalar"), ("m2pair", "pair-algebra:M2_regular")):
        assert run_cli("gallery", "--emit", name, "-o", str(tmp_path / f"{key}.json")) == 0
    docs["fact"] = json.dumps({
        "format": "dorroh/1",
        "field": {"kind": "Q"},
        "kind": "sequence",
        "payload": {"initial": [str(math.factorial(n)) for n in range(1, 11)], "recurrence": []},
    })
    for key, text in docs.items():
        (tmp_path / f"{key}.json").write_text(text)
    paths = {key: str(tmp_path / f"{key}.json") for key in (*docs, "pair", "m2pair")}
    out, iso = tmp_path / "out.json", tmp_path / "iso.out.json"
    paths["iso"] = str(iso)
    capsys.readouterr()

    def is_report(text):
        return re.fullmatch(r"(pass \(\d+ checks\)|fail: .*)\n(  \[(ok|FAIL)\] .*\n)+", text) is not None

    for argv, made, code in ROUTES:
        argv = [a.format(**paths) for a in argv]
        runs = []
        takes_output = argv[0] != "check"  # check writes no document and takes no -o
        for extra in ((), ("-o", str(out)) if takes_output else ()):
            for stale in (out, iso):
                if stale.exists():
                    stale.unlink()
            assert run_cli(*argv, *extra) == code, (argv, extra)
            stdout, stderr = capsys.readouterr()
            written = out.read_text() if out.exists() else None
            iso_written = iso.read_text() if iso.exists() else None
            runs.append((stdout, stderr, written, iso_written))
        (stdout, stderr, written, iso_bare), (stdout_o, stderr_o, written_o, iso_o) = runs
        assert written is None, argv
        assert stderr_o == "", argv
        if "doc" in made:
            exchange.parse(written_o)  # a document
            assert stdout == written_o, argv
            report = stderr
        else:
            assert written_o is None, argv
            report = stdout
            assert stderr == "", argv
        assert stdout_o == report, argv
        if "report" in made:
            assert is_report(report), (argv, report)
        elif "list" in made:
            assert report.startswith("M2\n") and "pair-algebra:M2_regular\n" in report, argv
        else:
            assert report == "", argv
        if "iso" in made:
            assert iso_bare == iso_o and exchange.parse(iso_o).verified == "iso", argv
        else:
            assert iso_bare is None and iso_o is None, argv
