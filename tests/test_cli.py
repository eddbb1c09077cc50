import json
import subprocess
import sys
import time

from dorroh import exchange
from dorroh.cli import main
from dorroh.fields import QQ
from dorroh.findual import MAX_BOUND, MAX_DEPTH
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
    from dorroh.algebra import identity_morphism
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


def test_huge_gallery_parameter_is_an_input_error(capsys):
    for name in ("geometric", "trunc_poly"):
        assert run_cli("gallery", "--emit", f"{name}({NINES})") == 2
        assert capsys.readouterr().err.startswith(f"error: {name} parameter has 5000 digits")


def test_gallery_emit_unknown_pair_on_either_side(capsys):
    for side in ("pair-algebra", "pair-coalgebra"):
        assert run_cli("gallery", "--emit", f"{side}:nope") == 2
        assert capsys.readouterr().err == f"error: unknown gallery pair '{side}:nope'\n"


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
