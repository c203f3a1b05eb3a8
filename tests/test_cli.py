import hashlib
import io
import json
import re
import subprocess
import sys
import time

import pytest

from qfermat import cli, indices
from qfermat.cli import main
from qfermat.qmatrix import QMatrix
from test_structure import _drop_last_row, _format_1, _set_digit, _short_row

FULL_TWISTS = "0:1,-1:121,-2:381,-3:121,-4:1"

# ---------------------------------------------------------
# shared artifact files
# ---------------------------------------------------------


@pytest.fixture(scope="session")
def matrix_file(tmp_path_factory, canonical_matrix):
    path = tmp_path_factory.mktemp("cli") / "matrix.json"
    path.write_text(json.dumps(canonical_matrix.to_json()))
    return str(path)


@pytest.fixture(scope="session")
def table_file(tmp_path_factory, matrix_file):
    path = tmp_path_factory.mktemp("cli") / "table.json"
    code = main(["build-table", "--matrix", matrix_file, "--out", str(path)],
                stdout=io.StringIO(), stderr=io.StringIO())
    assert code == 0
    return str(path)


def _json_run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    stream = captured.out if code in (0, 1) else captured.err
    return code, json.loads(stream)


# ---------------------------------------------------------
# classify
# ---------------------------------------------------------


def test_classify_payload(capsys):
    code, payload = _json_run(capsys, ["classify"])
    assert code == 0
    assert payload["admissible_count"] == 15625
    assert payload["generic_count"] == 3000
    assert payload["orbit_count_all_actions"] == 1
    assert payload["orbit_count_without_scaling"] == 1
    reps = payload["canonical_representatives"]
    assert len(reps) == 1
    assert reps[0][0] == [0, 0, 0, 0, 0]


def test_classify_deterministic_bytes(capsys):
    code1 = main(["classify"])
    out1 = capsys.readouterr().out
    code2 = main(["classify"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_classify_action_subset_writes_reps(capsys, tmp_path):
    # scaling orbits have size exactly 4 on the generic stratum
    reps_path = tmp_path / "reps.json"
    code, payload = _json_run(
        capsys, ["classify", "--actions", "scale", "--emit-matrices", str(reps_path)])
    assert code == 0
    assert payload["selected_actions"] == ["scale"]
    assert payload["orbit_count_selected_actions"] == 750
    reps = json.loads(reps_path.read_text())
    assert len(reps) == 750
    assert all(len(m) == 5 for m in reps)


def test_classify_rejects_unknown_action(capsys):
    code = main(["classify", "--actions", "rotate"])
    captured = capsys.readouterr()
    assert code == 2
    record = json.loads(captured.err)
    assert record["error"]["kind"] == "usage"


# ---------------------------------------------------------
# build-table / verify round trip
# ---------------------------------------------------------


def test_build_table_payload(capsys, matrix_file, tmp_path):
    out = tmp_path / "t.json"
    code, payload = _json_run(
        capsys, ["build-table", "--matrix", matrix_file, "--out", str(out)])
    assert code == 0
    assert payload["entries"] == 625 * 625
    assert payload["written"] == str(out)
    assert out.exists()


def test_build_table_rejects_empty_out_before_building(capsys, matrix_file, monkeypatch):
    def refuse(*args):
        raise AssertionError("the command ran before its output path was checked")

    monkeypatch.setattr(cli.structure, "build_table", refuse)
    monkeypatch.setattr(cli.qmatrix, "classify", refuse)
    for argv in (["build-table", "--matrix", matrix_file, "--out", ""],
                 ["classify", "--emit-matrices", ""]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        record = json.loads(captured.err)
        assert captured.out == "" and list(record) == ["error"]
        assert record["error"]["kind"] == "usage"
        assert record["error"]["message"].endswith("the output path must not be empty")


def test_verify_exact_ok(capsys, table_file):
    code, payload = _json_run(capsys, ["verify", "--table", table_file])
    assert code == 0
    assert payload["ok"] is True
    assert payload["mode"] == "exact-bilinear"
    assert payload["violations"] == []
    assert payload["checks"] >= 625 * 625


def test_verify_detects_corrupted_table(capsys, table_file, tmp_path):
    data = json.loads(open(table_file).read())
    row = data["exp"][0]
    data["exp"][0] = row[:7] + str((int(row[7]) + 1) % 5) + row[8:]
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(data, separators=(",", ":")))

    code, payload = _json_run(capsys, ["verify", "--table", str(bad_path)])
    assert code == 1
    assert payload["ok"] is False
    assert payload["violations"]


def test_verify_sampled_requires_seed(capsys, table_file):
    code = main(["verify", "--table", table_file, "--mode", "sampled=1000"])
    captured = capsys.readouterr()
    assert code == 3
    record = json.loads(captured.err)
    assert record["error"]["kind"] == "precondition"
    assert "seed" in record["error"]["message"]


def test_verify_sampled_deterministic(capsys, table_file):
    argv = ["verify", "--table", table_file, "--mode", "sampled=2000",
            "--seed", "11"]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    code2 = main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["seed"] == 11
    assert payload["checks"] == 2000


def test_verify_budget_exceeded(capsys, table_file):
    code = main(["verify", "--table", table_file, "--mode", "full",
                 "--budget-seconds", "0.01"])
    captured = capsys.readouterr()
    assert code == 4
    record = json.loads(captured.err)
    assert record["error"]["kind"] == "budget"


def test_verify_sampled_budget_bounds_a_huge_count(capsys, table_file):
    start = time.monotonic()
    code = main(["verify", "--table", table_file, "--mode", "sampled=%d" % 10 ** 15,
                 "--seed", "1", "--budget-seconds", "0.5"])
    elapsed = time.monotonic() - start
    captured = capsys.readouterr()
    assert code == 4
    assert "Traceback" not in captured.err
    assert json.loads(captured.err)["error"]["kind"] == "budget"
    assert elapsed < 5


def test_bad_seed_or_budget_is_precondition_record(capsys, table_file, monkeypatch):
    def classify():
        raise AssertionError("the report classified before it checked the seed")

    monkeypatch.setattr(cli.qmatrix, "classify", classify)
    for argv in (
            ["verify", "--table", table_file, "--mode", "sampled=10", "--seed", "-1"],
            ["report", "--seed", "-1"],
            ["verify", "--table", table_file, "--mode", "full", "--budget-seconds", "nan"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3, argv
        assert "Traceback" not in captured.err
        assert json.loads(captured.err)["error"]["kind"] == "precondition"


def test_malformed_json_reports_position(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"entries": [nope]}')
    code = main(["verify", "--table", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    record = json.loads(captured.err)
    assert record["error"]["kind"] == "parse"
    assert record["error"]["position"]["line"] == 1
    assert record["error"]["position"]["col"] > 1


@pytest.mark.parametrize("literal", ["1e400", "1.5", "true"])
def test_non_integer_matrix_entry_is_parse_record(capsys, tmp_path, table_file,
                                                 canonical_matrix, literal):
    # entry (1, 2) of the canonical matrix is 1, so truncating 1.5 or reading
    # true as 1 would pass silently; 1e400 overflowed int() with a traceback
    rows = canonical_matrix.to_json()
    rows[1][2] = "@"
    with open(table_file) as fh:
        table = json.load(fh)
    table["source_matrix"] = rows
    for name, data, argv in (
            ("matrix.json", rows, ["build-table", "--out", str(tmp_path / "t.json"),
                                   "--matrix"]),
            ("table.json", table, ["verify", "--table"])):
        path = tmp_path / name
        path.write_text(json.dumps(data).replace('"@"', literal))
        code = main(argv + [str(path)])
        captured = capsys.readouterr()
        assert code == 2, name
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["kind"] == "parse"


@pytest.mark.parametrize("content", [b"\xff\xfe", b"[" * 200000],
                         ids=["not-utf8", "nested-too-deeply"])
def test_unreadable_input_is_parse_record(capsys, tmp_path, content):
    # a UnicodeDecodeError and a RecursionError escaped as tracebacks
    path = tmp_path / "input.json"
    path.write_bytes(content)
    for argv in (["build-table", "--out", str(tmp_path / "t.json"), "--matrix"],
                 ["verify", "--table"]):
        code = main(argv + [str(path)])
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        record = json.loads(captured.err)["error"]
        assert record["kind"] == "parse" and record["path"] == str(path), argv


def test_missing_file_is_parse_error(capsys, tmp_path):
    code = main(["verify", "--table", str(tmp_path / "absent.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.err)["error"]["kind"] == "parse"


# ---------------------------------------------------------
# fiber
# ---------------------------------------------------------


def test_fiber_full_support_point(capsys, table_file):
    code, payload = _json_run(
        capsys, ["fiber", "--table", table_file, "--point", "1,1,1,1,-4"])
    assert code == 0
    assert payload["center_dim"] == 25
    assert payload["radical_dim"] == 0
    assert payload["semisimple"] is True
    assert payload["point"][0] == ["1", "0", "0", "0"]
    assert payload["point"][4] == ["-4", "0", "0", "0"]


def test_fiber_internal_error_is_json_record(capsys, table_file, monkeypatch):
    # a failed center cross-check is an internal error, not a traceback; the
    # solve is stubbed with the true graded answer so the test stays fast
    graded = cli.fiber._center_dim_graded
    monkeypatch.setattr(cli.fiber, "_commutant_rank", lambda F: F.dim - graded(F))
    monkeypatch.setattr(cli.fiber, "_center_dim_graded", lambda F: graded(F) + 1)
    code = main(["fiber", "--table", table_file, "--point", "1,1,1,1,-4"])
    captured = capsys.readouterr()
    assert code == 5
    record = json.loads(captured.err)
    assert record["error"]["kind"] == "internal"
    assert "center_dim" in record["error"]["message"]


def test_fiber_rejects_nonzero_sum(capsys, table_file):
    code = main(["fiber", "--table", table_file, "--point", "1,1,1,1,1"])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.err)["error"]["kind"] == "precondition"


# ---------------------------------------------------------
# hilbert
# ---------------------------------------------------------


def test_hilbert_value_and_cohomology(capsys):
    code, payload = _json_run(
        capsys, ["hilbert", "--twists", FULL_TWISTS, "--at", "1", "--cohomology"])
    assert code == 0
    assert payload["polynomial"] == ["0", "125/6", "0", "625/6"]
    assert payload["value"] == "125"
    assert payload["cohomology"] == [{"n": 1, "h": [125, 0, 0, 0], "euler": 125}]


def test_hilbert_window_without_at(capsys):
    code, payload = _json_run(
        capsys, ["hilbert", "--twists", "0:1", "--cohomology"])
    assert code == 0
    rows = payload["cohomology"]
    assert [r["n"] for r in rows] == list(range(-5, 6))
    at_zero = next(r for r in rows if r["n"] == 0)
    assert at_zero["h"] == [1, 0, 0, 0]


def test_hilbert_rejects_bad_multiset(capsys):
    code = main(["hilbert", "--twists", "0:zero"])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.err)["error"]["kind"] == "precondition"


def test_hilbert_deterministic_bytes(capsys):
    argv = ["hilbert", "--twists", FULL_TWISTS, "--at", "2"]
    main(argv)
    out1 = capsys.readouterr().out
    main(argv)
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert json.loads(out1)["value"] == "875"


# ---------------------------------------------------------
# normal-form
# ---------------------------------------------------------


def test_normal_form_single_swap(capsys, matrix_file):
    # t2 t1 = zeta^{n_21} t1 t2 and n_21 = 4 for the canonical matrix
    code, payload = _json_run(
        capsys, ["normal-form", "--matrix", matrix_file, "--word", "2,1"])
    assert code == 0
    assert payload["word"] == [2, 1]
    assert payload["terms"] == [
        {"monomial": [0, 1, 1, 0, 0], "coeff": ["-1", "-1", "-1", "-1"]}]


def test_normal_form_empty_word_is_unit(capsys, matrix_file):
    code, payload = _json_run(
        capsys, ["normal-form", "--matrix", matrix_file, "--word", ""])
    assert code == 0
    assert payload["terms"] == [
        {"monomial": [0, 0, 0, 0, 0], "coeff": ["1", "0", "0", "0"]}]


def test_normal_form_rejects_bad_letters(capsys, matrix_file):
    # a non-integer letter fails in parsing, an out-of-range one in rewriting
    for word in ("1,q", "1,7"):
        code = main(["normal-form", "--matrix", matrix_file, "--word", word])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.err)["error"]["kind"] == "usage"


def test_normal_form_on_a_non_admissible_matrix_is_a_precondition_record(capsys, tmp_path):
    # PreconditionError is a ValueError, so it must pass the handler's
    # ValueError-to-usage branch unchanged
    path = tmp_path / "skew-only.json"
    path.write_text(json.dumps(QMatrix.from_upper([1] + [0] * 9).to_json()))
    code, record = _json_run(capsys, ["normal-form", "--matrix", str(path), "--word", "2,1,0"])
    assert code == 3
    assert record["error"]["kind"] == "precondition"


def test_normal_form_caps_the_predicted_term_count(capsys, matrix_file):
    # t_0^(5k) expands into C(k+3, 3) standard terms; the count is read off
    # the word before any expansion, and more than 10,000 terms is refused
    code, payload = _json_run(
        capsys, ["normal-form", "--matrix", matrix_file, "--word", ",".join(["0"] * 189)])
    assert code == 0 and len(payload["terms"]) == 9880
    for zeros, terms in ((190, 10660), (5000, 167668501)):
        start = time.perf_counter()
        code = main(["normal-form", "--matrix", matrix_file, "--word", ",".join(["0"] * zeros)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error["kind"] == "precondition" and str(terms) in error["message"]
        assert elapsed < 1.0


# ---------------------------------------------------------
# report and argument handling
# ---------------------------------------------------------


def test_report_smoke(capsys):
    code, payload = _json_run(capsys, ["report"])
    assert code == 0
    assert payload["classification"]["orbit_count_all_actions"] == 1
    assert payload["cy_certificate"]["passed"] is True
    assert payload["cy_certificate"]["verdict"] == "Calabi-Yau pairing criterion satisfied"
    assert payload["centrality"]["fifth_power_central"] == [True] * 5
    assert payload["centrality"]["defining_relation_vanishes"] is True
    assert payload["dimensions"]["hilbert_matches_graded"] == {
        "1": True, "2": True, "3": True}
    assert payload["dimensions"]["euler_at_zero"] == 0
    assert payload["dimensions"]["dimension_at_zero"] == 1
    assert payload["cohomology"]["h_at_zero"] == [1, 0, 0, 1]
    assert payload["cohomology"]["euler_matches_polynomial"] is True
    assert payload["cohomology"]["section_sum_matches_graded"] is True
    assert "sampled_verification" not in payload


# SHA-256 of stdout recorded before genericity became one array test and
# rewriting coefficients took the root-of-unity fast paths, and before
# normal_form counted inversions by letter counts; a run of the same code
# twice cannot catch a byte that such a change moves.  MATRIX stands for the
# canonical matrix file; the word has 26 t_0 letters, so it expands t_0^25.
LONG_WORD = ",".join(map(str, [4, 0, 3, 0, 2, 0, 1, 0] * 6 + [0, 0, 2, 4, 3, 1]))
PINNED_STDOUT = {
    ("classify", "--actions", "permute,twist"):
        "95fabd4c4146e26a40e34a92686577b82466e6c6a8a9e02e9be8f5327ae246e2",
    ("report", "--seed", "1"):
        "55a91e185b53d9c0072513cae888e4618ec38f07bd2527d9187c2f0a2bda36d7",
    ("normal-form", "--matrix", "MATRIX", "--word", LONG_WORD):
        "f5e925e7a1ec75baee098a59fcc4492a211054207c55a8a2dba0b45709a756af",
}


@pytest.mark.parametrize("argv", list(PINNED_STDOUT))
def test_stdout_matches_pinned_hash(capsys, matrix_file, argv):
    assert main([matrix_file if a == "MATRIX" else a for a in argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[argv]


def test_sampled_violations_match_pinned_hash(capsys, table_file, tmp_path):
    # pins which triples a seed draws: slice j of sampled verification is the
    # j-th integers(0, 625, (3, k)) int32 draw, k = 2^16 except in the last
    # slice.  One exponent is moved by 2, at the pair that
    # test_corrupted_exponent_detected_by_every_mode corrupts.
    i, j = indices.position((0, 0, 1, 1, 3)), indices.position((0, 1, 4, 4, 1))
    data = json.loads(open(table_file).read())
    row = data["exp"][i]
    data["exp"][i] = row[:j] + str((int(row[j]) + 2) % 5) + row[j + 1:]
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(data))
    argv = ["verify", "--table", str(bad_path), "--mode", "sampled=200000", "--seed", "9"]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert json.loads(out)["violations"]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e9b96438989e14a7dd7dc74dde7c65eb278fa51fa81b3b72674a3b3f07ee237b")


def test_help_is_the_only_global_option(capsys):
    # all output is JSON, so there is no global renderer option
    out = io.StringIO()
    assert main(["--help"], stdout=out) == 0
    assert re.findall(r"^  (-\S+)", out.getvalue().split("options:")[1], re.M) == ["-h,"]
    for argv in (["--emit", "json", "classify"], ["--emit", "human", "classify"]):
        code, record = _json_run(capsys, argv)
        assert code == 2 and record["error"]["kind"] == "usage"


def test_unknown_command(capsys):
    code = main(["frobnicate"])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.err)["error"]["kind"] == "usage"


def test_missing_required_argument(capsys):
    code = main(["verify"])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.err)["error"]["kind"] == "usage"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qfermat.cli", "hilbert", "--twists", "0:1",
         "--at", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == "10"


# ---------------------------------------------------------
# one failure path: --help returns through main, and a file that is not a
# table document is a parse record whatever field is wrong
# ---------------------------------------------------------

SUBCOMMANDS = ("classify", "build-table", "verify", "fiber", "hilbert",
               "normal-form", "report")


@pytest.mark.parametrize("argv", [["--help"]] + [[cmd, "--help"] for cmd in SUBCOMMANDS],
                         ids=lambda argv: " ".join(argv))
def test_help_returns_status_and_writes_to_stdout_argument(capsys, argv):
    out, err = io.StringIO(), io.StringIO()
    assert main(argv, stdout=out, stderr=err) == 0
    assert out.getvalue().startswith("usage: " + " ".join(["qfermat"] + argv[:-1]))
    assert err.getvalue() == ""
    captured = capsys.readouterr()
    assert captured.out == captured.err == ""


def _no_exp(data):
    del data["exp"]


def _exp_five(data):
    data["exp"] = 5


def _bare_list(data):
    return data["exp"]


def _non_admissible_source(data):
    data["source_matrix"] = QMatrix.from_upper([1] + [0] * 9).to_json()


MALFORMED_TABLES = [_drop_last_row, _short_row, _set_digit("x"), _set_digit("5"),
                    _format_1, _no_exp, _exp_five, _bare_list, _non_admissible_source]


@pytest.mark.parametrize("corrupt", MALFORMED_TABLES, ids=[
    "624-rows", "short-row", "non-digit", "digit-5", "format-1", "no-exp",
    "exp-5", "bare-list", "non-admissible-source"])
def test_malformed_table_is_parse_record(capsys, table_file, tmp_path, corrupt):
    # a corruption either edits the document or returns its replacement
    data = json.loads(open(table_file).read())
    path = tmp_path / "table.json"
    path.write_text(json.dumps(corrupt(data) or data))
    for argv in (["verify", "--table", str(path)],
                 ["fiber", "--table", str(path), "--point", "1,-1,0,0,0"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        record = json.loads(captured.err)["error"]
        assert record["kind"] == "parse" and record["path"] == str(path), argv
