import argparse
import contextlib
import copy
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import event, given, settings, strategies as st

import gtrscodes
from gtrscodes import (LinearCode, Matrix, alpha_sum, code, construct_class1,
                       generator_matrix, is_mds_plus, plus_gtrs,
                       quadratic_extension)
from gtrscodes.cli import UsageError, build_parser, main

from conftest import field_q2, proportional_rows_code


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def write_params(tmp_path, params, name="datum.json"):
    path = tmp_path / name
    path.write_text(json.dumps(params.to_dict()))
    return str(path)


def write_code(tmp_path, code, name="code.json"):
    path = tmp_path / name
    path.write_text(json.dumps(code.to_dict()))
    return str(path)


def test_construct_class1_row1_family(capsys):
    rc, out, _ = run(capsys, "construct", "--class", "I", "--q", "7",
                     "--n", "6", "--al", "0", "--x", "1,2,3,4,5,6")
    assert rc == 0
    doc = json.loads(out)
    assert doc["class"] == "I" and doc["q"] == 7 and doc["n"] == 6
    assert len(doc["eta_list"]) == 6
    assert all(item["class"] == "MDS" for item in doc["eta_list"])


def test_construct_class2_auto(capsys):
    rc, out, _ = run(capsys, "construct", "--class", "II", "--q", "7",
                     "--n", "6", "--al", "0", "--m", "4")
    assert rc == 0
    doc = json.loads(out)
    assert doc["class"] == "II" and doc["m"] == 4


def test_construct_excluded_char2(capsys):
    rc, _, err = run(capsys, "construct", "--class", "I", "--q", "4",
                     "--n", "4", "--al", "0")
    assert rc == 2
    assert "error" in json.loads(err)


def test_construct_missing_m(capsys):
    rc, _, err = run(capsys, "construct", "--class", "II", "--q", "7",
                     "--n", "6", "--al", "0")
    assert rc == 2


def test_construct_class1_refuses_m(capsys):
    # class I has no direction exponent: --m is refused, not ignored
    for m in ("99", "4"):
        rc, out, err = run(capsys, "construct", "--class", "I", "--q", "7",
                           "--n", "6", "--al", "0", "--m", m)
        assert (rc, out) == (2, "")
        assert json.loads(err) == {"error": "UsageError",
                                   "message": "class I takes no --m"}


def test_verify_self_dual_and_perturbed(capsys, tmp_path, gf49):
    res = construct_class1(gf49, 0, gf49.subfield_elements()[1:])
    eta = res.eta_list[0][0]
    good = write_params(tmp_path, res.params(eta), "good.json")
    rc, out, _ = run(capsys, "verify", good)
    assert rc == 0
    doc = json.loads(out)
    assert doc["hermitian_self_dual"] and doc["gram_zero"]
    assert doc["thm4_polynomial_check"] is True
    # perturb one multiplier
    v = list(res.v)
    v[0] = gf49.add(v[0], 1) or 1
    bad = write_params(tmp_path, plus_gtrs(gf49, res.alpha, v, eta, res.k),
                       "bad.json")
    rc, out, _ = run(capsys, "verify", bad)
    assert rc == 1
    assert not json.loads(out)["hermitian_self_dual"]


def test_verify_takes_one_gram_product(capsys, tmp_path, gf49, monkeypatch):
    res = construct_class1(gf49, 0, gf49.subfield_elements()[1:])
    path = write_params(tmp_path, res.params(res.eta_list[0][0]))
    calls = []
    real = Matrix.conj_transpose

    def counted(self):
        calls.append(self.rows)
        return real(self)

    monkeypatch.setattr(Matrix, "conj_transpose", counted)
    rc, out, _ = run(capsys, "verify", path)
    assert rc == 0 and calls == [3]
    doc = json.loads(out)
    assert doc["gram_zero"] and doc["thm4_polynomial_check"] is True


def test_verify_builds_one_generator(capsys, tmp_path, gf49, monkeypatch):
    res = construct_class1(gf49, 0, gf49.subfield_elements()[1:])
    path = write_params(tmp_path, res.params(res.eta_list[0][0]))
    calls = []

    def counted(params):
        calls.append(params)
        return generator_matrix(params)

    # every module that binds the function, so no caller escapes the count
    for name, mod in list(sys.modules.items()):
        if (name.split(".")[0] == "gtrscodes"
                and getattr(mod, "generator_matrix", None) is generator_matrix):
            monkeypatch.setattr(mod, "generator_matrix", counted)
    rc, _, _ = run(capsys, "verify", path)
    assert rc == 0 and len(calls) == 1


def test_verify_odd_length(capsys, tmp_path, gf49):
    code = LinearCode(Matrix(gf49, [[1, 2, 3]]))
    path = write_code(tmp_path, code)
    rc, out, _ = run(capsys, "verify", path)
    assert rc == 1
    doc = json.loads(out)
    assert doc["hermitian_self_dual"] is False
    assert doc["reason"] == "n odd"


def test_verify_over_a_non_square_field_exits_2(capsys, tmp_path, gf7):
    # Hermitian duality is defined only over GF(q^2); GF(7) = GF(7^1)
    for name, obj in (
            ("raw_3_1", LinearCode(Matrix(gf7, [[1, 2, 3]]))),
            ("plus_3_1", plus_gtrs(gf7, [1, 2, 3], [1, 1, 1], 1, 1)),
            ("plus_4_1", plus_gtrs(gf7, [1, 2, 3, 4], [1, 1, 1, 1], 1, 1))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj.to_dict()))
        rc, out, err = run(capsys, "verify", str(path))
        assert (rc, out) == (2, ""), name
        assert json.loads(err) == {
            "error": "FieldError",
            "message": "operation requires a square extension GF(q^2)"}


def test_classify_repetition(capsys, tmp_path):
    gf9 = field_q2(3)
    code = LinearCode(Matrix(gf9, [[1, 1, 1, 1]]))
    rc, out, _ = run(capsys, "classify", write_code(tmp_path, code))
    assert rc == 0
    doc = json.loads(out)
    assert (doc["n"], doc["k"], doc["d"]) == (4, 1, 4)
    assert doc["class"] == "MDS"


def test_classify_plus_datum(capsys, tmp_path, gf49):
    res = construct_class1(gf49, 1, gf49.subfield_elements()[:6])
    for eta, label in res.eta_list:
        path = write_params(tmp_path, res.params(eta))
        rc, out, _ = run(capsys, "classify", path)
        assert rc == 0
        doc = json.loads(out)
        assert doc["class"] == label
        assert doc["subset_criterion_mds"] == (label == "MDS")
        assert doc["d"] == (4 if label == "MDS" else 3)


def test_classify_cap_exceeded(capsys, tmp_path, gf49):
    res = construct_class1(gf49, 0, gf49.subfield_elements()[1:])
    path = write_params(tmp_path, res.params(res.eta_list[0][0]))
    rc, out, _ = run(capsys, "classify", "--cap", "10", path)
    assert rc == 0
    doc = json.loads(out)
    assert doc["d"] is None and "note" in doc
    assert doc["subset_criterion_mds"] is True


def test_distance_cap_env_var_is_ignored(capsys, monkeypatch):
    # no command reads GTRS_DISTANCE_CAP, so a non-integer value is harmless
    monkeypatch.setenv("GTRS_DISTANCE_CAP", "abc")
    rc, out, _ = run(capsys, "sweep", "--q", "3")
    assert rc == 0 and json.loads(out)["rows"]
    rc, out, _ = run(capsys, "reference")
    assert rc == 0 and out.count("PASS") == 6


def test_classify_enumerates_only_other_codes(capsys, tmp_path, gf49,
                                             monkeypatch):
    calls = []
    real = LinearCode.min_distance

    def counted(self, *args):
        calls.append(self.k)
        return real(self, *args)

    monkeypatch.setattr(LinearCode, "min_distance", counted)
    res = construct_class1(gf49, 1, gf49.subfield_elements()[:6])
    eta = next(e for e, lbl in res.eta_list if lbl == "MDS")
    rc, out, _ = run(capsys, "classify", write_params(tmp_path, res.params(eta)))
    assert rc == 0 and json.loads(out)["class"] == "MDS"
    assert calls == []
    # [4,1,3]: the [4,3] dual would need 49^3 > 1000 messages, but the
    # column-rank classifier ranks 1 + 4 + 6 subsets
    path = write_params(tmp_path, plus_gtrs(gf49, [1, 2, 3, 4], [1] * 4,
                                            gf49.neg(1), 1))
    rc, out, _ = run(capsys, "classify", path, "--cap", "1000")
    assert rc == 0 and calls == []
    doc = json.loads(out)
    assert (doc["class"], doc["d"]) == ("NMDS", 3)
    assert doc["subset_criterion_mds"] is False
    # an 'other' code takes its distance from one enumeration; over the cap
    # the reply keeps the class and gives d = null
    other = LinearCode(Matrix(gf49, [[1, 0, 1, 0, 0], [0, 1, 1, 0, 0]]))
    path = write_code(tmp_path, other)
    rc, out, _ = run(capsys, "classify", path)
    assert rc == 0 and calls == [2]
    doc = json.loads(out)
    assert (doc["class"], doc["d"]) == ("other", 2)
    rc, out, _ = run(capsys, "classify", path, "--cap", "100")
    doc = json.loads(out)
    assert rc == 0 and (doc["class"], doc["d"]) == ("other", 2)   # 2 messages
    # [8,5]: the column scan ranks 154 subsets, but d = 2 shows only in the
    # second layer, at 5 + 480 messages
    path = write_code(tmp_path, proportional_rows_code(gf49))
    rc, out, _ = run(capsys, "classify", path, "--cap", "200")
    doc = json.loads(out)
    assert rc == 0 and (doc["class"], doc["d"]) == ("other", None)
    assert "note" in doc


def test_classify_other_code_past_q_to_the_k(capsys, tmp_path, gf49):
    # 49^5 > 2^24: full enumeration would refuse; information sets need 485
    path = write_code(tmp_path, proportional_rows_code(gf49))
    rc, out, _ = run(capsys, "classify", path)
    doc = json.loads(out)
    assert rc == 0 and (doc["n"], doc["k"]) == (8, 5)
    assert (doc["class"], doc["d"]) == ("other", 2) and "note" not in doc


def test_classify_nmds_12_4_over_gf49(capsys, tmp_path, gf49):
    # the dual of this [12,4] code has 49^8 codewords, far above the
    # enumeration cap; the column ranks decide it from 1 507 subsets
    alpha = list(range(1, 13))
    a = alpha_sum(gf49, alpha)
    eta = next(e for e in range(1, gf49.order)
               if gf49.add(1, gf49.mul(a, e)) and not is_mds_plus(gf49, alpha, e, 4))
    path = write_params(tmp_path, plus_gtrs(gf49, alpha, [1] * 12, eta, 4))
    rc, out, _ = run(capsys, "classify", path)
    assert rc == 0
    doc = json.loads(out)
    assert (doc["n"], doc["k"], doc["d"], doc["class"]) == (12, 4, 8, "NMDS")
    assert doc["subset_criterion_mds"] is False


def test_classify_single_twist_30_1(capsys, tmp_path, gf49):
    # n = 30 but only C(30, 1) = 30 locator subsets to scan
    params = plus_gtrs(gf49, range(1, 31), [1] * 30, 5, 1)
    rc, out, _ = run(capsys, "classify", write_params(tmp_path, params))
    assert rc == 0
    doc = json.loads(out)
    assert (doc["class"], doc["d"]) == ("NMDS", 29)
    assert doc["subset_criterion_mds"] is False
    # oracle: d from the 49 messages, and dual distance 1 from the zero
    # column at the locator -1/eta = 4; exhaustive_class would enumerate the
    # [30, 29] dual instead
    c = code(params)
    assert c.min_distance() == 29
    assert [j for j in range(30) if not any(r[j] for r in c.gen.data)] == [3]


def test_dual_modes(capsys, tmp_path, gf49):
    # 8th roots of unity form a multiplicative subgroup
    w = gf49.generator
    alpha = [gf49.pow(w, 6 * i) for i in range(8)]
    params = plus_gtrs(gf49, alpha, [1] * 8, w, 3)
    path = write_params(tmp_path, params)
    for mode in ("group-closed-form", "plus-closed-form"):
        rc, out, _ = run(capsys, "dual", path, "--mode", mode)
        assert rc == 0
        assert json.loads(out)["agrees_with_kernel_dual"] is True
    rc, out, _ = run(capsys, "dual", path, "--mode", "euclidean")
    assert rc == 0
    doc = json.loads(out)
    assert doc["k"] == 5 and doc["n"] == 8
    rc, out, _ = run(capsys, "dual", path, "--mode", "hermitian")
    assert rc == 0


def test_dual_excluded_eta(capsys, tmp_path, gf49):
    from gtrscodes import alpha_sum
    alpha = [0, 1, 2, 5]
    a = alpha_sum(gf49, alpha)
    assert a != 0
    eta = gf49.neg(gf49.inv(a))
    params = plus_gtrs(gf49, alpha, [1] * 4, eta, 2)
    path = write_params(tmp_path, params)
    rc, _, err = run(capsys, "dual", path, "--mode", "plus-closed-form")
    assert rc == 2
    assert "excluded eta" in json.loads(err)["message"]


def test_dual_closed_form_needs_datum(capsys, tmp_path, gf49):
    code = LinearCode(Matrix(gf49, [[1, 0], [0, 1]]))
    rc, _, err = run(capsys, "dual", write_code(tmp_path, code),
                     "--mode", "group-closed-form")
    assert rc == 2


def test_sweep_json_and_determinism(capsys, tmp_path):
    args = ("sweep", "--q", "3", "5", "--class", "both")
    rc, out1, _ = run(capsys, *args)
    assert rc == 0
    rc, out2, _ = run(capsys, *args)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["rows"]
    for row in doc["rows"]:
        assert row["self_dual"] is True
        assert row["criterion_check"] is True
        assert row["classification"] in {"MDS", "NMDS"}


def test_sweep_csv(capsys, tmp_path):
    out_path = tmp_path / "catalog.csv"
    rc, _, _ = run(capsys, "sweep", "--q", "7", "--n", "6",
                   "--format", "csv", "--out", str(out_path))
    assert rc == 0
    import csv
    with open(out_path) as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    # both parameter families from the bundled table appear
    assert {r["classification"] for r in rows} == {"MDS", "NMDS"}
    assert all(r["self_dual"] == "True" for r in rows)


def test_sweep_label_needs_attained_half_sum(capsys):
    # alpha = (0, 1), eta = 1 over GF(9) satisfies a*eta + 2 = 0, but no
    # locator equals -1/eta, so the row is the MDS [2,1,2] code
    rc, out, _ = run(capsys, "sweep", "--q", "3", "--format", "csv")
    assert rc == 0
    import csv
    rows = [r for r in csv.DictReader(out.splitlines())
            if (r["n"], r["class"], r["a_l"], r["subset"], r["eta"])
            == ("2", "I", "0", "0,1", "1")]
    assert len(rows) == 1
    assert rows[0]["classification"] == "MDS"


def test_sweep_catalog_pinned(capsys):
    # the catalog as first published; a refactor must not change it silently
    rc, out, _ = run(capsys, "sweep", "--q", "3", "5", "7", "--class", "both",
                     "--format", "csv")
    assert rc == 0 and len(out.splitlines()) == 182
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f5d17dce25f56706e03a15b89654285c05fd7faa58cdae1021bdf40a8c4a27eb")


def test_full_sweep_catalog_pinned(capsys):
    # the benchmark's catalog; row-space deduplication matters at q = 9..13
    rc, out, _ = run(capsys, "sweep", "--q", "3", "5", "7", "9", "11", "13",
                     "--class", "both", "--format", "csv")
    assert rc == 0 and len(out.splitlines()) == 1338
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1ee350672ea71430d4c5bccc86d3767b11218783a033039d71db51d6011385fd")


def test_default_format_sweep_catalog_pinned(capsys):
    # JSON is the sweep's default format; the same rows as the CSV pin
    rc, out, _ = run(capsys, "sweep", "--q", "3", "5", "7", "9", "11", "13",
                     "--class", "both")
    assert rc == 0 and len(out.encode()) == 303248
    assert len(json.loads(out)["rows"]) == 1337
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a56048da087e6a58f277521219f1f33f0bdcc5b40f8aea0d870273cabc331aab")


def test_even_q_sweep_catalog_pinned(capsys):
    # the only pinned catalog in characteristic 2; it reaches the class I
    # configurations with a != 0 and B = 0, which list no eta
    rc, out, _ = run(capsys, "sweep", "--q", "2", "4", "8", "16",
                     "--class", "both", "--format", "csv")
    assert rc == 0 and len(out.splitlines()) == 571
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1c82a52c7bec2b7dd94f54104d2ed533d6e9b0a107ca9b5dfa3007f053c6d2ed")


def test_sweep_q2_minimal(capsys):
    # n = 2 forces k = 1; the x = {0, 1} subset has locator sum 1, so the
    # characteristic-2 exclusion never triggers and valid codes exist
    rc, out, _ = run(capsys, "sweep", "--q", "2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["rows"]
    assert all(r["self_dual"] for r in doc["rows"])


def test_sweep_repeated_q_is_swept_once(capsys):
    for fmt in ("csv", "json"):
        once = run(capsys, "sweep", "--q", "3", "--format", fmt)
        assert once[0] == 0 and once[1]
        assert run(capsys, "sweep", "--q", "3", "3", "--format", fmt) == once
    # notes keep the order in which each q first appears
    rc, out, _ = run(capsys, "sweep", "--q", "5", "3", "5", "--n", "10")
    assert rc == 0 and json.loads(out)["notes"] == [
        f"q={q}: no admissible even lengths n = 2k <= q" for q in (5, 3)]


def test_sweep_n_follows_the_library_length_rule(capsys):
    # any even 2 <= n <= q is swept, not only n <= 8
    rc, out, _ = run(capsys, "sweep", "--q", "13", "--n", "10")
    doc = json.loads(out)
    assert rc == 0 and doc["notes"] == [] and len(doc["rows"]) == 158
    assert {row["n"] for row in doc["rows"]} == {10}
    # an odd length is refused, not dropped
    for lengths in (("3",), ("4", "3")):
        rc, out, err = run(capsys, "sweep", "--q", "7", "--n", *lengths)
        assert (rc, out) == (2, "")
        assert json.loads(err)["message"] == "invalid sweep length 3"


def test_out_file_gets_the_bytes_stdout_gets(capsys, tmp_path, gf49):
    # every command with --out writes exactly what it prints without it,
    # final newline included; CSV as well as JSON
    res = construct_class1(gf49, 0, gf49.subfield_elements()[1:])
    eta = res.eta_list[0][0]
    datum = write_params(tmp_path, res.params(eta))
    requests = [
        ("construct", "--class", "I", "--q", "7", "--n", "6", "--al", "0",
         "--x", "1,2,3,4,5,6"),
        ("verify", datum),
        ("classify", datum),
        ("dual", datum, "--mode", "hermitian"),
        ("sweep", "--q", "3"),
        ("sweep", "--q", "3", "--format", "csv"),
    ]
    for i, argv in enumerate(requests):
        rc, printed, _ = run(capsys, *argv)
        assert rc == 0 and printed.endswith("\n")
        path = tmp_path / f"out{i}"
        assert run(capsys, *argv, "--out", str(path)) == (rc, "", "")
        assert path.read_bytes() == printed.encode()


def test_reference_command(capsys):
    rc, out, _ = run(capsys, "reference")
    assert rc == 0
    lines = [l for l in out.splitlines() if l.startswith("row")]
    assert len(lines) == 6
    assert all("PASS" in l for l in lines)


def test_reference_eta_index(capsys):
    rc, out, _ = run(capsys, "reference", "--eta-index", "0")
    assert rc == 0


def test_missing_file(capsys):
    rc, _, err = run(capsys, "verify", "/no/such/file.json")
    assert rc == 2
    assert "error" in json.loads(err)


def test_malformed_inputs_exit_2(capsys, tmp_path, gf7, gf49):
    good = LinearCode(Matrix(gf7, [[1, 2, 3], [0, 1, 4]])).to_dict()
    rank_deficient = dict(good, generator=[good["generator"][0]] * 2)
    ragged = dict(good, generator=[good["generator"][0],
                                   good["generator"][1][:2]])
    datum = construct_class1(gf49, 1, gf49.subfield_elements()[:6])
    datum = datum.params(datum.eta_list[0][0]).to_dict()
    for name, doc in (("list", [1, 2]), ("rank", rank_deficient),
                      ("ragged", ragged), ("field", {"field": [1]}),
                      ("int_generator", dict(good, generator=[[1, 2]])),
                      ("int_alpha", dict(datum, alpha=5)),
                      ("short_rows", dict(good, n=3, k=1,
                                          generator=[[[1], [2]]])),
                      ("wrong_k", dict(good, k=3)),
                      ("str_k", dict(good, k="2")),
                      # JSON true loads as a bool, a subclass of int
                      ("bool_twist",
                       dict(datum, twists=[[True, *datum["twists"][0][1:]]])),
                      ("bool_m", dict(good, field=dict(good["field"], m=True))),
                      ("bool_p", dict(good, field=dict(good["field"], p=True)))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        rc, out, err = run(capsys, "classify", str(path))
        assert rc == 2 and out == ""
        assert "error" in json.loads(err)
        if name.startswith("bool_"):
            assert json.loads(err)["message"].endswith("has the wrong type")


def test_invariant_failure_exits_3(capsys, tmp_path, gf49, monkeypatch):
    import gtrscodes.cli as cli
    res = construct_class1(gf49, 1, gf49.subfield_elements()[:6])
    path = write_params(tmp_path, res.params(res.eta_list[0][0]))
    monkeypatch.setattr(cli, "is_mds_plus",
                        lambda *args: not is_mds_plus(*args))
    rc, out, err = run(capsys, "classify", path)
    assert rc == 3 and out == ""
    assert json.loads(err)["error"] == "InvariantError"


def test_field_invariant_failure_exits_3(capsys, monkeypatch):
    import gtrscodes.cli as cli

    def corrupt(q):
        # every nonzero subfield element collapses to 1
        field = quadratic_extension(q)
        field.exp = [1] * len(field.exp)
        return field

    monkeypatch.setattr(cli, "quadratic_extension", corrupt)
    rc, out, err = run(capsys, "construct", "--class", "I", "--q", "7",
                       "--n", "6", "--al", "0")
    assert rc == 3 and out == ""
    assert json.loads(err) == {"error": "InvariantError", "message":
                               "expected 7 distinct subfield elements"}


def test_bad_arguments_exit_2(capsys, tmp_path, gf49):
    w = gf49.generator
    alpha = [gf49.pow(w, 6 * i) for i in range(8)]
    datum = write_params(tmp_path, plus_gtrs(gf49, alpha, [1] * 8, w, 3))
    for argv in (("construct", "--class", "I", "--q", "7", "--n", "6",
                  "--al", "0", "--x", "a,b,c,d,e,f"),
                 ("reference", "--eta-index", "99"),
                 ("reference", "--eta-index", "1"),
                 ("verify", str(tmp_path)),
                 # open() refuses a path with a NUL byte by ValueError
                 ("classify", "datum\x00.json"),
                 # argparse refusals: a bad int, a bad choice, a missing
                 # command
                 ("classify", str(tmp_path / "f"), "--cap", "abc"),
                 ("sweep", "--q", "3", "--format", "xml"),
                 ("construct", "--class", "III", "--q", "7", "--n", "6",
                  "--al", "0"),
                 # removed second spellings of canonical commands
                 ("construct", "--class", "I", "--q", "7", "--n", "6",
                  "--al", "0", "--auto"),
                 ("dual", datum, "--mode", "thm2"),
                 ("dual", datum, "--mode", "lemma3"),
                 ("table1",),
                 ("bogus",),
                 ("verify",),
                 ("sweep", "--q", "x"),
                 ("verify", "f", "--bogus"),
                 ()):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == ""
        assert "error" in json.loads(err)


COMMANDS = ("construct", "verify", "classify", "dual", "sweep", "reference")


@pytest.mark.parametrize("argv", [
    ("construct", "--class", "I", "--q", "4", "--n", "4", "--al", "0"),
    ("verify", "/no/such/file.json"),
    ("classify", "/no/such/file.json"),
    ("dual", "/no/such/file.json"),
    ("sweep", "--q", "2"),
    ("reference", "--eta-index", "99"),
    ("-h",), ("bogus",), ()], ids=[*COMMANDS, "help", "bogus", "empty"])
def test_a_request_declares_only_its_command(capsys, monkeypatch, argv):
    declared = []
    real = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        declared.append(name)
        return real(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    with contextlib.suppress(SystemExit):
        main(list(argv))
    # no named command: all six, so help and usage errors list them all
    assert declared == ([argv[0]] if argv and argv[0] in COMMANDS
                        else list(COMMANDS))


# every argv shape of this module and of the benchmark's request mix,
# defaults included
PARSE_CORPUS = [
    ("construct", "--class", "I", "--q", "7", "--n", "6", "--al", "0",
     "--x", "1,2,3,4,5,6"),
    ("construct", "--class", "II", "--q", "7", "--n", "6", "--al", "0",
     "--m", "4"),
    ("construct", "--class", "I", "--q", "4", "--n", "4", "--al", "0",
     "--out", "f.json"),
    ("verify", "f.json"),
    ("verify", "--out", "o.json", "--", "f.json"),
    ("classify", "f.json"),
    ("classify", "--cap", "10", "f.json"),
    ("classify", "f.json", "--cap", "1000", "--out", "o.json"),
    ("dual", "f.json"),
    *[("dual", "f.json", "--mode", mode) for mode in (
        "euclidean", "hermitian", "group-closed-form", "plus-closed-form")],
    ("sweep", "--q", "3"),
    ("sweep", "--q", "3", "5", "--class", "both"),
    ("sweep", "--q", "3", "--class", "I", "--n"),
    ("sweep", "--q", "7", "--n", "6", "--format", "csv", "--out", "c.csv"),
    ("sweep", "--class", "II", "--format", "json", "--q", "3", "5", "7", "9",
     "11", "13"),
    ("reference",),
    ("reference", "--eta-index", "0"),
]


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=" ".join)
def test_command_parser_reads_like_the_full_parser(argv):
    ours = build_parser(argv[0]).parse_args(argv)
    assert vars(ours) == vars(build_parser().parse_args(argv))
    assert ours.command == argv[0]


@pytest.mark.parametrize("argv", [
    ("-h",), *[(command, "-h") for command in COMMANDS],
    (), ("bogus",), ("verify",), ("sweep", "--q", "x"),
    ("verify", "f", "--bogus")], ids=lambda argv: " ".join(argv) or "empty")
def test_help_and_usage_errors_match_the_full_parser(capsys, argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        want = (exc.code, capsys.readouterr().out, "")
    except UsageError as exc:
        want = (2, "", json.dumps({"error": "UsageError", "message": str(exc)},
                                  indent=2, sort_keys=True) + "\n")
    else:
        pytest.fail("the full parser accepted the command line")
    try:
        got = run(capsys, *argv)
    except SystemExit as exc:
        got = (exc.code, *capsys.readouterr())
    assert got == want
    assert want[0] == (0 if "-h" in argv else 2)


def test_sweep_large_prime_q_exits_2():
    # q = 100000007 is prime: refused at the field cap, not after a scan of
    # every p <= q
    src = os.path.dirname(os.path.dirname(gtrscodes.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "gtrscodes.cli", "sweep", "--q", "100000007"],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2 and proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == "FieldError"


M61 = 2 ** 61 - 1


@pytest.mark.parametrize("argv", [
    ("sweep", "--q", str(M61)),
    ("sweep", "--q", str(2 ** 127 - 1)),
    ("sweep", "--q", str((2 ** 31 - 1) * M61)),
    ("classify", "{m61}")])
def test_large_primes_exit_2(tmp_path, argv):
    # no trial division up to the square root of these
    path = tmp_path / "m61.json"
    path.write_text(json.dumps({"field": {"p": M61, "m": 1}, "n": 2, "k": 1,
                                "generator": [[[1], [2]]]}))
    src = os.path.dirname(os.path.dirname(gtrscodes.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "gtrscodes.cli",
         *(a.format(m61=path) for a in argv)],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2 and proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == "FieldError"


@pytest.mark.parametrize("m", [20000, 10 ** 9])
def test_huge_extension_degree_exits_2_fast(capsys, tmp_path, m):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"field": {"p": 2, "m": m}, "n": 2, "k": 1,
                                "generator": [[[1], [0]]]}))
    start = time.perf_counter()
    rc, out, err = run(capsys, "classify", str(path))
    assert time.perf_counter() - start < 1
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "FieldError"


@pytest.mark.parametrize("text", [
    '{"field": {"p": 1' + "0" * 4999 + ', "m": 1}}',
    "[" * 100000 + "]" * 100000], ids=["long_integer", "deep_nesting"])
def test_json_that_json_load_refuses_exits_2(capsys, tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    rc, out, err = run(capsys, "classify", str(path))
    assert rc == 2 and out == ""
    reply = json.loads(err)
    assert reply["error"] == "UsageError"
    assert reply["message"].startswith("malformed input: ")


def test_cap_zero_is_rejected(capsys, tmp_path, gf7):
    path = write_code(tmp_path, LinearCode(Matrix(gf7, [[1, 2, 3]])))
    rc, _, err = run(capsys, "classify", path, "--cap", "0")
    assert rc == 2
    assert json.loads(err)["message"] == "caps must be positive"


# ---------------------------------------------------------------------------
# fuzz: argv and input documents
# ---------------------------------------------------------------------------

def _fuzz_docs():
    """Valid inputs to mutate: single-twist data over GF(4), GF(9) (on a
    subgroup, so the closed-form duals apply) and GF(49), and a raw
    generator over GF(25)."""
    f4, f9, f25, f49 = (field_q2(q) for q in (2, 3, 5, 7))
    w = f9.generator
    res = construct_class1(f49, 1, f49.subfield_elements()[:6])
    raw = LinearCode(Matrix(f25, [[1, 0, 3, 7], [0, 1, 12, 2]]))
    return (plus_gtrs(f4, [1, 2, 3], [1, 1, 1], 1, 1).to_dict(),
            plus_gtrs(f9, [f9.pow(w, 2 * i) for i in range(4)], [1, 2, 3, 4],
                      w, 2).to_dict(),
            res.params(res.eta_list[0][0]).to_dict(),
            raw.to_dict())


FUZZ_DOCS = _fuzz_docs()
FUZZ_QS = ("2", "3", "4", "5", "7")
JUNK = ("", "0", "-1", "9", "abc", "1.5", "--", "--nope", "-x", "\x00",
        "100000007", "--auto", "thm2", "lemma3", "table1")
JUNK_JSON = (None, True, "7", 1.5, [], {}, [[]], [1, 2], -1, 10 ** 6)


def _nodes(doc, path=()):
    """Paths to every key and list entry of a JSON document."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _nodes(value, path + (key,))


@st.composite
def _documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_DOCS)))
    for _ in range(draw(st.sampled_from((0, 0, 1, 2, 3)))):
        paths = list(_nodes(doc))
        if not paths:
            break
        *parent, key = draw(st.sampled_from(paths))
        node = doc
        for p in parent:
            node = node[p]
        action = draw(st.sampled_from(("drop", "type", "int", "n", "k")))
        if action == "drop":
            del node[key]
        elif action == "type":
            node[key] = draw(st.sampled_from(JUNK_JSON))
        elif action == "int":
            # out-of-range coefficients, characteristics, degrees, twists
            node[key] = draw(st.integers(-3, 60))
        else:
            doc[action] = draw(st.integers(-1, 9))
    # one document in four is not a JSON object at all
    return draw(st.sampled_from((doc,) * 9 + ([doc], "doc", 7)))


_NOT_INT = (None, True, "7", 1.5, [], {}, [[]], [1, 2])
_NOT_LIST = (None, True, "7", 1.5, {}, -1, 10 ** 6)
# per key the loaders check, JSON values of the wrong type for it, written
# out here rather than read from the loaders' own predicates
WRONG_TYPES = {
    "field": {
        "p": _NOT_INT, "m": _NOT_INT,
        "modulus": (True, "7", 1.5, {}, -1, 10 ** 6, [[]], [1, True], ["1"]),
        "generator": (True, "7", 1.5, {}, [[]], [1, None], [False])},
    "datum": {
        "alpha": _NOT_LIST + ([1, 2], [[True]], [[1.5]], [[[1]]]),
        "v": _NOT_LIST + ([1, 2], [[None]], [["1"]]),
        "k": _NOT_INT,
        "twists": _NOT_LIST + ([[]], [1, 2], [[1, 0]], [[1, 0, [1], 2]],
                               [[True, 0, [1]]], [[1, "0", [1]]],
                               [[1, 0, 5]], [[1, 0, [1.5]]])},
    "raw": {
        "n": _NOT_INT, "k": _NOT_INT,
        "generator": _NOT_LIST + ([1, 2], [[1]], [[[True]]], [[["1"]]],
                                  [[None]])},
}


def test_wrong_typed_keys_exit_2(capsys, tmp_path):
    # each document gets a fresh file: rewriting one file in place costs
    # far more than writing a new one on some file systems
    paths = (tmp_path / f"doc{i}.json" for i in itertools.count())
    for doc in FUZZ_DOCS:
        for part in ("field", "datum" if "twists" in doc else "raw"):
            where = "field " if part == "field" else ""
            for key, junk in WRONG_TYPES[part].items():
                for value in junk:
                    bad = copy.deepcopy(doc)
                    node = bad["field"] if part == "field" else bad
                    assert key in node
                    node[key] = value
                    path = next(paths)
                    path.write_text(json.dumps(bad))
                    for command in ("classify", "verify", "dual"):
                        rc, out, err = run(capsys, command, str(path))
                        assert (rc, out) == (2, ""), (command, key, value)
                        assert json.loads(err) == {
                            "error": "UsageError",
                            "message": f"malformed input: {where}{key!r} "
                                       "has the wrong type"}, (key, value)


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _pieces(file, out):
    """Per subcommand, the argv pieces it requires and those it may take,
    each option with a value drawn from its real range, and the removed
    spellings among the optional ones."""
    out = st.just(("--out", out))
    q = st.sampled_from(FUZZ_QS)

    def opt(name, values):
        return st.tuples(st.just(name), values)

    return {
        "construct": (
            (opt("--class", st.sampled_from(("I", "II"))), opt("--q", q),
             opt("--n", _ints(0, 8)), opt("--al", _ints(-1, 8))),
            (opt("--m", _ints(-1, 8)), st.just(("--auto",)), out,
             opt("--x", st.lists(_ints(-1, 9), max_size=8).map(",".join)))),
        "verify": ((file,), (out,)),
        "classify": ((file,), (opt("--cap", _ints(-1, 3000)), out)),
        "dual": ((file,), (out, opt("--mode", st.sampled_from((
            "euclidean", "hermitian", "group-closed-form", "plus-closed-form",
            "thm2", "lemma3"))))),
        "sweep": (
            (st.lists(q, min_size=1, max_size=2).map(lambda qs: ("--q", *qs)),),
            (st.lists(_ints(-2, 8), max_size=3).map(lambda ns: ("--n", *ns)),
             opt("--class", st.sampled_from(("I", "II", "both"))),
             opt("--format", st.sampled_from(("json", "csv"))), out)),
        "reference": ((), (opt("--eta-index", _ints(-1, 2)),)),
        "table1": ((), ()),
    }


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def fuzz_doc_paths(fuzz_dir):
    """A fresh path per fuzzed document and `--out` file, across all
    examples: rewriting one file in place costs far more than writing a
    new one on some file systems."""
    return (fuzz_dir / f"doc{i}.json" for i in itertools.count())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_fuzz_exit_codes_and_errors(fuzz_dir, fuzz_doc_paths, data):
    def write(doc):
        doc_path = next(fuzz_doc_paths)
        doc_path.write_text(json.dumps(doc))
        return (str(doc_path),)

    # one file in five is missing or a directory
    file = st.integers(0, 4).flatmap(lambda i: st.sampled_from(
        ((str(fuzz_dir / "missing.json"),), (str(fuzz_dir),))) if i == 0
        else _documents().map(write))
    pieces = _pieces(file, f"{next(fuzz_doc_paths)}.out")
    command = data.draw(st.sampled_from(sorted(pieces)), label="command")
    required, optional = pieces[command]
    # each required piece is dropped one time in eight
    parts = [data.draw(piece) for piece in required
             if data.draw(st.integers(0, 7))]
    parts += data.draw(st.lists(st.one_of(
        *optional, st.sampled_from(JUNK).map(lambda t: (t,))),
        max_size=3), label="extra")
    parts = data.draw(st.permutations(parts), label="parts")
    argv = [command] + [token for part in parts for token in part]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main(argv)
    event(f"{command} exit {rc}")
    assert rc in (0, 1, 2, 3)
    if rc >= 2:
        assert stdout.getvalue() == ""
        assert sorted(json.loads(stderr.getvalue())) == ["error", "message"]
