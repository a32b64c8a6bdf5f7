import csv
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import magicsquare
from magicsquare import series
from magicsquare.cli import FACTORED_SERIES, main
from magicsquare.magic import build_magic_algebra
from magicsquare.series import DescriptorRow, SeriesDescriptor, series_factors
from tests_helpers import (
    recompute_exceptional_rows,
    recompute_severi_rows,
    recompute_subexceptional_rows,
    reference_invariant_form,
)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_algebra_dump(capsys):
    code, out = run(capsys, ["algebra", "dump", "--A", "O"])
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 8
    assert set(data) >= {"dim", "unit", "structure_constants", "gram", "conjugation"}


def test_triality_basis(capsys):
    code, out = run(capsys, ["triality", "basis", "--A", "H"])
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 9
    assert all(set(b) == {"theta1", "theta2", "theta3"} for b in data["basis"])


def test_verify_full_small(capsys):
    code, out = run(capsys, ["verify", "--A", "R", "--B", "O", "--jacobi", "full"])
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 52
    assert data["jacobi"]["defects"] == 0
    assert data["ok"] is True


def test_verify_rr(capsys):
    code, out = run(capsys, ["verify", "--A", "R", "--B", "R", "--jacobi", "full"])
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 3 and data["jacobi"]["defects"] == 0


def test_build_sampled(capsys):
    code, out = run(capsys, ["build", "--A", "O", "--B", "O",
                             "--verify", "jacobi=sample:5000", "--seed", "7"])
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 248 and data["defects"] == 0


def test_build_deterministic(capsys):
    _, out1 = run(capsys, ["build", "--A", "C", "--B", "H",
                           "--verify", "jacobi=sample:500", "--seed", "3"])
    _, out2 = run(capsys, ["build", "--A", "C", "--B", "H",
                           "--verify", "jacobi=sample:500", "--seed", "3"])
    assert out1 == out2


@pytest.mark.parametrize("command", ["build", "verify"])
def test_reports_name_each_tag_one_way(capsys, command):
    # parse_tag reads any case and padding; the report prints the tag's own name.
    _, padded = run(capsys, [command, "--A", " h", "--B", "r", "--seed", "0"])
    _, canonical = run(capsys, [command, "--A", "H", "--B", "R", "--seed", "0"])
    assert padded == canonical


def test_roots_command(capsys, tmp_path):
    out_path = tmp_path / "e6.json"
    code, _ = run(capsys, ["roots", "--A", "O", "--B", "C", "--out", str(out_path)])
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["dynkin_type"] == "E6"
    assert data["rank"] == 6
    assert len(data["positive_roots"]) == 36
    assert set(data["markers"]) >= {"adjoint", "W", "Wstar"}


def test_roots_e8_report_is_pinned(capsys):
    # The one extracted datum whose report coldbench/golden.json does not hold.
    code, out = run(capsys, ["roots", "--A", "O", "--B", "O"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9e5bdc42d100fb2f49e1da9213a89baeeb84994217accc0cb051260c2f904f7c")


def test_dim_series(capsys):
    code, out = run(capsys, ["dim", "--series", "exceptional", "-p", "1", "-a", "8"])
    assert code == 0 and out.strip() == "248"
    code, out = run(capsys, ["dim", "--series", "severi", "-p", "1",
                             "--pstar", "1", "-a", "8"])
    assert code == 0 and out.strip() == "650"
    code, out = run(capsys, ["dim", "--series", "so-family", "-k", "1", "-t", "2"])
    assert code == 0 and out.strip() == "28"
    code, out = run(capsys, ["dim", "--series", "thirdrow", "-k", "1",
                             "--r-param", "3", "-a", "8"])
    assert code == 0 and out.strip() == "133"


def test_dim_factored(capsys):
    code, out = run(capsys, ["dim", "--series", "exceptional", "-p", "1",
                             "-a", "8", "--factored"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "248"
    assert "numerator factors: 30" in lines[-1]


@pytest.mark.parametrize("argv,value,count", [
    (["--series", "severi", "-p", "1", "--pstar", "1"], "650", 7),
    (["--series", "subexceptional", "-p", "1"], "133", 13),
])
def test_dim_factored_descriptor_series(capsys, argv, value, count):
    code, out = run(capsys, ["dim"] + argv + ["-a", "8", "--factored"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == value
    assert lines[-1] == f"numerator factors: {count}, denominator factors: {count}"

# sha256 of the standard output of reports that coldbench/golden.json does not
# hold: the factored form of each descriptor series at a = 8 and at degenerate
# values of a, and the tables of the subexceptional, Severi, degree and
# orthogonal series.
PINNED_REPORTS = [
    ("dim --series exceptional -p 1 -q 1 -r 1 -s 1 -a=8 --factored",
     "507cc407118fbc3e1cb2d76f80c07ac5c4c5d8d12487d48e67750e410cc820ec"),
    ("dim --series exceptional -p 1 -q 1 -r 1 -s 1 -a=0 --factored",
     "785edc8a7bc26937e0b434f8855a754343de14b1a53efadb09b66661f27d2875"),
    ("dim --series exceptional -p 1 -q 1 -r 1 -s 1 -a=-1 --factored",
     "9e78d9ff0fb0d6571cf1bde8d034e2d0c6bd235d4a6b00eee77f6a6dfe29d94f"),
    ("dim --series exceptional -p 1 -q 1 -r 1 -s 1 -a=1/2 --factored",
     "00f26c4ec0116d7f5972acecac41bcaa80f6b660992a0e0da2c63a37b59beb69"),
    ("dim --series exceptional -p 1 -q 1 -r 1 -s 1 -a=-4/3 --factored",
     "6d86bcac2e303cd1f2513a7c25df03701783c05b6e4ed0d4af1744d21e29138a"),
    ("dim --series subexceptional -p 1 -q 1 -r 1 -a=8 --factored",
     "b31567b0bfd5f98de0af08bbfa34b725b46886e097973182fe18a753d8d56b6f"),
    ("dim --series subexceptional -p 1 -q 1 -r 1 -a=0 --factored",
     "a4bd63852755355f7cb824f66dcfc8c36f34f85f927aa3b55bc95c04a2dbe507"),
    ("dim --series subexceptional -p 1 -q 1 -r 1 -a=-1 --factored",
     "408e300b2f1b53d8a0783b6b2c74c122b03b7fd3f7ae9b33fda25bad3735f93a"),
    ("dim --series subexceptional -p 1 -q 1 -r 1 -a=1/2 --factored",
     "1b48542eef53382ec4e00f721e92e3d027c61aaca8fcfc2ea3b2585a0ddd8048"),
    ("dim --series subexceptional -p 1 -q 1 -r 1 -a=-4/3 --factored",
     "b414850bb25db4dd913c694954b0b908db39a1b5356b54b51012bec5268baa1a"),
    ("dim --series severi -p 1 --pstar 2 -a=8 --factored",
     "45f9d23a9eea06c1bd70dff3969e34594b829219358652e348cf9f282dd6224f"),
    ("dim --series severi -p 1 --pstar 2 -a=0 --factored",
     "74c4542820a1f0c817f513188322185ad935b493230132c3d5debc6d43e10123"),
    ("dim --series severi -p 1 --pstar 2 -a=-1 --factored",
     "08616c9e2ae3f6f77ad819f55af71182d3fbb70e1b6f508da20c08794feedd4e"),
    ("dim --series severi -p 1 --pstar 2 -a=1/2 --factored",
     "c110ae0c2e2230ccd2248139d28aecef4a5de063f86d30d9e9e00b4a2fce6560"),
    ("dim --series severi -p 1 --pstar 2 -a=-4/3 --factored",
     "08616c9e2ae3f6f77ad819f55af71182d3fbb70e1b6f508da20c08794feedd4e"),
    ("table --series subexceptional --which V2 --a=-1,1/2,0,3",
     "fb645bbe4c9622dd6eaa802cedbfdb793fd57cb8b507cbb838ac9dd1a58299ad"),
    ("table --series severi --a=0,1,2,-1",
     "d0f20adae4f56a5c19bea76aadb82e75dad3bb9e3ee70f8afda71c52d1df373e"),
    ("table --series exceptional --a=-2,-4/3,0,1/2 --k-max 3",
     "024b3f3e7dfd64b289f35771c0df23a59e2d0f57a7554334bf16147cd7ffd28e"),
    ("table --series degrees",
     "44c5107765eb6d0f1b0bf3d4a43356d0455da785038b79bf8cdaa2146caf3634"),
    ("table --series so-family",
     "e082a6cef0e6413cd514b2f3e842554a3a4cbee09eff22939375465c4fb51fda"),
    ("roots --A O --B O",
     "9e5bdc42d100fb2f49e1da9213a89baeeb84994217accc0cb051260c2f904f7c"),
    ("crosscheck --suite quick",
     "31c11b0747124f68df8ed0a9f1f973f3a7ac58e3dfc02b9cced11ddbb57c749a"),
]


@pytest.mark.parametrize("argv,digest", PINNED_REPORTS, ids=[argv for argv, _ in PINNED_REPORTS])
def test_report_is_pinned(capsys, argv, digest):
    code, out = run(capsys, argv.split(" "))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The value and factor-count lines of the factored reports above that print a
# value.  The reference rows of tests_helpers, in their own order, give the
# same multiset of factors.
FACTORED_REPORTS = [
    ("exceptional -p 1 -q 1 -r 1 -s 1 -a=8", "2196916298579968", 70),
    ("exceptional -p 1 -q 1 -r 1 -s 1 -a=0", "917504", 70),
    ("exceptional -p 1 -q 1 -r 1 -s 1 -a=-1", "-143", 70),
    ("exceptional -p 1 -q 1 -r 1 -s 1 -a=1/2", "12125262366049/85527", 70),
    ("exceptional -p 1 -q 1 -r 1 -s 1 -a=-4/3", "0", 70),
    ("subexceptional -p 1 -q 1 -r 1 -a=8", "4522000", 22),
    ("subexceptional -p 1 -q 1 -r 1 -a=0", "48", 22),
    ("subexceptional -p 1 -q 1 -r 1 -a=-1", "-1", 22),
    ("subexceptional -p 1 -q 1 -r 1 -a=1/2", "80500/51", 22),
    ("subexceptional -p 1 -q 1 -r 1 -a=-4/3", "0", 22),
    ("severi -p 1 --pstar 2 -a=8", "7722", 9),
    ("severi -p 1 --pstar 2 -a=-1", "0", 9),
    ("severi -p 1 --pstar 2 -a=1/2", "4851/208", 9),
    ("severi -p 1 --pstar 2 -a=-4/3", "0", 9),
]
REFERENCE_ROWS = {"exceptional": recompute_exceptional_rows,
                  "subexceptional": recompute_subexceptional_rows,
                  "severi": recompute_severi_rows}


@pytest.mark.parametrize("argv,value,count", FACTORED_REPORTS,
                         ids=[argv for argv, _, _ in FACTORED_REPORTS])
def test_factored_report_has_the_reference_factors(capsys, argv, value, count):
    words = argv.split(" ")
    code, out = run(capsys, ["dim", "--series"] + words + ["--factored"])
    lines = out.splitlines()
    assert code == 0 and lines[0] == value
    assert lines[2] == f"numerator factors: {count}, denominator factors: {count}"
    d = FACTORED_SERIES[words[0]]
    exps = {flag.lstrip("-"): int(e) for flag, e in zip(words[1::2], words[2::2])}
    reference = SeriesDescriptor("reference", d.markers, lambda markers: [
        DescriptorRow(pairings, intervals) for pairings, intervals in REFERENCE_ROWS[words[0]]()])
    assert lines[1] == str(series_factors(d, exps))
    assert Counter(series_factors(d, exps).factors) == Counter(series_factors(reference, exps).factors)


def test_import_builds_no_algebra():
    # The descriptor rows are built on their first read, not at import; the
    # child imports the package that the tests import.
    env = {**os.environ, "PYTHONPATH": str(Path(magicsquare.__file__).resolve().parents[1])}
    code = ("import magicsquare.cli, magicsquare.triality as t; "
            "print(t._triality_algebra.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out == "0\n"


def test_dim_pole(capsys):
    code, out = run(capsys, ["dim", "--series", "severi", "-p", "1",
                             "--pstar", "0", "-a", "0"])
    assert code == 0 and out.startswith("pole")


def test_dim_weyl_builtin(capsys):
    code, out = run(capsys, ["dim", "--datum", "builtin:so8", "--weight", "0,1,0,0"])
    assert code == 0 and out.strip() == "28"
    code, out = run(capsys, ["dim", "--datum", "builtin:e8",
                             "--weight", "0,0,0,0,0,0,1,0"])
    assert code == 0 and out.strip() == "30380"


def test_dim_weyl_from_file(capsys, tmp_path):
    path = tmp_path / "e8.json"
    code, _ = run(capsys, ["roots", "--A", "O", "--B", "O", "--out", str(path)])
    assert code == 0
    # highest root of E8 is the last fundamental weight in our simple ordering;
    # instead evaluate via a marker-free route: adjoint = dim 248
    data = json.loads(path.read_text())
    from magicsquare.roots import RootDatum
    rd = RootDatum.from_json(data)
    labels = [0] * rd.rank
    # find which fundamental weight is the highest root
    theta = rd.highest_root()
    fw = rd.fundamental_weights()
    for i, w in enumerate(fw):
        if w == theta:
            labels[i] = 1
    code, out = run(capsys, ["dim", "--datum", str(path),
                             "--weight", ",".join(map(str, labels))])
    assert code == 0 and out.strip() == "248"


A2 = {"name": "a2", "rank": 2, "gram": [["2", "-1"], ["-1", "2"]],
      "positive_roots": [["1", "1"], ["1", "0"], ["0", "1"]], "markers": {}}


@pytest.mark.parametrize("datum,field", [
    ({}, "'rank'"),
    ([1], "JSON object"),
    (dict(A2, rank="2"), "'rank'"),
    (dict(A2, rank=0), "'rank'"),
    (dict(A2, markers=5), "'markers'"),
    (dict(A2, markers={"adjoint": ["1"]}), "markers['adjoint']"),
    (dict(A2, positive_roots=None), "'positive_roots'"),
    (dict(A2, positive_roots=[["1", "1"], ["1"]]), "positive_roots[1]"),
    (dict(A2, positive_roots=[["1", "x"]]), "positive_roots[0]"),
    (dict(A2, gram=[["2", "-1"]]), "'gram'"),
    (dict(A2, gram=[["2", "-1"], [None, "2"]]), "gram[1]"),
    (dict(A2, gram=5), "'gram'"),
    (dict(A2, gram=[["2", "-1"], ["0", "2"]]),
     "'gram' is not symmetric: gram[0][1] = -1, gram[1][0] = 0"),
    (dict(A2, gram=[["2", "-1"], ["-1", "-2"]]), "'gram' is not definite"),
], ids=["empty", "list", "rank-string", "rank-zero", "markers-number", "marker-short",
        "roots-null", "root-short", "root-not-rational", "gram-rows", "gram-entry",
        "gram-number", "gram-not-symmetric", "gram-indefinite"])
def test_dim_malformed_datum_file_is_usage_error(capsys, tmp_path, datum, field):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum))
    assert main(["dim", "--datum", str(path), "--weight", "1,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("magicsquare: root datum: ") and field in captured.err


def test_dim_datum_with_zero_length_root_is_usage_error(capsys, tmp_path):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({"rank": 2, "gram": [["0", "0"], ["0", "0"]],
                                "positive_roots": [["1", "0"], ["0", "1"]]}))
    assert main(["dim", "--datum", str(path), "--weight", "1,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "magicsquare: root datum: positive_roots[0] has (alpha, alpha) = 0\n"


def test_dim_datum_not_a_positive_system_is_usage_error(capsys, tmp_path):
    # The A2 Gram with only the simple roots: alpha1 + alpha2 is missing, and
    # the Weyl formula on this set would print 9 for the adjoint (A2 gives 8).
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(dict(A2, positive_roots=[["1", "0"], ["0", "1"]])))
    assert main(["dim", "--datum", str(path), "--weight", "1,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("magicsquare: root datum: 'positive_roots' is not a positive system")


def test_dim_datum_not_a_positive_system_names_the_reflection(capsys, tmp_path):
    # The closure check runs before the rho check and names the failing pair.
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(dict(A2, positive_roots=[["1", "0"], ["0", "1"]])))
    assert main(["dim", "--datum", str(path), "--weight", "1,1"]) == 2
    assert capsys.readouterr().err == (
        "magicsquare: root datum: 'positive_roots' is not a positive system: reflecting "
        "positive_roots[1] in positive_roots[0] gives no root\n")


def test_dim_datum_file_well_formed(capsys, tmp_path):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(A2))
    code, out = run(capsys, ["dim", "--datum", str(path), "--weight", "1,1"])
    assert code == 0 and out == "8\n"


@pytest.mark.parametrize("sign", ["", "-"], ids=["positive-gram", "negative-gram"])
@pytest.mark.parametrize("weight,dim", [("1,1", "8"), ("1,0", "3")])
def test_dim_datum_positive_system_not_lexicographic(capsys, tmp_path, weight, dim, sign):
    # Simple roots (1,0) and (-1,1): lexicographic order puts (-1,1) < (0,1) < (1,0),
    # so only the order by (alpha, rho) finds (0,1) as their sum.  The Weyl
    # formula does not see the sign of the Gram matrix, so neither may the order.
    path = tmp_path / "datum.json"
    gram = [[sign + "2", sign + "1"], [sign + "1", sign + "2"]]
    path.write_text(json.dumps({"rank": 2, "gram": gram,
                                "positive_roots": [["1", "0"], ["-1", "1"], ["0", "1"]]}))
    code, out = run(capsys, ["dim", "--datum", str(path), "--weight", weight])
    assert code == 0 and out == dim + "\n"


@pytest.mark.parametrize("roots,err", [
    ([["1"], ["2"]], "<rho, alpha-check> = 3 for positive_roots[0], not 1"),
    ([["1"], ["1"]], "<rho, alpha-check> = 2 for positive_roots[0], not 1"),
], ids=["root-and-double", "repeated-root"])
def test_dim_datum_rho_off_the_simple_coroots_is_usage_error(capsys, tmp_path, roots, err):
    # Both sets are closed under the reflection, but rho is not the sum of the
    # fundamental weights, so the Weyl formula does not apply.
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({"rank": 1, "gram": [["1"]], "positive_roots": roots}))
    assert main(["dim", "--datum", str(path), "--weight", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("magicsquare: root datum: 'positive_roots' is not a positive "
                            "system: " + err + "\n")


@pytest.mark.parametrize("argv", [["dim", "--weight", "1", "--datum"],
                                  ["crosscheck", "--suite", "quick", "--known-suspect"]],
                         ids=["datum", "known-suspect"])
def test_a_file_that_is_not_json_is_named_in_the_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "bad.json"
    path.write_text("[1 2]")
    assert main(argv + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"magicsquare: {path}: not valid JSON: "
                            "Expecting ',' delimiter: line 1 column 4 (char 3)\n")


@pytest.mark.parametrize("weight,err", [
    ("1,0", "expected 8 Dynkin labels, got 2"),
    ("0,0,0,0,0,0,0,0,1", "expected 8 Dynkin labels, got 9"),
    ("1,0,0,0,0,0,0,-1", "Dynkin labels (1, 0, 0, 0, 0, 0, 0, -1) are not dominant"),
], ids=["short", "long", "negative"])
def test_dim_datum_labels_of_the_wrong_count_or_sign_are_usage_errors(capsys, weight, err):
    assert main(["dim", "--datum", "builtin:e8", "--weight", weight]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"magicsquare: {err}\n"


def test_dim_datum_takes_one_label_per_simple_root(capsys, tmp_path):
    # A1 in a rank-2 lattice: the labels name the weight's pairings with the
    # one simple coroot, and the Weyl formula reads nothing else.
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({"rank": 2, "gram": [["1", "0"], ["0", "1"]],
                                "positive_roots": [["1", "0"]]}))
    assert run(capsys, ["dim", "--datum", str(path), "--weight", "1"]) == (0, "2\n")
    assert main(["dim", "--datum", str(path), "--weight", "1,0"]) == 2
    assert capsys.readouterr().err == "magicsquare: expected 1 Dynkin labels, got 2\n"


def test_dim_usage_errors(capsys):
    assert main(["dim"]) == 2
    assert main(["dim", "--datum", "builtin:so8"]) == 2


def test_dim_refuses_an_empty_builtin_name(capsys):
    assert main(["dim", "--datum", "builtin:", "--weight", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "magicsquare: unknown builtin datum ''\n"


@pytest.mark.parametrize("series", ["exceptional", "subexceptional", "severi", "thirdrow"])
def test_dim_series_without_a_is_usage_error(capsys, series):
    assert main(["dim", "--series", series, "-p", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"dim: --series {series} requires -a\n"


def test_dim_so_family_negative_k_is_usage_error(capsys):
    # At k = -1 the closed form's denominator factor (k + 1) vanishes.
    assert main(["dim", "--series", "so-family", "-k", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "magicsquare: k must be >= 0\n"


def test_table_so_family_negative_k_is_usage_error(capsys):
    assert main(["table", "--series", "so-family", "--k-min", "-1", "--k-max", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "table: k must be >= 0\n"


def test_table_qdim_negative_k_is_usage_error(capsys):
    assert main(["table", "--series", "qdim", "--k-min", "-1", "--k-max", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "table: k must be >= 0\n"


@pytest.mark.parametrize("series", ["so-family", "severi", "exceptional"])
def test_table_k_range_too_long_to_count_is_usage_error(capsys, series):
    # The parameter product cannot take the length of a range past a C
    # ssize_t, and raises OverflowError before it computes any row.
    assert main(["table", "--series", series, "--k-max", str(10**20)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"magicsquare: [^\n]*too large[^\n]*\n", captured.err)


@pytest.mark.parametrize("argv,err", [
    (["dim", "--series", "severi", "-p", "-1", "-a", "0"],
     "magicsquare: p and pstar must be >= 0\n"),
    (["dim", "--series", "thirdrow", "-k", "-1", "--r-param", "3", "-a=-1/2"],
     "magicsquare: k must be >= 0\n"),
    (["table", "--series", "exceptional", "--k-min", "-1", "--k-max", "0", "--a=-5/3"],
     "table: k must be >= 0\n"),
    (["table", "--series", "severi", "--k-min", "-1", "--k-max", "0", "--a=0"],
     "table: p and pstar must be >= 0\n"),
], ids=["dim-severi", "dim-thirdrow", "table-exceptional", "table-severi"])
def test_negative_exponent_at_a_pole_is_usage_error(capsys, argv, err):
    # Each parameter is a pole of its closed form; the exponent check comes first.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


def test_table_empty_k_range_is_usage_error(capsys):
    assert main(["table", "--series", "exceptional", "--k-min", "3", "--k-max", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "table: empty parameter range\n"


def test_crosscheck_quick(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _ = run(capsys, ["crosscheck", "--suite", "quick", "--out", str(out_path)])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["summary"]["unexpected_mismatches"] == []
    keys = {(e["formula"], tuple(sorted(e["params"].items())))
            for e in report["entries"]}
    assert len(keys) == len(report["entries"])  # each grid point exactly once


def test_crosscheck_deterministic(capsys):
    _, out1 = run(capsys, ["crosscheck", "--suite", "quick"])
    _, out2 = run(capsys, ["crosscheck", "--suite", "quick"])
    assert out1 == out2


def test_crosscheck_empty_suspects_fails(capsys, tmp_path):
    suspects = tmp_path / "none.json"
    suspects.write_text("[]")
    code, _ = run(capsys, ["crosscheck", "--suite", "quick",
                           "--known-suspect", str(suspects)])
    assert code == 1  # documented mismatches become unexpected


def test_table_exceptional_32_rows(capsys, tmp_path):
    out_path = tmp_path / "exc.csv"
    code, _ = run(capsys, ["table", "--series", "exceptional", "--k-min", "1",
                           "--k-max", "4", "--format", "csv", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "k,a,value,status"
    assert len(lines) == 1 + 32


def test_table_qdim_and_degrees(capsys):
    code, out = run(capsys, ["table", "--series", "qdim", "--k-max", "1",
                             "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4 and all(r["status"] == "ok" for r in rows)
    code, out = run(capsys, ["table", "--series", "degrees", "--format", "md"])
    assert code == 0
    assert out.startswith("| variety |")
    assert len(out.strip().splitlines()) == 2 + 12


def test_table_qdim_non_integer_a_is_usage_error(capsys):
    # An odd integer a is rejected with this message; a non-integral a must
    # be too, not truncated to the q-analog of int(a).
    assert main(["table", "--series", "qdim", "--a", "3"]) == 2
    odd = capsys.readouterr()
    assert main(["table", "--series", "qdim", "--a", "1/2"]) == 2
    half = capsys.readouterr()
    assert half.out == odd.out == ""
    assert half.err == odd.err == "table: q-analog needs a an even nonnegative integer\n"


@pytest.mark.parametrize("a", ["10", "12", "16"])
def test_table_qdim_non_polynomial_a_is_usage_error(capsys, a):
    # Even a whose product of (1 - q^n) factors does not divide out.
    assert main(["table", "--series", "qdim", "--a", a]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"table: the q-analog is not a polynomial at a = {a}, k = 1\n"


def test_table_degrees_negative_dimension_is_a_row(capsys):
    # At a = -1 the flines and fpoints varieties would have dimensions
    # 11a+9 = -2 and -3: no degree, so their rows say negative.
    assert main(["table", "--series", "degrees", "--a=-1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[-2:] == ["flines,-1,negative,negative",
                                              "fpoints,-1,negative,negative"]


def test_table_degrees_of_the_adjoint_varieties_of_sl2_sl3_and_g2(capsys):
    # a = -4/3, -1, -2/3 are sl2, sl3 and G2, whose adjoint varieties have
    # the known degrees 2 (a conic), 6 and 18.
    assert main(["table", "--series", "degrees", "--a=-4/3,-1,-2/3"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [r for r in rows if r.startswith("ad,")] == ["ad,-4/3,2,ok", "ad,-1,6,ok",
                                                        "ad,-2/3,18,ok"]


def test_table_degrees_nonintegral_dimension_is_a_row(capsys):
    # At a = 2/3 the flines variety has dimension 11a+9 = 49/3: no degree, so
    # its row says nonintegral, as do the rows whose degree is a fraction.
    assert main(["table", "--series", "degrees", "--a", "2/3"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [
        "variety,a,value,status",
        "ad,2/3,78732/49,nonintegral",
        "fplanes,2/3,62446443264/49,nonintegral",
        "flines,2/3,nonintegral,nonintegral",
        "fpoints,2/3,1089593171755066713897595650703849/8807019963209277131760684064,"
        "nonintegral",
    ]


@pytest.mark.parametrize("argv", [
    ["--series", "thirdrow", "-k", "1", "--r-param", "3", "-a", "8"],
    ["--series", "thirdrow", "-k", "1", "--r-param", "3", "-a=-1/2"],  # a pole
    ["--series", "so-family", "-k", "1", "-t", "2"],
])
def test_dim_factored_without_factored_form_is_usage_error(capsys, argv):
    assert main(["dim"] + argv + ["--factored"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"dim: --series {argv[1]} has no factored form\n"


def test_bad_usage_exit_codes():
    with pytest.raises(SystemExit) as exc:
        main(["table"])  # missing required --series
    assert exc.value.code == 2


def usage_error(capsys, argv):
    """Exit code and stderr of an argv that argparse rejects."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code, capsys.readouterr().err


@pytest.mark.parametrize("mode", ["bogus", "sample", "sample:", "sample:x",
                                  "sample:-5", "full:3", "exhaustive:10"])
def test_bad_jacobi_mode_is_usage_error(capsys, mode):
    code, err = usage_error(capsys, ["verify", "--A", "R", "--B", "R", "--jacobi", mode])
    assert code == 2 and "sample:N" in err
    code, err = usage_error(capsys, ["build", "--A", "R", "--B", "R",
                                     "--verify", f"jacobi={mode}"])
    assert code == 2 and "sample:N" in err


def test_bad_verify_spec_is_usage_error(capsys):
    code, err = usage_error(capsys, ["build", "--A", "R", "--B", "R", "--verify", "full"])
    assert code == 2 and "jacobi=full" in err


def test_jacobi_sample_zero(capsys):
    code, out = run(capsys, ["verify", "--A", "R", "--B", "R", "--jacobi", "sample:0"])
    assert code == 0
    assert json.loads(out)["jacobi"] == {"mode": "sample:0", "checked": 0, "defects": 0}


@pytest.mark.parametrize("argv", [
    ["dim", "--series", "exceptional", "-p", "1", "-a", "1/0"],
    ["dim", "--series", "exceptional", "-p", "1", "-a", "x"],
    ["table", "--series", "exceptional", "--a", "1/0"],
    ["table", "--series", "subexceptional", "--a", "1,2/0"],
])
def test_bad_rational_parameter_is_usage_error(capsys, argv):
    code, err = usage_error(capsys, argv)
    assert code == 2 and ("zero denominator" in err or "Invalid literal" in err)


def test_table_rational_parameters(capsys):
    code, out = run(capsys, ["table", "--series", "exceptional", "--k-max", "1",
                             "--a=-2/3,8"])
    assert code == 0
    assert out.splitlines()[1:] == ["1,-2/3,14,ok", "1,8,248,ok"]


def test_dim_negative_rational_parameter_as_separate_argument(capsys):
    code, out = run(capsys, ["dim", "--series", "exceptional", "-p", "1", "-a", "-4/3"])
    assert code == 0 and out == "3\n"


def test_table_negative_rational_parameters_as_separate_argument(capsys):
    code, out = run(capsys, ["table", "--series", "exceptional", "--k-max", "2",
                             "--a", "-4/3,-1"])
    assert code == 0
    assert out.splitlines()[1:] == ["1,-4/3,3,ok", "1,-1,8,ok", "2,-4/3,5,ok", "2,-1,27,ok"]
    assert run(capsys, ["table", "--series", "exceptional", "--k-max", "2",
                        "--a=-4/3,-1"]) == (code, out)


@pytest.mark.parametrize("content", ["[1, 2]", '{"formula": "x"}', '[{"name": "x"}]',
                                     '[{"formula": 3}]', '"adjoint"'])
def test_crosscheck_suspects_of_the_wrong_shape_are_usage_errors(capsys, tmp_path, content):
    suspects = tmp_path / "bad.json"
    suspects.write_text(content)
    code = main(["crosscheck", "--suite", "quick", "--known-suspect", str(suspects)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert str(suspects) in captured.err and '"formula"' in captured.err


@pytest.mark.parametrize("argv", [
    ["build", "--A", "C", "--B", "H", "--verify", "jacobi=sample:200", "--seed", "3"],
    ["verify", "--A", "R", "--B", "C", "--jacobi", "full"],
])
def test_timing_adds_only_a_nonnegative_elapsed_ms(capsys, argv):
    code, out = run(capsys, argv)
    timed_code, timed_out = run(capsys, argv + ["--timing"])
    assert timed_code == code == 0
    timed = json.loads(timed_out)
    elapsed = timed.pop("elapsed_ms")
    assert type(elapsed) is int and elapsed >= 0
    assert timed == json.loads(out)


@pytest.mark.parametrize("argv,err", [
    (["--series", "exceptional", "-k", "3", "-a", "1"], "--series exceptional does not take -k"),
    (["--series", "exceptional", "-p", "1", "-t", "1", "-a", "1"],
     "--series exceptional does not take -t"),
    (["--series", "subexceptional", "-s", "1", "-a", "1"],
     "--series subexceptional does not take -s"),
    (["--series", "severi", "-q", "1", "-a", "1"], "--series severi does not take -q"),
    (["--series", "thirdrow", "-k", "1", "-p", "0", "-a", "8"],
     "--series thirdrow does not take -p"),
    (["--series", "so-family", "-k", "1", "-a", "8"], "--series so-family does not take -a"),
    (["--series", "so-family", "--r-param", "3"], "--series so-family does not take --r-param"),
    (["--datum", "builtin:so8", "--weight", "0,1,0,0", "--series", "exceptional"],
     "--datum does not take --series"),
    (["--datum", "builtin:so8", "--weight", "0,1,0,0", "-a", "1"], "--datum does not take -a"),
    (["--datum", "builtin:so8", "--weight", "0,1,0,0", "--factored"],
     "--datum does not take --factored"),
])
def test_dim_flag_outside_the_mode_is_usage_error(capsys, argv, err):
    # A flag is refused because it was given, even at its default value.
    assert main(["dim"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"dim: {err}\n"


@pytest.mark.parametrize("argv,flag", [
    (["--series", "exceptional", "--which", "V", "--a", "8"], "--which"),
    (["--series", "severi", "--which", "g"], "--which"),
    (["--series", "so-family", "--a", "8"], "--a"),
    (["--series", "so-family", "--a="], "--a"),
    (["--series", "degrees", "--k-min", "7", "--k-max", "0"], "--k-min"),
    (["--series", "degrees", "--k-min", "1"], "--k-min"),  # the default of the k series
    (["--series", "degrees", "--k-max", "2", "--a=2"], "--k-max"),
])
def test_table_flag_its_series_does_not_read_is_usage_error(capsys, argv, flag):
    # As in dim, a flag is refused because it was given, not ignored.
    assert main(["table"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"table: --series {argv[1]} does not take {flag}\n"


# One small table of each series, and the series function that fills its rows.
TABLE_SERIES = [
    (["--series", "exceptional", "--k-max", "2", "--a=-4/3,1/2,8"], "adjoint_cartan_power"),
    (["--series", "subexceptional", "--which", "V", "--k-max", "2", "--a=-1,8"],
     "evaluate_series"),
    (["--series", "severi", "--k-min", "0", "--k-max", "1", "--a=0,8"], "severi_dim"),
    (["--series", "qdim", "--k-max", "2", "--a=0,2"], "qdim_adjoint_cartan_power"),
    (["--series", "degrees", "--a=1,2"], "degree_from_hilbert"),
    (["--series", "so-family", "--k-max", "2"], "so_family_dim"),
]


@pytest.mark.parametrize("argv,name", TABLE_SERIES, ids=[argv[1] for argv, _ in TABLE_SERIES])
def test_table_calls_the_series_function_as_it_is_when_table_runs(capsys, monkeypatch, argv, name):
    # A wrapper put on the series module after import, as coldbench/tracer.py
    # puts its spans, sees one call per row.
    calls = []
    function = getattr(series, name)

    def spy(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(series, name, spy)
    code, out = run(capsys, ["table"] + argv)
    assert code == 0
    assert len(calls) == len(out.splitlines()) - 1 > 0


def _parse_table(text, fmt):
    """The rows of a table report, every cell as a string."""
    if fmt == "json":
        return [{c: str(x) for c, x in row.items()} for row in json.loads(text)]
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    head, rule, *body = text.splitlines()
    cells = [[c.strip() for c in line.strip("|").split("|")] for line in [head] + body]
    assert rule == "|" + "|".join("---" for _ in cells[0]) + "|"
    return [dict(zip(cells[0], row)) for row in cells[1:]]


@pytest.mark.parametrize("argv", [argv for argv, _ in TABLE_SERIES],
                         ids=[argv[1] for argv, _ in TABLE_SERIES])
def test_table_formats_hold_the_same_rows(capsys, tmp_path, argv):
    tables = []
    for fmt in ("csv", "json", "md"):
        code, out = run(capsys, ["table"] + argv + ["--format", fmt])
        assert code == 0
        path = tmp_path / f"table.{fmt}"
        assert run(capsys, ["table"] + argv + ["--format", fmt, "--out", str(path)]) == (0, "")
        assert path.read_text() == out
        tables.append(_parse_table(out, fmt))
    assert tables[0] and tables[0] == tables[1] == tables[2]
    assert list(tables[0][0])[-2:] == ["value", "status"]


@pytest.mark.parametrize("argv,value", [
    (["--series", "thirdrow", "-k", "1", "-a", "8"], "133"),
    (["--series", "so-family", "-t", "2"], "28"),
    (["--series", "exceptional", "-p", "0", "-q", "0", "-r", "0", "-s", "0", "-a", "8"], "1"),
    (["--series", "severi", "-p", "0", "--pstar", "1", "-a", "8"], "27"),
])
def test_dim_flags_of_the_mode_at_their_defaults(capsys, argv, value):
    code, out = run(capsys, ["dim"] + argv)
    assert code == 0 and out.strip() == value


@pytest.mark.parametrize("weight", ["x,1", "1,,0", "", "1.5,0"])
def test_dim_weight_is_parsed_by_argparse(capsys, weight):
    with pytest.raises(SystemExit) as exc:
        main(["dim", "--datum", "builtin:so8", "--weight", weight])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert ("argument --weight: expected comma-separated integer labels, "
            f"got {weight!r}\n") in err
    assert "invalid literal" not in err


def _dense_invariant_form_defects(g, seed):
    """verify's invariant-form spot check as a dense loop: the rng draws of
    the 200 antisymmetry checks, then 100 basis triples z, x, y with
    K([z,x],y) + K(x,[z,y]) from `bracket` and the block-by-block K."""
    rng = random.Random(seed)
    for _ in range(400):
        rng.randrange(g.dim)
    bad = 0
    for _ in range(100):
        z, x, y = (g.basis_element(rng.randrange(g.dim)) for _ in range(3))
        zx, zy = g.bracket(z, x), g.bracket(z, y)
        bad += reference_invariant_form(g, zx, y) + reference_invariant_form(g, x, zy) != 0
    return bad


def test_verify_lists_each_failed_check(capsys):
    # In g(C,C), clearing ad(b_0) breaks antisymmetry against the intact column
    # of b_0 and leaves b_0 central; a bracket of two vectors of the first
    # h-subalgebra that leaves it breaks h_closure.
    g = build_magic_algebra("C", "C")
    tab = g.table()
    h = g.h_subalgebra_indices(0)
    i, j = h[1], h[-1]
    outside = next(k for k in range(g.dim) if k not in h)
    saved_0, saved_ij = tab[0], tab[i].get(j)
    try:
        tab[0] = {}
        tab[i][j] = ((outside, 1),)
        code, out = run(capsys, ["verify", "--A", "C", "--B", "C", "--jacobi", "sample:0"])
    finally:
        tab[0] = saved_0
        tab[i][j] = saved_ij
    assert code == 1
    data = json.loads(out)
    assert {"antisymmetry", "h_closure", "center"} <= set(data["failures"])
    assert data["center_dim"] == 1 and data["ok"] is False
    code, out = run(capsys, ["verify", "--A", "C", "--B", "C", "--jacobi", "sample:0"])
    assert code == 0 and json.loads(out)["failures"] == []


def test_verify_spot_check_counts_as_the_dense_loop_on_a_corrupted_table(capsys):
    # Tripling [b_a, b_b] in the stored g(C,C) table wherever a + b is a
    # multiple of 3, mirrors included, breaks the invariance of K on some
    # triples; the sparse spot check of verify must count what the dense
    # loop counts.
    g = build_magic_algebra("C", "C")
    tab = g.table()
    saved = [(a, b, col) for a in range(g.dim) for b, col in tab[a].items() if (a + b) % 3 == 0]
    try:
        for a, b, col in saved:
            tab[a][b] = tuple((k, 3 * c) for k, c in col)
        counts = []
        for seed in range(6):
            _, out = run(capsys, ["verify", "--A", "C", "--B", "C", "--jacobi", "sample:0",
                                  "--seed", str(seed)])
            data = json.loads(out)
            counts.append(data["invariant_form_defects"])
            assert counts[-1] == _dense_invariant_form_defects(g, seed)
            assert ("invariant_form" in data["failures"]) == bool(counts[-1])
        assert any(counts)
    finally:
        for a, b, col in saved:
            tab[a][b] = col
    code, out = run(capsys, ["verify", "--A", "C", "--B", "C", "--jacobi", "sample:0"])
    assert code == 0 and json.loads(out)["invariant_form_defects"] == 0
