import json
import time

import pytest

import gfrecip.field
from gfrecip import Field, Poly, carlitz_count, recip, verify
from gfrecip.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert doc["schema_version"] == 1
    return doc


def test_recip_example(capsys):
    doc = run_json(capsys, "recip", "--field", "5", "--a", "2", "--poly", "1,0,1")
    assert doc["payload"]["result"] == "4,0,1"


def test_recip_round_trip(capsys):
    doc = run_json(capsys, "recip", "--field", "5", "--a", "3", "--poly", "2,4,3,1")
    once = doc["payload"]["result"]
    doc = run_json(capsys, "recip", "--field", "5", "--a", "3", "--poly", once)
    assert doc["payload"]["result"] == "2,4,3,1"


def test_classify_example(capsys):
    doc = run_json(capsys, "classify", "--field", "5", "--a", "4",
                   "--poly", "4,1,2,4,3,1,1")
    assert doc["payload"]["verdict"] == "nontrivial"
    assert doc["payload"]["half_degree"] == 3


def test_classify_odd_degree_over_f10007_golden(capsys):
    code, out, err = run(capsys, "classify", "--field", "10007", "--a", "4",
                         "--poly", "2,1")
    assert (code, err) == (0, "")
    assert out == """{
  "status": "ok",
  "schema_version": 1,
  "command": "classify",
  "payload": {
    "poly": "2,1",
    "a": "4",
    "verdict": "odd_srm_plus",
    "half_degree": null
  },
  "metadata": {
    "field": "10007",
    "version": "0.1.0"
  }
}
"""


def test_parity_with_oracle(capsys):
    doc = run_json(capsys, "parity", "--field", "5", "--a", "1",
                   "--poly", "1,1,1", "--verify")
    payload = doc["payload"]
    assert payload["verdict"] == "odd"
    assert payload["indicator"] == "2"
    assert payload["oracle"] == {"factor_count_with_multiplicity": 1, "agrees": True}


def test_parity_not_applicable(capsys):
    doc = run_json(capsys, "parity", "--field", "5", "--a", "4",
                   "--poly", "4,1,2,4,3,1,1")
    assert doc["payload"]["verdict"] == "not_applicable"
    assert doc["payload"]["reason"]


def test_transform_and_inverse(capsys):
    doc = run_json(capsys, "transform", "--field", "5", "--a", "2", "--poly", "1,1")
    assert doc["payload"]["result"] == "2,1,1"
    doc = run_json(capsys, "invtransform", "--field", "5", "--a", "2", "--poly", "2,1,1")
    assert doc["payload"]["result"] == "1,1"


def test_factor_deterministic(capsys):
    args = ("factor", "--field", "5", "--poly", "1,0,4,0,1", "--seed", "7")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["payload"]["factors"] == [
        {"poly": "4,2,1", "pretty": "x^2+2x+4", "multiplicity": 1},
        {"poly": "4,3,1", "pretty": "x^2+3x+4", "multiplicity": 1},
    ]
    assert doc["metadata"]["seed"] == 7


def test_count_example(capsys):
    doc = run_json(capsys, "count", "--field", "5", "--a", "4", "--n", "2",
                   "--enumerate")
    payload = doc["payload"]
    assert payload["si_formula"] == 6
    assert payload["si_enumerated"] == 6
    assert payload["agreement"] is True
    doc = run_json(capsys, "count", "--field", "5", "--a", "4", "--n", "2")
    assert doc["payload"]["si_enumerated"] is None
    # JSON keys in the CSV's column order
    assert ",".join(doc["payload"]) == "q,a,n,delta,si_formula,si_enumerated,agreement"


def test_census_csv_stdout(capsys):
    code, out, _ = run(capsys, "census", "--fields", "3", "--nmax", "1", "--csv")
    assert code == 0
    assert out == ("q,a,n,delta,si_formula,si_enumerated,agreement\n"
                   "3,1,1,-1,1,1,true\n"
                   "3,2,1,1,2,2,true\n")


def test_census_json_and_file(capsys, tmp_path):
    doc = run_json(capsys, "census", "--fields", "3,5", "--nmax", "1")
    assert len(doc["payload"]["rows"]) == 2 + 4
    out_path = tmp_path / "census.csv"
    doc = run_json(capsys, "census", "--fields", "3", "--nmax", "2",
                   "--out", str(out_path))
    assert doc["payload"]["all_agree"] is True
    text = out_path.read_text()
    assert text.startswith("q,a,n,delta,")
    assert len(text.strip().split("\n")) == 5  # header + 2 a's x 2 n's


def test_verify_pass(capsys):
    for token in ("1", "2", "5", "7", "9", "cor2"):
        doc = run_json(capsys, "verify", "--theorem", token,
                       "--field", "5", "--a", "4", "--n", "2")
        assert doc["payload"]["ok"] is True, token
        assert doc["payload"]["check"] == token


def test_verify_extension_field(capsys):
    doc = run_json(capsys, "verify", "--theorem", "7", "--field", "3^2",
                   "--a", "1+2*t", "--n", "1")
    assert doc["payload"]["ok"] is True


def test_modulus_override(capsys):
    doc = run_json(capsys, "verify", "--theorem", "5", "--field", "3^2",
                   "--a", "t", "--n", "1", "--modulus", "2,2,1")
    assert doc["payload"]["ok"] is True
    assert doc["metadata"]["modulus"] == "2,2,1"


def test_domain_errors_exit_1(capsys, tmp_path):
    cases = [
        ("recip", "--field", "4", "--a", "1", "--poly", "1,1"),        # bad field
        ("recip", "--field", "318665857834031151167461", "--a", "1",
         "--poly", "1,1"),                                             # pseudoprime p
        ("recip", "--field", "5", "--a", "0", "--poly", "1,1"),        # zero a
        ("recip", "--field", "5", "--a", "1", "--poly", "1,,1"),       # bad poly
        ("recip", "--field", "5", "--a", "1", "--poly", "0,1,1"),      # zero constant
        ("classify", "--field", "5", "--a", "x", "--poly", "1,1"),     # bad element
        ("recip", "--field", "3^2", "--a", "1", "--poly", "1,1",
         "--modulus", "a,b"),                                          # bad modulus
        ("census", "--fields", "3", "--nmax", "1",
         "--out", str(tmp_path / "missing" / "x.csv")),                # unwritable path
    ]
    for nmax in ("0", "-1"):                                           # empty sweep
        cases += [("census", "--fields", "3", "--nmax", nmax),
                  ("census", "--fields", "3", "--nmax", nmax,
                   "--out", str(tmp_path / f"nmax{nmax}.csv"))]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert err.strip(), argv
        assert not out, argv
        if "--nmax" in argv and argv[argv.index("--nmax") + 1] != "1":
            assert err == "error: nmax must be >= 1\n", argv
    assert not list(tmp_path.glob("nmax*.csv"))
    # a field spec that parses keeps Field's own reason for refusing it
    for spec, reason in (("2", "even characteristic is not supported"),
                         ("3^0", "extension degree must be >= 1, got 0"),
                         ("318665857834031151167461", "field characteristic must be prime, "
                                                      "got 318665857834031151167461")):
        code, out, err = run(capsys, "recip", "--field", spec, "--a", "1", "--poly", "1,1")
        assert (code, out, err) == (1, "", f"error: {reason}\n"), spec


def test_modulus_option_runs_no_modulus_search(capsys, monkeypatch):
    # the field is built once, from the spec and the given modulus
    def no_search(p, e):
        raise AssertionError(f"searched for a modulus of degree {e} over F_{p}")

    monkeypatch.setattr(gfrecip.field, "_smallest_irreducible", no_search)
    code, out, err = run(capsys, "verify", "--theorem", "5", "--field", "3^2", "--a", "t",
                         "--n", "1", "--modulus", "2,2,1")
    assert (code, err) == (0, "")
    assert json.loads(out)["payload"]["ok"] is True


def test_empty_stream_over_a_large_field_lists_no_codes(limited_python):
    # degree-1 odd a-srm have no free coefficient: one tuple, no pool of q codes,
    # which would not fit in the child's 1 GiB
    done = limited_python("from gfrecip.cli import main\n"
                          "raise SystemExit(main(['verify', '--theorem', '2', '--field', "
                          "'2147483647', '--a', '4', '--n', '1']))")
    assert (done.returncode, done.stderr) == (0, "")
    payload = json.loads(done.stdout)["payload"]
    assert (payload["ok"], payload["checked"]) == (True, 2)


def test_verify_n_below_1_exits_1(capsys):
    for token in verify.CHECKS:
        for n in ("0", "-1"):
            code, out, err = run(capsys, "verify", "--theorem", token,
                                 "--field", "5", "--a", "4", "--n", n)
            assert code == 1, (token, n)
            assert err == "error: n must be >= 1\n", (token, n)
            assert not out, (token, n)


def test_budget_exit_3(capsys):
    code, out, err = run(capsys, "verify", "--theorem", "5", "--field", "5",
                         "--a", "2", "--n", "8")
    assert code == 3
    assert err == ("resource limit: the master polynomial x^(q^n + 1) - a "
                   "would take more than 100000 steps\n")
    assert not out
    # the one fixed ceiling, from both sides: degree 99992 runs, 100004 does not
    code, out, err = run(capsys, "verify", "--theorem", "5", "--field", "99991",
                         "--a", "1", "--n", "1")
    assert code == 0, err
    code, out, err = run(capsys, "verify", "--theorem", "5", "--field", "100003",
                         "--a", "1", "--n", "1")
    assert code == 3
    assert err.startswith("resource limit: ")
    assert not out


def test_verify_has_no_budget_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    out, _ = capsys.readouterr()
    assert "--n N" in out
    assert "budget" not in out


@pytest.mark.parametrize("argv", [
    "count --field 10007 --a 3 --n 3 --enumerate",
    "census --fields 10007 --nmax 2",
    "verify --theorem 9 --field 101 --a 2 --n 4",
    "verify --theorem 1 --field 10007 --a 2 --n 1",
    "verify --theorem 2 --field 1000003 --a 2 --n 1",
    "verify --theorem 9 --field 3 --a 1 --n 30000",  # a size of 14314 digits
    # the largest stream's guard first, not after 3^10 smaller-stream polynomials
    "verify --theorem 3 --field 3 --a 1 --n 11",
    "verify --theorem cor2 --field 3 --a 1 --n 945",
    # no guard builds q^n, or scans n divisors, before n is bounded
    *(f"verify --theorem {token} --field 3 --a 1 --n 999999999999" for token in verify.CHECKS),
    "count --field 3 --a 1 --n 999999999999",
    "count --field 3 --a 1 --n 1099511627776",  # 2^40: the q^n - 1 branch
    "count --field 3^100000 --a 1 --n 1",  # the modulus search of F_3^100000
])
def test_exhaustive_loops_capped_exit_3(capsys, argv):
    # each size is checked against the one budget before any work
    start = time.perf_counter()
    code, out, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert err.startswith("resource limit: ")
    assert not out


@pytest.mark.parametrize("modulus,what", [
    ((), "the degree-300 modulus search"),
    (("--modulus", ",".join(["1"] * 301)), "the irreducibility check of the degree-300 modulus"),
], ids=["search", "given"])
def test_field_past_the_cap_names_its_work(capsys, modulus, what):
    # a given modulus runs no search: the refusal names the test it would take
    code, out, err = run(capsys, "recip", "--field", "3^300", "--a", "1", "--poly", "1,1",
                         *modulus)
    assert (code, out) == (3, "")
    assert err == f"resource limit: {what} over F_3 would take more than 100000 steps\n"


def test_count_past_the_digit_limit_exit_3(capsys):
    # about 4290 digits: printed as before
    doc = run_json(capsys, "count", "--field", "3", "--a", "1", "--n", "9000")
    assert doc["payload"]["si_formula"] == carlitz_count(3, 9000)
    # more than 4300 digits: json.dumps cannot render the exact count
    code, out, err = run(capsys, "count", "--field", "3", "--a", "1", "--n", "10000")
    assert code == 3
    assert err == "resource limit: an output integer has too many digits to print\n"
    assert not out


def test_byte_identical_repeat(capsys):
    args = ("census", "--fields", "3,5", "--nmax", "2")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


# exact stdout bytes: key order, indentation and the trailing newline
GOLDEN_STDOUT = {
    ("recip", "--field", "5", "--a", "3", "--poly", "2,4,3,1"): """\
{
  "status": "ok",
  "schema_version": 1,
  "command": "recip",
  "payload": {
    "input": "2,4,3,1",
    "a": "3",
    "result": "1,1,1,1",
    "pretty": "x^3+x^2+x+1"
  },
  "metadata": {
    "field": "5",
    "version": "0.1.0"
  }
}
""",
    ("transform", "--field", "3^2", "--a", "t", "--poly", "1,t,1"): """\
{
  "status": "ok",
  "schema_version": 1,
  "command": "transform",
  "payload": {
    "input": "1,t,1",
    "a": "t",
    "result": "2,2,1+2*t,t,1",
    "pretty": "x^4+tx^3+(1+2*t)x^2+2x+2"
  },
  "metadata": {
    "field": "3^2",
    "version": "0.1.0"
  }
}
""",
    ("invtransform", "--field", "5", "--a", "2", "--poly", "2,1,1"): """\
{
  "status": "ok",
  "schema_version": 1,
  "command": "invtransform",
  "payload": {
    "input": "2,1,1",
    "a": "2",
    "result": "1,1",
    "pretty": "x+1"
  },
  "metadata": {
    "field": "5",
    "version": "0.1.0"
  }
}
""",
    ("classify", "--field", "5", "--a", "4", "--poly", "4,1,2,4,3,1,1"): """\
{
  "status": "ok",
  "schema_version": 1,
  "command": "classify",
  "payload": {
    "poly": "4,1,2,4,3,1,1",
    "a": "4",
    "verdict": "nontrivial",
    "half_degree": 3
  },
  "metadata": {
    "field": "5",
    "version": "0.1.0"
  }
}
""",
    ("parity", "--field", "3^2", "--a", "t", "--poly", "t,1,1", "--verify"): """\
{
  "status": "ok",
  "schema_version": 1,
  "command": "parity",
  "payload": {
    "poly": "t,1,1",
    "a": "t",
    "verdict": "odd",
    "indicator": "1+2*t",
    "reason": null,
    "oracle": {
      "factor_count_with_multiplicity": 1,
      "agrees": true
    }
  },
  "metadata": {
    "field": "3^2",
    "version": "0.1.0",
    "seed": 1729
  }
}
""",
}


def test_poly_commands_golden_stdout(capsys):
    for argv, expected in GOLDEN_STDOUT.items():
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out == expected, argv


def test_verify_failure_exits_2(capsys, swapped_parity):
    # check 10 against a parity criterion that swaps even and odd
    code, out, err = run(capsys, "verify", "--theorem", "10", "--field", "5", "--a", "2")
    assert (code, err) == (2, "")
    assert '"ok": false' in out
    payload = json.loads(out)["payload"]
    assert payload["ok"] is False
    assert payload["checked"] > 0 and len(payload["failures"]) == min(20, payload["checked"])


@pytest.mark.parametrize("theorem,field,a,plant", [
    ("1", "3", "2", "off_reciprocal"),
    ("2", "5", "4", "swapped_odd_branches"),
    ("4", "3", "1", "odd_linear_exponent"),
    ("5", "5", "2", "negated_delta"),
    ("2", "5", "4", "unlabelled_odd"),
    ("2", "5", "4", "rootless_squares"),
    ("3", "3", "1", "overstripped_quadratic"),
    ("3", "3", "1", "understripped_quadratic"),
    ("4", "3", "1", "understripped_linear"),
    ("6", "3", "1", "unfiltered_srim"),
    ("9", "5", "4", "identity_transform"),
    ("9", "5", "4", "identity_reciprocal"),
])
def test_planted_theory_faults_exit_2(capsys, request, theorem, field, a, plant):
    request.getfixturevalue(plant)
    code, out, err = run(capsys, "verify", "--theorem", theorem, "--field", field, "--a", a)
    assert (code, err) == (2, "")
    assert '"ok": false' in out
    assert json.loads(out)["payload"]["failures"]


@pytest.mark.parametrize("n,reason", [
    ("1", "enumerated product disagrees with the Moebius product"),
    ("3", "the Moebius product did not divide exactly"),
])
def test_product_formula_failure_exits_2(capsys, off_master, n, reason):
    # eq2 fails only by si_product raising: x^28 - 2 + x over F_3 is not a
    # multiple of x^4 - 2 + x, and at n = 1 the quotient is m_poly + x itself
    code, out, err = run(capsys, "verify", "--theorem", "eq2", "--field", "3", "--a", "2",
                         "--n", n)
    assert (code, out) == (2, "")
    assert err == f"verification failure: {reason}\n"


@pytest.mark.parametrize("argv,plant,reason", [
    # 2 is not a square mod 5, so x^2 - 2 does not divide x^6 - 2
    ("verify --theorem 6 --field 5 --a 2 --n 1", "negated_delta",
     "x^2 - a failed to divide the master polynomial"),
    ("count --field 3 --a 1 --n 3", "unit_mobius", "classical count is not integral"),
])
def test_theory_side_raise_exits_2(capsys, request, argv, plant, reason):
    request.getfixturevalue(plant)
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err == f"verification failure: {reason}\n"


def test_census_disagreement_exits_2(capsys, off_formula, tmp_path):
    code, out, err = run(capsys, "census", "--fields", "5", "--nmax", "1")
    assert (code, err) == (2, "")
    assert '"agreement": false' in out
    rows = json.loads(out)["payload"]["rows"]
    assert len(rows) == 4 and all(row["agreement"] is False for row in rows)
    code, out, err = run(capsys, "census", "--fields", "5", "--nmax", "1",
                         "--out", str(tmp_path / "rows.csv"))
    assert (code, err) == (2, "")
    assert json.loads(out)["payload"]["all_agree"] is False


def test_verification_error_exits_2(capsys, monkeypatch):
    # invtransform checks its answer by transforming it back; a transform
    # that returns its input fails that round trip
    F5 = Field(5)
    f = recip.quadratic_transform(Poly(F5, (1, 1, 1)), F5.element(2)).to_string()
    monkeypatch.setattr(recip, "quadratic_transform", lambda g, a: g)
    code, out, err = run(capsys, "invtransform", "--field", "5", "--a", "2", "--poly", f)
    assert (code, out) == (2, "")
    assert err == "verification failure: quadratic transform round trip failed\n"
