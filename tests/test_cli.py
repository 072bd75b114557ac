import csv
import io
import json
from fractions import Fraction

import mpmath

import pytest

from orthoieq import (
    Additive,
    Functional,
    Multiplicative,
    Polynomial,
    PrecisionContext,
    Scalar,
    contour_weight,
    moments,
    preset_weight,
    solve_functional,
    solve_polynomial,
    verify,
)
from orthoieq.cli import (
    _form_from_args,
    _verification_summary,
    build_parser,
    main,
    scalar_from_json,
    scalar_json,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def first_record(stdout):
    return json.loads(stdout.splitlines()[0])


def as_float(obj):
    if "num" in obj:
        return float(Fraction(int(obj["num"]), int(obj["den"])))
    return complex(float(mpmath.mpf(obj["re"])), float(mpmath.mpf(obj["im"])))


class TestMomentsCommand:
    def test_laguerre_exact_factorials(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--preset", "laguerre", "--gamma", "1",
            "--count", "5", "--mode", "exact",
        )
        assert code == 0
        record = first_record(out)
        assert record["source"] == "analytic"
        values = [Fraction(int(v["num"]), int(v["den"])) for v in record["moments"]]
        assert values == [1, 1, 2, 6, 24]

    def test_contour_complex_entries(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--contour", "--winding", "0", "--count", "4",
        )
        assert code == 0
        record = first_record(out)
        got = [as_float(v) for v in record["moments"]]
        two_over_pi = 2 / 3.14159265358979
        assert abs(got[0] - 1) < 1e-12
        assert abs(got[1] - complex(0, -two_over_pi)) < 1e-10
        assert abs(got[2]) < 1e-12
        assert abs(got[3] - complex(0, -two_over_pi / 3)) < 1e-10

    def test_expression_weight_quadrature(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--expr", "exp(-x)", "--interval", "0", "inf",
            "--count", "3",
        )
        assert code == 0
        record = first_record(out)
        assert record["source"] == "quadrature"
        values = [as_float(v) for v in record["moments"]]
        for got, want in zip(values, (1, 1, 2)):
            assert abs(got - want) < 1e-12
        mp50 = mpmath.mp
        for got, want in zip(record["moments"], (1, 1, 2)):
            assert abs(mpmath.mpf(got["re"]) - want) < mpmath.mpf(10) ** -40

    @pytest.mark.parametrize("lower", ["-inf", "-oo"])
    def test_bare_negative_infinity_endpoint(self, capsys, lower):
        # argparse would read a bare -inf as an option; it must match the spaced form
        bare = run_cli(capsys, "moments", "--expr", "exp(x)", "--interval", lower, "0",
                       "--count", "3")
        spaced = run_cli(capsys, "moments", "--expr", "exp(x)", "--interval", " -inf", "0",
                         "--count", "3")
        assert bare[0] == 0
        assert bare == spaced


class TestPolyCommand:
    def test_laguerre_degree_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "poly", "--preset", "laguerre", "--gamma", "1", "-n", "1",
            "--mode", "exact",
        )
        assert code == 0
        record = first_record(out)
        coeffs = [Fraction(int(c["num"]), int(c["den"])) for c in record["coefficients"]]
        assert coeffs == [2, -1]
        G = Fraction(int(record["normalization"]["num"]), int(record["normalization"]["den"]))
        assert G == 2
        assert record["valid"] is True
        assert record["verification"]["pass"] is True

    def test_contour_degree_two(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--contour", "-n", "2")
        assert code == 0
        record = first_record(out)
        coeffs = [as_float(c) for c in record["coefficients"]]
        assert abs(coeffs[0] - 1) < 1e-12
        assert abs(coeffs[1]) < 1e-12
        assert abs(coeffs[2] + 3) < 1e-12

    def test_shift_one_minus_recovers_multiplicative(self, capsys):
        _, out_shift, _ = run_cli(
            capsys, "poly", "--preset", "jacobi-mult", "--p", "2", "--q", "1",
            "-n", "1", "--variant", "shift", "--a", "1", "--b", "-1", "--mode", "exact",
        )
        _, out_mult, _ = run_cli(
            capsys, "poly", "--preset", "jacobi-mult", "--p", "2", "--q", "1",
            "-n", "1", "--variant", "multiplicative", "--mode", "exact",
        )
        shift = first_record(out_shift)
        mult = first_record(out_mult)
        assert shift["coefficients"] == mult["coefficients"]

    def test_degree_range_streams_records(self, capsys):
        code, out, _ = run_cli(
            capsys, "poly", "--preset", "chebyshev-u2-add", "--degrees", "0:3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert [json.loads(line)["degree"] for line in lines] == [0, 1, 2, 3]

    def test_enumerate_eight_patterns(self, capsys):
        code, out, _ = run_cli(
            capsys, "poly", "--preset", "jacobi-mult", "--p", "2", "--q", "1",
            "-n", "3", "--variant", "multiplicative", "--enumerate", "--mode", "exact",
        )
        assert code == 0
        record = first_record(out)
        assert len(record["patterns"]) == 8

    def test_functional_variant(self, capsys):
        code, out, _ = run_cli(
            capsys, "poly", "--preset", "laguerre", "--gamma", "1", "-n", "1",
            "--variant", "functional", "--f", "x^2", "--mode", "exact",
        )
        assert code == 0
        record = first_record(out)
        coeffs = [Fraction(int(c["num"]), int(c["den"])) for c in record["coefficients"]]
        assert coeffs == [Fraction(3, 2), Fraction(-1, 2)]

    def test_max_degree_guard(self, capsys):
        code, _, err = run_cli(
            capsys, "poly", "--preset", "laguerre", "--gamma", "1", "-n", "11",
        )
        assert code == 2
        assert "max-degree" in err


class TestVerifyCommand:
    def test_round_trip_pass(self, capsys, tmp_path):
        _, out, _ = run_cli(
            capsys, "poly", "--preset", "laguerre", "--gamma", "1", "-n", "2",
        )
        poly_file = tmp_path / "p2.json"
        poly_file.write_text(out.splitlines()[0])
        code, out2, _ = run_cli(
            capsys, "verify", "--preset", "laguerre", "--gamma", "1",
            "--poly-file", str(poly_file),
        )
        assert code == 0
        assert first_record(out2)["pass"] is True

    def test_perturbed_coefficient_fails(self, capsys, tmp_path):
        _, out, _ = run_cli(
            capsys, "poly", "--preset", "laguerre", "--gamma", "1", "-n", "2",
        )
        record = first_record(out)
        record["coefficients"][0]["re"] = "3.1"
        poly_file = tmp_path / "bad.json"
        poly_file.write_text(json.dumps(record))
        code, out2, _ = run_cli(
            capsys, "verify", "--preset", "laguerre", "--gamma", "1",
            "--poly-file", str(poly_file),
        )
        assert code == 4
        assert first_record(out2)["pass"] is False

    def test_float_record_gives_the_in_process_residuals(self, capsys, tmp_path):
        # a float record's coefficients are real: read back, they take the
        # exact-residual route of the float verify that solved them
        weight = ["--preset", "jacobi-add", "--p", "3", "--q", "2"]
        _, out, _ = run_cli(capsys, "poly", *weight, "-n", "8")
        poly_file = tmp_path / "add8.json"
        poly_file.write_text(out.splitlines()[0])
        code, out2, _ = run_cli(capsys, "verify", *weight, "--poly-file", str(poly_file))
        ctx = PrecisionContext(50)
        w = preset_weight("jacobi-add", p=3, q=2)
        P = solve_polynomial(moments(w, 17, context=ctx), 8, context=ctx)
        report = verify(P, w, Additive(), context=ctx)
        record = first_record(out2)
        assert record["residuals"] == [scalar_json(r, ctx) for r in report.residuals]
        assert record["pass"] is report.passed is True and code == 0

    def test_arbitrary_f_identity(self, capsys, tmp_path):
        _, out, _ = run_cli(
            capsys, "poly", "--preset", "laguerre", "--gamma", "1", "-n", "1",
            "--mode", "exact",
        )
        poly_file = tmp_path / "p1.json"
        poly_file.write_text(out.splitlines()[0])
        code, out2, _ = run_cli(
            capsys, "verify", "--preset", "laguerre", "--gamma", "1",
            "--poly-file", str(poly_file), "--variant", "arbitrary-f", "--f", "x",
            "--mode", "exact",
        )
        assert code == 0
        assert first_record(out2)["pass"] is True


class TestExitCodesAndReproducibility:
    def test_config_error_is_2(self, capsys):
        code, _, err = run_cli(
            capsys, "moments", "--preset", "laguerre", "--gamma", "0.5", "--count", "3",
        )
        assert code == 2

    def test_usage_error_is_2(self, capsys):
        assert main(["moments"]) == 2  # no weight chosen

    def test_malformed_interval_endpoint_is_2(self, capsys):
        code, out, err = run_cli(
            capsys, "moments", "--expr", "1", "--interval", "1x", "2", "--count", "2",
        )
        assert (code, out) == (2, "")
        assert err == ("error: interval endpoint '1x' is not a number "
                       "(int, Fraction, decimal string, inf or -inf)\n")

    @pytest.mark.parametrize("record", [{"coeffs": []}, {"command": "poly"}])
    def test_poly_file_without_coefficients_is_2(self, capsys, tmp_path, record):
        poly_file = tmp_path / "p.json"
        poly_file.write_text(json.dumps(record))
        code, out, err = run_cli(
            capsys, "verify", "--preset", "laguerre", "--gamma", "1",
            "--poly-file", str(poly_file),
        )
        assert (code, out) == (2, "")
        assert err == (f'error: {poly_file}: a poly file needs a "coefficients" field '
                       "(a bare list of coefficients is accepted too)\n")

    @pytest.mark.parametrize("flags,message", [
        (["--preset", "chebyshev-u2-add", "--gamma", "3", "-n", "1"],
         "preset chebyshev-u2-add takes no parameters, not --gamma"),
        (["--preset", "laguerre", "--gamma", "1", "--p", "3", "-n", "1", "--mode", "exact"],
         "preset laguerre takes --gamma, not --p"),
    ])
    def test_stray_preset_parameter_is_2(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "poly", *flags)
        assert code == 2
        assert out == ""
        assert message in err

    def test_low_precision_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "moments", "--preset", "laguerre", "--gamma", "1",
            "--count", "3", "--precision", "8",
        )
        assert code == 2

    def test_numeric_error_is_3(self, capsys):
        code, _, err = run_cli(
            capsys, "moments", "--expr", "2", "--interval", "0", "inf", "--count", "3",
        )
        assert code == 3
        assert "divergent" in err or "failure" in err

    def test_closed_form_table_at_low_precision_is_exact_rounded_once(self, capsys):
        # the float elimination of the rounded moments collapses at p=20, but
        # the closed-form table is judged and normalized on its exact values
        argv = ["poly", "--preset", "laguerre", "--gamma", "1", "-n", "6"]
        code, out, err = run_cli(capsys, *argv, "--precision", "20")
        assert code == 0, err
        record = first_record(out)
        assert record["normalization"] == {"re": "7.0", "im": "0.0"}
        assert record["det_B"] == {"re": "619173642240000.0", "im": "0.0"}
        assert record["valid"] is True
        assert record["verification"]["pass"] is True
        _, out, _ = run_cli(capsys, *argv, "--mode", "exact")
        exact = first_record(out)
        assert exact["normalization"] == {"num": "7", "den": "1"}
        assert exact["det_B"] == {"num": "619173642240000", "den": "1"}

    def test_byte_identical_output(self, capsys):
        argv = [
            "poly", "--preset", "chebyshev-u2-add", "--degrees", "0:4", "--seed", "7",
        ]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_env_precision_override(self, capsys, monkeypatch):
        monkeypatch.setenv("ORTHOIEQ_PRECISION", "30")
        code, out, _ = run_cli(
            capsys, "moments", "--preset", "laguerre", "--gamma", "1", "--count", "2",
        )
        assert code == 0
        assert first_record(out)["precision"] == 30

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--preset", "laguerre", "--gamma", "1",
            "--count", "3", "--mode", "exact", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,re_or_num,im_or_den,error_estimate"
        assert lines[1].startswith("0,1,1")

    def test_pretty_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "poly", "--preset", "laguerre", "--gamma", "1", "-n", "1",
            "--format", "pretty",
        )
        assert code == 0
        assert "P(x) =" in out


class TestSharedFormParser:
    WEIGHT = ["--preset", "laguerre", "--gamma", "1"]

    @pytest.mark.parametrize("flags,message", [
        (["--variant", "shift", "--a", "1"], "error: missing required parameter --b\n"),
        (["--variant", "functional"], "error: --variant functional needs --f EXPR\n"),
        (["--variant", "shift", "--a", "1", "--b", "0"], "error: linear shift requires b != 0\n"),
        (["--variant", "multiplicative", "--pattern=-1"],
         "error: pattern indices must be nonnegative\n"),
        (["--variant", "multiplicative", "--pattern", "a"],
         "error: --pattern expects comma-separated integers, got 'a'\n"),
        (["--variant", "multiplicative", "--pattern", "0,1.5"],
         "error: --pattern expects comma-separated integers, got '0,1.5'\n"),
    ], ids=["missing-b", "missing-f", "b-zero", "negative-pattern", "letter-pattern",
            "decimal-pattern"])
    def test_poly_and_verify_report_the_same_error(self, capsys, tmp_path, flags, message):
        poly_file = tmp_path / "poly.json"
        poly_file.write_text('[{"num": "-1", "den": "1"}, {"num": "1", "den": "1"}]')
        poly = run_cli(capsys, "poly", *self.WEIGHT, "-n", "1", "--mode", "exact", *flags)
        check = run_cli(capsys, "verify", *self.WEIGHT, "--poly-file", str(poly_file),
                        "--mode", "exact", *flags)
        assert poly == check == (2, "", message)

    @pytest.mark.parametrize("command", ["poly", "verify"])
    def test_multiplicative_defaults_to_the_full_pattern(self, command):
        argv = [command, *self.WEIGHT, "--variant", "multiplicative"]
        argv += ["-n", "3"] if command == "poly" else ["--poly-file", "unused.json"]
        args = build_parser().parse_args(argv)
        assert _form_from_args(args, 3) == Multiplicative(frozenset({0, 1, 2}))

    def test_functional_pole_is_a_numeric_failure(self, capsys):
        code, out, err = run_cli(
            capsys, "poly", "--expr", "x*(1-x)", "--interval", "0", "1", "-n", "1",
            "--variant", "functional", "--f", "1/(x-1/2)", "--precision", "30",
        )
        assert (code, out) == (3, "")
        assert err == (
            "numeric failure: generalized moment <f^1 x^0> of expr[x*(1-x) on (0, 1)]: "
            "integration of x*(1-x) failed: ZeroDivisionError\n"
        )


class TestContourVerdict:
    """Contour solutions are judged on their moment conditions by the shared
    verdict rule: exact deviations must vanish, float ones stay within
    10^(10-p)."""

    def summary(self, coeffs, mode):
        P = Polynomial([Fraction(c) for c in coeffs])
        args = build_parser().parse_args(["poly", "--contour", "-n", "2", "--mode", mode])
        return _verification_summary(P, contour_weight(0), Additive(), args,
                                     PrecisionContext(50), None)

    def test_the_solution_passes(self):
        assert self.summary([1, 0, -3], "exact") == {
            "form": "moment-conditions", "max_residual": "0.0", "pass": True}
        assert self.summary([1, 0, -3], "float")["pass"] is True

    def test_exact_mode_fails_any_nonzero_deviation(self):
        # <P> - 1 = 10^-60: far below 10^(10-p), but not zero
        summary = self.summary([1 + Fraction(1, 10**60), 0, -3], "exact")
        assert summary == {"form": "moment-conditions", "max_residual": "1.0e-60",
                           "pass": False}

    @pytest.mark.parametrize("offset,passed", [(Fraction(1, 10**60), True),
                                               (Fraction(1, 10**30), False)])
    def test_float_mode_keeps_its_threshold(self, offset, passed):
        summary = self.summary([1 + offset, 0, -3], "float")
        assert summary["pass"] is passed


class TestContourFunctionalCheck:
    """A contour functional solution is checked on its own conditions
    <f^k P> = delta_k0, not on the additive ones <x^k P> = delta_k0."""

    ARGV = ["poly", "--contour", "-n", "3", "--variant", "functional", "--f", "x^3+x",
            "--mode", "exact"]

    def test_the_solution_passes(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGV)
        assert code == 0
        record = first_record(out)
        assert record["mode"] == "exact"
        assert record["coefficients"][0] == {"num": "0", "den": "1"}
        assert record["verification"] == {"form": "moment-conditions", "max_residual": "0.0",
                                          "pass": True}

    def test_a_corrupted_coefficient_fails(self):
        w = contour_weight(0)
        P = solve_functional(w, "x^3+x", 3, mode="exact")
        coeffs = list(P.coeffs)
        coeffs[1] = coeffs[1] * (1 + Fraction(1, 10**40))
        args = build_parser().parse_args(self.ARGV)
        summary = _verification_summary(Polynomial(coeffs), w, Functional("x^3+x"), args,
                                        PrecisionContext(50), None)
        assert summary["form"] == "moment-conditions"
        assert summary["pass"] is False and summary["max_residual"] != "0.0"


class TestSignedValues:
    """A value such as -1/3 or -inf after --interval, --a, --b, --gamma, --p or
    --q is read as a value, as its --flag=value form is."""

    @pytest.mark.parametrize("bare,joined", [
        (["poly", "--preset", "jacobi-add", "--p", "3", "--q", "2", "-n", "5",
          "--variant", "shift", "--a", "-1/3", "--b", "1/2", "--mode", "exact"],
         ["poly", "--preset", "jacobi-add", "--p", "3", "--q", "2", "-n", "5",
          "--variant", "shift", "--a=-1/3", "--b", "1/2", "--mode", "exact"]),
        (["moments", "--expr", "1+x", "--interval", "-1/2", "1/2", "--count", "3"],
         ["moments", "--expr", "1+x", "--interval", " -1/2", "1/2", "--count", "3"]),
        (["poly", "--preset", "laguerre", "--gamma", "-1/2", "-n", "1"],
         ["poly", "--preset", "laguerre", "--gamma=-1/2", "-n", "1"]),
        (["poly", "--preset", "jacobi-mult", "--p", "2", "--q", "1", "-n", "1",
          "--variant", "shift", "--a", "1", "--b", "-.5", "--mode", "exact"],
         ["poly", "--preset", "jacobi-mult", "--p", "2", "--q", "1", "-n", "1",
          "--variant", "shift", "--a", "1", "--b=-.5", "--mode", "exact"]),
    ], ids=["shift-a", "interval", "gamma", "decimal-b"])
    def test_bare_value_matches_joined_form(self, capsys, bare, joined):
        code, out, err = run_cli(capsys, *bare)
        assert (code, out, err) == run_cli(capsys, *joined)
        assert "expected" not in err

    def test_gamma_out_of_range_reaches_the_range_check(self, capsys):
        code, out, err = run_cli(capsys, "poly", "--preset", "laguerre", "--gamma", "-1/2",
                                 "-n", "1")
        assert (code, out) == (2, "")
        assert err == "error: laguerre requires gamma >= 1, got -1/2\n"

    def test_an_option_after_the_flag_stays_an_option(self, capsys):
        code, out, err = run_cli(capsys, "poly", "--preset", "laguerre", "--gamma", "-n", "1")
        assert (code, out) == (2, "")
        assert "argument --gamma: expected one argument" in err


def test_rationals_past_the_int_string_limit_round_trip(ctx50):
    """A 5000-digit numerator and denominator (Python caps str(int) and int(str)
    at 4300 digits by default, and det B_58 of laguerre(13/2) has 4308)."""
    num, den = -(10**4999 + 7), 2 * 10**4999 + 3  # coprime
    value = Scalar.exact(Fraction(num, den))
    obj = scalar_json(value, ctx50)
    assert obj == {"num": "-1" + "0" * 4998 + "7", "den": "2" + "0" * 4998 + "3"}
    assert json.loads(json.dumps(obj)) == obj
    back = scalar_from_json(obj, "exact", ctx50)
    assert back == value and back.value == Fraction(num, den)
    assert type(back.value) is Fraction and back.is_exact
    assert scalar_from_json(obj, "float", ctx50) == value.to_float(ctx50)


@pytest.mark.parametrize("coefficient,message", [
    ('{"num": "abc", "den": "1"}', "coefficient num must be a signed digit string, got 'abc'"),
    ('{"re": "x", "im": "0"}',
     """coefficient {'re': 'x', 'im': '0'} is neither {"num", "den"} digit strings """
     """nor {"re", "im"} numbers"""),
    ('{"num": "1", "den": "0"}', "coefficient {'num': '1', 'den': '0'} has a zero denominator"),
    ('{"num": "1e999999999", "den": "1"}',
     "coefficient num must be a signed digit string, got '1e999999999'"),
], ids=["letters", "non-number-re", "zero-den", "huge-exponent"])
def test_malformed_poly_file_numbers_exit_2(capsys, tmp_path, coefficient, message):
    """num and den are read as signed digit strings only, as scalar_json
    writes them: no traceback, no Fraction(1, 0), no 10^9-digit integer."""
    poly_file = tmp_path / "bad.json"
    poly_file.write_text(f"[{coefficient}]")
    code, out, err = run_cli(capsys, "verify", "--preset", "laguerre", "--gamma", "1",
                             "--poly-file", str(poly_file), "--mode", "exact")
    assert (code, out, err) == (2, "", f"error: {message}\n")


class TestOutputFormats:
    """Bytes of the csv and pretty formats for each kind of record."""

    def test_pretty_moments_record(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--preset", "laguerre", "--gamma", "1",
                               "--count", "3", "--mode", "exact", "--format", "pretty")
        assert code == 0
        assert out == ("moments of laguerre[gamma=1] (analytic):\n"
                       "  m_0 = 1\n  m_1 = 1\n  m_2 = 2\n")

    def test_pretty_exact_poly_record(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--preset", "laguerre", "--gamma", "3/2",
                               "-n", "2", "--mode", "exact", "--format", "pretty")
        assert code == 0
        assert out == (
            "degree 2 on laguerre[gamma=3/2] [additive]:\n"
            "  P(x) = (1/2)*x^2 + (-7/2)*x + (35/8)\n"
            "  G = 105/16\n"
            "  det B = 45/4 (valid: True)\n"
            "  verify[additive]: pass=True max_residual=0.0\n"
        )

    def test_pretty_float_contour_record(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--contour", "-n", "1", "--format", "pretty")
        assert code == 0
        assert out == (
            "degree 1 on contour[k=0] [additive]:\n"
            "  P(x) = (0.0 + 1.5708i)*x + (0.0)\n"
            "  G = 0.0 + 0.523599i\n"
            "  det B = 0.405285 (valid: True)\n"
            "  verify[moment-conditions]: pass=True max_residual=0.0\n"
        )

    def test_csv_coefficient_record(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--preset", "laguerre", "--gamma", "3/2",
                               "-n", "2", "--mode", "exact", "--format", "csv")
        assert code == 0
        assert out == "power,re_or_num,im_or_den\n0,35,8\n1,-7,2\n2,1,2\n"

    def _assert_csv_matches_json(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        record = first_record(out)
        csv_code, csv_out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert csv_code == code
        rows = list(csv.reader(io.StringIO(csv_out)))
        assert len(rows) == 2
        header, row = rows
        assert header == sorted(record) and len(row) == len(header)
        for key, field in zip(header, row):
            if isinstance(record[key], (dict, list)):
                assert json.loads(field) == record[key]
            else:
                assert field == str(record[key])

    def test_csv_nested_verify_record(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "poly", "--preset", "laguerre", "--gamma", "1", "-n", "2",
                            "--mode", "exact")
        poly_file = tmp_path / "p2.json"
        poly_file.write_text(out.splitlines()[0])
        self._assert_csv_matches_json(capsys, [
            "verify", "--preset", "laguerre", "--gamma", "1", "--poly-file", str(poly_file),
            "--mode", "exact",
        ])

    def test_csv_nested_enumerate_record(self, capsys):
        self._assert_csv_matches_json(capsys, [
            "poly", "--preset", "jacobi-mult", "--p", "2", "--q", "1", "-n", "2",
            "--variant", "multiplicative", "--enumerate", "--mode", "exact",
        ])


def test_exact_contour_multiplicative_meets_its_moment_conditions(capsys):
    code, out, _ = run_cli(capsys, "poly", "--contour", "-n", "2", "--variant",
                           "multiplicative", "--mode", "exact")
    assert code == 0
    record = first_record(out)
    assert record["pattern"] == [0, 1]
    assert record["coefficients"][0] == {"num": "-2", "den": "1"}
    assert record["verification"] == {"form": "moment-conditions", "max_residual": "0.0",
                                      "pass": True}
