"""Command-line surface: moments, poly, verify.

Output is machine-readable (json default, csv, or pretty text) and
reproducible: the same flags, precision and seed give byte-identical
output. Exit codes: 0 success, 2 usage/config error, 3 numeric failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from decimal import Decimal
from fractions import Fraction

from .errors import (
    ConfigurationError,
    DegenerateDegreeError,
    InconsistentPatternError,
    InsufficientMomentsError,
    IntegrabilityError,
    NormalizationError,
    OrthoieqError,
    QuadratureError,
    SingularHankelError,
    SingularSystemError,
    WeightSyntaxError,
)
from .hankel import hankel_condition, normalization, solve_polynomial
from .moments import moments
from .numeric import DEFAULT_PRECISION, PrecisionContext, Scalar
from .polynomials import Polynomial
from .variants import (
    Additive,
    Functional,
    LinearShift,
    Multiplicative,
    check_arbitrary_f,
    enumerate_multiplicative,
    moment_conditions,
    parity_pattern,
    solve_functional,
    solve_linear_shift,
    solve_multiplicative,
    verify,
)
from .weights import PRESETS, Interval, contour_weight, normalize, parse_weight, preset_weight

_NUMERIC_ERRORS = (
    SingularHankelError,
    SingularSystemError,
    DegenerateDegreeError,
    QuadratureError,
    NormalizationError,
    IntegrabilityError,
    InsufficientMomentsError,
    InconsistentPatternError,
    ZeroDivisionError,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4


# ---------------------------------------------------------------------------
# scalar serialization


def scalar_json(s: Scalar, context: PrecisionContext):
    if s.is_rational():
        f = s.as_fraction()  # str(int) and int(str) stop at 4300 digits; decimal does not
        return {"num": str(Decimal(f.numerator)), "den": str(Decimal(f.denominator))}
    re, im = s.real_imag(context.precision)
    mp = context.mp
    return {"re": _decimal(re, mp, context.precision), "im": _decimal(im, mp, context.precision)}


def _decimal(x, mp, digits):
    if x == 0:
        x = abs(x)  # normalize -0
    return mp.nstr(mp.mpf(x), digits)


def scalar_from_json(obj, mode: str, context: PrecisionContext) -> Scalar:
    """A coefficient as scalar_json writes it: {"num", "den"} signed digit
    strings or {"re", "im"} numbers, a real float when im is zero. Anything
    else raises ConfigurationError."""
    if isinstance(obj, dict) and "num" in obj:
        num, den = _json_integer(obj, "num"), _json_integer(obj, "den")
        if not den:
            raise ConfigurationError(f"coefficient {obj!r} has a zero denominator")
        value = Scalar.exact(Fraction(num, den))
        return value if mode == "exact" else value.to_float(context)
    mp = context.mp
    try:
        re, im = mp.mpf(obj["re"]), mp.mpf(obj["im"])
        return Scalar(mp.mpc(re, im) if im else re, context.precision)
    except (KeyError, TypeError, ValueError):
        raise ConfigurationError(
            f'coefficient {obj!r} is neither {{"num", "den"}} digit strings '
            'nor {"re", "im"} numbers'
        ) from None


def _json_integer(obj, key):
    text = obj.get(key)
    if not isinstance(text, str) or not re.fullmatch(r"[+-]?[0-9]+", text):
        raise ConfigurationError(f"coefficient {key} must be a signed digit string, got {text!r}")
    return int(Decimal(text))  # int(str) stops at 4300 digits; decimal does not


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthoieq",
        description="Polynomial solutions of nonlinear integral equations, from weight moments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        group = p.add_argument_group("weight")
        group.add_argument("--preset", choices=sorted(PRESETS))
        group.add_argument("--gamma", help="laguerre parameter (rational, e.g. 5/2 or 2.5)")
        group.add_argument("--p", help="jacobi parameter p")
        group.add_argument("--q", help="jacobi parameter q")
        group.add_argument("--expr", help="weight expression, e.g. 'exp(-x)'")
        group.add_argument("--interval", nargs=2, metavar=("ALPHA", "BETA"),
                           help="interval endpoints; inf / -inf allowed")
        group.add_argument("--contour", action="store_true",
                           help="complex contour weight 1/(i pi (2k+1) x) from -1 to 1")
        group.add_argument("--winding", type=int, default=0, help="contour winding number k")
        num = p.add_argument_group("numerics")
        num.add_argument("--mode", choices=["float", "exact"], default="float")
        num.add_argument("--precision", type=int,
                         default=int(os.environ.get("ORTHOIEQ_PRECISION", DEFAULT_PRECISION)))
        num.add_argument("--format", choices=["json", "csv", "pretty"], default="json")
        num.add_argument("--seed", type=int, default=0, help="seed for verification samples")

    p_m = sub.add_parser("moments", help="moment sequence of a weight")
    add_common(p_m)
    p_m.add_argument("--count", type=int, required=True, help="number of moments m_0..m_(count-1)")
    p_m.add_argument("--method", choices=["auto", "quadrature"], default="auto")

    p_p = sub.add_parser("poly", help="degree-n polynomial solution(s)")
    add_common(p_p)
    p_p.add_argument("-n", "--degree", type=int)
    p_p.add_argument("--degrees", help="range A:B, one record per degree")
    p_p.add_argument("--variant",
                     choices=["additive", "multiplicative", "shift", "functional"],
                     default="additive")
    p_p.add_argument("--pattern", help="multiplicative support indices below n, e.g. '0,2'")
    p_p.add_argument("--enumerate", action="store_true", dest="enumerate_patterns",
                     help="try all 2^n multiplicative patterns")
    p_p.add_argument("--parity", action="store_true",
                     help="multiplicative definite-parity pattern n-2, n-4, ...")
    p_p.add_argument("--a", help="shift offset a (rational)")
    p_p.add_argument("--b", help="shift slope b (rational, nonzero)")
    p_p.add_argument("--f", help="functional argument f(x), e.g. 'x^2'")
    p_p.add_argument("--max-degree", type=int, default=10,
                     help="refuse degrees above this without a higher --precision")

    p_v = sub.add_parser("verify", help="substitute a polynomial file into an equation form")
    add_common(p_v)
    p_v.add_argument("--poly-file", required=True, help="polynomial JSON (a poly record works)")
    p_v.add_argument("--variant",
                     choices=["additive", "multiplicative", "shift", "functional", "arbitrary-f"],
                     default="additive")
    p_v.add_argument("--pattern", help="multiplicative support indices")
    p_v.add_argument("--a")
    p_v.add_argument("--b")
    p_v.add_argument("--f")
    return parser


def _rational(text, name):
    if text is None:
        raise ConfigurationError(f"missing required parameter --{name}")
    try:
        return Fraction(text)
    except ValueError:
        raise ConfigurationError(f"--{name} must be rational, got {text.strip()!r}") from None


def weight_from_args(args, context):
    chosen = [bool(args.preset), bool(args.expr), bool(args.contour)]
    if sum(chosen) != 1:
        raise ConfigurationError("choose exactly one of --preset, --expr, --contour")
    if args.contour:
        return contour_weight(args.winding)
    if args.preset:
        takes = PRESETS[args.preset].params
        stray = [f"--{k}" for k in ("gamma", "p", "q") if getattr(args, k) is not None
                 and k not in takes]
        if stray:
            named = ", ".join(f"--{k}" for k in takes) or "no parameters"
            raise ConfigurationError(
                f"preset {args.preset} takes {named}, not {', '.join(stray)}"
            )
        params = {k: _rational(getattr(args, k), k) for k in takes}
        return preset_weight(args.preset, **params)
    if not args.interval:
        raise ConfigurationError("--expr needs --interval ALPHA BETA")
    interval = Interval(args.interval[0], args.interval[1])
    return normalize(parse_weight(args.expr, interval), context)


# ---------------------------------------------------------------------------
# output


def emit(records, fmt, context, stream=None):
    stream = stream or sys.stdout
    if fmt == "json":
        for record in records:
            stream.write(json.dumps(record, separators=(", ", ": ")) + "\n")
    elif fmt == "csv":
        import csv  # deferred: only csv output needs it

        csv.writer(stream, lineterminator="\n").writerows(_csv_rows(records))
    else:
        for record in records:
            stream.write(_pretty_block(record, context) + "\n")


def _csv_rows(records):
    rows = []
    for record in records:
        if "moments" in record:
            rows.append(["index", "re_or_num", "im_or_den", "error_estimate"])
            ests = record.get("error_estimates") or [None] * len(record["moments"])
            for i, (mval, e) in enumerate(zip(record["moments"], ests)):
                rows.append([i, *_scalar_cols(mval), _scalar_cols(e)[0]])
        elif "coefficients" in record:
            rows.append(["power", "re_or_num", "im_or_den"])
            for k, c in enumerate(record["coefficients"]):
                rows.append([k, *_scalar_cols(c)])
        else:
            keys = sorted(record)
            rows.append(keys)
            # a nested field is one compact JSON field; csv quotes what needs it
            rows.append([json.dumps(record[k], separators=(",", ":"))
                         if isinstance(record[k], (dict, list)) else str(record[k])
                         for k in keys])
    return rows


def _scalar_cols(obj):
    if obj is None:
        return "", ""
    if "num" in obj:
        return obj["num"], obj["den"]
    return obj["re"], obj["im"]


def _pretty_block(record, context):
    lines = []
    if "moments" in record:
        lines.append(f"moments of {record['weight']} ({record['source']}):")
        for i, mval in enumerate(record["moments"]):
            lines.append(f"  m_{i} = {_pretty_scalar(mval)}")
    elif "coefficients" in record:
        lines.append(f"degree {record['degree']} on {record['weight']} [{record['variant']}]:")
        lines.append("  P(x) = " + _pretty_poly(record["coefficients"]))
        if "normalization" in record:
            lines.append(f"  G = {_pretty_scalar(record['normalization'])}")
        if "det_B" in record:
            lines.append(f"  det B = {_pretty_scalar(record['det_B'])} (valid: {record['valid']})")
        if "verification" in record:
            v = record["verification"]
            lines.append(f"  verify[{v['form']}]: pass={v['pass']} max_residual={v['max_residual']}")
    else:
        lines.append(json.dumps(record, separators=(", ", ": ")))
    return "\n".join(lines)


def _pretty_scalar(obj):
    if "num" in obj:
        return obj["num"] if obj["den"] == "1" else f"{obj['num']}/{obj['den']}"
    re, im = obj["re"], obj["im"]
    re6 = _six(re)
    if _is_zero_str(im):
        return re6
    return f"{re6} + {_six(im)}i" if not im.startswith("-") else f"{re6} - {_six(im[1:])}i"


def _six(decimal_str):
    # shorten a decimal string to ~6 significant digits for display
    from .numeric import mp_context

    mp = mp_context(30)
    return mp.nstr(mp.mpf(decimal_str), 6)


def _is_zero_str(s):
    return set(s) <= set("0.-+e")


def _pretty_poly(coeff_objs):
    parts = []
    for k in range(len(coeff_objs) - 1, -1, -1):
        c = _pretty_scalar(coeff_objs[k])
        if k == 0:
            parts.append(f"({c})")
        elif k == 1:
            parts.append(f"({c})*x")
        else:
            parts.append(f"({c})*x^{k}")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# commands


def cmd_moments(args, context) -> int:
    w = weight_from_args(args, context)
    if args.count < 1:
        raise ConfigurationError("--count must be at least 1")
    seq = moments(w, args.count, mode=args.mode, context=context, method=args.method)
    record = {
        "command": "moments",
        "weight": w.weight_id,
        "mode": args.mode,
        "precision": context.precision,
        "count": args.count,
        "source": seq.source,
        "moments": [scalar_json(v, context) for v in seq.values],
    }
    if seq.error_estimates is not None:
        record["error_estimates"] = [scalar_json(e, context) for e in seq.error_estimates]
    emit([record], args.format, context)
    return EXIT_OK


def _degree_list(args):
    if args.degrees:
        lo, _, hi = args.degrees.partition(":")
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError:
            raise ConfigurationError(f"--degrees expects A:B, got {args.degrees!r}") from None
        if lo_i < 0 or hi_i < lo_i:
            raise ConfigurationError(f"bad degree range {args.degrees!r}")
        return list(range(lo_i, hi_i + 1))
    if args.degree is None:
        raise ConfigurationError("give -n DEGREE or --degrees A:B")
    if args.degree < 0:
        raise ConfigurationError("degree must be nonnegative")
    return [args.degree]


def cmd_poly(args, context) -> int:
    degrees = _degree_list(args)
    nmax = max(degrees)
    if nmax > args.max_degree:
        raise ConfigurationError(
            f"degree {nmax} exceeds --max-degree {args.max_degree}; raise --precision "
            f"and --max-degree together (Hankel systems lose digits with degree)"
        )
    if args.enumerate_patterns and nmax > 12:
        raise ConfigurationError("--enumerate is capped at n <= 12 (4096 patterns)")
    w = weight_from_args(args, context)
    need = 2 * nmax + 2
    if args.variant == "functional":
        seq = None
    else:
        seq = moments(w, need, mode=args.mode, context=context)
    records = []
    for n in degrees:
        records.append(_poly_record(args, context, w, seq, n))
    emit(records, args.format, context)
    return EXIT_OK


def _poly_record(args, context, w, seq, n):
    record = {
        "command": "poly",
        "weight": w.weight_id,
        "mode": args.mode,
        "precision": context.precision,
        "degree": n,
        "variant": args.variant,
        "seed": args.seed,
    }
    if args.variant == "multiplicative" and args.enumerate_patterns:
        candidates, distinct = enumerate_multiplicative(seq, n, context=context)
        record["patterns"] = [
            {
                "pattern": sorted(c.pattern),
                "ok": c.succeeded,
                **(
                    {"coefficients": [scalar_json(x, context) for x in c.polynomial.coeffs]}
                    if c.succeeded
                    else {"error": c.failure}
                ),
            }
            for c in candidates
        ]
        record["distinct_solutions"] = distinct
        return record
    form = _form_from_args(args, n)
    if isinstance(form, Additive):
        P = solve_polynomial(seq, n, context=context)
    elif isinstance(form, LinearShift):
        P = solve_linear_shift(seq, n, form.a, form.b, context=context)
        record["a"] = scalar_json(form.a, context)
        record["b"] = scalar_json(form.b, context)
        record["complex_shift"] = False
    elif isinstance(form, Multiplicative):
        P = solve_multiplicative(seq, n, form.pattern, context=context)
        record["pattern"] = sorted(form.pattern)
    else:
        P = solve_functional(w, form.f, n, context=context, mode=args.mode)
        record["f"] = args.f
    record["coefficients"] = [scalar_json(c, context) for c in P.coeffs]
    if isinstance(form, Additive):
        record["normalization"] = scalar_json(normalization(seq, n, context=context), context)
    if isinstance(form, (Additive, LinearShift)):
        det, valid = hankel_condition(seq, n, context=context)
        record["det_B"] = scalar_json(det, context)
        record["valid"] = bool(valid)
    record["verification"] = _verification_summary(P, w, form, args, context, seq)
    return record


def _form_from_args(args, degree):
    """The equation form named by --variant and its flags. A multiplicative
    pattern comes from --parity (poly only), else --pattern, else is full."""
    if args.variant == "additive":
        return Additive()
    if args.variant == "shift":
        return LinearShift(Scalar.exact(_rational(args.a, "a")),
                           Scalar.exact(_rational(args.b, "b")))
    if args.variant == "multiplicative":
        if getattr(args, "parity", False):
            return Multiplicative(parity_pattern(degree))
        if args.pattern is None:
            return Multiplicative(frozenset(range(degree)))
        try:
            pattern = frozenset(int(t) for t in args.pattern.split(",") if t.strip() != "")
        except ValueError:
            raise ConfigurationError(
                f"--pattern expects comma-separated integers, got {args.pattern!r}"
            ) from None
        return Multiplicative(pattern)
    if not args.f:
        raise ConfigurationError("--variant functional needs --f EXPR")
    return Functional(args.f)


def _verification_summary(P, w, form, args, context, seq):
    if w.is_contour:
        name = "moment-conditions"
        worst, ok = moment_conditions(P, w, form, mode=args.mode, context=context,
                                      moment_seq=seq)
    else:
        report = verify(
            P, w, form, mode=args.mode, context=context, seed=args.seed, moment_seq=seq
        )
        name, worst, ok = form.name, report.max_residual, report.passed
    mp = context.mp
    return {"form": name, "max_residual": mp.nstr(mp.mpf(worst.magnitude()), 3), "pass": bool(ok)}


def cmd_verify(args, context) -> int:
    w = weight_from_args(args, context)
    with open(args.poly_file, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "coefficients" not in data:
        raise ConfigurationError(
            f'{args.poly_file}: a poly file needs a "coefficients" field '
            "(a bare list of coefficients is accepted too)"
        )
    coeff_objs = data["coefficients"] if isinstance(data, dict) else data
    coeffs = [scalar_from_json(c, args.mode, context) for c in coeff_objs]
    P = Polynomial(coeffs)

    if args.variant == "arbitrary-f":
        if not args.f:
            raise ConfigurationError("--variant arbitrary-f needs --f EXPR")
        report = check_arbitrary_f(P, args.f, w, context=context, mode=args.mode)
        record = {
            "command": "verify",
            "weight": w.weight_id,
            "variant": "arbitrary-f",
            "f": args.f,
            "values": [scalar_json(v, context) for v in report.values],
            "max_deviation": scalar_json(report.max_deviation, context),
            "pass": bool(report.passed),
        }
        emit([record], args.format, context)
        return EXIT_OK if report.passed else EXIT_VERIFY

    form = _form_from_args(args, P.degree)
    report = verify(P, w, form, mode=args.mode, context=context, seed=args.seed)
    record = {
        "command": "verify",
        "weight": w.weight_id,
        "variant": args.variant,
        "seed": args.seed,
        "max_residual": scalar_json(report.max_residual, context),
        "quadrature_error_bound": scalar_json(report.quadrature_error_bound, context),
        "residuals": [scalar_json(r, context) for r in report.residuals],
        "pass": bool(report.passed),
    }
    if isinstance(form, LinearShift):
        record["complex_shift"] = bool(report.complex_shift)
    emit([record], args.format, context)
    return EXIT_OK if report.passed else EXIT_VERIFY


_SIGNED_FLAGS = {"--interval": 2, "--a": 1, "--b": 1, "--gamma": 1, "--p": 1, "--q": 1}
_SIGNED = re.compile(r"-([\d.]|(inf|oo)$)")


def _signed_values(argv):
    """argparse reads a bare -1/3 or -inf as an option flag; a leading space
    keeps each signed value of a flag that takes a number a value (Fraction
    and Interval strip it). An option token after the flag stays an option."""
    argv = list(sys.argv[1:] if argv is None else argv)
    for i, token in enumerate(argv):
        for j in range(i + 1, i + 1 + _SIGNED_FLAGS.get(token, 0)):
            if j < len(argv) and _SIGNED.match(argv[j]):
                argv[j] = " " + argv[j]
    return argv


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_signed_values(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        context = PrecisionContext(args.precision)
        if args.command == "moments":
            return cmd_moments(args, context)
        if args.command == "poly":
            return cmd_poly(args, context)
        return cmd_verify(args, context)
    except (ConfigurationError, WeightSyntaxError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OrthoieqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
