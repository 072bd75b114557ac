"""cli-batch: sequential ``python -m orthoieq.cli`` subprocesses with light arguments.

Each case runs once per pass as a subprocess (the timed operation) and once
in-process through ``cli.main`` with stdout captured. Both must print the
same bytes as every earlier repeat of the case in the run, exit with the
expected code, and agree with the independent references. Each case's
stdout sha256 is compared with ``cli_hashes.json``; a changed hash prints a
notice but fails nothing, so a correctness fix never needs to edit the
benchmark.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

from orthoieq import cli

import refs
from harness import require

PRECISION = 50
TRUTH_DIGITS = PRECISION // 2
FAMILY = 4
"""Every parameter of the batch comes from index k in 0..FAMILY-1, so cli_hashes.json
can hold the hash of every case the benchmark can generate."""
GAMMAS = ["9/2", "11/2", "13/2", "15/2"]
Q_ADD = ["9/2", "11/2", "13/2", "15/2"]  # p = q + 1
Q_MULT = ["9/2", "11/2", "13/2", "15/2"]  # p = q + 1
SHIFT_A = ["9/2", "11/2", "13/2", "15/2"]
HERE = os.path.dirname(os.path.abspath(__file__))
HASH_FILE = os.path.join(HERE, "cli_hashes.json")
OUT_DIR = os.path.join(HERE, "out")


def family_index(seed: int) -> int:
    return random.Random(seed).randrange(FAMILY)


def plus_one(text: str) -> str:
    return str(Fraction(text) + 1)


class Case:
    def __init__(self, name, argv, exit_code, check=None):
        self.name, self.argv, self.exit_code, self.check = name, argv, exit_code, check

    @property
    def key(self):
        return " ".join(self.argv)


def records(stdout: bytes):
    return [json.loads(line) for line in stdout.decode().splitlines() if line.strip()]


def fraction(obj):
    require("num" in obj, f"expected an exact rational, got {obj}")
    return Fraction(int(obj["num"]), int(obj["den"]))


def ref_number(obj):
    if "num" in obj:
        return refs.to_ref(fraction(obj))
    return refs.REF.mpc(refs.REF.mpf(obj["re"]), refs.REF.mpf(obj["im"]))


def run_subprocess(argv, root, env):
    """(exit code, stdout bytes) of one `python -m orthoieq.cli` call."""
    proc = subprocess.run([sys.executable, "-m", "orthoieq.cli", *argv],
                          cwd=root, env=env, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout


def run_in_process(argv):
    """(exit code, stdout bytes, milliseconds) of cli.main(argv) with output captured."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode(), 1000 * (time.perf_counter() - start)


class Workload:
    def __init__(self, seed: int, size: str = "full"):
        self.k = family_index(seed)
        self.root = root = os.getcwd()
        self.small = size == "smoke"
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("ORTHOIEQ_PRECISION", None)
        os.makedirs(OUT_DIR, exist_ok=True)
        self.cases = self._cases()
        with open(HASH_FILE, encoding="utf-8") as fh:
            self.recorded = json.load(fh)
        self.seen = {}  # case key -> stdout bytes of its first run
        self.main_ms = []
        self.per_pass_ops = None

    def setup_code(self) -> str:
        """What a fresh interpreter runs for setup_s: import, parser, context, a first call."""
        return (
            "import contextlib, io\nimport orthoieq as oq\nfrom orthoieq import cli\n"
            "parser = cli.build_parser()\n"
            f"ctx = oq.with_precision({PRECISION})\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    cli.main(['moments', '--preset', 'laguerre', '--gamma', '{GAMMAS[self.k]}', "
            "'--count', '3'])\n"
        )

    def warm_up(self):
        """Each case once in-process, untimed, so no timed pass pays first-use costs."""
        for case in self.cases:
            run_in_process(case.argv)

    # -- the batch -----------------------------------------------------------

    def _cases(self):
        k = self.k
        gamma, q_add, q_mult, a = GAMMAS[k], Q_ADD[k], Q_MULT[k], SHIFT_A[k]
        p_add, p_mult = plus_one(q_add), plus_one(q_mult)
        top = 2 if self.small else 6
        lag = {"gamma": Fraction(gamma)}
        ref_poly = self._write_poly("laguerre", lag, top, f"laguerre-{k}.json", corrupt=False)
        bad_poly = self._write_poly("laguerre", lag, top, f"laguerre-{k}-corrupted.json",
                                    corrupt=True)
        exact = ["--mode", "exact"]
        lag_args = ["--preset", "laguerre", "--gamma", gamma]
        add_args = ["--preset", "jacobi-add", "--p", p_add, "--q", q_add]
        mult_args = ["--preset", "jacobi-mult", "--p", p_mult, "--q", q_mult]
        lag_m = refs.preset_moments("laguerre", lag, max(2 * top + 2, 8))
        add_m = refs.preset_moments("jacobi-add", {"p": p_add, "q": q_add}, 24)
        mult_m = refs.preset_moments("jacobi-mult", {"p": p_mult, "q": q_mult}, 12)
        cheb_m = refs.preset_moments("chebyshev-u2-add", {}, 2 * top + 2)
        cases = [
            Case("moments-exact", ["moments", *lag_args, "--count", "8", *exact], 0,
                 lambda h, out: self._exact_moments(h, out, lag_m[:8])),
            Case("moments-float", ["moments", *add_args, "--count", "8"], 0,
                 lambda h, out: self._float_moments(h, out, add_m[:8])),
            Case("moments-contour", ["moments", "--contour", "--count", "6", *exact], 0,
                 self._contour_moments),
            Case("moments-expr", ["moments", "--expr", "x^(1/2)*(1-x)", "--interval", "0", "1",
                                  "--count", "4"], 0, self._expr_moments),
            Case("poly-exact", ["poly", *lag_args, "--degrees", f"0:{top}", *exact], 0,
                 lambda h, out: self._exact_poly(h, out, lag_m)),
            Case("poly-float", ["poly", "--preset", "chebyshev-u2-add", "--degrees", f"0:{top}"],
                 0, lambda h, out: self._float_poly(h, out, cheb_m)),
            Case("poly-contour", ["poly", "--contour", "--degrees", f"0:{min(top, 4)}", *exact],
                 0, self._contour_poly),
            Case("poly-shift", ["poly", *add_args, "-n", "4", "--variant", "shift", "--a", a,
                                "--b", "2", *exact], 0,
                 lambda h, out: self._system_poly(h, out, refs.shift_rows(add_m, 4, Fraction(a),
                                                                    Fraction(2)))),
            Case("poly-functional", ["poly", *lag_args, "-n", "2", "--variant", "functional",
                                     "--f", "x^2", *exact], 0,
                 lambda h, out: self._system_poly(h, out, [[lag_m[2 * kk + j] for j in range(3)]
                                                     for kk in range(3)])),
            Case("poly-parity", ["poly", *mult_args, "-n", "4", "--variant", "multiplicative",
                                 "--parity", *exact], 0, lambda h, out: self._parity(h, out, mult_m)),
            Case("poly-enumerate", ["poly", *mult_args, "-n", "3", "--variant",
                                    "multiplicative", "--enumerate", *exact], 0,
                 lambda h, out: self._enumerate(h, out, mult_m, 3)),
            Case("poly-known-false-fail", ["poly", "--preset", "jacobi-add", "--p", "3", "--q",
                                           "2", "-n", "10"], 0, self._known_false_fail),
            Case("verify-pass", ["verify", *lag_args, "--poly-file", ref_poly, *exact], 0,
                 lambda h, out: self._verify(h, out, True)),
            Case("verify-corrupted", ["verify", *lag_args, "--poly-file", bad_poly, *exact], 4,
                 lambda h, out: self._verify(h, out, False)),
            Case("exit-config", ["poly", "--preset", "laguerre", "--degrees", "0:3"], 2),
            Case("exit-numeric", ["poly", "--preset", "uniform-symmetric", "-n", "3", *exact], 3),
        ]
        return cases

    def _write_poly(self, name, kw, n, filename, corrupt):
        """A poly file from the exact reference solution (optionally corrupted)."""
        coeffs = refs.hankel_solution(refs.preset_moments(name, kw, 2 * n + 1), n)
        if corrupt:
            coeffs = refs.corrupted(coeffs, random.Random(self.k).randrange(n + 1))
        path = os.path.join(OUT_DIR, filename)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"coefficients": [{"num": str(c.numerator), "den": str(c.denominator)}
                                        for c in coeffs]}, fh)
        return os.path.relpath(path, self.root)

    # -- one pass ------------------------------------------------------------

    def run_pass(self, h):
        before = h.attempted
        for case in self.cases:
            h.op(case.name, lambda case=case: run_subprocess(case.argv, self.root, self.env),
                 lambda result, case=case: self._check(h, case, *result))
        self.per_pass_ops = h.attempted - before

    def _check(self, h, case, code, stdout):
        require(code == case.exit_code, f"exit code {code}, expected {case.exit_code}")
        first = self.seen.setdefault(case.key, stdout)
        require(stdout == first, "stdout bytes differ from an earlier run of the same case")
        digest = hashlib.sha256(stdout).hexdigest()
        recorded = self.recorded.get(case.key)
        if recorded is None:
            h.notice(f"cli-hash-unrecorded: {case.name} ({case.key})")
        elif recorded != digest:
            h.notice(f"cli-hash-changed: {case.name} ({case.key})")
        in_code, in_stdout, ms = run_in_process(case.argv)
        if h.tracer is None:
            self.main_ms.append(ms)
        require(in_code == code and in_stdout == stdout,
                "in-process cli.main output differs from the subprocess")
        if case.check is not None:
            case.check(h, stdout)

    # -- reference checks ------------------------------------------------------

    def _exact_moments(self, h, out, want):
        (rec,) = records(out)
        require([fraction(v) for v in rec["moments"]] == want, "moments differ")

    def _float_moments(self, h, out, want):
        (rec,) = records(out)
        d = refs.digits([ref_number(v) for v in rec["moments"]], want, PRECISION)
        require(d >= PRECISION - 2, f"moments carry only {d:.1f} digits")
        h.digits(d)

    def _contour_moments(self, h, out):
        (rec,) = records(out)
        R = refs.REF
        for n, v in enumerate(rec["moments"]):
            want = R.mpc(1) if n == 0 else R.mpc(0, -2 / (n * R.pi)) if n % 2 else R.mpc(0)
            require(abs(ref_number(v) - want) <= R.mpf(10) ** (2 - PRECISION),
                    f"contour m_{n} differs")

    def _expr_moments(self, h, out):
        (rec,) = records(out)
        R = refs.REF
        for n, (v, e) in enumerate(zip(rec["moments"], rec["error_estimates"])):
            want = refs.to_ref(refs.beta_power_moment(Fraction(1, 2), Fraction(n)))
            allowed = ref_number(e).real + R.mpf(10) ** (1 - PRECISION) * abs(want)
            require(abs(ref_number(v) - want) <= allowed, f"m_{n} outside its error estimate")

    def _exact_poly(self, h, out, m):
        for rec in records(out):
            n = rec["degree"]
            want = refs.hankel_solution(m, n)
            got = [fraction(c) for c in rec["coefficients"]]
            require(got == want, f"degree {n} coefficients differ")
            gram = sum(a * b * m[i + j + 1] for i, a in enumerate(want) for j, b in enumerate(want))
            require(fraction(rec["normalization"]) == gram, f"G_{n} differs")
            B = [[m[i + j] for j in range(n + 1)] for i in range(n + 1)]
            require(fraction(rec["det_B"]) == refs.determinant(B), f"det B_{n} differs")
            h.verdict(f"poly-exact n={n}", rec["verification"]["pass"], True)

    def _float_poly(self, h, out, m):
        for rec in records(out):
            n = rec["degree"]
            d = refs.digits([ref_number(c) for c in rec["coefficients"]],
                            refs.hankel_solution(m, n), PRECISION)
            require(d >= PRECISION - 10, f"degree {n} carries only {d:.1f} digits")
            h.digits(d)
            h.verdict(f"poly-float n={n}", rec["verification"]["pass"], d >= TRUTH_DIGITS)

    def _contour_poly(self, h, out):
        tol = refs.REF.mpf(10) ** (5 - PRECISION)
        for rec in records(out):
            n = rec["degree"]
            got = [ref_number(c) for c in rec["coefficients"]]
            require(refs.proportional(got, refs.legendre(n), tol),
                    f"degree {n} is not proportional to Legendre")
            h.verdict(f"poly-contour n={n}", rec["verification"]["pass"], True)

    def _system_poly(self, h, out, rows):
        (rec,) = records(out)
        n = rec["degree"]
        require([fraction(c) for c in rec["coefficients"]] == refs.system_solution(rows, n),
                "coefficients differ")
        h.verdict(rec["variant"], rec["verification"]["pass"], True)

    def _support_solution(self, m, n, pattern):
        support = sorted(set(pattern) | {n})
        sol = refs.solve_fraction([[m[i + j] for j in support] for i in support],
                                  [Fraction(1)] * len(support))
        if sol is None or any(x == 0 for x in sol):
            return None
        want = [Fraction(0)] * (n + 1)
        for i, x in zip(support, sol):
            want[i] = x
        return want

    def _parity(self, h, out, m):
        (rec,) = records(out)
        n = rec["degree"]
        want = self._support_solution(m, n, rec["pattern"])
        require(rec["pattern"] == list(range(n % 2, n - 1, 2)), "parity pattern differs")
        require([fraction(c) for c in rec["coefficients"]] == want, "coefficients differ")
        h.verdict("poly-parity", rec["verification"]["pass"], True)

    def _enumerate(self, h, out, m, n):
        (rec,) = records(out)
        require(len(rec["patterns"]) == 2**n, "patterns missing")
        for entry in rec["patterns"]:
            want = self._support_solution(m, n, entry["pattern"])
            require(entry["ok"] == (want is not None), f"pattern {entry['pattern']}: ok differs")
            if want is not None:
                require([fraction(c) for c in entry["coefficients"]] == want,
                        f"pattern {entry['pattern']}: coefficients differ")

    def _known_false_fail(self, h, out):
        """jacobi-add(3,2) n=10 at p=50: the solution is good, so the truth is pass."""
        (rec,) = records(out)
        m = refs.preset_moments("jacobi-add", {"p": 3, "q": 2}, 21)
        d = refs.digits([ref_number(c) for c in rec["coefficients"]],
                        refs.hankel_solution(m, 10), PRECISION)
        require(d >= PRECISION - 20, f"only {d:.1f} correct digits")
        h.digits(d)
        h.verdict("poly-known-false-fail", rec["verification"]["pass"], d >= TRUTH_DIGITS)

    def _verify(self, h, out, truth):
        (rec,) = records(out)
        h.verdict("verify-poly-file", rec["pass"], truth)


def record_hashes():
    """Write cli_hashes.json: the stdout sha256 of every case of every family index."""
    table = {}
    for k in range(FAMILY):
        seed = next(s for s in range(1000) if family_index(s) == k)
        work = Workload(seed)
        for case in work.cases:
            code, stdout = run_subprocess(case.argv, work.root, work.env)
            if code != case.exit_code:
                raise SystemExit(f"{case.name}: exit {code}, expected {case.exit_code}")
            table[case.key] = hashlib.sha256(stdout).hexdigest()
    with open(HASH_FILE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
