"""sympy stays out of every run: the tests use it as an oracle, the package never.

Each check starts a fresh interpreter, because the test process itself has
long since imported sympy.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# runs cli.main on its arguments and reports the exit code, stdout and
# whether sympy got loaded on the way
CLI_PROBE = """
import contextlib, io, json, sys
from orthoieq.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "stdout": out.getvalue(), "sympy": "sympy" in sys.modules}))
"""


def fresh_python(*args):
    env = dict(os.environ)
    env.pop("ORTHOIEQ_PRECISION", None)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def run_cli(*argv):
    return json.loads(fresh_python("-c", CLI_PROBE, *argv))


@pytest.mark.parametrize("module", ["orthoieq", "orthoieq.cli"])
def test_import_leaves_sympy_out(module):
    out = fresh_python("-c", f"import sys, {module}; print('sympy' in sys.modules)")
    assert out == "False\n"


def test_exact_preset_poly_leaves_sympy_out():
    result = run_cli("poly", "--preset", "laguerre", "--gamma", "1", "-n", "3", "--mode", "exact")
    assert result["code"] == 0
    assert json.loads(result["stdout"])["verification"]["pass"] is True
    assert result["sympy"] is False


def test_float_expression_moments_leave_sympy_out():
    result = run_cli("moments", "--expr", "exp(-x)", "--interval", "0", "1", "--count", "3")
    assert result["code"] == 0
    assert json.loads(result["stdout"])["source"] == "quadrature"
    assert result["sympy"] is False


def test_verify_poly_file_leaves_sympy_out(tmp_path):
    # the degree-1 solution for Laguerre(gamma=1): P(x) = 2 - x
    poly_file = tmp_path / "poly.json"
    poly_file.write_text('[{"num": "2", "den": "1"}, {"num": "-1", "den": "1"}]')
    result = run_cli("verify", "--preset", "laguerre", "--gamma", "1",
                     "--poly-file", str(poly_file), "--mode", "exact")
    assert result["code"] == 0
    assert json.loads(result["stdout"])["pass"] is True
    assert result["sympy"] is False


def test_exact_contour_leaves_sympy_out_and_gives_legendre():
    result = run_cli("poly", "--contour", "-n", "2", "--mode", "exact")
    assert result["code"] == 0
    assert result["sympy"] is False
    record = json.loads(result["stdout"])
    coeffs = [Fraction(int(c["num"]), int(c["den"])) for c in record["coefficients"]]
    assert coeffs == [1, 0, -3]  # -2 * Legendre P_2 = -(3x^2 - 1)
    assert record["verification"] == {"form": "moment-conditions", "max_residual": "0.0",
                                      "pass": True}


def test_float_contour_poly_leaves_sympy_out():
    result = run_cli("poly", "--contour", "-n", "2")
    assert result["code"] == 0
    assert result["sympy"] is False
    record = json.loads(result["stdout"])
    assert record["mode"] == "float"
    assert record["verification"]["pass"] is True


# runs cli.main on each argument list with sympy made unimportable and
# prints the exit codes
BLOCKED_PROBE = """
import contextlib, io, json, sys
sys.modules["sympy"] = None
from orthoieq.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps(codes))
"""


def test_runs_with_sympy_unimportable():
    runs = [
        ["poly", "--contour", "-n", "4", "--mode", "exact"],
        ["poly", "--contour", "-n", "3", "--variant", "functional", "--f", "x^2+x",
         "--mode", "exact"],
        ["moments", "--preset", "laguerre", "--gamma", "5/2", "--count", "9",
         "--method", "quadrature"],
    ]
    assert json.loads(fresh_python("-c", BLOCKED_PROBE, json.dumps(runs))) == [0, 0, 0]
