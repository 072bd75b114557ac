"""Independent references for the benchmark's correctness checks.

Nothing here calls orthoieq. Moments come from closed forms in
``fractions.Fraction``; solutions come from a plain Fraction Gaussian
elimination of the same Hankel system; float outputs are compared against
them in a private mpmath context at 160 digits, three times the working
precision.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import mpmath

REF = mpmath.MPContext()
REF.dps = 160


def rising(a: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for j in range(n):
        out *= a + j
    return out


def ratio_moments(a: Fraction, b: Fraction, count: int):
    """m_n = prod_{j<n} (a + j) / (b + j): the Beta-type closed form."""
    out, m = [], Fraction(1)
    for n in range(count):
        out.append(m)
        m *= (a + n) / (b + n)
    return out


def preset_moments(name: str, params: dict, count: int):
    """Closed-form moments of the normalized preset weights."""
    if name == "laguerre":
        return [rising(Fraction(params["gamma"]), n) for n in range(count)]
    if name == "jacobi-add":
        p, q = Fraction(params["p"]), Fraction(params["q"])
        return ratio_moments(q - 1, p, count)
    if name == "jacobi-mult":
        p, q = Fraction(params["p"]), Fraction(params["q"])
        return ratio_moments(q, p, count)
    if name == "chebyshev-u2-add":
        return ratio_moments(Fraction(1, 2), Fraction(2), count)
    if name == "uniform-symmetric":
        return [Fraction(0) if n % 2 else Fraction(1, n + 1) for n in range(count)]
    raise ValueError(f"no reference moments for preset {name!r}")


def gaussian_moments(count: int):
    """exp(-x^2) on the real line, normalized: m_2k = (2k-1)!!/2^k, odd ones 0."""
    out = []
    for n in range(count):
        if n % 2:
            out.append(Fraction(0))
        else:
            k = n // 2
            double_fact = 1
            for j in range(1, 2 * k, 2):
                double_fact *= j
            out.append(Fraction(double_fact, 2**k))
    return out


def beta_power_moment(a: Fraction, s: Fraction) -> Fraction:
    """<x^s> for the normalized weight x^a (1-x) on (0, 1)."""
    return (a + 1) * (a + 2) / ((a + s + 1) * (a + s + 2))


def laguerre_plus_moment(s):
    """<x^s> for exp(-x) (1+x) / 2 on (0, inf): Gamma(s+1) (s+2) / 2, at REF precision."""
    s = REF.mpf(s.numerator) / s.denominator
    return REF.gamma(s + 1) * (s + 2) / 2


def solve_fraction(matrix, rhs):
    """Exact Gaussian elimination; None when the matrix is singular."""
    n = len(rhs)
    a = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if f:
                for c in range(col, n + 1):
                    a[r][c] -= f * a[col][c]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = a[r][n] - sum(a[r][c] * x[c] for c in range(r + 1, n))
        x[r] = acc / a[r][r]
    return x


def system_solution(rows, n: int):
    """Solve sum_j rows[k][j] a_j = delta_k0 for k, j = 0..n (any moment table)."""
    matrix = [[rows[k][j] for j in range(n + 1)] for k in range(n + 1)]
    return solve_fraction(matrix, [Fraction(1)] + [Fraction(0)] * n)


def hankel_solution(m, n: int):
    """Coefficients of the degree-n solution (B_n a = e_0), or None if there is none.

    None covers both det B_n = 0 and a vanishing leading coefficient, the two
    cases where orthoieq raises instead of returning a polynomial.
    """
    a = system_solution([[m[k + j] for j in range(n + 1)] for k in range(n + 1)], n)
    return None if a is None or a[-1] == 0 else a


def determinant(matrix) -> Fraction:
    """Exact determinant by elimination with row swaps."""
    a = [list(row) for row in matrix]
    n, det = len(a), Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
    return det


def shift_rows(m, n: int, a: Fraction, b: Fraction):
    """<(a + b x)^k x^j> from plain moments, for the linear-shift system."""
    return [[sum(comb(k, i) * a ** (k - i) * b**i * m[i + j] for i in range(k + 1))
             for j in range(n + 1)] for k in range(n + 1)]


def legendre(n: int):
    """Legendre P_n coefficients, ascending, from the three-term recurrence."""
    prev, cur = [Fraction(1)], [Fraction(0), Fraction(1)]
    if n == 0:
        return prev
    for k in range(1, n):
        nxt = [Fraction(0)] * (k + 2)
        for i, c in enumerate(cur):
            nxt[i + 1] += Fraction(2 * k + 1, k + 1) * c
        for i, c in enumerate(prev):
            nxt[i] -= Fraction(k, k + 1) * c
        prev, cur = cur, nxt
    return cur


def to_ref(value):
    """An exact Fraction, a Python number or an mpmath value of any context, as a REF number."""
    if isinstance(value, Fraction):
        return REF.mpf(value.numerator) / value.denominator
    if hasattr(value, "_mpc_"):
        return REF.mpc(value)
    return REF.mpf(value)


def digits(got, want, precision: int) -> float:
    """Correct significant digits of float coefficients `got` against exact `want`.

    Per coefficient -log10 of the relative error; a coefficient whose exact
    value is 0 is measured against the largest exact coefficient instead.
    Capped at the working precision, which no float output can exceed.
    """
    want = [to_ref(w) for w in want]
    scale = max(abs(w) for w in want) or REF.mpf(1)
    worst = float(precision)
    for g, w in zip(got, want):
        err = abs(to_ref(g) - w)
        if err == 0:
            continue
        ref = abs(w) if w != 0 else scale
        worst = min(worst, float(-REF.log10(err / ref)))
    return worst


def proportional(got, want, rel_tol) -> bool:
    """Whether complex/real vectors got = c * want for one constant c, to rel_tol."""
    got = [to_ref(g) for g in got]
    want = [to_ref(w) for w in want]
    lead = max(range(len(want)), key=lambda i: abs(want[i]))
    c = got[lead] / want[lead]
    scale = max(abs(g) for g in got)
    return all(abs(g - c * w) <= rel_tol * scale for g, w in zip(got, want))


CORRUPTION = Fraction(1, 10**8)
"""Relative size of the one-coefficient corruption: far above any rounding."""


def corrupted(coeffs, index: int):
    """Copy of exact Fraction coefficients with one entry perturbed by CORRUPTION."""
    out = list(coeffs)
    c = out[index]
    out[index] = c * (1 + CORRUPTION) if c != 0 else CORRUPTION
    return out
