from fractions import Fraction
from math import comb

import pytest
import sympy as sp
from hypothesis import strategies as st

from orthoieq import (
    DegenerateDegreeError,
    InconsistentPatternError,
    MultiplicativeCandidate,
    Polynomial,
    PrecisionContext,
    Scalar,
    SingularHankelError,
    SingularSystemError,
    contour_weight,
    preset_weight,
)


# exact rational entries for hypothesis: ints, small Fractions and Fractions
# with denominators above 2^64, zero often
ENTRY = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 30)),
    st.builds(Fraction, st.integers(-2**70, 2**70), st.integers(2**64 + 1, 2**70)),
)


@pytest.fixture(scope="session")
def ctx50():
    return PrecisionContext(50)


# presets with the parameter choices used throughout the checks
ADDITIVE_PRESETS = [
    ("laguerre", {"gamma": 1}),
    ("laguerre", {"gamma": 2}),
    ("laguerre", {"gamma": "5/2"}),
    ("jacobi-add", {"p": 3, "q": 2}),
    ("chebyshev-u2-add", {}),
]

ALL_PRESETS = ADDITIVE_PRESETS + [
    ("jacobi-mult", {"p": 3, "q": 2}),
    ("chebyshev-u2-mult", {}),
    ("uniform-symmetric", {}),
]


def make_weight(name, params):
    return preset_weight(name, **params)


def rounded_outcome(solve, context=None):
    """solve()'s result with each Scalar as (precision, value), rounded at
    `context` when given (a polynomial is its coefficient list), or the
    solve error's type and text."""
    try:
        result = solve()
    except (DegenerateDegreeError, SingularHankelError, SingularSystemError,
            InconsistentPatternError) as exc:
        return type(exc), str(exc)
    return _plain(result, context)


def _plain(value, context):
    if isinstance(value, Scalar):
        value = value if context is None else value.to_float(context)
        return value.precision, value.value
    if isinstance(value, Polynomial):
        return _plain(list(value.coeffs), context)
    if isinstance(value, (tuple, list)):
        return [_plain(v, context) for v in value]
    if isinstance(value, MultiplicativeCandidate):
        return value.pattern, _plain(value.polynomial, context), value.failure
    return value


_T = sp.Symbol("t")  # stands for i pi
I_PI = contour_weight(0).normalization  # the exact Scalar i pi


def from_sympy(value):
    """A sympy number of Q(i pi) as an exact Scalar, built from i pi by Horner's rule.

    With pi = -i t the value is a rational function of t with rational
    coefficients; anything else (a bare i, sqrt(2), ...) raises ValueError.
    """
    num, den = sp.fraction(sp.cancel(sp.sympify(value).subs(sp.pi, -sp.I * _T)))
    return _horner_in_i_pi(num, value) / _horner_in_i_pi(den, value)


def _horner_in_i_pi(expr, value):
    acc = Scalar.exact(0)
    for c in sp.Poly(expr, _T).all_coeffs():
        if not c.is_Rational:
            raise ValueError(f"{value} is not in Q(i pi)")
        acc = acc * I_PI + Scalar.exact(Fraction(int(c.p), int(c.q)))
    return acc


def exact_value(value):
    """The exact rational value of a real Scalar or raw value: a float man 2^exp
    (mpmath's _mpf_ tuple) as a Fraction, a rational as itself."""
    value = getattr(value, "value", value)
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    sign, man, exp, _ = value._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def round_once(x, context):
    """The Fraction x rounded once to the nearest float of the context, ties to
    an even mantissa, without mpmath's rounding: |x| / 2^k lands in
    [2^(prec-1), 2^prec) and Python's round() takes the nearest integer."""
    x = Fraction(x)
    if not x:
        return context.mp.mpf(0)
    prec = context.mp.prec
    k = abs(x).numerator.bit_length() - abs(x).denominator.bit_length() - prec
    while abs(x) / Fraction(2) ** k >= 2**prec:
        k += 1
    while abs(x) / Fraction(2) ** k < 2 ** (prec - 1):
        k -= 1
    man = round(abs(x) / Fraction(2) ** k)
    return context.mp.ldexp(context.mp.mpf(man if x > 0 else -man), k)


def horner(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def fraction_image(a, g, m):
    """The right side of P(x) = integral of w(y) P(y) P(x + g(y)) dy, or of
    P(x y) for g = None, by plain Fraction loops on P's coefficients a and
    the moments m: mu_t = sum_j a_j m_(t+j), s_r = sum_t [y^t] g^r mu_t and
    the x^i coefficient sum_k a_k C(k, i) s_(k-i) (a_k mu_k for P(x y))."""
    n = len(a) - 1
    width = n * (len(g) - 1 if g else 1) + 1
    mu = [sum(a[j] * m[t + j] for j in range(n + 1)) for t in range(width)]
    if g is None:
        return [a[k] * mu[k] for k in range(n + 1)]
    s, power = [], [Fraction(1)]
    for _ in range(n + 1):
        s.append(sum(c * mu[t] for t, c in enumerate(power)))
        power = [sum(power[t - u] * g[u] for u in range(len(g)) if 0 <= t - u < len(power))
                 for t in range(len(power) + len(g) - 1)]
    return [sum(a[k] * comb(k, i) * s[k - i] for k in range(i, n + 1)) for i in range(n + 1)]


def sympy_to_float(value, context):
    """A sympy number evaluated at p+10 digits and rounded once to p: an mpf
    when its imaginary part is zero, else an mpc (the oracle for Float(p) values)."""
    re, im = sp.sympify(value).evalf(context.precision + 10).as_real_imag()
    mp = context.mp
    if im == 0:
        return mp.mpf(mp.convert(re))
    return mp.mpc(mp.convert(re), mp.convert(im))
