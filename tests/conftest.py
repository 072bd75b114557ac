from fractions import Fraction

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


def sympy_to_float(value, context):
    """A sympy number evaluated at p+10 digits and rounded once to p: an mpf
    when its imaginary part is zero, else an mpc (the oracle for Float(p) values)."""
    re, im = sp.sympify(value).evalf(context.precision + 10).as_real_imag()
    mp = context.mp
    if im == 0:
        return mp.mpf(mp.convert(re))
    return mp.mpc(mp.convert(re), mp.convert(im))
