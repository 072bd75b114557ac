from fractions import Fraction
from functools import reduce
from math import comb
from operator import add

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orthoieq import (
    Additive,
    DegenerateDegreeError,
    Functional,
    LinearShift,
    Multiplicative,
    InsufficientMomentsError,
    ModeError,
    MomentSequence,
    Polynomial,
    PrecisionContext,
    Scalar,
    contour_weight,
    inner_moment,
    integral_image,
    moments,
    multiplicative_image,
    orthogonality,
    preset_weight,
    shifted_inner,
    solve_polynomial,
    verify,
)
from orthoieq.numeric import I_PI
from orthoieq.polynomials import argument_moments, binomial_image, power_table

from conftest import ENTRY, exact_value, fraction_image, from_sympy, horner, round_once

small_fraction = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=7
)


def laguerre_moments(count):
    return moments(preset_weight("laguerre", gamma=1), count, mode="exact")


class TestPolynomialBasics:
    def test_leading_zero_rejected(self):
        with pytest.raises(DegenerateDegreeError):
            Polynomial([1, 0])

    def test_eval_constant(self):
        P = Polynomial([1])
        assert P.eval(Scalar.exact(Fraction(77, 3))) == Scalar.exact(1)

    def test_eval_at_root(self):
        P = Polynomial([2, -1])  # 2 - x
        assert P.eval(Scalar.exact(2)).is_zero()

    def test_eval_complex_scale(self):
        # (i pi / 2) x at x = 1
        P = Polynomial([Scalar.exact(0), from_sympy(sp.I * sp.pi / 2)])
        assert P.eval(Scalar.exact(1)) == from_sympy(sp.I * sp.pi / 2)

    def test_product_degree(self):
        P = Polynomial([2, -1])
        Q = Polynomial([0, 0, 3])
        assert (P * Q).degree == 3


class TestInnerMoment:
    def test_laguerre_p1_deltas(self):
        # by hand: <P_1> = 2*1 - 1*1 = 1, <x P_1> = 2*1 - 1*2 = 0
        m = laguerre_moments(4)
        P1 = Polynomial([2, -1])
        assert inner_moment(P1, 0, m) == Scalar.exact(1)
        assert inner_moment(P1, 1, m) == Scalar.exact(0)

    def test_constant_against_m0(self):
        m = laguerre_moments(2)
        assert inner_moment(Polynomial([1]), 0, m) == Scalar.exact(1)

    def test_length_check(self):
        m = laguerre_moments(3)
        with pytest.raises(InsufficientMomentsError):
            inner_moment(Polynomial([0, 0, 1]), 1, m)


class TestOrthogonality:
    def test_laguerre_pairs(self):
        # by hand: <x (2-x)> = 2 - 2 = 0 and <x (2-x)^2> = 4 - 8 + 6 = 2
        m = laguerre_moments(4)
        P1 = Polynomial([2, -1])
        P0 = Polynomial([1])
        assert orthogonality(P1, P0, m).is_zero()
        assert orthogonality(P1, P1, m) == Scalar.exact(2)

    def test_p0_squared_is_m1(self):
        m = MomentSequence.from_values([1, Fraction(5, 7), Fraction(1, 2)])
        assert orthogonality(Polynomial([1]), Polynomial([1]), m) == Scalar.exact(
            Fraction(5, 7)
        )

    def test_symmetry(self):
        m = laguerre_moments(8)
        P = Polynomial([1, 2, 3])
        Q = Polynomial([Fraction(1, 2), 0, 0, 1])
        assert orthogonality(P, Q, m) == orthogonality(Q, P, m)


class TestShiftedInner:
    def test_identity_shift_reduces(self):
        m = laguerre_moments(6)
        P = Polynomial([1, 1, 1])
        for k in range(3):
            assert shifted_inner(P, k, 0, 1, m) == inner_moment(P, k, m)

    def test_uniform_full_pattern_solution(self):
        # w = 1 on (0,1): m_n = 1/(n+1); <(1-x)(6x-2)> = -2 + 8/2 - 6/3 = 0
        m = MomentSequence.from_values(
            [Fraction(1, k + 1) for k in range(4)]
        )
        P = Polynomial([-2, 6])
        assert shifted_inner(P, 1, 1, -1, m).is_zero()

    def test_k0_is_plain_average(self):
        m = laguerre_moments(4)
        P = Polynomial([3, 1])
        assert shifted_inner(P, 0, Fraction(7), Fraction(-2), m) == inner_moment(P, 0, m)

    @pytest.mark.parametrize("a,b", [(Fraction(3, 2), 2), (Fraction(-1, 3), Fraction(1, 2))])
    def test_matches_product_polynomial(self, a, b):
        # <(a+bx)^k P> = <Q> with Q = (a+bx)^k P multiplied out
        m = laguerre_moments(12)
        P = Polynomial([3, -1, Fraction(1, 2), 2])
        Q = P
        for k in range(7):
            assert shifted_inner(P, k, a, b, m) == inner_moment(Q, 0, m)
            Q = Q * Polynomial([a, b])


@settings(max_examples=40, deadline=None)
@given(
    a=st.lists(small_fraction, min_size=1, max_size=4),
    b=st.lists(small_fraction, min_size=1, max_size=4),
    s=small_fraction,
)
def test_inner_moment_bilinear(a, b, s):
    m = laguerre_moments(10)
    if a[-1] == 0:
        a[-1] = Fraction(1)
    if b[-1] == 0:
        b[-1] = Fraction(1)
    size = max(len(a), len(b))
    a_p = a + [Fraction(0)] * (size - len(a))
    b_p = b + [Fraction(0)] * (size - len(b))
    combo = [s * x + y for x, y in zip(a_p, b_p)]
    P = Polynomial(a, allow_zero_leading=True)
    Q = Polynomial(b, allow_zero_leading=True)
    R = Polynomial(combo, allow_zero_leading=True)
    lhs = inner_moment(R, 1, m)
    rhs = Scalar.exact(s) * inner_moment(P, 1, m) + inner_moment(Q, 1, m)
    assert lhs == rhs


class TestIntegralImage:
    def test_degree_preserved_with_leading_factor(self):
        # the image of P under the additive map has leading coefficient a_n <P>
        m = laguerre_moments(12)
        P = Polynomial([Fraction(1, 3), -2, 0, 5])
        image = integral_image(P, m)
        assert image.degree == P.degree
        assert image.leading == P.leading * inner_moment(P, 0, m)

    @settings(max_examples=25, deadline=None)
    @given(coeffs=st.lists(small_fraction, min_size=1, max_size=5))
    def test_degree_preserved_generically(self, coeffs):
        if coeffs[-1] == 0:
            coeffs[-1] = Fraction(1)
        m = laguerre_moments(12)
        P = Polynomial(coeffs)
        image = integral_image(P, m)
        assert len(image.coeffs) == len(P.coeffs)
        assert image.leading == P.leading * inner_moment(P, 0, m)

    def test_solver_output_is_fixed_point(self):
        # degree-2 solution on Laguerre: the image must reproduce P exactly
        from orthoieq import solve_polynomial

        m = laguerre_moments(6)
        P = solve_polynomial(m, 2)
        image = integral_image(P, m)
        assert all((a - b).is_zero() for a, b in zip(P.coeffs, image.coeffs))

    def test_multiplicative_image_on_pattern_solution(self):
        # 6x - 2 on w = 1 over (0,1) reproduces itself under the product map
        m = MomentSequence.from_values([Fraction(1, k + 1) for k in range(4)])
        P = Polynomial([-2, 6])
        image = multiplicative_image(P, m)
        assert all((a - b).is_zero() for a, b in zip(P.coeffs, image.coeffs))


def nested_integral_image(P, m, a, b):
    """Reference route: every x^i coefficient re-contracts each shifted moment, O(n^4)."""
    n = P.degree
    coeffs = []
    for i in range(n + 1):
        acc = None
        for k in range(i, n + 1):
            term = P.coeffs[k] * Scalar.exact(comb(k, i)) * shifted_inner(P, k - i, a, b, m)
            acc = term if acc is None else acc + term
        coeffs.append(acc)
    return coeffs


class TestIntegralImageAgainstNestedRoute:
    SHIFTS = [(0, 1), (Fraction(3, 2), 2), (Fraction(-1, 3), Fraction(1, 2))]
    WEIGHTS = [("laguerre", {"gamma": 1}), ("jacobi-add", {"p": 3, "q": 2})]

    @pytest.mark.parametrize("name,params", WEIGHTS)
    @pytest.mark.parametrize("a,b", SHIFTS)
    def test_exact_and_float_coefficients_identical(self, name, params, a, b, ctx50):
        w = preset_weight(name, **params)
        m_exact = moments(w, 25, mode="exact")
        m_float = moments(w, 25, mode="float", context=ctx50)
        for n in (1, 4, 8, 12):
            P = solve_polynomial(m_exact, n)
            image = integral_image(P, m_exact, a, b).coeffs
            assert image == tuple(nested_integral_image(P, m_exact, a, b))
            assert all(c.is_rational() for c in image)
            # float: s_k and then each image coefficient are the exact values
            # of their float inputs rounded once
            Pf = Polynomial([c.to_float(ctx50) for c in P.coeffs])
            af, mf = [exact_value(c) for c in Pf.coeffs], [exact_value(v) for v in m_float.values]
            s = [round_once(v, ctx50) for v in fraction_argument(af, [a, b], n, mf)]
            want = fraction_binomial(af, [exact_value(v) for v in s])
            assert_identical(integral_image(Pf, m_float, a, b).coeffs, rounded(want, ctx50))


# ---------------------------------------------------------------------------
# The raw-value contractions against the elementwise Scalar computation:
# every operation below goes through Scalar arithmetic, as the contractions
# did before they unwrapped their entries.


def scalar_convolve(a, b):
    out = [Scalar.exact(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def scalar_eval(P, x):
    acc = P.coeffs[-1]
    for c in reversed(P.coeffs[:-1]):
        acc = acc * x + c
    return acc


def scalar_inner_moment(P, k, m):
    return reduce(add, (a * m[k + j] for j, a in enumerate(P.coeffs)))


def scalar_power_table(g, kmax, seq, width):
    g = [c if isinstance(c, Scalar) else Scalar.exact(c) for c in g]
    power = [Scalar.exact(1)]
    rows = []
    for k in range(kmax + 1):
        if k:
            power = scalar_convolve(power, g)
        terms = [(t, c) for t, c in enumerate(power) if not c.is_zero()]
        rows.append([reduce(add, (c * seq[t + j] for t, c in terms)) for j in range(width)])
    return rows


def scalar_argument_moments(P, g, kmax, m):
    mu = [scalar_inner_moment(P, t, m) for t in range((len(g) - 1) * kmax + 1)]
    return [row[0] for row in scalar_power_table(g, kmax, mu, 1)]


def scalar_binomial_image(P, s):
    n = P.degree
    return [reduce(add, (P.coeffs[k] * Scalar.exact(comb(k, i)) * s[k - i]
                         for k in range(i, n + 1))) for i in range(n + 1)]


def scalar_multiplicative_image(P, m):
    return [P.coeffs[k] * scalar_inner_moment(P, k, m) for k in range(P.degree + 1)]


def bits(value):
    """Mode, value type and the exact value of a Scalar (binary digits for floats)."""
    v = value.value
    if value.is_exact:
        return None, type(v), v
    return value.precision, type(v), getattr(v, "_mpf_", None) or v._mpc_


def assert_identical(got, want):
    assert [bits(v) for v in got] == [bits(v) for v in want]


def check_every_contraction(P, Q, m, samples, shift):
    """Each raw contraction equals its Scalar reference in value, type and
    precision; m holds at least 3 deg(P) + 1 moments."""
    n = P.degree
    assert_identical([P.eval(x) for x in samples], [scalar_eval(P, x) for x in samples])
    assert_identical((P * Q).coeffs, scalar_convolve(P.coeffs, Q.coeffs))
    assert_identical([inner_moment(P, k, m) for k in range(n + 1)],
                     [scalar_inner_moment(P, k, m) for k in range(n + 1)])
    for g in ([0, 1], shift, [1, Fraction(-1, 3), 3]):
        s = argument_moments(P, g, n, m)
        assert_identical(s, scalar_argument_moments(P, g, n, m))
        assert_identical(binomial_image(P, s).coeffs, scalar_binomial_image(P, s))
        width = len(m) - (len(g) - 1) * n
        for got, want in zip(power_table(g, n, m, width), scalar_power_table(g, n, m, width)):
            assert_identical(got, want)
    assert_identical(multiplicative_image(P, m).coeffs, scalar_multiplicative_image(P, m))


def rounded(values, context):
    """Fractions rounded once to the context, as Scalars."""
    return [Scalar(round_once(v, context), context.precision) for v in values]


def fraction_convolve(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def fraction_orthogonality(a, b, m):
    """<x Pn Pm> on Fractions: the convolution of a and b against m_1.."""
    return sum(c * m[t + 1] for t, c in enumerate(fraction_convolve(a, b)))


def fraction_power_rows(g, kmax, seq, width):
    """rows[k][j] = sum_t [x^t] g^k seq[t+j], k = 0..kmax, on Fractions."""
    rows, power = [], [Fraction(1)]
    for _ in range(kmax + 1):
        rows.append([sum(c * seq[t + j] for t, c in enumerate(power)) for j in range(width)])
        power = fraction_convolve(power, g)
    return rows


def fraction_argument(a, g, kmax, m):
    """s_k = <g^k P> on Fractions: mu_t = sum_j a_j m_(t+j), then the power rows."""
    mu = [sum(c * m[t + j] for j, c in enumerate(a)) for t in range((len(g) - 1) * kmax + 1)]
    return [row[0] for row in fraction_power_rows(g, kmax, mu, 1)]


def fraction_binomial(a, s):
    return [sum(a[k] * comb(k, i) * s[k - i] for k in range(i, len(a))) for i in range(len(a))]


def check_rounded_once(P, Q, m, samples, shift, context):
    """Each real contraction with a float input is the plain Fraction
    computation on the exact values of its inputs, rounded once to the
    context: value, type and precision. P * Q still rounds in Scalar order."""
    n, X = P.degree, exact_value
    a, mv = [X(c) for c in P.coeffs], [X(m[t]) for t in range(len(m))]
    assert_identical([P.eval(x) for x in samples],
                     rounded([sum(c * X(x) ** i for i, c in enumerate(a)) for x in samples],
                             context))
    assert_identical((P * Q).coeffs, scalar_convolve(P.coeffs, Q.coeffs))
    assert_identical([inner_moment(P, k, m) for k in range(n + 1)],
                     rounded([sum(c * mv[k + j] for j, c in enumerate(a)) for k in range(n + 1)],
                             context))
    for g in ([0, 1], shift, [1, Fraction(-1, 3), 3]):
        gv = [X(c) for c in g]
        s = argument_moments(P, g, n, m)
        assert_identical(s, rounded(fraction_argument(a, gv, n, mv), context))
        assert_identical(binomial_image(P, s).coeffs,
                         rounded(fraction_binomial(a, [X(v) for v in s]), context))
        width = len(m) - (len(g) - 1) * n
        table = power_table(g, n, m, width)
        assert table[0] == [m[j] for j in range(width)]
        for got, want in zip(table[1:], fraction_power_rows(gv, n, mv, width)[1:]):
            assert_identical(got, rounded(want, context))
    mu = [sum(c * mv[k + j] for j, c in enumerate(a)) for k in range(n + 1)]
    assert_identical(multiplicative_image(P, m).coeffs,
                     rounded([c * v for c, v in zip(a, mu)], context))
    for R in (P, Q):
        if len(m) >= n + R.degree + 2:
            assert_identical([orthogonality(P, R, m)],
                             rounded([fraction_orthogonality(a, [X(c) for c in R.coeffs], mv)],
                                     context))


class TestRawContractionsMatchScalarArithmetic:
    SHIFT = [Fraction(3, 2), 2]
    SAMPLES = [Fraction(0), Fraction(7, 3), Fraction(-5, 11)]

    def test_exact_fractions(self, ctx50):
        m = moments(preset_weight("jacobi-add", p=3, q=2), 19, mode="exact")
        P = solve_polynomial(m, 6)
        Q = Polynomial([Fraction(1, 3), -2, 0, 5])
        check_every_contraction(P, Q, m, [Scalar.exact(x) for x in self.SAMPLES], self.SHIFT)
        check_every_contraction(Q, P, m, [Scalar.exact(x) for x in self.SAMPLES], self.SHIFT)
        # a float g against exact moments: row 0 stays exact, the others are
        # the exact sums rounded once
        g = [ctx50.scalar(Fraction(1, 3)), ctx50.scalar(2)]
        table = power_table(g, 6, m, 7)
        assert_identical(table[0], [m[j] for j in range(7)])
        want = fraction_power_rows([exact_value(c) for c in g], 6, [v.value for v in m.values], 7)
        for got, row in zip(table[1:], want[1:]):
            assert_identical(got, rounded(row, ctx50))

    @pytest.mark.parametrize("winding", [0, 1])
    def test_exact_contour_values(self, winding):
        m = moments(contour_weight(winding), 13, mode="exact")
        P = solve_polynomial(m, 4)
        Q = Polynomial([I_PI, Fraction(2, 3), 1])
        samples = [I_PI * Scalar.exact(x) + Scalar.exact(1) for x in self.SAMPLES]
        assert not m[1].is_rational()
        check_every_contraction(P, Q, m, samples, [I_PI / Scalar.exact(2), 2])

    @pytest.mark.parametrize("precision", [16, 30, 50, 77])
    def test_float_values(self, precision):
        ctx = PrecisionContext(precision)
        w = preset_weight("laguerre", gamma=Fraction(3, 2))
        m = moments(w, 16, mode="float", context=ctx)
        P = Polynomial([c.to_float(ctx) for c in solve_polynomial(moments(w, 11, mode="exact"), 5).coeffs])
        Q = Polynomial([ctx.scalar(Fraction(1, 3)), ctx.scalar(-2), ctx.scalar(5)])
        samples = [ctx.scalar(x) for x in self.SAMPLES]
        check_rounded_once(P, Q, m, samples, self.SHIFT, ctx)
        check_rounded_once(P, Q, m, samples, [ctx.scalar(Fraction(3, 2)), ctx.scalar(2)], ctx)

    def test_exact_polynomial_against_float_moments(self, ctx50):
        # denominators that are not powers of 2: the exact a_k meet the float
        # moments as themselves, not rounded first
        P = Polynomial([Fraction(k + 1, 3 * k + 7) for k in range(7)])
        m = moments(preset_weight("jacobi-add", p=3, q=2), 19, mode="float", context=ctx50)
        Q = Polynomial([ctx50.scalar(Fraction(1, 3)), ctx50.scalar(-2), ctx50.scalar(5)])
        check_rounded_once(P, Q, m, [ctx50.scalar(x) for x in self.SAMPLES], self.SHIFT, ctx50)
        check_rounded_once(Q, P, m, [Scalar.exact(x) for x in self.SAMPLES], self.SHIFT, ctx50)


# negative non-integer shifts, with small and with over-2^64 denominators
NEGATIVE_SHIFT = st.one_of(
    st.fractions(min_value=Fraction(-9), max_value=Fraction(-1, 30), max_denominator=30),
    st.builds(lambda p, q: -Fraction(p, q), st.integers(1, 2**70), st.integers(2**64 + 1, 2**70)),
).filter(lambda v: v.denominator > 1)
NONZERO = ENTRY.filter(lambda v: v != 0)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 5),
    a=NEGATIVE_SHIFT,
    b=NEGATIVE_SHIFT,
    zero_image_lead=st.booleans(),
)
def test_rational_contractions_match_scalar_arithmetic(data, n, a, b, zero_image_lead):
    """Random rational P, Q, moments and samples: every contraction against
    its elementwise Scalar reference, value and type. With zero_image_lead,
    a_0 is chosen so that <P> = 0, and every image's leading coefficient
    a_n s_0 vanishes."""
    coeffs = data.draw(st.lists(ENTRY, min_size=n, max_size=n))
    coeffs.append(data.draw(NONZERO))
    m = data.draw(st.lists(ENTRY, min_size=3 * n + 1, max_size=3 * n + 4))
    if zero_image_lead:
        assume(m[0] != 0)
        coeffs[0] = -sum(Fraction(coeffs[j]) * m[j] for j in range(1, n + 1)) / m[0]
    P = Polynomial(coeffs)
    Q = Polynomial(data.draw(st.lists(ENTRY, max_size=3)) + [data.draw(NONZERO)])
    samples = [Scalar.exact(x) for x in data.draw(st.lists(ENTRY, min_size=1, max_size=3))]
    m = [Scalar.exact(v) for v in m]  # any rational m_0: no normalized weight
    check_every_contraction(P, Q, m, samples, [a, b])
    if zero_image_lead:
        for g in ([0, 1], [a, b]):
            assert binomial_image(P, argument_moments(P, g, n, m)).leading.is_zero()


CTX50 = PrecisionContext(50)


def nonzero_dyadic(context):
    """Nonzero floats of the context as Scalars: mantissas of up to p bits,
    either sign, exponents spread over +-2000 bits."""
    mp, bits = context.mp, 2 ** context.mp.prec - 1
    mantissa = st.integers(1, bits).flatmap(lambda man: st.sampled_from([man, -man]))
    return st.builds(lambda man, exp: Scalar(mp.ldexp(mp.mpf(man), exp), context.precision),
                     mantissa, st.integers(-2000, 2000))


NONZERO_DYADIC = nonzero_dyadic(CTX50)
DYADIC = st.one_of(st.just(CTX50.zero()), NONZERO_DYADIC)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 5),
    rational_shift=st.booleans(),
    zero_image_lead=st.booleans(),
)
def test_dyadic_contractions_and_residuals_round_once(data, n, rational_shift, zero_image_lead):
    """Random float rows: every real contraction, and every verify residual,
    is the plain Fraction computation on the exact values of the float
    inputs rounded once to p, bit for bit. With zero_image_lead, a_0 is the
    exact rational that makes <P> = 0 (a row mixing a Fraction with floats),
    so every image's leading coefficient a_n s_0 vanishes."""
    ctx = CTX50
    coeffs = data.draw(st.lists(DYADIC, min_size=n, max_size=n)) + [data.draw(NONZERO_DYADIC)]
    m = data.draw(st.lists(DYADIC, min_size=3 * n + 1, max_size=3 * n + 4))
    if zero_image_lead:
        m[0] = data.draw(NONZERO_DYADIC)
        coeffs[0] = Scalar.exact(-sum(exact_value(coeffs[j]) * exact_value(m[j])
                                      for j in range(1, n + 1)) / exact_value(m[0]))
    P = Polynomial(coeffs)
    Q = Polynomial(data.draw(st.lists(DYADIC, max_size=3)) + [data.draw(NONZERO_DYADIC)])
    samples = data.draw(st.lists(DYADIC, min_size=1, max_size=3))
    if rational_shift:
        shift = [data.draw(NEGATIVE_SHIFT), data.draw(NEGATIVE_SHIFT)]
    else:
        shift = [data.draw(DYADIC), data.draw(NONZERO_DYADIC)]
    check_rounded_once(P, Q, m, samples, shift, ctx)
    if zero_image_lead:
        for g in ([0, 1], shift):
            assert binomial_image(P, argument_moments(P, g, n, m)).leading.is_zero()

    a, mv, xs = ([exact_value(v) for v in row] for row in (P.coeffs, m, samples))
    scale = max([ctx.mp.mpf(1)] + [round_once(abs(horner(a, x)), ctx) for x in xs])
    w = preset_weight("laguerre", gamma=1)  # any real weight: the moments are m
    for form, g in [(Additive(), [0, 1]), (LinearShift(*shift), shift),
                    (Functional("x^2+x"), [0, 1, 1]), (Multiplicative(range(n)), None)]:
        report = verify(P, w, form, samples, context=ctx, moment_seq=m)
        image = fraction_image(a, g and [exact_value(c) for c in g], mv)
        want = [round_once(abs(horner(a, x) - horner(image, x)), ctx) for x in xs]
        assert [(r.precision, r.value) for r in report.residuals] == [(50, v) for v in want]
        assert report.passed == (max(want) <= ctx.mp.mpf(10) ** -40 * scale)


class TestOrthogonalityRows:
    """<x Pn Pm> sums real rows on integers (check_rounded_once covers float
    rows); rows that are not real keep the Scalar product Pn * Pm."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), extra=st.integers(0, 2))
    def test_rational_rows_are_the_fraction_sum(self, data, extra):
        a = data.draw(st.lists(ENTRY, max_size=5)) + [data.draw(NONZERO)]
        b = data.draw(st.lists(ENTRY, max_size=5)) + [data.draw(NONZERO)]
        size = len(a) + len(b) + extra
        m = [Scalar.exact(v) for v in data.draw(st.lists(ENTRY, min_size=size, max_size=size))]
        want = fraction_orthogonality(a, b, [v.value for v in m])
        assert_identical([orthogonality(Polynomial(a), Polynomial(b), m)], [Scalar(want)])

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_rows_that_are_not_real(self, mode, ctx50):
        m = moments(contour_weight(0), 13, mode=mode, context=ctx50)
        P = solve_polynomial(m, 5, context=ctx50)
        for Q in (P, Polynomial([I_PI, Fraction(2, 3), 1]), Polynomial([Fraction(1, 3), -2, 5])):
            assert_identical([orthogonality(P, Q, m), orthogonality(Q, Q, m)],
                             [inner_moment(P * Q, 1, m), inner_moment(Q * Q, 1, m)])


class TestMixedFloatPrecisions:
    def test_contractions_raise_mode_error(self, ctx50):
        ctx30 = PrecisionContext(30)
        P = Polynomial([ctx30.scalar(2), ctx30.scalar(-1)])
        m = moments(preset_weight("laguerre", gamma=1), 6, mode="float", context=ctx50)
        calls = [
            lambda: P.eval(ctx50.scalar(1)),
            lambda: P * Polynomial([ctx50.scalar(1), ctx50.scalar(3)]),
            lambda: inner_moment(P, 0, m),
            lambda: argument_moments(P, [0, 1], 2, m),
            lambda: power_table([ctx30.scalar(1), ctx30.scalar(2)], 2, m, 2),
            lambda: binomial_image(P, [ctx50.scalar(1), ctx50.scalar(0)]),
            lambda: multiplicative_image(P, m),
            lambda: orthogonality(P, P, m),
        ]
        for call in calls:
            with pytest.raises(ModeError, match="mixed float precisions 30 and 50"):
                call()


class TestShortMomentTables:
    """The texts name the first moment a contraction misses, as before."""

    P3 = Polynomial([1, 2, 3, 4])

    @pytest.mark.parametrize("call,text", [
        (lambda P, m: inner_moment(P, 2, m), "<x^2 P> with deg P = 3 needs m_0..m_5, got 5 moments"),
        (lambda P, m: argument_moments(P, [1, 2], 3, m),
         "<x^2 P> with deg P = 3 needs m_0..m_5, got 5 moments"),
        (lambda P, m: argument_moments(P, [0, 1], 3, list(m.values)[:2]),
         "<x^0 P> with deg P = 3 needs m_0..m_3, got 2 moments"),
        (lambda P, m: shifted_inner(P, 3, 1, 2, m),
         "<(a+bx)^3 P> with deg P = 3 needs m_0..m_6, got 5 moments"),
        (lambda P, m: orthogonality(P, P, m), "<x Pn Pm> needs m_0..m_7, got 5 moments"),
        (lambda P, m: integral_image(P, m), "<x^2 P> with deg P = 3 needs m_0..m_5, got 5 moments"),
        (lambda P, m: multiplicative_image(P, m),
         "<x^2 P> with deg P = 3 needs m_0..m_5, got 5 moments"),
    ])
    def test_error_text(self, call, text):
        with pytest.raises(InsufficientMomentsError) as info:
            call(self.P3, laguerre_moments(5))
        assert str(info.value) == text
