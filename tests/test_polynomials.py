from fractions import Fraction
from math import comb

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoieq import (
    DegenerateDegreeError,
    InsufficientMomentsError,
    MomentSequence,
    Polynomial,
    Scalar,
    inner_moment,
    integral_image,
    moments,
    multiplicative_image,
    orthogonality,
    preset_weight,
    shifted_inner,
    solve_polynomial,
)

from conftest import from_sympy

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
            Pf = Polynomial([c.to_float(ctx50) for c in P.coeffs])
            got = [c.value for c in integral_image(Pf, m_float, a, b).coeffs]
            assert got == [c.value for c in nested_integral_image(Pf, m_float, a, b)]
