from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoieq import (
    ConfigurationError,
    ModeError,
    PrecisionContext,
    Scalar,
    scalar_eq,
    with_precision,
)

from conftest import I_PI, from_sympy, sympy_to_float

rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=997
)


class TestPrecisionContext:
    def test_default_50(self):
        assert with_precision(50).precision == 50

    def test_boundary_16_accepted(self):
        assert with_precision(16).precision == 16

    def test_below_minimum_rejected(self):
        with pytest.raises(ConfigurationError):
            with_precision(8)

    def test_scalars_carry_context_precision(self):
        ctx = with_precision(33)
        s = ctx.scalar(Fraction(1, 3))
        assert s.precision == 33
        assert (s + s).precision == 33


class TestModes:
    def test_exact_from_fraction(self):
        s = Scalar.exact(Fraction(3, 7))
        assert s.is_exact and s.as_fraction() == Fraction(3, 7)

    def test_float_to_exact_forbidden(self):
        ctx = with_precision(50)
        with pytest.raises(ModeError):
            Scalar.exact(ctx.scalar(1))

    def test_python_float_to_exact_forbidden(self):
        with pytest.raises(ModeError):
            Scalar.exact(0.1)

    def test_mixed_precisions_forbidden(self):
        a = with_precision(20).scalar(1)
        b = with_precision(50).scalar(1)
        with pytest.raises(ModeError):
            a + b

    def test_exact_float_mixing_adopts_float_precision(self):
        a = Scalar.exact(Fraction(1, 2))
        b = with_precision(40).scalar(2)
        assert (a * b).precision == 40

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Scalar.exact(1) / Scalar.exact(0)
        ctx = with_precision(50)
        with pytest.raises(ZeroDivisionError):
            ctx.scalar(1) / ctx.scalar(0)

    def test_pi_symbolic_arithmetic(self):
        m1 = from_sympy(2 / (sp.I * sp.pi))
        det = Scalar.exact(0) - m1 * m1
        assert det == from_sympy(4 / sp.pi**2)
        # (4/pi^2) / (-2 I/pi) = 2 I / pi
        assert (det / m1) == from_sympy(2 * sp.I / sp.pi)

    def test_integer_powers(self):
        assert Scalar.exact(Fraction(2, 3)) ** 3 == Scalar.exact(Fraction(8, 27))
        assert Scalar.exact(2) ** -2 == Scalar.exact(Fraction(1, 4))


class TestScalarEq:
    def test_exact_equality_ignores_tol(self):
        a = Scalar.exact(Fraction(1, 3))
        assert scalar_eq(a, Scalar.exact(Fraction(1, 3)))
        assert not scalar_eq(a, Scalar.exact(Fraction(1, 3) + Fraction(1, 10**60)), tol=1)

    def test_below_tolerance_imaginary_perturbation(self):
        ctx = with_precision(50)
        a = ctx.complex_scalar(Fraction(1, 10), 0)
        b = ctx.complex_scalar(Fraction(1, 10), Fraction(1, 10**60))
        assert scalar_eq(a, b, tol=Fraction(1, 10**40))

    def test_clearly_different(self):
        ctx = with_precision(50)
        assert not scalar_eq(ctx.scalar(1), ctx.scalar(2), tol=Fraction(1, 10**40))

    def test_mixed_tolerance_is_absolute_near_zero(self):
        ctx = with_precision(50)
        a = ctx.scalar(Fraction(1, 10**45))
        assert scalar_eq(a, ctx.zero(), tol=Fraction(1, 10**40))


@settings(max_examples=60, deadline=None)
@given(q=rationals, p=st.sampled_from([16, 30, 50]))
def test_rational_float_round_trip(q, p):
    ctx = PrecisionContext(p)
    exact = Scalar.exact(q)
    assert scalar_eq(exact, exact.to_float(ctx), tol=Fraction(1, 10 ** (p - 1)))


@settings(max_examples=60, deadline=None)
@given(a=rationals, b=rationals, c=rationals)
def test_exact_arithmetic_associative_commutative(a, b, c):
    sa, sb, sc = Scalar.exact(a), Scalar.exact(b), Scalar.exact(c)
    assert ((sa + sb) + sc).value == (sa + (sb + sc)).value
    assert (sa * sb).value == (sb * sa).value
    assert ((sa * sb) * sc).value == (sa * (sb * sc)).value
    assert (sa + sb).as_fraction() == a + b
    assert (sa * sb).as_fraction() == a * b


def test_exact_to_float_correct_to_p_digits():
    # 1/3 at 50 digits differs from the true value by under 10^-50
    ctx = with_precision(50)
    f = Scalar.exact(Fraction(1, 3)).to_float(ctx)
    mp = ctx.mp
    assert abs(f.value - mp.mpf(1) / 3) <= mp.mpf(10) ** -50


class TestExactRepresentation:
    def test_rational_results_are_fractions(self):
        third = Scalar.exact(Fraction(1, 3))
        for s in (third + 2, third * third, third / 7, third**3, -third,
                  from_sympy(sp.Rational(3, 4)), Scalar.exact("5/2")):
            assert isinstance(s.value, Fraction) and s.is_rational()

    def test_contour_values_stay_symbolic_until_they_cancel(self):
        m1 = from_sympy(2 / (sp.I * sp.pi))
        assert not isinstance(m1.value, Fraction) and not m1.is_rational()
        product = m1 * from_sympy(sp.I * sp.pi / 2)
        assert isinstance(product.value, Fraction) and product.as_fraction() == 1
        difference = m1 - from_sympy(-2 * sp.I / sp.pi)
        assert isinstance(difference.value, Fraction) and difference.is_zero()

    def test_equal_values_share_one_form(self):
        # (1 + i pi)/(2 - pi^2) reached by two routes: same value, str and hash
        a = from_sympy((1 + sp.I * sp.pi) / (2 - sp.pi**2))
        b = (I_PI * 3 + 3) / (I_PI * I_PI * 3 + 6)
        assert a == b and str(a) == str(b) and hash(a) == hash(b)
        assert isinstance((a - b).value, Fraction) and (a - b).is_zero()

    @pytest.mark.parametrize("p", [16, 50, 77])
    @pytest.mark.parametrize("value", [
        2 / (sp.I * sp.pi),
        4 / sp.pi**2,
        1 + sp.I * sp.pi,
        (1 + sp.I * sp.pi) / (2 - sp.pi**2),
        (3 * sp.I * sp.pi**3 - 1) / (sp.pi**4 + 7 * sp.I * sp.pi),
        sp.pi**2 - sp.Rational(98696044010893586188, 10**19),  # cancels 20 digits
    ])
    def test_to_float_is_the_rounded_sympy_value(self, value, p):
        # bit for bit what sympy gives at p+10 digits rounded once to p, and an
        # mpf exactly when the value is real
        ctx = PrecisionContext(p)
        got = from_sympy(value).to_float(ctx).value
        want = sympy_to_float(value, ctx)
        assert got == want and type(got) is type(want)
        mp = PrecisionContext(30).mp  # magnitudes are sized at 30 digits
        magnitude = mp.mpf(mp.convert(abs(sp.sympify(value)).evalf(30)))
        assert abs(from_sympy(value).magnitude() - magnitude) <= magnitude * mp.mpf(10) ** -28

    def test_str_renders_like_sympy(self):
        assert str(Scalar.exact(Fraction(-3, 2))) == "-3/2"
        assert str(Scalar.exact(7)) == "7"
        assert str(Scalar.exact(0)) == "0"
        assert str(from_sympy(sp.Rational(-3, 2))) == str(sp.Rational(-3, 2))

    @pytest.mark.parametrize("q", [Fraction(1, 3), Fraction(-22, 7), Fraction(10**80 + 1, 3)])
    @pytest.mark.parametrize("p", [16, 50, 100])
    def test_to_float_of_rational_is_mpf_quotient(self, q, p):
        ctx = PrecisionContext(p)
        assert Scalar.exact(q).to_float(ctx).value == ctx.mp.mpf(q.numerator) / q.denominator
