from fractions import Fraction

import mpmath
import pytest
import sympy as sp

from orthoieq import (
    ConfigurationError,
    ConstantFunctionError,
    InsufficientMomentsError,
    MomentSequence,
    QuadratureError,
    Scalar,
    contour_moments,
    contour_weight,
    generalized_moments,
    moments,
    parse_weight,
    preset_weight,
    scalar_eq,
    with_precision,
)
from orthoieq.weights import Interval, normalize

from conftest import ALL_PRESETS, from_sympy, make_weight, sympy_to_float

TOL40 = Fraction(1, 10**40)


def gamma_recursion_moments(gamma: Fraction, count: int):
    """Oracle: I_n = integral x^(n+gamma-1) e^-x obeys I_n = (n+gamma-1) I_(n-1);
    normalized moments are I_n / I_0."""
    out = [Fraction(1)]
    for n in range(1, count):
        out.append(out[-1] * (n + gamma - 1))
    return out


class TestPresetMoments:
    def test_laguerre_gamma1_factorials(self):
        w = preset_weight("laguerre", gamma=1)
        m = moments(w, 5, mode="exact")
        assert [v.as_fraction() for v in m.values] == [1, 1, 2, 6, 24]

    def test_laguerre_gamma_5_2_matches_gamma_recursion(self):
        w = preset_weight("laguerre", gamma="5/2")
        m = moments(w, 8, mode="exact")
        oracle = gamma_recursion_moments(Fraction(5, 2), 8)
        assert [v.as_fraction() for v in m.values] == oracle

    def test_chebyshev_add_first_three(self):
        # oracle: normalized moments are (2/pi) Beta(n+1/2, 3/2)
        mpmath.mp.dps = 30
        oracle = [
            2 / mpmath.pi * mpmath.beta(n + mpmath.mpf(1) / 2, mpmath.mpf(3) / 2)
            for n in range(3)
        ]
        w = preset_weight("chebyshev-u2-add")
        m = moments(w, 3, mode="exact")
        values = [v.as_fraction() for v in m.values]
        assert values == [1, Fraction(1, 4), Fraction(1, 8)]
        for got, want in zip(values, oracle):
            assert abs(mpmath.mpf(got.numerator) / got.denominator - want) < mpmath.mpf(10) ** -25

    def test_uniform_symmetric(self):
        w = preset_weight("uniform-symmetric")
        m = moments(w, 4, mode="exact")
        assert [v.as_fraction() for v in m.values] == [1, 0, Fraction(1, 3), 0]

    def test_float_mode_matches_exact(self, ctx50):
        w = preset_weight("jacobi-add", p=3, q=2)
        me = moments(w, 9, mode="exact")
        mf = moments(w, 9, mode="float", context=ctx50)
        for a, b in zip(me.values, mf.values):
            assert scalar_eq(a, b, tol=TOL40)

    @pytest.mark.parametrize("name,params", ALL_PRESETS)
    def test_quadrature_agrees_with_analytic_to_20(self, name, params, ctx50):
        w = make_weight(name, params)
        exact = moments(w, 21, mode="exact")
        quad = moments(w, 21, mode="float", context=ctx50, method="quadrature")
        assert quad.source == "quadrature"
        tol = Fraction(1, 10**40)  # 10^(10-p) at p=50
        for a, b in zip(exact.values, quad.values):
            assert scalar_eq(a, b, tol=tol)

    def test_error_estimates_honest_against_refinement(self, ctx50):
        # a 70-digit run is the refined reference; the 50-digit values must
        # sit within their own reported estimates of it
        w = preset_weight("chebyshev-u2-add")
        coarse = moments(w, 9, context=ctx50, method="quadrature")
        fine = moments(w, 9, context=with_precision(70), method="quadrature")
        for i, (a, b) in enumerate(zip(coarse.values, fine.values)):
            diff = abs(a.value - ctx50.mp.convert(b.value))
            assert diff <= ctx50.mp.convert(coarse.error_estimates[i].value)


class TestExpressionMoments:
    def test_exp_weight_matches_direct_quadrature(self, ctx50):
        # oracle: independent mpmath.quad at global precision
        mpmath.mp.dps = 60
        oracle = [mpmath.quad(lambda t, _n=n: t**_n * mpmath.exp(-t), [0, mpmath.inf])
                  for n in range(5)]
        w = normalize(parse_weight("exp(-x)", Interval(0, "inf")), ctx50)
        m = moments(w, 5, context=ctx50)
        assert m.source == "quadrature"
        for got, want in zip(m.values, oracle):
            assert abs(got.value - ctx50.mp.convert(want)) < ctx50.mp.mpf(10) ** -40

    def test_exact_mode_rejected_for_expressions(self, ctx50):
        from orthoieq import ModeError

        w = normalize(parse_weight("exp(-x)", Interval(0, "inf")), ctx50)
        with pytest.raises(ModeError):
            moments(w, 3, mode="exact")


class TestContourMoments:
    def test_winding0_first_four(self):
        m = contour_moments(0, 4, mode="exact")
        assert m[0] == Scalar.exact(1)
        assert m[1] == from_sympy(2 / (sp.I * sp.pi))
        assert m[2] == Scalar.exact(0)
        assert m[3] == from_sympy(2 / (3 * sp.I * sp.pi))

    def test_even_moments_vanish(self):
        m = contour_moments(0, 9, mode="exact")
        for n in range(2, 9, 2):
            assert m[n].is_zero()

    def test_winding1_m1(self):
        m = contour_moments(1, 2, mode="exact")
        assert m[1] == from_sympy(2 / (3 * sp.I * sp.pi))

    def test_path_independence_of_c_times_m(self):
        # c m_n = (1 - (-1)^n)/n does not depend on the winding number
        sequences = {k: contour_moments(k, 8, mode="exact") for k in range(4)}
        for n in range(1, 8):
            values = {
                k: (from_sympy(sp.I * sp.pi * (2 * k + 1)) * sequences[k][n]).value
                for k in sequences
            }
            assert len({sp.simplify(v) for v in values.values()}) == 1

    def test_float_mode(self, ctx50):
        m = contour_moments(0, 4, context=ctx50)
        mp = ctx50.mp
        assert abs(m[1].value - mp.mpc(0, -2 / mp.pi)) < mp.mpf(10) ** -45
        assert abs(m[2].value) == 0

    @pytest.mark.parametrize("precision", [16, 30, 77, 100])
    @pytest.mark.parametrize("winding", [0, 1])
    def test_float_mode_equals_rounded_closed_form(self, precision, winding):
        # float moments are the exact closed form rounded once; they must be
        # the sympy closed form rounded to p digits, bit for bit and of the same type
        ctx = with_precision(precision)
        got = contour_moments(winding, 40, context=ctx)
        c = sp.I * sp.pi * (2 * winding + 1)
        for n in range(40):
            closed = sp.Integer(1) if n == 0 else sp.expand((1 - (-1) ** n) / (n * c))
            want = Scalar(sympy_to_float(closed, ctx), precision)
            assert got[n] == want
            assert type(got[n].value) is type(want.value)
            assert got[n].precision == precision


    @pytest.mark.parametrize("call,error,text", [
        (lambda: contour_moments(0, 0), ConfigurationError, "count must be at least 1 (m_0)"),
        (lambda: contour_moments(-1, 3), ConfigurationError,
         "winding must be an integer >= 0, got -1"),
        (lambda: contour_moments(0, 3, mode="fast"), ConfigurationError,
         "mode must be 'float' or 'exact', got 'fast'"),
        (lambda: moments(contour_weight(0), 3, method="quadrature"), ConfigurationError,
         "contour moments have no quadrature form"),
    ])
    def test_rejections_keep_their_type_and_text(self, call, error, text):
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error
        assert str(info.value) == text

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("winding", [0, 1])
    def test_weight_moments_equal_contour_moments(self, winding, mode, ctx50):
        via_weight = moments(contour_weight(winding), 9, mode=mode, context=ctx50)
        direct = contour_moments(winding, 9, mode=mode, context=ctx50)
        assert via_weight == direct
        assert via_weight.source == direct.source == "contour"
        assert via_weight.weight_id == direct.weight_id == f"contour[k={winding}]"
        for a, b in zip(via_weight.values, direct.values):
            assert type(a.value) is type(b.value) and a.precision == b.precision


class TestGeneralizedMoments:
    def test_identity_reduces_to_plain(self):
        w = preset_weight("laguerre", gamma=1)
        m = moments(w, 7, mode="exact")
        gen = generalized_moments(w, "x", 3, 3)
        for k in range(4):
            for j in range(4):
                assert gen[k][j] == m[k + j]

    def test_x_squared_on_exponential(self):
        # oracle: gamma recursion gives <x^2> = 2, <x^3> = 6
        oracle = gamma_recursion_moments(Fraction(1), 4)
        assert oracle[2] == 2 and oracle[3] == 6
        w = preset_weight("laguerre", gamma=1)
        gen = generalized_moments(w, "x^2", 1, 1)
        assert gen[1][0] == Scalar.exact(2)
        assert gen[1][1] == Scalar.exact(6)

    def test_kmax_zero_row_is_plain_moments(self):
        w = preset_weight("uniform-symmetric")
        m = moments(w, 4, mode="exact")
        gen = generalized_moments(w, "x^3", 0, 3)
        for j in range(4):
            assert gen[0][j] == m[j]

    def test_constant_f_rejected_syntactically(self):
        w = preset_weight("laguerre", gamma=1)
        with pytest.raises(ConstantFunctionError):
            generalized_moments(w, "3", 1, 1)

    def test_constant_f_rejected_by_sampling(self, ctx50):
        w = preset_weight("uniform-symmetric")
        with pytest.raises(ConstantFunctionError):
            generalized_moments(w, "sin(x)^2+cos(x)^2", 1, 1, context=ctx50)

    def test_f_with_a_pole_at_a_sample_reports_a_quadrature_error(self, ctx50):
        # f(1/2) divides by zero; the constancy check skips that sample and the
        # integrator reports the failure of the first entry that evaluates f
        w = normalize(parse_weight("exp(-x)", Interval(0, 1)), ctx50)
        with pytest.raises(QuadratureError) as err:
            generalized_moments(w, "1/(x-1/2)", 1, 0, context=ctx50)
        assert err.value.worst_index == (1, 0)
        assert str(err.value) == (
            "generalized moment <f^1 x^0> of expr[exp(-x) on (0, 1)]: "
            "integration of exp(-x) failed: ZeroDivisionError"
        )

    def test_transcendental_f_quadrature(self, ctx50):
        # oracle: <exp(x) x> over e^-x on (0, inf) = integral x e^(-x) e^x ... diverges;
        # use f = exp(-x): <exp(-x)^1 x^0> = integral e^-2x = 1/2
        w = preset_weight("laguerre", gamma=1)
        gen = generalized_moments(w, "exp(-x)", 1, 1, context=ctx50)
        mp = ctx50.mp
        assert abs(gen[1][0].value - mp.mpf(1) / 2) < mp.mpf(10) ** -40
        # <exp(-x) x> = integral x e^-2x = 1/4
        assert abs(gen[1][1].value - mp.mpf(1) / 4) < mp.mpf(10) ** -40


class TestMomentSequence:
    def test_m0_must_be_one(self):
        with pytest.raises(ConfigurationError):
            MomentSequence.from_values([Fraction(2), Fraction(1)])

    def test_indexing_past_end(self):
        m = MomentSequence.from_values([1, Fraction(1, 2)])
        with pytest.raises(InsufficientMomentsError):
            m[2]

    def test_manual_construction_for_degenerate_cases(self):
        m = MomentSequence.from_values([1, Fraction(1, 2), Fraction(1, 4)])
        assert m[2].as_fraction() == Fraction(1, 4)

    def test_rounded_closed_forms_keep_their_exact_values(self, ctx50):
        for w in (preset_weight("jacobi-add", p=3, q=2), contour_weight(0)):
            assert moments(w, 9, context=ctx50).exact == moments(w, 9, mode="exact").values

    def test_no_exact_values_elsewhere(self, ctx50):
        w = preset_weight("laguerre", gamma=1)
        expression = normalize(parse_weight("exp(-x)", Interval(0, "inf")), ctx50)
        rounded = moments(w, 5, context=ctx50)
        for seq in (moments(w, 5, mode="exact"),
                    moments(w, 5, context=ctx50, method="quadrature"),
                    moments(expression, 3, context=ctx50),
                    MomentSequence.from_values(rounded.values),
                    MomentSequence.from_values([1, Fraction(1, 2)])):
            assert seq.exact is None

    def test_exact_values_take_no_part_in_eq_hash_or_repr(self, ctx50):
        rounded = moments(preset_weight("laguerre", gamma=1), 5, context=ctx50)
        bare = MomentSequence(rounded.values, rounded.source, rounded.weight_id)
        assert rounded.exact is not None and bare.exact is None
        assert rounded == bare
        assert hash(rounded) == hash(bare)
        assert repr(rounded) == repr(bare)
