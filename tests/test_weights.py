from fractions import Fraction
from types import SimpleNamespace

import mpmath
import pytest
import sympy as sp

from orthoieq import (
    ConfigurationError,
    IntegrabilityError,
    Interval,
    NormalizationError,
    PrecisionContext,
    Scalar,
    contour_weight,
    default_samples,
    moments,
    normalize,
    parse_weight,
    preset_weight,
    scalar_eq,
)
from orthoieq.quadrature import integrate_expression

from conftest import ALL_PRESETS, from_sympy, make_weight, sympy_to_float


class TestInterval:
    def test_order_enforced(self):
        with pytest.raises(ConfigurationError):
            Interval(1, 0)
        with pytest.raises(ConfigurationError):
            Interval(2, 2)

    def test_infinite_endpoints(self):
        iv = Interval(0, "inf")
        assert iv.alpha_finite and not iv.beta_finite
        iv = Interval("-inf", "inf")
        assert not iv.finite

    def test_rational_endpoints(self):
        iv = Interval("1/2", 1)
        assert iv.alpha == Fraction(1, 2)

    @pytest.mark.parametrize("ends,shown", [
        (("1x", 2), "'1x'"),
        ((0, " -2/x"), "'-2/x'"),
        (("1/0", 2), "'1/0'"),
        ((0, None), "None"),
    ])
    def test_malformed_endpoint_names_it(self, ends, shown):
        with pytest.raises(ConfigurationError) as info:
            Interval(*ends)
        assert str(info.value) == (f"interval endpoint {shown} is not a number "
                                   "(int, Fraction, decimal string, inf or -inf)")


    @pytest.mark.parametrize("ends,span", [
        ((0, 1), (0, 1)),
        ((Fraction(-1, 2), "inf"), (Fraction(-1, 2), Fraction(3, 2))),
        (("-inf", 0), (-2, 0)),
        (("-inf", "inf"), (-1, 1)),
    ])
    def test_sample_span_clips_an_infinite_end(self, ends, span):
        interval = Interval(*ends)
        assert interval.sample_span() == span
        samples = default_samples(interval, mode="exact")
        assert (samples[0].value, samples[2].value) == span


class TestPresetValidation:
    def test_laguerre_gamma_range(self):
        with pytest.raises(ConfigurationError):
            preset_weight("laguerre", gamma="1/2")
        preset_weight("laguerre", gamma=1)  # boundary accepted

    def test_jacobi_add_ranges(self):
        with pytest.raises(ConfigurationError):
            preset_weight("jacobi-add", p=3, q=1)  # q must exceed 1
        with pytest.raises(ConfigurationError):
            preset_weight("jacobi-add", p=0, q=2)  # p - q must exceed -1

    def test_jacobi_mult_ranges(self):
        with pytest.raises(ConfigurationError):
            preset_weight("jacobi-mult", p=2, q=2)  # p - q must be positive
        with pytest.raises(ConfigurationError):
            preset_weight("jacobi-mult", p=2, q=0)

    def test_unknown_preset_name(self):
        with pytest.raises(ConfigurationError):
            preset_weight("hermite")

    @pytest.mark.parametrize("name,params,message", [
        ("laguerre", {"gamma": "1/2"}, "laguerre requires gamma >= 1, got 1/2"),
        ("jacobi-add", {"p": 1, "q": 2},
         "jacobi-add requires q > 1 and p - q > -1, got p=1, q=2"),
        ("jacobi-mult", {"p": 1, "q": 1},
         "jacobi-mult requires p - q > 0 and q > 0, got p=1, q=1"),
    ])
    def test_requirement_messages(self, name, params, message):
        with pytest.raises(ConfigurationError) as err:
            preset_weight(name, **params)
        assert str(err.value) == message

    @pytest.mark.parametrize("name,params,message", [
        ("laguerre", {}, "laguerre takes gamma, got none"),
        ("jacobi-add", {"p": 3}, "jacobi-add takes p, q, got p"),
        ("chebyshev-u2-add", {"p": 3}, "chebyshev-u2-add takes no parameters, got p"),
    ])
    def test_missing_or_unexpected_parameters(self, name, params, message):
        with pytest.raises(ConfigurationError) as err:
            preset_weight(name, **params)
        assert str(err.value) == message


# each Chebyshev preset is the Jacobi preset of the same form at (p, q) = (2, 3/2)
CHEBYSHEV_AS_JACOBI = [
    ("chebyshev-u2-add", "jacobi-add"),
    ("chebyshev-u2-mult", "jacobi-mult"),
]


class TestChebyshevIsJacobi:
    @pytest.mark.parametrize("chebyshev,jacobi", CHEBYSHEV_AS_JACOBI)
    def test_exact_moments_equal(self, chebyshev, jacobi):
        got = moments(preset_weight(chebyshev), 31, mode="exact")
        want = moments(preset_weight(jacobi, p=2, q="3/2"), 31, mode="exact")
        assert got.values == want.values

    @pytest.mark.parametrize("p", [16, 30, 50, 77, 100])
    @pytest.mark.parametrize("chebyshev,jacobi", CHEBYSHEV_AS_JACOBI)
    def test_divisors_equal_bit_for_bit(self, chebyshev, jacobi, p):
        ctx = PrecisionContext(p)
        got = preset_weight(chebyshev).divisor(ctx)
        assert got == preset_weight(jacobi, p=2, q="3/2").divisor(ctx)


class TestNormalization:
    def test_laguerre_gamma1_divisor_is_one(self, ctx50):
        w = preset_weight("laguerre", gamma=1)
        assert w.divisor(ctx50) == 1

    def test_laguerre_gamma2_divisor_is_gamma_of_2(self, ctx50):
        # oracle: integral of x e^-x over (0, inf) is Gamma(2) = 1
        mpmath.mp.dps = 30
        oracle = mpmath.quad(lambda t: t * mpmath.exp(-t), [0, mpmath.inf])
        assert abs(oracle - 1) < mpmath.mpf(10) ** -25
        w = preset_weight("laguerre", gamma=2)
        assert w.divisor(ctx50) == 1

    def test_chebyshev_add_divisor_is_half_pi(self, ctx50):
        # oracle: Beta(1/2, 3/2) by direct Beta evaluation
        mpmath.mp.dps = 30
        oracle = mpmath.beta(mpmath.mpf(1) / 2, mpmath.mpf(3) / 2)
        assert abs(oracle - mpmath.pi / 2) < mpmath.mpf(10) ** -25
        w = preset_weight("chebyshev-u2-add")
        assert w.divisor(ctx50) == sympy_to_float(sp.pi / 2, ctx50)

    @pytest.mark.parametrize("name,params", ALL_PRESETS)
    def test_float_quadrature_agrees_with_exact_divisor(self, name, params, ctx50):
        # integrate the raw body numerically and compare with the closed form
        w = make_weight(name, params)
        raw = parse_weight(w.body.raw_text(), w.interval)
        raw = normalize(raw, ctx50)
        closed_div = ctx50.scalar(w.divisor(ctx50))
        assert scalar_eq(raw.normalization, closed_div, tol=Fraction(1, 10**45))

    def test_already_normalized_is_identity(self, ctx50):
        w = preset_weight("laguerre", gamma=1)
        assert normalize(w, ctx50) is w


class TestNodeSet:
    """The node data a weight keeps (Weight.nodes) are no part of its value."""

    def test_normalize_hands_the_node_set_on(self, ctx50):
        raw = parse_weight("exp(-x)*(1+x)", Interval(0, "inf"))
        w = normalize(raw, ctx50)
        assert w.nodes is raw.nodes and len(w.nodes) == 1
        moments(w, 5, context=ctx50)
        assert len(w.nodes) == 1  # the same precision, the same node set

    @pytest.mark.parametrize("text,interval", [
        ("exp(-x)*(1+x)", Interval(0, "inf")),
        ("x^(3/2)*(1-x)", Interval(0, 1)),
    ])
    def test_equality_hash_and_repr_ignore_the_nodes(self, text, interval, ctx50):
        used = normalize(parse_weight(text, interval), ctx50)
        before = (repr(used), hash(used))
        moments(used, 7, context=ctx50)
        fresh = normalize(parse_weight(text, interval), ctx50)
        fresh.nodes.clear()
        assert used.nodes and not fresh.nodes
        assert used == fresh
        assert (repr(used), hash(used)) == before == (repr(fresh), hash(fresh))
        assert "nodes" not in repr(used)

    def test_preset_equality_hash_and_repr_ignore_the_nodes(self, ctx50):
        used = preset_weight("jacobi-add", p=3, q=2)
        before = (repr(used), hash(used))
        moments(used, 5, context=ctx50, method="quadrature")
        assert used.nodes
        fresh = preset_weight("jacobi-add", p=3, q=2)
        assert used == fresh
        assert (repr(used), hash(used)) == before == (repr(fresh), hash(fresh))


def _rational(value):
    return sp.Rational(value.numerator, value.denominator)


def _sympy_ratio_product(a, b, n):
    # prod_{j<n} (a+j)/(b+j) in sympy Rationals, as the presets computed it before
    num = sp.Integer(1)
    den = sp.Integer(1)
    for j in range(n):
        num *= sp.Rational(a.numerator + j * a.denominator, a.denominator)
        den *= sp.Rational(b.numerator + j * b.denominator, b.denominator)
    return num / den


def _params(params):
    # the preset parameters as Fractions, read by the oracles as attributes
    return SimpleNamespace(**{k: Fraction(v) for k, v in params.items()})


# the sympy closed forms the presets used before their moments became Fractions
# and their divisors mpmath values
SYMPY_MOMENT = {
    "laguerre": lambda b, n: _sympy_ratio_product(b.gamma, Fraction(1), n) * sp.factorial(n),
    "jacobi-add": lambda b, n: _sympy_ratio_product(b.q - 1, b.p, n),
    "chebyshev-u2-add": lambda b, n: _sympy_ratio_product(Fraction(1, 2), Fraction(2), n),
    "jacobi-mult": lambda b, n: _sympy_ratio_product(b.q, b.p, n),
    "chebyshev-u2-mult": lambda b, n: _sympy_ratio_product(Fraction(3, 2), Fraction(2), n),
    "uniform-symmetric": lambda b, n: sp.Integer(0) if n % 2 else sp.Rational(1, n + 1),
}
SYMPY_DIVISOR = {
    "laguerre": lambda b: sp.gamma(_rational(b.gamma)),
    "jacobi-add": lambda b: sp.beta(_rational(b.q - 1), _rational(b.p - b.q + 1)),
    "chebyshev-u2-add": lambda b: sp.pi / 2,
    "jacobi-mult": lambda b: sp.beta(_rational(b.q), _rational(b.p - b.q)),
    "chebyshev-u2-mult": lambda b: sp.pi / 2,
    "uniform-symmetric": lambda b: sp.Integer(2),
}
CLOSED_FORM_PRESETS = ALL_PRESETS + [
    ("laguerre", {"gamma": "7/3"}),
    ("jacobi-add", {"p": "7/3", "q": "5/4"}),
    ("jacobi-mult", {"p": "9/2", "q": "1/3"}),
]
# one member per family, with an irrational divisor wherever the family has one
QUADRATURE_PRESETS = [
    ("laguerre", {"gamma": "5/2"}),
    ("jacobi-add", {"p": "7/3", "q": "5/4"}),
    ("chebyshev-u2-add", {}),
    ("jacobi-mult", {"p": "9/2", "q": "1/3"}),
    ("chebyshev-u2-mult", {}),
    ("uniform-symmetric", {}),
]


class TestClosedFormsMatchSympy:
    @pytest.mark.parametrize("name,params", CLOSED_FORM_PRESETS)
    def test_fraction_moments_equal_sympy_closed_forms(self, name, params):
        w = make_weight(name, params)
        exact = moments(w, 31, mode="exact")
        for n in range(31):
            want = SYMPY_MOMENT[name](_params(params), n)
            got = w.body.moments(31)[n]
            assert type(got) is Fraction
            assert got == Fraction(int(want.p), int(want.q))
            assert exact[n] == from_sympy(want)

    @pytest.mark.parametrize("p", [16, 30, 50, 77, 100])
    @pytest.mark.parametrize("name,params", CLOSED_FORM_PRESETS)
    def test_divisor_equals_rounded_sympy_closed_form(self, name, params, p):
        # bit for bit the sympy closed form at p+10 digits, rounded once to p
        ctx = PrecisionContext(p)
        w = make_weight(name, params)
        got = w.divisor(ctx)
        assert type(got) is type(ctx.mp.mpf(0))
        assert got == sympy_to_float(SYMPY_DIVISOR[name](_params(params)), ctx)

    @pytest.mark.parametrize("name,params", QUADRATURE_PRESETS)
    def test_quadrature_moments_divide_by_the_same_value(self, name, params, ctx50):
        w = make_weight(name, params)
        got = moments(w, 9, context=ctx50, method="quadrature")
        norm = sympy_to_float(SYMPY_DIVISOR[name](_params(params)), ctx50)
        raw = integrate_expression(
            w.expression(), w.interval, ctx50,
            [(0, n) for n in range(9)],
            endpoint_exponents=w.endpoint_exponents,
        )
        assert [v.value for v in got.values] == [r.value / norm for r, _err in raw]


class TestParseWeight:
    def test_exp_weight(self):
        w = parse_weight("exp(-x)", Interval(0, "inf"))
        assert w.endpoint_exponents == (0, 0)
        assert not w.is_normalized

    def test_chebyshev_exponents(self):
        w = parse_weight("(1-x)^(1/2)*x^(-1/2)", Interval(0, 1))
        assert w.endpoint_exponents == (Fraction(-1, 2), Fraction(1, 2))

    def test_syntax_error_offset(self):
        from orthoieq import WeightSyntaxError

        with pytest.raises(WeightSyntaxError) as err:
            parse_weight("x^^2", Interval(0, 1))
        assert err.value.position == 3

    def test_detectably_non_integrable(self):
        with pytest.raises(IntegrabilityError):
            parse_weight("x^(-3/2)", Interval(0, 1))
        with pytest.raises(IntegrabilityError):
            parse_weight("1/(1-x)", Interval(0, 1))

    def test_divergent_on_infinite_interval(self, ctx50):
        # constant mass on (0, inf) has no finite integral
        w = parse_weight("2", Interval(0, "inf"))
        with pytest.raises(IntegrabilityError):
            normalize(w, ctx50)

    def test_zero_integral(self, ctx50):
        w = parse_weight("sin(x)", Interval(-2, 2))
        with pytest.raises(NormalizationError):
            normalize(w, ctx50)

    def test_normalized_expression_integrates_to_one(self, ctx50):
        from orthoieq import moments

        w = normalize(parse_weight("exp(-x)*(1+x)", Interval(0, "inf")), ctx50)
        m = moments(w, 1, context=ctx50)
        assert scalar_eq(m[0], Scalar.exact(1), tol=Fraction(1, 10**40))


class TestContour:
    def test_winding_validation(self):
        with pytest.raises(ConfigurationError):
            contour_weight(-1)

    def test_normalizing_constant(self):
        w = contour_weight(0)
        assert w.normalization == from_sympy(sp.I * sp.pi)
        w2 = contour_weight(2)
        assert w2.normalization == from_sympy(5 * sp.I * sp.pi)

    def test_not_pointwise_evaluable(self):
        with pytest.raises(ConfigurationError):
            contour_weight(0).expression()
