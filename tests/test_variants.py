from fractions import Fraction
from math import comb

import mpmath
import pytest
import sympy as sp

from orthoieq import (
    Additive,
    ArbitraryF,
    ConfigurationError,
    DegenerateDegreeError,
    Functional,
    LinearShift,
    MomentSequence,
    Multiplicative,
    MultiplicativeCandidate,
    Polynomial,
    PrecisionContext,
    Scalar,
    check_arbitrary_f,
    check_functional_orthogonality,
    contour_weight,
    enumerate_multiplicative,
    generalized_moments,
    inner_moment,
    integral_image,
    moments,
    orthogonality,
    parity_measure_moments,
    parity_pattern,
    polynomials,
    preset_weight,
    scalar_eq,
    solve_functional,
    solve_linear_shift,
    solve_multiplicative,
    solve_polynomial,
    variants,
    verify,
)
from orthoieq.hankel import solve_e0
from orthoieq.linalg import solve_full_pivot
from orthoieq.numeric import tolerance
from orthoieq.polynomials import binomial_image, power_table

from conftest import (
    I_PI,
    exact_value,
    fraction_image,
    from_sympy,
    horner,
    round_once,
    rounded_outcome,
)

TOL35 = Fraction(1, 10**35)
TOL30 = Fraction(1, 10**30)


def uniform01_moments(count):
    # w = 1 on (0, 1): m_n = 1/(n+1)
    return MomentSequence.from_values([Fraction(1, k + 1) for k in range(count)])


def uniform01_weight():
    # the same weight as a preset: (1-x)^0 x^0 under jacobi-mult(2, 1)
    return preset_weight("jacobi-mult", p=2, q=1)


class TestVerifyAdditive:
    def test_laguerre_p1_exact_residual_zero(self):
        w = preset_weight("laguerre", gamma=1)
        m = moments(w, 4, mode="exact")
        P1 = solve_polynomial(m, 1)
        report = verify(P1, w, Additive(), mode="exact")
        assert report.passed
        assert report.max_residual.is_zero()
        assert len(report.sample_points) == 7

    def test_laguerre_p1_float(self, ctx50):
        w = preset_weight("laguerre", gamma=1)
        m = moments(w, 4, mode="float", context=ctx50)
        P1 = solve_polynomial(m, 1, context=ctx50)
        report = verify(P1, w, Additive(), mode="float", context=ctx50)
        assert report.passed
        assert report.max_residual.value <= ctx50.mp.mpf(10) ** -35

    def test_hand_built_p1_on_given_samples(self):
        # expand (2-y)(2-x-y) and contract against factorials by hand:
        # <(2-y)(2-y-x)> = <4 - 4y + y^2> - x<2 - y> = (4-4+2) - x(2-1) = 2 - x
        w = preset_weight("laguerre", gamma=1)
        samples = [Scalar.exact(v) for v in (0, 1, 5)]
        report = verify(Polynomial([2, -1]), w, Additive(), samples, mode="exact")
        assert report.passed and all(r.is_zero() for r in report.residuals)

    def test_perturbed_polynomial_fails(self, ctx50):
        w = preset_weight("laguerre", gamma=1)
        bad = Polynomial([Fraction(201, 100), -1])
        report = verify(bad, w, Additive(), mode="float", context=ctx50)
        assert not report.passed
        assert report.max_residual.value > ctx50.mp.mpf(10) ** -10

    def test_contour_weight_rejected(self, ctx50):
        with pytest.raises(ConfigurationError):
            verify(Polynomial([1]), contour_weight(0), Additive(), context=ctx50)

    def test_constant_solution_any_weight(self):
        for name, params in [("chebyshev-u2-mult", {}), ("uniform-symmetric", {})]:
            w = preset_weight(name, **params)
            report = verify(Polynomial([1]), w, Additive(), mode="exact")
            assert report.passed


class TestMultiplicative:
    def test_full_pattern_on_uniform01(self):
        # hand solve: a + b/2 = 1, a/2 + b/3 = 1 gives (a, b) = (-2, 6)
        m = uniform01_moments(5)
        P = solve_multiplicative(m, 1, {0})
        assert [c.as_fraction() for c in P.coeffs] == [-2, 6]

    def test_sparse_pattern_on_uniform01(self):
        # only a_1 nonzero: b m_2 = 1 with m_2 = 1/3 gives 3x (direct check:
        # integral of (3y)(3xy) dy over (0,1) is 3x, while 2x would need m_1)
        m = uniform01_moments(5)
        P = solve_multiplicative(m, 1, set())
        assert [c.as_fraction() for c in P.coeffs] == [0, 3]

    def test_sparse_pattern_on_uniform_symmetric(self):
        # b m_2 = 1 with m_2 = 1/3
        w = preset_weight("uniform-symmetric")
        m = moments(w, 5, mode="exact")
        P = solve_multiplicative(m, 1, set())
        assert [c.as_fraction() for c in P.coeffs] == [0, 3]

    def test_degree_zero_any_pattern(self):
        m = uniform01_moments(3)
        assert solve_multiplicative(m, 0, set()) == Polynomial([1])

    def test_verify_multiplicative_solutions(self):
        w = uniform01_weight()
        m = moments(w, 5, mode="exact")
        for pattern in (set(), {0}):
            P = solve_multiplicative(m, 1, pattern)
            report = verify(P, w, Multiplicative(frozenset(pattern)), mode="exact")
            assert report.passed and report.max_residual.is_zero()

    def test_verify_sparse_on_given_samples(self):
        w = preset_weight("uniform-symmetric")
        m = moments(w, 5, mode="exact")
        P = solve_multiplicative(m, 1, set())
        samples = [Scalar.exact(v) for v in (-1, 0, 2)]
        report = verify(P, w, Multiplicative(frozenset()), samples, mode="exact")
        assert report.passed and all(r.is_zero() for r in report.residuals)

    def test_enumerate_n1(self):
        m = uniform01_moments(5)
        candidates, distinct = enumerate_multiplicative(m, 1)
        assert len(candidates) == 2
        assert all(c.succeeded for c in candidates)
        polys = {tuple(x.as_fraction() for x in c.polynomial.coeffs) for c in candidates}
        assert polys == {(0, 3), (-2, 6)}
        assert distinct == 2

    def test_enumerate_n3_has_8_patterns(self):
        m = uniform01_moments(9)
        candidates, _ = enumerate_multiplicative(m, 3)
        assert len(candidates) == 8
        assert {frozenset(c.pattern) for c in candidates} == {
            frozenset(s)
            for s in ([], [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2])
        }

    @pytest.mark.parametrize("n,count", [(3, 8), (4, 16)])
    def test_float_enumeration_agrees_with_exact(self, n, count, ctx50):
        # float candidates are told apart by _poly_close's tolerance branch
        w = preset_weight("jacobi-mult", p=3, q=2)
        exact, exact_distinct = enumerate_multiplicative(moments(w, 2 * n + 1, mode="exact"), n)
        floats, float_distinct = enumerate_multiplicative(
            moments(w, 2 * n + 1, context=ctx50), n, context=ctx50
        )
        assert exact_distinct == float_distinct == count
        assert [c.succeeded for c in floats] == [c.succeeded for c in exact]
        assert [c.pattern for c in floats] == [c.pattern for c in exact]

    def test_full_pattern_orthogonal_under_one_minus_x(self):
        # <(1-x) P_n P_m> = 0 for m < n, full patterns
        for name, params in [
            ("jacobi-mult", {"p": 3, "q": 2}),
            ("chebyshev-u2-mult", {}),
            ("jacobi-mult", {"p": 2, "q": 1}),
        ]:
            w = preset_weight(name, **params)
            m = moments(w, 15, mode="exact")
            polys = [solve_multiplicative(m, n, set(range(n))) for n in range(5)]
            for n in range(5):
                for k in range(n):
                    prod = polys[n] * polys[k]
                    val = inner_moment(prod, 0, m) - inner_moment(prod, 1, m)
                    assert val.is_zero()


class TestParity:
    def test_odd_measure_moments_vanish_exactly(self):
        m = uniform01_moments(9)
        mu = parity_measure_moments(m, 5)
        for n in (1, 3, 5):
            assert mu[n].is_zero()

    def test_uniform_symmetric_values(self):
        # mu_0 = 1 - 1/3 = 2/3 and mu_2 = 1/3 - 1/5 = 2/15 by direct substitution
        w = preset_weight("uniform-symmetric")
        m = moments(w, 9, mode="exact")
        mu = parity_measure_moments(m, 4)
        assert mu[0].as_fraction() == Fraction(2, 3)
        assert mu[2].as_fraction() == Fraction(2, 15)

    def test_parity_solutions_alternate(self):
        w = preset_weight("uniform-symmetric")
        m = moments(w, 15, mode="exact")
        for n in range(7):
            P = solve_multiplicative(m, n, parity_pattern(n))
            for k in range(n + 1):
                if (n - k) % 2 == 1:
                    assert P.coefficient(k).is_zero()
                else:
                    assert not P.coefficient(k).is_zero()

    def test_parity_solutions_orthogonal_under_mu(self):
        # <P_n P_m>_mu = 0 for m < n, where mu are the parity-measure moments
        w = preset_weight("uniform-symmetric")
        m = moments(w, 17, mode="exact")
        mu = parity_measure_moments(m, 14)
        polys = [solve_multiplicative(m, n, parity_pattern(n)) for n in range(7)]
        for n in range(7):
            for k in range(n):
                prod = polys[n] * polys[k]
                acc = Scalar.exact(0)
                for j, c in enumerate(prod.coeffs):
                    acc = acc + c * mu[j]
                assert acc.is_zero()

    def test_hand_solved_degree_2(self):
        # support {0, 2}: a + b/3 = 1, a/3 + b/5 = 1 gives (-3/2, 15/2)
        w = preset_weight("uniform-symmetric")
        m = moments(w, 5, mode="exact")
        P = solve_multiplicative(m, 2, parity_pattern(2))
        assert [c.as_fraction() for c in P.coeffs] == [
            Fraction(-3, 2),
            0,
            Fraction(15, 2),
        ]


class TestLinearShift:
    def test_zero_shift_equals_base_solver(self):
        w = preset_weight("laguerre", gamma=2)
        m = moments(w, 13, mode="exact")
        for n in range(5):
            assert solve_linear_shift(m, n, 0, 1) == solve_polynomial(m, n)

    def test_slope_invariance(self):
        # <(b x)^k P> = delta scales each equation but not the solution
        w = preset_weight("jacobi-add", p=3, q=2)
        m = moments(w, 11, mode="exact")
        for n in range(4):
            base = solve_linear_shift(m, n, 0, 1)
            for b in (2, Fraction(-1, 3), 7):
                assert solve_linear_shift(m, n, 0, b) == base

    def test_one_minus_x_recovers_multiplicative(self):
        m = uniform01_moments(13)
        for n in range(1, 6):
            shifted = solve_linear_shift(m, n, 1, -1)
            full = solve_multiplicative(m, n, set(range(n)))
            assert shifted == full

    def test_b_zero_rejected(self):
        m = uniform01_moments(5)
        with pytest.raises(ConfigurationError):
            solve_linear_shift(m, 1, 1, 0)
        with pytest.raises(ConfigurationError):
            LinearShift(Scalar.exact(1), Scalar.exact(0))

    def test_complex_shift_accepted_and_flagged(self, ctx50):
        # Q(i pi) has no bare i, so the complex shift is 1 + i pi
        w = preset_weight("laguerre", gamma=1)
        m = moments(w, 5, mode="exact")
        a = from_sympy(1 + sp.I * sp.pi)
        P = solve_linear_shift(m, 1, a, 1)
        form = LinearShift(a, Scalar.exact(1))
        assert form.complex_shift
        report = verify(P, w, form, mode="exact")
        assert report.complex_shift
        assert report.passed

    def test_verify_shift_exact(self):
        m = uniform01_moments(9)
        w = uniform01_weight()
        P = solve_linear_shift(m, 2, 1, -1)
        report = verify(P, w, LinearShift(Scalar.exact(1), Scalar.exact(-1)), mode="exact")
        assert report.passed and report.max_residual.is_zero()


class TestFunctional:
    def test_identity_reduces_to_base(self, ctx50):
        w = preset_weight("laguerre", gamma=1)
        m = moments(w, 7, mode="exact")
        P = solve_functional(w, "x", 2, context=ctx50, mode="exact")
        assert P == solve_polynomial(m, 2)

    def test_x_squared_on_exponential(self):
        # hand solve: a + b = 1, 2a + 6b = 0 gives (3/2, -1/2)
        w = preset_weight("laguerre", gamma=1)
        P = solve_functional(w, "x^2", 1, mode="exact")
        assert [c.as_fraction() for c in P.coeffs] == [Fraction(3, 2), Fraction(-1, 2)]

    def test_x_squared_float_solve_stays_float(self, ctx50):
        # the polynomial-f table is built from moments of the requested mode
        w = preset_weight("laguerre", gamma=1)
        P = solve_functional(w, "x^2", 1, context=ctx50)
        mp = ctx50.mp
        assert all(c.precision == 50 for c in P.coeffs)
        assert abs(P.coeffs[0].value - mp.mpf(3) / 2) < mp.mpf(10) ** -45
        assert abs(P.coeffs[1].value + mp.mpf(1) / 2) < mp.mpf(10) ** -45

    def test_degree_zero(self):
        w = preset_weight("laguerre", gamma=1)
        assert solve_functional(w, "x^2", 0, mode="exact") == Polynomial([1])

    def test_contour_solve_stays_exact(self):
        # m_1 = 2/(i pi), m_3 = 2/(3 i pi), m_4 = 0: a_0 + a_1 m_1 = 1 and
        # a_0 m_3 + a_1 m_4 = 0 give a_0 = 0, a_1 = i pi / 2
        P = solve_functional(contour_weight(0), "x^3", 1, mode="exact")
        assert all(c.is_exact for c in P.coeffs)
        assert P.coeffs[0] == Scalar.exact(0)
        assert P.coeffs[1] == from_sympy(sp.I * sp.pi / 2)

    @pytest.mark.parametrize("n", [2, 3])
    def test_contour_quadratic_f_conditions_hold_exactly(self, n):
        # <f^k P> = delta_k0 for f = x^2 + x on winding 0: each deviation is
        # exactly zero (this took 21 s at n = 2 and did not finish at n = 3
        # while contour values were sympy expressions)
        w = contour_weight(0)
        P = solve_functional(w, "x^2+x", n, mode="exact")
        table = generalized_moments(w, "x^2+x", n, n)
        for k, row in enumerate(table):
            deviation = sum((a * m for a, m in zip(P.coeffs, row)),
                            Scalar.exact(-1 if k == 0 else 0))
            assert deviation.is_rational() and deviation.is_zero()
        if n == 2:
            # oracle: the same conditions solved by sympy on the closed-form moments
            x = sp.Symbol("x")

            def inner(expr):
                poly = sp.Poly(sp.expand(expr), x)
                return sum(c * (1 if j == 0 else (1 - (-1) ** j) / (j * sp.I * sp.pi))
                           for (j,), c in poly.terms())

            M = sp.Matrix(n + 1, n + 1, lambda k, j: inner((x**2 + x) ** k * x**j))
            want = M.LUsolve(sp.Matrix([1] + [0] * n))
            assert list(P.coeffs) == [from_sympy(a) for a in want]

    def test_sqrt_argument_by_hand(self, ctx50):
        # f = sqrt(x) on e^-x: a + b = 1, a Gamma(3/2) + b Gamma(5/2) = 0
        # gives a = 3, b = -2
        w = preset_weight("laguerre", gamma=1)
        P = solve_functional(w, "sqrt(x)", 1, context=ctx50)
        mp = ctx50.mp
        assert abs(P.coeffs[0].value - 3) < mp.mpf(10) ** -40
        assert abs(P.coeffs[1].value + 2) < mp.mpf(10) ** -40

    def test_verify_functional_polynomial_f(self, ctx50):
        w = preset_weight("laguerre", gamma=1)
        P = solve_functional(w, "x^2", 1, mode="exact")
        report = verify(P, w, Functional("x^2"), mode="exact")
        assert report.passed and report.max_residual.is_zero()

    def test_verify_functional_sqrt(self, ctx50):
        w = preset_weight("laguerre", gamma=1)
        P = solve_functional(w, "sqrt(x)", 1, context=ctx50)
        report = verify(P, w, Functional("sqrt(x)"), context=ctx50)
        assert report.passed

    def test_orthogonality_m0(self):
        # <x^2 (3-x)/2> = (3*2 - 6)/2 = 0
        w = preset_weight("laguerre", gamma=1)
        Pn = solve_functional(w, "x^2", 1)
        P0 = Polynomial([1])
        val = check_functional_orthogonality(Pn, P0, w, "x^2")
        assert val.is_zero()

    def test_orthogonality_reduces_for_identity(self, ctx50):
        w = preset_weight("laguerre", gamma=1)
        m = moments(w, 9, mode="exact")
        P2 = solve_polynomial(m, 2)
        P1 = solve_polynomial(m, 1)
        via_f = check_functional_orthogonality(P2, P1, w, "x")
        direct = orthogonality(P2, P1, m)
        assert via_f == direct

    def test_degree_order_enforced(self):
        w = preset_weight("laguerre", gamma=1)
        P = Polynomial([1])
        with pytest.raises(ConfigurationError):
            check_functional_orthogonality(P, P, w, "x^2")


class TestArbitraryF:
    def test_identity_on_solver_output_passes(self):
        w = preset_weight("laguerre", gamma=1)
        m = moments(w, 7, mode="exact")
        P = solve_polynomial(m, 2)
        report = check_arbitrary_f(P, "x", w, mode="exact")
        assert report.passed and report.max_deviation.is_zero()

    def test_unnormalized_monomial_reported_as_failure(self):
        # P = x on e^-x: <P> = m_1 = 1 holds but <x P> = m_2 = 2
        w = preset_weight("laguerre", gamma=1)
        report = check_arbitrary_f(Polynomial([0, 1]), "x", w, mode="exact")
        assert not report.passed
        assert report.values[0] == Scalar.exact(1)
        assert report.values[1] == Scalar.exact(2)
        assert report.max_deviation == Scalar.exact(2)

    def test_constant_solution_with_fixed_point_f(self):
        # f(1) = 1 makes P_0 = 1 satisfy the k=0 condition
        w = preset_weight("laguerre", gamma=1)
        report = check_arbitrary_f(Polynomial([1]), "x^2", w, n=0)
        assert report.passed

    def test_transcendental_f_against_direct_quadrature(self, ctx50):
        # oracle: <exp(2-x) x^k> over e^-x via direct mpmath.quad
        mpmath.mp.dps = 60
        oracle = [
            mpmath.quad(
                lambda t, _k=k: t**_k * mpmath.exp(-t) * mpmath.exp(2 - t),
                [0, mpmath.inf],
            )
            for k in range(2)
        ]
        w = preset_weight("laguerre", gamma=1)
        P = Polynomial([2, -1])  # f(P(x)) = exp(2 - x)
        report = check_arbitrary_f(P, "exp(x)", w, n=1, context=ctx50)
        mp = ctx50.mp
        for got, want in zip(report.values, oracle):
            assert abs(got.value - mp.convert(want)) < mp.mpf(10) ** -40

    def test_verify_arbitrary_f_form_constant(self):
        # P_0 = 1 with identity f: rhs = <1 * 1> = 1
        w = preset_weight("uniform-symmetric")
        report = verify(Polynomial([1]), w, ArbitraryF("x"), mode="exact")
        assert report.passed


class TestShiftDegeneracyOnSignedMeasure:
    def test_laguerre_shift_one_minus_one_degenerates_with_multiplicative(self):
        # on e^-x the measure (1-x) w changes sign, and both the shift(1,-1)
        # system and the full multiplicative pattern collapse together:
        # <(1-x) P> = -a_1 forces a_1 = 0
        from orthoieq import DegenerateDegreeError, InconsistentPatternError

        w = preset_weight("laguerre", gamma=1)
        m = moments(w, 5, mode="exact")
        with pytest.raises(DegenerateDegreeError, match=r"for shift \(a=1, b=-1\) at degree 1"):
            solve_linear_shift(m, 1, 1, -1)
        with pytest.raises(InconsistentPatternError) as err:
            solve_multiplicative(m, 1, {0})
        assert err.value.index == 1
        assert str(err.value) == "pattern [0] assumed a_1,1 != 0 but it solved to zero"


_UNIFORM = preset_weight("uniform-symmetric")
_LAGUERRE = preset_weight("laguerre", gamma=1)


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("solve,message", [
    # m_1 = 0 on a symmetric weight forces a_1 = 0
    (lambda mode, ctx: solve_polynomial(moments(_UNIFORM, 4, mode=mode, context=ctx), 1,
                                        context=ctx),
     "solved leading coefficient a_1,1 vanished; no degree-1 solution"),
    # <(1 - x) P> = -a_1 on e^-x
    (lambda mode, ctx: solve_linear_shift(moments(_LAGUERRE, 4, mode=mode, context=ctx), 1,
                                          1, -1, context=ctx),
     "leading coefficient vanished for shift (a=1, b=-1) at degree 1"),
    # <x^3> = 0 on a symmetric weight forces a_1 = 0
    (lambda mode, ctx: solve_functional(_UNIFORM, "x^3", 1, mode=mode, context=ctx),
     "leading coefficient vanished for functional argument at degree 1"),
], ids=["additive", "shift", "functional"])
def test_degenerate_degree_messages(solve, message, mode, ctx50):
    with pytest.raises(DegenerateDegreeError) as err:
        solve(mode, ctx50)
    assert str(err.value) == message


def nested_shift_matrix(m, n, a, b):
    """Reference rows: entry (k, j) = sum_i C(k,i) a^(k-i) b^i m_(i+j), one triple loop."""
    a, b = Scalar.exact(a), Scalar.exact(b)
    matrix = []
    for k in range(n + 1):
        row = []
        for j in range(n + 1):
            acc = None
            for i in range(k + 1):
                coeff = Scalar.exact(comb(k, i)) * a ** (k - i) * b**i
                term = coeff * m[i + j]
                acc = term if acc is None else acc + term
            row.append(acc)
        matrix.append(row)
    return matrix


class TestShiftMatrixAgainstNestedLoop:
    SHIFTS = [(1, -1), (Fraction(3, 2), 2), (Fraction(-1, 3), Fraction(1, 2))]
    WEIGHTS = [("laguerre", {"gamma": 1}), ("jacobi-add", {"p": 3, "q": 2})]

    @pytest.mark.parametrize("name,params", WEIGHTS)
    @pytest.mark.parametrize("a,b", SHIFTS)
    def test_exact_and_float_coefficients_identical(self, name, params, a, b, ctx50):
        w = preset_weight(name, **params)
        e0 = [Scalar.exact(1)] + [Scalar.exact(0)] * 8
        for mode in ("exact", "float"):
            # from_values drops the exact values, so the float solve eliminates in
            # floating point, on the table's entries rounded once
            m = MomentSequence.from_values(moments(w, 17, mode=mode, context=ctx50).values)
            for n in range(9):
                table = (nested_shift_matrix(m, n, a, b) if mode == "exact"
                         else rounded_shift_matrix(m, n, a, b, ctx50))
                want = solve_full_pivot(table, e0[:n + 1])
                try:
                    got = solve_linear_shift(m, n, a, b, context=ctx50).coeffs
                except DegenerateDegreeError:
                    assert want[-1].is_zero()
                    continue
                if mode == "exact":
                    assert got == tuple(want)
                else:
                    assert [c.value for c in got] == [c.value for c in want]


def rounded_shift_matrix(m, n, a, b, context):
    """Float reference rows: entry (k, j) = sum_i C(k,i) a^(k-i) b^i m_(i+j) on
    the exact values of the float moments, rounded once; row 0 is m itself."""
    values = [exact_value(v) for v in m.values]
    rows = [[m[j] for j in range(n + 1)]]
    for k in range(1, n + 1):
        rows.append([Scalar(round_once(sum(comb(k, i) * Fraction(a) ** (k - i) * Fraction(b) ** i
                                            * values[i + j] for i in range(k + 1)), context),
                            context.precision) for j in range(n + 1)])
    return rows


@pytest.mark.parametrize("precision", [30, 50])
@pytest.mark.parametrize("name,params", [("laguerre", {"gamma": 1}),
                                         ("jacobi-add", {"p": 3, "q": 2})])
class TestFloatShiftAndFunctionalRoundTheExactSolve:
    """Shift and polynomial-f functional solves on rounded closed-form moments
    are the exact solves rounded once, bit for bit, errors included."""

    def test_shift(self, name, params, precision):
        ctx = PrecisionContext(precision)
        w = preset_weight(name, **params)
        exact, rounded = moments(w, 17, mode="exact"), moments(w, 17, context=ctx)
        for a, b in TestShiftMatrixAgainstNestedLoop.SHIFTS:
            for n in range(9):
                want = rounded_outcome(lambda: solve_linear_shift(exact, n, a, b), ctx)
                got = rounded_outcome(lambda: solve_linear_shift(rounded, n, a, b, context=ctx))
                assert got == want

    def test_functional(self, name, params, precision):
        ctx = PrecisionContext(precision)
        w = preset_weight(name, **params)
        for f in ("2*x+1", "x^2"):
            for n in range(7):
                want = rounded_outcome(lambda: solve_functional(w, f, n, mode="exact"), ctx)
                got = rounded_outcome(lambda: solve_functional(w, f, n, context=ctx))
                assert got == want


class TestShiftRecurrenceMatchesDenseSolve:
    """Exact shift solves run the recurrence on nu_j = a m_j + b m_(j+1); the
    dense route solves the table <(a+bx)^k x^j>."""

    @pytest.mark.parametrize("a,b", [(Fraction(3, 2), 2), (Fraction(-1, 3), Fraction(1, 2))])
    def test_laguerre_to_15(self, a, b):
        m = moments(preset_weight("laguerre", gamma=1), 31, mode="exact")
        g = [Scalar.exact(a), Scalar.exact(b)]
        for n in range(16):
            want = solve_e0(power_table(g, n, m, n + 1), "degenerate")
            assert solve_linear_shift(m, n, a, b).coeffs == want.coeffs


class TestShiftIsFunctionalOfLinearF:
    """P(x + a + b y) is the functional form with f = a + b x: same solve, same residuals."""

    SHIFTS = [(1, -1), (Fraction(3, 2), 2), (Fraction(-1, 3), Fraction(1, 2))]
    WEIGHTS = [("laguerre", {"gamma": 1}), ("jacobi-add", {"p": 3, "q": 2})]

    @pytest.mark.parametrize("name,params", WEIGHTS)
    @pytest.mark.parametrize("a,b", SHIFTS)
    def test_solve_and_verify_agree(self, name, params, a, b):
        w = preset_weight(name, **params)
        m = moments(w, 17, mode="exact")
        f = f"({a}) + ({b})*x"
        shift = LinearShift(Scalar.exact(a), Scalar.exact(b))
        for n in range(9):
            try:
                P = solve_linear_shift(m, n, a, b)
            except DegenerateDegreeError:
                with pytest.raises(DegenerateDegreeError):
                    solve_functional(w, f, n, mode="exact")
                continue
            assert solve_functional(w, f, n, mode="exact") == P
            by_shift = verify(P, w, shift, mode="exact")
            by_functional = verify(P, w, Functional(f), mode="exact")
            assert by_shift.residuals == by_functional.residuals


def nested_functional_image(P, gen):
    """Reference route: every (i, k) pair re-contracts <f(y)^(k-i) P(y)>, O(n^3)."""
    n = P.degree
    coeffs = []
    for i in range(n + 1):
        acc = None
        for k in range(i, n + 1):
            inner = None
            for j, a in enumerate(P.coeffs):
                term = a * gen[k - i][j]
                inner = term if inner is None else inner + term
            term = P.coeffs[k] * Scalar.exact(comb(k, i)) * inner
            acc = term if acc is None else acc + term
        coeffs.append(acc)
    return coeffs


class TestFunctionalImageAgainstNestedRoute:
    @pytest.mark.parametrize("f,mode,degrees", [("x^2 + 1", "exact", (1, 4, 8)),
                                                ("sqrt(x)", "float", (1, 2))])
    def test_coefficients_identical(self, f, mode, degrees, ctx50):
        w = preset_weight("laguerre", gamma=1)
        for n in degrees:
            P = solve_functional(w, f, n, mode=mode, context=ctx50)
            s, _ = variants._kernel_moments(P, w, Functional(f), mode, ctx50, None)
            image = binomial_image(P, s)
            gen = generalized_moments(w, f, n, n, context=ctx50)
            if mode == "exact":
                want = [c.value for c in nested_functional_image(P, gen)]
            else:  # s_k and then each image coefficient rounded once from exact values
                a = [exact_value(c) for c in P.coeffs]
                s_want = [round_once(sum(c * exact_value(v) for c, v in zip(a, row)), ctx50)
                          for row in gen]
                assert [v.value for v in s] == s_want
                want = [round_once(sum(a[k] * comb(k, i) * exact_value(s_want[k - i])
                                       for k in range(i, n + 1)), ctx50) for i in range(n + 1)]
            assert [c.value for c in image.coeffs] == want


class TestAdditiveSkipsThePowerExpansion:
    """For g = y, s_k = <y^k P> is mu_k itself: no power of g is expanded,
    neither on integer rows (polynomials._powers) nor by power_table."""

    @staticmethod
    def results(P, Pf, w, m, mf, ctx):
        exact = verify(P, w, Additive(), mode="exact", moment_seq=m)
        rounded = verify(Pf, w, Additive(), context=ctx)
        return [[(r.precision, r.value) for r in report.residuals + (report.max_residual,)]
                + [report.passed] for report in (exact, rounded)] + [
            [(c.precision, c.value) for c in image.coeffs]
            for image in (integral_image(P, m), integral_image(Pf, mf))]

    def test_additive_forms_never_call_power_table(self, monkeypatch, ctx50):
        def no_expansion(*args):
            raise AssertionError("power_table ran")

        w = preset_weight("jacobi-add", p=3, q=2)
        m = moments(w, 25, mode="exact")
        mf = moments(w, 25, mode="float", context=ctx50)
        P = solve_polynomial(m, 8)
        Pf = Polynomial([c.to_float(ctx50) for c in P.coeffs])
        shift = solve_linear_shift(m, 8, Fraction(3, 2), 2)
        functional = solve_functional(w, "x^2+x", 3, mode="exact")
        want = self.results(P, Pf, w, m, mf, ctx50)
        monkeypatch.setattr(polynomials, "power_table", no_expansion)
        monkeypatch.setattr(polynomials, "_powers", no_expansion)
        assert self.results(P, Pf, w, m, mf, ctx50) == want
        with pytest.raises(AssertionError, match="power_table ran"):
            verify(shift, w, LinearShift(Fraction(3, 2), 2), mode="exact", moment_seq=m)
        with pytest.raises(AssertionError, match="power_table ran"):
            verify(functional, w, Functional("x^2+x"), mode="exact", moment_seq=m)


class TestExactResidualsFromOneDifference:
    """Exact verify evaluates the one polynomial P - image per sample; the
    residuals are those of evaluating both sides, value and type."""

    @staticmethod
    def cases():
        out = []
        for name, params in [("laguerre", {"gamma": 1}), ("jacobi-add", {"p": 3, "q": 2})]:
            w = preset_weight(name, **params)
            m = moments(w, 25, mode="exact")
            P = solve_polynomial(m, 6)
            bad = Polynomial(P.coeffs[:2] + (P.coeffs[2] + Fraction(1, 7),) + P.coeffs[3:])
            out += [(P, w, Additive(), m, integral_image(P, m)),
                    (bad, w, Additive(), m, integral_image(bad, m))]
            shift = solve_linear_shift(m, 5, Fraction(3, 2), 2)
            out.append((shift, w, LinearShift(Fraction(3, 2), 2), m,
                        integral_image(shift, m, Fraction(3, 2), 2)))
        return out

    def test_residuals_equal_both_sides_evaluated(self, monkeypatch):
        cases = self.cases()
        want = []
        for P, w, form, m, image in cases:
            samples = variants.default_samples(w.interval, mode="exact")
            want.append([abs(P.eval(x).value - image.eval(x).value) for x in samples])
        assert any(any(r != 0 for r in row) for row in want)  # the corrupted copies

        def no_eval(*args):
            raise AssertionError("Polynomial.eval ran")

        monkeypatch.setattr(Polynomial, "eval", no_eval)
        for (P, w, form, m, _image), residuals in zip(cases, want):
            report = verify(P, w, form, mode="exact", moment_seq=m)
            got = [r.value for r in report.residuals]
            assert got == residuals
            assert [type(v) for v in got] == [type(v) for v in residuals] == [Fraction] * 7
            assert all(r.is_exact for r in report.residuals)
            assert report.passed == all(r == 0 for r in residuals)


class TestExactVerifyReport:
    """Exact verify reports what evaluating P and its image separately at
    every sample gives: residuals (value and type), max_residual and verdict,
    for solutions (whose P - image is the zero polynomial) and for copies
    with one corrupted coefficient. The image is formed here by plain
    Fraction loops, apart from the package's contractions."""

    W = preset_weight("laguerre", gamma=Fraction(13, 2))
    FORMS = [Additive(), LinearShift(Fraction(9, 2), 2), Functional("x^2"), Multiplicative()]
    ARGUMENTS = [[0, 1], [Fraction(9, 2), 2], [0, 0, 1], None]

    @staticmethod
    def evaluated_report(P, g, m, samples):
        """The residuals |P(x) - image(x)|, each side evaluated by Horner, the
        first largest of them, and whether it is zero."""
        a = [c.value for c in P.coeffs]
        b = fraction_image(a, g, [v.value for v in m.values])
        residuals = [Scalar.exact(abs(horner(a, x.value) - horner(b, x.value))) for x in samples]
        worst = max(residuals, key=lambda r: r.value)
        return residuals, worst, worst.is_zero()

    @pytest.mark.parametrize("form,g", zip(FORMS, ARGUMENTS),
                             ids=["additive", "shift", "x^2", "multiplicative"])
    @pytest.mark.parametrize("n", [4, 12, 16, 24, 40])
    def test_report_equals_evaluation(self, form, g, n):
        m = moments(self.W, 3 * n + 1, mode="exact")
        if isinstance(form, Additive):
            P = solve_polynomial(m, n)
        elif isinstance(form, LinearShift):
            P = solve_linear_shift(m, n, form.a, form.b)
        elif isinstance(form, Functional):
            P = solve_functional(self.W, form.f, n, mode="exact")
        else:  # the full support below n
            form = Multiplicative(range(n))
            P = solve_multiplicative(m, n, form.pattern)
        k = n // 2
        bad = Polynomial(P.coeffs[:k] + (P.coeffs[k] * Fraction(10**8 + 1, 10**8),)
                         + P.coeffs[k + 1:])
        samples = variants.default_samples(self.W.interval, seed=n, mode="exact")
        for poly, passes in [(P, True), (bad, False)]:
            report = verify(poly, self.W, form, samples, mode="exact", moment_seq=m)
            residuals, worst, passed = self.evaluated_report(poly, g, m, samples)
            assert [(type(r.value), r.precision, r.value) for r in report.residuals] == [
                (type(r.value), r.precision, r.value) for r in residuals]
            assert all(type(r.value) is Fraction for r in report.residuals)
            assert (report.max_residual.value, report.max_residual.precision) == (
                worst.value, worst.precision)
            assert type(report.max_residual.value) is Fraction
            assert report.passed is passed is passes


class TestVerdictComparesRationalsExactly:
    def test_residuals_tied_to_30_digits(self, ctx50):
        small = Fraction(1, 3)
        large = small + Fraction(1, 10**40)
        assert Scalar.exact(small).magnitude() == Scalar.exact(large).magnitude()
        for order in ([small, large], [large, small]):
            worst, passed = variants._verdict([Scalar.exact(v) for v in order],
                                              Scalar.exact(0), ctx50)
            assert worst.value == large and passed is False

    def test_ipi_deviations_are_sized_by_magnitude(self, ctx50):
        worst, passed = variants._verdict([Scalar.exact(Fraction(3)), I_PI, Scalar.exact(0)],
                                          Scalar.exact(0), ctx50)
        assert worst is I_PI and passed is False


class TestFloatVerifyResidualsRoundedOnce:
    """Float verify computes the exact residual of its float inputs and
    rounds it once: no Polynomial.eval, no rounding of mu, s or the image.
    The verdict's scale max(1, |P(x)|) takes each P(x) rounded once."""

    def test_degree_20_against_the_fraction_reference(self, monkeypatch, ctx50):
        w = preset_weight("laguerre", gamma=1)
        m = moments(w, 41, mode="exact")
        P = Polynomial([c.to_float(ctx50) for c in solve_polynomial(m, 20).coeffs])
        samples = variants.default_samples(w.interval, context=ctx50)
        mf = moments(w, 41, context=ctx50)
        a = [exact_value(c) for c in P.coeffs]
        image = fraction_image(a, [0, 1], [exact_value(v) for v in mf.values])
        xs = [exact_value(x) for x in samples]
        residuals = [round_once(abs(horner(a, x) - horner(image, x)), ctx50) for x in xs]
        scale = max([ctx50.mp.mpf(1)] + [round_once(abs(horner(a, x)), ctx50) for x in xs])

        def no_eval(*args):
            raise AssertionError("Polynomial.eval ran")

        monkeypatch.setattr(Polynomial, "eval", no_eval)
        report = verify(P, w, Additive(), context=ctx50)
        assert [(r.precision, r.value) for r in report.residuals] == [
            (50, r) for r in residuals]
        assert report.max_residual.value == max(residuals)
        assert report.passed is True
        assert report.passed == (max(residuals) <= tolerance(ctx50, 10) * scale)


class TestMomentConditions:
    """moment_conditions judges a form's linear conditions: <g^k P> = delta_(k,0)
    for the kernel P(x + g(y)), and <x^k P> = 1 on a multiplicative support
    with a_k = 0 off it. Exact deviations must vanish, float ones stay within
    10^(10-p)."""

    FORMS = [(Additive(), [0, 1]), (Functional("x^3+x"), [0, 1, 0, 1]),
             (Multiplicative(frozenset({0})), None)]

    @staticmethod
    def solve(w, form, m, ctx):
        if isinstance(form, Additive):
            return solve_polynomial(m, 3, context=ctx)
        if isinstance(form, Functional):
            return solve_functional(w, form.f, 3, context=ctx, mode="exact" if m[0].is_exact
                                    else "float")
        return solve_multiplicative(m, 3, form.pattern, context=ctx)

    @staticmethod
    def deviations(P, m, form, g):
        """The deviations formed by Polynomial products and one contraction each."""
        n = P.degree
        one = Scalar.exact(1)
        if g is None:
            return [inner_moment(P, k, m) - one if k in form.pattern or k == n
                    else P.coefficient(k) for k in range(n + 1)]
        power, out = Polynomial([1]), []
        for k in range(n + 1):
            value = inner_moment(power * P, 0, m)
            out.append(value - one if k == 0 else value)
            power = power * Polynomial([Fraction(c) for c in g])
        return out

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("form,g", FORMS, ids=["additive", "x^3+x", "multiplicative"])
    def test_contour_solutions_pass_and_corrupted_ones_fail(self, form, g, mode, ctx50):
        w = contour_weight(0)
        m = moments(w, 13, mode=mode, context=ctx50)
        P = self.solve(w, form, m, ctx50)
        bad = Polynomial([P.coeffs[0] + Fraction(1, 10**20)] + list(P.coeffs[1:]))
        for poly, passes in [(P, True), (bad, False)]:
            worst, ok = variants.moment_conditions(poly, w, form, mode=mode, context=ctx50)
            assert ok is passes
            assert variants.moment_conditions(poly, w, form, mode=mode, context=ctx50,
                                              moment_seq=m) == (worst, ok)
            want = max(d.magnitude() for d in self.deviations(poly, m, form, g))
            if mode == "exact":
                assert worst.is_exact and worst.magnitude() == want
                assert worst.is_zero() is passes
            else:
                assert scalar_eq(Scalar(worst.magnitude(), 50), Scalar(want, 50),
                                 tol=tolerance(ctx50, 10))


class TestDistinctCount:
    """Exact candidates are counted by hashing, float ones pairwise to 10^(10-p);
    both agree with the pairwise rule, duplicates included."""

    @staticmethod
    def pairwise(polys, tol):
        distinct = []
        for P in polys:
            if not any(P.degree == Q.degree
                       and all(scalar_eq(a, b, tol=tol) for a, b in zip(P.coeffs, Q.coeffs))
                       for Q in distinct):
                distinct.append(P)
        return len(distinct)

    @pytest.mark.parametrize("source,mode,n", [("jacobi-mult", "exact", 6),
                                               ("jacobi-mult", "float", 6),
                                               ("contour", "exact", 5),
                                               ("contour", "float", 5)])
    def test_count_equals_the_pairwise_rule(self, source, mode, n, ctx50):
        w = (contour_weight(0) if source == "contour"
             else preset_weight("jacobi-mult", p=Fraction(13, 2), q=Fraction(11, 2)))
        m = moments(w, 2 * n + 1, mode=mode, context=ctx50)
        candidates, distinct = enumerate_multiplicative(m, n, context=ctx50)
        tol = tolerance(ctx50, 10)
        polys = [c.polynomial for c in candidates if c.succeeded]
        assert distinct == self.pairwise(polys, tol) > 1
        # each success again, equal (exact) or within the tolerance (float), and
        # once more moved by far more than the tolerance
        near = 1 + (0 if mode == "exact" else Fraction(1, 10**45))
        far = 1 + Fraction(1, 10**20)
        copies, moved = (
            [MultiplicativeCandidate(P.pattern, Polynomial([x * factor for x in P.polynomial.coeffs]),
                                     None) for P in candidates if P.succeeded]
            for factor in (near, far)
        )
        for context in (ctx50, None):
            assert variants._distinct_count(candidates + copies, context) == distinct
            assert variants._distinct_count(copies + candidates + moved, context) == 2 * distinct
        assert variants._distinct_count([c for c in candidates if not c.succeeded], None) == 0


TRUTH_WEIGHTS = [("laguerre", {"gamma": 1}), ("laguerre", {"gamma": "9/2"}),
                 ("jacobi-add", {"p": 3, "q": 2}), ("jacobi-add", {"p": "11/2", "q": "9/2"}),
                 ("uniform-symmetric", {})]
# rounded copies that pass at p = 50; the sequentially rounded residual
# passed the same cases but laguerre(1) n=20 and laguerre(9/2) n=16. The
# others fail on the rounding of their inputs, not of the check.
TRUTH_PASSING = {0: (8, 10, 12, 16, 20), 1: (8, 10, 12, 16), 2: (8,), 3: (8,), 4: (8, 10, 12, 16)}


@pytest.mark.parametrize("n", [8, 10, 12, 16, 20])
@pytest.mark.parametrize("weight", range(len(TRUTH_WEIGHTS)),
                         ids=[f"{name}{list(kw.values())}" for name, kw in TRUTH_WEIGHTS])
def test_float_truth_table(weight, n, ctx50):
    """Additive float verify at p=50 of the exact solution rounded once, and
    of copies with one nonzero coefficient scaled by 1 + 1e-20 or 1 + 1e-30."""
    name, params = TRUTH_WEIGHTS[weight]
    w = preset_weight(name, **params)
    P = solve_polynomial(moments(w, 2 * n + 1, mode="exact"), n)

    def passes(coeffs):
        rounded = Polynomial([c.to_float(ctx50) for c in coeffs])
        return verify(rounded, w, Additive(), context=ctx50).passed

    if n in TRUTH_PASSING[weight]:
        assert passes(P.coeffs)
    k = next(k for k in range(n // 2, n + 1) if not P.coeffs[k].is_zero())
    for eps in (Fraction(1, 10**20), Fraction(1, 10**30)):
        assert not passes(P.coeffs[:k] + (P.coeffs[k] * (1 + eps),) + P.coeffs[k + 1:])
