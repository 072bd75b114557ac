from fractions import Fraction

import pytest
import sympy as sp

from orthoieq import (
    ConfigurationError,
    DegreeMismatchError,
    NotProportionalError,
    Polynomial,
    Scalar,
    chebyshev_U_star,
    contour_moments,
    jacobi_G,
    laguerre,
    legendre,
    match_up_to_scale,
    moments,
    orthogonality,
    preset_weight,
    solve_multiplicative,
    solve_polynomial,
)

from conftest import from_sympy

X = sp.Symbol("x")


def sympy_coeffs(expr, degree):
    poly = sp.Poly(sp.expand(expr), X)
    return [sp.Rational(poly.coeff_monomial(X**k)) for k in range(degree + 1)]


def as_fractions(P):
    return [c.as_fraction() for c in P.coeffs]


class TestLaguerre:
    def test_degree_one(self):
        assert as_fractions(laguerre(1, 1)) == [2, -1]

    @pytest.mark.parametrize("gamma", [1, 2, Fraction(5, 2)])
    @pytest.mark.parametrize("n", range(9))
    def test_against_sympy(self, n, gamma):
        # oracle: sympy's generalized Laguerre polynomial
        expr = sp.assoc_laguerre(n, sp.Rational(gamma), X)
        want = sympy_coeffs(expr, n)
        got = as_fractions(laguerre(n, gamma))
        assert got == [Fraction(int(w.p), int(w.q)) for w in want]

    def test_normalization_at_zero(self):
        # L_n(0) = binomial(n + gamma, n)
        for n in range(6):
            P = laguerre(n, 2)
            assert P.coefficient(0).as_fraction() == Fraction(
                int(sp.binomial(n + 2, n))
            )

    def test_parameter_range(self):
        with pytest.raises(ConfigurationError):
            laguerre(2, Fraction(1, 2))


class TestChebyshevUStar:
    def test_degree_one(self):
        assert as_fractions(chebyshev_U_star(1)) == [-2, 4]

    @pytest.mark.parametrize("n", range(9))
    def test_against_sympy(self, n):
        expr = sp.chebyshevu(n, 2 * X - 1)
        want = sympy_coeffs(expr, n)
        got = as_fractions(chebyshev_U_star(n))
        assert got == [Fraction(int(w.p), int(w.q)) for w in want]


class TestLegendre:
    def test_degree_two(self):
        assert as_fractions(legendre(2)) == [Fraction(-1, 2), 0, Fraction(3, 2)]

    @pytest.mark.parametrize("n", range(9))
    def test_against_sympy(self, n):
        want = sympy_coeffs(sp.legendre(n, X), n)
        got = as_fractions(legendre(n))
        assert got == [Fraction(int(w.p), int(w.q)) for w in want]


class TestJacobiG:
    @pytest.mark.parametrize("p,q", [(2, Fraction(3, 2)), (3, 2), (1, Fraction(3, 2))])
    @pytest.mark.parametrize("n", range(7))
    def test_against_sympy_jacobi(self, n, p, q):
        # oracle: G_n(p,q,x) = n! Gamma(n+p)/Gamma(2n+p) P_n^(p-q, q-1)(2x-1)
        pr, qr = sp.Rational(p), sp.Rational(q)
        scale = sp.factorial(n) * sp.gamma(n + pr) / sp.gamma(2 * n + pr)
        expr = sp.expand(scale * sp.jacobi_poly(n, pr - qr, qr - 1, 2 * X - 1))
        want = sympy_coeffs(expr, n)
        got = as_fractions(jacobi_G(n, p, q))
        assert got == [Fraction(int(w.p), int(w.q)) for w in want]

    def test_monic(self):
        for n in range(6):
            assert jacobi_G(n, 3, 2).leading == Scalar.exact(1)

    def test_parameter_range(self):
        with pytest.raises(ConfigurationError):
            jacobi_G(2, 1, 2)  # p - q <= -1


class TestMatchUpToScale:
    def test_identical(self):
        P = Polynomial([2, -1])
        assert match_up_to_scale(P, P) == Scalar.exact(1)

    def test_chebyshev_add_solver_vs_u_star(self):
        # solver P_1 on the chebyshev-add weight: (m_2 - m_1 x)/(m_2 - m_1^2)
        # with m = (1, 1/4, 1/8) gives 2 - 4x, so c = -1 against U*_1 = 4x - 2
        w = preset_weight("chebyshev-u2-add")
        m = moments(w, 4, mode="exact")
        P1 = solve_polynomial(m, 1)
        assert as_fractions(P1) == [2, -4]
        c = match_up_to_scale(P1, chebyshev_U_star(1))
        assert c == Scalar.exact(-1)

    def test_contour_p3_vs_legendre(self):
        # displayed forms: (3 i pi / 8)(3x - 5x^3) against (5x^3 - 3x)/2
        m = contour_moments(0, 8, mode="exact")
        P3 = solve_polynomial(m, 3)
        c = match_up_to_scale(P3, legendre(3))
        assert c == from_sympy(-3 * sp.I * sp.pi / 4)

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            match_up_to_scale(Polynomial([1]), Polynomial([0, 1]))

    def test_not_proportional_reports_index(self):
        with pytest.raises(NotProportionalError) as err:
            match_up_to_scale(Polynomial([1, 2, 1]), Polynomial([1, 3, 1]))
        assert err.value.index == 1


def _preset_moments(name, **params):
    return lambda count: moments(preset_weight(name, **params), count, mode="exact")


class TestFamilyInvariants:
    @pytest.mark.parametrize("family,moments_of", [
        (lambda n: laguerre(n, 1), _preset_moments("laguerre", gamma=1)),
        (lambda n: laguerre(n, Fraction(9, 2)), _preset_moments("laguerre", gamma=Fraction(9, 2))),
        (chebyshev_U_star, _preset_moments("chebyshev-u2-add")),
        (lambda n: jacobi_G(n, 3, 2), _preset_moments("jacobi-add", p=3, q=2)),
        (lambda n: jacobi_G(n, Fraction(11, 2), Fraction(9, 2)),
         _preset_moments("jacobi-add", p=Fraction(11, 2), q=Fraction(9, 2))),
        (legendre, lambda count: contour_moments(0, count, mode="exact")),
    ], ids=["laguerre-1", "laguerre-9/2", "u-star", "jacobi-3-2", "jacobi-11/2-9/2", "legendre"])
    def test_orthogonal_under_x_w_to_20(self, family, moments_of):
        # <x F_n F_m> over the preset's closed-form moments: 0 below the diagonal
        m = moments_of(42)
        polys = [family(n) for n in range(21)]
        for n, Fn in enumerate(polys):
            for k, Fm in enumerate(polys[:n + 1]):
                assert orthogonality(Fn, Fm, m).is_zero() == (k < n), (n, k)

    @pytest.mark.parametrize("gamma", [1, 2, Fraction(5, 2)])
    def test_solver_matches_laguerre_to_8(self, gamma):
        w = preset_weight("laguerre", gamma=gamma)
        m = moments(w, 17, mode="exact")
        for n in range(9):
            P = solve_polynomial(m, n)
            match_up_to_scale(P, laguerre(n, gamma))  # raises on mismatch

    def test_solver_matches_u_star_to_8(self):
        w = preset_weight("chebyshev-u2-add")
        m = moments(w, 17, mode="exact")
        for n in range(9):
            match_up_to_scale(solve_polynomial(m, n), chebyshev_U_star(n))

    def test_contour_matches_legendre_with_alternating_prefactor(self):
        m = contour_moments(0, 13, mode="exact")
        for n in range(7):
            c = match_up_to_scale(solve_polynomial(m, n), legendre(n))
            re, im = c.real_imag()  # a part that is exactly zero is rendered as 0
            if n % 2 == 0:
                assert im == 0 and re != 0
            else:
                assert re == 0 and im != 0

    @pytest.mark.parametrize("p,q", [(2, Fraction(3, 2)), (3, 2)])
    def test_multiplicative_full_pattern_matches_jacobi_G(self, p, q):
        w = preset_weight("jacobi-mult", p=p, q=q)
        m = moments(w, 13, mode="exact")
        for n in range(7):
            P = solve_multiplicative(m, n, set(range(n)))
            match_up_to_scale(P, jacobi_G(n, p, q))
