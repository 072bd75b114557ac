import random
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoieq import (
    DegenerateDegreeError,
    InconsistentPatternError,
    InsufficientMomentsError,
    MomentSequence,
    Polynomial,
    PrecisionContext,
    Scalar,
    SingularHankelError,
    SingularSystemError,
    contour_moments,
    contour_weight,
    enumerate_multiplicative,
    hankel_condition,
    inner_moment,
    moments,
    normalization,
    orthogonality,
    parity_pattern,
    polynomial_via_determinants,
    preset_weight,
    scalar_eq,
    solve_functional,
    solve_linear_shift,
    solve_multiplicative,
    solve_polynomial,
)
from orthoieq import hankel
from orthoieq.hankel import _hankel, recurrence_solve, solve_e0, solve_kernel, vanishes
from orthoieq.linalg import det_lu_flag, determinant
from orthoieq.moments import on_exact_values
from orthoieq.numeric import IPiFraction, integer_rows
from orthoieq.polynomials import power_table

from conftest import ADDITIVE_PRESETS, ENTRY, I_PI, from_sympy, make_weight, rounded_outcome

TOL35 = Fraction(1, 10**35)


# -- transcriptions of the displayed closed forms (the test oracle) ----------


def closed_form_P1(m):
    den = m[2] - m[1] ** 2
    return [m[2] / den, -m[1] / den]


def closed_form_P2(m):
    den = m[4] * (m[2] - m[1] ** 2) - m[3] ** 2 + 2 * m[1] * m[2] * m[3] - m[2] ** 3
    return [
        (m[2] * m[4] - m[3] ** 2) / den,
        (m[2] * m[3] - m[1] * m[4]) / den,
        (m[1] * m[3] - m[2] ** 2) / den,
    ]


def closed_form_G0(m):
    return m[1]


def closed_form_G1(m):
    return m[1] * (m[1] * m[3] - m[2] ** 2) / (m[2] - m[1] ** 2) ** 2


def closed_form_G2(m):
    num = (m[1] * m[3] - m[2] ** 2) * (
        m[1] * m[3] * m[5]
        - m[2] ** 2 * m[5]
        - m[1] * m[4] ** 2
        + 2 * m[2] * m[3] * m[4]
        - m[3] ** 3
    )
    den = (m[4] * (m[2] - m[1] ** 2) - m[3] ** 2 + 2 * m[1] * m[2] * m[3] - m[2] ** 3) ** 2
    return num / den


def random_rational_moments(rng, count=7):
    while True:
        vals = [Fraction(1)] + [
            Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(count - 1)
        ]
        m = MomentSequence.from_values(vals)
        ok1 = (vals[2] - vals[1] ** 2) != 0
        den2 = (
            vals[4] * (vals[2] - vals[1] ** 2)
            - vals[3] ** 2
            + 2 * vals[1] * vals[2] * vals[3]
            - vals[2] ** 3
        )
        if ok1 and den2 != 0:
            return m, vals


class TestHankelSystem:
    """The Hankel blocks B_n = _hankel(m, n + 1) and C_n = _hankel(m, n, 1)."""

    def test_matrix_layout(self):
        m = MomentSequence.from_values([1, 2, 3, 4, 5, 6, 7])
        got_B = [[v.as_fraction() for v in row] for row in _hankel(m, 3)]
        assert got_B == [[1, 2, 3], [2, 3, 4], [3, 4, 5]]
        got_C = [[v.as_fraction() for v in row] for row in _hankel(m, 2, 1)]
        assert got_C == [[2, 3], [3, 4]]  # top-left m_1, bottom-right m_3

    def test_requires_2n_plus_1(self):
        m = MomentSequence.from_values([1, 2, 3])
        with pytest.raises(InsufficientMomentsError):
            _hankel(m, 3)

    def test_error_names_the_block(self):
        m = MomentSequence.from_values([1, 2, 3])
        for build, text in [
            (lambda: _hankel(m, 3), "B_2 needs m_0..m_4, got only 3 moments"),
            (lambda: _hankel(m, 2, 1), "C_2 needs m_0..m_3, got only 3 moments"),
            (lambda: solve_polynomial(m, 2), "B_2 needs m_0..m_4, got only 3 moments"),
            (lambda: hankel_condition(m, 2), "B_2 needs m_0..m_4, got only 3 moments"),
        ]:
            with pytest.raises(InsufficientMomentsError) as err:
                build()
            assert str(err.value) == text
        assert _hankel(m, 2) == [[m[0], m[1]], [m[1], m[2]]]
        assert _hankel(m, 1, 1) == [[m[1]]] and _hankel(m, 0, 1) == []


class TestClosedForms:
    def test_five_random_rational_sequences(self):
        rng = random.Random(20260808)
        for _ in range(5):
            m, vals = random_rational_moments(rng)
            P1 = solve_polynomial(m, 1)
            assert [c.as_fraction() for c in P1.coeffs] == [
                c.as_fraction() for c in (Scalar.exact(v) for v in closed_form_P1(vals))
            ]
            P2 = solve_polynomial(m, 2)
            assert [c.as_fraction() for c in P2.coeffs] == [
                Scalar.exact(v).as_fraction() for v in closed_form_P2(vals)
            ]
            # determinant route gives the identical polynomials
            assert polynomial_via_determinants(m, 1) == P1
            assert polynomial_via_determinants(m, 2) == P2
            assert normalization(m, 0) == Scalar.exact(closed_form_G0(vals))
            assert normalization(m, 1) == Scalar.exact(closed_form_G1(vals))
            assert normalization(m, 2) == Scalar.exact(closed_form_G2(vals))

    def test_degree_zero_is_constant_one(self):
        m = MomentSequence.from_values([1, Fraction(1, 2), Fraction(1, 3)])
        assert solve_polynomial(m, 0) == Polynomial([1])
        assert polynomial_via_determinants(m, 0) == Polynomial([1])

    def test_laguerre_p1(self):
        # substituting m_1 = 1, m_2 = 2 into the P_1 form gives 2 - x
        w = preset_weight("laguerre", gamma=1)
        m = moments(w, 4, mode="exact")
        P1 = solve_polynomial(m, 1)
        assert [c.as_fraction() for c in P1.coeffs] == [2, -1]

    def test_laguerre_g1_is_2(self):
        w = preset_weight("laguerre", gamma=1)
        m = moments(w, 4, mode="exact")
        assert normalization(m, 1) == Scalar.exact(2)

    def test_contour_p2(self, ctx50):
        m = contour_moments(0, 5, context=ctx50)
        P2 = solve_polynomial(m, 2, context=ctx50)
        mp = ctx50.mp
        assert abs(P2.coeffs[0].value - 1) < mp.mpf(10) ** -45
        assert abs(P2.coeffs[1].value) < mp.mpf(10) ** -45
        assert abs(P2.coeffs[2].value + 3) < mp.mpf(10) ** -45


class TestHankelCondition:
    def test_laguerre_n1_det_is_1(self):
        m = MomentSequence.from_values([1, 1, 2])
        det, valid = hankel_condition(m, 1)
        assert det == Scalar.exact(1) and valid

    def test_m2_equals_m1_squared_invalid(self):
        m = MomentSequence.from_values([1, Fraction(1, 2), Fraction(1, 4), 1, 1])
        det, valid = hankel_condition(m, 1)
        assert det.is_zero() and not valid
        with pytest.raises(SingularHankelError):
            solve_polynomial(m, 1)
        with pytest.raises(SingularHankelError):
            polynomial_via_determinants(m, 1)

    def test_delta_moments_singular_in_exact_solve(self):
        # a point mass at 1: C_1 = (m_1) = (1) is regular, but pi_1 = x - 1
        # has <pi_1>_w = 0, so the recurrence gives way to the dense solve
        m = MomentSequence.from_values([1, 1, 1])
        assert recurrence_solve([Fraction(1)] * 3, [Fraction(1)] * 2, 1) is None
        with pytest.raises(SingularHankelError) as err:
            solve_polynomial(m, 1)
        assert str(err.value) == (
            "det B_1 = 0 is zero (or below the validity threshold); no degree-1 solution"
        )

    def test_exact_solve_pivots_past_zero_entries(self, ctx50):
        # m_2 = m_1^2 leaves a zero at (1, 1) after the first elimination step
        m = MomentSequence.from_values([1, 1, 1, 2, 5])
        P = solve_polynomial(m, 2)
        assert [c.as_fraction() for c in P.coeffs] == [-1, 3, -1]
        Pf = solve_polynomial(MomentSequence.from_values([v.to_float(ctx50) for v in m.values]), 2)
        assert all(scalar_eq(a, b, tol=TOL35) for a, b in zip(P.coeffs, Pf.coeffs))

    def test_contour_n1_det(self):
        m = contour_moments(0, 3, mode="exact")
        det, valid = hankel_condition(m, 1)
        assert valid
        assert det == from_sympy(4 / sp.pi**2)

    @pytest.mark.parametrize("name,params", ADDITIVE_PRESETS)
    def test_positive_measure_presets_valid_to_10(self, name, params):
        w = make_weight(name, params)
        m = moments(w, 21, mode="exact")
        for n in range(11):
            _, valid = hankel_condition(m, n)
            assert valid


class TestRouteEquivalence:
    def test_exact_laguerre_to_10(self):
        w = preset_weight("laguerre", gamma=1)
        m = moments(w, 21, mode="exact")
        for n in range(11):
            assert solve_polynomial(m, n) == polynomial_via_determinants(m, n)

    @pytest.mark.parametrize("name,params", ADDITIVE_PRESETS)
    def test_float_presets_to_8(self, name, params, ctx50):
        # from_values drops the exact values, so the solve eliminates in floating point
        w = make_weight(name, params)
        m = MomentSequence.from_values(moments(w, 17, mode="float", context=ctx50).values)
        for n in range(9):
            a = solve_polynomial(m, n, context=ctx50)
            b = polynomial_via_determinants(m, n, context=ctx50)
            for ca, cb in zip(a.coeffs, b.coeffs):
                assert scalar_eq(ca, cb, tol=TOL35)


# -- the determinant route against one elimination per cofactor --------------


@on_exact_values
def cofactor_route(m, n, *, context=None):
    """The determinant route as n + 1 separate eliminations: the x^j
    coefficient is (-1)^j det(minor_j) / det B_n, minor_j dropping column j
    from rows 1..n of B_n, refused as singular by hankel_condition and as
    degenerate when a_n vanishes, with the solve's texts."""
    det, valid = hankel_condition(m, n, context=context)
    if not valid:
        raise SingularHankelError(
            f"det B_{n} = {det} is zero (or below the validity threshold); "
            f"no degree-{n} solution")
    rows = _hankel(m, n + 1)[1:]
    coeffs = []
    for j in range(n + 1):
        cofactor = determinant([[row[c] for c in range(n + 1) if c != j] for row in rows])
        coeffs.append((-cofactor if j % 2 else cofactor) / det)
    if vanishes(coeffs[-1], coeffs):
        raise DegenerateDegreeError(
            f"solved leading coefficient a_{n},{n} vanished; no degree-{n} solution")
    return Polynomial(coeffs)


def assert_same_route(m, n, context=None):
    """polynomial_via_determinants(m, n) gives cofactor_route's outcome, which is returned."""
    want = kernel_outcome(lambda: cofactor_route(m, n, context=context))
    assert kernel_outcome(lambda: polynomial_via_determinants(m, n, context=context)) == want
    return want


@st.composite
def integer_hankel_tables(draw):
    """(m_0..m_2n, n): small integers, where "C singular" sets m_(2n-1), the
    corner of C_n, so that det C_n = 0 and "B singular" sets m_(2n) so that
    det B_n = 0; each determinant is linear in its corner, with slope the
    determinant of the block one smaller, and a zero slope leaves the table."""
    n = draw(st.integers(0, 6))
    m = draw(st.lists(st.integers(-3, 3), min_size=2 * n + 1, max_size=2 * n + 1))
    shape = draw(st.sampled_from(["any", "C singular", "B singular"]))
    if shape == "C singular" and n and hankel_det(m[1:], n - 1):
        m[2 * n - 1] = 0
        m[2 * n - 1] = -hankel_det(m[1:], n) / hankel_det(m[1:], n - 1)
    elif shape == "B singular" and hankel_det(m, n):
        m[2 * n] = 0
        m[2 * n] = -hankel_det(m, n + 1) / hankel_det(m, n)
    return m, n


class TestDeterminantRouteMatchesCofactors:
    """One elimination of C_n gives the polynomial of the n + 1 cofactor
    eliminations: value and type, or error class and text."""

    @pytest.mark.parametrize("name,params", [
        ("laguerre", {"gamma": "5/2"}),
        ("jacobi-add", {"p": 3, "q": 2}),
        ("chebyshev-u2-add", {}),
        ("jacobi-mult", {"p": 3, "q": 2}),
    ])
    def test_presets_to_16(self, name, params):
        m = moments(make_weight(name, params), 33, mode="exact")
        for n in range(17):
            assert all(t is Fraction for t, _, _ in assert_same_route(m, n))

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("winding", [0, 1])
    def test_contour_to_6(self, winding, mode, ctx50):
        m = contour_moments(winding, 13, mode=mode, context=ctx50)
        for n in range(7):
            assert_same_route(m, n, None if mode == "exact" else ctx50)

    @pytest.mark.parametrize("values,outcomes", [
        ([1, 1, 1], [None, SingularHankelError]),  # a point mass at 1
        ([1, Fraction(1, 2), Fraction(1, 4), 1, 1], [None, SingularHankelError, None]),
        ([1, 0, 0, 0, 1], [None, SingularHankelError, SingularHankelError]),
        ([1, 0, 1], [None, DegenerateDegreeError]),  # det C_1 = m_1 = 0, det B_1 = 1
    ])
    def test_singular_tables(self, values, outcomes):
        m = MomentSequence.from_values(values)
        for n, error in enumerate(outcomes):
            got = assert_same_route(m, n)
            assert (got[0] if isinstance(got, tuple) else None) is error

    def test_uniform_symmetric_odd_degrees_are_degenerate(self):
        m = moments(preset_weight("uniform-symmetric"), 21, mode="exact")
        for n in range(11):
            got = assert_same_route(m, n)
            assert (got[0] is DegenerateDegreeError) == bool(n % 2)

    @settings(max_examples=300, deadline=None)
    @given(integer_hankel_tables())
    def test_small_integer_tables(self, table):
        values, n = table
        m = [Scalar.exact(v) for v in values]  # any m_0: no normalized weight
        for k in range(n + 1):
            got = assert_same_route(m, k)
        if not hankel_det(values, n + 1):
            assert got[0] is SingularHankelError
        elif not hankel_det(values[1:], n):
            assert got == (DegenerateDegreeError, f"solved leading coefficient a_{n},{n} "
                                                  f"vanished; no degree-{n} solution")


class TestMomentConditions:
    @pytest.mark.parametrize("name,params", ADDITIVE_PRESETS)
    def test_exact_deltas(self, name, params):
        w = make_weight(name, params)
        m = moments(w, 13, mode="exact")
        for n in range(7):
            P = solve_polynomial(m, n)
            for k in range(n + 1):
                want = Scalar.exact(1 if k == 0 else 0)
                assert inner_moment(P, k, m) == want


class TestNormalizationCrossCheck:
    @pytest.mark.parametrize("name,params", ADDITIVE_PRESETS)
    def test_G_equals_weighted_square(self, name, params):
        w = make_weight(name, params)
        m = moments(w, 15, mode="exact")
        for n in range(7):
            P = solve_polynomial(m, n)
            assert normalization(m, n) == orthogonality(P, P, m)

    def test_insufficient_moments(self):
        m = MomentSequence.from_values([1, 1, 2, 6])
        with pytest.raises(InsufficientMomentsError):
            normalization(m, 2)  # needs m_0..m_5


# -- one determinant algorithm for both modes ---------------------------------


def bareiss(matrix):
    """Fraction-free Bareiss elimination on Scalars, with no row clearing:
    an exact oracle for linalg.determinant (tests/test_linalg.py checks it
    against plain Fraction Gaussian elimination too)."""
    a = [list(row) for row in matrix]
    n = len(a)
    sign = 1
    prev = Scalar.exact(1)
    for i in range(n - 1):
        if a[i][i].is_zero():
            for r in range(i + 1, n):
                if not a[r][i].is_zero():
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return Scalar.exact(0)
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) / prev
            a[r][i] = Scalar.exact(0)
        prev = a[i][i]
    det = a[n - 1][n - 1]
    return -det if sign < 0 else det


def hankel_matrices(m, n):
    """B_n, C_n, C_(n+1) and every cofactor minor of cofactor_route."""
    B = [[m[k + j] for j in range(n + 1)] for k in range(n + 1)]
    C = [[m[k + j + 1] for j in range(n)] for k in range(n)]
    C1 = [[m[k + j + 1] for j in range(n + 1)] for k in range(n + 1)]
    rows = B[1:]
    minors = [[[row[c] for c in range(n + 1) if c != j] for row in rows] for j in range(n + 1)]
    return [B, C1] + ([C] + minors if n else [])  # n = 0: C_0 and the minors are empty


class TestDeterminantMatchesBareiss:
    @pytest.mark.parametrize("name,params", [
        ("laguerre", {"gamma": 1}),
        ("jacobi-add", {"p": 3, "q": 2}),
        ("uniform-symmetric", {}),  # odd moments vanish: zero pivots force row swaps
    ])
    def test_preset_hankel_matrices_to_10(self, name, params):
        m = moments(make_weight(name, params), 22, mode="exact")
        for n in range(11):
            for matrix in hankel_matrices(m, n):
                assert determinant(matrix) == bareiss(matrix)

    @pytest.mark.parametrize("winding", [0, 1])
    def test_contour_hankel_matrices_to_6(self, winding):
        m = contour_moments(winding, 14, mode="exact")
        for n in range(7):
            for matrix in hankel_matrices(m, n):
                assert determinant(matrix) == bareiss(matrix)

    def test_zero_corner_entry(self):
        matrix = [[Scalar.exact(v) for v in row] for row in ([0, 2, 1], [3, 1, 4], [1, 5, 9])]
        assert determinant(matrix) == bareiss(matrix) == Scalar.exact(-32)

    def test_empty_matrix_is_exact_one(self):
        det = determinant([])
        assert det.is_exact and det == Scalar.exact(1)

    @pytest.mark.parametrize("values,n", [
        ([1, 1, 1], 1),  # a point mass at 1: B_1 has rank 1
        ([1, Fraction(1, 2), Fraction(1, 4), 1, 1], 1),  # m_2 = m_1^2
        ([1, 0, 1, 0, 1], 2),  # point masses at -1 and 1: rank 2, zero column at the last step
        ([1, 2, 5, 14, 41, 122, 365], 3),  # masses 1/2 at 1 and 3: B_2 and B_3 have rank 2
    ])
    def test_singular_hankel_matrices(self, values, n):
        m = MomentSequence.from_values(values)
        B = [[m[k + j] for j in range(n + 1)] for k in range(n + 1)]
        assert determinant(B) == bareiss(B) == Scalar.exact(0)
        det, valid = hankel_condition(m, n)
        assert det.is_exact and det == Scalar.exact(0) and valid is False
        with pytest.raises(SingularHankelError, match=rf"det B_{n} = 0 is zero"):
            solve_polynomial(m, n)


# -- exact solves by the Chebyshev recurrence ---------------------------------


def dense_solution(m, n):
    """The dense route: B_n a = e_0 by elimination."""
    return solve_e0(_hankel(m, n + 1),
                    f"solved leading coefficient a_{n},{n} vanished; no degree-{n} solution")


class TestRecurrenceMatchesDenseSolve:
    @pytest.mark.parametrize("name,params", [
        ("laguerre", {"gamma": 1}),
        ("jacobi-add", {"p": 3, "q": 2}),
        ("chebyshev-u2-add", {}),
        ("jacobi-mult", {"p": 3, "q": 2}),
    ])
    def test_presets_to_20(self, name, params):
        m = moments(make_weight(name, params), 41, mode="exact")
        for n in range(21):
            assert solve_polynomial(m, n).coeffs == dense_solution(m, n).coeffs

    @pytest.mark.parametrize("name,params", [
        ("laguerre", {"gamma": "13/2"}),
        ("jacobi-add", {"p": "13/2", "q": "11/2"}),
    ])
    def test_high_degrees(self, name, params):
        m = moments(make_weight(name, params), 81, mode="exact")
        for n in (24, 30, 40):
            assert solve_polynomial(m, n).coeffs == dense_solution(m, n).coeffs

    @pytest.mark.parametrize("winding", [0, 1])
    def test_contour_to_10(self, winding):
        m = contour_moments(winding, 21, mode="exact")
        for n in range(11):
            P = solve_polynomial(m, n)
            assert P.coeffs == dense_solution(m, n).coeffs
            assert any(isinstance(c.value, IPiFraction) for c in P.coeffs) == bool(n % 2)

    def test_exact_solves_skip_the_dense_route(self, monkeypatch):
        def no_dense_solve(matrix, rhs):
            raise AssertionError("the dense solve ran")

        m = moments(preset_weight("laguerre", gamma=1), 41, mode="exact")
        want = dense_solution(m, 20).coeffs
        shift = [Scalar.exact(Fraction(3, 2)), Scalar.exact(2)]
        want_shift = solve_e0(power_table(shift, 15, m, 16), "degenerate").coeffs
        monkeypatch.setattr(hankel, "solve_full_pivot", no_dense_solve)
        with pytest.raises(AssertionError, match="the dense solve ran"):
            dense_solution(m, 2)
        assert solve_polynomial(m, 20).coeffs == want
        assert solve_linear_shift(m, 15, *shift).coeffs == want_shift


def fraction_chebyshev(nu, n):
    """The monic pi_n of L[x^j] = nu_j by the Chebyshev algorithm on
    Fractions, alpha_k and beta_k formed by division at every step; None
    when some sigma_(k,k) vanishes (k < n)."""
    prev, pi = [], [Fraction(1)]
    sigma_prev, sigma = [Fraction(0)] * len(nu), [Fraction(v) for v in nu]
    ratio_prev, diag_prev = Fraction(0), Fraction(1)
    for k in range(n):
        diag = sigma[k]
        if not diag:
            return None
        ratio = sigma[k + 1] / diag
        alpha, beta = ratio - ratio_prev, diag / diag_prev
        nxt = [Fraction(0)] + pi  # (x - alpha) pi_k - beta pi_(k-1)
        for i, c in enumerate(pi):
            nxt[i] -= alpha * c
        for i, c in enumerate(prev):
            nxt[i] -= beta * c
        ahead = list(sigma)
        for l in range(k + 1, 2 * n - k - 1):
            ahead[l] = sigma[l + 1] - alpha * sigma[l] - beta * sigma_prev[l]
        prev, pi = pi, nxt
        sigma_prev, sigma = sigma, ahead
        ratio_prev, diag_prev = ratio, diag
    return pi


def fraction_recurrence(m, nu, n):
    """pi_n / <pi_n>_w on Fractions, or None on breakdown or <pi_n>_w = 0."""
    pi = fraction_chebyshev(nu, n)
    if pi is None:
        return None
    norm = sum(c * Fraction(m[j]) for j, c in enumerate(pi))
    return [c / norm for c in pi] if norm else None


def recurrence_outcome(m, nu, n):
    P = recurrence_solve(m, nu, n)
    return None if P is None else [(type(c.value), c.precision, c.value) for c in P.coeffs]


# odd over even: never an integer, and negative about half the time
HALF_ODD = st.builds(lambda num, den: Fraction(2 * num + 1, 2 * den),
                     st.integers(-20, 19), st.integers(1, 6))


def hankel_det(nu, size):
    return determinant([[Scalar(nu[k + j]) for j in range(size)] for k in range(size)]).value


@st.composite
def chebyshev_inputs(draw):
    """(m_0..m_2n, nu_0..nu_(2n-1), n, shape). "minor": the size-k Hankel
    determinant of nu is made zero through nu_(2k-2), so sigma_(k-1,k-1) = 0;
    "zero norm": m_n makes <pi_n>_w = 0; "shift": nu_j = a m_j + b m_(j+1)."""
    n = draw(st.integers(0, 7))
    m = draw(st.lists(ENTRY, min_size=2 * n + 1, max_size=2 * n + 1))
    nu = draw(st.lists(ENTRY, min_size=2 * n, max_size=2 * n))
    shape = draw(st.sampled_from(["any", "additive", "minor", "zero norm", "shift"]))
    if shape == "additive":
        nu = m[1:]
    elif shape == "minor" and n:
        k = draw(st.integers(1, n))
        corner, nu[2 * k - 2] = nu[2 * k - 2], 0
        below = hankel_det(nu, k - 1)
        if below:  # det H_k is linear in its corner, with slope det H_(k-1)
            nu[2 * k - 2] = -hankel_det(nu, k) / below
        else:
            nu[2 * k - 2] = corner
    elif shape == "zero norm":
        pi = fraction_chebyshev(nu, n)
        if pi is not None:
            m[n] = -sum(c * m[j] for j, c in enumerate(pi[:-1]))
    elif shape == "shift":
        a, b = draw(HALF_ODD), draw(HALF_ODD)
        nu = [a * m[j] + b * m[j + 1] for j in range(2 * n)]
    return m, nu, n, shape


class TestRecurrenceMatchesFractionChebyshev:
    """The fraction-free recurrence against the Chebyshev algorithm on
    Fractions: the same P_n, value and type, or None at the same degree."""

    @settings(max_examples=400, deadline=None)
    @given(chebyshev_inputs())
    def test_every_degree(self, inputs):
        m, nu, n, shape = inputs
        for k in range(n + 1):  # every prefix: a breakdown shows at its own step
            want = fraction_recurrence(m, nu[:2 * k], k)
            if want is not None:
                want = [(Fraction, None, c) for c in want]
            assert recurrence_outcome(m[:k + 1], nu[:2 * k], k) == want
        if shape == "minor" and n:
            assert fraction_chebyshev(nu, n) is None
        if shape == "zero norm":
            assert fraction_recurrence(m, nu, n) is None

    def test_vanishing_minor_mid_way(self):
        # det [[1, 2], [2, 4]] = 0: sigma_(1,1) = 0, so degrees 0 and 1 solve and 2, 3 do not
        nu = [1, 2, 4, Fraction(1, 3), 5, 7]
        m = [1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]
        got = [recurrence_solve(m, nu[:2 * n], n) for n in range(4)]
        assert [P is None for P in got] == [False, False, True, True]
        assert [fraction_recurrence(m, nu[:2 * n], n) is None for n in range(4)] == [
            False, False, True, True]

    def test_zero_norm(self):
        # pi_1 = x - 2 for nu = (1, 2): <pi_1>_w = m_1 - 2 m_0 = 0
        assert fraction_chebyshev([1, 2], 1) == [-2, 1]
        assert recurrence_solve([Fraction(1, 3), Fraction(2, 3)], [1, 2], 1) is None

    def test_shift_with_negative_fractional_a_and_b(self):
        m = moments(preset_weight("laguerre", gamma=Fraction(13, 2)), 25, mode="exact")
        raw = [v.value for v in m.values]
        a, b = Fraction(-9, 2), Fraction(-3, 7)
        nu = [a * raw[j] + b * raw[j + 1] for j in range(24)]
        for n in range(13):
            P = recurrence_solve(raw, nu[:2 * n], n)
            assert [c.value for c in P.coeffs] == fraction_recurrence(raw, nu[:2 * n], n)
            assert all(type(c.value) is Fraction for c in P.coeffs)

    def test_denominators_above_2_64(self):
        big = 2**64 + 13
        nu = [Fraction(3, big), 1, Fraction(-5, big + 2), Fraction(7, 3), Fraction(1, big**2), 2]
        m = [Fraction(1, big), 2, Fraction(-1, 3), 5]
        for n in range(4):
            P = recurrence_solve(m, nu[:2 * n], n)
            assert [c.value for c in P.coeffs] == fraction_recurrence(m, nu[:2 * n], n)


class TestRecurrenceFallback:
    def test_uniform_symmetric_falls_back_to_the_dense_solve(self):
        m = moments(preset_weight("uniform-symmetric"), 21, mode="exact")
        raw = [v.value for v in m.values]
        for n in range(11):
            if n:
                assert recurrence_solve(raw, raw[1:], n) is None  # m_1 = 0: sigma_00 = 0
            if n % 2:
                with pytest.raises(DegenerateDegreeError) as err:
                    solve_polynomial(m, n)
                assert str(err.value) == (
                    f"solved leading coefficient a_{n},{n} vanished; no degree-{n} solution"
                )
            else:
                assert solve_polynomial(m, n).coeffs == dense_solution(m, n).coeffs


class TestSolveBuildsOnlyBn:
    """solve_polynomial and hankel_condition read B_n alone and never form C_n."""

    def test_no_hankel_system(self, monkeypatch, ctx50):
        w = preset_weight("uniform-symmetric")  # m_1 = 0: exact solves take the dense route
        m = moments(w, 10, mode="exact")
        mf = MomentSequence.from_values(moments(w, 10, mode="float", context=ctx50).values)
        want = [solve_polynomial(m, 4), hankel_condition(m, 4),
                solve_polynomial(mf, 4), hankel_condition(mf, 4)]

        def unshifted_only(m, size, shift=0):
            if shift:
                raise AssertionError("a shifted Hankel block was built")
            return _hankel(m, size)

        monkeypatch.setattr(hankel, "_hankel", unshifted_only)
        assert [solve_polynomial(m, 4), hankel_condition(m, 4),
                solve_polynomial(mf, 4), hankel_condition(mf, 4)] == want
        with pytest.raises(AssertionError, match="shifted Hankel block was built"):
            normalization(m, 4)


# -- one solve for every kernel P(x + g(y)) -----------------------------------


def kernel_outcome(solve):
    """The coefficients as (type, precision, value), or the error's type and text."""
    try:
        return [(type(c.value), c.precision, c.value) for c in solve().coeffs]
    except (DegenerateDegreeError, SingularHankelError, SingularSystemError) as exc:
        return type(exc), str(exc)


KERNELS = [[0, 1], [Fraction(3, 2), 2], [Fraction(-1, 3), Fraction(1, 2)], [0, 1, 1]]


def kernel_moments(source, ctx):
    """Exact closed-form moments, or for a -float source their rounded values
    alone (from_values), which the solve eliminates in floating point."""
    mode = "float" if source.endswith("-float") else "exact"
    name = source.removesuffix("-float")
    w = {"laguerre": preset_weight("laguerre", gamma=1),
         "jacobi-add": preset_weight("jacobi-add", p=3, q=2),
         "uniform-symmetric": preset_weight("uniform-symmetric")}.get(name)
    if w is None:
        m = contour_moments(0, 25, mode=mode, context=ctx)
    else:
        m = moments(w, 25, mode=mode, context=ctx)
    return MomentSequence.from_values(m.values) if mode == "float" else m


class TestSolveKernel:
    """solve_kernel gives the dense solve of its table power_table(g, n, m, n + 1),
    value, type and error, whichever route it takes: the recurrence for exact
    moments and an exact linear g, the dense solve of B_n or of the table
    otherwise (uniform-symmetric breaks the recurrence down for g = y).
    Float moments here carry no exact values, so they take the dense solve."""

    @pytest.mark.parametrize("source", ["laguerre", "jacobi-add", "uniform-symmetric",
                                        "laguerre-float", "contour", "contour-float"])
    @pytest.mark.parametrize("g", KERNELS, ids=["y", "shift", "signed-shift", "y^2+y"])
    def test_equals_the_dense_table_solve(self, source, g, ctx50):
        m = kernel_moments(source, ctx50)
        for n in range(9 if len(g) == 2 else 8):
            want = kernel_outcome(lambda: solve_e0(power_table(g, n, m, n + 1), "degenerate"))
            assert kernel_outcome(lambda: solve_kernel(m, n, g, "degenerate")) == want

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_complex_shift_on_the_contour(self, mode, ctx50):
        m = MomentSequence.from_values(contour_moments(0, 17, mode=mode, context=ctx50).values)
        for g in ([I_PI, 1], [Scalar.exact(1), I_PI]):
            for n in range(9):
                want = kernel_outcome(lambda: solve_e0(power_table(g, n, m, n + 1), "degenerate"))
                assert kernel_outcome(lambda: solve_kernel(m, n, g, "degenerate")) == want

    def test_linear_g_runs_the_recurrence_and_no_table(self, monkeypatch):
        """An exact linear g steps a Chebyshev pass and builds no power_table;
        a quadratic f builds the table alone. Degrees 0..6 of one sequence
        take 6 steps of one pass, and G_n and det B_n read it: no elimination,
        however often they are asked."""
        calls = []

        def counted(owner, name):
            fn = getattr(owner, name)

            def run(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, run)

        for name in ("power_table", "det_lu_flag", "determinant", "solve_full_pivot"):
            counted(hankel, name)
        counted(hankel.ChebyshevPass, "_step")
        w = preset_weight("laguerre", gamma=1)
        m = moments(w, 14, mode="exact")
        for solve in (lambda: solve_polynomial(m, 6), lambda: solve_linear_shift(m, 6, 1, 2),
                      lambda: solve_functional(w, "2*x+1", 6, mode="exact")):
            calls.clear()
            solve()
            assert calls == ["_step"] * 6
        assert solve_functional(w, "2*x+1", 6, mode="exact") == solve_linear_shift(m, 6, 1, 2)
        calls.clear()
        fresh = moments(w, 14, mode="exact")
        assert [solve_polynomial(fresh, n) for n in range(7)] == [
            solve_polynomial(m, n) for n in range(7)]
        assert calls == ["_step"] * 6
        calls.clear()
        for _ in range(2):
            for n in range(7):
                normalization(fresh, n)
                hankel_condition(fresh, n)
        assert calls == []
        solve_polynomial(moments(preset_weight("uniform-symmetric"), 9, mode="exact"), 4)
        assert calls == ["solve_full_pivot"]  # it breaks down, and B_n is no power_table
        calls.clear()
        solve_functional(w, "x^2+x", 4, mode="exact")
        assert calls == ["power_table", "solve_full_pivot"]


# -- float moments from a closed form: solved exactly, rounded once ----------


class TestFloatSolvesRoundTheExactSolve:
    """A float solve on rounded closed-form moments is the exact solve rounded
    once at the moments' precision, bit for bit, errors included."""

    PRESETS = [("laguerre", {"gamma": 3}), ("jacobi-add", {"p": 3, "q": 2}),
               ("chebyshev-u2-add", {}), ("uniform-symmetric", {})]

    @pytest.mark.parametrize("precision", [30, 50])
    @pytest.mark.parametrize("name,params", PRESETS)
    def test_presets_to_20(self, name, params, precision):
        ctx = PrecisionContext(precision)
        w = make_weight(name, params)
        exact, rounded = moments(w, 41, mode="exact"), moments(w, 41, context=ctx)
        for n in range(21):
            want = rounded_outcome(lambda: solve_polynomial(exact, n), ctx)
            assert rounded_outcome(lambda: solve_polynomial(rounded, n, context=ctx)) == want

    @pytest.mark.parametrize("precision", [30, 50])
    def test_contour_to_10(self, precision):
        ctx = PrecisionContext(precision)
        exact, rounded = contour_moments(0, 21, mode="exact"), contour_moments(0, 21, context=ctx)
        for n in range(11):
            want = rounded_outcome(lambda: solve_polynomial(exact, n), ctx)
            assert rounded_outcome(lambda: solve_polynomial(rounded, n, context=ctx)) == want

    def test_uniform_symmetric_odd_degrees_are_degenerate(self, ctx50):
        m = moments(preset_weight("uniform-symmetric"), 21, context=ctx50)
        for n in range(1, 11, 2):
            with pytest.raises(DegenerateDegreeError) as err:
                solve_polynomial(m, n, context=ctx50)
            assert str(err.value) == (
                f"solved leading coefficient a_{n},{n} vanished; no degree-{n} solution"
            )

    def test_singular_exact_table_keeps_the_exact_text(self, ctx50):
        point_mass = tuple(Scalar.exact(1) for _ in range(3))
        m = MomentSequence(tuple(v.to_float(ctx50) for v in point_mass), "analytic",
                           "point-mass", exact=point_mass)
        with pytest.raises(SingularHankelError) as err:
            solve_polynomial(m, 1, context=ctx50)
        assert str(err.value) == (
            "det B_1 = 0 is zero (or below the validity threshold); no degree-1 solution"
        )

    @pytest.mark.parametrize("name,params,n,precision", [
        ("laguerre", {"gamma": 1}, 6, 20), ("laguerre", {"gamma": 1}, 2, 16),
        ("jacobi-add", {"p": 3, "q": 2}, 5, 20), ("jacobi-add", {"p": 3, "q": 2}, 1, 16),
    ])
    def test_float_pivot_collapse_no_longer_refuses(self, name, params, n, precision):
        """The float elimination of the rounded values alone (from_values)
        collapses here, so the float rule refuses them; the closed-form table
        carries its exact values, reads valid with the exact det B_n rounded
        once, and is solved."""
        ctx = PrecisionContext(precision)
        w = make_weight(name, params)
        exact, rounded = moments(w, 2 * n + 1, mode="exact"), moments(w, 2 * n + 1, context=ctx)
        alone = MomentSequence.from_values(rounded.values)
        _, valid = hankel_condition(alone, n, context=ctx)
        assert not valid
        with pytest.raises(SingularHankelError, match=f"no degree-{n} solution"):
            solve_polynomial(alone, n, context=ctx)
        exact_det, exact_valid = hankel_condition(exact, n)
        det, valid = hankel_condition(rounded, n, context=ctx)
        assert exact_valid and valid
        assert det == exact_det.to_float(ctx) and not det.is_exact
        want = rounded_outcome(lambda: solve_polynomial(exact, n), ctx)
        assert rounded_outcome(lambda: solve_polynomial(rounded, n, context=ctx)) == want


def _once(call):
    """Run call() once; the returned thunk gives its result or raises its error."""
    try:
        result = call()
    except (DegenerateDegreeError, SingularHankelError, SingularSystemError,
            InconsistentPatternError) as exc:
        error = exc

        def replay():
            raise error
        return replay
    return lambda: result


class TestEveryRoutineRoundsTheExactResult:
    """On float moments rounded from a closed form, every routine wrapped by
    moments.on_exact_values returns the exact-mode result rounded once at the
    moments' precision, or raises the exact-mode error class with its text."""

    TABLES = [("laguerre", {"gamma": 1}), ("jacobi-add", {"p": 3, "q": 2}),
              ("chebyshev-u2-add", {}), ("uniform-symmetric", {}), ("contour", {})]
    PRECISIONS = (16, 20, 50)
    SIZE = 25  # x^2 + x at degree 8 reads m_0..m_24

    @staticmethod
    def routines(n):
        """Each routine as call(m, context), the exact run taking context None."""
        calls = {
            "solve_polynomial": lambda m, ctx: solve_polynomial(m, n, context=ctx),
            "shift": lambda m, ctx: solve_kernel(m, n, [Fraction(3, 2), 2], "degenerate"),
            "x^2+x": lambda m, ctx: solve_kernel(m, n, [0, 1, 1], "degenerate"),
            "hankel_condition": lambda m, ctx: hankel_condition(m, n, context=ctx),
            "normalization": lambda m, ctx: normalization(m, n, context=ctx),
            "determinants": lambda m, ctx: polynomial_via_determinants(m, n, context=ctx),
            "parity": lambda m, ctx: solve_multiplicative(m, n, parity_pattern(n), context=ctx),
            "full": lambda m, ctx: solve_multiplicative(m, n, range(n), context=ctx),
        }
        if 1 <= n <= 4:
            calls["enumerate"] = lambda m, ctx: enumerate_multiplicative(m, n, context=ctx)
        return calls

    def outcomes(self, exact, rounded, n):
        """The exact outcome of every routine at degree n, after checking that
        each rounded table gives it rounded once."""
        found = {}
        for name, call in self.routines(n).items():
            exact_run = _once(lambda: call(exact, None))
            for m in rounded:
                ctx = PrecisionContext(m[0].precision)
                want = rounded_outcome(exact_run, ctx)
                assert rounded_outcome(lambda: call(m, ctx)) == want, (name, n, ctx)
            found[name] = rounded_outcome(exact_run)
        return found

    def tables(self, name, params):
        def table(**kwargs):
            if name == "contour":
                return contour_moments(0, self.SIZE, **kwargs)
            return moments(make_weight(name, params), self.SIZE, **kwargs)
        return table(mode="exact"), [table(context=PrecisionContext(p)) for p in self.PRECISIONS]

    @pytest.mark.parametrize("name,params", TABLES)
    def test_every_routine_to_degree_8(self, name, params):
        exact, rounded = self.tables(name, params)
        for n in range(9):
            self.outcomes(exact, rounded, n)

    def test_uniform_symmetric_odd_degrees_are_degenerate(self):
        exact, rounded = self.tables("uniform-symmetric", {})
        for n in (1, 3, 5, 7):
            found = self.outcomes(exact, rounded, n)
            for name in ("solve_polynomial", "determinants"):
                assert found[name] == (DegenerateDegreeError, f"solved leading coefficient "
                                       f"a_{n},{n} vanished; no degree-{n} solution")

    def test_point_mass_is_singular(self):
        point_mass = tuple(Scalar.exact(1) for _ in range(self.SIZE))
        rounded = [MomentSequence(tuple(v.to_float(PrecisionContext(p)) for v in point_mass),
                                  "analytic", "point-mass", exact=point_mass)
                   for p in self.PRECISIONS]
        for n in range(1, 5):
            found = self.outcomes(point_mass, rounded, n)
            assert found["hankel_condition"] == [(None, 0), False]
            for name in ("solve_polynomial", "normalization", "determinants"):
                assert found[name][0] is SingularHankelError
            assert found["full"][0] is SingularSystemError

    def test_inconsistent_pattern_keeps_the_exact_error(self):
        exact, rounded = self.tables("laguerre", {"gamma": 1})
        for m in rounded:
            ctx = PrecisionContext(m[0].precision)
            with pytest.raises(InconsistentPatternError) as err:
                solve_multiplicative(m, 1, [0], context=ctx)
            assert str(err.value) == "pattern [0] assumed a_1,1 != 0 but it solved to zero"
            assert err.value.index == 1


class TestDenseFloatRoute:
    """Solves on rounded closed-form moments run no float elimination; the
    rounded values alone (from_values) and quadrature moments still run the
    pivot-collapse check and the dense float solve."""

    @staticmethod
    def eliminations(monkeypatch):
        """The float eliminations made (exact tables are eliminated too, by
        the same functions, when the recurrence does not apply)."""
        calls = []
        for name in ("det_lu_flag", "solve_full_pivot"):
            def counted(rows, *args, name=name, fn=getattr(hankel, name)):
                if not rows[0][0].is_exact:
                    calls.append(name)
                return fn(rows, *args)
            monkeypatch.setattr(hankel, name, counted)
        return calls

    @staticmethod
    def solves(m, ctx):
        return [lambda: solve_polynomial(m, 4, context=ctx),
                lambda: solve_linear_shift(m, 4, Fraction(3, 2), 2, context=ctx),
                lambda: solve_kernel(m, 4, [0, 1, 1], "degenerate")]

    def test_closed_form_float_moments_eliminate_nothing(self, monkeypatch, ctx50):
        calls = self.eliminations(monkeypatch)
        w = preset_weight("jacobi-add", p=3, q=2)
        for m in (moments(w, 13, context=ctx50), contour_moments(0, 13, context=ctx50)):
            for solve in self.solves(m, ctx50):
                solve()
        for f in ("2*x+1", "x^2"):
            solve_functional(w, f, 4, context=ctx50)
        assert calls == []

    def test_rounded_values_alone_and_quadrature_eliminate_in_float(self, monkeypatch, ctx50):
        calls = self.eliminations(monkeypatch)
        w = preset_weight("jacobi-add", p=3, q=2)
        rounded = MomentSequence.from_values(moments(w, 13, context=ctx50).values)
        quadrature = moments(w, 13, context=ctx50, method="quadrature")
        for m in (rounded, quadrature):
            for solve in self.solves(m, ctx50):
                calls.clear()
                solve()
                assert "solve_full_pivot" in calls
            calls.clear()
            solve_polynomial(m, 4, context=ctx50)
            assert calls == ["det_lu_flag", "solve_full_pivot"]


# -- one Chebyshev pass per table: every degree, G_n and det B_n --------------


def per_call_recurrence(m, nu, n):
    """pi_n / <pi_n>_w by the fraction-free recurrence restarted from k = 0 for
    every call, on rows no longer than degree n needs, or None on breakdown:
    the loop ChebyshevPass replaced, kept as its reference."""
    cleared = integer_rows([nu])
    [sigma], pi = cleared or ([list(nu)], [Fraction(1)])
    prev, sigma_prev, d_prev, e_prev = [], [0] * len(nu), 1, 0
    for k in range(n):
        d, e = sigma[k], sigma[k + 1]
        if not d:
            return None
        if cleared is None:
            e = e / d
            q, r, x_sigma, nxt = e - e_prev, d / d_prev, sigma[1:], [0] + pi
        else:
            p, q, r = d * d_prev, e * d_prev - e_prev * d, d * d
            x_sigma, nxt = [p * v for v in sigma[1:]], [0] + [p * c for c in pi]
        for i, c in enumerate(pi):
            nxt[i] -= q * c
        for i, c in enumerate(prev):
            nxt[i] -= r * c
        ahead = [0] * (k + 1) + [x_sigma[l] - q * sigma[l] - r * sigma_prev[l]
                                 for l in range(k + 1, 2 * n - k - 1)]
        if cleared is not None:
            content = gcd(*nxt, *ahead)
            nxt, ahead = [v // content for v in nxt], [v // content for v in ahead]
        prev, pi, sigma_prev, sigma, d_prev, e_prev = pi, nxt, sigma, ahead, d, e
    norm = sum(c * m[j] for j, c in enumerate(pi))
    return [c / norm for c in pi] if norm else None


def dense_condition(m, n):
    """det B_n and its validity by one elimination of B_n."""
    det, collapsed = det_lu_flag(_hankel(m, n + 1), None)
    return det, not collapsed


def dense_normalization(m, n):
    """(det C_n)(det C_(n+1)) / (det B_n)^2 by elimination, with normalization's error."""
    det_b, valid = dense_condition(m, n)
    if not valid:
        raise SingularHankelError(
            f"det B_{n} = {det_b} is zero (or below the validity threshold); G_{n} undefined")
    return determinant(_hankel(m, n, 1)) * determinant(_hankel(m, n + 1, 1)) / (det_b * det_b)


def dense_polynomial(m, n):
    """B_n a = e_0 by elimination, with solve_polynomial's errors."""
    try:
        return dense_solution(m, n)
    except SingularSystemError:
        raise SingularHankelError(f"det B_{n} = 0 is zero (or below the validity threshold); "
                                  f"no degree-{n} solution") from None


def typed(call):
    """call()'s Scalars as (type, precision, value), in a Polynomial or tuple too,
    or the error's class and text."""
    def walk(value):
        if isinstance(value, Scalar):
            return type(value.value), value.precision, value.value
        if isinstance(value, Polynomial):
            return [walk(c) for c in value.coeffs]
        if isinstance(value, tuple):
            return tuple(walk(v) for v in value)
        return value
    try:
        return walk(call())
    except (DegenerateDegreeError, SingularHankelError, SingularSystemError,
            InsufficientMomentsError) as exc:
        return type(exc), str(exc)


def pass_routes(m, n, context=None, determinants=True):
    """P_n, G_n and (det B_n, valid) of the library, and the determinant route."""
    found = (typed(lambda: solve_polynomial(m, n, context=context)),
             typed(lambda: normalization(m, n, context=context)),
             typed(lambda: hankel_condition(m, n, context=context)))
    if determinants:
        found += (typed(lambda: polynomial_via_determinants(m, n, context=context)),)
    return found


def dense_routes(m, n):
    """What pass_routes gives, by the dense eliminations alone."""
    P = typed(lambda: dense_polynomial(m, n))
    return P, typed(lambda: dense_normalization(m, n)), typed(lambda: dense_condition(m, n)), P


def orders(top):
    """Degrees 0..top ascending, descending and shuffled."""
    shuffled = list(range(top + 1))
    random.Random(top).shuffle(shuffled)
    return [list(range(top + 1)), list(range(top, -1, -1)), shuffled]


def in_every_order(make, top, routes):
    """routes(m, n) for n = 0..top, each order on a fresh table make(); every
    order must give the same outcomes, which are returned by degree."""
    found = []
    for order in orders(top):
        m = make()
        found.append({n: routes(m, n) for n in order})
    assert found[0] == found[1] == found[2]
    return found[0]


class TestChebyshevPass:
    """One pass per (table, exact linear g) gives every degree: P_n of the
    per-call loop, G_n and det B_n of the dense determinants, or the dense
    route's error class and text, with the same values and types in any
    order the degrees are asked."""

    @pytest.mark.parametrize("name,params", [
        ("laguerre", {"gamma": 1}),
        ("jacobi-add", {"p": 3, "q": 2}),
        ("chebyshev-u2-add", {}),
        ("jacobi-mult", {"p": 3, "q": 2}),
        ("uniform-symmetric", {}),  # m_1 = 0: every degree past 0 takes the dense route
    ])
    def test_presets_to_40(self, name, params):
        def make():
            return moments(make_weight(name, params), 82, mode="exact")
        found = in_every_order(make, 40, lambda m, n: pass_routes(m, n, determinants=False))
        m = make()
        raw = [v.value for v in m.values]
        det_b = [determinant(_hankel(m, n + 1)) for n in range(41)]
        det_c = [determinant(_hankel(m, k, 1)) for k in range(42)]
        for n in range(41):
            P, G, condition = found[n]
            want = per_call_recurrence(raw, raw[1:2 * n + 1], n)
            if want is None:
                assert name == "uniform-symmetric" and n
                assert P == typed(lambda: dense_polynomial(m, n))
            else:
                assert P == [(Fraction, None, c) for c in want]
            assert condition == ((Fraction, None, det_b[n].value), True)
            assert G == (Fraction, None, (det_c[n] * det_c[n + 1] / det_b[n] ** 2).value)

    @pytest.mark.parametrize("winding", [0, 1])
    def test_contour_to_10(self, winding):
        def make():
            return contour_moments(winding, 22, mode="exact")
        found = in_every_order(make, 10, pass_routes)
        m = make()
        assert {n: dense_routes(m, n) for n in range(11)} == found
        assert any(t is IPiFraction for n in range(1, 11) for t, _, _ in found[n][0])

    @pytest.mark.parametrize("source", ["laguerre", "contour"])
    def test_shift_in_every_order(self, source):
        a, b = Fraction(9, 2), Fraction(2)
        top = 40 if source == "laguerre" else 10

        def make():
            if source == "contour":
                return contour_moments(0, 2 * top + 1, mode="exact")
            return moments(preset_weight("laguerre", gamma=Fraction(13, 2)), 2 * top + 1,
                           mode="exact")
        found = in_every_order(make, top, lambda m, n: typed(
            lambda: solve_linear_shift(m, n, a, b)))
        m = make()
        raw = [v.value for v in m.values]
        nu = [a * raw[j] + b * raw[j + 1] for j in range(2 * top)]
        for n in range(top + 1):
            want = per_call_recurrence(raw, nu[:2 * n], n)
            assert [value for _, _, value in found[n]] == want
            if n <= 10:
                assert found[n] == typed(lambda: solve_e0(power_table([a, b], n, m, n + 1),
                                                          "degenerate"))

    @pytest.mark.parametrize("n", [0, 1, 5, 12])
    def test_table_of_2n_plus_2_moments(self, n):
        """sigma_nn is in the table, so G_n reads the pass; the step to degree
        n + 1 is not, and degree n + 1 keeps the dense route's error."""
        for w in (preset_weight("laguerre", gamma=Fraction(13, 2)), contour_weight(0)):
            m = moments(w, 2 * n + 2, mode="exact")
            assert pass_routes(m, n) == dense_routes(m, n)
            chebyshev = hankel.chebyshev_pass(m, hankel.ADDITIVE, 2 * n + 2)
            assert len(chebyshev.pis) == len(chebyshev.diagonal) == n + 1
            P, G, condition, _ = pass_routes(m, n + 1)
            assert P == condition == (InsufficientMomentsError, f"B_{n + 1} needs "
                                      f"m_0..m_{2 * n + 2}, got only {2 * n + 2} moments")
            assert G == (InsufficientMomentsError, f"normalization(n={n + 1}) needs "
                         f"m_0..m_{2 * n + 3}, got only {2 * n + 2} moments")

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_breakdowns_keep_the_dense_errors(self, data):
        """Small-integer tables with m_0 = 1, where "minor" makes det C_k = 0
        through its corner m_(2k-1), so sigma_(k-1,k-1) = 0 mid-pass, and
        "zero norm" makes det B_n = 0 through m_(2n), so <pi_n>_w = 0."""
        n = data.draw(st.integers(1, 6))
        values = [1] + data.draw(st.lists(st.integers(-3, 3), min_size=2 * n + 1,
                                          max_size=2 * n + 1))
        shape = data.draw(st.sampled_from(["any", "minor", "zero norm"]))
        if shape == "minor":
            k = data.draw(st.integers(1, n))
            if hankel_det(values[1:], k - 1):
                values[2 * k - 1] = 0
                values[2 * k - 1] = -hankel_det(values[1:], k) / hankel_det(values[1:], k - 1)
        elif shape == "zero norm" and hankel_det(values, n):
            values[2 * n] = 0
            values[2 * n] = -hankel_det(values, n + 1) / hankel_det(values, n)
        found = in_every_order(lambda: MomentSequence.from_values(values), n, pass_routes)
        m = MomentSequence.from_values(values)
        assert found == {k: dense_routes(m, k) for k in range(n + 1)}
        chebyshev = hankel.chebyshev_pass(m, hankel.ADDITIVE, 2 * n + 2)
        broken = any(not hankel_det(values[1:], k) for k in range(1, n + 1))
        assert (chebyshev.solution(n) is None) == (broken or not hankel_det(values, n + 1))


class TestPassMemo:
    """The pass lives on the MomentSequence that owns the values: it takes no
    part in ==, hash or repr, and no other table reads it."""

    def test_eq_hash_and_repr_ignore_the_memo(self, ctx50):
        for mode in ("exact", "float"):
            m = moments(preset_weight("laguerre", gamma=1), 22, mode=mode, context=ctx50)
            bare = MomentSequence(m.values, m.source, m.weight_id)
            before = hash(m), repr(m)
            for n in range(11):
                solve_polynomial(m, n, context=ctx50)
                normalization(m, n, context=ctx50)
            assert m.memo and not bare.memo
            assert (hash(m), repr(m)) == before == (hash(bare), repr(bare))
            assert m == bare
            assert "memo" not in repr(m)

    def test_other_values_never_read_the_pass(self):
        lag = moments(preset_weight("laguerre", gamma=1), 22, mode="exact")
        jac = moments(preset_weight("jacobi-add", p=3, q=2), 22, mode="exact")
        want = [pass_routes(MomentSequence.from_values(jac.values), n) for n in range(11)]
        for n in range(11):
            pass_routes(lag, n)
        for other in (replace(lag, values=jac.values), replace(lag, values=jac.values[:12]),
                      MomentSequence(jac.values, lag.source, lag.weight_id)):
            assert other.memo == {}
            top = (len(other) - 2) // 2
            assert [pass_routes(other, n) for n in range(top + 1)] == want[:top + 1]
        assert replace(lag).memo == {}

    @pytest.mark.parametrize("precision", [20, 50])
    def test_float_closed_forms_round_the_exact_records_once(self, precision):
        ctx = PrecisionContext(precision)
        for w in (preset_weight("laguerre", gamma=Fraction(13, 2)), contour_weight(0)):
            exact = moments(w, 22, mode="exact")
            want = {n: [rounded_outcome(lambda: call(exact, n), ctx) for call in (
                solve_polynomial, normalization, hankel_condition)] for n in range(11)}
            for order in orders(10):
                rounded = moments(w, 22, context=ctx)
                for n in order:
                    assert [rounded_outcome(lambda: call(rounded, n, context=ctx)) for call in (
                        solve_polynomial, normalization, hankel_condition)] == want[n]
                shared = rounded.memo["exact"]
                assert list(rounded.memo) == ["exact"] and shared.values == exact.values
                assert len(hankel.chebyshev_pass(shared, hankel.ADDITIVE, 22).pis) == 11
