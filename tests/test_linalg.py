"""The raw-value eliminations against the elementwise Scalar computation, and
the fraction-free rational kernels against plain Fraction Gaussian elimination."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoieq import (
    ModeError,
    PrecisionContext,
    Scalar,
    contour_moments,
    moments,
    normalization,
    orthogonality,
    polynomial_via_determinants,
    preset_weight,
    solve_polynomial,
)
from orthoieq.errors import SingularSystemError
from orthoieq.linalg import det_lu_flag, solve_full_pivot
from orthoieq.numeric import IPiFraction, integer_rows, tolerance
from orthoieq.polynomials import _exact_dot

from conftest import ENTRY


def scalar_solve_full_pivot(matrix, rhs):
    """Full-pivot elimination on Scalars, every operation through Scalar arithmetic."""
    n = len(matrix)
    a = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    col_of = list(range(n))
    for step in range(n):
        nonzero = ((r, c) for r in range(step, n) for c in range(step, n)
                   if not a[r][c].is_zero())
        best = max(nonzero, key=lambda rc: a[rc[0]][rc[1]].magnitude(), default=None)
        if best is None:
            raise SingularSystemError(f"no pivot at elimination step {step}")
        r, c = best
        a[step], a[r] = a[r], a[step]
        for row in a:
            row[step], row[c] = row[c], row[step]
        col_of[step], col_of[c] = col_of[c], col_of[step]
        for r in range(step + 1, n):
            if a[r][step].is_zero():
                continue
            factor = a[r][step] / a[step][step]
            for c in range(step, n + 1):
                a[r][c] = a[r][c] - factor * a[step][c]
    x = [None] * n
    for i in range(n - 1, -1, -1):
        acc = a[i][n]
        for j in range(i + 1, n):
            acc = acc - a[i][j] * x[j]
        x[i] = acc / a[i][i]
    out = [None] * n
    for pos, col in enumerate(col_of):
        out[col] = x[pos]
    return out


def scalar_det_lu_flag(matrix, rel_threshold):
    """Partially pivoted LU determinant on Scalars, with the pivot-collapse flag."""
    a = [list(row) for row in matrix]
    n = len(a)
    sign, det, collapsed = 1, None, False
    for i in range(n):
        best = max(range(i, n), key=lambda r: (a[r][i].magnitude(), -r))
        best_mag = a[best][i].magnitude()
        sub_max = max(a[r][c].magnitude() for r in range(i, n) for c in range(i, n))
        if best_mag <= rel_threshold * max(1, sub_max):
            collapsed = True
        if best != i:
            a[i], a[best] = a[best], a[i]
            sign = -sign
        det = a[i][i] if det is None else det * a[i][i]
        for r in range(i + 1, n):
            if a[r][i].is_zero():
                continue
            factor = a[r][i] / a[i][i]
            for c in range(i + 1, n):
                a[r][c] = a[r][c] - factor * a[i][c]
    return (-det if sign < 0 else det), collapsed


def bits(scalar):
    """The mode and the exact binary value of a float Scalar."""
    return scalar.precision, scalar.value._mpf_


def float_matrix_with_exact_entries(ctx):
    """A float Hankel matrix of jacobi-add(3,2) with exact 1 and 0 entries:
    the exact 1 at the corner is the largest entry, so it is the first pivot."""
    m = moments(preset_weight("jacobi-add", p=3, q=2), 11, mode="float", context=ctx)
    B = [[m[k + j] for j in range(6)] for k in range(6)]
    B[0][0] = Scalar.exact(1)
    for r, c in [(0, 3), (1, 4), (2, 0), (3, 3), (5, 1)]:
        B[r][c] = Scalar.exact(0)
    B[4][2] = Scalar.exact(1)
    return B


class TestFloatEliminationsMatchScalarArithmetic:
    def test_solve_is_bit_identical(self, ctx50):
        B = float_matrix_with_exact_entries(ctx50)
        rhs = [Scalar.exact(1)] + [Scalar.exact(0)] * 5
        want = scalar_solve_full_pivot(B, rhs)
        assert all(not w.is_exact for w in want)
        assert [bits(x) for x in solve_full_pivot(B, rhs)] == [bits(x) for x in want]

    def test_determinant_is_bit_identical(self, ctx50):
        B = float_matrix_with_exact_entries(ctx50)
        threshold = tolerance(ctx50, 15)
        det, collapsed = det_lu_flag(B, threshold)
        want, want_collapsed = scalar_det_lu_flag(B, threshold)
        assert bits(det) == bits(want) and collapsed == want_collapsed


class TestMixedFloatPrecisions:
    def test_solve_and_determinant_raise_mode_error(self, ctx50):
        ctx30 = PrecisionContext(30)
        matrix = [[ctx50.scalar(2), ctx30.scalar(1)], [ctx30.scalar(1), ctx50.scalar(3)]]
        with pytest.raises(ModeError, match="mixed float precisions 30 and 50"):
            solve_full_pivot(matrix, [Scalar.exact(1), Scalar.exact(0)])
        with pytest.raises(ModeError, match="mixed float precisions 30 and 50"):
            det_lu_flag(matrix, None)


# -- exact rational kernels against Fraction Gaussian elimination -------------


def fraction_det(rows):
    """det and the zero-pivot-column flag by Gaussian elimination on Fractions,
    taking the first nonzero pivot of each column."""
    a = [[Fraction(v) for v in row] for row in rows]
    n, det = len(a), Fraction(1)
    for i in range(n):
        best = next((r for r in range(i, n) if a[r][i]), None)
        if best is None:
            return Fraction(0), True
        if best != i:
            a[i], a[best] = a[best], a[i]
            det = -det
        det *= a[i][i]
        for row in a[i + 1:]:
            factor = row[i] / a[i][i]
            for c in range(i + 1, n):
                row[c] -= factor * a[i][c]
    return det, False


def fraction_solve(rows, rhs):
    """A x = b by Gaussian elimination on Fractions, pivoting on the first
    nonzero entry of the remaining submatrix in row-major order."""
    n = len(rows)
    a = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    col_of = list(range(n))
    for step in range(n):
        best = next(((r, c) for r in range(step, n) for c in range(step, n) if a[r][c]), None)
        if best is None:
            raise SingularSystemError(f"no pivot at elimination step {step}")
        r, c = best
        a[step], a[r] = a[r], a[step]
        for row in a:
            row[step], row[c] = row[c], row[step]
        col_of[step], col_of[c] = col_of[c], col_of[step]
        for row in a[step + 1:]:
            factor = row[step] / a[step][step]
            for c in range(step, n + 1):
                row[c] -= factor * a[step][c]
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        x[i] = (a[i][n] - sum(a[i][j] * x[j] for j in range(i + 1, n))) / a[i][i]
    out = [None] * n
    for pos, col in enumerate(col_of):
        out[col] = x[pos]
    return out


def outcome(f, *args):
    """('ok', result) or the exception's type and text."""
    try:
        return "ok", f(*args)
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return type(exc), str(exc)


def exact(rows):
    """Scalars holding the raw values as given: ints stay ints, Fractions Fractions."""
    return [[Scalar(v) for v in row] for row in rows]


@st.composite
def rational_systems(draw):
    """An n x n matrix and a right side; some are made singular, or get a zero
    leading pivot (a row swap) or a zero first column (a column swap in the solve)."""
    n = draw(st.integers(1, 5))
    rows = [draw(st.lists(ENTRY, min_size=n, max_size=n)) for _ in range(n)]
    shape = draw(st.sampled_from(["any", "dependent row", "zero column", "zero corner"]))
    if shape == "dependent row" and n > 1:
        i, j = draw(st.permutations(range(n)))[:2]
        scale = draw(st.builds(Fraction, st.integers(-5, 5), st.integers(1, 5)))
        rows[j] = [scale * v for v in rows[i]]
    elif shape == "zero column":
        col = draw(st.integers(0, n - 1))
        for row in rows:
            row[col] = 0
    elif shape == "zero corner":
        rows[0][0] = 0
    return rows, draw(st.lists(ENTRY, min_size=n, max_size=n))


class TestRationalKernelsMatchFractionElimination:
    @settings(max_examples=300, deadline=None)
    @given(rational_systems())
    def test_determinant_and_flag(self, system):
        rows, _ = system
        det, collapsed = det_lu_flag(exact(rows), None)
        assert det.is_rational() and (det.value, collapsed) == fraction_det(rows)

    @settings(max_examples=300, deadline=None)
    @given(rational_systems())
    def test_solution_or_singular_step(self, system):
        rows, rhs = system
        got = outcome(solve_full_pivot, exact(rows), [Scalar(v) for v in rhs])
        want = outcome(fraction_solve, rows, rhs)
        if want[0] == "ok":
            assert got[0] == "ok" and all(x.is_rational() for x in got[1])
            got = "ok", [x.value for x in got[1]]
        assert got == want

    def test_zero_leading_pivot_takes_a_row_swap(self):
        rows = [[0, 2, 1], [3, 1, 4], [1, 5, 9]]
        det, collapsed = det_lu_flag(exact(rows), None)
        assert (det.value, collapsed) == (Fraction(-32), False) == fraction_det(rows)

    def test_zero_column_takes_a_column_swap(self):
        rows = [[0, Fraction(1, 3), 2], [0, 1, Fraction(5, 7)], [0, 4, 1]]
        rhs = [1, 0, 0]
        assert fraction_det(rows) == (0, True)
        with pytest.raises(SingularSystemError, match="^no pivot at elimination step 2$"):
            solve_full_pivot(exact(rows), [Scalar(v) for v in rhs])
        rows[2][0] = Fraction(1, 2)  # now regular, with a zero corner and a zero top-left block
        got = [x.value for x in solve_full_pivot(exact(rows), [Scalar(v) for v in rhs])]
        assert got == fraction_solve(rows, rhs)

    def test_integer_rows_clear_each_row_by_its_lcm(self):
        cleared, scales = integer_rows([[Fraction(1, 6), 2, Fraction(-3, 4)], [0, 5]])
        assert cleared == [[2, 24, -9], [0, 5]] and scales == [12, 1]
        assert integer_rows([[Fraction(1, 2)], [IPiFraction({1: Fraction(1)}, {0: Fraction(1)})]]) is None


class TestNonRationalKernelsKeepTheirBits:
    """The IPiFraction and float loops are not the fraction-free ones: pinned values."""

    def test_contour_determinant_and_solve(self):
        m = contour_moments(0, 5, mode="exact")
        B = [[m[k + j] for j in range(3)] for k in range(3)]
        det, collapsed = det_lu_flag(B, None)
        assert isinstance(det.value, IPiFraction) and str(det) == "(-4/9)/((I*pi)**2)"
        assert not collapsed
        one, zero = Scalar.exact(1), Scalar.exact(0)
        assert [str(x) for x in solve_full_pivot(B, [one, zero, zero])] == ["1", "0", "-3"]

    def test_float_determinant_and_solve(self):
        ctx = PrecisionContext(20)
        m = moments(preset_weight("jacobi-add", p=3, q=2), 7, mode="float", context=ctx)
        B = [[m[k + j] for j in range(4)] for k in range(4)]
        det, collapsed = det_lu_flag(B, tolerance(ctx, 15))
        assert det.value._mpf_ == (0, 748565405463570838643, -94, 70) and not collapsed
        x = solve_full_pivot(B, [Scalar.exact(1)] + [Scalar.exact(0)] * 3)
        assert [v.value._mpf_ for v in x] == [
            (0, 92233720368547758095, -63, 67),
            (1, 830103483316929822951, -63, 70),
            (0, 484227031934875730093, -61, 69),
            (1, 645636042579834306827, -62, 70),
        ]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(ENTRY, ENTRY), min_size=1, max_size=12))
def test_rational_dot_is_the_fraction_sum(pairs):
    a, b = [x for x, _ in pairs], [y for _, y in pairs]
    got = _exact_dot(a, b + [Fraction(1, 3)])  # entries of b past len(a) are not read
    assert type(got) is Fraction and got == sum(Fraction(x) * y for x, y in pairs)


@pytest.mark.parametrize("name,params", [
    ("laguerre", {"gamma": "5/2"}),
    ("jacobi-add", {"p": 3, "q": 2}),
])
@pytest.mark.parametrize("n", [12, 16])
def test_determinant_routes_match_the_solve(name, params, n):
    m = moments(preset_weight(name, **params), 2 * n + 2, mode="exact")
    P = solve_polynomial(m, n)
    assert polynomial_via_determinants(m, n) == P
    assert normalization(m, n) == orthogonality(P, P, m)
