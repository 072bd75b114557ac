"""The raw-value eliminations against the elementwise Scalar computation."""

import pytest

from orthoieq import ModeError, PrecisionContext, Scalar, moments, preset_weight
from orthoieq.errors import SingularSystemError
from orthoieq.linalg import det_lu_flag, solve_full_pivot
from orthoieq.numeric import tolerance


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
