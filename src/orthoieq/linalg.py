"""Dense linear algebra over Scalars, sized for Hankel systems (tens of rows).

Solves use Gaussian elimination: exact systems take the first nonzero
pivot (exact arithmetic gains nothing from magnitude pivoting), float
systems pivot fully at working precision.
Determinants use partially pivoted LU elimination in both modes; exact
entries (Fraction or IPiFraction) keep every quotient exact, so the result is
the exact determinant.
"""

from __future__ import annotations

from .errors import SingularSystemError
from .numeric import Scalar


def solve_full_pivot(matrix, rhs):
    """Solve A x = b. Raises SingularSystemError when no pivot is available."""
    n = len(matrix)
    a = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    col_of = list(range(n))  # col_of[j] = original column stored at position j
    exact = all(entry.is_exact for row in matrix for entry in row)
    for step in range(n):
        nonzero = ((r, c) for r in range(step, n) for c in range(step, n)
                   if not a[r][c].is_zero())
        if exact:
            best = next(nonzero, None)
        else:
            best = max(nonzero, key=lambda rc: a[rc[0]][rc[1]].magnitude(), default=None)
        if best is None:
            raise SingularSystemError(f"no pivot at elimination step {step}")
        r, c = best
        if r != step:
            a[step], a[r] = a[r], a[step]
        if c != step:
            for row in a:
                row[step], row[c] = row[c], row[step]
            col_of[step], col_of[c] = col_of[c], col_of[step]
        pivot = a[step][step]
        for r in range(step + 1, n):
            if a[r][step].is_zero():
                continue
            factor = a[r][step] / pivot
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


def determinant(matrix) -> Scalar:
    if not matrix:
        return Scalar.exact(1)
    return det_lu_flag(matrix, None)[0]


def det_lu_flag(matrix, rel_threshold):
    """Partially pivoted LU determinant plus a pivot-collapse flag.

    The matrix counts as numerically singular when some pivot falls to
    rel_threshold (an mpf) times the magnitude of the largest entry of the
    remaining submatrix: at that point the pivot is indistinguishable from
    elimination noise. Pass rel_threshold=None to skip the check; the flag
    then reports only a pivot column that is entirely zero, which for exact
    entries happens exactly when the determinant is zero.
    """
    a = [list(row) for row in matrix]
    n = len(a)
    sign = 1
    det = None
    collapsed = False
    for i in range(n):
        best = i
        best_mag = a[i][i].magnitude()
        for r in range(i + 1, n):
            mag = a[r][i].magnitude()
            if mag > best_mag:
                best, best_mag = r, mag
        if rel_threshold is not None:
            sub_max = best_mag
            for r in range(i, n):
                for c in range(i, n):
                    mag = a[r][c].magnitude()
                    if mag > sub_max:
                        sub_max = mag
            if best_mag <= rel_threshold * max(1, sub_max):
                collapsed = True
        if a[best][i].is_zero():
            zero = a[0][0] - a[0][0]
            return zero, True
        if best != i:
            a[i], a[best] = a[best], a[i]
            sign = -sign
        pivot = a[i][i]
        det = pivot if det is None else det * pivot
        for r in range(i + 1, n):
            if a[r][i].is_zero():
                continue
            factor = a[r][i] / pivot
            for c in range(i + 1, n):
                a[r][c] = a[r][c] - factor * a[i][c]
    return (-det if sign < 0 else det), collapsed
