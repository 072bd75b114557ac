"""Dense linear algebra over Scalars, sized for Hankel systems (tens of rows).

Each routine unwraps its entries once by the shared rule, numeric.unwrap
(Fraction or IPiFraction when every entry is exact, otherwise mpmath
numbers at the one float precision the entries share), eliminates on the
raw values and wraps the results once at the end.

Exact eliminations take the first nonzero pivot (exact arithmetic gains
nothing from magnitude pivoting), so exact quotients stay exact and the
determinant is exact. Float solves pivot fully and float determinants
partially, by magnitude at working precision.
"""

from __future__ import annotations

from .errors import SingularSystemError
from .numeric import PrecisionContext, Scalar, unwrap


def solve_full_pivot(matrix, rhs):
    """Solve A x = b. Raises SingularSystemError when no pivot is available."""
    n = len(matrix)
    a, precision = unwrap(*(list(row) + [rhs[i]] for i, row in enumerate(matrix)))
    fabs = None if precision is None else PrecisionContext(precision).mp.fabs
    col_of = list(range(n))  # col_of[j] = original column stored at position j
    for step in range(n):
        nonzero = ((r, c) for r in range(step, n) for c in range(step, n) if a[r][c])
        if fabs is None:
            best = next(nonzero, None)
        else:
            best = max(nonzero, key=lambda rc: fabs(a[rc[0]][rc[1]]), default=None)
        if best is None:
            raise SingularSystemError(f"no pivot at elimination step {step}")
        r, c = best
        if r != step:
            a[step], a[r] = a[r], a[step]
        if c != step:
            for row in a:
                row[step], row[c] = row[c], row[step]
            col_of[step], col_of[c] = col_of[c], col_of[step]
        top = a[step]
        pivot = top[step]
        for row in a[step + 1:]:
            if not row[step]:
                continue
            factor = row[step] / pivot
            for c in range(step + 1, n + 1):
                row[c] = row[c] - factor * top[c]
    x = [None] * n
    for i in range(n - 1, -1, -1):
        acc = a[i][n]
        for j in range(i + 1, n):
            acc = acc - a[i][j] * x[j]
        x[i] = acc / a[i][i]
    out = [None] * n
    for pos, col in enumerate(col_of):
        out[col] = Scalar(x[pos], precision)
    return out


def determinant(matrix) -> Scalar:
    if not matrix:
        return Scalar.exact(1)
    return det_lu_flag(matrix, None)[0]


def det_lu_flag(matrix, rel_threshold):
    """LU determinant plus a pivot-collapse flag.

    A float matrix counts as numerically singular when some pivot falls to
    rel_threshold (an mpf) times the magnitude of the largest entry of the
    remaining submatrix: at that point the pivot is indistinguishable from
    elimination noise. Pass rel_threshold=None to skip the check (exact
    matrices never run it); the flag then reports only a pivot column that
    is entirely zero, which for exact entries happens exactly when the
    determinant is zero.
    """
    a, precision = unwrap(*matrix)
    n = len(a)
    fabs = None if precision is None else PrecisionContext(precision).mp.fabs
    sign = 1
    det = None
    collapsed = False
    for i in range(n):
        if fabs is None:
            best = next((r for r in range(i, n) if a[r][i]), i)
        else:
            best = i
            best_mag = fabs(a[i][i])
            for r in range(i + 1, n):
                mag = fabs(a[r][i])
                if mag > best_mag:
                    best, best_mag = r, mag
            if rel_threshold is not None:
                sub_max = max(max(fabs(v) for v in row[i:]) for row in a[i:])
                if best_mag <= rel_threshold * max(1, sub_max):
                    collapsed = True
        if not a[best][i]:
            return Scalar(a[0][0] - a[0][0], precision), True
        if best != i:
            a[i], a[best] = a[best], a[i]
            sign = -sign
        top = a[i]
        pivot = top[i]
        det = pivot if det is None else det * pivot
        for row in a[i + 1:]:
            if not row[i]:
                continue
            factor = row[i] / pivot
            for c in range(i + 1, n):
                row[c] = row[c] - factor * top[c]
    return Scalar(-det if sign < 0 else det, precision), collapsed
