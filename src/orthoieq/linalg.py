"""Dense linear algebra over Scalars, sized for Hankel systems (tens of rows).

Each routine unwraps its entries once by the shared rule, numeric.unwrap
(Fraction or IPiFraction when every entry is exact, otherwise mpmath
numbers at the one float precision the entries share), eliminates on the
raw values and wraps the results once at the end.

Exact eliminations take the first nonzero pivot (exact arithmetic gains
nothing from magnitude pivoting), so exact quotients stay exact and the
determinant is exact. Exact rational matrices are cleared to integer rows
(numeric.integer_rows) and eliminated fraction-free by Bareiss' rule
(Math. Comp. 22 (1968) 565-578): each step replaces an entry by
(pivot * entry - factor * top) // previous pivot, an exact integer
division, and one Fraction is formed per result. Bareiss entries are
nonzero multiples of the Gaussian ones, so the pivots, the singular steps
and the results are those of Fraction elimination. IPiFraction matrices
keep the Gaussian loop. Float solves pivot fully and float determinants
partially, by magnitude at working precision.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .errors import SingularSystemError
from .numeric import PrecisionContext, Scalar, integer_rows, unwrap


def solve_full_pivot(matrix, rhs):
    """Solve A x = b. Raises SingularSystemError when no pivot is available."""
    n = len(matrix)
    a, precision = unwrap(*(list(row) + [rhs[i]] for i, row in enumerate(matrix)))
    fabs = None if precision is None else PrecisionContext(precision).mp.fabs
    cleared = integer_rows(a) if precision is None else None
    if cleared is not None:
        a = cleared[0]  # scaling a row of [A | b] leaves x unchanged
    col_of = list(range(n))  # col_of[j] = original column stored at position j
    prev = 1 if cleared else None
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
        for row in a[step + 1:]:
            _eliminate(row, top, step, n + 1, prev)
        if cleared:
            prev = top[step]
    if cleared:
        # the last pivot is det of the scaled, permuted A, so by Cramer's
        # rule each prev * x_i is an integer
        y = [0] * n
        for i in range(n - 1, -1, -1):
            row = a[i]
            y[i] = (row[n] * prev - sum(row[j] * y[j] for j in range(i + 1, n))) // row[i]
        x = [Fraction(v, prev) for v in y]
    else:
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


def _eliminate(row, top, i, end, prev):
    """Clear column i of row against the pivot row top, in columns i+1..end-1.

    With prev, the pivot of the step before, integer rows take Bareiss'
    update, which every row needs, a zero factor included. Without it,
    Gaussian elimination leaves a row with a zero factor as it is.
    """
    pivot, f = top[i], row[i]
    if prev is not None:
        for c in range(i + 1, end):
            row[c] = (pivot * row[c] - f * top[c]) // prev
    elif f:
        factor = f / pivot
        for c in range(i + 1, end):
            row[c] = row[c] - factor * top[c]


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
    cleared = integer_rows(a) if precision is None else None
    if cleared is not None:
        a, scales = cleared
    sign = 1
    det = None
    prev = 1 if cleared else None
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
            return Scalar(Fraction(0) if fabs is None else a[0][0] - a[0][0], precision), True
        if best != i:
            a[i], a[best] = a[best], a[i]
            sign = -sign
        top = a[i]
        pivot = top[i]
        for row in a[i + 1:]:
            _eliminate(row, top, i, n, prev)
        if cleared:
            prev = pivot
        else:
            det = pivot if det is None else det * pivot
    if cleared:  # the last Bareiss pivot is the determinant of the scaled rows
        det = Fraction(prev, prod(scales))
    return Scalar(-det if sign < 0 else det, precision), collapsed
