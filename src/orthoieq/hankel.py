"""Degree-n solutions from moments, by the linear-system and determinant-ratio routes.

Both routes hinge on the Hankel matrices

    B_n[k][j] = m_(k+j)          (n+1 x n+1, B_n[0][0] = m_0 = 1)
    C_n[k][j] = m_(k+j+1)        (n x n, top-left m_1, bottom-right m_(2n-1))

The degree-n solution exists iff det B_n != 0; the normalization factor is

    G_n = (det C_n)(det C_(n+1)) / (det B_n)^2 = <x P_n^2>.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DegenerateDegreeError,
    InsufficientMomentsError,
    SingularHankelError,
    SingularSystemError,
)
from .linalg import det_lu_flag, determinant, solve_full_pivot
from .numeric import PrecisionContext, Scalar, tolerance
from .polynomials import Polynomial


def _require(m, length, what):
    if len(m) < length:
        raise InsufficientMomentsError(
            f"{what} needs m_0..m_{length - 1}, got only {len(m)} moments"
        )


@dataclass(frozen=True)
class HankelSystem:
    """The degree-n linear system: B_n a = e_0, plus C_n for normalization."""

    n: int
    B: tuple
    C: tuple

    @staticmethod
    def from_moments(m, n: int) -> "HankelSystem":
        _require(m, 2 * n + 1, f"HankelSystem(n={n})")
        B = tuple(tuple(m[k + j] for j in range(n + 1)) for k in range(n + 1))
        C = tuple(tuple(m[k + j + 1] for j in range(n)) for k in range(n))
        return HankelSystem(n, B, C)


def hankel_condition(m, n: int, *, context: PrecisionContext | None = None):
    """det B_n and a validity flag.

    Both modes run the same partially pivoted LU elimination. Exact mode:
    valid iff the determinant is not exactly zero, i.e. no pivot column of
    the elimination is entirely zero. Float mode: valid iff no elimination
    pivot collapses below 10^(15-p) times the magnitude of its remaining
    submatrix, i.e. the determinant is distinguishable from rounding noise
    at precision p. (A threshold of 10^(15-p) times the product of row
    max-norms would be the Hadamard worst case; it misclassifies every
    fast-growing positive-measure Hankel matrix as singular, so the
    per-pivot form is used.)
    """
    system = HankelSystem.from_moments(m, n)
    corner = system.B[0][0]
    if corner.is_exact:
        threshold = None
    else:
        threshold = tolerance(context or PrecisionContext(corner.precision), 15)
    det, collapsed = det_lu_flag([list(row) for row in system.B], threshold)
    return det, not collapsed


def solve_polynomial(m, n: int, *, context: PrecisionContext | None = None) -> Polynomial:
    """Coefficients of the unique degree-n solution, from B_n a = e_0.

    An exact B_n is singular iff its elimination runs out of pivots, so only
    float mode runs hankel_condition first, for its pivot-collapse check.
    """
    system = HankelSystem.from_moments(m, n)
    exact = system.B[0][0].is_exact
    if not exact:
        det, valid = hankel_condition(m, n, context=context)
        if not valid:
            raise SingularHankelError(_singular_message(det, n))
    try:
        return solve_e0([list(row) for row in system.B], _degenerate_message(n))
    except SingularSystemError as exc:
        message = _singular_message(0, n) if exact else f"B_{n} system is singular: {exc}"
        raise SingularHankelError(message) from exc


def _singular_message(det, n):
    return (
        f"det B_{n} = {det} is zero (or below the validity threshold); "
        f"no degree-{n} solution"
    )


def polynomial_via_determinants(m, n: int, *, context: PrecisionContext | None = None) -> Polynomial:
    """Same polynomial as solve_polynomial, by cofactor expansion of det A_n / det B_n.

    A_n is B_n with its first row replaced by (1, x, ..., x^n), so the x^j
    coefficient is (-1)^j det(minor_j) / det B_n with minor_j dropping
    column j from the moment rows.
    """
    _require(m, 2 * n + 1, f"polynomial_via_determinants(n={n})")
    det, valid = hankel_condition(m, n, context=context)
    if not valid:
        raise SingularHankelError(_singular_message(det, n))
    rows = [[m[k + j] for j in range(n + 1)] for k in range(1, n + 1)]
    coeffs = []
    sign = 1
    for j in range(n + 1):
        minor = [[row[c] for c in range(n + 1) if c != j] for row in rows]
        cof = determinant(minor)
        coeffs.append((cof if sign > 0 else -cof) / det)
        sign = -sign
    return _with_leading(coeffs, _degenerate_message(n))


def _degenerate_message(n):
    return f"solved leading coefficient a_{n},{n} vanished; no degree-{n} solution"


def solve_e0(matrix, degenerate_message: str) -> Polynomial:
    """The polynomial whose coefficients a_0..a_n solve M a = e_0.

    Raises SingularSystemError when M has no pivot left, and
    DegenerateDegreeError(degenerate_message) when a_n vanishes.
    """
    rhs = [Scalar.exact(1)] + [Scalar.exact(0)] * (len(matrix) - 1)
    return _with_leading(solve_full_pivot(matrix, rhs), degenerate_message)


def _with_leading(coeffs, degenerate_message) -> Polynomial:
    if vanishes(coeffs[-1], coeffs):
        raise DegenerateDegreeError(degenerate_message)
    return Polynomial(coeffs)


def vanishes(value: Scalar, coeffs) -> bool:
    """Whether a solved coefficient is zero: exactly, or in float mode at most
    10^(15-p) times max(1, max |c| over coeffs), p being the value's precision."""
    if value.is_exact:
        return value.is_zero()
    ctx = PrecisionContext(value.precision)
    scale = max(c.magnitude() for c in coeffs)
    return value.magnitude() <= tolerance(ctx, 15) * max(ctx.mp.mpf(1), scale)


def normalization(m, n: int, *, context: PrecisionContext | None = None) -> Scalar:
    """G_n = (det C_n)(det C_(n+1)) / (det B_n)^2, which equals <x P_n P_n>."""
    _require(m, 2 * n + 2, f"normalization(n={n})")
    det_b, valid = hankel_condition(m, n, context=context)
    if not valid:
        raise SingularHankelError(
            f"det B_{n} = {det_b} is zero (or below the validity threshold); G_{n} undefined"
        )
    c_n = HankelSystem.from_moments(m, n).C
    c_n1 = tuple(tuple(m[k + j + 1] for j in range(n + 1)) for k in range(n + 1))
    det_cn = determinant([list(row) for row in c_n])
    det_cn1 = determinant([list(row) for row in c_n1])
    return det_cn * det_cn1 / (det_b * det_b)
