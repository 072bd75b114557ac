"""Degree-n solutions from moments, by the linear-system and determinant-ratio routes.

Both routes hinge on the Hankel blocks, which one builder (_hankel) forms:

    B_n[k][j] = m_(k+j)          (n+1 x n+1, B_n[0][0] = m_0 = 1)
    C_n[k][j] = m_(k+j+1)        (n x n, top-left m_1, bottom-right m_(2n-1))

The degree-n solution exists iff det B_n != 0; the normalization factor is

    G_n = (det C_n)(det C_(n+1)) / (det B_n)^2 = <x P_n^2>.

Every determinant here, and the dense solve, is one linalg elimination;
on exact rational moments that elimination runs fraction-free on
integer rows and forms one Fraction per result. The determinant route
P_n = det A_n / det B_n needs the n + 1 cofactors c_j of the first row
of B_n, and one elimination gives them all: by Cramer's rule they are,
on one scale (-1)^n / det C_n, the solution of C_n y = -(m_(n+1), ...,
m_(2n)) with x^n appended, and det B_n = sum m_j c_j fixes the scale.

One solve (solve_kernel) serves every kernel P(x + g(y)) with g a
polynomial: the additive g = y, the shift a + b y and a polynomial f. Its
conditions <g^k P_n> = delta_(k,0) have the table <g^k x^j>, which is B_n
for g = y. For exact moments and an exact linear g they say that
P_n = pi_n / <pi_n>_w, pi_n being the monic orthogonal polynomial of
nu_j = a m_j + b m_(j+1) (the moments of g(x) w(x)); the Chebyshev
algorithm builds pi_n in O(n^2) exact operations (Gautschi, Orthogonal
Polynomials: Computation and Approximation, 2004, section 2.1.7), on
integers for rational values: sigma_k and pi_k share one scale c_k, whose
content each step removes (IPiFraction values keep c_k = 1). Any other g,
and a breakdown, take the dense solve of the table against e_0.
Every routine here taking a table runs under moments.on_exact_values:
float moments rounded from a closed form are computed on exactly, and each
result is rounded once. Only float moments without exact values (quadrature
tables, hand-built sequences) meet the float validity rules and the dense
float solve, since float power-moment recurrences are ill-conditioned.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import (
    DegenerateDegreeError,
    InsufficientMomentsError,
    SingularHankelError,
    SingularSystemError,
)
from .linalg import det_lu_flag, determinant, solve_full_pivot
from .moments import on_exact_values
from .numeric import PrecisionContext, Scalar, integer_rows, tolerance
from .polynomials import Polynomial, _exact_dot, inner_moment, power_table


def _require(m, length, what):
    if len(m) < length:
        raise InsufficientMomentsError(
            f"{what} needs m_0..m_{length - 1}, got only {len(m)} moments"
        )


def _hankel(m, size: int, shift: int = 0):
    """The size x size Hankel block m_(k+j+shift): B_n is _hankel(m, n + 1),
    C_n is _hankel(m, n, 1)."""
    name = f"C_{size}" if shift else f"B_{size - 1}"
    _require(m, 2 * size - 1 + shift, name)
    return [[m[k + j + shift] for j in range(size)] for k in range(size)]


@on_exact_values
def hankel_condition(m, n: int, *, context: PrecisionContext | None = None):
    """det B_n and a validity flag.

    Both modes run the same partially pivoted LU elimination. Exact
    moments, and float moments rounded from a closed form (whose det B_n
    is the exact one rounded once): valid iff the determinant is not
    exactly zero, i.e. no pivot column of the elimination is entirely
    zero. Other float moments: valid iff no elimination pivot collapses
    below 10^(15-p) times the magnitude of its remaining submatrix, i.e.
    the determinant is distinguishable from rounding noise at precision
    p. (A threshold of 10^(15-p) times the product of row max-norms would
    be the Hadamard worst case; it misclassifies every fast-growing
    positive-measure Hankel matrix as singular, so the per-pivot form is
    used.)
    """
    rows = _hankel(m, n + 1)
    corner = rows[0][0]
    if corner.is_exact:
        threshold = None
    else:
        threshold = tolerance(context or PrecisionContext(corner.precision), 15)
    det, collapsed = det_lu_flag(rows, threshold)
    return det, not collapsed


@on_exact_values
def solve_polynomial(m, n: int, *, context: PrecisionContext | None = None) -> Polynomial:
    """Coefficients of the unique degree-n solution of B_n a = e_0: solve_kernel
    for g = y. An exact B_n is singular iff its elimination runs out of
    pivots, so hankel_condition's pivot-collapse check runs first only when
    the solve eliminates in floating point, i.e. on float moments without
    exact values. Closed-form float moments are solved exactly and rounded
    once, with the exact errors.
    """
    _require(m, 2 * n + 1, f"B_{n}")
    exact = m[0].is_exact
    if not exact:
        det, valid = hankel_condition(m, n, context=context)
        if not valid:
            raise SingularHankelError(_singular_message(det, n))
    try:
        return solve_kernel(m, n, [0, 1], _degenerate_message(n))
    except SingularSystemError as exc:
        message = _singular_message(0, n) if exact else f"B_{n} system is singular: {exc}"
        raise SingularHankelError(message) from exc


@on_exact_values
def solve_kernel(m, n: int, g, degenerate_message: str) -> Polynomial:
    """The degree-n solution of <g^k P> = delta_(k,0), k = 0..n, for g the
    ascending coefficients (raw or Scalars) of a nonconstant polynomial: the
    recurrence on nu_j = a m_j + b m_(j+1) for exact moments and an exact
    linear g (nu = m[1:] for g = y), else, and on a breakdown, the dense
    solve of B_n (g = y) or of power_table. Raises SingularSystemError
    when the table runs out of pivots.
    """
    g = Polynomial(g).coeffs
    raw_g = [c.value for c in g] if all(c.is_exact for c in g) else None
    additive = raw_g == [0, 1]
    if raw_g is not None and len(raw_g) == 2:
        values = [m[j] for j in range(2 * n + 1)]
        if all(v.is_exact for v in values):
            raw = [v.value for v in values]
            a, b = raw_g
            nu = raw[1:] if additive else [a * raw[j] + b * raw[j + 1] for j in range(2 * n)]
            P = recurrence_solve(raw, nu, n)
            if P is not None:
                return P
    table = _hankel(m, n + 1) if additive else power_table(g, n, m, n + 1)
    return solve_e0(table, degenerate_message)


def recurrence_solve(m, nu, n: int) -> Polynomial | None:
    """pi_n / <pi_n>_w from raw exact values, or None on breakdown.

    pi_n is the monic orthogonal polynomial of the functional L[x^j] = nu_j
    (nu_0..nu_(2n-1)), built by the Chebyshev algorithm on
    sigma_(k,l) = L[pi_k x^l]; <pi_n>_w = sum c_j m_j (m_0..m_n). The
    algorithm breaks down when some sigma_(k,k) = 0 (k < n), i.e. some
    Hankel determinant of nu vanishes; <pi_n>_w = 0 means det B_n = 0.

    The loop carries S_k = c_k sigma_k and c_k pi_k on one scale c_k. With
    d_k = S_(k,k), e_k = S_(k,k+1) (d_(-1) = 1, e_(-1) = 0), p = d_k d_(k-1),
    q = e_k d_(k-1) - e_(k-1) d_k and r = d_k^2, a step is c_k p sigma_(k+1,l) =
    p S_(k,l+1) - q S_(k,l) - r S_(k-1,l), and likewise for pi with x pi_k.
    Rational nu is cleared to integers once (numeric.integer_rows); each step
    divides S_(k+1) and pi_(k+1) by their content, and one Fraction is formed
    per coefficient. Other exact values keep c_k = 1: p, q, r = 1, alpha_k, beta_k.
    """
    cleared = integer_rows([nu])
    [sigma], pi = cleared or ([list(nu)], [Fraction(1)])  # S_0 = c_0 nu, c_0 pi_0 = c_0
    prev, sigma_prev, d_prev, e_prev = [], [0] * len(nu), 1, 0
    for k in range(n):
        d, e = sigma[k], sigma[k + 1]
        if not d:
            return None
        if cleared is None:  # e_k is carried as e_k / d_k, as in alpha_k
            e = e / d
            q, r, x_sigma, nxt = e - e_prev, d / d_prev, sigma[1:], [0] + pi
        else:  # x_sigma[l] = p S_(k,l+1) and nxt = p x c_k pi_k
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
    norm = _exact_dot(pi, m)
    return Polynomial([Scalar(c / norm) for c in pi]) if norm else None


def _singular_message(det, n):
    return (
        f"det B_{n} = {det} is zero (or below the validity threshold); "
        f"no degree-{n} solution"
    )


@on_exact_values
def polynomial_via_determinants(m, n: int, *, context: PrecisionContext | None = None) -> Polynomial:
    """Same polynomial as solve_polynomial, as the ratio det A_n / det B_n.

    A_n is B_n with its first row replaced by (1, x, ..., x^n), so the x^j
    coefficient is the cofactor c_j = (-1)^j det(minor_j) over det B_n,
    minor_j dropping column j from R, the moment rows 1..n of B_n. All
    n + 1 cofactors come from one elimination: by Cramer's rule the
    solution y of C_n y = -(column n of R) is c_j (-1)^n / det C_n, so
    pi_n = y + x^n is the cofactor row on one scale, and expanding det B_n
    along its first row, det B_n = sum m_j c_j, gives P_n = pi_n / <pi_n>_w.
    det C_n = 0 (no pivot left) is a_n = (-1)^n det C_n / det B_n = 0.
    Unlike solve_polynomial, this never solves against e_0 or runs the
    recurrence.
    """
    _require(m, 2 * n + 1, f"polynomial_via_determinants(n={n})")
    det, valid = hankel_condition(m, n, context=context)
    if not valid:
        raise SingularHankelError(_singular_message(det, n))
    rows = _hankel(m, n + 1)[1:]
    try:
        y = solve_full_pivot([row[:n] for row in rows], [-row[n] for row in rows])
    except SingularSystemError:
        raise DegenerateDegreeError(_degenerate_message(n)) from None
    pi = Polynomial(y + [Scalar.exact(1)])
    norm = inner_moment(pi, 0, m)
    return _with_leading([c / norm for c in pi.coeffs], _degenerate_message(n))


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


@on_exact_values
def normalization(m, n: int, *, context: PrecisionContext | None = None) -> Scalar:
    """G_n = (det C_n)(det C_(n+1)) / (det B_n)^2, which equals <x P_n P_n>;
    refused when hankel_condition finds B_n singular (exactly, on closed forms)."""
    _require(m, 2 * n + 2, f"normalization(n={n})")
    det_b, valid = hankel_condition(m, n, context=context)
    if not valid:
        raise SingularHankelError(
            f"det B_{n} = {det_b} is zero (or below the validity threshold); G_{n} undefined"
        )
    det_cn = determinant(_hankel(m, n, 1))
    det_cn1 = determinant(_hankel(m, n + 1, 1))
    return det_cn * det_cn1 / (det_b * det_b)
