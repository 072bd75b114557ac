"""Degree-n solutions from moments, by the linear-system and determinant-ratio routes.

Both routes hinge on the Hankel blocks, which one builder (_hankel) forms:

    B_n[k][j] = m_(k+j)          (n+1 x n+1, B_n[0][0] = m_0 = 1)
    C_n[k][j] = m_(k+j+1)        (n x n, top-left m_1, bottom-right m_(2n-1))

The degree-n solution exists iff det B_n != 0; the normalization factor is

    G_n = (det C_n)(det C_(n+1)) / (det B_n)^2 = <x P_n^2>.

One solve (solve_kernel) serves every kernel P(x + g(y)) with g a
polynomial: the additive g = y, the shift a + b y and a polynomial f. Its
conditions <g^k P_n> = delta_(k,0) have the table <g^k x^j>, which is B_n
for g = y. For exact moments and an exact linear g they say that
P_n = pi_n / <pi_n>_w, pi_n being the monic orthogonal polynomial of
nu_j = a m_j + b m_(j+1) (the moments of g(x) w(x)); the Chebyshev
algorithm builds every pi_k, k <= n, in one pass of O(n^2) exact
operations (Gautschi, Orthogonal Polynomials: Computation and
Approximation, 2004, section 2.1.7), on integers for rational values:
sigma_k and pi_k share one scale c_k, whose content each step removes
(IPiFraction values keep c_k = 1). Its diagonal gives the determinants
too: for g = y, det C_n = sigma_00 ... sigma_(n-1,n-1), so

    det B_n = (-1)^n det C_n <pi_n>_w,    G_n = sigma_nn / <pi_n>_w^2.

A MomentSequence keeps one pass per exact linear g (ChebyshevPass), which
extends only as far as the highest degree asked for, so every degree,
det B_n and G_n of one table come from one pass; any other table gets a
fresh pass per call. Any other g, a breakdown (some sigma_kk = 0, k < n)
and <pi_n>_w = 0 take one linalg elimination instead: the dense solve of
the table against e_0, of B_n for det B_n, of C_n and C_(n+1) for G_n.
On exact rational moments an elimination runs fraction-free on integer
rows and forms one Fraction per result. The determinant route
P_n = det A_n / det B_n needs the n + 1 cofactors c_j of the first row
of B_n, and one elimination gives them all: by Cramer's rule they are,
on one scale (-1)^n / det C_n, the solution of C_n y = -(m_(n+1), ...,
m_(2n)) with x^n appended, and det B_n = sum m_j c_j fixes the scale.

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

ADDITIVE = (0, 1)  # g = y, whose pass runs on nu = m_1, m_2, ...


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

    Exact moments, and float moments rounded from a closed form (whose det B_n
    is the exact one rounded once): det B_n = (-1)^n det C_n <pi_n>_w from the
    Chebyshev pass of g = y, or on a breakdown a partially pivoted LU
    elimination of B_n; valid iff the determinant is not exactly zero.
    Other float moments run the elimination, valid iff no pivot collapses
    below 10^(15-p) times the magnitude of its remaining submatrix, i.e.
    the determinant is distinguishable from rounding noise at precision
    p. (A threshold of 10^(15-p) times the product of row max-norms would
    be the Hadamard worst case; it misclassifies every fast-growing
    positive-measure Hankel matrix as singular, so the per-pivot form is
    used.)
    """
    _require(m, 2 * n + 1, f"B_{n}")
    corner = m[0]
    if corner.is_exact:
        chebyshev = chebyshev_pass(m, ADDITIVE, 2 * n + 1)
        det = chebyshev and chebyshev.det_b(n)
        if det is not None:
            return det, not det.is_zero()
        threshold = None
    else:
        threshold = tolerance(context or PrecisionContext(corner.precision), 15)
    det, collapsed = det_lu_flag(_hankel(m, n + 1), threshold)
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
    ascending coefficients (raw or Scalars) of a nonconstant polynomial:
    P_n of the Chebyshev pass of nu_j = a m_j + b m_(j+1) for exact moments
    and an exact linear g (nu = m[1:] for g = y), else, and on a breakdown,
    the dense solve of B_n (g = y) or of power_table. Raises
    SingularSystemError when the table runs out of pivots.
    """
    g = Polynomial(g).coeffs
    raw_g = [c.value for c in g] if all(c.is_exact for c in g) else None
    if raw_g is not None and len(raw_g) == 2:
        chebyshev = chebyshev_pass(m, raw_g, 2 * n + 1)
        P = chebyshev and chebyshev.solution(n)
        if P is not None:
            return P
    table = _hankel(m, n + 1) if raw_g == [0, 1] else power_table(g, n, m, n + 1)
    return solve_e0(table, degenerate_message)


def chebyshev_pass(m, g, size: int):
    """The ChebyshevPass of the moments m and the raw exact linear g = (a, b),
    or None when a moment it reads is not exact.

    A MomentSequence of at least `size` exact values keeps one pass per g on
    all its values in its memo, so later calls extend or read it. Any other
    table gets a fresh pass on m_0..m_(size-1), reading them as the dense
    routes do (a short table raises their error).
    """
    memo = getattr(m, "memo", None)
    if memo is not None and len(m) >= size:
        key = ("chebyshev", *map(str, g))
        if key not in memo:
            memo[key] = _new_pass(m.values, g)
        if memo[key] is not None:
            return memo[key]
    return _new_pass([m[j] for j in range(size)], g)


def _new_pass(values, g):
    if not all(v.is_exact for v in values):
        return None
    raw = [v.value for v in values]
    a, b = g
    if (a, b) == ADDITIVE:
        return ChebyshevPass(raw, raw[1:])
    # sigma_nn (G_n) is read for g = y alone; pi_n needs nu_0..nu_(2n-1)
    width = (len(raw) - 1) // 2 * 2
    return ChebyshevPass(raw, [a * raw[j] + b * raw[j + 1] for j in range(width)])


def recurrence_solve(m, nu, n: int) -> Polynomial | None:
    """pi_n / <pi_n>_w from raw exact values m_0..m_n and nu_0..nu_(2n-1), or
    None on breakdown: one ChebyshevPass, stepped to degree n."""
    return ChebyshevPass(m, nu).solution(n)


class ChebyshevPass:
    """The Chebyshev algorithm on raw exact m and nu, stepped on demand.

    pi_k is the monic orthogonal polynomial of the functional L[x^j] = nu_j,
    built on sigma_(k,l) = L[pi_k x^l]; <pi_k>_w = sum c_j m_j. The algorithm
    breaks down when some sigma_(k,k) = 0 (k < n), i.e. some Hankel
    determinant of nu vanishes; <pi_n>_w = 0 means det B_n = 0.

    The pass carries S_k = c_k sigma_k, at the full length nu allows, and
    every c_k pi_k, on one scale c_k, the leading coefficient of c_k pi_k.
    With d_k = S_(k,k), e_k = S_(k,k+1) (d_(-1) = 1, e_(-1) = 0),
    p = d_k d_(k-1), q = e_k d_(k-1) - e_(k-1) d_k and r = d_k^2, a step is
    c_k p sigma_(k+1,l) = p S_(k,l+1) - q S_(k,l) - r S_(k-1,l), and likewise
    for pi with x pi_k. Rational nu is cleared to integers once
    (numeric.integer_rows); each step divides S_(k+1) and pi_(k+1) by their
    content, and one Fraction is formed per coefficient. Other exact values
    keep c_k = 1: p, q, r = 1, alpha_k, beta_k. A degree asked again is read
    from the pass.
    """

    def __init__(self, m, nu):
        self.m, self.width = m, len(nu)
        cleared = integer_rows([nu])
        self.cleared = cleared is not None
        [sigma], scale = cleared or ([list(nu)], [Fraction(1)])  # S_0 = c_0 nu
        self.pis = [scale]  # c_k pi_k; c_0 pi_0 = c_0
        self.sigma, self.sigma_prev = sigma, [0] * len(nu)  # S_k and S_(k-1)
        self.diagonal = sigma[:1]  # S_(k,k) of each row the table reaches
        self.d_prev, self.e_prev = 1, 0
        self.minors = [Fraction(1)]  # det C_k = sigma_00 ... sigma_(k-1,k-1)
        self.solved = {}  # n: (P_n or None, <c_n pi_n>_w or None)

    def _reach(self, n) -> bool:
        """Step until pi_n is built; False when some sigma_(k,k) = 0, k < n."""
        while len(self.pis) <= n:
            if not self.sigma[len(self.pis) - 1]:
                return False
            self._step()
        return True

    def _step(self):
        k, sigma, pi = len(self.pis) - 1, self.sigma, self.pis[-1]
        d, e = sigma[k], sigma[k + 1]
        if not self.cleared:  # e_k is carried as e_k / d_k, as in alpha_k
            e = e / d
            q, r, x_sigma, nxt = e - self.e_prev, d / self.d_prev, sigma[1:], [0] + pi
        else:  # x_sigma[l] = p S_(k,l+1) and nxt = p x c_k pi_k
            p, q, r = d * self.d_prev, e * self.d_prev - self.e_prev * d, d * d
            x_sigma, nxt = [p * v for v in sigma[1:]], [0] + [p * c for c in pi]
        for i, c in enumerate(pi):
            nxt[i] -= q * c
        for i, c in enumerate(self.pis[-2] if k else ()):
            nxt[i] -= r * c
        ahead = [0] * (k + 1) + [x_sigma[l] - q * sigma[l] - r * self.sigma_prev[l]
                                 for l in range(k + 1, self.width - k - 1)]
        if self.cleared:
            content = gcd(*nxt, *ahead)
            nxt, ahead = [v // content for v in nxt], [v // content for v in ahead]
        self.pis.append(nxt)
        self.sigma_prev, self.sigma, self.d_prev, self.e_prev = sigma, ahead, d, e
        self.diagonal += ahead[k + 1:k + 2]

    def _sigma(self, k):
        """sigma_(k,k) = S_(k,k) / c_k."""
        d = self.diagonal[k]
        return Fraction(d, self.pis[k][-1]) if self.cleared else d

    def solution(self, n) -> Polynomial | None:
        """P_n = pi_n / <pi_n>_w, or None on a breakdown before n or when
        <pi_n>_w = 0."""
        if n not in self.solved:
            P = norm = None
            if self._reach(n):
                pi = self.pis[n]
                norm = _exact_dot(pi, self.m)
                if norm:
                    P = Polynomial([Scalar(c / norm) for c in pi])
            self.solved[n] = P, norm
        return self.solved[n][0]

    def _norm(self, n):
        """<pi_n>_w, or None on a breakdown before n."""
        self.solution(n)
        norm = self.solved[n][1]
        return norm / self.pis[n][-1] if norm is not None and self.cleared else norm

    def det_b(self, n) -> Scalar | None:
        """det B_n = (-1)^n det C_n <pi_n>_w for g = y, or None on a breakdown
        before n."""
        norm = self._norm(n)
        if norm is None:
            return None
        while len(self.minors) <= n:
            self.minors.append(self.minors[-1] * self._sigma(len(self.minors) - 1))
        det = self.minors[n] * norm
        return Scalar(-det if n % 2 else det)

    def normalization(self, n) -> Scalar | None:
        """G_n = sigma_nn / <pi_n>_w^2 for g = y, or None on a breakdown before
        n, when <pi_n>_w = 0 or when the table stops short of sigma_nn."""
        norm = self._norm(n)
        if not norm or len(self.diagonal) <= n:
            return None
        return Scalar(self._sigma(n) / (norm * norm))


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
    Only the validity flag comes from hankel_condition (on exact moments,
    the Chebyshev pass); the coefficients come from this elimination of C_n,
    so this never solves against e_0 or reads the pass's pi_n.
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
    """G_n = <x P_n P_n>: on exact moments sigma_nn / <pi_n>_w^2 from the
    Chebyshev pass of g = y; otherwise, and on a breakdown or <pi_n>_w = 0,
    (det C_n)(det C_(n+1)) / (det B_n)^2 by elimination, refused when
    hankel_condition finds B_n singular (exactly, on closed forms)."""
    _require(m, 2 * n + 2, f"normalization(n={n})")
    if m[0].is_exact:
        chebyshev = chebyshev_pass(m, ADDITIVE, 2 * n + 2)
        G = chebyshev and chebyshev.normalization(n)
        if G is not None:
            return G
    det_b, valid = hankel_condition(m, n, context=context)
    if not valid:
        raise SingularHankelError(
            f"det B_{n} = {det_b} is zero (or below the validity threshold); G_{n} undefined"
        )
    det_cn = determinant(_hankel(m, n, 1))
    det_cn1 = determinant(_hankel(m, n + 1, 1))
    return det_cn * det_cn1 / (det_b * det_b)
