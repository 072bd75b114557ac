"""Closed-form classical families for cross-validation, plus a proportionality matcher.

Every family comes from one three-term recurrence,

    p_(k+1) = (A_k x + B_k) p_k - C_k p_(k-1),   p_0 = 1, p_(-1) = 0,

with these coefficients:

    family                A_k            B_k                    C_k
    laguerre(n, gamma)    -1/(k+1)       (2k+gamma+1)/(k+1)     (k+gamma)/(k+1)
    legendre(n)           (2k+1)/(k+1)   0                      k/(k+1)
    chebyshev_U_star(n)   4              -2                     1
    jacobi_G(n, p, q)     1              -(1 + a_k)/2           b_k/4

where a_k and b_k are the monic Jacobi recurrence coefficients on [-1, 1]
for (alpha, beta) = (p - q, q - 1).
All recurrences run in exact rational arithmetic (rational parameters),
independently of the moment/Hankel machinery they validate.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConfigurationError, DegreeMismatchError, NotProportionalError
from .numeric import PrecisionContext, Scalar, scalar_eq, tolerance
from .polynomials import Polynomial


def _frac(value, name):
    try:
        return Fraction(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{name} must be rational, got {value!r}") from None


def _three_term(n: int, step) -> Polynomial:
    """p_n of p_(k+1) = (A_k x + B_k) p_k - C_k p_(k-1), p_0 = 1, p_(-1) = 0,
    where (A_k, B_k, C_k) = step(k) are rationals."""
    if n < 0:
        raise ConfigurationError("degree must be nonnegative")
    prev, cur = [], [Fraction(1)]
    for k in range(n):
        a, b, c = step(k)
        nxt = [b * v for v in cur] + [0]
        for i, v in enumerate(cur):
            nxt[i + 1] += a * v
        for i, v in enumerate(prev):
            nxt[i] -= c * v
        prev, cur = cur, nxt
    return Polynomial(cur)


def laguerre(n: int, gamma) -> Polynomial:
    """Generalized Laguerre L_n, normalized so L_n(0) = binomial(n+gamma, n):
    (k+1) L_(k+1) = (2k + gamma + 1 - x) L_k - (k + gamma) L_(k-1)."""
    gamma = _frac(gamma, "gamma")
    if gamma < 1:
        raise ConfigurationError(f"laguerre requires gamma >= 1, got {gamma}")
    return _three_term(n, lambda k: (Fraction(-1, k + 1), (2 * k + gamma + 1) / (k + 1),
                                     (k + gamma) / (k + 1)))


def jacobi_G(n: int, p, q) -> Polynomial:
    """Monic Jacobi G_n(p, q, x) on [0, 1], orthogonal for x^(q-1) (1-x)^(p-q).

    The monic recurrence on [-1, 1] with parameters (alpha, beta) =
    (p - q, q - 1), Q_(k+1) = (u - a_k) Q_k - b_k Q_(k-1), taken to
    x = (u + 1)/2 through G_k = Q_k / 2^k, which stays monic in x.
    """
    p = _frac(p, "p")
    q = _frac(q, "q")
    if not (q > 0 and p - q > -1 and p > 0):
        raise ConfigurationError(
            f"jacobi_G requires q > 0, p - q > -1 and p > 0, got p={p}, q={q}"
        )
    al = p - q
    be = q - 1
    s = al + be

    def step(k):
        if k == 0:  # the general a_k divides by zero when alpha + beta = 0
            return 1, -(1 + (be - al) / (s + 2)) / 2, 0
        a_k = (be * be - al * al) / ((2 * k + s) * (2 * k + s + 2))
        b_k = Fraction(4 * k) * (k + al) * (k + be) * (k + s) / (
            (2 * k + s) ** 2 * (2 * k + s + 1) * (2 * k + s - 1)
        )
        return 1, -(1 + a_k) / 2, b_k / 4

    return _three_term(n, step)


def chebyshev_U_star(n: int) -> Polynomial:
    """Shifted Chebyshev of the second kind, U*_n(x) = U_n(2x - 1):
    U*_(k+1) = (4x - 2) U*_k - U*_(k-1)."""
    return _three_term(n, lambda k: (4, -2, 1))


def legendre(n: int) -> Polynomial:
    """Legendre P_n via the Bonnet recurrence (k+1) P_(k+1) = (2k+1) x P_k - k P_(k-1)."""
    return _three_term(n, lambda k: (Fraction(2 * k + 1, k + 1), 0, Fraction(k, k + 1)))


def match_up_to_scale(P: Polynomial, Q: Polynomial, *,
                      context: PrecisionContext | None = None) -> Scalar:
    """The constant c with P = c Q. Raises NotProportionalError (with the first
    offending index) when the coefficient ratios disagree."""
    if P.degree != Q.degree:
        raise DegreeMismatchError(f"degrees differ: {P.degree} vs {Q.degree}")
    c = P.leading / Q.leading
    exact = all(x.is_exact for x in P.coeffs) and all(x.is_exact for x in Q.coeffs) and c.is_exact
    if exact:
        tol = 0
    else:
        if context is None:
            prec = next(
                (x.precision for x in P.coeffs + Q.coeffs + (c,) if not x.is_exact),
                None,
            )
            context = PrecisionContext(prec) if prec else PrecisionContext()
        tol = tolerance(context, 10)
    for j in range(P.degree + 1):
        if not scalar_eq(P.coefficient(j), c * Q.coefficient(j), tol=tol):
            raise NotProportionalError(
                f"coefficient {j}: {P.coefficient(j)} != c * {Q.coefficient(j)} with c = {c}",
                index=j,
            )
    return c
