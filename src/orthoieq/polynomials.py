"""Polynomial values and the moment-weighted inner products every check relies on.

Products are formed by exact coefficient convolution and then contracted
against moments; quadrature is never involved here, so orthogonality
checks see moment error only.
"""

from __future__ import annotations

from math import comb

from .errors import DegenerateDegreeError, InsufficientMomentsError
from .numeric import Scalar

_ZERO = Scalar.exact(0)
_ONE = Scalar.exact(1)


class Polynomial:
    """Degree-n polynomial, coefficients ascending (a_0 .. a_n), leading nonzero.

    Integral images of polynomials can have a degree drop, so internal
    callers may pass allow_zero_leading=True; solver outputs never do.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, *, allow_zero_leading=False):
        coeffs = tuple(c if isinstance(c, Scalar) else Scalar.exact(c) for c in coeffs)
        if not coeffs:
            raise DegenerateDegreeError("a polynomial needs at least one coefficient")
        if not allow_zero_leading and coeffs[-1].is_zero():
            raise DegenerateDegreeError("leading coefficient is zero")
        self.coeffs = coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Scalar:
        return self.coeffs[-1]

    def coefficient(self, k: int) -> Scalar:
        return self.coeffs[k] if k < len(self.coeffs) else _ZERO

    def eval(self, x) -> Scalar:
        """Horner evaluation at a Scalar point."""
        if not isinstance(x, Scalar):
            x = Scalar.exact(x)
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return Polynomial(out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, factor) -> "Polynomial":
        if not isinstance(factor, Scalar):
            factor = Scalar.exact(factor)
        return Polynomial([c * factor for c in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.degree != other.degree:
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({[str(c) for c in self.coeffs]})"

    def __str__(self):
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coefficient(k)
            if c.is_zero() and self.degree > 0:
                continue
            term = str(c)
            if k:
                term = f"({term})*x^{k}" if k > 1 else f"({term})*x"
            parts.append(term)
        return " + ".join(parts)


def inner_moment(P: Polynomial, k: int, m) -> Scalar:
    """<x^k P> = sum_j a_j m_(k+j). Needs moments up to deg(P)+k."""
    if len(m) < P.degree + k + 1:
        raise InsufficientMomentsError(
            f"<x^{k} P> with deg P = {P.degree} needs m_0..m_{P.degree + k}, "
            f"got {len(m)} moments"
        )
    acc = None
    for j, a in enumerate(P.coeffs):
        term = a * m[k + j]
        acc = term if acc is None else acc + term
    return acc


def orthogonality(Pn: Polynomial, Pm: Polynomial, m) -> Scalar:
    """<x Pn Pm>: coefficient convolution, then a k=1 contraction."""
    if len(m) < Pn.degree + Pm.degree + 2:
        raise InsufficientMomentsError(
            f"<x Pn Pm> needs m_0..m_{Pn.degree + Pm.degree + 1}, got {len(m)} moments"
        )
    return inner_moment(Pn * Pm, 1, m)


def shifted_inner(P: Polynomial, k: int, a, b, m) -> Scalar:
    """<(a+bx)^k P>, by binomial expansion of the shift and moment contraction."""
    a, b = _scalar(a), _scalar(b)
    if len(m) < P.degree + k + 1:
        raise InsufficientMomentsError(
            f"<(a+bx)^{k} P> with deg P = {P.degree} needs m_0..m_{P.degree + k}, "
            f"got {len(m)} moments"
        )
    return _binomial_shift([inner_moment(P, i, m) for i in range(k + 1)], k, a, b)


def _binomial_shift(mu, k: int, a: Scalar, b: Scalar) -> Scalar:
    """sum_i C(k,i) a^(k-i) b^i mu_i, i.e. <(a+bx)^k P> from mu_i = <x^i P>."""
    acc = None
    for i in range(k + 1):
        coeff = Scalar.exact(comb(k, i)) * a ** (k - i) * b**i
        term = coeff * mu[i]
        acc = term if acc is None else acc + term
    return acc


def integral_image(P: Polynomial, m, a=0, b=1) -> Polynomial:
    """The right side of the shifted integral equation, as a polynomial in x.

    integral of w(y) P(y) P(x + a + b y) dy has x^i coefficient
    sum_{k>=i} a_k C(k,i) s_(k-i) with s_r = <(a+by)^r P(y)>, a finite
    moment sum; the additive equation is the a=0, b=1 case. Each
    mu_t = <y^t P> and each s_r is formed once: O(n^2) scalar operations.
    """
    a, b = _scalar(a), _scalar(b)
    n = P.degree
    mu = [inner_moment(P, t, m) for t in range(n + 1)]
    return binomial_image(P, [_binomial_shift(mu, r, a, b) for r in range(n + 1)])


def binomial_image(P: Polynomial, s) -> Polynomial:
    """The polynomial with x^i coefficient sum_{k>=i} a_k C(k,i) s_(k-i).

    Every kernel that expands binomially in x has this right side: with
    s_r = <g(y)^r P(y)>, integral of w(y) P(y) P(x + g(y)) dy (additive,
    shifted and functional forms), and with s_r = <y^r f[P(y)]>, integral
    of w(y) f[P(y)] P(x + y) dy. The leading coefficient may vanish.
    """
    n = P.degree
    coeffs = []
    for i in range(n + 1):
        acc = None
        for k in range(i, n + 1):
            term = P.coeffs[k] * Scalar.exact(comb(k, i)) * s[k - i]
            acc = term if acc is None else acc + term
        coeffs.append(acc)
    return Polynomial(coeffs, allow_zero_leading=True)


def multiplicative_image(P: Polynomial, m) -> Polynomial:
    """Right side of the multiplicative equation: x^k coefficient a_k <y^k P(y)>."""
    coeffs = [P.coeffs[k] * inner_moment(P, k, m) for k in range(P.degree + 1)]
    return Polynomial(coeffs, allow_zero_leading=True)


def _scalar(value) -> Scalar:
    return value if isinstance(value, Scalar) else Scalar.exact(value)
