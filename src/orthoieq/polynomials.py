"""Polynomial values and the moment-weighted inner products every check relies on.

Products are formed by exact coefficient convolution and then contracted
against moments; quadrature is never involved here, so orthogonality
checks see moment error only.
"""

from __future__ import annotations

from functools import reduce
from math import comb
from operator import add

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
    return reduce(add, (a * m[k + j] for j, a in enumerate(P.coeffs)))


def orthogonality(Pn: Polynomial, Pm: Polynomial, m) -> Scalar:
    """<x Pn Pm>: coefficient convolution, then a k=1 contraction."""
    if len(m) < Pn.degree + Pm.degree + 2:
        raise InsufficientMomentsError(
            f"<x Pn Pm> needs m_0..m_{Pn.degree + Pm.degree + 1}, got {len(m)} moments"
        )
    return inner_moment(Pn * Pm, 1, m)


def shifted_inner(P: Polynomial, k: int, a, b, m) -> Scalar:
    """<(a+bx)^k P>: the k-th moment of argument_moments for g = a + b x."""
    if len(m) < P.degree + k + 1:
        raise InsufficientMomentsError(
            f"<(a+bx)^{k} P> with deg P = {P.degree} needs m_0..m_{P.degree + k}, "
            f"got {len(m)} moments"
        )
    return argument_moments(P, [a, b], k, m)[k]


def power_table(g, kmax: int, seq, width: int):
    """rows[k][j] = sum_t c_(k,t) seq[t+j] for k <= kmax, j < width, c_(k,t)
    being the x^t coefficient of g(x)^k.

    g lists the ascending coefficients of a nonconstant polynomial, as
    Fractions or Scalars (an exact complex shift works). Against plain
    moments the rows are <g^k x^j>; against mu_t = <x^t P> they are
    s_k = <g^k P>. Each power of g is formed once; each entry sums its
    nonzero terms in ascending t.
    """
    g = Polynomial(g)
    power = Polynomial([_ONE])
    rows = []
    for k in range(kmax + 1):
        if k:
            power = power * g
        terms = [(t, c) for t, c in enumerate(power.coeffs) if not c.is_zero()]
        rows.append([reduce(add, (c * seq[t + j] for t, c in terms)) for j in range(width)])
    return rows


def argument_moments(P: Polynomial, g, kmax: int, m) -> list:
    """s_k = <g^k P> for k = 0..kmax: power_table against mu_t = <x^t P>.

    Needs moments up to deg(P) + deg(g) kmax.
    """
    mu = [inner_moment(P, t, m) for t in range((len(g) - 1) * kmax + 1)]
    return [row[0] for row in power_table(g, kmax, mu, 1)]


def integral_image(P: Polynomial, m, a=0, b=1) -> Polynomial:
    """The right side of the shifted integral equation, as a polynomial in x.

    integral of w(y) P(y) P(x + a + b y) dy has x^i coefficient
    sum_{k>=i} a_k C(k,i) s_(k-i) with s_r = <(a+by)^r P(y)>, the
    argument_moments of g = a + b y; the additive equation is the a=0,
    b=1 case. Each mu_t = <y^t P> and each s_r is formed once: O(n^2)
    scalar operations.
    """
    return binomial_image(P, argument_moments(P, [a, b], P.degree, m))


def binomial_image(P: Polynomial, s) -> Polynomial:
    """The polynomial with x^i coefficient sum_{k>=i} a_k C(k,i) s_(k-i).

    Every kernel that expands binomially in x has this right side: with
    s_r = <g(y)^r P(y)>, integral of w(y) P(y) P(x + g(y)) dy (additive,
    shifted and functional forms), and with s_r = <y^r f[P(y)]>, integral
    of w(y) f[P(y)] P(x + y) dy. The leading coefficient may vanish.
    """
    n = P.degree
    coeffs = [reduce(add, (P.coeffs[k] * Scalar.exact(comb(k, i)) * s[k - i]
                           for k in range(i, n + 1))) for i in range(n + 1)]
    return Polynomial(coeffs, allow_zero_leading=True)


def multiplicative_image(P: Polynomial, m) -> Polynomial:
    """Right side of the multiplicative equation: x^k coefficient a_k <y^k P(y)>."""
    coeffs = [P.coeffs[k] * inner_moment(P, k, m) for k in range(P.degree + 1)]
    return Polynomial(coeffs, allow_zero_leading=True)

