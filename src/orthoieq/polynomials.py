"""Polynomial values and the moment-weighted inner products every check relies on.

Products are formed by coefficient convolution and then contracted
against moments; quadrature is never involved here, so orthogonality
checks see moment error only. The raw loops on coefficient lists have
one copy each: _convolve forms every product (here and in
expressions.as_polynomial) and _horner every evaluation (Polynomial.eval
and the checks in variants).

Each contraction unwraps its Scalars once by the one rule the package
shares, numeric.unwrap (exact values stay Fraction or IPiFraction; exact
entries meet float ones at the float precision they share), computes on
the raw values and wraps its results once. Rational rows are cleared to
integers once and summed on integers, one Fraction per result; any other
sum adds its terms in the order Scalar arithmetic would. An exact factor
(a power of g, a_k C(k, i)) is formed exactly before it meets a float
one, so a polynomial of one mode against moments of one mode gives the
value, and in float mode the bits, of the elementwise Scalar computation.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import add, mul

from .errors import DegenerateDegreeError, InsufficientMomentsError
from .numeric import PrecisionContext, Scalar, integer_rows, unwrap

_ZERO = Scalar.exact(0)


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
        (coeffs, (x,)), precision = unwrap(self.coeffs, (x,))
        return Scalar(_horner(coeffs, x), precision)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            (a, b), precision = unwrap(self.coeffs, other.coeffs)
            return Polynomial([Scalar(c, precision) for c in _convolve(a, b)])
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


def _convolve(a, b):
    """Ascending coefficients of the product of two raw coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _horner(coeffs, x):
    """The raw coefficient list (ascending) evaluated at the raw point x."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def _dot(a, b):
    """sum_j a_j b_j over the length of a, terms added in ascending j.

    Rational rows are cleared to integers once and one Fraction is formed
    at the end; other values (IPiFraction, mpmath numbers) add in the
    order Scalar arithmetic would.
    """
    cleared = integer_rows([a, b[:len(a)]])
    if cleared is not None:
        (x, y), (dx, dy) = cleared
        return Fraction(sum(map(mul, x, y)), dx * dy)
    acc = a[0] * b[0]
    for j in range(1, len(a)):
        acc = acc + a[j] * b[j]
    return acc


def _require(P: Polynomial, k: int, m):
    if len(m) < P.degree + k + 1:
        raise InsufficientMomentsError(
            f"<x^{k} P> with deg P = {P.degree} needs m_0..m_{P.degree + k}, "
            f"got {len(m)} moments"
        )


def _raw_moments(P: Polynomial, kmax: int, m):
    """The raw coefficients of P, mu_k = <x^k P> for k = 0..kmax, and their
    precision. A short m raises inner_moment's error for the first k it misses.
    Rational P = A/d_a and m = M/d_m clear once: mu_k = sum_j A_j M_(k+j) / (d_a d_m)."""
    _require(P, max(0, min(kmax, len(m) - P.degree)), m)
    (a, values), precision = unwrap(P.coeffs, [m[t] for t in range(P.degree + kmax + 1)])
    cleared = integer_rows([a, values]) if precision is None else None
    if cleared is None:
        return a, [_dot(a, values[k:]) for k in range(kmax + 1)], precision
    (A, M), (d_a, d_m) = cleared
    return a, [Fraction(sum(map(mul, A, M[k:])), d_a * d_m) for k in range(kmax + 1)], None


def inner_moment(P: Polynomial, k: int, m) -> Scalar:
    """<x^k P> = sum_j a_j m_(k+j). Needs moments up to deg(P)+k."""
    _require(P, k, m)
    (a, values), precision = unwrap(P.coeffs, [m[k + j] for j in range(P.degree + 1)])
    return Scalar(_dot(a, values), precision)


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
    s_k = <g^k P>. Each power of g is formed once, in the mode of g, and
    meets seq only in the contraction; each entry sums its nonzero terms
    in ascending t. Row 0 is seq itself. Rational g = G/d_g and seq = V/d_v
    clear once: rows[k][j] = sum_t (G^k)_t V_(t+j) / (d_g^k d_v).
    """
    g = Polynomial(g)
    seq = [seq[i] for i in range(g.degree * kmax + width)]
    rows, power, terms = [seq[:width]], [1], []
    (gv, values), precision = unwrap(g.coeffs, seq)
    cleared = integer_rows([gv, values]) if precision is None else None
    if cleared is not None:
        (G, V), (d_g, scale) = cleared
        for _ in range(kmax):
            power, scale = _convolve(power, G), scale * d_g
            rows.append([Scalar(Fraction(sum(map(mul, power, V[j:])), scale)) for j in range(width)])
        return rows
    (gv,), g_precision = unwrap(g.coeffs)
    for _ in range(kmax):
        power = _convolve(power, gv)
        terms.append([(t, Scalar(c, g_precision)) for t, c in enumerate(power) if c != 0])
    (*coeffs, values), precision = unwrap(*([c for _, c in row] for row in terms), seq)
    for row, cs in zip(terms, coeffs):
        rows.append([Scalar(_dot(cs, [values[t + j] for t, _ in row]), precision)
                     for j in range(width)])
    return rows


def argument_moments(P: Polynomial, g, kmax: int, m) -> list:
    """s_k = <g^k P> for k = 0..kmax: power_table against mu_t = <x^t P>.

    For the additive g = y, s_k is mu_k itself and nothing is expanded.
    Needs moments up to deg(P) + deg(g) kmax.
    """
    _, mu, precision = _raw_moments(P, (len(g) - 1) * kmax, m)
    mu = [Scalar(v, precision) for v in mu]
    if len(g) == 2 and g[0] == 0 and g[1] == 1:
        return mu
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
    Rational P = A/d_a and s = S/d_s clear once: the x^i coefficient is
    sum_k A_k C(k,i) S_(k-i) / (d_a d_s), C(k,i) from the Pascal row of k
    built in the loop. Otherwise a_k C(k,i) is formed in P's mode before it meets s.
    """
    n = P.degree
    (a, values), precision = unwrap(P.coeffs, [s[r] for r in range(n + 1)])
    cleared = integer_rows([a, values]) if precision is None else None
    if cleared is not None:
        (A, S), (d_a, d_s) = cleared
        sums, row = [0] * (n + 1), []
        for k, c in enumerate(A):
            row = [1, *map(add, row, row[1:]), 1][:k + 1]  # C(k, 0..k)
            for i, b in enumerate(row):
                sums[i] += c * b * S[k - i]
        return Polynomial([Scalar(Fraction(v, d_a * d_s)) for v in sums], allow_zero_leading=True)
    (a,), p_precision = unwrap(P.coeffs)
    to_raw = int if p_precision is None else PrecisionContext(p_precision).mp.mpf
    scaled = [[Scalar(a[k] * to_raw(comb(k, i)), p_precision) for k in range(i, n + 1)]
              for i in range(n + 1)]
    (*scaled, values), precision = unwrap(*scaled, [s[r] for r in range(n + 1)])
    coeffs = [Scalar(_dot(row, values), precision) for row in scaled]
    return Polynomial(coeffs, allow_zero_leading=True)


def multiplicative_image(P: Polynomial, m) -> Polynomial:
    """Right side of the multiplicative equation: x^k coefficient a_k <y^k P(y)>."""
    a, mu, precision = _raw_moments(P, P.degree, m)
    return Polynomial([Scalar(c * v, precision) for c, v in zip(a, mu)],
                      allow_zero_leading=True)
