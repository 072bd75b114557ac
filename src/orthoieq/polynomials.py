"""Polynomial values and the moment-weighted inner products every check relies on.

Products are formed by coefficient convolution and then contracted
against moments; quadrature is never involved here, so orthogonality
checks see moment error only. The raw loops on coefficient lists have
one copy each: _convolve forms every product (here and in
expressions.as_polynomial) and _horner every evaluation on values that
are not real (Polynomial.eval, image_residuals and the quadrature
integrands of variants).

Each contraction reads its Scalars once and wraps its results once. Real
rows, rational or binary float, are cleared to integers once (_clear): a
rational row by the lcm of its denominators, a float row, whose entries
are man 2^exp, by shifting every mantissa to the row's least exponent, so
its scale is a power of two; a row that mixes the two takes both. The
contraction sums on those integers, so it computes the exact value of
its inputs, and rounds each result once: one Fraction in exact mode, the
nearest float of the shared precision otherwise (numeric.shared_precision
is unwrap's rule). image_residuals, which variants.verify calls for
every form, chains the same integer loops from <y^k P> to P - image and
its Horner values and rounds only the residuals.
Rows holding an IPiFraction, an mpc or a non-finite float take the loops
on numeric.unwrap's values: an exact entry meets a float one at the
shared precision, and every sum adds its terms in the order Scalar
arithmetic would.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from operator import add, mul, sub

from mpmath.libmp import from_int, from_man_exp, mpf_div, round_nearest

from .errors import DegenerateDegreeError, InsufficientMomentsError
from .numeric import PrecisionContext, Scalar, mp_context, shared_precision, unwrap

_ZERO = Scalar.exact(0)
_NOT_REAL = (0, 0, 0, -1)  # read as a non-finite float: not cleared


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
        """Horner evaluation at a Scalar point, on integers for real values
        (_horner_row) and rounded once."""
        if not isinstance(x, Scalar):
            x = Scalar.exact(x)
        rows, precision = _integer_rows(self.coeffs, (x,))
        if rows is not None:
            return Scalar(_rounded(*_horner_row(*rows), precision), precision)
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
    """sum_j a_j b_j over the length of a, terms added in ascending j, in
    the order Scalar arithmetic would: the loop for rows that are not real
    (an IPiFraction, an mpc, a non-finite float). Real rows clear to
    integers instead (_clear) and each result is rounded once."""
    acc = a[0] * b[0]
    for j in range(1, len(a)):
        acc = acc + a[j] * b[j]
    return acc


def _clear(values):
    """Raw real values as integers X_j and a scale (d, e): values[j] = X_j 2^e / d.

    A rational p/q joins at exponent 0 and a float man 2^exp at exp; d is
    the lcm of the denominators, e the least exponent of a nonzero entry,
    and every numerator is scaled to d and shifted up to e. A rational row
    has e = 0, and a float row d = 1, so it needs no gcd or lcm. None when
    some value is an IPiFraction, an mpc or an infinite or nan float.
    """
    terms = []
    for v in values:
        if isinstance(v, (int, Fraction)):
            terms.append((v.numerator, v.denominator, 0))
            continue
        sign, man, exp, bc = getattr(v, "_mpf_", _NOT_REAL)
        if bc < 0:
            return None
        terms.append((-man if sign else man, 1, exp))
    d = lcm(*(q for _, q, _ in terms))
    e = min((x for p, _, x in terms if p), default=0)
    return [p * (d // q) << (x - e) if p else 0 for p, q, x in terms], d, e


def _integer_rows(*groups):
    """Each group of Scalars as one integer row (X, d, e) (_clear), and the
    float precision the groups share; the rows are None when some value is
    not real and finite."""
    precision = shared_precision(*groups)
    rows = []
    for group in groups:
        row = _clear([entry.value for entry in group])
        if row is None:
            return None, precision
        rows.append(row)
    return rows, precision


def _rounded(x, d, e, precision):
    """x 2^e / d rounded once: a Fraction in exact mode (precision None, so
    e = 0), else the nearest float of that precision."""
    if precision is None:
        return Fraction(x, d)
    mp = mp_context(precision)
    if d & (d - 1):
        return mp.make_mpf(mpf_div(from_man_exp(x, e), from_int(d), mp.prec, round_nearest))
    return mp.make_mpf(from_man_exp(x, e - d.bit_length() + 1, mp.prec, round_nearest))


def _scalars(row, precision):
    """Each entry of an integer row rounded once, as a Scalar."""
    X, d, e = row
    return [Scalar(_rounded(x, d, e, precision), precision) for x in X]


def _common(rows):
    """Integer rows joined into one row on one scale: the lcm of their d and
    the least of their e."""
    d = lcm(*(q for _, q, _ in rows))
    e = min(f for _, _, f in rows)
    return [x * (d // q) << (f - e) for X, q, f in rows for x in X], d, e


def _mu(a, values, kmax):
    """The integer row of mu_k = sum_j A_j M_(k+j), k = 0..kmax, for the rows
    a = A 2^e_a / d_a of P's coefficients and values = M 2^e_m / d_m of m."""
    (A, d_a, e_a), (M, d_m, e_m) = a, values
    return [sum(map(mul, A, M[k:])) for k in range(kmax + 1)], d_a * d_m, e_a + e_m


def _exact_dot(a, b):
    """sum_j a_j b_j over the length of a for raw exact values: _mu on the
    integer rows of a and b, one Fraction, when both are rational, else
    _dot's loop (a row holding an IPiFraction)."""
    rows = _clear(a), _clear(b[:len(a)])
    if None in rows:
        return _dot(a, b)
    [x], d, e = _mu(*rows, 0)
    return _rounded(x, d, e, None)


def _powers(g, values, kmax, width):
    """Integer rows sum_t (G^k)_t V_(t+j), j < width, for k = 1..kmax: row k
    on the scale (d_g^k d_v, k e_g + e_v) of g = G 2^e_g / d_g and the
    sequence V 2^e_v / d_v. Each power of g is formed once."""
    (G, d_g, e_g), (V, d, e) = g, values
    rows, power = [], [1]
    for _ in range(kmax):
        power, d, e = _convolve(power, G), d * d_g, e + e_g
        rows.append(([sum(map(mul, power, V[j:])) for j in range(width)], d, e))
    return rows


def _image(a, s):
    """The integer row of sum_(k>=i) A_k C(k, i) S_(k-i) for the rows of P's
    coefficients and of s, C(k, i) read off the Pascal row of k built by
    additions as k steps."""
    (A, d_a, e_a), (S, d_s, e_s) = a, s
    sums, row = [0] * len(A), []
    for k, c in enumerate(A):
        row = [1, *map(add, row, row[1:]), 1][:k + 1]  # C(k, 0..k)
        if c:
            for i, b in enumerate(row):
                sums[i] += c * b * S[k - i]
    return sums, d_a * d_s, e_a + e_s


def _horner_row(coeffs, point):
    """sum_i C_i x^i for an integer row C and a one-entry row x = xi 2^f / q,
    as (integer, d, e): x is read as the fraction xi'/eta of integers (2^f
    joins xi or q by the sign of f) and the sum is carried as
    sum_i C_i xi'^i eta^(n-i), over d eta^n."""
    (C, d, e), ([xi], q, f) = coeffs, point
    if f >= 0:
        xi <<= f
    else:
        q <<= -f
    acc, power = C[-1], 1
    for c in reversed(C[:-1]):
        power *= q
        acc = acc * xi + c * power
    return acc, d * power, e


def _require(P: Polynomial, k: int, m):
    if len(m) < P.degree + k + 1:
        raise InsufficientMomentsError(
            f"<x^{k} P> with deg P = {P.degree} needs m_0..m_{P.degree + k}, "
            f"got {len(m)} moments"
        )


def _moment_values(P: Polynomial, kmax: int, m):
    """m_0..m_(deg P + kmax). A short m raises inner_moment's error for the
    first k it misses."""
    _require(P, max(0, min(kmax, len(m) - P.degree)), m)
    return [m[t] for t in range(P.degree + kmax + 1)]


def _raw_moments(P: Polynomial, kmax: int, m):
    """The raw coefficients of P, mu_k = <x^k P> for k = 0..kmax summed by
    _dot, and their precision: the loop for values that are not real. Real
    rows, rational or binary float, clear to integers instead (_mu) and
    each float result is rounded once."""
    (a, values), precision = unwrap(P.coeffs, _moment_values(P, kmax, m))
    return a, [_dot(a, values[k:]) for k in range(kmax + 1)], precision


def inner_moment(P: Polynomial, k: int, m) -> Scalar:
    """<x^k P> = sum_j a_j m_(k+j). Needs moments up to deg(P)+k."""
    _require(P, k, m)
    values = [m[k + j] for j in range(P.degree + 1)]
    rows, precision = _integer_rows(P.coeffs, values)
    if rows is not None:
        return _scalars(_mu(*rows, 0), precision)[0]
    (a, values), precision = unwrap(P.coeffs, values)
    return Scalar(_dot(a, values), precision)


def orthogonality(Pn: Polynomial, Pm: Polynomial, m) -> Scalar:
    """<x Pn Pm> = sum_t (A * B)_t m_(t+1), A * B the coefficient convolution.

    Real rows Pn = A 2^e_a / d_a, Pm = B 2^e_b / d_b and m_1.., rational or
    binary float, clear once (_clear): _convolve of A and B meets the
    moments in one _mu contraction, and the exact value of the inputs is
    rounded once. Otherwise the product Pn * Pm is formed in Scalar order
    and contracted by inner_moment with k = 1.
    """
    if len(m) < Pn.degree + Pm.degree + 2:
        raise InsufficientMomentsError(
            f"<x Pn Pm> needs m_0..m_{Pn.degree + Pm.degree + 1}, got {len(m)} moments"
        )
    values = [m[t] for t in range(1, Pn.degree + Pm.degree + 2)]
    rows, precision = _integer_rows(Pn.coeffs, Pm.coeffs, values)
    if rows is None:
        return inner_moment(Pn * Pm, 1, m)
    (A, d_a, e_a), (B, d_b, e_b), moment_row = rows
    return _scalars(_mu((_convolve(A, B), d_a * d_b, e_a + e_b), moment_row, 0), precision)[0]


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
    s_k = <g^k P>. Row 0 is seq itself. Real g = G 2^e_g / d_g and
    seq = V 2^e_v / d_v, rational or binary float, clear once (_clear):
    rows[k][j] = sum_t (G^k)_t V_(t+j) 2^(k e_g + e_v) / (d_g^k d_v), each
    rounded once. Otherwise each power of g is formed once, in the mode of
    g, and meets seq only in the contraction; each entry sums its nonzero
    terms in ascending t.
    """
    g = Polynomial(g)
    seq = [seq[i] for i in range(g.degree * kmax + width)]
    rows, precision = _integer_rows(g.coeffs, seq)
    if rows is not None:
        return [seq[:width]] + [_scalars(row, precision) for row in _powers(*rows, kmax, width)]
    rows, power, terms = [seq[:width]], [1], []
    (gv,), g_precision = unwrap(g.coeffs)
    for _ in range(kmax):
        power = _convolve(power, gv)
        terms.append([(t, Scalar(c, g_precision)) for t, c in enumerate(power) if c != 0])
    (*coeffs, values), precision = unwrap(*([c for _, c in row] for row in terms), seq)
    for row, cs in zip(terms, coeffs):
        rows.append([Scalar(_dot(cs, [values[t + j] for t, _ in row]), precision)
                     for j in range(width)])
    return rows


def _argument_groups(P: Polynomial, g, kmax: int, m):
    """The Scalars that s_k = <g^k P>, k = 0..kmax, reads besides P's
    coefficients: m_0..m_(deg P + deg(g) kmax), then g's coefficients
    unless g = y."""
    values = _moment_values(P, (len(g) - 1) * kmax, m)
    return [values] if len(g) == 2 and g[0] == 0 and g[1] == 1 else [values, Polynomial(g).coeffs]


def _argument_rows(a, kmax: int, m, g=None):
    """s_k = <g^k P>, k = 0..kmax, as one-entry integer rows, from the rows
    of P's coefficients and of _argument_groups: mu_t = <x^t P> is _mu of
    a and m; for g = y (no row g) s is mu itself and nothing is expanded,
    else s_k is _powers of g against mu."""
    if g is None:
        mu, d, e = _mu(a, m, kmax)
        return [([v], d, e) for v in mu]
    mu, d, e = _mu(a, m, (len(g[0]) - 1) * kmax)
    return [([mu[0]], d, e)] + _powers(g, (mu, d, e), kmax, 1)


def argument_moments(P: Polynomial, g, kmax: int, m) -> list:
    """s_k = <g^k P> for k = 0..kmax, each the exact value of its inputs
    rounded once (_argument_rows); for g = y, s_k = mu_k = <y^k P>.

    Values that are not real take power_table against the mu_t.
    Needs moments up to deg(P) + deg(g) kmax.
    """
    rows, precision = _integer_rows(P.coeffs, *_argument_groups(P, g, kmax, m))
    if rows is not None:
        return [_scalars(row, precision)[0] for row in _argument_rows(rows[0], kmax, *rows[1:])]
    _, mu, precision = _raw_moments(P, (len(g) - 1) * kmax, m)
    mu = [Scalar(v, precision) for v in mu]
    if len(g) == 2 and g[0] == 0 and g[1] == 1:
        return mu
    return [row[0] for row in power_table(g, kmax, mu, 1)]


def kernel_moments(P: Polynomial, g, table) -> list:
    """s_r = <g(y)^r P(y)>, r = 0..deg P, for the kernel P(x + g(y)):
    argument_moments against the plain moments table for a polynomial g,
    else (g None) <P> against each row r of the integrated <f^r y^j> table."""
    if g is None:
        return [inner_moment(P, 0, row) for row in table]
    return argument_moments(P, g, P.degree, table)


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
    Real P = A 2^e_a / d_a and s = S 2^e_s / d_s, rational or binary float,
    clear once (_clear): the x^i coefficient is sum_k A_k C(k,i) S_(k-i)
    2^(e_a + e_s) / (d_a d_s) (_image), rounded once. Otherwise a_k C(k,i)
    is formed in P's mode before it meets s.
    """
    n = P.degree
    rows, precision = _integer_rows(P.coeffs, [s[r] for r in range(n + 1)])
    if rows is not None:
        return Polynomial(_scalars(_image(*rows), precision), allow_zero_leading=True)
    (a,), p_precision = unwrap(P.coeffs)
    to_raw = int if p_precision is None else PrecisionContext(p_precision).mp.mpf
    scaled = [[Scalar(a[k] * to_raw(comb(k, i)), p_precision) for k in range(i, n + 1)]
              for i in range(n + 1)]
    (*scaled, values), precision = unwrap(*scaled, [s[r] for r in range(n + 1)])
    coeffs = [Scalar(_dot(row, values), precision) for row in scaled]
    return Polynomial(coeffs, allow_zero_leading=True)


def _products(a, m):
    """The integer row of a_k <y^k P(y)>, k = 0..deg P, from the rows of P's
    coefficients and of m_0..m_(2 deg P)."""
    (A, d_a, e_a), (mu, d, e) = a, _mu(a, m, len(a[0]) - 1)
    return list(map(mul, A, mu)), d_a * d, e_a + e


def multiplicative_image(P: Polynomial, m) -> Polynomial:
    """Right side of the multiplicative equation: x^k coefficient a_k <y^k P(y)>,
    each the exact value of its inputs rounded once when they are real."""
    rows, precision = _integer_rows(P.coeffs, _moment_values(P, P.degree, m))
    if rows is not None:
        return Polynomial(_scalars(_products(*rows), precision), allow_zero_leading=True)
    a, mu, precision = _raw_moments(P, P.degree, m)
    return Polynomial([Scalar(c * v, precision) for c, v in zip(a, mu)],
                      allow_zero_leading=True)


def image_residuals(P: Polynomial, samples, *, kernel=None, s=None, multiplicative=None):
    """P(x) - image(x) at each sample point x, and a callable giving the
    |P(x)| for a verdict's scale.

    The image is the right side of an integral equation, named by one
    keyword: kernel = (g, table), the binomial_image of kernel_moments(P,
    g, table); s, binomial_image(P, s); multiplicative = m,
    multiplicative_image(P, m). When P, the samples and every value the
    image reads are real, rational or binary float, the chain stays on
    integer rows (_clear): s, the image and the one polynomial P - image
    are never rounded, each sample point is one integer Horner evaluation
    (_horner_row), each residual and each |P(x)| is the exact value
    rounded once (a Fraction in exact mode), and a solution's exact zero
    P - image is found without evaluation. Otherwise the image is the
    public contraction's and each side is evaluated by _horner on
    numeric.unwrap's values, in the order Scalar arithmetic would.
    """
    n = P.degree
    if multiplicative is not None:
        groups = [_moment_values(P, n, multiplicative)]
    elif s is not None:
        groups = [[s[r] for r in range(n + 1)]]
    elif kernel[0] is None:
        groups = [_moment_values(P, 0, row) for row in kernel[1]]
    else:
        groups = _argument_groups(P, kernel[0], n, kernel[1])
    rows, precision = _integer_rows(P.coeffs, samples, *groups)
    if rows is None:
        if multiplicative is not None:
            image = multiplicative_image(P, multiplicative)
        else:
            image = binomial_image(P, kernel_moments(P, *kernel) if s is None else s)
        (a, b, xs), precision = unwrap(P.coeffs, image.coeffs, samples)
        values = [_horner(a, x) for x in xs]
        return ([Scalar(v - _horner(b, x), precision) for v, x in zip(values, xs)],
                lambda: [Scalar(v, precision).magnitude() for v in values])
    a, (xs, q, f), *values = rows
    if multiplicative is not None:
        image = _products(a, *values)
    elif s is not None:
        image = _image(a, *values)
    elif kernel[0] is None:
        image = _image(a, _common([_mu(a, row, 0) for row in values]))
    else:
        image = _image(a, _common(_argument_rows(a, n, *values)))
    X, d, e = _common([a, image])  # an image has deg P + 1 coefficients
    diff = list(map(sub, X[:n + 1], X[n + 1:])), d, e
    points = [([x], q, f) for x in xs]
    if any(diff[0]):
        residuals = [_rounded(*_horner_row(diff, x), precision) for x in points]
    else:  # a solution's exact zero P - image: nothing to evaluate
        residuals = [_rounded(0, 1, 0, precision)] * len(points)
    return ([Scalar(r, precision) for r in residuals],
            lambda: [_rounded(abs(v), dv, ev, precision)
                     for v, dv, ev in (_horner_row(a, x) for x in points)])
