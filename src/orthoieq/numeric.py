"""Scalar arithmetic in two regimes.

Every quantity in the engine is a :class:`Scalar`, which is either

* Exact: a ``fractions.Fraction`` whenever the value is rational, and an
  :class:`IPiFraction` otherwise, a rational function of i pi with
  rational coefficients (contour moments such as ``-2i/pi`` and whatever
  they produce), with error-free arithmetic, or
* Float(p): an mpmath complex number carrying exactly p decimal digits
  of working precision.

Exact and Float(p) values may be mixed (the exact side is converted to
p digits first), two Float values of different precision may not.
Converting Float back to Exact is forbidden so approximate values can
never masquerade as exact ones.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm
from operator import mul

from mpmath.ctx_mp import MPContext

from .errors import ConfigurationError, ModeError

DEFAULT_PRECISION = 50
MIN_PRECISION = 16

_MP_CACHE: dict[int, MPContext] = {}


def mp_context(precision: int) -> MPContext:
    """Shared mpmath context for one working precision (cached)."""
    ctx = _MP_CACHE.get(precision)
    if ctx is None:
        ctx = MPContext()
        ctx.dps = precision
        _MP_CACHE[precision] = ctx
    return ctx


class PrecisionContext:
    """Factory for Float-mode scalars sharing one working precision."""

    __slots__ = ("precision", "mp")

    def __init__(self, precision: int = DEFAULT_PRECISION):
        precision = int(precision)
        if precision < MIN_PRECISION:
            raise ConfigurationError(
                f"precision must be at least {MIN_PRECISION} digits, got {precision}"
            )
        self.precision = precision
        self.mp = mp_context(precision)

    def scalar(self, value) -> "Scalar":
        """Create a Float(p) scalar from a Python number, string, Fraction or exact Scalar."""
        if isinstance(value, Scalar):
            return value.to_float(self)
        return Scalar(self._convert(value), self.precision)

    def complex_scalar(self, re, im) -> "Scalar":
        return Scalar(self.mp.mpc(self._convert(re), self._convert(im)), self.precision)

    def zero(self) -> "Scalar":
        return Scalar(self.mp.mpf(0), self.precision)

    def _convert(self, value):
        if isinstance(value, Fraction):
            return _fraction_mpf(self.mp, value)
        return self.mp.convert(value)

    def __repr__(self):
        return f"PrecisionContext({self.precision})"

    def __eq__(self, other):
        return isinstance(other, PrecisionContext) and other.precision == self.precision

    def __hash__(self):
        return hash(("PrecisionContext", self.precision))


def with_precision(p: int) -> PrecisionContext:
    """Context under which all Float scalars carry p decimal digits. Requires p >= 16."""
    return PrecisionContext(p)


def _fraction_mpf(mp, value: Fraction):
    return mp.mpf(value.numerator) / value.denominator


class IPiFraction:
    """An exact non-rational value of Q(i pi): num(t) / den(t) with t = i pi.

    num and den are sparse polynomials {power: Fraction}, in lowest terms
    with den monic. Since pi is transcendental, t acts as an indeterminate:
    the value is zero exactly when num is, and equal values have equal
    parts. Arithmetic returns a Fraction whenever the result is rational.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num, self.den = num, den

    def __add__(self, other):
        num, den = _parts_of(other)
        if den == self.den:
            return _reduced(_poly_add(self.num, num), den)
        return _reduced(_poly_add(_poly_mul(self.num, den), _poly_mul(num, self.den)),
                        _poly_mul(self.den, den))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        num, den = _parts_of(other)
        return _reduced(_poly_mul(self.num, num), _poly_mul(self.den, den))

    def __truediv__(self, other):
        num, den = _parts_of(other)
        return _reduced(_poly_mul(self.num, den), _poly_mul(self.den, num))

    def __rtruediv__(self, other):
        num, den = _parts_of(other)
        return _reduced(_poly_mul(num, self.den), _poly_mul(den, self.num))

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return IPiFraction({k: -c for k, c in self.num.items()}, self.den)

    def __pow__(self, exponent):
        return reduce(mul, [self] * exponent, Fraction(1))

    def __eq__(self, other):
        return isinstance(other, IPiFraction) and (self.num, self.den) == (other.num, other.den)

    def __str__(self):
        if self.den == {0: 1}:
            return _poly_str(self.num)
        return f"({_poly_str(self.num)})/({_poly_str(self.den)})"

    __repr__ = __str__

    def parts(self, digits: int):
        """Real and imaginary parts as mpf values correct to `digits` digits.

        num(t)/den(t) = num(t) den(-t) / (den(t) den(-t)), whose denominator
        is even in t, hence real; the even and odd powers of the numerator
        give the two parts. A part that is exactly zero is returned as 0.
        """
        mirror = {k: -c if k % 2 else c for k, c in self.den.items()}
        num, den = _poly_mul(self.num, mirror), _at_pi(_poly_mul(self.den, mirror), digits + 5)
        halves = ({k: c for k, c in num.items() if k % 2 == odd} for odd in (0, 1))
        mp = mp_context(digits)
        return tuple(mp.fdiv(_at_pi(h, digits + 5), den) if h else mp.mpf(0) for h in halves)


def _parts_of(value):
    """(num, den) polynomials of a Fraction or an IPiFraction."""
    if isinstance(value, IPiFraction):
        return value.num, value.den
    return ({0: value} if value else {}), {0: Fraction(1)}


def _poly_add(p, q):
    out = dict(p)
    for k, c in q.items():
        c += out.get(k, 0)
        if c:
            out[k] = c
        else:
            del out[k]
    return out


def _poly_mul(p, q):
    if len(p) < len(q):
        p, q = q, p
    if len(q) == 1:  # a term c t^k, often 1: a shift and a scale, nothing cancels
        [(j, b)] = q.items()
        return p if (j, b) == (0, 1) else {i + j: a * b for i, a in p.items()}
    out = {}
    for i, a in p.items():
        for j, b in q.items():
            out[i + j] = out.get(i + j, 0) + a * b
    return {k: c for k, c in out.items() if c}


def _poly_divmod(p, q):
    quot, rem = {}, dict(p)
    while rem and max(rem) >= max(q):
        shift, c = max(rem) - max(q), rem[max(rem)] / q[max(q)]
        quot[shift] = c
        rem = _poly_add(rem, {k + shift: -c * b for k, b in q.items()})
    return quot, rem


def _reduced(num, den):
    """num/den in lowest terms with den monic, as a Fraction when rational."""
    if not den:
        raise ZeroDivisionError("scalar division by zero")
    if not num:
        return Fraction(0)
    low = min(min(num), min(den))
    if low:
        num, den = ({k - low: c for k, c in p.items()} for p in (num, den))
    if len(den) > 1:  # Euclid; a den c t^k shares only powers of t, removed above
        g, r = den, num
        while r:
            g, r = r, _poly_divmod(g, r)[1]
        if max(g):
            num, den = _poly_divmod(num, g)[0], _poly_divmod(den, g)[0]
    lead = den[max(den)]
    if lead != 1:
        num, den = ({k: c / lead for k, c in p.items()} for p in (num, den))
    if den == {0: 1} and list(num) == [0]:
        return num[0]
    return IPiFraction(num, den)


def _poly_str(p):
    return " + ".join(str(c) if k == 0 else ("" if c == 1 else f"{c}*") + (
        "I*pi" if k == 1 else f"(I*pi)**{k}") for k, c in sorted(p.items(), reverse=True))


def _at_pi(terms, digits: int):
    """sum c_k (-1)^(k//2) pi^k over {k: c_k} (not all zero), correct to `digits`
    digits: the working precision grows until cancellation leaves them intact."""
    guard = 10
    while True:
        mp = mp_context(digits + guard)
        values = [_fraction_mpf(mp, -c if k // 2 % 2 else c) * mp.pi**k for k, c in terms.items()]
        total = mp.fsum(values)
        if total and mp.fsum(map(abs, values)) <= abs(total) * 10 ** (guard - 3):
            return total
        guard *= 2


def unwrap(*groups):
    """The raw values of each group of Scalars, and the float precision they share.

    This is the rule for computing on raw values as Scalar arithmetic
    does: when every entry is exact the values stay Fraction or IPiFraction
    and the precision is None; otherwise each exact entry is converted to
    the one float precision the entries share (shared_precision), and two
    float precisions raise ModeError. Results are wrapped as
    Scalar(value, precision). The integer-row contractions of polynomials
    take the same precision but keep exact entries exact.
    """
    precision = shared_precision(*groups)
    if precision is None:
        return [[entry.value for entry in group] for group in groups], None
    ctx = PrecisionContext(precision)
    return [[entry.to_float(ctx).value for entry in group] for group in groups], precision


def shared_precision(*groups):
    """The one float precision of the Scalars in the groups, None when every
    entry is exact; two float precisions raise ModeError."""
    precisions = sorted({entry.precision for group in groups for entry in group} - {None})
    if len(precisions) > 1:
        raise ModeError(f"mixed float precisions {precisions[0]} and {precisions[1]}")
    return precisions[0] if precisions else None


def integer_rows(rows):
    """Rows of raw int/Fraction values cleared to integers, and their scales.

    Row i is multiplied by L_i, the lcm of its denominators, so the result
    holds the integers L_i row[i][j] and the list of L_i. Returns None when
    some value is not rational (an IPiFraction or an mpmath number).
    """
    cleared, scales = [], []
    for row in rows:
        if not all(isinstance(v, (int, Fraction)) for v in row):
            return None
        scale = lcm(*(v.denominator for v in row))
        cleared.append([v.numerator * (scale // v.denominator) for v in row])
        scales.append(scale)
    return cleared, scales


def _to_exact_value(value):
    if isinstance(value, Scalar):
        if not value.is_exact:
            raise ModeError("cannot convert a Float scalar to Exact mode")
        return value.value
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar value")
    if isinstance(value, (int, Fraction, str)):
        return Fraction(value)
    if isinstance(value, IPiFraction):
        return value
    if isinstance(value, float):
        raise ModeError("floats are approximate; build Exact scalars from int or Fraction")
    raise TypeError(f"cannot build an exact scalar from {type(value).__name__}")


class Scalar:
    """Immutable number tagged Exact or Float(p). Supports +, -, *, /, ** and negation."""

    __slots__ = ("value", "precision")

    def __init__(self, value, precision=None):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "precision", precision)

    def __setattr__(self, name, val):
        raise AttributeError("Scalar is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def exact(value) -> "Scalar":
        return Scalar(_to_exact_value(value))

    # -- mode --------------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.precision is None

    @property
    def mode(self) -> str:
        return "exact" if self.precision is None else f"float({self.precision})"

    def to_float(self, context: PrecisionContext) -> "Scalar":
        """Exact -> Float(p) conversion, correct to p digits. Re-tagging floats is identity."""
        if not self.is_exact:
            if self.precision != context.precision:
                raise ModeError(
                    f"scalar carries precision {self.precision}, context wants {context.precision}"
                )
            return self
        mp = context.mp
        if isinstance(self.value, Fraction):
            return Scalar(_fraction_mpf(mp, self.value), context.precision)
        re, im = self.value.parts(context.precision + 10)
        return Scalar(mp.mpc(re, im) if im else mp.mpf(re), context.precision)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.value == 0

    def is_rational(self) -> bool:
        return self.is_exact and isinstance(self.value, Fraction)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ModeError(f"{self} is not an exact rational")
        return self.value

    def magnitude(self):
        """|self| as an mpf (exact values are sized at 30 digits, for pivoting/thresholds only)."""
        if self.is_exact:
            mp = mp_context(30)
            if isinstance(self.value, Fraction):
                return _fraction_mpf(mp, abs(self.value))
            return mp.hypot(*self.value.parts(30))
        ctx = mp_context(self.precision)
        return ctx.fabs(self.value)

    def real_imag(self, digits=None):
        """Real and imaginary parts as mpf values (rendered at `digits` for exact scalars)."""
        if self.is_exact:
            mp = mp_context(digits or DEFAULT_PRECISION)
            if isinstance(self.value, Fraction):
                return _fraction_mpf(mp, self.value), mp.mpf(0)
            return self.value.parts((digits or DEFAULT_PRECISION) + 10)
        mp = mp_context(self.precision)
        z = self.value
        if hasattr(z, "imag"):
            return mp.mpf(z.real), mp.mpf(z.imag)
        return z, mp.mpf(0)

    # -- arithmetic --------------------------------------------------------

    def _binary(self, other, op):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self, other
        if a.is_exact and b.is_exact:
            return Scalar(op(a.value, b.value))
        if not a.is_exact and not b.is_exact:
            if a.precision != b.precision:
                raise ModeError(
                    f"mixed float precisions {a.precision} and {b.precision}"
                )
            return Scalar(op(a.value, b.value), a.precision)
        ctx = PrecisionContext(a.precision if not a.is_exact else b.precision)
        return Scalar(op(a.to_float(ctx).value, b.to_float(ctx).value), ctx.precision)

    def __add__(self, other):
        return self._binary(other, lambda x, y: x + y)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda x, y: x - y)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        return self._binary(other, lambda x, y: x * y)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        return self._binary(other, lambda x, y: x / y)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __neg__(self):
        if self.is_exact:
            return Scalar(-self.value)
        return Scalar(-self.value, self.precision)

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            raise TypeError("scalar powers take integer exponents")
        if exponent < 0:
            return Scalar.exact(1) / (self ** (-exponent))
        if self.is_exact:
            return Scalar(self.value**exponent)
        return Scalar(self.value**exponent, self.precision)

    # -- display -----------------------------------------------------------

    def __repr__(self):
        return f"Scalar({self.value!r}, mode={self.mode})"

    def __str__(self):
        return str(self.value)

    def __eq__(self, other):
        try:
            other = _coerce(other)
        except (TypeError, ModeError):
            return NotImplemented
        if other is NotImplemented:
            return NotImplemented
        if self.is_exact and other.is_exact:
            return self.value == other.value
        if self.is_exact != other.is_exact or self.precision != other.precision:
            return False
        return self.value == other.value

    def __hash__(self):
        return hash((self.mode, str(self.value)))


I_PI = Scalar(IPiFraction({1: Fraction(1)}, {0: Fraction(1)}))  # the exact value i pi


def _coerce(value):
    if isinstance(value, Scalar):
        return value
    if isinstance(value, bool):
        return NotImplemented
    if isinstance(value, (int, Fraction)):
        return Scalar.exact(value)
    return NotImplemented


def scalar_eq(a: Scalar, b: Scalar, tol=0) -> bool:
    """Equality test: exact pairs compare exactly (tol ignored); any Float involvement
    compares |a-b| <= tol * max(1, |a|, |b|) at the float side's precision."""
    a = _coerce(a)
    b = _coerce(b)
    if a.is_exact and b.is_exact:
        return a.value == b.value
    p = a.precision if not a.is_exact else b.precision
    ctx = PrecisionContext(p)
    av = a.to_float(ctx).value
    bv = b.to_float(ctx).value
    mp = ctx.mp
    scale = max(mp.mpf(1), abs(av), abs(bv))
    return abs(av - bv) <= mp.convert(_tol_value(tol, ctx)) * scale


def _tol_value(tol, ctx):
    if isinstance(tol, Scalar):
        return tol.to_float(ctx).value
    if isinstance(tol, Fraction):
        return _fraction_mpf(ctx.mp, tol)
    return tol


def tolerance(context: PrecisionContext, offset: int):
    """10^(offset - p) as an mpf of the context; the standard p-coupled threshold."""
    return context.mp.mpf(10) ** (offset - context.precision)
