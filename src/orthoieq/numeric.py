"""Scalar arithmetic in two regimes.

Every quantity in the engine is a :class:`Scalar`, which is either

* Exact: a ``fractions.Fraction`` whenever the value is rational, and a
  sympy number only for the values that need it (contour moments with
  ``I``/``pi`` factors such as ``-2*I/pi``, or irrational normalization
  constants), with error-free arithmetic. A sympy result that turns out
  rational is stored as a Fraction again, or
* Float(p): an mpmath complex number carrying exactly p decimal digits
  of working precision.

Exact and Float(p) values may be mixed (the exact side is converted to
p digits first), two Float values of different precision may not.
Converting Float back to Exact is forbidden so approximate values can
never masquerade as exact ones.

sympy is imported only where such a value is made or used: contour
weights and the irrational normalization constants of the presets. Runs
with rational values alone never load it; a sympy value cannot exist
before sympy is loaded, so type tests look it up in ``sys.modules``.
"""

from __future__ import annotations

import sys
from fractions import Fraction

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

    def one(self) -> "Scalar":
        return Scalar(self.mp.mpf(1), self.precision)

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


def _canon_exact(value):
    # Rationals are stored as Fraction. Other exact results (pi / I mixes) are
    # expanded so that zero sums collapse, which may leave a rational again.
    if isinstance(value, Fraction):
        return value
    if not value.is_Rational:
        import sympy as sp

        value = sp.expand(value)
        if not value.is_Rational:
            return value
    return Fraction(int(value.p), int(value.q))


def _sympy_value(value):
    """An exact value as a sympy number, for arithmetic with a non-rational operand."""
    if isinstance(value, Fraction):
        import sympy as sp

        return sp.Rational(value.numerator, value.denominator)
    return value


def _is_sympy_number(value) -> bool:
    """Whether value is a sympy expression (sympy is never imported to answer)."""
    sp = sys.modules.get("sympy")
    return sp is not None and isinstance(value, sp.Expr)


def _to_exact_value(value):
    if isinstance(value, Scalar):
        if not value.is_exact:
            raise ModeError("cannot convert a Float scalar to Exact mode")
        return value.value
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar value")
    if isinstance(value, (int, Fraction, str)):
        return Fraction(value)
    if _is_sympy_number(value):
        if value.free_symbols:
            raise ValueError(f"exact scalar must be a number, got {value}")
        return value
    if isinstance(value, float):
        raise ModeError("floats are approximate; build Exact scalars from int/Fraction/sympy")
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
        return Scalar(_canon_exact(_to_exact_value(value)))

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
        approx = self.value.evalf(context.precision + 10)
        re, im = approx.as_real_imag()
        if im == 0:
            return Scalar(mp.mpf(mp.convert(re)), context.precision)
        return Scalar(mp.mpc(mp.convert(re), mp.convert(im)), context.precision)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        if self.is_exact and not isinstance(self.value, Fraction):
            return _exact_is_zero(self.value)
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
            return mp.convert(abs(self.value).evalf(30))
        ctx = mp_context(self.precision)
        return ctx.fabs(self.value)

    def real_imag(self, digits=None):
        """Real and imaginary parts as mpf values (rendered at `digits` for exact scalars)."""
        if self.is_exact:
            mp = mp_context(digits or DEFAULT_PRECISION)
            if isinstance(self.value, Fraction):
                return _fraction_mpf(mp, self.value), mp.mpf(0)
            approx = self.value.evalf((digits or DEFAULT_PRECISION) + 10)
            re, im = approx.as_real_imag()
            return mp.convert(re), mp.convert(im)
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
            x, y = a.value, b.value
            if isinstance(x, Fraction) and isinstance(y, Fraction):
                return Scalar(op(x, y))
            return Scalar(_canon_exact(op(_sympy_value(x), _sympy_value(y))))
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
            return Scalar(_canon_exact(self.value**exponent))
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
            return _exact_equal(self.value, other.value)
        if self.is_exact != other.is_exact or self.precision != other.precision:
            return False
        return self.value == other.value

    def __hash__(self):
        return hash((self.mode, str(self.value)))


def _coerce(value):
    if isinstance(value, Scalar):
        return value
    if isinstance(value, bool):
        return NotImplemented
    if isinstance(value, (int, Fraction)):
        return Scalar.exact(value)
    if _is_sympy_number(value) and not value.free_symbols:
        return Scalar.exact(value)
    return NotImplemented


def _exact_equal(x, y) -> bool:
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return x == y
    return _exact_is_zero(_sympy_value(x) - _sympy_value(y))


def _exact_is_zero(expr) -> bool:
    z = expr.is_zero
    if z is not None:
        return z
    import sympy as sp

    expanded = sp.expand(expr)
    z = expanded.is_zero
    if z is not None:
        return z
    return sp.simplify(expanded).is_zero is True or expanded.equals(0) is True


def scalar_eq(a: Scalar, b: Scalar, tol=0) -> bool:
    """Equality test: exact pairs compare exactly (tol ignored); any Float involvement
    compares |a-b| <= tol * max(1, |a|, |b|) at the float side's precision."""
    a = _coerce(a)
    b = _coerce(b)
    if a.is_exact and b.is_exact:
        return _exact_equal(a.value, b.value)
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
