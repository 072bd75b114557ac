"""Weight functions w(x) on an interval: presets, parsed expressions, complex contours.

A Weight is immutable. Normalization divides the raw body by its integral
so that m0 = 1; the divisor is kept on the Weight. Endpoint power-law
exponents ride along as metadata for the quadrature engine.

Preset moments are rational and computed with Fraction. A preset's
divisor (Gamma, Beta, pi/2 or 2) is needed only to divide quadrature
results, so it is an mpmath value made at the working precision. A
contour's divisor i pi (2k+1) is an exact Scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import expressions as ex
from .errors import ConfigurationError, IntegrabilityError, NormalizationError
from .numeric import I_PI, PrecisionContext, Scalar, mp_context, tolerance

INF = math.inf


def _as_endpoint(value):
    if isinstance(value, float):
        if math.isinf(value):
            return value
        raise ConfigurationError(
            "finite interval endpoints must be exact (int, Fraction or decimal string)"
        )
    if isinstance(value, str):
        if value.strip() in ("inf", "+inf", "oo"):
            return INF
        if value.strip() in ("-inf", "-oo"):
            return -INF
        return Fraction(value)
    return Fraction(value)


@dataclass(frozen=True)
class Interval:
    """Open interval (alpha, beta); either end may be infinite."""

    alpha: object
    beta: object

    def __post_init__(self):
        object.__setattr__(self, "alpha", _as_endpoint(self.alpha))
        object.__setattr__(self, "beta", _as_endpoint(self.beta))
        if not self.alpha < self.beta:
            raise ConfigurationError(f"interval needs alpha < beta, got ({self.alpha}, {self.beta})")

    @property
    def alpha_finite(self) -> bool:
        return not (isinstance(self.alpha, float) and math.isinf(self.alpha))

    @property
    def beta_finite(self) -> bool:
        return not (isinstance(self.beta, float) and math.isinf(self.beta))

    @property
    def finite(self) -> bool:
        return self.alpha_finite and self.beta_finite

    def __str__(self):
        return f"({self.alpha}, {self.beta})"


def _fraction_param(value, name):
    try:
        if isinstance(value, float):
            return Fraction(value)  # exact binary expansion
        return Fraction(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{name} must be a rational number, got {value!r}") from None


# ---------------------------------------------------------------------------
# preset bodies


@dataclass(frozen=True)
class Preset:
    """Closed-form weight family with analytic normalization and moments."""

    name: str = field(init=False, default="")

    def interval(self) -> Interval:
        raise NotImplementedError

    def raw_text(self) -> str:
        """The unnormalized body as expression text (for quadrature cross-checks)."""
        raise NotImplementedError

    def exponents(self):
        return Fraction(0), Fraction(0)

    def divisor(self, mp):
        """Integral of the raw body over the interval, at the precision of mpmath context mp."""
        raise NotImplementedError

    def moment(self, n: int) -> Fraction:
        """n-th moment of the normalized weight, as an exact rational."""
        raise NotImplementedError


def _power_text(base: str, e: Fraction) -> str:
    if e == 0:
        return ""
    if e == 1:
        return base
    if e.denominator == 1:
        return f"{base}^{e.numerator}" if e > 0 else f"{base}^({e.numerator})"
    return f"{base}^({e.numerator}/{e.denominator})"


def _product_text(parts):
    parts = [p for p in parts if p]
    return "*".join(parts) if parts else "1"


def _ratio_product(a: Fraction, b: Fraction, n: int) -> Fraction:
    # prod_{j<n} (a+j)/(b+j)
    num = Fraction(1)
    den = Fraction(1)
    for j in range(n):
        num *= a + j
        den *= b + j
    return num / den



@dataclass(frozen=True)
class Laguerre(Preset):
    """x^(gamma-1) e^(-x) on (0, inf), gamma >= 1."""

    gamma: Fraction

    def __post_init__(self):
        object.__setattr__(self, "name", "laguerre")
        object.__setattr__(self, "gamma", _fraction_param(self.gamma, "gamma"))
        if self.gamma < 1:
            raise ConfigurationError(f"laguerre requires gamma >= 1, got {self.gamma}")

    def interval(self):
        return Interval(0, INF)

    def raw_text(self):
        return _product_text([_power_text("x", self.gamma - 1), "exp(-x)"])

    def exponents(self):
        return self.gamma - 1, Fraction(0)

    def divisor(self, mp):
        return mp.gamma(self.gamma)

    def moment(self, n):
        # rising factorial gamma (gamma+1) ... (gamma+n-1)
        return _ratio_product(self.gamma, Fraction(1), n) * math.factorial(n)


@dataclass(frozen=True)
class JacobiAdd(Preset):
    """x^(q-2) (1-x)^(p-q) on (0, 1); q > 1 and p - q > -1."""

    p: Fraction
    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "name", "jacobi-add")
        object.__setattr__(self, "p", _fraction_param(self.p, "p"))
        object.__setattr__(self, "q", _fraction_param(self.q, "q"))
        if not (self.q > 1 and self.p - self.q > -1):
            raise ConfigurationError(
                f"jacobi-add requires q > 1 and p - q > -1, got p={self.p}, q={self.q}"
            )

    def interval(self):
        return Interval(0, 1)

    def raw_text(self):
        return _product_text(
            [_power_text("x", self.q - 2), _power_text("(1-x)", self.p - self.q)]
        )

    def exponents(self):
        return self.q - 2, self.p - self.q

    def divisor(self, mp):
        return mp.beta(self.q - 1, self.p - self.q + 1)

    def moment(self, n):
        return _ratio_product(self.q - 1, self.p, n)


@dataclass(frozen=True)
class ChebyshevU2Add(Preset):
    """(1-x)^(1/2) x^(-1/2) on (0, 1)."""

    def __post_init__(self):
        object.__setattr__(self, "name", "chebyshev-u2-add")

    def interval(self):
        return Interval(0, 1)

    def raw_text(self):
        return "(1-x)^(1/2)*x^(-1/2)"

    def exponents(self):
        return Fraction(-1, 2), Fraction(1, 2)

    def divisor(self, mp):
        return mp.pi / 2

    def moment(self, n):
        return _ratio_product(Fraction(1, 2), Fraction(2), n)


@dataclass(frozen=True)
class JacobiMult(Preset):
    """(1-x)^(p-q-1) x^(q-1) on (0, 1); p - q > 0 and q > 0."""

    p: Fraction
    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "name", "jacobi-mult")
        object.__setattr__(self, "p", _fraction_param(self.p, "p"))
        object.__setattr__(self, "q", _fraction_param(self.q, "q"))
        if not (self.p - self.q > 0 and self.q > 0):
            raise ConfigurationError(
                f"jacobi-mult requires p - q > 0 and q > 0, got p={self.p}, q={self.q}"
            )

    def interval(self):
        return Interval(0, 1)

    def raw_text(self):
        return _product_text(
            [_power_text("(1-x)", self.p - self.q - 1), _power_text("x", self.q - 1)]
        )

    def exponents(self):
        return self.q - 1, self.p - self.q - 1

    def divisor(self, mp):
        return mp.beta(self.q, self.p - self.q)

    def moment(self, n):
        return _ratio_product(self.q, self.p, n)


@dataclass(frozen=True)
class ChebyshevU2Mult(Preset):
    """x^(1/2) (1-x)^(-1/2) on (0, 1)."""

    def __post_init__(self):
        object.__setattr__(self, "name", "chebyshev-u2-mult")

    def interval(self):
        return Interval(0, 1)

    def raw_text(self):
        return "x^(1/2)*(1-x)^(-1/2)"

    def exponents(self):
        return Fraction(1, 2), Fraction(-1, 2)

    def divisor(self, mp):
        return mp.pi / 2

    def moment(self, n):
        return _ratio_product(Fraction(3, 2), Fraction(2), n)


@dataclass(frozen=True)
class UniformSymmetric(Preset):
    """Constant body on (-1, 1); normalizes to 1/2."""

    def __post_init__(self):
        object.__setattr__(self, "name", "uniform-symmetric")

    def interval(self):
        return Interval(-1, 1)

    def raw_text(self):
        return "1"

    def divisor(self, mp):
        return mp.mpf(2)

    def moment(self, n):
        return Fraction(0) if n % 2 else Fraction(1, n + 1)


PRESETS = {
    "laguerre": Laguerre,
    "jacobi-add": JacobiAdd,
    "chebyshev-u2-add": ChebyshevU2Add,
    "jacobi-mult": JacobiMult,
    "chebyshev-u2-mult": ChebyshevU2Mult,
    "uniform-symmetric": UniformSymmetric,
}


# ---------------------------------------------------------------------------
# contour body


@dataclass(frozen=True)
class Contour:
    """Integration path from -1 to 1 winding k extra times around the origin.

    Body 1/(c x) with c = i pi (2k+1); m0 = 1 by construction, so the
    normalization constant is c itself. The weight is never sampled
    pointwise; its moments come in closed form.
    """

    winding: int

    def __post_init__(self):
        if not isinstance(self.winding, int) or self.winding < 0:
            raise ConfigurationError(f"winding must be an integer >= 0, got {self.winding}")

    def constant(self) -> Scalar:
        return I_PI * (2 * self.winding + 1)


# ---------------------------------------------------------------------------
# the Weight record


@dataclass(frozen=True)
class Weight:
    interval: Interval
    body: object  # Preset | expression tree | Contour
    # divisor applied to a contour or expression body; None for a preset,
    # whose body has a closed form, and for a weight not yet normalized
    normalization: Scalar | None
    endpoint_exponents: tuple
    weight_id: str

    @property
    def is_normalized(self) -> bool:
        return self.is_preset or self.normalization is not None

    def divisor(self, context: PrecisionContext):
        """The raw body's divisor at the context precision (a preset's closed form
        is formed at p+10 digits and rounded once to p)."""
        if self.is_preset:
            return context.mp.mpf(self.body.divisor(mp_context(context.precision + 10)))
        return self.normalization.to_float(context).value

    @property
    def is_contour(self) -> bool:
        return isinstance(self.body, Contour)

    @property
    def is_preset(self) -> bool:
        return isinstance(self.body, Preset)

    def expression(self):
        """Raw (unnormalized) body as an expression tree; contours have none."""
        if self.is_contour:
            raise ConfigurationError("contour weights are not pointwise-evaluable")
        if self.is_preset:
            return ex.parse_expression(self.body.raw_text())
        return self.body

    def __str__(self):
        return self.weight_id


def preset_weight(name_or_preset, **params) -> Weight:
    """Normalized Weight for a preset family, e.g. preset_weight("laguerre", gamma=1)."""
    if isinstance(name_or_preset, Preset):
        preset = name_or_preset
    else:
        try:
            cls = PRESETS[name_or_preset]
        except KeyError:
            raise ConfigurationError(
                f"unknown preset {name_or_preset!r}; choose from {sorted(PRESETS)}"
            ) from None
        preset = cls(**params)
    label = preset.name
    extra = [f"{k}={getattr(preset, k)}" for k in ("gamma", "p", "q") if hasattr(preset, k)]
    if extra:
        label += "[" + ",".join(extra) + "]"
    return Weight(
        interval=preset.interval(),
        body=preset,
        normalization=None,
        endpoint_exponents=preset.exponents(),
        weight_id=label,
    )


def contour_weight(winding: int = 0) -> Weight:
    body = Contour(winding)
    return Weight(
        interval=Interval(-1, 1),
        body=body,
        normalization=body.constant(),
        endpoint_exponents=(Fraction(0), Fraction(0)),
        weight_id=f"contour[k={winding}]",
    )


def parse_weight(text: str, interval: Interval) -> Weight:
    """Parse expression text into an unnormalized Weight over the interval.

    Detects pure power-law endpoint factors syntactically and records their
    exponents. Raises IntegrabilityError when a detected exponent is <= -1.
    """
    if not isinstance(interval, Interval):
        interval = Interval(*interval)
    tree = ex.parse_expression(text)
    alpha = interval.alpha if interval.alpha_finite else None
    beta = interval.beta if interval.beta_finite else None
    exp_a, exp_b = ex.endpoint_exponents(tree, alpha, beta)
    if interval.alpha_finite and exp_a <= -1:
        raise IntegrabilityError(
            f"endpoint exponent {exp_a} at alpha={interval.alpha} is not integrable"
        )
    if interval.beta_finite and exp_b <= -1:
        raise IntegrabilityError(
            f"endpoint exponent {exp_b} at beta={interval.beta} is not integrable"
        )
    return Weight(
        interval=interval,
        body=tree,
        normalization=None,
        endpoint_exponents=(exp_a, exp_b),
        weight_id=f"expr[{ex.to_text(tree)} on {interval}]",
    )


def normalize(w: Weight, context: PrecisionContext | None = None) -> Weight:
    """Divide the weight by its integral so m0 = 1; the divisor is recorded.

    Presets and contours normalize exactly from closed forms. Expression
    weights integrate numerically at the context precision (default 50).
    """
    if w.is_normalized:
        return w  # presets and contours are constructed normalized
    from .quadrature import integrate_expression  # deferred: quadrature imports weights

    context = context or PrecisionContext()
    [(total, err)] = integrate_expression(
        w.body, w.interval, context, endpoint_exponents=w.endpoint_exponents
    )
    # integrate_expression has already raised IntegrabilityError for a
    # non-finite or divergent-looking total
    if abs(total.value) <= max(err.value * 10, tolerance(context, 10)):
        raise NormalizationError(
            f"integral of {w.weight_id} is numerically indistinguishable from zero"
        )
    return Weight(
        interval=w.interval,
        body=w.body,
        normalization=total,
        endpoint_exponents=w.endpoint_exponents,
        weight_id=w.weight_id,
    )
