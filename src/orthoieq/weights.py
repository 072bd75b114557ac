"""Weight functions w(x) on an interval: presets, parsed expressions, complex contours.

A Weight is immutable; only the quadrature node data it keeps for its
integrals (Weight.nodes) fill in as it is used. Normalization divides the
raw body by its integral so that m0 = 1; the divisor is kept on the
Weight. Endpoint power-law exponents ride along as metadata for the
quadrature engine.

There are three preset bodies: Laguerre x^(gamma-1) e^(-x) on (0, inf),
Beta x^A (1-x)^B on (0, 1) and a constant on (-1, 1). The four (0, 1)
presets are Beta bodies: jacobi-add(p, q) has (A, B) = (q-2, p-q),
jacobi-mult(p, q) has (q-1, p-q-1), chebyshev-u2-add (-1/2, 1/2) and
chebyshev-u2-mult (1/2, -1/2). PRESETS maps each preset name to its
parameters, their range and its body.

Preset moments are rational (Fraction), contour moments rational over
i pi (numeric.IPiFraction); each body gives them in closed form. A
preset's divisor (Gamma, Beta or 2) only divides the results of
Weight.integrals, the one numerical integral of a body, so it is an
mpmath value made at the working precision. A contour's divisor i pi
(2k+1) is an exact Scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate

from . import expressions as ex
from .errors import ConfigurationError, IntegrabilityError, NormalizationError
from .numeric import I_PI, PrecisionContext, Scalar, mp_context, tolerance
from .quadrature import integrate_expression

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
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        shown = value.strip() if isinstance(value, str) else value
        raise ConfigurationError(
            f"interval endpoint {shown!r} is not a number "
            "(int, Fraction, decimal string, inf or -inf)"
        ) from None


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

    def sample_span(self):
        """(lo, hi) with an infinite end clipped 2 from the other end, (-1, 1) if both are."""
        if not self.alpha_finite:
            hi = self.beta if self.beta_finite else Fraction(1)
            return hi - 2, hi
        return self.alpha, self.beta if self.beta_finite else self.alpha + 2

    def __str__(self):
        return f"({self.alpha}, {self.beta})"


def _fraction_param(value, name):
    try:
        return Fraction(value)  # a float keeps its exact binary expansion
    except (TypeError, ValueError):
        raise ConfigurationError(f"{name} must be a rational number, got {value!r}") from None


# ---------------------------------------------------------------------------
# preset bodies


class Preset:
    """Closed-form weight body with analytic normalization and moments.

    A body supplies interval(); raw_text(), the unnormalized body as
    expression text (for quadrature cross-checks); exponents(), its endpoint
    power-law exponents; divisor(mp), the integral of the raw body at the
    precision of mpmath context mp; and moments(count), the moments
    m_0..m_(count-1) of the normalized weight as exact rationals.
    """

    def exponents(self):
        return Fraction(0), Fraction(0)

    def admissible(self) -> bool:
        """Whether the parameters lie in the family's range."""
        return True


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


@dataclass(frozen=True)
class Laguerre(Preset):
    """x^(gamma-1) e^(-x) on (0, inf), gamma >= 1."""

    gamma: Fraction

    def admissible(self):
        return self.gamma >= 1

    def interval(self):
        return Interval(0, INF)

    def raw_text(self):
        return _product_text([_power_text("x", self.gamma - 1), "exp(-x)"])

    def exponents(self):
        return self.gamma - 1, Fraction(0)

    def divisor(self, mp):
        return mp.gamma(self.gamma)

    def moments(self, count):
        # the rising factorial m_(n+1) = m_n (gamma+n)
        return list(accumulate(range(count - 1), lambda m, n: m * (self.gamma + n),
                               initial=Fraction(1)))


@dataclass(frozen=True)
class Beta(Preset):
    """x^a (1-x)^b on (0, 1), a > -1 and b > -1; it integrates to B(a+1, b+1)."""

    a: Fraction
    b: Fraction

    def admissible(self):
        return self.a > -1 and self.b > -1

    def interval(self):
        return Interval(0, 1)

    def raw_text(self):
        return _product_text([_power_text("x", self.a), _power_text("(1-x)", self.b)])

    def exponents(self):
        return self.a, self.b

    def divisor(self, mp):
        return mp.beta(self.a + 1, self.b + 1)

    def moments(self, count):
        # m_(n+1) = m_n (a+1+n) / (a+b+2+n)
        return list(accumulate(range(count - 1),
                               lambda m, n: m * (self.a + 1 + n) / (self.a + self.b + 2 + n),
                               initial=Fraction(1)))


@dataclass(frozen=True)
class UniformSymmetric(Preset):
    """Constant body on (-1, 1); normalizes to 1/2."""

    def interval(self):
        return Interval(-1, 1)

    def raw_text(self):
        return "1"

    def divisor(self, mp):
        return mp.mpf(2)

    def moments(self, count):
        return [Fraction(0) if n % 2 else Fraction(1, n + 1) for n in range(count)]


@dataclass(frozen=True)
class Family:
    """A preset name's parameters, the text naming their range (formatted with
    the parameter values when they fall outside it), and the map from the
    parameters to the body."""

    params: tuple
    requirement: str
    body: object


_HALF = Fraction(1, 2)

PRESETS = {
    "laguerre": Family(("gamma",), "gamma >= 1, got {gamma}", Laguerre),
    "jacobi-add": Family(
        ("p", "q"), "q > 1 and p - q > -1, got p={p}, q={q}", lambda p, q: Beta(q - 2, p - q)
    ),
    "chebyshev-u2-add": Family((), "", lambda: Beta(-_HALF, _HALF)),
    "jacobi-mult": Family(
        ("p", "q"), "p - q > 0 and q > 0, got p={p}, q={q}", lambda p, q: Beta(q - 1, p - q - 1)
    ),
    "chebyshev-u2-mult": Family((), "", lambda: Beta(_HALF, -_HALF)),
    "uniform-symmetric": Family((), "", UniformSymmetric),
}


# ---------------------------------------------------------------------------
# contour body


@dataclass(frozen=True)
class Contour:
    """Integration path from -1 to 1 winding k extra times around the origin.

    Body 1/(c x) with c = i pi (2k+1); m0 = 1 by construction, so the
    normalization constant is c itself. The weight is never sampled
    pointwise; its moments come in closed form (moments).
    """

    winding: int

    def __post_init__(self):
        if not isinstance(self.winding, int) or self.winding < 0:
            raise ConfigurationError(f"winding must be an integer >= 0, got {self.winding}")

    def constant(self) -> Scalar:
        return I_PI * (2 * self.winding + 1)

    def moments(self, count):
        """m_0 = 1 and m_n = (1 - (-1)^n) / (n c): for n >= 1 the integrand is
        entire, so the path collapses to the real axis and only c keeps k."""
        c = self.constant().value
        return [Fraction(1)] + [Fraction(2, n) / c if n % 2 else Fraction(0)
                                for n in range(1, count)]


# ---------------------------------------------------------------------------
# the Weight record


@dataclass(frozen=True)
class Weight:
    """A weight body on its interval, with its divisor and endpoint exponents.

    ``nodes`` is the weight's tanh-sinh node data, one node set per
    precision (quadrature.integrate_expression's memo): every integral of
    the weight at that precision evaluates the body at each node once,
    whichever table asks, and each entry <f^k x^j> of a plain or
    generalized table is summed once, then read from the node set. It is
    filled as integrals run, ``normalize`` hands it on to the normalized
    weight, and it dies with the weight. It takes no part in ``==``,
    ``hash`` or ``repr``.
    """

    interval: Interval
    body: object  # Preset | expression tree | Contour
    # divisor applied to a contour or expression body; None for a preset,
    # whose body has a closed form, and for a weight not yet normalized
    normalization: Scalar | None
    endpoint_exponents: tuple
    weight_id: str
    nodes: dict = field(default_factory=dict, compare=False, repr=False)

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

    def integrals(self, context: PrecisionContext, factors, *, shared=None, wrap_error=None):
        """(value, error estimate) of <shared^k x^j> per factor (k, j), all on one
        node set (quadrature.integrate_expression), divided by the divisor.
        ``shared`` is an expression tree, whose entries the node set keeps,
        or a callable, whose entries belong to the call."""
        norm = self.divisor(context)
        entries = integrate_expression(
            self.expression(), self.interval, context, factors, shared=shared,
            endpoint_exponents=self.endpoint_exponents, wrap_error=wrap_error, memo=self.nodes,
        )
        p = context.precision
        return [(Scalar(raw.value / norm, p), Scalar(err.value / abs(norm), p))
                for raw, err in entries]

    def __str__(self):
        return self.weight_id


def preset_weight(name: str, **params) -> Weight:
    """Normalized Weight for a preset family, e.g. preset_weight("laguerre", gamma=1)."""
    try:
        family = PRESETS[name]
    except KeyError:
        raise ConfigurationError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None
    if set(params) != set(family.params):
        raise ConfigurationError(
            f"{name} takes {', '.join(family.params) or 'no parameters'}, "
            f"got {', '.join(params) or 'none'}"
        )
    values = {k: _fraction_param(params[k], k) for k in family.params}
    body = family.body(**values)
    if not body.admissible():
        raise ConfigurationError(f"{name} requires " + family.requirement.format(**values))
    label = name
    if values:
        label += "[" + ",".join(f"{k}={v}" for k, v in values.items()) + "]"
    return Weight(
        interval=body.interval(),
        body=body,
        normalization=None,
        endpoint_exponents=body.exponents(),
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
    context = context or PrecisionContext()
    [(total, err)] = integrate_expression(
        w.body, w.interval, context, endpoint_exponents=w.endpoint_exponents, memo=w.nodes
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
        nodes=w.nodes,
    )
