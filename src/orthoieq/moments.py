"""Moments m_n = <x^n> of a weight, and generalized moments <f(x)^k x^j>.

Every table comes from one of two places. Presets and contours have
closed forms on their bodies (exact rationals for presets, rationals over
i pi for contours); float mode rounds those exact values once to p
digits and keeps them on the sequence (MomentSequence.exact), on which
every solve-layer routine computes (on_exact_values). Expression weights,
and tables no polynomial contraction reaches, are integrated numerically
by Weight.integrals, every entry on one node set with its own error estimate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields, is_dataclass, replace

from . import expressions as ex
from .errors import (
    ConfigurationError,
    ConstantFunctionError,
    InsufficientMomentsError,
    ModeError,
    QuadratureError,
)
from .numeric import PrecisionContext, Scalar, scalar_eq, tolerance
from .polynomials import Polynomial, power_table
from .quadrature import _EVAL_ERRORS
from .weights import Weight, contour_weight


@dataclass(frozen=True)
class MomentSequence:
    """m_0 .. m_N with provenance. m_0 must equal 1 (the weight is normalized).

    A float sequence rounded from a closed form keeps the exact Scalars it
    was rounded from in `exact`; every other sequence has exact = None.
    The field takes no part in ==, hash or repr.
    """

    values: tuple
    source: str  # analytic | quadrature | contour
    weight_id: str
    error_estimates: tuple | None = None
    exact: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.values:
            raise ConfigurationError("a moment sequence needs at least m_0")
        m0 = self.values[0]
        if m0.is_exact:
            ok = scalar_eq(m0, Scalar.exact(1))
        else:
            ok = scalar_eq(m0, Scalar.exact(1), tol=tolerance(PrecisionContext(m0.precision), 10))
        if not ok:
            raise ConfigurationError(f"m_0 must be 1 for a normalized weight, got {m0}")

    def __len__(self):
        return len(self.values)

    def __getitem__(self, n: int) -> Scalar:
        if n >= len(self.values):
            raise InsufficientMomentsError(
                f"moment m_{n} requested but only m_0..m_{len(self.values) - 1} are available"
            )
        return self.values[n]

    @staticmethod
    def from_values(values, source="analytic", weight_id="manual") -> "MomentSequence":
        vals = tuple(v if isinstance(v, Scalar) else Scalar.exact(v) for v in values)
        return MomentSequence(vals, source, weight_id)


def on_exact_values(func):
    """func(m, ...) on m.exact when m carries exact values, with each Scalar of
    the result (in a Polynomial, tuple, list or dataclass too) rounded once
    at m[0].precision and the exact run's errors; else func(m, ...)."""

    @functools.wraps(func)
    def run(m, *args, **kwargs):
        exact = getattr(m, "exact", None)
        if exact is None:
            return func(m, *args, **kwargs)
        return _round_once(func(exact, *args, **kwargs), PrecisionContext(m[0].precision))

    return run


def _round_once(value, context):
    if isinstance(value, Scalar):
        return value.to_float(context)
    if isinstance(value, Polynomial):
        return Polynomial([c.to_float(context) for c in value.coeffs])
    if isinstance(value, (tuple, list)):
        return type(value)(_round_once(v, context) for v in value)
    if is_dataclass(value):
        return replace(value, **{f.name: _round_once(getattr(value, f.name), context)
                                 for f in fields(value)})
    return value


def moments(w: Weight, count: int, *, mode: str = "float",
            context: PrecisionContext | None = None, method: str = "auto") -> MomentSequence:
    """First `count` moments of a normalized weight.

    method="auto" uses closed forms for presets/contours and quadrature for
    expression weights; method="quadrature" forces numerical integration
    (useful for cross-checks). Exact mode requires a closed form.
    """
    if count < 1:
        raise ConfigurationError("count must be at least 1 (m_0)")
    if not w.is_normalized:
        raise ConfigurationError(f"weight {w.weight_id} is not normalized")
    if mode not in ("float", "exact"):
        raise ConfigurationError(f"mode must be 'float' or 'exact', got {mode!r}")
    context = context or PrecisionContext()
    if w.is_contour and method == "quadrature":
        raise ConfigurationError("contour moments have no quadrature form")

    if w.is_contour or w.is_preset and method != "quadrature":
        values = [Scalar.exact(v) for v in w.body.moments(count)]
        exact = None
        if mode == "float":
            exact, values = tuple(values), [v.to_float(context) for v in values]
        return MomentSequence(tuple(values), "contour" if w.is_contour else "analytic",
                              w.weight_id, exact=exact)

    if mode == "exact":
        raise ModeError("exact moments need an analytic form; expression weights are numeric")
    entries = w.integrals(
        context, [(0, n) for n in range(count)],
        wrap_error=lambda n, exc: QuadratureError(
            f"moment m_{n} of {w.weight_id}: {exc}", worst_index=n
        ),
    )
    values, estimates = zip(*entries)
    return MomentSequence(values, "quadrature", w.weight_id, error_estimates=estimates)


def contour_moments(winding: int, count: int, *, mode: str = "float",
                    context: PrecisionContext | None = None) -> MomentSequence:
    """Closed-form moments of the winding-k contour weight 1/(c x), c = i pi (2k+1)
    (weights.Contour.moments); float mode rounds the exact values once."""
    if count < 1:
        raise ConfigurationError("count must be at least 1 (m_0)")
    return moments(contour_weight(winding), count, mode=mode, context=context)


def generalized_moments(w: Weight, f, kmax: int, jmax: int, *,
                        context: PrecisionContext | None = None):
    """Matrix M[k][j] = <f(x)^k x^j> for k <= kmax, j <= jmax.

    Polynomial f (including the identity) contracts exactly against plain
    moments through polynomials.power_table; anything else is integrated
    numerically, every entry on one tanh-sinh node set. Raises
    ConstantFunctionError when f is constant on the interval.
    """
    if isinstance(f, str):
        f = ex.parse_expression(f)
    context = context or PrecisionContext()
    poly = ex.as_polynomial(f)
    if poly is not None and len(poly) == 1:
        raise ConstantFunctionError(f"f = {ex.to_text(f)} is constant")

    if poly is not None:
        need = (len(poly) - 1) * kmax + jmax + 1
        plain = moments(w, need, mode="exact" if w.is_preset or w.is_contour else "float",
                        context=context)
        return power_table(poly, kmax, plain, jmax + 1)

    _reject_constant_f(f, w, context)
    width = jmax + 1

    def entry_error(i, exc):
        k, j = divmod(i, width)
        return QuadratureError(
            f"generalized moment <f^{k} x^{j}> of {w.weight_id}: {exc}", worst_index=(k, j)
        )

    entries = w.integrals(
        context, [(k, j) for k in range(kmax + 1) for j in range(width)],
        shared=f,
        wrap_error=entry_error,
    )
    values = [value for value, _err in entries]
    return [values[k * width:(k + 1) * width] for k in range(kmax + 1)]


def _reject_constant_f(f, w, context):
    mp = context.mp
    lo_f, hi_f = (mp.mpf(end.numerator) / end.denominator for end in w.interval.sample_span())
    samples = []
    for i in range(1, 10):
        t = lo_f + (hi_f - lo_f) * i / 10
        try:
            samples.append(ex.eval_float(f, t, context))
        except _EVAL_ERRORS:
            continue  # a pole or domain error is the integrator's to report
    if len(samples) < 2:
        return
    spread = max(abs(s - samples[0]) for s in samples)
    scale = max(mp.mpf(1), max(abs(s) for s in samples))
    if spread <= scale * tolerance(context, context.precision // 2):
        raise ConstantFunctionError(
            f"f = {ex.to_text(f)} is constant on {w.interval} to working tolerance"
        )
