"""Moments m_n = <x^n> of a weight, and generalized moments <f(x)^k x^j>.

Presets and contours have closed forms (exact rationals for presets,
rationals over i pi for contours). Expression weights are integrated
numerically with per-entry error estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import expressions as ex
from .errors import (
    ConfigurationError,
    ConstantFunctionError,
    InsufficientMomentsError,
    ModeError,
    QuadratureError,
)
from .numeric import PrecisionContext, Scalar, mp_context, scalar_eq, tolerance
from .polynomials import power_table
from .quadrature import _EVAL_ERRORS, integrate_expression, working_context
from .weights import Contour, Weight


@dataclass(frozen=True)
class MomentSequence:
    """m_0 .. m_N with provenance. m_0 must equal 1 (the weight is normalized)."""

    values: tuple
    source: str  # analytic | quadrature | contour
    weight_id: str
    error_estimates: tuple | None = None

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

    if w.is_contour:
        if method == "quadrature":
            raise ConfigurationError("contour moments have no quadrature form")
        return contour_moments(w.body.winding, count, mode=mode, context=context)

    if w.is_preset and method != "quadrature":
        exact_values = [Scalar.exact(w.body.moment(n)) for n in range(count)]
        if mode == "exact":
            values = exact_values
        else:
            values = [v.to_float(context) for v in exact_values]
        return MomentSequence(tuple(values), "analytic", w.weight_id)

    if mode == "exact":
        raise ModeError("exact moments need an analytic form; expression weights are numeric")
    return _quadrature_moments(w, count, context)


def _quadrature_moments(w: Weight, count: int, context: PrecisionContext) -> MomentSequence:
    norm = w.divisor(context)
    entries = integrate_expression(
        w.expression(), w.interval, context,
        [(0, n) for n in range(count)],
        endpoint_exponents=w.endpoint_exponents,
        wrap_error=lambda n, exc: QuadratureError(
            f"moment m_{n} of {w.weight_id}: {exc}", worst_index=n
        ),
    )
    values = tuple(Scalar(raw.value / norm, context.precision) for raw, _err in entries)
    estimates = tuple(Scalar(err.value / abs(norm), context.precision) for _raw, err in entries)
    return MomentSequence(values, "quadrature", w.weight_id, error_estimates=estimates)


def contour_moments(winding: int, count: int, *, mode: str = "float",
                    context: PrecisionContext | None = None) -> MomentSequence:
    """Closed-form moments of the winding-k contour weight 1/(c x), c = i pi (2k+1).

    m_0 = 1 and m_n = (1 - (-1)^n) / (n c) for n >= 1: the integrand of
    m_n is entire for n >= 1 so the path collapses to the real axis, and
    only the normalizing constant c remembers the winding number.
    """
    if count < 1:
        raise ConfigurationError("count must be at least 1 (m_0)")
    contour = Contour(winding)  # validates winding >= 0
    context = context or PrecisionContext()
    if mode == "exact":
        c = contour.constant()
        values = (Scalar.exact(1),) + tuple(
            Scalar.exact(Fraction(2, n)) / c if n % 2 else Scalar.exact(0)
            for n in range(1, count)
        )
    elif mode == "float":
        # odd m_n = -2i / (n (2k+1) pi), formed at p+10 digits and rounded once to p
        mp, work = context.mp, mp_context(context.precision + 10)
        values = tuple(
            Scalar(mp.mpc(0, -2 / (n * (2 * winding + 1) * work.pi)) if n % 2
                   else mp.mpf(1 if n == 0 else 0), context.precision)
            for n in range(count)
        )
    else:
        raise ConfigurationError(f"mode must be 'float' or 'exact', got {mode!r}")
    return MomentSequence(values, "contour", f"contour[k={winding}]")


def generalized_moments(w: Weight, f, kmax: int, jmax: int, *,
                        context: PrecisionContext | None = None,
                        plain: MomentSequence | None = None):
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
        deg_f = len(poly) - 1
        need = deg_f * kmax + jmax + 1
        if plain is None or len(plain) < need:
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

    norm = w.divisor(context)
    entries = integrate_expression(
        w.expression(), w.interval, context,
        [(k, j) for k in range(kmax + 1) for j in range(width)],
        shared=ex.compile_float(f, working_context(context.precision)),
        endpoint_exponents=w.endpoint_exponents,
        wrap_error=entry_error,
    )
    values = [Scalar(raw.value / norm, context.precision) for raw, _err in entries]
    return [values[k * width:(k + 1) * width] for k in range(kmax + 1)]


def _reject_constant_f(f, w, context):
    interval = w.interval
    lo = interval.alpha if interval.alpha_finite else (interval.beta - 2 if interval.beta_finite else -1)
    hi = interval.beta if interval.beta_finite else (interval.alpha + 2 if interval.alpha_finite else 1)
    mp = context.mp
    lo_f = mp.mpf(Fraction(lo).numerator) / Fraction(lo).denominator
    hi_f = mp.mpf(Fraction(hi).numerator) / Fraction(hi).denominator
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
            f"f = {ex.to_text(f)} is constant on {interval} to working tolerance"
        )
