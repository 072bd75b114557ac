"""Generalized integral equations and the substitution verifier.

Forms (kernel inside integral of w(y) P(y) ...):

    Additive            P(x + y)
    Multiplicative      P(x y), with a sparsity pattern on the coefficients
    LinearShift(a, b)   P(x + a + b y), b != 0
    Functional(f)       P(x + f(y)), f nonconstant
    ArbitraryF(f)       f[P(y)] P(x + y)  (verification only; no solver)

Additive, LinearShift and Functional are one kernel, P(x + g(y)) with
g(y) = y, a + b y or f(y). Each reduces to the linear conditions
<g^k P> = delta_(k,0), k = 0..n, which hankel.solve_kernel solves for
every polynomial g (any other f solves the integrated table <f^k x^j>),
and its right side is the binomial image of s_r = <g(y)^r P(y)>
(_kernel_moments: one contraction for a polynomial g, nothing expanded
for g = y; any other f integrates). ArbitraryF's
right side is the binomial image of <y^r f[P(y)]>; Multiplicative solves
<x^k P> = 1 on its support and has its own image. One verdict rule
(_verdict) judges the residuals of every form: exact moments give exact
residuals, integrated tables and f[P(y)] carry a quadrature bound. On a
contour, where pointwise substitution is undefined, moment_conditions
judges the linear conditions themselves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import expressions as ex
from .errors import (
    ConfigurationError,
    InconsistentPatternError,
    InsufficientMomentsError,
    SingularSystemError,
)
from .hankel import solve_e0, solve_kernel, solve_polynomial, vanishes
from .linalg import solve_full_pivot
from .moments import MomentSequence, generalized_moments, moments, on_exact_values
from .numeric import PrecisionContext, Scalar, scalar_eq, tolerance
from .polynomials import (
    Polynomial,
    _horner,
    image_residuals,
    inner_moment,
    kernel_moments,
)
from .quadrature import working_context
from .weights import Weight


# ---------------------------------------------------------------------------
# equation forms


@dataclass(frozen=True)
class Additive:
    name = "additive"


@dataclass(frozen=True)
class Multiplicative:
    """Sparsity pattern: indices k < n with a_(n,k) assumed nonzero (n is implicit)."""

    pattern: frozenset = frozenset()
    name = "multiplicative"

    def __post_init__(self):
        object.__setattr__(self, "pattern", frozenset(int(k) for k in self.pattern))
        if any(k < 0 for k in self.pattern):
            raise ConfigurationError("pattern indices must be nonnegative")


@dataclass(frozen=True)
class LinearShift:
    a: Scalar
    b: Scalar
    name = "linear-shift"

    def __post_init__(self):
        object.__setattr__(self, "a", _scalarize(self.a))
        object.__setattr__(self, "b", _scalarize(self.b))
        if self.b.is_zero():
            raise ConfigurationError("linear shift requires b != 0")

    @property
    def complex_shift(self) -> bool:
        re, im = self.a.real_imag()
        return im != 0


@dataclass(frozen=True)
class Functional:
    f: object  # expression tree or text
    name = "functional"

    def __post_init__(self):
        tree = ex.parse_expression(self.f) if isinstance(self.f, str) else self.f
        object.__setattr__(self, "f", tree)


@dataclass(frozen=True)
class ArbitraryF:
    f: object
    name = "arbitrary-f"

    def __post_init__(self):
        tree = ex.parse_expression(self.f) if isinstance(self.f, str) else self.f
        object.__setattr__(self, "f", tree)


def _scalarize(v):
    return v if isinstance(v, Scalar) else Scalar.exact(v)


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class VerificationReport:
    form: object
    sample_points: tuple
    residuals: tuple
    max_residual: Scalar
    quadrature_error_bound: Scalar
    passed: bool
    complex_shift: bool = field(default=False)

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (
            f"verify[{self.form.name}] {status}: max residual {self.max_residual} "
            f"over {len(self.sample_points)} samples"
        )


def default_samples(interval, *, seed: int = 0, mode: str = "float",
                    context: PrecisionContext | None = None):
    """7 reproducible sample points: clipped endpoints, midpoint, 4 seeded randoms.

    Built once per span, seed, mode and precision (a small memo of
    immutable tuples), rounded to the context's precision in float mode.
    """
    precision = (context or PrecisionContext()).precision if mode == "float" else None
    return _samples(*interval.sample_span(), seed, precision)


@lru_cache(maxsize=64)
def _samples(lo, hi, seed, precision):
    rng = random.Random(seed)
    points = [lo, (lo + hi) / 2, hi]
    for _ in range(4):
        points.append(lo + (hi - lo) * Fraction(rng.getrandbits(48), 1 << 48))
    scalars = [Scalar.exact(pt) for pt in points]
    if precision is not None:
        context = PrecisionContext(precision)
        scalars = [s.to_float(context) for s in scalars]
    return tuple(scalars)


def verify(P: Polynomial, w: Weight, form, samples=None, *, mode: str = "float",
           context: PrecisionContext | None = None, seed: int = 0,
           moment_seq: MomentSequence | None = None) -> VerificationReport:
    """Substitute P into the chosen equation form and report per-sample residuals.

    Real weights only; contour solutions are checked through the linear
    moment conditions instead of pointwise substitution. When P, the
    moments and the samples are real (rational or binary float), each
    residual is the exact residual of those inputs rounded once
    (polynomials.image_residuals).
    """
    if w.is_contour:
        raise ConfigurationError(
            "contour weights are verified via the moment conditions, not pointwise"
        )
    context = context or PrecisionContext()
    if samples is None:
        samples = default_samples(w.interval, seed=seed, mode=mode, context=context)
    n = P.degree
    if isinstance(form, (Additive, LinearShift, Functional)):
        g, table, qbound = _kernel_table(P, w, form, mode, context, moment_seq)
        image = {"kernel": (g, table)}
    elif isinstance(form, Multiplicative):
        qbound = Scalar.exact(0)
        image = {"multiplicative": _plain_moments(w, 2 * n + 1, mode, context, moment_seq)}
    elif isinstance(form, ArbitraryF):
        qbound = _quadrature_bound(context)
        image = {"s": _f_of_p_moments(P, w, form.f, n, context)}
    else:
        raise ConfigurationError(f"unknown equation form {form!r}")

    differences, scales = image_residuals(P, samples, **image)
    residuals = [_abs_scalar(d, context) for d in differences]
    max_residual, passed = _verdict(residuals, qbound, context, scales)
    return VerificationReport(
        form=form,
        sample_points=tuple(samples),
        residuals=tuple(residuals),
        max_residual=max_residual,
        quadrature_error_bound=qbound,
        passed=passed,
        complex_shift=isinstance(form, LinearShift) and form.complex_shift,
    )


def moment_conditions(P: Polynomial, w: Weight, form, *, mode: str = "float",
                      context: PrecisionContext | None = None,
                      moment_seq: MomentSequence | None = None):
    """The worst deviation from the form's linear conditions, and its verdict:
    <g^k P> = delta_(k,0), k = 0..n, for the kernel P(x + g(y)), and for
    Multiplicative <x^k P> = 1 on the support (pattern and n), a_k = 0 off it."""
    context = context or PrecisionContext()
    n = P.degree
    one = Scalar.exact(1)
    if isinstance(form, Multiplicative):
        m = _plain_moments(w, 2 * n + 1, mode, context, moment_seq)
        deviations = [inner_moment(P, k, m) - one if k in form.pattern or k == n
                      else P.coefficient(k) for k in range(n + 1)]
    else:
        s, _ = _kernel_moments(P, w, form, mode, context, moment_seq)
        deviations = [v - one if k == 0 else v for k, v in enumerate(s)]
    return _verdict([_abs_scalar(d, context) for d in deviations], Scalar.exact(0), context)


def _plain_moments(w, count, mode, context, moment_seq):
    if moment_seq is not None and len(moment_seq) >= count:
        return moment_seq
    return moments(w, count, mode=mode, context=context)


def _abs_scalar(diff, context):
    if diff.is_exact:  # |z| of a value with an i pi part is not exact; only magnitude() is read
        return Scalar.exact(abs(diff.value)) if diff.is_rational() else diff
    return Scalar(context.mp.fabs(diff.value), context.precision)


def _verdict(deviations, qbound, context, scales=lambda: ()):
    """The largest deviation and whether it passes.

    Rationals are compared exactly, other pairs by magnitude(). An exact
    deviation must be zero. A float one passes at or below
    max(10 qbound, 10^(10-p) max(1, scales)); scales is called only then.
    """
    worst, size = deviations[0], None  # size: worst.magnitude(), once it is needed
    for d in deviations[1:]:
        if d.is_rational() and worst.is_rational():
            if abs(d.value) > abs(worst.value):
                worst, size = d, None
            continue
        if size is None:
            size = worst.magnitude()
        magnitude = d.magnitude()
        if magnitude > size:
            worst, size = d, magnitude
    if worst.is_exact:
        return worst, worst.is_zero()
    mp = context.mp
    threshold = max(
        10 * qbound.to_float(context).value if not qbound.is_zero() else mp.mpf(0),
        tolerance(context, 10) * max([mp.mpf(1)] + list(scales())),
    )
    return worst, worst.value <= threshold


def _kernel_moments(P, w, form, mode, context, moment_seq):
    """s_r = <g(y)^r P(y)>, r = 0..deg P, for the kernel P(x + g(y)) of an
    Additive, LinearShift or Functional form, with the quadrature bound s carries."""
    g, table, qbound = _kernel_table(P, w, form, mode, context, moment_seq)
    return kernel_moments(P, g, table), qbound


def _kernel_table(P, w, form, mode, context, moment_seq):
    """(g, table, bound) for the kernel P(x + g(y)): a polynomial g with the
    plain moments (zero bound), or None with the integrated <f^r y^j> table
    of any other f and its quadrature bound."""
    n = P.degree
    g = _polynomial_argument(form)
    if g is None:
        return None, generalized_moments(w, form.f, n, n, context=context), _quadrature_bound(context)
    return g, _plain_moments(w, len(g) * n + 1, mode, context, moment_seq), Scalar.exact(0)


def _polynomial_argument(form):
    """Ascending coefficients of g in P(x + g(y)), or None when g is an f
    that is not a nonconstant polynomial (generalized_moments rejects a constant)."""
    if isinstance(form, Additive):
        return [0, 1]
    if isinstance(form, LinearShift):
        return [form.a, form.b]
    poly = ex.as_polynomial(form.f)
    return poly if poly is not None and len(poly) > 1 else None


def _quadrature_bound(context):
    return Scalar(tolerance(context, 10), context.precision)


def _f_of_p_moments(P, w, f, kmax, context):
    """g_j = <y^j f[P(y)]> for j = 0..kmax, by quadrature on one node set."""
    mp = working_context(context.precision)
    f_at = ex.compile_float(f, mp)
    coeffs = [mp.convert((c.to_float(context) if c.is_exact else c).value) for c in P.coeffs]
    entries = w.integrals(context, [(1, j) for j in range(kmax + 1)],
                          shared=lambda x: f_at(_horner(coeffs, x)))
    return [value for value, _err in entries]


# ---------------------------------------------------------------------------
# multiplicative solver


@on_exact_values
def solve_multiplicative(m, n: int, pattern, *, context: PrecisionContext | None = None) -> Polynomial:
    """Solve <x^k P> = 1 on the support pattern u {n}; other coefficients are 0.

    Raises InconsistentPatternError when a support coefficient the pattern
    declared nonzero comes back zero.
    """
    support = sorted(set(int(k) for k in pattern) | {n})
    if any(k < 0 or k > n for k in support):
        raise ConfigurationError(f"pattern {sorted(pattern)} out of range for degree {n}")
    if len(m) < 2 * n + 1:
        raise InsufficientMomentsError(
            f"degree {n} needs m_0..m_{2 * n}, got {len(m)} moments"
        )
    matrix = [[m[k + j] for j in support] for k in support]
    one = Scalar.exact(1)
    rhs = [one for _ in support]
    solved = solve_full_pivot(matrix, rhs)
    coeffs = [_zero_like(m[0])] * (n + 1)  # structural zeros in the table's mode
    for idx, k in enumerate(support):
        coeffs[k] = solved[idx]
    for k in support:
        if vanishes(coeffs[k], solved):
            raise InconsistentPatternError(
                f"pattern {sorted(set(pattern))} assumed a_{n},{k} != 0 but it solved to zero",
                index=k,
            )
    return Polynomial(coeffs)


@dataclass(frozen=True)
class MultiplicativeCandidate:
    pattern: frozenset
    polynomial: Polynomial | None
    failure: str | None

    @property
    def succeeded(self) -> bool:
        return self.polynomial is not None


@on_exact_values
def enumerate_multiplicative(m, n: int, *, context: PrecisionContext | None = None):
    """Try all 2^n sparsity patterns S subset of {0..n-1}; failures are data.

    Returns the candidate list (bitmask order) and the count of distinct
    successful polynomials.
    """
    if n < 1:
        raise ConfigurationError("enumeration needs degree n >= 1")
    candidates = []
    for mask in range(1 << n):
        pattern = frozenset(k for k in range(n) if mask >> k & 1)
        try:
            poly = solve_multiplicative(m, n, pattern, context=context)
            candidates.append(MultiplicativeCandidate(pattern, poly, None))
        except (InconsistentPatternError, SingularSystemError) as exc:
            candidates.append(MultiplicativeCandidate(pattern, None, str(exc)))
    return candidates, _distinct_count(candidates, context)


def _distinct_count(candidates, context):
    """The number of distinct successful polynomials. Exact polynomials are
    equal exactly when their coefficients are, so a set counts them; float
    ones (tables without exact values) agree when every coefficient does to 10^(10-p)."""
    polys = [cand.polynomial for cand in candidates if cand.succeeded]
    if all(c.is_exact for P in polys for c in P.coeffs):
        return len(set(polys))
    ctx = context or PrecisionContext(
        next(c.precision for P in polys for c in P.coeffs if not c.is_exact)
    )
    tol = tolerance(ctx, 10)
    distinct = []
    for P in polys:
        if not any(P.degree == Q.degree
                   and all(scalar_eq(a, b, tol=tol) for a, b in zip(P.coeffs, Q.coeffs))
                   for Q in distinct):
            distinct.append(P)
    return len(distinct)


def parity_pattern(n: int) -> frozenset:
    """Support below n for a definite-parity solution: n-2, n-4, ..."""
    return frozenset(range(n - 2, -1, -2))


def parity_measure_moments(m, N: int):
    """mu_n = (1/2) <x^n - x^(n+2)> [1 + (-1)^n]; odd entries are exactly zero."""
    if len(m) < N + 3:
        raise InsufficientMomentsError(
            f"mu_0..mu_{N} needs m_0..m_{N + 2}, got {len(m)} moments"
        )
    zero = _zero_like(m[0])
    return [zero if n % 2 else m[n] - m[n + 2] for n in range(N + 1)]


def _zero_like(value: Scalar) -> Scalar:
    return Scalar.exact(0) if value.is_exact else PrecisionContext(value.precision).zero()


# ---------------------------------------------------------------------------
# linear shift solver


def solve_linear_shift(m, n: int, a, b, *, context: PrecisionContext | None = None) -> Polynomial:
    """Solve <(a+bx)^k P> = delta_(k,0) for k = 0..n: hankel.solve_kernel for
    g = a + b x, which runs the recurrence on the measure (a+bx) w when the
    moments and a, b are exact."""
    a = _scalarize(a)
    b = _scalarize(b)
    if b.is_zero():
        raise ConfigurationError("linear shift requires b != 0")
    if len(m) < 2 * n + 1:
        raise InsufficientMomentsError(
            f"degree {n} needs m_0..m_{2 * n}, got {len(m)} moments"
        )
    return solve_kernel(
        m, n, [a, b], f"leading coefficient vanished for shift (a={a}, b={b}) at degree {n}"
    )


# ---------------------------------------------------------------------------
# functional-argument solver


def solve_functional(w: Weight, f, n: int, *, context: PrecisionContext | None = None,
                     mode: str = "float") -> Polynomial:
    """Solve <f(x)^k P> = delta_(k,0) for k = 0..n.

    The identity is the additive solve; a polynomial f is hankel.solve_kernel
    on the plain moments of the given mode (an exact linear f takes the
    recurrence, as the shift form does); any other f solves the
    integrated table <f^k x^j>.
    """
    if isinstance(f, str):
        f = ex.parse_expression(f)
    context = context or PrecisionContext()
    if ex.is_identity(f):
        m = moments(w, 2 * n + 1, mode=mode, context=context)
        return solve_polynomial(m, n, context=context)
    g = _polynomial_argument(Functional(f))
    message = f"leading coefficient vanished for functional argument at degree {n}"
    if g is None:
        return solve_e0(generalized_moments(w, f, n, n, context=context), message)
    return solve_kernel(moments(w, len(g) * n + 1, mode=mode, context=context), n, g, message)


def check_functional_orthogonality(Pn: Polynomial, Pm: Polynomial, w: Weight, f, *,
                                   context: PrecisionContext | None = None) -> Scalar:
    """<f(x) Pn(x) Pm(f(x))>, which vanishes for solve_functional outputs with deg Pm < deg Pn."""
    if Pm.degree >= Pn.degree:
        raise ConfigurationError(
            f"requires deg Pm < deg Pn, got {Pm.degree} >= {Pn.degree}"
        )
    if isinstance(f, str):
        f = ex.parse_expression(f)
    context = context or PrecisionContext()
    gen = generalized_moments(w, f, Pm.degree + 1, Pn.degree, context=context)
    return inner_moment(Pm, 0, [inner_moment(Pn, 0, row) for row in gen[1:]])


# ---------------------------------------------------------------------------
# arbitrary-f checker (verification only; no solver exists for the
# nonlinear coefficient system and none is attempted)


@dataclass(frozen=True)
class ArbitraryFReport:
    values: tuple  # <x^k f[P(x)]> for k = 0..n
    deviations: tuple  # |value - delta_(k,0)|
    max_deviation: Scalar
    passed: bool

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return f"arbitrary-f {status}: max deviation {self.max_deviation}"


def check_arbitrary_f(P: Polynomial, f, w: Weight, n: int | None = None, *,
                      context: PrecisionContext | None = None,
                      mode: str = "float") -> ArbitraryFReport:
    """Report <x^k f[P(x)]> against delta_(k,0) for k = 0..n.

    The identity f contracts exactly against plain moments; other f are
    integrated numerically.
    """
    if isinstance(f, str):
        f = ex.parse_expression(f)
    context = context or PrecisionContext()
    if n is None:
        n = P.degree
    if ex.is_identity(f):
        m = moments(w, P.degree + n + 1, mode=mode, context=context)
        values = [inner_moment(P, k, m) for k in range(n + 1)]
        qbound = Scalar.exact(0)
    else:
        values = _f_of_p_moments(P, w, f, n, context)
        qbound = _quadrature_bound(context)
    one = Scalar.exact(1)
    deviations = [_abs_scalar(v - one if k == 0 else v, context) for k, v in enumerate(values)]
    max_dev, passed = _verdict(deviations, qbound, context)
    return ArbitraryFReport(tuple(values), tuple(deviations), max_dev, passed)
