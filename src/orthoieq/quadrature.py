"""Adaptive integration for weight moments, every entry on one node set.

Finite intervals go through tanh-sinh (double-exponential) quadrature.
Endpoints whose power-law exponent s is negative (known from weight
metadata) are regularized first by the substitution x = a + u^m with
m = denominator(s), which removes the singularity entirely; without it,
endpoint representation cancellation caps tanh-sinh accuracy near half
the working digits. Semi-infinite intervals are remapped by
x = a + t/(1-t); doubly infinite ones are split at 0.

A moment table integrates the same weight against many factors (x^n,
f(x)^k x^j, x^j f[P(x)]). The nodes are shared: at each tanh-sinh level
the weight, and any per-node quantity the factors share, is evaluated
once per node for all entries. The stopping rule is per entry: each one
runs mpmath's own level loop (``TanhSinh.sum_next`` arithmetic,
``estimate_error``, the eps/8 target, 20 guard bits) and stops at its own
level, so every value and error estimate equals what a separate
``quadts(..., error=True, maxdegree=8)`` call returns for that entry.

Integration runs at 2p+10 digits internally and returns values at p.
Reported error estimates are floored at the cancellation limit of the
working precision, since the level-difference estimate alone cannot see
systematic endpoint error.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import IntegrabilityError, QuadratureError
from .numeric import Scalar, mp_context
from . import expressions as ex

_MAX_DEGREE = 8
_GUARD_BITS = 20  # what quadts adds to the working precision while summing
_EVAL_ERRORS = (ZeroDivisionError, ValueError, OverflowError)


def working_context(p):
    """The mpmath context integrands are evaluated in for a p-digit result."""
    return mp_context(2 * p + 10)


def _error_floor(mp, working_dps):
    return mp.mpf(10) ** (-(working_dps // 2 - 4))


def integrate_expression(tree, interval, context, factors=(None,), *, shared=None,
                         endpoint_exponents=(0, 0), target=None, wrap_error=None):
    """Integrate the expression tree times each factor over the interval.

    Each factor is None (the tree alone) or a callable ``factor(x, s)``
    returning the multiplier at the working-precision node x; ``s()`` gives
    ``shared(x)``, evaluated at most once per node and only when a factor
    asks for it. Compile ``shared`` against ``working_context(p)``.

    Returns one (value, error_estimate) pair of Scalars at the context
    precision per factor. Raises QuadratureError when an estimate misses the
    target or evaluation fails, and IntegrabilityError when an integral looks
    divergent. Of several failing entries the lowest index is raised, as a
    loop over the entries would; ``wrap_error(index, exc)`` replaces a
    QuadratureError when given.
    """
    p = context.precision
    work = working_context(p)
    if target is None:
        target = context.mp.mpf(10) ** (10 - p)
    description = ex.to_text(tree)
    pieces = _split_pieces(interval, endpoint_exponents, work)
    weight = ex.compile_float(tree, work)
    count = len(factors)
    totals = [work.mpf(0)] * count
    ests = [work.mpf(0)] * count
    failed = None  # (index, exception) of the lowest-index failure so far
    for piece in pieces:
        live = factors if failed is None else factors[:failed[0]]
        results, failure = _tanh_sinh(piece, weight, live, shared, work)
        if failure is not None:
            index, exc = failure
            failed = (index, _evaluation_error(description, exc))
        for i, (value, err) in enumerate(results):
            if not work.isfinite(abs(value)):
                failed = (i, IntegrabilityError(f"integral of {description} is not finite"))
                break
            totals[i] += value
            ests[i] += abs(err)

    floor = _error_floor(work, work.dps)
    ceiling = work.mpf(10) ** min(30, p // 2)
    target = work.convert(target)
    out = []
    for i in range(count if failed is None else failed[0]):
        est = max(ests[i], floor)
        mag = abs(totals[i])
        if mag > ceiling:
            failed = (i, IntegrabilityError(
                f"integral of {description} appears divergent (magnitude {work.nstr(mag, 5)})"
            ))
            break
        if est > target * max(1, mag):
            failed = (i, QuadratureError(
                f"integration of {description} reached estimate {work.nstr(est, 3)}, "
                f"target {work.nstr(target, 3)}",
            ))
            break
        out.append((_round_to(totals[i], context), _round_to(est, context)))
    if failed is not None:
        index, exc = failed
        if wrap_error is not None and isinstance(exc, QuadratureError):
            raise wrap_error(index, exc) from exc
        raise exc
    return out


def _evaluation_error(description, exc):
    error = QuadratureError(
        f"integration of {description} failed: {str(exc) or type(exc).__name__}"
    )
    error.__cause__ = exc
    return error


class _Level:
    """One tanh-sinh level's node data, shared by every entry.

    Per node it holds the weight's argument x, the weight's value there and
    the change-of-variables scale, and the factors' shared quantity once an
    entry asks for it (calling the level gives ``shared(x)`` at the current
    node). They are kept as raw mpf/mpc tuples, not mpf objects: thousands
    of live mpf objects stay tracked by the garbage collector and make it
    run full collections, raw tuples of ints do not.
    """

    def __init__(self, work, nodes, point, weight, shared):
        self.work = work
        self.nodes = nodes
        self.shared = shared
        self.args, self.values, self.scales = [], [], []
        self.failure = None  # what the node map or weight raised at the first node it failed
        for u, _w in nodes:
            try:
                x, scale = (u, None) if point is None else point(u)
                if x is not None:
                    w_x = weight(x)
            except _EVAL_ERRORS as exc:
                self.failure = exc
                break
            self.args.append(None if x is None else x._mpf_)
            self.values.append(None if x is None else _raw(w_x))
            self.scales.append(None if scale is None else scale._mpf_)
        self.cache = [None] * len(self.args)
        self.index = 0
        self.x = None

    def __call__(self):
        raw = self.cache[self.index]
        if raw is None:
            value = self.shared(self.x)
            self.cache[self.index] = _raw(value)
            return value
        return self._unpack(raw)

    def _unpack(self, raw):
        return self.work.make_mpc(raw) if len(raw) == 2 else self.work.make_mpf(raw)

    def terms(self, factor, combine):
        """One entry's (node weight, integrand) pairs, as sum_next hands them to fdot."""
        make_mpf = self.work.make_mpf
        rows = zip(self.nodes, self.args, self.values, self.scales)
        for index, ((_u, w), x, w_x, scale) in enumerate(rows):
            if x is None:
                # the node rounded onto a regularized endpoint: the integrand
                # is 0 there and nothing is evaluated
                yield w, 0
                continue
            x = make_mpf(x)
            value = self._unpack(w_x)
            if factor is not None:
                self.index, self.x = index, x
                value = value * factor(x, self)
            if combine is not None:
                value = combine(value, make_mpf(scale))
            yield w, value


def _raw(value):
    return value._mpf_ if hasattr(value, "_mpf_") else value._mpc_


def _tanh_sinh(piece, weight, factors, shared, work):
    """quadts' level loop on one finite piece for every factor at once.

    Returns ([(value, err), ...], failure): one pair for each entry below the
    failing one, and failure = (index, exception) or None. Entries run in
    index order on each level, so the first to fail is the one a loop over
    separate quadts calls would have reached first; a failure of the node
    map or the weight belongs to the lowest-index entry still active.
    """
    lo, hi, point, combine = piece
    rule = work._tanh_sinh
    prec = work.prec
    epsilon = work.eps / 8
    levels = [[] for _ in factors]  # per entry: the level sums so far
    errs = [work.zero] * len(factors)
    active = list(range(len(factors)))
    failure = None
    work.prec = prec + _GUARD_BITS
    try:
        for degree in range(1, _MAX_DEGREE + 1):
            level = _Level(work, rule.get_nodes(lo, hi, degree, prec), point, weight, shared)
            # TanhSinh.sum_next: the previous level's sum plus this level's new nodes
            h = work.mpf(2) ** (-degree)
            still = []
            for i in active:
                try:
                    new = work.fdot(level.terms(factors[i], combine))
                except _EVAL_ERRORS as exc:
                    failure = (i, exc)
                    break
                if level.failure is not None:
                    failure = (i, level.failure)
                    break
                results = levels[i]
                S = results[-1] / (h * 2) if results else work.zero
                S += new
                results.append(h * S)
                if degree > 1:
                    errs[i] = rule.estimate_error(results, prec, epsilon)
                    if errs[i] <= epsilon:
                        continue
                still.append(i)
            active = still
            if not active:
                break
    finally:
        work.prec = prec
    done = len(factors) if failure is None else failure[0]
    return [(+levels[i][-1], errs[i]) for i in range(done)], failure


def _round_to(value, context):
    mp = context.mp
    if hasattr(value, "imag") and value.imag != 0:
        return Scalar(mp.mpc(value.real, value.imag), context.precision)
    real = value.real if hasattr(value, "real") else value
    return Scalar(mp.mpf(real), context.precision)


# A piece is (lo, hi, point, combine): tanh-sinh runs on [lo, hi]; point(u)
# gives (x, scale) with x the weight's argument, or (None, None) where the
# integrand is 0; combine(value, scale) applies the change of variables.
# point None means x = u, combine None means no change of variables.


def _split_pieces(interval, exponents, work):
    """Cut the interval into finite regular pieces ready for tanh-sinh."""
    exp_a, exp_b = (Fraction(e) for e in exponents)
    if interval.alpha_finite and exp_a <= -1:
        raise IntegrabilityError(f"endpoint exponent {exp_a} at alpha is not integrable")
    if interval.beta_finite and exp_b <= -1:
        raise IntegrabilityError(f"endpoint exponent {exp_b} at beta is not integrable")

    if not interval.alpha_finite and not interval.beta_finite:
        return [_semi_infinite(work.mpf(0), work, negative=True),
                _semi_infinite(work.mpf(0), work, negative=False)]

    if not interval.beta_finite:
        a = _to_mpf(interval.alpha, work)
        if exp_a < 0:
            mid = a + 1
            return (_finite_pieces(a, mid, exp_a, Fraction(0), work)
                    + [_semi_infinite(mid, work, negative=False)])
        return [_semi_infinite(a, work, negative=False)]

    if not interval.alpha_finite:
        b = _to_mpf(interval.beta, work)
        if exp_b < 0:
            mid = b - 1
            return (_finite_pieces(mid, b, Fraction(0), exp_b, work)
                    + [_semi_infinite(mid, work, negative=True)])
        return [_semi_infinite(b, work, negative=True)]

    a = _to_mpf(interval.alpha, work)
    b = _to_mpf(interval.beta, work)
    return _finite_pieces(a, b, exp_a, exp_b, work)


def _finite_pieces(a, b, exp_a, exp_b, work):
    # fractional negative exponents get the regularizing substitution; anything
    # in (-1, 0) has denominator >= 2, integers <= -1 were rejected upstream
    sing_a = exp_a < 0
    sing_b = exp_b < 0
    if sing_a and sing_b:
        mid = (a + b) / 2
        return (_finite_pieces(a, mid, exp_a, Fraction(0), work)
                + _finite_pieces(mid, b, Fraction(0), exp_b, work))
    if not (sing_a or sing_b):
        return [(a, b, None, None)]
    m = max(2, (exp_a if sing_a else exp_b).denominator)
    end = a if sing_a else b

    def point(u):
        x = end + u**m if sing_a else end - u**m
        if x == end:
            # u^m rounded away against the endpoint: the tanh-sinh weight
            # there is below working resolution, so the contribution is negligible
            return None, None
        return x, u ** (m - 1)

    def combine(value, scale):
        return value * m * scale

    return [(work.mpf(0), work.root(b - a, m), point, combine)]


def _semi_infinite(anchor, work, *, negative):
    # x = anchor +/- t/(1-t), t in (0,1)
    def point(t):
        one_minus = 1 - t
        x = anchor - t / one_minus if negative else anchor + t / one_minus
        return x, one_minus**2

    def combine(value, scale):
        return value / scale

    return (work.mpf(0), work.mpf(1), point, combine)


def _to_mpf(value, work):
    if isinstance(value, Fraction):
        return work.mpf(value.numerator) / value.denominator
    return work.convert(value)
