"""Adaptive integration for weight moments, every entry on one node set.

Finite intervals go through tanh-sinh (double-exponential) quadrature.
Endpoints whose power-law exponent s is negative (known from weight
metadata) are regularized first by the substitution x = a + u^m with
m = denominator(s), which removes the singularity entirely; without it,
endpoint representation cancellation caps tanh-sinh accuracy near half
the working digits. Semi-infinite intervals are remapped by
x = a + t/(1-t); doubly infinite ones are split at 0.

A moment table integrates the same weight against many factors s^k x^j
(x^n, f(x)^k x^j, x^j f[P(x)]), with s = shared(x). The nodes are shared:
at each tanh-sinh level the weight times the change-of-variables factor,
and s where an entry needs it, are evaluated once per node, and the powers
of x and of s are running products kept per node for all entries.

One node set serves every table of a weight at one precision. The mapped
abscissae and the weight data of each piece and level are kept in a memo
the caller owns, the Weight's ``nodes``; normalize, moments, generalized
moments, the functional solve and verify, and check_arbitrary_f then
evaluate the weight once per node between them. The node set keeps each
finished entry too, under the text of s and (k, j), so m_0 after
normalize and the <f^k x^j> table that generalized moments, the
functional solve and its verify all ask for are summed once per weight and
precision. An s that is a callable, such as f[P(x)], belongs to its call:
its entries are not kept, and neither is a failing entry. The memo dies
with its weight: there is no module-level cache. The arithmetic and the
order of terms are those of a fresh node set, so every value, estimate and
error text is the same. s and the running products are formed per call.

Each entry runs mpmath's level loop (``TanhSinh.sum_next`` arithmetic,
``estimate_error``, 20 guard bits, at most 8 levels) and stops at its own
level: at mpmath's eps/8 target, or as soon as it holds p+10 digits of its
scale by both mpmath's estimate and the last level step. The scale is
max(|S_k|, A_k), A_k being the level sums of the absolute node values,
about the integral of |integrand|: the condition number of a sum is
sum |x_i| / |sum x_i| (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., 4.2). A_k equals |S_k| bit for bit when the
integrand is one-signed, and is not summed then; complex entries take
|S_k|. So every value and reported error estimate of a one-signed entry
equals, to the p digits returned, what a separate
``quadts(..., error=True, maxdegree=8)`` call gives for that entry; an
entry that cancels, such as <x^k f[P]> for k >= 1, stops within
10^-(p+10) of its integrand's scale, not of its own small value.

Integration runs at 2p+10 digits internally and returns values at p.
Reported error estimates are floored at the cancellation limit of the
working precision, since the level-difference estimate alone cannot see
systematic endpoint error.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath.libmp import mpc_mul, mpc_mul_mpf, mpf_mul, mpf_sum

from .errors import IntegrabilityError, QuadratureError
from .numeric import Scalar, _fraction_mpf, mp_context, tolerance
from . import expressions as ex

_MAX_DEGREE = 8
_GUARD_BITS = 20  # what quadts adds to the working precision while summing
_KEPT_DIGITS = 10  # an entry may stop once it holds p + this many digits
_EVAL_ERRORS = (ZeroDivisionError, ValueError, OverflowError)


def working_context(p):
    """The mpmath context integrands are evaluated in for a p-digit result."""
    return mp_context(2 * p + 10)


def _error_floor(mp, working_dps):
    return mp.mpf(10) ** (-(working_dps // 2 - 4))


def integrate_expression(tree, interval, context, factors=((0, 0),), *, shared=None,
                         endpoint_exponents=(0, 0), wrap_error=None, memo=None):
    """Integrate the expression tree times each factor over the interval.

    Each factor is a pair (k, j) of non-negative integers standing for the
    multiplier ``shared(x)^k * x^j``; (0, 0) is the tree alone. ``shared`` is
    an expression tree, or a callable compiled against ``working_context(p)``;
    it is evaluated at most once per node, and only for entries with k >= 1.

    ``memo`` is a dict the caller owns (``Weight.nodes``). The node data of
    this tree, interval and precision are read from it, or evaluated once
    and stored there, so later calls with the same memo do not evaluate the
    tree again. The node set keeps every finished entry too, under the text
    of a ``shared`` tree (no text for k = 0) and (k, j), so a later call
    sums it no more; the entries of a callable ``shared`` belong to the call.

    Returns one (value, error_estimate) pair of Scalars at the context
    precision per factor, each equal to the p digits a separate ``quadts``
    call gives for that entry. The target is 10^(10-p). Raises QuadratureError
    when an estimate exceeds the target times max(1, |integral|) or evaluation
    fails, and IntegrabilityError when an integral is not finite, or is above
    10^min(30, p//2) and its last level step still exceeds the target relative
    to it. Of several failing entries the lowest index is raised, as a loop
    over the entries would; ``wrap_error(index, exc)`` replaces a
    QuadratureError when given. A failing entry is never kept.
    """
    p = context.precision
    work = working_context(p)
    description = ex.to_text(tree)
    # the tree's text, interval and exponents are in the key too, so a memo
    # shared by a weight copied with another body (dataclasses.replace) stays right
    key = (p, description, interval, tuple(endpoint_exponents))
    node_set = memo.get(key) if memo is not None else None
    if node_set is None:
        node_set = _NodeSet(tree, _split_pieces(interval, endpoint_exponents, work), work)
        if memo is not None:
            memo[key] = node_set
    kept = node_set.entries
    text = None if shared is None or callable(shared) else ex.to_text(shared)
    # an entry's key; shared is not read for k = 0, and a callable has no text
    keys = [None if k and text is None else (text if k else None, k, j) for k, j in factors]
    todo = [i for i, entry in enumerate(keys) if entry not in kept]
    if text is not None and todo:
        shared = ex.compile_float(shared, work)
    keep = work.mpf(10) ** -(p + _KEPT_DIGITS)
    totals = {i: work.mpf(0) for i in todo}
    ests = dict(totals)
    steps = dict(totals)
    failed = None  # (index, exception) of the lowest-index failure so far
    for piece in range(len(node_set.pieces)):
        live = todo if failed is None else [i for i in todo if i < failed[0]]
        results, failure = _tanh_sinh(node_set, piece, [factors[i] for i in live], shared,
                                      work, keep)
        if failure is not None:
            index, exc = failure
            failed = (live[index], _evaluation_error(description, exc))
        for i, (value, err, step) in zip(live, results):
            if not work.isfinite(abs(value)):
                failed = (i, IntegrabilityError(f"integral of {description} is not finite"))
                break
            totals[i] += value
            ests[i] += abs(err)
            steps[i] += step

    floor = _error_floor(work, work.dps)
    ceiling = work.mpf(10) ** min(30, p // 2)
    target = work.convert(tolerance(context, 10))
    out = []
    for i in range(len(factors) if failed is None else failed[0]):
        if keys[i] in kept:
            out.append(kept[keys[i]])
            continue
        est = max(ests[i], floor)
        mag = abs(totals[i])
        if mag > ceiling and steps[i] > target * mag:
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
        if keys[i] is not None:
            kept[keys[i]] = out[-1]
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


class _NodeSet:
    """One tree's node data on one interval at one working precision.

    ``pieces`` are the finite pieces of the interval (_split_pieces);
    ``level(piece, degree, prec)`` gives that tanh-sinh level's _Nodes,
    evaluating the tree on them the first time it is asked for. ``entries``
    maps an entry's key (integrate_expression) to its finished (value,
    error estimate). A memo keeps the set for every later integral of the
    same weight.
    """

    def __init__(self, tree, pieces, work):
        self.tree = tree
        self.pieces = pieces
        self.work = work
        self.weight = None  # the compiled tree, made when a level is first evaluated
        self.levels = {}
        self.entries = {}

    def level(self, piece, degree, prec):
        nodes = self.levels.get((piece, degree))
        if nodes is None:
            if self.weight is None:
                self.weight = ex.compile_float(self.tree, self.work)
            lo, hi, point = self.pieces[piece]
            rule = self.work._tanh_sinh
            nodes = _Nodes(rule.get_nodes(lo, hi, degree, prec), point, self.weight)
            self.levels[piece, degree] = nodes
        return nodes


class _Nodes:
    """One tanh-sinh level's weight data, shared by every entry and every call.

    Per node it holds the abscissa x (``xs``) and ``bases``, the node's
    quadrature weight times the weight's value and the change-of-variables
    factor. ``failure`` is what the node map or the weight raised at the
    first node it failed, without its traceback (which would keep the
    evaluating frames alive with the weight); the nodes before it are kept,
    so a later call fails at the same node with the same text. Everything
    is kept as raw mpf/mpc tuples, not mpf objects: thousands of live mpf
    objects stay tracked by the garbage collector and make it run full
    collections, raw tuples of ints do not. Nodes that round onto a
    regularized endpoint are left out: the integrand is 0 there and nothing
    is evaluated.
    """

    __slots__ = ("xs", "bases", "failure")

    def __init__(self, nodes, point, weight):
        self.xs, self.bases = [], []
        self.failure = None
        for u, node_weight in nodes:
            try:
                x, jacobian = (u, None) if point is None else point(u)
                if x is None:
                    continue
                base = weight(x) * node_weight
                if jacobian is not None:
                    base *= jacobian
            except _EVAL_ERRORS as exc:
                self.failure = exc.with_traceback(None)
                break
            self.xs.append(x._mpf_)
            self.bases.append(_raw(base))


class _Level:
    """One call's view of a level: the shared _Nodes, and the running products
    ``scaled[k]`` = base times s^k and ``powers[j-1]`` = x^j per node, each
    extended when an entry first needs it; s = shared(x) is evaluated then,
    once per node. The products are cheap next to the weight, and kept only
    for the call, so a weight's node set holds two values per node."""

    def __init__(self, work, nodes, shared):
        self.work = work
        self.nodes = nodes
        self.shared = shared
        self.failure = nodes.failure
        self.scaled = [nodes.bases]
        self.powers = [nodes.xs]
        self.shared_values = None

    def power(self, j, prec):
        """x^j per node."""
        powers, xs = self.powers, self.nodes.xs
        while len(powers) < j:
            powers.append([mpf_mul(a, x, prec, "n") for a, x in zip(powers[-1], xs)])
        return powers[j - 1]

    def sum(self, k, j):
        """The entry's node sum, what sum_next's ``fdot`` gives on this level,
        and the sum of the absolute node values: None for a complex sum, and
        |sum| itself, with no second sum, when the values are one-signed."""
        work = self.work
        prec = work.prec
        scaled = self.scaled
        if len(scaled) <= k:
            s = self.shared_values
            if s is None:
                make = work.make_mpf
                s = self.shared_values = [_raw(self.shared(make(x))) for x in self.nodes.xs]
            while len(scaled) <= k:
                scaled.append([_mul(a, b, prec) for a, b in zip(scaled[-1], s)])
        values = scaled[k]
        if j:  # x^j is real: _mul without its type dispatch
            values = [mpf_mul(v, x, prec, "n") if len(v) == 4 else mpc_mul_mpf(v, x, prec, "n")
                      for v, x in zip(values, self.power(j, prec))]
        if any(len(v) == 2 for v in values):
            real = [v[0] if len(v) == 2 else v for v in values]
            imag = [v[1] for v in values if len(v) == 2]
            return work.make_mpc((mpf_sum(real, prec, "n"), mpf_sum(imag, prec, "n"))), None
        total = work.make_mpf(mpf_sum(values, prec, "n"))
        sign = values[0][0] if values else 0
        if all(v[0] == sign for v in values):
            return total, abs(total)
        return total, work.make_mpf(mpf_sum(values, prec, "n", True))


def _raw(value):
    return value._mpf_ if hasattr(value, "_mpf_") else value._mpc_


def _mul(a, b, prec):
    """Product of raw mpf (4-tuple) or mpc (pair) values, rounded to prec bits."""
    if len(a) == 2:
        return mpc_mul(a, b, prec, "n") if len(b) == 2 else mpc_mul_mpf(a, b, prec, "n")
    if len(b) == 2:
        return mpc_mul_mpf(b, a, prec, "n")
    return mpf_mul(a, b, prec, "n")


def _tanh_sinh(node_set, piece, factors, shared, work, keep):
    """quadts' level loop on one finite piece of the node set for every (k, j)
    entry at once.

    Returns ([(value, err, step), ...], failure): one triple for each entry
    below the failing one, step being |S_k - S_(k-1)| at its last level k,
    and failure = (index, exception) or None. An entry stops at mpmath's
    eps/8 target, or once its estimate is within ``keep`` of its scale and
    its squared step within ``keep`` of the scale squared: tanh-sinh roughly
    doubles the correct digits per level, so S_k then holds -log10(keep)
    digits of the scale. The scale of a real entry is max(|S_k|, A_k), A_k
    being the same level sums of the absolute node values, about the
    integral of |integrand|; it is |S_k| for a one-signed entry, bit for bit,
    and for a complex one. Entries run in index order on each level, so the
    first to fail is the one a loop over separate quadts calls would have
    reached first; a failure of the node map or the weight belongs to the
    lowest-index entry still active.
    """
    rule = work._tanh_sinh
    prec = work.prec
    epsilon = work.eps / 8
    levels = [[] for _ in factors]  # per entry: the level sums so far
    sizes = [[] for _ in factors]  # per entry: the sums A_k, None once a sum is complex
    errs = [work.zero] * len(factors)
    active = list(range(len(factors)))
    failure = None
    work.prec = prec + _GUARD_BITS
    try:
        for degree in range(1, _MAX_DEGREE + 1):
            level = _Level(work, node_set.level(piece, degree, prec), shared)
            h = work.mpf(2) ** (-degree)
            still = []
            for i in active:
                try:
                    new, absolute = level.sum(*factors[i])
                except _EVAL_ERRORS as exc:
                    failure = (i, exc)
                    break
                if level.failure is not None:
                    failure = (i, level.failure)
                    break
                results = levels[i]
                results.append(_next_sum(results, new, h, work))
                if absolute is None:
                    sizes[i] = None  # a complex entry keeps the |S_k| scale
                sums = sizes[i]
                if sums is not None:
                    sums.append(_next_sum(sums, absolute, h, work))
                if degree > 1:
                    errs[i] = rule.estimate_error(results, prec, epsilon)
                    scale = abs(results[-1]) if sums is None else max(abs(results[-1]), sums[-1])
                    if errs[i] <= epsilon or _holds_digits(results, errs[i], keep, scale):
                        continue
                still.append(i)
            active = still
            if not active:
                break
    finally:
        work.prec = prec
    done = len(factors) if failure is None else failure[0]
    out = []
    for results, err in zip(levels[:done], errs):
        step = results[-1] - (results[-2] if len(results) > 1 else 0)
        out.append((+results[-1], err, abs(step)))
    return out, failure


def _next_sum(sums, new, h, work):
    """TanhSinh.sum_next: the previous level's sum plus this level's new nodes."""
    S = sums[-1] / (h * 2) if sums else work.zero
    S += new
    return h * S


def _holds_digits(results, err, keep, scale):
    """Whether the last level sum holds -log10(keep) correct digits of scale."""
    return err <= keep * scale and abs(results[-1] - results[-2]) ** 2 <= keep * scale**2


def _round_to(value, context):
    mp = context.mp
    if hasattr(value, "imag") and value.imag != 0:
        return Scalar(mp.mpc(value.real, value.imag), context.precision)
    real = value.real if hasattr(value, "real") else value
    return Scalar(mp.mpf(real), context.precision)


# A piece is (lo, hi, point): tanh-sinh runs on [lo, hi]; point(u) gives
# (x, dx/du) with x the weight's argument, or (None, None) where the
# integrand is 0. point None means x = u.


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
        a = _fraction_mpf(work, interval.alpha)
        if exp_a < 0:
            mid = a + 1
            return (_finite_pieces(a, mid, exp_a, Fraction(0), work)
                    + [_semi_infinite(mid, work, negative=False)])
        return [_semi_infinite(a, work, negative=False)]

    if not interval.alpha_finite:
        b = _fraction_mpf(work, interval.beta)
        if exp_b < 0:
            mid = b - 1
            return (_finite_pieces(mid, b, Fraction(0), exp_b, work)
                    + [_semi_infinite(mid, work, negative=True)])
        return [_semi_infinite(b, work, negative=True)]

    a = _fraction_mpf(work, interval.alpha)
    b = _fraction_mpf(work, interval.beta)
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
        return [(a, b, None)]
    m = max(2, (exp_a if sing_a else exp_b).denominator)
    end = a if sing_a else b

    def point(u):
        x = end + u**m if sing_a else end - u**m
        if x == end:
            # u^m rounded away against the endpoint: the tanh-sinh weight
            # there is below working resolution, so the contribution is negligible
            return None, None
        return x, m * u ** (m - 1)

    return [(work.mpf(0), work.root(b - a, m), point)]


def _semi_infinite(anchor, work, *, negative):
    # x = anchor +/- t/(1-t), t in (0,1)
    def point(t):
        one_minus = 1 - t
        x = anchor - t / one_minus if negative else anchor + t / one_minus
        return x, 1 / one_minus**2

    return (work.mpf(0), work.mpf(1), point)
