"""Shared-node quadrature against one ``quadts`` call per entry.

The reference below integrates each entry on its own, the way the package
did before the nodes were shared: a tree walk per node, closures for the
endpoint substitutions, and ``work.quadts(..., error=True, maxdegree=8)``
per piece. The shared-node integrator runs mpmath's level loop per entry on
the same nodes, stopping once an entry holds the p digits it returns, so
values and error estimates must be equal at those p digits.
"""

from __future__ import annotations

import dataclasses
import math
import types
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from orthoieq import (
    Functional,
    IntegrabilityError,
    Interval,
    NormalizationError,
    Polynomial,
    PrecisionContext,
    QuadratureError,
    Scalar,
    check_arbitrary_f,
    generalized_moments,
    moments,
    normalize,
    parse_weight,
    preset_weight,
    solve_functional,
    verify,
)
from orthoieq import expressions as ex
from orthoieq import quadrature
from orthoieq.quadrature import integrate_expression, working_context

# ---------------------------------------------------------------------------
# reference: one quadts call per entry and piece


def _walk(node, x, mp):
    if isinstance(node, ex.Num):
        return mp.mpf(node.value.numerator) / node.value.denominator
    if isinstance(node, ex.Pi):
        return mp.pi
    if isinstance(node, ex.Var):
        return x
    if isinstance(node, ex.Neg):
        return -_walk(node.operand, x, mp)
    if isinstance(node, ex.BinOp):
        a = _walk(node.left, x, mp)
        b = _walk(node.right, x, mp)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            return a / b
        if isinstance(node.right, ex.Num) and node.right.value.denominator == 1:
            return a ** int(node.right.value)
        return a**b
    return getattr(mp, node.func)(_walk(node.arg, x, mp))


def _to_mpf(value, work):
    if isinstance(value, Fraction):
        return work.mpf(value.numerator) / value.denominator
    return work.convert(value)


def _semi(f, anchor, negative):
    def g(t):
        one_minus = 1 - t
        x = anchor - t / one_minus if negative else anchor + t / one_minus
        return f(x) / one_minus**2

    return g


def _finite(f, a, b, exp_a, exp_b, work):
    if exp_a < 0 and exp_b < 0:
        mid = (a + b) / 2
        return _finite(f, a, mid, exp_a, 0, work) + _finite(f, mid, b, 0, exp_b, work)
    if exp_a < 0 or exp_b < 0:
        m = max(2, Fraction(exp_a if exp_a < 0 else exp_b).denominator)
        end = a if exp_a < 0 else b

        def g(u):
            x = end + u**m if exp_a < 0 else end - u**m
            if x == end:
                return 0
            return f(x) * m * u ** (m - 1)

        return [(g, work.mpf(0), work.root(b - a, m))]
    return [(f, a, b)]


def _pieces(f, interval, exponents, work):
    exp_a, exp_b = (Fraction(e) for e in exponents)
    zero, one = work.mpf(0), work.mpf(1)
    if not interval.alpha_finite and not interval.beta_finite:
        return [(_semi(f, zero, True), zero, one), (_semi(f, zero, False), zero, one)]
    if not interval.beta_finite:
        a = _to_mpf(interval.alpha, work)
        if exp_a < 0:
            return _finite(f, a, a + 1, exp_a, 0, work) + [(_semi(f, a + 1, False), zero, one)]
        return [(_semi(f, a, False), zero, one)]
    if not interval.alpha_finite:
        b = _to_mpf(interval.beta, work)
        if exp_b < 0:
            return _finite(f, b - 1, b, 0, exp_b, work) + [(_semi(f, b - 1, True), zero, one)]
        return [(_semi(f, b, True), zero, one)]
    return _finite(f, _to_mpf(interval.alpha, work), _to_mpf(interval.beta, work),
                   exp_a, exp_b, work)


def reference_entries(tree, interval, context, extras, exponents):
    """(value, estimate) per extra factor, each from its own quadts calls."""
    work = working_context(context.precision)
    out = []
    for extra in extras:
        if extra is None:
            def f(x):
                return _walk(tree, x, work)
        else:
            def f(x, extra=extra):
                return _walk(tree, x, work) * extra(x)
        total = work.mpf(0)
        est = work.mpf(0)
        for g, a, b in _pieces(f, interval, exponents, work):
            value, err = work.quadts(g, [a, b], error=True, maxdegree=8)
            total += value
            est += abs(err)
        est = max(est, work.mpf(10) ** (-(work.dps // 2 - 4)))
        out.append((_round(total, context), _round(est, context)))
    return out


def _round(value, context):
    mp = context.mp
    if hasattr(value, "imag") and value.imag != 0:
        return Scalar(mp.mpc(value.real, value.imag), context.precision)
    return Scalar(mp.mpf(value.real), context.precision)


# ---------------------------------------------------------------------------
# equality with the reference


PRECISIONS = [30, 50, 70]

WEIGHTS = [
    ("x^(-1/2)*(1-x)^(-1/3)", Interval(0, 1), 4),  # both endpoints regularized
    ("x^(3/2)*(1-x)", Interval(0, 1), 4),
    ("exp(-x)*(1+x)", Interval(0, "inf"), 4),
    ("exp(x)", Interval("-inf", 0), 3),
    ("(1-x)^(-1/2)*exp(x)", Interval("-inf", 1), 3),
    ("exp(-(x^2))", Interval("-inf", "inf"), 3),
]


def _same(got, want):
    assert [(v.value, e.value) for v, e in got] == [(v.value, e.value) for v, e in want]


@pytest.mark.parametrize("p", PRECISIONS)
@pytest.mark.parametrize("text,interval,count", WEIGHTS)
def test_moment_entries_equal_per_entry_quadts(text, interval, count, p):
    ctx = PrecisionContext(p)
    w = parse_weight(text, interval)
    tree = w.expression()
    got = integrate_expression(tree, interval, ctx, [(0, n) for n in range(count)],
                               endpoint_exponents=w.endpoint_exponents)
    want = reference_entries(tree, interval, ctx,
                             [None] + [lambda x, n=n: x**n for n in range(1, count)],
                             w.endpoint_exponents)
    _same(got, want)
    # the public path divides by the normalization and nothing else
    wn = normalize(w, ctx)
    norm = wn.normalization.value
    m = moments(wn, count, context=ctx)
    assert [v.value for v in m.values] == [raw.value / norm for raw, _ in want]
    assert [e.value for e in m.error_estimates] == [err.value / abs(norm) for _, err in want]


@pytest.mark.parametrize("p", PRECISIONS)
def test_sqrt_table_on_the_line_equals_per_entry_quadts(p):
    # sqrt(x) is complex on the negative half-line, so these entries are mpc
    ctx = PrecisionContext(p)
    w = normalize(parse_weight("exp(-(x^2))", Interval("-inf", "inf")), ctx)
    f = ex.parse_expression("sqrt(x)")
    work = working_context(p)
    extras = [lambda x, k=k, j=j: (_walk(f, x, work) ** k if k else 1) * (x**j if j else 1)
              for k in range(2) for j in range(2)]
    want = reference_entries(w.expression(), w.interval, ctx, extras, w.endpoint_exponents)
    table = generalized_moments(w, f, 1, 1, context=ctx)
    got = [entry.value for row in table for entry in row]
    assert any(ctx.mp.im(v) != 0 for v in got)
    assert got == [raw.value / w.normalization.value for raw, _ in want]


@pytest.mark.parametrize("p", PRECISIONS)
def test_arbitrary_f_values_equal_per_entry_quadts(p):
    ctx = PrecisionContext(p)
    w = normalize(parse_weight("x^(3/2)*(1-x)", Interval(0, 1)), ctx)
    f = ex.parse_expression("(x^3+x)/(x^2+1)")
    P = Polynomial([ctx.scalar(Fraction(3, 7)), ctx.scalar(Fraction(-5, 3)),
                    ctx.scalar(Fraction(11, 9))])
    work = working_context(p)

    def f_of_p(x):
        acc = work.convert(P.coeffs[-1].value)
        for c in reversed(P.coeffs[:-1]):
            acc = acc * x + work.convert(c.value)
        return _walk(f, acc, work)

    extras = [lambda x, j=j: f_of_p(x) * x**j if j else f_of_p(x) for j in range(3)]
    want = reference_entries(w.expression(), w.interval, ctx, extras, w.endpoint_exponents)
    report = check_arbitrary_f(P, f, w, 2, context=ctx)
    assert [v.value for v in report.values] == [raw.value / w.normalization.value
                                                for raw, _ in want]


# ---------------------------------------------------------------------------
# stopping: at the digits the result keeps, not at the working precision


def _count_weight_evaluations(monkeypatch, text):
    """Patch the integrator's compile step; the returned list's one entry
    counts the evaluations of the compiled weight ``text`` from then on (the
    integrator compiles a shared f through the same step)."""
    count = [0]
    body = ex.to_text(ex.parse_expression(text))

    def counting_compile(tree, mp):
        weight = ex.compile_float(tree, mp)
        if ex.to_text(tree) != body:
            return weight

        def counted(x):
            count[0] += 1
            return weight(x)

        return counted

    monkeypatch.setattr(quadrature, "ex",
                        types.SimpleNamespace(**{**vars(ex), "compile_float": counting_compile}))
    return count


def test_entries_stop_once_they_hold_the_returned_digits(ctx50, monkeypatch):
    # every entry holds p+10 digits at level 7 (1311 nodes on the half line);
    # running on to mpmath's eps/8 target would take level 8, 2623 nodes.
    # normalize evaluates those levels and moments reuses them.
    nodes = _count_weight_evaluations(monkeypatch, "exp(-x)*(1+x)")
    w = normalize(parse_weight("exp(-x)*(1+x)", Interval(0, "inf")), ctx50)
    m = moments(w, 9, context=ctx50)
    assert 0 < nodes[0] <= 1311
    for n in range(9):  # m_n = n! (n+2) / 2
        assert abs(m[n].value - ctx50.mp.mpf(math.factorial(n) * (n + 2)) / 2) \
            <= m.error_estimates[n].value


def test_large_convergent_moment_is_not_called_divergent(ctx50):
    # the raw integral 24! * 26 ~ 1.6e25 is above the 10^25 size ceiling at
    # p = 50, but its last level step is far below the target
    w = normalize(parse_weight("exp(-x)*(1+x)", Interval(0, "inf")), ctx50)
    m = moments(w, 25, context=ctx50)
    exact = Fraction(math.factorial(24) * 26, 2)  # m_n = n! (n+2) / 2 = 24! * 13
    value = ctx50.mp.mpf(exact.numerator) / exact.denominator
    assert abs(m[24].value - value) <= m.error_estimates[24].value


# ---------------------------------------------------------------------------
# failures: the first failing entry in index order, with its own message


def _unit_mass(text, interval):
    """A weight marked normalized without integrating it, to reach moments()."""
    return dataclasses.replace(parse_weight(text, interval), normalization=Scalar.exact(1))


def test_evaluation_failure_names_the_first_entry(ctx50):
    # the midpoint node of (0, 1) is exactly 1/2
    w = _unit_mass("1/(x-1/2)", Interval(0, 1))
    with pytest.raises(QuadratureError) as err:
        moments(w, 4, context=ctx50)
    assert err.value.worst_index == 0
    assert str(err.value).startswith("moment m_0 of")
    # an exception with empty text is reported by its class name
    assert str(err.value).endswith("integration of 1/(x-(1/2)) failed: ZeroDivisionError")


def test_shared_failure_belongs_to_the_first_entry_using_it(ctx50):
    # x = u^2 puts the midpoint node on 1/4, where f divides by zero; the
    # k = 0 entries never evaluate f, so the first failure is <f^1 x^0>
    w = normalize(parse_weight("x^(-1/2)", Interval(0, 1)), ctx50)
    with pytest.raises(QuadratureError) as err:
        generalized_moments(w, "1/(x-1/4)", 1, 1, context=ctx50)
    assert err.value.worst_index == (1, 0)
    assert str(err.value).startswith("generalized moment <f^1 x^0> of")


def test_missed_target_names_the_first_entry(ctx50):
    w = _unit_mass("(1+x)^(-1)", Interval(0, "inf"))
    with pytest.raises(QuadratureError) as err:
        moments(w, 3, context=ctx50)
    assert err.value.worst_index == 0
    assert str(err.value) == (
        "moment m_0 of expr[(1+x)^(-1) on (0, inf)]: integration of (1+x)^(-1) "
        "reached estimate 1.0, target 1.0e-40"
    )


def test_divergent_and_zero_integrals_keep_their_errors(ctx50):
    with pytest.raises(IntegrabilityError) as err:
        normalize(parse_weight("exp(x)", Interval(0, "inf")), ctx50)
    assert str(err.value).startswith("integral of exp(x) appears divergent (magnitude 2.4124e+")
    with pytest.raises(NormalizationError) as err:
        normalize(parse_weight("x", Interval(-1, 1)), ctx50)
    assert str(err.value) == (
        "integral of expr[x on (-1, 1)] is numerically indistinguishable from zero"
    )


# ---------------------------------------------------------------------------
# one node set per weight and precision, kept on the weight


def _functional_pipeline(weight, ctx, count, n):
    """Every table of the functional sqrt(x) form, each on the normalized
    weight ``weight()`` gives."""
    m = moments(weight(), count, context=ctx)
    table = generalized_moments(weight(), "sqrt(x)", n, n, context=ctx)
    P = solve_functional(weight(), "sqrt(x)", n, context=ctx)
    report = verify(P, weight(), Functional("sqrt(x)"), context=ctx)
    arbitrary = check_arbitrary_f(P, "(x^3+x)/(x^2+1)", weight(), n, context=ctx)
    return (
        [(v.value, e.value) for v, e in zip(m.values, m.error_estimates)],
        [[entry.value for entry in row] for row in table],
        [c.value for c in P.coeffs],
        [r.value for r in report.residuals],
        [v.value for v in arbitrary.values],
    )


@pytest.mark.parametrize("text,interval,count,n,solved,checked", [
    # levels 1..7 of one piece, 1311 nodes, serve every table
    ("exp(-x)*(1+x)", Interval(0, "inf"), 9, 1, 1311, 1311),
    # levels 1..6, 327 nodes, serve every table too: the <x^k f[P]> rows of
    # check_arbitrary_f cancel, and stop at their integrand's scale by level 6
    ("x^(3/2)*(1-x)", Interval(0, 1), 21, 2, 327, 327),
])
def test_one_weight_evaluates_each_node_once(text, interval, count, n, solved, checked,
                                             ctx50, monkeypatch):
    # normalize, the plain moments, the sqrt(x) table, solve_functional and
    # its verify, then check_arbitrary_f: each integral of w reuses the nodes
    nodes = _count_weight_evaluations(monkeypatch, text)
    w = normalize(parse_weight(text, interval), ctx50)
    moments(w, count, context=ctx50)
    generalized_moments(w, "sqrt(x)", n, n, context=ctx50)
    P = solve_functional(w, "sqrt(x)", n, context=ctx50)
    verify(P, w, Functional("sqrt(x)"), context=ctx50)
    assert nodes[0] == solved
    check_arbitrary_f(P, "(x^3+x)/(x^2+1)", w, n, context=ctx50)
    assert nodes[0] == checked


def _fresh(text, interval, ctx):
    return normalize(parse_weight(text, interval), ctx)


@pytest.mark.parametrize("text,interval,count,n", [
    ("exp(-x)*(1+x)", Interval(0, "inf"), 9, 1),  # the half line
    ("x^(-1/2)*(1-x)^(1/3)", Interval(0, 1), 7, 1),  # a regularized endpoint
    ("exp(-(x^2))", Interval("-inf", "inf"), 5, 1),  # two pieces; sqrt(x) is complex
])
def test_reused_nodes_give_the_bits_of_a_fresh_weight(text, interval, count, n, ctx50):
    w = _fresh(text, interval, ctx50)
    shared = _functional_pipeline(lambda: w, ctx50, count, n)
    assert len(w.nodes) == 1
    # every table on a weight of its own, whose node set is new
    assert shared == _functional_pipeline(lambda: _fresh(text, interval, ctx50), ctx50, count, n)
    assert shared == _functional_pipeline(lambda: w, ctx50, count, n)
    # the node set keeps the plain and sqrt(x) entries, and no f[P] row,
    # whose shared function belongs to its call
    [node_set] = w.nodes.values()
    assert set(node_set.entries) == ({(None, 0, j) for j in range(max(count, n + 1))}
                                     | {("sqrt(x)", k, j) for k in range(1, n + 1)
                                        for j in range(n + 1)})
    node_set.entries.clear()  # kept entries are the bits of entries summed again
    assert shared == _functional_pipeline(lambda: w, ctx50, count, n)
    longer = moments(w, count + 3, context=ctx50)
    want = moments(_fresh(text, interval, ctx50), count + 3, context=ctx50)
    assert longer.values == want.values
    assert longer.error_estimates == want.error_estimates


def test_preset_quadrature_reuses_its_nodes(ctx50):
    w = preset_weight("jacobi-add", p=3, q=2)
    first = moments(w, 9, context=ctx50, method="quadrature")
    table = generalized_moments(w, "sqrt(x)", 1, 1, context=ctx50)
    longer = moments(w, 11, context=ctx50, method="quadrature")
    assert w.nodes  # the re-parsed raw body keys on the weight's own node set

    def fresh():
        return preset_weight("jacobi-add", p=3, q=2)

    assert first == moments(fresh(), 9, context=ctx50, method="quadrature")
    assert table == generalized_moments(fresh(), "sqrt(x)", 1, 1, context=ctx50)
    assert longer == moments(fresh(), 11, context=ctx50, method="quadrature")
    assert longer.error_estimates == moments(fresh(), 11, context=ctx50,
                                             method="quadrature").error_estimates


def test_one_weight_at_two_precisions_matches_fresh_weights():
    raw = parse_weight("exp(-x)*(1+x)", Interval(0, "inf"))
    for p in (30, 50):
        ctx = PrecisionContext(p)
        w = normalize(raw, ctx)
        assert w.nodes is raw.nodes
        got = moments(w, 7, context=ctx)
        want = moments(_fresh("exp(-x)*(1+x)", Interval(0, "inf"), ctx), 7, context=ctx)
        assert (got.values, got.error_estimates) == (want.values, want.error_estimates)
    assert len(raw.nodes) == 2


def _error_text(call):
    with pytest.raises(Exception) as err:
        call()
    return type(err.value), str(err.value), getattr(err.value, "worst_index", None)


def _moments(w, ctx):
    return moments(dataclasses.replace(w, normalization=Scalar.exact(1)), 4, context=ctx)


@pytest.mark.parametrize("call,text,interval,ending,index", [
    (normalize, "exp(x)", Interval(0, "inf"), "appears divergent", None),
    (normalize, "(1+x)^(-1)", Interval(0, "inf"), "reached estimate 1.0, target 1.0e-40", None),
    # m_0 = pi/2 converges, m_1 does not
    (_moments, "1/(1+x^2)", Interval(0, "inf"), "reached estimate 1.0, target 1.0e-40", 1),
    (_moments, "1/(x-1/2)", Interval(0, 1), "failed: ZeroDivisionError", 0),
])
def test_repeated_failures_keep_their_text(call, text, interval, ending, index, ctx50):
    # the moments replace() shares the parsed weight's node set, so the
    # second call replays the stored levels and their stored failure
    w = parse_weight(text, interval)
    fresh = _error_text(lambda: call(parse_weight(text, interval), ctx50))
    assert ending in fresh[1] and fresh[2] == index
    assert _error_text(lambda: call(w, ctx50)) == fresh
    assert _error_text(lambda: call(w, ctx50)) == fresh
    [node_set] = w.nodes.values()
    assert len(node_set.entries) == (index or 0)  # the entries before the failing one


def test_a_copy_with_another_body_shares_the_memo_not_the_nodes(ctx50):
    w = _fresh("exp(-x)*(1+x)", Interval(0, "inf"), ctx50)
    moments(w, 3, context=ctx50)
    other = dataclasses.replace(w, body=ex.parse_expression("exp(-x)"),
                                normalization=Scalar.exact(1))
    assert other.nodes is w.nodes
    got = moments(other, 3, context=ctx50)
    want = moments(_unit_mass("exp(-x)", Interval(0, "inf")), 3, context=ctx50)
    assert (got.values, got.error_estimates) == (want.values, want.error_estimates)
    assert len(w.nodes) == 2


def test_node_data_die_with_their_weight(ctx50):
    w = normalize(parse_weight("x^(3/2)*(1-x)", Interval(0, 1)), ctx50)
    generalized_moments(w, "sqrt(x)", 1, 1, context=ctx50)
    [node_set] = w.nodes.values()
    alive = weakref.ref(node_set)
    del node_set, w  # the parsed weight went with normalize's argument
    assert alive() is None  # freed at once: no reference cycle holds the nodes


# ---------------------------------------------------------------------------
# the stop scale: |S_k| for one-signed entries, the integrand's scale for
# cancelling ones


def _abs_rule_entries(w, ctx, factors, shared=None):
    """(value, estimate) per factor, and the levels each entry ran on all
    pieces, by the integrator's level loop with the rule that stops an entry
    once it holds p+10 digits of |S_k| alone, one entry at a time."""
    p = ctx.precision
    work = working_context(p)
    node_set = quadrature._NodeSet(w.expression(), quadrature._split_pieces(
        w.interval, w.endpoint_exponents, work), work)
    keep = work.mpf(10) ** -(p + 10)
    epsilon = work.eps / 8
    out, levels = [], []
    for k, j in factors:
        total, est, count = work.mpf(0), work.mpf(0), 0
        for piece in range(len(node_set.pieces)):
            prec = work.prec
            work.prec += quadrature._GUARD_BITS
            results, err = [], work.zero
            for degree in range(1, quadrature._MAX_DEGREE + 1):
                level = quadrature._Level(work, node_set.level(piece, degree, prec), shared)
                new, _absolute = level.sum(k, j)
                h = work.mpf(2) ** (-degree)
                S = results[-1] / (h * 2) if results else work.zero
                S += new
                results.append(h * S)
                count += 1
                if degree > 1:
                    err = work._tanh_sinh.estimate_error(results, prec, epsilon)
                    size = abs(results[-1])
                    if err <= epsilon or (err <= keep * size
                                          and abs(results[-1] - results[-2]) ** 2
                                          <= keep * size**2):
                        break
            work.prec = prec
            total += +results[-1]  # each piece rounded to the working precision
            est += abs(err)
        est = max(est, quadrature._error_floor(work, work.dps))
        out.append((quadrature._round_to(total, ctx), quadrature._round_to(est, ctx)))
        levels.append(count)
    return out, levels


def _count_sums(monkeypatch):
    """Patch _Level.sum; the returned Counter counts its calls per (k, j)."""
    calls = Counter()
    summed = quadrature._Level.sum

    def counted(self, k, j):
        calls[k, j] += 1
        return summed(self, k, j)

    monkeypatch.setattr(quadrature._Level, "sum", counted)
    return calls


@pytest.mark.parametrize("text,interval,count,n", [
    ("x^(3/2)*(1-x)", Interval(0, 1), 21, 2),
    ("exp(-x)*(1+x)", Interval(0, "inf"), 9, 1),
    ("exp(-(x^2))", Interval("-inf", "inf"), 5, 1),  # x^j is one-signed on each piece
])
def test_one_signed_entries_stop_where_the_abs_rule_stops(text, interval, count, n, ctx50,
                                                          monkeypatch):
    w = _fresh(text, interval, ctx50)
    plain = [(0, j) for j in range(count)]
    exp_table = [(k, j) for k in range(n + 1) for j in range(n + 1)]  # exp(x/3) > 0
    f = ex.parse_expression("exp(x/3)")
    for factors, tree in ((plain, None), (exp_table, f)):
        shared = None if tree is None else ex.compile_float(tree, working_context(50))
        want, levels = _abs_rule_entries(w, ctx50, factors, shared)
        calls = _count_sums(monkeypatch)
        got = integrate_expression(w.expression(), w.interval, ctx50, factors, shared=tree,
                                   endpoint_exponents=w.endpoint_exponents)
        _same(got, want)
        assert [calls[factor] for factor in factors] == levels
        monkeypatch.undo()


def test_cancelling_arbitrary_f_row_stops_at_its_integrand_scale(ctx50, monkeypatch):
    # the additive n = 1 solution of exp(-x)(1+x)/2 on the half line, whose
    # moments are 1, 3/2, 4: P = 16/7 - 6/7 x, so <x f[P]> = <x P> = 0
    text, interval = "exp(-x)*(1+x)", Interval(0, "inf")
    P = Polynomial([ctx50.scalar(Fraction(16, 7)), ctx50.scalar(Fraction(-6, 7))])
    f = "(x^3+x)/(x^2+1)"
    calls = _count_sums(monkeypatch)
    report = check_arbitrary_f(P, f, _fresh(text, interval, ctx50), 1, context=ctx50)
    # |S_7| is about 1e-61, below the 1e-60 the |S_k| rule would ask of it
    assert calls[1, 1] == 7
    monkeypatch.undo()
    ctx100 = PrecisionContext(100)
    precise = check_arbitrary_f(P, f, _fresh(text, interval, ctx100), 1, context=ctx100)
    mp = ctx100.mp
    coeffs = [mp.convert(c.value) for c in P.coeffs]
    for j, (got, want) in enumerate(zip(report.values, precise.values)):
        scale = mp.quad(lambda x: mp.exp(-x) * (1 + x) / 2 * abs(coeffs[0] + coeffs[1] * x)
                        * x**j, [0, mp.inf])
        assert abs(got.value - want.value) <= mp.mpf(10) ** -60 * scale
    assert report.passed


def test_functional_tables_sum_each_entry_once(ctx50, monkeypatch):
    w = _fresh("x^(3/2)*(1-x)", Interval(0, 1), ctx50)
    calls = _count_sums(monkeypatch)
    table = generalized_moments(w, "sqrt(x)", 2, 2, context=ctx50)
    summed = Counter(calls)
    # (0, 0) is normalize's entry, kept on the weight's node set
    assert set(summed) == {(k, j) for k in range(3) for j in range(3)} - {(0, 0)}
    P = solve_functional(w, "sqrt(x)", 2, context=ctx50)
    report = verify(P, w, Functional("sqrt(x)"), context=ctx50)
    assert calls == summed  # both read the kept table
    assert report.passed
    monkeypatch.undo()
    assert table == generalized_moments(_fresh("x^(3/2)*(1-x)", Interval(0, 1), ctx50),
                                        "sqrt(x)", 2, 2, context=ctx50)
