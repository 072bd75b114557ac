"""float-quadrature: in-process float mode at p=50, where tanh-sinh quadrature dominates.

Per pass, for three expression weights (a fractional endpoint exponent on
(0, 1), ``exp(-x)*(1+x)`` on (0, inf), ``exp(-(x^2))`` on the real line):
``normalize``, quadrature moments (checked against closed forms within
their own error estimates), ``generalized_moments`` with f = sqrt(x),
float solves from the quadrature moments with ``verify``,
``solve_functional`` with its ``verify``, and ``check_arbitrary_f``. Then
presets with ``method="quadrature"``, and float ladders 0..20 from
closed-form moments rounded to p. Every float solution is compared with the
exact one; every verdict is compared with the known truth.
"""

from __future__ import annotations

import random
from fractions import Fraction

import orthoieq as oq

import refs
from harness import require

PRECISION = 50
TRUTH_DIGITS = PRECISION // 2
"""A float solution with at least this many correct digits is correct: verify should pass it."""
WRONG_DIGITS = 10
"""Below this many correct digits a float output counts as a wrong result."""

SIZES = {
    "full": {"finite": 21, "half": 9, "line": 5, "gen_finite": (2, 2), "gen_other": (1, 0),
             "functional": (2, 1), "arbitrary_f": (2, 1), "preset_quad": (21, 11), "ladder": 20},
    "smoke": {"finite": 5, "half": 3, "line": 3, "gen_finite": (1, 1), "gen_other": (1, 0),
              "functional": (1, 1), "arbitrary_f": (1, 1), "preset_quad": (5, 3), "ladder": 4},
}
# Parameter families: the seed picks a member. Members cost the same
# quadrature work, lose similar digits and give the same verify verdicts.
EXPONENTS = [Fraction(3, 2), Fraction(5, 2)]
GAMMAS = [Fraction(3), Fraction(4)]
Q_ADD = [Fraction(11, 2), Fraction(13, 2)]  # p = q + 1
IDENTITY_F = "(x^3+x)/(x^2+1)"
"""Equals x everywhere but is not syntactically x, so check_arbitrary_f integrates it."""
SQRT_F = "sqrt(x)"


def params(seed: int) -> dict:
    rng = random.Random(seed)
    q_add = rng.choice(Q_ADD)
    return {
        "exponent": rng.choice(EXPONENTS),
        "gamma": rng.choice(GAMMAS),
        "jacobi": {"p": q_add + 1, "q": q_add},
        "sample_seed": rng.randrange(2**31),
        "corrupt_seed": rng.randrange(2**31),
    }


def finite_text(a: Fraction) -> str:
    return f"x^({a.numerator}/{a.denominator})*(1-x)"


def gaussian_power_moment(s: Fraction):
    """<x^s> for exp(-x^2)/sqrt(pi) on the real line, principal branch of x^s."""
    R = refs.REF
    s = R.mpf(s.numerator) / s.denominator
    return (1 + R.expjpi(s)) * R.gamma((s + 1) / 2) / (2 * R.sqrt(R.pi))


class Workload:
    def __init__(self, seed: int, size: str = "full"):
        self.p = params(seed)
        self.size = s = SIZES[size]
        self.ctx = oq.with_precision(PRECISION)
        self.rng = random.Random(self.p["corrupt_seed"])
        a = self.p["exponent"]
        # (label, text, interval, moment count, exact <x^s>, (kmax, jmax) of the sqrt(x) table)
        self.expr = [
            ("finite", finite_text(a), oq.Interval(0, 1), s["finite"],
             lambda t, a=a: refs.to_ref(refs.beta_power_moment(a, t)), s["gen_finite"]),
            ("half-line", "exp(-x)*(1+x)", oq.Interval(0, "inf"), s["half"],
             refs.laguerre_plus_moment, s["gen_other"]),
            ("line", "exp(-(x^2))", oq.Interval("-inf", "inf"), s["line"],
             gaussian_power_moment, s["gen_other"]),
        ]
        self.exact = {}
        for label, _text, _iv, count, moment, _g in self.expr:
            if label == "line":
                self.exact[label] = refs.gaussian_moments(count)
            elif label == "finite":
                self.exact[label] = [refs.beta_power_moment(a, Fraction(n)) for n in range(count)]
            else:
                self.exact[label] = [Fraction(refs.rising(Fraction(1), n) * (n + 2), 2)
                                     for n in range(count)]
        top = s["ladder"]
        self.presets = {
            "jacobi-add": self.p["jacobi"], "chebyshev-u2-add": {},
            "laguerre": {"gamma": self.p["gamma"]}, "uniform-symmetric": {},
        }
        for name, kw in self.presets.items():
            self.exact[name] = refs.preset_moments(name, kw, max(2 * top + 1, *s["preset_quad"]))
        # exact solutions, reference functional solutions and the verdict inputs, once per run
        self.solutions = {label: [refs.hankel_solution(m, n) for n in range((len(m) + 1) // 2)]
                          for label, m in self.exact.items()}
        self.functional_refs = {}
        self.arbitrary_inputs = {}
        for label, _text, _iv, _count, moment, _g in self.expr[:2]:
            n = s["functional"][0 if label == "finite" else 1]
            table = [[moment(Fraction(k, 2) + j) for j in range(n + 1)] for k in range(n + 1)]
            R = refs.REF
            sol = R.lu_solve(R.matrix(table), R.matrix([1] + [0] * n))
            self.functional_refs[label] = (n, [sol[i] for i in range(n + 1)])
            n = s["arbitrary_f"][0 if label == "finite" else 1]
            exact = self.solutions[label][n]
            index = self.rng.randrange(n + 1)
            self.arbitrary_inputs[label] = (n, self._rounded(exact),
                                            self._rounded(refs.corrupted(exact, index)))
        self.per_pass_ops = None

    def _rounded(self, exact):
        return oq.Polynomial([self.ctx.scalar(c) for c in exact])

    def setup_code(self) -> str:
        """What a fresh interpreter runs for setup_s: import, weights, context, first moments."""
        p = self.p
        return (
            "import orthoieq as oq\n"
            f"ctx = oq.with_precision({PRECISION})\n"
            f"w1 = oq.parse_weight({finite_text(p['exponent'])!r}, oq.Interval(0, 1))\n"
            "w2 = oq.parse_weight('exp(-x)*(1+x)', oq.Interval(0, 'inf'))\n"
            "w3 = oq.parse_weight('exp(-(x^2))', oq.Interval('-inf', 'inf'))\n"
            f"w4 = oq.preset_weight('laguerre', gamma='{p['gamma']}')\n"
            f"w5 = oq.preset_weight('jacobi-add', p='{p['jacobi']['p']}', q='{p['jacobi']['q']}')\n"
            "oq.moments(oq.normalize(w1, ctx), 3, context=ctx)\n"
        )

    def warm_up(self):
        """Untimed first use of each layer at p, so no timed pass pays one-time costs."""
        ctx = self.ctx
        w = oq.normalize(oq.parse_weight(finite_text(self.p["exponent"]), oq.Interval(0, 1)), ctx)
        oq.generalized_moments(w, SQRT_F, 1, 0, context=ctx)
        m = oq.moments(w, 5, context=ctx)
        oq.verify(oq.solve_polynomial(m, 2, context=ctx), w, oq.Additive(), context=ctx)

    # -- one pass ------------------------------------------------------------

    def run_pass(self, h):
        before = h.attempted
        for case in self.expr:
            self._expression(h, *case)
        self._preset_quadrature(h)
        self._ladders(h)
        self.per_pass_ops = h.attempted - before

    def _expression(self, h, label, text, interval, count, moment, gen):
        ctx = self.ctx
        exact = self.exact[label]
        w = h.op(f"{label} normalize", lambda: oq.normalize(oq.parse_weight(text, interval), ctx))
        if w is None:
            return
        m = h.op(f"{label} moments", lambda: oq.moments(w, count, context=ctx),
                 lambda seq: self._check_moments(h, seq, exact))
        if m is None:
            return
        self._solve_ladder(h, label, w, m, (count - 1) // 2)
        self._generalized(h, label, w, moment, *gen)
        if label == "line":
            return  # sqrt(x) is complex on the negative half: no functional solve there
        self._functional(h, label, w)
        self._arbitrary_f(h, label, w)

    def _check_moments(self, h, seq, exact):
        """Each quadrature moment lies within its own error estimate of the closed form.

        The estimate covers integration error; the value is also rounded to
        p digits, so one unit of rounding is allowed on top.
        """
        ulp = refs.REF.mpf(2) ** (1 - self.ctx.mp.prec)
        for n, (v, est, want) in enumerate(zip(seq.values, seq.error_estimates, exact)):
            err = abs(refs.to_ref(v.value) - refs.to_ref(want))
            allowed = refs.to_ref(est.value) + ulp * abs(refs.to_ref(want))
            require(err <= allowed, f"m_{n}: error {refs.REF.nstr(err, 3)} exceeds its "
                                    f"estimate {refs.REF.nstr(refs.to_ref(est.value), 3)}")
        h.digits(refs.digits([v.value for v in seq.values], exact, PRECISION))

    def _float_solution(self, h, label, P, exact, report):
        """Digits against the exact solution; verify's verdict against the truth they imply."""
        d = refs.digits([c.value for c in P.coeffs], exact, PRECISION)
        require(d >= WRONG_DIGITS, f"only {d:.1f} correct digits")
        h.digits(d)
        h.verdict(label, report.passed, d >= TRUTH_DIGITS)

    def _solve_ladder(self, h, label, w, m, top, key=None):
        ctx, seed = self.ctx, self.p["sample_seed"]
        for n in range(top + 1):
            want = self.solutions[key or label][n]
            if want is None:
                h.op(f"{label} n={n}", lambda n=n: oq.solve_polynomial(m, n, context=ctx),
                     expect=oq.DegenerateDegreeError)
                continue

            def solve(n=n):
                P = oq.solve_polynomial(m, n, context=ctx)
                return P, oq.verify(P, w, oq.Additive(), context=ctx, seed=seed, moment_seq=m)

            h.op(f"{label} n={n}", solve,
                 lambda r, n=n, want=want: self._float_solution(h, f"{label} n={n}", r[0],
                                                                want, r[1]))

    def _generalized(self, h, label, w, moment, kmax, jmax):
        ctx = self.ctx
        tol = refs.REF.mpf(10) ** (10 - PRECISION)

        def check(table):
            for k, row in enumerate(table):
                for j, v in enumerate(row):
                    want = moment(Fraction(k, 2) + j)
                    err = abs(refs.to_ref(v.value) - want)
                    require(err <= tol * max(1, abs(want)), f"<sqrt(x)^{k} x^{j}> is off by "
                                                            f"{refs.REF.nstr(err, 3)}")

        h.op(f"{label} generalized", lambda: oq.generalized_moments(w, SQRT_F, kmax, jmax,
                                                                    context=ctx), check)

    def _functional(self, h, label, w):
        n, want = self.functional_refs[label]
        ctx, seed = self.ctx, self.p["sample_seed"]

        def solve():
            P = oq.solve_functional(w, SQRT_F, n, context=ctx)
            return P, oq.verify(P, w, oq.Functional(SQRT_F), context=ctx, seed=seed)

        h.op(f"{label} functional n={n}", solve,
             lambda r: self._float_solution(h, f"{label} functional n={n}", r[0], want, r[1]))

    def _arbitrary_f(self, h, label, w):
        """An f equal to the identity: a correct solution passes, a corrupted one fails.

        The corrupted copy runs on the finite interval only, where quadrature is cheap.
        """
        n, good, bad = self.arbitrary_inputs[label]
        ctx = self.ctx
        cases = [(good, True, "rounded"), (bad, False, "corrupted")]
        for poly, truth, tag in cases if label == "finite" else cases[:1]:
            h.op(f"{label} arbitrary-f {tag} n={n}",
                 lambda poly=poly: oq.check_arbitrary_f(poly, IDENTITY_F, w, n, context=ctx),
                 lambda r, tag=tag, truth=truth: h.verdict(f"{label} arbitrary-f {tag}",
                                                           r.passed, truth))

    def _preset_quadrature(self, h):
        ctx = self.ctx
        for name, count in zip(("jacobi-add", "chebyshev-u2-add"), self.size["preset_quad"]):
            w = oq.preset_weight(name, **self.presets[name])
            exact = self.exact[name][:count]
            m = h.op(f"{name} quadrature moments",
                     lambda w=w, count=count: oq.moments(w, count, context=ctx,
                                                         method="quadrature"),
                     lambda seq, exact=exact: self._check_moments(h, seq, exact))
            if m is not None and name == "jacobi-add":
                self._solve_ladder(h, f"{name} quadrature", w, m, (count - 1) // 2, key=name)

    def _ladders(self, h):
        """Float ladders 0..20 from closed-form moments rounded to p."""
        ctx = self.ctx
        top = self.size["ladder"]
        for name in ("laguerre", "uniform-symmetric"):
            w = oq.preset_weight(name, **self.presets[name])
            exact = self.exact[name][:2 * top + 1]
            m = h.op(f"{name} float moments", lambda w=w: oq.moments(w, 2 * top + 1, context=ctx),
                     lambda seq, exact=exact: h.digits(
                         refs.digits([v.value for v in seq.values], exact, PRECISION)))
            if m is not None:
                self._solve_ladder(h, f"{name} float", w, m, top, key=name)
