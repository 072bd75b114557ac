"""exact-ladder: in-process exact mode, every degree of each preset and the contour.

Per pass: closed-form moments of four presets and the k=0 contour, then
``solve_polynomial`` for every degree with an exact additive ``verify``
(contour solutions are checked through their moment conditions instead),
``normalization`` and ``polynomial_via_determinants`` with ``<x Pn Pm>``
pairs at a subset of degrees, linear-shift solves with their ``verify``,
``enumerate_multiplicative`` on jacobi-mult, and the verdict truth set
(correctly rounded copies at p=50 must pass, one-coefficient corruptions
must fail).
"""

from __future__ import annotations

import random
from fractions import Fraction

import orthoieq as oq

import refs
from harness import Harness, require

SIZES = {
    "full": {"degree": 16, "contour": 10, "subset": (4, 8, 12), "shift": (4, 8), "enumerate": 6},
    "smoke": {"degree": 4, "contour": 3, "subset": (2, 4), "shift": (2,), "enumerate": 3},
}
PRECISION = 50
# Parameter families: the seed picks a member. Members have numerators and
# denominators of one size, so the exact arithmetic costs the same, and the
# laguerre and jacobi-add members give the same verdicts on the truth set.
GAMMAS = [Fraction(13, 2), Fraction(15, 2)]
Q_ADD = [Fraction(11, 2), Fraction(13, 2)]  # p = q + 1
Q_MULT = [Fraction(9, 2), Fraction(11, 2), Fraction(13, 2), Fraction(15, 2)]  # p = q + 1
SHIFT_A = [Fraction(9, 2), Fraction(11, 2), Fraction(13, 2), Fraction(15, 2)]
SHIFT_B = Fraction(2)
KNOWN_FALSE_FAIL = ("jacobi-add", {"p": Fraction(3), "q": Fraction(2)}, 10)


def params(seed: int) -> dict:
    rng = random.Random(seed)
    q_add = rng.choice(Q_ADD)
    q_mult = rng.choice(Q_MULT)
    return {
        "presets": [
            ("laguerre", {"gamma": rng.choice(GAMMAS)}),
            ("jacobi-add", {"p": q_add + 1, "q": q_add}),
            ("chebyshev-u2-add", {}),
            ("uniform-symmetric", {}),
        ],
        "mult": {"p": q_mult + 1, "q": q_mult},
        "shift_a": rng.choice(SHIFT_A),
        "sample_seed": rng.randrange(2**31),
        "corrupt_seed": rng.randrange(2**31),
    }


class Workload:
    def __init__(self, seed: int, size: str = "full"):
        self.p = params(seed)
        self.size = SIZES[size]
        self.ctx = oq.with_precision(PRECISION)
        rng = random.Random(self.p["corrupt_seed"])
        N = self.size["degree"]
        # references: exact moments and solutions, computed once per run
        self.cases = []
        for name, kw in self.p["presets"]:
            m = refs.preset_moments(name, kw, 2 * N + 2)
            sols = [refs.hankel_solution(m, n) for n in range(N + 1)]
            # verdict inputs: a correctly rounded copy and a one-coefficient corruption
            truth_set = {
                n: (self._rounded(sols[n]),
                    oq.Polynomial(refs.corrupted(sols[n], rng.randrange(n + 1))))
                for n in self.size["subset"] if sols[n] is not None
            }
            self.cases.append((name, kw, m, sols, truth_set))
        name, kw, n = KNOWN_FALSE_FAIL
        exact = refs.hankel_solution(refs.preset_moments(name, kw, 2 * n + 1), n)
        self.false_fail = (name, kw, exact, self._rounded(exact))
        self.mult_m = refs.preset_moments("jacobi-mult", self.p["mult"],
                                          2 * self.size["enumerate"] + 1)
        jacobi_m = self.cases[1][2]
        a, b = self.p["shift_a"], SHIFT_B
        self.shift_refs = {n: refs.system_solution(refs.shift_rows(jacobi_m, n, a, b), n)
                           for n in self.size["shift"]}
        self.per_pass_ops = None

    def _rounded(self, exact):
        return oq.Polynomial([self.ctx.scalar(c) for c in exact])

    def setup_code(self) -> str:
        """What a fresh interpreter runs for setup_s: import, weights, context, first solves."""
        weights = "".join(
            f"oq.preset_weight({name!r}, **{ {k: str(v) for k, v in kw.items()} }), "
            for name, kw in self.p["presets"]
        )
        mult = self.p["mult"]
        return (
            "import orthoieq as oq\n"
            f"weights = [{weights}oq.contour_weight(0), "
            f"oq.preset_weight('jacobi-mult', p='{mult['p']}', q='{mult['q']}')]\n"
            f"ctx = oq.with_precision({PRECISION})\n"
            "oq.solve_polynomial(oq.moments(weights[0], 5, mode='exact'), 2)\n"
            "oq.solve_polynomial(oq.contour_moments(0, 5, mode='exact'), 2)\n"
        )

    def warm_up(self):
        """One untimed smoke-size pass, so no timed pass pays first-use costs."""
        Workload(0, "smoke").run_pass(Harness())

    # -- one pass ------------------------------------------------------------

    def run_pass(self, h):
        before = h.attempted
        moments = [self._preset(h, *case) for case in self.cases]
        self._contour(h)
        if moments[1] is not None:
            self._shift(h, moments[1])
        self._enumerate(h)
        self._false_fail(h)
        self.per_pass_ops = h.attempted - before

    def _preset(self, h, name, kw, m_ref, sols, truth_set):
        N = self.size["degree"]
        w = oq.preset_weight(name, **kw)
        m = h.op(f"{name} moments", lambda: oq.moments(w, 2 * N + 2, mode="exact"),
                 lambda seq: require([v.as_fraction() for v in seq.values] == m_ref,
                                     "closed-form moments differ from the Fraction reference"))
        if m is None:
            return
        seed = self.p["sample_seed"]
        polys = {}
        for n in range(N + 1):
            want = sols[n]
            if want is None:
                h.op(f"{name} n={n}", lambda n=n: oq.solve_polynomial(m, n),
                     expect=oq.DegenerateDegreeError)
                continue

            def solve(n=n):
                P = oq.solve_polynomial(m, n)
                return P, oq.verify(P, w, oq.Additive(), mode="exact", seed=seed, moment_seq=m)

            def check(result, n=n, want=want):
                P, report = result
                require([c.as_fraction() for c in P.coeffs] == want,
                        "solution differs from the Fraction reference")
                h.verdict(f"{name} n={n} exact", report.passed, True)
                if name == "laguerre":
                    oq.match_up_to_scale(P, oq.laguerre(n, kw["gamma"]))
                elif name == "chebyshev-u2-add":
                    oq.match_up_to_scale(P, oq.chebyshev_U_star(n))

            result = h.op(f"{name} n={n}", solve, check)
            if result is not None:
                polys[n] = result[0]

        for n, (rounded, bad) in truth_set.items():
            if n in polys:
                self._routes(h, name, w, m, polys, n)
            self._verdicts(h, name, w, m, sols[n], rounded, bad, n)
        return m

    def _routes(self, h, name, w, m, polys, n):
        """Determinant route, G_n and <x Pn Pm> against the dense solve."""
        P = polys[n]
        lower = max(k for k in polys if k < n) if any(k < n for k in polys) else None

        def routes():
            D = oq.polynomial_via_determinants(m, n)
            G = oq.normalization(m, n)
            gram = oq.orthogonality(P, P, m)
            cross = oq.orthogonality(P, polys[lower], m) if lower is not None else None
            return D, G, gram, cross

        def check(result):
            D, G, gram, cross = result
            require(D == P, "determinant route differs from the dense solve")
            require(G.as_fraction() == gram.as_fraction(), "G_n != <x Pn Pn>")
            require(cross is None or cross.is_zero(), "<x Pn Pm> != 0 for m < n")

        h.op(f"{name} routes n={n}", routes, check)

    def _verdicts(self, h, name, w, m, exact, rounded, bad, n):
        """Truth set: a correctly rounded copy must pass, a corrupted copy must fail."""
        ctx, seed = self.ctx, self.p["sample_seed"]
        h.digits(refs.digits([c.value for c in rounded.coeffs], exact, PRECISION))
        h.op(f"{name} rounded n={n}",
             lambda: oq.verify(rounded, w, oq.Additive(), context=ctx, seed=seed),
             lambda r: h.verdict(f"{name} rounded n={n}", r.passed, True))
        h.op(f"{name} corrupted n={n}",
             lambda: oq.verify(bad, w, oq.Additive(), mode="exact", seed=seed, moment_seq=m),
             lambda r: h.verdict(f"{name} corrupted n={n}", r.passed, False))

    def _contour(self, h):
        M = self.size["contour"]
        mc = h.op("contour moments", lambda: oq.contour_moments(0, 2 * M + 2, mode="exact"),
                  _check_contour_moments)
        if mc is None:
            return
        for n in range(M + 1):
            def solve(n=n):
                P = oq.solve_polynomial(mc, n)
                return P, [oq.inner_moment(P, k, mc) for k in range(n + 1)]

            def check(result, n=n):
                P, conditions = result
                require(conditions[0] == oq.Scalar.exact(1)
                        and all(c.is_zero() for c in conditions[1:]),
                        "contour solution breaks <x^k P> = delta_k0")
                oq.match_up_to_scale(P, oq.legendre(n))
                values = [complex_value(c) for c in P.coeffs]
                require(refs.proportional(values, refs.legendre(n), refs.REF.mpf(10) ** -60),
                        "contour solution is not proportional to Legendre")

            h.op(f"contour n={n}", solve, check)

    def _shift(self, h, m):
        """Linear-shift solves on the jacobi-add moments of this pass."""
        name, kw = self.cases[1][:2]
        w = oq.preset_weight(name, **kw)
        a, b = self.p["shift_a"], SHIFT_B
        seed = self.p["sample_seed"]
        for n, want in self.shift_refs.items():
            def solve(n=n):
                P = oq.solve_linear_shift(m, n, a, b)
                return P, oq.verify(P, w, oq.LinearShift(a, b), mode="exact", seed=seed,
                                    moment_seq=m)

            def check(result, n=n, want=want):
                P, report = result
                require([c.as_fraction() for c in P.coeffs] == want,
                        "shift solution differs from the Fraction reference")
                h.verdict(f"shift n={n}", report.passed, True)

            h.op(f"shift n={n}", solve, check)

    def _enumerate(self, h):
        n = self.size["enumerate"]
        w = oq.preset_weight("jacobi-mult", **self.p["mult"])
        seed = self.p["sample_seed"]

        def run():
            m = oq.moments(w, 2 * n + 1, mode="exact")
            candidates, distinct = oq.enumerate_multiplicative(m, n)
            full = next(c for c in candidates if c.pattern == frozenset(range(n)))
            report = None
            if full.succeeded:
                report = oq.verify(full.polynomial, w, oq.Multiplicative(full.pattern),
                                   mode="exact", seed=seed, moment_seq=m)
            return candidates, full, report

        def check(result):
            candidates, full, report = result
            require(len(candidates) == 2**n, "enumeration skipped patterns")
            for cand in candidates:
                support = sorted(cand.pattern | {n})
                sol = refs.solve_fraction([[self.mult_m[k + j] for j in support] for k in support],
                                          [Fraction(1)] * len(support))
                ok = sol is not None and all(x != 0 for x in sol)
                require(cand.succeeded == ok, f"pattern {sorted(cand.pattern)}: success differs")
                if ok:
                    want = [Fraction(0)] * (n + 1)
                    for k, x in zip(support, sol):
                        want[k] = x
                    require([c.as_fraction() for c in cand.polynomial.coeffs] == want,
                            f"pattern {sorted(cand.pattern)}: coefficients differ")
            require(full.succeeded, "the full pattern must solve")
            oq.match_up_to_scale(full.polynomial, oq.jacobi_G(n, self.p["mult"]["p"],
                                                              self.p["mult"]["q"]))
            h.verdict("multiplicative full pattern", report.passed, True)

        h.op(f"enumerate n={n}", run, check)

    def _false_fail(self, h):
        """jacobi-add(3,2) n=10, correctly rounded at p=50: the truth is pass."""
        name, kw, exact, rounded = self.false_fail
        w = oq.preset_weight(name, **kw)
        ctx, seed = self.ctx, self.p["sample_seed"]
        h.op("jacobi-add(3,2) rounded n=10",
             lambda: oq.verify(rounded, w, oq.Additive(), context=ctx, seed=seed),
             lambda r: h.verdict("jacobi-add(3,2) rounded n=10", r.passed, True))


def complex_value(scalar):
    re, im = scalar.real_imag(refs.REF.dps)
    return refs.REF.mpc(re, im)


def _check_contour_moments(seq):
    """m_0 = 1, m_n = (1 - (-1)^n) / (n i pi) for the k=0 contour."""
    for n, v in enumerate(seq.values):
        if n == 0:
            want = refs.REF.mpc(1)
        elif n % 2 == 0:
            want = refs.REF.mpc(0)
        else:
            want = refs.REF.mpc(0, -2 / (n * refs.REF.pi))
        require(abs(complex_value(v) - want) <= refs.REF.mpf(10) ** -100,
                f"contour moment m_{n} differs from its closed form")
