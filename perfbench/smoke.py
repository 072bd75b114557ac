"""The benchmark's own smoke test: ``python3 perfbench/run.py --smoke``.

Runs a tiny size of every workload through one untraced and one traced
pass, so every check, verdict, digit count and span path executes, and
requires that nothing failed. Then it plants one deliberately wrong
reference per workload and requires that the check catches it.
"""

from __future__ import annotations

import harness
import tracing


def _plant_wrong_reference(name, work):
    """Break one reference value; return a phrase the resulting failure must contain."""
    if name == "exact-ladder":
        sols = work.cases[0][3]  # laguerre reference solutions
        sols[2] = [c + 1 for c in sols[2]]
        return "Fraction reference"
    if name == "float-quadrature":
        work.exact["finite"][1] *= 2
        return "exceeds its estimate"
    case = work.cases[0]
    case.exit_code = 3
    work.cases = [case]
    return "exit code"


def main(make_workload):
    ok = True
    for name in ("exact-ladder", "float-quadrature", "cli-batch"):
        _module, work = make_workload(name, 0, "smoke")
        h = harness.Harness()
        tracer = tracing.Tracer()
        plain, traced = harness.run_passes(work.run_pass, h, 0, tracer=tracer)
        problems = list(h.failures)
        if not (plain and traced and h.op_times and tracer.spans):
            problems.append("a pass, an operation time or the spans are missing")
        if not h.verdicts or h.min_digits is None:
            problems.append("no verdicts or no digit counts were recorded")
        if any(span[4] is None for span in tracer.spans):
            problems.append("a span was never closed")

        _module, work = make_workload(name, 0, "smoke")
        phrase = _plant_wrong_reference(name, work)
        wrong = harness.Harness()
        work.run_pass(wrong)
        caught = any(phrase in text for text in wrong.failures)
        if not caught:
            problems.append(f"the planted wrong reference was not caught ({phrase!r})")

        ok = ok and not problems
        status = "ok" if not problems else "FAILED"
        print(f"smoke {name}: {status}, {h.attempted} operations, {len(h.verdicts)} verdicts, "
              f"{len(tracer.spans)} spans, planted wrong reference caught: {caught}")
        for text in problems:
            print("  " + text)
    return 0 if ok else 1

