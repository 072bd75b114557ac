"""Closed-loop pass runner, result tally and metric arithmetic shared by the workloads.

A workload is a sequence of operations run by one caller, one after the
other. ``Harness.op`` times the program calls of one operation; the check
that follows runs outside that timer. A pass is one trip through the
workload's operation list, and a run repeats passes until its time is up.
"""

from __future__ import annotations

import math
import statistics
import time
import traceback


class CheckFailed(Exception):
    """A program output disagreed with its reference."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


class Harness:
    def __init__(self):
        self.tracer = None  # set only while a traced pass runs
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.verdicts = []  # (label, verdict, truth)
        self.min_digits = None
        self.op_times = []  # seconds, untraced passes only
        self.notices = []
        self._next_op = 0

    # -- operations ------------------------------------------------------------

    def op(self, label, call, check=None, expect=None):
        """Run one operation: call() timed, then check(result) untimed.

        `expect` names the exception the program must raise here; raising it
        is the correct outcome and then `check` is not run. Returns the
        call's result, or None when the operation raised or failed.
        """
        self.attempted += 1
        op_id = self._next_op
        self._next_op += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.op_id = op_id
            span = tracer.begin("op " + label)
        start = time.perf_counter()
        raised = None
        result = None
        try:
            result = call()
        except Exception as exc:  # any error of the program is data for the tally
            raised = exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end(span)
        else:
            self.op_times.append(elapsed)
        try:
            if expect is not None:
                require(isinstance(raised, expect),
                        f"expected {expect.__name__}, got "
                        f"{type(raised).__name__ if raised else 'a result'}")
            elif raised is not None:
                raise CheckFailed("".join(traceback.format_exception_only(raised)).strip())
            elif check is not None:
                if tracer is not None:
                    span = tracer.begin("bench.check")
                try:
                    check(result)
                finally:
                    if tracer is not None:
                        tracer.end(span)
        except Exception as exc:  # a failed check, or a check that itself broke
            self.failed += 1
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        finally:
            if tracer is not None:
                tracer.op_id = None
        return None if raised is not None else result

    def verdict(self, label, verdict, truth):
        self.verdicts.append((label, bool(verdict), bool(truth)))

    def digits(self, value):
        self.min_digits = value if self.min_digits is None else min(self.min_digits, value)

    def notice(self, text):
        if text not in self.notices:
            self.notices.append(text)


# -- the run loop -------------------------------------------------------------


def run_passes(run_pass, harness, seconds, *, tracer=None):
    """Repeat passes for about `seconds`; return (untraced walls, traced walls).

    Untraced runs make at least two passes. Traced runs alternate untraced
    and traced passes, at least one of each, so both are measured under the
    same conditions. A pass starts only if one more pass of the slowest
    length so far still ends within the time.
    """
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        trace_this = tracer is not None and len(traced) < len(plain)
        if trace_this:
            tracer.install()
            harness.tracer = tracer
        t0 = time.perf_counter()
        try:
            run_pass(harness)
        finally:
            if trace_this:
                harness.tracer = None
                tracer.uninstall()
        (traced if trace_this else plain).append(time.perf_counter() - t0)
        enough = len(plain) >= 2 if tracer is None else (plain and traced)
        longest = max(plain + traced)
        if enough and time.perf_counter() - start + longest > seconds:
            return plain, traced


# -- metric arithmetic ------------------------------------------------------


def tail(values, per_pass_ops):
    """The highest percentile that leaves at least ten operations beyond it.

    The percentile is fixed by the two passes every untraced run makes, so
    it does not depend on how many passes fit in the time.
    """
    guaranteed = 2 * per_pass_ops
    pct = 100.0 * (guaranteed - 10) / guaranteed
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(pct / 100.0 * len(ordered)) - 1))
    return pct, ordered[rank]


def median(values):
    return statistics.median(values)
