"""Spans at orthoieq's module boundaries, recorded from the benchmark's side.

``Tracer.install`` rebinds the public functions listed in ``LAYERS`` in
every loaded ``orthoieq`` module (and the package namespace) to timing
wrappers, so calls between modules are seen as well as the benchmark's
own calls. ``uninstall`` puts the originals back; an untraced pass runs
the program untouched. Spans stay in memory and are written at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import orthoieq
from orthoieq import classical, cli, hankel, polynomials, variants, weights

moments = importlib.import_module("orthoieq.moments")  # the package attribute is the function


def _moments_name(args, kwargs):
    w = args[0]
    if w.is_contour:
        return "moments.contour", 0
    if w.is_preset and kwargs.get("method", "auto") != "quadrature":
        return "moments.closed_form", 0
    return "moments.quadrature", args[1]


def _generalized_name(args, kwargs):
    kmax, jmax = args[2], args[3]
    return "moments.generalized", (kmax + 1) * (jmax + 1)


_FORM_NAMES = {
    "Additive": "additive",
    "LinearShift": "shift",
    "Multiplicative": "multiplicative",
    "Functional": "functional",
    "ArbitraryF": "arbitrary_f",
}


def _verify_name(args, kwargs):
    form = args[2] if len(args) > 2 else kwargs["form"]
    return "variants.verify." + _FORM_NAMES[type(form).__name__], 0


def _fixed(name):
    return lambda args, kwargs: (name, 0)


LAYERS = [
    (moments.moments, _moments_name),
    (moments.contour_moments, _fixed("moments.contour")),
    (moments.generalized_moments, _generalized_name),
    (weights.normalize, _fixed("weights.normalize")),
    (hankel.solve_polynomial, _fixed("hankel.solve_polynomial")),
    (hankel.hankel_condition, _fixed("hankel.hankel_condition")),
    (hankel.polynomial_via_determinants, _fixed("hankel.polynomial_via_determinants")),
    (hankel.normalization, _fixed("hankel.normalization")),
    (polynomials.orthogonality, _fixed("polynomials.orthogonality")),
    (variants.verify, _verify_name),
    (variants.check_arbitrary_f, _fixed("variants.check_arbitrary_f")),
    (variants.solve_linear_shift, _fixed("variants.solve_linear_shift")),
    (variants.solve_functional, _fixed("variants.solve_functional")),
    (variants.solve_multiplicative, _fixed("variants.solve_multiplicative")),
    (variants.enumerate_multiplicative, _fixed("variants.enumerate_multiplicative")),
    (classical.laguerre, _fixed("classical.reference")),
    (classical.jacobi_G, _fixed("classical.reference")),
    (classical.chebyshev_U_star, _fixed("classical.reference")),
    (classical.legendre, _fixed("classical.reference")),
    (classical.match_up_to_scale, _fixed("classical.reference")),
    (cli.main, _fixed("cli.main")),
]


class Tracer:
    """In-memory span log: (id, parent, name, start, end, op id), plus counters."""

    def __init__(self):
        self.spans = []  # [span_id, parent_id, name, start, end, op_id]
        self.stack = []
        self.op_id = None
        self.counts = defaultdict(float)
        self._saved = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name):
        span = [len(self.spans), self.stack[-1][0] if self.stack else None, name,
                time.perf_counter(), None, self.op_id]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def end(self, span):
        span[4] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, namer):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name, entries = namer(args, kwargs)
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except orthoieq.DegenerateDegreeError as exc:
                if name.startswith("hankel.") and not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    tracer.counts["hankel.degenerate.hits"] += 1
                raise
            finally:
                tracer.end(span)
            if entries:
                tracer.counts[name + ".entries"] += entries
            if name == "variants.enumerate_multiplicative":
                candidates, _distinct = result
                tracer.counts["enumerate.useful"] += sum(c.succeeded for c in candidates)
                tracer.counts["enumerate.tried"] += len(candidates)
            return result

        return traced

    # -- installation ----------------------------------------------------------

    def install(self):
        wrappers = {id(fn): self._wrap(fn, namer) for fn, namer in LAYERS}
        originals = {id(fn): fn for fn, _ in LAYERS}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "orthoieq" or mod_name.startswith("orthoieq.")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and originals[id(value)] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])

    def uninstall(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    # -- results ---------------------------------------------------------------

    def self_times(self, first, last):
        """Self time per span name over spans[first:last]: duration minus direct children."""
        child_time = defaultdict(float)
        for span in self.spans[first:last]:
            if span[1] is not None:
                child_time[span[1]] += span[4] - span[3]
        out = defaultdict(float)
        for span in self.spans[first:last]:
            out[span[2]] += span[4] - span[3] - child_time[span[0]]
        return out

    def call_counts(self, first, last):
        out = defaultdict(int)
        for span in self.spans[first:last]:
            out[span[2]] += 1
        return out

    def write(self, path, header):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for span_id, parent, name, start, end, op_id in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")
