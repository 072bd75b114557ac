"""orthoieq benchmark: one command, three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload exact-ladder --seed 1 --seconds 30 --trace 0

Workloads: exact-ladder, float-quadrature, cli-batch (see their modules).
With ``--trace 0`` the run is untraced and reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced passes, reports the
per-layer metrics and writes the spans to ``perfbench/out/``. The last line
of stdout is one JSON object: correct, attempted, failed, metrics.

Other modes: ``--smoke`` runs a tiny size of every workload and proves a
wrong reference is caught; ``--record-hashes`` rewrites cli_hashes.json.

The program is imported from ``src/`` of the working directory; nothing is
installed, and the modules that import orthoieq are imported only after
``main`` has put ``src/`` on the path. One process, no worker threads; the
CLI workload runs one subprocess at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
CLI_PROBE = [
    ["moments", "--preset", "laguerre", "--gamma", "1", "--count", "4", "--mode", "exact"],
    ["poly", "--preset", "chebyshev-u2-add", "--degrees", "0:3"],
]
"""Light CLI calls that give the cli.* layer numbers on the in-process workloads."""

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"), ("ok_ops_frac", "ratio"), ("verdict_agreement", "ratio"),
    ("min_correct_digits", "digits"),
]
PER_LAYER = [
    ("hankel.solve_polynomial.s", "s"), ("hankel.solve_polynomial.calls", "count"),
    ("hankel.hankel_condition.s", "s"), ("hankel.polynomial_via_determinants.s", "s"),
    ("hankel.normalization.s", "s"), ("hankel.degenerate.hits", "count"),
    ("moments.quadrature.s", "s"), ("moments.quadrature.entries", "count"),
    ("moments.generalized.s", "s"), ("moments.generalized.entries", "count"),
    ("weights.normalize.s", "s"), ("moments.closed_form.s", "s"), ("moments.contour.s", "s"),
    ("variants.verify.additive.s", "s"), ("variants.verify.shift.s", "s"),
    ("variants.verify.multiplicative.s", "s"), ("variants.verify.functional.s", "s"),
    ("variants.check_arbitrary_f.s", "s"), ("variants.solve_linear_shift.s", "s"),
    ("variants.solve_functional.s", "s"), ("variants.enumerate_multiplicative.s", "s"),
    ("variants.enumerate_multiplicative.useful_frac", "ratio"),
    ("polynomials.orthogonality.s", "s"), ("classical.reference.s", "s"),
    ("cli.import.s", "s"), ("cli.process.p50_ms", "ms"), ("cli.main.p50_ms", "ms"),
    ("cli.startup_share", "ratio"), ("trace.overhead_s", "s"),
]


def child_env():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("ORTHOIEQ_PRECISION", None)
    return env


def timed_snippet(code: str) -> float:
    """Seconds a fresh interpreter spends running `code`, measured inside it."""
    script = "import time\n_t0 = time.perf_counter()\n" + code + \
             "print(repr(time.perf_counter() - _t0))\n"
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def environment():
    import mpmath
    import sympy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "mpmath": mpmath.__version__, "sympy": sympy.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND}


def backend_notice(env):
    with open(os.path.join(HERE, "baseline_env.json"), encoding="utf-8") as fh:
        baseline = json.load(fh)
    if env["mpmath_backend"] != baseline["mpmath_backend"]:
        return (f"notice: backend-differs: mpmath backend {env['mpmath_backend']!r}, "
                f"baseline {baseline['mpmath_backend']!r}; every number moves")
    return None


def make_workload(name, seed, size="full"):
    import cli_batch
    import exact_ladder
    import float_quadrature

    modules = {"exact-ladder": exact_ladder, "float-quadrature": float_quadrature,
               "cli-batch": cli_batch}
    module = modules[name]
    return module, module.Workload(seed, size)


def cli_probe():
    """(subprocess ms, in-process cli.main ms) medians over CLI_PROBE, untraced."""
    import cli_batch

    process_ms, main_ms = [], []
    for argv in CLI_PROBE:
        start = time.perf_counter()
        code, _out = cli_batch.run_subprocess(argv, ROOT, child_env())
        process_ms.append(1000 * (time.perf_counter() - start))
        main_ms.append(cli_batch.run_in_process(argv)[2])
        if code != 0:
            raise RuntimeError(f"cli probe {argv} exited {code}")
    return statistics.median(process_ms), statistics.median(main_ms)


def per_layer(tracer, pass_marks, traced_walls, plain_walls, cli_numbers, import_s):
    """Per-traced-pass medians of layer self times and counts."""
    import harness

    per_pass = []
    for first, last, counts in pass_marks:
        times = tracer.self_times(first, last)
        calls = tracer.call_counts(first, last)
        row = {name: times.get(name[:-2], 0.0) for name, unit in PER_LAYER
               if unit == "s" and name.endswith(".s")}
        row["hankel.solve_polynomial.calls"] = calls.get("hankel.solve_polynomial", 0)
        row["hankel.degenerate.hits"] = counts.get("hankel.degenerate.hits", 0)
        row["moments.quadrature.entries"] = counts.get("moments.quadrature.entries", 0)
        row["moments.generalized.entries"] = counts.get("moments.generalized.entries", 0)
        tried = counts.get("enumerate.tried", 0)
        row["variants.enumerate_multiplicative.useful_frac"] = (
            counts.get("enumerate.useful", 0) / tried if tried else 0.0)
        per_pass.append(row)
    out = {name: harness.median([row[name] for row in per_pass]) for name in per_pass[0]}
    process_ms, main_ms = cli_numbers
    out["cli.import.s"] = import_s
    out["cli.process.p50_ms"] = process_ms
    out["cli.main.p50_ms"] = main_ms
    out["cli.startup_share"] = 1 - main_ms / process_ms
    out["trace.overhead_s"] = harness.median(traced_walls) - harness.median(plain_walls)
    return out


def run(args):
    import harness
    import tracing

    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    notice = backend_notice(env)
    if notice:
        print(notice)

    module, work = make_workload(args.workload, args.seed)
    code = work.setup_code()
    timed_snippet(code)  # fills the bytecode cache; not counted
    setup_s = statistics.median(timed_snippet(code) for _ in range(SETUP_REPEATS))
    work.warm_up()

    h = harness.Harness()
    tracer = tracing.Tracer() if args.trace else None
    marks = []
    run_pass = work.run_pass
    if tracer is not None:
        def run_pass(harness_, _inner=work.run_pass):
            if harness_.tracer is None:
                return _inner(harness_)
            first, before = len(tracer.spans), dict(tracer.counts)
            _inner(harness_)
            counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
            marks.append((first, len(tracer.spans), counts))
    plain, traced = harness.run_passes(run_pass, h, args.seconds, tracer=tracer)

    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes, {work.per_pass_ops} operations per pass")
    for text in h.notices:
        print("notice: " + text)
    for text in h.failures[:20]:
        print("failure: " + text)

    metrics = {}
    if tracer is None:
        pct, tail_s = harness.tail(h.op_times, work.per_pass_ops)
        if module.__name__ == "cli_batch":
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        agree = sum(v == t for _l, v, t in h.verdicts)
        values = {
            "setup_s": setup_s,
            "wall_s": harness.median(plain),
            "op_p50_ms": 1000 * harness.median(h.op_times),
            "op_tail_ms": 1000 * tail_s,
            "peak_rss_mb": rss_kb / 1024,
            "ok_ops_frac": 1 - h.failed / h.attempted,
            "verdict_agreement": agree / len(h.verdicts),
            "min_correct_digits": h.min_digits,
        }
        notes = {
            "setup_s": f"median of {SETUP_REPEATS} fresh interpreters",
            "wall_s": f"median of {len(plain)} passes",
            "op_p50_ms": f"op_count {len(h.op_times)}",
            "op_tail_ms": f"p{pct:.1f}, op_count {len(h.op_times)}",
            "ok_ops_frac": f"failed_ops_frac {h.failed / h.attempted:.6g} "
                           f"({h.failed} of {h.attempted})",
            "verdict_agreement": f"{agree} of {len(h.verdicts)} verdicts",
        }
        for label in dict.fromkeys(label for label, v, t in h.verdicts if v != t):
            print(f"verdict disagrees with the truth: {label}")
        print(f"metric failed_ops_frac = {h.failed / h.attempted:.6g} ratio")
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"metric {name} = {values[name]:.6g} {unit}{note}")
    else:
        import_s = statistics.median(timed_snippet("import orthoieq\n")
                                     for _ in range(IMPORT_REPEATS))
        if module.__name__ == "cli_batch":
            cli_numbers = (1000 * harness.median(h.op_times), harness.median(work.main_ms))
        else:
            cli_numbers = cli_probe()
        values = per_layer(tracer, marks, traced, plain, cli_numbers, import_s)
        for name, unit in PER_LAYER:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"metric {name} = {values[name]:.6g} {unit}")
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "env": env,
                            "traced_walls": traced, "untraced_walls": plain})
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")

    print(json.dumps({"correct": h.failed == 0, "attempted": h.attempted, "failed": h.failed,
                      "metrics": metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["exact-ladder", "float-quadrature", "cli-batch"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-hashes", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "orthoieq", "__init__.py")):
        print("error: run from the repository root; src/orthoieq is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.environ.pop("ORTHOIEQ_PRECISION", None)

    if args.smoke:
        import smoke

        return smoke.main(make_workload)
    if args.record_hashes:
        import cli_batch

        cli_batch.record_hashes()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
