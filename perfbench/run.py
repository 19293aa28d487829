"""Benchmark for zollforms: time reports end to end, or trace them layer by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: verify, invariants, invariants-fine, polar (see README.md).
The run first times SETUP_SAMPLES set-ups of the package, each in a fresh
interpreter, then sets the package up in this process and runs whole
reports back to back, from this one process, for about S seconds: it
starts no report that the median report time says would end after S.
Every report's output is checked after its clock stops.

--trace 0 prints the end-to-end metrics: report_s (median report),
setup_s (median set-up) and peak_rss_mb (this process).  --trace 1 runs
pairs of the same report, untraced then traced, and prints the per-layer
metrics, each the mean per traced report.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 30   # five probes stay inside a 180 s run even if set-up hangs

sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

# per-layer metric -> (unit, how to read it from the tracer per traced report)
PER_LAYER = {
    "surface.flow_s": ("s", lambda t: t.self_s["surface.flow"]),
    "surface.flow_calls": ("count", lambda t: t.calls["surface.flow"]),
    "surface.rhs_evals": ("count", lambda t: t.rhs_evals("surface")),
    "geodesic.trace_self_s": ("s", lambda t: t.self_s["geodesic.trace"]),
    "jacobi.frame_s": ("s", lambda t: t.self_s["jacobi.frame"]),
    "jacobi.frame_rhs_evals": ("count", lambda t: t.rhs_evals("jacobi", exclude="jacobi.variation")),
    "jacobi.variation_s": ("s", lambda t: t.self_s["jacobi.variation"]),
    "jacobi.variation_calls": ("count", lambda t: t.calls["jacobi.variation"]),
    "jacobi.variation_rhs_evals": ("count", lambda t: t.rhs_evals("jacobi", layer="jacobi.variation")),
    "fourier.interp_calls": ("count", lambda t: t.calls["fourier.interp"]),
    "fourier.interp_s": ("s", lambda t: t.self_s["fourier.interp"]),
    "fourier.spectral_calls": ("count", lambda t: t.calls["fourier.spectral"]),
    "fourier.spectral_s": ("s", lambda t: t.self_s["fourier.spectral"]),
    "weyl.star_calls": ("count", lambda t: t.calls["weyl.star"]),
    "weyl.star_s": ("s", lambda t: t.self_s["weyl.star"]),
    "weyl.substitute_calls": ("count", lambda t: t.calls["weyl.substitute"]),
    "weyl.substitute_s": ("s", lambda t: t.self_s["weyl.substitute"]),
    "normalform.conjugate_s": ("s", lambda t: t.self_s["normalform.conjugate"]),
    "normalform.obstruction_s": ("s", lambda t: t.self_s["normalform.obstruction"]),
    "normalform.H_s": ("s", lambda t: t.self_s["normalform.H"]),
    "normalform.assemble_self_s": ("s", lambda t: t.self_s["normalform.assemble"]),
    "identities.checks_self_s": ("s", lambda t: t.self_s["identities.checks"]),
    "expansion.derive_calls": ("count", lambda t: t.calls["expansion.derive"]),
    "expansion.derive_s": ("s", lambda t: t.self_s["expansion.derive"]),
    "expansion.constants_self_s": ("s", lambda t: t.self_s["expansion.constants"]),
    "cli.report_self_s": ("s", lambda t: t.self_s["cli.report"]),
    "cli.write_s": ("s", lambda t: t.self_s["cli.write"]),
    "trace.harness_self_s": ("s", lambda t: t.self_s[layers.HARNESS]),
}


class BenchError(RuntimeError):
    """The program under test is missing or could not be set up."""


def measure_setup(samples):
    """Seconds of `samples` set-ups, each in a fresh interpreter, one after another."""
    times = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), SRC],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            raise BenchError(f"set-up failed: {tail}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def _blas_threads():
    """OpenBLAS thread counts of the numpy and scipy builds, where they can be read."""
    import ctypes
    import glob
    import numpy
    import scipy
    out = {}
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(pkg.__file__), os.pardir, f"{pkg.__name__}.libs")
        for lib_path in glob.glob(os.path.join(libdir, "*openblas*")):
            lib = ctypes.CDLL(lib_path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    out[pkg.__name__] = fn()
                    break
    return out


def machine_facts():
    import platform
    import numpy
    import scipy
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                  "MKL_NUM_THREADS") if k in os.environ},
    }


class Tally:
    """Operations attempted and failed, and output problems, over one run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = 0
        self.problems = []

    def add(self, raw):
        outcome = self.workload.outcome(raw)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems.extend(self.workload.check(outcome))
        return outcome


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def run_untraced(workload, mods, seed, seconds, tally):
    times = []
    start = time.perf_counter()
    for report_seed in workloads.report_seeds(seed):
        raw, dt = _timed(workload.run, mods, report_seed)
        times.append(dt)
        tally.add(raw)
        if time.perf_counter() - start + statistics.median(times) > seconds:
            return times


def run_traced(workload, mods, seed, seconds, tally):
    """Pairs of one report untraced then traced; returns the per-layer metrics."""
    tracer = layers.Tracer()
    untraced, traced, pairs, report_bytes = [], [], [], 0
    start = time.perf_counter()
    for report_seed in workloads.report_seeds(seed):
        raw, dt = _timed(workload.run, mods, report_seed)
        untraced.append(dt)
        tally.add(raw)
        tracer.install()
        try:
            raw, dt = tracer.run(workload.run, mods, report_seed)
        finally:
            tracer.uninstall()
        traced.append(dt)
        report_bytes += tally.add(raw).bytes_written
        pairs.append(untraced[-1] + traced[-1])
        if time.perf_counter() - start + statistics.median(pairs) > seconds:
            break
    n = len(traced)
    metrics = {name: (read(tracer) / n, unit) for name, (unit, read) in PER_LAYER.items()}
    metrics["cli.report_bytes"] = (report_bytes / n, "bytes")
    metrics["trace.report_s"] = (sum(traced) / n, "s")
    metrics["trace.overhead_s"] = ((sum(traced) - sum(untraced)) / n, "s")
    accounted = sum(tracer.self_s.values())
    if abs(accounted - sum(traced)) > 1e-9 * sum(traced):
        tally.problems.append(f"layer self times {accounted!r} s do not add up to "
                              f"the traced reports' {sum(traced)!r} s")
    return metrics, {"untraced_s": untraced, "traced_s": traced}


def run(name, seed, seconds, traced, setup_samples=SETUP_SAMPLES, make=workloads.make):
    """One benchmark run; returns (result object, details for the log line)."""
    if not os.path.isfile(os.path.join(SRC, "zollforms", "__init__.py")):
        raise BenchError(f"no zollforms package under {SRC}")
    os.makedirs(OUT_DIR, exist_ok=True)
    setup_times = measure_setup(setup_samples)
    mods = workloads.set_up(SRC)
    workload = make(name, OUT_DIR)
    tally = Tally(workload)
    details = {"workload": name, "seed": seed, "setup_s": setup_times}
    if traced:
        metrics, extra = run_traced(workload, mods, seed, seconds, tally)
        details.update(extra)
    else:
        times = run_untraced(workload, mods, seed, seconds, tally)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {"report_s": (statistics.median(times), "s"),
                   "setup_s": (statistics.median(setup_times), "s"),
                   "peak_rss_mb": (peak_kib / 1024.0, "MB")}
        details["report_s"] = times
    details["machine"] = machine_facts()
    details["problems"] = tally.problems[:20]
    result = {"correct": not tally.problems, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for problem in details["problems"]:
        print(f"output check failed: {problem}", file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
