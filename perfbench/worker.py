"""One workload in one process: set up, time iterations, check outputs.

Started by run.py, which measures set-up time from just before this
process starts; the worker reports when its set-up ended (on the
system-wide monotonic clock), its iteration times, its output checks and
its peak resident memory in a JSON file. With --trace 1 the tracer wraps
corb's entry points for set-up and every other iteration, and the worker
also reports the per-layer metrics and writes the spans out.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

MIN_ITERATIONS = 3
# Never start an iteration that would end past this much measuring time,
# whatever --seconds says, so a run stays well inside its time limit.
HARD_LIMIT_S = 120.0


def blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "CORB_THREADS": os.environ.get("CORB_THREADS"),
    }


def run(args) -> dict:
    reference = None
    if args.reference:
        reference = workloads.load_reference(args.reference)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size == "tiny",
                                                  reference)
    checks = workloads.Checks()
    tracer = spans.Tracer() if args.trace else None

    if tracer is None:
        workload.setup(checks)
    else:
        with tracer.installed(), tracer.span("setup", "bench"):
            workload.setup(checks)
    result = {"setup_done": time.monotonic()}
    if args.setup_only:
        return result

    workdir = tempfile.mkdtemp(dir=args.workdir, prefix=f"{args.workload}-")
    iterations = []
    start = time.perf_counter()
    try:
        while True:
            number = len(iterations) + 1
            traced = tracer is not None and number % 2 == 1
            outdir = os.path.join(workdir, str(number))
            os.mkdir(outdir)
            if traced:
                tracer.iteration = number
            try:
                with tracer.installed() if traced else nullcontext():
                    t0 = time.perf_counter()
                    with tracer.span("iteration", "bench") if traced else nullcontext():
                        output = workload.iterate(outdir)
                    wall = time.perf_counter() - t0
            except Exception as exc:  # a call that raises is a failed check
                checks.check(False, f"iteration {number} raised {exc!r}")
                break
            iterations.append({"number": number, "wall_s": wall, "traced": traced,
                               "records": workload.record_count(output)})
            workload.check(output, checks)
            shutil.rmtree(outdir)
            elapsed = time.perf_counter() - start
            typical = statistics.median(it["wall_s"] for it in iterations)
            if elapsed + typical > HARD_LIMIT_S or (
                    len(iterations) >= MIN_ITERATIONS and elapsed + typical > args.seconds):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result.update(
        iterations=iterations,
        attempted=checks.attempted,
        failed=len(checks.failures),
        failures=checks.failures[:20],
        peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        machine=machine_facts(),
    )
    if tracer is not None and iterations:
        traced = sorted((it for it in iterations if it["traced"]), key=lambda it: it["wall_s"])
        untraced = [it["wall_s"] for it in iterations if not it["traced"]]
        median_traced = traced[(len(traced) - 1) // 2]
        layers = spans.layer_metrics(tracer.spans, {0, median_traced["number"]})
        if untraced:
            layers["trace.overhead_s"] = (
                statistics.median(it["wall_s"] for it in traced)
                - statistics.median(untraced))
        result["layers"] = {name: {"value": value, "unit": spans.PER_LAYER_UNITS[name]}
                            for name, value in layers.items()}
        result["spans_file"] = os.path.join(
            args.workdir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.dump(result["spans_file"])
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--reference", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    result = run(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
