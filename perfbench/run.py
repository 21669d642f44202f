"""corb benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload fig5 --seed 20260801 --seconds 50 --trace 0

Workloads (see README.md): fig5, wide-target, full-superposition. Each
runs in its own worker process with BLAS pinned to one thread and
CORB_THREADS unset. With --trace 0 the last line of output reports the
end-to-end metrics; with --trace 1 it reports the per-layer metrics of a
traced run. Earlier lines give a readable summary: machine facts, sample
counts, the failed-check fraction and, when traced, the span file.

The run reads and writes only inside the checkout: worker output goes to
.perfbench_out/ at its root. Exit status is 0 when a result was printed
(check `correct` for the verdict) and non-zero when none could be made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKDIR = os.path.join(ROOT, ".perfbench_out")
PINNED_SEEDS = {"fig5": 20260801, "wide-target": 20261001, "full-superposition": 20261002}

END_TO_END_UNITS = {"wall_s": "s", "records_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MiB"}
# Set-up is timed in this many fresh processes (the measured worker and
# SETUP_SAMPLES - 1 set-up-only ones) and reported as their median.
SETUP_SAMPLES = 3
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CORB_THREADS", None)
    # One BLAS thread: on a 2-core box default OpenBLAS threading made
    # fig5a take 13.8-15.0 s, against 9.9-10.4 s pinned.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args, deadline: float, *extra: str) -> dict:
    """Run one worker process; its set-up time is counted from its start."""
    fd, result_path = tempfile.mkstemp(dir=WORKDIR, suffix=".json")
    os.close(fd)
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size,
           "--workdir", WORKDIR, "--result", result_path, *extra]
    if args.reference:
        cmd += ["--reference", args.reference]
    try:
        started = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=max(deadline - started, 1.0))
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
        with open(result_path, "r", encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        os.unlink(result_path)
    result["setup_s"] = result["setup_done"] - started
    return result


def end_to_end(result: dict, setup_samples: list[float]) -> tuple[dict, list[str]]:
    walls = [it["wall_s"] for it in result["iterations"]]
    rates = [it["records"] / it["wall_s"] for it in result["iterations"]]
    values = {
        "wall_s": statistics.median(walls),
        "records_per_s": statistics.median(rates),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": result["peak_rss_kib"] / 1024.0,
    }
    # A run has too few iterations for a high percentile with ten samples
    # beyond it, so the tail reported is the maximum.
    notes = [
        f"wall_s         {values['wall_s']:.4f} s  median of {len(walls)} iterations, "
        f"max {max(walls):.4f} s",
        f"records_per_s  {values['records_per_s']:.2f} 1/s  "
        f"{result['iterations'][0]['records']} records per iteration",
        f"setup_s        {values['setup_s']:.4f} s  median of {len(setup_samples)} processes: "
        + ", ".join(f"{s:.4f}" for s in setup_samples),
        f"peak_rss_mb    {values['peak_rss_mb']:.2f} MiB  peak resident set of the worker",
    ]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    return metrics, notes


def per_layer(result: dict) -> tuple[dict, list[str]]:
    metrics = result["layers"]
    notes = [f"{name:26s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    layer_self = sum(m["value"] for name, m in metrics.items()
                     if name.endswith(".self_s") and not name.startswith("trace."))
    traced = metrics["trace.setup_s"]["value"] + metrics["trace.wall_s"]["value"]
    notes.append(f"layers' self times {layer_self:.6f} s + unattributed "
                 f"{metrics['trace.unattributed_s']['value']:.6f} s = traced set-up + "
                 f"iteration {traced:.6f} s; tracing overhead "
                 f"{metrics['trace.overhead_s']['value']:.6f} s")
    notes.append(f"spans written to {os.path.relpath(result['spans_file'], ROOT)}")
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PINNED_SEEDS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's pinned seed)")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks the timed loop for smoke tests")
    parser.add_argument("--reference", default=None,
                        help="stored values to compare at the pinned seed "
                             "(default: reference/<workload>.json)")
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = PINNED_SEEDS[args.workload]
    if args.reference is None:
        default = os.path.join(HERE, "reference", f"{args.workload}.json")
        args.reference = default if os.path.exists(default) else None
    if not os.path.isdir(os.path.join(ROOT, "src", "corb")):
        print(f"error: no corb sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    os.makedirs(WORKDIR, exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        setup_samples = [] if args.trace else [
            spawn(args, deadline, "--setup-only")["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)]
        result = spawn(args, deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not result["iterations"]:
        print("error: no iteration completed: " + "; ".join(result["failures"]),
              file=sys.stderr)
        return 1
    setup_samples.append(result["setup_s"])

    if args.trace:
        metrics, notes = per_layer(result)
    else:
        metrics, notes = end_to_end(result, setup_samples)
    attempted, failed = result["attempted"], result["failed"]
    machine = " ".join(f"{k}={v}" for k, v in result["machine"].items())
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  trace {args.trace}")
    print(f"machine: {machine}")
    for line in notes:
        print(line)
    print(f"failed_frac    {failed / attempted:.6g} ratio  {failed} of {attempted} "
          "output checks failed")
    for failure in result["failures"]:
        print(f"  failed: {failure}")

    details = os.path.join(
        WORKDIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(details, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "setup_samples_s": setup_samples,
                   "metrics": metrics, **result}, fh, indent=2)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
