"""Span tracing from outside the program.

The tracer replaces corb's public entry points with wrappers, at every
module attribute their callers look them up by, so the program itself is
unchanged. Each wrapper records a span (name, layer, parent, iteration,
start, end), the minor page faults taken during it and a few exact counts
in memory; `Tracer.dump` writes the
spans out when the run ends and `layer_metrics` turns the spans of one
set-up and one timed iteration into the per-layer metrics.

`paulis` and `linalg` have no spans of their own: their time is counted
inside the layer that calls them.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import corb.cli
import corb.engine
import corb.fitting
import corb.gatesets
import corb.io
import corb.noise


def _gate_set_arg(args, kwargs):
    return kwargs["gate_set"] if "gate_set" in kwargs else args[0]


def _count_set(args, kwargs, result):
    return {"elements": len(result)}


def _count_check(args, kwargs, result):
    gate_set = _gate_set_arg(args, kwargs)
    return {"labels": gate_set.d ** (2 * gate_set.n)}


def _count_engine(args, kwargs, result):
    cfg = args[0]
    dim = cfg.gate_set.dim
    full = cfg.mode == "coherent-full" or bool(kwargs.get("full_superposition"))
    # Computed, not measured: the blocked (k, D, k, D) complex128 state of a
    # coherent run, or k separate D x D states for standard RB.
    state_bytes = max(
        (16 * r.k * dim * dim if r.mode == "standard" else 16 * (r.k * dim) ** 2)
        for r in result
    )
    return {
        "mode": "full" if full else cfg.mode,
        "records": len(result),
        "branch_gates": sum(r.k * r.m for r in result),
        "state_bytes": state_bytes,
    }


def _count_fit(args, kwargs, result):
    return {"nonconverged": int(not result.converged)}


def _count_write(args, kwargs, result):
    text = kwargs["text"] if "text" in kwargs else args[1]
    return {"bytes": len(text.encode("utf-8"))}


def _count_read(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, layer, counter). A function appears once per module
# that imports it, so calls made from inside corb are traced too.
TARGETS = [
    (corb.cli, "main", "cli", None),
    (corb.cli, "parse_set_spec", "gatesets", _count_set),
    (corb.cli, "parse_channel_spec", "noise", None),
    (corb.cli, "NoiseModel", "noise", None),
    (corb.cli, "deviation_experiment", "fitting", None),
    (corb.gatesets, "parse_set_spec", "gatesets", _count_set),
    (corb.gatesets, "check_condition", "gatesets", _count_check),
    (corb.noise, "parse_channel_spec", "noise", None),
    (corb.noise, "NoiseModel", "noise", None),
    (corb.engine, "run_coherent_rb", "engine", _count_engine),
    (corb.engine, "run_standard_rb", "engine", _count_engine),
    (corb.engine, "run_coherent_full", "engine", _count_engine),
    (corb.engine, "run_interleaved_coherent", "engine", _count_engine),
    (corb.engine, "run_coherent_with_control_noise", "engine", _count_engine),
    (corb.fitting, "run_coherent_rb", "engine", _count_engine),
    (corb.fitting, "run_standard_rb", "engine", _count_engine),
    (corb.fitting, "chi00_of", "noise", None),
    (corb.fitting, "deviation_experiment", "fitting", None),
    (corb.fitting, "fit_records", "fitting", _count_fit),
    (corb.fitting, "irb_extract", "fitting", None),
    (corb.io, "atomic_write", "io", _count_write),
    (corb.io, "write_records_csv", "io", None),
    (corb.io, "read_records", "io", _count_read),
]

ENGINE_MODE_METRIC = {
    "coherent": "engine.coherent_s",
    "standard": "engine.standard_s",
    "interleaved": "engine.interleaved_s",
    "coherent-control-noise": "engine.control_noise_s",
    "full": "engine.full_s",
}


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@dataclass
class Span:
    name: str
    layer: str
    parent: int | None
    iteration: int
    start: float
    end: float = 0.0
    faults: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; `installed()` swaps the wrappers in."""

    def __init__(self):
        self.spans: list[Span] = []
        self.iteration = 0
        self._stack: list[int] = []

    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, layer, parent, self.iteration, time.perf_counter(),
                    faults=-_minor_faults())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.faults += _minor_faults()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str):
        span = self._open(name, layer)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, layer: str, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(fn.__name__, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result
        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, layer, counter in TARGETS:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, layer, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "layer": s.layer,
                    "parent": s.parent, "iteration": s.iteration,
                    "start": s.start, "end": s.end, "minor_faults": s.faults,
                    "counts": s.counts,
                }, sort_keys=True) + "\n")


# Per-layer metric names and units, in the order they are printed.
PER_LAYER_UNITS = {
    "gatesets.build_s": "s",
    "gatesets.check_s": "s",
    "gatesets.self_s": "s",
    "gatesets.elements": "count",
    "gatesets.labels_checked": "count",
    "noise.build_s": "s",
    "noise.self_s": "s",
    "engine.coherent_s": "s",
    "engine.standard_s": "s",
    "engine.interleaved_s": "s",
    "engine.control_noise_s": "s",
    "engine.full_s": "s",
    "engine.self_s": "s",
    "engine.ns_per_branch_gate": "ns",
    "engine.minor_faults": "count",
    "engine.calls": "count",
    "engine.records": "count",
    "engine.branch_gates": "count",
    "engine.state_bytes_max": "bytes-computed",
    "fitting.deviation_self_s": "s",
    "fitting.fit_s": "s",
    "fitting.irb_s": "s",
    "fitting.self_s": "s",
    "fitting.fits": "count",
    "fitting.nonconverged": "count",
    "io.write_s": "s",
    "io.read_s": "s",
    "io.self_s": "s",
    "io.bytes": "bytes",
    "cli.self_s": "s",
    "trace.setup_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def layer_metrics(spans: list[Span], iterations: set[int]) -> dict[str, float]:
    """Per-layer metrics of the spans of the given iterations (0 = set-up).

    A span's self time is its duration minus that of its direct children.
    The `bench` layer holds the root spans the benchmark opens around
    set-up and each iteration, so the six layers' self times plus
    `trace.unattributed_s` add up to `trace.setup_s + trace.wall_s`.
    `trace.overhead_s` needs untraced iterations and is filled in by the
    caller.
    """
    chosen = [i for i, s in enumerate(spans) if s.iteration in iterations]
    child_time = dict.fromkeys(chosen, 0.0)
    for i in chosen:
        if spans[i].parent is not None:
            child_time[spans[i].parent] += spans[i].duration
    out = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    engine_time = 0.0
    for i in chosen:
        s = spans[i]
        self_s = s.duration - child_time[i]
        outermost = s.parent is None or spans[s.parent].layer != s.layer
        if s.layer == "bench":
            out["trace.unattributed_s"] += self_s
            out["trace.wall_s" if s.name == "iteration" else "trace.setup_s"] += s.duration
            continue
        out[f"{s.layer}.self_s"] += self_s
        if s.name == "parse_set_spec":
            out["gatesets.build_s"] += s.duration
            out["gatesets.elements"] += s.counts["elements"]
        elif s.name == "check_condition":
            out["gatesets.check_s"] += s.duration
            out["gatesets.labels_checked"] += s.counts["labels"]
        elif s.name in ("parse_channel_spec", "NoiseModel"):
            out["noise.build_s"] += s.duration
        elif s.layer == "engine" and outermost:
            engine_time += s.duration
            out[ENGINE_MODE_METRIC[s.counts["mode"]]] += s.duration
            out["engine.calls"] += 1
            out["engine.minor_faults"] += s.faults
            out["engine.records"] += s.counts["records"]
            out["engine.branch_gates"] += s.counts["branch_gates"]
            out["engine.state_bytes_max"] = max(out["engine.state_bytes_max"],
                                                s.counts["state_bytes"])
        elif s.name == "deviation_experiment":
            out["fitting.deviation_self_s"] += self_s
        elif s.name == "fit_records":
            out["fitting.fit_s"] += s.duration
            out["fitting.fits"] += 1
            out["fitting.nonconverged"] += s.counts["nonconverged"]
        elif s.name == "irb_extract":
            out["fitting.irb_s"] += s.duration
        elif s.layer == "io":
            out["io.bytes"] += s.counts.get("bytes", 0)
            if outermost:
                key = "io.read_s" if s.name == "read_records" else "io.write_s"
                out[key] += s.duration
    if out["engine.branch_gates"]:
        out["engine.ns_per_branch_gate"] = engine_time * 1e9 / out["engine.branch_gates"]
    return out
