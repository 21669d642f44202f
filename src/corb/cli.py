"""Command-line surface: check-set, run, fit, experiment.

Runs are reproducible: the full configuration is embedded in every output
artifact and a fixed seed yields byte-identical files. `corb run` and the
canned experiments state each run as an `ExperimentConfig`, which one
builder (`_run_inputs`) turns into one engine config: its gate set, noise
and, in interleaved mode, the gate and its channel.
CSV carries the per-run fidelity records and plot series; JSON carries fits
and verdicts. `corb fit` takes one records file, or a reference and an
interleaved file after `--irb`, never both.
The sampled modes run on one forked worker per CPU the process may run on
(`corb.engine`; `taskset -c 0` runs them serially), and the records do not
depend on the worker count.

Exit codes: 0 success, 1 usage or parse failure (an operating-system
error on a path, such as a missing file or a directory where a file is
needed, included), 2 semantic failure (condition violated, fit
divergence, engine error). Each failure prints one `error:` line.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import io as cio
from .engine import (
    MODES,
    FidelityRecord,
    RbRunConfig,
    exact_fidelities,
    run,
    run_interleaved_coherent,
)
from .fitting import (
    DecayFit,
    combined_decay,
    deviation_experiment,
    fit_records,
    irb_extract,
)
from .gatesets import check_condition, parse_set_spec, set_spec_dims
from .linalg import DimensionError
from .noise import NoiseModel, avg_gate_fidelity, chi00_of, parse_channel_spec

USAGE_ERROR, SEMANTIC_ERROR = 1, 2
_dumps = functools.partial(json.dumps, sort_keys=True, allow_nan=False)  # JSON has no NaN


# ---------------------------------------------------------------------------
# Experiment configuration (embedded into every output artifact)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    set_spec: str
    channel_spec: str
    final_channel_spec: str | None = None
    control_q: float = 1.0
    eps_prep: float = 0.0
    eps_meas: float = 0.0
    mode: str = "coherent"
    k: int = 1
    lengths: tuple[int, ...] = (2, 4, 8)
    repetitions: int = 1
    shots: int = 0
    seed: int = 0
    gate_file: str | None = None
    gate_channel_spec: str | None = None
    out: str | None = None
    format: str = "csv"

    def to_dict(self) -> dict:
        d = asdict(self)
        d["lengths"] = list(self.lengths)
        return d


# The default of each field (MISSING for the two that have none), read from
# ExperimentConfig, the one place where each `corb run` default is stated.
_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}

# Options that only some modes read: (config field, flag, the modes that
# read it). The interleaved closing gate is noiseless, so it takes no final
# channel; coherent-full writes exact values over all |G|^m, so no shots or k.
_SAMPLED_MODES = tuple(m for m in MODES if m != "coherent-full")
_MODE_OPTIONS = (
    ("control_q", "--q", ("coherent-control-noise",)),
    ("gate_file", "--gate", ("interleaved",)),
    ("gate_channel_spec", "--gate-channel", ("interleaved",)),
    ("final_channel_spec", "--final-channel",
     tuple(m for m in MODES if m != "interleaved")),
    ("shots", "--shots", _SAMPLED_MODES),
    ("k", "--k", _SAMPLED_MODES),
)


def _run_inputs(config: ExperimentConfig) -> RbRunConfig:
    """The engine config of the run a config describes, the interleaved
    gate and its channel included (read in interleaved mode only). An
    option that the config's mode would ignore, set to other than its
    default, is refused. Every run the command line makes is built here."""
    for name, flag, modes in _MODE_OPTIONS:
        if getattr(config, name) != _DEFAULTS[name] and config.mode not in modes:
            raise ValueError(f"mode {config.mode} ignores {flag}; "
                             f"modes that read it: {', '.join(modes)}")
    gate_set = parse_set_spec(config.set_spec)
    gate_channel = parse_channel_spec(config.channel_spec, gate_set.dim)
    final = None
    if config.final_channel_spec is not None:
        final = tuple(parse_channel_spec(config.final_channel_spec, gate_set.dim))
    gate = gate_noise = None
    if config.mode == "interleaved":
        if config.gate_file is None:
            raise ValueError("interleaved mode needs --gate <matrix file>")
        gate = cio.read_matrix(config.gate_file)
        if config.gate_channel_spec is not None:
            gate_noise = parse_channel_spec(config.gate_channel_spec, gate_set.dim)
    # Every input is read before the NoiseModel builds its superoperators.
    noise = NoiseModel(
        gate_channel=tuple(gate_channel),
        final_gate_channel=final,
        control_q=config.control_q,
        prep_error=config.eps_prep,
        meas_error=config.eps_meas,
    )
    return RbRunConfig(
        gate_set=gate_set,
        noise=noise,
        lengths=config.lengths,
        k=config.k,
        repetitions=config.repetitions,
        seed=config.seed,
        shots=config.shots,
        mode=config.mode,
        interleaved_gate=gate,
        interleaved_noise=gate_noise,
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _emit_json(payload: dict, path: str | None) -> None:
    """Print the payload as one JSON line; also write it to `path` if given."""
    print(_dumps(payload))
    if path:
        cio.atomic_write(path, _dumps(payload, indent=2) + "\n")


def cmd_check_set(args) -> int:
    gate_set = parse_set_spec(args.set_spec)
    report = check_condition(gate_set)
    payload = {
        "set": args.set_spec,
        "elements": len(gate_set),
        "passed": report.passed,
        "worst_label": report.worst_label,
        "worst_residual": report.worst_residual,
        "tolerance": report.tolerance,
    }
    status = "PASS" if report.passed else "FAIL"
    print(f"{status} {args.set_spec}: |G|={len(gate_set)} "
          f"worst label {payload['worst_label']} "
          f"residual {report.worst_residual:.3e} (tol {report.tolerance:.3e})")
    _emit_json(payload, args.json)
    return 0 if report.passed else SEMANTIC_ERROR


def _config_from_args(args) -> ExperimentConfig:
    """The config of the `run` options, which store under the field names;
    an option not given is absent, and its field keeps its default."""
    given = {name: value for name, value in vars(args).items()
             if name in _DEFAULTS}
    if "lengths" in given:
        try:
            given["lengths"] = tuple(int(x) for x in given["lengths"].split(","))
        except ValueError:
            raise ValueError(f"--lengths must be comma-separated integers, "
                             f"got {given['lengths']!r}") from None
    return ExperimentConfig(**given)


def cmd_run(args) -> int:
    config = _config_from_args(args)
    records = run(_run_inputs(config))
    if config.format == "json":
        cio.write_records_json(config.out, records, config.to_dict())
    else:
        cio.write_records_csv(config.out, records, config.to_dict())
    print(f"wrote {len(records)} records to {config.out}")
    return 0


def _fit_file(path: str) -> tuple[DecayFit, dict | None]:
    """The decay fit of a records file, and the file's embedded config."""
    records, config = cio.read_records(path)
    return fit_records([FidelityRecord(**r) for r in records]), config


def _fit_payload(fit: DecayFit, dim: int | None) -> dict:
    payload = {
        "A": fit.A,
        "chi00": fit.chi00,
        "residual_rms": fit.residual_rms,
        "points_used": fit.points_used,
        "converged": fit.converged,
        "stderr_A": None if math.isnan(fit.stderr_A) else fit.stderr_A,
        "stderr_chi00": None if math.isnan(fit.stderr_chi00) else fit.stderr_chi00,
    }
    if dim is not None:
        payload["avg_gate_fidelity"] = avg_gate_fidelity(fit.chi00, dim)
        payload["dim"] = dim
    return payload


def _dim_for_records(path: str, config: dict | None, args) -> int | None:
    if args.dim is not None:
        return args.dim
    if config and "set_spec" in config:
        spec = config["set_spec"]
        if not isinstance(spec, str):
            raise ValueError(f"{path}: config set_spec is not a string: {spec!r}")
        d, n = set_spec_dims(spec)
        return d ** n
    return None


def cmd_fit(args) -> int:
    if bool(args.records) == bool(args.irb):
        raise ValueError("fit takes one records file or --irb REF INTERLEAVED")
    if args.irb:
        fit_ref, ref_cfg = _fit_file(args.irb[0])
        fit_int, _ = _fit_file(args.irb[1])
        estimate = irb_extract(fit_ref, fit_int)
        payload = {
            "chi00_ref": estimate.chi00_ref,
            "chi00_combined": estimate.chi00_combined,
            "chi00_gate": estimate.chi00_gate,
            "bound_E": estimate.bound_E,
            "ref_converged": fit_ref.converged,
            "interleaved_converged": fit_int.converged,
        }
        dim = _dim_for_records(args.irb[0], ref_cfg, args)
        if dim is not None:
            payload["gate_avg_fidelity"] = avg_gate_fidelity(estimate.chi00_gate, dim)
        print(f"gate chi00 = {estimate.chi00_gate:.6f} +- {estimate.bound_E:.3e} "
              f"(reference {estimate.chi00_ref:.6f})")
        _emit_json(payload, args.json)
        return 0 if fit_ref.converged and fit_int.converged else SEMANTIC_ERROR

    fit, config = _fit_file(args.records)
    payload = _fit_payload(fit, _dim_for_records(args.records, config, args))
    line = (f"A = {payload['A']:.6f}  chi00 = {payload['chi00']:.8f}  "
            f"residual rms = {payload['residual_rms']:.3e}")
    if "avg_gate_fidelity" in payload:
        line += f"  avg gate fidelity = {payload['avg_gate_fidelity']:.8f}"
    print(line)
    _emit_json(payload, args.json)
    return 0 if payload["converged"] else SEMANTIC_ERROR


# ---------------------------------------------------------------------------
# Canned experiments
# ---------------------------------------------------------------------------

FIG5_LENGTHS = (2, 4, 8, 16, 32, 64)


def _deviation_csv(path: str, summary, mode: str) -> None:
    lines = ["m,repetition,fidelity,reference,deviation"]
    for m, fids in summary.fidelities[mode].items():
        reference = summary.amplitude * summary.chi00 ** m
        devs = summary.deviations[mode][m]
        for rep, (f, dev) in enumerate(zip(fids, devs)):
            lines.append(f"{m},{rep},{f!r},{reference!r},{dev!r}")
    cio.atomic_write(path, "\n".join(lines) + "\n")


def _fig5_scenario(name: str, set_spec: str, infidelity: float, k: int,
                   outdir: str, seed: int, reference_curve: bool = False) -> dict:
    """Run one deviation study and return its verdict. With
    `reference_curve`, also compare the coherent means with the pure decay
    law and with the law mixed with the exact standard-RB mean."""
    cfg = _run_inputs(ExperimentConfig(
        set_spec, f"infidelity-dephasing:r={infidelity}", k=k,
        lengths=FIG5_LENGTHS, repetitions=75, seed=seed))
    summary = deviation_experiment(cfg)
    for mode in ("coherent", "standard"):
        _deviation_csv(os.path.join(outdir, f"{name}_{mode}.csv"), summary, mode)
    verdict = {
        "scenario": name,
        "set": set_spec,
        "infidelity": infidelity,
        "k": cfg.k,
        "repetitions": cfg.repetitions,
        "lengths": list(cfg.lengths),
        "seed": cfg.seed,
        "chi00": summary.chi00,
        "amplitude": summary.amplitude,
        "coherent_max_deviation": summary.max_deviation["coherent"],
        "standard_max_deviation": summary.max_deviation["standard"],
        "coherent_not_worse": bool(
            summary.max_deviation["coherent"] <= summary.max_deviation["standard"]
        ),
    }
    if not reference_curve:
        return verdict
    # Reference-curve comparison: does mixing in the exact standard-RB mean
    # track the finite-k coherent data better than the pure decay law?
    standard = dict(zip(cfg.lengths, exact_fidelities(cfg, same_sequence=True)))
    chi00 = summary.chi00
    amplitude = summary.amplitude
    per_m = summary.fidelities["coherent"]
    rms_pure = rms_combined = 0.0
    series = ["m,mean_fidelity,pure_curve,combined_curve"]
    for m, values in sorted(per_m.items()):
        mean_f = float(np.mean(values))
        pure = amplitude * chi00 ** m
        comb = combined_decay(pure, standard[m], k)
        rms_pure += (mean_f - pure) ** 2
        rms_combined += (mean_f - comb) ** 2
        series.append(f"{m},{mean_f!r},{pure!r},{comb!r}")
    rms_pure = float(np.sqrt(rms_pure / len(per_m)))
    rms_combined = float(np.sqrt(rms_combined / len(per_m)))
    cio.atomic_write(os.path.join(outdir, f"{name}_combined_fit.csv"),
                     "\n".join(series) + "\n")
    verdict.update(
        rms_pure_curve=rms_pure,
        rms_combined_curve=rms_combined,
        combined_improves=bool(rms_combined <= rms_pure),
    )
    return verdict


def _experiment_control_noise(outdir: str, seed: int) -> dict:
    # Single-step check at strong control noise and tiny superposition.
    cfg1 = _run_inputs(ExperimentConfig(
        "pauli:d=2,n=1", "identity", control_q=0.9, mode="coherent-control-noise",
        k=4, lengths=(1,), repetitions=300, seed=seed))
    f_set = 1.0 / cfg1.gate_set.dim
    m1_mean = float(np.mean([r.fidelity for r in run(cfg1)]))
    m1_law = 0.9 * 1.0 + (1.0 - 0.9) / 4 * f_set

    # Decay-rate check at weak control noise over a length grid.
    q = 0.99
    cfg2 = _run_inputs(ExperimentConfig(
        "pauli:d=2,n=1", "infidelity-dephasing:r=1e-4", control_q=q,
        mode="coherent-control-noise", k=25, lengths=tuple(range(1, 21)),
        repetitions=40, seed=seed + 1))
    chi00 = chi00_of(cfg2.noise.gate_channel)
    records2 = run(cfg2)
    per_m: dict[int, list[float]] = {}
    for r in records2:
        per_m.setdefault(r.m, []).append(r.fidelity)
    lines = ["m,mean_fidelity,law,rel_error"]
    for m in sorted(per_m):
        mean_f = float(np.mean(per_m[m]))
        law = (q * chi00) ** m + (1.0 - q ** m) / cfg2.k * f_set
        lines.append(f"{m},{mean_f!r},{law!r},{abs(mean_f - law) / law!r}")
    cio.atomic_write(os.path.join(outdir, "control_noise_curve.csv"),
                     "\n".join(lines) + "\n")

    fit = fit_records(records2)
    verdict = {
        "scenario": "control-noise",
        "seed": seed,
        "m1_mean": m1_mean,
        "m1_law": m1_law,
        "m1_rel_error": abs(m1_mean - m1_law) / m1_law,
        "q": q,
        "chi00": chi00,
        "fitted_decay": fit.chi00,
        "target_decay": q * chi00,
        "decay_abs_error": abs(fit.chi00 - q * chi00),
    }
    return verdict


def _experiment_irb_demo(outdir: str, seed: int) -> dict:
    base = _run_inputs(ExperimentConfig(
        "pauli:d=2,n=1", "dephasing:p=0.001", mode="coherent-full",
        lengths=(1, 2, 3), seed=seed))
    gate = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
    gate_channel = parse_channel_spec("dephasing:p=0.01", 2)
    planted = chi00_of(gate_channel)

    ref_records = run(base)
    int_records = run_interleaved_coherent(
        replace(base, mode="interleaved"), gate, gate_channel,
        full_superposition=True)

    cio.write_records_csv(os.path.join(outdir, "irb_reference.csv"), ref_records)
    cio.write_records_csv(os.path.join(outdir, "irb_interleaved.csv"), int_records)
    estimate = irb_extract(fit_records(ref_records), fit_records(int_records))
    return {
        "scenario": "irb-demo",
        "seed": seed,
        "chi00_ref": estimate.chi00_ref,
        "chi00_combined": estimate.chi00_combined,
        "chi00_gate_estimate": estimate.chi00_gate,
        "bound_E": estimate.bound_E,
        "planted_chi00": planted,
        "covered": bool(abs(estimate.chi00_gate - planted) <= estimate.bound_E),
    }


# name -> (scenario function of (outdir, seed), pinned seed)
SCENARIOS = {
    "fig5a": (functools.partial(_fig5_scenario, "fig5a", "clifford:d=2,n=1", 1e-4, 80),
              20260801),
    "fig5b": (functools.partial(_fig5_scenario, "fig5b", "pauli:d=2,n=1", 1e-4, 80),
              20260802),
    "fig5c": (functools.partial(_fig5_scenario, "fig5c", "clifford:d=2,n=1", 1e-4, 25),
              20260803),
    "fig5d": (functools.partial(_fig5_scenario, "fig5d", "clifford:d=2,n=1", 1e-5, 15,
                                reference_curve=True), 20260804),
    "control-noise": (_experiment_control_noise, 20260805),
    "irb-demo": (_experiment_irb_demo, 20260806),
}


def cmd_experiment(args) -> int:
    if args.name not in SCENARIOS:
        raise ValueError(f"unknown scenario {args.name!r}; "
                         f"available: {', '.join(sorted(SCENARIOS))}")
    fn, default_seed = SCENARIOS[args.name]
    seed = args.seed if args.seed is not None else default_seed
    os.makedirs(args.out, exist_ok=True)
    verdict = fn(args.out, seed)
    path = os.path.join(args.out, f"{args.name.replace('-', '_')}_verdict.json")
    cio.atomic_write(path, _dumps(verdict, indent=2) + "\n")
    print(_dumps(verdict))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corb",
        description="Coherent randomized benchmarking simulator and analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-set", help="verify the benchmarkability condition")
    p.add_argument("set_spec", help="e.g. pauli:d=2,n=1 or ms:n=2,theta=0.785")
    p.add_argument("--json", help="also write the report to this JSON file")
    p.set_defaults(fn=cmd_check_set)

    # Each option stores under its ExperimentConfig field, which holds its
    # default (see _config_from_args).
    p = sub.add_parser("run", help="simulate a benchmarking run",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--set", dest="set_spec", metavar="SET", required=True)
    p.add_argument("--channel", dest="channel_spec", metavar="CHANNEL", required=True)
    p.add_argument("--final-channel", dest="final_channel_spec", metavar="FINAL_CHANNEL",
                   help="channel after the inverse gate (defaults to --channel; "
                        "not with --mode interleaved)")
    p.add_argument("--q", dest="control_q", metavar="Q", type=float,
                   help="control-register depolarizing parameter "
                        "(--mode coherent-control-noise only)")
    p.add_argument("--eps-prep", type=float)
    p.add_argument("--eps-meas", type=float)
    p.add_argument("--k", type=int, help="sequences in superposition (not with coherent-full)")
    p.add_argument("--lengths")
    p.add_argument("--reps", dest="repetitions", metavar="REPS", type=int)
    p.add_argument("--shots", type=int,
                   help="binomial samples per record (not with --mode coherent-full)")
    p.add_argument("--seed", type=int)
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--gate", dest="gate_file", metavar="GATE",
                   help="matrix file with the interleaved gate (--mode interleaved only)")
    p.add_argument("--gate-channel", dest="gate_channel_spec", metavar="GATE_CHANNEL",
                   help="channel spec for the interleaved gate (--mode interleaved only)")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["csv", "json"])
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("fit", help="fit the decay law to a records file")
    p.add_argument("records", nargs="?", help="records file (csv or json)")
    p.add_argument("--irb", nargs=2, metavar=("REF", "INTERLEAVED"),
                   help="extract one gate from a reference/interleaved pair")
    p.add_argument("--dim", type=int, default=None,
                   help="Hilbert dimension (read from the file config if present)")
    p.add_argument("--json", help="also write the fit to this JSON file")
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("experiment", help="run a canned named scenario")
    p.add_argument("name", help=", ".join(sorted(SCENARIOS)))
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario's pinned seed")
    p.set_defaults(fn=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (DimensionError, RuntimeError)):
            return SEMANTIC_ERROR
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
