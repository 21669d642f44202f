"""The benchmark's workloads: inputs, one timed iteration, output checks.

Each workload builds its inputs in `setup` (gate sets, condition checks,
noise), runs one iteration of user-visible work in `iterate`, and checks
that iteration's outputs in `check`, outside the timed region. Calls into
corb go through module attributes (`engine.run_coherent_rb`, not a name
imported once), so the tracer's wrappers see them.

Checks that hold at every seed are oracles: analytic decay laws, exact
identities and round trips, plus equal output from every iteration. At the
seed a stored reference was made with (the workload's pinned seed), the
records are also compared with the values in `reference/`, which
`make_reference.py` writes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from contextlib import nullcontext
from unittest import mock

import numpy as np

import corb.cli as cli
import corb.engine as engine
import corb.fitting as fitting
import corb.gatesets as gatesets
import corb.io as cio
import corb.noise as noise

REFERENCE_TOL = 1e-10
ORACLE_TOL = 1e-9


class Checks:
    """Output checks attempted; each failed one keeps a message."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def close(self, got: float, want: float, tol: float, what: str) -> None:
        self.check(abs(got - want) <= tol, f"{what}: got {got!r}, want {want!r}")


def load_reference(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _per_m(records) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for r in records:
        out.setdefault(str(r.m), []).append(float(r.fidelity))
    return out


class Workload:
    name = ""

    def __init__(self, seed: int, tiny: bool, reference: dict | None):
        self.seed = seed
        self.tiny = tiny
        # Stored values apply only to the seed they were made with; other
        # seeds get the oracle checks alone.
        self.reference = reference if reference and reference["seed"] == seed else None
        self.first = None

    def check(self, output, checks: Checks) -> None:
        fids = self.fidelities(output)
        if self.first is None:
            self.first = fids
        checks.check(fids == self.first, "output differs from the first iteration")
        if self.reference is not None:
            stored = self.reference["fidelities"]
            for mode, per_m in fids.items():
                for m, values in per_m.items():
                    for rep, f in enumerate(values):
                        checks.close(f, stored[mode][m][rep], REFERENCE_TOL,
                                     f"{mode} m={m} rep={rep} vs stored")


class Fig5(Workload):
    """`corb experiment fig5a`, run in-process through `corb.cli.main`."""

    name = "fig5"
    infidelity = 1e-4

    def setup(self, checks: Checks) -> None:
        gate_set = gatesets.parse_set_spec("clifford:d=2,n=1")
        report = gatesets.check_condition(gate_set)
        checks.check(report.passed, "clifford:d=2,n=1 fails the condition check")
        # The experiment builds its own set and noise; dephasing with
        # p = r (D + 1) / D has chi00 = 1 - p.
        self.chi00 = 1.0 - self.infidelity * (gate_set.dim + 1) / gate_set.dim
        self.lengths = (2, 4) if self.tiny else cli.FIG5_LENGTHS

    def iterate(self, outdir: str):
        argv = ["experiment", "fig5a", "--out", outdir, "--seed", str(self.seed)]
        lengths = (mock.patch.object(cli, "FIG5_LENGTHS", self.lengths)
                   if self.tiny else nullcontext())
        with lengths:
            code = cli.main(argv)
        return code, outdir

    def record_count(self, output) -> int:
        return 2 * len(self.lengths) * 75

    def _read(self, output):
        code, outdir = output
        rows = {}
        for mode in ("coherent", "standard"):
            with open(os.path.join(outdir, f"fig5a_{mode}.csv"), encoding="utf-8") as fh:
                lines = fh.read().splitlines()[1:]
            rows[mode] = [tuple(float(x) for x in line.split(",")) for line in lines]
        with open(os.path.join(outdir, "fig5a_verdict.json"), encoding="utf-8") as fh:
            verdict = json.load(fh)
        return code, rows, verdict

    def fidelities(self, output):
        _, rows, _ = self._read(output)
        out = {}
        for mode, mode_rows in rows.items():
            per_m = out.setdefault(mode, {})
            for m, _, f, _, _ in mode_rows:
                per_m.setdefault(str(int(m)), []).append(f)
        return out

    def check(self, output, checks: Checks) -> None:
        code, rows, verdict = self._read(output)
        checks.check(code == 0, f"corb experiment fig5a exited {code}")
        checks.close(verdict["chi00"], self.chi00, 1e-12, "verdict chi00")
        checks.close(verdict["amplitude"], 1.0, REFERENCE_TOL, "verdict amplitude")
        checks.check(verdict["coherent_not_worse"] is True, "coherent_not_worse")
        amplitude, chi00 = verdict["amplitude"], verdict["chi00"]
        for mode, mode_rows in rows.items():
            checks.check(len(mode_rows) == len(self.lengths) * 75,
                         f"{mode}: {len(mode_rows)} rows")
            for m, rep, f, reference, deviation in mode_rows:
                where = f"{mode} m={int(m)} rep={int(rep)}"
                checks.check(0.0 <= f <= 1.0, f"{where}: fidelity {f!r}")
                checks.check(reference == amplitude * chi00 ** m and
                             deviation == abs(f - reference),
                             f"{where}: reference or deviation column")
            checks.check(verdict[f"{mode}_max_deviation"] == max(r[4] for r in mode_rows),
                         f"{mode}_max_deviation is not the largest deviation")
        super().check(output, checks)
        if self.reference is not None:
            ref = self.reference
            checks.close(verdict["chi00"], ref["chi00"], REFERENCE_TOL, "chi00 vs stored")
            checks.close(amplitude, ref["amplitude"], REFERENCE_TOL, "amplitude vs stored")
            for mode in rows:
                want = max(abs(f - ref["amplitude"] * ref["chi00"] ** int(m))
                           for m in map(str, self.lengths)
                           for f in ref["fidelities"][mode][m])
                checks.close(verdict[f"{mode}_max_deviation"], want, REFERENCE_TOL,
                             f"{mode}_max_deviation vs stored")


@dataclasses.dataclass
class WideOutput:
    records: dict
    read_back: dict
    fits: dict
    irb: object


class WideTarget(Workload):
    """Clifford(2,2) at small k in every sampled mode, with the records
    written to CSV, read back, fitted, and the gate extracted."""

    name = "wide-target"
    depolarizing = 0.002
    eps_prep, eps_meas = 0.01, 0.02

    def setup(self, checks: Checks) -> None:
        gate_set = gatesets.parse_set_spec("clifford:d=2,n=2")
        for gs in (gate_set, gatesets.parse_set_spec("two-control")):
            report = gatesets.check_condition(gs)
            checks.check(report.passed, f"{gs.family} fails the condition check")
        dim = gate_set.dim
        self.noise = noise.NoiseModel(
            gate_channel=tuple(noise.parse_channel_spec(
                f"depolarizing:p={self.depolarizing}", dim)),
            control_q=0.99, prep_error=self.eps_prep, meas_error=self.eps_meas)
        self.cz = np.diag([1, 1, 1, -1]).astype(np.complex128)
        self.cz_noise = noise.parse_channel_spec("dephasing:p=0.01", dim)
        self.base = engine.RbRunConfig(
            gate_set=gate_set, noise=self.noise,
            lengths=(1, 2, 4) if self.tiny else (1, 2, 4, 8, 16, 32, 64),
            k=8, repetitions=2 if self.tiny else 20, seed=self.seed)

    def iterate(self, outdir: str) -> WideOutput:
        base = self.base
        records = {
            "coherent": engine.run_coherent_rb(base),
            "standard": engine.run_standard_rb(
                dataclasses.replace(base, mode="standard")),
            "interleaved": engine.run_interleaved_coherent(
                dataclasses.replace(base, mode="interleaved"), self.cz, self.cz_noise),
            "coherent-control-noise": engine.run_coherent_with_control_noise(
                dataclasses.replace(base, mode="coherent-control-noise")),
        }
        read_back, fits = {}, {}
        for mode, recs in records.items():
            path = os.path.join(outdir, f"{mode}.csv")
            cio.write_records_csv(path, recs, {
                "set_spec": "clifford:d=2,n=2", "mode": mode, "k": base.k,
                "lengths": list(base.lengths), "repetitions": base.repetitions,
                "seed": base.seed})
            rows, _ = cio.read_records(path)
            read_back[mode] = rows
            fits[mode] = fitting.fit_records([engine.FidelityRecord(**r) for r in rows])
        irb = fitting.irb_extract(fits["coherent"], fits["interleaved"])
        return WideOutput(records, read_back, fits, irb)

    def record_count(self, output: WideOutput) -> int:
        return sum(len(r) for r in output.records.values())

    def fidelities(self, output: WideOutput):
        return {mode: _per_m(recs) for mode, recs in output.records.items()}

    def standard_survival(self, m: int) -> float:
        """Depolarizing noise commutes with every gate, so each standard-RB
        sequence survives with the same probability: m + 1 channels
        (the last after the inverse) act on the SPAM-noisy |0><0|."""
        dim = self.base.gate_set.dim
        lam = (1.0 - self.depolarizing) ** (m + 1)
        overlap = 1.0 - self.eps_prep + self.eps_prep / dim
        return (1.0 - self.eps_meas) * (lam * overlap + (1.0 - lam) / dim)

    def check(self, output: WideOutput, checks: Checks) -> None:
        expected = len(self.base.lengths) * self.base.repetitions
        for mode, recs in output.records.items():
            checks.check(len(recs) == expected, f"{mode}: {len(recs)} records")
            written = [dataclasses.asdict(r) for r in recs]
            for rec, row in zip(written, output.read_back[mode]):
                checks.check(rec == row, f"{mode}: CSV read-back {row} != {rec}")
            checks.check(output.fits[mode].converged, f"{mode}: fit did not converge")
            for r in recs:
                where = f"{mode} m={r.m} rep={r.repetition}"
                if mode == "standard":
                    checks.close(r.fidelity, self.standard_survival(r.m), ORACLE_TOL,
                                 f"{where} vs the depolarizing survival law")
                else:
                    checks.check(0.0 <= r.fidelity <= 1.0, f"{where}: {r.fidelity!r}")
        checks.check(0.0 <= output.irb.chi00_gate <= 1.0 and
                     math.isfinite(output.irb.bound_E), f"IRB estimate {output.irb}")
        super().check(output, checks)


@dataclasses.dataclass
class FullOutput:
    records: dict
    fits: dict
    irb: object


class FullSuperposition(Workload):
    """`coherent-full` by enumeration of all |G|^m branches, and the
    interleaved full superposition with a Hadamard, then IRB extraction."""

    name = "full-superposition"
    dephasing = 0.01

    def setup(self, checks: Checks) -> None:
        self.cfgs = {}
        for spec, lengths, tiny_lengths in (("pauli:d=2,n=1", (1, 2, 3, 4, 5), (1, 2, 3)),
                                            ("pauli:d=3,n=1", (1, 2, 3), (1, 2))):
            gate_set = gatesets.parse_set_spec(spec)
            report = gatesets.check_condition(gate_set)
            checks.check(report.passed, f"{spec} fails the condition check")
            model = noise.NoiseModel(
                gate_channel=tuple(noise.parse_channel_spec(
                    f"dephasing:p={self.dephasing}", gate_set.dim)),
                final_gate_channel=tuple(noise.parse_channel_spec("identity",
                                                                  gate_set.dim)))
            self.cfgs[spec] = engine.RbRunConfig(
                gate_set=gate_set, noise=model,
                lengths=tiny_lengths if self.tiny else lengths,
                seed=self.seed, mode="coherent-full")
        self.hadamard = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
        self.gate_noise = noise.parse_channel_spec(f"dephasing:p={self.dephasing}", 2)

    def iterate(self, outdir: str) -> FullOutput:
        ref_cfg = self.cfgs["pauli:d=2,n=1"]
        records = {spec: engine.run_coherent_full(cfg) for spec, cfg in self.cfgs.items()}
        records["interleaved"] = engine.run_interleaved_coherent(
            dataclasses.replace(ref_cfg, mode="interleaved"), self.hadamard,
            self.gate_noise, full_superposition=True)
        fits = {"reference": fitting.fit_records(records["pauli:d=2,n=1"]),
                "interleaved": fitting.fit_records(records["interleaved"])}
        irb = fitting.irb_extract(fits["reference"], fits["interleaved"])
        return FullOutput(records, fits, irb)

    def record_count(self, output: FullOutput) -> int:
        return sum(len(r) for r in output.records.values())

    def fidelities(self, output: FullOutput):
        return {mode: _per_m(recs) for mode, recs in output.records.items()}

    def check(self, output: FullOutput, checks: Checks) -> None:
        # With an ideal final channel and ideal SPAM, the full superposition
        # decays exactly as chi00^m, and dephasing has chi00 = 1 - p.
        chi00 = 1.0 - self.dephasing
        for spec, cfg in self.cfgs.items():
            recs = output.records[spec]
            checks.check([r.m for r in recs] == list(cfg.lengths), f"{spec}: lengths")
            for r in recs:
                checks.close(r.fidelity, chi00 ** r.m, ORACLE_TOL,
                             f"{spec} m={r.m} vs chi00^m")
        for name, fit in output.fits.items():
            checks.check(fit.converged, f"{name} fit did not converge")
        irb = output.irb
        checks.check(abs(irb.chi00_gate - chi00) <= irb.bound_E,
                     f"IRB estimate {irb.chi00_gate!r} misses planted {chi00!r} "
                     f"by more than bound_E {irb.bound_E!r}")
        super().check(output, checks)


WORKLOADS = {w.name: w for w in (Fig5, WideTarget, FullSuperposition)}
