"""Decay-curve fitting, interleaved-gate extraction, deviation studies.

The decay model is F(m) = A * chi00^m: a log-linear least-squares pass
seeds a Gauss-Newton refinement in linear space. Interleaved runs are
compared against a reference run to isolate one gate's chi00, with the
multiplicative-composition error bound

    E = 2 sqrt((1-a) a (1-b) b) + (1-a)(1-b),   a = chi00_ref, b = chi00_gate,

tight when the reference gates are much cleaner than the probed one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import FidelityRecord, RbRunConfig, run_coherent_and_standard
# The single-mode runners stay importable from here: perfbench/spans.py
# traces the engine by the attributes of the modules that call it.
from .engine import run_coherent_rb, run_standard_rb  # noqa: F401
from .gatesets import GateSet
from .noise import NoiseModel, chi00_of

GN_STEP_TOL = 1e-12
GN_MAX_ITER = 100


@dataclass(frozen=True)
class DecayFit:
    """Fitted amplitude and decay with residual diagnostics."""

    A: float
    chi00: float
    residual_rms: float
    points_used: int
    converged: bool = True
    stderr_A: float = math.nan
    stderr_chi00: float = math.nan


@dataclass(frozen=True)
class IrbEstimate:
    """Interleaved-vs-reference extraction of a single gate's chi00."""

    chi00_ref: float
    chi00_combined: float
    chi00_gate: float
    bound_E: float


def fit_decay(points: Sequence[tuple[float, float]],
              weights: Sequence[float] | None = None) -> DecayFit:
    """Fit A * chi00^m to (m, fidelity) points.

    Stage 1 initializes from ordinary least squares on log(F) vs m
    (nonpositive fidelities excluded there only); stage 2 runs
    Gauss-Newton on the unweighted (or caller-weighted) squared residuals
    in linear space. Divergent refinements fall back to the stage-1
    estimate with converged=False; a refinement that reaches GN_MAX_ITER
    iterations keeps its last estimate, also with converged=False.
    """
    ms = np.asarray([p[0] for p in points], dtype=float)
    fs = np.asarray([p[1] for p in points], dtype=float)
    # Checked on Python lists, which is faster than numpy at these sizes;
    # every NaN length counts as one, as np.unique counts them.
    if len({m if m == m else None for m in ms.tolist()}) < 3:
        raise ValueError("need at least 3 distinct sequence lengths")
    fidelities = fs.tolist()
    if any(f >= 1.05 for f in fidelities):
        raise ValueError("fidelities above 1.05 are not a decay curve")
    if all(f <= 0.0 for f in fidelities):
        raise ValueError("all fidelities nonpositive")
    if weights is not None:
        w = np.asarray(weights, dtype=float)
        if w.shape != fs.shape or any(x < 0 for x in w.tolist()):
            raise ValueError("weights must be nonnegative, one per point")
        w_column = w[:, None]

    positive = fs > 0.0
    logs = np.log(fs[positive])
    design = np.ones((len(logs), 2))
    design[:, 1] = ms[positive]
    coeffs, *_ = np.linalg.lstsq(design, logs, rcond=None)
    a0, chi0 = math.exp(coeffs[0]), math.exp(coeffs[1])

    jacobian = np.empty((len(fs), 2))
    lowered = ms - 1

    def model_powers(a, chi):
        """chi^m, with the Jacobian of a chi^m at (a, chi) filled in."""
        powers = chi ** ms
        jacobian[:, 0] = powers
        jacobian[:, 1] = a * ms * chi ** lowered
        return powers

    a, chi = a0, chi0
    converged = False
    for _ in range(GN_MAX_ITER):
        residuals = a * model_powers(a, chi) - fs
        if weights is None:  # unit weights: multiplying by 1.0 is exact
            step, *_ = np.linalg.lstsq(jacobian, -residuals, rcond=None)
        else:
            step, *_ = np.linalg.lstsq(jacobian * w_column, -residuals * w,
                                       rcond=None)
        a += step[0]
        chi += step[1]
        if not (math.isfinite(a) and math.isfinite(chi)) or abs(chi) > 10.0:
            a, chi = a0, chi0  # diverged: report the stage-1 estimate
            break
        if math.sqrt(step.dot(step)) < GN_STEP_TOL:  # np.linalg.norm, bit for bit
            converged = True
            break

    chi = min(max(chi, 0.0), 1.0)
    a = max(a, 0.0)
    residuals = a * model_powers(a, chi) - fs
    squares = float(np.sum(residuals ** 2))
    rms = math.sqrt(squares / len(fs))

    # At least 3 distinct lengths leave dof >= 1.
    stderr_a = stderr_chi = math.nan
    try:
        cov = np.linalg.inv(jacobian.T @ jacobian)
        s2 = squares / (len(fs) - 2)
        stderr_a = math.sqrt(max(s2 * cov[0, 0], 0.0))
        stderr_chi = math.sqrt(max(s2 * cov[1, 1], 0.0))
    except np.linalg.LinAlgError:
        pass

    return DecayFit(a, chi, rms, len(fs), converged, stderr_a, stderr_chi)


def fit_records(records: Sequence[FidelityRecord],
                weights: Sequence[float] | None = None) -> DecayFit:
    return fit_decay([(r.m, r.fidelity) for r in records], weights)


def combined_decay(coherent: float, standard: float, k: int) -> float:
    """(1 - 1/k) * coherent + (1/k) * standard: the expected sampled
    coherent fidelity.

    A coherent record averages over the k^2 branch pairs of k iid
    sequences. The k(k - 1) off-diagonal pairs are independent sequences,
    whose mean is the full-superposition fidelity; the k diagonal pairs are
    the standard-RB survivals of the k sequences. So E[F_k] equals this
    combination exactly when `coherent` and `standard` are those two exact
    expectations; it is not a heuristic.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return (1.0 - 1.0 / k) * coherent + standard / k


def irb_bound(chi00_ref: float, chi00_gate: float) -> float:
    a = min(max(chi00_ref, 0.0), 1.0)
    b = min(max(chi00_gate, 0.0), 1.0)
    return 2.0 * math.sqrt((1.0 - a) * a * (1.0 - b) * b) + (1.0 - a) * (1.0 - b)


def irb_extract(fit_ref: DecayFit, fit_interleaved: DecayFit) -> IrbEstimate:
    """Point estimate chi00_gate = chi00_combined / chi00_ref with bound."""
    if fit_ref.chi00 <= 0.0:
        raise ValueError("reference decay is zero; cannot divide it out")
    combined = fit_interleaved.chi00
    gate = min(max(combined / fit_ref.chi00, 0.0), 1.0)
    return IrbEstimate(fit_ref.chi00, combined, gate,
                       irb_bound(fit_ref.chi00, gate))


# ---------------------------------------------------------------------------
# Deviation experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeviationScenario:
    """Named comparison cell: set, noise, superposition size, grid, seed."""

    name: str
    gate_set: GateSet
    noise: NoiseModel
    k: int
    repetitions: int
    lengths: tuple[int, ...]
    seed: int


@dataclass(frozen=True)
class DeviationSummary:
    """Per-length |F_k - F_ref| lists for both modes, plus maxima.

    The reference is the analytic decay A * chi00^m, never the data
    itself; both modes are compared against the same curve.
    """

    scenario: str
    lengths: tuple[int, ...]
    k: int
    repetitions: int
    amplitude: float
    chi00: float
    fidelities: dict
    deviations: dict
    max_deviation: dict


def decay_amplitude(noise: NoiseModel) -> float:
    """Exact SPAM constant A = (1 - eps_m) <0|E_final(rho_prep)|0>.

    It is the same for every superposition size k, so it comes from the
    D x D preparation (`NoiseModel.prep`) alone: the control state |+>
    returns unchanged.
    """
    returned = sum(op[0] @ noise.prep @ op[0].conj() for op in noise.final_channel)
    return (1.0 - noise.meas_error) * float(returned.real)


def deviation_experiment(scenario: DeviationScenario) -> DeviationSummary:
    """Run coherent and standard modes, report deviations from A * chi00^m.

    Both modes come from one coherent pass over the same draws: the k
    diagonal control blocks of each final coherent state are the k
    standard-RB runs of its sequences, each with weight 1/k, so their
    survivals give the standard record (equal to `run_standard_rb` on the
    same seed up to rounding) at no extra evolution.
    """
    chi00 = chi00_of(scenario.noise.gate_channel)
    amplitude = decay_amplitude(scenario.noise)

    base = RbRunConfig(
        gate_set=scenario.gate_set,
        noise=scenario.noise,
        lengths=scenario.lengths,
        k=scenario.k,
        repetitions=scenario.repetitions,
        seed=scenario.seed,
        mode="coherent",
    )
    runs = run_coherent_and_standard(base)

    fidelities: dict = {}
    deviations: dict = {}
    max_dev: dict = {}
    for mode, records in runs.items():
        per_m_f = {m: [] for m in scenario.lengths}
        per_m_d = {m: [] for m in scenario.lengths}
        for rec in records:
            reference = amplitude * chi00 ** rec.m
            per_m_f[rec.m].append(rec.fidelity)
            per_m_d[rec.m].append(abs(rec.fidelity - reference))
        fidelities[mode] = {m: tuple(v) for m, v in per_m_f.items()}
        deviations[mode] = {m: tuple(v) for m, v in per_m_d.items()}
        max_dev[mode] = max(max(v) for v in per_m_d.values())

    return DeviationSummary(
        scenario=scenario.name,
        lengths=scenario.lengths,
        k=scenario.k,
        repetitions=scenario.repetitions,
        amplitude=amplitude,
        chi00=chi00,
        fidelities=fidelities,
        deviations=deviations,
        max_deviation=max_dev,
    )
