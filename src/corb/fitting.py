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


def fit_decay(points: Sequence[tuple[float, float]]) -> DecayFit:
    """Fit A * chi00^m to (m, fidelity) points.

    Stage 1 initializes from ordinary least squares on log(F) vs m
    (nonpositive fidelities excluded there only); stage 2 runs
    Gauss-Newton on the squared residuals in linear space. Divergent
    refinements fall back to the stage-1 estimate with converged=False; a
    refinement that reaches GN_MAX_ITER iterations keeps its last estimate,
    also with converged=False. Both stages and the covariance solve 2x2
    normal equations in closed form. A length or a fidelity that is not
    finite is refused, naming it.
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
    # After the checks above, so every input they refuse keeps its message;
    # the first non-finite fidelity (NaN or -inf) is refused after all the
    # lengths are checked.
    nonfinite = None
    for m, f in zip(ms.tolist(), fidelities):
        if not math.isfinite(m):
            raise ValueError(f"sequence length {m!r} is not finite")
        if nonfinite is None and not math.isfinite(f):
            nonfinite = f
    if nonfinite is not None:
        raise ValueError(f"fidelity {nonfinite!r} is not finite")

    positive = fs > 0.0
    a, chi = a0, chi0 = _log_linear(ms[positive], np.log(fs[positive]))

    # Rows d/dA, d/dchi and the residual of the model A chi^m at (a, chi):
    # their Gram product holds J^T J, J^T r and r^T r, everything a step or
    # the covariance reads, as Python floats.
    rows = np.empty((3, len(fs)))
    lowered = ms - 1

    def gram(a, chi):
        np.power(chi, ms, out=rows[0])
        np.multiply(a * ms, chi ** lowered, out=rows[1])
        np.multiply(rows[0], a, out=rows[2])
        rows[2] -= fs
        return rows.dot(rows.T).tolist()

    converged = False
    for _ in range(GN_MAX_ITER):
        (pp, ps, pr), (_, ss, sr), _ = gram(a, chi)
        step_a, step_chi = _gauss_newton_step(pp, ps, ss, pr, sr)
        a += step_a
        chi += step_chi
        if not (math.isfinite(a) and math.isfinite(chi)) or abs(chi) > 10.0:
            a, chi = a0, chi0  # diverged: report the stage-1 estimate
            break
        if math.sqrt(step_a * step_a + step_chi * step_chi) < GN_STEP_TOL:
            converged = True
            break

    chi = min(max(chi, 0.0), 1.0)
    a = max(a, 0.0)
    (pp, ps, _), (_, ss, _), (_, _, squares) = gram(a, chi)
    rms = math.sqrt(squares / len(fs))

    # At least 3 distinct lengths leave dof >= 1. The covariance is the
    # closed-form inverse of J^T J.
    stderr_a = stderr_chi = math.nan
    det = pp * ss - ps * ps
    if det != 0.0:
        s2 = squares / (len(fs) - 2)
        stderr_a = math.sqrt(max(s2 * ss / det, 0.0))
        stderr_chi = math.sqrt(max(s2 * pp / det, 0.0))

    return DecayFit(a, chi, rms, len(fs), converged, stderr_a, stderr_chi)


def _log_linear(lengths: np.ndarray, logs: np.ndarray) -> tuple[float, float]:
    """exp of the least-squares line log F = c0 + c1 m through the points,
    from its 2x2 normal equations in the offsets d = m - m_1 from the first
    length, which are exactly zero when every length is the same. Then the
    line is not unique, and the minimum-norm coefficients
    (c0, c1) = (1, m_1) mean(log F) / (1 + m_1^2) are taken, as `lstsq`
    does."""
    first = float(lengths[0])
    rows = np.empty((3, len(logs)))
    rows[0] = 1.0
    np.subtract(lengths, first, out=rows[1])
    rows[2] = logs
    (n, sd, sy), (_, sdd, sdy), _ = rows.dot(rows.T).tolist()
    spread = sdd - sd * sd / n
    if spread == 0.0:
        c0 = sy / n / (1.0 + first * first)
        return math.exp(c0), math.exp(first * c0)
    c1 = (sdy - sd * sy / n) / spread
    return math.exp((sy - c1 * sd) / n - c1 * first), math.exp(c1)


def _gauss_newton_step(pp: float, ps: float, ss: float, pr: float,
                       sr: float) -> tuple[float, float]:
    """-(J^T J)^+ J^T r from the entries of the 2x2 normal equations,
    [[pp, ps], [ps, ss]] and (pr, sr): Cramer's rule, or, when the matrix
    is singular, its pseudo-inverse G / tr(G)^2 (zero for G = 0), the
    minimum-norm step that `lstsq` takes."""
    det = pp * ss - ps * ps
    if det != 0.0:
        return (ps * sr - ss * pr) / det, (ps * pr - pp * sr) / det
    trace = pp + ss
    if trace == 0.0:
        return 0.0, 0.0
    return -(pp * pr + ps * sr) / trace / trace, -(ps * pr + ss * sr) / trace / trace


def fit_records(records: Sequence[FidelityRecord]) -> DecayFit:
    return fit_decay([(r.m, r.fidelity) for r in records])


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
class DeviationSummary:
    """Per-length |F_k - F_ref| lists for both modes, plus maxima.

    The reference is the analytic decay A * chi00^m, never the data
    itself; both modes are compared against the same curve.
    """

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


def deviation_experiment(cfg: RbRunConfig) -> DeviationSummary:
    """Run the coherent config `cfg` and standard RB over the same draws,
    and report each record's deviation from A * chi00^m.

    Both modes come from one coherent pass (`run_coherent_and_standard`):
    the k diagonal control blocks of each final coherent state are the k
    standard-RB runs of its sequences, each with weight 1/k, so their
    survivals give the standard record (equal to `run_standard_rb` on the
    same seed up to rounding) at no extra evolution.
    """
    chi00 = chi00_of(cfg.noise.gate_channel)
    amplitude = decay_amplitude(cfg.noise)
    runs = run_coherent_and_standard(cfg)

    fidelities: dict = {}
    deviations: dict = {}
    max_dev: dict = {}
    for mode, records in runs.items():
        per_m_f = {m: [] for m in cfg.lengths}
        per_m_d = {m: [] for m in cfg.lengths}
        for rec in records:
            reference = amplitude * chi00 ** rec.m
            per_m_f[rec.m].append(rec.fidelity)
            per_m_d[rec.m].append(abs(rec.fidelity - reference))
        fidelities[mode] = {m: tuple(v) for m, v in per_m_f.items()}
        deviations[mode] = {m: tuple(v) for m, v in per_m_d.items()}
        max_dev[mode] = max(max(v) for v in per_m_d.values())

    return DeviationSummary(
        amplitude=amplitude,
        chi00=chi00,
        fidelities=fidelities,
        deviations=deviations,
        max_deviation=max_dev,
    )
