"""Randomized-benchmarking engines over exact density matrices.

Every mode runs one protocol (random sequences, their exact inverse, the
return probability) and differs only in how one draw is evaluated:
standard RB (k independent sequences, no control register), coherent RB
(k sequences in superposition, entangled with a k-level control that may
depolarize), interleaved coherent RB (a fixed gate after every random
gate in all branches), and the full |G|^m superposition. `run` dispatches
through one mode table. The sampled coherent state is kept in blocked
form (k, D, k, D) so a controlled gate is a per-branch-pair contraction
rather than a full (kD)^2 matrix product. Its diagonal control blocks are
the standard-RB runs of its k sequences, so one coherent pass also yields
the standard record over the same draw (`run_coherent_and_standard`).

The sampled coherent kernel updates that state in place. Because the state
is Hermitian, U rho U^dag = U (U rho)^dag: two batched matmuls around one
conjugated transposed copy per position. A position channel whose
superoperator is diagonal (every Kraus operator diagonal, as for all phase
channels) is one elementwise multiply by a state-sized mask built once per
task (per `simulate_coherent` call); any other channel is a (D^2, D^2)
product between two transposed copies; the identity channel is skipped.
Each (length, repetition) task owns exactly three (kD)^2 complex128 arrays
(the state, a work buffer, and the mask or transpose scratch),
48 (kD)^2 bytes, and allocates nothing state-sized per position; runs
needing more than STATE_BUDGET_BYTES are refused before allocating.

The full superposition is evaluated exactly, without building its state.
Block (i, j) evolves under two independent uniform sequences, so the
fidelity is (1 - eps_m) <0|E_final(Y_m)|0> with vec(Y_m) = R_m vec(rho_prep)
and R_t = E_{u,v}[(u^dag (x) v^T) R_{t-1} S (u (x) conj v)], R_0 = I: a
D^2 x D^2 recursion driven by the first moment A = E_u[conj u (x) u] of
the set, at cost O(|G| D^4 + m D^6) for every length up to m.

Conventions:
  * sequence gates are drawn iid uniformly per branch and position;
    duplicate branches are legitimate,
  * the inverse is computed as an exact matrix (sets need not be closed
    under products),
  * one master seed; each (length, repetition) owns a child stream
    derived via numpy SeedSequence spawn keys, so results are identical
    regardless of worker parallelism,
  * shots = 0 returns exact expectations, shots = N > 0 draws a binomial
    sample of the expectation,
  * a fidelity within FIDELITY_TOL of [0, 1] is clamped into it; one
    farther out raises FidelityRangeError.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gatesets import GateSet
from .linalg import assert_unitary, basis_state, projector
from .noise import NoiseModel

# Bytes one sampled coherent task may hold: its kernel keeps three
# (kD)^2 complex128 arrays, so this admits k * D <= 4096. The full
# superposition never builds its state and is not capped.
STATE_BUDGET_BYTES = 3 * 16 * 4096 ** 2

# Rounding leaves an exact fidelity within this distance outside [0, 1];
# anything farther is a fault to report, never a value to clamp.
FIDELITY_TOL = 1e-9


@dataclass(frozen=True)
class RbRunConfig:
    """One benchmarking run: set, noise, lengths, superposition size, seed."""

    gate_set: GateSet
    noise: NoiseModel
    lengths: tuple[int, ...]
    k: int = 1
    repetitions: int = 1
    seed: int = 0
    shots: int = 0
    mode: str = "coherent"

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(int(m) for m in self.lengths))
        if not self.lengths or self.lengths[0] < 1:
            raise ValueError("lengths must be positive integers")
        if any(b <= a for a, b in zip(self.lengths, self.lengths[1:])):
            raise ValueError("lengths must be strictly increasing")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.shots < 0:
            raise ValueError("shots must be >= 0")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        dim = self.gate_set.dim
        _check_shape("gate channel", self.noise.gate_channel[0], dim)
        _check_shape("final channel", self.noise.final_channel[0], dim)


@dataclass(frozen=True)
class FidelityRecord:
    """One protocol execution: estimate at a given length and repetition."""

    mode: str
    m: int
    repetition: int
    fidelity: float
    k: int
    seed_stream: str


class DimensionError(ValueError):
    """A sampled coherent run would need more than STATE_BUDGET_BYTES."""


class FidelityRangeError(RuntimeError):
    """An engine fidelity lies outside [0, 1] by more than FIDELITY_TOL."""


def _check_shape(what: str, op, dim: int) -> None:
    if np.shape(op) != (dim, dim):
        raise ValueError(f"{what} has shape {np.shape(op)}; "
                         f"the gate set needs ({dim}, {dim})")


# ---------------------------------------------------------------------------
# Seed streams and worker pool
# ---------------------------------------------------------------------------

def child_rng(seed: int, m: int, repetition: int, tag: int = 0) -> np.random.Generator:
    """Deterministic child stream for (length, repetition).

    Sequence draws use tag 0, shot sampling tag 1; the spawn key makes
    streams independent of execution order.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(m, repetition, tag))
    return np.random.default_rng(ss)


def _worker_count() -> int:
    """Threads for the (length, repetition) tasks: CORB_THREADS, an integer
    >= 1, default 1."""
    raw = os.environ.get("CORB_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"CORB_THREADS must be an integer >= 1, got {raw!r}")
    return workers


def _map_tasks(fn, tasks):
    workers = _worker_count()
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


# ---------------------------------------------------------------------------
# Blocked-state kernel (state shape (k, D, k, D), C-contiguous)
#
# Every step maps (state, free) -> (state, free) between two buffers that
# the calling task owns, so nothing state-sized is allocated per position.
# ---------------------------------------------------------------------------

def _conjugate_branches(state: np.ndarray, free: np.ndarray,
                        gates: np.ndarray):
    """state[i,:,j,:] -> U_i state[i,:,j,:] U_j^dag for a Hermitian state.

    U rho U^dag = U (U rho)^dag: two batched matmuls around one conjugated
    transposed copy, the only transpose of the step.
    """
    k, d = state.shape[0], state.shape[1]
    rows, free_rows = state.reshape(k, d, k * d), free.reshape(k, d, k * d)
    np.matmul(gates, rows, out=free_rows)                       # U rho
    np.conjugate(free.transpose(2, 3, 0, 1), out=state)         # rho U^dag
    np.matmul(gates, rows, out=free_rows)                       # U rho U^dag
    return free, state


def _superop(kraus: Sequence[np.ndarray]) -> np.ndarray:
    """(D^2, D^2) map acting on the target-index pair of a blocked state."""
    stack = np.stack(kraus)
    d = stack.shape[1]
    return np.einsum("sab,scd->acbd", stack, stack.conj()).reshape(d * d, d * d)


def _is_identity_sop(sop: np.ndarray) -> bool:
    return np.array_equal(sop, np.eye(sop.shape[0]))


def _channel_step(sop: np.ndarray, aux: np.ndarray):
    """A uniform (branch-independent) channel on the target factor, as a
    step between two state buffers. The identity is a no-op; a diagonal
    superoperator (all Kraus operators diagonal, as for every phase
    channel) is an elementwise mask held in `aux`; any other uses `aux` as
    the scratch of its (D^2, k^2) layout."""
    if _is_identity_sop(sop):
        return lambda state, free: (state, free)
    if not np.any(sop - np.diag(np.diagonal(sop))):
        return _mask_step(np.diagonal(sop), aux)
    return _superop_step(sop, aux)


def _mask_step(diagonal: np.ndarray, mask: np.ndarray):
    """Multiply entry [i,a,j,b] by diagonal[a*D + b]. The mask is filled
    once at full state size: a broadcast (1,D,1,D) operand makes the inner
    loop D long, about five times slower at k = 80, D = 2."""
    d = mask.shape[1]
    np.copyto(mask, diagonal.reshape(1, d, 1, d))

    def step(state, free):
        np.multiply(state, mask, out=free)
        return free, state
    return step


def _superop_step(sop: np.ndarray, scratch: np.ndarray):
    """One (D^2, D^2) x (D^2, k^2) product between two transposed copies."""
    k, d = scratch.shape[0], scratch.shape[1]
    pairs = scratch.reshape(d * d, k * k)

    def step(state, free):
        np.copyto(pairs.reshape(d, d, k, k), state.transpose(1, 3, 0, 2))
        # The state now lives in `pairs`, so its buffer takes the product.
        np.matmul(sop, pairs, out=state.reshape(d * d, k * k))
        np.copyto(free, state.reshape(d, d, k, k).transpose(2, 0, 3, 1))
        return free, state
    return step


def _apply_control_depolarize(rho: np.ndarray, q: float) -> np.ndarray:
    """Blocked form of rho -> q rho + (1-q)(I_k/k)(x)tr_c(rho), in place."""
    k = rho.shape[0]
    target = np.einsum("iaib->ab", rho)
    rho *= q
    np.einsum("iaib->iab", rho)[...] += (1.0 - q) / k * target
    return rho


def _prep_target(dim: int, prep_error: float) -> np.ndarray:
    rho = (1.0 - prep_error) * projector(basis_state(dim))
    rho += prep_error * np.eye(dim) / dim
    return rho


def _coherent_initial(k: int, target_rho: np.ndarray) -> np.ndarray:
    """|+><+|_c (x) target_rho in blocked form, C-contiguous."""
    dim = target_rho.shape[0]
    rho = np.empty((k, dim, k, dim), dtype=np.complex128)
    rho[...] = (target_rho / k)[None, :, None, :]
    return rho


def diagonal_block_survival(rho: np.ndarray, target_effect: np.ndarray) -> float:
    """Average survival of the diagonal control blocks of a blocked state.

    Block (i, i) of a coherent state evolves exactly as a standard-RB run
    of sequence i, with weight 1/k, so the per-branch survivals
    k tr(E rho[i,:,i,:]) are the standard survivals of the same sequences;
    they are range-checked and averaged as standard RB does.
    """
    diag = np.einsum("iaib->iab", rho)
    survivals = rho.shape[0] * np.einsum("ab,iba->i", target_effect, diag).real
    return float(np.mean(_checked_survivals(survivals)))


def _position_sop(noise: NoiseModel,
                  interleaved_gate: np.ndarray | None = None,
                  interleaved_noise: Sequence[np.ndarray] | None = None) -> np.ndarray:
    """Everything after the branch gates at one position is branch-uniform,
    so it folds into one superoperator: the gate channel, then the
    interleaved gate and its channel."""
    sop = _superop(noise.gate_channel)
    if interleaved_gate is not None:
        sop = _superop([interleaved_gate]) @ sop
        if interleaved_noise is not None:
            sop = _superop(interleaved_noise) @ sop
    return sop


def _realign(x: np.ndarray) -> np.ndarray:
    """Swap the middle two indices of a (D^2, D^2) matrix: [(ab),(cd)] -> [(ac),(bd)]."""
    d = math.isqrt(x.shape[0])
    return x.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def _first_moment(stack: np.ndarray) -> np.ndarray:
    """A = E_u[conj(u) (x) u] over a (|G|, D, D) stack, row-major (D^2, D^2)."""
    n, d, _ = stack.shape
    flat = stack.reshape(n, d * d)
    return _realign(flat.conj().T @ flat / n)


# ---------------------------------------------------------------------------
# Single protocol executions
# ---------------------------------------------------------------------------

def simulate_coherent(gate_set: GateSet, noise: NoiseModel,
                      sequences: np.ndarray, *,
                      control_q: float = 1.0,
                      interleaved_gate: np.ndarray | None = None,
                      interleaved_noise: Sequence[np.ndarray] | None = None,
                      with_standard: bool = False):
    """One coherent run over an explicit (k, m) sequence-index array.

    Protocol: prepare |+>_c (x) prep(|0>); apply m controlled gates, each
    followed by the gate channel on the target (and, when interleaving, by
    the fixed gate and its channel; when control_q < 1, by control
    depolarization); apply the controlled inverse of each branch; measure
    the return effect. The inverse gate is followed by the final channel
    except in the interleaved variant, whose closing gate is noiseless.

    With `with_standard`, returns (fidelity, standard) where `standard` is
    the standard-RB mean survival of the same k sequences, read from the
    diagonal control blocks of the final state before its buffers are
    released; with control_q < 1 those blocks mix and are no such mean.
    """
    sequences = np.asarray(sequences)
    k, m = sequences.shape
    dim = gate_set.dim
    stack = gate_set.stacked()

    # The task's whole footprint: three state-sized arrays (see
    # _check_budget) and a few (k, D, D) ones.
    state = _coherent_initial(k, _prep_target(dim, noise.prep_error))
    free = np.empty_like(state)
    aux = np.empty_like(state)
    channel = _channel_step(
        _position_sop(noise, interleaved_gate, interleaved_noise), aux)
    gates = np.empty((k, dim, dim), dtype=np.complex128)
    products = np.broadcast_to(
        np.eye(dim, dtype=np.complex128), (k, dim, dim)
    ).copy()
    spare = np.empty_like(products)

    for position in range(m):
        np.take(stack, sequences[:, position], axis=0, out=gates)
        state, free = _conjugate_branches(state, free, gates)
        state, free = channel(state, free)
        np.matmul(gates, products, out=spare)
        if interleaved_gate is None:
            products, spare = spare, products
        else:
            np.matmul(interleaved_gate, spare, out=products)
        if control_q < 1.0:
            _apply_control_depolarize(state, control_q)

    np.conjugate(products.transpose(0, 2, 1), out=gates)
    state, free = _conjugate_branches(state, free, gates)
    if interleaved_gate is None:
        state, free = _channel_step(_superop(noise.final_channel), aux)(state, free)

    # Return effect (1 - eps_m)|psi><psi| with psi = |+>_c (x) |0>: a
    # detector of efficiency 1 - eps_m, so measurement error rescales the
    # decay amplitude without adding a constant offset.
    overlap = float(state[:, 0, :, 0].sum().real) / k
    fidelity = _clamp_fidelity((1.0 - noise.meas_error) * overlap)
    if with_standard:
        return fidelity, diagonal_block_survival(state, _return_effect(noise, dim))
    return fidelity


def simulate_standard(gate_set: GateSet, noise: NoiseModel,
                      sequences: np.ndarray) -> np.ndarray:
    """Per-sequence survival fidelities, no control register.

    Noise insertion points match the coherent engine: the gate channel
    after every sequence gate, the final channel after the inverse.
    """
    sequences = np.asarray(sequences)
    k, m = sequences.shape
    dim = gate_set.dim
    stack = gate_set.stacked()

    target = _prep_target(dim, noise.prep_error)
    rho = np.broadcast_to(target, (k, dim, dim)).copy()
    branch_products = np.broadcast_to(
        np.eye(dim, dtype=np.complex128), (k, dim, dim)
    ).copy()
    gate_sop = _superop(noise.gate_channel)

    def channel(states, sop):
        if _is_identity_sop(sop):
            return states
        t = states.transpose(1, 2, 0).reshape(dim * dim, k)
        return (sop @ t).reshape(dim, dim, k).transpose(2, 0, 1)

    for position in range(m):
        gates = stack[sequences[:, position]]
        rho = np.matmul(np.matmul(gates, rho), gates.conj().transpose(0, 2, 1))
        rho = channel(rho, gate_sop)
        branch_products = np.matmul(gates, branch_products)

    inverses = branch_products.conj().transpose(0, 2, 1)
    rho = np.matmul(np.matmul(inverses, rho), inverses.conj().transpose(0, 2, 1))
    rho = channel(rho, _superop(noise.final_channel))

    survivals = np.einsum("ab,iba->i", _return_effect(noise, dim), rho).real
    return _checked_survivals(survivals)


def _return_effect(noise: NoiseModel, dim: int) -> np.ndarray:
    """(1 - eps_m)|0><0|: a detector of efficiency 1 - eps_m."""
    return (1.0 - noise.meas_error) * projector(basis_state(dim))


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------

def _check_budget(joint_dim: int) -> None:
    """Refuse, before allocating, a task whose three state-sized complex128
    arrays would exceed STATE_BUDGET_BYTES."""
    needed = 3 * 16 * joint_dim ** 2
    if needed > STATE_BUDGET_BYTES:
        raise DimensionError(
            f"joint dimension k * D = {joint_dim} needs {needed} bytes per task "
            f"(three {joint_dim}x{joint_dim} complex128 arrays); the budget is "
            f"{STATE_BUDGET_BYTES} bytes")


def _out_of_range(value) -> FidelityRangeError:
    return FidelityRangeError(f"fidelity {float(value)!r} lies outside [0, 1] "
                              f"by more than {FIDELITY_TOL}")


def _checked_survivals(survivals: np.ndarray) -> np.ndarray:
    """Per-sequence survivals clipped into [0, 1] when all lie within
    FIDELITY_TOL of it; FidelityRangeError, naming the first value farther
    out, otherwise."""
    inside = (survivals >= -FIDELITY_TOL) & (survivals <= 1.0 + FIDELITY_TOL)
    if not inside.all():
        raise _out_of_range(survivals[~inside][0])
    return np.clip(survivals, 0.0, 1.0)


def _clamp_fidelity(value) -> float:
    """Clamp a fidelity into [0, 1] when within FIDELITY_TOL of it; raise
    FidelityRangeError, naming the value, when farther out or NaN."""
    value = float(value)
    if not -FIDELITY_TOL <= value <= 1.0 + FIDELITY_TOL:
        raise _out_of_range(value)
    return min(max(value, 0.0), 1.0)


def _expect_mode(cfg: RbRunConfig, mode: str) -> None:
    if cfg.mode != mode:
        raise ValueError(f"expected mode {mode!r}, got {cfg.mode!r}")


def _sampled_run(cfg: RbRunConfig, estimate,
                 modes: tuple[str, ...] | None = None
                 ) -> tuple[list[FidelityRecord], ...]:
    """The (length, repetition) task loop of every sampled mode: `estimate`
    maps one (k, m) draw of sequence indices to one expected fidelity per
    mode in `modes` (default: cfg.mode alone), and the records come back
    as one list per mode. Each mode draws its shots from a fresh tag-1
    stream, so its records equal those of a run of that mode alone."""
    modes = (cfg.mode,) if modes is None else modes

    def one(task):
        m, rep = task
        rng = child_rng(cfg.seed, m, rep, 0)
        sequences = rng.integers(0, len(cfg.gate_set), size=(cfg.k, m))
        records = []
        for mode, fidelity in zip(modes, estimate(sequences), strict=True):
            if cfg.shots > 0:
                shots_rng = child_rng(cfg.seed, m, rep, 1)
                fidelity = shots_rng.binomial(cfg.shots, fidelity) / cfg.shots
            records.append(FidelityRecord(mode, m, rep, fidelity, cfg.k, f"{m}/{rep}"))
        return records

    tasks = [(m, rep) for m in cfg.lengths for rep in range(cfg.repetitions)]
    return tuple(map(list, zip(*_map_tasks(one, tasks))))


def _coherent_estimate(cfg: RbRunConfig, **kwargs):
    """Estimator of the sampled coherent modes, after the dimension check."""
    _check_budget(cfg.k * cfg.gate_set.dim)
    return lambda sequences: (simulate_coherent(cfg.gate_set, cfg.noise,
                                                sequences, **kwargs),)


def _full_run(cfg: RbRunConfig,
              interleaved_gate: np.ndarray | None = None,
              interleaved_noise: Sequence[np.ndarray] | None = None
              ) -> list[FidelityRecord]:
    """Every length once, exactly, over the superposition of all |G|^m
    sequences (see the module docstring); repetitions repeat it."""
    noise = cfg.noise
    dim = cfg.gate_set.dim
    moment = _first_moment(cfg.gate_set.stacked())
    step_sop = _position_sop(noise, interleaved_gate, interleaved_noise)
    readout = _superop(noise.final_channel)[0]
    if interleaved_gate is not None:
        # Each branch gate becomes g u; S then undoes the conjugation by g.
        # The closing gate is noiseless, so no final channel.
        moment = np.kron(interleaved_gate.conj(), interleaved_gate) @ moment
        step_sop = step_sop @ _superop([interleaved_gate.conj().T])
        readout = np.eye(dim * dim)[0]
    left, right = moment.T, moment.conj()
    prep = _prep_target(dim, noise.prep_error).reshape(dim * dim)

    fidelities = {}
    transfer = np.eye(dim * dim, dtype=np.complex128)
    for m in range(1, cfg.lengths[-1] + 1):
        # Two pairwise contractions; one three-operand einsum is far slower.
        transfer = _realign(left @ _realign(transfer @ step_sop) @ right)
        if m in cfg.lengths:
            value = (1.0 - noise.meas_error) * (readout @ transfer @ prep).real
            fidelities[m] = _clamp_fidelity(value)

    size = len(cfg.gate_set)
    return [FidelityRecord(cfg.mode, m, rep, fidelities[m], size ** m, f"{m}/full")
            for m in cfg.lengths for rep in range(cfg.repetitions)]


def run_standard_rb(cfg: RbRunConfig) -> list[FidelityRecord]:
    """Standard RB: each record averages k independent sequence survivals."""
    _expect_mode(cfg, "standard")
    return _sampled_run(cfg, lambda sequences: (float(np.mean(
        simulate_standard(cfg.gate_set, cfg.noise, sequences))),))[0]


def run_coherent_rb(cfg: RbRunConfig) -> list[FidelityRecord]:
    """Coherent RB with k iid-sampled sequences in superposition."""
    _expect_mode(cfg, "coherent")
    return _sampled_run(cfg, _coherent_estimate(cfg))[0]


def run_coherent_and_standard(cfg: RbRunConfig) -> dict[str, list[FidelityRecord]]:
    """Coherent RB and standard RB over the same draws, from one coherent
    pass: the standard record of each draw is read from the diagonal
    control blocks of its final coherent state (`diagonal_block_survival`).

    The coherent records equal `run_coherent_rb(cfg)`; the standard ones
    equal `run_standard_rb` in mode "standard" up to rounding, since that
    run draws the same sequences from the same child streams. Standard RB
    alone stays on `simulate_standard`, which costs k, not k^2, per
    position.
    """
    _expect_mode(cfg, "coherent")
    _check_budget(cfg.k * cfg.gate_set.dim)
    coherent, standard = _sampled_run(
        cfg, lambda sequences: simulate_coherent(cfg.gate_set, cfg.noise, sequences,
                                                 with_standard=True),
        ("coherent", "standard"))
    return {"coherent": coherent, "standard": standard}


def run_coherent_full(cfg: RbRunConfig) -> list[FidelityRecord]:
    """Deterministic coherent RB over all |G|^m sequences per length,
    evaluated exactly at cost O(|G| D^4 + m D^6)."""
    _expect_mode(cfg, "coherent-full")
    return _full_run(cfg)


def run_coherent_with_control_noise(cfg: RbRunConfig) -> list[FidelityRecord]:
    """Coherent RB with control-register depolarization after each
    sequence gate.

    The depolarization is not applied after the closing inverse gate: the
    approximate decay law (q chi00)^m + (1 - q^m)/k f_G counts one control
    error opportunity per sequence position.
    """
    _expect_mode(cfg, "coherent-control-noise")
    return _sampled_run(cfg, _coherent_estimate(cfg, control_q=cfg.noise.control_q))[0]


def run_interleaved_coherent(cfg: RbRunConfig, gate: np.ndarray,
                             gate_noise: Sequence[np.ndarray] | None = None,
                             *, full_superposition: bool = False
                             ) -> list[FidelityRecord]:
    """Interleaved coherent RB: `gate` (with its own channel) after every
    random gate in all branches; the closing inverse, which includes the
    interleaved gate, is noiseless."""
    _expect_mode(cfg, "interleaved")
    dim = cfg.gate_set.dim
    _check_shape("interleaved gate", gate, dim)
    for op in () if gate_noise is None else gate_noise:
        _check_shape("interleaved gate channel", op, dim)
    kwargs = dict(interleaved_gate=assert_unitary(gate, what="interleaved gate"),
                  interleaved_noise=gate_noise)
    if full_superposition:
        return _full_run(cfg, **kwargs)
    return _sampled_run(cfg, _coherent_estimate(cfg, **kwargs))[0]


# The mode table, called as runner(cfg, gate, gate_noise). Each entry looks
# its runner up at call time, so a wrapped module attribute also sees the
# calls made through `run`.
_RUNNERS = {
    "standard": lambda cfg, *_: run_standard_rb(cfg),
    "coherent": lambda cfg, *_: run_coherent_rb(cfg),
    "coherent-full": lambda cfg, *_: run_coherent_full(cfg),
    "interleaved": lambda cfg, *gate: run_interleaved_coherent(cfg, *gate),
    "coherent-control-noise": lambda cfg, *_: run_coherent_with_control_noise(cfg),
}
MODES = tuple(_RUNNERS)


def run(cfg: RbRunConfig, *, interleaved_gate: np.ndarray | None = None,
        interleaved_noise: Sequence[np.ndarray] | None = None
        ) -> list[FidelityRecord]:
    """Run cfg.mode through the mode table; interleaved mode needs the gate."""
    if cfg.mode == "interleaved" and interleaved_gate is None:
        raise ValueError("interleaved mode needs an interleaved gate")
    return _RUNNERS[cfg.mode](cfg, interleaved_gate, interleaved_noise)
