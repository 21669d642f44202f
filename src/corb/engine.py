"""Randomized-benchmarking engines over exact density matrices.

Every mode runs one protocol (random sequences, their exact inverse, the
return probability) and differs only in how one draw is evaluated:
standard RB (k independent sequences, no control register), coherent RB
(k sequences in superposition, entangled with a k-level control that may
depolarize), interleaved coherent RB (a fixed gate after every random
gate in all branches), and the full |G|^m superposition. `run` dispatches
through one mode table.

Every sampled mode runs on one kernel, `_evolve`, which evolves a batch of
b independent coherent states in blocked form, so a controlled gate is a
per-branch-pair contraction rather than a full (kD)^2 matrix product.
Block (j, i) of a Hermitian state is the adjoint of block (i, j), so each
state is stored in half, as (b, k, D, w, D) with w = k // 2 + 1 (see the
kernel section below). The coherent modes evolve one k-branch state
(b = 1). A coherent run with a one-level control register is standard
RB, so standard RB evolves its k sequences as k one-branch states
(b = k, one branch each). The diagonal control blocks of a coherent state
are the standard-RB runs of its k sequences, so one coherent pass also
yields the standard record over the same draw
(`run_coherent_and_standard`); both readings come from
`_branch_survivals`.

The kernel updates the state in place. Because the state is Hermitian,
U rho U^dag = U (U rho)^dag: per position, two batched matmuls by the row
gates around one gather, which re-packs U rho into the other half layout
with its blocks transposed, and an in-place conjugation. A position
channel whose superoperator is diagonal (every Kraus operator diagonal, as
for all phase channels) is one elementwise multiply by a state-sized mask
built once per task (and reused by an equal final channel); any other
channel is one (D^2, D^2) x (D^2, w) product per branch row between two
transposed copies; the identity channel is skipped. Each (length,
repetition) task owns exactly three state-sized complex128 arrays (the
state, a work buffer, and the mask or transpose scratch) and uses two
(k, D, w, D) intp gather indices, 48 b k w D^2 + 16 k w D^2 bytes on a
64-bit platform, and allocates nothing state-sized per position; tasks
needing more than STATE_BUDGET_BYTES are refused before allocating.

The (length, repetition) tasks of a sampled run go to forked worker
processes, by default one per CPU this process may run on; CORB_THREADS (an
integer >= 1) sets their number. Each busy worker holds one task's
arrays and indices. Small runs (POOL_MIN_SIZE), single workers, platforms
without fork and processes running other threads stay serial. Records do
not depend on the worker count.

The full superposition is evaluated exactly, without building its state.
Block (i, j) evolves under two independent uniform sequences, so the
fidelity is (1 - eps_m) <0|E_final(Y_m)|0> with vec(Y_m) = R_m vec(rho_prep)
and R_t = E_{u,v}[(u^dag (x) v^T) R_{t-1} S (u (x) conj v)], R_0 = I: a
D^2 x D^2 recursion driven by the first moment A = E_u[conj u (x) u] of
the set, at cost O(|G| D^4 + m D^6) for every length up to m. A is
`gatesets._first_moment`, the same matrix the twirl check of
`gatesets.check_condition` is computed from.

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

import ctypes
import functools
import os
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gatesets import GateSet, _first_moment, _realign
from .linalg import assert_unitary, basis_state, projector
from .noise import NoiseModel

# Bytes one sampled task may hold (see _check_budget): 48 b k w D^2 +
# 16 k w D^2 with w = k // 2 + 1, so k * D up to about 5000 for one state
# (k = 2507 at D = 2). The full superposition never builds its state and is
# not capped.
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
    """A sampled run would need more than STATE_BUDGET_BYTES per task."""


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
    """Worker processes for the (length, repetition) tasks: CORB_THREADS, an
    integer >= 1, default the number of CPUs this process may run on."""
    raw = os.environ.get("CORB_THREADS")
    if raw is None:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity call on this platform
            return os.cpu_count() or 1
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"CORB_THREADS must be an integer >= 1, got {raw!r}")
    return workers


# Runs smaller than this, in branch-positions (k times the summed lengths of
# all tasks), stay serial. Starting and joining a pool of forked workers
# costs 10-30 ms; standard RB, the cheapest mode per branch-position,
# takes about 100 ms at this size, where two workers surely break even.
POOL_MIN_SIZE = 50000

# The task function, set in each forked worker by _init_worker.
_worker_task = None

# prctl option that sends the caller a signal when its parent dies (Linux).
_PR_SET_PDEATHSIG = 1


def _init_worker(fn, parent: int) -> None:
    """Keep the task function, and die with the parent: a parent killed
    mid-run leaves the pool's queues open, and an orphaned worker would
    wait on them forever."""
    global _worker_task
    _worker_task = fn
    import signal  # only workers need it
    try:
        prctl = ctypes.CDLL(None).prctl
    except AttributeError:  # not Linux: no parent-death signal
        return
    prctl.argtypes = (ctypes.c_int,) + (ctypes.c_ulong,) * 4
    prctl.restype = ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)  # best effort
    if os.getppid() != parent:  # the parent died before the signal was set
        os._exit(1)


def _run_chunk(chunk):
    return [_worker_task(task) for task in chunk]


def _map_tasks(fn, tasks, size: int):
    """[fn(t) for t in tasks], in order, spread over forked worker processes.

    Under fork the workers inherit `fn` (and the gate set and closures it
    holds) instead of unpickling it; only the task tuples and the results
    cross the pipe. Worker w runs the strided chunk tasks[w::W], so every
    worker gets the same mix of lengths. A run stays serial with one worker,
    fewer than two tasks, a `size` below POOL_MIN_SIZE, no fork start
    method, or other Python threads running. An exception raised in a
    worker is re-raised here.
    """
    workers = min(_worker_count(), len(tasks))
    if workers <= 1 or size < POOL_MIN_SIZE:
        return [fn(t) for t in tasks]
    # Imported here: the pool machinery would add about 20 ms to `import corb`.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    # Fork copies only the calling thread, so a lock that another thread
    # holds would stay held in every worker.
    if ("fork" not in multiprocessing.get_all_start_methods()
            or threading.active_count() > 1):
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_init_worker, initargs=(fn, os.getpid())) as pool:
        chunks = pool.map(_run_chunk, [tasks[w::workers] for w in range(workers)])
        results = [None] * len(tasks)
        for w, chunk in enumerate(chunks):
            results[w::workers] = chunk
    return results


# ---------------------------------------------------------------------------
# Half-stored kernel (state shape (b, k, D, w, D) with w = k // 2 + 1,
# C-contiguous: b independent k-branch states)
#
# Block (j, i) of a Hermitian state is the adjoint of block (i, j), so row i
# keeps w of its k blocks. In the forward layout slot s of row i holds block
# (i, (i + s) mod k), in the backward layout block (i, (i - s) mod k). Slot 0
# holds the diagonal block in both; for even k, slot k/2 of rows i and
# i + k/2 holds the two adjoint copies of one pair. Every conjugation flips
# the layout. The channel steps and control depolarization preserve
# Hermiticity, so they act on the stored blocks of either layout alike.
#
# Every step maps (state, free) -> (state, free) between two buffers that
# the calling task owns, so nothing state-sized is allocated per position.
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=2)
def _repack_indices(k: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather indices (into forward, into backward), each of shape
    (k, D, w, D), into a flattened state held in the other layout: entry
    [i, a, s, c] of the gathered state is entry [r, c, s, a] of the input,
    with r = (i + s) mod k into the forward layout and r = (i - s) mod k
    into the backward one. Either way slot s of input row r holds block
    (r, i), so slot s of row i receives its transpose, and block (i, r) is
    its adjoint. They depend only on (k, D); the last two are kept."""
    w = k // 2 + 1
    i, a, s, c = np.ix_(range(k), range(d), range(w), range(d))
    indices = tuple(((rows % k * d + c) * w + s) * d + a for rows in (i + s, i - s))
    for index in indices:
        index.setflags(write=False)
    return indices


def _conjugate_branches(state: np.ndarray, free: np.ndarray,
                        gates: np.ndarray, repack: np.ndarray):
    """Block (i, j) -> U_xi block U_xj^dag on every stored block of
    Hermitian states, re-packed by `repack` (one of `_repack_indices`) into
    the other layout.

    U rho U^dag = U (U rho)^dag, and block (i, j) of (U rho)^dag is the
    adjoint of block (j, i) of U rho, stored in row j of the current layout
    whenever the other layout stores block (i, j) in row i: two batched
    matmuls by the row gates around one gather and an in-place
    conjugation.
    """
    b, k, d, w = state.shape[:4]
    rows, free_rows = state.reshape(b, k, d, w * d), free.reshape(b, k, d, w * d)
    np.matmul(gates, rows, out=free_rows)                               # U rho
    # mode="clip" writes straight into `state`; "raise" would buffer.
    np.take(free.reshape(b, -1), repack, axis=1, out=state, mode="clip")
    np.conjugate(state, out=state)                                      # rho U^dag
    np.matmul(gates, rows, out=free_rows)                               # U rho U^dag
    return free, state


def _superop(kraus: Sequence[np.ndarray]) -> np.ndarray:
    """(D^2, D^2) map acting on the target-index pair of a blocked state."""
    stack = np.stack(kraus)
    d = stack.shape[1]
    return np.einsum("sab,scd->acbd", stack, stack.conj()).reshape(d * d, d * d)


def _channel_step(sop: np.ndarray, aux: np.ndarray):
    """A uniform (branch-independent) channel on the target factor, as a
    step between two state buffers. The identity is a no-op; a diagonal
    superoperator (all Kraus operators diagonal, as for every phase
    channel) is an elementwise mask held in `aux`; any other uses `aux` as
    the scratch of its transposed layout."""
    if np.array_equal(sop, np.eye(sop.shape[0])):
        return lambda state, free: (state, free)
    if not np.any(sop - np.diag(np.diagonal(sop))):
        return _mask_step(np.diagonal(sop), aux)
    return _superop_step(sop, aux)


def _mask_step(diagonal: np.ndarray, mask: np.ndarray):
    """Multiply entry [x,i,a,s,b] by diagonal[a*D + b]. The mask is filled
    once at full state size: a broadcast (1,1,D,1,D) operand makes the
    inner loop D long, about five times slower at k = 80, D = 2."""
    d = mask.shape[2]
    np.copyto(mask, diagonal.reshape(1, 1, d, 1, d))

    def step(state, free):
        np.multiply(state, mask, out=free)
        return free, state
    return step


def _superop_step(sop: np.ndarray, scratch: np.ndarray):
    """One (D^2, D^2) x (D^2, w) product per branch row, between two copies
    with the last two axes swapped. One (D^2, D^2) x (D^2, b k w) product
    would be threaded by OpenBLAS once D^4 b k w > 262144 and oversubscribe
    the CPUs of the forked workers; the per-row products stay under that
    size for every k the state budget admits at D <= 4."""
    b, k, d, w = scratch.shape[:4]
    rows = scratch.reshape(b, k, d * d, w)

    def step(state, free):
        np.copyto(rows.reshape(b, k, d, d, w), state.transpose(0, 1, 2, 4, 3))
        # The state now lives in `rows`, so its buffer takes the product.
        np.matmul(sop, rows, out=state.reshape(b, k, d * d, w))
        np.copyto(free, state.reshape(b, k, d, d, w).transpose(0, 1, 2, 4, 3))
        return free, state
    return step


def _apply_control_depolarize(rho: np.ndarray, q: float) -> np.ndarray:
    """Half-stored form of rho -> q rho + (1-q)(I_k/k)(x)tr_c(rho) on every
    state of the batch, in place: the diagonal blocks are slot 0."""
    k = rho.shape[1]
    diagonal = rho[:, :, :, 0, :]
    target = np.einsum("xiab->xab", diagonal)
    rho *= q
    diagonal += (1.0 - q) / k * target[:, None]
    return rho


def _prep_target(dim: int, prep_error: float) -> np.ndarray:
    rho = (1.0 - prep_error) * projector(basis_state(dim))
    rho += prep_error * np.eye(dim) / dim
    return rho


def _coherent_initial(b: int, k: int, target_rho: np.ndarray) -> np.ndarray:
    """b copies of |+><+|_c (x) target_rho, half-stored and C-contiguous.
    Its blocks are all equal, so it is in both layouts."""
    dim = target_rho.shape[0]
    rho = np.empty((b, k, dim, k // 2 + 1, dim), dtype=np.complex128)
    rho[...] = (target_rho / k)[None, None, :, None, :]
    return rho


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


def _evolve(gate_set: GateSet, noise: NoiseModel, sequences: np.ndarray, *,
            control_q: float = 1.0,
            interleaved_gate: np.ndarray | None = None,
            interleaved_noise: Sequence[np.ndarray] | None = None) -> np.ndarray:
    """Final half-stored states, in the forward layout, of b independent
    coherent runs, each over k branches, from a (b, k, m) sequence-index
    array.

    Protocol of each run: prepare |+>_c (x) prep(|0>); apply m controlled
    gates, each followed by the gate channel on the target (and, when
    interleaving, by the fixed gate and its channel; when control_q < 1,
    by control depolarization); apply the controlled inverse of each
    branch. The inverse gate is followed by the final channel except in
    the interleaved variant, whose closing gate is noiseless.
    """
    b, k, m = sequences.shape
    dim = gate_set.dim
    stack = gate_set.stacked()

    # The task's whole footprint: three state-sized arrays and the gather
    # indices (see _check_budget), and a few (b, k, D, D) arrays.
    state = _coherent_initial(b, k, _prep_target(dim, noise.prep_error))
    free = np.empty_like(state)
    aux = np.empty_like(state)
    into_forward, into_backward = _repack_indices(k, dim)
    position_sop = _position_sop(noise, interleaved_gate, interleaved_noise)
    channel = _channel_step(position_sop, aux)
    gates = np.empty((b, k, dim, dim), dtype=np.complex128)
    products = np.broadcast_to(
        np.eye(dim, dtype=np.complex128), (b, k, dim, dim)
    ).copy()
    spare = np.empty_like(products)

    for position in range(m):
        np.take(stack, sequences[..., position], axis=0, out=gates)
        # The layout flips at each of the m + 1 conjugations. The initial
        # state is in both, so choosing by the parity left ends in forward.
        repack = into_forward if (m - position) % 2 == 0 else into_backward
        state, free = _conjugate_branches(state, free, gates, repack)
        state, free = channel(state, free)
        np.matmul(gates, products, out=spare)
        if interleaved_gate is None:
            products, spare = spare, products
        else:
            np.matmul(interleaved_gate, spare, out=products)
        if control_q < 1.0:
            _apply_control_depolarize(state, control_q)

    np.conjugate(products.transpose(0, 1, 3, 2), out=gates)
    state, free = _conjugate_branches(state, free, gates, into_forward)
    if interleaved_gate is None:
        # The final channel is most often the gate channel: reuse its step
        # (and mask) rather than filling `aux` again.
        final_sop = _superop(noise.final_channel)
        if not np.array_equal(final_sop, position_sop):
            channel = _channel_step(final_sop, aux)
        state, free = channel(state, free)
    return state


# Both readings measure with a detector of efficiency 1 - eps_m, so
# measurement error rescales the decay amplitude without adding a constant
# offset.

def _overlap_fidelity(state: np.ndarray, meas_error: float) -> float:
    """Coherent fidelity of a one-run state: the return effect
    (1 - eps_m)|psi><psi| with psi = |+>_c (x) |0>.

    The overlap sums <0|block|0> over all k^2 blocks. It is real, and each
    stored off-diagonal block stands for itself and its adjoint, so slot 0
    counts once and every other slot twice, except slot k/2 for even k,
    which is stored twice.
    """
    k, w = state.shape[1], state.shape[3]
    weights = np.full(w, 2.0)
    weights[0] = 1.0
    if k % 2 == 0:
        weights[-1] = 1.0
    overlap = float(state[0, :, 0, :, 0].real.sum(axis=0) @ weights) / k
    return _clamp_fidelity((1.0 - meas_error) * overlap)


def _branch_survivals(state: np.ndarray, meas_error: float) -> np.ndarray:
    """Standard-RB survivals k (1 - eps_m) <0|rho_xi|0> of every branch i of
    every run x, flat, clipped into [0, 1] when all lie within FIDELITY_TOL
    of it; FidelityRangeError, naming the first value farther out,
    otherwise.

    Block (i, i) of a coherent run, slot 0 of row i, evolves exactly as a
    standard-RB run of sequence i, with weight 1/k, so with k = 1 these are
    the survivals of standard RB and with k > 1 those of the k sequences in
    superposition (unless control depolarization has mixed the blocks).
    """
    k = state.shape[1]
    diagonal = state[:, :, 0, 0, 0].real
    survivals = k * ((1.0 - meas_error) * diagonal).ravel()
    inside = (survivals >= -FIDELITY_TOL) & (survivals <= 1.0 + FIDELITY_TOL)
    if not inside.all():
        raise _out_of_range(survivals[~inside][0])
    return np.clip(survivals, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Single protocol executions
# ---------------------------------------------------------------------------

def simulate_coherent(gate_set: GateSet, noise: NoiseModel,
                      sequences: np.ndarray, *,
                      control_q: float = 1.0,
                      interleaved_gate: np.ndarray | None = None,
                      interleaved_noise: Sequence[np.ndarray] | None = None
                      ) -> float:
    """One coherent run over an explicit (k, m) sequence-index array (see
    `_evolve`), measured with the return effect (1 - eps_m)|psi><psi|,
    psi = |+>_c (x) |0>."""
    state = _evolve(gate_set, noise, np.asarray(sequences)[None],
                    control_q=control_q, interleaved_gate=interleaved_gate,
                    interleaved_noise=interleaved_noise)
    return _overlap_fidelity(state, noise.meas_error)


def simulate_standard(gate_set: GateSet, noise: NoiseModel,
                      sequences: np.ndarray) -> np.ndarray:
    """Per-sequence survival fidelities of a (k, m) sequence-index array,
    evolved as k one-branch coherent runs: with a one-level control
    register, coherent RB is standard RB. Noise insertion points are those
    of the coherent runs."""
    state = _evolve(gate_set, noise, np.asarray(sequences)[:, None, :])
    return _branch_survivals(state, noise.meas_error)


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------

def _check_budget(k: int, dim: int, batch: int = 1) -> None:
    """Refuse, before allocating, a task of `batch` states of k branches on
    a D-dimensional target whose footprint would exceed STATE_BUDGET_BYTES:
    three (batch, k, D, w, D) complex128 arrays and the two (k, D, w, D)
    gather indices of `_repack_indices`."""
    shape = (k, dim, k // 2 + 1, dim)
    blocks = k * dim * (k // 2 + 1) * dim
    needed = 3 * 16 * batch * blocks + 2 * np.dtype(np.intp).itemsize * blocks
    if needed > STATE_BUDGET_BYTES:
        what = f"joint dimension k * D = {k * dim}"
        if batch > 1:
            what = f"a batch of {batch} states of {what}"
        shape = "x".join(map(str, shape))
        raise DimensionError(
            f"{what} needs {needed} bytes per task (three {batch}x{shape} "
            f"complex128 arrays and two {shape} gather indices); the budget "
            f"is {STATE_BUDGET_BYTES} bytes")


def _out_of_range(value) -> FidelityRangeError:
    return FidelityRangeError(f"fidelity {float(value)!r} lies outside [0, 1] "
                              f"by more than {FIDELITY_TOL}")


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
    stream, so its records equal those of a run of that mode alone.

    Every task evolves one kernel state: k one-branch runs in mode
    "standard", one k-branch run otherwise. Its size is checked against
    the budget before any task starts."""
    modes = (cfg.mode,) if modes is None else modes
    if cfg.mode == "standard":
        _check_budget(1, cfg.gate_set.dim, cfg.k)
    else:
        _check_budget(cfg.k, cfg.gate_set.dim)

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
    size = cfg.k * cfg.repetitions * sum(cfg.lengths)
    return tuple(map(list, zip(*_map_tasks(one, tasks, size))))


def _coherent_estimate(cfg: RbRunConfig, **kwargs):
    """Estimator of the sampled coherent modes."""
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
    pass: the standard record of each draw averages the survivals of the
    diagonal control blocks of its final coherent state (`_branch_survivals`).

    The coherent records equal `run_coherent_rb(cfg)`; the standard ones
    equal `run_standard_rb` in mode "standard" up to rounding, since that
    run draws the same sequences from the same child streams. Standard RB
    alone evolves k one-branch states, which costs k, not k^2, per
    position.
    """
    _expect_mode(cfg, "coherent")

    def both(sequences):
        state = _evolve(cfg.gate_set, cfg.noise, sequences[None])
        return (_overlap_fidelity(state, cfg.noise.meas_error),
                float(np.mean(_branch_survivals(state, cfg.noise.meas_error))))

    coherent, standard = _sampled_run(cfg, both, ("coherent", "standard"))
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
