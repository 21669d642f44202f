"""Randomized-benchmarking engines over exact density matrices.

Every mode runs one protocol (random sequences, their exact inverse, the
return probability) and differs only in how one draw is evaluated:
standard RB (k independent sequences, no control register), coherent RB
(k sequences in superposition, entangled with a k-level control that may
depolarize), interleaved coherent RB (a fixed gate after every random
gate in all branches), and the full |G|^m superposition. A run is one
RbRunConfig, which holds the interleaved gate and its channel too (in
interleaved mode only), and `run` dispatches it through one mode table.

Every engine runs on one triple, which its RbRunConfig holds: the stack
each position draws its gate from (`RbRunConfig.stack`, built on demand),
the position channel that follows every drawn gate and the final channel
that follows the closing inverse (`position_sop` and `final_sop`, derived
once, when the config is made). Interleaving is not a variant of any
engine: it only derives that triple. With a fixed gate g and its channel
N_g, the stack becomes {g u}, the position channel S(N_g) S(g) S(N)
S(g^dag), and the final channel, since the closing gate is noiseless, the
identity.

Every sampled mode runs on one kernel, `_evolve`, which evolves one
k-branch state in blocked form, so a controlled gate is a per-branch-pair
contraction rather than a full (kD)^2 matrix product. Block (j, i) of a
Hermitian state is the adjoint of block (i, j), so row i stores w of its k
blocks, as (k, w, D, D), each block transposed (see the kernel section
below): w = k // 2 + 1 for the coherent modes. The diagonal control blocks
of a coherent state are the standard-RB runs of its k sequences, so
standard RB stores only them (w = 1), and one coherent pass also yields
the standard record over the same draw (`run_coherent_and_standard`);
both readings come from `_branch_survivals`. The kernel updates the state
in place, and every product it takes is a float64 batched matmul; each
conjugation is two products around one gather, which re-packs the state
into the other half layout.

What a task needs that does not depend on its draw is held by the run's
`_Kernel`, built once per run before the workers fork: the plain and the
conjugating real form of every gate of the stack, a (2, |G|, 2D, 2D)
float64 array of 64 |G| D^2 bytes, refused like a task when it exceeds
STATE_BUDGET_BYTES, and one (w, D, D) slot row of the initial state.
What is state-sized is built later, by each process at its first task,
and dies with the kernel: the two (k, w, D, D) intp gather indices and
the step of each channel, classified from its superoperator. The
identity is skipped, a diagonal one (every Kraus operator diagonal, as
for all phase channels) is one elementwise multiply by a read-only mask,
state-sized for the position channel and a (w, D, D) slot row for a
final channel that differs from it, and any other is one real
(blocks, 2D^2) x (2D^2, 2D^2) product over all stored blocks. Each
(length, repetition) task owns two state-sized complex128 arrays (the
state and a work buffer) and uses the indices and the mask, 64 k w D^2
bytes on a 64-bit platform in all, and allocates nothing state-sized per
position; a task needing more than STATE_BUDGET_BYTES is refused before
allocating.

The (length, repetition) tasks of a sampled run go to forked worker
processes, one per CPU this process may run on (`_worker_count`; a cpuset
or `taskset` lowers it). Each busy worker holds one task's arrays and
the run's indices; all share the run's gate stack. Small runs
(POOL_MIN_SIZE), single workers, platforms without fork and processes
running other threads stay serial. Records do not depend on the worker
count.

Exact expectations come from one recursion, `exact_fidelities`, which
builds no state and draws no sequence, and runs on the same protocol and
the prepared state of its `NoiseModel`. Block (i, j) of a coherent state
evolves under the sequences of branches i and j, so its mean return is
(1 - eps_m) <0|E_final(Y_m)|0> with vec(Y_m) = R_m vec(rho_prep) and
R_t = M^T acting on vec(R_{t-1} S), R_0 = I, where S is the position
channel and M the joint moment of the pair's gates (u, v) from the stack:
  * independent pair (v drawn apart from u): the full superposition, whose
    blocks are all such pairs, and the off-diagonal blocks of a sampled
    state. M factorizes into the first moment A = E_u[conj u (x) u] of the
    set, the conjugate of the stack's superoperator (`noise.superop`) over
    |G|, which the twirl check of `gatesets.check_condition` is computed
    from too, so each step is two D^2 x D^2 products, at cost
    O(|G| D^4 + m D^6) for every length up to m;
  * same sequence (v = u): a diagonal block, the standard-RB survival,
    averaged over all sequences. M = E_u[conj u (x) u (x) u (x) conj u] is a
    dense D^4 x D^4 matrix, one (D^4, |G|) x (|G|, D^4) product, refused
    like a task when its arrays exceed STATE_BUDGET_BYTES.
For a stack dressed by (L, R), element i = L P_i R over all D^2 Weyl
operators P_i (a set whose elements are such a coset has
`GateSet.dressing` R and L = I, and the same set interleaved with g has
L = g), the average over P_i makes both steps
closed forms, and no stack and no moment is built:
  * independent pair: A = vec(I) vec(I)^T / D exactly, so R_t = c_t I with
    c_t = c_{t-1} tr(S) / D^2;
  * same sequence: the step is the projection onto the diagonal in the
    normalized Weyl basis Q, conjugated by L and R, so
    R_t = S(R)^dag Q diag(lambda_t) Q^dag S(R), and the D^2-vector
    lambda_t = T lambda_{t-1}, lambda_0 = 1, carries the recursion, with
    T = (A1^dag A2) * (A2^dag S A1)^T elementwise, A1 = S(L) Q and
    A2 = S(R)^dag Q: O(D^6) once, then O(D^4) per length.
A sampled coherent record averages k (k - 1) pairs of the first kind and k
of the second, so its expectation is `fitting.combined_decay` of the two.

Conventions:
  * sequence gates are drawn iid uniformly per branch and position;
    duplicate branches are legitimate,
  * the inverse is computed as an exact matrix (sets need not be closed
    under products),
  * one master seed; each (length, repetition) owns a child stream
    derived via numpy SeedSequence spawn keys, so results are identical
    regardless of worker parallelism,
  * shots = 0 returns exact expectations, shots = N > 0 draws a binomial
    sample of the expectation (sampled modes only; the full superposition
    refuses shots),
  * every run's inputs are checked once, by its RbRunConfig, before
    anything runs, and no engine checks them again: a channel or an
    interleaved gate that does not act on the set's dimension is refused,
    and so are an interleaved gate that is not unitary, an interleaved
    channel that is not trace preserving, and channels with trace gains
    delta (`noise.trace_gain`, derived once by the NoiseModel and once for
    the interleaved channel) when the trace they can add together exceeds
    FIDELITY_TOL at the longest length m: (1 + delta_gate)^m
    (1 + delta_final) - 1, since the final channel acts once, and
    (1 + delta_gate)^m (1 + delta_interleaved)^m - 1,
  * sequence lengths are strictly increasing integers >= 1, and k,
    repetitions, shots and the seed integers: ints, numpy integers or
    integral floats, stored as ints; any other value, a bool included, is
    refused, never truncated,
  * a fidelity within FIDELITY_TOL of [0, 1] is clamped into it; one
    farther out raises FidelityRangeError (`_clamped`).
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import sys
import threading
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .gatesets import GateSet
from .io import FidelityRecord
from .linalg import ARRAY_BUDGET_BYTES, _realign, assert_unitary, check_bytes, check_kraus_gram
from .noise import NoiseModel, superop, trace_gain
from .paulis import pauli_basis

# Bytes one sampled task may hold (see _check_budget): 64 k w D^2, so with
# w = k // 2 + 1, k * D up to about 5000 for a coherent state (k = 2507 at
# D = 2). The full superposition never builds its state and is
# not capped; the run's real gate stack (_real_gates) and the dense moment
# that `exact_fidelities` builds for `same_sequence` (_same_sequence_moment)
# are held to it too. Every check reads it when it runs (`check_bytes`).
STATE_BUDGET_BYTES = 3 * ARRAY_BUDGET_BYTES

# Rounding leaves an exact fidelity within this distance outside [0, 1];
# anything farther is a fault to report, never a value to clamp.
FIDELITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class RbRunConfig:
    """One benchmarking run: set, noise, lengths, superposition size, seed,
    mode and, in interleaved mode, the interleaved gate and its channel,
    checked here, once for every engine (see the module docstring); a
    refusal names the first length that is not an integer >= 1. The gate
    is stored as a read-only unitary complex128 matrix (a copy, unless it
    is one already) and its channel as a tuple of checked, read-only Kraus
    operators (`check_kraus_gram`), so that no later write to the caller's
    arrays reaches the run. Interleaved mode without a gate is admitted
    here, so that a gate can be given later (`run_interleaved_coherent`),
    and refused when the run starts (`_check_gate`). Configs hash and
    compare by identity.

    It derives, once, the superoperators every engine runs on, as
    read-only attributes that are not fields: `position_sop` and
    `final_sop`, the noise model's own `gate_sop` and `final_sop` without
    an interleaved gate g, else S(N_g) S(g) S(N) S(g)^dag and the
    identity. The stack is built on demand (`stack`)."""

    gate_set: GateSet
    noise: NoiseModel
    lengths: tuple[int, ...]
    k: int = 1
    repetitions: int = 1
    seed: int = 0
    shots: int = 0
    mode: str = "coherent"
    interleaved_gate: np.ndarray | None = None
    interleaved_noise: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        lengths = tuple(self.lengths)
        if not lengths:
            raise ValueError("lengths must be positive integers, got none")
        for m in lengths:
            if not _is_integral(m):
                raise ValueError(f"sequence length {m!r} is not an integer")
            if m < 1:
                raise ValueError(f"lengths must be positive integers, got {m!r}")
        object.__setattr__(self, "lengths", tuple(map(int, lengths)))
        if any(b <= a for a, b in zip(self.lengths, self.lengths[1:])):
            raise ValueError("lengths must be strictly increasing")
        for name in ("k", "repetitions", "shots", "seed"):
            value = getattr(self, name)
            if not _is_integral(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
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
        # `NoiseModel` keeps both channels on one dimension.
        dim, longest = self.gate_set.dim, self.lengths[-1]
        _check_shape("gate channel", self.noise.gate_channel[0], dim)
        _check_gains(longest, self.noise.gate_gain, "final channel",
                     self.noise.final_gain, per_position=False)
        object.__setattr__(self, "position_sop", self.noise.gate_sop)
        object.__setattr__(self, "final_sop", self.noise.final_sop)
        gate, gate_noise = self.interleaved_gate, self.interleaved_noise
        if gate is None and gate_noise is None:
            return
        if self.mode != "interleaved":
            raise ValueError(f"mode {self.mode} takes no interleaved gate or channel")
        if gate is None:
            raise ValueError("an interleaved gate channel needs an interleaved gate")
        _check_shape("interleaved gate", gate, dim)
        for op in () if gate_noise is None else gate_noise:
            _check_shape("interleaved gate channel", op, dim)
        gate = assert_unitary(gate, what="interleaved gate")
        if gate.flags.writeable:
            gate = gate.copy()
            gate.flags.writeable = False
        object.__setattr__(self, "interleaved_gate", gate)
        gain = 0.0
        if gate_noise is not None:
            gate_noise, gram = check_kraus_gram(gate_noise, what="interleaved gate channel")
            object.__setattr__(self, "interleaved_noise", tuple(gate_noise))
            gain = trace_gain(gram)
        _check_gains(longest, self.noise.gate_gain, "interleaved gate channel", gain,
                     per_position=True)
        # S(N_g) from the checked operators, not the stored tuple: `superop`
        # reads a stacked copy in place.
        gate_sop = superop(gate[None])
        position_sop = gate_sop @ self.noise.gate_sop
        if gate_noise is not None:
            position_sop = superop(gate_noise) @ position_sop
        position_sop = position_sop @ gate_sop.conj().T
        final_sop = np.eye(dim * dim, dtype=np.complex128)
        for name, value in (("position_sop", position_sop), ("final_sop", final_sop)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def stack(self) -> np.ndarray:
        """The (|G|, D, D) stack each position draws from: the set's
        elements, or g u for each element u when interleaving g. It is
        built on each call and not kept: a g u stack is as large as the
        set's own (268 MB at Pauli(2,6)), and the closed forms of a dressed
        set never read it."""
        gate, elements = self.interleaved_gate, self.gate_set.elements
        return elements if gate is None else gate @ elements


class FidelityRangeError(RuntimeError):
    """An engine fidelity lies outside [0, 1] by more than FIDELITY_TOL."""


def _is_integral(value) -> bool:
    """An int, a numpy integer or an integral float such as 3.0, but no
    bool: Python's and numpy's are refused alike."""
    if isinstance(value, (bool, np.bool_)):
        return False
    return (isinstance(value, (int, np.integer))
            or isinstance(value, (float, np.floating)) and float(value).is_integer())


def _check_shape(what: str, op, dim: int) -> None:
    if np.shape(op) != (dim, dim):
        raise ValueError(f"{what} has shape {np.shape(op)}; "
                         f"the gate set needs ({dim}, {dim})")


def _check_gains(longest: int, gate_gain: float, other: str, other_gain: float,
                 *, per_position: bool) -> None:
    """Refuse a gate channel and another channel (the final one, applied
    once, or an interleaved one, applied at every position) whose trace
    gains delta (`noise.trace_gain`) could together carry a fidelity past
    FIDELITY_TOL within the longest sequence: (1 + delta_gate)^m
    (1 + delta_other)^(1 or m) - 1 > FIDELITY_TOL. The message names the
    channel with the larger gain first."""
    power = longest if per_position else 1
    growth = (1.0 + gate_gain) ** longest * (1.0 + other_gain) ** power - 1.0
    if growth > FIDELITY_TOL:
        (top, top_gain), (low, low_gain) = sorted(
            [("gate channel", gate_gain), (other, other_gain)], key=lambda c: -c[1])
        factor = f"(1 + delta_{other.split()[0]})" + ("^m" if per_position else "")
        raise ValueError(
            f"{top} gains trace: delta = lambda_max(sum K^dag K) - 1 = {top_gain:.3e}, "
            f"{low} delta = {low_gain:.3e}, so (1 + delta_gate)^m {factor} - 1 = "
            f"{growth:.3e} exceeds {FIDELITY_TOL} at length m = {longest}")


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
    """Worker processes for the (length, repetition) tasks: the number of
    CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


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
    worker gets the same mix of lengths. A run stays serial when the worker
    count (`_worker_count`) or the task count is below 2, `size` is below
    POOL_MIN_SIZE, fork is missing, or other Python threads run. An
    exception raised in a worker is re-raised here.
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
# Half-stored kernel (one k-branch state of shape (k, w, D, D), C-contiguous)
#
# Block (j, i) of a Hermitian state is the adjoint of block (i, j), so row i
# keeps w of its k blocks. In the forward layout slot s of row i holds block
# (i, (i + s) mod k), in the backward layout block (i, (i - s) mod k). Slot 0
# holds the diagonal block in both; for even k and w = k // 2 + 1, slot k/2
# of rows i and i + k/2 holds the two adjoint copies of one pair. Every
# conjugation flips the layout. The channel steps and control
# depolarization preserve Hermiticity, so they act on the stored blocks of
# either layout alike. With w = 1 only the diagonal is stored: no gate
# couples two branches' diagonal blocks, so they evolve as k standard runs.
#
# Each block B is stored transposed: entry [i, s, c, a] is B[a, c], so
# the row-target index a comes last and a gate U acts on the right, as
# x -> x U^T on every row x of the last axis. Every such product runs in
# real arithmetic: viewed as float64, a complex row of length n is a real
# row of length 2n (re, im interleaved), and x -> x M is x_r -> x_r R(M)
# with the (2n, 2n) real form R of `_real_form`. R(M1 M2) = R(M1) R(M2),
# R(M)^T = R(M^dag), and J R(M), with J negating the imaginary rows, maps
# x_r to the real view of conj(x) M.
#
# Every step maps (state, free) -> (state, free) between two buffers that
# the calling task owns, so nothing state-sized is allocated per position.
# ---------------------------------------------------------------------------

def _real_form(mats: np.ndarray) -> np.ndarray:
    """The (..., 2n, 2n) float64 forms R of complex (..., n, n) matrices M:
    for a complex row x, x.view(float64) @ R(M) == (x @ M).view(float64)."""
    n = mats.shape[-1]
    form = np.empty(mats.shape[:-2] + (n, 2, n, 2))
    form[..., :, 0, :, 0] = form[..., :, 1, :, 1] = mats.real
    form[..., :, 0, :, 1] = mats.imag
    form[..., :, 1, :, 0] = -mats.imag
    return form.reshape(mats.shape[:-2] + (2 * n, 2 * n))


def _signs(dim: int) -> np.ndarray:
    """The (2D, 1) signs of J: times a real form R(M), the conjugating form
    J R(M), which maps x.view(float64) to conj(x) @ M."""
    return np.tile([1.0, -1.0], dim)[:, None]


def _real_gates(stack: np.ndarray) -> np.ndarray:
    """The run's read-only (2, |G|, 2D, 2D) float64 gate stack, built once
    per run before any task is forked: for each U of a (|G|, D, D) stack,
    R(U^T) and J R(U^T), the plain and the conjugating form of the gate
    step. Refused, before allocating, when its 64 |G| D^2 bytes exceed
    STATE_BUDGET_BYTES."""
    size, dim = stack.shape[:2]
    check_bytes(2 * 8 * size * (2 * dim) ** 2, STATE_BUDGET_BYTES,
                f"the real gate stack of {size} elements of dimension {dim}",
                f"(a 2x{size}x{2 * dim}x{2 * dim} float64 array)")
    gates = np.empty((2, size, 2 * dim, 2 * dim))
    gates[0] = _real_form(stack.transpose(0, 2, 1))
    np.multiply(gates[0], _signs(dim), out=gates[1])
    gates.setflags(write=False)
    return gates


def _repack_indices(k: int, w: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather indices (into forward, into backward), each of shape
    (k, w, D, D), into a flattened state held in the other layout: entry
    [i, s, c, a] of the gathered state is entry [r, s, a, c] of the input,
    with r = (i + s) mod k into the forward layout and r = (i - s) mod k
    into the backward one. Either way slot s of input row r holds block
    (r, i), so slot s of row i receives its transpose, and block (i, r) is
    its adjoint."""
    i, s, c, a = np.ix_(range(k), range(w), range(d), range(d))
    indices = tuple(((rows % k * w + s) * d + a) * d + c for rows in (i + s, i - s))
    for index in indices:
        index.setflags(write=False)
    return indices


def _conjugate_branches(state: np.ndarray, free: np.ndarray,
                        gates: np.ndarray, repack: np.ndarray):
    """Block (i, j) -> U_i block U_j^dag on every stored block of a
    Hermitian state, re-packed by `repack` (one of `_repack_indices`) into
    the other layout; `gates` holds the plain and the conjugating real form
    of U_i^T at [0, i] and [1, i].

    U rho U^dag = U (U rho)^dag, and block (i, j) of (U rho)^dag is the
    adjoint of block (j, i) of U rho, stored in row j of the current layout
    whenever the other layout stores block (i, j) in row i: two real
    batched matmuls around one gather, the second of which conjugates.
    """
    k, w, d = state.shape[:3]
    rows = state.view(np.float64).reshape(k, w * d, 2 * d)
    free_rows = free.view(np.float64).reshape(k, w * d, 2 * d)
    np.matmul(rows, gates[0], out=free_rows)                            # U rho
    # mode="clip" writes straight into `state`; "raise" would buffer.
    np.take(free.reshape(-1), repack, out=state, mode="clip")
    np.matmul(rows, gates[1], out=free_rows)                            # U rho U^dag
    return free, state


def _channel_step(sop: np.ndarray, shape: tuple[int, ...]):
    """The step between two state buffers of a uniform
    (branch-independent) channel on the target factor, classified from its
    superoperator: the identity is skipped; a diagonal one (all Kraus
    operators diagonal, as for every phase channel) multiplies every entry
    [i, s, c, a] by diagonal[a*D + c], held in a read-only mask of `shape`,
    a state or a (w, D, D) slot row that the multiply broadcasts over the
    k rows; any other is a real product over the stored blocks
    (`_superop_step`)."""
    if np.array_equal(sop, np.eye(sop.shape[0])):
        return _skip
    if np.any(sop - np.diag(np.diagonal(sop))):
        return _superop_step(sop)
    d = math.isqrt(sop.shape[0])
    mask = np.broadcast_to(np.diagonal(sop).reshape(d, d).T, shape).copy()
    mask.setflags(write=False)

    def step(state, free):
        np.multiply(state, mask, out=free)
        return free, state
    return step


def _skip(state, free):
    return state, free


# OpenBLAS threads a product of m x n x k flops above this size, which
# would oversubscribe the CPUs of the forked workers.
_BLAS_SERIAL_SIZE = 262144


def _superop_step(sop: np.ndarray):
    """The map of a superoperator (`noise.superop`) on every stored block.
    A stored block lists its entries [c, a] contiguously, so the channel is
    one real (blocks, 2D^2) x (2D^2, 2D^2) product over all k w stored
    blocks, with the superoperator's row and column pairs swapped to (c, a)
    and its real form taken once. The blocks go in chunks small enough
    that no product exceeds _BLAS_SERIAL_SIZE: 4096 blocks at D = 2 (all
    of them up to k = 89), 256 at D = 4."""
    d = math.isqrt(sop.shape[0])
    swap = np.arange(d * d).reshape(d, d).T.ravel()
    form = _real_form(sop[np.ix_(swap, swap)].T)
    chunk = max(1, _BLAS_SERIAL_SIZE // form.size)

    def step(state, free):
        rows = state.view(np.float64).reshape(-1, 2 * d * d)
        free_rows = free.view(np.float64).reshape(-1, 2 * d * d)
        if len(rows) <= chunk:  # slicing costs about 2 us
            np.matmul(rows, form, out=free_rows)
        else:
            for start in range(0, len(rows), chunk):
                np.matmul(rows[start:start + chunk], form,
                          out=free_rows[start:start + chunk])
        return free, state
    return step


def _apply_control_depolarize(rho: np.ndarray, q: float) -> np.ndarray:
    """Half-stored form of rho -> q rho + (1-q)(I_k/k)(x)tr_c(rho), in
    place: the diagonal blocks are slot 0."""
    k = rho.shape[0]
    diagonal = rho[:, 0]
    target = np.einsum("iab->ab", diagonal)
    rho *= q
    diagonal += (1.0 - q) / k * target
    return rho


def _shared_blocks(k: int, slots: int) -> int:
    """How many diagonal blocks share the prepared target: k when the state
    stores off-diagonal slots, 1 when only the diagonal (exact at k = 1)."""
    return k if slots > 1 else 1


class _Kernel:
    """What every task of a sampled run shares, for states of k branches
    stored in `slots` slots per row (see the module docstring), built from
    a config's stack, superoperators and prepared target once per run,
    before the workers fork. What is state-sized waits for a task: each
    process builds the gather indices (`repack`) and the channel steps
    (`channel`, `final`) at its first task, so the parent of a pooled run
    builds none.

    Protocol of each state: prepare |+>_c (x) prep, of which only the
    diagonal blocks are kept when slots = 1; apply m controlled gates from
    the stack, each followed by the position channel on the target (and,
    when control_q < 1, by control depolarization); apply the controlled
    inverse of each branch, followed by the final channel.
    """

    def __init__(self, cfg: RbRunConfig, k: int, slots: int, *, control_q: float = 1.0):
        stack = cfg.stack()
        dim = stack.shape[-1]
        self.k, self.slots, self.dim = k, slots, dim
        self.position_sop, self.final_sop = cfg.position_sop, cfg.final_sop
        self.gates = _real_gates(stack)
        # |+><+|_c (x) prep has all blocks equal, so it is in both layouts.
        self.initial = np.empty((slots, dim, dim), dtype=np.complex128)
        self.initial[...] = (cfg.noise.prep / _shared_blocks(k, slots)).T
        self.signs = _signs(dim)
        self.identity = np.broadcast_to(np.eye(2 * dim), (k, 2 * dim, 2 * dim)).copy()
        self.control_q = control_q

    @functools.cached_property
    def repack(self) -> tuple[np.ndarray, np.ndarray]:
        """The run's `_repack_indices`, built by each process at its first
        task and freed with the kernel."""
        return _repack_indices(self.k, self.slots, self.dim)

    @functools.cached_property
    def channel(self):
        """The position channel's `_channel_step`, built by each process at
        its first task and freed with the kernel. A phase channel's mask is
        state-sized, since it runs at every position: broadcasting a
        (1, 1, D, D) block over the state makes the multiply's inner loop D
        long, about five times slower at k = 80, D = 2, and a (w, D, D) slot
        row about twice as slow."""
        return _channel_step(self.position_sop, (self.k, self.slots, self.dim, self.dim))

    @functools.cached_property
    def final(self):
        """The final channel's step: the position channel's when the two
        are equal, as they most often are, else its own, whose mask, for a
        phase channel, is a (w, D, D) slot row broadcast over the k rows:
        it runs once per task, not once per position."""
        if np.array_equal(self.final_sop, self.position_sop):
            return self.channel
        return _channel_step(self.final_sop, (self.slots, self.dim, self.dim))


def _evolve(kernel: _Kernel, sequences: np.ndarray) -> np.ndarray:
    """Final half-stored state, in the forward layout, of one run over k
    branches, from a (k, m) sequence-index array into the kernel's gate set
    (see `_Kernel` for the protocol)."""
    k, m = sequences.shape
    dim = kernel.dim

    # The task's own footprint: two state-sized arrays and a few (k, 2D, 2D)
    # ones; the process's gather indices and mask (see _check_budget).
    state = np.empty((k,) + kernel.initial.shape, dtype=np.complex128)
    state[...] = kernel.initial
    free = np.empty_like(state)
    into_forward, into_backward = kernel.repack
    channel = kernel.channel
    # gates[:, i] are the two forms of branch i's gate. products[i] is
    # R(P^T) of the branch's running product P, so that the closing gate
    # P^dag has the plain form R(P^T)^T.
    gates = np.empty((2, k, 2 * dim, 2 * dim))
    products = kernel.identity.copy()
    spare = np.empty_like(products)

    for position in range(m):
        np.take(kernel.gates, sequences[:, position], axis=1, out=gates)
        # The layout flips at each of the m + 1 conjugations. The initial
        # state is in both, so choosing by the parity left ends in forward.
        repack = into_forward if (m - position) % 2 == 0 else into_backward
        state, free = _conjugate_branches(state, free, gates, repack)
        state, free = channel(state, free)
        np.matmul(products, gates[0], out=spare)
        products, spare = spare, products
        if kernel.control_q < 1.0:
            _apply_control_depolarize(state, kernel.control_q)

    np.copyto(gates[0], products.transpose(0, 2, 1))
    np.multiply(gates[0], kernel.signs, out=gates[1])
    state, free = _conjugate_branches(state, free, gates, into_forward)
    state, free = kernel.final(state, free)
    return state


# Both readings measure with a detector of efficiency 1 - eps_m, so
# measurement error rescales the decay amplitude without adding a constant
# offset.

def _overlap_fidelity(state: np.ndarray, meas_error: float) -> float:
    """Coherent fidelity of a state of k branches and w = k // 2 + 1 slots:
    the return effect (1 - eps_m)|psi><psi| with psi = |+>_c (x) |0>.

    The overlap sums <0|block|0> over all k^2 blocks. It is real, and each
    stored off-diagonal block stands for itself and its adjoint, so slot 0
    counts once and every other slot twice, except slot k/2 for even k,
    which is stored twice.
    """
    k, w = state.shape[:2]
    weights = np.full(w, 2.0)
    weights[0] = 1.0
    if k % 2 == 0:
        weights[-1] = 1.0
    overlap = float(state[:, :, 0, 0].real.sum(axis=0) @ weights) / k
    return float(_clamped((1.0 - meas_error) * overlap))


def _branch_survivals(state: np.ndarray, meas_error: float) -> np.ndarray:
    """Standard-RB survivals (1 - eps_m) <0|rho_i|0> / weight of every
    branch i, held to the range rule (`_clamped`).

    Block (i, i), slot 0 of row i, evolves exactly as a standard-RB run of
    sequence i, with the weight its preparation gave it (`_shared_blocks`):
    1 when only the diagonal is stored, which is standard RB, and 1/k in a
    coherent state, whose k sequences are in superposition (unless control
    depolarization has mixed the blocks).
    """
    diagonal = state[:, 0, 0, 0].real
    return _clamped(_shared_blocks(*state.shape[:2]) * ((1.0 - meas_error) * diagonal))


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------

def _check_budget(k: int, dim: int, slots: int) -> None:
    """Refuse, before allocating, a task on a state of k branches of a
    D-dimensional target, stored in `slots` slots per row, whose footprint
    would exceed STATE_BUDGET_BYTES: three (k, w, D, D) complex128 arrays
    (the task's state and work buffer, and its process's phase mask,
    counted for every channel) and the two gather indices of
    `_repack_indices` of the same shape."""
    blocks = k * slots * dim * dim
    shape = "x".join(map(str, (k, slots, dim, dim)))
    check_bytes((3 * 16 + 2 * np.dtype(np.intp).itemsize) * blocks, STATE_BUDGET_BYTES,
                f"joint dimension k * D = {k * dim}",
                f"per task (three {shape} complex128 arrays and two {shape} "
                f"gather indices)")


def _clamped(fidelities) -> np.ndarray:
    """The range rule of every sampled and exact fidelity: the values
    clipped into [0, 1] when all lie within FIDELITY_TOL of it;
    FidelityRangeError, naming the first value farther out or NaN,
    otherwise."""
    fidelities = np.asarray(fidelities, dtype=np.float64)
    inside = (fidelities >= -FIDELITY_TOL) & (fidelities <= 1.0 + FIDELITY_TOL)
    if not inside.all():
        raise FidelityRangeError(f"fidelity {float(fidelities[~inside][0])!r} lies outside "
                                 f"[0, 1] by more than {FIDELITY_TOL}")
    return fidelities.clip(0.0, 1.0)


def _expect_mode(cfg: RbRunConfig, mode: str) -> None:
    if cfg.mode != mode:
        raise ValueError(f"expected mode {mode!r}, got {cfg.mode!r}")


def _check_gate(cfg: RbRunConfig) -> None:
    """Refuse to run interleaved mode without its gate, which a config
    admits (see RbRunConfig)."""
    if cfg.mode == "interleaved" and cfg.interleaved_gate is None:
        raise ValueError("interleaved mode needs an interleaved gate")


def _sampled_run(cfg: RbRunConfig, modes: tuple[str, ...] | None = None
                 ) -> dict[str, list[FidelityRecord]]:
    """The (length, repetition) task loop of every sampled mode, with the
    records of each mode in `modes` (default: cfg.mode alone), by mode.

    Every task evolves one kernel state over one (k, m) draw of sequence
    indices, stored in one slot (the diagonal) when cfg.mode is "standard"
    and k // 2 + 1 otherwise; its control depolarizes (cfg.noise.control_q)
    only in mode "coherent-control-noise". Each mode in `modes` reads that
    state its own way: "standard" as the mean survival of the diagonal
    blocks (`_branch_survivals`), every other mode as the overlap with the
    return effect (`_overlap_fidelity`). Each mode draws its shots from a
    fresh tag-1 stream, so its records equal those of a run of that mode
    alone.

    The task and the gate stack are checked against the budget before any
    task starts; the `_Kernel` is built once, before the workers fork."""
    modes = (cfg.mode,) if modes is None else modes
    _check_gate(cfg)
    slots = 1 if cfg.mode == "standard" else cfg.k // 2 + 1
    _check_budget(cfg.k, cfg.gate_set.dim, slots)
    control_q = cfg.noise.control_q if cfg.mode == "coherent-control-noise" else 1.0
    kernel = _Kernel(cfg, cfg.k, slots, control_q=control_q)
    meas_error = cfg.noise.meas_error

    def one(task):
        m, rep = task
        rng = child_rng(cfg.seed, m, rep, 0)
        state = _evolve(kernel, rng.integers(0, len(cfg.gate_set), size=(cfg.k, m)))
        records = []
        for mode in modes:
            if mode == "standard":
                fidelity = float(np.mean(_branch_survivals(state, meas_error)))
            else:
                fidelity = _overlap_fidelity(state, meas_error)
            if cfg.shots > 0:
                shots_rng = child_rng(cfg.seed, m, rep, 1)
                fidelity = shots_rng.binomial(cfg.shots, fidelity) / cfg.shots
            records.append(FidelityRecord(mode, m, rep, fidelity, cfg.k, f"{m}/{rep}"))
        return records

    tasks = [(m, rep) for m in cfg.lengths for rep in range(cfg.repetitions)]
    size = cfg.k * cfg.repetitions * sum(cfg.lengths)
    return dict(zip(modes, map(list, zip(*_map_tasks(one, tasks, size)))))


def _same_sequence_moment(stack: np.ndarray) -> np.ndarray:
    """M[(cdef),(abgh)] = E_u[conj(u_ca) u_db u_eg conj(u_fh)] over a
    (|G|, D, D) stack, refused before allocating when its arrays exceed
    STATE_BUDGET_BYTES.

    With x_u = conj(vec u) (x) vec u, the one product sum_u x_u^T x_u holds
    every entry, at [(c a e g), (f h d b)]; reordering it into M takes a
    second D^4 x D^4 array."""
    n, d, _ = stack.shape
    check_bytes(16 * n * d ** 4 + 2 * 16 * d ** 8, STATE_BUDGET_BYTES,
                f"the same-sequence moment of {n} elements of dimension {d}",
                f"(a {n}x{d ** 4} complex128 element table and two {d ** 4}x{d ** 4} "
                f"complex128 products)")
    flat = stack.reshape(n, d * d)
    table = (flat.conj()[:, :, None] * flat[:, None, :]).reshape(n, d ** 4)
    products = table.T @ table
    del table
    moment = products.reshape((d,) * 8).transpose(0, 6, 2, 4, 1, 7, 3, 5).reshape(
        d ** 4, d ** 4)
    moment /= n
    return moment


def _dense_recursion(stack: np.ndarray, step_sop: np.ndarray, same_sequence: bool):
    """Initial transfer R_0 = I and step R_{t-1} -> M^T(R_{t-1} S) of the
    recursion for any stack, from its dense joint moment (see the module
    docstring)."""
    if same_sequence:
        dense = _same_sequence_moment(stack).T

        def advance(x):
            return (dense @ (x @ step_sop).reshape(-1)).reshape(x.shape)
    else:
        moment = superop(stack).conj() / len(stack)
        left, right = moment.T, moment.conj()

        def advance(x):
            # Two pairwise contractions; one three-operand einsum is far slower.
            return _realign(left @ _realign(x @ step_sop) @ right)
    return np.eye(step_sop.shape[0], dtype=np.complex128), advance


def _pauli_transfer(gate_set: GateSet, left: np.ndarray, right: np.ndarray,
                    step_sop: np.ndarray, readout: np.ndarray, prep: np.ndarray):
    """The same-sequence recursion of a stack {L P_i R} over the Weyl
    operators of `gate_set` as a D^2-vector of Pauli-transfer weights: the
    (D^2, D^2) matrix T with lambda_t = T lambda_{t-1}, lambda_0 = 1, and
    the weights w with <0|E_final(Y_t)|0> = w . lambda_t (see the module
    docstring)."""
    size = gate_set.dim ** 2
    basis = pauli_basis(gate_set.d, gate_set.n) / math.sqrt(gate_set.dim)
    # S(L) Q and S(R)^dag Q, with columns vec(L P_j L^dag) and
    # vec(R^dag P_j R) over the normalized Weyl basis: D^2 conjugations of
    # D x D matrices, O(D^5), not two O(D^6) superoperator products.
    dressed_left = (left @ basis @ left.conj().T).reshape(size, size).T
    dressed_right = (right.conj().T @ basis @ right).reshape(size, size).T
    transfer = ((dressed_left.conj().T @ dressed_right)
                * (dressed_right.conj().T @ step_sop @ dressed_left).T)
    weights = (readout @ dressed_right) * (dressed_right.conj().T @ prep)
    return transfer, weights


def exact_fidelities(cfg: RbRunConfig, same_sequence: bool = False) -> list[float]:
    """Exact mean fidelity at each length of a config, over uniformly
    random sequences (see the module docstring): of a pair of independent
    sequences, which is the full-superposition fidelity, or, with
    `same_sequence`, of one sequence with itself, which is the mean
    standard-RB survival over all sequences. Every length up to the longest
    is one step of the recursion, whose state and step the dressing of the
    set decides: a scalar or a D^2-vector for a dressed set, a (D^2, D^2)
    transfer otherwise. Every fidelity is held to the range rule
    (`_clamped`); k, repetitions, shots and the seed are not read.

    An interleaved gate and its channel change only the stack, its left
    dressing factor and the two superoperators the recursion runs on, all
    read from the config.
    """
    gate_set, noise = cfg.gate_set, cfg.noise
    _check_gate(cfg)
    step_sop, readout = cfg.position_sop, cfg.final_sop[0]
    prep = noise.prep.reshape(-1)
    if gate_set.dressing is None:
        state, advance = _dense_recursion(cfg.stack(), step_sop, same_sequence)

        def read(x):
            return readout @ x @ prep
    elif same_sequence:
        # The stack is {g P_i R} when interleaving g, else {P_i R}.
        left = np.eye(gate_set.dim) if cfg.interleaved_gate is None else cfg.interleaved_gate
        transfer, weights = _pauli_transfer(gate_set, left, gate_set.dressing,
                                            step_sop, readout, prep)
        state = np.ones(len(weights), dtype=np.complex128)
        advance = functools.partial(np.matmul, transfer)
        read = functools.partial(np.matmul, weights)
    else:
        # The pair moment of a dressed stack is vec(I) vec(I)^T / D, so the
        # transfer stays c_t I, with c_t = c_{t-1} tr(S) / D^2.
        decay = np.trace(step_sop) / step_sop.shape[0]
        base = readout @ prep
        state = 1.0

        def advance(c):
            return c * decay

        def read(c):
            return c * base

    values = []
    for m in range(1, cfg.lengths[-1] + 1):
        state = advance(state)
        if m in cfg.lengths:
            values.append(read(state).real)
    return _clamped((1.0 - noise.meas_error) * np.array(values)).tolist()


def _full_run(cfg: RbRunConfig) -> list[FidelityRecord]:
    """Every length once, exactly, over the superposition of all |G|^m
    sequences (`exact_fidelities`); repetitions repeat it. Exact values take
    no shots, so shots > 0 is refused before anything runs, as is a length
    whose k, |G|^m, has more digits than `sys.get_int_max_str_digits()`."""
    if cfg.shots > 0:
        raise ValueError(f"mode {cfg.mode} over all |G|^m sequences is exact "
                         f"and takes no shots, got shots = {cfg.shots}")
    size, limit = len(cfg.gate_set), getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for m in cfg.lengths if limit else ():  # 0: no limit; size ** m is built only near it
        digits = m * math.log10(size)
        if digits > limit + 1 or (digits > limit - 1 and size ** m >= 10 ** limit):
            raise ValueError(f"length {m}: k = |G|^m = {size}^{m} has {int(digits) + 1} digits, "
                             f"over Python's limit of {limit} for an integer's string")
    fidelities = exact_fidelities(cfg)
    return [FidelityRecord(cfg.mode, m, rep, fidelity, size ** m, f"{m}/full")
            for m, fidelity in zip(cfg.lengths, fidelities)
            for rep in range(cfg.repetitions)]


def run_standard_rb(cfg: RbRunConfig) -> list[FidelityRecord]:
    """Standard RB: each record averages k independent sequence survivals,
    evolved as the k diagonal blocks of a coherent state, the only ones
    stored: no gate couples them, so each is a standard run."""
    _expect_mode(cfg, "standard")
    return _sampled_run(cfg)["standard"]


def run_coherent_rb(cfg: RbRunConfig) -> list[FidelityRecord]:
    """Coherent RB with k iid-sampled sequences in superposition."""
    _expect_mode(cfg, "coherent")
    return _sampled_run(cfg)["coherent"]


def run_coherent_and_standard(cfg: RbRunConfig) -> dict[str, list[FidelityRecord]]:
    """Coherent RB and standard RB over the same draws, from one coherent
    pass: the standard record of each draw averages the survivals of the
    diagonal control blocks of its final coherent state (`_branch_survivals`).

    The coherent records equal `run_coherent_rb(cfg)`; the standard ones
    equal `run_standard_rb` in mode "standard" up to rounding, since that
    run draws the same sequences from the same child streams. Standard RB
    alone stores only the k diagonal blocks, which costs k, not k^2, per
    position.
    """
    _expect_mode(cfg, "coherent")
    return _sampled_run(cfg, ("coherent", "standard"))


def run_coherent_full(cfg: RbRunConfig) -> list[FidelityRecord]:
    """Deterministic coherent RB over all |G|^m sequences per length,
    evaluated exactly (`exact_fidelities`): one multiply per length for a
    Pauli-dressed set, O(|G| D^4 + m D^6) by the dense step otherwise."""
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
    return _sampled_run(cfg)["coherent-control-noise"]


def run_interleaved_coherent(cfg: RbRunConfig, gate: np.ndarray,
                             gate_noise: Sequence[np.ndarray] | None = None,
                             *, full_superposition: bool = False
                             ) -> list[FidelityRecord]:
    """Interleaved coherent RB: `gate` (with its own channel) after every
    random gate in all branches; the closing inverse, which includes the
    interleaved gate, is noiseless. The gate and the channel replace those
    of cfg, and are checked as a config's, unless they are the ones it
    holds (as when `run` calls)."""
    _expect_mode(cfg, "interleaved")
    if gate is not cfg.interleaved_gate or gate_noise is not cfg.interleaved_noise:
        cfg = replace(cfg, interleaved_gate=gate, interleaved_noise=gate_noise)
    if full_superposition:
        return _full_run(cfg)
    return _sampled_run(cfg)["interleaved"]


# The mode table, called as runner(cfg). Each entry looks its runner up at
# call time, so a wrapped module attribute also sees the calls made through
# `run`.
_RUNNERS = {
    "standard": lambda cfg: run_standard_rb(cfg),
    "coherent": lambda cfg: run_coherent_rb(cfg),
    "coherent-full": lambda cfg: run_coherent_full(cfg),
    "interleaved": lambda cfg: run_interleaved_coherent(cfg, cfg.interleaved_gate,
                                                        cfg.interleaved_noise),
    "coherent-control-noise": lambda cfg: run_coherent_with_control_noise(cfg),
}
MODES = tuple(_RUNNERS)


def run(cfg: RbRunConfig) -> list[FidelityRecord]:
    """Run cfg.mode through the mode table."""
    return _RUNNERS[cfg.mode](cfg)
