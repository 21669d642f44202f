"""Dense oracles: flat (kD) x (kD) matrices and Kraus sums, no blocked
layout, no superoperators. They are the independent reference the
half-stored engine kernel is checked against; `pack` and `unpack` convert
between the two forms.
"""

from typing import Sequence

import numpy as np

from corb.linalg import (
    TOL,
    as_matrix,
    assert_unitary,
    basis_state,
    check_kraus,
    dagger,
    projector,
)


def plus_state(dim: int) -> np.ndarray:
    """Equal-weight superposition over all basis states."""
    return np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128)


def materialize_controlled(branches: Sequence[np.ndarray]) -> np.ndarray:
    """Block-diagonal controlled operation sum_i |i><i| (x) U_i.

    The control register dimension equals the number of branches; all
    branch unitaries must share one target dimension.
    """
    if len(branches) < 1:
        raise ValueError("need at least one branch unitary")
    mats = [as_matrix(b) for b in branches]
    dim = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.shape != (dim, dim):
            raise ValueError(f"branch {i} has shape {m.shape}, expected ({dim}, {dim})")
    k = len(mats)
    out = np.zeros((k * dim, k * dim), dtype=np.complex128)
    for i, m in enumerate(mats):
        out[i * dim:(i + 1) * dim, i * dim:(i + 1) * dim] = m
    return assert_unitary(out, what="controlled operation")


def apply_channel(rho: np.ndarray, kraus: Sequence[np.ndarray]) -> np.ndarray:
    """Apply sum_s K_s rho K_s† for a validated Kraus list."""
    mats = check_kraus(kraus)
    rho = as_matrix(rho)
    out = np.zeros_like(rho)
    for m in mats:
        out += m @ rho @ dagger(m)
    return out


def check_density_matrix(rho: np.ndarray, tol: float = TOL.structural) -> np.ndarray:
    """Validate hermiticity, unit trace and positivity (to -1e-9)."""
    rho = as_matrix(rho)
    if rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if np.max(np.abs(rho - dagger(rho))) > tol:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho) - 1.0) > tol:
        raise ValueError(f"density matrix trace {np.trace(rho):.12f} != 1")
    eigs = np.linalg.eigvalsh(rho)
    if eigs.min() < -1e-9:
        raise ValueError(f"density matrix has negative eigenvalue {eigs.min():.3e}")
    return rho


def check_effect(effect: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Validate 0 <= E <= I as a POVM effect."""
    effect = as_matrix(effect)
    if np.max(np.abs(effect - dagger(effect))) > TOL.structural:
        raise ValueError("POVM effect must be Hermitian")
    eigs = np.linalg.eigvalsh(effect)
    if eigs.min() < -tol or eigs.max() > 1.0 + tol:
        raise ValueError(f"POVM effect eigenvalues outside [0, 1]: [{eigs.min():.3e}, {eigs.max():.3e}]")
    return effect


def povm_expectation(rho: np.ndarray, effect: np.ndarray, tol: float = 1e-9) -> float:
    """tr(E rho), clamped into [0, 1] only when within `tol` of the boundary."""
    effect = check_effect(effect, tol)
    value = np.trace(effect @ as_matrix(rho))
    if abs(value.imag) > 1e-9:
        raise ValueError(f"expectation has imaginary part {value.imag:.3e}")
    p = float(value.real)
    if p < -tol or p > 1.0 + tol:
        raise ValueError(f"expectation {p} outside [0, 1]")
    return min(max(p, 0.0), 1.0)


def partial_trace_control(rho: np.ndarray, k: int) -> np.ndarray:
    """Trace out a k-dimensional control factor from a state on control (x) target."""
    rho = as_matrix(rho)
    total = rho.shape[0]
    if total % k != 0:
        raise ValueError(f"dimension {total} not divisible by control dimension {k}")
    d = total // k
    blocks = rho.reshape(k, d, k, d)
    return np.einsum("iaib->ab", blocks)


def dense_coherent_state(gate_set, noise, sequences, *, control_q=1.0,
                         interleaved_gate=None, interleaved_noise=None) -> np.ndarray:
    """The final flat (kD)^2 state of `corb.engine._evolve` for one run.

    Every position applies the controlled gates, the gate channel, the
    interleaved gate and its channel, then control depolarization; the
    closing controlled inverse is followed by the final channel unless
    interleaving. Each intermediate state is checked to be a density matrix.
    """
    sequences = np.asarray(sequences)
    k, m = sequences.shape
    dim = gate_set.dim
    stack = gate_set.elements

    def on_target(kraus):
        return [np.kron(np.eye(k), op) for op in kraus]

    prep = ((1.0 - noise.prep_error) * projector(basis_state(dim))
            + noise.prep_error * np.eye(dim) / dim)
    rho = check_density_matrix(np.kron(projector(plus_state(k)), prep))
    products = [np.eye(dim)] * k
    for position in range(m):
        gates = [stack[s] for s in sequences[:, position]]
        controlled = materialize_controlled(gates)
        rho = apply_channel(rho, [controlled])
        rho = apply_channel(rho, on_target(noise.gate_channel))
        products = [g @ p for g, p in zip(gates, products)]
        if interleaved_gate is not None:
            rho = apply_channel(rho, on_target([interleaved_gate]))
            if interleaved_noise is not None:
                rho = apply_channel(rho, on_target(interleaved_noise))
            products = [interleaved_gate @ p for p in products]
        if control_q < 1.0:
            reduced = partial_trace_control(rho, k)
            rho = control_q * rho + (1.0 - control_q) * np.kron(np.eye(k) / k, reduced)
        check_density_matrix(rho)
    rho = apply_channel(rho, [materialize_controlled([dagger(p) for p in products])])
    if interleaved_gate is None:
        rho = apply_channel(rho, on_target(noise.final_channel))
    return check_density_matrix(rho)


def dense_coherent(gate_set, noise, sequences, **kwargs) -> float:
    """`helpers.simulate_coherent` on the flat (kD)^2 state of
    `dense_coherent_state`."""
    k = np.shape(sequences)[0]
    psi = np.kron(plus_state(k), basis_state(gate_set.dim))
    return povm_expectation(dense_coherent_state(gate_set, noise, sequences, **kwargs),
                            (1.0 - noise.meas_error) * projector(psi))


def pack(rho: np.ndarray, k: int) -> np.ndarray:
    """The forward half layout (k, w, D, D), w = k // 2 + 1, of a flat
    (kD)^2 state: slot s of row i holds the transpose of block
    (i, (i + s) mod k)."""
    d = rho.shape[0] // k
    blocks = as_matrix(rho).reshape(k, d, k, d)
    rows = np.arange(k)[:, None]
    columns = (rows + np.arange(k // 2 + 1)) % k
    return blocks[rows, :, columns, :].transpose(0, 1, 3, 2).copy()


def unpack(half: np.ndarray) -> np.ndarray:
    """The flat (kD)^2 state of a Hermitian state in the forward half layout
    (k, w, D, D): every stored block, transposed back, and the adjoint of
    each stored block in the place of the one not stored."""
    k, w, d = half.shape[:3]
    blocks = np.empty((k, d, k, d), dtype=half.dtype)
    for i in range(k):
        for s in range(w):
            blocks[(i + s) % k, :, i, :] = half[i, s].conj()
    for i in range(k):
        for s in range(w):
            blocks[i, :, (i + s) % k, :] = half[i, s].T
    return blocks.reshape(k * d, k * d)
