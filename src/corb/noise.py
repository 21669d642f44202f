"""Quantum channels: Kraus lists, chi-matrix form, fidelities, noise models.

The chi matrix of a channel xi(rho) = sum_ij chi_ij P_i rho P_j† is indexed
by the Pauli labels in enumeration order, identity first, so entry (0, 0)
is the decay-governing parameter chi_00. Daggers sit on the right factor;
for d > 2 the basis words are non-Hermitian and no Hermitization is
applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .io import parse_kv, read_matrices
from .linalg import TOL, as_matrix, check_kraus, dagger
from .paulis import enumerate_paulis, pauli_basis, pauli_matrix


# ---------------------------------------------------------------------------
# Kraus <-> chi
# ---------------------------------------------------------------------------

def _pauli_coefficients(kraus: Sequence[np.ndarray], d: int, n: int) -> np.ndarray:
    """c[s, i] = tr(P_i† K_s) / d^n for each Kraus operator."""
    basis = pauli_basis(d, n)
    stack = np.stack([as_matrix(k) for k in kraus])
    return np.einsum("lij,sij->sl", basis.conj(), stack) / (d ** n)


def kraus_to_chi(kraus: Sequence[np.ndarray], d: int, n: int) -> np.ndarray:
    """Channel matrix chi_ij = sum_s c_si conj(c_sj) in the Pauli basis."""
    kraus = check_kraus(kraus)
    dim = d ** n
    if kraus[0].shape[0] != dim:
        raise ValueError(f"Kraus dimension {kraus[0].shape[0]} != d^n = {dim}")
    c = _pauli_coefficients(kraus, d, n)
    return np.einsum("si,sj->ij", c, c.conj())


def chi_to_kraus(chi: np.ndarray, d: int, n: int,
                 tol: float = 1e-12) -> list[np.ndarray]:
    """Kraus operators from a chi matrix via its eigendecomposition."""
    chi = as_matrix(chi)
    basis = pauli_basis(d, n)
    if chi.shape[0] != basis.shape[0]:
        raise ValueError("chi dimension does not match the Pauli basis size")
    if np.max(np.abs(chi - dagger(chi))) > TOL.structural:
        raise ValueError("chi matrix must be Hermitian")
    vals, vecs = np.linalg.eigh(chi)
    if vals.min() < -1e-9:
        raise ValueError(f"chi matrix has negative eigenvalue {vals.min():.3e}")
    kraus = []
    for val, vec in zip(vals, vecs.T):
        if val > tol:
            kraus.append(np.sqrt(val) * np.einsum("l,lij->ij", vec, basis))
    return kraus


def chi00_of(kraus: Sequence[np.ndarray]) -> float:
    """sum_s |tr K_s|^2 / d^{2n}: the (identity, identity) chi entry."""
    kraus = check_kraus(kraus)
    dim = kraus[0].shape[0]
    total = sum(abs(np.trace(k)) ** 2 for k in kraus)
    return float(total) / dim ** 2


def composed_chi00(chi_a: np.ndarray, chi_b: np.ndarray) -> float:
    """Decay parameter of the twirl-composed pair: sum_ij A_ij B_ij."""
    value = np.sum(np.asarray(chi_a) * np.asarray(chi_b))
    return float(value.real)


def conjugate_channel(kraus: Sequence[np.ndarray], u: np.ndarray) -> list[np.ndarray]:
    """Kraus list of U† . xi . U (each operator mapped K -> U† K U)."""
    u = as_matrix(u)
    return [dagger(u) @ as_matrix(k) @ u for k in kraus]


# ---------------------------------------------------------------------------
# Fidelity formulas
# ---------------------------------------------------------------------------

def avg_gate_fidelity(chi00: float, d_eff: int) -> float:
    """(d_eff * chi00 + 1) / (d_eff + 1) for Hilbert dimension d_eff."""
    if not 0.0 <= chi00 <= 1.0:
        raise ValueError(f"chi00 {chi00} outside [0, 1]")
    if d_eff < 2:
        raise ValueError("Hilbert dimension must be >= 2")
    return (d_eff * chi00 + 1.0) / (d_eff + 1.0)


def avg_state_fidelity(gate_set, phi: np.ndarray) -> float:
    """Mean of |<phi|U|phi>|^2 over the set elements, phi pure."""
    phi = np.asarray(phi, dtype=np.complex128)
    if phi.ndim == 2:
        vals, vecs = np.linalg.eigh(phi)
        if vals.max() < 1.0 - 1e-9 or abs(np.trace(phi) - 1.0) > 1e-9:
            raise ValueError("state must be pure")
        phi = vecs[:, np.argmax(vals)]
    phi = phi / np.linalg.norm(phi)
    amps = np.einsum("a,gab,b->g", phi.conj(), gate_set.stacked(), phi)
    return float(np.mean(np.abs(amps) ** 2))


# ---------------------------------------------------------------------------
# Channel families
# ---------------------------------------------------------------------------

def identity_kraus(dim: int) -> list[np.ndarray]:
    return [np.eye(dim, dtype=np.complex128)]


def dephasing_kraus(p: float, d: int = 2) -> list[np.ndarray]:
    """{sqrt(1-p) I} + {sqrt(p/(d-1)) Z^k}: chi00 = 1 - p for any d."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"dephasing probability {p} outside [0, 1]")
    z = pauli_matrix(enumerate_paulis(d, 1)[1])  # label (x=0, z=1)
    kraus = [np.sqrt(1.0 - p) * np.eye(d, dtype=np.complex128)]
    for k in range(1, d):
        kraus.append(np.sqrt(p / (d - 1)) * np.linalg.matrix_power(z, k))
    return kraus


def depolarizing_kraus(p: float, d: int = 2, n: int = 1) -> list[np.ndarray]:
    """Uniform Pauli noise: rho -> (1-p) rho + p I/d^n."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing probability {p} outside [0, 1]")
    basis = pauli_basis(d, n)
    size = basis.shape[0]
    kraus = [np.sqrt(1.0 - p * (size - 1) / size) * basis[0].copy()]
    for mat in basis[1:]:
        kraus.append(np.sqrt(p / size) * mat.copy())
    return kraus


def infidelity_to_dephasing(target_infidelity: float, d_eff: int) -> list[np.ndarray]:
    """Dephasing channel whose average gate infidelity equals the target.

    Inverts the fidelity formula: p = r (d_eff + 1) / d_eff.
    """
    if target_infidelity < 0:
        raise ValueError("infidelity must be nonnegative")
    p = target_infidelity * (d_eff + 1.0) / d_eff
    if p >= 1.0:
        raise ValueError(
            f"infidelity {target_infidelity} infeasible for dimension {d_eff}"
        )
    return dephasing_kraus(p, d_eff)


def control_depolarize(rho: np.ndarray, q: float, k: int) -> np.ndarray:
    """Depolarize the k-dimensional control factor only.

    rho -> q rho + (1 - q) (I_k / k) (x) tr_c(rho); trace preserving, q = 1
    is a no-op.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"control depolarizing parameter {q} outside [0, 1]")
    rho = as_matrix(rho)
    total = rho.shape[0]
    if total % k != 0:
        raise ValueError(f"dimension {total} not divisible by control dimension {k}")
    d = total // k
    target = np.einsum("iaib->ab", rho.reshape(k, d, k, d))
    return q * rho + (1.0 - q) * np.kron(np.eye(k) / k, target)


def random_channel(dim: int, n_kraus: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Random CPTP channel: Ginibre Kraus operators normalized to completeness."""
    raw = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
           for _ in range(n_kraus)]
    gram = sum(dagger(g) @ g for g in raw)
    vals, vecs = np.linalg.eigh(gram)
    inv_sqrt = vecs @ np.diag(vals ** -0.5) @ dagger(vecs)
    return [g @ inv_sqrt for g in raw]


def random_phase_channel(d: int, n_kraus: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Random CPTP channel with diagonal Kraus operators (Z-word span).

    The chi matrix is supported on the Z-type labels only, including
    complex off-diagonal entries; survival of computational basis states
    is unaffected but coherences decay.
    """
    raw = [np.diag(rng.normal(size=d) + 1j * rng.normal(size=d))
           for _ in range(n_kraus)]
    gram = sum(dagger(g) @ g for g in raw)  # diagonal, positive
    inv_sqrt = np.diag(np.diagonal(gram).real ** -0.5)
    return [g @ inv_sqrt for g in raw]


# ---------------------------------------------------------------------------
# Noise model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseModel:
    """Noise applied by the engines.

    `gate_channel` follows every controlled sequence gate; the final
    inverse gate gets `final_gate_channel` (defaults to the same channel,
    configurable separately). `control_q` is the control-register
    depolarizing parameter (1 = ideal control, only used by the
    control-noise mode). Preparation mixes the target with the maximally
    mixed state by eps_p; measurement scales the return effect by
    1 - eps_m (a lossy detector), so SPAM rescales the decay amplitude
    without adding a constant offset.
    """

    gate_channel: tuple[np.ndarray, ...]
    final_gate_channel: tuple[np.ndarray, ...] | None = None
    control_q: float = 1.0
    prep_error: float = 0.0
    meas_error: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "gate_channel",
                           tuple(check_kraus(self.gate_channel)))
        if self.final_gate_channel is not None:
            object.__setattr__(self, "final_gate_channel",
                               tuple(check_kraus(self.final_gate_channel)))
        for name in ("control_q", "prep_error", "meas_error"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} = {v} outside [0, 1]")

    @property
    def final_channel(self) -> tuple[np.ndarray, ...]:
        if self.final_gate_channel is None:
            return self.gate_channel
        return self.final_gate_channel

    @staticmethod
    def ideal(dim: int) -> "NoiseModel":
        return NoiseModel(gate_channel=tuple(identity_kraus(dim)))


def parse_channel_spec(spec: str, dim: int) -> list[np.ndarray]:
    """Channel spec strings: `identity`, `dephasing:p=0.01`,
    `depolarizing:p=0.01`, `infidelity-dephasing:r=1e-4`, `kraus:<file>`."""
    name, _, body = spec.strip().partition(":")
    name = name.strip().lower()
    kv = {} if name == "kraus" else parse_kv(body)
    if name == "identity":
        return identity_kraus(dim)
    if name == "dephasing":
        return dephasing_kraus(float(kv["p"]), dim)
    if name == "depolarizing":
        return depolarizing_kraus(float(kv["p"]), dim, 1)
    if name == "infidelity-dephasing":
        return infidelity_to_dephasing(float(kv["r"]), dim)
    if name == "kraus":
        return check_kraus(read_matrices(body.strip()))
    raise ValueError(f"unknown channel spec {spec!r}")
