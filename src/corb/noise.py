"""Quantum channels: Kraus lists, the chi00 decay parameter, fidelities,
noise models.

The chi matrix of a channel xi(rho) = sum_ij chi_ij P_i rho P_j† is indexed
by the Weyl index of `corb.paulis`, identity first, so entry (0, 0) is the
decay-governing parameter chi_00. Daggers sit on the right factor;
for d > 2 the basis words are non-Hermitian and no Hermitization is
applied. `_CHANNELS` names every channel a spec string can reach, with its
keys and their types.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .io import SpecEntry, parse_spec, read_matrices
from .linalg import (ARRAY_BUDGET_BYTES, _realign, basis_state, check_bytes, check_kraus,
                     check_kraus_gram, projector)
from .paulis import pauli_basis


# ---------------------------------------------------------------------------
# Fidelity formulas
# ---------------------------------------------------------------------------

def chi00_of(kraus: Sequence[np.ndarray]) -> float:
    """sum_s |tr K_s|^2 / d^{2n}: the (identity, identity) chi entry."""
    kraus = check_kraus(kraus)
    dim = kraus[0].shape[0]
    total = sum(abs(np.trace(k)) ** 2 for k in kraus)
    return float(total) / dim ** 2


def avg_gate_fidelity(chi00: float, d_eff: int) -> float:
    """(d_eff * chi00 + 1) / (d_eff + 1) for Hilbert dimension d_eff."""
    if not 0.0 <= chi00 <= 1.0:
        raise ValueError(f"chi00 {chi00} outside [0, 1]")
    if d_eff < 2:
        raise ValueError("Hilbert dimension must be >= 2")
    return (d_eff * chi00 + 1.0) / (d_eff + 1.0)


# ---------------------------------------------------------------------------
# Channel families
# ---------------------------------------------------------------------------

def identity_kraus(dim: int) -> list[np.ndarray]:
    return [np.eye(dim, dtype=np.complex128)]


def dephasing_kraus(p: float, d: int = 2) -> list[np.ndarray]:
    """{sqrt(1-p) I} + {sqrt(p/(d-1)) Z^k}: chi00 = 1 - p for any d."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"dephasing probability {p} outside [0, 1]")
    z = pauli_basis(d, 1)[1]  # Z = X^0 Z^1
    kraus = [np.sqrt(1.0 - p) * np.eye(d, dtype=np.complex128)]
    for k in range(1, d):
        kraus.append(np.sqrt(p / (d - 1)) * np.linalg.matrix_power(z, k))
    return kraus


def depolarizing_kraus(p: float, d: int = 2) -> list[np.ndarray]:
    """Uniform Pauli noise on dimension d: rho -> (1-p) rho + p I/d. The
    Weyl basis of one qudit of dimension d suffices for any split of d
    into qudits, since sum_a P_a rho P_a^dag = d tr(rho) I for every Weyl
    basis."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing probability {p} outside [0, 1]")
    basis = pauli_basis(d, 1)
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


def superop(kraus: Sequence[np.ndarray]) -> np.ndarray:
    """(D^2, D^2) superoperator of a Kraus list: entry [(a c), (b d)] is
    sum_s K_s[a, b] conj(K_s[c, d]), so it maps the row-major vec of rho to
    that of sum_s K_s rho K_s^dag. One (D^2, s) x (s, D^2) product gives
    the entries at [(a b), (c d)], and `_realign` moves them into place.
    A (s, D, D) array is read in place, a list or tuple as one array of
    its operators. Its 16 D^4 bytes are held to ARRAY_BUDGET_BYTES
    (`check_bytes`) before it is formed, which admits D <= 64.

    Of a (|G|, D, D) stack of unitaries, conjugated and over |G|, it is the
    set's first moment E_u[conj(u) (x) u], row-major: the superoperator of
    the channel rho -> E_u[u rho u^dag] is E_u[u (x) conj(u)]."""
    dim = len(kraus[0])
    check_bytes(16 * dim ** 4, ARRAY_BUDGET_BYTES,
                f"the superoperator of a channel on dimension {dim}",
                f"(a {dim * dim}x{dim * dim} complex128 array)")
    flat = np.asarray(kraus).reshape(len(kraus), -1)
    return _realign(flat.T @ flat.conj())


def trace_gain(gram: np.ndarray) -> float:
    """delta = lambda_max(sum_s K_s^dag K_s) - 1 from that sum, which
    `check_kraus_gram` returns: a channel's largest relative gain of trace
    in one application (at most TOL.channel for a list that it admits;
    negative when it only loses trace)."""
    return float(np.linalg.eigvalsh(gram)[-1]) - 1.0


# ---------------------------------------------------------------------------
# Noise model
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Noise applied by the engines.

    `gate_channel` follows every controlled sequence gate; the final
    inverse gate gets `final_gate_channel` (defaults to the same channel,
    configurable separately, on the same dimension). Both are stored as
    tuples of checked, read-only Kraus operators (`check_kraus_gram`), so
    that no later write to the caller's arrays reaches the model.
    `control_q` is the control-register depolarizing parameter (1 = ideal
    control, only used by the control-noise mode). Preparation mixes the
    target with the maximally mixed state by eps_p; measurement scales the
    return effect by 1 - eps_m (a lossy detector), so SPAM rescales the
    decay amplitude without adding a constant offset. The three are real
    numbers in [0, 1]; a bool, a string or a complex number is refused.

    The operators that depend on the model alone are built once, here, and
    are read-only attributes, not fields (so `dataclasses.replace` builds
    them again): `gate_sop` and `final_sop`, the (D^2, D^2) superoperators
    (`superop`) of the gate and the final channel, the same array when
    there is no separate final channel, and `prep`, the D x D prepared
    target (1 - eps_p)|0><0| + eps_p I/D. So are `gate_gain` and
    `final_gain`, the trace gains (`trace_gain`) of the two channels, taken
    from the sums sum_s K_s^dag K_s that their Kraus checks form. The
    engines read them and build none per call or per task. Models hash
    and compare by identity.
    """

    gate_channel: tuple[np.ndarray, ...]
    final_gate_channel: tuple[np.ndarray, ...] | None = None
    control_q: float = 1.0
    prep_error: float = 0.0
    meas_error: float = 0.0

    def __post_init__(self):
        gate_channel, gram = check_kraus_gram(self.gate_channel)
        object.__setattr__(self, "gate_channel", tuple(gate_channel))
        gate_gain = final_gain = trace_gain(gram)
        if self.final_gate_channel is not None:
            final_channel, gram = check_kraus_gram(self.final_gate_channel)
            if final_channel[0].shape != gate_channel[0].shape:
                raise ValueError(f"final channel has shape {final_channel[0].shape}; "
                                 f"the gate channel has {gate_channel[0].shape}")
            object.__setattr__(self, "final_gate_channel", tuple(final_channel))
            final_gain = trace_gain(gram)
        for name in ("control_q", "prep_error", "meas_error"):
            v = getattr(self, name)
            # A bool is a numbers.Real, and numpy's bool is not.
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {v!r}")
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} = {v} outside [0, 1]")
        # From the checked operators, not the stored tuples: `superop`
        # reads a stacked copy in place.
        gate_sop = superop(gate_channel)
        final_sop = gate_sop if self.final_gate_channel is None else superop(final_channel)
        dim = self.gate_channel[0].shape[0]
        prep = (1.0 - self.prep_error) * projector(basis_state(dim))
        prep += self.prep_error * np.eye(dim) / dim
        for name, value in (("gate_sop", gate_sop), ("final_sop", final_sop),
                            ("prep", prep)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "gate_gain", gate_gain)
        object.__setattr__(self, "final_gain", final_gain)


_CHANNELS = {
    "identity": SpecEntry({}, identity_kraus),
    "dephasing": SpecEntry({"p": float}, lambda dim, p: dephasing_kraus(p, dim)),
    "depolarizing": SpecEntry({"p": float}, lambda dim, p: depolarizing_kraus(p, dim)),
    "infidelity-dephasing": SpecEntry({"r": float},
                                      lambda dim, r: infidelity_to_dephasing(r, dim)),
    "kraus": SpecEntry(None, lambda dim, path: _kraus_from_file(path, dim)),
}


def _kraus_from_file(path: str, dim: int) -> list[np.ndarray]:
    """The checked Kraus list of a matrix file whose every operator acts on
    dimension `dim`; an operator of another shape is refused naming the
    file and both sizes."""
    kraus = read_matrices(path)
    for i, op in enumerate(kraus):
        if op.shape != (dim, dim):
            raise ValueError(f"{path}: Kraus operator {i} has shape {op.shape}; "
                             f"the gate set needs ({dim}, {dim})")
    return check_kraus(kraus)


def parse_channel_spec(spec: str, dim: int) -> list[np.ndarray]:
    """Kraus list on dimension `dim` of a spec such as `dephasing:p=0.01` or
    `kraus:<file>`; `_CHANNELS` lists every channel's keys."""
    name, kwargs = parse_spec(spec, _CHANNELS, "channel")
    return _CHANNELS[name].build(dim, **kwargs)
