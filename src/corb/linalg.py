"""Dense complex linear algebra for states, unitaries and channels.

Everything is a plain ``numpy`` ``complex128`` array; the helpers here
validate structural invariants (unitarity, Kraus completeness) at
centralized tolerances and build basis states and projectors.

Matrices stay dense throughout: the largest space the engines touch is a
few thousand dimensions, where dense exact arithmetic is both simplest
and fastest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    """Global numerical tolerances, one knob per check category."""

    structural: float = 1e-10  # unitarity, hermiticity, trace checks
    channel: float = 1e-8      # Kraus completeness / trace preservation


TOL = Tolerances()


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {m.shape}")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conjugate(a.T)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; dimensions multiply."""
    return np.kron(as_matrix(a), as_matrix(b))


def unitarity_defect(u: np.ndarray) -> float:
    """Max-norm of U†U - I."""
    u = as_matrix(u)
    if u.shape[0] != u.shape[1]:
        return np.inf
    return float(np.max(np.abs(dagger(u) @ u - np.eye(u.shape[0]))))


def assert_unitary(u: np.ndarray, what: str = "matrix") -> np.ndarray:
    u = as_matrix(u)
    defect = unitarity_defect(u)
    if not defect <= TOL.structural:  # a NaN defect fails too
        raise ValueError(f"{what} is not unitary (defect {defect:.3e})")
    return u


def check_kraus_gram(kraus: Sequence[np.ndarray], what: str = "Kraus list"
                     ) -> tuple[list[np.ndarray], np.ndarray]:
    """Validate sum_s K_s^dag K_s = I within TOL.channel and return the list
    and that sum, one product over the stacked rows (s, a); a refusal names
    the list as `what`."""
    if len(kraus) == 0:
        raise ValueError("empty Kraus list")
    mats = [as_matrix(k) for k in kraus]
    dim = mats[0].shape[0]
    for m in mats:
        if m.shape != (dim, dim):
            raise ValueError("Kraus operators must share one square dimension")
    rows = np.concatenate(mats)
    total = rows.conj().T @ rows
    defect = float(np.max(np.abs(total - np.eye(dim))))
    if not defect <= TOL.channel:  # a NaN defect fails too
        raise ValueError(f"{what} is not trace preserving (defect {defect:.3e})")
    return mats, total


def check_kraus(kraus: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The validated list of `check_kraus_gram`, without the sum."""
    return check_kraus_gram(kraus)[0]


def basis_state(dim: int) -> np.ndarray:
    """|0> of a dim-level system."""
    vec = np.zeros(dim, dtype=np.complex128)
    vec[0] = 1.0
    return vec


def projector(vec: np.ndarray) -> np.ndarray:
    vec = np.asarray(vec, dtype=np.complex128).ravel()
    return np.outer(vec, vec.conj())

