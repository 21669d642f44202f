"""Dense complex linear algebra for states, unitaries and channels.

Everything is a plain ``numpy`` ``complex128`` array; the helpers here
validate structural invariants (unitarity, Kraus completeness) at
centralized tolerances, build basis states and projectors, and realign
the index pairs of a (D^2, D^2) superoperator (`_realign`).

Matrices stay dense throughout: the largest space the engines touch is a
few thousand dimensions, where dense exact arithmetic is both simplest
and fastest. Every memory limit is one byte check, `check_bytes`, made
before the array it guards is allocated: a builder's array (a Pauli
basis, a controlled stack, a channel superoperator, the element a set
spec names) against ARRAY_BUDGET_BYTES, an engine's task against its own
multiple of it. `power_bytes` gives such a check the bytes of a power
that may be too large to form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    """Global numerical tolerances, one knob per check category."""

    structural: float = 1e-10  # unitarity, hermiticity, trace checks
    channel: float = 1e-8      # Kraus completeness / trace preservation


TOL = Tolerances()

# Bytes of Pauli(2, 6), the (4096, 64, 64) complex128 stack (268 MB): the
# most that any one array a builder forms may take.
ARRAY_BUDGET_BYTES = 16 * 4096 ** 2


class DimensionError(ValueError):
    """A request needs more bytes than its budget (`check_bytes`)."""


def check_bytes(needed: int | float, budget: int, what: str, arrays: str) -> None:
    """Refuse `what`, before it is allocated, when it needs more than
    `budget` bytes; `arrays` says what the bytes hold. `needed` is the
    exact count, or math.inf for a count past 2^1024 that the caller does
    not form. A count of 2^64 bytes or more is written as a power of two."""
    if needed > budget:
        count = (str(needed) if needed < 2 ** 64 else "more than 2^1024"
                 if needed == math.inf else f"about 2^{round(math.log2(needed))}")
        raise DimensionError(f"{what} needs {count} bytes {arrays}; the budget is "
                             f"{budget} bytes")


def power_bytes(base: int, exponent: int) -> int | float:
    """16 base^exponent, the bytes of base^exponent complex128 numbers
    (base >= 2), for `check_bytes`: formed only while it has at most 1028
    bits, else math.inf, so that a key such as n = 10^7 is refused at
    once."""
    # exponent <= 1024 first: exponent * log2(base) of a larger one may not
    # convert to a float.
    if exponent <= 1024 and exponent * math.log2(base) <= 1024:
        return 16 * base ** exponent
    return math.inf


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


def _realign(x: np.ndarray) -> np.ndarray:
    """Swap the middle two indices of a (D^2, D^2) matrix: [(ab),(cd)] -> [(ac),(bd)]."""
    d = math.isqrt(x.shape[0])
    return x.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def check_kraus_gram(kraus: Sequence[np.ndarray], what: str = "Kraus list"
                     ) -> tuple[Sequence[np.ndarray], np.ndarray]:
    """Validate sum_s K_s^dag K_s = I within TOL.channel and return the
    operators and that sum, one product over the stacked rows (s, a); a
    refusal names the list as `what`. The operators are read-only, so that
    no write can change a checked channel: the given list when all are
    read-only complex128 matrices, else the stacked rows, the one copy
    made, as a (s, D, D) array, which `superop` reads in place."""
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
    if any(m.flags.writeable for m in mats):
        rows.flags.writeable = False
        return rows.reshape(len(mats), dim, dim), total
    return mats, total


def check_kraus(kraus: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The validated list of `check_kraus_gram`, without the sum."""
    return list(check_kraus_gram(kraus)[0])


def basis_state(dim: int) -> np.ndarray:
    """|0> of a dim-level system."""
    vec = np.zeros(dim, dtype=np.complex128)
    vec[0] = 1.0
    return vec


def projector(vec: np.ndarray) -> np.ndarray:
    vec = np.asarray(vec, dtype=np.complex128).ravel()
    return np.outer(vec, vec.conj())

