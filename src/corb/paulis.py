"""Generalized n-qudit Pauli (Weyl-Heisenberg) algebra.

Operators are words X^x Z^z per site, where for dimension d

    X^r : |s> -> |s + r mod d>        Z^r : |s> -> w^{rs} |s>,   w = exp(2*pi*i/d)

with the X factor applied after (to the left of) the Z factor. Labels are
exponent vectors in Z_d^{2n}; no extra phase normalization is applied, so
the d > 2 words are in general non-Hermitian unitaries.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import tensor

DEFAULT_LABEL_CAP = 4096


@dataclass(frozen=True)
class PauliLabel:
    """Exponent vectors (x, z) in Z_d^n labelling X^{x_1}Z^{z_1} (x) ... (x) X^{x_n}Z^{z_n}."""

    d: int
    n: int
    x: tuple[int, ...]
    z: tuple[int, ...]

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("qudit dimension must be >= 2")
        if self.n < 1:
            raise ValueError("qudit count must be >= 1")
        if len(self.x) != self.n or len(self.z) != self.n:
            raise ValueError("exponent vectors must have length n")
        object.__setattr__(self, "x", tuple(int(v) % self.d for v in self.x))
        object.__setattr__(self, "z", tuple(int(v) % self.d for v in self.z))


@functools.lru_cache(maxsize=None)
def omega(d: int) -> complex:
    """Primitive d-th root of unity, computed once per dimension."""
    return np.exp(2j * np.pi / d)


@functools.lru_cache(maxsize=None)
def _site_matrix(d: int, x: int, z: int) -> np.ndarray:
    w = omega(d)
    m = np.zeros((d, d), dtype=np.complex128)
    for s in range(d):
        m[(s + x) % d, s] = w ** (z * s)
    m.flags.writeable = False
    return m


def pauli_matrix(label: PauliLabel) -> np.ndarray:
    """Dense d^n x d^n matrix of the labelled Pauli word."""
    out = _site_matrix(label.d, label.x[0], label.z[0])
    for x, z in zip(label.x[1:], label.z[1:]):
        out = tensor(out, _site_matrix(label.d, x, z))
    return out


def enumerate_paulis(d: int, n: int) -> list[PauliLabel]:
    """All d^{2n} labels in lexicographic order, identity first."""
    count = d ** (2 * n)
    if count > DEFAULT_LABEL_CAP:
        raise ValueError(f"{count} labels exceed the cap of {DEFAULT_LABEL_CAP}")
    labels = []
    for exps in itertools.product(range(d), repeat=2 * n):
        labels.append(PauliLabel(d, n, exps[:n], exps[n:]))
    return labels


def label_index(label: PauliLabel) -> int:
    """Position of a label in `enumerate_paulis(label.d, label.n)`."""
    index = 0
    for exponent in label.x + label.z:
        index = index * label.d + exponent
    return index


@functools.lru_cache(maxsize=None)
def pauli_basis(d: int, n: int) -> np.ndarray:
    """Stacked (d^{2n}, d^n, d^n) array of all Pauli words, identity first.

    Orthogonal basis: tr(P_i† P_j) = d^n delta_ij. Read-only and cached.
    """
    mats = np.stack([pauli_matrix(l) for l in enumerate_paulis(d, n)])
    mats.flags.writeable = False
    return mats


def format_label(label: PauliLabel) -> str:
    """Text form `x:<exponents>;z:<exponents>` used by the CLI and config files."""
    return "x:{};z:{}".format(
        ",".join(str(v) for v in label.x),
        ",".join(str(v) for v in label.z),
    )

