"""Generalized n-qudit Pauli (Weyl-Heisenberg) algebra.

Operators are words X^x Z^z per site, where for dimension d

    X^r : |s> -> |s + r mod d>        Z^r : |s> -> w^{rs} |s>,   w = exp(2*pi*i/d)

with the X factor applied after (to the left of) the Z factor. No extra
phase normalization is applied, so the d > 2 words are in general
non-Hermitian unitaries.

The Weyl index. Row i of `pauli_basis(d, n)` is the word X^x Z^z with
i = x * D + z, D = d^n, where x and z are the exponents over the n sites
read as base-d numbers with site 0 the leading digit; the identity is
row 0. Sequence draws, the chi matrix, `format_label` and the dressing
check of `corb.gatesets` all index Pauli words by this order.
"""

from __future__ import annotations

import functools
import itertools
import weakref

import numpy as np

DEFAULT_LABEL_CAP = 4096

# The built bases by (d, n), each kept only while something else holds it.
_BASES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@functools.lru_cache(maxsize=None)
def omega(d: int) -> complex:
    """Primitive d-th root of unity, computed once per dimension."""
    return np.exp(2j * np.pi / d)


@functools.lru_cache(maxsize=None)
def _weyl_digits(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(places, digits) of the Weyl index: `places[j]` = d^(n-1-j) is the
    place value of site j, and row k of the (d^n, n) table `digits` holds
    the base-d digits of k, so that digits @ places = k. Read-only."""
    places = d ** np.arange(n - 1, -1, -1)
    digits = np.arange(d ** n)[:, None] // places % d
    places.flags.writeable = digits.flags.writeable = False
    return places, digits


def pauli_basis(d: int, n: int) -> np.ndarray:
    """Stacked (d^{2n}, d^n, d^n) array of all Pauli words in Weyl-index
    order (see the module docstring), identity first.

    Orthogonal basis: tr(P_i† P_j) = d^n delta_ij. Read-only, and cached
    while anything else holds it (a Pauli set does, as its elements), so a
    basis dies with its last user. Each site's factor multiplies in by one
    broadcast product, left to right as `np.kron` chains them, so every
    entry is the same rounded product of site entries.
    """
    cached = _BASES.get((d, n))
    if cached is not None:
        return cached
    count = d ** (2 * n)
    if count > DEFAULT_LABEL_CAP:
        raise ValueError(f"{count} labels exceed the cap of {DEFAULT_LABEL_CAP}")
    # sites[x, z] is X^x Z^z on one qudit; axes (x digits, z digits, rows, cols).
    sites = np.zeros((d, d, d, d), dtype=np.complex128)
    for x, z, s in itertools.product(range(d), repeat=3):
        sites[x, z, (s + x) % d, s] = omega(d) ** (z * s)
    stack = sites
    for _ in range(n - 1):
        xs, zs, rows, cols = stack.shape
        stack = (stack[:, None, :, None, :, None, :, None]
                 * sites[:, None, :, None, :, None, :]).reshape(
                     xs * d, zs * d, rows * d, cols * d)
    stack = stack.reshape(count, d ** n, d ** n)
    stack.flags.writeable = False
    _BASES[d, n] = stack
    return stack


def format_label(d: int, n: int, i: int) -> str:
    """Text form `x:<exponents>;z:<exponents>` of row i of
    `pauli_basis(d, n)`, used by the CLI."""
    _, digits = _weyl_digits(d, n)
    x, z = divmod(i, d ** n)
    return "x:{};z:{}".format(",".join(str(v) for v in digits[x]),
                              ",".join(str(v) for v in digits[z]))
