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

from .linalg import ARRAY_BUDGET_BYTES, check_bytes, power_bytes

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


def check_qudits(d: int, n: int) -> None:
    """Refuse, naming the value, a qudit dimension d < 2 or a qudit count
    n < 1: every gate set and every Pauli basis acts on D >= 2."""
    if d < 2:
        raise ValueError(f"a gate set's qudit dimension must be >= 2, got d = {d}")
    if n < 1:
        raise ValueError(f"a gate set's qudit count must be >= 1, got n = {n}")


def pauli_basis(d: int, n: int) -> np.ndarray:
    """Stacked (d^{2n}, d^n, d^n) array of all Pauli words in Weyl-index
    order (see the module docstring), identity first.

    Orthogonal basis: tr(P_i† P_j) = d^n delta_ij. Read-only, and cached
    while anything else holds it (a Pauli set does, as its elements), so a
    basis dies with its last user. Each site's factor multiplies in by one
    broadcast product, left to right as `np.kron` chains them, so every
    entry is the same rounded product of site entries.

    A qudit dimension d < 2 or a count n < 1 is refused (`check_qudits`),
    and so, before anything is built, is a stack of more than ARRAY_BUDGET_BYTES
    (`check_bytes`): its 16 d^(4n) bytes admit exactly the (d, n) with
    d^(2n) <= 4096, up to Pauli(2, 6). The byte count is formed only while
    it has at most 1028 bits (`power_bytes`), so a key such as n = 10^7 is
    refused at once.
    """
    cached = _BASES.get((d, n))
    if cached is not None:
        return cached
    check_qudits(d, n)
    check_bytes(power_bytes(d, 4 * n), ARRAY_BUDGET_BYTES, f"the Pauli basis of d={d}, n={n}",
                "(a d^(2n) x d^n x d^n complex128 stack)")
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
    stack = stack.reshape(d ** (2 * n), d ** n, d ** n)
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
