"""Benchmarkable gate-set families and the twirl-annihilation condition.

A set G = {U_i} can be driven by the coherent benchmarking engines when

    sum_i U_i† P_j U_i  =  |G| * I   (j = identity label)
                        =  0         (every other Pauli label j)

holds over the full Pauli basis of the target space. This module builds
the families that satisfy it (Pauli words, Clifford closures, controlled
Pauli sets, dressed sets P_i @ U) and checks the condition numerically,
from the set's first moment E[conj(u) (x) u]: the conjugate of the
superoperator (`noise.superop`) of the channel rho -> E_u[u rho u^dag]
over the set, the unitary 1-design twirl. Every builder forms its
(|G|, D, D) stack at once: a Clifford group is closed breadth-first by
rounds, one batched product of the frontier by the generators and one
phase-fingerprint pass over the products per round, and the controlled
sets are one batched product of their blocks by the control dressings.
Pauli words are indexed by the Weyl index of `corb.paulis`. A set is its
elements: a Pauli-dressed set {P_i R}, whatever family built it, is
recognized from them, and its dressing R (`GateSet.dressing`) gives the
exact evaluator its closed forms. `_FAMILIES` names every family a spec
string can reach, with its keys and their types.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .io import SpecEntry, parse_spec, read_matrices, read_matrix
from .linalg import (ARRAY_BUDGET_BYTES, TOL, as_matrix, assert_unitary, check_bytes,
                     power_bytes, tensor)
from .noise import superop
from .paulis import _weyl_digits, check_qudits, format_label, omega, pauli_basis

CLOSURE_PRODUCT_CAP = 200_000
FINGERPRINT_DECIMALS = 8
# Bytes of the products U_i U_0^dag that `_derived_dressing` decodes at once.
_DRESSING_CHUNK_BYTES = 4 * 2 ** 20

# Families with a feasible exact enumeration; larger groups are rejected
# rather than approximated.
CLIFFORD_SIZES = {(2, 1): 24, (3, 1): 216, (2, 2): 11520}


@dataclass(frozen=True, eq=False)
class GateSet:
    """Ordered unitaries on (C^d)^(x)n with family metadata, kept as one
    read-only (|G|, D, D) stack, `elements`: as given if it is a read-only
    complex128 stack (as `pauli_basis` and every family builder's stack
    is), else as a frozen copy.

    `dressing` is derived from the elements alone: when |G| = D^2 and every
    U_i U_0^dag is a phase times a distinct Weyl operator X^x Z^z, element i
    is P_i R up to phase for the D^2 Weyl operators P_i and R = U_0 (R = I
    for Pauli sets, R = U for the dressed families `ms` and `dressed`, and
    any Pauli coset, in any order and with any phases, for `custom`), and
    it is R; otherwise it is None. The exact evaluator takes its closed
    forms from it (`engine.exact_fidelities`). Sets hash and compare by
    identity.
    """

    d: int
    n: int
    family: str
    elements: np.ndarray
    dressing: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.elements) < 1:
            raise ValueError("gate set must contain at least one element")
        check_qudits(self.d, self.n)
        dim = self.d ** self.n
        checked = []
        for i, u in enumerate(self.elements):
            u = assert_unitary(u, what=f"{self.family} element {i}")
            if u.shape != (dim, dim):
                raise ValueError(
                    f"element {i} has shape {u.shape}, expected ({dim}, {dim})"
                )
            checked.append(u)
        stack = self.elements
        if not (isinstance(stack, np.ndarray) and stack.dtype == np.complex128
                and not stack.flags.writeable):
            stack = np.stack(checked)
            stack.flags.writeable = False
            object.__setattr__(self, "elements", stack)
        object.__setattr__(self, "dressing", _derived_dressing(stack, self.d, self.n))

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def dim(self) -> int:
        return self.d ** self.n


def _derived_dressing(elements: np.ndarray, d: int, n: int) -> np.ndarray | None:
    """The dressing R = U_0 of a stack of unitaries on n qudits of
    dimension d when each product U_i U_0^dag is c_i X^x Z^z for a phase
    c_i and distinct (x, z), else None (see `GateSet`).

    X^x Z^z |s> = w^(z.s) |s + x>, so the largest entry of column 0 of
    a product sits in row x and is c_i, and column |e_j>, with a one at
    site j, holds c_i w^(z_j) in row x + e_j, read as the nearest power
    of w. The candidates c_i X^x Z^z are subtracted from the products in
    one scatter and the residual is compared with TOL.structural. The
    products are formed and decoded in chunks of rows of at most
    _DRESSING_CHUNK_BYTES, the first chunk that fails decides, and the
    codes (x, z) of all rows must be distinct."""
    dim = d ** n
    count = len(elements)
    if count != dim * dim:
        return None
    right = elements[0]
    places, digits = _weyl_digits(d, n)
    roots = omega(d) ** np.arange(d)
    codes = np.empty(count, dtype=np.intp)
    chunk = max(1, _DRESSING_CHUNK_BYTES // (16 * dim * dim))
    for start in range(0, count, chunk):
        products = elements[start:start + chunk] @ right.conj().T
        rows = np.arange(len(products))[:, None]
        x = np.argmax(np.abs(products[:, :, 0]), axis=1)
        phases = products[rows[:, 0], x, 0]
        # shifted[i, s] is the row of s + x_i, where column s holds its entry.
        shifted = (digits[x][:, None, :] + digits) % d @ places
        sites = products[rows, shifted[:, places], places] / phases[:, None]
        z = np.argmin(np.abs(sites[:, :, None] - roots), axis=2)
        products[rows, shifted, np.arange(dim)] -= phases[:, None] * roots[z @ digits.T % d]
        if not np.max(np.abs(products)) <= TOL.structural:
            return None
        codes[start:start + len(products)] = x * dim + z @ places
    # count = D^2 codes below D^2 are distinct when each occurs once.
    return right if np.all(np.bincount(codes, minlength=count) == 1) else None


@dataclass(frozen=True)
class ConditionReport:
    """Worst-case residual of the twirl-annihilation check."""

    passed: bool
    worst_label: str
    worst_residual: float
    tolerance: float


def check_condition(gate_set: GateSet) -> ConditionReport:
    """Verify sum_i U_i† P_j U_i = |G| I (j = o) / 0 (j != o) over all labels.

    The set is read as the channel rho -> E_u[u rho u^dag]: its first
    moment A = E_u[conj(u) (x) u], row-major, is the conjugate of that
    channel's superoperator (`noise.superop` of the stack) over |G|. The
    twirl of P is |G| vec(P) A, so one (L, D^2) x (D^2, D^2) product
    gives the twirls of all L = D^2 labels as rows. A label's residual is
    the max-norm of its twirl minus the target. A and the twirl rows take
    16 D^4 bytes each, as many as the basis: its byte check
    (`pauli_basis`) refuses D > 64 before either is allocated, so each
    stays within ARRAY_BUDGET_BYTES. A
    passing set's residuals are all rounding noise, so its reported worst
    label, the `format_label` text of its row, carries no meaning. The
    tolerance is TOL.channel * |G|.
    """
    tolerance = TOL.channel * len(gate_set)
    dim = gate_set.dim
    basis = pauli_basis(gate_set.d, gate_set.n).reshape(dim * dim, dim * dim)
    twirls = basis @ (superop(gate_set.elements).conj() / len(gate_set))
    twirls *= len(gate_set)
    twirls[0] -= len(gate_set) * np.eye(dim).ravel()
    residuals = np.max(np.abs(twirls), axis=1)
    worst = int(np.argmax(residuals))
    residual = float(residuals[worst])
    return ConditionReport(residual <= tolerance,
                           format_label(gate_set.d, gate_set.n, worst), residual, tolerance)


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

def _frozen(stack: np.ndarray) -> np.ndarray:
    """A builder's fresh stack, made read-only, so that GateSet keeps it
    rather than a copy."""
    stack.flags.writeable = False
    return stack


def build_pauli_set(d: int, n: int) -> GateSet:
    """The d^{2n} Pauli words on n qudits of dimension d."""
    return GateSet(d, n, "pauli", pauli_basis(d, n))


def _closure_mod_phase(generators: np.ndarray) -> np.ndarray:
    """Breadth-first closure of a (g, D, D) generator stack, deduplicated
    mod phase, by rounds: one batched product of the frontier by every
    generator, row (f, j) = g_j @ frontier_f, then one fingerprint pass
    that keeps the new rows in that order. A fingerprint divides a row by
    its first entry above 1e-6, which fixes the phase, rounds, folds -0.0
    into +0.0 and takes the bytes of the real, then the imaginary part. A
    round that would take the products past CLOSURE_PRODUCT_CAP is refused
    before it is formed."""
    count, dim, _ = generators.shape
    seen: set[bytes] = set()
    rounds = []
    stack, products = np.concatenate([np.eye(dim, dtype=np.complex128)[None], generators]), 0
    while True:
        flat = stack.reshape(len(stack), dim * dim)
        flat = flat / flat[np.arange(len(flat)), np.argmax(np.abs(flat) > 1e-6, axis=1)][:, None]
        prints = np.round(np.hstack([flat.real, flat.imag]), FINGERPRINT_DECIMALS) + 0.0
        new = []
        for i, row in enumerate(prints):
            if (key := row.tobytes()) not in seen:
                seen.add(key)
                new.append(i)
        if not new:
            return _frozen(np.concatenate(rounds))
        rounds.append(stack[new])
        products += len(new) * count
        if products > CLOSURE_PRODUCT_CAP:
            raise RuntimeError(f"closure exceeded the product cap of {CLOSURE_PRODUCT_CAP}")
        stack = (generators @ rounds[-1][:, None]).reshape(-1, dim, dim)


def _clifford_generators(d: int, n: int) -> np.ndarray:
    if d == 2:
        h = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
        s = np.diag([1, 1j]).astype(np.complex128)
        if n == 1:
            return np.stack([h, s])
        eye = np.eye(2, dtype=np.complex128)
        cz = np.diag([1, 1, 1, -1]).astype(np.complex128)
        return np.stack([tensor(h, eye), tensor(eye, h), tensor(s, eye), tensor(eye, s), cz])
    if d == 3 and n == 1:
        w = np.exp(2j * np.pi / 3)
        f = np.array([[1, 1, 1], [1, w, w ** 2], [1, w ** 2, w]],
                     dtype=np.complex128) / np.sqrt(3)
        s = np.diag([1, 1, w]).astype(np.complex128)
        return np.stack([f, s])
    raise ValueError(f"unsupported Clifford dimensions (d={d}, n={n})")


def build_clifford_set(d: int, n: int) -> GateSet:
    """Exact Clifford group enumeration for the supported (d, n) table.

    Breadth-first closure of the generators, deduplicated modulo global
    phase. Element counts are pinned: 24 for (2,1), 216 for (3,1), 11520
    for (2,2).
    """
    if (d, n) not in CLIFFORD_SIZES:
        raise ValueError(
            f"Clifford enumeration supports {sorted(CLIFFORD_SIZES)}, not ({d}, {n})"
        )
    elements = _closure_mod_phase(_clifford_generators(d, n))
    expected = CLIFFORD_SIZES[(d, n)]
    if len(elements) != expected:
        raise RuntimeError(
            f"Clifford closure produced {len(elements)} elements, expected {expected}"
        )
    return GateSet(d, n, "clifford", elements)


def _controlled_paulis(controls: int, d: int) -> np.ndarray:
    """(P_c (x) I) sum_b |b><b| (x) P_b over the Paulis P_c of `controls`
    control qubits (outermost) and every choice of one dimension-d target
    Pauli P_b per control basis state b, in `itertools.product` order.
    Sequence draws index into the stack, so this order is fixed. A stack
    over ARRAY_BUDGET_BYTES (d > 10 for one control) is refused first."""
    branches = 2 ** controls
    dim = branches * d
    check_bytes(16 * 4 ** controls * d ** (2 * branches) * dim * dim, ARRAY_BUDGET_BYTES,
                f"the controlled set at d={d}",
                f"({4 ** controls} d^{2 * branches} complex128 matrices of dimension "
                f"{branches}d)")
    targets = pauli_basis(d, 1)
    table = np.array(list(itertools.product(range(d * d), repeat=branches)))
    blocks = np.zeros((len(table), branches, d, branches, d), dtype=np.complex128)
    for b in range(branches):
        blocks[:, b, :, b, :] = targets[table[:, b]]
    lefts = np.stack([tensor(p, np.eye(d)) for p in pauli_basis(2, controls)])
    return _frozen((lefts[:, None] @ blocks.reshape(-1, dim, dim)).reshape(-1, dim, dim))


def build_controlled_set(d: int) -> GateSet:
    """Qubit-controlled Pauli operations on a dimension-d target.

    Elements (P_i (x) I) (|0><0| (x) P_r + |1><1| (x) P_s) with the dressing
    P_i ranging over the control-qubit Paulis and P_r, P_s over the
    single-qudit target Paulis: 4 d^4 elements in total.
    """
    return GateSet(*_controlled_dims(d), "controlled", _controlled_paulis(1, d))


def _controlled_dims(d: int) -> tuple[int, int]:
    """(d, n) of the controlled set: two qubits for a qubit target, one
    qudit of dimension 2d otherwise."""
    return (2, 2) if d == 2 else (2 * d, 1)


def build_two_control_set() -> GateSet:
    """Toffoli-type family: two control qubits, one target qubit.

    Same construction as the single-control set with a branch Pauli per
    control basis state and a two-qubit Pauli dressing on the controls:
    16 * 4^4 = 4096 elements.
    """
    return GateSet(2, 3, "two-control", _controlled_paulis(2, 2))


def ms_gate(n: int, theta: float) -> np.ndarray:
    """Multipartite Moelmer-Soerensen unitary: ordered product over pairs
    s < r of exp(i theta X^(s) X^(r))."""
    if n < 2:
        raise ValueError("the entangling gate needs at least two qubits")
    dim = 2 ** n
    u = np.eye(dim, dtype=np.complex128)
    eye = np.eye(dim)
    site_eye, site_x = pauli_basis(2, 1)[[0, 2]]
    for s in range(n - 1):
        for r in range(s + 1, n):
            xx = functools.reduce(tensor, [site_x if q in (s, r) else site_eye
                                           for q in range(n)])
            u = (np.cos(theta) * eye + 1j * np.sin(theta) * xx) @ u
    return u


def build_ms_dressed_set(n: int, theta: float) -> GateSet:
    """Pauli-dressed entangling gates M_i = P_i U_n(theta), any angle."""
    paulis = pauli_basis(2, n)  # refuses n > 6 (its byte check) first
    return GateSet(2, n, "ms", _frozen(paulis @ ms_gate(n, theta)))


def build_dressed_set(u: np.ndarray, d: int, n: int) -> GateSet:
    """Pauli-dressed set M_i = P_i U for an arbitrary unitary U on d^n.
    U's size D is compared with d^n before its unitarity is checked, and
    d^n is formed only for n within D's bit length (for d >= 2, a larger n
    makes d^n > D)."""
    u = as_matrix(u)
    size = u.shape[0]
    if n > size.bit_length() or d ** n != size:
        raise ValueError(f"unitary dimension {size} != {d}^{n}")
    u = assert_unitary(u, what="dressing unitary")
    return GateSet(d, n, "dressed", _frozen(pauli_basis(d, n) @ u))


def build_custom_set(mats: Sequence[np.ndarray]) -> GateSet:
    """Wrap explicit unitaries of dimension D as a set on n qudits of
    dimension d, d^n = D: the finest split under which the set is a Pauli
    coset (see `GateSet`), else one qudit of dimension D. The Weyl groups
    of different splits differ modulo phase, so at most one split fits."""
    mats = [as_matrix(m) for m in mats]
    if not mats:
        raise ValueError("gate set must contain at least one element")
    whole = GateSet(mats[0].shape[0], 1, "custom", tuple(mats))
    for d in range(2, math.isqrt(whole.dim) + 1):
        n = round(math.log(whole.dim, d))
        if d ** n == whole.dim and _derived_dressing(whole.elements, d, n) is not None:
            return GateSet(d, n, "custom", whole.elements)
    return whole


def _custom_set_from_file(path: str) -> GateSet:
    """`build_custom_set` of a matrix file; every refusal names the file."""
    mats = read_matrices(path)  # as its own refusals do
    try:
        return build_custom_set(mats)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Spec strings (CLI / config surface)
# ---------------------------------------------------------------------------

# Least values of the int keys: a qudit dimension d >= 2, a qudit count n >= 1
# (n >= 2 for `ms`, whose entangling gate needs two qubits).
_D_MIN, _DN_MIN = {"d": 2}, {"d": 2, "n": 1}

_FAMILIES = {
    "pauli": SpecEntry({"d": int, "n": int}, build_pauli_set, lambda d, n: (d, n), _DN_MIN),
    "clifford": SpecEntry({"d": int, "n": int}, build_clifford_set, lambda d, n: (d, n),
                          _DN_MIN),
    "controlled": SpecEntry({"d": int}, build_controlled_set, _controlled_dims, _D_MIN),
    "two-control": SpecEntry({}, build_two_control_set, lambda: (2, 3)),
    "ms": SpecEntry({"n": int, "theta": float}, build_ms_dressed_set,
                    lambda n, theta: (2, n), {"n": 2}),
    "dressed": SpecEntry({"d": int, "n": int, "u": str},
                         lambda d, n, u: build_dressed_set(read_matrix(u), d, n),
                         lambda d, n, u: (d, n), _DN_MIN),
    "custom": SpecEntry(None, _custom_set_from_file,
                        lambda path: (read_matrices(path)[0].shape[0], 1)),
}


def parse_set_spec(spec: str) -> GateSet:
    """Build the gate set of a spec such as `pauli:d=2,n=1` or `custom:<file>`
    (a matrix file, see corb.io); `_FAMILIES` lists every family's keys.
    A builder's refusal of its key values names the spec; the faults of a
    `custom` file name the file."""
    family, kwargs = parse_spec(spec, _FAMILIES, "set")
    try:
        return _FAMILIES[family].build(**kwargs)
    except ValueError as exc:
        if _FAMILIES[family].keys is None:
            raise
        raise ValueError(f"set spec {spec!r}: {exc}") from exc


def set_spec_dims(spec: str) -> tuple[int, int]:
    """(d, n) of a set spec without constructing the whole family; a
    `custom` file gives (D, 1) whatever split its set takes, with the
    same D = d^n. Like a builder, it refuses, naming the spec, a d < 2, an
    n < 1 (`check_qudits`) and a D x D complex128 element over
    ARRAY_BUDGET_BYTES (`check_bytes`) before d^n is formed."""
    family, kwargs = parse_spec(spec, _FAMILIES, "set")
    d, n = _FAMILIES[family].dims(**kwargs)
    try:
        check_qudits(d, n)
        check_bytes(power_bytes(d, 2 * n), ARRAY_BUDGET_BYTES,
                    f"an element of a set of d={d}, n={n}", "(a d^n x d^n complex128 matrix)")
    except ValueError as exc:
        raise ValueError(f"set spec {spec!r}: {exc}") from exc
    return d, n
