"""Benchmarkable gate-set families and the twirl-annihilation condition.

A set G = {U_i} can be driven by the coherent benchmarking engines when

    sum_i U_i† P_j U_i  =  |G| * I   (j = identity label)
                        =  0         (every other Pauli label j)

holds over the full Pauli basis of the target space. This module builds
the families that satisfy it (Pauli words, Clifford closures, controlled
Pauli sets, dressed sets P_i @ U) and checks the condition numerically,
from the set's first moment E[conj(u) (x) u]. Pauli words are indexed
by the Weyl index of `corb.paulis`. A set is its elements: a
Pauli-dressed set {P_i R}, whatever family built it, is recognized from
them, and its dressing R (`GateSet.dressing`) gives the exact evaluator
its closed forms. `_FAMILIES` names every family a spec string can
reach, with its keys and their types.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .io import SpecEntry, parse_spec, read_matrices, read_matrix
from .linalg import TOL, as_matrix, assert_unitary, tensor
from .paulis import _weyl_digits, format_label, omega, pauli_basis

CLOSURE_PRODUCT_CAP = 200_000
FINGERPRINT_DECIMALS = 8

# Families with a feasible exact enumeration; larger groups are rejected
# rather than approximated.
CLIFFORD_SIZES = {(2, 1): 24, (3, 1): 216, (2, 2): 11520}


@dataclass(frozen=True, eq=False)
class GateSet:
    """Ordered unitaries on (C^d)^(x)n with family metadata, kept as one
    read-only (|G|, D, D) stack, `elements`.

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
        dim = self.d ** self.n
        checked = []
        for i, u in enumerate(self.elements):
            u = assert_unitary(u, what=f"{self.family} element {i}")
            if u.shape != (dim, dim):
                raise ValueError(
                    f"element {i} has shape {u.shape}, expected ({dim}, {dim})"
                )
            checked.append(u)
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
    one scatter and the residual is compared with TOL.structural."""
    dim = d ** n
    count = len(elements)
    if count != dim * dim:
        return None
    right = elements[0]
    products = elements @ right.conj().T
    rows = np.arange(count)[:, None]
    places, digits = _weyl_digits(d, n)
    x = np.argmax(np.abs(products[:, :, 0]), axis=1)
    phases = products[rows[:, 0], x, 0]
    # shifted[i, s] is the row of s + x_i, where column s holds its entry.
    shifted = (digits[x][:, None, :] + digits) % d @ places
    sites = products[rows, shifted[:, places], places] / phases[:, None]
    roots = omega(d) ** np.arange(d)
    z = np.argmin(np.abs(sites[:, :, None] - roots), axis=2)
    products[rows, shifted, np.arange(dim)] -= phases[:, None] * roots[z @ digits.T % d]
    # count = D^2 codes below D^2 are distinct when each occurs once.
    distinct = np.all(np.bincount(x * dim + z @ places, minlength=count) == 1)
    if not (distinct and np.max(np.abs(products)) <= TOL.structural):
        return None
    return right


@dataclass(frozen=True)
class ConditionReport:
    """Worst-case residual of the twirl-annihilation check."""

    passed: bool
    worst_label: str
    worst_residual: float
    tolerance: float


def _realign(x: np.ndarray) -> np.ndarray:
    """Swap the middle two indices of a (D^2, D^2) matrix: [(ab),(cd)] -> [(ac),(bd)]."""
    d = math.isqrt(x.shape[0])
    return x.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def _first_moment(stack: np.ndarray) -> np.ndarray:
    """A = E_u[conj(u) (x) u] over a (|G|, D, D) stack, row-major (D^2, D^2)."""
    n, d, _ = stack.shape
    flat = stack.reshape(n, d * d)
    return _realign(flat.conj().T @ flat / n)


def check_condition(gate_set: GateSet) -> ConditionReport:
    """Verify sum_i U_i† P_j U_i = |G| I (j = o) / 0 (j != o) over all labels.

    With A = E_u[conj(u) (x) u] the first moment of the set, row-major,
    the twirl of P is |G| vec(P) A, so one (L, D^2) x (D^2, D^2) product
    gives the twirls of all L = D^2 labels as rows. A label's residual is
    the max-norm of its twirl minus the target. A and the twirl rows take
    16 D^4 bytes each. The label cap DEFAULT_LABEL_CAP = 4096 refuses
    D > 64 before either is allocated, so each stays within 268 MB. A
    passing set's residuals are all rounding noise, so its reported worst
    label, the `format_label` text of its row, carries no meaning. The
    tolerance is TOL.channel * |G|.
    """
    tolerance = TOL.channel * len(gate_set)
    dim = gate_set.dim
    basis = pauli_basis(gate_set.d, gate_set.n).reshape(dim * dim, dim * dim)
    twirls = basis @ _first_moment(gate_set.elements)
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

def build_pauli_set(d: int, n: int) -> GateSet:
    """The d^{2n} Pauli words on n qudits of dimension d."""
    return GateSet(d, n, "pauli", pauli_basis(d, n))


def _phase_fingerprint(m: np.ndarray) -> bytes:
    """Hashable fingerprint invariant under global phase.

    Divides by the first non-negligible entry (fixing the phase exactly for
    equal-up-to-phase matrices), rounds, and serializes. The +0.0 folds any
    -0.0 into +0.0 so the byte form is canonical.
    """
    flat = m.ravel()
    pivot = flat[np.argmax(np.abs(flat) > 1e-6)]
    norm = flat / pivot
    re = np.round(norm.real, FINGERPRINT_DECIMALS) + 0.0
    im = np.round(norm.imag, FINGERPRINT_DECIMALS) + 0.0
    return re.tobytes() + im.tobytes()


def _closure_mod_phase(generators: list[np.ndarray]) -> list[np.ndarray]:
    """Breadth-first closure under multiplication, deduplicated mod phase."""
    dim = generators[0].shape[0]
    seen: dict[bytes, np.ndarray] = {}
    frontier: list[np.ndarray] = []
    for m in [np.eye(dim, dtype=np.complex128)] + generators:
        f = _phase_fingerprint(m)
        if f not in seen:
            seen[f] = m
            frontier.append(m)
    products = 0
    while frontier:
        new: list[np.ndarray] = []
        for m in frontier:
            for g in generators:
                products += 1
                if products > CLOSURE_PRODUCT_CAP:
                    raise RuntimeError("closure exceeded the product cap of "
                                       f"{CLOSURE_PRODUCT_CAP}")
                p = g @ m
                f = _phase_fingerprint(p)
                if f not in seen:
                    seen[f] = p
                    new.append(p)
        frontier = new
    return list(seen.values())


def _clifford_generators(d: int, n: int) -> list[np.ndarray]:
    if d == 2:
        h = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
        s = np.diag([1, 1j]).astype(np.complex128)
        if n == 1:
            return [h, s]
        eye = np.eye(2, dtype=np.complex128)
        cz = np.diag([1, 1, 1, -1]).astype(np.complex128)
        return [tensor(h, eye), tensor(eye, h), tensor(s, eye), tensor(eye, s), cz]
    if d == 3 and n == 1:
        w = np.exp(2j * np.pi / 3)
        f = np.array([[1, 1, 1], [1, w, w ** 2], [1, w ** 2, w]],
                     dtype=np.complex128) / np.sqrt(3)
        s = np.diag([1, 1, w]).astype(np.complex128)
        return [f, s]
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
    return GateSet(d, n, "clifford", tuple(elements))


def _controlled_paulis(controls: int, d: int) -> tuple[np.ndarray, ...]:
    """(P_c (x) I) sum_b |b><b| (x) P_b over the Paulis P_c of `controls`
    control qubits (outermost) and every choice of one dimension-d target
    Pauli P_b per control basis state b, in `itertools.product` order.
    Sequence draws index into the stack, so this order is fixed."""
    branches = 2 ** controls
    eye = np.eye(d)
    elements = []
    for dressing in pauli_basis(2, controls):
        left = tensor(dressing, eye)
        for paulis in itertools.product(pauli_basis(d, 1), repeat=branches):
            block = np.zeros((branches * d, branches * d), dtype=np.complex128)
            for b, pauli in enumerate(paulis):
                block[b * d:(b + 1) * d, b * d:(b + 1) * d] = pauli
            elements.append(left @ block)
    return tuple(elements)


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
    paulis = pauli_basis(2, n)  # refuses 4^n > DEFAULT_LABEL_CAP first
    return GateSet(2, n, "ms", paulis @ ms_gate(n, theta))


def build_dressed_set(u: np.ndarray, d: int, n: int) -> GateSet:
    """Pauli-dressed set M_i = P_i U for an arbitrary unitary U on d^n."""
    u = assert_unitary(u, what="dressing unitary")
    if u.shape[0] != d ** n:
        raise ValueError(f"unitary dimension {u.shape[0]} != {d ** n}")
    return GateSet(d, n, "dressed", pauli_basis(d, n) @ u)


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


# ---------------------------------------------------------------------------
# Spec strings (CLI / config surface)
# ---------------------------------------------------------------------------

# Least values of the int keys: a qudit dimension d >= 2, a qudit count n >= 1.
_D_MIN, _DN_MIN = {"d": 2}, {"d": 2, "n": 1}

_FAMILIES = {
    "pauli": SpecEntry({"d": int, "n": int}, build_pauli_set, lambda d, n: (d, n), _DN_MIN),
    "clifford": SpecEntry({"d": int, "n": int}, build_clifford_set, lambda d, n: (d, n),
                          _DN_MIN),
    "controlled": SpecEntry({"d": int}, build_controlled_set, _controlled_dims, _D_MIN),
    "two-control": SpecEntry({}, build_two_control_set, lambda: (2, 3)),
    "ms": SpecEntry({"n": int, "theta": float}, build_ms_dressed_set,
                    lambda n, theta: (2, n), {"n": 1}),
    "dressed": SpecEntry({"d": int, "n": int, "u": str},
                         lambda d, n, u: build_dressed_set(read_matrix(u), d, n),
                         lambda d, n, u: (d, n), _DN_MIN),
    "custom": SpecEntry(None, lambda path: build_custom_set(read_matrices(path)),
                        lambda path: (read_matrices(path)[0].shape[0], 1)),
}


def parse_set_spec(spec: str) -> GateSet:
    """Build the gate set of a spec such as `pauli:d=2,n=1` or `custom:<file>`
    (a matrix file, see corb.io); `_FAMILIES` lists every family's keys."""
    family, kwargs = parse_spec(spec, _FAMILIES, "set")
    return _FAMILIES[family].build(**kwargs)


def set_spec_dims(spec: str) -> tuple[int, int]:
    """(d, n) of a set spec without constructing the whole family; a
    `custom` file gives (D, 1) whatever split its set takes, with the
    same D = d^n."""
    family, kwargs = parse_spec(spec, _FAMILIES, "set")
    return _FAMILIES[family].dims(**kwargs)
