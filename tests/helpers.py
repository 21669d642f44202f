"""Test-side helpers that the library itself never calls: random states,
unitaries and channels, the noiseless model, the chi-matrix conversions,
the Pauli-label algebra on (x, z) exponent tuples,
matrix-file writers, dense reference versions of library checks and
gate-set builders, single protocol executions on the engine kernel, and
the decay fit as least-squares solver calls.
"""

import itertools
import math
from typing import Sequence

import numpy as np

from corb import fitting
from corb.engine import _Kernel, _branch_survivals, _evolve, _overlap_fidelity, _protocol
from corb.gatesets import FINGERPRINT_DECIMALS, ConditionReport, GateSet
from corb.io import atomic_write
from corb.linalg import TOL, as_matrix, check_kraus, dagger
from corb.noise import NoiseModel, identity_kraus
from corb.paulis import DEFAULT_LABEL_CAP, format_label, omega, pauli_basis


# ---------------------------------------------------------------------------
# Random inputs
# ---------------------------------------------------------------------------

def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def haar_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state vector."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


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
# Channels: the noiseless model, Kraus <-> chi, composition, fidelities
# ---------------------------------------------------------------------------

def shuffled_coset(d: int, n: int, rng: np.random.Generator) -> GateSet:
    """The `custom` set {c_i P_pi(i) U} over the Weyl operators P of (d, n),
    for a random permutation pi, random phases c_i and a Haar-random U."""
    dim = d ** n
    phases = np.exp(2j * np.pi * rng.random(dim * dim))[:, None, None]
    paulis = pauli_basis(d, n)[rng.permutation(dim * dim)]
    return GateSet(d, n, "custom", phases * paulis @ haar_unitary(dim, rng))


def undressed(gate_set: GateSet) -> GateSet:
    """A `custom` copy of the elements with no dressing, so that the exact
    evaluator takes its dense recursion on them: the oracle of the closed
    forms of a dressed set."""
    copy = GateSet(gate_set.d, gate_set.n, "custom", gate_set.elements)
    object.__setattr__(copy, "dressing", None)
    return copy


def ideal_noise(dim: int = 2) -> NoiseModel:
    """The noiseless model on a dim-level target: identity channels, no SPAM."""
    return NoiseModel(gate_channel=tuple(identity_kraus(dim)))


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


def composed_chi00(chi_a: np.ndarray, chi_b: np.ndarray) -> float:
    """Decay parameter of the twirl-composed pair: sum_ij A_ij B_ij."""
    value = np.sum(np.asarray(chi_a) * np.asarray(chi_b))
    return float(value.real)


def conjugate_channel(kraus: Sequence[np.ndarray], u: np.ndarray) -> list[np.ndarray]:
    """Kraus list of U† . xi . U (each operator mapped K -> U† K U)."""
    u = as_matrix(u)
    return [dagger(u) @ as_matrix(k) @ u for k in kraus]


def standard_closed_form(chi00: float, dim: int, m: int) -> float:
    """Standard-RB mean survival for a unitary 2-design with ideal SPAM and
    a final channel that fixes |0><0| (as dephasing does): the twirl makes the gate channel depolarizing with parameter
    p = (D^2 chi00 - 1)/(D^2 - 1), so the survival is 1/D + (1 - 1/D) p^m
    (Magesan, Gambetta and Emerson, PRL 106, 180504 (2011))."""
    p = (dim ** 2 * chi00 - 1.0) / (dim ** 2 - 1.0)
    return 1.0 / dim + (1.0 - 1.0 / dim) * p ** m


def avg_state_fidelity(gate_set, phi: np.ndarray) -> float:
    """Mean of |<phi|U|phi>|^2 over the set elements, phi pure."""
    phi = np.asarray(phi, dtype=np.complex128)
    if phi.ndim == 2:
        vals, vecs = np.linalg.eigh(phi)
        if vals.max() < 1.0 - 1e-9 or abs(np.trace(phi) - 1.0) > 1e-9:
            raise ValueError("state must be pure")
        phi = vecs[:, np.argmax(vals)]
    phi = phi / np.linalg.norm(phi)
    amps = np.einsum("a,gab,b->g", phi.conj(), gate_set.elements, phi)
    return float(np.mean(np.abs(amps) ** 2))


def control_depolarize(rho: np.ndarray, q: float, k: int) -> np.ndarray:
    """Depolarize the k-dimensional control factor only.

    rho -> q rho + (1 - q) (I_k / k) (x) tr_c(rho); trace preserving, q = 1
    is a no-op. Dense reference for the engine's blocked version.
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


# ---------------------------------------------------------------------------
# Pauli-label algebra
# ---------------------------------------------------------------------------

def weyl_label(d: int, n: int, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(x, z) exponent tuples of row i of `pauli_basis(d, n)`: i = x D + z
    with D = d^n, x and z read as base-d numbers with site 0 leading."""
    x, z = divmod(i, d ** n)

    def digits(k):
        return tuple(k // d ** (n - 1 - j) % d for j in range(n))

    return digits(x), digits(z)


def zero_label(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return (0,) * n, (0,) * n


def is_identity(label) -> bool:
    x, z = label
    return not any(x) and not any(z)


def symplectic_product(a, b, d: int) -> int:
    """(a, b)_Sp = a_x . b_z - a_z . b_x mod d for (x, z) labels.

    Governs commutation: with the X-after-Z word convention used here the
    exact identity is P_a P_b = w^{(b,a)_Sp} P_b P_a. The two argument
    orders agree mod 2, so the distinction only shows for d > 2.
    """
    (ax, az), (bx, bz) = a, b
    if not len(ax) == len(az) == len(bx) == len(bz):
        raise ValueError("labels live on different systems")
    acc = 0
    for axj, azj, bxj, bzj in zip(ax, az, bx, bz):
        acc += axj * bzj - azj * bxj
    return acc % d


def character_sum(q, d: int) -> complex:
    """sum_x w^{(q, x)_Sp} over all labels x: d^{2n} at the identity, 0 elsewhere."""
    w = omega(d)
    n = len(q[0])
    total = 0.0 + 0.0j
    for i in range(d ** (2 * n)):
        total += w ** symplectic_product(q, weyl_label(d, n, i), d)
    return total


def parse_label(text: str, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(x, z) tuples of the text `x:<exponents>;z:<exponents>` over n sites."""
    parts = dict(
        chunk.split(":", 1) for chunk in text.strip().split(";") if chunk
    )
    if set(parts) != {"x", "z"}:
        raise ValueError(f"bad Pauli label {text!r}; expected `x:...;z:...`")
    x = tuple(int(v) for v in parts["x"].split(","))
    z = tuple(int(v) for v in parts["z"].split(","))
    if len(x) != n or len(z) != n:
        raise ValueError(f"Pauli label {text!r} does not have {n} sites")
    return x, z


# ---------------------------------------------------------------------------
# Gate sets
# ---------------------------------------------------------------------------

def phase_fingerprint(m: np.ndarray) -> bytes:
    """Hashable fingerprint of one matrix, invariant under global phase.

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


def closure_mod_phase(generators: Sequence[np.ndarray]) -> np.ndarray:
    """Reference for `corb.gatesets._closure_mod_phase`: the breadth-first
    closure one product g @ m and one fingerprint at a time, in
    (frontier, generator) order, as a stack."""
    dim = generators[0].shape[0]
    seen: dict[bytes, np.ndarray] = {}
    frontier: list[np.ndarray] = []
    for m in [np.eye(dim, dtype=np.complex128)] + list(generators):
        f = phase_fingerprint(m)
        if f not in seen:
            seen[f] = m
            frontier.append(m)
    while frontier:
        new: list[np.ndarray] = []
        for m in frontier:
            for g in generators:
                p = g @ m
                f = phase_fingerprint(p)
                if f not in seen:
                    seen[f] = p
                    new.append(p)
        frontier = new
    return np.stack(list(seen.values()))


def controlled_paulis(controls: int, d: int) -> np.ndarray:
    """Reference for `corb.gatesets._controlled_paulis`: each element
    (P_c (x) I) sum_b |b><b| (x) P_b filled block by block and multiplied
    on its own, in the same order."""
    branches = 2 ** controls
    eye = np.eye(d)
    elements = []
    for dressing in pauli_basis(2, controls):
        left = np.kron(dressing, eye)
        for paulis in itertools.product(pauli_basis(d, 1), repeat=branches):
            block = np.zeros((branches * d, branches * d), dtype=np.complex128)
            for b, pauli in enumerate(paulis):
                block[b * d:(b + 1) * d, b * d:(b + 1) * d] = pauli
            elements.append(left @ block)
    return np.stack(elements)


def check_condition_per_label(gate_set: GateSet) -> ConditionReport:
    """Reference for `corb.gatesets.check_condition`: the twirl of each
    Pauli label computed on its own, sum_i U_i† P_j U_i, one at a time."""
    tolerance = TOL.channel * len(gate_set)
    basis = pauli_basis(gate_set.d, gate_set.n)
    stack = gate_set.elements
    conj = stack.conj()
    eye = np.eye(gate_set.dim)
    worst = -1.0
    worst_row = 0
    for i, pmat in enumerate(basis):
        twirl = np.einsum("gba,bc,gcd->ad", conj, pmat, stack, optimize=True)
        if is_identity(weyl_label(gate_set.d, gate_set.n, i)):
            residual = float(np.max(np.abs(twirl - len(gate_set) * eye)))
        else:
            residual = float(np.max(np.abs(twirl)))
        if residual > worst:
            worst = residual
            worst_row = i
    return ConditionReport(worst <= tolerance,
                           format_label(gate_set.d, gate_set.n, worst_row), worst,
                           tolerance)


def normalizer_residual(gate_set: GateSet, cap: int = DEFAULT_LABEL_CAP) -> float:
    """Worst deviation of C P C† from the nearest phase-scaled Pauli word.

    Zero (to rounding) exactly when every element normalizes the Pauli
    group, i.e. is a Clifford operation.
    """
    basis = pauli_basis(gate_set.d, gate_set.n)
    if basis.shape[0] > cap:
        raise ValueError(f"{basis.shape[0]} labels exceed the cap of {cap}")
    stack = gate_set.elements
    dim = gate_set.dim
    rows = np.arange(len(stack))
    worst = 0.0
    for pmat in basis:
        conjugated = np.matmul(np.matmul(stack, pmat),
                               stack.conj().transpose(0, 2, 1))
        coeffs = np.einsum("xij,gij->gx", basis.conj(), conjugated) / dim
        best = np.argmax(np.abs(coeffs), axis=1)
        nearest = coeffs[rows, best][:, None, None] * basis[best]
        worst = max(worst, float(np.max(np.abs(conjugated - nearest))))
    return worst


def sequence_inverse(sequence: Sequence[int], gate_set: GateSet) -> np.ndarray:
    """Exact inverse (U^(m) ... U^(1))† of an ordered index sequence.

    Computed as a matrix, not looked up in the set: dressed families are
    not closed under products.
    """
    if len(sequence) == 0:
        raise ValueError("empty sequence")
    dim = gate_set.dim
    product = np.eye(dim, dtype=np.complex128)
    for idx in sequence:
        if not 0 <= idx < len(gate_set):
            raise IndexError(f"element index {idx} out of range")
        product = gate_set.elements[idx] @ product
    return dagger(product)


# ---------------------------------------------------------------------------
# Matrix files
# ---------------------------------------------------------------------------

def format_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


def format_matrix(m: np.ndarray) -> str:
    m = np.asarray(m, dtype=np.complex128)
    lines = [f"dim {m.shape[0]} {m.shape[1]}"]
    for row in m:
        lines.append(" ".join(format_complex(z) for z in row))
    return "\n".join(lines) + "\n"


def write_matrices(path: str, mats: Sequence[np.ndarray]) -> None:
    atomic_write(path, "".join(format_matrix(m) for m in mats))


# ---------------------------------------------------------------------------
# Single protocol executions on the engine kernel
# ---------------------------------------------------------------------------

def evolve_coherent(gate_set, noise, sequences, *, control_q=1.0,
                    interleaved_gate=None, interleaved_noise=None) -> np.ndarray:
    """The final half-stored state, shape (k, w, D, D), of one coherent
    run of `corb.engine._evolve` over an explicit (k, m) sequence-index
    array, with control depolarization `control_q` and, if given, an
    interleaved gate and its channel."""
    sequences = np.asarray(sequences)
    protocol = _protocol(gate_set, noise, sequences.shape[-1], interleaved_gate,
                         interleaved_noise)
    k = len(sequences)
    kernel = _Kernel(protocol, noise.prep, k, k // 2 + 1, control_q=control_q)
    return _evolve(kernel, sequences)


def simulate_coherent(gate_set, noise, sequences, **kwargs) -> float:
    """One coherent run (`evolve_coherent`) measured with the return effect
    (1 - eps_m)|psi><psi|, psi = |+>_c (x) |0>."""
    state = evolve_coherent(gate_set, noise, sequences, **kwargs)
    return _overlap_fidelity(state, noise.meas_error)


def simulate_standard(gate_set, noise, sequences) -> np.ndarray:
    """Per-sequence survival fidelities of a (k, m) sequence-index array,
    evolved as the k diagonal blocks of one state, as standard RB runs them."""
    sequences = np.asarray(sequences)
    kernel = _Kernel(_protocol(gate_set, noise, sequences.shape[-1]), noise.prep,
                     len(sequences), 1)
    state = _evolve(kernel, sequences)
    return _branch_survivals(state, noise.meas_error)


# ---------------------------------------------------------------------------
# Decay fit by least-squares solver calls
# ---------------------------------------------------------------------------

def lstsq_fit_decay(points) -> fitting.DecayFit:
    """Reference for `corb.fitting.fit_decay` on inputs that it accepts:
    the same two stages, with the log-linear start and every Gauss-Newton
    step taken by `np.linalg.lstsq` and the covariance by `np.linalg.inv`
    (standard errors NaN when it raises)."""
    ms = np.asarray([p[0] for p in points], dtype=float)
    fs = np.asarray([p[1] for p in points], dtype=float)
    positive = fs > 0.0
    logs = np.log(fs[positive])
    design = np.ones((len(logs), 2))
    design[:, 1] = ms[positive]
    coeffs, *_ = np.linalg.lstsq(design, logs, rcond=None)
    a0, chi0 = math.exp(coeffs[0]), math.exp(coeffs[1])

    def model(a, chi):
        """a chi^m and its (n, 2) Jacobian at (a, chi)."""
        powers = chi ** ms
        return a * powers, np.stack([powers, a * ms * chi ** (ms - 1)], axis=1)

    a, chi = a0, chi0
    converged = False
    for _ in range(fitting.GN_MAX_ITER):
        values, jacobian = model(a, chi)
        step, *_ = np.linalg.lstsq(jacobian, fs - values, rcond=None)
        a += step[0]
        chi += step[1]
        if not (math.isfinite(a) and math.isfinite(chi)) or abs(chi) > 10.0:
            a, chi = a0, chi0
            break
        if np.linalg.norm(step) < fitting.GN_STEP_TOL:
            converged = True
            break

    chi = min(max(chi, 0.0), 1.0)
    a = max(a, 0.0)
    values, jacobian = model(a, chi)
    squares = float(np.sum((values - fs) ** 2))
    stderr_a = stderr_chi = math.nan
    try:
        cov = np.linalg.inv(jacobian.T @ jacobian)
        s2 = squares / (len(fs) - 2)
        stderr_a = math.sqrt(max(s2 * cov[0, 0], 0.0))
        stderr_chi = math.sqrt(max(s2 * cov[1, 1], 0.0))
    except np.linalg.LinAlgError:
        pass
    return fitting.DecayFit(a, chi, math.sqrt(squares / len(fs)), len(fs), converged,
                            stderr_a, stderr_chi)
