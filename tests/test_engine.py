"""Protocol engines: decay laws, mode cross-checks, exact and statistical
oracles, the dense oracle of the kernel, determinism, caps."""

import gc
import math
import os
import signal
import subprocess
import sys
import threading
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import corb
from corb.engine import (
    MODES,
    STATE_BUDGET_BYTES,
    DimensionError,
    FidelityRangeError,
    RbRunConfig,
    _apply_control_depolarize,
    _branch_survivals,
    _check_budget,
    _mask_step,
    _overlap_fidelity,
    _pauli_transfer,
    _real_form,
    _real_gates,
    _superop_step,
    child_rng,
    exact_fidelities,
    run,
    run_coherent_and_standard,
    run_coherent_full,
    run_coherent_rb,
    run_coherent_with_control_noise,
    run_interleaved_coherent,
    run_standard_rb,
)
from corb.fitting import decay_amplitude
from corb.io import write_records_json
from corb.gatesets import (
    GateSet,
    _first_moment,
    build_clifford_set,
    build_controlled_set,
    build_custom_set,
    build_dressed_set,
    build_ms_dressed_set,
    build_pauli_set,
)
from corb.linalg import check_kraus_gram
from corb.noise import (
    NoiseModel,
    chi00_of,
    dephasing_kraus,
    depolarizing_kraus,
    identity_kraus,
    parse_channel_spec,
    superop,
    trace_gain,
)
from corb.paulis import pauli_basis
from helpers import (
    composed_chi00,
    conjugate_channel,
    evolve_coherent,
    haar_unitary,
    ideal_noise,
    kraus_to_chi,
    random_channel,
    random_phase_channel,
    shuffled_coset,
    simulate_coherent,
    simulate_standard,
    undressed,
)
from dense_oracle import apply_channel as dense_apply_channel
from dense_oracle import dense_coherent, dense_coherent_state, pack, unpack

PAULI_2 = build_pauli_set(2, 1)
CLIFFORD_2 = build_clifford_set(2, 1)
Z, X = pauli_basis(2, 1)[1:3]  # rows x D + z = 1 and 2
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def kraus_compose(second, first):
    """Kraus list of the composition second . first."""
    return [a @ b for a in second for b in first]


# Largest joint dimension |G|^m * D the enumeration oracle builds; at
# 16384 one copy of the enumerated state alone takes 4 GiB.
ORACLE_DIM = 4096


def all_sequences(size, m):
    """All size^m index sequences, one row per superposition branch."""
    idx = np.arange(size ** m)
    return np.stack([(idx // size ** position) % size
                     for position in range(m)], axis=1)


def enumerated_full(gate_set, noise, m, **kwargs):
    """The full superposition built explicitly: the oracle for the exact
    evaluator behind `coherent-full`."""
    assert len(gate_set) ** m * gate_set.dim <= ORACLE_DIM
    return simulate_coherent(gate_set, noise, all_sequences(len(gate_set), m),
                             **kwargs)


class TestNoiselessInvariance:
    """Zero noise and zero SPAM return the initial state exactly."""

    @pytest.mark.parametrize("mode,runner", [
        ("standard", run_standard_rb),
        ("coherent", run_coherent_rb),
        ("coherent-control-noise", run_coherent_with_control_noise),
    ])
    def test_sampled_modes(self, mode, runner):
        for gate_set in (PAULI_2, CLIFFORD_2, build_ms_dressed_set(2, 0.61)):
            cfg = RbRunConfig(gate_set=gate_set, noise=ideal_noise(gate_set.dim),
                              lengths=(1, 7, 20), k=5, repetitions=2, seed=1,
                              mode=mode)
            for record in runner(cfg):
                assert abs(record.fidelity - 1.0) <= 1e-12

    def test_full_mode(self):
        cfg = RbRunConfig(gate_set=PAULI_2, noise=ideal_noise(), lengths=(1, 2, 3),
                          mode="coherent-full")
        for record in run_coherent_full(cfg):
            assert abs(record.fidelity - 1.0) <= 1e-12

    def test_interleaved(self):
        cfg = RbRunConfig(gate_set=PAULI_2, noise=ideal_noise(), lengths=(1, 5),
                          k=4, seed=2, mode="interleaved")
        for record in run_interleaved_coherent(cfg, H):
            assert abs(record.fidelity - 1.0) <= 1e-12


class TestExactDecayLaw:
    def test_dephasing_closed_form(self):
        """Full superposition reproduces (1-p)^m with an ideal closing gate."""
        noise = NoiseModel(gate_channel=tuple(dephasing_kraus(0.02, 2)),
                           final_gate_channel=tuple(identity_kraus(2)))
        cfg = RbRunConfig(gate_set=PAULI_2, noise=noise, lengths=(1, 2, 3),
                          mode="coherent-full")
        for record in run_coherent_full(cfg):
            assert record.fidelity == pytest.approx(0.98 ** record.m, abs=1e-9)

    @pytest.mark.parametrize("gate_set", [
        PAULI_2,
        build_dressed_set(H, 2, 1),
        build_ms_dressed_set(2, np.pi / 7),
    ])
    def test_random_channels_follow_amplitude_times_decay(self, gate_set):
        """F(m) = A chi00^m for benchmarkable sets under 5 random channels."""
        rng = np.random.default_rng(61)
        dim = gate_set.dim
        for _ in range(5):
            kraus = random_channel(dim, 2, rng)
            noise = NoiseModel(gate_channel=tuple(kraus))
            chi00 = chi00_of(kraus)
            cfg = RbRunConfig(gate_set=gate_set, noise=noise,
                              lengths=(1, 2, 3, 10), mode="coherent-full")
            amplitude = decay_amplitude(noise)
            for record in run_coherent_full(cfg):
                assert record.fidelity == pytest.approx(
                    amplitude * chi00 ** record.m, abs=1e-9)

    @pytest.mark.parametrize("channel", ["dephasing:p=0.005", "depolarizing:p=0.005"])
    @pytest.mark.parametrize("gate_set", [
        build_dressed_set(H, 2, 1),
        build_ms_dressed_set(2, np.pi / 7),
    ])
    def test_long_sequences_follow_decay_law(self, gate_set, channel):
        """At m = 200, far beyond any enumeration, F(m) = A chi00^m."""
        kraus = parse_channel_spec(channel, gate_set.dim)
        noise = NoiseModel(gate_channel=tuple(kraus), prep_error=0.03,
                           meas_error=0.02)
        cfg = RbRunConfig(gate_set=gate_set, noise=noise, lengths=(200,),
                          mode="coherent-full")
        record = run_coherent_full(cfg)[0]
        law = decay_amplitude(noise) * chi00_of(kraus) ** 200
        assert law > 0.2
        assert record.fidelity == pytest.approx(law, abs=1e-9)

    def test_spam_enters_only_the_amplitude(self):
        """Preparation and measurement errors rescale, never bend, the decay."""
        noise = NoiseModel(gate_channel=tuple(dephasing_kraus(0.05, 2)),
                           prep_error=0.1, meas_error=0.05)
        cfg = RbRunConfig(gate_set=PAULI_2, noise=noise, lengths=(1, 2, 3),
                          mode="coherent-full")
        for record in run_coherent_full(cfg):
            a = decay_amplitude(noise)
            assert record.fidelity == pytest.approx(a * 0.95 ** record.m,
                                                    abs=1e-9)

    def test_two_element_subset_worked_example(self):
        """{I, X} with a Z-word-supported channel decays as chi00^m."""
        rng = np.random.default_rng(62)
        subset = build_custom_set([np.eye(2), X])
        for _ in range(5):
            kraus = random_phase_channel(2, 3, rng)
            chi00 = chi00_of(kraus)
            noise = NoiseModel(gate_channel=tuple(kraus),
                               final_gate_channel=tuple(identity_kraus(2)))
            cfg = RbRunConfig(gate_set=subset, noise=noise, lengths=(2,),
                              mode="coherent-full")
            record = run_coherent_full(cfg)[0]
            assert record.k == 4
            assert record.fidelity == pytest.approx(chi00 ** 2, abs=1e-9)

    def test_condition_failure_is_observable(self):
        """{I, Z} under dephasing deviates from the decay law by > 1e-3."""
        noise = NoiseModel(gate_channel=tuple(dephasing_kraus(0.01, 2)),
                           final_gate_channel=tuple(identity_kraus(2)))
        bad = build_custom_set([np.eye(2), Z])
        cfg = RbRunConfig(gate_set=bad, noise=noise, lengths=(2,),
                          mode="coherent-full")
        record = run_coherent_full(cfg)[0]
        assert abs(record.fidelity - 0.99 ** 2) > 1e-3


class TestEnumerationOracle:
    """The exact evaluator equals the explicitly enumerated superposition."""

    @pytest.mark.parametrize("gate_set,max_m", [
        (PAULI_2, 4),
        (build_pauli_set(3, 1), 2),
        (CLIFFORD_2, 2),
        (build_controlled_set(2), 1),
        (build_ms_dressed_set(2, 0.3), 2),
        (build_dressed_set(np.kron(H, H), 2, 2), 2),
        # Not benchmarkable: its first moment is complex, unlike the rest.
        (build_custom_set([haar_unitary(2, np.random.default_rng(s))
                           for s in range(3)]), 4),
    ], ids=["pauli2", "pauli3", "clifford2", "controlled2", "ms", "hh",
            "haar3"])
    def test_full_superposition_matches_enumeration(self, gate_set, max_m):
        rng = np.random.default_rng(64)
        dim = gate_set.dim
        noise = NoiseModel(gate_channel=tuple(random_channel(dim, 2, rng)),
                           final_gate_channel=tuple(random_channel(dim, 2, rng)),
                           prep_error=0.07, meas_error=0.03)
        gate = random_channel(dim, 1, rng)[0]
        gate_noise = random_channel(dim, 2, rng)
        cfg = RbRunConfig(gate_set=gate_set, noise=noise,
                          lengths=tuple(range(1, max_m + 1)), repetitions=2,
                          mode="coherent-full")
        interleaved = dict(interleaved_gate=gate, interleaved_noise=gate_noise)
        runs = [(run_coherent_full(cfg), {}),
                (run_interleaved_coherent(replace(cfg, mode="interleaved"), gate,
                                          gate_noise, full_superposition=True),
                 interleaved)]
        for records, kwargs in runs:
            assert [(r.m, r.repetition) for r in records] == [
                (m, rep) for m in cfg.lengths for rep in range(2)]
            for record in records:
                want = enumerated_full(gate_set, noise, record.m, **kwargs)
                assert abs(record.fidelity - want) <= 1e-12
                assert record.k == len(gate_set) ** record.m
                assert record.seed_stream == f"{record.m}/full"


def _dressed_families():
    """Every Pauli-dressed family at D <= 8, qudits included, and `custom`
    cosets {c_i P_pi(i) U}, shuffled and phased (`shuffled_coset`), each
    dressed from its elements alone; the last is read as a matrix file is,
    by `build_custom_set`, which finds its two-qubit split."""
    rng = np.random.default_rng(65)
    return {"pauli(2,1)": PAULI_2, "pauli(3,1)": build_pauli_set(3, 1),
            "pauli(2,2)": build_pauli_set(2, 2), "pauli(2,3)": build_pauli_set(2, 3),
            "ms(2)": build_ms_dressed_set(2, 0.3), "ms(3)": build_ms_dressed_set(3, 0.7),
            "dressed(2,1)": build_dressed_set(haar_unitary(2, rng), 2, 1),
            "dressed(3,1)": build_dressed_set(haar_unitary(3, rng), 3, 1),
            "dressed(2,2)": build_dressed_set(haar_unitary(4, rng), 2, 2),
            **{f"coset({d},{n})": shuffled_coset(d, n, rng)
               for d, n in ((2, 1), (3, 1), (2, 2))},
            "custom file coset(2,2)": build_custom_set(shuffled_coset(2, 2, rng).elements)}


DRESSED = _dressed_families()


class TestDressedMoments:
    """For a set dressed by (L, R), `exact_fidelities` runs closed forms:
    a scalar decay for the independent pair, a D^2-vector of
    Pauli-transfer weights for the same sequence. The dense recursion,
    run on an undressed copy of the same elements (`undressed`), is their
    oracle."""

    @pytest.mark.parametrize("name", DRESSED)
    def test_pair_moment_is_rank_one(self, name):
        """The first moment of every dressed stack, and of the stack g u
        interleaved with a Haar-random g, is vec(I) vec(I)^T / D."""
        gate_set = DRESSED[name]
        dim = gate_set.dim
        want = np.outer(np.eye(dim).ravel(), np.eye(dim).ravel()) / dim
        g = haar_unitary(dim, np.random.default_rng(66))
        for stack in (gate_set.elements, g @ gate_set.elements):
            assert np.max(np.abs(_first_moment(stack) - want)) <= 1e-12

    @pytest.mark.parametrize("name", DRESSED)
    def test_closed_forms_equal_the_dense_recursion(self, name):
        """Random 2-Kraus CPTP gate and final channels, SPAM, and an
        interleaved Haar-random gate with its own random channel."""
        gate_set = DRESSED[name]
        dim = gate_set.dim
        rng = np.random.default_rng(67)
        noise = NoiseModel(gate_channel=tuple(random_channel(dim, 2, rng)),
                           final_gate_channel=tuple(random_channel(dim, 2, rng)),
                           prep_error=0.01, meas_error=0.02)
        interleaved = dict(interleaved_gate=haar_unitary(dim, rng),
                           interleaved_noise=random_channel(dim, 2, rng))
        assert gate_set.dressing is not None
        dense = undressed(gate_set)
        lengths = (1, 2, 3, 6)
        for kwargs in ({}, interleaved):
            for same_sequence in (False, True):
                got = exact_fidelities(gate_set, noise, lengths, same_sequence, **kwargs)
                want = exact_fidelities(dense, noise, lengths, same_sequence, **kwargs)
                assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12
                # A random channel decays fast, but m = 1 stays 1e8 times the
                # tolerance above zero.
                assert got[0] > 1e-4

    def test_left_and_right_dressing_equal_the_dense_recursion(self):
        """The same-sequence transfer of a stack {L P_i R} with Haar-random
        L and R, against the dense recursion of an undressed copy of those
        elements."""
        rng = np.random.default_rng(70)
        qutrit = build_pauli_set(3, 1)
        left, right = haar_unitary(3, rng), haar_unitary(3, rng)
        dense = undressed(build_custom_set(left @ qutrit.elements @ right))
        noise = NoiseModel(gate_channel=tuple(random_channel(3, 2, rng)),
                           final_gate_channel=tuple(random_channel(3, 2, rng)),
                           prep_error=0.01, meas_error=0.02)
        transfer, weights = _pauli_transfer(qutrit, left, right, noise.gate_sop,
                                            noise.final_sop[0], noise.prep.reshape(-1))
        lengths = (1, 2, 3, 6)
        want = exact_fidelities(dense, noise, lengths, same_sequence=True)
        state = np.ones(9)
        for m in range(1, 7):
            state = transfer @ state
            if m in lengths:
                got = 0.98 * (weights @ state).real
                assert abs(got - want[lengths.index(m)]) <= 1e-12

    @pytest.mark.parametrize("name,m", [("pauli(2,1)", 3), ("pauli(3,1)", 2),
                                        ("ms(2)", 2), ("dressed(3,1)", 2)])
    def test_same_sequence_matches_enumeration(self, name, m):
        """The mean standard-RB survival over all |G|^m sequences."""
        gate_set = DRESSED[name]
        rng = np.random.default_rng(68)
        noise = NoiseModel(gate_channel=tuple(random_channel(gate_set.dim, 2, rng)),
                           final_gate_channel=tuple(random_channel(gate_set.dim, 2, rng)),
                           prep_error=0.01, meas_error=0.02)
        survivals = simulate_standard(gate_set, noise, all_sequences(len(gate_set), m))
        got = exact_fidelities(gate_set, noise, (m,), same_sequence=True)[0]
        assert abs(got - np.mean(survivals)) <= 1e-12

    def test_standard_rb_on_four_qubit_paulis_is_the_closed_form(self):
        """Pauli(2,4), whose dense moment would need 137.7 GB: with U = I
        the exact standard mean is (1 - eps_m) sum_j L_j R_j q_j^m, with
        q_j = tr(P_j^dag E(P_j)) / D the Pauli-transfer diagonal of the gate
        channel, R_j = tr(P_j^dag rho) / D and L_j = <0|E_final(P_j)|0>,
        computed here from the Kraus operators."""
        gate_set = build_pauli_set(2, 4)
        dim = gate_set.dim
        rng = np.random.default_rng(69)
        gate, final = random_channel(dim, 2, rng), random_channel(dim, 2, rng)
        noise = NoiseModel(gate_channel=tuple(gate), final_gate_channel=tuple(final),
                           prep_error=0.01, meas_error=0.02)
        paulis = gate_set.elements

        def apply(kraus, ops):
            return sum(k @ ops @ k.conj().T for k in kraus)

        q = np.einsum("jba,jab->j", paulis.conj(), apply(gate, paulis)) / dim
        right = np.einsum("jba,ab->j", paulis.conj(), noise.prep) / dim
        left = apply(final, paulis)[:, 0, 0]
        lengths = (1, 2, 5, 20, 100)
        got = exact_fidelities(gate_set, noise, lengths, same_sequence=True)
        for m, fidelity in zip(lengths, got):
            want = 0.98 * np.sum(left * right * q ** m).real
            assert abs(fidelity - want) <= 1e-12

    @pytest.mark.parametrize("same_sequence", [False, True])
    def test_dressed_sets_build_no_stack_or_moment(self, same_sequence, monkeypatch):
        """Neither the interleaved stack, nor the first moment, nor the dense
        same-sequence moment is built for a dressed set."""
        def refuse(*args):
            raise AssertionError("built for a dressed set")

        for name in ("_first_moment", "_same_sequence_moment"):
            monkeypatch.setattr(f"corb.engine.{name}", refuse)
        monkeypatch.setattr("corb.engine._Protocol.stack", refuse)
        gate_set = DRESSED["ms(2)"]
        for kwargs in ({}, dict(interleaved_gate=np.kron(H, H))):
            assert len(exact_fidelities(gate_set, ideal_noise(4), (1, 5), same_sequence,
                                        **kwargs)) == 2
        with pytest.raises(AssertionError, match="built for a dressed set"):
            exact_fidelities(CLIFFORD_2, ideal_noise(), (1,), same_sequence)


def small_rotation(dim, angle, rng):
    """exp(i angle A) for a random Hermitian A: a coherent error."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    vals, vecs = np.linalg.eigh(a + a.conj().T)
    return (vecs * np.exp(1j * angle * vals)) @ vecs.conj().T


class TestInterleavingIsDerived:
    """Interleaving g with its channel N_g is RB over the set {g u}, with
    position channel {K_g g K g^dag} (N_g . g . N . g^dag) and a noiseless
    closing gate. The derived run is built here by hand, through the
    public GateSet and NoiseModel, and the interleaved runs equal it."""

    # H and CZ are real and their own inverses; the phase gate is neither,
    # so it tells g from g^dag and S(g)^dag from S(g)^T.
    CASES = {
        "clifford(2,1)-H": (lambda: CLIFFORD_2, H),
        "clifford(2,1)-S": (lambda: CLIFFORD_2, np.diag([1, 1j])),
        "clifford(2,2)-CZ": (lambda: build_clifford_set(2, 2),
                             np.diag([1, 1, 1, -1]).astype(complex)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_interleaved_runs_equal_the_derived_run(self, case):
        make_set, gate = self.CASES[case]
        gate_set = make_set()
        dim, n = gate_set.dim, gate_set.n
        rng = np.random.default_rng(72)
        noise = NoiseModel(
            gate_channel=tuple(kraus_compose([small_rotation(dim, 0.05, rng)],
                                             depolarizing_kraus(0.03, 2 ** n))),
            final_gate_channel=tuple(random_channel(dim, 2, rng)),
            prep_error=0.04, meas_error=0.02)
        gate_noise = kraus_compose([small_rotation(dim, 0.08, rng)],
                                   depolarizing_kraus(0.05, 2 ** n))
        derived_set = GateSet(gate_set.d, n, "custom",
                              tuple(gate @ u for u in gate_set.elements))
        position = np.einsum("iab,bc,jcd,de->ijae", np.stack(gate_noise), gate,
                             np.stack(noise.gate_channel), gate.conj().T)
        derived_noise = NoiseModel(gate_channel=tuple(position.reshape(-1, dim, dim)),
                                   final_gate_channel=tuple(identity_kraus(dim)),
                                   prep_error=0.04, meas_error=0.02)
        cfg = RbRunConfig(gate_set=gate_set, noise=noise, lengths=(1, 2, 4), k=3,
                          repetitions=2, seed=31, mode="interleaved")
        derived = replace(cfg, gate_set=derived_set, noise=derived_noise)
        pairs = [
            (run_interleaved_coherent(cfg, gate, gate_noise),
             run_coherent_rb(replace(derived, mode="coherent"))),
            (run_interleaved_coherent(cfg, gate, gate_noise, full_superposition=True),
             run_coherent_full(replace(derived, mode="coherent-full"))),
            (exact_fidelities(gate_set, noise, cfg.lengths, same_sequence=True,
                              interleaved_gate=gate, interleaved_noise=gate_noise),
             exact_fidelities(derived_set, derived_noise, cfg.lengths,
                              same_sequence=True)),
        ]
        for got, want in pairs:
            got = [getattr(r, "fidelity", r) for r in got]
            want = [getattr(r, "fidelity", r) for r in want]
            assert len(got) == len(want)
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-13
            # Far from the noiseless value, so the channels are exercised.
            assert min(got) < 0.97


class TestDenseOracle:
    """The half-stored in-place kernel against the flat (kD)^2 evolution."""

    @staticmethod
    def _channel(kind, dim, rng):
        if kind == "identity":
            return identity_kraus(dim)
        if kind == "phase":
            return random_phase_channel(dim, 2, rng)
        return random_channel(dim, 2, rng)

    # Derandomized, so the examples (and tier-1) are the same on every run.
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(dim=st.sampled_from([2, 3, 4]), k=st.integers(1, 6),
           m=st.integers(1, 5),
           kind=st.sampled_from(["identity", "phase", "general"]),
           interleave=st.booleans(), control=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_kernel_matches_dense_evolution(self, dim, k, m, kind, interleave,
                                            control, seed):
        """Random sets, CPTP channels (identity, diagonal, general), SPAM,
        an interleaved gate with its own channel (diagonal with a phase
        channel, so the mask path covers interleaving) and control_q < 1.

        Block by block, the final half-stored state, unpacked, is the flat
        state; for even k the two stored copies of each (i, i + k/2) pair
        are adjoints, which a wrong weight of that slot in the overlap sum
        could hide."""
        rng = np.random.default_rng(seed)
        gate_set = build_custom_set([haar_unitary(dim, rng) for _ in range(3)])
        noise = NoiseModel(
            gate_channel=tuple(self._channel(kind, dim, rng)),
            final_gate_channel=tuple(self._channel(kind, dim, rng)),
            prep_error=rng.uniform(0.0, 0.1), meas_error=rng.uniform(0.0, 0.1))
        kwargs = {}
        if control:
            kwargs["control_q"] = rng.uniform(0.5, 1.0)
        if interleave:
            gate = (np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, dim)))
                    if kind == "phase" else haar_unitary(dim, rng))
            kwargs.update(interleaved_gate=gate,
                          interleaved_noise=self._channel(kind, dim, rng))
        sequences = rng.integers(0, len(gate_set), size=(k, m))
        state = evolve_coherent(gate_set, noise, sequences, **kwargs)
        flat = dense_coherent_state(gate_set, noise, sequences, **kwargs)
        assert np.max(np.abs(unpack(state) - flat)) <= 1e-12
        if k % 2 == 0:
            for i in range(k // 2):
                copy, twin = state[i, k // 2], state[i + k // 2, k // 2]
                assert np.max(np.abs(copy - twin.conj().T)) <= 1e-12
        got = simulate_coherent(gate_set, noise, sequences, **kwargs)
        want = dense_coherent(gate_set, noise, sequences, **kwargs)
        assert abs(got - want) <= 1e-12
        if not kwargs:
            # Standard RB: each diagonal block is a one-branch coherent run.
            survivals = simulate_standard(gate_set, noise, sequences)
            assert survivals.shape == (k,)
            for i, survival in enumerate(survivals):
                want = dense_coherent(gate_set, noise, sequences[i:i + 1])
                assert abs(survival - want) <= 1e-12

    @pytest.mark.parametrize("chunk", [1, 3, None], ids=["chunk1", "chunk3", "whole"])
    def test_superop_step_in_chunks(self, chunk, monkeypatch):
        """The general channel step, one product over all stored blocks or
        over chunks of them (as at k >= 90 for D = 2, to keep every product
        below OpenBLAS's threading size), is the dense Kraus sum."""
        rng = np.random.default_rng(68)
        k, d = 7, 3
        if chunk is not None:
            monkeypatch.setattr("corb.engine._BLAS_SERIAL_SIZE", chunk * (2 * d * d) ** 2)
        vec = rng.normal(size=k * d) + 1j * rng.normal(size=k * d)
        rho = np.outer(vec, vec.conj())
        kraus = random_channel(d, 3, rng)
        out, _ = _superop_step(superop(kraus))(pack(rho, k),
                                               np.empty((k, k // 2 + 1, d, d), complex))
        want = dense_apply_channel(rho, [np.kron(np.eye(k), op) for op in kraus])
        np.testing.assert_allclose(unpack(out), want, rtol=0, atol=1e-13)

    def test_mask_and_superop_paths_agree_on_a_phase_channel(self):
        rng = np.random.default_rng(66)
        k, d = 5, 3
        vec = rng.normal(size=k * d) + 1j * rng.normal(size=k * d)
        state = pack(np.outer(vec, vec.conj()), k)
        sop = superop(random_phase_channel(d, 3, rng))
        assert not np.any(sop - np.diag(np.diagonal(sop)))
        row = np.broadcast_to(np.diagonal(sop).reshape(d, d).T, (k // 2 + 1, d, d))
        masked, _ = _mask_step(row, np.empty_like(state))(
            state.copy(), np.empty_like(state))
        general, _ = _superop_step(sop)(
            state.copy(), np.empty_like(state))
        assert not np.allclose(masked, state)
        np.testing.assert_allclose(masked, general, rtol=0, atol=1e-15)


class TestSampledMeans:
    """Sampled means against exact expectations.

    A coherent record averages f(s_i, s_j) over the k^2 branch pairs of k
    iid sequences, so E[F_k] = (1 - 1/k) F_full + F_std / k exactly, where
    F_full pairs independent sequences and F_std pairs a sequence with
    itself (the standard-RB survival). Both come from one moment
    recursion, `exact_fidelities`, with the joint moment of (u, v)
    independent or v = u.
    """

    NOISE = NoiseModel(gate_channel=tuple(dephasing_kraus(0.05, 2)),
                       prep_error=0.04, meas_error=0.02)
    LENGTHS = (2, 8)

    def test_oracle_matches_enumeration(self):
        """The recursion reproduces both exact means it predicts."""
        f_std = exact_fidelities(CLIFFORD_2, self.NOISE, (2,), same_sequence=True)
        f_full = exact_fidelities(CLIFFORD_2, self.NOISE, (1, 2))
        survivals = simulate_standard(CLIFFORD_2, self.NOISE,
                                      all_sequences(len(CLIFFORD_2), 2))
        assert abs(f_std[0] - np.mean(survivals)) <= 1e-12
        for m, f in zip((1, 2), f_full):
            assert abs(f - enumerated_full(CLIFFORD_2, self.NOISE, m)) <= 1e-12

    def test_sampled_means_within_four_sigma(self):
        """Clifford(2,1), k = 4, 1000 repetitions at m = 2 and 8.

        Each of the four comparisons uses the sample standard error; with
        1000 repetitions the mean is normal to good accuracy, so a correct
        engine fails one comparison with probability about 6e-5 and the
        test with probability below 3e-4 at an arbitrary seed.
        """
        k, reps = 4, 1000
        f_std = np.array(exact_fidelities(CLIFFORD_2, self.NOISE, self.LENGTHS,
                                          same_sequence=True))
        f_full = np.array(exact_fidelities(CLIFFORD_2, self.NOISE, self.LENGTHS))
        expected = {"standard": f_std,
                    "coherent": (1 - 1 / k) * f_full + f_std / k}
        for mode, want in expected.items():
            cfg = RbRunConfig(gate_set=CLIFFORD_2, noise=self.NOISE,
                              lengths=self.LENGTHS, k=k, repetitions=reps,
                              seed=20261018, mode=mode)
            records = run(cfg)
            for m, mean in zip(self.LENGTHS, want):
                values = np.array([r.fidelity for r in records if r.m == m])
                sigma = values.std(ddof=1) / np.sqrt(reps)
                assert abs(values.mean() - mean) <= 4 * sigma, (mode, m)
                if mode == "coherent":
                    # The 1/k term is resolvable, so dropping it would fail.
                    assert abs(f_full[self.LENGTHS.index(m)] - mean) > 8 * sigma

    # The interleaved gate and its own channel (non-diagonal).
    GATE_NOISE = tuple(depolarizing_kraus(0.03, 2))

    def _interleaved_exact(self, same_sequence, lengths):
        return np.array(exact_fidelities(CLIFFORD_2, self.NOISE, lengths, same_sequence,
                                         interleaved_gate=H,
                                         interleaved_noise=self.GATE_NOISE))

    def test_interleaved_oracle_matches_enumeration(self):
        """With the interleaved gate, the recursion reproduces the
        enumerated full superposition and, from its diagonal control blocks,
        the standard-RB mean over all sequences."""
        f_std = self._interleaved_exact(True, (1, 2))
        f_full = self._interleaved_exact(False, (1, 2))
        for m, std, full in zip((1, 2), f_std, f_full):
            state = evolve_coherent(CLIFFORD_2, self.NOISE,
                                    all_sequences(len(CLIFFORD_2), m),
                                    interleaved_gate=H, interleaved_noise=self.GATE_NOISE)
            fidelity = _overlap_fidelity(state, self.NOISE.meas_error)
            diagonal = np.mean(_branch_survivals(state, self.NOISE.meas_error))
            assert abs(full - fidelity) <= 1e-12
            assert abs(std - diagonal) <= 1e-12
            assert abs(std - full) > 1e-3

    def test_interleaved_sampled_mean_within_four_sigma(self):
        """Clifford(2,1) interleaved with H, k = 4, 1000 repetitions at
        m = 2 and 8: the mean is (1 - 1/k) F_full + F_std / k, with F_full
        from the exact full-superposition run. Two 4-sigma comparisons on a
        near-normal mean fail a correct engine with probability below
        1.3e-4 at an arbitrary seed."""
        k, reps = 4, 1000
        cfg = RbRunConfig(gate_set=CLIFFORD_2, noise=self.NOISE,
                          lengths=self.LENGTHS, k=k, repetitions=reps,
                          seed=20261018, mode="interleaved")
        f_full = np.array([r.fidelity for r in run_interleaved_coherent(
            replace(cfg, repetitions=1), H, self.GATE_NOISE,
            full_superposition=True)])
        f_std = self._interleaved_exact(True, self.LENGTHS)
        want = (1 - 1 / k) * f_full + f_std / k
        records = run_interleaved_coherent(cfg, H, self.GATE_NOISE)
        for m, mean, full in zip(self.LENGTHS, want, f_full):
            values = np.array([r.fidelity for r in records if r.m == m])
            sigma = values.std(ddof=1) / np.sqrt(reps)
            assert abs(values.mean() - mean) <= 4 * sigma, m
            # The 1/k term is resolvable, so dropping it would fail.
            assert abs(full - mean) > 8 * sigma, m


def diagonal_block_mean(gate_set, noise, sequences):
    """Mean survival of the diagonal control blocks of one coherent run."""
    state = evolve_coherent(gate_set, noise, sequences)
    return np.mean(_branch_survivals(state, noise.meas_error))


class TestStandardCoherentIdentity:
    def test_diagonal_blocks_reproduce_classical_average(self):
        """Coherent diagonal control blocks == standard average, same list."""
        rng = np.random.default_rng(63)
        noise = NoiseModel(gate_channel=tuple(dephasing_kraus(0.03, 2)))
        for gate_set in (PAULI_2, CLIFFORD_2):
            sequences = rng.integers(0, len(gate_set), size=(8, 3))
            diag = diagonal_block_mean(gate_set, noise, sequences)
            survivals = simulate_standard(gate_set, noise, sequences)
            assert abs(np.mean(survivals) - diag) <= 1e-10

    def test_all_sequences_at_m_two(self):
        noise = NoiseModel(gate_channel=tuple(dephasing_kraus(0.02, 2)))
        sequences = all_sequences(len(PAULI_2), 2)
        diag = diagonal_block_mean(PAULI_2, noise, sequences)
        survivals = simulate_standard(PAULI_2, noise, sequences)
        assert abs(np.mean(survivals) - diag) <= 1e-10


class TestCoherentAndStandard:
    """One coherent pass gives both modes' records: the coherent ones equal
    `run_coherent_rb`, the standard ones `run_standard_rb` up to rounding."""

    @pytest.mark.parametrize("gate_set,gate_channel,k,shots", [
        (PAULI_2, "depolarizing:p=0.02", 5, 0),
        (CLIFFORD_2, None, 8, 0),
        (build_ms_dressed_set(2, 0.61), None, 3, 0),
        (CLIFFORD_2, "dephasing:p=0.01", 1, 0),
        (PAULI_2, None, 4, 500),
    ], ids=["pauli2-depolarizing", "clifford2-random", "ms-random",
            "clifford2-k1", "pauli2-shots"])
    def test_matches_separate_runs(self, gate_set, gate_channel, k, shots):
        """SPAM, a general gate channel and a distinct final channel."""
        rng = np.random.default_rng(67)
        dim = gate_set.dim
        noise = NoiseModel(
            gate_channel=tuple(parse_channel_spec(gate_channel, dim) if gate_channel
                               else random_channel(dim, 2, rng)),
            final_gate_channel=tuple(random_channel(dim, 2, rng)),
            prep_error=0.05, meas_error=0.03)
        cfg = RbRunConfig(gate_set=gate_set, noise=noise, lengths=(1, 3, 6), k=k,
                          repetitions=3, seed=31, shots=shots, mode="coherent")
        both = run_coherent_and_standard(cfg)
        assert both["coherent"] == run_coherent_rb(cfg)
        standard = run_standard_rb(replace(cfg, mode="standard"))
        assert len(both["standard"]) == len(standard) == 9
        for got, want in zip(both["standard"], standard):
            assert replace(got, fidelity=0.0) == replace(want, fidelity=0.0)
            assert abs(got.fidelity - want.fidelity) <= 1e-12

    def test_diagonal_blocks_are_range_checked(self):
        """Per-branch survivals are clipped within rounding of [0, 1] and
        raise FidelityRangeError farther out, as in standard RB."""
        k = 4
        for excess, outcome in ((1e-13, 1.0), (1e-6, None)):
            flat = np.zeros((k * 2, k * 2), dtype=complex)
            for i in range(k):
                flat[2 * i, 2 * i] = (1.0 + (excess if i == 2 else 0.0)) / k
            rho = pack(flat, k)
            if outcome is None:
                with pytest.raises(FidelityRangeError, match=r"fidelity 1\.0000"):
                    _branch_survivals(rho, 0.0)
            else:
                assert np.mean(_branch_survivals(rho, 0.0)) == outcome


class TestInterleaved:
    def test_identity_gate_reduces_to_coherent(self):
        noise = NoiseModel(gate_channel=tuple(dephasing_kraus(0.01, 2)),
                           final_gate_channel=tuple(identity_kraus(2)))
        base = dict(gate_set=PAULI_2, noise=noise, lengths=(2, 4), k=5,
                    repetitions=3, seed=11)
        interleaved = run_interleaved_coherent(
            RbRunConfig(mode="interleaved", **base), np.eye(2))
        coherent = run_coherent_rb(RbRunConfig(mode="coherent", **base))
        for a, b in zip(interleaved, coherent):
            assert a.fidelity == b.fidelity

    def test_full_superposition_matches_composed_chi00(self):
        """Decay rate equals sum_ij chi^ref_ij chi^conj-gate_ij exactly."""
        ref = dephasing_kraus(0.001, 2)
        gate_noise = dephasing_kraus(0.01, 2)
        law = composed_chi00(kraus_to_chi(ref, 2, 1),
                             kraus_to_chi(conjugate_channel(gate_noise, H), 2, 1))
        cfg = RbRunConfig(gate_set=PAULI_2,
                          noise=NoiseModel(gate_channel=tuple(ref)),
                          lengths=(1, 2, 3, 100), mode="interleaved")
        for record in run_interleaved_coherent(cfg, H, gate_noise,
                                               full_superposition=True):
            assert record.fidelity == pytest.approx(law ** record.m, abs=1e-8)

    def test_pauli_gate_interleave_composes_channels(self):
        """A Pauli interleaved gate folds into one effective channel."""
        p = 0.05
        channel = dephasing_kraus(p, 2)
        effective = kraus_compose(channel, conjugate_channel(channel, X.conj().T))
        step = chi00_of(effective)
        assert step == pytest.approx((1 - p) ** 2 + p ** 2, abs=1e-12)
        cfg = RbRunConfig(gate_set=PAULI_2,
                          noise=NoiseModel(gate_channel=tuple(channel)),
                          lengths=(1, 2, 3), mode="interleaved")
        for record in run_interleaved_coherent(cfg, X, channel,
                                               full_superposition=True):
            assert record.fidelity == pytest.approx(step ** record.m, abs=1e-9)

    def test_rejects_non_unitary_gate(self):
        cfg = RbRunConfig(gate_set=PAULI_2, noise=ideal_noise(), lengths=(1, 2),
                          k=2, mode="interleaved")
        with pytest.raises(ValueError):
            run_interleaved_coherent(cfg, np.ones((2, 2)))

    def test_interleaved_mode_needs_the_gate(self):
        cfg = RbRunConfig(gate_set=PAULI_2, noise=ideal_noise(), lengths=(1,),
                          k=2, mode="interleaved")
        with pytest.raises(ValueError, match="^interleaved mode needs an interleaved gate$"):
            run(cfg, interleaved_noise=dephasing_kraus(0.01, 2))

    @pytest.mark.parametrize("given", ["gate", "channel"])
    @pytest.mark.parametrize("mode", [m for m in MODES if m != "interleaved"])
    def test_other_modes_refuse_an_interleaved_gate_or_channel(self, mode, given):
        """Every other mode would run without them, so `run` refuses them
        rather than drop them."""
        cfg = RbRunConfig(gate_set=PAULI_2, noise=ideal_noise(), lengths=(1,),
                          k=2, mode=mode)
        kwargs = {"gate": dict(interleaved_gate=H),
                  "channel": dict(interleaved_noise=dephasing_kraus(0.01, 2))}[given]
        with pytest.raises(ValueError,
                           match=f"^mode {mode} takes no interleaved gate or channel$"):
            run(cfg, **kwargs)


def _interleaving(mode: str, gate: np.ndarray, gate_noise=None) -> dict:
    """The interleaved gate and channel as `run` takes them: in interleaved
    mode only."""
    if mode != "interleaved":
        return {}
    return dict(interleaved_gate=gate, interleaved_noise=gate_noise)


class TestControlNoise:
    def test_q_one_identical_to_coherent(self):
        noise = NoiseModel(gate_channel=tuple(dephasing_kraus(0.01, 2)),
                           control_q=1.0)
        base = dict(gate_set=PAULI_2, noise=noise, lengths=(2, 5), k=3,
                    repetitions=2, seed=5)
        a = run_coherent_with_control_noise(
            RbRunConfig(mode="coherent-control-noise", **base))
        b = run_coherent_rb(RbRunConfig(mode="coherent", **base))
        for x, y in zip(a, b):
            assert x.fidelity == y.fidelity

    def test_single_step_approximate_law(self):
        """Noiseless gates, q=0.9, k=4: mean tracks q + (1-q)/k * f_G."""
        noise = NoiseModel(gate_channel=tuple(identity_kraus(2)), control_q=0.9)
        cfg = RbRunConfig(gate_set=PAULI_2, noise=noise, lengths=(1,), k=4,
                          repetitions=300, seed=123,
                          mode="coherent-control-noise")
        mean = np.mean([r.fidelity for r in run_coherent_with_control_noise(cfg)])
        law = 0.9 + 0.1 / 4 * 0.5
        assert abs(mean - law) / law < 0.02


class TestDeterminism:
    def test_identical_config_identical_records(self):
        noise = NoiseModel(gate_channel=tuple(dephasing_kraus(0.02, 2)))
        cfg = RbRunConfig(gate_set=CLIFFORD_2, noise=noise, lengths=(2, 4),
                          k=8, repetitions=4, seed=99, mode="coherent")
        assert run_coherent_rb(cfg) == run_coherent_rb(cfg)

    def test_worker_count_does_not_change_results(self, monkeypatch, pool_starts):
        """Every sampled mode, with a phase channel (the mask step) and a
        depolarizing one (the superoperator step), gives the same records
        with CORB_THREADS unset, 1 and 2; 2 goes through the process pool."""
        dephasing = NoiseModel(gate_channel=tuple(dephasing_kraus(0.02, 2)),
                               control_q=0.9)
        depolarizing = NoiseModel(gate_channel=tuple(depolarizing_kraus(0.02, 2)))
        cfg = RbRunConfig(gate_set=CLIFFORD_2, noise=dephasing, lengths=(2, 4, 8),
                          k=8, repetitions=3, seed=7)
        runners = (
            run,
            lambda c: run(replace(c, mode="standard")),
            run_coherent_and_standard,
            lambda c: run(replace(c, mode="interleaved"), interleaved_gate=H),
            lambda c: run(replace(c, mode="coherent-control-noise")),
            lambda c: run(replace(c, noise=depolarizing)),
            lambda c: run(replace(c, noise=depolarizing, mode="interleaved"),
                          interleaved_gate=H),
        )
        for runner in runners:
            monkeypatch.delenv("CORB_THREADS", raising=False)
            default = runner(cfg)
            monkeypatch.setenv("CORB_THREADS", "1")
            serial = runner(cfg)
            started = len(pool_starts)
            monkeypatch.setenv("CORB_THREADS", "2")
            pooled = runner(cfg)
            assert len(pool_starts) == started + 1
            assert default == serial == pooled

    def test_no_fork_while_other_threads_run(self, monkeypatch, pool_starts):
        """Fork would copy a lock another thread holds, held forever in the
        workers: with a second thread alive the run stays serial."""
        monkeypatch.setenv("CORB_THREADS", "2")
        cfg = RbRunConfig(gate_set=PAULI_2, noise=ideal_noise(), lengths=(1, 2),
                          k=2, repetitions=2)
        release = threading.Event()
        other = threading.Thread(target=release.wait, daemon=True)
        other.start()
        try:
            records = run(cfg)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert pool_starts == []
        assert [r.fidelity for r in records] == [1.0] * 4
        run(cfg)
        assert len(pool_starts) == 1

    @pytest.mark.parametrize("value", ["two", "0", "-3", "1.5"])
    def test_bad_worker_count_rejected(self, monkeypatch, value):
        """CORB_THREADS must be an integer >= 1; anything else is named in
        the error, never replaced by one worker."""
        monkeypatch.setenv("CORB_THREADS", value)
        cfg = RbRunConfig(gate_set=PAULI_2, noise=ideal_noise(), lengths=(1, 2),
                          k=2, repetitions=2, mode="standard")
        with pytest.raises(ValueError, match=f"CORB_THREADS.*'{value}'"):
            run(cfg)

    def test_worker_count_is_read_before_the_run_is_built(self, monkeypatch):
        """A bad CORB_THREADS is refused before the run builds its kernel:
        the real gate stack, which it builds first, is never asked for."""
        def built(stack):
            raise AssertionError("the real gate stack was built")

        monkeypatch.setattr("corb.engine._real_gates", built)
        monkeypatch.setenv("CORB_THREADS", "abc")
        for mode in ("coherent", "standard"):
            cfg = RbRunConfig(gate_set=PAULI_2, noise=ideal_noise(), lengths=(1, 2),
                              k=2, mode=mode)
            with pytest.raises(ValueError,
                               match=r"^CORB_THREADS must be an integer >= 1, got 'abc'$"):
                run(cfg)

    @pytest.mark.parametrize("value", ["3", "100000"])
    def test_worker_count_above_the_cpu_count_rejected(self, monkeypatch, pool_starts,
                                                       value):
        """A CORB_THREADS above the CPU count (two, patched) is refused,
        naming the value and the count, before any worker is forked."""
        def refuse():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setenv("CORB_THREADS", value)
        cfg = RbRunConfig(gate_set=PAULI_2, noise=ideal_noise(), lengths=(1, 2),
                          k=2, repetitions=2)
        with pytest.raises(ValueError, match=rf"^CORB_THREADS must be at most the CPU "
                                             rf"count 2, got '{value}'$"):
            run(cfg)
        assert pool_starts == []

    def test_child_streams_are_order_free(self):
        a = child_rng(42, 8, 3).integers(0, 1000, 5)
        b = child_rng(42, 8, 3).integers(0, 1000, 5)
        c = child_rng(42, 8, 4).integers(0, 1000, 5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def _process_gone(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the parent-death signal is Linux-only")
class TestWorkerProcesses:
    def test_workers_die_with_a_killed_parent(self, tmp_path):
        """A parent killed mid-run takes its forked workers with it, instead
        of leaving them blocked on the pool's queues."""
        script = f"""
import os
import corb.engine as engine
from corb.engine import RbRunConfig, run
from corb.gatesets import build_pauli_set
from corb.noise import NoiseModel, identity_kraus

def init(*args):
    real(*args)
    open(os.path.join({str(tmp_path)!r}, str(os.getpid())), "w").close()

real, engine._init_worker = engine._init_worker, init
os.cpu_count = lambda: 2  # CORB_THREADS=2 is admitted on any machine
engine.POOL_MIN_SIZE = 0
run(RbRunConfig(gate_set=build_pauli_set(2, 1),
                noise=NoiseModel(gate_channel=tuple(identity_kraus(2))),
                lengths=(10 ** 7,), k=2, repetitions=2))
"""
        src = os.path.dirname(os.path.dirname(corb.__file__))
        env = dict(os.environ, CORB_THREADS="2",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        parent = subprocess.Popen([sys.executable, "-c", script], env=env)
        workers = []
        try:
            deadline = time.monotonic() + 60
            while len(workers) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
                workers = [int(name) for name in os.listdir(tmp_path)]
            assert len(workers) == 2, "the workers never started"
            parent.kill()
            parent.wait(timeout=10)
            deadline = time.monotonic() + 10
            while not all(map(_process_gone, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert all(map(_process_gone, workers))
        finally:
            parent.kill()
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


class TestOperatorTraffic:
    """The engines read the superoperators and the prepared state that the
    NoiseModel built once: no call of `noise.superop` in a full run, and
    none inside the tasks of a sampled run."""

    NOISE = NoiseModel(gate_channel=tuple(depolarizing_kraus(0.02, 2)),
                       final_gate_channel=tuple(dephasing_kraus(0.03, 2)),
                       control_q=0.9, prep_error=0.02, meas_error=0.01)

    @pytest.fixture
    def calls(self, monkeypatch):
        """Every `noise.superop` call made, as "run" or "task": a task is a
        call of the function that `_map_tasks` maps over the tasks."""
        calls, where = [], ["run"]
        real_superop, real_map = corb.noise.superop, corb.engine._map_tasks

        def counted(kraus):
            calls.append(where[0])
            return real_superop(kraus)

        def mapped(fn, tasks, size, workers):
            def task(t):
                where[0] = "task"
                try:
                    return fn(t)
                finally:
                    where[0] = "run"
            return real_map(task, tasks, size, workers)

        monkeypatch.setattr("corb.noise.superop", counted)
        monkeypatch.setattr("corb.engine.superop", counted)
        monkeypatch.setattr("corb.engine._map_tasks", mapped)
        monkeypatch.setenv("CORB_THREADS", "1")
        return calls

    def test_full_runs_build_no_superoperator(self, calls):
        cfg = RbRunConfig(gate_set=CLIFFORD_2, noise=self.NOISE, lengths=(1, 2, 5),
                          mode="coherent-full")
        run_coherent_full(cfg)
        exact_fidelities(CLIFFORD_2, self.NOISE, (1, 2, 5), same_sequence=True)
        assert calls == []
        # The interleaved superoperators depend on the call's arguments:
        # S(g) and S(N_g), with S(g^dag) taken as S(g)^dag.
        run_interleaved_coherent(replace(cfg, mode="interleaved"), H,
                                 dephasing_kraus(0.01, 2), full_superposition=True)
        assert calls == ["run"] * 2

    @pytest.mark.parametrize("mode", [m for m in MODES if m != "coherent-full"])
    def test_sampled_tasks_build_no_superoperator(self, mode, calls):
        """Six tasks; with interleaving the run builds the position
        superoperator once, from the gate and its channel."""
        cfg = RbRunConfig(gate_set=CLIFFORD_2, noise=self.NOISE, lengths=(1, 2, 3),
                          k=3, repetitions=2, mode=mode)
        records = run(cfg, **_interleaving(mode, H, dephasing_kraus(0.01, 2)))
        assert len(records) == 6
        assert calls == (["run"] * 2 if mode == "interleaved" else [])

    def test_one_pass_of_both_readings_builds_no_superoperator(self, calls):
        cfg = RbRunConfig(gate_set=CLIFFORD_2, noise=self.NOISE, lengths=(1, 2, 3),
                          k=3, repetitions=2)
        assert len(run_coherent_and_standard(cfg)["standard"]) == 6
        assert calls == []


class TestShots:
    def test_shot_values_on_grid(self):
        noise = NoiseModel(gate_channel=tuple(dephasing_kraus(0.05, 2)))
        cfg = RbRunConfig(gate_set=PAULI_2, noise=noise, lengths=(2, 4), k=4,
                          repetitions=5, seed=3, shots=1000, mode="coherent")
        for record in run_coherent_rb(cfg):
            assert record.fidelity == pytest.approx(
                round(record.fidelity * 1000) / 1000, abs=1e-12)

    def test_shots_concentrate_near_expectation(self):
        noise = NoiseModel(gate_channel=tuple(dephasing_kraus(0.05, 2)))
        base = dict(gate_set=PAULI_2, noise=noise, lengths=(3,), k=4,
                    repetitions=40, seed=8, mode="coherent")
        exact = np.mean([r.fidelity for r in
                         run_coherent_rb(RbRunConfig(**base))])
        sampled = np.mean([r.fidelity for r in
                           run_coherent_rb(RbRunConfig(shots=2000, **base))])
        assert abs(exact - sampled) < 0.01


class TestKConsistency:
    def test_variance_shrinks_from_k20_to_k80(self):
        """Sample variance over 75 repetitions at least halves."""
        noise = NoiseModel(gate_channel=tuple(dephasing_kraus(1.5e-4, 2)))
        variances = {}
        for k in (20, 80):
            cfg = RbRunConfig(gate_set=CLIFFORD_2, noise=noise, lengths=(16,),
                              k=k, repetitions=75, seed=555, mode="coherent")
            values = [r.fidelity for r in run_coherent_rb(cfg)]
            variances[k] = np.var(values, ddof=1)
        assert variances[80] <= 0.5 * variances[20]


class TestConfigValidation:
    def test_configs_hash_and_compare_by_identity(self):
        a, b = (RbRunConfig(gate_set=PAULI_2, noise=ideal_noise(), lengths=(1,))
                for _ in range(2))
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_lengths_must_increase(self):
        """By RbRunConfig and by a direct exact call alike, which checks its
        inputs through one config."""
        for lengths in ((4, 2), (2, 2)):
            with pytest.raises(ValueError, match="^lengths must be strictly increasing$"):
                RbRunConfig(gate_set=PAULI_2, noise=ideal_noise(), lengths=lengths)
            with pytest.raises(ValueError, match="^lengths must be strictly increasing$"):
                exact_fidelities(PAULI_2, ideal_noise(), lengths)

    def test_inputs_are_checked_once(self, monkeypatch):
        """RbRunConfig is the only check of a run's noise model: running a
        config in any mode checks the trace gains only of an interleaved
        channel, which no config holds, and a direct exact call checks the
        final channel once, through its config."""
        checked = []
        real_check = corb.engine._check_gains

        def check(*args, **kwargs):
            checked.append(args[2])
            return real_check(*args, **kwargs)

        monkeypatch.setattr("corb.engine._check_gains", check)
        for mode in MODES:
            cfg = RbRunConfig(gate_set=PAULI_2, noise=ideal_noise(), lengths=(1, 2), k=2,
                              mode=mode)
            assert checked == ["final channel"]
            interleaved = mode == "interleaved"
            run(cfg, interleaved_gate=H if interleaved else None)
            assert checked == ["final channel"] + ["interleaved gate channel"] * interleaved
            checked.clear()
        for kwargs in ({}, dict(interleaved_gate=H)):
            exact_fidelities(PAULI_2, ideal_noise(), (1, 2), **kwargs)
            assert checked == ["final channel"] + ["interleaved gate channel"] * bool(kwargs)
            checked.clear()

    @pytest.mark.parametrize("lengths, message", [
        ((2.5, 4), "sequence length 2.5 is not an integer"),
        ((1, 2.9), "sequence length 2.9 is not an integer"),
        (("3",), "sequence length '3' is not an integer"),
        ((1, math.inf), "sequence length inf is not an integer"),
        ((), "lengths must be positive integers, got none"),
        ((0, 1), "lengths must be positive integers, got 0"),
    ], ids=["half", "truncated", "string", "infinite", "empty", "zero"])
    def test_non_integral_lengths_are_refused(self, lengths, message):
        """A length that is not an integer is refused, naming it, by
        RbRunConfig and by a direct exact call alike; none is truncated."""
        with pytest.raises(ValueError) as info:
            RbRunConfig(gate_set=PAULI_2, noise=ideal_noise(), lengths=lengths)
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            exact_fidelities(PAULI_2, ideal_noise(), lengths)
        assert str(info.value) == message

    def test_integral_lengths_are_accepted(self):
        """ints, numpy integers and integral floats become ints."""
        lengths = (1, np.int64(2), 3.0, np.float32(4.0))
        cfg = RbRunConfig(gate_set=PAULI_2, noise=ideal_noise(), lengths=lengths)
        assert cfg.lengths == (1, 2, 3, 4)
        assert all(type(m) is int for m in cfg.lengths)
        assert exact_fidelities(PAULI_2, ideal_noise(), lengths) == [1.0] * 4

    @pytest.mark.parametrize("field, value", [
        ("k", 2.5), ("repetitions", 1.5), ("shots", 2.5), ("seed", 1.5),
        ("k", "3"), ("shots", math.nan),
    ], ids=["k", "repetitions", "shots", "seed", "k-string", "shots-nan"])
    def test_non_integral_counts_are_refused(self, field, value):
        """k, repetitions, shots and seed take the rule of the lengths. A
        binomial draw would truncate shots = 2.5 to 2 and divide by 2.5;
        numpy refuses the others mid-run with a TypeError."""
        with pytest.raises(ValueError) as info:
            RbRunConfig(gate_set=PAULI_2, noise=ideal_noise(), lengths=(1,),
                        **{field: value})
        assert str(info.value) == f"{field} must be an integer, got {value!r}"

    def test_integral_counts_become_ints(self, tmp_path):
        """numpy integers and integral floats are stored as ints, so the
        records equal those of plain ints and can be written as JSON."""
        noise = NoiseModel(gate_channel=tuple(dephasing_kraus(0.01, 2)))
        plain = dict(k=3, repetitions=2, shots=10, seed=7)
        given = dict(k=np.int64(3), repetitions=2.0, shots=np.int32(10),
                     seed=np.uint64(7))
        cfg = RbRunConfig(gate_set=PAULI_2, noise=noise, lengths=(1, 2), **given)
        assert all(type(getattr(cfg, name)) is int for name in plain)
        records = run_coherent_rb(cfg)
        assert records == run_coherent_rb(replace(cfg, **plain))
        write_records_json(str(tmp_path / "records.json"), records)

    @pytest.mark.parametrize("call", ["coherent-full", "interleaved"])
    def test_the_full_superposition_refuses_shots(self, call, monkeypatch):
        """Both exact paths refuse shots before anything runs, rather than
        write exact values as if sampled."""
        noise = NoiseModel(gate_channel=tuple(dephasing_kraus(0.01, 2)))
        cfg = RbRunConfig(gate_set=PAULI_2, noise=noise, lengths=(1,), shots=10,
                          mode=call)
        monkeypatch.setattr("corb.engine.exact_fidelities", None)
        with pytest.raises(ValueError) as info:
            if call == "coherent-full":
                run(cfg)
            else:
                run_interleaved_coherent(cfg, H, full_superposition=True)
        assert str(info.value) == (f"mode {call} over all |G|^m sequences is exact "
                                   f"and takes no shots, got shots = 10")

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            RbRunConfig(gate_set=PAULI_2, noise=ideal_noise(), lengths=(1,),
                        mode="psychic")

    def test_k_positive(self):
        with pytest.raises(ValueError):
            RbRunConfig(gate_set=PAULI_2, noise=ideal_noise(), lengths=(1,), k=0)

    def test_dimension_cap(self):
        cfg = RbRunConfig(gate_set=PAULI_2, noise=ideal_noise(), lengths=(1,),
                          k=3000, mode="coherent")
        with pytest.raises(DimensionError,
                           match=rf"needs 1152768000 bytes.* {STATE_BUDGET_BYTES} bytes"):
            run_coherent_rb(cfg)

    def test_byte_budget_admits_the_old_dimension_cap(self, monkeypatch):
        """A task holds three (k, w, D, D) complex128 arrays and two
        (k, w, D, D) int64 gather indices, w = k // 2 + 1: one byte short of
        that is refused before anything is allocated, the exact need is
        admitted. The budget admits the old cap k * D = 4096 and, at D = 2,
        every k up to 2507."""
        _check_budget(2048, 2, 1025)
        _check_budget(2507, 2, 1254)
        with pytest.raises(DimensionError, match=r"k \* D = 5016 needs"):
            _check_budget(2508, 2, 1255)
        cfg = RbRunConfig(gate_set=PAULI_2, noise=ideal_noise(), lengths=(1, 2), k=5,
                          mode="coherent")
        needed = (3 * 16 + 2 * 8) * 5 * 2 * 3 * 2
        monkeypatch.setattr("corb.engine.STATE_BUDGET_BYTES", needed - 1)
        with pytest.raises(DimensionError, match=rf"k \* D = 10 needs {needed} bytes"):
            run_coherent_rb(cfg)
        monkeypatch.setattr("corb.engine.STATE_BUDGET_BYTES", needed)
        for record in run_coherent_rb(cfg):
            assert abs(record.fidelity - 1.0) <= 1e-12

    def test_standard_rb_is_held_to_the_byte_budget(self, monkeypatch):
        """Standard RB stores the k diagonal blocks alone: three (k, 1, D, D)
        complex128 arrays and two (k, 1, D, D) int64 gather indices,
        64 k D^2 bytes per task, checked like the coherent modes' before
        anything is allocated."""
        cfg = RbRunConfig(gate_set=PAULI_2, noise=ideal_noise(), lengths=(1, 2), k=5,
                          mode="standard")
        needed = 64 * 5 * 2 ** 2
        monkeypatch.setattr("corb.engine.STATE_BUDGET_BYTES", needed - 1)
        with pytest.raises(DimensionError,
                           match=rf"k \* D = 10 needs {needed} bytes per task \(three 5x1x2x2 "):
            run_standard_rb(cfg)
        monkeypatch.setattr("corb.engine.STATE_BUDGET_BYTES", needed)
        for record in run_standard_rb(cfg):
            assert abs(record.fidelity - 1.0) <= 1e-12

    @pytest.mark.parametrize("mode", ["coherent", "standard"])
    def test_gate_stack_is_held_to_the_byte_budget(self, mode, monkeypatch):
        """The run's real gate stack, the plain and the conjugating
        (2D, 2D) float64 form of every element, takes 64 |G| D^2 bytes and
        is checked before it is built: Pauli(2,2) needs 16384 bytes for it,
        more than its task at k = 2. One byte short is refused with the
        byte count; the exact need runs."""
        gate_set = build_pauli_set(2, 2)
        needed = 64 * len(gate_set) * 4 ** 2
        assert needed == 16384
        cfg = RbRunConfig(gate_set=gate_set, noise=ideal_noise(4), lengths=(1, 2), k=2,
                          mode=mode)
        monkeypatch.setattr("corb.engine.STATE_BUDGET_BYTES", needed - 1)
        with pytest.raises(DimensionError,
                           match=rf"gate stack of 16 elements .* needs {needed} bytes"):
            run(cfg)
        monkeypatch.setattr("corb.engine.STATE_BUDGET_BYTES", needed)
        for record in run(cfg):
            assert abs(record.fidelity - 1.0) <= 1e-12

    def test_same_sequence_moment_is_held_to_the_byte_budget(self, monkeypatch):
        """The dense same-sequence moment is one (D^4, |G|) x (|G|, D^4)
        product over a complex128 element table, reordered into a second
        D^4 x D^4 array: 16 |G| D^4 + 32 D^8 bytes, 14336 for Clifford(2,1),
        checked before the table is built. One byte short is refused with
        the byte count; the exact need runs."""
        needed = 16 * len(CLIFFORD_2) * 2 ** 4 + 32 * 2 ** 8
        assert needed == 14336
        monkeypatch.setattr("corb.engine.STATE_BUDGET_BYTES", needed - 1)
        with pytest.raises(DimensionError,
                           match=rf"moment of 24 elements .* needs {needed} bytes"):
            exact_fidelities(CLIFFORD_2, ideal_noise(), (1, 2), same_sequence=True)
        monkeypatch.setattr("corb.engine.STATE_BUDGET_BYTES", needed)
        for fidelity in exact_fidelities(CLIFFORD_2, ideal_noise(), (1, 2), same_sequence=True):
            assert abs(fidelity - 1.0) <= 1e-12

    @pytest.mark.parametrize("same_sequence", [False, True])
    @pytest.mark.parametrize("gate,gate_noise,message", [
        (np.eye(3), None, r"interleaved gate has shape \(3, 3\)"),
        (H, dephasing_kraus(0.1, 3), r"interleaved gate channel has shape \(3, 3\)"),
        (2 * H, None, "interleaved gate is not unitary"),
        (H, [0.5 * np.eye(2)], "interleaved gate channel is not trace preserving"),
    ], ids=["gate-shape", "channel-shape", "not-unitary", "not-trace-preserving"])
    def test_exact_fidelities_checks_the_interleaved_gate(
            self, same_sequence, gate, gate_noise, message):
        """Called directly, the exact recursion refuses an interleaved gate
        or channel that does not fit the set, and a gate that is not
        unitary, as the interleaved runs do."""
        with pytest.raises(ValueError, match=message):
            exact_fidelities(PAULI_2, ideal_noise(), (1, 2), same_sequence,
                             interleaved_gate=gate, interleaved_noise=gate_noise)

    @pytest.mark.parametrize("full", [False, True], ids=["sampled", "full"])
    def test_interleaved_run_refuses_a_lossy_channel(self, full):
        """An interleaved channel that loses trace, here {0.5 I}, is
        refused with its defect named, in the sampled and in the full
        form, before anything runs."""
        cfg = RbRunConfig(gate_set=PAULI_2, noise=ideal_noise(), lengths=(1, 2, 3), k=2,
                          mode="interleaved")
        with pytest.raises(ValueError, match=r"interleaved gate channel is not trace "
                                             r"preserving \(defect 7\.500e-01\)"):
            run_interleaved_coherent(cfg, H, [0.5 * np.eye(2)], full_superposition=full)

    def test_full_mode_is_not_capped(self):
        """k * D = 4^7 * 2 is far past the sampled modes' byte budget; the exact
        evaluator never builds that state."""
        noise = NoiseModel(gate_channel=tuple(dephasing_kraus(0.01, 2)),
                           final_gate_channel=tuple(identity_kraus(2)))
        cfg = RbRunConfig(gate_set=PAULI_2, noise=noise, lengths=(7,),
                          mode="coherent-full")
        record = run_coherent_full(cfg)[0]
        assert record.k == 4 ** 7
        assert record.fidelity == pytest.approx(0.99 ** 7, abs=1e-12)

    def test_channel_dimension_mismatch_rejected(self):
        """A gate channel on another dimension than the set's is refused by
        RbRunConfig; a final channel on another dimension than the gate
        channel's is refused by NoiseModel itself."""
        wrong = tuple(identity_kraus(3))
        with pytest.raises(ValueError, match=r"\(3, 3\).*\(2, 2\)"):
            RbRunConfig(gate_set=PAULI_2, noise=NoiseModel(gate_channel=wrong), lengths=(1,))
        with pytest.raises(ValueError, match=r"\(3, 3\).*\(2, 2\)"):
            NoiseModel(gate_channel=tuple(identity_kraus(2)), final_gate_channel=wrong)

    @pytest.mark.parametrize("same_sequence", [False, True], ids=["pair", "same"])
    @pytest.mark.parametrize("gate_set", [PAULI_2, CLIFFORD_2], ids=["dressed", "dense"])
    def test_exact_fidelities_checks_the_noise_dimension(self, gate_set, same_sequence):
        """Called directly, each of the four recursions, with or without an
        interleaved gate, refuses a noise model on another dimension than
        the set's with RbRunConfig's message, before anything runs. The
        dressed pair once returned the qutrit channel's decay, and the
        other recursions failed inside numpy."""
        noise = NoiseModel(gate_channel=tuple(dephasing_kraus(0.01, 3)))
        message = r"^gate channel has shape \(3, 3\); the gate set needs \(2, 2\)$"
        with pytest.raises(ValueError, match=message):
            RbRunConfig(gate_set=gate_set, noise=noise, lengths=(1, 2, 3))
        with pytest.raises(ValueError, match=message):
            exact_fidelities(gate_set, noise, (1, 2, 3), same_sequence)
        with pytest.raises(ValueError, match=message):
            exact_fidelities(gate_set, noise, (1, 2, 3), same_sequence, interleaved_gate=H)

    def test_dispatcher_requires_gate_for_interleaved(self):
        cfg = RbRunConfig(gate_set=PAULI_2, noise=ideal_noise(), lengths=(1,),
                          k=2, mode="interleaved")
        with pytest.raises(ValueError):
            run(cfg)

    def test_mode_mismatch_rejected(self):
        cfg = RbRunConfig(gate_set=PAULI_2, noise=ideal_noise(), lengths=(1,),
                          mode="standard")
        with pytest.raises(ValueError):
            run_coherent_rb(cfg)


class TestTraceGainTraffic:
    """The trace gains of a noise model's channels are derived once, when
    it is made; configs and exact runs read them."""

    @pytest.fixture
    def eigvalsh_calls(self, monkeypatch):
        calls = []
        original = np.linalg.eigvalsh

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        return calls

    @staticmethod
    def _noise():
        return NoiseModel(gate_channel=tuple(dephasing_kraus(0.01, 2)),
                          final_gate_channel=tuple(random_channel(2, 3,
                                                   np.random.default_rng(5))))

    def test_the_model_holds_the_gains_of_its_channels(self):
        noise = self._noise()
        assert noise.gate_gain == trace_gain(check_kraus_gram(noise.gate_channel)[1])
        assert noise.final_gain == trace_gain(check_kraus_gram(noise.final_gate_channel)[1])
        same = NoiseModel(gate_channel=noise.gate_channel)
        assert same.final_gain == same.gate_gain == noise.gate_gain

    def test_configs_and_exact_runs_derive_none(self, eigvalsh_calls):
        noise = self._noise()
        assert len(eigvalsh_calls) == 2
        del eigvalsh_calls[:]
        cfg = RbRunConfig(gate_set=PAULI_2, noise=noise, lengths=(1, 2, 3),
                          mode="coherent-full")
        run_coherent_full(cfg)
        for mode in MODES:
            replace(cfg, mode=mode)
        exact_fidelities(PAULI_2, noise, cfg.lengths, same_sequence=True)
        exact_fidelities(CLIFFORD_2, noise, cfg.lengths, same_sequence=True)
        assert eigvalsh_calls == []

    def test_an_interleaved_run_derives_one(self, eigvalsh_calls):
        cfg = RbRunConfig(gate_set=PAULI_2, noise=self._noise(), lengths=(1, 2, 3),
                          mode="interleaved")
        del eigvalsh_calls[:]
        run_interleaved_coherent(cfg, H, dephasing_kraus(0.01, 2),
                                 full_superposition=True)
        assert len(eigvalsh_calls) == 1


class TestFidelityRange:
    """Fidelities are clamped only within rounding of [0, 1]. Channels that
    gain trace within the Kraus-check tolerance are refused at the boundary
    when their gains together, (1 + delta_gate)^m (1 + delta_final) or
    (1 + delta_gate)^m (1 + delta_interleaved)^m at the longest length m,
    exceed 1 + FIDELITY_TOL."""

    @staticmethod
    def _gaining(excess):
        return NoiseModel(gate_channel=(np.sqrt(1.0 + excess) * np.eye(2),))

    @pytest.mark.parametrize("mode", MODES)
    def test_out_of_range_fidelity_raises(self, mode, gainless_noise_models):
        """The gate channel and the final channel (the interleaved channel,
        in interleaved mode, whose closing channel is the identity) each
        gain 9e-10, which gives 1 + 1.8e-9. The noise model reports no
        gain, so the boundary check lets the run start."""
        noise = self._gaining(9e-10)
        cfg = RbRunConfig(gate_set=PAULI_2, noise=noise, lengths=(1,), k=2,
                          mode=mode)
        with pytest.raises(FidelityRangeError, match=r"fidelity 1\.0000"):
            run(cfg, **_interleaving(mode, H, noise.gate_channel))

    @pytest.mark.parametrize("channel", ["gate", "final"])
    def test_trace_gaining_channel_is_refused(self, channel):
        """The gate channel is applied m times and the final channel once:
        delta_gate = 9e-9 over 2000 positions gains 1.8e-5 of trace, and
        delta_final = 9e-9 is refused at length 1 already. Each is refused
        naming delta, the growth and the length. A gain of 1e-13 in both
        over 10 positions, 1.1e-12, passes."""
        gaining = (np.sqrt(1.0 + 9e-9) * np.eye(2),)
        ideal_channel = tuple(identity_kraus(2))
        if channel == "gate":
            noise = NoiseModel(gate_channel=gaining, final_gate_channel=ideal_channel)
            length, growth = 2000, r"1\.800e-05"
        else:
            noise = NoiseModel(gate_channel=ideal_channel, final_gate_channel=gaining)
            length, growth = 1, r"9\.000e-09"
        with pytest.raises(ValueError, match=rf"{channel} channel gains trace: delta = "
                                             rf".* = 9\.000e-09, .* = {growth} exceeds "
                                             rf"1e-09 at length m = {length}"):
            RbRunConfig(gate_set=PAULI_2, noise=noise, lengths=(length,))
        RbRunConfig(gate_set=PAULI_2, noise=self._gaining(1e-13), lengths=(10,))

    def test_the_final_channel_counts_once(self):
        """delta_final = 1e-12 at length 2000 adds 1e-12 of trace, not
        (1 + 1e-12)^2000 - 1 = 2e-9: admitted."""
        gaining = (np.sqrt(1.0 + 1e-12) * np.eye(2),)
        noise = NoiseModel(gate_channel=tuple(identity_kraus(2)), final_gate_channel=gaining)
        RbRunConfig(gate_set=PAULI_2, noise=noise, lengths=(2000,))
        exact_fidelities(PAULI_2, noise, (2000,))

    @pytest.mark.parametrize("interleaved", [False, True])
    def test_the_product_of_the_gains_decides(self, interleaved):
        """A gate channel gaining 6e-10 passes alone at length 1; with a
        final channel gaining 6e-10, or an interleaved one, the product
        1.2e-9 is refused, by RbRunConfig and by a direct exact call alike."""
        gaining = (np.sqrt(1.0 + 6e-10) * np.eye(2),)
        alone = NoiseModel(gate_channel=gaining, final_gate_channel=tuple(identity_kraus(2)))
        RbRunConfig(gate_set=PAULI_2, noise=alone, lengths=(1,))
        exact_fidelities(PAULI_2, alone, (1,))
        message = r"gate channel gains trace: .* = 1\.200e-09 exceeds 1e-09 at length m = 1"
        if interleaved:
            with pytest.raises(ValueError, match=message):
                exact_fidelities(PAULI_2, alone, (1,), interleaved_gate=H,
                                 interleaved_noise=gaining)
            return
        both = NoiseModel(gate_channel=gaining)
        with pytest.raises(ValueError, match=message):
            RbRunConfig(gate_set=PAULI_2, noise=both, lengths=(1,))
        with pytest.raises(ValueError, match=message):
            exact_fidelities(PAULI_2, both, (1,))

    def test_the_exact_gain_decides(self):
        """One Kraus operator K = G^(1/2) with G = [[1, b], [b, 1 - c]],
        b = 2.5e-9, c = 8e-9: delta = sqrt(c^2/4 + b^2) - c/2 = 7.2e-10
        passes at length 1 and fails at length 2 (the diagonal of G alone
        would pass at both, its row sums fail at both)."""
        b, c = 2.5e-9, 8e-9
        vals, vecs = np.linalg.eigh(np.array([[1.0, b], [b, 1.0 - c]]))
        noise = NoiseModel(gate_channel=((vecs * np.sqrt(vals)) @ vecs.T,),
                           final_gate_channel=tuple(identity_kraus(2)))
        delta = np.sqrt(c * c / 4 + b * b) - c / 2
        assert noise.gate_gain == pytest.approx(delta, rel=1e-6)
        RbRunConfig(gate_set=PAULI_2, noise=noise, lengths=(1,))
        with pytest.raises(ValueError, match=rf"delta = .* = {delta:.3e}, .* at length m = 2"):
            RbRunConfig(gate_set=PAULI_2, noise=noise, lengths=(2,))

    @pytest.mark.parametrize("same_sequence", [False, True])
    def test_interleaved_exact_call_checks_the_final_channel(self, same_sequence):
        """A direct exact call checks its noise model through one
        RbRunConfig, as an interleaved run does, so a final channel gaining
        9e-9 is refused beside an interleaved gate too, although the
        interleaved protocol replaces it by the identity."""
        noise = NoiseModel(gate_channel=tuple(identity_kraus(2)),
                           final_gate_channel=(np.sqrt(1.0 + 9e-9) * np.eye(2),))
        with pytest.raises(ValueError, match="^final channel gains trace: "):
            exact_fidelities(PAULI_2, noise, (1,), same_sequence, interleaved_gate=H)

    @pytest.mark.parametrize("same_sequence", [False, True])
    def test_trace_gaining_interleaved_channel_is_refused(self, same_sequence):
        """The exact recursion holds the interleaved channel, which no
        RbRunConfig sees, to the same bound at its longest length."""
        gaining = [np.sqrt(1.0 + 9e-9) * np.eye(2)]
        with pytest.raises(ValueError, match=r"interleaved gate channel gains trace: "
                                             r".* at length m = 2000"):
            exact_fidelities(PAULI_2, ideal_noise(), (1, 2000), same_sequence,
                             interleaved_gate=H, interleaved_noise=gaining)

    @pytest.mark.parametrize("mode", MODES)
    def test_rounding_excess_is_clamped(self, mode):
        noise = self._gaining(1e-13)
        cfg = RbRunConfig(gate_set=PAULI_2, noise=noise, lengths=(10,), k=2,
                          mode=mode)
        records = run(cfg, **_interleaving(mode, H))
        assert [r.fidelity for r in records] == [1.0]


class TestRealForm:
    """Every product of the kernel runs on float64 views: a complex row x
    of length n is a real row of length 2n, and x -> x M is one real
    (2n, 2n) product."""

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_gate_stack_forms_equal_the_complex_products(self, dim):
        """Plain form: x_r -> (x U^T)_r; conjugating form: x_r ->
        (conj(x) U^T)_r, for random complex rows and Haar unitaries."""
        rng = np.random.default_rng(90 + dim)
        rows = rng.normal(size=(6, dim)) + 1j * rng.normal(size=(6, dim))
        unitaries = [haar_unitary(dim, rng) for _ in range(5)]
        gates = _real_gates(np.stack(unitaries))
        assert gates.shape == (2, 5, 2 * dim, 2 * dim) and gates.dtype == np.float64
        real = rows.view(np.float64)
        for u, plain, conjugating in zip(unitaries, gates[0], gates[1]):
            np.testing.assert_allclose((real @ plain).view(np.complex128), rows @ u.T,
                                       rtol=0, atol=1e-13)
            np.testing.assert_allclose((real @ conjugating).view(np.complex128),
                                       rows.conj() @ u.T, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_products_and_adjoints(self, dim):
        """R(M1 M2) = R(M1) R(M2) carries the running product, and
        R(M)^T = R(M^dag) gives the closing inverse from it."""
        rng = np.random.default_rng(95 + dim)
        m1, m2 = rng.normal(size=(2, dim, dim)) + 1j * rng.normal(size=(2, dim, dim))
        np.testing.assert_allclose(_real_form(m1 @ m2), _real_form(m1) @ _real_form(m2),
                                   rtol=0, atol=1e-13)
        assert np.array_equal(_real_form(m1).T, _real_form(m1.conj().T))


class TestBlockedPrimitives:
    def test_blocked_control_depolarize_matches_flat(self):
        """Engine fast path agrees with the flat-matrix channel."""
        from helpers import control_depolarize
        rng = np.random.default_rng(77)
        k, d = 5, 3
        vec = rng.normal(size=k * d) + 1j * rng.normal(size=k * d)
        vec /= np.linalg.norm(vec)
        rho = np.outer(vec, vec.conj())
        blocked = _apply_control_depolarize(pack(rho, k), 0.7)
        flat = control_depolarize(rho, 0.7, k)
        np.testing.assert_allclose(unpack(blocked), flat, atol=1e-13)


class TestGatherIndices:
    """The two gather indices of `_repack_indices` belong to one run: each
    process builds them at its first task and frees them with the run."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Weak references to the indices of every `_repack_indices` call
        made in this process, one list per call."""
        calls, real = [], corb.engine._repack_indices

        def recorded(*args):
            indices = real(*args)
            calls.append([weakref.ref(index) for index in indices])
            return indices

        monkeypatch.setattr("corb.engine._repack_indices", recorded)
        return calls

    @staticmethod
    def _config(mode):
        noise = NoiseModel(gate_channel=tuple(dephasing_kraus(0.02, 2)))
        return RbRunConfig(gate_set=CLIFFORD_2, noise=noise, lengths=(1, 2, 4), k=5,
                           repetitions=3, mode=mode)

    @pytest.mark.parametrize("mode", ["coherent", "standard"])
    def test_freed_with_the_run(self, built, mode, monkeypatch):
        """After a serial run no index it built is alive."""
        monkeypatch.setenv("CORB_THREADS", "1")
        run(self._config(mode))
        gc.collect()
        assert built and all(ref() is None for call in built for ref in call)

    @pytest.mark.parametrize("mode", ["coherent", "standard"])
    def test_built_once_per_run(self, built, mode, monkeypatch):
        """A serial run of nine tasks builds its indices once, and the next
        run builds its own."""
        monkeypatch.setenv("CORB_THREADS", "1")
        for runs in (1, 2):
            run(self._config(mode))
            assert len(built) == runs

    def test_pooled_runs_build_them_in_the_workers(self, built, monkeypatch, pool_starts):
        """A pooled run's parent builds no index: each worker builds its own
        after the fork, and the records are those of a serial run."""
        monkeypatch.setenv("CORB_THREADS", "2")
        pooled = run(self._config("coherent"))
        assert len(pool_starts) == 1 and built == []
        monkeypatch.setenv("CORB_THREADS", "1")
        assert run(self._config("coherent")) == pooled


class TestAmplitude:
    def test_spam_amplitude_arithmetic(self):
        """A = (1-em)(1-ep/2) for a qubit with an ideal closing channel."""
        noise = NoiseModel(gate_channel=tuple(identity_kraus(2)),
                           prep_error=0.1, meas_error=0.05)
        expected = 0.95 * 0.95
        assert decay_amplitude(noise) == pytest.approx(expected, abs=1e-12)

    def test_amplitude_is_k_independent(self):
        """With noiseless sequence gates the coherent run returns exactly
        the amplitude, at every superposition size k."""
        noise = NoiseModel(gate_channel=tuple(identity_kraus(2)),
                           final_gate_channel=tuple(dephasing_kraus(0.2, 2)),
                           prep_error=0.07, meas_error=0.03)
        amplitude = decay_amplitude(noise)
        rng = np.random.default_rng(65)
        for k in (1, 4, 64):
            sequences = rng.integers(0, len(CLIFFORD_2), size=(k, 3))
            fidelity = simulate_coherent(CLIFFORD_2, noise, sequences)
            assert abs(fidelity - amplitude) < 1e-12

    def test_ideal_amplitude_is_one(self):
        assert decay_amplitude(ideal_noise()) == pytest.approx(1.0, abs=1e-12)
