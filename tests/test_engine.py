"""Protocol engines: decay laws, mode cross-checks, determinism, caps."""

import numpy as np
import pytest

from corb.engine import (
    DimensionError,
    RbRunConfig,
    _all_sequences,
    child_rng,
    diagonal_block_survival,
    run,
    run_coherent_full,
    run_coherent_rb,
    run_coherent_with_control_noise,
    run_interleaved_coherent,
    run_standard_rb,
    simulate_coherent,
    simulate_standard,
)
from corb.fitting import decay_amplitude
from corb.gatesets import (
    build_clifford_set,
    build_custom_set,
    build_dressed_set,
    build_ms_dressed_set,
    build_pauli_set,
)
from corb.linalg import basis_state, projector
from corb.noise import (
    NoiseModel,
    chi00_of,
    composed_chi00,
    conjugate_channel,
    dephasing_kraus,
    identity_kraus,
    kraus_to_chi,
    random_channel,
    random_phase_channel,
)
from corb.paulis import PauliLabel, pauli_matrix

PAULI_2 = build_pauli_set(2, 1)
CLIFFORD_2 = build_clifford_set(2, 1)
X = pauli_matrix(PauliLabel(2, 1, (1,), (0,)))
Z = pauli_matrix(PauliLabel(2, 1, (0,), (1,)))
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def ideal(dim=2):
    return NoiseModel.ideal(dim)


def kraus_compose(second, first):
    """Kraus list of the composition second . first."""
    return [a @ b for a in second for b in first]


class TestNoiselessInvariance:
    """Zero noise and zero SPAM return the initial state exactly."""

    @pytest.mark.parametrize("mode,runner", [
        ("standard", run_standard_rb),
        ("coherent", run_coherent_rb),
        ("coherent-control-noise", run_coherent_with_control_noise),
    ])
    def test_sampled_modes(self, mode, runner):
        for gate_set in (PAULI_2, CLIFFORD_2, build_ms_dressed_set(2, 0.61)):
            cfg = RbRunConfig(gate_set=gate_set, noise=ideal(gate_set.dim),
                              lengths=(1, 7, 20), k=5, repetitions=2, seed=1,
                              mode=mode)
            for record in runner(cfg):
                assert abs(record.fidelity - 1.0) <= 1e-12

    def test_full_mode(self):
        cfg = RbRunConfig(gate_set=PAULI_2, noise=ideal(), lengths=(1, 2, 3),
                          mode="coherent-full")
        for record in run_coherent_full(cfg):
            assert abs(record.fidelity - 1.0) <= 1e-12

    def test_interleaved(self):
        cfg = RbRunConfig(gate_set=PAULI_2, noise=ideal(), lengths=(1, 5),
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
        lengths = (1, 2) if len(gate_set) > 8 else (1, 2, 3)
        for _ in range(5):
            kraus = random_channel(dim, 2, rng)
            noise = NoiseModel(gate_channel=tuple(kraus))
            chi00 = chi00_of(kraus)
            cfg = RbRunConfig(gate_set=gate_set, noise=noise, lengths=lengths,
                              mode="coherent-full")
            records = run_coherent_full(cfg)
            amplitude = decay_amplitude(noise, dim, records[0].k)
            for record in records:
                # amplitude is k-dependent through the measurement mixing
                a = decay_amplitude(noise, dim, record.k)
                assert record.fidelity == pytest.approx(a * chi00 ** record.m,
                                                        abs=1e-9)

    def test_spam_enters_only_the_amplitude(self):
        """Preparation and measurement errors rescale, never bend, the decay."""
        noise = NoiseModel(gate_channel=tuple(dephasing_kraus(0.05, 2)),
                           prep_error=0.1, meas_error=0.05)
        cfg = RbRunConfig(gate_set=PAULI_2, noise=noise, lengths=(1, 2, 3),
                          mode="coherent-full")
        for record in run_coherent_full(cfg):
            a = decay_amplitude(noise, 2, record.k)
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


class TestStandardCoherentIdentity:
    def test_diagonal_blocks_reproduce_classical_average(self):
        """Coherent diagonal control blocks == standard average, same list."""
        rng = np.random.default_rng(63)
        noise = NoiseModel(gate_channel=tuple(dephasing_kraus(0.03, 2)))
        for gate_set in (PAULI_2, CLIFFORD_2):
            sequences = rng.integers(0, len(gate_set), size=(8, 3))
            _, rho = simulate_coherent(gate_set, noise, sequences,
                                       return_state=True)
            survivals = simulate_standard(gate_set, noise, sequences)
            diag = diagonal_block_survival(rho, projector(basis_state(2)))
            assert abs(np.mean(survivals) - diag) <= 1e-10

    def test_all_sequences_at_m_two(self):
        noise = NoiseModel(gate_channel=tuple(dephasing_kraus(0.02, 2)))
        sequences = _all_sequences(len(PAULI_2), 2)
        _, rho = simulate_coherent(PAULI_2, noise, sequences, return_state=True)
        survivals = simulate_standard(PAULI_2, noise, sequences)
        diag = diagonal_block_survival(rho, projector(basis_state(2)))
        assert abs(np.mean(survivals) - diag) <= 1e-10


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
                          lengths=(1, 2, 3), mode="interleaved")
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
        cfg = RbRunConfig(gate_set=PAULI_2, noise=ideal(), lengths=(1, 2),
                          k=2, mode="interleaved")
        with pytest.raises(ValueError):
            run_interleaved_coherent(cfg, np.ones((2, 2)))


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

    def test_worker_count_does_not_change_results(self, monkeypatch):
        noise = NoiseModel(gate_channel=tuple(dephasing_kraus(0.02, 2)))
        for mode in ("coherent", "standard"):
            cfg = RbRunConfig(gate_set=CLIFFORD_2, noise=noise, lengths=(2, 4, 8),
                              k=8, repetitions=3, seed=7, mode=mode)
            monkeypatch.setenv("CORB_THREADS", "1")
            serial = run(cfg)
            monkeypatch.setenv("CORB_THREADS", "4")
            threaded = run(cfg)
            assert serial == threaded

    def test_child_streams_are_order_free(self):
        a = child_rng(42, 8, 3).integers(0, 1000, 5)
        b = child_rng(42, 8, 3).integers(0, 1000, 5)
        c = child_rng(42, 8, 4).integers(0, 1000, 5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


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
    def test_lengths_must_increase(self):
        with pytest.raises(ValueError):
            RbRunConfig(gate_set=PAULI_2, noise=ideal(), lengths=(4, 2))

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            RbRunConfig(gate_set=PAULI_2, noise=ideal(), lengths=(1,),
                        mode="psychic")

    def test_k_positive(self):
        with pytest.raises(ValueError):
            RbRunConfig(gate_set=PAULI_2, noise=ideal(), lengths=(1,), k=0)

    def test_dimension_cap(self):
        cfg = RbRunConfig(gate_set=PAULI_2, noise=ideal(), lengths=(1,),
                          k=3000, mode="coherent")
        with pytest.raises(DimensionError):
            run_coherent_rb(cfg)

    def test_enumeration_cap(self):
        cfg = RbRunConfig(gate_set=PAULI_2, noise=ideal(), lengths=(7,),
                          mode="coherent-full")
        with pytest.raises(DimensionError):
            run_coherent_full(cfg)

    def test_channel_dimension_mismatch_rejected(self):
        wrong = tuple(identity_kraus(3))
        for noise in (NoiseModel(gate_channel=wrong),
                      NoiseModel(gate_channel=tuple(identity_kraus(2)),
                                 final_gate_channel=wrong)):
            with pytest.raises(ValueError, match=r"\(3, 3\).*\(2, 2\)"):
                RbRunConfig(gate_set=PAULI_2, noise=noise, lengths=(1,))

    def test_dispatcher_requires_gate_for_interleaved(self):
        cfg = RbRunConfig(gate_set=PAULI_2, noise=ideal(), lengths=(1,),
                          k=2, mode="interleaved")
        with pytest.raises(ValueError):
            run(cfg)

    def test_mode_mismatch_rejected(self):
        cfg = RbRunConfig(gate_set=PAULI_2, noise=ideal(), lengths=(1,),
                          mode="standard")
        with pytest.raises(ValueError):
            run_coherent_rb(cfg)


class TestBlockedPrimitives:
    def test_blocked_control_depolarize_matches_flat(self):
        """Engine fast path agrees with the flat-matrix channel."""
        from corb.engine import _apply_control_depolarize
        from corb.noise import control_depolarize
        rng = np.random.default_rng(77)
        k, d = 5, 3
        vec = rng.normal(size=k * d) + 1j * rng.normal(size=k * d)
        vec /= np.linalg.norm(vec)
        rho = np.outer(vec, vec.conj())
        blocked = _apply_control_depolarize(rho.reshape(k, d, k, d).copy(), 0.7)
        flat = control_depolarize(rho, 0.7, k)
        np.testing.assert_allclose(blocked.reshape(k * d, k * d), flat,
                                   atol=1e-13)


class TestAmplitude:
    def test_spam_amplitude_arithmetic(self):
        """A = (1-em)(1-ep/2) for a qubit with an ideal closing channel."""
        noise = NoiseModel(gate_channel=tuple(identity_kraus(2)),
                           prep_error=0.1, meas_error=0.05)
        expected = 0.95 * 0.95
        assert decay_amplitude(noise, 2, 2) == pytest.approx(expected, abs=1e-12)

    def test_amplitude_is_k_independent(self):
        noise = NoiseModel(gate_channel=tuple(dephasing_kraus(0.2, 2)),
                           prep_error=0.07, meas_error=0.03)
        values = {decay_amplitude(noise, 2, k) for k in (1, 4, 64)}
        assert max(values) - min(values) < 1e-12

    def test_ideal_amplitude_is_one(self):
        assert decay_amplitude(ideal(), 2, 7) == pytest.approx(1.0, abs=1e-12)
