"""Channel representations, fidelity formulas, control depolarization."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from corb.gatesets import build_clifford_set, build_custom_set, build_pauli_set
from corb import noise
from corb.linalg import ARRAY_BUDGET_BYTES, DimensionError, projector, tensor
from corb.noise import (
    NoiseModel,
    avg_gate_fidelity,
    chi00_of,
    dephasing_kraus,
    depolarizing_kraus,
    identity_kraus,
    infidelity_to_dephasing,
    parse_channel_spec,
    superop,
)
from corb.paulis import pauli_basis
from helpers import (
    avg_state_fidelity,
    chi_to_kraus,
    composed_chi00,
    conjugate_channel,
    control_depolarize,
    haar_state,
    kraus_to_chi,
    random_channel,
    random_phase_channel,
    weyl_label,
    write_matrices,
)
from dense_oracle import plus_state

I2 = np.eye(2, dtype=complex)


class TestKrausToChi:
    def test_identity_channel(self):
        chi = kraus_to_chi(identity_kraus(2), 2, 1)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(chi, expected, atol=1e-14)

    def test_dephasing_entries(self):
        """Diagonal by construction: chi_II = 1-p, chi_ZZ = p (Z is label 1)."""
        chi = kraus_to_chi(dephasing_kraus(0.01, 2), 2, 1)
        assert chi[0, 0] == pytest.approx(0.99, abs=1e-14)
        assert chi[1, 1] == pytest.approx(0.01, abs=1e-14)
        assert np.max(np.abs(chi - np.diag(np.diagonal(chi)))) < 1e-14

    def test_qubit_depolarizing_chi00(self):
        p = 0.12
        chi = kraus_to_chi(depolarizing_kraus(p, 2), 2, 1)
        assert chi[0, 0] == pytest.approx(1 - 3 * p / 4, abs=1e-14)

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_depolarizing_is_uniform_on_any_dimension(self, dim):
        """rho -> (1 - p) rho + p tr(rho) I / D from the one-qudit Weyl basis
        of dimension D, which serves any split of D into qudits (D = 4, 8
        for two and three qubits)."""
        p = 0.3
        vec_eye = np.eye(dim).ravel()
        want = (1 - p) * np.eye(dim * dim) + p * np.outer(vec_eye, vec_eye) / dim
        assert np.max(np.abs(superop(depolarizing_kraus(p, dim)) - want)) <= 1e-14

    def test_chi_is_hermitian_psd_unit_trace_preserving(self):
        rng = np.random.default_rng(41)
        for dim, n in ((2, 1), (4, 2)):
            kraus = random_channel(dim, 3, rng)
            chi = kraus_to_chi(kraus, 2, n)
            assert np.max(np.abs(chi - chi.conj().T)) < 1e-10
            assert np.linalg.eigvalsh(chi).min() > -1e-9
            assert chi[0, 0].imag == pytest.approx(0.0, abs=1e-12)

    def test_chi00_of_matches_matrix_entry(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            kraus = random_channel(2, 3, rng)
            chi = kraus_to_chi(kraus, 2, 1)
            assert chi00_of(kraus) == pytest.approx(chi[0, 0].real, abs=1e-12)

    def test_round_trip_on_operator_basis(self):
        """chi -> Kraus -> same action on a complete operator basis."""
        rng = np.random.default_rng(43)
        for trial in range(50):
            d, n = ((2, 1), (3, 1), (2, 2))[trial % 3]
            dim = d ** n
            kraus = random_channel(dim, int(rng.integers(1, 4)), rng)
            rebuilt = chi_to_kraus(kraus_to_chi(kraus, d, n), d, n)
            for basis_op in pauli_basis(d, n):
                direct = sum(k @ basis_op @ k.conj().T for k in kraus)
                via_chi = sum(k @ basis_op @ k.conj().T for k in rebuilt)
                assert np.max(np.abs(direct - via_chi)) < 1e-8


class TestFidelityFormulas:
    def test_perfect_channel(self):
        assert avg_gate_fidelity(1.0, 2) == pytest.approx(1.0)

    def test_qubit_value(self):
        assert avg_gate_fidelity(0.99985, 2) == pytest.approx(0.9999)

    def test_two_qubit_value(self):
        assert avg_gate_fidelity(0.99, 4) == pytest.approx(0.992)

    def test_dephasing_closed_form(self):
        """avg fidelity of dephasing p on a qubit is exactly 1 - 2p/3."""
        for p in (0.0, 0.01, 0.3, 0.9):
            got = avg_gate_fidelity(chi00_of(dephasing_kraus(p, 2)), 2)
            assert got == pytest.approx(1 - 2 * p / 3, abs=1e-12)

    def test_matches_haar_monte_carlo(self):
        """Formula vs sampled state-fidelity average, 3 standard errors."""
        rng = np.random.default_rng(44)
        for dim in (2, 4):
            kraus = random_channel(dim, 3, rng)
            formula = avg_gate_fidelity(chi00_of(kraus), dim)
            samples = []
            for _ in range(4000):
                phi = haar_state(dim, rng)
                samples.append(sum(abs(phi.conj() @ k @ phi) ** 2 for k in kraus))
            samples = np.asarray(samples)
            se = samples.std(ddof=1) / np.sqrt(len(samples))
            assert abs(samples.mean() - formula) <= 3 * se

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            avg_gate_fidelity(1.2, 2)
        with pytest.raises(ValueError):
            avg_gate_fidelity(0.5, 1)


class TestInfidelityTargeting:
    def test_zero_is_identity(self):
        kraus = infidelity_to_dephasing(0.0, 2)
        assert chi00_of(kraus) == pytest.approx(1.0)

    def test_inverts_fidelity_formula(self):
        kraus = infidelity_to_dephasing(1e-4, 2)
        assert chi00_of(kraus) == pytest.approx(0.99985, abs=1e-12)
        assert avg_gate_fidelity(chi00_of(kraus), 2) == pytest.approx(1 - 1e-4,
                                                                      abs=1e-12)

    def test_small_infidelity_regime(self):
        kraus = infidelity_to_dephasing(1e-5, 2)
        assert 1 - chi00_of(kraus) == pytest.approx(1.5e-5, rel=1e-9)

    def test_infeasible(self):
        with pytest.raises(ValueError):
            infidelity_to_dephasing(0.9, 2)


class TestControlDepolarize:
    def test_identity_at_q_one(self):
        rng = np.random.default_rng(45)
        rho = projector(haar_state(8, rng))
        np.testing.assert_allclose(control_depolarize(rho, 1.0, 4), rho,
                                   atol=1e-14)

    def test_full_depolarization_of_product(self):
        rng = np.random.default_rng(46)
        sigma = projector(haar_state(2, rng))
        rho = tensor(projector(plus_state(2)), sigma)
        expected = tensor(np.eye(2) / 2, sigma)
        np.testing.assert_allclose(control_depolarize(rho, 0.0, 2), expected,
                                   atol=1e-13)

    def test_off_diagonal_block_scaling(self):
        """Pure control state: off-diagonal control blocks scale by q."""
        rng = np.random.default_rng(47)
        sigma = projector(haar_state(2, rng))
        rho = tensor(projector(plus_state(2)), sigma)
        out = control_depolarize(rho, 0.9, 2)
        np.testing.assert_allclose(out[0:2, 2:4], 0.9 * rho[0:2, 2:4],
                                   atol=1e-14)

    def test_linear_and_trace_preserving(self):
        rng = np.random.default_rng(48)
        a = projector(haar_state(6, rng))
        b = projector(haar_state(6, rng))
        mix = 0.3 * a + 0.7 * b
        out_mix = control_depolarize(mix, 0.8, 3)
        out_parts = 0.3 * control_depolarize(a, 0.8, 3) + \
            0.7 * control_depolarize(b, 0.8, 3)
        np.testing.assert_allclose(out_mix, out_parts, atol=1e-13)
        assert np.trace(out_mix) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            control_depolarize(np.eye(6) / 6, 0.5, 4)


class TestAvgStateFidelity:
    def test_pauli_set_value(self):
        """1/d^n for any computational basis state."""
        for d, n in ((2, 1), (3, 1), (2, 2)):
            gs = build_pauli_set(d, n)
            phi = np.zeros(d ** n)
            phi[0] = 1.0
            assert avg_state_fidelity(gs, phi) == pytest.approx(1.0 / d ** n,
                                                                abs=1e-12)

    def test_identity_singleton(self):
        gs = build_custom_set([I2])
        assert avg_state_fidelity(gs, np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_clifford_by_direct_enumeration(self):
        cl = build_clifford_set(2, 1)
        phi = np.array([1.0, 0.0])
        direct = np.mean([abs(phi.conj() @ u @ phi) ** 2 for u in cl.elements])
        assert avg_state_fidelity(cl, phi) == pytest.approx(direct, abs=1e-14)

    def test_rejects_mixed_state(self):
        with pytest.raises(ValueError):
            avg_state_fidelity(build_pauli_set(2, 1), np.eye(2) / 2)


class TestChannelComposition:
    def test_composed_chi00_for_commuting_supports(self):
        """Dephasing against a conjugated channel with disjoint support
        reduces to the plain product of chi00 values."""
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        chi_a = kraus_to_chi(dephasing_kraus(0.001, 2), 2, 1)
        chi_b = kraus_to_chi(conjugate_channel(dephasing_kraus(0.01, 2), h), 2, 1)
        assert composed_chi00(chi_a, chi_b) == pytest.approx(0.999 * 0.99,
                                                             abs=1e-12)

    def test_conjugation_preserves_chi00(self):
        rng = np.random.default_rng(49)
        kraus = random_channel(2, 3, rng)
        from helpers import haar_unitary
        u = haar_unitary(2, rng)
        assert chi00_of(conjugate_channel(kraus, u)) == pytest.approx(
            chi00_of(kraus), abs=1e-12)


class TestNoiseModel:
    def test_final_channel_defaults_to_gate_channel(self):
        nm = NoiseModel(gate_channel=tuple(dephasing_kraus(0.1, 2)))
        assert nm.final_channel is nm.gate_channel

    def test_validates_channels(self):
        with pytest.raises(ValueError):
            NoiseModel(gate_channel=(0.5 * I2,))

    def test_validates_rates(self):
        with pytest.raises(ValueError):
            NoiseModel(gate_channel=tuple(identity_kraus(2)), control_q=1.5)

    def test_final_channel_on_another_dimension_is_refused(self):
        """The final channel must act where the gate channel does; a
        ququart final channel after a qubit gate channel used to pass here
        and fail later, inside numpy, in `fitting.decay_amplitude`."""
        with pytest.raises(ValueError, match=r"^final channel has shape \(4, 4\); "
                                             r"the gate channel has \(2, 2\)$"):
            NoiseModel(gate_channel=dephasing_kraus(0.01, 2),
                       final_gate_channel=dephasing_kraus(0.01, 4))

    def test_superoperator_is_held_to_the_array_budget(self, monkeypatch):
        """A channel's (D^2, D^2) superoperator takes 16 D^4 bytes, asked of
        `check_bytes` before it is formed: D = 65 is refused with nothing
        near its 285 MB allocated (the identity's Kraus check is small)."""
        tracemalloc.start()
        try:
            with pytest.raises(DimensionError,
                               match=r"^the superoperator of a channel on dimension 65 "
                                     r"needs 285610000 bytes \(a 4225x4225 complex128 "
                                     r"array\); the budget is 268435456 bytes$"):
                NoiseModel(gate_channel=tuple(identity_kraus(65)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        asked = []
        monkeypatch.setattr(noise, "check_bytes",
                            lambda needed, budget, *_: asked.append((needed, budget)))
        superop(identity_kraus(3))
        assert asked == [(16 * 3 ** 4, ARRAY_BUDGET_BYTES)]

    def test_superoperator_of_a_stack_reads_it_in_place(self):
        """`superop` of a (|G|, D, D) stack, as the twirl check and the dense
        pair step take it, holds no copy of the stack: for Pauli(2, 5) its
        peak is the conjugated rows and the product, or the product and its
        realigned copy, two (D^2, D^2) complex128 arrays."""
        stack = pauli_basis(2, 5)
        tracemalloc.start()
        try:
            sop = superop(stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sop.shape == (1024, 1024)
        assert peak <= 2 * 16 * 1024 ** 2 + 2 ** 20

    def test_models_hash_and_compare_by_identity(self):
        a, b = (NoiseModel(gate_channel=tuple(dephasing_kraus(0.1, 2))) for _ in range(2))
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_derived_operators_are_built_once_and_read_only(self):
        """`gate_sop` and `final_sop` are `superop` of their channels bit
        for bit and its definition to rounding (one product sums in
        another order than the einsum), `prep` equals its definition bit
        for bit; all three are read-only attributes that are not fields,
        and `dataclasses.replace` builds them again."""
        rng = np.random.default_rng(41)
        gate, final = random_channel(3, 2, rng), random_channel(3, 3, rng)
        eps = 0.07
        nm = NoiseModel(gate_channel=tuple(gate), final_gate_channel=tuple(final),
                        prep_error=eps)

        def definition(kraus):
            stack = np.stack(kraus)
            return np.einsum("sab,scd->acbd", stack, stack.conj()).reshape(9, 9)

        assert np.array_equal(nm.gate_sop, superop(gate))
        assert np.array_equal(nm.final_sop, superop(final))
        for built, kraus in ((nm.gate_sop, gate), (nm.final_sop, final)):
            np.testing.assert_allclose(built, definition(kraus), rtol=0, atol=1e-15)
        assert np.array_equal(nm.prep, np.diag([(1 - eps) + eps / 3, eps / 3, eps / 3]))
        rho = nm.prep + 0.1j * (np.eye(3, k=1) - np.eye(3, k=-1))
        np.testing.assert_allclose((nm.gate_sop @ rho.ravel()).reshape(3, 3),
                                   sum(k @ rho @ k.conj().T for k in gate), atol=1e-15)
        for name in ("gate_sop", "final_sop", "prep"):
            assert name not in {f.name for f in dataclasses.fields(nm)}
            with pytest.raises(ValueError, match="read-only"):
                getattr(nm, name)[0, 0] = 0.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(nm, name, np.eye(3))

        other = dataclasses.replace(nm, final_gate_channel=None, prep_error=0.5)
        assert other.final_sop is other.gate_sop
        assert np.array_equal(other.gate_sop, nm.gate_sop)
        assert np.array_equal(other.prep, np.diag([0.5 + 0.5 / 3, 0.5 / 3, 0.5 / 3]))
        changed = dataclasses.replace(nm, gate_channel=tuple(final))
        assert np.array_equal(changed.gate_sop, superop(final))
        assert np.array_equal(changed.final_sop, superop(final))


class TestChannelSpecs:
    def test_identity(self):
        assert len(parse_channel_spec("identity", 2)) == 1

    def test_dephasing(self):
        kraus = parse_channel_spec("dephasing:p=0.02", 2)
        assert chi00_of(kraus) == pytest.approx(0.98)

    def test_depolarizing(self):
        kraus = parse_channel_spec("depolarizing:p=0.1", 2)
        assert chi00_of(kraus) == pytest.approx(1 - 0.3 / 4)

    def test_infidelity_dephasing(self):
        kraus = parse_channel_spec("infidelity-dephasing:r=1e-4", 2)
        assert chi00_of(kraus) == pytest.approx(0.99985)

    def test_kraus_file(self, tmp_path):
        path = tmp_path / "chan.mat"
        write_matrices(str(path), dephasing_kraus(0.25, 2))
        kraus = parse_channel_spec(f"kraus:{path}", 2)
        assert chi00_of(kraus) == pytest.approx(0.75, abs=1e-12)

    def test_kraus_file_of_another_dimension_names_the_file(self, tmp_path):
        path = tmp_path / "k3.mat"
        write_matrices(str(path), [np.eye(3)])
        fault = r": Kraus operator 0 has shape \(3, 3\); the gate set needs \(2, 2\)$"
        with pytest.raises(ValueError, match="^" + re.escape(str(path)) + fault):
            parse_channel_spec(f"kraus:{path}", 2)

    def test_unknown(self):
        with pytest.raises(ValueError):
            parse_channel_spec("thermal:t=1", 2)

    @pytest.mark.parametrize("spec,key", [
        ("dephasing", "p"), ("depolarizing:q=0.1", "p"),
        ("infidelity-dephasing:p=0.1", "r"),
    ])
    def test_missing_key_names_spec_and_key(self, spec, key):
        with pytest.raises(ValueError,
                           match=rf"channel spec '{spec}' is missing key '{key}'"):
            parse_channel_spec(spec, 2)


class TestRandomChannels:
    def test_random_channel_is_trace_preserving(self):
        rng = np.random.default_rng(50)
        for dim in (2, 3, 4):
            kraus = random_channel(dim, 2, rng)
            total = sum(k.conj().T @ k for k in kraus)
            np.testing.assert_allclose(total, np.eye(dim), atol=1e-12)

    def test_phase_channel_chi_support(self):
        """Kraus in the Z-word span: chi vanishes off the diagonal labels."""
        rng = np.random.default_rng(51)
        kraus = random_phase_channel(2, 3, rng)
        chi = kraus_to_chi(kraus, 2, 1)
        z_labels = [i for i in range(4) if not any(weyl_label(2, 1, i)[0])]
        mask = np.zeros((4, 4), dtype=bool)
        for i in z_labels:
            for j in z_labels:
                mask[i, j] = True
        assert np.max(np.abs(chi[~mask])) < 1e-12
        assert abs(np.trace(chi) - 1.0) < 1e-12
