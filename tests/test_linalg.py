"""Tensor products, the unitarity and Kraus checks, and the dense oracles
of the tests: controlled operations, channels, POVM expectations, state
checks."""

import math
import re

import numpy as np
import pytest

from corb.linalg import (
    ARRAY_BUDGET_BYTES,
    DimensionError,
    assert_unitary,
    check_bytes,
    check_kraus,
    projector,
    tensor,
)
from helpers import haar_state, haar_unitary
from dense_oracle import (
    apply_channel,
    check_density_matrix,
    materialize_controlled,
    partial_trace_control,
    plus_state,
    povm_expectation,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


class TestTensor:
    def test_identity_case(self):
        np.testing.assert_allclose(tensor(I2, I2), np.eye(4), atol=1e-15)

    def test_basis_action(self):
        """(X (x) I)|00> = |10>."""
        ket00 = np.array([1, 0, 0, 0], dtype=complex)
        ket10 = np.array([0, 0, 1, 0], dtype=complex)
        np.testing.assert_allclose(tensor(X, I2) @ ket00, ket10, atol=1e-15)

    def test_zz_diagonal(self):
        """Direct 4x4 expansion: diag(Z (x) Z) = (1, -1, -1, 1)."""
        np.testing.assert_allclose(np.diagonal(tensor(Z, Z)),
                                   [1, -1, -1, 1], atol=1e-15)

    def test_dagger_distributes(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            u, v = haar_unitary(2, rng), haar_unitary(3, rng)
            np.testing.assert_allclose(tensor(u, v).conj().T,
                                       tensor(u.conj().T, v.conj().T),
                                       atol=1e-12)


class TestMaterializeControlled:
    def test_single_branch_is_trivial_control(self):
        np.testing.assert_allclose(materialize_controlled([X]), X, atol=1e-15)

    def test_cnot(self):
        cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                         [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
        np.testing.assert_allclose(materialize_controlled([I2, X]), cnot,
                                   atol=1e-15)

    def test_four_branch_block_diagonal(self):
        cu = materialize_controlled([I2, X, Z, X @ Z])
        assert cu.shape == (8, 8)
        np.testing.assert_allclose(cu.conj().T @ cu, np.eye(8), atol=1e-12)
        np.testing.assert_allclose(cu[2:4, 2:4], X, atol=1e-15)
        np.testing.assert_allclose(cu[6:8, 6:8], X @ Z, atol=1e-15)

    def test_identical_branches_factorize(self):
        """All-equal branches give I_k (x) U."""
        rng = np.random.default_rng(11)
        for k in (2, 3, 5):
            u = haar_unitary(2, rng)
            np.testing.assert_allclose(materialize_controlled([u] * k),
                                       tensor(np.eye(k), u), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            materialize_controlled([I2, np.eye(3)])


class TestApplyChannel:
    def test_identity_channel(self):
        rng = np.random.default_rng(12)
        rho = projector(haar_state(4, rng))
        np.testing.assert_allclose(apply_channel(rho, [np.eye(4)]), rho,
                                   atol=1e-15)

    def test_full_dephasing_kills_coherence(self):
        """p = 1/2 under {sqrt(1-p) I, sqrt(p) Z}: off-diagonals scale by 1-2p = 0."""
        plus = projector(plus_state(2))
        kraus = [np.sqrt(0.5) * I2, np.sqrt(0.5) * Z]
        np.testing.assert_allclose(apply_channel(plus, kraus), np.eye(2) / 2,
                                   atol=1e-15)

    def test_depolarizing_fixed_point(self):
        p = 0.3
        kraus = [np.sqrt(1 - 3 * p / 4) * I2, np.sqrt(p / 4) * X,
                 np.sqrt(p / 4) * (X @ Z), np.sqrt(p / 4) * Z]
        np.testing.assert_allclose(apply_channel(np.eye(2) / 2, kraus),
                                   np.eye(2) / 2, atol=1e-15)

    def test_preserves_trace_and_hermiticity(self):
        """100 random valid Kraus lists on dims up to 8."""
        rng = np.random.default_rng(13)
        from helpers import random_channel
        for trial in range(100):
            dim = int(rng.choice([2, 3, 4, 8]))
            kraus = random_channel(dim, int(rng.integers(1, 4)), rng)
            rho = projector(haar_state(dim, rng))
            out = apply_channel(rho, kraus)
            assert abs(np.trace(out) - 1.0) < 1e-10
            assert np.max(np.abs(out - out.conj().T)) < 1e-10

    def test_rejects_non_trace_preserving(self):
        with pytest.raises(ValueError):
            apply_channel(np.eye(2) / 2, [0.5 * I2])


class TestPovmExpectation:
    def test_projector_on_own_state(self):
        rng = np.random.default_rng(14)
        psi = projector(haar_state(3, rng))
        assert povm_expectation(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_state(self):
        assert povm_expectation(np.eye(2) / 2, projector([1, 0])) == \
            pytest.approx(0.5, abs=1e-14)

    def test_initial_state_survival(self):
        """Return effect on the untouched initial state gives 1."""
        psi = np.kron(plus_state(4), [1, 0])
        rho = projector(psi)
        assert povm_expectation(rho, projector(psi)) == pytest.approx(1.0, abs=1e-12)

    def test_identity_effect_is_one(self):
        rng = np.random.default_rng(15)
        for dim in (2, 4):
            rho = projector(haar_state(dim, rng))
            assert povm_expectation(rho, np.eye(dim)) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_bad_effect(self):
        with pytest.raises(ValueError):
            povm_expectation(np.eye(2) / 2, 2.0 * np.eye(2))


class TestStateChecks:
    def test_valid_density(self):
        check_density_matrix(np.eye(4) / 4)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            check_density_matrix(np.eye(2))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            check_density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_partial_trace_of_product(self):
        rng = np.random.default_rng(16)
        sigma = projector(haar_state(3, rng))
        joint = tensor(np.eye(4) / 4, sigma)
        np.testing.assert_allclose(partial_trace_control(joint, 4), sigma,
                                   atol=1e-12)


class TestCheckBytes:
    def test_admits_the_budget_and_refuses_one_byte_more(self):
        """The budget is Pauli(2, 6)'s stack, 16 * 64^4 bytes; a refusal is
        a ValueError that names the need, what holds it and the budget."""
        assert ARRAY_BUDGET_BYTES == 16 * 64 ** 4 == 268435456
        check_bytes(ARRAY_BUDGET_BYTES, ARRAY_BUDGET_BYTES, "x", "(y)")
        with pytest.raises(DimensionError, match=r"^the thing needs 268435457 bytes \(its "
                                                  r"array\); the budget is 268435456 "
                                                  r"bytes$"):
            check_bytes(ARRAY_BUDGET_BYTES + 1, ARRAY_BUDGET_BYTES, "the thing",
                        "(its array)")
        assert issubclass(DimensionError, ValueError)

    @pytest.mark.parametrize("needed,text", [
        (2 ** 64 - 1, "18446744073709551615"),
        (2 ** 64, "about 2^64"),
        (16 * 3 ** 200, f"about 2^{round(4 + 200 * math.log2(3))}"),
        (16 * 10 ** 3200, "about 2^10634"),
        (math.inf, "more than 2^1024"),
    ], ids=["2^64-1", "2^64", "16*3^200", "16*10^3200", "inf"])
    def test_a_need_too_long_to_print_is_a_power_of_two(self, needed, text):
        with pytest.raises(DimensionError, match=rf"^x needs {re.escape(text)} bytes \(y\)"):
            check_bytes(needed, 1, "x", "(y)")


class TestStructuralChecks:
    """A NaN defect compares False against any tolerance, so a check that
    asks `defect > tol` would let it through. An infinite entry makes the
    defect NaN (inf * 0), with numpy's invalid-value warning."""

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_is_not_unitary(self, bad):
        u = I2.copy()
        u[0, 0] = bad
        with pytest.raises(ValueError, match="not unitary"):
            assert_unitary(u)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_kraus_list_is_refused(self, bad):
        k = np.sqrt(0.5) * I2
        k[1, 1] = bad
        with pytest.raises(ValueError, match="not trace preserving"):
            check_kraus([k, np.sqrt(0.5) * Z])
