"""Generalized Pauli words, symplectic products, character sums."""

import numpy as np
import pytest

from corb.paulis import (
    PauliLabel,
    enumerate_paulis,
    format_label,
    pauli_matrix,
)
from corb.linalg import unitarity_defect
from helpers import (
    character_sum,
    is_identity,
    parse_label,
    symplectic_product,
    zero_label,
)


def reference_word(d, x_exps, z_exps):
    """Independent construction straight from the defining action:
    X^r |s> = |s+r mod d>, Z^r |s> = w^{rs} |s>, X applied after Z."""
    w = np.exp(2j * np.pi / d)
    out = np.array([[1.0]], dtype=complex)
    for x, z in zip(x_exps, z_exps):
        xm = np.zeros((d, d), dtype=complex)
        for s in range(d):
            xm[(s + x) % d, s] = 1.0
        zm = np.diag([w ** (z * s) for s in range(d)])
        out = np.kron(out, xm @ zm)
    return out


class TestPauliMatrix:
    def test_identity(self):
        np.testing.assert_allclose(pauli_matrix(zero_label(2, 1)), np.eye(2),
                                   atol=1e-15)

    def test_bit_flip(self):
        np.testing.assert_allclose(pauli_matrix(PauliLabel(2, 1, (1,), (0,))),
                                   [[0, 1], [1, 0]], atol=1e-15)

    def test_qutrit_xz(self):
        """3x3 expansion: XZ with Z = diag(1, w, w^2) and X the cyclic shift."""
        w = np.exp(2j * np.pi / 3)
        expected = np.zeros((3, 3), dtype=complex)
        expected[1, 0], expected[2, 1], expected[0, 2] = 1, w, w ** 2
        np.testing.assert_allclose(pauli_matrix(PauliLabel(3, 1, (1,), (1,))),
                                   expected, atol=1e-14)

    def test_matches_reference_construction(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            d = int(rng.choice([2, 3, 5]))
            n = int(rng.integers(1, 3))
            x = tuple(int(v) for v in rng.integers(0, d, n))
            z = tuple(int(v) for v in rng.integers(0, d, n))
            np.testing.assert_allclose(pauli_matrix(PauliLabel(d, n, x, z)),
                                       reference_word(d, x, z), atol=1e-13)

    def test_all_words_unitary(self):
        for d, n in ((2, 2), (3, 1), (5, 1)):
            for label in enumerate_paulis(d, n):
                assert unitarity_defect(pauli_matrix(label)) <= 1e-10


class TestSymplecticProduct:
    def test_x_z_anticommute(self):
        x = PauliLabel(2, 1, (1,), (0,))
        z = PauliLabel(2, 1, (0,), (1,))
        assert symplectic_product(x, z) == 1

    def test_self_product_vanishes(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            d = int(rng.choice([2, 3, 5]))
            a = PauliLabel(d, 2, tuple(rng.integers(0, d, 2)),
                           tuple(rng.integers(0, d, 2)))
            assert symplectic_product(a, a) == 0

    def test_qutrit_arithmetic(self):
        """(1,0; 0,2) vs (0,1; 1,0): 1*1 + 0*0 - (0*0 + 2*1) = -1 = 2 mod 3."""
        a = PauliLabel(3, 2, (1, 0), (0, 2))
        b = PauliLabel(3, 2, (0, 1), (1, 0))
        assert symplectic_product(a, b) == 2

    def test_commutation_law(self):
        """P_a P_b = w^{(b,a)_Sp} P_b P_a over 200 random label pairs.

        The X-after-Z word order fixes the argument order of the pairing;
        hand derivation: X^{ax}Z^{az} X^{bx}Z^{bz} = w^{az.bx} X^{ax+bx}Z^{az+bz}.
        """
        rng = np.random.default_rng(23)
        for _ in range(200):
            d = int(rng.choice([2, 3, 5]))
            n = int(rng.integers(1, 3))
            a = PauliLabel(d, n, tuple(rng.integers(0, d, n)),
                           tuple(rng.integers(0, d, n)))
            b = PauliLabel(d, n, tuple(rng.integers(0, d, n)),
                           tuple(rng.integers(0, d, n)))
            pa, pb = pauli_matrix(a), pauli_matrix(b)
            phase = np.exp(2j * np.pi / d) ** symplectic_product(b, a)
            np.testing.assert_allclose(pa @ pb, phase * (pb @ pa), atol=1e-10)

    def test_qubit_commutation_sign_free(self):
        """For d = 2 both argument orders give the same phase."""
        for a in enumerate_paulis(2, 2):
            for b in enumerate_paulis(2, 2):
                assert symplectic_product(a, b) == symplectic_product(b, a)

    def test_system_mismatch(self):
        with pytest.raises(ValueError):
            symplectic_product(zero_label(2, 1), zero_label(3, 1))


class TestEnumeration:
    @pytest.mark.parametrize("d,n,count", [(2, 1, 4), (3, 1, 9), (2, 2, 16)])
    def test_counts(self, d, n, count):
        assert len(enumerate_paulis(d, n)) == count

    def test_qubit_order_is_i_z_x_xz(self):
        mats = [pauli_matrix(l) for l in enumerate_paulis(2, 1)]
        np.testing.assert_allclose(mats[0], np.eye(2), atol=1e-15)
        np.testing.assert_allclose(mats[1], [[1, 0], [0, -1]], atol=1e-15)
        np.testing.assert_allclose(mats[2], [[0, 1], [1, 0]], atol=1e-15)
        np.testing.assert_allclose(mats[3], [[0, -1], [1, 0]], atol=1e-15)

    def test_zero_label_first(self):
        for d, n in ((2, 2), (3, 1)):
            assert is_identity(enumerate_paulis(d, n)[0])

    def test_cap(self):
        with pytest.raises(ValueError):
            enumerate_paulis(2, 12)


class TestCharacterSum:
    def test_identity_label(self):
        assert character_sum(zero_label(2, 1)) == pytest.approx(4)
        assert character_sum(zero_label(3, 2)) == pytest.approx(81)

    def test_x_label_vanishes(self):
        q = PauliLabel(2, 1, (1,), (0,))
        assert abs(character_sum(q)) <= 1e-10

    def test_all_nonzero_labels_vanish(self):
        for d, n in ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2)):
            for q in enumerate_paulis(d, n)[1:]:
                assert abs(character_sum(q)) <= 1e-10


class TestTwirlToZero:
    def test_pauli_conjugation_sum_annihilates(self):
        """sum_i P_i† P_j P_i = 0 entrywise for every nonzero label j."""
        for d, n in ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2)):
            labels = enumerate_paulis(d, n)
            mats = [pauli_matrix(l) for l in labels]
            for j, pj in zip(labels, mats):
                if is_identity(j):
                    continue
                total = sum(p.conj().T @ pj @ p for p in mats)
                assert np.max(np.abs(total)) <= 1e-9


class TestLabelText:
    def test_round_trip(self):
        label = PauliLabel(3, 2, (1, 0), (0, 2))
        assert parse_label(format_label(label), 3, 2) == label

    def test_format(self):
        assert format_label(PauliLabel(2, 2, (1, 0), (0, 1))) == "x:1,0;z:0,1"

    def test_reduction_mod_d(self):
        assert PauliLabel(3, 1, (4,), (-1,)) == PauliLabel(3, 1, (1,), (2,))

    def test_bad_text(self):
        with pytest.raises(ValueError):
            parse_label("y:1;z:0", 2, 1)
