"""Generalized Pauli words, the Weyl index, symplectic products, character sums."""

import gc
import re
import weakref

import numpy as np
import pytest

from corb import paulis
from corb.gatesets import build_pauli_set
from corb.paulis import format_label, pauli_basis
from corb.linalg import ARRAY_BUDGET_BYTES, DimensionError, unitarity_defect
from helpers import (
    character_sum,
    is_identity,
    parse_label,
    symplectic_product,
    weyl_label,
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


def row(d, x, z):
    """Row of `pauli_basis(d, n)` holding X^x Z^z, by the Weyl index."""
    n = len(x)
    value = lambda digits: sum(v * d ** (n - 1 - j) for j, v in enumerate(digits))
    return value(x) * d ** n + value(z)


def random_label(rng, d, n):
    return (tuple(int(v) for v in rng.integers(0, d, n)),
            tuple(int(v) for v in rng.integers(0, d, n)))


class TestPauliMatrix:
    def test_identity(self):
        np.testing.assert_allclose(pauli_basis(2, 1)[0], np.eye(2), atol=1e-15)

    def test_bit_flip(self):
        np.testing.assert_allclose(pauli_basis(2, 1)[row(2, (1,), (0,))],
                                   [[0, 1], [1, 0]], atol=1e-15)

    def test_qutrit_xz(self):
        """3x3 expansion: XZ with Z = diag(1, w, w^2) and X the cyclic shift."""
        w = np.exp(2j * np.pi / 3)
        expected = np.zeros((3, 3), dtype=complex)
        expected[1, 0], expected[2, 1], expected[0, 2] = 1, w, w ** 2
        np.testing.assert_allclose(pauli_basis(3, 1)[row(3, (1,), (1,))],
                                   expected, atol=1e-14)

    def test_matches_reference_construction(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            d = int(rng.choice([2, 3, 5]))
            n = int(rng.integers(1, 3))
            x, z = random_label(rng, d, n)
            np.testing.assert_allclose(pauli_basis(d, n)[row(d, x, z)],
                                       reference_word(d, x, z), atol=1e-13)

    def test_all_words_unitary(self):
        for d, n in ((2, 2), (3, 1), (5, 1)):
            for word in pauli_basis(d, n):
                assert unitarity_defect(word) <= 1e-10


class TestWeylIndex:
    """Row i = x D + z holds X^x Z^z, site 0 the leading digit; sequence
    draws, the dressing check and `check-set` reports index by this order."""

    CASES = ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2))

    @pytest.mark.parametrize("d,n", CASES)
    def test_rows_are_reference_words(self, d, n):
        basis = pauli_basis(d, n)
        for i in range(d ** (2 * n)):
            np.testing.assert_allclose(basis[i], reference_word(d, *weyl_label(d, n, i)),
                                       atol=1e-13)

    @pytest.mark.parametrize("d,n", CASES)
    def test_label_text_round_trip(self, d, n):
        for i in range(d ** (2 * n)):
            assert parse_label(format_label(d, n, i), n) == weyl_label(d, n, i)

    def test_read_only(self):
        with pytest.raises(ValueError):
            pauli_basis(2, 2)[0, 0, 0] = 0.0


class TestSymplecticProduct:
    def test_x_z_anticommute(self):
        assert symplectic_product(((1,), (0,)), ((0,), (1,)), 2) == 1

    def test_self_product_vanishes(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            d = int(rng.choice([2, 3, 5]))
            a = random_label(rng, d, 2)
            assert symplectic_product(a, a, d) == 0

    def test_qutrit_arithmetic(self):
        """(1,0; 0,2) vs (0,1; 1,0): 1*1 + 0*0 - (0*0 + 2*1) = -1 = 2 mod 3."""
        a = ((1, 0), (0, 2))
        b = ((0, 1), (1, 0))
        assert symplectic_product(a, b, 3) == 2

    def test_commutation_law(self):
        """P_a P_b = w^{(b,a)_Sp} P_b P_a over 200 random label pairs.

        The X-after-Z word order fixes the argument order of the pairing;
        hand derivation: X^{ax}Z^{az} X^{bx}Z^{bz} = w^{az.bx} X^{ax+bx}Z^{az+bz}.
        """
        rng = np.random.default_rng(23)
        for _ in range(200):
            d = int(rng.choice([2, 3, 5]))
            n = int(rng.integers(1, 3))
            a = random_label(rng, d, n)
            b = random_label(rng, d, n)
            pa, pb = pauli_basis(d, n)[row(d, *a)], pauli_basis(d, n)[row(d, *b)]
            phase = np.exp(2j * np.pi / d) ** symplectic_product(b, a, d)
            np.testing.assert_allclose(pa @ pb, phase * (pb @ pa), atol=1e-10)

    def test_qubit_commutation_sign_free(self):
        """For d = 2 both argument orders give the same phase."""
        labels = [weyl_label(2, 2, i) for i in range(16)]
        for a in labels:
            for b in labels:
                assert symplectic_product(a, b, 2) == symplectic_product(b, a, 2)

    def test_system_mismatch(self):
        with pytest.raises(ValueError):
            symplectic_product(zero_label(1), zero_label(2), 2)


class TestEnumeration:
    @pytest.mark.parametrize("d,n,count", [(2, 1, 4), (3, 1, 9), (2, 2, 16)])
    def test_counts(self, d, n, count):
        assert pauli_basis(d, n).shape == (count, d ** n, d ** n)

    def test_qubit_order_is_i_z_x_xz(self):
        mats = pauli_basis(2, 1)
        np.testing.assert_allclose(mats[0], np.eye(2), atol=1e-15)
        np.testing.assert_allclose(mats[1], [[1, 0], [0, -1]], atol=1e-15)
        np.testing.assert_allclose(mats[2], [[0, 1], [1, 0]], atol=1e-15)
        np.testing.assert_allclose(mats[3], [[0, -1], [1, 0]], atol=1e-15)

    def test_zero_label_first(self):
        for d, n in ((2, 2), (3, 1)):
            assert is_identity(weyl_label(d, n, 0))
            np.testing.assert_array_equal(pauli_basis(d, n)[0], np.eye(d ** n))

    def test_cap(self):
        with pytest.raises(DimensionError, match=r"^the Pauli basis of d=2, n=12 needs "
                                                  r"4503599627370496 bytes .*; the budget "
                                                  r"is 268435456 bytes$"):
            pauli_basis(2, 12)

    @pytest.mark.parametrize("d,n,fault", [
        (0, 1, "qudit dimension must be >= 2, got d = 0"),
        (1, 1, "qudit dimension must be >= 2, got d = 1"),
        (2, 0, "qudit count must be >= 1, got n = 0"),
        (2, -1, "qudit count must be >= 1, got n = -1"),
    ])
    def test_refuses_a_dimension_below_two_or_a_count_below_one(self, d, n, fault):
        """These once gave an empty or a 1 x 1 stack, or failed inside
        numpy's reshape, or with a TypeError."""
        with pytest.raises(ValueError, match=f"^a gate set's {fault}$"):
            pauli_basis(d, n)

    def test_byte_rule_admits_what_the_label_cap_admitted(self, monkeypatch):
        """16 d^(4n) bytes within the budget is d^(2n) <= 4096: the (d, n)
        of d <= 70, n <= 8 are each admitted or refused as the old cap of
        4096 labels did, read from the need each asks `check_bytes` about,
        with no basis built."""
        class Asked(Exception):
            pass

        def ask(needed, budget, what, arrays):
            assert budget == ARRAY_BUDGET_BYTES
            raise Asked(needed)

        monkeypatch.setattr(paulis, "_BASES", {})
        monkeypatch.setattr(paulis, "check_bytes", ask)
        for d in range(2, 71):
            for n in range(1, 9):
                with pytest.raises(Asked) as asked:
                    pauli_basis(d, n)
                assert asked.value.args[0] == 16 * d ** (4 * n)
                assert (asked.value.args[0] <= ARRAY_BUDGET_BYTES) == (d ** (2 * n) <= 4096)

    @pytest.mark.parametrize("d,n,count", [
        (2, 7, "4294967296"),
        (2, 7142, "more than 2^1024"),
        (2, 7143, "more than 2^1024"),
        (3, 10 ** 7, "more than 2^1024"),
        (2, 10 ** 6, "more than 2^1024"),
        (10 ** 800, 1, "more than 2^1024"),
        (2, 64, "about 2^260"),
    ], ids=["2,7", "2,7142", "2,7143", "3,10^7", "2,10^6", "10^800,1", "2,64"])
    def test_absurd_keys_are_refused_at_once(self, d, n, count):
        """Keys whose d^(2n) has thousands of digits are refused without
        forming it (d = 3, n = 10^7 took seconds), and the need is written
        so that it prints."""
        with pytest.raises(DimensionError, match=rf" needs {re.escape(count)} bytes "):
            pauli_basis(d, n)


class TestCache:
    def test_a_basis_lives_only_while_it_is_held(self):
        """A basis stays cached while something holds it, as a Pauli set
        holds its elements, and dies with its last reference. The weak
        reference is taken on Pauli(3, 2), which no test module holds at
        import, unlike Pauli(2, 3)."""
        gate_set = build_pauli_set(2, 3)
        assert pauli_basis(2, 3) is gate_set.elements
        basis = pauli_basis(3, 2)
        assert pauli_basis(3, 2) is basis
        dead = weakref.ref(basis)
        del basis
        gc.collect()
        assert dead() is None
        np.testing.assert_array_equal(pauli_basis(3, 2)[0], np.eye(9))


class TestCharacterSum:
    def test_identity_label(self):
        assert character_sum(zero_label(1), 2) == pytest.approx(4)
        assert character_sum(zero_label(2), 3) == pytest.approx(81)

    def test_x_label_vanishes(self):
        assert abs(character_sum(((1,), (0,)), 2)) <= 1e-10

    def test_all_nonzero_labels_vanish(self):
        for d, n in ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2)):
            for i in range(1, d ** (2 * n)):
                assert abs(character_sum(weyl_label(d, n, i), d)) <= 1e-10


class TestTwirlToZero:
    def test_pauli_conjugation_sum_annihilates(self):
        """sum_i P_i† P_j P_i = 0 entrywise for every nonzero label j."""
        for d, n in ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2)):
            mats = pauli_basis(d, n)
            for j, pj in enumerate(mats):
                if is_identity(weyl_label(d, n, j)):
                    continue
                total = sum(p.conj().T @ pj @ p for p in mats)
                assert np.max(np.abs(total)) <= 1e-9


class TestLabelText:
    def test_round_trip(self):
        i = row(3, (1, 0), (0, 2))
        assert parse_label(format_label(3, 2, i), 2) == ((1, 0), (0, 2))

    def test_format(self):
        assert format_label(2, 2, row(2, (1, 0), (0, 1))) == "x:1,0;z:0,1"

    def test_bad_text(self):
        with pytest.raises(ValueError):
            parse_label("y:1;z:0", 1)
