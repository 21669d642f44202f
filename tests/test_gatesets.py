"""Gate-set families, the twirl-annihilation condition, inverses, specs."""

import functools

import numpy as np
import pytest

from corb import gatesets
from corb.gatesets import (
    GateSet,
    _clifford_generators,
    build_clifford_set,
    build_controlled_set,
    build_custom_set,
    build_dressed_set,
    build_ms_dressed_set,
    build_pauli_set,
    build_two_control_set,
    check_condition,
    ms_gate,
    parse_set_spec,
    set_spec_dims,
)
from corb.linalg import DimensionError, unitarity_defect
from corb.paulis import pauli_basis
from helpers import (
    check_condition_per_label,
    closure_mod_phase,
    controlled_paulis,
    haar_unitary,
    normalizer_residual,
    phase_fingerprint,
    sequence_inverse,
    shuffled_coset,
    write_matrices,
)

I2 = np.eye(2, dtype=complex)
Z, X = pauli_basis(2, 1)[1:3]  # rows x D + z = 1 and 2
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S = np.diag([1, 1j]).astype(complex)


class TestPauliFamily:
    @pytest.mark.parametrize("d,n,count", [(2, 1, 4), (2, 2, 16), (3, 1, 9)])
    def test_counts(self, d, n, count):
        assert len(build_pauli_set(d, n)) == count

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 1)])
    def test_condition_passes(self, d, n):
        assert check_condition(build_pauli_set(d, n)).passed

    def test_qubit_elements(self):
        mats = build_pauli_set(2, 1).elements
        np.testing.assert_allclose(mats[0], I2, atol=1e-15)
        np.testing.assert_allclose(mats[1], Z, atol=1e-15)
        np.testing.assert_allclose(mats[2], X, atol=1e-15)
        np.testing.assert_allclose(mats[3], X @ Z, atol=1e-15)


class TestCliffordFamily:
    def test_single_qubit_count(self):
        assert len(build_clifford_set(2, 1)) == 24

    def test_single_qutrit_count(self):
        assert len(build_clifford_set(3, 1)) == 216

    @pytest.mark.parametrize("d,n", [(2, 1), (3, 1)])
    def test_condition_passes(self, d, n):
        assert check_condition(build_clifford_set(d, n)).passed

    @pytest.mark.parametrize("d,n", [(2, 1), (3, 1)])
    def test_normalizer_property(self, d, n):
        assert normalizer_residual(build_clifford_set(d, n)) <= 1e-10

    def test_unsupported_dimensions_rejected(self):
        with pytest.raises(ValueError):
            build_clifford_set(5, 1)


class TestControlledFamily:
    def test_count_and_condition(self):
        cs = build_controlled_set(2)
        assert len(cs) == 64
        assert check_condition(cs).passed

    def test_contains_cnot(self):
        """The element with trivial dressing and branches (I, X)."""
        cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                         [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
        cs = build_controlled_set(2)
        assert any(np.max(np.abs(e - cnot)) < 1e-12 for e in cs.elements)

    def test_two_control_family(self):
        tc = build_two_control_set()
        assert len(tc) == 4 * 4 * 4 ** 4
        assert tc.dim == 8
        assert check_condition(tc).passed

    def test_two_control_order(self):
        """Element 256 c + 64 t_0 + 16 t_1 + 4 t_2 + t_3 is
        (P_c (x) I) sum_b |b><b| (x) P_{t_b}, with P_c the c-th two-qubit
        Pauli and P_t the t-th qubit Pauli: sequence draws index into the
        stack, so the order is part of the set."""
        tc = build_two_control_set()
        controls = pauli_basis(2, 2)
        targets = pauli_basis(2, 1)
        projectors = [np.diag(row) for row in np.eye(4)]
        for index in (0, 1, 77, 1234, 2730, 4095):
            c, rest = divmod(index, 256)
            digits = (rest // 64, rest // 16 % 4, rest // 4 % 4, rest % 4)
            branches = sum(np.kron(projectors[b], targets[t]) for b, t in enumerate(digits))
            expected = np.kron(controls[c], np.eye(2)) @ branches
            assert np.max(np.abs(tc.elements[index] - expected)) < 1e-12, index


class TestBatchedBuilders:
    """The closure and the controlled builders form each family as one
    stack; the builders of `helpers` that form one product at a time are
    their oracles, byte for byte and in order, since sequence draws index
    into the stack."""

    @pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (2, 2)])
    def test_clifford_closure_matches_the_per_product_oracle(self, d, n):
        built = build_clifford_set(d, n).elements
        oracle = closure_mod_phase(list(_clifford_generators(d, n)))
        assert built.shape == oracle.shape and built.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("build,controls,d", [
        (functools.partial(build_controlled_set, 2), 1, 2),
        (functools.partial(build_controlled_set, 3), 1, 3),
        (build_two_control_set, 2, 2),
    ], ids=["controlled-2", "controlled-3", "two-control"])
    def test_controlled_stack_matches_the_per_block_oracle(self, build, controls, d):
        built, oracle = build().elements, controlled_paulis(controls, d)
        assert built.shape == oracle.shape and built.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("build", [
        functools.partial(build_pauli_set, 2, 2),
        functools.partial(build_clifford_set, 2, 1),
        functools.partial(build_controlled_set, 2),
        build_two_control_set,
        functools.partial(build_ms_dressed_set, 2, 0.3),
        functools.partial(build_dressed_set, H, 2, 1),
    ], ids=["pauli", "clifford", "controlled", "two-control", "ms", "dressed"])
    def test_no_builder_stack_is_copied(self, build, monkeypatch):
        """Every builder hands GateSet a read-only stack, which it keeps:
        no set's elements are the output of an `np.stack` call, as the
        copy that GateSet makes of a writable stack is."""
        outputs = []
        real_stack = np.stack

        def stack(*args, **kwargs):
            outputs.append(real_stack(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(np, "stack", stack)
        elements = build().elements
        assert not elements.flags.writeable
        assert not any(out is elements for out in outputs)

    def test_product_cap_is_exact(self, monkeypatch):
        """Clifford(2, 1) takes 2 x 24 products, one per generator and
        element: a cap of 48 admits it, one of 47 refuses it."""
        monkeypatch.setattr(gatesets, "CLOSURE_PRODUCT_CAP", 48)
        assert len(build_clifford_set(2, 1)) == 24
        monkeypatch.setattr(gatesets, "CLOSURE_PRODUCT_CAP", 47)
        with pytest.raises(RuntimeError, match="^closure exceeded the product cap of 47$"):
            build_clifford_set(2, 1)

    def test_controlled_bound_in_bytes_before_any_array(self, monkeypatch):
        """The controlled stack holds 4 d^4 matrices of (2d)^2 entries,
        256 d^6 bytes: d = 10 is within the 268435456 bytes of Pauli(2, 6),
        and d = 11 is refused, naming d and the bytes, before the first
        array (the target Paulis) is built."""
        class Built(Exception):
            pass

        def built(*args):
            raise Built

        monkeypatch.setattr(gatesets, "pauli_basis", built)
        with pytest.raises(Built):
            build_controlled_set(10)
        with pytest.raises(DimensionError, match=r"^the controlled set at d=11 needs "
                                                  r"453519616 bytes \(4 d\^4 complex128 "
                                                  r"matrices of dimension 2d\); the budget "
                                                  r"is 268435456 bytes$"):
            build_controlled_set(11)


class TestMsFamily:
    def test_zero_angle_reduces_to_paulis(self):
        ms = build_ms_dressed_set(2, 0.0)
        pauli = build_pauli_set(2, 2)
        for a, b in zip(ms.elements, pauli.elements):
            np.testing.assert_allclose(a, b, atol=1e-14)

    @pytest.mark.parametrize("theta", [np.pi / 4, np.pi / 7, 1.234])
    def test_condition_any_angle(self, theta):
        report = check_condition(build_ms_dressed_set(2, theta))
        assert report.passed

    def test_entangler_against_direct_exponential(self):
        """Product formula vs cos/sin expansion of exp(i theta X X)."""
        theta = 0.37
        xx = np.kron(X, X)
        expected = np.cos(theta) * np.eye(4) + 1j * np.sin(theta) * xx
        np.testing.assert_allclose(ms_gate(2, theta), expected, atol=1e-14)

    def test_three_qubit_entangler_unitary(self):
        assert unitarity_defect(ms_gate(3, 0.81)) <= 1e-12


class TestDressedFamily:
    def test_identity_dressing_is_pauli_set(self):
        ds = build_dressed_set(np.eye(2), 2, 1)
        pauli = build_pauli_set(2, 1)
        for a, b in zip(ds.elements, pauli.elements):
            np.testing.assert_allclose(a, b, atol=1e-15)

    def test_hadamard_dressing(self):
        ds = build_dressed_set(H, 2, 1)
        assert len(ds) == 4
        expected = [H, Z @ H, X @ H, X @ Z @ H]
        for a, b in zip(ds.elements, expected):
            np.testing.assert_allclose(a, b, atol=1e-14)
        assert check_condition(ds).passed

    def test_size_is_compared_before_unitarity_and_without_the_power(self):
        """U's size is compared with d^n first: a non-unitary U of the wrong
        size is refused for its size, and n = 10^7 (which took seconds to
        form 3^n) is refused at once, with d^n written as a power."""
        with pytest.raises(ValueError, match=r"^unitary dimension 2 != 3\^1$"):
            build_dressed_set(2 * np.eye(2), 3, 1)
        with pytest.raises(ValueError, match=r"^unitary dimension 2 != 3\^10000000$"):
            build_dressed_set(np.eye(2), 3, 10 ** 7)

    def test_random_haar_dressings_pass(self):
        rng = np.random.default_rng(31)
        for _ in range(3):
            report = check_condition(build_dressed_set(haar_unitary(2, rng), 2, 1))
            assert report.passed
            report = check_condition(build_dressed_set(haar_unitary(4, rng), 2, 2))
            assert report.worst_residual <= 1e-9

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            build_dressed_set(np.ones((2, 2)), 2, 1)


class TestDressing:
    """A set of D^2 elements whose products U_i U_0^dag are phases times
    distinct Weyl operators records R = U_0 as its dressing, whatever
    family built it; every other set records None."""

    def test_builders_record_their_dressing(self):
        u = haar_unitary(4, np.random.default_rng(8))
        cases = [(build_pauli_set(3, 1), np.eye(3)), (build_pauli_set(2, 2), np.eye(4)),
                 (build_ms_dressed_set(2, 0.4), ms_gate(2, 0.4)),
                 (build_dressed_set(u, 2, 2), u),
                 (build_custom_set(build_pauli_set(2, 1).elements), I2)]
        for gate_set, right in cases:
            np.testing.assert_allclose(gate_set.dressing, right, rtol=0, atol=1e-15)
            assert not gate_set.dressing.flags.writeable
        for gate_set in (build_clifford_set(2, 1), build_controlled_set(2),
                         build_custom_set([I2, Z, X, H])):
            assert gate_set.dressing is None

    @pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
    def test_a_coset_in_any_order_and_phase(self, d, n):
        """{c_i P_pi(i) U} for a random permutation pi, random phases c_i
        and a Haar-random U records its first element."""
        gate_set = shuffled_coset(d, n, np.random.default_rng(10 * d + n))
        assert gate_set.family == "custom"
        np.testing.assert_array_equal(gate_set.dressing, gate_set.elements[0])

    @pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (2, 3)])
    def test_a_custom_coset_keeps_its_split(self, d, n):
        """A matrix file holds one D x D stack; a Pauli coset of n qudits
        in it is read back on its own split d^n = D, with its dressing."""
        coset = shuffled_coset(d, n, np.random.default_rng(20 + d + n))
        for elements in (build_pauli_set(d, n).elements, coset.elements):
            gate_set = build_custom_set(elements)
            assert (gate_set.d, gate_set.n) == (d, n)
            np.testing.assert_array_equal(gate_set.dressing, elements[0])

    def test_a_custom_set_that_is_no_coset_stays_one_qudit(self):
        """No split of D = 4 makes these sets cosets, and the ququart
        Weyl group is no two-qubit coset, so each keeps (D, 1)."""
        pauli = build_pauli_set(2, 2).elements
        cases = [(build_clifford_set(2, 2).elements, None),
                 ([*pauli[:15], np.kron(H, I2) @ pauli[15]], None),
                 (build_pauli_set(4, 1).elements, np.eye(4))]
        for elements, dressing in cases:
            gate_set = build_custom_set(elements)
            assert (gate_set.d, gate_set.n) == (4, 1)
            if dressing is None:
                assert gate_set.dressing is None
            else:
                np.testing.assert_array_equal(gate_set.dressing, dressing)

    @pytest.mark.parametrize("case", ["left-factor", "too-few", "repeated-element",
                                      "monomial", "perturbed"])
    def test_a_set_that_is_not_dressed_records_none(self, case):
        """The dressed set of H with a part replaced: elements g P_i H for
        a Haar-random g, three of its elements, its first element again
        (times i) in place of the last, S H in place of the last (S U_0^dag
        is a phase matrix but no phase times a Weyl operator), or the last
        turned by an angle of 1e-6, past TOL.structural."""
        elements = build_dressed_set(H, 2, 1).elements
        g = haar_unitary(2, np.random.default_rng(9))
        turn = np.cos(1e-6) * I2 + 1j * np.sin(1e-6) * X
        elements = {
            "left-factor": g @ elements,
            "too-few": elements[:3],
            "repeated-element": [*elements[:3], 1j * elements[0]],
            "monomial": [*elements[:3], S @ H],
            "perturbed": [*elements[:3], turn @ elements[3]],
        }[case]
        assert GateSet(2, 1, "dressed", elements).dressing is None

    @pytest.mark.parametrize("case", ["coset", "perturbed-last", "repeated-last"])
    def test_decided_in_chunks_as_at_once(self, case, monkeypatch):
        """The products U_i U_0^dag are decoded in chunks of rows. With one
        row per chunk, a shuffled, phased coset records its first element,
        and the same coset with only its last row spoiled, turned by an
        angle of 1e-6 or replaced by i U_0 (a repeated code, which no
        chunk sees alone), records None, as with one chunk for the set."""
        coset = shuffled_coset(2, 2, np.random.default_rng(5)).elements
        turn = np.cos(1e-6) * np.eye(4) + 1j * np.sin(1e-6) * np.kron(X, I2)
        last = {"coset": coset[-1], "perturbed-last": turn @ coset[-1],
                "repeated-last": 1j * coset[0]}[case]
        elements = [*coset[:-1], last]
        row = 16 * 4 * 4
        assert gatesets._DRESSING_CHUNK_BYTES >= len(coset) * row
        decisions = []
        for chunk_bytes in (gatesets._DRESSING_CHUNK_BYTES, row):
            monkeypatch.setattr(gatesets, "_DRESSING_CHUNK_BYTES", chunk_bytes)
            decisions.append(GateSet(2, 2, "custom", elements).dressing)
        for dressing in decisions:
            if case == "coset":
                np.testing.assert_array_equal(dressing, coset[0])
            else:
                assert dressing is None


class TestConditionChecker:
    def test_i_z_counterexample(self):
        """sum over {I, Z} of U† Z U = 2Z: residual 2 at the Z label."""
        report = check_condition(build_custom_set([I2, Z]))
        assert not report.passed
        assert report.worst_residual == pytest.approx(2.0, abs=1e-12)
        assert report.worst_label == "x:0;z:1"

    def test_tolerance_default_scales_with_size(self):
        report = check_condition(build_pauli_set(2, 1))
        assert report.tolerance == pytest.approx(4e-8)

    def test_label_cap_refuses_large_targets(self):
        """D = 128 has 16384 Pauli labels, a 4 GiB basis, past the array
        budget of Pauli(2, 6)."""
        gate_set = GateSet(2, 7, "custom", (np.eye(128),))
        with pytest.raises(DimensionError, match="d=2, n=7 needs 4294967296 bytes"):
            check_condition(gate_set)

    def test_random_singletons_fail(self):
        """Haar singletons cannot annihilate the traceless basis."""
        rng = np.random.default_rng(32)
        for _ in range(20):
            report = check_condition(build_custom_set([haar_unitary(2, rng)]))
            assert not report.passed
            assert report.worst_residual > 0.1


def _haar_set(dim: int, count: int, seed: int, d: int, n: int):
    rng = np.random.default_rng(seed)
    return GateSet(d, n, "custom", tuple(haar_unitary(dim, rng) for _ in range(count)))


def _haar_singleton(i: int):
    """The i-th Haar singleton of test_random_singletons_fail (seed 32)."""
    rng = np.random.default_rng(32)
    for _ in range(i + 1):
        u = haar_unitary(2, rng)
    return build_custom_set([u])


ORACLE_SETS = {
    "pauli(2,1)": lambda: build_pauli_set(2, 1),
    "pauli(3,1)": lambda: build_pauli_set(3, 1),
    "pauli(2,2)": lambda: build_pauli_set(2, 2),
    "clifford(2,1)": lambda: build_clifford_set(2, 1),
    "clifford(3,1)": lambda: build_clifford_set(3, 1),
    "clifford(2,2)": lambda: build_clifford_set(2, 2),
    "controlled d=2": lambda: build_controlled_set(2),
    "controlled d=3": lambda: build_controlled_set(3),
    "two-control": build_two_control_set,
    "ms(2,pi/4)": lambda: build_ms_dressed_set(2, np.pi / 4),
    "{I, Z}": lambda: build_custom_set([I2, Z]),
    "haar qubit": lambda: _haar_set(2, 1, 7, 2, 1),
    "three haar 2-qubit": lambda: _haar_set(4, 3, 8, 2, 2),
    **{f"haar singleton #{i}": functools.partial(_haar_singleton, i)
       for i in range(20)},
}


class TestConditionOracle:
    """The one-product checker against the per-label loop it replaced."""

    @pytest.mark.parametrize("name", list(ORACLE_SETS))
    def test_matches_per_label_loop(self, name):
        gate_set = ORACLE_SETS[name]()
        report = check_condition(gate_set)
        oracle = check_condition_per_label(gate_set)
        assert report.passed == oracle.passed
        assert report.tolerance == oracle.tolerance
        if not oracle.passed:
            assert report.worst_label == oracle.worst_label
            assert report.worst_residual == pytest.approx(oracle.worst_residual,
                                                          abs=1e-12)


class TestSequenceInverse:
    def test_self_inverse_gate(self):
        ps = build_pauli_set(2, 1)
        np.testing.assert_allclose(sequence_inverse([2], ps), X, atol=1e-14)

    def test_s_squared_round_trip(self):
        cs = build_custom_set([S])
        inv = sequence_inverse([0, 0], cs)
        np.testing.assert_allclose(inv @ (S @ S), I2, atol=1e-13)

    def test_random_clifford_round_trip(self):
        cl = build_clifford_set(2, 1)
        rng = np.random.default_rng(33)
        seq = [int(i) for i in rng.integers(0, 24, 10)]
        product = np.eye(2, dtype=complex)
        for idx in seq:
            product = cl.elements[idx] @ product
        np.testing.assert_allclose(sequence_inverse(seq, cl) @ product, I2,
                                   atol=1e-11)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            sequence_inverse([], build_pauli_set(2, 1))

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            sequence_inverse([5], build_pauli_set(2, 1))


class TestSetSpecs:
    def test_pauli_spec(self):
        assert len(parse_set_spec("pauli:d=3,n=1")) == 9

    def test_clifford_spec(self):
        assert len(parse_set_spec("clifford:d=2,n=1")) == 24

    def test_controlled_spec(self):
        assert len(parse_set_spec("controlled:d=2")) == 64

    def test_ms_spec(self):
        gs = parse_set_spec("ms:n=2,theta=0.7853981634")
        assert len(gs) == 16

    def test_dressed_spec_from_file(self, tmp_path):
        path = tmp_path / "u.mat"
        write_matrices(str(path), [H])
        gs = parse_set_spec(f"dressed:d=2,n=1,u={path}")
        assert len(gs) == 4
        np.testing.assert_allclose(gs.elements[0], H, atol=1e-14)

    def test_custom_spec_from_file(self, tmp_path):
        path = tmp_path / "set.mat"
        write_matrices(str(path), [I2, Z])
        gs = parse_set_spec(f"custom:{path}")
        assert len(gs) == 2
        assert not check_condition(gs).passed

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            parse_set_spec("sporadic:d=2")

    def test_missing_key(self):
        with pytest.raises(ValueError):
            parse_set_spec("pauli:d=2")

    @pytest.mark.parametrize("spec,key", [
        ("pauli:d=2", "n"), ("clifford:n=1", "d"), ("dressed:d=2", "n"),
        ("controlled:", "d"), ("ms:theta=0.7", "n"),
    ])
    def test_dims_missing_key_names_spec_and_key(self, spec, key):
        with pytest.raises(ValueError,
                           match=rf"set spec '{spec}' is missing key '{key}'"):
            set_spec_dims(spec)

    def test_dims_are_bounded_like_the_builders(self):
        """(d, n) past one D x D complex128 element of ARRAY_BUDGET_BYTES is
        refused as a spec, before d^n is formed; D = 4096 is the largest
        admitted."""
        assert set_spec_dims("pauli:d=2,n=12") == (2, 12)
        with pytest.raises(ValueError, match=r"^set spec 'pauli:d=2,n=13': an element of a "
                                             r"set of d=2, n=13 needs 1073741824 bytes "
                                             r"\(a d\^n x d\^n complex128 matrix\); the "
                                             r"budget is 268435456 bytes$"):
            set_spec_dims("pauli:d=2,n=13")
        for spec in ("pauli:d=3,n=10000000", f"controlled:d={10 ** 800}",
                     f"ms:n={10 ** 400},theta=0.1"):
            with pytest.raises(ValueError, match=r"needs more than 2\^1024 bytes"):
                set_spec_dims(spec)


class TestGateSetInvariants:
    def test_elements_read_only(self):
        gs = build_pauli_set(2, 1)
        with pytest.raises(ValueError):
            gs.elements[0][0, 0] = 5.0

    def test_sets_hash_and_compare_by_identity(self):
        a, b = build_pauli_set(2, 1), build_pauli_set(2, 1)
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_rejects_an_empty_custom_set(self):
        with pytest.raises(ValueError, match="^gate set must contain at least one element$"):
            build_custom_set([])

    @pytest.mark.parametrize("build", [lambda: build_pauli_set(1, 1),
                                       lambda: build_custom_set([np.eye(1)])],
                             ids=["pauli", "custom"])
    def test_rejects_a_one_dimensional_set(self, build):
        with pytest.raises(ValueError,
                           match=r"^a gate set's qudit dimension must be >= 2, got d = 1$"):
            build()

    def test_rejects_a_zero_qudit_count(self):
        """A set of no qudits, on dimension d^0 = 1, was once accepted."""
        with pytest.raises(ValueError, match=r"^a gate set's qudit count must be >= 1, "
                                             r"got n = 0$"):
            GateSet(2, 0, "custom", (np.eye(1),))

    def test_rejects_non_unitary_element(self):
        with pytest.raises(ValueError):
            build_custom_set([np.ones((2, 2))])

    def test_no_phase_duplicates_in_clifford(self):
        cl = build_clifford_set(2, 1)
        prints = {phase_fingerprint(e) for e in cl.elements}
        assert len(prints) == len(cl)

    def test_keeps_a_read_only_stack_and_copies_the_rest(self):
        """A read-only complex128 stack, as the cached `pauli_basis` is, is
        kept as given; a writable array or a sequence is copied and frozen."""
        assert np.shares_memory(build_pauli_set(2, 1).elements, pauli_basis(2, 1))
        writable = np.array(pauli_basis(2, 1))
        for given in (writable, list(writable)):
            gs = GateSet(2, 1, "custom", given)
            assert not np.shares_memory(gs.elements, writable)
            assert not gs.elements.flags.writeable
            assert np.array_equal(gs.elements, writable)
