"""Acceptance suite: one test per criterion, stated tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. Every expected value is produced by an independent oracle
(closed-form arithmetic, chi-matrix composition, Monte Carlo sampling)
rather than by the code path under test.
"""

import math
import time

import numpy as np
import pytest

from corb.engine import RbRunConfig, run_coherent_full, run_coherent_rb, \
    run_coherent_with_control_noise, run_interleaved_coherent
from corb.fitting import (
    deviation_experiment,
    fit_records,
    irb_extract,
)
from corb.gatesets import (
    build_clifford_set,
    build_controlled_set,
    build_custom_set,
    build_dressed_set,
    build_ms_dressed_set,
    build_pauli_set,
    check_condition,
)
from corb.noise import (
    NoiseModel,
    avg_gate_fidelity,
    chi00_of,
    dephasing_kraus,
    identity_kraus,
    infidelity_to_dephasing,
)
from corb.paulis import pauli_basis
from helpers import (
    composed_chi00,
    conjugate_channel,
    haar_unitary,
    kraus_to_chi,
    normalizer_residual,
    random_channel,
    random_phase_channel,
)

Z, X = pauli_basis(2, 1)[1:3]  # rows x D + z = 1 and 2
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

FIG5_LENGTHS = (2, 4, 8, 16, 32, 64)
FIG5_SEEDS = {"a": 20260801, "b": 20260802, "c": 20260803}


def test_criterion_1_exact_decay_law():
    """Pauli (2,1), dephasing p=0.01, ideal closing gate: F = 0.99^m to 1e-9."""
    start = time.time()
    noise = NoiseModel(gate_channel=tuple(dephasing_kraus(0.01, 2)),
                       final_gate_channel=tuple(identity_kraus(2)))
    cfg = RbRunConfig(gate_set=build_pauli_set(2, 1), noise=noise,
                      lengths=(1, 2, 3), mode="coherent-full")
    records = run_coherent_full(cfg)
    for record in records:
        assert abs(record.fidelity - 0.99 ** record.m) <= 1e-9
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"\nPASS criterion 1: full-superposition decay (0.99)^m for m=1..3, "
          f"max err {max(abs(r.fidelity - 0.99 ** r.m) for r in records):.1e}, "
          f"{elapsed:.2f}s")


def test_criterion_2_two_element_worked_example():
    """{I, X}, m=2, all 4 sequences, random valid qubit channel: F = chi00^2."""
    start = time.time()
    rng = np.random.default_rng(20260811)
    subset = build_custom_set([np.eye(2), X])
    worst = 0.0
    for _ in range(3):
        kraus = random_phase_channel(2, 3, rng)
        chi00 = chi00_of(kraus)
        noise = NoiseModel(gate_channel=tuple(kraus),
                           final_gate_channel=tuple(identity_kraus(2)))
        cfg = RbRunConfig(gate_set=subset, noise=noise, lengths=(2,),
                          mode="coherent-full")
        record = run_coherent_full(cfg)[0]
        assert record.k == 4
        worst = max(worst, abs(record.fidelity - chi00 ** 2))
        assert abs(record.fidelity - chi00 ** 2) <= 1e-9
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 2: 2-element subset gives F = chi00^2 at m=2 "
          f"(k=4), max err {worst:.1e}, {elapsed:.2f}s")


def test_criterion_3_condition_checker_all_families():
    """All five families pass at 1e-8 |G|; {I, Z} fails with residual >= 1."""
    start = time.time()
    rng = np.random.default_rng(20260812)
    families = [
        ("pauli(2,1)", build_pauli_set(2, 1)),
        ("pauli(3,1)", build_pauli_set(3, 1)),
        ("clifford(2,1)", build_clifford_set(2, 1)),
        ("clifford(3,1)", build_clifford_set(3, 1)),
        ("controlled d=2", build_controlled_set(2)),
        ("ms theta=0", build_ms_dressed_set(2, 0.0)),
        ("ms theta=pi/4", build_ms_dressed_set(2, np.pi / 4)),
        ("ms theta=pi/7", build_ms_dressed_set(2, np.pi / 7)),
    ]
    for i in range(5):
        families.append((f"dressed haar 1q #{i}",
                         build_dressed_set(haar_unitary(2, rng), 2, 1)))
    for i in range(5):
        families.append((f"dressed haar 2q #{i}",
                         build_dressed_set(haar_unitary(4, rng), 2, 2)))
    for name, gate_set in families:
        report = check_condition(gate_set)
        assert report.passed, f"{name} failed: residual {report.worst_residual}"
        assert report.worst_residual <= 1e-8 * len(gate_set)
    counter = check_condition(build_custom_set([np.eye(2), Z]))
    assert not counter.passed
    assert counter.worst_residual >= 1.0
    assert counter.worst_label == "x:0;z:1"
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"\nPASS criterion 3: {len(families)} benchmarkable families pass, "
          f"{{I, Z}} fails at residual {counter.worst_residual:.2f}, "
          f"{elapsed:.1f}s")


def test_criterion_4_clifford_enumeration():
    """Closure sizes 24 / 216 / 11520 with the normalizer property at 1e-10."""
    start = time.time()
    expected = {(2, 1): 24, (3, 1): 216, (2, 2): 11520}
    residuals = {}
    for (d, n), size in expected.items():
        group = build_clifford_set(d, n)
        assert len(group) == size
        residuals[(d, n)] = normalizer_residual(group)
        assert residuals[(d, n)] <= 1e-10
    elapsed = time.time() - start
    assert elapsed < 120.0
    print(f"\nPASS criterion 4: closures 24/216/11520, worst normalizer "
          f"residual {max(residuals.values()):.1e}, {elapsed:.1f}s")


def _fig5_summary(label: str, set_builder, k: int):
    channel = infidelity_to_dephasing(1e-4, 2)
    cfg = RbRunConfig(
        gate_set=set_builder,
        noise=NoiseModel(gate_channel=tuple(channel)),
        lengths=FIG5_LENGTHS,
        k=k,
        repetitions=75,
        seed=FIG5_SEEDS[label],
    )
    return deviation_experiment(cfg)


def test_criterion_5_fig5_order_relations():
    """(a) coherent <= standard; (b) Pauli coherent within 3x of (a)'s;
    (c) standard remains larger at k=25. Seeds pin the outcomes."""
    start = time.time()
    summary_a = _fig5_summary("a", build_clifford_set(2, 1), 80)
    summary_b = _fig5_summary("b", build_pauli_set(2, 1), 80)
    summary_c = _fig5_summary("c", build_clifford_set(2, 1), 25)

    assert summary_a.max_deviation["coherent"] <= summary_a.max_deviation["standard"]
    assert summary_b.max_deviation["coherent"] <= 3 * summary_a.max_deviation["coherent"]
    assert summary_c.max_deviation["standard"] > summary_c.max_deviation["coherent"]
    elapsed = time.time() - start
    print(f"\nPASS criterion 5: fig5a coherent {summary_a.max_deviation['coherent']:.2e}"
          f" <= standard {summary_a.max_deviation['standard']:.2e}; "
          f"fig5b ratio {summary_b.max_deviation['coherent'] / summary_a.max_deviation['coherent']:.2f}x <= 3x; "
          f"fig5c standard {summary_c.max_deviation['standard']:.2e} > "
          f"coherent {summary_c.max_deviation['coherent']:.2e}; {elapsed:.0f}s")


def test_criterion_6_control_noise_law():
    """m=1 value 0.9125 within 2 percent; fitted decay within 1e-3 of q chi00."""
    start = time.time()
    pauli = build_pauli_set(2, 1)

    noise1 = NoiseModel(gate_channel=tuple(identity_kraus(2)), control_q=0.9)
    cfg1 = RbRunConfig(gate_set=pauli, noise=noise1, lengths=(1,), k=4,
                       repetitions=300, seed=20260813,
                       mode="coherent-control-noise")
    mean = float(np.mean([r.fidelity for r in
                          run_coherent_with_control_noise(cfg1)]))
    law = 0.9 + 0.1 / 4 * 0.5
    assert law == pytest.approx(0.9125)
    assert abs(mean - law) / law <= 0.02

    q = 0.99
    channel = infidelity_to_dephasing(1e-4, 2)
    chi00 = chi00_of(channel)
    noise2 = NoiseModel(gate_channel=tuple(channel), control_q=q)
    cfg2 = RbRunConfig(gate_set=pauli, noise=noise2,
                       lengths=tuple(range(1, 21)), k=25, repetitions=40,
                       seed=20260814, mode="coherent-control-noise")
    fit = fit_records(run_coherent_with_control_noise(cfg2))
    assert abs(fit.chi00 - q * chi00) <= 1e-3
    elapsed = time.time() - start
    print(f"\nPASS criterion 6: m=1 mean {mean:.5f} vs 0.9125 "
          f"({abs(mean - law) / law:.2%}); fitted decay {fit.chi00:.6f} vs "
          f"q chi00 {q * chi00:.6f} (|d|={abs(fit.chi00 - q * chi00):.1e}); "
          f"{elapsed:.0f}s")


def test_criterion_7_irb_recovery():
    """Planted gate chi00 = 0.99 recovered within the composition bound,
    and the interleaved full-superposition decay matches the explicit
    chi-overlap sum to 1e-8."""
    start = time.time()
    pauli = build_pauli_set(2, 1)
    ref_channel = dephasing_kraus(0.001, 2)      # chi00^ref = 0.999
    gate_channel = dephasing_kraus(0.01, 2)      # planted chi00 = 0.99
    planted = chi00_of(gate_channel)
    assert planted == pytest.approx(0.99)

    law = composed_chi00(kraus_to_chi(ref_channel, 2, 1),
                         kraus_to_chi(conjugate_channel(gate_channel, H), 2, 1))
    noise = NoiseModel(gate_channel=tuple(ref_channel))
    base = RbRunConfig(gate_set=pauli, noise=noise, lengths=(1, 2, 3),
                       seed=20260815, mode="coherent-full")
    ref_records = run_coherent_full(base)
    from dataclasses import replace
    int_records = run_interleaved_coherent(replace(base, mode="interleaved"),
                                           H, gate_channel,
                                           full_superposition=True)
    for record in int_records:
        assert abs(record.fidelity - law ** record.m) <= 1e-8

    estimate = irb_extract(fit_records(ref_records), fit_records(int_records))
    assert estimate.bound_E == pytest.approx(6.3e-3, abs=5e-4)
    assert abs(estimate.chi00_gate - planted) <= estimate.bound_E
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"\nPASS criterion 7: estimate {estimate.chi00_gate:.6f} within "
          f"bound {estimate.bound_E:.2e} of 0.99; interleaved decay matches "
          f"chi-overlap law to 1e-8; {elapsed:.1f}s")


def test_criterion_8_fidelity_formula_monte_carlo():
    """(d chi00 + 1)/(d + 1) vs 1e5-sample Haar average, 3 standard errors."""
    start = time.time()
    rng = np.random.default_rng(20260808)
    worst_z = 0.0
    for dim in (2, 4):
        for _ in range(5):
            kraus = random_channel(dim, 3, rng)
            formula = avg_gate_fidelity(chi00_of(kraus), dim)
            n_samples = 100_000
            states = rng.normal(size=(n_samples, dim)) \
                + 1j * rng.normal(size=(n_samples, dim))
            states /= np.linalg.norm(states, axis=1, keepdims=True)
            totals = np.zeros(n_samples)
            for k in kraus:
                amps = np.einsum("ni,ij,nj->n", states.conj(), k, states)
                totals += np.abs(amps) ** 2
            se = totals.std(ddof=1) / math.sqrt(n_samples)
            z = abs(totals.mean() - formula) / se
            worst_z = max(worst_z, z)
            assert z <= 3.0
    elapsed = time.time() - start
    print(f"\nPASS criterion 8: 10 channels (d=2 and d=4), worst |z| = "
          f"{worst_z:.2f} <= 3; {elapsed:.0f}s")


def test_criterion_9_fit_recovery_and_pipeline():
    """100 random exact decays recovered to 1e-8; shot-sampled Clifford
    pipeline reports avg gate fidelity 0.9999 within 3 standard errors."""
    start = time.time()
    rng = np.random.default_rng(20260816)
    from corb.fitting import fit_decay
    worst = 0.0
    for _ in range(100):
        a = rng.uniform(0.5, 1.0)
        chi = rng.uniform(0.9, 1.0)
        ms = np.sort(rng.choice(np.arange(1, 64), 5, replace=False))
        fit = fit_decay([(m, a * chi ** m) for m in ms])
        worst = max(worst, abs(fit.A - a), abs(fit.chi00 - chi))
    assert worst <= 1e-8

    channel = infidelity_to_dephasing(1e-4, 2)
    noise = NoiseModel(gate_channel=tuple(channel))
    cfg = RbRunConfig(gate_set=build_clifford_set(2, 1), noise=noise,
                      lengths=FIG5_LENGTHS, k=80, repetitions=75,
                      seed=20260817, shots=5000, mode="coherent")
    fit = fit_records(run_coherent_rb(cfg))
    fidelity = avg_gate_fidelity(fit.chi00, 2)
    se_fidelity = 2.0 / 3.0 * fit.stderr_chi00
    assert abs(fidelity - 0.9999) <= 3 * se_fidelity
    elapsed = time.time() - start
    print(f"\nPASS criterion 9: 100 synthetic fits max err {worst:.1e}; "
          f"pipeline fidelity {fidelity:.7f} vs 0.9999 within "
          f"{abs(fidelity - 0.9999) / se_fidelity:.2f} standard errors; "
          f"{elapsed:.0f}s")
