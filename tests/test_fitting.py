"""Decay fits, interleaved extraction, combined curves, deviation runs."""

import math
from dataclasses import replace

import numpy as np
import pytest

from corb import fitting
from corb.engine import (
    FidelityRangeError,
    RbRunConfig,
    run_coherent_rb,
    run_standard_rb,
    simulate_standard,
)
from corb.fitting import (
    DeviationScenario,
    combined_decay,
    deviation_experiment,
    fit_decay,
    fit_records,
    irb_bound,
    irb_extract,
    standard_rb_curve,
)
from corb.gatesets import build_clifford_set, build_pauli_set
from corb.noise import NoiseModel, chi00_of, dephasing_kraus


def synth(a, chi, ms):
    return [(m, a * chi ** m) for m in ms]


class TestFitDecay:
    def test_recovers_exact_generator(self):
        fit = fit_decay(synth(1.0, 0.99, (1, 2, 4, 8, 16)))
        assert fit.A == pytest.approx(1.0, abs=1e-10)
        assert fit.chi00 == pytest.approx(0.99, abs=1e-10)
        assert fit.converged

    def test_recovers_spam_amplitude(self):
        fit = fit_decay(synth(0.98, 0.995, (1, 2, 4, 8, 16, 32)))
        assert fit.A == pytest.approx(0.98, abs=1e-6)
        assert fit.chi00 == pytest.approx(0.995, abs=1e-6)

    def test_hundred_random_generators(self):
        """Noiseless synthetic decays recovered to 1e-8."""
        rng = np.random.default_rng(71)
        for _ in range(100):
            a = rng.uniform(0.5, 1.0)
            chi = rng.uniform(0.9, 1.0)
            n_points = int(rng.integers(4, 9))
            ms = np.sort(rng.choice(np.arange(1, 64), n_points, replace=False))
            fit = fit_decay(synth(a, chi, ms))
            assert abs(fit.A - a) < 1e-8
            assert abs(fit.chi00 - chi) < 1e-8

    def test_weights_accepted(self):
        points = synth(1.0, 0.97, (1, 2, 3, 4))
        fit = fit_decay(points, weights=[1.0, 2.0, 1.0, 0.5])
        assert fit.chi00 == pytest.approx(0.97, abs=1e-9)

    def test_needs_three_distinct_lengths(self):
        with pytest.raises(ValueError):
            fit_decay([(1, 0.9), (1, 0.91), (2, 0.8)])

    def test_rejects_all_nonpositive(self):
        with pytest.raises(ValueError):
            fit_decay([(1, 0.0), (2, 0.0), (3, -0.1)])

    def test_rejects_unphysical_values(self):
        with pytest.raises(ValueError):
            fit_decay([(1, 1.2), (2, 0.9), (3, 0.8)])

    def test_nonpositive_points_survive_stage_two(self):
        """A zero point is excluded from the log fit but not the refinement."""
        points = synth(1.0, 0.5, (1, 2, 4, 8, 16)) + [(40, 0.0)]
        fit = fit_decay(points)
        assert fit.chi00 == pytest.approx(0.5, abs=1e-6)
        assert fit.points_used == 6

    def test_flat_noiseless_data(self):
        fit = fit_decay([(m, 1.0) for m in (1, 5, 9)])
        assert fit.chi00 == pytest.approx(1.0, abs=1e-12)
        assert fit.A == pytest.approx(1.0, abs=1e-12)

    def test_stderr_scales_with_scatter(self):
        rng = np.random.default_rng(72)
        base = synth(1.0, 0.98, (1, 2, 4, 8, 16, 32))
        noisy = [(m, f + rng.normal(0, 1e-3)) for m, f in base]
        fit = fit_decay(noisy)
        assert 1e-6 < fit.stderr_chi00 < 1e-2

    def test_iteration_cap_is_not_convergence(self, monkeypatch):
        """A refinement stopped by GN_MAX_ITER reports converged=False."""
        rng = np.random.default_rng(73)
        base = synth(1.0, 0.98, (1, 2, 4, 8, 16, 32))
        noisy = [(m, f + rng.normal(0, 1e-3)) for m, f in base]
        assert fit_decay(noisy).converged
        monkeypatch.setattr(fitting, "GN_MAX_ITER", 1)
        assert not fit_decay(noisy).converged


class TestCombinedDecay:
    def test_k_one_returns_standard(self):
        assert combined_decay(0.9, 0.88, 1) == pytest.approx(0.88)

    def test_large_k_returns_coherent(self):
        assert combined_decay(0.9, 0.88, 10 ** 9) == pytest.approx(0.9, abs=1e-9)

    def test_worked_arithmetic(self):
        assert combined_decay(0.9, 0.88, 15) == pytest.approx(14 / 15 * 0.9
                                                              + 0.88 / 15)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            combined_decay(0.9, 0.88, 0)


class TestIrbExtraction:
    def test_ideal_reference(self):
        ref = fit_decay(synth(1.0, 1.0, (1, 2, 4)))
        inter = fit_decay(synth(1.0, 0.99, (1, 2, 4)))
        estimate = irb_extract(ref, inter)
        assert estimate.chi00_gate == pytest.approx(0.99, abs=1e-9)
        assert estimate.bound_E == pytest.approx(0.0, abs=1e-12)

    def test_bound_arithmetic(self):
        """2 sqrt(0.001*0.999*0.01*0.99) + 0.001*0.01 = 6.2997e-3."""
        expected = 2 * math.sqrt(0.001 * 0.999 * 0.01 * 0.99) + 0.001 * 0.01
        assert expected == pytest.approx(6.2997e-3, abs=5e-7)
        assert irb_bound(0.999, 0.99) == pytest.approx(expected, abs=1e-15)

    def test_bound_monotone_in_both_infidelities(self):
        base = irb_bound(0.999, 0.99)
        assert irb_bound(0.995, 0.99) > base
        assert irb_bound(0.999, 0.95) > base

    def test_extraction_divides_out_reference(self):
        ref = fit_decay(synth(1.0, 0.999, (1, 2, 4, 8)))
        inter = fit_decay(synth(1.0, 0.999 * 0.99, (1, 2, 4, 8)))
        estimate = irb_extract(ref, inter)
        assert estimate.chi00_gate == pytest.approx(0.99, abs=1e-7)
        assert abs(estimate.chi00_gate - 0.99) <= estimate.bound_E

    def test_zero_reference_rejected(self):
        ref = fit_decay([(1, 1e-7), (2, 1e-8), (3, 1e-9), (4, 1e-9)])
        inter = fit_decay(synth(1.0, 0.9, (1, 2, 3)))
        if ref.chi00 == 0.0:
            with pytest.raises(ValueError):
                irb_extract(ref, inter)


class TestStandardCurve:
    def test_perfect_channel_is_flat(self):
        assert standard_rb_curve(1.0, 2, 50) == pytest.approx(1.0)

    def test_matches_simulated_sequence_average(self):
        """Group-twirl closed form vs 3000 random sequences at m = 4."""
        rng = np.random.default_rng(73)
        clifford = build_clifford_set(2, 1)
        noise = NoiseModel(gate_channel=tuple(dephasing_kraus(0.05, 2)))
        chi00 = chi00_of(noise.gate_channel)
        sequences = rng.integers(0, 24, size=(3000, 4))
        survivals = simulate_standard(clifford, noise, sequences)
        prediction = float(standard_rb_curve(chi00, 2, 4))
        se = survivals.std(ddof=1) / np.sqrt(len(survivals))
        assert abs(survivals.mean() - prediction) <= 3 * se


class TestStandardSelfConsistency:
    def test_per_length_means_track_the_fit(self):
        """75-repetition means sit within 3 standard errors of the fitted
        decay at every length (and of the group-twirl curve)."""
        noise = NoiseModel(gate_channel=tuple(dephasing_kraus(1.5e-4, 2)))
        chi00 = chi00_of(noise.gate_channel)
        cfg = RbRunConfig(gate_set=build_clifford_set(2, 1), noise=noise,
                          lengths=(2, 4, 8, 16, 32, 64), k=80, repetitions=75,
                          seed=912, mode="standard")
        records = run_standard_rb(cfg)
        fit = fit_records(records)
        per_m = {}
        for r in records:
            per_m.setdefault(r.m, []).append(r.fidelity)
        for m, values in per_m.items():
            values = np.asarray(values)
            se = values.std(ddof=1) / np.sqrt(len(values))
            assert abs(values.mean() - fit.A * fit.chi00 ** m) <= 3 * se
            analytic = float(standard_rb_curve(chi00, 2, m))
            assert abs(values.mean() - analytic) <= 3 * se


class TestDeviationExperiment:
    @staticmethod
    def small_scenario(seed=91):
        return DeviationScenario(
            name="small",
            gate_set=build_pauli_set(2, 1),
            noise=NoiseModel(gate_channel=tuple(dephasing_kraus(0.001, 2))),
            k=5,
            repetitions=6,
            lengths=(1, 2, 4),
            seed=seed,
        )

    def test_summary_shape_and_reference(self):
        summary = deviation_experiment(self.small_scenario())
        assert set(summary.deviations) == {"coherent", "standard"}
        for mode in summary.deviations:
            assert set(summary.deviations[mode]) == {1, 2, 4}
            for m, devs in summary.deviations[mode].items():
                assert len(devs) == 6
                assert all(d >= 0 for d in devs)
                reference = summary.amplitude * summary.chi00 ** m
                for f, d in zip(summary.fidelities[mode][m], devs):
                    assert d == pytest.approx(abs(f - reference), abs=1e-15)

    def test_bit_exact_reproducibility(self):
        a = deviation_experiment(self.small_scenario())
        b = deviation_experiment(self.small_scenario())
        assert a == b

    def test_seed_changes_data(self):
        a = deviation_experiment(self.small_scenario(seed=91))
        b = deviation_experiment(self.small_scenario(seed=92))
        assert a.fidelities != b.fidelities

    def test_one_pass_matches_separate_runs(self):
        """Both modes come from one coherent pass: the coherent fidelities
        are those of `run_coherent_rb`, the standard ones those of
        `run_standard_rb` on the same draws, up to rounding."""
        scenario = self.small_scenario()
        summary = deviation_experiment(scenario)
        base = RbRunConfig(gate_set=scenario.gate_set, noise=scenario.noise,
                           lengths=scenario.lengths, k=scenario.k,
                           repetitions=scenario.repetitions, seed=scenario.seed)
        runs = {"coherent": run_coherent_rb(base),
                "standard": run_standard_rb(replace(base, mode="standard"))}
        for mode, records in runs.items():
            for r in records:
                got = summary.fidelities[mode][r.m][r.repetition]
                if mode == "coherent":
                    assert got == r.fidelity
                else:
                    assert abs(got - r.fidelity) <= 1e-12

    def test_out_of_range_fidelity_raises(self):
        """A channel that gains trace within the Kraus-check tolerance stops
        the study, as it stops a single run."""
        scenario = replace(
            self.small_scenario(), lengths=(2000,), k=2, repetitions=1,
            noise=NoiseModel(gate_channel=(np.sqrt(1.0 + 9e-9) * np.eye(2),)))
        with pytest.raises(FidelityRangeError, match=r"fidelity 1\.0000"):
            deviation_experiment(scenario)

    def test_reference_curve_matches_full_superposition(self):
        """The analytic reference (1-p)^m equals the exhaustive-run value
        for the Pauli set at small lengths."""
        from corb.engine import run_coherent_full
        from corb.noise import identity_kraus
        noise = NoiseModel(gate_channel=tuple(dephasing_kraus(0.01, 2)),
                           final_gate_channel=tuple(identity_kraus(2)))
        summary = deviation_experiment(DeviationScenario(
            name="xcheck", gate_set=build_pauli_set(2, 1), noise=noise,
            k=4, repetitions=2, lengths=(1, 2, 3), seed=17))
        cfg = RbRunConfig(gate_set=build_pauli_set(2, 1), noise=noise,
                          lengths=(1, 2, 3), mode="coherent-full")
        for record in run_coherent_full(cfg):
            reference = summary.amplitude * summary.chi00 ** record.m
            assert reference == pytest.approx((1 - 0.01) ** record.m, abs=1e-12)
            assert record.fidelity == pytest.approx(reference, abs=1e-9)
