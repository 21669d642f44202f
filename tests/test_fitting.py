"""Decay fits, interleaved extraction, combined curves, deviation runs."""

import math
from dataclasses import replace

import numpy as np
import pytest

from corb import fitting
from corb.engine import (
    FidelityRangeError,
    RbRunConfig,
    exact_fidelities,
    run_coherent_rb,
    run_standard_rb,
)
from corb.fitting import (
    DecayFit,
    combined_decay,
    deviation_experiment,
    fit_decay,
    fit_records,
    irb_bound,
    irb_extract,
)
from corb.gatesets import build_clifford_set, build_pauli_set
from corb.noise import NoiseModel, chi00_of, dephasing_kraus
from helpers import ideal_noise, lstsq_fit_decay, simulate_standard, standard_closed_form


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


def assert_fit_equals(fit, want):
    """Every field of `fit` is that of the DecayFit `want`: the count and
    the flag exactly, each float to 1e-12 relative (LAPACK builds may
    differ in the last bits), a zero exactly, a NaN as a NaN."""
    for name, value in vars(want).items():
        got = getattr(fit, name)
        if isinstance(value, float) and math.isnan(value):
            assert math.isnan(got), name
        else:
            assert got == pytest.approx(value, rel=1e-12, abs=0), name


NOISY = [(1, 0.9), (2, 0.83), (4, 0.64), (8, 0.45)]


class TestFitDecayPinned:
    """`fit_decay`'s result or refusal for each kind of awkward input."""

    @pytest.mark.parametrize("points, want", [
        ([(1, 0.9), (2, math.nan), (4, 0.6), (8, 0.4)],
         DecayFit(0.9878611515710791, 0.8913087216575926, math.nan, 4, False,
                  math.nan, math.nan)),
        ([(1, 0.9), (2, -math.inf), (4, 0.6), (8, 0.4)],
         DecayFit(0.9878611515710791, 0.8913087216575926, math.inf, 4, False,
                  math.inf, math.inf)),
    ], ids=["nan", "minus-inf"])
    def test_nonfinite_fidelity_reports_the_log_fit(self, points, want):
        """A NaN or -inf point is left out of the log-linear start (it is
        not positive) and makes the refinement diverge, so the start is
        reported, unconverged, with the residuals it leaves."""
        assert_fit_equals(fit_decay(points), want)

    @pytest.mark.parametrize("points, message", [
        ([(1, 0.9), (2, math.inf), (4, 0.6), (8, 0.4)],
         "fidelities above 1.05 are not a decay curve"),
        ([(1, 0.9), (1, 0.8), (2, 0.7), (2, 0.6)],
         "need at least 3 distinct sequence lengths"),
        ([(math.nan, 0.9), (math.nan, 0.8), (2, 0.7)],
         "need at least 3 distinct sequence lengths"),
        ([(1, 1.05), (2, 0.7), (4, 0.5)],
         "fidelities above 1.05 are not a decay curve"),
        ([(1, 0.0), (2, -0.1), (4, 0.0)], "all fidelities nonpositive"),
        # With several faults, the first check in this order refuses.
        ([(1, 2.0), (1, -1.0), (2, 0.5)],
         "need at least 3 distinct sequence lengths"),
        ([(1, 1.1), (2, -1.0), (3, -1.0)], "fidelities above 1.05 are not a decay curve"),
        # Non-finite lengths, checked after all of the above.
        ([(math.nan, 0.9), (1, 0.8), (2, 0.7), (3, 0.6)],
         "sequence length nan is not finite"),
        ([(1, 0.9), (2, 0.8), (3, 0.7), (math.inf, 0.6)],
         "sequence length inf is not finite"),
    ], ids=["plus-inf", "two-lengths", "nan-lengths-are-one", "at-1.05", "nonpositive",
            "lengths-first", "high-before-nonpositive", "nan-length", "inf-length"])
    def test_refusals(self, points, message):
        with pytest.raises(ValueError) as info:
            fit_decay(points)
        assert str(info.value) == message

    def test_diverging_refinement_reports_the_log_fit(self):
        fit = fit_decay([(11, -0.15), (13, 0.46), (17, 0.37), (22, -0.12)])
        assert_fit_equals(fit, DecayFit(0.9333943795145252, 0.9470239734520353,
                                        0.38759477869123893, 4, False,
                                        2.490560964911249, 0.17408007838220083))

    def test_iteration_cap_keeps_the_last_estimate(self, monkeypatch):
        assert_fit_equals(fit_decay(NOISY), DecayFit(
            1.0002775896247271, 0.9022657521460536, 0.014928104653674699, 4, True,
            0.02340929647734001, 0.006416521087103789))
        monkeypatch.setattr(fitting, "GN_MAX_ITER", 1)
        assert_fit_equals(fit_decay(NOISY), DecayFit(
            1.0001758066224828, 0.9022935344956645, 0.014928182597286099, 4, False,
            0.023407553227052288, 0.006416252844529407))


def random_decay(seed, n, kind):
    """Seeded noisy decay points (m, A chi^m + noise).
    "noisy" spreads n lengths over 1 ... 4n, and the curve keeps 20 % to
    90 % of its amplitude at the longest; "flat" keeps all but 1e-3 to
    3e-2 of it, so chi is within about 1e-3 / m of 1; "repeats" puts the n
    points on three lengths. The noise is 0.3 % to 3 % of the decay over
    the lengths, large enough that the residuals, and so the standard
    errors, are not rounding."""
    rng = np.random.default_rng(seed)
    amplitude = rng.uniform(0.5, 1.0)
    if kind == "repeats":
        ms = np.sort(rng.choice([1, 2, 3], n))
        ms[:3] = [1, 2, 3]
    else:
        ms = 1 + np.sort(rng.choice(4 * n, n, replace=False))
    end = 1.0 - 10 ** rng.uniform(-3, -1.5) if kind == "flat" else rng.uniform(0.2, 0.9)
    chi = end ** (1.0 / (ms.max() - ms.min()))
    sigma = (1.0 - end) * 10 ** rng.uniform(-2.5, -1.5)
    fs = amplitude * chi ** ms + rng.normal(0.0, sigma, n)
    return list(zip(ms.tolist(), fs.tolist()))


class TestFitDecayOracle:
    """`fit_decay` solves its 2x2 normal equations in closed form; the
    oracle takes the same stages with `lstsq` and `inv` (`lstsq_fit_decay`)."""

    # Both sides solve unweighted least squares, which the ids name.
    @pytest.mark.parametrize("kind", ["noisy", "flat", "repeats"],
                             ids=lambda kind: f"{kind}-unweighted")
    @pytest.mark.parametrize("n", [3, 4, 5, 7, 12, 50, 525, 7000])
    def test_matches_least_squares_solvers(self, n, kind):
        """A, chi00 and both standard errors to 1e-10 relative, and the same
        convergence flag, on three seeded decays."""
        for seed in range(3):
            points = random_decay(1000 * n + seed, n, kind)
            fit, want = fit_decay(points), lstsq_fit_decay(points)
            assert fit.converged == want.converged
            assert fit.points_used == want.points_used == n
            for name in ("A", "chi00", "stderr_A", "stderr_chi00"):
                assert getattr(fit, name) == pytest.approx(getattr(want, name),
                                                           rel=1e-10, abs=0), name

    def test_rank_deficient_start(self):
        """With every positive point at one length the log-linear line is
        not unique: the start is lstsq's minimum-norm line, c = (1, m)
        log F / (1 + m^2), here reported unchanged after the refinement
        diverges."""
        points = [(2, 0.8), (1, 0.0), (3, -0.1), (4, 0.0)]
        fit = fit_decay(points)
        assert fit.A == pytest.approx(0.8 ** 0.2, rel=1e-12)
        assert fit.chi00 == pytest.approx(0.8 ** 0.4, rel=1e-12)
        assert not fit.converged
        assert_fit_equals(fit, lstsq_fit_decay(points))

    def test_singular_steps_take_the_minimum_norm(self):
        """A singular J^T J gives lstsq's minimum-norm step: none when it is
        zero, -G b / tr(G)^2 when G has rank one."""
        assert fitting._gauss_newton_step(0.0, 0.0, 0.0, 0.0, 0.0) == (0.0, 0.0)
        # J = [[1, 2]] and r = 1: J^T J = [[1, 2], [2, 4]], J^T r = (1, 2).
        step = fitting._gauss_newton_step(1.0, 2.0, 4.0, 1.0, 2.0)
        want, *_ = np.linalg.lstsq(np.array([[1.0, 2.0]]), [-1.0], rcond=None)
        assert step == pytest.approx(tuple(want), rel=1e-15, abs=0)

    def test_results_are_python_floats(self):
        fit = fit_decay(NOISY)
        for name in ("A", "chi00", "residual_rms", "stderr_A", "stderr_chi00"):
            assert type(getattr(fit, name)) is float, name


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
    """The exact standard-RB mean: `exact_fidelities` with the
    same-sequence moment."""

    def test_perfect_channel_is_flat(self):
        exact = exact_fidelities(build_clifford_set(2, 1), ideal_noise(2), (50,),
                                 same_sequence=True)
        assert exact == [pytest.approx(1.0)]

    def test_matches_group_twirl_closed_form(self):
        """Clifford(2,1) is a unitary 2-design, so under dephasing without
        SPAM the mean survival is 1/D + (1 - 1/D) p^m exactly."""
        noise = NoiseModel(gate_channel=tuple(dephasing_kraus(0.05, 2)))
        lengths = (1, 2, 5, 16, 64)
        exact = exact_fidelities(build_clifford_set(2, 1), noise, lengths,
                                 same_sequence=True)
        chi00 = chi00_of(noise.gate_channel)
        for m, value in zip(lengths, exact):
            assert abs(value - standard_closed_form(chi00, 2, m)) <= 1e-12

    def test_matches_simulated_sequence_average(self):
        """Exact mean vs 3000 random sequences at m = 4."""
        rng = np.random.default_rng(73)
        clifford = build_clifford_set(2, 1)
        noise = NoiseModel(gate_channel=tuple(dephasing_kraus(0.05, 2)))
        sequences = rng.integers(0, 24, size=(3000, 4))
        survivals = simulate_standard(clifford, noise, sequences)
        prediction = exact_fidelities(clifford, noise, (4,), same_sequence=True)[0]
        se = survivals.std(ddof=1) / np.sqrt(len(survivals))
        assert abs(survivals.mean() - prediction) <= 3 * se


class TestStandardSelfConsistency:
    def test_per_length_means_track_the_fit(self):
        """75-repetition means sit within 3 standard errors of the fitted
        decay at every length (and of the exact standard-RB mean)."""
        noise = NoiseModel(gate_channel=tuple(dephasing_kraus(1.5e-4, 2)))
        cfg = RbRunConfig(gate_set=build_clifford_set(2, 1), noise=noise,
                          lengths=(2, 4, 8, 16, 32, 64), k=80, repetitions=75,
                          seed=912, mode="standard")
        exact = dict(zip(cfg.lengths, exact_fidelities(cfg.gate_set, noise, cfg.lengths,
                                                       same_sequence=True)))
        records = run_standard_rb(cfg)
        fit = fit_records(records)
        per_m = {}
        for r in records:
            per_m.setdefault(r.m, []).append(r.fidelity)
        for m, values in per_m.items():
            values = np.asarray(values)
            se = values.std(ddof=1) / np.sqrt(len(values))
            assert abs(values.mean() - fit.A * fit.chi00 ** m) <= 3 * se
            assert abs(values.mean() - exact[m]) <= 3 * se


class TestDeviationExperiment:
    @staticmethod
    def small_scenario(seed=91):
        return RbRunConfig(
            gate_set=build_pauli_set(2, 1),
            noise=NoiseModel(gate_channel=tuple(dephasing_kraus(0.001, 2))),
            lengths=(1, 2, 4),
            k=5,
            repetitions=6,
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
        base = self.small_scenario()
        summary = deviation_experiment(base)
        runs = {"coherent": run_coherent_rb(base),
                "standard": run_standard_rb(replace(base, mode="standard"))}
        for mode, records in runs.items():
            for r in records:
                got = summary.fidelities[mode][r.m][r.repetition]
                if mode == "coherent":
                    assert got == r.fidelity
                else:
                    assert abs(got - r.fidelity) <= 1e-12

    def test_out_of_range_fidelity_raises(self, gainless_noise_models):
        """A fidelity past 1 stops the study, as it stops a single run: the
        gate channel gains 9e-10 of trace, and the same channel after the
        closing inverse carries the fidelity to 1 + 1.8e-9. The noise model
        reports no gain, so the boundary check lets the study start."""
        scenario = replace(
            self.small_scenario(), lengths=(1,), k=2, repetitions=1,
            noise=NoiseModel(gate_channel=(np.sqrt(1.0 + 9e-10) * np.eye(2),)))
        with pytest.raises(FidelityRangeError, match=r"fidelity 1\.0000"):
            deviation_experiment(scenario)

    def test_reference_curve_matches_full_superposition(self):
        """The analytic reference (1-p)^m equals the exhaustive-run value
        for the Pauli set at small lengths."""
        from corb.engine import run_coherent_full
        from corb.noise import identity_kraus
        noise = NoiseModel(gate_channel=tuple(dephasing_kraus(0.01, 2)),
                           final_gate_channel=tuple(identity_kraus(2)))
        summary = deviation_experiment(RbRunConfig(
            gate_set=build_pauli_set(2, 1), noise=noise,
            lengths=(1, 2, 3), k=4, repetitions=2, seed=17))
        cfg = RbRunConfig(gate_set=build_pauli_set(2, 1), noise=noise,
                          lengths=(1, 2, 3), mode="coherent-full")
        for record in run_coherent_full(cfg):
            reference = summary.amplitude * summary.chi00 ** record.m
            assert reference == pytest.approx((1 - 0.01) ** record.m, abs=1e-12)
            assert record.fidelity == pytest.approx(reference, abs=1e-9)
