"""CLI surface: subcommands, exit codes, file formats, reproducibility."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import corb
from corb import fitting
from corb.cli import ExperimentConfig, main, run_from_config
from corb.engine import MODES, FidelityRangeError, FidelityRecord, RbRunConfig, run
from corb.gatesets import build_pauli_set, parse_set_spec, set_spec_dims
from corb.io import (
    parse_complex,
    read_matrices,
    read_matrix,
    read_records,
    write_records_csv,
    write_records_json,
)
from corb.noise import NoiseModel, dephasing_kraus
from helpers import (
    format_complex,
    haar_unitary,
    write_matrices,
)

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


class TestComplexFormat:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(81)
        for _ in range(50):
            z = complex(rng.normal(), rng.normal())
            assert parse_complex(format_complex(z)) == z

    def test_tolerates_whitespace_and_bare_reals(self):
        assert parse_complex("  1.5e-3+2i ") == 1.5e-3 + 2j
        assert parse_complex("3.0") == 3.0

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_complex("one+twoi")


class TestMatrixFiles:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(82)
        path = str(tmp_path / "m.mat")
        mats = [haar_unitary(3, rng), haar_unitary(2, rng)]
        write_matrices(path, mats)
        loaded = read_matrices(path)
        assert len(loaded) == 2
        for a, b in zip(mats, loaded):
            np.testing.assert_array_equal(a, b)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("dim 2 2\n1+0i 0+0i\n")
        with pytest.raises(ValueError):
            read_matrices(str(path))

    def test_row_width_mismatch(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("dim 2 2\n1+0i\n0+0i 1+0i\n")
        with pytest.raises(ValueError):
            read_matrices(str(path))

    def test_single_matrix_reader(self, tmp_path):
        path = str(tmp_path / "two.mat")
        write_matrices(path, [np.eye(2), np.eye(2)])
        with pytest.raises(ValueError):
            read_matrix(path)


class TestRecordFiles:
    @staticmethod
    def sample_records():
        config = ExperimentConfig(set_spec="pauli:d=2,n=1",
                                  channel_spec="dephasing:p=0.01",
                                  lengths=(1, 2, 3), k=4, seed=5)
        records, _ = run_from_config(config)
        return records, config

    def test_csv_round_trip(self, tmp_path):
        records, config = self.sample_records()
        path = str(tmp_path / "r.csv")
        write_records_csv(path, records, config.to_dict())
        loaded, loaded_config = read_records(path)
        assert loaded_config == config.to_dict()
        for rec, row in zip(records, loaded):
            assert row["fidelity"] == rec.fidelity
            assert row["m"] == rec.m

    def test_json_round_trip(self, tmp_path):
        records, config = self.sample_records()
        path = str(tmp_path / "r.json")
        write_records_json(path, records, config.to_dict())
        loaded, loaded_config = read_records(path)
        assert loaded_config == config.to_dict()
        assert [r["fidelity"] for r in loaded] == [r.fidelity for r in records]


class TestExperimentConfig:
    def test_dict_round_trip(self):
        config = ExperimentConfig(set_spec="clifford:d=2,n=1",
                                  channel_spec="infidelity-dephasing:r=1e-4",
                                  mode="coherent", k=20, lengths=(2, 4, 8),
                                  repetitions=3, seed=11)
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_embedded_config_reruns_identically(self, tmp_path):
        records, config = TestRecordFiles.sample_records()
        path = str(tmp_path / "r.csv")
        write_records_csv(path, records, config.to_dict())
        _, loaded_config = read_records(path)
        replayed, _ = run_from_config(ExperimentConfig.from_dict(loaded_config))
        assert replayed == records

    def test_spec_dims(self, tmp_path):
        assert set_spec_dims("pauli:d=3,n=2") == (3, 2)
        assert set_spec_dims("controlled:d=2") == (2, 2)
        assert set_spec_dims("ms:n=3,theta=0.2") == (2, 3)
        u_path = str(tmp_path / "u.mat")
        write_matrices(u_path, [np.kron(H, H)])
        set_path = str(tmp_path / "set.mat")
        write_matrices(set_path, [np.eye(3), np.diag([1, -1, 1])])
        for spec in ("pauli:d=3,n=2", "clifford:d=3,n=1", "controlled:d=2",
                     "controlled:d=3", "two-control", "ms:n=3,theta=0.2",
                     f"dressed:d=2,n=2,u={u_path}", f"custom:{set_path}"):
            gs = parse_set_spec(spec)
            assert set_spec_dims(spec) == (gs.d, gs.n), spec


class TestCheckSetCommand:
    def test_pass_exit_zero(self, capsys):
        assert main(["check-set", "pauli:d=2,n=1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS")

    def test_fail_exit_two(self, tmp_path, capsys):
        path = str(tmp_path / "iz.mat")
        write_matrices(path, [np.eye(2), np.diag([1.0, -1.0])])
        assert main(["check-set", f"custom:{path}"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("FAIL")
        assert "x:0;z:1" in out

    def test_parse_error_exit_one(self):
        assert main(["check-set", "wibble:d=2"]) == 1

    def test_json_report(self, tmp_path, capsys):
        path = str(tmp_path / "report.json")
        assert main(["check-set", "ms:n=2,theta=0.3", "--json", path]) == 0
        capsys.readouterr()
        report = json.loads(open(path).read())
        assert report["passed"] is True
        assert report["elements"] == 16


class TestModuleEntryPoint:
    def test_python_m_corb_runs_the_cli(self):
        """`python -m corb` is the command line, with its exit codes."""
        src = os.path.dirname(os.path.dirname(corb.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        ok = subprocess.run([sys.executable, "-m", "corb", "check-set", "pauli:d=2,n=1"],
                            env=env, capture_output=True, text=True, timeout=60)
        assert ok.returncode == 0 and ok.stdout.startswith("PASS")
        bad = subprocess.run([sys.executable, "-m", "corb", "check-set", "wibble:d=2"],
                             env=env, capture_output=True, text=True, timeout=60)
        assert bad.returncode == 1


class TestRunCommand:
    def test_noiseless_run_all_ones(self, tmp_path, capsys):
        out = str(tmp_path / "r.csv")
        code = main(["run", "--set", "pauli:d=2,n=1", "--channel", "identity",
                     "--k", "3", "--lengths", "1,2,4", "--reps", "2",
                     "--seed", "1", "--out", out])
        capsys.readouterr()
        assert code == 0
        records, _ = read_records(out)
        assert all(r["fidelity"] == pytest.approx(1.0, abs=1e-12)
                   for r in records)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["run", "--set", "clifford:d=2,n=1", "--channel",
                "dephasing:p=0.01", "--k", "5", "--lengths", "2,4",
                "--reps", "3", "--seed", "9"]
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        capsys.readouterr()
        a = open(out1, "rb").read()
        b = open(out2, "rb").read()
        assert a.replace(out1.encode(), b"F") == b.replace(out2.encode(), b"F")

    def test_shot_grid(self, tmp_path, capsys):
        out = str(tmp_path / "shots.csv")
        code = main(["run", "--set", "pauli:d=2,n=1", "--channel",
                     "dephasing:p=0.05", "--k", "4", "--lengths", "1,2,3",
                     "--shots", "1000", "--seed", "4", "--out", out])
        capsys.readouterr()
        assert code == 0
        records, _ = read_records(out)
        for r in records:
            assert abs(r["fidelity"] * 1000 - round(r["fidelity"] * 1000)) < 1e-9

    def test_interleaved_needs_gate(self, tmp_path, capsys):
        code = main(["run", "--set", "pauli:d=2,n=1", "--channel", "identity",
                     "--mode", "interleaved", "--k", "2",
                     "--out", str(tmp_path / "x.csv")])
        capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize("mode", MODES)
    def test_every_mode_through_run_and_cli(self, mode, tmp_path, capsys):
        """Each mode of the table gives the same records from `run` and
        from `corb run --mode`."""
        gate_path = str(tmp_path / "h.mat")
        write_matrices(gate_path, [H])
        out = str(tmp_path / "r.csv")
        code = main(["run", "--set", "pauli:d=2,n=1", "--channel",
                     "dephasing:p=0.01", "--q", "0.95", "--mode", mode,
                     "--gate", gate_path, "--k", "3", "--lengths", "1,2,3",
                     "--reps", "2", "--seed", "5", "--out", out])
        capsys.readouterr()
        assert code == 0
        noise = NoiseModel(gate_channel=tuple(dephasing_kraus(0.01, 2)),
                           control_q=0.95)
        cfg = RbRunConfig(gate_set=build_pauli_set(2, 1), noise=noise,
                          lengths=(1, 2, 3), k=3, repetitions=2, seed=5,
                          mode=mode)
        records = run(cfg, interleaved_gate=H)
        assert len(records) == 6 and {r.mode for r in records} == {mode}
        rows, _ = read_records(out)
        assert [FidelityRecord(**r) for r in rows] == records

    @pytest.mark.parametrize("flag,matrices,message", [
        ("--channel", [np.eye(3)], "gate channel has shape (3, 3)"),
        ("--gate", [np.eye(4)], "interleaved gate has shape (4, 4)"),
        ("--gate-channel", dephasing_kraus(0.1, 3),
         "interleaved gate channel has shape (3, 3)"),
    ], ids=["channel", "gate", "gate-channel"])
    def test_dimension_mismatch_exit_one(self, flag, matrices, message,
                                         tmp_path, capsys):
        """A matrix that does not fit the set's D x D is rejected before
        simulating, with both shapes in the message."""
        path = str(tmp_path / "m.mat")
        write_matrices(path, matrices)
        h_path = str(tmp_path / "h.mat")
        write_matrices(h_path, [H])
        args = {"--channel": "identity", "--gate": h_path}
        args[flag] = path if flag == "--gate" else f"kraus:{path}"
        out = str(tmp_path / "x.csv")
        code = main(["run", "--set", "pauli:d=2,n=1", "--mode", "interleaved",
                     "--k", "2", "--out", out]
                    + [x for item in args.items() for x in item])
        err = capsys.readouterr().err
        assert code == 1
        assert message in err and "(2, 2)" in err
        assert not os.path.exists(out)

    def test_interleaved_with_gate_file(self, tmp_path, capsys):
        gate_path = str(tmp_path / "h.mat")
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        write_matrices(gate_path, [h])
        out = str(tmp_path / "irb.csv")
        code = main(["run", "--set", "pauli:d=2,n=1", "--channel",
                     "dephasing:p=0.001", "--mode", "interleaved",
                     "--gate", gate_path, "--gate-channel", "dephasing:p=0.01",
                     "--k", "6", "--lengths", "1,2,4", "--reps", "2",
                     "--seed", "2", "--out", out])
        capsys.readouterr()
        assert code == 0
        records, _ = read_records(out)
        assert {r["mode"] for r in records} == {"interleaved"}


    def test_byte_budget_exit_two(self, tmp_path, capsys):
        """k * D = 6000 is refused before any allocation, in bytes."""
        out = str(tmp_path / "x.csv")
        code = main(["run", "--set", "pauli:d=2,n=1", "--channel", "identity",
                     "--k", "3000", "--out", out])
        err = capsys.readouterr().err
        assert code == 2
        assert "needs 1728000000 bytes" in err and "805306368 bytes" in err
        assert not os.path.exists(out)

    def test_missing_channel_key_exit_one(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        code = main(["run", "--set", "pauli:d=2,n=1", "--channel", "dephasing",
                     "--out", out])
        assert code == 1
        assert "channel spec 'dephasing' is missing key 'p'" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_standard_byte_budget_exit_two(self, tmp_path, capsys, monkeypatch):
        """Standard RB is refused past the budget like the coherent modes."""
        monkeypatch.setattr("corb.engine.STATE_BUDGET_BYTES", 48 * 3 * 2 ** 2 - 1)
        out = str(tmp_path / "x.csv")
        code = main(["run", "--set", "pauli:d=2,n=1", "--channel", "identity",
                     "--mode", "standard", "--k", "3", "--out", out])
        err = capsys.readouterr().err
        assert code == 2
        assert "needs 576 bytes" in err and "the budget is 575 bytes" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("value", ["two", "0", "-3"])
    def test_bad_worker_count_exit_one(self, value, tmp_path, capsys, monkeypatch):
        """A CORB_THREADS that is not an integer >= 1 is a usage error
        naming the value; nothing is written."""
        monkeypatch.setenv("CORB_THREADS", value)
        out = str(tmp_path / "x.csv")
        code = main(["run", "--set", "pauli:d=2,n=1", "--channel", "identity",
                     "--k", "2", "--lengths", "1,2", "--out", out])
        err = capsys.readouterr().err
        assert code == 1
        assert "CORB_THREADS" in err and f"'{value}'" in err
        assert not os.path.exists(out)

    def test_worker_error_reaches_caller(self, tmp_path, capsys, monkeypatch,
                                         pool_starts):
        """A FidelityRangeError raised inside a worker process comes back to
        the caller with its type and message, and `corb run` exits 2."""
        monkeypatch.setenv("CORB_THREADS", "2")
        gain = [np.sqrt(1.0 + 9e-9) * np.eye(2)]
        cfg = RbRunConfig(gate_set=build_pauli_set(2, 1),
                          noise=NoiseModel(gate_channel=tuple(gain)),
                          lengths=(1000, 2000), k=2, repetitions=2)
        with pytest.raises(FidelityRangeError, match=r"fidelity 1\.0000.*outside \[0, 1\]"):
            run(cfg)
        path = str(tmp_path / "gain.mat")
        write_matrices(path, gain)
        out = str(tmp_path / "x.csv")
        code = main(["run", "--set", "pauli:d=2,n=1", "--channel", f"kraus:{path}",
                     "--k", "2", "--lengths", "1000,2000", "--reps", "2", "--out", out])
        err = capsys.readouterr().err
        assert len(pool_starts) == 2
        assert code == 2
        assert "fidelity 1.0000" in err and "outside [0, 1]" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("mode", MODES)
    def test_out_of_range_fidelity_exit_two(self, mode, tmp_path, capsys):
        """A channel that gains trace within the Kraus-check tolerance
        pushes the fidelity past 1; the run fails, naming the value."""
        path = str(tmp_path / "gain.mat")
        write_matrices(path, [np.sqrt(1.0 + 9e-9) * np.eye(2)])
        gate_path = str(tmp_path / "h.mat")
        write_matrices(gate_path, [H])
        out = str(tmp_path / "x.csv")
        code = main(["run", "--set", "pauli:d=2,n=1", "--channel",
                     f"kraus:{path}", "--mode", mode, "--gate", gate_path,
                     "--k", "2", "--lengths", "2000", "--out", out])
        err = capsys.readouterr().err
        assert code == 2
        assert "fidelity 1.0000" in err and "outside [0, 1]" in err
        assert not os.path.exists(out)

class TestFitCommand:
    def test_fit_exact_decay(self, tmp_path, capsys):
        out = str(tmp_path / "full.csv")
        main(["run", "--set", "pauli:d=2,n=1", "--channel", "dephasing:p=0.01",
              "--final-channel", "identity", "--mode", "coherent-full",
              "--lengths", "1,2,3", "--out", out])
        capsys.readouterr()
        assert main(["fit", out]) == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["chi00"] == pytest.approx(0.99, abs=1e-8)
        assert payload["avg_gate_fidelity"] == pytest.approx(0.99 * 2 / 3 + 1 / 3,
                                                             abs=1e-8)

    def test_fit_irb_pair(self, tmp_path, capsys):
        gate_path = str(tmp_path / "h.mat")
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        write_matrices(gate_path, [h])
        ref = str(tmp_path / "ref.csv")
        inter = str(tmp_path / "int.csv")
        main(["run", "--set", "pauli:d=2,n=1", "--channel", "dephasing:p=0.001",
              "--mode", "coherent-full", "--lengths", "1,2,3", "--out", ref])
        main(["run", "--set", "pauli:d=2,n=1", "--channel", "dephasing:p=0.001",
              "--mode", "interleaved", "--gate", gate_path,
              "--gate-channel", "dephasing:p=0.01", "--k", "64",
              "--lengths", "1,2,3", "--reps", "8", "--seed", "3",
              "--out", inter])
        capsys.readouterr()
        assert main(["fit", "--irb", ref, inter]) == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["chi00_gate"] == pytest.approx(0.99, abs=2e-3)
        assert payload["bound_E"] == pytest.approx(6.3e-3, abs=5e-4)

    def test_iteration_cap_exit_two(self, tmp_path, capsys, monkeypatch):
        out = str(tmp_path / "shots.csv")
        main(["run", "--set", "pauli:d=2,n=1", "--channel", "dephasing:p=0.05",
              "--k", "4", "--lengths", "1,2,4,8", "--reps", "3",
              "--shots", "1000", "--seed", "4", "--out", out])
        monkeypatch.setattr(fitting, "GN_MAX_ITER", 1)
        assert main(["fit", out]) == 2
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["converged"] is False

    def test_missing_set_spec_key_exit_one(self, tmp_path, capsys):
        """A records file whose embedded set spec lacks a key is a usage
        error that names the spec and the key."""
        path = str(tmp_path / "r.csv")
        records = [FidelityRecord("coherent-full", m, 0, 0.99 ** m, 4, f"{m}/full")
                   for m in (1, 2, 3)]
        write_records_csv(path, records, {"set_spec": "pauli:d=2"})
        assert main(["fit", path]) == 1
        err = capsys.readouterr().err
        assert "set spec 'pauli:d=2' is missing key 'n'" in err

    def test_missing_file_exit_one(self, capsys):
        assert main(["fit", "/nonexistent/records.csv"]) == 1
        capsys.readouterr()

    def test_no_args_exit_one(self, capsys):
        assert main(["fit"]) == 1
        capsys.readouterr()


class TestExperimentCommand:
    def test_unknown_scenario(self, tmp_path, capsys):
        assert main(["experiment", "fig9z", "--out", str(tmp_path)]) == 1
        capsys.readouterr()

    def test_fig5c_scenario(self, tmp_path, capsys):
        outdir = str(tmp_path / "f5c")
        assert main(["experiment", "fig5c", "--out", outdir]) == 0
        capsys.readouterr()
        verdict = json.loads(open(os.path.join(outdir, "fig5c_verdict.json")).read())
        assert verdict["k"] == 25
        assert verdict["standard_max_deviation"] > verdict["coherent_max_deviation"]
        coherent_csv = open(os.path.join(outdir, "fig5c_coherent.csv")).read()
        rows = coherent_csv.splitlines()
        assert rows[0] == "m,repetition,fidelity,reference,deviation"
        assert len(rows) == 1 + 6 * 75

    def test_irb_demo(self, tmp_path, capsys):
        outdir = str(tmp_path / "demo")
        assert main(["experiment", "irb-demo", "--out", outdir]) == 0
        capsys.readouterr()
        verdict = json.loads(open(os.path.join(outdir, "irb_demo_verdict.json")).read())
        assert verdict["covered"] is True
        assert verdict["planted_chi00"] == pytest.approx(0.99)
        assert abs(verdict["chi00_gate_estimate"] - 0.99) <= verdict["bound_E"]
        assert os.path.exists(os.path.join(outdir, "irb_reference.csv"))
        assert os.path.exists(os.path.join(outdir, "irb_interleaved.csv"))
