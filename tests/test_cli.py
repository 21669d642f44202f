"""CLI surface: subcommands, exit codes, file formats, reproducibility."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import corb
from corb import cli, fitting
from corb.cli import ExperimentConfig, _run_inputs, main
from corb.engine import MODES, FidelityRangeError, FidelityRecord, RbRunConfig, run
from corb.fitting import DecayFit
from corb.gatesets import _FAMILIES, build_pauli_set, parse_set_spec, set_spec_dims
from corb.io import (
    atomic_write,
    parse_complex,
    read_matrices,
    read_matrix,
    read_records,
    write_records_csv,
    write_records_json,
)
from corb.noise import _CHANNELS, NoiseModel, dephasing_kraus
from helpers import (
    format_complex,
    haar_unitary,
    standard_closed_form,
    write_matrices,
)

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def strict_json(text: str):
    """json.loads that refuses the NaN and Infinity extensions."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


def run_main(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


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

    @pytest.mark.parametrize("token", ["nan+0i", "0+nani", "1e999+0i"])
    def test_non_finite_entry_names_file_and_row(self, tmp_path, token):
        path = tmp_path / "bad.mat"
        path.write_text(f"dim 2 2\n1+0i 0+0i\n0+0i {token}\n")
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: row 1 has a non-finite entry")):
            read_matrices(str(path))

    @pytest.mark.parametrize("header", ["dim 0 0", "dim -1 2", "dim x 2"])
    def test_bad_size_names_file(self, tmp_path, header):
        """A size that is not an integer >= 1 is refused with the file
        named, not a numpy or int() message."""
        path = tmp_path / "bad.mat"
        path.write_text(f"{header}\n1+0i 0+0i\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: matrix sizes must be integers >= 1, got {header!r}")):
            read_matrices(str(path))

    def test_wide_header_is_refused_before_allocation(self, tmp_path):
        """A header far wider than its rows is a row-width error, not an
        attempt to allocate the declared 16 TB."""
        path = tmp_path / "wide.mat"
        path.write_text("dim 1 1000000000000\n1+0i 0+0i\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: row 0 has 2 entries, header says 1000000000000")):
            read_matrices(str(path))


class TestAtomicWrite:
    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600),
                                            (0o002, 0o664)])
    def test_file_mode_follows_umask(self, tmp_path, umask, mode):
        path = tmp_path / "missing" / "dir" / "out.txt"
        old = os.umask(umask)
        try:
            atomic_write(str(path), "x\n")
        finally:
            os.umask(old)
        assert path.read_text() == "x\n"
        assert path.stat().st_mode & 0o777 == mode


class TestRecordFiles:
    @staticmethod
    def sample_records():
        config = ExperimentConfig(set_spec="pauli:d=2,n=1",
                                  channel_spec="dephasing:p=0.01",
                                  lengths=(1, 2, 3), k=4, seed=5)
        return run(_run_inputs(config)), config

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_missing_column_named(self, tmp_path, fmt):
        records, _ = self.sample_records()
        path = str(tmp_path / f"r.{fmt}")
        (write_records_csv if fmt == "csv" else write_records_json)(path, records)
        text = Path(path).read_text()
        if fmt == "csv":
            text = text.replace("seed_stream", "stream", 1)
        else:
            payload = json.loads(text)
            del payload["records"][2]["seed_stream"]
            text = json.dumps(payload)
        Path(path).write_text(text)
        with pytest.raises(ValueError, match=r"missing column 'seed_stream'"):
            read_records(path)

    @staticmethod
    def spoil(path, fmt, records, column, value):
        """Write `records` to `path` with `column` of the second row set to
        `value` (a CSV cell, or a JSON value; nan and inf as bare NaN and
        Infinity, which Python's JSON reader accepts)."""
        if fmt == "csv":
            write_records_csv(path, records)
            lines = Path(path).read_text().splitlines()
            header = lines[0].split(",")
            cells = lines[2].split(",")
            cells[header.index(column)] = str(value)
            lines[2] = ",".join(cells)
            text = "\n".join(lines) + "\n"
        else:
            write_records_json(path, records)
            payload = json.loads(Path(path).read_text())
            payload["records"][1][column] = value
            text = json.dumps(payload)
        Path(path).write_text(text)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_fidelity_refused(self, tmp_path, fmt, value):
        """A non-finite fidelity is refused with the file and the row;
        `corb fit` exits 1 with that message instead of failing on
        non-JSON-compliant output."""
        records, _ = self.sample_records()
        path = str(tmp_path / f"r.{fmt}")
        self.spoil(path, fmt, records, "fidelity", value)
        message = f"{path}: row 2: fidelity .* is not finite"
        with pytest.raises(ValueError, match=message):
            read_records(path)
        status, out, err = run_main(["fit", path])
        assert status == 1 and out == ""
        assert re.fullmatch(f"error: {message}\n", err), err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("column,value,kind", [
        ("m", "x", "int"), ("k", 2.5, "int"), ("repetition", "", "int"),
        ("fidelity", "high", "float")])
    def test_unconvertible_value_named(self, tmp_path, fmt, column, value, kind):
        """A value that does not convert to its column's type names the
        file, the row, the column and the value; `corb fit` exits 1."""
        records, _ = self.sample_records()
        path = str(tmp_path / f"r.{fmt}")
        self.spoil(path, fmt, records, column, value)
        message = (f"{path}: row 2: bad {kind} for '{column}': "
                   f"{(str(value) if fmt == 'csv' else value)!r}")
        with pytest.raises(ValueError, match=re.escape(message)):
            read_records(path)
        status, _, err = run_main(["fit", path])
        assert status == 1 and message in err

    @pytest.mark.parametrize("column,value,kind", [
        ("mode", None, "str"), ("seed_stream", 7, "str"), ("m", True, "int"),
        ("fidelity", None, "float")])
    def test_json_value_of_wrong_type_named(self, tmp_path, column, value, kind):
        """A JSON value is not coerced into its column: a null, a number
        for a string, or a boolean for an integer is refused by row."""
        records, _ = self.sample_records()
        path = str(tmp_path / "r.json")
        self.spoil(path, "json", records, column, value)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: row 2: bad {kind} for '{column}': {value!r}")):
            read_records(path)

    @pytest.mark.parametrize("text,fault", [
        ('{"format": "corb-records"}', "not a corb records file"),
        ('{"format": "corb-records", "records": [1, 2]}', "not a corb records file"),
        ('{"format": "corb-records", "records": {}}', "not a corb records file"),
        ('{"format": "corb-records", "records": [', "not valid JSON"),
    ], ids=["no-records", "not-objects", "not-a-list", "truncated"])
    def test_malformed_json_document_named(self, tmp_path, text, fault):
        """A JSON document without a list of record objects is refused
        with the file named (exit 1), not a bare KeyError or TypeError."""
        path = str(tmp_path / "r.json")
        Path(path).write_text(text)
        status, _, err = run_main(["fit", path])
        assert status == 1 and err.startswith(f"error: {path}: {fault}"), err

    @pytest.mark.parametrize("fmt,config,fault", [
        ("csv", '{"set_spec": ', "config line is not valid JSON"),
        ("csv", "3", "config is not a JSON object"),
        ("csv", '["x"]', "config is not a JSON object"),
        ("json", 3, "config is not a JSON object"),
        ("json", ["x"], "config is not a JSON object"),
    ], ids=["csv-truncated", "csv-number", "csv-list", "json-number", "json-list"])
    def test_bad_config_named(self, tmp_path, fmt, config, fault):
        """An embedded config that is not valid JSON, or not a JSON object,
        is refused with the file named; `corb fit` exits 1 instead of
        printing a bare decoder message or a TypeError traceback."""
        records, _ = self.sample_records()
        path = str(tmp_path / f"r.{fmt}")
        if fmt == "csv":
            write_records_csv(path, records)
            text = f"# config {config}\n" + Path(path).read_text()
        else:
            write_records_json(path, records)
            payload = json.loads(Path(path).read_text())
            payload["config"] = config
            text = json.dumps(payload)
        Path(path).write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {fault}")):
            read_records(path)
        status, out, err = run_main(["fit", path])
        assert status == 1 and out == ""
        assert err.startswith(f"error: {path}: {fault}"), err

    def test_short_csv_row_named(self, tmp_path):
        """A CSV row with a missing cell is refused, not read as 'None'."""
        records, _ = self.sample_records()
        path = str(tmp_path / "r.csv")
        write_records_csv(path, records)
        lines = Path(path).read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0]
        Path(path).write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: row 3: bad str for 'seed_stream': None")):
            read_records(path)


def config_from_dict(d: dict) -> ExperimentConfig:
    """The ExperimentConfig of an embedded config dict (`to_dict`)."""
    return ExperimentConfig(**{**d, "lengths": tuple(d["lengths"])})


class TestExperimentConfig:
    def test_dict_round_trip(self):
        config = ExperimentConfig(set_spec="clifford:d=2,n=1",
                                  channel_spec="infidelity-dephasing:r=1e-4",
                                  mode="coherent", k=20, lengths=(2, 4, 8),
                                  repetitions=3, seed=11)
        assert config_from_dict(config.to_dict()) == config

    def test_embedded_config_reruns_identically(self, tmp_path):
        records, config = TestRecordFiles.sample_records()
        path = str(tmp_path / "r.csv")
        write_records_csv(path, records, config.to_dict())
        _, loaded_config = read_records(path)
        replayed = run(_run_inputs(config_from_dict(loaded_config)))
        assert replayed == records

    def test_spec_dims(self, tmp_path):
        assert set_spec_dims("pauli:d=3,n=2") == (3, 2)
        assert set_spec_dims("controlled:d=2") == (2, 2)
        assert set_spec_dims("ms:n=3,theta=0.2") == (2, 3)

    # One or more specs per family; a family missing here fails its case.
    SPECS = {
        "pauli": ["pauli:d=3,n=2"],
        "clifford": ["clifford:d=3,n=1"],
        "controlled": ["controlled:d=2", "controlled:d=3"],
        "two-control": ["two-control"],
        "ms": ["ms:n=3,theta=0.2"],
        "dressed": ["dressed:d=2,n=2,u={u}"],
        "custom": ["custom:{set}"],
    }

    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_spec_dims_match_the_built_set(self, family, tmp_path):
        paths = {"u": str(tmp_path / "u.mat"), "set": str(tmp_path / "set.mat")}
        write_matrices(paths["u"], [np.kron(H, H)])
        write_matrices(paths["set"], [np.eye(3), np.diag([1, -1, 1])])
        assert family in self.SPECS, f"no example spec for family {family!r}"
        for template in self.SPECS[family]:
            spec = template.format(**paths)
            gs = parse_set_spec(spec)
            assert gs.family == family
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
        report = json.loads(Path(path).read_text())
        assert report["passed"] is True
        assert report["elements"] == 16

    def test_json_line_is_strict_json(self, tmp_path):
        path = str(tmp_path / "iz.mat")
        write_matrices(path, [np.eye(2), np.diag([1.0, -1.0])])
        for spec, code in (("ms:n=2,theta=0.3", 0), (f"custom:{path}", 2)):
            status, out, _ = run_main(["check-set", spec])
            assert status == code
            report = strict_json(out.splitlines()[-1])
            assert report["set"] == spec and report["passed"] is (code == 0)

    def test_one_dimensional_set_exit_one(self, tmp_path):
        """A 1 x 1 custom set is refused with one error line naming the
        file, by `check-set` and by `run`, not with a traceback."""
        path = tmp_path / "one.mat"
        path.write_text("dim 1 1\n1\n")
        out = tmp_path / "x.csv"
        for argv in (["check-set", f"custom:{path}"],
                     ["run", "--set", f"custom:{path}", "--channel", "identity",
                      "--out", str(out)]):
            status, stdout, err = run_main(argv)
            assert status == 1 and stdout == ""
            assert err == (f"error: {path}: a gate set's qudit dimension must be >= 2, "
                           f"got d = 1\n")
        assert not out.exists()

    def test_custom_set_past_the_budget_exit_two(self, tmp_path):
        """The basis of a 65 x 65 custom set is past the array budget: a
        DimensionError, exit 2, as every memory refusal outside a spec."""
        path = tmp_path / "big.mat"
        write_matrices(str(path), [np.eye(65)])
        status, out, err = run_main(["check-set", f"custom:{path}"])
        assert status == 2 and out == ""
        assert err == ("error: the Pauli basis of d=65, n=1 needs 285610000 bytes (a d^(2n) "
                       "x d^n x d^n complex128 stack); the budget is 268435456 bytes\n")

    @pytest.mark.parametrize("spec", [
        "pauli:d=2,n=7142", "pauli:d=2,n=7143", "pauli:d=3,n=10000000",
        "ms:n=10000000,theta=0.1", f"controlled:d={10 ** 800}",
    ], ids=["pauli-7142", "pauli-7143", "pauli-3-10^7", "ms-10^7", "controlled-10^800"])
    def test_absurd_keys_exit_one_with_a_readable_line(self, spec):
        """Keys whose sets would have thousands of digits of bytes are
        refused at once with the byte budget; their needs were once printed
        with 4300 digits, or not at all (Python's limit for an integer's
        string), after seconds of arithmetic for d = 3."""
        status, out, err = run_main(["check-set", spec])
        assert status == 1 and out == ""
        assert err.count("\n") == 1 and "the budget is 268435456 bytes" in err
        assert len(err) < 2 * len(spec) + 200

    def test_dressed_set_of_an_absurd_size_exit_one(self, tmp_path):
        path = tmp_path / "u.mat"
        write_matrices(str(path), [np.eye(2)])
        spec = f"dressed:d=3,n=10000000,u={path}"
        status, out, err = run_main(["check-set", spec])
        assert status == 1 and out == ""
        assert err == f"error: set spec {spec!r}: unitary dimension 2 != 3^10000000\n"

    def test_non_finite_matrix_file_exit_one(self, tmp_path):
        """A NaN entry used to pass the unitarity check and print NaN JSON."""
        path = tmp_path / "nan.mat"
        path.write_text("dim 2 2\nnan+0i 0+0i\n0+0i 1+0i\n")
        status, out, err = run_main(["check-set", f"custom:{path}"])
        assert status == 1
        assert out == ""
        assert err == f"error: {path}: row 0 has a non-finite entry\n"


SET_PROBES = [
    ("pauli:d=2,n=1,extra=3", "has unknown key 'extra'"),
    ("pauli:d=2,n=x", "bad int for key 'n': 'x'"),
    ("ms:n=2,theta=nan", "bad float for key 'theta': 'nan'"),
    ("ms:n=2,theta=-inf", "bad float for key 'theta': '-inf'"),
    ("pauli:d=2,d=2,n=1", "repeats key 'd'"),
    ("pauli:n=1,d=2,x=1,x=2", "has unknown key 'x'"),
    ("depolarizing:p=0.1", "has unknown name 'depolarizing'"),
    ("two-control:d=2", "has unknown key 'd'"),
    ("pauli:d=2,,n=1", "has unknown key ''"),
    ("custom:", "is missing its file path"),
    ("pauli:d=2,n=-1", "key 'n' must be >= 1, got '-1'"),
    ("pauli:d=1,n=1", "key 'd' must be >= 2, got '1'"),
    ("clifford:d=2,n=0", "key 'n' must be >= 1, got '0'"),
    ("controlled:d=0", "key 'd' must be >= 2, got '0'"),
    ("ms:n=-3,theta=0.5", "key 'n' must be >= 2, got '-3'"),
    ("ms:n=1,theta=0.3", "key 'n' must be >= 2, got '1'"),
    ("controlled:d=11", "d=11 needs 453519616 bytes (4 d^4 complex128 matrices of "
                        "dimension 2d); the budget is 268435456 bytes"),
    ("pauli:d=2,n=7", "d=2, n=7 needs 4294967296 bytes (a d^(2n) x d^n x d^n complex128 "
                      "stack); the budget is 268435456 bytes"),
    ("dressed:d=-2,n=1,u=u.mat", "key 'd' must be >= 2, got '-2'"),
]
CHANNEL_PROBES = [
    ("dephasing:p=0.01,q=3", "has unknown key 'q'"),
    ("depolarizing:q=0.1,q=2", "is missing key 'p'"),
    ("identity:p=0", "has unknown key 'p'"),
    ("infidelity-dephasing:r=inf", "bad float for key 'r': 'inf'"),
    ("kraus", "is missing its file path"),
]


def run_channel(spec: str) -> tuple[int, str, str]:
    """`corb run` with a valid set and the given channel spec; a refused
    spec stops it before the engine runs or any file is written."""
    return run_main(["run", "--set", "pauli:d=2,n=1", "--channel", spec,
                     "--lengths", "1,2,3", "--out", os.devnull])


class TestSpecRefusals:
    """Malformed spec strings exit 1 with one error line that names the
    spec and the fault, never a traceback or a silent acceptance."""

    @staticmethod
    def assert_refused(result, spec, what, fault=None):
        status, _, err = result
        assert status == 1, (spec, err)
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert f"{what} spec {spec!r}" in lines[0], err
        if fault is not None:
            assert fault in lines[0], err

    @pytest.mark.parametrize("spec,fault", SET_PROBES)
    def test_set_spec_probe(self, spec, fault):
        self.assert_refused(run_main(["check-set", spec]), spec, "set", fault)

    @pytest.mark.parametrize("spec,fault", CHANNEL_PROBES)
    def test_channel_spec_probe(self, spec, fault):
        self.assert_refused(run_channel(spec), spec, "channel", fault)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_malformed_set_specs(self, data):
        spec = data.draw(malformed_specs(_FAMILIES))
        self.assert_refused(run_main(["check-set", spec]), spec, "set")

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_malformed_channel_specs(self, data):
        spec = data.draw(malformed_specs(_CHANNELS))
        self.assert_refused(run_channel(spec), spec, "channel")


_VALID_VALUE = {int: "2", float: "0.01", str: "u.mat"}
_NAME_CHARS = "abcdefghijklmnopqrstuvwxyz-"


@st.composite
def malformed_specs(draw, table):
    """A spec with exactly one fault, built from a valid keyed spec of
    `table`: an unknown name; an unknown, empty, repeated or missing key;
    a value its type cannot read; an int below its key's minimum; or a
    non-finite float."""
    name = draw(st.sampled_from(sorted(n for n, e in table.items() if e.keys is not None)))
    keys = table[name].keys
    pairs = [(key, _VALID_VALUE[kind]) for key, kind in keys.items()]
    numeric = [i for i, (key, _) in enumerate(pairs) if keys[key] is not str]
    faults = ["name", "unknown", "empty"]
    if pairs:
        faults += ["repeat", "missing"]
    if numeric:
        faults += ["value"]
    if any(keys[pairs[i][0]] is float for i in numeric):
        faults += ["non-finite"]
    if any(keys[pairs[i][0]] is int for i in numeric):
        faults += ["below"]
    fault = draw(st.sampled_from(faults))
    if fault == "name":
        name = draw(st.text(_NAME_CHARS, min_size=1, max_size=12).filter(
            lambda s: s not in table and not s.startswith("-")))
    elif fault == "unknown":
        key = draw(st.text("abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=6)
                   .filter(lambda s: s not in keys))
        pairs.insert(draw(st.integers(0, len(pairs))), (key, "1"))
    elif fault == "empty":
        pairs.insert(draw(st.integers(0, len(pairs))), ("", draw(st.sampled_from(["", "1"]))))
    elif fault == "repeat":
        pairs.append(pairs[draw(st.integers(0, len(pairs) - 1))])
    elif fault == "missing":
        del pairs[draw(st.integers(0, len(pairs) - 1))]
    elif fault == "value":
        i = draw(st.sampled_from(numeric))
        bad = ["", "x", "two", "1.2.3", "0x1g", "1e"]
        if keys[pairs[i][0]] is int:
            bad += ["0.5", "2.0", "1e3"]
        pairs[i] = (pairs[i][0], draw(st.sampled_from(bad)))
    elif fault == "below":
        i = draw(st.sampled_from([i for i in numeric if keys[pairs[i][0]] is int]))
        least = table[name].minima[pairs[i][0]]
        pairs[i] = (pairs[i][0], str(least - draw(st.integers(1, 10 ** 6))))
    else:
        i = draw(st.sampled_from([i for i in numeric if keys[pairs[i][0]] is float]))
        pairs[i] = (pairs[i][0], draw(st.sampled_from(
            ["nan", "NaN", "inf", "-inf", "Infinity", "+inf", "1e999"])))
    return name + ":" + ",".join(f"{key}={value}" for key, value in pairs)


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
    @pytest.mark.parametrize("lengths", ["2,x", "2,,4", "1.5", ""])
    def test_bad_lengths_named(self, lengths, tmp_path):
        """A --lengths value that is not a list of integers names the
        option and the value (exit 1); nothing is written."""
        out = str(tmp_path / "r.csv")
        status, _, err = run_main(["run", "--set", "pauli:d=2,n=1", "--channel",
                                   "identity", "--lengths", lengths, "--out", out])
        assert status == 1
        assert err == (f"error: --lengths must be comma-separated integers, "
                       f"got {lengths!r}\n")
        assert not os.path.exists(out)

    def test_unset_options_take_the_config_defaults(self, tmp_path, capsys):
        """An option left out stores nothing, and its field keeps the
        ExperimentConfig default, the one place each default is stated."""
        out = str(tmp_path / "r.csv")
        assert main(["run", "--set", "pauli:d=2,n=1", "--channel", "identity",
                     "--out", out]) == 0
        capsys.readouterr()
        _, config = read_records(out)
        assert config_from_dict(config) == ExperimentConfig(
            set_spec="pauli:d=2,n=1", channel_spec="identity", out=out)

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
        a = Path(out1).read_bytes()
        b = Path(out2).read_bytes()
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

    @pytest.mark.parametrize("mode,option", [
        ("coherent", ["--q", "0.9"]),
        ("standard", ["--q", "0.9"]),
        ("coherent-full", ["--q", "0.9"]),
        ("coherent", ["--gate", "GATE"]),
        ("coherent-control-noise", ["--gate-channel", "dephasing:p=0.01"]),
        ("interleaved", ["--final-channel", "identity"]),
        ("coherent-full", ["--shots", "100"]),
        ("coherent-full", ["--k", "80"]),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_option_the_mode_ignores_exit_one(self, mode, option, tmp_path, capsys):
        """An option that the mode would drop silently is refused, with
        one error line naming the option and the mode."""
        gate_path = str(tmp_path / "h.mat")
        write_matrices(gate_path, [H])
        out = str(tmp_path / "x.csv")
        code = main(["run", "--set", "pauli:d=2,n=1", "--channel", "identity",
                     "--mode", mode, "--k", "2", "--out", out]
                    + self.own_options(mode, gate_path)
                    + [gate_path if x == "GATE" else x for x in option])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: ")
        assert f"mode {mode} ignores {option[0]};" in err[0]
        assert not os.path.exists(out)

    @staticmethod
    def own_options(mode, gate_path):
        """The options only `mode` reads, as argv."""
        return {"interleaved": ["--gate", gate_path],
                "coherent-control-noise": ["--q", "0.95"]}.get(mode, [])

    @staticmethod
    def k_option(mode, k):
        """`--k k`, as argv, in the sampled modes, which read it."""
        return [] if mode == "coherent-full" else ["--k", str(k)]

    @pytest.mark.parametrize("mode", MODES)
    def test_every_mode_through_run_and_cli(self, mode, tmp_path, capsys):
        """Each mode of the table gives the same records from `run` and
        from `corb run --mode`."""
        gate_path = str(tmp_path / "h.mat")
        write_matrices(gate_path, [H])
        out = str(tmp_path / "r.csv")
        q = 0.95 if mode == "coherent-control-noise" else 1.0
        code = main(["run", "--set", "pauli:d=2,n=1", "--channel",
                     "dephasing:p=0.01", "--mode", mode,
                     "--lengths", "1,2,3", "--reps", "2", "--seed", "5", "--out", out]
                    + self.k_option(mode, 3) + self.own_options(mode, gate_path))
        capsys.readouterr()
        assert code == 0
        noise = NoiseModel(gate_channel=tuple(dephasing_kraus(0.01, 2)),
                           control_q=q)
        gate = H if mode == "interleaved" else None
        cfg = RbRunConfig(gate_set=build_pauli_set(2, 1), noise=noise,
                          lengths=(1, 2, 3), k=3, repetitions=2, seed=5,
                          mode=mode, interleaved_gate=gate)
        records = run(cfg)
        assert len(records) == 6 and {r.mode for r in records} == {mode}
        rows, _ = read_records(out)
        assert [FidelityRecord(**r) for r in rows] == records

    @pytest.mark.parametrize("flag,matrices,message", [
        ("--channel", [np.eye(3)], "m.mat: Kraus operator 0 has shape (3, 3)"),
        ("--gate", [np.eye(4)], "interleaved gate has shape (4, 4)"),
        ("--gate-channel", dephasing_kraus(0.1, 3),
         "m.mat: Kraus operator 0 has shape (3, 3)"),
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

    @pytest.mark.parametrize("flag", ["--channel", "--final-channel", "--gate-channel"])
    def test_kraus_file_of_another_dimension_is_refused_where_it_is_read(
            self, flag, tmp_path, monkeypatch):
        """A `kraus:` file of 3 x 3 operators for a qubit set is refused
        naming the file and both sizes, before any superoperator is
        built (once the file's 3 x 3 one was, before a message that did not
        name the file)."""
        class Built(Exception):
            pass

        def built(kraus):
            raise Built

        monkeypatch.setattr("corb.noise.superop", built)
        path = str(tmp_path / "k3.mat")
        write_matrices(path, [np.eye(3)])
        h_path = str(tmp_path / "h.mat")
        write_matrices(h_path, [H])
        args = {"--channel": "identity", flag: f"kraus:{path}"}
        if flag == "--gate-channel":
            args.update({"--mode": "interleaved", "--gate": h_path})
        out = str(tmp_path / "x.csv")
        status, _, err = run_main(["run", "--set", "pauli:d=2,n=1", "--k", "2",
                                   "--out", out]
                                  + [x for item in args.items() for x in item])
        assert status == 1
        assert err == (f"error: {path}: Kraus operator 0 has shape (3, 3); "
                       f"the gate set needs (2, 2)\n")
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
        assert "needs 1152768000 bytes" in err and "805306368 bytes" in err
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
        monkeypatch.setattr("corb.engine.STATE_BUDGET_BYTES", 64 * 3 * 2 ** 2 - 1)
        out = str(tmp_path / "x.csv")
        code = main(["run", "--set", "pauli:d=2,n=1", "--channel", "identity",
                     "--mode", "standard", "--k", "3", "--out", out])
        err = capsys.readouterr().err
        assert code == 2
        assert "needs 768 bytes" in err and "the budget is 767 bytes" in err
        assert not os.path.exists(out)

    @pytest.fixture
    def default_int_digits(self):
        """Python's default limit of 4300 digits on an integer's string."""
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python converts an integer of any length to a string")
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield
        sys.set_int_max_str_digits(before)

    def test_unwritable_k_exit_one(self, tmp_path, default_int_digits):
        """A coherent-full length whose k column, 4^m, has more digits than
        Python writes (4300 by default) is refused before anything runs,
        naming the length; nothing is written. One length less is
        written."""
        out = tmp_path / "c.csv"
        argv = ["run", "--set", "pauli:d=2,n=1", "--channel", "depolarizing:p=0.001",
                "--mode", "coherent-full", "--out", str(out), "--lengths"]
        status, _, err = run_main(argv + ["1,2,7143"])
        assert status == 1 and not out.exists()
        assert err == ("error: length 7143: k = |G|^m = 4^7143 has 4301 digits, over "
                       "Python's limit of 4300 for an integer's string\n")
        assert run_main(argv + ["1,2,7142"])[0] == 0
        rows, _ = read_records(str(out))
        assert rows[-1]["k"] == 4 ** 7142

    def test_worker_error_reaches_caller(self, tmp_path, capsys, pool_starts,
                                         gainless_noise_models):
        """A FidelityRangeError raised inside a worker process comes back to
        the caller with its type and message, and `corb run` exits 2. The
        gate channel gains 9e-10 of trace, and the same channel after the
        closing inverse carries the fidelity to 1 + 1.8e-9; the noise
        model reports no gain, so the boundary check lets the run start."""
        gain = [np.sqrt(1.0 + 9e-10) * np.eye(2)]
        cfg = RbRunConfig(gate_set=build_pauli_set(2, 1),
                          noise=NoiseModel(gate_channel=tuple(gain)),
                          lengths=(1,), k=2, repetitions=2)
        with pytest.raises(FidelityRangeError, match=r"fidelity 1\.0000.*outside \[0, 1\]"):
            run(cfg)
        path = str(tmp_path / "gain.mat")
        write_matrices(path, gain)
        out = str(tmp_path / "x.csv")
        code = main(["run", "--set", "pauli:d=2,n=1", "--channel", f"kraus:{path}",
                     "--k", "2", "--lengths", "1", "--reps", "2", "--out", out])
        err = capsys.readouterr().err
        assert len(pool_starts) == 2
        assert code == 2
        assert "fidelity 1.0000" in err and "outside [0, 1]" in err
        assert not os.path.exists(out)

    @staticmethod
    def _gain_args(tmp_path, mode, excess, length):
        """`corb run` arguments with the gate channel, and in interleaved
        mode also the interleaved channel, gaining `excess` of trace."""
        path = str(tmp_path / "gain.mat")
        write_matrices(path, [np.sqrt(1.0 + excess) * np.eye(2)])
        gate_path = str(tmp_path / "h.mat")
        write_matrices(gate_path, [H])
        interleaved = ["--gate", gate_path, "--gate-channel", f"kraus:{path}"]
        return (["run", "--set", "pauli:d=2,n=1", "--channel", f"kraus:{path}",
                 "--mode", mode, "--lengths", str(length),
                 "--out", str(tmp_path / "x.csv")]
                + TestRunCommand.k_option(mode, 2)
                + (interleaved if mode == "interleaved" else []))

    @pytest.mark.parametrize("mode", MODES)
    def test_out_of_range_fidelity_exit_two(self, mode, tmp_path, capsys,
                                            gainless_noise_models):
        """Each channel gains 9e-10 of trace, and two of them in one
        sequence (gate and final channel, or gate and interleaved channel)
        push the fidelity to 1 + 1.8e-9; the run fails, naming the value.
        The noise model reports no gain, so the boundary check, which
        refuses that pair (below), lets the run start; in interleaved mode
        the interleaved channel alone, 9e-10 over one position, passes it."""
        code = main(self._gain_args(tmp_path, mode, 9e-10, 1))
        err = capsys.readouterr().err
        assert code == 2
        assert "fidelity 1.0000" in err and "outside [0, 1]" in err
        assert not os.path.exists(tmp_path / "x.csv")

    @pytest.mark.parametrize("mode", MODES)
    def test_trace_gaining_channel_exit_one(self, mode, tmp_path, capsys):
        """A channel that gains 9e-9 of trace, within the Kraus-check
        tolerance, is refused at length 2000 before anything runs, with
        delta and the length named."""
        code = main(self._gain_args(tmp_path, mode, 9e-9, 2000))
        err = capsys.readouterr().err
        assert code == 1
        assert "channel gains trace: delta = lambda_max(sum K^dag K) - 1 = 9.000e-09" in err
        assert "at length m = 2000" in err
        assert not os.path.exists(tmp_path / "x.csv")

    @pytest.mark.parametrize("mode", MODES)
    def test_trace_gaining_pair_exit_one(self, mode, tmp_path, capsys):
        """Two channels that each gain 9e-10 of trace, the gate and the
        final channel, are refused together at length 1, before anything
        runs: (1 + delta)^2 - 1 = 1.8e-9."""
        code = main(self._gain_args(tmp_path, mode, 9e-10, 1))
        err = capsys.readouterr().err
        assert code == 1
        assert ("gate channel gains trace: delta = lambda_max(sum K^dag K) - 1 = "
                "9.000e-10, final channel delta = 9.000e-10, so (1 + delta_gate)^m "
                "(1 + delta_final) - 1 = 1.800e-09 exceeds 1e-09 at length m = 1") in err
        assert not os.path.exists(tmp_path / "x.csv")

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

    def test_singular_covariance_writes_null_stderr(self, tmp_path, monkeypatch):
        """A NaN standard error is written as JSON null, not as NaN."""
        path = str(tmp_path / "r.csv")
        write_records_csv(path, [FidelityRecord("coherent", m, 0, 0.9 ** m, 4, f"{m}/0")
                                 for m in (1, 2, 3)])
        monkeypatch.setattr(cli, "fit_records",
                            lambda records: DecayFit(1.0, 0.9, 0.0, 3, True))
        json_path = str(tmp_path / "fit.json")
        status, out, _ = run_main(["fit", path, "--json", json_path])
        assert status == 0
        for text in (out.splitlines()[-1], Path(json_path).read_text()):
            payload = strict_json(text)
            assert payload["stderr_A"] is None and payload["stderr_chi00"] is None
            assert payload["chi00"] == 0.9

    @pytest.mark.parametrize("argv", [
        ["fit", "{dir}"],
        ["fit", "--irb", "{dir}", "{dir}"],
        ["run", "--set", "pauli:d=2,n=1", "--channel", "identity", "--out", "{dir}"],
    ], ids=["fit", "fit-irb", "run-out"])
    def test_directory_for_a_file_exit_one(self, argv, tmp_path):
        """An operating-system error on a path (here a directory where a
        file is needed) is one error line naming the path, exit 1, not a
        traceback."""
        path = str(tmp_path)
        status, _, err = run_main([arg.format(dir=path) for arg in argv])
        assert status == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Is a directory" in err and repr(path) in err

    def test_not_a_records_file_exit_one(self, tmp_path):
        path = str(tmp_path / "h.mat")
        write_matrices(path, [H])
        status, _, err = run_main(["fit", path])
        assert status == 1
        assert err == (f"error: {path}: not a corb records file "
                       "(missing column 'mode')\n")

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

    def test_absurd_set_spec_exit_one_at_once(self, tmp_path):
        """An embedded set spec whose d^n is past any builder's bound is
        refused as a spec before the power is formed; it used to take
        seconds and end in an OverflowError traceback."""
        path = str(tmp_path / "r.csv")
        records = [FidelityRecord("coherent-full", m, 0, 0.99 ** m, 4, f"{m}/full")
                   for m in (1, 2, 3)]
        write_records_csv(path, records, {"set_spec": "pauli:d=3,n=10000000"})
        start = time.perf_counter()
        status, out, err = run_main(["fit", path])
        assert time.perf_counter() - start < 1.0
        assert status == 1 and out == ""
        assert err.startswith("error: set spec 'pauli:d=3,n=10000000': ")
        assert err.count("\n") == 1

    def test_set_spec_not_a_string_exit_one(self, tmp_path):
        """An embedded set spec that is not a string is refused with the
        file named, not an AttributeError traceback."""
        path = str(tmp_path / "r.csv")
        records = [FidelityRecord("coherent-full", m, 0, 0.99 ** m, 4, f"{m}/full")
                   for m in (1, 2, 3)]
        write_records_csv(path, records, {"set_spec": 3})
        status, out, err = run_main(["fit", path])
        assert status == 1 and out == ""
        assert err == f"error: {path}: config set_spec is not a string: 3\n"

    def test_missing_file_exit_one(self, capsys):
        assert main(["fit", "/nonexistent/records.csv"]) == 1
        capsys.readouterr()

    def test_no_args_exit_one(self):
        status, out, err = run_main(["fit"])
        assert status == 1 and out == ""
        assert err == "error: fit takes one records file or --irb REF INTERLEAVED\n"

    def test_records_file_with_irb_exit_one(self, tmp_path):
        """A records file beside --irb is refused, not silently ignored."""
        path = str(tmp_path / "r.csv")
        write_records_csv(path, [FidelityRecord("coherent-full", m, 0, 0.99 ** m, 4,
                                                f"{m}/full") for m in (1, 2, 3)])
        status, out, err = run_main(["fit", path, "--irb", path, path])
        assert status == 1 and out == ""
        assert err == "error: fit takes one records file or --irb REF INTERLEAVED\n"


class TestExperimentCommand:
    def test_unknown_scenario(self, tmp_path):
        status, out, err = run_main(["experiment", "fig9z", "--out", str(tmp_path)])
        assert status == 1 and out == ""
        assert err.startswith("error: unknown scenario 'fig9z'; available: ")
        assert err.count("\n") == 1

    def test_fig5c_scenario(self, tmp_path, capsys):
        outdir = str(tmp_path / "f5c")
        assert main(["experiment", "fig5c", "--out", outdir]) == 0
        capsys.readouterr()
        verdict = json.loads(Path(os.path.join(outdir, "fig5c_verdict.json")).read_text())
        assert verdict["k"] == 25
        assert verdict["standard_max_deviation"] > verdict["coherent_max_deviation"]
        coherent_csv = Path(os.path.join(outdir, "fig5c_coherent.csv")).read_text()
        rows = coherent_csv.splitlines()
        assert rows[0] == "m,repetition,fidelity,reference,deviation"
        assert len(rows) == 1 + 6 * 75

    def test_fig5d_combined_curve(self, tmp_path, capsys):
        """fig5d mixes the exact standard-RB mean into its reference curve:
        for Clifford(2,1) under dephasing without SPAM every combined value
        is (1 - 1/k) A chi00^m + A (1/D + (1 - 1/D) p^m) / k, and the
        verdict's rms values and flag agree with the written series."""
        outdir = str(tmp_path / "f5d")
        assert main(["experiment", "fig5d", "--out", outdir]) == 0
        capsys.readouterr()
        verdict = json.loads(Path(os.path.join(outdir, "fig5d_verdict.json")).read_text())
        rows = Path(os.path.join(outdir, "fig5d_combined_fit.csv")).read_text().splitlines()
        assert rows[0] == "m,mean_fidelity,pure_curve,combined_curve"
        ms, means, pure, combined = np.array(
            [[float(cell) for cell in row.split(",")] for row in rows[1:]]).T
        assert ms.tolist() == verdict["lengths"]
        k, a, chi00 = verdict["k"], verdict["amplitude"], verdict["chi00"]
        for m, value in zip(ms.astype(int), combined):
            want = ((1 - 1 / k) * a * chi00 ** m
                    + a * standard_closed_form(chi00, 2, m) / k)
            assert abs(value - want) <= 1e-12, m
        rms_pure = np.sqrt(np.mean((means - pure) ** 2))
        rms_combined = np.sqrt(np.mean((means - combined) ** 2))
        assert verdict["rms_pure_curve"] == pytest.approx(rms_pure, rel=1e-12)
        assert verdict["rms_combined_curve"] == pytest.approx(rms_combined, rel=1e-12)
        assert verdict["combined_improves"] == bool(rms_combined <= rms_pure)

    def test_irb_demo(self, tmp_path, capsys):
        outdir = str(tmp_path / "demo")
        assert main(["experiment", "irb-demo", "--out", outdir]) == 0
        capsys.readouterr()
        verdict = json.loads(Path(os.path.join(outdir, "irb_demo_verdict.json")).read_text())
        assert verdict["covered"] is True
        assert verdict["planted_chi00"] == pytest.approx(0.99)
        assert abs(verdict["chi00_gate_estimate"] - 0.99) <= verdict["bound_E"]
        assert os.path.exists(os.path.join(outdir, "irb_reference.csv"))
        assert os.path.exists(os.path.join(outdir, "irb_interleaved.csv"))
