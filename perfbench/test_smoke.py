"""Smoke tests of the benchmark itself, at tiny size.

    python3 -m pytest perfbench

They run the benchmark command as BENCHMARK.json names it and check its
output format, its output checks and its failure without the program.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [*SPEC["command"], "--size", "tiny", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    *notes, last = proc.stdout.strip().splitlines()
    return notes, json.loads(last)


def test_spec_workloads_can_be_run():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.PINNED_SEEDS)


# Every workload the command offers, including any left out of BENCHMARK.json.
@pytest.mark.parametrize("workload", sorted(run.PINNED_SEEDS))
@pytest.mark.parametrize("trace,seed", [(0, None), (1, 3)])
def test_every_metric_prints_with_its_unit(workload, trace, seed):
    args = ["--workload", workload, "--trace", str(trace)]
    if seed is not None:
        args += ["--seed", str(seed)]
    notes, result = result_of(bench(*args))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert any(line.startswith("failed_frac    0 ratio") for line in notes)
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        layer_self = sum(v for name, v in values.items()
                         if name.endswith(".self_s") and not name.startswith("trace."))
        traced = values["trace.setup_s"] + values["trace.wall_s"]
        assert layer_self + values["trace.unattributed_s"] == pytest.approx(traced, abs=1e-9)
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_reference_value_fails_a_check(tmp_path):
    with open(os.path.join(HERE, "reference", "fig5.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    reference["fidelities"]["coherent"]["2"][0] += 1e-6
    path = tmp_path / "fig5.json"
    path.write_text(json.dumps(reference), encoding="utf-8")
    notes, result = result_of(bench("--workload", "fig5", "--reference", str(path)))
    assert not result["correct"]
    assert result["failed"] >= 1
    frac = next(line for line in notes if line.startswith("failed_frac")).split()[1]
    assert float(frac) > 0


def test_no_result_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "fig5", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
