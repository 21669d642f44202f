"""Write the stored values the benchmark compares against at pinned seeds.

    python3 perfbench/make_reference.py

Runs one full-size iteration of each workload whose records depend on
the seed (fig5 and wide-target) at its pinned seed and writes every
record fidelity to reference/<workload>.json. Run it only on a commit
whose records are known good: the stored files are the benchmark's
definition of correct output, and a change that is meant to keep records
identical must not rewrite them.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    for name in ("fig5", "wide-target"):
        seed = run.PINNED_SEEDS[name]
        workload = workloads.WORKLOADS[name](seed, tiny=False, reference=None)
        checks = workloads.Checks()
        workload.setup(checks)
        with tempfile.TemporaryDirectory() as outdir:
            output = workload.iterate(outdir)
            workload.check(output, checks)
            stored = {"seed": seed, "fidelities": workload.fidelities(output)}
            if name == "fig5":
                _, _, verdict = workload._read(output)
                stored.update(chi00=verdict["chi00"], amplitude=verdict["amplitude"])
        if checks.failures:
            print(f"{name}: oracle checks failed, nothing written:", *checks.failures,
                  sep="\n  ", file=sys.stderr)
            return 1
        path = os.path.join(HERE, "reference", f"{name}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(stored, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
