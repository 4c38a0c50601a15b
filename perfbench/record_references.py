"""Record the power-table references that the benchmark's gate checks against.

A power-table op estimates each rejection rate from only 100 replicates,
and the rates of the theta > 0 cells have no closed form, so the gate
compares them with rates recorded once, with many more replicates, by the
code at the commit named in the output.  The theta = 0 rows are recorded
too, but the gate checks those cells against the exact size of the test.  Run from the repository root:

    python3 perfbench/record_references.py

It rewrites ``perfbench/references.json``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from kappacov.core import FamilySpec, SeedSpec  # noqa: E402
from kappacov.inference import power_study  # noqa: E402

from workloads import POWER_ALPHA, POWER_B, POWER_GRID, POWER_N  # noqa: E402

REFERENCE_SEED = SeedSpec(1_000_003, 0)
REPLICATES = 4000
THREADS = 2


def main() -> None:
    grid = [FamilySpec(family, theta) for family, theta in POWER_GRID]
    start = time.perf_counter()
    report = power_study(
        grid,
        n=POWER_N,
        replicates=REPLICATES,
        alpha=POWER_ALPHA,
        b_or_r=POWER_B,
        seed=REFERENCE_SEED,
        threads=THREADS,
    )
    elapsed = time.perf_counter() - start
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    record = {
        "power_table": {
            "commit": commit,
            "n": POWER_N,
            "b": POWER_B,
            "alpha": POWER_ALPHA,
            "replicates": REPLICATES,
            "seed": [REFERENCE_SEED.master_seed, REFERENCE_SEED.stream_index],
            "seconds": round(elapsed, 1),
            "cells": [
                {"family": c.family, "theta": c.theta, "estimator": c.estimator, "power": c.power}
                for c in report.cells
            ],
        }
    }
    (HERE / "references.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {HERE / 'references.json'} in {elapsed:.1f} s")


if __name__ == "__main__":
    main()
