"""Print every kappacov output over a fixed grid of samples as hex-float JSON.

Run from the repository root, once per tree to compare, and diff the two
outputs; an empty diff means the trees agree bit for bit:

    python3 tools/identity_grid.py > new.json
    python3 tools/identity_grid.py --src /path/to/other/src > old.json
    diff old.json new.json

The grid covers n in {3, 20, 107, 108, 500} (both sides of the sweep's
kernel switch), each with untied normal columns, columns tied to three
values, and columns offset by 1e9.  For each sample it records the
bundle, the three estimates with ``delta1_hat``, rho, both tests'
p-values and statistics for each estimator, and ``permutation_bundles``
on 5 fixed permutations and on none.  Permutation tests with
B = 99 at n = 4096 and n = 4097 add sort-kernel chunks of 2 rows, the
last one partial, and of 1 row, in drawn blocks of 8 and of 7 rows.  Then
come permutation and asymptotic ``PowerReport``s at n = 30 (the gather)
and n = 120 (the sort kernel), each serial and with ``threads=2``, for
all three estimators at alpha 0.05 and for ``("tilde",)`` and
``("star", "hat")`` at alpha 0.01 and 0.2.  Every float
is written by ``float.hex``, and an error by its class name and message,
so any change in any bit shows.

Last, each of the seven CLI subcommands runs on small fixed inputs, each
in a new interpreter with the tree's ``src`` on ``PYTHONPATH`` and
``OPENBLAS_NUM_THREADS`` unset, so each tree picks its own BLAS threads;
the section records the exit code, stdout and stderr of each, the file
``sample`` writes, and a usage error and a computation error.  ``bench``
times itself, so its seconds are left out.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SIZES = (3, 20, 107, 108, 500)
LARGE_SIZES = (4096, 4097)


def _hex(value):
    """``value`` with every float, numpy ones included, as a hex string."""
    if dataclasses.is_dataclass(value):
        return {f.name: _hex(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(key): _hex(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hex(item) for item in value]
    if hasattr(value, "tolist"):
        return _hex(value.tolist())
    if isinstance(value, float):
        return float.hex(value)
    return value


def _outcome(call):
    """``call()`` in hex, or the name and message of the error it raises."""
    try:
        return _hex(call())
    except Exception as exc:  # noqa: BLE001 - every error is part of the output
        return {"error": type(exc).__name__, "message": str(exc)}


def _samples(kc):
    for n in SIZES:
        base = kc.sample_family(kc.FamilySpec("normal", 0.5), n, kc.SeedSpec(n))
        yield f"untied n={n}", base
        yield f"tied n={n}", kc.PairedSample(
            (base.xs > 0.0) + (base.xs > 1.0), (base.ys > -0.5) + (base.ys > 0.5)
        )
        yield f"offset n={n}", kc.PairedSample(base.xs + 1e9, base.ys - 1e9)


def grid(kc) -> dict:
    out = {}
    for label, sample in _samples(kc):
        row = {
            "bundle": _outcome(lambda: kc.compute_ustats(sample)),
            "estimates": _outcome(lambda: kc.estimate(sample, with_variance=True)),
            "rho": _outcome(lambda: kc.rho_estimates(sample)),
        }
        perms = np.array([np.random.default_rng(seed).permutation(sample.n) for seed in range(5)])
        for count in (5, 0):
            row[f"permutation_bundles {count}"] = _outcome(lambda: kc.ustats.permutation_bundles(sample, perms[:count]))
        for method in ("permutation", "asymptotic_null"):
            for name in ("star", "tilde", "hat"):
                row[f"{method} {name}"] = _outcome(
                    lambda: kc.independence_test(sample, name, method, 999, kc.SeedSpec(3))
                )
        out[label] = row
    for n in LARGE_SIZES:
        sample = kc.sample_family(kc.FamilySpec("normal", 0.5), n, kc.SeedSpec(n))
        for name in ("star", "tilde", "hat"):
            out[f"untied n={n} permutation {name}"] = _outcome(
                lambda: kc.independence_test(sample, name, "permutation", 99, kc.SeedSpec(3))
            )
    cells = [kc.FamilySpec("normal", 0.0), kc.FamilySpec("normal", 0.4)]
    for n in (30, 120):
        for method in ("permutation", "asymptotic_null"):
            for threads in (1, 2):
                out[f"power {method} n={n} threads={threads}"] = _outcome(
                    lambda: kc.power_study(
                        cells, n=n, replicates=100, method=method, b_or_r=99,
                        seed=kc.SeedSpec(11), threads=threads,
                    )
                )
        # A replicate settles each requested estimator's p <= alpha: the
        # permutation method stops sweeping, and the asymptotic one bounds
        # the tail, once that is decided.
        for method in ("permutation", "asymptotic_null"):
            for estimators in (("tilde",), ("star", "hat")):
                for alpha in (0.01, 0.2):
                    for threads in (1, 2):
                        key = f"power {method} n={n} {'+'.join(estimators)} alpha={alpha} threads={threads}"
                        out[key] = _outcome(
                            lambda: kc.power_study(
                                cells, n=n, replicates=100, alpha=alpha, method=method, b_or_r=99,
                                seed=kc.SeedSpec(11), estimators=estimators, threads=threads,
                            )
                        )
    return out


CLI_ENTRY = "import sys; from kappacov.cli import run; sys.exit(run())"
CLI_COMMANDS = (
    ["estimate", "--input", "a.csv", "--rho", "--variance"],
    ["estimate", "--input", "b.csv", "--estimator", "tilde", "--output", "csv"],
    ["test", "--input", "a.csv", "--method", "permutation", "--b", "199", "--seed", "7"],
    ["test", "--input", "b.csv", "--method", "asymptotic", "--seed", "7", "--output", "table"],
    ["test", "--input", "a.csv", "--b", "98"],
    ["eigen", "--marginal", "normal", "--t", "300", "--k", "10"],
    ["eigen", "--marginal", "empirical", "--input", "a.csv", "--column", "y", "--k", "5", "--output", "table"],
    ["eigen", "--marginal", "empirical"],
    ["sample", "--family", "chisquare", "--theta", "0.4", "--n", "50", "--seed", "3", "--out", "s.csv"],
    ["kappa-theta", "--family", "exponential", "--theta", "0.5", "--oracle"],
    ["power", "--families", "normal,laplace", "--thetas", "0,0.5", "--n", "30", "--replicates", "100", "--b", "99",
     "--threads", "2"],
    ["power", "--thetas", "0,0.5", "--n", "50", "--replicates", "100", "--method", "asymptotic", "--output", "csv"],
    ["bench", "--estimators", "star,hat", "--n", "50", "--evals", "10"],
    ["estimate"],
)


def _write_inputs(folder: Path) -> None:
    """a.csv, 200 untied normal pairs, and b.csv, 60 pairs tied to few values,
    written from fixed numbers so both trees read the same bytes."""
    rng = np.random.default_rng(2024)
    xs = rng.normal(size=200)
    ys = 0.5 * xs + rng.normal(size=200)
    (folder / "a.csv").write_text("x,y\n" + "".join(f"{float(x)!r},{float(y)!r}\n" for x, y in zip(xs, ys)))
    (folder / "b.csv").write_text("x,y\n" + "".join(f"{x:.1f},{y:.1f}\n" for x, y in zip(xs[:60], ys[:60])))


def cold_cli(src: str) -> dict:
    """Exit code, stdout and stderr of each of ``CLI_COMMANDS`` in a new
    interpreter, and the file ``sample`` writes."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = src
    out = {}
    with tempfile.TemporaryDirectory() as folder:
        _write_inputs(Path(folder))
        for argv in CLI_COMMANDS:
            done = subprocess.run(
                [sys.executable, "-c", CLI_ENTRY, *argv], cwd=folder, env=env,
                capture_output=True, text=True, timeout=600,
            )
            stdout = done.stdout
            if argv[0] == "bench" and done.returncode == 0:
                reports = json.loads(stdout)["reports"]
                stdout = [{k: v for k, v in r.items() if not k.endswith("_seconds")} for r in reports]
            out[" ".join(argv)] = {"code": done.returncode, "stdout": stdout, "stderr": done.stderr}
        out["sample s.csv"] = (Path(folder) / "s.csv").read_text()
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", default=str(Path(__file__).resolve().parents[1] / "src"),
        help="directory that holds the kappacov package (default: this tree's src)",
    )
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import kappacov

    out = grid(kappacov)
    out["cold cli"] = cold_cli(args.src)
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
