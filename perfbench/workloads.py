"""The four workloads: inputs made from the seed, one op, and the gate.

Each workload has ``setup(seed, out_dir)`` returning its state (inputs
and references), ``op(state, index, tracer, threads)`` running one
operation of the program, and ``check(state, index, output)`` returning
``None`` for a correct output or the reason it is wrong.  Op ``index``
selects the op's own random stream, so every op differs and every op is
reproducible; op ``WARM_UP`` is the untimed warm-up.
``final_check(state)`` checks what only all ops of a run together can
show.  Sizes are dataclass fields so the smoke test can shrink them.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from kappacov import estimators, inference
from kappacov.core import FamilySpec, PairedSample, SeedSpec
from kappacov.samplers import sample_family

import oracles

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCES = HERE / "references.json"

WARM_UP = 0

# Relative agreement required of every statistic, in units of
# statistic_scale; roundoff between summation orders is below 1e-13.
STAT_TOL = 1e-9

ESTIMATE_FIELDS = ("kappa_star", "kappa_tilde", "kappa_hat", "delta1_hat", "rho_hat", "rho_tilde")

CLI_THETA = 0.5
CLI_DIGITS = 3
PERM_THETA = 0.2
PERM_B = 999
SPECTRUM_K = 100
POWER_N = 100
POWER_B = 199
POWER_REPLICATES = 100
POWER_ALPHA = 0.05
POWER_GRID = tuple((family, theta) for family in ("normal", "chisquare") for theta in (0.0, 0.25, 0.5))


def _stat_error(value: float, reference: float, scale: float) -> str | None:
    error = abs(value - reference) / scale
    return None if error <= STAT_TOL else f"off by {error:.3g} x scale (got {value!r}, want {reference!r})"


# The CLI entry point, followed by the child's own peak resident set.
# VmHWM is read because ru_maxrss of a child starts from the parent's
# peak at spawn time, which the references in set-up would dominate.
CLI_ENTRY = """import sys
from kappacov.cli import run
code = run()
with open("/proc/self/status", encoding="ascii") as status:
    hwm = [line.split()[1] for line in status if line.startswith("VmHWM:")]
sys.stderr.write(f"\\nperfbench-peak-rss-kib {hwm[0]}\\n")
sys.exit(code)
"""


def program_env() -> dict:
    """Environment for child interpreters: this checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Workload:
    """Defaults shared by the workloads.

    ``rss_scope`` says whose memory ``peak_rss_mb`` reports: ``cli_child``
    (the cold CLI process), ``op_allocated`` (memory allocated by one op,
    from tracemalloc) or ``both`` (this process and its pool workers).
    """

    workers: ClassVar[int] = 0

    def final_check(self, state: dict) -> str | None:
        return None

    def op_with_tracemalloc(self, state: dict, index: int, tracer=None, threads=None):
        """Run op ``index`` with tracemalloc on, record the op's own peak
        of allocated memory in ``state`` and return its output."""
        tracemalloc.start()
        try:
            output = self.op(state, index)
            state["peak_rss_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        return output


@dataclass(frozen=True)
class CliEstimate(Workload):
    """Cold ``kappacov estimate --input CSV --rho --variance`` subprocess."""

    name: ClassVar[str] = "cli_estimate"
    rss_scope: ClassVar[str] = "cli_child"
    workers: ClassVar[int] = 1
    n: int = 4000

    def setup(self, seed: int, out_dir: Path) -> dict:
        sample = sample_family(FamilySpec("normal", CLI_THETA), self.n, SeedSpec(seed))
        # Few significant digits give both columns ties.
        rows = [(format(x, f".{CLI_DIGITS}g"), format(y, f".{CLI_DIGITS}g")) for x, y in zip(sample.xs, sample.ys)]
        path = out_dir / f"{self.name}.csv"
        path.write_text("x,y\n" + "".join(f"{x},{y}\n" for x, y in rows), encoding="utf-8")
        xs = np.array([float(x) for x, _ in rows])
        ys = np.array([float(y) for _, y in rows])
        reference = oracles.estimate_reference(xs, ys)
        rounded = PairedSample(xs, ys)
        direct = {
            "kappa_tilde": estimators.kappa_tilde_direct(rounded),
            "kappa_hat": estimators.kappa_hat_direct(rounded),
        }
        for field, value in direct.items():
            problem = _stat_error(getattr(reference, field), value, reference.scale)
            if problem:
                raise RuntimeError(f"reference {field} disagrees with {field}_direct: {problem}")
        return {"csv": str(path), "reference": reference, "direct": direct, "env": program_env()}

    def op(self, state: dict, index: int, tracer=None, threads=None) -> dict:
        args = ["estimate", "--input", state["csv"], "--rho", "--variance"]
        if tracer is None:
            command = [sys.executable, "-c", CLI_ENTRY, *args]
        else:
            spans_path = Path(state["csv"]).with_suffix(".spans.json")
            memory = "1" if tracer.memory else "0"
            command = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), memory, *args]
        done = subprocess.run(command, env=state["env"], capture_output=True, text=True, timeout=170)
        if done.returncode != 0:
            raise RuntimeError(f"exit code {done.returncode}: {done.stderr.strip()[-300:]}")
        if tracer is None:
            peak_kib = int(done.stderr.rsplit("perfbench-peak-rss-kib", 1)[1])
            state["peak_rss_mb"] = max(state.get("peak_rss_mb", 0.0), peak_kib * 1024 / 1e6)
        else:
            tracer.adopt(json.loads(spans_path.read_text(encoding="utf-8"))["spans"])
        return json.loads(done.stdout)

    def check(self, state: dict, index: int, output: dict) -> str | None:
        reference = state["reference"]
        if set(output) != {"n", *ESTIMATE_FIELDS}:
            return f"fields {sorted(output)}"
        if output["n"] != reference.n:
            return f"n = {output['n']}, want {reference.n}"
        scales = {"delta1_hat": reference.scale**2, "rho_hat": 1.0, "rho_tilde": 1.0}
        for field in ESTIMATE_FIELDS:
            problem = _stat_error(output[field], getattr(reference, field), scales.get(field, reference.scale))
            if problem:
                return f"{field} {problem}"
        for field, value in state["direct"].items():
            problem = _stat_error(output[field], value, reference.scale)
            if problem:
                return f"{field} vs {field}_direct {problem}"
        return None


def _check_test(result, statistic: float, scale: float, p_ref: float, count: int, ref_count: float) -> str | None:
    if result.statistic_name != "kappa_star":
        return f"statistic_name {result.statistic_name!r}"
    problem = _stat_error(result.statistic, statistic, scale)
    if problem:
        return f"statistic {problem}"
    if not oracles.pvalues_agree(result.p_value, count, p_ref, ref_count):
        return f"p_value {result.p_value!r} outside Monte Carlo error of reference {p_ref!r}"
    return None


@dataclass(frozen=True)
class PermTest(Workload):
    """In-process 999-permutation test of ``kappa_star``.

    At theta = 0.2 the observed statistic beats nearly every permutation,
    so the p-value sits at its floor 1/1000 and checks little of the
    permutation null.  The warm-up op therefore tests a theta = 0 sample
    of the same size, whose reference p-value lies inside (0, 1).
    """

    name: ClassVar[str] = "perm_test"
    rss_scope: ClassVar[str] = "op_allocated"
    n: int = 500

    def setup(self, seed: int, out_dir: Path) -> dict:
        state = {
            "seed": seed,
            "sample": sample_family(FamilySpec("normal", PERM_THETA), self.n, SeedSpec(seed)),
            "null_sample": sample_family(FamilySpec("normal", 0.0), self.n, SeedSpec(seed, 1)),
        }
        for key, stream in (("", 0), ("null_", 1)):
            sample = state[f"{key}sample"]
            rng = np.random.default_rng([seed, stream, 0x5EED])
            state[f"{key}reference"] = oracles.estimate_reference(sample.xs, sample.ys)
            state[f"{key}p_ref"] = oracles.permutation_pvalue(sample.xs, sample.ys, PERM_B, rng)
        return state

    def _key(self, index: int) -> str:
        return "null_" if index == WARM_UP else ""

    def op(self, state: dict, index: int, tracer=None, threads=None):
        return inference.independence_test(
            state[f"{self._key(index)}sample"],
            estimator="star",
            method="permutation",
            b_or_r=PERM_B,
            seed=SeedSpec(state["seed"], index),
        )

    def check(self, state: dict, index: int, output) -> str | None:
        key = self._key(index)
        reference = state[f"{key}reference"]
        return _check_test(output, reference.kappa_star, reference.scale, state[f"{key}p_ref"], PERM_B, PERM_B)


@dataclass(frozen=True)
class AsymTest(Workload):
    """In-process asymptotic test of ``kappa_star`` against the simulated
    weighted chi-square null limit."""

    name: ClassVar[str] = "asym_test"
    rss_scope: ClassVar[str] = "op_allocated"
    n: int = 1000
    r: int = 1500

    def setup(self, seed: int, out_dir: Path) -> dict:
        sample = sample_family(FamilySpec("normal", 0.0), self.n, SeedSpec(seed))
        reference = oracles.estimate_reference(sample.xs, sample.ys)
        statistic = self.n * reference.kappa_star
        lx = oracles.dense_spectrum(sample.xs, SPECTRUM_K)
        ly = oracles.dense_spectrum(sample.ys, SPECTRUM_K)
        p_ref = oracles.centered_null_pvalue(lx, ly, statistic)
        return {"seed": seed, "sample": sample, "reference": reference, "statistic": statistic, "p_ref": p_ref}

    def op(self, state: dict, index: int, tracer=None, threads=None):
        return inference.independence_test(
            state["sample"],
            estimator="star",
            method="asymptotic_null",
            b_or_r=self.r,
            seed=SeedSpec(state["seed"], index),
            spectrum_k=SPECTRUM_K,
        )

    def check(self, state: dict, index: int, output) -> str | None:
        scale = self.n * state["reference"].scale
        return _check_test(output, state["statistic"], scale, state["p_ref"], self.r, math.inf)


@dataclass(frozen=True)
class PowerTable(Workload):
    """Rejection-rate table by permutation over ``POWER_GRID``.

    Theta = 0 cells are checked against the exact size of a permutation
    test, the others against rates recorded in ``references.json``.  Each
    op is checked for gross errors; the hits of all ops of a run are
    added up per cell and checked once at the end.
    """

    name: ClassVar[str] = "power_table"
    rss_scope: ClassVar[str] = "both"
    workers: ClassVar[int] = min(2, os.cpu_count() or 1)
    grid: tuple = POWER_GRID

    def setup(self, seed: int, out_dir: Path) -> dict:
        recorded = json.loads(REFERENCES.read_text(encoding="utf-8"))["power_table"]
        if (recorded["n"], recorded["b"], recorded["alpha"]) != (POWER_N, POWER_B, POWER_ALPHA):
            raise RuntimeError(f"{REFERENCES} records another table")
        size = oracles.permutation_size(POWER_ALPHA, POWER_B)
        references = {
            (c["family"], c["theta"], c["estimator"]): (size, math.inf) if c["theta"] == 0.0 else (c["power"], recorded["replicates"])
            for c in recorded["cells"]
            if (c["family"], c["theta"]) in self.grid
        }
        grid = [FamilySpec(family, theta) for family, theta in self.grid]
        return {"seed": seed, "grid": grid, "references": references, "tally": dict.fromkeys(references, 0), "trials": 0}

    def op(self, state: dict, index: int, tracer=None, threads=None):
        return inference.power_study(
            state["grid"],
            n=POWER_N,
            replicates=POWER_REPLICATES,
            alpha=POWER_ALPHA,
            method="permutation",
            b_or_r=POWER_B,
            seed=SeedSpec(state["seed"], index * POWER_REPLICATES),
            threads=self.workers if threads is None else threads,
        )

    def check(self, state: dict, index: int, output) -> str | None:
        if len(output.cells) != len(state["references"]):
            return f"{len(output.cells)} cells, want {len(state['references'])}"
        state["trials"] += POWER_REPLICATES
        hits = {(c.family, c.theta, c.estimator): round(c.power * POWER_REPLICATES) for c in output.cells}
        for key, count in hits.items():
            state["tally"][key] += count
        for (family, theta, estimator), count in hits.items():
            p_ref, ref_trials = state["references"][(family, theta, estimator)]
            if not oracles.rate_agrees(count, POWER_REPLICATES, p_ref, ref_trials):
                return f"{family} theta={theta} {estimator}: {count}/{POWER_REPLICATES} rejections, reference rate {p_ref}"
        return None

    def final_check(self, state: dict) -> str | None:
        cells = len(state["references"])
        for (family, theta, estimator), hits in state["tally"].items():
            p_ref, ref_trials = state["references"][(family, theta, estimator)]
            if not oracles.tally_agrees(hits, state["trials"], p_ref, ref_trials, cells):
                return f"{family} theta={theta} {estimator}: {hits}/{state['trials']} rejections over the run, reference rate {p_ref}"
        return None


WORKLOADS = {w.name: w for w in (CliEstimate(), PermTest(), AsymTest(), PowerTable())}
