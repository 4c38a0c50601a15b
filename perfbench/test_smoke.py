"""Reduced-size smoke test of the benchmark harness.

Run from the repository root (about a minute on two cores):

    python3 -m pytest perfbench/test_smoke.py -q

It runs every workload at reduced size in both modes and checks that each
metric named in BENCHMARK.json is reported with its unit, that the gate
rejects deliberately perturbed references, and that the benchmark fails
without printing a result when the program is missing.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import TRACED  # noqa: E402

workloads, IMPORT_S = run.load_program()
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

SMALL = {
    "cli_estimate": {"n": 300},
    "perm_test": {"n": 120},
    "asym_test": {"n": 150, "r": 1000},
    # n, B and alpha must match the recorded references; one cell keeps it short.
    "power_table": {"grid": (("normal", 0.0),)},
}
SEED = 11


def small(name):
    return dataclasses.replace(workloads.WORKLOADS[name], **SMALL[name])


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def _assert_metrics(result, declared, printed_names, stdout):
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in declared}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name in printed_names:
        assert name in stdout


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_untraced_run_reports_every_end_to_end_metric(name, capsys):
    result = run.untraced_run(workloads, small(name), SEED, 0.1, IMPORT_S)
    stdout = capsys.readouterr().out
    names = [m["name"] for m in BENCH["end_to_end"]] + ["error_rate"]
    _assert_metrics(result, BENCH["end_to_end"], names, stdout)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_reports_every_per_layer_metric(name, capsys):
    result = run.traced_run(workloads, small(name), SEED, 0.1)
    names = [*TRACED, "cli.import_s", "inference.pool_efficiency", "trace.overhead_s"]
    _assert_metrics(result, BENCH["per_layer"], names, capsys.readouterr().out)
    assert result["metrics"]["cli.import_s"]["value"] > 0


def _checked(name, out_dir):
    workload = small(name)
    state = workload.setup(SEED, out_dir)
    output = workload.op(state, 1)
    assert workload.check(state, 1, output) is None
    return workload, state, output


def test_gate_rejects_perturbed_estimate_references(out_dir):
    workload, state, output = _checked("cli_estimate", out_dir)
    reference = state["reference"]
    for field, shift in [("kappa_tilde", 1e-6 * reference.scale), ("delta1_hat", 1e-6 * reference.scale**2), ("rho_hat", 1e-6)]:
        bad = dict(state, reference=dataclasses.replace(reference, **{field: getattr(reference, field) + shift}))
        assert field in workload.check(bad, 1, output)
    bad = dict(state, direct=dict(state["direct"], kappa_hat=state["direct"]["kappa_hat"] * (1 + 1e-6)))
    assert "kappa_hat_direct" in workload.check(bad, 1, output)


@pytest.mark.parametrize("name", ["perm_test", "asym_test"])
def test_gate_rejects_perturbed_test_references(name, out_dir):
    workload, state, output = _checked(name, out_dir)
    p_ref = state["p_ref"]
    wrong_tail = dict(state, p_ref=p_ref + 0.3 if p_ref < 0.5 else p_ref - 0.3)
    assert "p_value" in workload.check(wrong_tail, 1, output)
    reference = state["reference"]
    shifted = dataclasses.replace(reference, kappa_star=reference.kappa_star + 1e-6 * reference.scale)
    bad = dict(state, reference=shifted, statistic=workload.n * shifted.kappa_star if name == "asym_test" else None)
    assert "statistic" in workload.check(bad, 1, output)


def test_perm_warm_up_checks_the_permutation_null(out_dir):
    workload, state, _ = _checked("perm_test", out_dir)
    output = workload.op(state, workloads.WARM_UP)
    assert 0.05 < state["null_p_ref"] < 0.95  # for this seed, well inside (0, 1)
    assert workload.check(state, workloads.WARM_UP, output) is None
    p_ref = state["null_p_ref"]
    wrong_null = dict(state, null_p_ref=p_ref + 0.2 if p_ref < 0.5 else p_ref - 0.2)
    assert "p_value" in workload.check(wrong_null, workloads.WARM_UP, output)


def test_gate_rejects_perturbed_power_references(out_dir):
    workload, state, output = _checked("power_table", out_dir)
    bad = dict(state, references={key: (min(1.0, p + 0.3), n) for key, (p, n) in state["references"].items()})
    assert "rejections" in workload.check(bad, 1, output)


def test_run_check_rejects_a_null_rate_shifted_by_5_points(out_dir):
    workload = workloads.WORKLOADS["power_table"]
    state = workload.setup(SEED, out_dir)
    # The hits a 20-second run adds up (7 ops), at the exact size and 5 points above it.
    state["trials"] = 700
    for key in state["tally"]:
        state["tally"][key] = round(state["references"][key][0] * state["trials"])
    assert workload.final_check(state) is None
    null_key = ("normal", 0.0, "star")
    state["tally"][null_key] += round(0.05 * state["trials"])
    assert "rejections over the run" in workload.final_check(state)


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "perm_test", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
