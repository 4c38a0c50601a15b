"""Command-line interface: subcommands, output formats, exit codes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from kappacov import (
    FamilySpec,
    PairedSample,
    SeedSpec,
    discretize_marginal,
    estimate,
    independence_test,
    kappa_bvn,
    kappa_gbed,
    kernel_eigenvalues,
    load_sample,
    marginal_quantile,
    run,
    sample_family,
    write_sample,
)


@pytest.fixture
def sample_csv(tmp_path):
    sample = sample_family(FamilySpec("normal", 0.6), 40, SeedSpec(7))
    path = tmp_path / "sample.csv"
    write_sample(path, sample)
    return str(path), sample


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def invoke(capsys, argv):
    """Exit code, stdout and stderr of one CLI run; JSON output must parse
    strictly, with no NaN or Infinity."""
    code = run(argv)
    captured = capsys.readouterr()
    fmt = argv[argv.index("--output") + 1] if "--output" in argv else "json"
    if code == 0 and fmt == "json":
        json.loads(captured.out, parse_constant=_reject_constant)
    return code, captured.out, captured.err


def test_estimate_json(capsys, sample_csv):
    path, sample = sample_csv
    code, out, err = invoke(capsys, ["estimate", "--input", path])
    assert code == 0 and err == ""
    payload = json.loads(out)
    values = estimate(sample)
    assert payload["n"] == 40
    assert math.isclose(payload["kappa_star"], values.kappa_star, rel_tol=1e-12)
    assert math.isclose(payload["kappa_tilde"], values.kappa_tilde, rel_tol=1e-12)
    assert math.isclose(payload["kappa_hat"], values.kappa_hat, rel_tol=1e-12)


def test_estimate_single_estimator_with_extras(capsys, sample_csv):
    path, sample = sample_csv
    code, out, _ = invoke(capsys, ["estimate", "--input", path, "--estimator", "tilde", "--variance", "--rho"])
    assert code == 0
    payload = json.loads(out)
    assert "kappa_star" not in payload and "kappa_hat" not in payload
    assert payload["delta1_hat"] > 0.0
    assert 0.0 <= payload["rho_hat"] <= 1.0
    assert -1.0 <= payload["rho_tilde"] <= 1.0


def test_estimate_table_and_csv_formats(capsys, sample_csv):
    path, _ = sample_csv
    code, table, _ = invoke(capsys, ["estimate", "--input", path, "--output", "table"])
    assert code == 0
    assert "quantity" in table and "kappa_star" in table
    code, rendered, _ = invoke(capsys, ["estimate", "--input", path, "--output", "csv"])
    assert code == 0
    assert rendered.splitlines()[0] == "quantity,value"


def test_estimate_is_deterministic_output(capsys, sample_csv):
    path, _ = sample_csv
    _, first, _ = invoke(capsys, ["estimate", "--input", path])
    _, second, _ = invoke(capsys, ["estimate", "--input", path])
    assert first == second


def test_estimate_missing_file_exits_1(capsys, tmp_path):
    code, out, err = invoke(capsys, ["estimate", "--input", str(tmp_path / "nope.csv")])
    assert code == 1
    assert out == ""
    assert err.startswith("SampleIOError:")


def test_missing_required_flag_exits_2(capsys):
    code, _, _ = invoke(capsys, ["estimate"])
    assert code == 2


def test_unknown_command_exits_2(capsys):
    code, _, _ = invoke(capsys, ["frobnicate"])
    assert code == 2


def test_negative_seed_exits_2(capsys, sample_csv):
    path, _ = sample_csv
    code, _, _ = invoke(capsys, ["estimate", "--input", path, "--seed", "-3"])
    assert code == 2


def test_test_permutation_matches_library(capsys, sample_csv):
    path, sample = sample_csv
    code, out, _ = invoke(capsys, ["test", "--input", path, "--b", "199", "--seed", "5"])
    assert code == 0
    payload = json.loads(out)
    expected = independence_test(sample, b_or_r=199, seed=SeedSpec(5))
    assert payload["p_value"] == expected.p_value
    assert payload["statistic"] == expected.statistic
    assert payload["method"] == "permutation"


def test_test_bad_method_exits_2(capsys, sample_csv):
    path, _ = sample_csv
    code, _, _ = invoke(capsys, ["test", "--input", path, "--method", "bayes"])
    assert code == 2


def test_test_asymptotic_with_default_b(capsys, sample_csv):
    path, _ = sample_csv
    argv = ["test", "--input", path, "--method", "asymptotic"]
    code, out, err = invoke(capsys, argv)
    assert code == 0 and err == ""
    default = json.loads(out)
    assert default["method"] == "asymptotic_null"
    assert default["b_or_r"] == 999
    assert 0.0 < default["p_value"] <= 1.0
    code, out, _ = invoke(capsys, argv + ["--b", "1500"])
    assert code == 0
    assert json.loads(out)["p_value"] == default["p_value"]
    code, _, err = invoke(capsys, argv + ["--b", "98"])
    assert code == 1
    assert err.startswith("DomainError:")


def test_module_entry_point(capsys):
    import kappacov

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kappacov.__file__)))
    argv = ["kappa-theta", "--family", "normal", "--theta", "0.5"]
    child = subprocess.run(
        [sys.executable, "-m", "kappacov", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    _, expected, _ = invoke(capsys, argv)
    assert child.returncode == 0
    assert child.stderr == ""
    assert child.stdout == expected


def test_cli_import_leaves_out_scipy_stats():
    import kappacov

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kappacov.__file__)))
    code = "import sys, kappacov.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n"


def test_cold_cli_loads_no_scipy(tmp_path):
    """Commands that need no spectrum, tail, quadrature or quantile run
    on numpy alone; the ones that do import scipy on first use."""
    import kappacov

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kappacov.__file__)))
    path = str(tmp_path / "pairs.csv")
    commands = [
        ["sample", "--family", "normal", "--theta", "0.6", "--n", "200", "--seed", "42", "--out", path],
        ["estimate", "--input", path, "--rho", "--variance"],
        ["test", "--input", path, "--method", "permutation", "--b", "99", "--seed", "7"],
    ]
    code = (
        "import json, sys, kappacov, kappacov.cli\n"
        "def loaded(*prefixes):\n"
        "    return sorted(m for m in sys.modules if m.startswith(prefixes))\n"
        "after_import = loaded('scipy', 'multiprocessing')\n"
        "runs = []\n"
        f"for argv in {commands!r}:\n"
        "    runs.append([kappacov.cli.run(argv), loaded('scipy', 'kappacov.inference', 'kappacov.spectral')])\n"
        "print(json.dumps([after_import, runs]))\n"
    )
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert child.returncode == 0, child.stderr
    after_import, runs = json.loads(child.stdout.splitlines()[-1])
    assert after_import == []
    assert [code for code, _ in runs] == [0, 0, 0]
    # sample and estimate load neither the tests nor the spectra.
    assert runs[0][1] == runs[1][1] == []
    assert not [m for m in runs[2][1] if m.startswith("scipy")]
    for argv in (
        ["eigen", "--marginal", "normal", "--t", "200", "--k", "5"],
        ["test", "--input", path, "--method", "asymptotic", "--seed", "7"],
    ):
        child = subprocess.run(
            [sys.executable, "-m", "kappacov", *argv], capture_output=True, text=True, env=env, timeout=120
        )
        assert child.returncode == 0, child.stderr


def _fresh_state(code, *args, **env_vars):
    """The last stdout line, as JSON, of ``python -c code *args`` in a new
    interpreter whose environment lacks ``OPENBLAS_NUM_THREADS`` unless
    ``env_vars`` sets it."""
    import kappacov

    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(env_vars, PYTHONPATH=os.path.dirname(os.path.dirname(kappacov.__file__)))
    child = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


_ESTIMATE_STATE = (
    "import json, os, sys\n"
    "from kappacov.cli import run\n"
    "code = run(['estimate', '--input', sys.argv[1], '--rho', '--variance'])\n"
    "tasks = len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else None\n"
    "print(json.dumps([code, os.environ.get('OPENBLAS_NUM_THREADS'), tasks]))\n"
)


def test_import_loads_no_numpy():
    assert _fresh_state("import json, sys, kappacov\nprint(json.dumps('numpy' in sys.modules))") is False


def test_cli_runs_blas_on_one_thread(sample_csv):
    code, threads, tasks = _fresh_state(_ESTIMATE_STATE, sample_csv[0])
    assert code == 0 and threads == "1"
    if tasks is None:
        pytest.skip("/proc/self/task is Linux only")
    assert tasks == 1


def test_cli_keeps_callers_blas_threads(sample_csv):
    code, threads, _ = _fresh_state(_ESTIMATE_STATE, sample_csv[0], OPENBLAS_NUM_THREADS="2")
    assert code == 0 and threads == "2"
    # A caller that loaded numpy first chose its threads already.
    code, threads, _ = _fresh_state("import numpy\n" + _ESTIMATE_STATE, sample_csv[0])
    assert code == 0 and threads is None


def test_eigen_analytic_marginal(capsys):
    code, out, _ = invoke(capsys, ["eigen", "--marginal", "uniform", "--t", "60", "--k", "5"])
    assert code == 0
    payload = json.loads(out)
    marginal = discretize_marginal(
        lambda u: marginal_quantile(FamilySpec("uniform", 0.0), "x", u), 60
    )
    expected = kernel_eigenvalues(marginal, 5)
    assert payload["marginal"] == "uniform"
    assert np.allclose(payload["lambdas"], expected.lambdas)


def test_eigen_empirical_requires_input(capsys):
    code, _, err = invoke(capsys, ["eigen", "--marginal", "empirical"])
    assert code == 2
    assert "usage error" in err


def test_eigen_empirical_column_choice(capsys, sample_csv):
    path, _ = sample_csv
    code, out, _ = invoke(
        capsys, ["eigen", "--marginal", "empirical", "--input", path, "--column", "y", "--k", "4"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["marginal"] == "empirical[y]"
    assert len(payload["lambdas"]) == 4


def test_eigen_table_format(capsys):
    code, out, _ = invoke(
        capsys, ["eigen", "--marginal", "uniform", "--t", "30", "--k", "3", "--output", "table"]
    )
    assert code == 0
    assert out.splitlines()[0].split() == ["k", "lambda"]


def test_sample_writes_loadable_csv(capsys, tmp_path):
    out_path = tmp_path / "drawn.csv"
    code, out, _ = invoke(
        capsys,
        ["sample", "--family", "exponential", "--theta", "0.5", "--n", "25", "--out", str(out_path), "--seed", "3"],
    )
    assert code == 0
    assert json.loads(out)["n"] == 25
    loaded = load_sample(out_path)
    direct = sample_family(FamilySpec("exponential", 0.5), 25, SeedSpec(3))
    assert np.array_equal(loaded.xs, direct.xs)
    assert np.array_equal(loaded.ys, direct.ys)


def test_sample_rejects_bad_theta(capsys, tmp_path):
    code, _, err = invoke(
        capsys,
        ["sample", "--family", "normal", "--theta", "2.0", "--n", "10", "--out", str(tmp_path / "x.csv")],
    )
    assert code == 1
    assert err.startswith("ThetaOutOfRange:")


def test_kappa_theta_values(capsys):
    code, out, _ = invoke(capsys, ["kappa-theta", "--family", "normal", "--theta", "0.5"])
    assert code == 0
    assert json.loads(out)["kappa"] == kappa_bvn(0.5)
    code, out, _ = invoke(capsys, ["kappa-theta", "--family", "exponential", "--theta", "0.5"])
    assert code == 0
    assert json.loads(out)["kappa"] == kappa_gbed(0.5)


def test_kappa_theta_oracle_flag(capsys):
    code, out, _ = invoke(
        capsys, ["kappa-theta", "--family", "exponential", "--theta", "0.3", "--oracle"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["abs_difference"] < 1e-8
    assert math.isclose(payload["oracle_kappa"], payload["kappa"], rel_tol=1e-6)


def test_kappa_theta_rejects_unsupported_family(capsys):
    code, _, _ = invoke(capsys, ["kappa-theta", "--family", "uniform", "--theta", "0.5"])
    assert code == 2


def test_power_runs_small_grid(capsys):
    argv = [
        "power", "--families", "normal", "--thetas", "0,0.9", "--n", "40",
        "--replicates", "100", "--b", "99", "--estimators", "star", "--seed", "2",
    ]
    code, out, _ = invoke(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["cells"]) == 2
    by_theta = {cell["theta"]: cell["power"] for cell in payload["cells"]}
    assert by_theta[0.0] <= 0.15
    assert by_theta[0.9] >= 0.8


def test_power_output_is_thread_count_invariant(capsys):
    base = [
        "power", "--families", "normal", "--thetas", "0.8", "--n", "30",
        "--replicates", "100", "--b", "99", "--estimators", "star", "--seed", "4",
    ]
    code1, serial, _ = invoke(capsys, base + ["--threads", "1"])
    code2, pooled, _ = invoke(capsys, base + ["--threads", "2"])
    assert code1 == code2 == 0
    assert serial == pooled


@pytest.mark.parametrize(
    "argv",
    [
        ["power", "--n", "-5", "--replicates", "100", "--b", "99"],
        ["power", "--n", "0", "--replicates", "100", "--b", "99"],
        ["bench", "--n", "-5", "--evals", "10"],
        ["bench", "--n", "0", "--evals", "10"],
    ],
)
def test_studies_reject_nonpositive_n(capsys, argv):
    code, out, err = invoke(capsys, argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("NOnPositive: ")
    assert "Traceback" not in err


@pytest.fixture
def overflow_csvs(tmp_path):
    rng = np.random.default_rng(29)
    x, noise = rng.normal(size=50), rng.normal(size=50)
    paths = {}
    # Each kappa leaves float64 at "huge", and delta1_hat at "squared".
    for name, xs, ys in (
        ("huge", np.ldexp(x, 520), np.ldexp(noise, 520)),
        ("squared", np.ldexp(x, 260), np.ldexp(x + noise, 260)),
    ):
        paths[name] = str(tmp_path / f"{name}.csv")
        write_sample(paths[name], PairedSample(xs, ys))
    return paths


@pytest.mark.parametrize(
    "name, argv",
    [
        ("huge", ["estimate"]),
        ("huge", ["estimate", "--rho"]),
        ("huge", ["test", "--b", "99"]),
        ("huge", ["test", "--method", "asymptotic"]),
        ("squared", ["estimate", "--variance"]),
    ],
)
def test_overflowing_sums_exit_1(capsys, overflow_csvs, name, argv):
    code, out, err = invoke(capsys, argv + ["--input", overflow_csvs[name]])
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("DomainError: ") and "overflow" in err
    assert "Traceback" not in err


def test_eigen_columns_whose_range_overflows(capsys, tmp_path):
    # Each range below, 2e308, overflows.  The spread is taken from halved
    # extremes and the gaps of the support divided by its power of two, so
    # the spectrum follows the data's units and sums to its trace target.
    def eigen(column):
        path = str(tmp_path / "wide.csv")
        write_sample(path, PairedSample(column, np.arange(float(len(column)))))
        return invoke(capsys, ["eigen", "--marginal", "empirical", "--input", path])

    for column in ([-1e308, 1e308, 1e308, 1e308], [-1e308, 0.0, 5e307, 1e308]):
        code, out, err = eigen(np.array(column))
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert math.isclose(payload["sum_lambdas"], payload["trace_target"], rel_tol=1e-12)
    # With 46 normals added, the normals' gaps on that support are
    # subnormal: the coefficients are checked before any division, so the
    # command names the grid and warns nothing.
    column = np.concatenate([[-1e308, 0.0, 5e307, 1e308], np.random.default_rng(3).normal(size=46)])
    code, out, err = eigen(column)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("DegenerateGrid: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["power", "--families", "normal,foo"],
            "argument --families: unknown family 'foo'; choose from "
            "normal, uniform, exponential, laplace, logistic, chisquare",
        ),
        (["bench", "--estimators", "star,x"], "argument --estimators: unknown estimator 'x'; choose from star, tilde, hat"),
        (["power", "--estimators", ","], "argument --estimators: expected a nonempty comma-separated list"),
    ],
)
def test_list_flags_name_their_choices(capsys, argv, message):
    code, out, err = invoke(capsys, argv)
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == f"kappacov {argv[0]}: error: {message}"


def test_bench_reports(capsys):
    code, out, _ = invoke(
        capsys, ["bench", "--estimators", "star", "--n", "40", "--evals", "10"]
    )
    assert code == 0
    payload = json.loads(out)
    report = payload["reports"][0]
    assert report["estimator"] == "kappa_star"
    assert report["mean_seconds"] > 0.0


def test_bench_csv_format(capsys):
    code, out, _ = invoke(
        capsys,
        ["bench", "--estimators", "star,hat", "--n", "40", "--evals", "10", "--output", "csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "estimator,n,evals,mean_seconds,sd_seconds"
    assert len(lines) == 3
