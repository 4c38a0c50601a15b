"""Command-line front end.

One subcommand per workflow: ``estimate`` and ``test`` operate on CSV
samples, ``sample`` writes synthetic ones, ``eigen`` exposes the kernel
spectra, ``kappa-theta`` the closed-form curves, and ``power`` /
``bench`` the simulation studies.  Output is JSON by default; ``--output
table`` renders aligned columns and ``--output csv`` machine-readable
rows.  Usage errors exit with 2, runtime failures print one
``ErrorName: message`` line to stderr and exit with 1.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

from .closedform import kappa_quadrature_oracle, population_kappa
from .core import FAMILIES, FamilySpec, SeedSpec, load_sample, write_sample
from .errors import KappaCovError
from .estimators import estimate, rho_estimates
from .inference import ESTIMATOR_NAMES, independence_test, power_study, timing_benchmark
from .samplers import marginal_quantile, sample_family
from .spectral import discretize_marginal, empirical_marginal, kernel_eigenvalues

__all__ = ["build_parser", "run", "main"]

_OUTPUT_FORMATS = ("json", "table", "csv")


class _UsageError(Exception):
    """Flag combination that argparse cannot reject declaratively."""


@dataclass(frozen=True)
class _Output:
    payload: dict
    header: list
    rows: list


def _format_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _render(output: _Output, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(output.payload, indent=2) + "\n"
    rows = [[_format_cell(v) for v in row] for row in output.rows]
    header = [str(h) for h in output.header]
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(header)
        writer.writerows(rows)
        return buffer.getvalue()
    widths = [
        max(len(header[col]), *(len(row[col]) for row in rows)) if rows else len(header[col])
        for col in range(len(header))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _pairs_output(payload: dict) -> _Output:
    rows = [[key, value] for key, value in payload.items() if not isinstance(value, (dict, list))]
    return _Output(payload=payload, header=["quantity", "value"], rows=rows)


def _comma_list(text: str) -> list[str]:
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise argparse.ArgumentTypeError("expected a nonempty comma-separated list")
    return items


def _family_list(text: str) -> list[str]:
    items = _comma_list(text)
    for item in items:
        if item not in FAMILIES:
            raise argparse.ArgumentTypeError(
                f"unknown family {item!r}; choose from {', '.join(FAMILIES)}"
            )
    return items


def _estimator_list(text: str) -> list[str]:
    items = _comma_list(text)
    for item in items:
        if item not in ESTIMATOR_NAMES:
            raise argparse.ArgumentTypeError(
                f"unknown estimator {item!r}; choose from {', '.join(ESTIMATOR_NAMES)}"
            )
    return items


def _float_list(text: str) -> list[float]:
    try:
        return [float(item) for item in _comma_list(text)]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected numbers: {exc}") from exc


def _seed_value(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be nonnegative, got {value}")
    return value


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=_seed_value, default=0, help="master random seed")
    sub.add_argument(
        "--output", choices=_OUTPUT_FORMATS, default="json", help="output format"
    )


def _cmd_estimate(args) -> _Output:
    sample = load_sample(args.input)
    values = estimate(sample, with_variance=args.variance)
    payload: dict = {"n": values.n}
    wanted = ESTIMATOR_NAMES if args.estimator == "all" else (args.estimator,)
    if "star" in wanted:
        payload["kappa_star"] = values.kappa_star
    if "tilde" in wanted:
        payload["kappa_tilde"] = values.kappa_tilde
    if "hat" in wanted:
        payload["kappa_hat"] = values.kappa_hat
    if args.variance:
        payload["delta1_hat"] = values.delta1_hat
    if args.rho:
        rho = rho_estimates(sample)
        payload["rho_hat"] = rho.rho_hat
        payload["rho_tilde"] = rho.rho_tilde
    return _pairs_output(payload)


def _cmd_test(args) -> _Output:
    sample = load_sample(args.input)
    method = "asymptotic_null" if args.method == "asymptotic" else args.method
    result = independence_test(
        sample,
        estimator=args.estimator,
        method=method,
        b_or_r=args.b,
        seed=SeedSpec(args.seed),
    )
    payload = result.as_dict()
    return _pairs_output(payload)


def _cmd_eigen(args) -> _Output:
    if args.marginal == "empirical":
        if args.input is None:
            raise _UsageError("--marginal empirical requires --input")
        sample = load_sample(args.input)
        values = sample.xs if args.column == "x" else sample.ys
        marginal = empirical_marginal(values)
        label = f"empirical[{args.column}]"
    else:
        spec = FamilySpec(args.marginal, 0.0)
        marginal = discretize_marginal(
            lambda u: marginal_quantile(spec, "x", u), args.t
        )
        label = args.marginal
    spectrum = kernel_eigenvalues(marginal, args.k)
    payload = {"marginal": label, **spectrum.as_dict()}
    rows = [[index + 1, value] for index, value in enumerate(spectrum.lambdas)]
    return _Output(payload=payload, header=["k", "lambda"], rows=rows)


def _cmd_sample(args) -> _Output:
    spec = FamilySpec(args.family, args.theta, args.sigma1, args.sigma2)
    sample = sample_family(spec, args.n, SeedSpec(args.seed))
    write_sample(args.out, sample)
    payload = {
        "family": args.family,
        "theta": args.theta,
        "n": args.n,
        "out": args.out,
        "seed": args.seed,
    }
    return _pairs_output(payload)


def _cmd_kappa_theta(args) -> _Output:
    spec = FamilySpec(args.family, args.theta, args.sigma1, args.sigma2)
    payload = {
        "family": args.family,
        "theta": args.theta,
        "kappa": population_kappa(spec),
    }
    if args.oracle:
        oracle = kappa_quadrature_oracle(spec)
        payload["oracle_kappa"] = oracle
        payload["abs_difference"] = abs(payload["kappa"] - oracle)
    return _pairs_output(payload)


def _cmd_power(args) -> _Output:
    grid = [
        FamilySpec(family, theta)
        for family in args.families
        for theta in args.thetas
    ]
    method = "asymptotic_null" if args.method == "asymptotic" else args.method
    report = power_study(
        grid,
        n=args.n,
        replicates=args.replicates,
        alpha=args.alpha,
        method=method,
        b_or_r=args.b,
        seed=SeedSpec(args.seed),
        estimators=tuple(args.estimators),
        threads=args.threads,
    )
    header = ["family", "estimator"] + [f"theta={theta:g}" for theta in args.thetas]
    rows = []
    for family in args.families:
        for estimator in args.estimators:
            row = [family, f"kappa_{estimator}"]
            for theta in args.thetas:
                row.append(report.power_for(family, theta, estimator).power)
            rows.append(row)
    return _Output(payload=report.as_dict(), header=header, rows=rows)


def _cmd_bench(args) -> _Output:
    reports = timing_benchmark(
        tuple(args.estimators),
        n=args.n,
        evals=args.evals,
        spec=FamilySpec(args.family, args.theta),
        seed=SeedSpec(args.seed),
    )
    payload = {"reports": [report.as_dict() for report in reports]}
    header = ["estimator", "n", "evals", "mean_seconds", "sd_seconds"]
    rows = [
        [r.estimator, r.n, r.evals, r.mean_seconds, r.sd_seconds] for r in reports
    ]
    return _Output(payload=payload, header=header, rows=rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kappacov",
        description="Estimate and test a squared-distance covariance between paired observations.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_estimate = subparsers.add_parser("estimate", help="estimate kappa from a CSV sample")
    p_estimate.add_argument("--input", required=True, help="two-column CSV file")
    p_estimate.add_argument(
        "--estimator", choices=("all",) + ESTIMATOR_NAMES, default="all"
    )
    p_estimate.add_argument("--rho", action="store_true", help="include normalized values")
    p_estimate.add_argument(
        "--variance", action="store_true", help="include the plug-in variance estimate"
    )
    _add_common(p_estimate)
    p_estimate.set_defaults(handler=_cmd_estimate)

    p_test = subparsers.add_parser("test", help="test independence")
    p_test.add_argument("--input", required=True)
    p_test.add_argument("--estimator", choices=ESTIMATOR_NAMES, default="star")
    p_test.add_argument(
        "--method", choices=("permutation", "asymptotic"), default="permutation"
    )
    p_test.add_argument(
        "--b",
        type=int,
        default=999,
        help="permutation count (>= 99); --method asymptotic ignores it",
    )
    _add_common(p_test)
    p_test.set_defaults(handler=_cmd_test)

    p_eigen = subparsers.add_parser("eigen", help="kernel eigenvalues of a marginal")
    p_eigen.add_argument(
        "--marginal", choices=FAMILIES + ("empirical",), required=True
    )
    p_eigen.add_argument("--input", help="CSV sample, required for --marginal empirical")
    p_eigen.add_argument(
        "--column", choices=("x", "y"), default="x", help="which coordinate of --input"
    )
    p_eigen.add_argument("--t", type=int, default=1000, help="discretization size")
    p_eigen.add_argument("--k", type=int, default=100, help="eigenvalues to keep")
    _add_common(p_eigen)
    p_eigen.set_defaults(handler=_cmd_eigen)

    p_sample = subparsers.add_parser("sample", help="draw a synthetic sample to CSV")
    p_sample.add_argument("--family", choices=FAMILIES, required=True)
    p_sample.add_argument("--theta", type=float, required=True)
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--out", required=True)
    p_sample.add_argument("--sigma1", type=float, default=1.0)
    p_sample.add_argument("--sigma2", type=float, default=1.0)
    _add_common(p_sample)
    p_sample.set_defaults(handler=_cmd_sample)

    p_kappa = subparsers.add_parser(
        "kappa-theta", help="closed-form kappa for the normal or exponential family"
    )
    p_kappa.add_argument("--family", choices=("normal", "exponential"), required=True)
    p_kappa.add_argument("--theta", type=float, required=True)
    p_kappa.add_argument("--sigma1", type=float, default=1.0)
    p_kappa.add_argument("--sigma2", type=float, default=1.0)
    p_kappa.add_argument(
        "--oracle", action="store_true", help="also run the quadrature cross-check"
    )
    _add_common(p_kappa)
    p_kappa.set_defaults(handler=_cmd_kappa_theta)

    p_power = subparsers.add_parser("power", help="rejection-rate study over a theta grid")
    p_power.add_argument("--families", type=_family_list, default=["normal"])
    p_power.add_argument("--thetas", type=_float_list, default=[0.0, 0.25, 0.5])
    p_power.add_argument("--n", type=int, default=100)
    p_power.add_argument("--replicates", type=int, default=1000)
    p_power.add_argument("--alpha", type=float, default=0.05)
    p_power.add_argument(
        "--estimators", type=_estimator_list, default=list(ESTIMATOR_NAMES)
    )
    p_power.add_argument(
        "--method", choices=("permutation", "asymptotic"), default="permutation"
    )
    p_power.add_argument("--b", type=int, default=199)
    p_power.add_argument("--threads", type=int, default=1, help="0 = all cores")
    _add_common(p_power)
    p_power.set_defaults(handler=_cmd_power)

    p_bench = subparsers.add_parser("bench", help="estimator timing benchmark")
    p_bench.add_argument(
        "--estimators", type=_estimator_list, default=list(ESTIMATOR_NAMES)
    )
    p_bench.add_argument("--n", type=int, default=100)
    p_bench.add_argument("--evals", type=int, default=100)
    p_bench.add_argument("--family", choices=FAMILIES, default="normal")
    p_bench.add_argument("--theta", type=float, default=0.0)
    _add_common(p_bench)
    p_bench.set_defaults(handler=_cmd_bench)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        output = args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except KappaCovError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(_render(output, args.output))
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
