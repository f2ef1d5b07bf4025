"""Command line interface.

Exit codes: 0 on success, 2 for validation problems (bad data, files,
configuration, or usage), 3 for estimation preconditions and study
failures, 4 for I/O errors and failures of the ``--jobs`` worker
processes. When ``--out`` or ``--out-dir`` is omitted,
outputs default to the directory named by the ``OPEKIT_OUT_DIR``
environment variable, falling back to the working directory.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np

from .analysis import remainder_diagnostics, variance_gap
from .data import RankedDataset
from .errors import (
    EstimationError,
    StudyError,
    UnknownEstimator,
    ValidationError,
    VRequiredForGap,
    WorkerFailure,
)
from .estimators import ESTIMATORS, estimate, empirical_moments
from .experiments import STUDIES, StudyReport, kernel_arg, parse_estimator_spec
from .ranking import positionwise
from .config import canonical_hash, load_study_config
from .io import (
    TOOL_VERSION,
    build_manifest,
    moments_dict,
    read_logs,
    study_payload,
    write_csv,
    write_json,
    write_logs,
)
from .simulator import (
    BanditScenario,
    get_scenario,
    preset_description,
    preset_names,
    sample_logs,
    sample_ranked_logs,
)

OUT_DIR_ENV = "OPEKIT_OUT_DIR"


def _default_dir() -> Path:
    return Path(os.environ.get(OUT_DIR_ENV, "."))


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(version=TOOL_VERSION, prog_name="opekit")
def cli() -> None:
    """Off-policy evaluation toolkit."""


@cli.command("presets")
def presets_command() -> None:
    """List the built-in simulation presets."""
    for name in preset_names():
        click.echo(f"{name}: {preset_description(name)}")


@cli.command("simulate")
@click.option("--preset", required=True, help="Name of a built-in scenario; see 'opekit presets'.")
@click.option("--n", "n", required=True, type=click.IntRange(min=1), help="Number of entries.")
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option(
    "--out",
    type=click.Path(dir_okay=False, path_type=Path),
    default=None,
    help="Output JSONL path [default: <preset>-n<n>-seed<seed>.jsonl in OPEKIT_OUT_DIR].",
)
def simulate_command(preset: str, n: int, seed: int, out: Path | None) -> None:
    """Sample a synthetic log file from a preset scenario.

    The dataset equals replicate 0 of a study on the same preset with the
    same seed and sample size, and a manifest sidecar records provenance.
    """
    scenario = get_scenario(preset)
    stream = np.random.SeedSequence((seed, n, 0))
    if isinstance(scenario, BanditScenario):
        dataset = sample_logs(
            scenario.env, scenario.logging_policy, scenario.target_policy, n, stream
        )
    else:
        dataset = sample_ranked_logs(scenario, n, stream)
    if out is None:
        out = _default_dir() / f"{preset}-n{n}-seed{seed}.jsonl"
    write_logs(dataset, out)
    manifest = build_manifest(
        config_hash=canonical_hash({"command": "simulate", "preset": preset, "n": n, "seed": seed}),
        master_seed=seed,
        environment=preset,
    )
    sidecar = out.with_name(out.name + ".manifest.json")
    write_json(manifest.to_dict(), sidecar)
    click.echo(f"wrote {out} ({dataset.n} entries) and {sidecar}")


def _estimate_dict(estimate) -> dict:
    return {
        "estimator": estimate.estimator_name,
        "value": estimate.value,
        "n_used": estimate.n_used,
        "baseline_used": estimate.baseline_used,
    }


def _positionwise_dict(report) -> dict:
    return {
        "estimator": report.estimator_name,
        "value": report.total,
        "n_used": report.n_used,
        "per_position": [
            {
                "position": j + 1,
                "value": p.estimate,
                "baseline_used": p.baseline,
            }
            for j, p in enumerate(report.per_position)
        ],
    }


def _remainder_dict(dataset, value: float) -> dict:
    diagnostics = remainder_diagnostics(dataset, value)
    w = dataset.weight_bound
    r = dataset.reward_bound
    return {
        "l_n": diagnostics.l_n,
        "w_bar": diagnostics.w_bar,
        "r_n": diagnostics.r_n,
        "r_n_linearised": diagnostics.r_n_linearised,
        "event_holds": diagnostics.event_holds,
        "max_abs_u": float(np.max(np.abs(diagnostics.u_series))),
        "u_bound": r * w * (1.0 + w),
        "max_abs_t": float(np.max(np.abs(diagnostics.t_series))),
        "t_bound": w,
    }


def _gap_dict(report) -> dict:
    return {
        "var_beta": report.var_beta,
        "var_beta_star": report.var_beta_star,
        "avar_snips": report.avar_snips,
        "gap_delta": report.gap_delta,
        "n": report.n,
    }


@cli.command("evaluate")
@click.option(
    "--in",
    "-i",
    "logs_path",
    required=True,
    type=click.Path(exists=False, dir_okay=False, path_type=Path),
    help="JSONL log file to evaluate.",
)
@click.option(
    "--estimators",
    default="ips,snips",
    show_default=True,
    help="Comma-separated estimators, e.g. ips,snips,beta-ips:0.5,beta-star-ips.",
)
@click.option("--reward-bound", type=float, default=None, help="Overrides the file header.")
@click.option("--weight-bound", type=float, default=None, help="Overrides the file header.")
@click.option("--true-value", type=float, default=None, help="Enables gap and remainder diagnostics.")
@click.option("--gap", is_flag=True, help="Require gap diagnostics (needs --true-value).")
@click.option("--folds", default=5, show_default=True, type=click.IntRange(min=2))
@click.option("--cf-seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option(
    "--out",
    type=click.Path(dir_okay=False, path_type=Path),
    default=None,
    help="Write the JSON report here instead of stdout.",
)
def evaluate_command(
    logs_path: Path,
    estimators: str,
    reward_bound: float | None,
    weight_bound: float | None,
    true_value: float | None,
    gap: bool,
    folds: int,
    cf_seed: int,
    out: Path | None,
) -> None:
    """Evaluate estimators on a log file and report moments and diagnostics.

    Estimators whose preconditions fail on this data report a null value
    with the reason instead of aborting the run. Gap and remainder
    diagnostics apply to scalar log files and need --true-value.
    """
    if gap and true_value is None:
        raise VRequiredForGap()
    dataset = read_logs(logs_path, reward_bound=reward_bound, weight_bound=weight_bound)
    ranked = isinstance(dataset, RankedDataset)
    specs = [parse_estimator_spec(s) for s in estimators.split(",") if s.strip()]
    if not specs:
        raise ValidationError("at least one estimator is required")
    if ranked and true_value is not None:
        raise ValidationError(
            "gap and remainder diagnostics are scalar-only; ranked files take "
            "per-position values that --true-value cannot express"
        )
    kind = "ranked" if ranked else "scalar"
    k = dataset.k if ranked else 1
    results = []
    for spec in specs:
        if ESTIMATORS[spec.name].kind != kind:
            raise UnknownEstimator(f"{spec.label} does not apply to {kind} log files")
        try:
            arg = kernel_arg(spec, k, folds, cf_seed, None)
            if ranked:
                entry = _positionwise_dict(positionwise(spec.name, dataset, arg))
            else:
                entry = _estimate_dict(estimate(spec.name, dataset, arg))
            # Report the requested label; it disambiguates parameterised
            # estimators the family name alone cannot.
            entry["estimator"] = spec.label
            results.append(entry)
        except EstimationError as exc:
            results.append({"estimator": spec.label, "value": None, "error": str(exc)})
    report: dict = {
        "source": str(logs_path),
        "kind": kind,
        "n": dataset.n,
        "reward_bound": dataset.reward_bound,
        "weight_bound": dataset.weight_bound,
        "estimates": results,
    }
    if ranked:
        report["k"] = dataset.k
        report["moments"] = [
            moments_dict(empirical_moments(dataset.position(j))) for j in range(dataset.k)
        ]
    else:
        moments = empirical_moments(dataset)
        report["moments"] = moments_dict(moments)
        if moments.var_w > 0:
            report["beta_star"] = moments.cov_w_wr / moments.var_w
        else:
            report["beta_star"] = None
        if true_value is not None:
            report["remainder"] = _remainder_dict(dataset, true_value)
            if moments.var_w > 0:
                report["variance_gap"] = _gap_dict(variance_gap(moments, true_value))
            else:
                report["variance_gap"] = None
                report["variance_gap_note"] = (
                    "weights have zero variance; the optimal baseline is undefined"
                )
    text = json.dumps(report, indent=2, sort_keys=True)
    if out is None:
        click.echo(text)
    else:
        write_json(report, out)
        click.echo(f"wrote {out}")


@cli.command("study")
@click.option(
    "--config",
    "-c",
    "config_path",
    required=True,
    type=click.Path(dir_okay=False, path_type=Path),
    help="YAML study configuration.",
)
@click.option(
    "--out-dir",
    type=click.Path(file_okay=False, path_type=Path),
    default=None,
    help="Output directory [default: OPEKIT_OUT_DIR or the working directory].",
)
@click.option(
    "--jobs",
    default=1,
    show_default=True,
    type=click.IntRange(min=1),
    help="Worker processes; the results are identical for any value.",
)
def study_command(config_path: Path, out_dir: Path | None, jobs: int) -> None:
    """Run a Monte Carlo study and write its CSV table and JSON report.

    Outputs are named after the configuration file stem. The JSON report
    embeds a manifest whose fingerprint covers exactly the fields that
    determine the output bytes.
    """
    loaded = load_study_config(config_path)
    if out_dir is None:
        out_dir = _default_dir()
    report = STUDIES[loaded.kind](loaded.config, n_jobs=jobs)
    if isinstance(report, StudyReport):
        study, extra = report, {}
    else:
        study, extra = report.study, asdict(report)
        del extra["study"]
    manifest = build_manifest(
        config_hash=loaded.config_hash,
        master_seed=loaded.config.master_seed,
        environment=loaded.label,
    )
    stem = config_path.stem
    csv_path = Path(out_dir) / f"{stem}.csv"
    json_path = Path(out_dir) / f"{stem}.json"
    write_csv(study.rows, csv_path)
    write_json(study_payload(loaded.kind, study, manifest, extra), json_path)
    click.echo(f"wrote {csv_path} and {json_path}")


def main(argv=None) -> int:
    """Entry point that maps tool errors onto documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except click.UsageError as exc:
        exc.show()
        return 2
    except ValidationError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except (EstimationError, StudyError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        return 4
    except WorkerFailure as exc:
        click.echo(f"worker error: {exc}", err=True)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
