"""Command line interface.

Exit codes: 0 on success, 2 for validation problems (bad data, files,
configuration, or usage), 3 for estimation preconditions and study
failures, 4 for I/O errors, running out of memory (say, a study whose
result matrix cannot be allocated) and failures of the ``--jobs`` worker
processes. When ``--out`` or ``--out-dir`` is omitted,
outputs default to the directory named by the ``OPEKIT_OUT_DIR``
environment variable, falling back to the working directory.

Each command loads only the modules it runs. This module's imports are
what ``evaluate`` needs: the log reader and the estimators. ``presets``
and ``simulate`` import the simulator, and ``study`` the configuration
reader and the study engine, in their own bodies. JSON reports are
strict: a number that is not finite is written as null and named in a
``non_finite`` note.
"""

from __future__ import annotations

import os
import sys
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np

from .analysis import remainder_diagnostics, variance_gap
from .errors import (
    EstimationError,
    StudyError,
    ValidationError,
    VRequiredForGap,
    WorkerFailure,
)
from .estimators import Rows, _apply, _check_kind, _kind, kernel_arg, parse_estimator_spec, row_total
from .io import (
    TOOL_VERSION,
    build_manifest,
    canonical_hash,
    json_text,
    read_logs,
    study_payload,
    write_csv,
    write_json,
    write_logs,
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
    from .simulator import preset_description, preset_names

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
    from .simulator import _sample, get_scenario, replicate_streams

    dataset = _sample(get_scenario(preset), n, next(replicate_streams(seed, n, range(1))))
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


def _estimate_dict(label: str, n: int, values, baselines, ranked: bool) -> dict:
    """One report entry: a scalar log's value and baseline, or a ranked log's total and positions."""
    if not ranked:
        return {"estimator": label, "value": float(values[0]), "n_used": n, "baseline_used": baselines[0]}
    positions = [
        {"position": j + 1, "value": value, "baseline_used": baseline}
        for j, (value, baseline) in enumerate(zip(values.tolist(), baselines))
    ]
    return {"estimator": label, "value": float(row_total(values)), "n_used": n, "per_position": positions}


def _remainder_dict(dataset, value: float) -> dict:
    diagnostics = remainder_diagnostics(dataset, value)
    r, w = dataset.reward_bound, dataset.weight_bound
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

    The log is read into one block, a scalar log being the one-position
    case. Every estimator runs on it through the Python estimators' driver,
    reported under the label asked for, and the moments are read from it.
    Estimators whose preconditions fail report a null value with the reason
    instead of aborting. Gap and remainder diagnostics need --true-value.
    """
    if gap and true_value is None:
        raise VRequiredForGap()
    dataset = read_logs(logs_path, reward_bound=reward_bound, weight_bound=weight_bound)
    kind = _kind(dataset)
    ranked = kind == "ranked"
    specs = [parse_estimator_spec(s) for s in estimators.split(",") if s.strip()]
    if not specs:
        raise ValidationError("at least one estimator is required")
    if ranked and true_value is not None:
        raise ValidationError(
            "gap and remainder diagnostics are scalar-only; ranked files take "
            "per-position values that --true-value cannot express"
        )
    for spec in specs:
        _check_kind(spec.name, kind, spec.label)
    rows = Rows.of(dataset)
    results = []
    for spec in specs:
        try:
            values, baselines = _apply(spec.name, kind, rows, kernel_arg(spec, folds, cf_seed, None))
        except EstimationError as exc:
            results.append({"estimator": spec.label, "value": None, "error": str(exc)})
        else:
            results.append(_estimate_dict(spec.label, dataset.n, values, baselines, ranked))
    summaries = rows.summaries()
    del rows  # the remainder diagnostics build their own block; holding two raises the peak memory
    report: dict = {
        "source": str(logs_path),
        "kind": kind,
        "n": dataset.n,
        "reward_bound": dataset.reward_bound,
        "weight_bound": dataset.weight_bound,
        "estimates": results,
        "moments": [asdict(m) for m in summaries] if ranked else asdict(summaries[0]),
    }
    if ranked:
        report["k"] = dataset.k
    else:
        (moments,) = summaries
        report["beta_star"] = moments.beta_star
        if true_value is not None:
            report["remainder"] = _remainder_dict(dataset, true_value)
            if moments.beta_star is None:
                report["variance_gap"] = None
                report["variance_gap_note"] = "weights have zero variance; the optimal baseline is undefined"
            else:
                report["variance_gap"] = asdict(variance_gap(moments, true_value))
    if out is None:
        click.echo(json_text(report))
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
    from .config import load_study_config
    from .experiments import STUDIES, StudyReport

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
        environment=loaded.config.scenario_label,
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
    except MemoryError as exc:
        click.echo(f"memory error: {exc}", err=True)
        return 4
    except WorkerFailure as exc:
        click.echo(f"worker error: {exc}", err=True)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
