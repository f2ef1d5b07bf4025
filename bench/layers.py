"""Traced per-layer replay of the benchmark's workloads.

Spans are recorded around calls from this file into the public functions
of each ``src/opekit`` module; nothing inside the program is traced, so
every program span is a leaf. The layer is the span name's prefix
(``simulator.sample`` belongs to ``simulator``). ``bench.*`` spans group
the calls of one pass or one grid cell, and their self time is this
file's own glue.

A traced run executes three passes, so every per-layer metric is measured
on every workload: the workload's own pass at its own size, and the other
two at a small probe size. Metrics sum over the passes, so the own pass
dominates the layers it uses.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from opekit.analysis import remainder_diagnostics
from opekit.data import Dataset, RankedDataset
from opekit.errors import EstimationError
from opekit.estimators import CrossFitConfig, beta_ips, beta_star_ips, cross_fitted_beta_ips, ips, snips
from opekit.experiments import (
    StudyConfig,
    dominance_check,
    mse_decompose,
    oracle_report,
    paired_mse_difference,
    replicate_estimates,
    run_mc_study,
)
from opekit.io import build_manifest, read_logs, study_payload, write_csv, write_json, write_logs
from opekit.ranking import beta_perp_star_ipm, snipm
from opekit.simulator import get_scenario, sample_logs, sample_ranked_logs

SCALAR_ESTIMATORS = ("ips", "snips", "beta-ips:0.1925", "beta-star-ips", "cf-beta-star-ips", "remainder-sq")
FIXED_BASELINE = 0.1925
FOLDS = 5
RANKED_PAIR = ("beta-perp-star-ipm", "snipm")
# Cross-fitting seed of ``opekit evaluate`` when --cf-seed is not given.
EVALUATE_CF_SEED = 0

# (grid, replicates per cell) of the study passes; (entries,) of the logs pass.
OWN_STUDY = ((400, 1600, 6400), 200)
PROBE_STUDY = ((400,), 100)
OWN_LOGS = 200_000
PROBE_LOGS = 20_000

LAYERS = ("simulator", "data", "estimators", "analysis", "ranking", "experiments", "io", "bench")
# Spans whose time a grid cell's replicate_estimates call also spends inside itself.
REPLAYED_IN_CELL = ("simulator.", "estimators.", "analysis.", "ranking.")


class Tracer:
    """In-memory spans ``[name, start, end, parent]`` and named counts.

    A disabled tracer records nothing, so a run with it measures the same
    calls without the cost of tracing.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + amount

    def total(self, name: str) -> float:
        return sum(end - start for span_name, start, end, _ in self.spans if span_name == name)

    def self_times(self) -> dict[str, float]:
        """Each span's duration minus the part its child spans cover, summed by layer."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        layers = {layer: 0.0 for layer in LAYERS}
        for (name, *_), seconds in zip(self.spans, own):
            layers[name.split(".", 1)[0]] += seconds
        return layers

    def children(self, index: int):
        return [span for span in self.spans if span[3] == index]


def _call(tracer: Tracer, name: str, fn, *args, **kwargs):
    """Run one estimator call in a span; an estimation precondition failure counts, not raises."""
    tracer.count("calls")
    if name.startswith("estimators."):
        tracer.count("estimators.calls")
    with tracer.span(name):
        try:
            return fn(*args, **kwargs)
        except EstimationError:
            tracer.count("failed_calls")
            return None


def _value(estimate) -> float:
    return np.nan if estimate is None else estimate.value


def _same(replayed: list, matrix: np.ndarray) -> bool:
    return np.array_equal(np.asarray(replayed, dtype=np.float64), matrix, equal_nan=True)


def _scalar_estimates(tracer: Tracer, dataset: Dataset, value: float, cf_seed: int) -> list[float]:
    """The scalar study's metrics on one dataset, in SCALAR_ESTIMATORS order."""
    values = [
        _value(_call(tracer, "estimators.ips", ips, dataset)),
        _value(_call(tracer, "estimators.snips", snips, dataset)),
        _value(_call(tracer, "estimators.beta_ips", beta_ips, dataset, FIXED_BASELINE)),
        _value(_call(tracer, "estimators.beta_star_ips", beta_star_ips, dataset)),
        _value(
            _call(
                tracer,
                "estimators.cf_beta_star_ips",
                cross_fitted_beta_ips,
                dataset,
                CrossFitConfig(folds_k=FOLDS, seed=cf_seed),
            )
        ),
    ]
    remainder = _call(tracer, "analysis.remainder", remainder_diagnostics, dataset, value)
    return values + [np.nan if remainder is None else remainder.r_n**2]


def _revalidate(tracer: Tracer, dataset, cls) -> None:
    with tracer.span("data.validate"):
        cls.from_arrays(
            dataset.propensity_logging,
            dataset.propensity_target,
            dataset.rewards,
            reward_bound=dataset.reward_bound,
            weight_bound=dataset.weight_bound,
            context_ids=dataset.context_ids,
            action_ids=dataset.action_ids,
        )


def _write_study(tracer: Tracer, kind: str, report, label: str, seed: int, out_dir: Path) -> None:
    manifest = build_manifest(config_hash="bench", master_seed=seed, environment=label)
    csv_path, json_path = out_dir / f"trace-{label}.csv", out_dir / f"trace-{label}.json"
    with tracer.span("io.study_write"):
        write_csv(report.rows, csv_path)
        write_json(study_payload(kind, report, manifest, {}), json_path)
    tracer.count("io.study_bytes", csv_path.stat().st_size + json_path.stat().st_size)


def scalar_study_pass(tracer: Tracer, seed: int, size, out_dir: Path) -> list[str]:
    """Replay an ``mc`` study of flip2: each cell, then its replicates layer by layer."""
    grid, replicates = size
    scenario = get_scenario("flip2")
    value = oracle_report(scenario).value
    problems = []
    for n in grid:
        with tracer.span("bench.cell"):
            with tracer.span("experiments.cell"):
                matrix = replicate_estimates(
                    scenario, n, replicates, seed, SCALAR_ESTIMATORS, folds=FOLDS, oracle_value=value
                )
            replayed = []
            for r in range(replicates):
                with tracer.span("simulator.sample"):
                    dataset = sample_logs(
                        scenario.env,
                        scenario.logging_policy,
                        scenario.target_policy,
                        n,
                        np.random.SeedSequence((seed, n, r)),
                    )
                tracer.count("simulator.rows", n)
                _revalidate(tracer, dataset, Dataset)
                replayed.append(_scalar_estimates(tracer, dataset, value, seed))
        if not _same(replayed, matrix.values):
            problems.append(f"scalar replay at n={n} differs from replicate_estimates")
        finite = np.isfinite(matrix.values)
        tracer.count("experiments.cells", matrix.values.size)
        tracer.count("experiments.useful_cells", int(finite.sum()))
        with tracer.span("experiments.aggregate"):
            for index in range(len(matrix.labels)):
                target = 0.0 if matrix.labels[index] == "remainder-sq" else value
                mse_decompose(matrix.values[finite[:, index], index], target)
    config = StudyConfig(scenario, "flip2", grid, max(replicates, 100), seed, SCALAR_ESTIMATORS, FOLDS)
    with tracer.span("experiments.study"):
        report = run_mc_study(config)
    _write_study(tracer, "mc", report, "flip2", seed, out_dir)
    return problems


def ranked_study_pass(tracer: Tracer, seed: int, size, out_dir: Path) -> list[str]:
    """Replay a ``dominance`` study of rankflip2x2 at one and at two workers."""
    grid, replicates = size
    scenario = get_scenario("rankflip2x2")
    oracle = oracle_report(scenario)
    problems = []
    for n in grid:
        with tracer.span("bench.cell"):
            with tracer.span("experiments.cell"):
                matrix = replicate_estimates(scenario, n, replicates, seed, RANKED_PAIR)
            with tracer.span("experiments.cell_jobs2"):
                parallel = replicate_estimates(scenario, n, replicates, seed, RANKED_PAIR, n_jobs=2)
            replayed = []
            for r in range(replicates):
                with tracer.span("simulator.sample"):
                    dataset = sample_ranked_logs(scenario, n, np.random.SeedSequence((seed, n, r)))
                tracer.count("simulator.rows", n)
                _revalidate(tracer, dataset, RankedDataset)
                row = []
                for name, fn in (("ranking.beta_perp_star_ipm", beta_perp_star_ipm), ("ranking.snipm", snipm)):
                    report = _call(tracer, name, fn, dataset)
                    if report is None:
                        row.extend([np.nan] * (scenario.k + 1))
                    else:
                        row.extend([p.estimate for p in report.per_position] + [report.total])
                replayed.append(row)
        if not _same(replayed, matrix.values):
            problems.append(f"ranked replay at n={n} differs from replicate_estimates")
        if not np.array_equal(matrix.values, parallel.values, equal_nan=True):
            problems.append(f"ranked cell at n={n} differs between one and two workers")
        finite = np.isfinite(matrix.values)
        tracer.count("experiments.cells", matrix.values.size)
        tracer.count("experiments.useful_cells", int(finite.sum()))
        with tracer.span("experiments.aggregate"):
            for j in range(scenario.k):
                target = oracle.target(f"pos{j + 1}").value
                optimal = matrix.column(f"{RANKED_PAIR[0]}[pos{j + 1}]")
                selfnorm = matrix.column(f"{RANKED_PAIR[1]}[pos{j + 1}]")
                paired = np.isfinite(optimal) & np.isfinite(selfnorm)
                paired_mse_difference(optimal[paired], selfnorm[paired], target)
            for index in range(len(matrix.labels)):
                target = oracle.target(matrix.labels[index].split("[")[1].rstrip("]")).value
                mse_decompose(matrix.values[finite[:, index], index], target)
    config = StudyConfig(scenario, "rankflip2x2", grid, max(replicates, 100), seed)
    with tracer.span("experiments.study"):
        report = dominance_check(config)
    _write_study(tracer, "dominance", report.study, "rankflip2x2", seed, out_dir)
    return problems


def logs_pass(tracer: Tracer, seed: int, n: int, out_dir: Path) -> list[str]:
    """Replay ``simulate`` then ``evaluate`` on flip2: sample, write, read, revalidate, estimate."""
    scenario = get_scenario("flip2")
    path = out_dir / "trace-logs.jsonl"
    with tracer.span("simulator.sample"):
        dataset = sample_logs(
            scenario.env, scenario.logging_policy, scenario.target_policy, n, np.random.SeedSequence((seed, n, 0))
        )
    tracer.count("simulator.rows", n)
    with tracer.span("io.write_logs"):
        write_logs(dataset, path)
    tracer.count("io.logs_bytes", path.stat().st_size)
    with tracer.span("io.read_logs"):
        parsed = read_logs(path)
    tracer.count("io.records_read", parsed.n)
    _revalidate(tracer, parsed, Dataset)
    _scalar_estimates(tracer, parsed, oracle_report(scenario).value, EVALUATE_CF_SEED)
    same = all(
        np.array_equal(getattr(parsed, column), getattr(dataset, column))
        for column in ("propensity_logging", "propensity_target", "rewards", "weights")
    )
    return [] if same else ["logs read back differ from the sampled dataset"]


# name -> (pass, own size, probe size)
PASSES = {
    "scalar": (scalar_study_pass, OWN_STUDY, PROBE_STUDY),
    "ranked": (ranked_study_pass, OWN_STUDY, PROBE_STUDY),
    "logs": (logs_pass, OWN_LOGS, PROBE_LOGS),
}


def run_passes(tracer: Tracer, own: str | None, seed: int, out_dir: Path) -> tuple[float, list[str]]:
    """All three passes, the one named ``own`` at its own size; returns wall time and problems."""
    problems = []
    started = time.perf_counter()
    for name, (run, own_size, probe_size) in PASSES.items():
        with tracer.span("bench.pass"):
            problems.extend(run(tracer, seed, own_size if name == own else probe_size, out_dir))
    return time.perf_counter() - started, problems


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run; times are in seconds."""
    metrics = {
        "simulator.sample_s": tracer.total("simulator.sample"),
        "data.validate_s": tracer.total("data.validate"),
        "analysis.remainder_s": tracer.total("analysis.remainder"),
        "ranking.snipm_s": tracer.total("ranking.snipm"),
        "ranking.beta_perp_star_ipm_s": tracer.total("ranking.beta_perp_star_ipm"),
        "experiments.cell_s": tracer.total("experiments.cell"),
        "experiments.aggregate_s": tracer.total("experiments.aggregate"),
        "io.write_logs_s": tracer.total("io.write_logs"),
        "io.read_logs_s": tracer.total("io.read_logs"),
        "io.study_write_s": tracer.total("io.study_write"),
        "io.logs_bytes": tracer.counts["io.logs_bytes"],
        "io.study_bytes": tracer.counts["io.study_bytes"],
        "estimators.calls": tracer.counts["estimators.calls"],
    }
    for name in ("ips", "snips", "beta_ips", "beta_star_ips", "cf_beta_star_ips"):
        metrics[f"estimators.{name}_s"] = tracer.total(f"estimators.{name}")
    metrics["simulator.rows_per_s"] = tracer.counts["simulator.rows"] / metrics["simulator.sample_s"]
    metrics["io.read_records_per_s"] = tracer.counts["io.records_read"] / metrics["io.read_logs_s"]
    metrics["experiments.useful_frac"] = tracer.counts["experiments.useful_cells"] / tracer.counts["experiments.cells"]
    driver_self = serial = parallel = 0.0
    for index, span in enumerate(tracer.spans):
        if span[0] != "bench.cell":
            continue
        children = {name: 0.0 for name in ("experiments.cell", "experiments.cell_jobs2", "replayed")}
        for name, start, end, _ in tracer.children(index):
            key = "replayed" if name.startswith(REPLAYED_IN_CELL) else name
            if key in children:
                children[key] += end - start
        driver_self += children["experiments.cell"] - children["replayed"]
        if children["experiments.cell_jobs2"] > 0.0:
            serial += children["experiments.cell"]
            parallel += children["experiments.cell_jobs2"]
    metrics["experiments.driver_self_s"] = driver_self
    # Cell time at one worker over twice the cell time at two, on the cells run both ways.
    metrics["experiments.parallel_efficiency"] = serial / (2.0 * parallel)
    for layer, seconds in tracer.self_times().items():
        metrics[f"{layer}.self_s"] = seconds
    return metrics
