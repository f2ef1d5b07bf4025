"""Seeded Monte Carlo studies over synthetic environments.

Replicates are paired: every estimator in a study cell is evaluated on
the same sampled dataset, replicate by replicate, so comparisons between
estimators difference out the shared sampling noise. Replicate ``r`` at
sample size ``n`` draws from the stream of
``default_rng(SeedSequence((master_seed, n, r)))``, which depends on
nothing else; results are identical for any estimator list, chunking, or
worker count. The engine does not build those generators: it computes
the seeded PCG64 states of a whole range of replicates at once and loads
each into one reused generator, which gives the same stream bit for bit
(:func:`~opekit.simulator.replicate_streams`).

A cell is evaluated in blocks of replicates: each block is sampled into
one ``(replicates, n)`` array (``(replicates, positions, n)`` for ranked
scenarios), one row per replicate, and every metric is one row kernel
reducing along the last axis. A block holds about ``_BLOCK_ENTRIES``
(16384, the engine's own budget) entries whatever the replicate count.
Row reductions sum exactly as one-row ones do, so the block size never
changes a bit. A block is drawn by the one sampler the public samplers
and ``simulate`` also use (:func:`~opekit.simulator.sample_cells`), and the
engine gathers only the weights and weighted rewards at its cells
(:func:`~opekit.simulator.sample_weights`), from tables compiled once per
study, before the oracle and the pool: compiling runs the entry check once
over the cells a draw can pick, so a scenario whose samples would fail
the dataset checks fails before its oracle is enumerated and before any
draw, and no block is checked. The oracle is read from the same compiled
tables.

A replicate on which an estimator's precondition fails is recorded and
its cell statistics use the surviving replicates. More than 1% failures
for any estimator at any sample size aborts the study, because then the
survivors no longer represent the sampling distribution.

Every study kind runs its grid through one loop, ``_run_grid``, which
builds the study's report; a kind adds only its preconditions, its
metrics, and a verdict that it builds one grid cell at a time.
"""

from __future__ import annotations

import pickle
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .analysis import variance_gap
from .errors import (
    DegenerateX,
    EstimationError,
    ExcessiveFailureRate,
    NonPositiveMean,
    PreconditionNotMet,
    StudyError,
    TooFewReplicates,
    ValidationError,
    WorkerFailure,
)
from .data import _finite, _float_column, _integer
from .estimators import ESTIMATORS, MetricSpec, MomentSummary, _check_kind, kernel_arg, parse_estimator_spec
from .simulator import (
    BanditScenario,
    CompiledScenario,
    RankingEnv,
    _check_sample_size,
    _moments,
    _value,
    compile_scenario,
    draw_uniforms,
    replicate_streams,
    sample_weights,
)

#: Entries per replicate block; 32768 added 2 MB to a study's peak RSS.
_BLOCK_ENTRIES = 16384  # a module global, so tests can change it


def default_estimators(kind: str, scenario) -> tuple[str, ...]:
    """The registered estimators a study of ``kind`` runs when its configuration names none."""
    family = "scalar" if isinstance(scenario, BanditScenario) else "ranked"
    return tuple(name for name, entry in ESTIMATORS.items() if entry.kind == family and kind in entry.defaults)


def _study_specs(estimators, scenario) -> tuple[MetricSpec, ...]:
    """Parsed specs, each checked to apply to the scenario's kind."""
    kind = "scalar" if isinstance(scenario, BanditScenario) else "ranked"
    specs = tuple(parse_estimator_spec(e) for e in estimators)
    for spec in specs:
        _check_kind(spec.name, kind, spec.label, study=True)
    return specs


def _metric_labels(spec: MetricSpec, compiled: CompiledScenario) -> list[str]:
    if not compiled.ranked:
        return [spec.label]
    return [f"{spec.label}[pos{j + 1}]" for j in range(compiled.k)] + [f"{spec.label}[total]"]


def _block_rows(n: int, k: int) -> int:
    """Replicates per block: about ``_BLOCK_ENTRIES`` entries, at least one replicate."""
    return max(1, _BLOCK_ENTRIES // (n * k))


def _evaluate(entry, arg, w: np.ndarray, wr: np.ndarray) -> tuple:
    """A kernel's values and failed rows on a block, with the error that names the failures.

    A kernel that raises an estimation error (cross-fitting at fewer than
    two entries per fold) fails every row of the block. Ranked values gain
    a last column, the total over positions, and a row fails if any of its
    positions does.
    """
    try:
        values, _, failed = entry.kernel(w, wr, arg)
    except EstimationError as exc:
        return np.full(w.shape[:1], np.nan), np.ones(w.shape[:1], dtype=bool), type(exc)
    if entry.kind == "ranked":
        values = np.concatenate([values, np.sum(values, axis=-1)[:, None]], axis=1)
        failed = None if failed is None else failed.any(axis=-1)
    return values, failed, entry.error


def _replicate_range(compiled, n, master_seed, start, stop, specs, folds, oracle_value):
    """Evaluate all metrics on replicates [start, stop), block by block; NaN marks failures."""
    metrics = [
        (spec.label, ESTIMATORS[spec.name], kernel_arg(spec, compiled.k, folds, master_seed, oracle_value))
        for spec in specs
    ]
    widths = [len(_metric_labels(spec, compiled)) for spec in specs]
    values = np.full((stop - start, sum(widths)), np.nan)
    failures: list[tuple[str, int, str]] = []
    step = _block_rows(n, compiled.k)
    streams = replicate_streams(master_seed, n, range(start, stop))
    # One buffer for the whole range: a block's uniforms, (1 + 2k) * n per
    # row, outgrow malloc's mmap threshold, so a new one each block would
    # fault its pages in again.
    buffer = np.empty((min(step, stop - start), (1 + 2 * compiled.k) * n))
    for low in range(start, stop, step):
        high = min(low + step, stop)
        w, wr = sample_weights(compiled, n, draw_uniforms(buffer[: high - low], streams))
        rows = values[low - start : high - start]
        found = []
        offset = 0
        for index, ((label, entry, arg), width) in enumerate(zip(metrics, widths)):
            out, failed, error = _evaluate(entry, arg, w, wr)
            columns = rows[:, offset : offset + width]
            columns[...] = out.reshape(len(columns), -1)
            if failed is not None and failed.any():
                columns[failed] = np.nan
                found.extend((low + int(row), index, label, error.__name__) for row in np.flatnonzero(failed))
            offset += width
        found.sort()
        failures.extend((label, replicate, error) for replicate, _, label, error in found)
    return values, failures


@dataclass(frozen=True)
class FailureRecord:
    """One replicate on which a metric's precondition failed."""

    metric: str
    replicate: int
    error: str


@dataclass(frozen=True, eq=False)
class ReplicateMatrix:
    """Per-replicate metric values at one sample size, NaN where failed."""

    n: int
    labels: tuple[str, ...]
    values: np.ndarray
    failures: tuple[FailureRecord, ...]

    def column(self, label: str) -> np.ndarray:
        if label not in self.labels:
            raise ValidationError(f"no metric {label!r} in this matrix")
        return self.values[:, self.labels.index(label)]


@contextmanager
def _worker_pool(n_jobs: int):
    """``(pool, n_jobs)``: one process pool for every cell of a study, ``None`` for one worker, and the int count."""
    n_jobs = _integer(n_jobs, "worker count")
    if n_jobs < 1:
        raise ValidationError(f"worker count must be at least 1, got {n_jobs}")
    if n_jobs == 1:
        yield None, n_jobs
        return
    # Imported here so that a single worker skips the process-pool machinery.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        yield pool, n_jobs


def _run_task(payload: bytes):
    fn, args = pickle.loads(payload)
    return fn(*args)


def _run_in_pool(pool, tasks: list) -> list:
    """Run ``(fn, args)`` tasks on the pool; a pool failure becomes :class:`WorkerFailure`."""
    from concurrent.futures.process import BrokenProcessPool

    try:
        payloads = [pickle.dumps(task) for task in tasks]
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise WorkerFailure(f"cannot send the work to worker processes: {exc}") from exc
    try:
        futures = [pool.submit(_run_task, payload) for payload in payloads]
        return [future.result() for future in futures]
    except BrokenProcessPool as exc:
        raise WorkerFailure(f"a worker process terminated abruptly: {exc}") from exc


def _replicate_matrix(compiled, n, replicates, master_seed, specs, folds, oracle_value, pool, n_jobs):
    """The paired replicate matrix of one cell of a compiled scenario, on the study's pool if it has one."""
    labels = tuple(label for spec in specs for label in _metric_labels(spec, compiled))
    # The matrix holds a float64 per replicate and label, and numpy holds at most intp.max bytes in one array.
    largest = int(np.iinfo(np.intp).max) // (8 * len(labels))
    if replicates > largest:
        raise ValidationError(f"replicates must be at most {largest}, the largest count an array holds")
    if pool is None:
        chunks = [_replicate_range(compiled, n, master_seed, 0, replicates, specs, folds, oracle_value)]
    else:
        size = max(1, -(-replicates // (n_jobs * 4)))
        chunks = _run_in_pool(
            pool,
            [
                (
                    _replicate_range,
                    (compiled, n, master_seed, start, min(start + size, replicates), specs, folds, oracle_value),
                )
                for start in range(0, replicates, size)
            ],
        )
    values = np.vstack([chunk_values for chunk_values, _ in chunks])
    values.setflags(write=False)
    failures = tuple(
        FailureRecord(metric, replicate, error)
        for _, chunk_failures in chunks
        for metric, replicate, error in chunk_failures
    )
    return ReplicateMatrix(n=n, labels=labels, values=values, failures=failures)


def replicate_estimates(
    scenario,
    n: int,
    replicates: int,
    master_seed: int,
    estimators,
    *,
    folds: int = 5,
    oracle_value: float | None = None,
    n_jobs: int = 1,
) -> ReplicateMatrix:
    """Paired per-replicate estimates for every requested metric.

    ``oracle_value`` is only consulted by the squared-remainder metric; it
    defaults to the exact enumerated value of the target policy, read from
    the compiled scenario. The scenario is compiled, and so checked, before
    any replicate is drawn.
    """
    specs = _study_specs(estimators, scenario)
    if not specs:
        raise ValidationError("at least one estimator is required")
    n = _integer(n, "sample size")
    replicates = _integer(replicates, "replicates")
    master_seed = _integer(master_seed, "master seed")
    if replicates < 2:
        raise TooFewReplicates(replicates)
    if master_seed < 0:
        raise ValidationError(f"master seed must be non-negative, got {master_seed}")
    compiled = compile_scenario(scenario)
    _check_sample_size(n, compiled.k)
    if oracle_value is None and any(ESTIMATORS[s.name].param == "value" for s in specs):
        pos = compiled.positions[0]
        oracle_value = _value(compiled.context_probs, pos.p_tgt, pos.reward_means)
    with _worker_pool(n_jobs) as (pool, n_jobs):
        return _replicate_matrix(compiled, n, replicates, master_seed, specs, folds, oracle_value, pool, n_jobs)


def _replicate_vectors(*vectors) -> list[np.ndarray]:
    """Float arrays of equal-length one-dimensional finite replicate estimates, at least two each."""
    arrays = [_float_column(v, "estimates") for v in vectors]
    if any(a.ndim != 1 or a.shape != arrays[0].shape for a in arrays):
        shapes = ", ".join(str(a.shape) for a in arrays)
        raise ValidationError(f"estimates must be one-dimensional and of one length, got shapes {shapes}")
    if arrays[0].shape[0] < 2:
        raise TooFewReplicates(arrays[0].shape[0])
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValidationError("estimates must be finite; drop failed replicates first")
    return arrays


def _decompose(estimates, true_value: float) -> tuple[float, float, float, float]:
    """``(mean, bias, variance, mse)`` of the estimates around ``true_value``, in one pass."""
    (arr,) = _replicate_vectors(estimates)
    target = _finite(true_value, "true value")
    with np.errstate(over="ignore", invalid="ignore"):  # numbers near the float maximum give inf or nan
        mean = float(np.mean(arr))
        deviations = arr - mean
        errors = arr - target
        variance = float(np.mean(deviations * deviations))
        mse = float(np.mean(errors * errors))
    return mean, mean - target, variance, mse


def mse_decompose(estimates, true_value: float) -> tuple[float, float, float]:
    """Split mean squared error into bias and variance around ``true_value``.

    Returns ``(bias, variance, mse)`` with the 1/m normaliser throughout,
    so ``mse == bias**2 + variance`` up to rounding.
    """
    return _decompose(estimates, true_value)[1:]


def paired_mse_difference(a, b, true_value: float) -> tuple[float, float]:
    """Mean and standard error of ``(b - v)^2 - (a - v)^2`` over paired replicates.

    A positive difference means ``a`` has the smaller mean squared error.
    The standard error comes from the per-replicate differences, which is
    what pairing buys: shared sampling noise cancels inside each term.
    """
    x, y = _replicate_vectors(a, b)
    v = _finite(true_value, "true value")
    with np.errstate(over="ignore", invalid="ignore"):  # numbers near the float maximum give inf or nan
        d = (y - v) ** 2 - (x - v) ** 2
        return float(np.mean(d)), float(np.std(d, ddof=1) / np.sqrt(d.shape[0]))


def paired_variance_difference(a, b) -> tuple[float, float]:
    """Mean and standard error of the variance difference var(b) - var(a).

    Uses the influence-function form ``(b - mean(b))^2 - (a - mean(a))^2``
    per replicate, so the standard error accounts for the pairing.
    """
    x, y = _replicate_vectors(a, b)
    with np.errstate(over="ignore", invalid="ignore"):  # numbers near the float maximum give inf or nan
        dx = x - float(np.mean(x))
        dy = y - float(np.mean(y))
        d = dy * dy - dx * dx
        return float(np.mean(d)), float(np.std(d, ddof=1) / np.sqrt(d.shape[0]))


def fit_loglog_slope(points) -> tuple[float, float]:
    """Least-squares slope and intercept of log(y) against log(x).

    ``points`` is a sequence of ``(x, y)`` pairs with finite positive
    coordinates and at least two distinct x values.
    """
    try:
        pts = list(points)
        x = np.array([float(p[0]) for p in pts])
        y = np.array([float(p[1]) for p in pts])
    except (TypeError, ValueError, IndexError, OverflowError):
        raise DegenerateX("log-log fit needs a sequence of (x, y) pairs of numbers") from None
    if len(pts) < 2:
        raise DegenerateX(f"need at least two points for a log-log fit, got {len(pts)}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DegenerateX("log-log fit needs finite coordinates")
    if (x <= 0).any() or (y <= 0).any():
        raise DegenerateX("log-log fit needs strictly positive coordinates")
    if np.unique(x).shape[0] < 2:
        raise DegenerateX("log-log fit needs at least two distinct x values")
    slope, intercept = np.polyfit(np.log(x), np.log(y), deg=1)
    return float(slope), float(intercept)


@dataclass(frozen=True)
class OracleTarget:
    """Exact reference quantities for one estimation target.

    ``label`` is ``"value"`` for scalar scenarios and ``"pos1"``,
    ``"pos2"``, ..., ``"total"`` for ranking scenarios. The variance
    quantities are per single sample; divide by n for a sample-size-n
    estimator. They and ``beta_star`` are ``None`` when the weights are
    degenerate, and for the ranking total, which aggregates positions.
    """

    label: str
    value: float
    moments: MomentSummary | None
    beta_star: float | None
    avar_snips: float | None
    var_beta_star: float | None
    delta_per_sample: float | None


@dataclass(frozen=True)
class OracleReport:
    """Enumerated truths for every target of a scenario."""

    targets: tuple[OracleTarget, ...]

    def target(self, label: str) -> OracleTarget:
        for t in self.targets:
            if t.label == label:
                return t
        raise ValidationError(f"no oracle target {label!r}")

    @property
    def value(self) -> float:
        """The scalar value, or the total for ranking scenarios: the last target either way."""
        return self.targets[-1].value


def _oracle(compiled: CompiledScenario) -> OracleReport:
    """Exact values, moments, and optimal baselines of every compiled position."""
    targets = []
    for j, pos in enumerate(compiled.positions):
        v = _value(compiled.context_probs, pos.p_tgt, pos.reward_means)
        moments = _moments(compiled.context_probs, pos)
        beta_star = moments.beta_star
        if beta_star is None:
            avar = var_star = delta = None
        else:
            gap = variance_gap(moments, v)
            avar, var_star, delta = gap.avar_snips, gap.var_beta_star, gap.gap_delta
        targets.append(
            OracleTarget(
                label=f"pos{j + 1}" if compiled.ranked else "value",
                value=v,
                moments=moments,
                beta_star=beta_star,
                avar_snips=avar,
                var_beta_star=var_star,
                delta_per_sample=delta,
            )
        )
    if compiled.ranked:
        total = float(np.sum(np.array([t.value for t in targets])))
        targets.append(
            OracleTarget(
                label="total",
                value=total,
                moments=None,
                beta_star=None,
                avar_snips=None,
                var_beta_star=None,
                delta_per_sample=None,
            )
        )
    return OracleReport(targets=tuple(targets))


def oracle_report(scenario) -> OracleReport:
    """Exact values, moments, and optimal baselines by enumeration over the compiled scenario."""
    return _oracle(compile_scenario(scenario))


def _metric_targets(specs, compiled: CompiledScenario, oracle: OracleReport) -> dict[str, float]:
    """Each metric label's oracle target; the labels of a spec follow the oracle's targets in order."""
    return {
        label: 0.0 if spec.name == "remainder-sq" else target.value
        for spec in specs
        for label, target in zip(_metric_labels(spec, compiled), oracle.targets)
    }


@dataclass(frozen=True)
class StudyConfig:
    """Everything a study needs; the seed fully determines the draws."""

    scenario: object
    scenario_label: str
    n_grid: tuple[int, ...]
    replicates: int
    master_seed: int
    estimators: tuple[str, ...] = ()
    folds: int = 5

    def __post_init__(self) -> None:
        if not isinstance(self.scenario, (BanditScenario, RankingEnv)):
            raise ValidationError(
                f"scenario must be a BanditScenario or RankingEnv, got {type(self.scenario).__name__}"
            )
        try:
            values = tuple(self.n_grid)
        except TypeError:
            raise ValidationError(f"the sample size grid must be a sequence, got {self.n_grid!r}") from None
        grid = tuple(_integer(v, "sample size") for v in values)
        if not grid:
            raise ValidationError("the sample size grid cannot be empty")
        if any(v < 1 for v in grid):
            raise ValidationError("sample sizes must be at least 1")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValidationError(f"the sample size grid must be strictly increasing, got {grid}")
        _check_sample_size(grid[-1], self.scenario.k, "n_grid entries")
        object.__setattr__(self, "n_grid", grid)
        for field, minimum, rule in (
            ("replicates", 100, "studies need at least 100 replicates for stable cell statistics"),
            ("master_seed", 0, "master seed must be non-negative"),
            ("folds", 2, "cross-fitting needs at least 2 folds"),
        ):
            value = _integer(getattr(self, field), field.replace("_", " "))
            if value < minimum:
                raise ValidationError(f"{rule}, got {value}")
            object.__setattr__(self, field, value)
        object.__setattr__(self, "estimators", tuple(str(e) for e in self.estimators))


@dataclass(frozen=True)
class StudyRow:
    """Cell statistics for one metric at one sample size."""

    estimator: str
    n: int
    mean_estimate: float
    bias: float
    variance: float
    mse: float
    std_error: float
    oracle_value: float
    n_used: int
    n_failed: int

    def __post_init__(self) -> None:
        closure = self.bias * self.bias + self.variance
        if abs(self.mse - closure) > 1e-10 * max(abs(self.mse), closure, 1e-300):
            raise ValidationError(
                f"mse {self.mse} does not decompose into bias^2 + variance = {closure}"
            )


@dataclass(frozen=True, eq=False)
class StudyReport:
    """Aggregated study output and the configuration that produced it.

    ``weight_bound`` is the scenario's largest importance weight; it feeds
    the theoretical ceiling on replicate failure frequency reported next
    to the tallied failures.
    """

    rows: tuple[StudyRow, ...]
    oracle: OracleReport
    config: StudyConfig
    estimators: tuple[str, ...]
    failures: tuple[FailureRecord, ...]
    weight_bound: float


def _rows_for_matrix(matrix: ReplicateMatrix, targets: dict[str, float]) -> list[StudyRow]:
    """Each metric's cell statistics; a cell whose statistics leave the float range fails the study."""
    rows = []
    replicates = matrix.values.shape[0]
    for index, label in enumerate(matrix.labels):
        column = matrix.values[:, index]
        finite = np.isfinite(column)
        n_failed = replicates - int(finite.sum())
        if n_failed > 0.01 * replicates:
            raise ExcessiveFailureRate(label, matrix.n, n_failed, replicates)
        kept = column[finite]
        target = targets[label]
        mean, bias, variance, mse = _decompose(kept, target)
        # The bias is the mean less a finite target, so it overflows only when the mse does.
        if not np.isfinite((mean, variance, mse)).all():
            raise StudyError(
                f"{label} at n={matrix.n}: cell statistics are not finite "
                f"(mean {mean}, variance {variance}, mse {mse}); the estimates reach the float range"
            )
        rows.append(
            StudyRow(
                estimator=label,
                n=matrix.n,
                mean_estimate=mean,
                bias=bias,
                variance=variance,
                mse=mse,
                std_error=float(np.sqrt(variance / (kept.shape[0] - 1))),
                oracle_value=target,
                n_used=int(kept.shape[0]),
                n_failed=n_failed,
            )
        )
    return rows


def _run_grid(
    config: StudyConfig, compiled: CompiledScenario, specs, oracle: OracleReport, n_jobs: int, cell=None
) -> StudyReport:
    """Run the study's cells in grid order on one worker pool and aggregate them.

    ``compiled`` is the study's scenario, compiled once by the study kind
    before its oracle, so a scenario that fails its checks fails before the
    oracle and any draw. ``cell``, a study kind's verdict, sees each cell's
    replicate matrix before the next cell is sampled, so it builds its state
    one cell at a time and the loop keeps no earlier cell's matrix.
    """
    oracle_value = None if compiled.ranked else oracle.value
    targets = _metric_targets(specs, compiled, oracle)
    rows: list[StudyRow] = []
    failures: list[FailureRecord] = []
    with _worker_pool(n_jobs) as (pool, n_jobs):
        for n in config.n_grid:
            matrix = _replicate_matrix(
                compiled,
                n,
                config.replicates,
                config.master_seed,
                specs,
                config.folds,
                oracle_value,
                pool,
                n_jobs,
            )
            rows.extend(_rows_for_matrix(matrix, targets))
            failures.extend(matrix.failures)
            if cell is not None:
                cell(matrix)
    return StudyReport(
        rows=tuple(rows),
        oracle=oracle,
        config=config,
        estimators=tuple(spec.label for spec in specs),
        failures=tuple(failures),
        weight_bound=compiled.weight_bound,
    )


def _no_estimators(config: StudyConfig, kind: str) -> None:
    """Reject an estimator list in a study kind whose estimators are fixed."""
    if config.estimators:
        raise ValidationError(
            f"the {kind} study fixes its own estimators and takes no estimators list, "
            f"got {', '.join(config.estimators)}"
        )


def run_mc_study(config: StudyConfig, n_jobs: int = 1) -> StudyReport:
    """Bias, variance, and MSE for each estimator over the sample size grid."""
    specs = _study_specs(config.estimators, config.scenario)
    if not specs:
        raise ValidationError("the study needs at least one estimator")
    compiled = compile_scenario(config.scenario)
    return _run_grid(config, compiled, specs, _oracle(compiled), n_jobs)


@dataclass(frozen=True)
class DominanceCell:
    """Paired MSE comparison at one sample size and target."""

    n: int
    target: str
    mse_optimal: float
    mse_self_normalised: float
    mse_difference: float
    se_difference: float
    dominant: bool
    n_pairs: int


@dataclass(frozen=True, eq=False)
class DominanceReport:
    """Where the plug-in optimal baseline beats self-normalisation.

    ``smallest_dominant_n`` maps each target to the smallest grid sample
    size at which the paired MSE difference exceeds twice its standard
    error, or ``None`` if that never happens on the grid.
    """

    study: StudyReport
    cells: tuple[DominanceCell, ...]
    smallest_dominant_n: dict[str, int | None]


def _dominance_cells(matrix: ReplicateMatrix, columns, targets) -> list[DominanceCell]:
    """The paired comparison of one grid cell at every target, from the pair's columns for each."""
    cells = []
    for target, optimal_label, selfnorm_label in zip(targets, *columns):
        optimal = matrix.column(optimal_label)
        selfnorm = matrix.column(selfnorm_label)
        value = target.value
        paired = np.isfinite(optimal) & np.isfinite(selfnorm)
        if int(paired.sum()) < 2:
            raise TooFewReplicates(int(paired.sum()))
        diff, se = paired_mse_difference(optimal[paired], selfnorm[paired], value)
        _, _, mse_optimal = mse_decompose(optimal[paired], value)
        _, _, mse_selfnorm = mse_decompose(selfnorm[paired], value)
        cells.append(
            DominanceCell(
                n=matrix.n,
                target=target.label,
                mse_optimal=mse_optimal,
                mse_self_normalised=mse_selfnorm,
                mse_difference=diff,
                se_difference=se,
                dominant=bool(diff > 2.0 * se),
                n_pairs=int(paired.sum()),
            )
        )
    return cells


def dominance_check(config: StudyConfig, n_jobs: int = 1) -> DominanceReport:
    """Paired comparison of the plug-in baseline against self-normalisation.

    Requires a scenario whose optimal baseline is defined and differs from
    the true value; otherwise the two estimators have the same asymptotic
    variance and there is nothing to dominate.
    """
    _no_estimators(config, "dominance")
    compiled = compile_scenario(config.scenario)
    pair = ("beta-perp-star-ipm", "snipm") if compiled.ranked else ("beta-star-ips", "snips")
    oracle = _oracle(compiled)
    targets = oracle.targets[: compiled.k]  # each position's, not the ranked total
    for target in targets:
        if target.beta_star is None:
            raise PreconditionNotMet(
                f"{target.label}: the optimal baseline is undefined (degenerate weights)"
            )
        scale = max(1.0, abs(target.value), abs(target.beta_star))
        if abs(target.beta_star - target.value) <= 1e-9 * scale:
            raise PreconditionNotMet(
                f"{target.label}: the optimal baseline equals the true value, so "
                "self-normalisation is already asymptotically optimal"
            )
    cells: list[DominanceCell] = []
    specs = tuple(MetricSpec(name) for name in pair)
    columns = [_metric_labels(spec, compiled) for spec in specs]
    study = _run_grid(
        config, compiled, specs, oracle, n_jobs, lambda m: cells.extend(_dominance_cells(m, columns, targets))
    )
    smallest: dict[str, int | None] = {}
    for target in targets:
        dominant_ns = [c.n for c in cells if c.target == target.label and c.dominant]
        smallest[target.label] = min(dominant_ns) if dominant_ns else None
    return DominanceReport(study=study, cells=tuple(cells), smallest_dominant_n=smallest)


@dataclass(frozen=True, eq=False)
class DecayReport:
    """Decay rate of the mean squared remainder over the sample size grid.

    ``slope`` is the log-log slope of ``mean(r_n^2)`` against ``n``; the
    quadratic remainder theory predicts a value near -2. Cells whose mean
    square underflows to zero or below are dropped and listed.
    """

    study: StudyReport
    true_value: float
    slope: float
    intercept: float
    dropped_cells: tuple[int, ...]


def _check_rate_study(config: StudyConfig, name: str) -> None:
    """Rate studies are scalar and need leverage: 4 grid points spanning 1.5 decades."""
    if not isinstance(config.scenario, BanditScenario):
        raise ValidationError(f"the {name} study applies to scalar scenarios only")
    n_grid = config.n_grid
    if len(n_grid) < 4:
        raise ValidationError(
            f"rate studies need at least 4 grid points, got {len(n_grid)}"
        )
    span = np.log10(n_grid[-1] / n_grid[0])
    if span < 1.5:
        raise ValidationError(
            f"rate studies need a grid spanning at least 1.5 decades, got {span:.2f}"
        )


def _rate_fit(points) -> tuple[float, float, tuple[int, ...]]:
    """Log-log slope and intercept of ``(n, y)`` cells; cells with ``y <= 0`` are dropped and listed."""
    kept = [(n, y) for n, y in points if y > 0.0]
    if len(kept) < 2:
        raise NonPositiveMean(len(kept))
    slope, intercept = fit_loglog_slope(kept)
    return slope, intercept, tuple(n for n, y in points if y <= 0.0)


def decay_rate_study(config: StudyConfig, n_jobs: int = 1) -> DecayReport:
    """Measure how fast the self-normalisation remainder vanishes."""
    _no_estimators(config, "decay")
    _check_rate_study(config, "remainder decay")
    compiled = compile_scenario(config.scenario)
    oracle = _oracle(compiled)
    study = _run_grid(config, compiled, (MetricSpec("remainder-sq"),), oracle, n_jobs)
    slope, intercept, dropped = _rate_fit([(row.n, row.mean_estimate) for row in study.rows])
    return DecayReport(
        study=study, true_value=oracle.value, slope=slope, intercept=intercept, dropped_cells=dropped
    )


@dataclass(frozen=True, eq=False)
class BiasRateReport:
    """Decay rate of an estimator's absolute bias over the sample size grid.

    For the self-normalised estimator the bias shrinks like 1/n, so the
    log-log slope sits near -1. Cells with exactly zero measured bias are
    dropped and listed.
    """

    study: StudyReport
    estimator: str
    slope: float
    intercept: float
    dropped_cells: tuple[int, ...]


def bias_rate_study(config: StudyConfig, n_jobs: int = 1) -> BiasRateReport:
    """Measure how fast an estimator's bias vanishes with the sample size."""
    _check_rate_study(config, "bias rate")
    estimators = config.estimators or default_estimators("bias-rate", config.scenario)
    if len(estimators) != 1:
        raise ValidationError("the bias rate study takes exactly one estimator")
    specs = _study_specs(estimators, config.scenario)
    compiled = compile_scenario(config.scenario)
    study = _run_grid(config, compiled, specs, _oracle(compiled), n_jobs)
    slope, intercept, dropped = _rate_fit([(row.n, abs(row.bias)) for row in study.rows])
    return BiasRateReport(
        study=study, estimator=specs[0].label, slope=slope, intercept=intercept, dropped_cells=dropped
    )


#: Study kind -> the function that runs it. Every kind but ``mc`` returns a
#: report that holds its StudyReport as ``study`` next to the kind's verdict.
STUDIES = {
    "mc": run_mc_study,
    "decay": decay_rate_study,
    "dominance": dominance_check,
    "bias-rate": bias_rate_study,
}
