"""Seeded Monte Carlo studies over synthetic environments.

Replicates are paired: every estimator in a study cell is evaluated on
the same sampled dataset, replicate by replicate, so comparisons between
estimators difference out the shared sampling noise. Replicate ``r`` at
sample size ``n`` draws from the stream of
``default_rng(SeedSequence((master_seed, n, r)))``, which depends on
nothing else; results are identical for any estimator list, chunking, or
worker count. The engine builds no SeedSequence per replicate: it hashes
the seeds of a whole range of replicates at once and lets PCG64 seed
itself from each replicate's words, which gives the same stream bit for
bit (:func:`~opekit.simulator.replicate_streams`).

A cell is evaluated by replicate ranges (one per worker task), each
reduced block by block and finished once. Each block is sampled into one
``(replicates, n)`` array (``(replicates, positions, n)`` for ranked
scenarios), one row per replicate, and one
:class:`~opekit.estimators.Rows` takes the reductions the metric table
reads: both row means always, the centred moments for the plug-in
baselines and the fold moments and complement means for cross-fitting.
They are written into one bundle of the range, preallocated with a few
numbers per replicate (a few per fold for cross-fitting), never one per
entry. After the last block each kernel runs once on the bundle, so its
checks and failure masks run once per range; a validation error is the
one a block-by-block run would meet first (the earliest block, then the
metric order). A block holds about ``_BLOCK_ENTRIES`` (16384, the
engine's own budget) entries whatever the replicate count. Row
reductions sum exactly as one-row ones do, so the block size never
changes a bit.

A range's :class:`~opekit.estimators.Workspace` holds every array of a
block but the deviations' products: the first block allocates them and
the rest write over them, where freed
ones would go back to the kernel and fault in again. It lives per range,
not per process, so concurrent callers share no buffer and a finished
range holds no memory. A block is drawn
by the one sampler the public samplers and ``simulate`` also use
(:func:`~opekit.simulator.sample_cells`), and the engine gathers only the
weights and weighted rewards at its cells
(:func:`~opekit.simulator.sample_weights`), from tables compiled once per
study, before the oracle and the pool: compiling runs the entry check once
over the cells a draw can pick, so a scenario whose samples would fail
the dataset checks fails before its oracle is enumerated and before any
draw, and no block is checked. The oracle is read from the same compiled
tables.

A replicate on which an estimator's precondition fails is recorded, and
every column of the estimator and every dominance pair keeps only the
surviving replicates (:meth:`ReplicateMatrix.kept`). More than 1% failures
for any estimator at any sample size aborts the study, because then the
survivors no longer represent the sampling distribution.

Every study and replicate matrix is set up by ``_setup``: it compiles the
scenario, always enumerates its oracle, runs a study kind's precondition
(``check``) and builds the metric table, each metric's columns named from
the oracle's target labels with their targets. Every study kind runs its
grid through one loop, ``_run_grid``; a kind adds only its metrics,
``check``, and a verdict built one grid cell at a time (``cell``).
"""

from __future__ import annotations

import pickle
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .analysis import VarianceGapReport, variance_gap
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
from .estimators import ESTIMATORS, MetricSpec, MomentSummary, Rows, Workspace, _check_kind, _checked_arg, kernel_arg
from .estimators import parse_estimator_spec, row_total
from .simulator import (
    CompiledScenario,
    _check_sample_size,
    _moments,
    _ranked,
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
    family = "ranked" if _ranked(scenario) else "scalar"
    return tuple(name for name, entry in ESTIMATORS.items() if entry.kind == family and kind in entry.defaults)


def _estimator_list(estimators) -> tuple:
    """The entries of an estimator list; a string or a non-iterable is not one."""
    if not isinstance(estimators, str):
        try:
            return tuple(estimators)
        except TypeError:
            pass
    raise ValidationError(f"estimators must be a list of estimator names, got {estimators!r}")


def _study_specs(estimators, scenario) -> tuple[MetricSpec, ...]:
    """Parsed specs, at least one, each checked to apply to the scenario's kind."""
    kind = "ranked" if _ranked(scenario) else "scalar"
    specs = tuple(parse_estimator_spec(e) for e in _estimator_list(estimators))
    if not specs:
        raise ValidationError("at least one estimator is required")
    for spec in specs:
        _check_kind(spec.name, kind, spec.label, study=True)
    return specs


def _block_rows(n: int, k: int) -> int:
    """Replicates per block: about ``_BLOCK_ENTRIES`` entries, at least one replicate."""
    return max(1, _BLOCK_ENTRIES // (n * k))


def _evaluate(entry, arg, rows: Rows) -> tuple:
    """A kernel's values and failed rows on a bundle, with the error that names the failures.

    A kernel that raises an estimation error (cross-fitting at fewer than
    two entries per fold) fails every row. Ranked values gain a last
    column, the total over positions, and a row fails if any of its
    positions does.
    """
    try:
        values, _, failed = entry.kernel(rows, arg)
    except EstimationError as exc:
        return np.full(rows.mean_w.shape[:1], np.nan), np.ones(rows.mean_w.shape[:1], dtype=bool), type(exc)
    if entry.kind == "ranked":
        values = np.concatenate([values, row_total(values)[:, None]], axis=1)
        failed = None if failed is None else failed.any(axis=-1)
    return values, failed, entry.error


@dataclass(frozen=True)
class FailureRecord:
    """One replicate on which a metric's precondition failed."""

    metric: str
    replicate: int
    error: str


def _replicate_range(compiled, n, master_seed, start, stop, metrics):
    """Evaluate all metrics on replicates [start, stop): reduce block by block, then run each kernel once; NaN marks failures."""
    keys = dict.fromkeys(entry.reduction(arg) for _, _, entry, arg in metrics)
    keys.pop(None, None)
    step = _block_rows(n, compiled.k)
    streams = replicate_streams(master_seed, n, range(start, stop))
    # Each stream steps past the n context uniforms of a one-context
    # scenario, which no draw reads, so a row holds (1 + 2k) * n uniforms,
    # or 2k * n. They and every other array of a block are the range's
    # workspace's, written over by each block (the module docstring says why).
    skip = n if compiled.one_context else 0
    width = (1 + 2 * compiled.k) * n - skip
    ws = Workspace()
    bundle = None
    for low in range(start, stop, step):
        high = min(low + step, stop)
        uniforms = draw_uniforms(ws("uniforms", (high - low, width)), streams, skip)
        block = Rows(*sample_weights(compiled, n, uniforms, ws), ws).reduce(keys)
        if bundle is None:
            bundle = block.bundle(stop - start)
        bundle.fill(low - start, block)
    try:
        results = [_evaluate(entry, arg, bundle) for _, _, entry, arg in metrics]
    except ValidationError:
        # Raise what evaluating block by block meets first: the earliest block, then the metric order.
        for low in range(0, stop - start, step):
            for _, _, entry, arg in metrics:
                _evaluate(entry, arg, bundle[low : low + step])
        raise
    values = np.empty((stop - start, sum(len(targets) for _, targets, _, _ in metrics)))
    failures: list[FailureRecord] = []
    offset = 0
    for (label, targets, _, _), (out, failed, error) in zip(metrics, results):
        columns = values[:, offset : offset + len(targets)]
        columns[...] = out.reshape(len(columns), -1)
        if failed is not None and failed.any():
            columns[failed] = np.nan
            failures.extend(FailureRecord(label, start + int(row), error.__name__) for row in np.flatnonzero(failed))
        offset += len(targets)
    failures.sort(key=lambda record: record.replicate)  # stable: a replicate's records stay in metric order
    return values, failures


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

    def kept(self, metric: str) -> np.ndarray:
        """The replicates ``metric`` has no failure record for, as a mask: every column of the metric keeps them."""
        keep = np.ones(self.values.shape[0], dtype=bool)
        keep[[failure.replicate for failure in self.failures if failure.metric == metric]] = False
        return keep


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


def _replicate_matrix(compiled, n, replicates, master_seed, metrics, pool, n_jobs):
    """The paired replicate matrix of one cell of a compiled scenario, on the study's pool if it has one."""
    labels = tuple(column for _, targets, _, _ in metrics for column in targets)
    # The matrix holds a float64 per replicate and label, and numpy holds at most intp.max bytes in one array.
    largest = int(np.iinfo(np.intp).max) // (8 * len(labels))
    if replicates > largest:
        raise ValidationError(f"replicates must be at most {largest}, the largest count an array holds")
    if pool is None:
        chunks = [_replicate_range(compiled, n, master_seed, 0, replicates, metrics)]
    else:
        size = max(1, -(-replicates // (n_jobs * 4)))
        chunks = _run_in_pool(
            pool,
            [
                (
                    _replicate_range,
                    (compiled, n, master_seed, start, min(start + size, replicates), metrics),
                )
                for start in range(0, replicates, size)
            ],
        )
    values = np.vstack([chunk_values for chunk_values, _ in chunks])
    values.setflags(write=False)
    failures = tuple(record for _, chunk_failures in chunks for record in chunk_failures)
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
    defaults to the exact value of the target policy. :func:`_setup`
    compiles the scenario and always enumerates its oracle before any
    draw, and the matrix's columns are those of its metric table.
    """
    specs = _study_specs(estimators, scenario)
    n = _integer(n, "sample size")
    replicates = _integer(replicates, "replicates")
    master_seed = _integer(master_seed, "master seed")
    if replicates < 2:
        raise TooFewReplicates(replicates)
    if master_seed < 0:
        raise ValidationError(f"master seed must be non-negative, got {master_seed}")
    _check_sample_size(n, scenario.k)
    compiled, _, metrics = _setup(scenario, specs, folds, master_seed, value=oracle_value)
    with _worker_pool(n_jobs) as (pool, n_jobs):
        return _replicate_matrix(compiled, n, replicates, master_seed, metrics, pool, n_jobs)


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


def _decompose(arr: np.ndarray, target: float) -> tuple[float, float, float, float]:
    """``(mean, bias, variance, mse)`` of an array around ``target`` in one pass, inf or nan past the float range."""
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
    return _decompose(_replicate_vectors(estimates)[0], _finite(true_value, "true value"))[1:]


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
    ``"pos2"``, ..., ``"total"`` for ranking scenarios. ``moments`` are the
    target's exact moments at n = 1, and their ``beta_star`` its optimal
    baseline; ``gap`` is ``variance_gap(moments, value)``, the per-sample
    variances of self-normalisation and of the optimal baseline and the gap
    between them (divide by n for a sample-size-n estimator). ``gap`` is
    ``None`` when the weights are degenerate, and both are ``None`` for the
    ranking total, which aggregates positions.
    """

    label: str
    value: float
    moments: MomentSummary | None
    gap: VarianceGapReport | None


@dataclass(frozen=True)
class OracleReport:
    """Enumerated truths for every target of a scenario.

    Each target holds its value, its exact ``moments`` and its variance
    ``gap``, the paper's decomposition, once. ``weight_bound`` is the
    scenario's largest importance weight over the cells a draw can pick;
    it feeds the theoretical ceiling on replicate failure frequency
    reported next to a study's tallied failures.
    """

    targets: tuple[OracleTarget, ...]
    weight_bound: float

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
    """Exact values, moments, and variance gaps of every compiled position, and the weight bound."""
    targets = []
    for j, pos in enumerate(compiled.positions):
        value = _value(compiled.context_probs, pos.p_tgt, pos.reward_means)
        moments = _moments(compiled.context_probs, pos)
        gap = None if moments.beta_star is None else variance_gap(moments, value)
        targets.append(OracleTarget(f"pos{j + 1}" if compiled.ranked else "value", value, moments, gap))
    if compiled.ranked:
        targets.append(OracleTarget("total", float(row_total(np.array([t.value for t in targets]))), None, None))
    return OracleReport(targets=tuple(targets), weight_bound=compiled.weight_bound)


def oracle_report(scenario) -> OracleReport:
    """Exact values, moments, variance gaps and weight bound by enumeration over the compiled scenario.

    The one way to a scenario's exact quantities: a :class:`BanditScenario`
    has one target, ``"value"``; a :class:`RankingEnv` one per position and
    the total.
    """
    return _oracle(compile_scenario(scenario))


def _setup(scenario, specs, folds, master_seed: int, check=None, value=None) -> tuple:
    """``(compiled, oracle, metrics)``: the one setup of every study and replicate matrix, before the pool and any draw.

    ``check``, a study kind's precondition, sees the oracle before any kernel
    argument is checked. A metric is ``(label, targets, entry, arg)``:
    ``targets`` maps each column, named from the oracle's target labels, to
    its target (0.0 for the squared remainder), and ``arg`` is the checked
    kernel argument, which reads ``value``, or else the oracle value.
    """
    compiled = compile_scenario(scenario)
    oracle = _oracle(compiled)
    if check is not None:
        check(oracle)
    value = oracle.value if value is None else value
    metrics = []
    for spec in specs:
        remainder = spec.name == "remainder-sq"
        targets = {
            f"{spec.label}[{t.label}]" if compiled.ranked else spec.label: 0.0 if remainder else t.value
            for t in oracle.targets
        }
        arg = _checked_arg(spec.name, kernel_arg(spec, folds, master_seed, value), compiled.k)
        metrics.append((spec.label, targets, ESTIMATORS[spec.name], arg))
    return compiled, oracle, tuple(metrics)


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
        _ranked(self.scenario)
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
        object.__setattr__(self, "estimators", tuple(str(e) for e in _estimator_list(self.estimators)))


@dataclass(frozen=True)
class StudyRow:
    """Cell statistics for one metric at one sample size."""

    estimator: str
    n: int
    mean: float
    bias: float
    variance: float
    mse: float
    se: float
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
    """Aggregated study output and the configuration that produced it."""

    rows: tuple[StudyRow, ...]
    oracle: OracleReport
    config: StudyConfig
    estimators: tuple[str, ...]
    failures: tuple[FailureRecord, ...]


def _rows_for_matrix(matrix: ReplicateMatrix, metrics) -> list[StudyRow]:
    """Each column's statistics over the replicates its metric kept; statistics past the float range fail the study."""
    rows = []
    replicates = matrix.values.shape[0]
    for metric, targets, _, _ in metrics:
        keep = matrix.kept(metric)
        n_used = int(keep.sum())
        if replicates - n_used > 0.01 * replicates:
            raise ExcessiveFailureRate(metric, matrix.n, replicates - n_used, replicates)
        for label, target in targets.items():
            mean, bias, variance, mse = _decompose(matrix.column(label)[keep], target)
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
                    mean=mean,
                    bias=bias,
                    variance=variance,
                    mse=mse,
                    se=float(np.sqrt(variance / (n_used - 1))),
                    oracle_value=target,
                    n_used=n_used,
                    n_failed=replicates - n_used,
                )
            )
    return rows


def _run_grid(config: StudyConfig, specs, n_jobs: int, check=None, cell=None) -> StudyReport:
    """Set the study up once with :func:`_setup`, then run its cells in grid order on one pool.

    The setup compiles the scenario, always enumerates its oracle and runs
    ``check`` on it before the pool opens. Each cell's rows are judged
    against the metric table's targets; ``cell``, the kind's verdict, sees
    each cell's matrix and the table before the next cell is sampled, so
    the loop keeps no earlier cell's matrix.
    """
    compiled, oracle, metrics = _setup(config.scenario, specs, config.folds, config.master_seed, check)
    rows: list[StudyRow] = []
    failures: list[FailureRecord] = []
    with _worker_pool(n_jobs) as (pool, n_jobs):
        for n in config.n_grid:
            matrix = _replicate_matrix(compiled, n, config.replicates, config.master_seed, metrics, pool, n_jobs)
            rows.extend(_rows_for_matrix(matrix, metrics))
            failures.extend(matrix.failures)
            if cell is not None:
                cell(matrix, metrics)
    return StudyReport(
        rows=tuple(rows),
        oracle=oracle,
        config=config,
        estimators=tuple(spec.label for spec in specs),
        failures=tuple(failures),
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
    return _run_grid(config, _study_specs(config.estimators, config.scenario), n_jobs)


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


def _dominance_cells(matrix: ReplicateMatrix, metrics, targets) -> list[DominanceCell]:
    """The paired comparison of one grid cell at every target, on the replicates both metrics of the pair kept."""
    (optimal_metric, optimal_columns, _, _), (selfnorm_metric, selfnorm_columns, _, _) = metrics
    paired = matrix.kept(optimal_metric) & matrix.kept(selfnorm_metric)
    cells = []
    for target, optimal_label, selfnorm_label in zip(targets, optimal_columns, selfnorm_columns):
        optimal = matrix.column(optimal_label)[paired]
        selfnorm = matrix.column(selfnorm_label)[paired]
        diff, se = paired_mse_difference(optimal, selfnorm, target.value)
        cells.append(
            DominanceCell(
                n=matrix.n,
                target=target.label,
                mse_optimal=_decompose(optimal, target.value)[3],
                mse_self_normalised=_decompose(selfnorm, target.value)[3],
                mse_difference=diff,
                se_difference=se,
                dominant=bool(diff > 2.0 * se),
                n_pairs=len(optimal),
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
    pair = ("beta-perp-star-ipm", "snipm") if _ranked(config.scenario) else ("beta-star-ips", "snips")
    targets: list[OracleTarget] = []
    cells: list[DominanceCell] = []

    def check(oracle: OracleReport) -> None:
        targets.extend(oracle.targets[: config.scenario.k])  # each position's, not the ranked total
        for target in targets:
            beta_star = target.moments.beta_star
            if beta_star is None:
                raise PreconditionNotMet(f"{target.label}: the optimal baseline is undefined (degenerate weights)")
            scale = max(1.0, abs(target.value), abs(beta_star))
            if abs(beta_star - target.value) <= 1e-9 * scale:
                raise PreconditionNotMet(
                    f"{target.label}: the optimal baseline equals the true value, so "
                    "self-normalisation is already asymptotically optimal"
                )

    specs = tuple(MetricSpec(name) for name in pair)
    study = _run_grid(
        config, specs, n_jobs, check, lambda matrix, metrics: cells.extend(_dominance_cells(matrix, metrics, targets))
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
    if _ranked(config.scenario):
        raise ValidationError(f"the {name} study applies to scalar scenarios only")
    n_grid = config.n_grid
    if len(n_grid) < 4:
        raise ValidationError(f"rate studies need at least 4 grid points, got {len(n_grid)}")
    span = np.log10(n_grid[-1] / n_grid[0])
    if span < 1.5:
        raise ValidationError(f"rate studies need a grid spanning at least 1.5 decades, got {span:.2f}")


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
    study = _run_grid(config, (MetricSpec("remainder-sq"),), n_jobs)
    slope, intercept, dropped = _rate_fit([(row.n, row.mean) for row in study.rows])
    return DecayReport(
        study=study, true_value=study.oracle.value, slope=slope, intercept=intercept, dropped_cells=dropped
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
    study = _run_grid(config, specs, n_jobs)
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
