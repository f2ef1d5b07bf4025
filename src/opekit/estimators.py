"""Scalar policy-value estimators built on importance weighting.

All estimators are deterministic functions of a validated
:class:`~opekit.data.Dataset`. The baseline-corrected family
``beta + mean(wr) - beta * mean(w)`` is evaluated as
``beta * (1 - mean(w)) + mean(wr)`` so that a baseline of zero reproduces
the plain importance-weighted mean bit for bit, and any baseline collapses
to that same mean when the weights average to exactly one.

Moments use the population normaliser 1/n and a two-pass centred
computation: means first, then moments of deviations. Runs over the same
dataset therefore agree to the last bit.

Every estimator is defined once, as a row kernel: a function of a
:class:`Rows` bundle, the per-row reductions of the weights ``w`` and
weighted rewards ``wr = w * r`` of some rows, that returns one value per
row. A bundle always holds the row means; the centred moments and
cross-fitting's fold moments and complement means are taken from the
entries on first read (:meth:`Rows.reduction`), a complement's means by
subtracting the fold's sums from the row's, and no kernel reads an
entry. :data:`ESTIMATORS` maps each estimator name to its kernel, its kind
and the reduction it reads. :meth:`Rows.of` alone makes a dataset a
block, one row of positions by entries, a scalar dataset being the
one-position case, and one driver, :func:`_apply`, runs a kernel on it:
the public functions here, the ranked functions and ``opekit evaluate``
(one block for all its estimators and moments) go through it, with one
kind rule (:func:`_check_kind`) and one failure rule. The Monte Carlo
engine reduces each block of replicates, one row each, into one bundle
of a replicate range and runs the same kernels once on it; a block's
arrays are a :class:`Workspace`'s, one per range or dataset. Row
reductions over C-contiguous rows sum in the same order as a reduction
over one row alone, so all callers get the same bits. Specs such as
``beta-ips:0.5`` are parsed next to the registry they name
(:func:`parse_estimator_spec`, :func:`kernel_arg`), and every kernel
argument passes one rule, :func:`_checked_arg`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .data import Dataset, Estimate, RankedDataset, _finite, _float_column, _freeze, _integer
from .errors import (
    DegenerateWeights,
    EstimationError,
    FoldTooSmall,
    LengthMismatch,
    UnknownEstimator,
    ValidationError,
    ZeroWeightSum,
)


@dataclass(frozen=True)
class MomentSummary:
    """First and second empirical moments of the weights and weighted rewards.

    Variances and the covariance are centred and use the 1/n normaliser.
    """

    mean_w: float
    mean_wr: float
    var_w: float
    var_wr: float
    cov_w_wr: float
    n: int

    def __post_init__(self) -> None:
        for name in ("mean_w", "mean_wr", "var_w", "var_wr", "cov_w_wr"):
            object.__setattr__(self, name, _finite(getattr(self, name), name))
        object.__setattr__(self, "n", _integer(self.n, "n"))
        if self.n < 1:
            raise ValidationError(f"moment summary needs n >= 1, got {self.n}")
        if self.var_w < 0 or self.var_wr < 0:
            raise ValidationError("variances cannot be negative")
        cross = self.cov_w_wr * self.cov_w_wr
        bound = self.var_w * self.var_wr
        if cross > bound + 1e-12 * max(cross, bound):
            raise ValidationError(
                f"covariance {self.cov_w_wr} violates the Cauchy-Schwarz bound "
                f"for variances {self.var_w}, {self.var_wr}"
            )

    @property
    def beta_star(self) -> float | None:
        """The plug-in optimal baseline ``cov_w_wr / var_w``; ``None`` when the weights have zero variance."""
        baseline, degenerate = plug_in_baselines(np.float64(self.var_w), self.cov_w_wr)
        return None if degenerate else float(baseline)


@dataclass(frozen=True)
class CrossFitConfig:
    """Fold layout for cross-fitted baseline estimation."""

    folds_k: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "folds_k", _integer(self.folds_k, "fold count"))
        object.__setattr__(self, "seed", _integer(self.seed, "fold seed"))
        if self.folds_k < 2:
            raise ValidationError(f"cross-fitting needs at least 2 folds, got {self.folds_k}")
        if self.seed < 0:
            raise ValidationError(f"fold seed must be non-negative, got {self.seed}")


def _require_scalar(dataset) -> Dataset:
    if not isinstance(dataset, Dataset):
        raise ValidationError(
            f"expected a scalar Dataset, got {type(dataset).__name__}; "
            "use the ranking estimators for ranked data"
        )
    return dataset


def _kind(dataset) -> str:
    """``"ranked"`` or ``"scalar"``: the registry kind of the estimators that apply to ``dataset``."""
    if isinstance(dataset, RankedDataset):
        return "ranked"
    _require_scalar(dataset)
    return "scalar"


def _check_kind(name: str, kind: str, label: str | None = None, study: bool = False) -> RegisteredEstimator:
    """The registry entry of ``name``; :class:`UnknownEstimator`, naming ``label``, unless it applies to ``kind`` data.

    The one kind rule of the estimators, ``opekit evaluate`` and the studies;
    a study diagnostic applies to scalar data in studies (``study``) only.
    A name that is not registered is unknown, as :func:`parse_estimator_spec` says.
    """
    entry = ESTIMATORS.get(name) if isinstance(name, str) else None
    if entry is None:
        raise UnknownEstimator(f"unknown estimator {name!r}")
    if entry.kind != kind and not (study and entry.kind == "study" and kind == "scalar"):
        raise UnknownEstimator(f"{label or name} does not apply to {kind} data")
    return entry


def row_sum(x: np.ndarray) -> np.ndarray:
    """Sum along the last axis: the sum of ``np.mean`` and :func:`row_mean`, without its overhead."""
    return np.add.reduce(x, axis=-1)


def row_mean(x: np.ndarray) -> np.ndarray:
    """Mean along the last axis: the sum and division of ``np.mean``, without its overhead."""
    return np.add.reduce(x, axis=-1) / x.shape[-1]


def row_total(x: np.ndarray) -> np.ndarray:
    """Sum along the last axis, as ``np.sum`` adds: a ranked estimate's total over its positions.

    A total past the float range is inf, silently, as a value past it is.
    """
    with np.errstate(over="ignore"):
        return np.sum(x, axis=-1)


def _moments(w: np.ndarray, wr: np.ndarray, ws: Workspace, means) -> tuple[np.ndarray, ...]:
    """Unchecked two-pass centred moments along the last axis about the row means ``means``.

    The deviations go to the workspace's ``dev_w`` and ``dev_wr`` of their
    shape, so ``w`` and ``wr`` taken there are centred in place. Their
    products stay temporaries, one at a time: a workspace buffer for them
    would stay resident through cross-fitting's fold layout, one copy more
    at the peak of ``opekit evaluate``. Overflow is silent, an inf or nan
    that :func:`_invalid_moments` rejects.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        dev_w = np.subtract(w, means[0][..., None], out=ws("dev_w", w.shape))
        dev_wr = np.subtract(wr, means[1][..., None], out=ws("dev_wr", w.shape))
        return (*means, row_mean(dev_w * dev_w), row_mean(dev_wr * dev_wr), row_mean(dev_w * dev_wr))


def _invalid_moments(moments) -> np.ndarray:
    """The entries whose moments :class:`MomentSummary` would reject: not finite, or not a covariance."""
    _, _, var_w, var_wr, cov = moments
    with np.errstate(over="ignore"):
        cross = cov * cov
        bound = var_w * var_wr
        bad = (var_w < 0) | (var_wr < 0) | (cross > bound + 1e-12 * np.maximum(cross, bound))
    return bad | ~np.logical_and.reduce([np.isfinite(m) for m in moments])


def _check_moments(moments, n: int) -> None:
    """Raise what :class:`MomentSummary` says of the first entry whose moments it would reject."""
    bad = _invalid_moments(moments)
    if bad.any():
        row = np.unravel_index(int(np.argmax(bad)), bad.shape)
        MomentSummary(*(float(m[row]) for m in moments), n=n)


class Workspace:
    """The arrays of a block by name: ``ws(name, shape, dtype)``, the same memory for every later block.

    Each is a C-contiguous view of the name's buffer, which grows to the largest size asked of it,
    made on the first lookup of its shape and then found by one dict hit. So a name serves arrays
    whose lifetimes do not overlap, and one kept past the next lookup of its name is copied.
    """

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}
        self.views: dict[tuple, np.ndarray] = {}

    def __call__(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        view = self.views.get((name, shape, dtype))
        if view is None:
            size = int(np.prod(shape)) * np.dtype(dtype).itemsize
            buffer = self.buffers.get(name)
            if buffer is None or buffer.size < size:
                buffer = self.buffers[name] = np.empty(size, np.uint8)
            view = self.views[name, shape, dtype] = buffer[:size].view(dtype).reshape(shape)
        return view


class Rows:
    """What every kernel reads: the per-row reductions of weights ``w`` and weighted rewards ``wr``.

    A block of entries, ``Rows(w, wr, ws)`` or a dataset's one row (:meth:`of`),
    takes its row sums and means at once and any other reduction on first read
    (:meth:`reduction`), into the workspace ``ws``. The engine gathers the
    reductions of a range's blocks into one bundle (:meth:`bundle`,
    :meth:`fill`), which holds no entries, and runs each kernel once on it;
    a kernel reads a bundle's reductions alone, so it gives the same bits on either.
    ``sums`` are the sums behind ``mean_w`` and ``mean_wr``, which are ``sum / n``,
    the bits of :func:`row_mean`, past the float range silently.
    """

    def __init__(self, w: np.ndarray, wr: np.ndarray, ws: Workspace):
        self.w, self.wr, self.n, self.ws = w, wr, w.shape[-1], ws
        with np.errstate(over="ignore", invalid="ignore"):
            self.sums = row_sum(w), row_sum(wr)
            self.mean_w, self.mean_wr = (total / self.n for total in self.sums)
        self.reductions: dict = {}

    @staticmethod
    def of(dataset) -> Rows:
        """A dataset as a one-row block of positions by entries, C-contiguous; a scalar column is not copied."""
        ws, w = Workspace(), np.ascontiguousarray(dataset.weights.T)[None]
        return Rows(w, np.multiply(w, np.ascontiguousarray(dataset.rewards.T)[None], out=ws("wr", w.shape)), ws)

    def reduction(self, key) -> tuple[np.ndarray, ...]:
        """Unchecked reductions of each row under ``key``, taken on first read.

        ``"centred"`` gives ``(var_w, var_wr, cov_w_wr)``, and a :class:`CrossFitConfig` its :func:`_fold_reductions`.
        """
        if key not in self.reductions:
            if key == "centred":
                self.reductions[key] = _moments(self.w, self.wr, self.ws, (self.mean_w, self.mean_wr))[2:]
            else:
                self.reductions[key] = _fold_reductions(self, key)
        return self.reductions[key]

    def reduce(self, keys) -> Rows:
        """This block with the reductions ``keys`` taken; one its kernel refuses (folds too small) is left for it to raise."""
        for key in keys:
            try:
                self.reduction(key)
            except EstimationError:
                pass
        return self

    @cached_property
    def moments(self) -> tuple[np.ndarray, ...]:
        """``(mean_w, mean_wr, var_w, var_wr, cov_w_wr)`` on first read; raises as :func:`_check_moments` does."""
        moments = (self.mean_w, self.mean_wr, *self.reduction("centred"))
        _check_moments(moments, self.n)
        return moments

    def summaries(self) -> list[MomentSummary]:
        """The moments of a one-row block as one :class:`MomentSummary` per position."""
        columns = zip(*(m.reshape(-1).tolist() for m in self.moments))
        return [MomentSummary(*column, n=self.n) for column in columns]

    def _map(self, fn) -> Rows:
        """A bundle without entries whose every reduction is ``fn`` of this one's."""
        bundle = object.__new__(Rows)
        bundle.w = bundle.wr = bundle.ws = bundle.sums = None
        bundle.n = self.n
        bundle.mean_w, bundle.mean_wr = fn(self.mean_w), fn(self.mean_wr)
        bundle.reductions = {key: tuple(map(fn, arrays)) for key, arrays in self.reductions.items()}
        return bundle

    def bundle(self, rows: int) -> Rows:
        """An unfilled bundle of ``rows`` rows for the reductions this block has taken."""
        return self._map(lambda a: np.empty((rows,) + a.shape[1:]))

    def fill(self, start: int, block: Rows) -> None:
        """Write ``block``'s reductions into this bundle's rows from ``start`` on."""
        rows = slice(start, start + block.mean_w.shape[0])
        self.mean_w[rows], self.mean_wr[rows] = block.mean_w, block.mean_wr
        for key, arrays in self.reductions.items():
            for out, taken in zip(arrays, block.reductions[key]):
                out[rows] = taken

    def __getitem__(self, rows: slice) -> Rows:
        """The bundle of ``rows``: views of every reduction taken."""
        return self._map(lambda a: a[rows])


def plug_in_baselines(var_w, cov) -> tuple:
    """Plug-in optimal baselines ``cov / var_w`` and the mask of degenerate weights.

    Weights are degenerate where their variance is zero; the baseline is
    undefined there, and the returned ratio is not finite. This is the one
    place that decides degeneracy.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return cov / var_w, var_w == 0.0


def ips_rows(rows: Rows, arg=None) -> tuple:
    """Importance-weighted reward mean of each row."""
    return rows.mean_wr, None, None


def snips_rows(rows: Rows, arg=None) -> tuple:
    """Weighted reward mean over weight mean of each row; fails where the weights sum to zero."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return rows.mean_wr / rows.mean_w, None, rows.mean_w == 0.0


def beta_ips_rows(rows: Rows, beta) -> tuple:
    """Baseline-corrected value ``beta * (1 - mean(w)) + mean(wr)`` of each row at fixed baselines."""
    with np.errstate(over="ignore", invalid="ignore"):  # a baseline near the float maximum, or means past it
        values = beta * (1.0 - rows.mean_w) + rows.mean_wr
    return values, np.broadcast_to(beta, values.shape), None


def beta_star_rows(rows: Rows, arg=None) -> tuple:
    """Baseline-corrected value of each row at its plug-in baseline ``cov(w, wr) / var(w)``.

    Fails on rows whose weights have zero variance, where the baseline is
    undefined; any other non-finite baseline is a validation error.
    """
    _, _, var_w, _, cov = rows.moments
    baseline, degenerate = plug_in_baselines(var_w, cov)
    _require_finite_baselines(baseline, ~degenerate)
    return *beta_ips_rows(rows, baseline)[:2], degenerate


def _require_finite_baselines(baseline: np.ndarray, used: np.ndarray) -> None:
    """Raise for the first used baseline that is not finite, as a fixed baseline would."""
    bad = used & ~np.isfinite(baseline)
    if bad.any():
        _finite(baseline[np.unravel_index(int(np.argmax(bad)), bad.shape)])


def remainder_rows(rows: Rows, value: float) -> tuple[np.ndarray, ...]:
    """Remainder decomposition ``(l_n, r_n, zero)`` of each row around ``value``.

    ``zero`` marks rows whose weight mean is zero, where ``r_n`` is undefined.
    A number past the float range (at a value near the float maximum, say)
    comes back infinite, with no numpy warning.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        l_n = rows.mean_wr - value * rows.mean_w
        r_n = l_n * (1.0 - rows.mean_w) / rows.mean_w
    return l_n, r_n, rows.mean_w == 0.0


def remainder_sq_rows(rows: Rows, value: float) -> tuple:
    """Squared self-normalisation remainder ``r_n**2`` of each row around ``value``."""
    _, r_n, zero = remainder_rows(rows, value)
    # Square as Python floats (libm pow), as the scalar diagnostics do.
    return np.array([r**2 for r in r_n.tolist()]), None, zero


def empirical_moments(dataset: Dataset) -> MomentSummary:
    """Two-pass centred moments of the weights and weighted rewards."""
    return Rows.of(_require_scalar(dataset)).summaries()[0]


def _apply(name: str, kind: str, rows: Rows, arg=None) -> tuple[np.ndarray, list]:
    """The registered estimator ``name`` on a dataset: an array of values and a list of baselines, one per position.

    ``kind`` is ``_kind(dataset)`` and ``rows`` is ``Rows.of(dataset)``, a
    scalar dataset being the one-position case; one block serves every
    estimator run on the same dataset. A baseline is ``None`` outside the
    baseline-corrected family. A failed precondition raises the
    estimator's error, which names the failing positions of ranked data.
    """
    entry = _check_kind(name, kind)
    arg = _checked_arg(name, arg, rows.w.shape[1] if kind == "ranked" else 1)
    values, baselines, failed = entry.kernel(rows, arg)
    if failed is not None and failed.any():
        if kind == "scalar":
            raise entry.error()
        positions = tuple(np.flatnonzero(failed).tolist())
        if entry.error is ZeroWeightSum:
            raise ZeroWeightSum(position=positions[0])
        raise entry.error(positions=positions)
    return values.reshape(-1), [None] * values.size if baselines is None else baselines.reshape(-1).tolist()


def estimate(name: str, dataset: Dataset, arg=None) -> Estimate:
    """The registered scalar estimator ``name`` on a scalar dataset."""
    values, baselines = _apply(name, _kind(dataset), Rows.of(dataset), arg)
    _require_scalar(dataset)  # a ranked estimator on ranked data passes _apply; positionwise reports it
    return Estimate(value=float(values[0]), estimator_name=name, n_used=dataset.n, baseline_used=baselines[0])


def ips(dataset: Dataset) -> Estimate:
    """Importance-weighted mean of the rewards."""
    return estimate("ips", dataset)


def snips(dataset: Dataset) -> Estimate:
    """Self-normalised variant: weighted reward mean over the weight mean."""
    return estimate("snips", dataset)


def beta_ips(dataset: Dataset, beta: float) -> Estimate:
    """Baseline-corrected estimator with a fixed additive baseline."""
    return estimate("beta-ips", dataset, beta)


def beta_star_hat(dataset: Dataset) -> float:
    """Plug-in estimate cov(w, wr) / var(w) of the variance-minimising baseline."""
    return beta_star_ips(dataset).baseline_used


def beta_star_ips(dataset: Dataset) -> Estimate:
    """Baseline-corrected estimator at the plug-in baseline."""
    return estimate("beta-star-ips", dataset)


@lru_cache(maxsize=16)
def _fold_layout(n: int, folds_k: int, seed: int) -> tuple[np.ndarray, ...]:
    """Index matrices of each group of equal-length folds, cached and read-only.

    Indices are shuffled by a generator seeded from ``seed`` and split in
    order into ``folds_k`` folds as ``np.array_split`` splits, so the same
    arguments always give the same partition, whose first ``n % folds_k``
    folds hold one entry more than the rest. Each group of equal-length
    folds, the longer first, is one matrix, a view of the shuffled indices
    whose row ``f`` lists a fold's indices ascending: one index per entry.
    """
    size, longer = divmod(n, folds_k)
    if size < 2:
        raise FoldTooSmall(n, folds_k)
    order = np.random.default_rng(seed).permutation(n)
    split = longer * (size + 1)
    groups = (order[:split].reshape(longer, size + 1), order[split:].reshape(folds_k - longer, size))
    for folds in groups:
        folds.sort(axis=-1)
    return tuple(_freeze(folds) for folds in groups if len(folds))


def _fold_reductions(rows: Rows, config: CrossFitConfig) -> tuple[np.ndarray, ...]:
    """Each row's per-fold reductions, one column per fold, in one pass over ``rows.w`` and ``rows.wr``.

    They are the fold's moments ``(mean_w, mean_wr, var_w, var_wr, cov_w_wr)``,
    then its complement's offset ``1 - mean(w)`` and ``mean(wr)``. The
    layout is read first, so too few entries per fold raise
    :class:`FoldTooSmall` before any entry is read. Each group of
    equal-length folds is one ``take`` of ``w`` and of ``wr`` by the cached
    fold matrix into the workspace's deviation arrays, whose sums are taken
    once: over its length they are the fold means, the bits of
    :func:`row_mean`, about which the group is centred in place, and
    subtracted from the row sums they give each complement's mean,
    ``(row sum - fold sum) / (n - fold length)``, with no complement read.
    """
    w, wr, n, ws = rows.w, rows.wr, rows.n, rows.ws
    parts = []
    for folds in _fold_layout(n, config.folds_k, config.seed):
        shape, length = w.shape[:-1] + folds.shape, folds.shape[1]
        # mode="clip" takes straight into ``out``, as in simulator._gather.
        pair = [x.take(folds, axis=-1, out=ws(name, shape), mode="clip") for x, name in ((w, "dev_w"), (wr, "dev_wr"))]
        with np.errstate(over="ignore", invalid="ignore"):
            sums = [row_sum(x) for x in pair]
            means = [(total[..., None] - fold) / (n - length) for total, fold in zip(rows.sums, sums)]
            moments = _moments(*pair, ws, [fold / length for fold in sums])
        parts.append(moments + (1.0 - means[0], means[1]))
    return tuple(np.concatenate(column, axis=-1) for column in zip(*parts))


def cross_fit_rows(rows: Rows, config: CrossFitConfig) -> tuple:
    """Cross-fitted value and mean baseline of each row, from its fold reductions under ``config``.

    Fails on rows where some fold has constant weights, which leaves its
    baseline undefined, while its evaluation entries do not average to
    weight one, so the baseline still matters. A validation error names the
    entry that checking the folds one after another meets first.
    """
    *moments, offsets, complement_wr = rows.reduction(config)
    size, longer = divmod(rows.n, config.folds_k)
    baseline, degenerate = plug_in_baselines(moments[2], moments[4])
    failed = degenerate & (offsets != 0.0)
    failed_so_far = np.logical_or.accumulate(failed, axis=-1)
    baseline = np.where(degenerate, 0.0, baseline)
    if _invalid_moments(moments).any() or (~failed_so_far & ~np.isfinite(baseline)).any():
        # Raise what checking the folds one after another meets first.
        for f in range(config.folds_k):
            _check_moments(tuple(m[..., f] for m in moments), size + (f < longer))
            _require_finite_baselines(baseline[..., f], ~failed_so_far[..., f])
    with np.errstate(over="ignore", invalid="ignore"):  # a row sum past the float range, its folds' within it
        values = baseline * offsets + complement_wr
    # Means over the folds, of numbers the reductions gave: np.mean adds and divides as row_mean does.
    return np.mean(values, axis=-1), np.mean(baseline, axis=-1), failed.any(axis=-1)


def cross_fitted_beta_ips(dataset: Dataset, config: CrossFitConfig = CrossFitConfig()) -> Estimate:
    """Cross-fitted variant of the plug-in baseline-corrected estimator.

    The data are partitioned into ``folds_k`` folds. Each fold in turn
    estimates the baseline, the corrected value is computed on the union of
    the remaining folds, and the per-fold values are averaged. Because the
    baseline never sees the entries it corrects, the result is exactly
    unbiased, at the cost of each baseline using only a 1/k share of the
    data.

    A fold with constant weights cannot estimate a baseline. That is only
    fatal when the baseline matters: if its evaluation complement has a
    weight mean of exactly one, every baseline gives the same value and
    zero is used; otherwise :class:`DegenerateWeights` is raised. The
    complement's mean is ``(row sum - fold sum) / (n - fold length)``, so
    it reads as one exactly where those sums are exact (all-ones or dyadic
    weights, say) and carries their rounding elsewhere.
    """
    return estimate("cf-beta-star-ips", dataset, config)


@dataclass(frozen=True)
class RegisteredEstimator:
    """How an estimator name is evaluated.

    ``kind`` is ``"scalar"``, ``"ranked"`` (a scalar kernel applied to
    each position of ranked rows shaped ``(..., positions, n)``) or
    ``"study"`` (a diagnostic that only studies report). ``param`` is what
    the kernel's ``arg`` holds: nothing (``None``), the one baseline a
    spec such as ``beta-ips:0.5`` gives (``"baseline"``), one baseline per
    position (``"baselines"``), or what the run supplies rather than the
    spec: the cross-fitting layout (``"folds"``) or the reference value
    (``"value"``); :func:`_checked_arg` checks it. ``defaults`` holds the
    study kinds whose default estimator list includes this one.

    ``kernel(rows, arg)`` reads a :class:`Rows` block and returns
    ``(values, baselines, failed)``, one entry per row: ``baselines`` is
    ``None`` outside the baseline-corrected family, and ``failed`` is
    ``None`` for kernels that cannot fail, otherwise it marks the rows
    whose precondition fails, which ``error`` names. ``reads`` names what
    the kernel reads past the row means: the ``"centred"`` moments, or its
    ``"folds"``, the fold reductions under its ``arg``.
    """

    kind: str
    param: str | None
    defaults: frozenset[str]
    kernel: Callable
    error: type[EstimationError] | None = None
    reads: str | None = None

    def reduction(self, arg):
        """The :meth:`Rows.reduction` key the kernel reads with ``arg``, or ``None`` for the row means alone."""
        return arg if self.reads == "folds" else self.reads


_MC = frozenset({"mc"})
_NONE = frozenset()

#: Every estimator and diagnostic by name, in the order the README lists them.
#: The ranked estimators are the scalar kernels applied along the positions axis.
ESTIMATORS: dict[str, RegisteredEstimator] = {
    "ips": RegisteredEstimator("scalar", None, _MC, ips_rows),
    "snips": RegisteredEstimator("scalar", None, frozenset({"mc", "bias-rate"}), snips_rows, ZeroWeightSum),
    "beta-ips": RegisteredEstimator("scalar", "baseline", _NONE, beta_ips_rows),
    "beta-star-ips": RegisteredEstimator("scalar", None, _MC, beta_star_rows, DegenerateWeights, "centred"),
    "cf-beta-star-ips": RegisteredEstimator("scalar", "folds", _NONE, cross_fit_rows, DegenerateWeights, "folds"),
    "remainder-sq": RegisteredEstimator("study", "value", _NONE, remainder_sq_rows, ZeroWeightSum),
    "ipm": RegisteredEstimator("ranked", None, _MC, ips_rows),
    "snipm": RegisteredEstimator("ranked", None, _MC, snips_rows, ZeroWeightSum),
    "beta-ipm": RegisteredEstimator("ranked", "baselines", _NONE, beta_ips_rows),
    "beta-perp-star-ipm": RegisteredEstimator("ranked", None, _MC, beta_star_rows, DegenerateWeights, "centred"),
}


@dataclass(frozen=True)
class MetricSpec:
    """A parsed estimator or diagnostic metric specification."""

    name: str
    params: tuple[float, ...] = ()

    @property
    def label(self) -> str:
        if not self.params:
            return self.name
        return self.name + ":" + ",".join(repr(p) for p in self.params)


def parse_estimator_spec(spec) -> MetricSpec:
    """Parse ``"name"`` or ``"name:param[,param...]"`` into a :class:`MetricSpec`.

    A given :class:`MetricSpec`, whose name must be a string and whose
    params a tuple, passes the same rules, its label standing for the text;
    its params become floats as the text's do, and it is returned as it is
    when that changes nothing.
    """
    if isinstance(spec, MetricSpec):
        name, params = spec.name, spec.params
        try:
            shown = repr(spec)  # it writes every param, as the label does
        except ValueError:  # an int with more digits than Python writes in decimal
            raise UnknownEstimator("not an estimator spec: it holds an integer too long to write") from None
        if not (isinstance(name, str) and isinstance(params, tuple)):
            raise UnknownEstimator(f"not an estimator spec: {shown}")
        text, given = spec.label, bool(params)
    else:
        text = str(spec).strip()
        name, sep, arg = text.partition(":")
        name, given, params = name.strip(), bool(sep), arg.split(",") if arg.strip() else ()
    entry = ESTIMATORS.get(name)
    if entry is None:
        raise UnknownEstimator(f"unknown estimator {text!r}")
    takes = entry.param in ("baseline", "baselines")
    if given and not takes:
        raise UnknownEstimator(f"{name} takes no parameter, got {text!r}")
    if takes and not params:
        raise UnknownEstimator(f"{name} needs a baseline, e.g. {name}:0.5")
    if params:
        try:
            column = _float_column(params, "baselines")
        except ValidationError:
            column = None
        if column is None or column.ndim != 1:
            raise UnknownEstimator(f"cannot parse baselines in {text!r}")
        params = tuple(column.tolist())
    if entry.param == "baseline" and len(params) != 1:
        raise UnknownEstimator(f"{name} takes exactly one baseline, got {text!r}")
    parsed = MetricSpec(name, params)
    return spec if isinstance(spec, MetricSpec) and spec.label == parsed.label else parsed


def kernel_arg(spec: MetricSpec, folds: int, seed: int, value: float | None):
    """The raw ``arg`` of the spec's registered kernel, for :func:`_checked_arg` to check.

    ``folds`` and ``seed`` set the cross-fitting layout, and ``value`` is the
    reference value of the squared remainder; each is read only by the
    kernels that need it.
    """
    param = ESTIMATORS[spec.name].param
    if param == "baseline":
        return spec.params[0]
    if param == "baselines":
        return spec.params
    if param == "folds":
        return CrossFitConfig(folds_k=folds, seed=seed)
    return value if param == "value" else None


def _checked_arg(name: str, arg, k: int):
    """``arg`` checked as the argument of ``name``'s kernel on ``k`` positions, by its ``param``.

    The one argument rule; a wrong argument is a :class:`ValidationError` that names it.
    """
    param = ESTIMATORS[name].param
    if param in ("baseline", "value"):
        return _finite(arg, param)
    if param == "baselines":
        b = _float_column(arg, "baselines")
        if b.shape != (k,):
            raise LengthMismatch(f"expected {k} baselines for {k} positions, got shape {b.shape}")
        if not np.isfinite(b).all():
            raise ValidationError("baselines must be finite")
        return b
    if param == "folds" and not isinstance(arg, CrossFitConfig):
        raise ValidationError(f"the cross-fit config must be a CrossFitConfig, got {type(arg).__name__}")
    if param is None and arg is not None:
        raise ValidationError(f"{name} takes no argument, got {arg!r}")
    return arg
