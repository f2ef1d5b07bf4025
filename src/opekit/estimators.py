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

Every estimator is defined once, as a row kernel: a function of a weight
array ``w`` and the weighted rewards ``wr = w * r`` that reduces along the
last axis and returns one value per row. :data:`ESTIMATORS` maps each
estimator name to its kernel, and every caller reads that one table: the
public functions here apply the kernel to a dataset as a single row, the
ranked functions to one row per position, ``opekit evaluate`` to a log
file, and the Monte Carlo engine to a block of replicates, one row each.
Row reductions over C-contiguous rows sum in the same order as a
reduction over one row alone, so all callers get the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .data import Dataset, Estimate, _finite, _freeze, _integer
from .errors import (
    DegenerateWeights,
    EstimationError,
    FoldTooSmall,
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


def _one_row(dataset) -> tuple[np.ndarray, np.ndarray]:
    """A scalar dataset as one row of weights and weighted rewards."""
    _require_scalar(dataset)
    w = dataset.weights[None, :]
    return w, w * dataset.rewards[None, :]


def row_mean(x: np.ndarray) -> np.ndarray:
    """Mean along the last axis: the sum and division of ``np.mean``, without its overhead."""
    return np.add.reduce(x, axis=-1) / x.shape[-1]


def _moments(w: np.ndarray, wr: np.ndarray, out=(None, None)) -> tuple[np.ndarray, ...]:
    """Two-pass centred moments along the last axis, unchecked; ``out=(w, wr)`` centres them in place."""
    mean_w = row_mean(w)
    mean_wr = row_mean(wr)
    dev_w = np.subtract(w, mean_w[..., None], out=out[0])
    dev_wr = np.subtract(wr, mean_wr[..., None], out=out[1])
    return (
        mean_w,
        mean_wr,
        row_mean(dev_w * dev_w),
        row_mean(dev_wr * dev_wr),
        row_mean(dev_w * dev_wr),
    )


def _invalid_moments(moments) -> np.ndarray:
    """The entries whose moments :class:`MomentSummary` would reject."""
    _, _, var_w, var_wr, cov = moments
    cross = cov * cov
    bound = var_w * var_wr
    return (var_w < 0) | (var_wr < 0) | (cross > bound + 1e-12 * np.maximum(cross, bound))


def moment_rows(w: np.ndarray, wr: np.ndarray) -> tuple[np.ndarray, ...]:
    """Two-pass centred moments along the last axis, checked row by row.

    Returns ``(mean_w, mean_wr, var_w, var_wr, cov_w_wr)``, each with the
    leading shape of ``w``. Raises :class:`ValidationError` for the first
    row whose moments :class:`MomentSummary` would reject.
    """
    moments = _moments(w, wr)
    _check_moments(moments, w.shape[-1])
    return moments


def _check_moments(moments, n: int) -> None:
    """Raise what :class:`MomentSummary` says of the first entry whose moments it would reject."""
    bad = _invalid_moments(moments)
    if bad.any():
        row = np.unravel_index(int(np.argmax(bad)), bad.shape)
        MomentSummary(*(float(m[row]) for m in moments), n=n)


def plug_in_baselines(var_w, cov) -> tuple:
    """Plug-in optimal baselines ``cov / var_w`` and the mask of degenerate weights.

    Weights are degenerate where their variance is zero; the baseline is
    undefined there, and the returned ratio is not finite. This is the one
    place that decides degeneracy.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return cov / var_w, var_w == 0.0


def ips_rows(w: np.ndarray, wr: np.ndarray, arg=None) -> tuple:
    """Importance-weighted reward mean of each row."""
    return row_mean(wr), None, None


def snips_rows(w: np.ndarray, wr: np.ndarray, arg=None) -> tuple:
    """Weighted reward mean over weight mean of each row; fails where the weights sum to zero."""
    mean_w = row_mean(w)
    with np.errstate(divide="ignore", invalid="ignore"):
        return row_mean(wr) / mean_w, None, mean_w == 0.0


def beta_ips_rows(w: np.ndarray, wr: np.ndarray, beta) -> tuple:
    """Baseline-corrected value ``beta * (1 - mean(w)) + mean(wr)`` of each row at fixed baselines."""
    values = beta * (1.0 - row_mean(w)) + row_mean(wr)
    return values, np.broadcast_to(beta, values.shape), None


def beta_star_rows(w: np.ndarray, wr: np.ndarray, arg=None) -> tuple:
    """Baseline-corrected value of each row at its plug-in baseline ``cov(w, wr) / var(w)``.

    Fails on rows whose weights have zero variance, where the baseline is
    undefined; any other non-finite baseline is a validation error.
    """
    mean_w, mean_wr, var_w, _, cov = moment_rows(w, wr)
    baseline, degenerate = plug_in_baselines(var_w, cov)
    _require_finite_baselines(baseline, ~degenerate)
    return baseline * (1.0 - mean_w) + mean_wr, baseline, degenerate


def _require_finite_baselines(baseline: np.ndarray, used: np.ndarray) -> None:
    """Raise for the first used baseline that is not finite, as a fixed baseline would."""
    bad = used & ~np.isfinite(baseline)
    if bad.any():
        _finite(baseline[np.unravel_index(int(np.argmax(bad)), bad.shape)])


def remainder_rows(w: np.ndarray, wr: np.ndarray, value: float) -> tuple[np.ndarray, ...]:
    """Remainder decomposition of each row around ``value``.

    Returns ``(w_bar, mean_wr, l_n, r_n, zero)``, reducing along the last
    axis; ``zero`` marks rows whose weight mean is zero, where ``r_n`` is
    undefined.
    """
    w_bar = row_mean(w)
    mean_wr = row_mean(wr)
    l_n = mean_wr - value * w_bar
    with np.errstate(divide="ignore", invalid="ignore"):
        r_n = l_n * (1.0 - w_bar) / w_bar
    return w_bar, mean_wr, l_n, r_n, w_bar == 0.0


def remainder_sq_rows(w: np.ndarray, wr: np.ndarray, value: float) -> tuple:
    """Squared self-normalisation remainder ``r_n**2`` of each row around ``value``."""
    r_n, zero = remainder_rows(w, wr, value)[3:]
    # Square as Python floats (libm pow), as the scalar diagnostics do.
    return np.array([r**2 for r in r_n.tolist()]), None, zero


def empirical_moments(dataset: Dataset) -> MomentSummary:
    """Two-pass centred moments of the weights and weighted rewards."""
    moments = moment_rows(*_one_row(dataset))
    return MomentSummary(*(float(m[0]) for m in moments), n=dataset.n)


def estimate(name: str, dataset: Dataset, arg=None) -> Estimate:
    """The registered estimator ``name`` on a scalar dataset, evaluated as one row."""
    entry = ESTIMATORS[name]
    values, baselines, failed = entry.kernel(*_one_row(dataset), arg)
    if failed is not None and failed[0]:
        raise entry.error()
    return Estimate(
        value=float(values[0]),
        estimator_name=name,
        n_used=dataset.n,
        baseline_used=None if baselines is None else float(baselines[0]),
    )


def ips(dataset: Dataset) -> Estimate:
    """Importance-weighted mean of the rewards."""
    return estimate("ips", dataset)


def snips(dataset: Dataset) -> Estimate:
    """Self-normalised variant: weighted reward mean over the weight mean."""
    return estimate("snips", dataset)


def beta_ips(dataset: Dataset, beta: float) -> Estimate:
    """Baseline-corrected estimator with a fixed additive baseline."""
    return estimate("beta-ips", dataset, _finite(beta))


def beta_star_hat(dataset: Dataset) -> float:
    """Plug-in estimate cov(w, wr) / var(w) of the variance-minimising baseline."""
    return beta_star_ips(dataset).baseline_used


def beta_star_ips(dataset: Dataset) -> Estimate:
    """Baseline-corrected estimator at the plug-in baseline."""
    return estimate("beta-star-ips", dataset)


@lru_cache(maxsize=16)
def _fold_layout(n: int, folds_k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's fold label and the fold-major order, cached and read-only.

    Indices are shuffled by a generator seeded from ``seed`` and split into
    ``folds_k`` near-equal folds by ``np.array_split``, so the same
    arguments always produce the same partition, whose first ``n % folds_k``
    folds hold one entry more than the rest. The labels take the smallest
    unsigned type that holds ``folds_k - 1``. The order lists fold 0's
    indices ascending, then fold 1's, and so on.
    """
    if n // folds_k < 2:
        raise FoldTooSmall(n, folds_k)
    labels = np.empty(n, dtype=np.min_scalar_type(folds_k - 1))
    for f, chunk in enumerate(np.array_split(np.random.default_rng(seed).permutation(n), folds_k)):
        labels[chunk] = f
    return _freeze(labels), _freeze(np.argsort(labels, kind="stable"))


def fold_indices(n: int, config: CrossFitConfig) -> list[np.ndarray]:
    """Deterministic near-equal partition of range(n) into ``folds_k`` folds.

    Indices are shuffled by a generator seeded from ``config.seed``; the
    folds are sorted, read-only views of one cached fold-major order, so
    the same configuration always produces the same partition.
    """
    labels, order = _fold_layout(n, config.folds_k, config.seed)
    return np.split(order, np.cumsum(np.bincount(labels))[:-1])


def cross_fit_rows(w: np.ndarray, wr: np.ndarray, config: CrossFitConfig) -> tuple:
    """Cross-fitted value and mean baseline of each row.

    Fails on rows where some fold has constant weights, which leaves its
    baseline undefined, while its evaluation entries do not average to
    weight one, so the baseline still matters. ``w`` and ``wr`` are
    gathered once into the cached fold-major order and centred there in
    place, the folds of one length at once; the copies are dropped before
    the complements are read, so one long row needs room for two copies
    and one product of them. Each complement is read in index order, as a
    gather of its indices would be. A validation error names the entry
    that checking the folds one after another would meet first.
    """
    n = w.shape[-1]
    k = config.folds_k
    labels, order = _fold_layout(n, k, config.seed)
    size, longer = divmod(n, k)
    split = longer * (size + 1)
    lead = w.shape[:-1]
    w_folds, wr_folds = w.take(order, axis=-1), wr.take(order, axis=-1)
    groups = [
        (w_folds[..., part].reshape(shape), wr_folds[..., part].reshape(shape))
        for part, shape in ((slice(split), lead + (longer, size + 1)), (slice(split, None), lead + (k - longer, size)))
    ]
    moments = tuple(np.concatenate(parts, axis=-1) for parts in zip(*(_moments(*group, out=group) for group in groups)))
    del w_folds, wr_folds, groups
    offsets = np.empty(lead + (k,))
    complement_wr = np.empty(lead + (k,))
    for f in range(k):
        outside = labels != f
        offsets[..., f] = 1.0 - row_mean(w.compress(outside, axis=-1))
        complement_wr[..., f] = row_mean(wr.compress(outside, axis=-1))
    baseline, degenerate = plug_in_baselines(moments[2], moments[4])
    failed = degenerate & (offsets != 0.0)
    failed_so_far = np.logical_or.accumulate(failed, axis=-1)
    baseline = np.where(degenerate, 0.0, baseline)
    if _invalid_moments(moments).any() or (~failed_so_far & ~np.isfinite(baseline)).any():
        # Raise what checking the folds one after another meets first.
        for f in range(k):
            _check_moments(tuple(m[..., f] for m in moments), size + (f < longer))
            _require_finite_baselines(baseline[..., f], ~failed_so_far[..., f])
    values = baseline * offsets + complement_wr
    return row_mean(values), row_mean(baseline), failed.any(axis=-1)


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
    zero is used; otherwise :class:`DegenerateWeights` is raised.
    """
    return estimate("cf-beta-star-ips", dataset, config)


@dataclass(frozen=True)
class RegisteredEstimator:
    """How an estimator name is evaluated.

    ``kind`` is ``"scalar"``, ``"ranked"`` (a scalar kernel applied to
    each position of ranked rows shaped ``(..., positions, n)``) or
    ``"study"`` (a diagnostic that only studies report). ``param`` is what
    the kernel's third argument holds: nothing (``None``), the one
    baseline a spec such as ``beta-ips:0.5`` gives (``"baseline"``), one
    baseline per position (``"baselines"``), or what the run supplies
    rather than the spec: the cross-fitting layout (``"folds"``) or the
    reference value (``"value"``). ``defaults`` holds the study kinds
    whose default estimator list includes this one.

    ``kernel(w, wr, arg)`` reduces along the last axis and returns
    ``(values, baselines, failed)``: ``baselines`` is ``None`` outside
    the baseline-corrected family, and ``failed`` is ``None`` for kernels
    that cannot fail, otherwise it marks the rows whose precondition
    fails, which ``error`` names.
    """

    kind: str
    param: str | None
    defaults: frozenset[str]
    kernel: Callable
    error: type[EstimationError] | None = None


_MC = frozenset({"mc"})
_NONE = frozenset()

#: Every estimator and diagnostic by name, in the order the README lists them.
#: The ranked estimators are the scalar kernels applied along the positions axis.
ESTIMATORS: dict[str, RegisteredEstimator] = {
    "ips": RegisteredEstimator("scalar", None, _MC, ips_rows),
    "snips": RegisteredEstimator("scalar", None, frozenset({"mc", "bias-rate"}), snips_rows, ZeroWeightSum),
    "beta-ips": RegisteredEstimator("scalar", "baseline", _NONE, beta_ips_rows),
    "beta-star-ips": RegisteredEstimator("scalar", None, _MC, beta_star_rows, DegenerateWeights),
    "cf-beta-star-ips": RegisteredEstimator("scalar", "folds", _NONE, cross_fit_rows, DegenerateWeights),
    "remainder-sq": RegisteredEstimator("study", "value", _NONE, remainder_sq_rows, ZeroWeightSum),
    "ipm": RegisteredEstimator("ranked", None, _MC, ips_rows),
    "snipm": RegisteredEstimator("ranked", None, _MC, snips_rows, ZeroWeightSum),
    "beta-ipm": RegisteredEstimator("ranked", "baselines", _NONE, beta_ips_rows),
    "beta-perp-star-ipm": RegisteredEstimator("ranked", None, _MC, beta_star_rows, DegenerateWeights),
}
