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
last axis and returns one value per row. The public functions apply the
kernel to a dataset as a single row; the Monte Carlo engine applies the
same kernel to a block of replicates, one row each. Row reductions over
C-contiguous rows sum in the same order as a reduction over one row
alone, so both callers get the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .data import Dataset, Estimate
from .errors import (
    DegenerateWeights,
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


@dataclass(frozen=True)
class CrossFitConfig:
    """Fold layout for cross-fitted baseline estimation."""

    folds_k: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
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


def moment_rows(w: np.ndarray, wr: np.ndarray) -> tuple[np.ndarray, ...]:
    """Two-pass centred moments along the last axis, checked row by row.

    Returns ``(mean_w, mean_wr, var_w, var_wr, cov_w_wr)``, each with the
    leading shape of ``w``. Raises :class:`ValidationError` for the first
    row whose moments :class:`MomentSummary` would reject.
    """
    mean_w = row_mean(w)
    mean_wr = row_mean(wr)
    dev_w = w - mean_w[..., None]
    dev_wr = wr - mean_wr[..., None]
    moments = (
        mean_w,
        mean_wr,
        row_mean(dev_w * dev_w),
        row_mean(dev_wr * dev_wr),
        row_mean(dev_w * dev_wr),
    )
    _, _, var_w, var_wr, cov = moments
    cross = cov * cov
    bound = var_w * var_wr
    bad = (var_w < 0) | (var_wr < 0) | (cross > bound + 1e-12 * np.maximum(cross, bound))
    if bad.any():
        row = np.unravel_index(int(np.argmax(bad)), bad.shape)
        MomentSummary(*(float(m[row]) for m in moments), n=w.shape[-1])
    return moments


def ips_rows(w: np.ndarray, wr: np.ndarray) -> np.ndarray:
    """Importance-weighted reward mean of each row."""
    return row_mean(wr)


def snips_value(mean_w: np.ndarray, mean_wr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Self-normalised value from row means, and the rows whose weights sum to zero."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return mean_wr / mean_w, mean_w == 0.0


def snips_rows(w: np.ndarray, wr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`snips_value` of each row."""
    return snips_value(row_mean(w), row_mean(wr))


def beta_ips_value(mean_w: np.ndarray, mean_wr: np.ndarray, beta) -> np.ndarray:
    """Baseline-corrected value ``beta * (1 - mean_w) + mean_wr`` from row means."""
    return beta * (1.0 - mean_w) + mean_wr


def beta_ips_rows(w: np.ndarray, wr: np.ndarray, beta) -> np.ndarray:
    """:func:`beta_ips_value` of each row at a fixed baseline."""
    return beta_ips_value(row_mean(w), row_mean(wr), beta)


def beta_star_value(mean_w, mean_wr, var_w, cov_w_wr) -> tuple[np.ndarray, ...]:
    """Plug-in optimal baseline ``cov(w, wr) / var(w)`` and its corrected value.

    Returns ``(value, baseline, degenerate)``; ``degenerate`` marks rows
    whose weights have zero variance, where both are undefined.
    """
    degenerate = var_w == 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        baseline = cov_w_wr / var_w
    return beta_ips_value(mean_w, mean_wr, baseline), baseline, degenerate


def beta_star_rows(w: np.ndarray, wr: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`beta_star_value` of each row; a non-finite baseline is a validation error."""
    mean_w, mean_wr, var_w, _, cov = moment_rows(w, wr)
    value, baseline, degenerate = beta_star_value(mean_w, mean_wr, var_w, cov)
    _require_finite_baselines(baseline, ~degenerate)
    return value, baseline, degenerate


def _require_finite_baselines(baseline: np.ndarray, used: np.ndarray) -> None:
    """Raise for the first used baseline that is not finite, as a fixed baseline would."""
    bad = used & ~np.isfinite(baseline)
    if bad.any():
        _finite_baseline(baseline[np.unravel_index(int(np.argmax(bad)), bad.shape)])


def empirical_moments(dataset: Dataset) -> MomentSummary:
    """Two-pass centred moments of the weights and weighted rewards."""
    moments = moment_rows(*_one_row(dataset))
    return MomentSummary(*(float(m[0]) for m in moments), n=dataset.n)


def ips(dataset: Dataset) -> Estimate:
    """Importance-weighted mean of the rewards."""
    value = float(ips_rows(*_one_row(dataset))[0])
    return Estimate(value=value, estimator_name="ips", n_used=dataset.n)


def snips(dataset: Dataset) -> Estimate:
    """Self-normalised variant: weighted reward mean over the weight mean."""
    value, zero = snips_rows(*_one_row(dataset))
    if zero[0]:
        raise ZeroWeightSum()
    return Estimate(value=float(value[0]), estimator_name="snips", n_used=dataset.n)


def _finite_baseline(beta) -> float:
    b = float(beta)
    if not np.isfinite(b):
        raise ValidationError(f"baseline must be finite, got {beta}")
    return b


def beta_ips(dataset: Dataset, beta: float) -> Estimate:
    """Baseline-corrected estimator with a fixed additive baseline."""
    w, wr = _one_row(dataset)
    b = _finite_baseline(beta)
    value = float(beta_ips_rows(w, wr, b)[0])
    return Estimate(value=value, estimator_name="beta-ips", n_used=dataset.n, baseline_used=b)


def beta_star_hat(dataset: Dataset, *, centered: bool = True) -> float:
    """Plug-in estimate of the variance-minimising baseline.

    The default is the centred ratio cov(w, wr) / var(w). With
    ``centered=False`` the ratio (mean(w*wr) - mean(wr)) / (mean(w^2) - 1)
    is used instead; it replaces the empirical weight mean with its known
    expectation of one and generally differs in finite samples.
    """
    _require_scalar(dataset)
    if centered:
        moments = empirical_moments(dataset)
        if moments.var_w == 0.0:
            raise DegenerateWeights()
        return moments.cov_w_wr / moments.var_w
    w = dataset.weights
    wr = w * dataset.rewards
    denominator = float(np.mean(w * w)) - 1.0
    if denominator == 0.0:
        raise DegenerateWeights(detail="mean squared weight equals one")
    numerator = float(np.mean(w * wr)) - float(np.mean(wr))
    return numerator / denominator


def beta_star_ips(dataset: Dataset, *, centered: bool = True) -> Estimate:
    """Baseline-corrected estimator at the plug-in baseline."""
    if centered:
        value, baseline, degenerate = beta_star_rows(*_one_row(dataset))
        if degenerate[0]:
            raise DegenerateWeights()
        value, baseline = float(value[0]), float(baseline[0])
    else:
        baseline = beta_star_hat(dataset, centered=False)
        value = beta_ips(dataset, baseline).value
    return Estimate(
        value=value,
        estimator_name="beta-star-ips",
        n_used=dataset.n,
        baseline_used=baseline,
    )


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=16)
def _fold_layout(n: int, folds_k: int, seed: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Sorted fold indices and their sorted complements, cached and read-only.

    Indices are shuffled by a generator seeded from ``seed`` and split into
    ``folds_k`` near-equal folds, so the same arguments always produce the
    same partition.
    """
    if n // folds_k < 2:
        raise FoldTooSmall(n, folds_k)
    perm = np.random.default_rng(seed).permutation(n)
    folds = tuple(_read_only(np.sort(chunk)) for chunk in np.array_split(perm, folds_k))
    all_indices = np.arange(n)
    complements = []
    for fold in folds:
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        complements.append(_read_only(all_indices[mask]))
    return folds, tuple(complements)


def fold_indices(n: int, config: CrossFitConfig) -> list[np.ndarray]:
    """Deterministic near-equal partition of range(n) into ``folds_k`` folds.

    Indices are shuffled by a generator seeded from ``config.seed`` and the
    folds are returned sorted and read-only, so the same configuration
    always produces the same partition.
    """
    return list(_fold_layout(n, config.folds_k, config.seed)[0])


def cross_fit_rows(w: np.ndarray, wr: np.ndarray, config: CrossFitConfig) -> tuple[np.ndarray, ...]:
    """Cross-fitted value and mean baseline of each row.

    Returns ``(value, baseline, failed_fold)``; ``failed_fold`` is -1 for
    rows that succeed and otherwise the first fold whose constant weights
    leave the baseline undefined while it still matters. Only ``w`` and
    ``wr`` are gathered per fold, from the cached fold layout.
    """
    folds, complements = _fold_layout(w.shape[-1], config.folds_k, config.seed)
    shape = w.shape[:-1]
    values = np.empty(shape + (len(folds),))
    baselines = np.empty(shape + (len(folds),))
    failed_fold = np.full(shape, -1)
    for f, (fold, complement) in enumerate(zip(folds, complements)):
        _, _, var_w, _, cov = moment_rows(w.take(fold, axis=-1), wr.take(fold, axis=-1))
        offset = 1.0 - row_mean(w.take(complement, axis=-1))
        degenerate = var_w == 0.0
        failed_fold[degenerate & (offset != 0.0) & (failed_fold < 0)] = f
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            baseline = np.where(degenerate, 0.0, cov / var_w)
        _require_finite_baselines(baseline, failed_fold < 0)
        baselines[..., f] = baseline
        values[..., f] = baseline * offset + row_mean(wr.take(complement, axis=-1))
    return row_mean(values), row_mean(baselines), failed_fold


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
    value, baseline, failed_fold = cross_fit_rows(*_one_row(dataset), config)
    if failed_fold[0] >= 0:
        raise DegenerateWeights(
            detail=(
                f"baseline fold {failed_fold[0]} has constant weights and the evaluation "
                "entries do not average to weight one"
            )
        )
    return Estimate(
        value=float(value[0]),
        estimator_name="cf-beta-star-ips",
        n_used=dataset.n,
        baseline_used=float(baseline[0]),
    )
