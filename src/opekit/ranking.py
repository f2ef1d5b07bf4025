"""Position-wise estimators for ranked logged feedback.

A ranked dataset factorises into scalar marginals, one per position, and
the total value is the sum of per-position values. Every estimator here
applies its scalar row kernel to each marginal, one row per position, so
a one-position ranked dataset reproduces the scalar result bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import RankedDataset
from .errors import DegenerateWeights, LengthMismatch, ValidationError, ZeroWeightSum
from .estimators import MomentSummary, beta_ips_value, beta_star_value, moment_rows, snips_value


@dataclass(frozen=True)
class PositionEstimate:
    """Per-position value estimate with its marginal moments."""

    estimate: float
    baseline: float | None
    moments: MomentSummary


@dataclass(frozen=True)
class PositionwiseReport:
    """Position-wise estimates and their total.

    ``total`` is the fixed-order sum of the per-position estimates;
    ``baseline`` entries are set exactly for the baseline-corrected family.
    """

    per_position: tuple[PositionEstimate, ...]
    total: float
    estimator_name: str
    n_used: int

    def __post_init__(self) -> None:
        if not self.per_position:
            raise ValidationError("a position-wise report needs at least one position")
        check = float(np.sum(np.array([p.estimate for p in self.per_position])))
        if abs(check - self.total) > 1e-12 * max(1.0, abs(check), abs(self.total)):
            raise ValidationError(
                f"total {self.total} does not match the sum of positions {check}"
            )


def _require_ranked(dataset) -> RankedDataset:
    if not isinstance(dataset, RankedDataset):
        raise ValidationError(
            f"expected a RankedDataset, got {type(dataset).__name__}; "
            "use the scalar estimators for scalar data"
        )
    return dataset


def position_rows(name: str, w: np.ndarray, wr: np.ndarray, betas=None) -> tuple:
    """Per-position values of ranked rows shaped ``(..., positions, n)``.

    ``name`` is ``ipm``, ``snipm``, ``beta-ipm`` (fixed ``betas``, one per
    position) or ``beta-perp-star-ipm``. Returns ``(values, baselines,
    failed, moments)``: values and baselines per position (baselines is
    ``None`` outside the baseline-corrected family), ``failed`` marking
    positions where the estimator's precondition fails, and the checked
    moments from :func:`~opekit.estimators.moment_rows`.
    """
    moments = moment_rows(w, wr)
    mean_w, mean_wr, var_w, _, cov = moments
    none_failed = np.zeros(mean_w.shape, dtype=bool)
    if name == "ipm":
        return mean_wr, None, none_failed, moments
    if name == "snipm":
        values, zero = snips_value(mean_w, mean_wr)
        return values, None, zero, moments
    if name == "beta-ipm":
        return beta_ips_value(mean_w, mean_wr, betas), np.broadcast_to(betas, mean_w.shape), none_failed, moments
    if name == "beta-perp-star-ipm":
        values, baselines, degenerate = beta_star_value(mean_w, mean_wr, var_w, cov)
        used = ~degenerate.any(axis=-1, keepdims=True)
        if (used & ~np.isfinite(baselines)).any():
            raise ValidationError("baselines must be finite")
        return values, baselines, degenerate, moments
    raise ValidationError(f"unknown position-wise estimator {name!r}")


def _rows(dataset) -> tuple[np.ndarray, np.ndarray]:
    """A ranked dataset as one row of positions by entries, C-contiguous."""
    _require_ranked(dataset)
    w = np.ascontiguousarray(dataset.weights.T)[None]
    return w, w * np.ascontiguousarray(dataset.rewards.T)[None]


def _report(dataset: RankedDataset, name: str, rows: tuple) -> PositionwiseReport:
    values, baselines, _, moments = rows
    per_position = tuple(
        PositionEstimate(
            float(values[0, j]),
            None if baselines is None else float(baselines[0, j]),
            MomentSummary(*(float(m[0, j]) for m in moments), n=dataset.n),
        )
        for j in range(dataset.k)
    )
    return PositionwiseReport(
        per_position=per_position,
        total=float(np.sum(values[0])),
        estimator_name=name,
        n_used=dataset.n,
    )


def ipm(dataset: RankedDataset) -> PositionwiseReport:
    """Sum of per-position importance-weighted reward means."""
    return _report(dataset, "ipm", position_rows("ipm", *_rows(dataset)))


def snipm(dataset: RankedDataset) -> PositionwiseReport:
    """Sum of per-position self-normalised estimates."""
    rows = position_rows("snipm", *_rows(dataset))
    zero = rows[2][0]
    if zero.any():
        raise ZeroWeightSum(position=int(np.argmax(zero)))
    return _report(dataset, "snipm", rows)


def _fixed_baselines(dataset: RankedDataset, betas) -> np.ndarray:
    b = np.asarray(betas, dtype=np.float64)
    if b.shape != (dataset.k,):
        raise LengthMismatch(
            f"expected {dataset.k} baselines for {dataset.k} positions, got shape {b.shape}"
        )
    if not np.isfinite(b).all():
        raise ValidationError("baselines must be finite")
    return b


def beta_ipm(dataset: RankedDataset, betas) -> PositionwiseReport:
    """Sum of per-position baseline-corrected estimates at fixed baselines."""
    _require_ranked(dataset)
    b = _fixed_baselines(dataset, betas)
    return _report(dataset, "beta-ipm", position_rows("beta-ipm", *_rows(dataset), b))


def _degenerate(failed: np.ndarray) -> None:
    if failed.any():
        raise DegenerateWeights(positions=tuple(np.flatnonzero(failed).tolist()))


def beta_perp_star_hat(dataset: RankedDataset) -> np.ndarray:
    """Plug-in optimal baseline per position, cov(w, wr) / var(w) on each marginal.

    Raises :class:`DegenerateWeights` listing every position whose weights
    have zero variance.
    """
    _, _, var_w, _, cov = moment_rows(*_rows(dataset))
    _degenerate(var_w[0] == 0.0)
    baselines = cov[0] / var_w[0]
    baselines.setflags(write=False)
    return baselines


def beta_perp_star_ipm(dataset: RankedDataset) -> PositionwiseReport:
    """Sum of per-position baseline-corrected estimates at plug-in baselines."""
    rows = position_rows("beta-perp-star-ipm", *_rows(dataset))
    _degenerate(rows[2][0])
    return _report(dataset, "beta-perp-star-ipm", rows)
