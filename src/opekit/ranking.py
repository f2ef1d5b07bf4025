"""Position-wise estimators for ranked logged feedback.

A ranked dataset factorises into scalar marginals, one per position, and
the total value is the sum of per-position values. Every estimator here
is a registered scalar row kernel (see :data:`~opekit.estimators.ESTIMATORS`)
applied to each marginal, one row per position, so a one-position ranked
dataset reproduces the scalar result bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import RankedDataset, _float_column
from .errors import LengthMismatch, ValidationError, ZeroWeightSum
from .estimators import ESTIMATORS


@dataclass(frozen=True)
class PositionEstimate:
    """Per-position value estimate and, for the baseline-corrected family, its baseline."""

    estimate: float
    baseline: float | None


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


def _rows(dataset) -> tuple[np.ndarray, np.ndarray]:
    """A ranked dataset as one row of positions by entries, C-contiguous."""
    _require_ranked(dataset)
    w = np.ascontiguousarray(dataset.weights.T)[None]
    return w, w * np.ascontiguousarray(dataset.rewards.T)[None]


def _raise_failed(error, failed: np.ndarray) -> None:
    """Raise ``error`` if ``failed`` marks any position; the error names the failing positions."""
    if not failed.any():
        return
    positions = tuple(np.flatnonzero(failed).tolist())
    if error is ZeroWeightSum:
        raise ZeroWeightSum(position=positions[0])
    raise error(positions=positions)


def positionwise(name: str, dataset: RankedDataset, arg=None) -> PositionwiseReport:
    """The registered estimator ``name`` applied to every position of a ranked dataset."""
    entry = ESTIMATORS[name]
    values, baselines, failed = entry.kernel(*_rows(dataset), arg)
    if failed is not None:
        _raise_failed(entry.error, failed[0])
    per_position = tuple(
        PositionEstimate(float(values[0, j]), None if baselines is None else float(baselines[0, j]))
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
    return positionwise("ipm", dataset)


def snipm(dataset: RankedDataset) -> PositionwiseReport:
    """Sum of per-position self-normalised estimates."""
    return positionwise("snipm", dataset)


def _fixed_baselines(k: int, betas) -> np.ndarray:
    b = _float_column(betas, "baselines")
    if b.shape != (k,):
        raise LengthMismatch(f"expected {k} baselines for {k} positions, got shape {b.shape}")
    if not np.isfinite(b).all():
        raise ValidationError("baselines must be finite")
    return b


def beta_ipm(dataset: RankedDataset, betas) -> PositionwiseReport:
    """Sum of per-position baseline-corrected estimates at fixed baselines."""
    _require_ranked(dataset)
    return positionwise("beta-ipm", dataset, _fixed_baselines(dataset.k, betas))


def beta_perp_star_hat(dataset: RankedDataset) -> np.ndarray:
    """Plug-in optimal baseline per position, cov(w, wr) / var(w) on each marginal.

    Raises :class:`DegenerateWeights` listing every position whose weights
    have zero variance.
    """
    report = positionwise("beta-perp-star-ipm", dataset)
    baselines = np.array([p.baseline for p in report.per_position])
    baselines.setflags(write=False)
    return baselines


def beta_perp_star_ipm(dataset: RankedDataset) -> PositionwiseReport:
    """Sum of per-position baseline-corrected estimates at plug-in baselines."""
    return positionwise("beta-perp-star-ipm", dataset)
