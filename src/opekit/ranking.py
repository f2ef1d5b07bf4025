"""Position-wise estimators for ranked logged feedback.

A ranked dataset factorises into scalar marginals, one per position, and
the total value is the sum of per-position values. Every estimator here
is a registered scalar row kernel (see :data:`~opekit.estimators.ESTIMATORS`)
run by the one driver the scalar estimators use,
:func:`~opekit.estimators._apply`, one row per position; a scalar dataset
is its one-position case, so a one-position ranked dataset reproduces the
scalar result bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import RankedDataset
from .errors import ValidationError
from .estimators import Rows, _apply, _kind, row_total


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
        check = float(row_total(np.array([p.estimate for p in self.per_position])))
        if abs(check - self.total) > 1e-12 * max(1.0, abs(check), abs(self.total)):
            raise ValidationError(
                f"total {self.total} does not match the sum of positions {check}"
            )


def positionwise(name: str, dataset: RankedDataset, arg=None) -> PositionwiseReport:
    """The registered ranked estimator ``name`` applied to every position of a ranked dataset."""
    values, baselines = _apply(name, _kind(dataset), Rows.of(dataset), arg)
    if not isinstance(dataset, RankedDataset):  # a scalar name on scalar data passes _apply's kind rule
        raise ValidationError(
            f"expected a RankedDataset, got {type(dataset).__name__}; use the scalar estimators for scalar data"
        )
    return PositionwiseReport(
        per_position=tuple(map(PositionEstimate, values.tolist(), baselines)),
        total=float(row_total(values)),
        estimator_name=name,
        n_used=dataset.n,
    )


def ipm(dataset: RankedDataset) -> PositionwiseReport:
    """Sum of per-position importance-weighted reward means."""
    return positionwise("ipm", dataset)


def snipm(dataset: RankedDataset) -> PositionwiseReport:
    """Sum of per-position self-normalised estimates."""
    return positionwise("snipm", dataset)


def beta_ipm(dataset: RankedDataset, betas) -> PositionwiseReport:
    """Sum of per-position baseline-corrected estimates at fixed baselines."""
    return positionwise("beta-ipm", dataset, betas)


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
