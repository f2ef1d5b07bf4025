"""Closed-form variance and remainder diagnostics.

The self-normalised estimator differs from the baseline-corrected one at
the true value by an exactly computable remainder, and its asymptotic
variance exceeds the variance at the optimal baseline by a non-negative
gap with a closed form. Both quantities are evaluated here from moment
summaries or datasets, with no sampling involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, _finite, _freeze, _integer
from .errors import DegenerateWeights, ValidationError, ZeroWeightSum
from .estimators import MomentSummary, Rows, _require_scalar, remainder_rows


@dataclass(frozen=True)
class RemainderDiagnostics:
    """Exact decomposition of the self-normalised estimate around a value.

    With ``L_n = mean(wr) - value * mean(w)`` and ``W_bar = mean(w)``, the
    self-normalised estimate equals the baseline-corrected estimate at
    ``beta = value`` plus ``r_n = L_n * (1 - W_bar) / W_bar``. The
    linearised remainder drops the denominator. ``u_series`` holds
    ``w * (reward - value)`` and ``t_series`` holds ``w - 1``; their means
    are ``L_n`` and ``W_bar - 1``. ``event_holds`` records whether the
    weight mean stayed at or above one half, the regime in which the
    remainder admits quadratic tail control.
    """

    l_n: float
    w_bar: float
    r_n: float
    r_n_linearised: float
    event_holds: bool
    u_series: np.ndarray
    t_series: np.ndarray


@dataclass(frozen=True)
class VarianceGapReport:
    """Variance comparison between self-normalisation and the optimal baseline.

    ``var_beta`` is the closed-form variance of the baseline-corrected
    estimator at the reference value, which coincides with ``avar_snips``,
    the asymptotic variance of the self-normalised estimator.
    ``gap_delta = avar_snips - var_beta_star`` is non-negative and zero
    exactly when the reference value already is the optimal baseline.
    """

    var_beta: float
    var_beta_star: float
    avar_snips: float
    gap_delta: float
    n: int

    def __post_init__(self) -> None:
        if self.gap_delta < -1e-12:
            raise ValidationError(f"variance gap must be non-negative, got {self.gap_delta}")


def beta_ips_variance(moments: MomentSummary, beta: float) -> float:
    """Variance of the baseline-corrected estimator at a fixed baseline.

    Equals ``(var_wr - 2 * beta * cov_w_wr + beta^2 * var_w) / n``.
    """
    b = _finite(beta)
    return (moments.var_wr - 2.0 * b * moments.cov_w_wr + b * b * moments.var_w) / moments.n


def snips_avar(moments: MomentSummary, value: float) -> float:
    """Asymptotic variance of the self-normalised estimator.

    The self-normalised estimator linearises to the baseline-corrected one
    whose baseline is the true value, so the same quadratic applies at
    ``beta = value``.
    """
    return beta_ips_variance(moments, value)


def variance_gap(moments: MomentSummary, value: float) -> VarianceGapReport:
    """Closed-form gap between self-normalisation and the optimal baseline.

    The gap is evaluated as ``(value * var_w - cov_w_wr)^2 / (n * var_w)``,
    a ratio of a square to a positive number, so it is non-negative by
    construction and vanishes exactly when ``value`` equals the optimal
    baseline ``cov_w_wr / var_w``.
    """
    beta_star = moments.beta_star
    if beta_star is None:
        raise DegenerateWeights(detail="the optimal baseline is undefined")
    v = _finite(value, "value")
    residual = v * moments.var_w - moments.cov_w_wr
    gap = (residual * residual) / (moments.n * moments.var_w)
    avar = snips_avar(moments, v)
    var_star = beta_ips_variance(moments, beta_star)
    # Each variance cancels terms of the size of its quadratic's absolute terms, so their
    # difference matches the gap to the rounding of those terms, not of the gap; a gap
    # past the float range (the gap is at most those terms) passes, to be written as null.
    terms = sum(moments.var_wr + 2.0 * abs(b * moments.cov_w_wr) + b * b * moments.var_w for b in (v, beta_star))
    if abs(gap - (avar - var_star)) > 1e-12 * (terms / moments.n + gap):
        raise ValidationError(f"gap {gap} does not match avar_snips - var_beta_star = {avar - var_star}")
    return VarianceGapReport(var_beta=avar, var_beta_star=var_star, avar_snips=avar, gap_delta=gap, n=moments.n)


def remainder_diagnostics(dataset: Dataset, value: float) -> RemainderDiagnostics:
    """Evaluate the exact remainder decomposition on a dataset.

    Requires a non-zero weight mean; the self-normalised estimate does not
    exist otherwise.
    """
    rows = Rows.of(_require_scalar(dataset))
    v = _finite(value, "value")
    l_n, r_n, zero = remainder_rows(rows, v)
    if zero[0]:
        raise ZeroWeightSum()
    mean_w, l_n = float(rows.mean_w[0]), float(l_n[0])
    u_series = _freeze(dataset.weights * (dataset.rewards - v))
    t_series = _freeze(dataset.weights - 1.0)
    # Internal consistency: the series were built from the same columns the
    # scalars came from, so their means can only differ by accumulated
    # rounding in the rearranged sums, which scales with the summands, not
    # with their sum: weighted rewards of both signs cancel in the sum.
    with np.errstate(over="ignore"):  # a scale past the float range passes the check
        scale = float(np.mean(np.abs(rows.wr))) + abs(v) * mean_w
    if abs(float(np.mean(u_series)) - l_n) > 1e-12 * scale:
        raise ValidationError(f"mean of the u series disagrees with L_n = {l_n}")
    if abs(float(np.mean(t_series)) - (mean_w - 1.0)) > 1e-12 * max(1.0, abs(mean_w)):
        raise ValidationError(f"mean of the t series disagrees with W_bar - 1 = {mean_w - 1.0}")
    return RemainderDiagnostics(
        l_n=l_n,
        w_bar=mean_w,
        r_n=float(r_n[0]),
        r_n_linearised=l_n * (1.0 - mean_w),
        event_holds=bool(mean_w >= 0.5),
        u_series=u_series,
        t_series=t_series,
    )


def hoeffding_tail_bound(n: int, weight_bound: float) -> float:
    """Upper bound on the probability that the weight mean drops below one half.

    The weights live in ``[0, weight_bound]`` with mean one, so the bound is
    ``exp(-n / (2 * weight_bound^2))``.
    """
    n = _integer(n, "n")
    if n < 1:
        raise ValidationError(f"n must be at least 1, got {n}")
    n = _finite(n, "n")
    b = _finite(weight_bound, "weight bound")
    if b <= 0:
        raise ValidationError(f"weight bound must be a positive finite number, got {weight_bound}")
    # A bound whose square underflows to zero takes the exponential's limit, zero.
    return math.exp(-n / scale) if (scale := 2.0 * b * b) else 0.0
