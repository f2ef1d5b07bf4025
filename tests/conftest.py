"""Shared fixtures and dataset builders.

Datasets built here use a logging propensity of 0.125 (a power of two)
and a target propensity of ``weight * 0.125``, so the stored weight
column reproduces the intended weights bit for bit for any weight up to
8. Hand-frozen expected values can then be asserted exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from opekit import Dataset, RankedDataset
from opekit.estimators import _fold_layout

settings.register_profile("suite", max_examples=50, deadline=None, derandomize=True)
settings.load_profile("suite")


def dataset_from_weights(weights, rewards, *, reward_bound=1.0, weight_bound=8.0) -> Dataset:
    """Scalar dataset whose weight column equals ``weights`` exactly.

    Requires every weight in [0, 8]; weights that are multiples of a
    binary fraction (1/8, 0.25, 1.5, ...) survive the propensity ratio
    without rounding.
    """
    w = np.asarray(weights, dtype=np.float64)
    if (w < 0).any() or (w > 8).any():
        raise ValueError("builder only supports weights in [0, 8]")
    p_log = np.full(w.shape, 0.125)
    return Dataset.from_arrays(
        p_log,
        w * 0.125,
        rewards,
        reward_bound=reward_bound,
        weight_bound=weight_bound,
    )


def ranked_from_weights(weights, rewards, *, reward_bound=1.0, weight_bound=8.0) -> RankedDataset:
    """Ranked counterpart of :func:`dataset_from_weights`; rows by positions."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError("ranked builder needs a 2-d weight array")
    if (w < 0).any() or (w > 8).any():
        raise ValueError("builder only supports weights in [0, 8]")
    p_log = np.full(w.shape, 0.125)
    return RankedDataset.from_arrays(
        p_log,
        w * 0.125,
        rewards,
        reward_bound=reward_bound,
        weight_bound=weight_bound,
    )


def cancelling_log(n: int) -> Dataset:
    """A scalar log of ``n`` entries (even) whose weighted rewards cancel in pairs.

    Each pair shares a logging propensity of 1e-9 * U(1, 2), so weights near
    1e9 with target propensity one, and holds rewards +1 and -1.
    """
    p_log = np.repeat(1e-9 * np.random.default_rng(0).uniform(1.0, 2.0, n // 2), 2)
    rewards = np.tile([1.0, -1.0], n // 2)
    return Dataset.from_arrays(p_log, np.ones(n), rewards, reward_bound=1.0, weight_bound=1e10)


def fold_indices(n: int, config) -> list[np.ndarray]:
    """The cross-fitting partition of range(n) under a ``CrossFitConfig``: each fold's indices, ascending.

    The reference partition the tests compare the engine's fold layout with.
    """
    return [fold for folds in _fold_layout(n, config.folds_k, config.seed) for fold in folds]


@pytest.fixture
def two_row() -> Dataset:
    """w=[2, 0.5], r=[1, 0]: the scalar worked example."""
    return dataset_from_weights([2.0, 0.5], [1.0, 0.0], weight_bound=2.0)


@pytest.fixture
def identity_weights() -> Dataset:
    """w=[1, 1], r=[0.5, 0.7]: zero weight variance."""
    return dataset_from_weights([1.0, 1.0], [0.5, 0.7], weight_bound=1.0)


@pytest.fixture
def unit_mean() -> Dataset:
    """w=[0.5, 1.5, 1, 1], r=[1, 0, 1, 0]: mean weight exactly one."""
    return dataset_from_weights([0.5, 1.5, 1.0, 1.0], [1.0, 0.0, 1.0, 0.0], weight_bound=1.5)


@pytest.fixture
def zero_weights() -> Dataset:
    """w=[0, 0]: self-normalisation undefined."""
    return dataset_from_weights([0.0, 0.0], [1.0, 1.0], weight_bound=1.0)


@pytest.fixture
def ranked_example() -> RankedDataset:
    """Two entries, two positions; position 1 has identity weights.

    Position columns: w1=[1, 1], r1=[1, 0] and w2=[2, 0.5], r2=[0.5, 1].
    """
    return ranked_from_weights(
        [[1.0, 2.0], [1.0, 0.5]],
        [[1.0, 0.5], [0.0, 1.0]],
        weight_bound=2.0,
    )
