"""Dataset construction, validation, and record views."""

import numpy as np
import pytest

from opekit import Dataset, Estimate, LogEntry, RankedDataset, validate_dataset
from opekit.data import BOUND_SLACK, PositionRecord, RankedLogEntry, _check_block, _check_columns
from opekit.errors import (
    BoundViolation,
    EmptyDataset,
    LengthMismatch,
    NonFiniteValue,
    NonPositiveLoggingPropensity,
    ValidationError,
)

from conftest import dataset_from_weights


def make(p_log, p_tgt, rewards, *, reward_bound=1.0, weight_bound=4.0, **kw):
    return Dataset.from_arrays(
        p_log, p_tgt, rewards, reward_bound=reward_bound, weight_bound=weight_bound, **kw
    )


class TestScalarConstruction:
    def test_weights_are_derived_ratios(self):
        d = make([0.5, 0.25], [1.0, 0.25], [1.0, 0.0])
        assert np.array_equal(d.weights, [2.0, 1.0])
        assert d.n == 2
        assert d.reward_bound == 1.0
        assert d.weight_bound == 4.0

    def test_columns_are_read_only(self):
        d = make([0.5], [0.5], [1.0])
        with pytest.raises(ValueError):
            d.weights[0] = 3.0
        with pytest.raises(ValueError):
            d.rewards[0] = 3.0

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            make([], [], [])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            make([0.5, 0.5], [0.5], [1.0, 0.0])

    def test_non_positive_logging_propensity(self):
        with pytest.raises(NonPositiveLoggingPropensity) as info:
            make([0.5, 0.0], [0.5, 0.5], [1.0, 0.0])
        assert info.value.index == 1
        assert info.value.value == 0.0

    def test_non_finite_values(self):
        with pytest.raises(NonFiniteValue) as info:
            make([0.5, 0.5], [0.5, 0.5], [1.0, float("nan")])
        assert info.value.quantity == "reward"
        assert info.value.index == 1
        with pytest.raises(NonFiniteValue):
            make([float("inf"), 0.5], [0.5, 0.5], [1.0, 0.0])

    def test_propensity_above_one(self):
        with pytest.raises(BoundViolation) as info:
            make([0.5], [1.5], [0.0])
        assert info.value.quantity == "propensity_target"

    def test_reward_bound_violation(self):
        with pytest.raises(BoundViolation) as info:
            make([0.5], [0.5], [1.5])
        assert info.value.quantity == "reward"
        assert info.value.bound == 1.0
        make([0.5], [0.5], [1.5], reward_bound=2.0)

    def test_negative_reward_within_bound(self):
        d = make([0.5], [0.5], [-1.0])
        assert d.rewards[0] == -1.0

    def test_weight_bound_violation(self):
        with pytest.raises(BoundViolation) as info:
            make([0.125], [1.0], [0.0])
        assert info.value.quantity == "weight"
        assert info.value.value == 8.0
        assert info.value.bound == 4.0

    def test_weight_exactly_at_bound_is_fine(self):
        d = make([0.25], [1.0], [0.0])
        assert d.weights[0] == 4.0

    def test_bound_slack_absorbs_rounding(self):
        bound = 1.0
        make([0.5], [0.5], [bound * (1.0 + 0.5 * BOUND_SLACK)])
        with pytest.raises(BoundViolation):
            make([0.5], [0.5], [bound * (1.0 + 10 * BOUND_SLACK)])

    def test_declared_bounds_must_be_positive_finite(self):
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValidationError):
                make([0.5], [0.5], [0.0], reward_bound=bad)
            with pytest.raises(ValidationError):
                make([0.5], [0.5], [0.0], weight_bound=bad)

    def test_id_columns(self):
        d = make([0.5, 0.5], [0.5, 0.5], [1.0, 0.0], context_ids=[7, 8], action_ids=[0, 1])
        assert list(d.context_ids) == [7, 8]
        assert list(d.action_ids) == [0, 1]
        with pytest.raises(LengthMismatch):
            make([0.5, 0.5], [0.5, 0.5], [1.0, 0.0], context_ids=[7])


class TestRankedConstruction:
    def test_shapes_and_views(self):
        d = RankedDataset.from_arrays(
            [[0.5, 0.25], [0.5, 0.5]],
            [[0.5, 0.5], [0.25, 0.5]],
            [[1.0, 0.0], [0.0, 1.0]],
            reward_bound=1.0,
            weight_bound=2.0,
        )
        assert (d.n, d.k) == (2, 2)
        first = d.position(0)
        assert isinstance(first, Dataset)
        assert np.array_equal(first.weights, [1.0, 0.5])
        assert np.array_equal(d.position(1).weights, [2.0, 1.0])
        with pytest.raises(ValidationError):
            d.position(2)

    def test_position_views_share_bounds(self):
        d = RankedDataset.from_arrays(
            [[0.5]], [[0.5]], [[1.0]], reward_bound=1.0, weight_bound=3.0
        )
        assert d.position(0).weight_bound == 3.0

    def test_requires_two_dimensions(self):
        with pytest.raises(ValidationError):
            RankedDataset.from_arrays([0.5], [0.5], [1.0], reward_bound=1.0, weight_bound=1.0)

    def test_position_in_error_report(self):
        with pytest.raises(BoundViolation) as info:
            RankedDataset.from_arrays(
                [[0.5, 0.5], [0.5, 0.5]],
                [[0.5, 0.5], [0.5, 0.5]],
                [[0.0, 0.0], [0.0, 3.0]],
                reward_bound=1.0,
                weight_bound=1.0,
            )
        assert info.value.index == 1
        assert info.value.position == 1


class TestBlockValidation:
    """A block of replicates reports a violation as its first failing replicate alone would."""

    @staticmethod
    def error(check, *args):
        with pytest.raises(ValidationError) as info:
            check(*args)
        return type(info.value), str(info.value)

    def test_weights_match_row_by_row(self):
        p_log = np.full((3, 2, 4), 0.5)
        p_tgt = np.linspace(0.1, 1.0, 24).reshape(3, 2, 4)
        rewards = np.ones((3, 2, 4))
        weights = _check_block(p_log, p_tgt, rewards, 1.0, 2.0)
        assert np.array_equal(weights, p_tgt / p_log)

    def test_scalar_rows(self):
        p_log = np.full((3, 5), 0.5)
        p_tgt = np.full((3, 5), 0.5)
        rewards = np.ones((3, 5))
        p_tgt[2, 1] = 1.0  # weight 2 > 1.5 in replicate 2
        p_log[1, 3] = 0.0  # non-positive propensity in replicate 1
        expected = self.error(_check_columns, p_log[1], p_tgt[1], rewards[1], 1.0, 1.5)
        assert expected[0] is NonPositiveLoggingPropensity
        assert self.error(_check_block, p_log, p_tgt, rewards, 1.0, 1.5) == expected

    def test_ranked_rows(self):
        p_log = np.full((2, 3, 4), 0.5)
        p_tgt = np.full((2, 3, 4), 0.5)
        rewards = np.ones((2, 3, 4))
        rewards[1, 2, 1] = np.nan  # replicate 1, position 3, entry 1
        expected = self.error(_check_columns, p_log[1].T, p_tgt[1].T, rewards[1].T, 1.0, 1.5)
        assert expected == (NonFiniteValue, "reward is not finite at entry 1, position 3")
        assert self.error(_check_block, p_log, p_tgt, rewards, 1.0, 1.5) == expected


class TestValidateDataset:
    def test_triples(self):
        d = validate_dataset([(0.5, 1.0, 1.0), (0.5, 0.25, 0.0)], 1.0, 2.0)
        assert isinstance(d, Dataset)
        assert np.array_equal(d.weights, [2.0, 0.5])

    def test_log_entries_keep_ids(self):
        entries = [LogEntry("x1", "a0", 0.5, 0.25, 1.0), LogEntry("x2", "a1", 0.5, 0.5, 0.0)]
        d = validate_dataset(entries, 1.0, 1.0)
        assert list(d.context_ids) == ["x1", "x2"]
        assert list(d.action_ids) == ["a0", "a1"]

    def test_ranked_triples(self):
        rows = [
            [(0.5, 0.5, 1.0), (0.25, 0.5, 0.5)],
            [(0.5, 0.5, 0.0), (0.5, 0.25, 1.0)],
        ]
        d = validate_dataset(rows, 1.0, 2.0)
        assert isinstance(d, RankedDataset)
        assert np.array_equal(d.position(1).weights, [2.0, 0.5])

    def test_ranked_entries(self):
        entry = RankedLogEntry("x", (PositionRecord("a", 0.5, 0.5, 1.0),))
        d = validate_dataset([entry], 1.0, 1.0)
        assert isinstance(d, RankedDataset)
        assert d.k == 1
        assert list(d.context_ids) == ["x"]

    def test_ragged_ranking_lengths(self):
        rows = [
            [(0.5, 0.5, 1.0), (0.5, 0.5, 0.0)],
            [(0.5, 0.5, 1.0)],
        ]
        with pytest.raises(LengthMismatch):
            validate_dataset(rows, 1.0, 1.0)

    def test_mixed_kinds_rejected(self):
        mixed = [[(0.5, 0.5, 1.0)], (0.5, 0.5, 1.0)]
        with pytest.raises(ValidationError):
            validate_dataset(mixed, 1.0, 1.0)

    def test_garbage_entry(self):
        with pytest.raises(ValidationError):
            validate_dataset(["nope"], 1.0, 1.0)
        with pytest.raises(EmptyDataset):
            validate_dataset([], 1.0, 1.0)


class TestEstimateRecord:
    def test_requires_positive_n(self):
        with pytest.raises(ValidationError):
            Estimate(value=0.5, estimator_name="ips", n_used=0)

    def test_baseline_none_by_default(self):
        e = Estimate(value=0.5, estimator_name="ips", n_used=3)
        assert e.baseline_used is None


def test_builder_weights_are_exact():
    w = [0.0, 0.125, 1.0, 2.5, 7.875, 8.0]
    d = dataset_from_weights(w, np.zeros(len(w)))
    assert np.array_equal(d.weights, w)
