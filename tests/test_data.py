"""Dataset construction, validation, and record views."""

import numpy as np
import pytest

from opekit import Dataset, Estimate, RankedDataset
from opekit.data import BOUND_SLACK
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
        for bad in ("1", 1.5, True):
            with pytest.raises(ValidationError, match="position must be an integer"):
                d.position(bad)
        assert np.array_equal(d.position(1.0).weights, d.position(np.int64(1)).weights)

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


def test_complex_array_is_not_cast_to_real():
    # numpy would keep the real part of a complex column, with only a warning.
    with pytest.raises(ValidationError, match="^reward must hold only real numbers$"):
        make([0.5], [0.5], np.array([0.5 + 0.5j]))


def test_complex_scalars_are_not_cast_to_real():
    with pytest.raises(ValidationError, match="^propensity_logging must hold only real numbers$"):
        make([np.complex128(0.5 + 1j)], [0.5], [1.0])
    with pytest.raises(ValidationError, match="^propensity_logging must hold only real numbers$"):
        make([None, np.complex128(0.5 + 1j)], [0.5, 0.5], [1.0, 1.0])  # an object array
    with pytest.raises(ValidationError, match="^declared weight bound must be a number"):
        make([0.5], [0.5], [1.0], weight_bound=np.complex128(4.0 + 1j))


def test_bounds_in_other_spellings_keep_their_values():
    d = make([0.5], [0.5], [1.0], reward_bound="1", weight_bound=np.int64(4))
    assert (d.reward_bound, d.weight_bound) == (1.0, 4.0)
    assert all(type(b) is float for b in (d.reward_bound, d.weight_bound))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, np.float32(np.nan)])
def test_non_finite_ids_are_rejected(bad):
    # A log file would write such an id as NaN or Infinity, which is not JSON.
    with pytest.raises(ValidationError, match="^context_ids must not hold a NaN or infinite id$"):
        make([0.5, 0.5], [0.5, 0.5], [1.0, 0.0], context_ids=[bad, 1.5])
    with pytest.raises(ValidationError, match="^context_ids must not hold a NaN or infinite id$"):
        make([0.5, 0.5], [0.5, 0.5], [1.0, 0.0], context_ids=np.array(["a", bad], dtype=object))
    with pytest.raises(ValidationError, match="^action_ids must not hold a NaN or infinite id$"):
        RankedDataset.from_arrays(
            [[0.5, 0.5]], [[0.5, 0.5]], [[1.0, 0.0]],
            reward_bound=1.0, weight_bound=1.0, action_ids=[[2**70, bad]],
        )
    with pytest.raises(ValidationError, match="^context_ids must not hold a NaN or infinite id$"):
        make([0.5, 0.5], [0.5, 0.5], [1.0, 0.0], context_ids=[bad, "a"])  # numpy would read it as the string "inf"
    assert make([0.5, 0.5], [0.5, 0.5], [1.0, 0.0], context_ids=[0.5, 1.5]).context_ids.tolist() == [0.5, 1.5]


@pytest.mark.parametrize(
    "ids",
    [
        [b"a", b"b"],
        [np.datetime64("2020-01-01"), 1],
        np.array(["2020-01-01", "2020-01-02"], dtype="datetime64[ns]"),
        [{"a": 1}, 2],
        [object(), "a"],
        [1j, "a"],
        np.array([1.0, 2.0], dtype=np.longdouble),
    ],
    ids=["bytes", "datetime-and-int", "datetime64-ns", "dict", "object", "complex", "longdouble"],
)
def test_ids_json_cannot_hold_are_rejected(ids):
    with pytest.raises(ValidationError, match="^context_ids must hold only strings, numbers, booleans or null, got "):
        make([0.5, 0.5], [0.5, 0.5], [1.0, 0.0], context_ids=ids)


def test_mixed_ids_are_their_python_values():
    # numpy alone would read [1, "a"] as the strings "1" and "a", and [True, 2.5] as floats.
    for ids in ([1, "a"], [np.int32(1), "a"], [True, 2.5], [1, 2.5], [None, np.float32(0.5)]):
        column = make([0.5, 0.5], [0.5, 0.5], [1.0, 0.0], context_ids=ids).context_ids
        assert column.dtype == object
        assert [(type(i), i) for i in column] == [(type(i), i) for i in (i.item() if isinstance(i, np.generic) else i for i in ids)]
    assert make([0.5, 0.5], [0.5, 0.5], [1.0, 0.0], context_ids=["a", "b"]).context_ids.dtype.kind == "U"
    assert make([0.5, 0.5], [0.5, 0.5], [1.0, 0.0], context_ids=[True, False]).context_ids.dtype == bool


def test_ragged_ids_are_a_length_mismatch():
    with pytest.raises(LengthMismatch, match="context_ids"):
        make([0.5, 0.5], [0.5, 0.5], [1.0, 0.0], context_ids=[7, [8, 9]])
    with pytest.raises(LengthMismatch, match="action_ids"):
        RankedDataset.from_arrays(
            [[0.5, 0.5]], [[0.5, 0.5]], [[1.0, 0.0]],
            reward_bound=1.0, weight_bound=1.0, action_ids=[[0, [1, 2]]],
        )
