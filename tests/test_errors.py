"""Every public error survives pickling, as an error raised in a --jobs worker must."""

import inspect
import pickle

import pytest

from opekit import errors

INSTANCES = [
    errors.OpeKitError("base"),
    errors.ValidationError("bad input"),
    errors.EmptyDataset(),
    errors.EntryError("bad value", 3, 1, 9),
    errors.NonPositiveLoggingPropensity(2, -0.5, position=0, line=4),
    errors.BoundViolation("reward", 1, 2.0, 1.0),
    errors.NonFiniteValue("reward", 5, line=8),
    errors.LengthMismatch("columns disagree"),
    errors.DimensionMismatch("wrong shape"),
    errors.MissingBounds(),
    errors.ParseError(7, "invalid JSON"),
    errors.UnknownPreset("nope", ("flip2", "identity2")),
    errors.UnknownEstimator("no such estimator"),
    errors.VRequiredForGap(),
    errors.SupportViolation([(0, 1), (2, 3)], position=1),
    errors.TooFewReplicates(1),
    errors.EstimationError("precondition"),
    errors.ZeroWeightSum(position=2),
    errors.DegenerateWeights("constant", (0, 2)),
    errors.FoldTooSmall(5, 3),
    errors.DegenerateX("one abscissa"),
    errors.NonPositiveMean(1),
    errors.StudyError("study failed"),
    errors.PreconditionNotMet("no overlap"),
    errors.ExcessiveFailureRate("snips", 400, 12, 1000),
    errors.WorkerFailure("worker died"),
]


def test_every_public_error_is_covered():
    public = {
        cls
        for name, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.OpeKitError) and not name.startswith("_")
    }
    assert {type(error) for error in INSTANCES} == public


@pytest.mark.parametrize("error", INSTANCES, ids=lambda error: type(error).__name__)
def test_pickle_round_trip(error):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert vars(copy) == vars(error)
    assert copy.args == error.args
    assert str(copy) == str(error)


def test_a_place_set_after_raising_survives_pickling():
    error = errors.NonFiniteValue("weight", 2).located(index=None, position=1, cell=(0, 1))
    copy = pickle.loads(pickle.dumps(error))
    assert str(copy) == str(error) == "weight is not finite at context 0, action 1, position 2"
    assert vars(copy) == vars(error) and (copy.index, copy.cell) == (None, (0, 1))
