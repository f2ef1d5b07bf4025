"""Logged-feedback datasets: validation and derived weights, and the one rule for numbers from outside.

Datasets are stored column-wise as read-only float arrays. Importance
weights are derived exactly once, at validation time, as the elementwise
ratio of target to logging propensities; everything downstream consumes
the stored column so that repeated runs reduce the same floats in the
same order.

A scalar log is the one-position case of a ranked log. Ranked columns are
``(entries, positions)`` and scalar columns are the same data with the
single position dropped, so both kinds share one validated constructor.
There are two ways in, and both end in it: the ``from_arrays``
classmethods for columns in memory and :func:`opekit.io.read_logs` for
log files. A value error names the entry and the position (ranked logs);
:func:`~opekit.io.read_logs` adds the file line and
:func:`~opekit.simulator.compile_scenario` the table cell. No partially
validated dataset is observable.

:func:`_float_column`, :func:`_finite` and :func:`_integer` alone turn a
caller's argument into a float64 array, a finite float or an int. A number
is an int, a float, a numpy real or a numeric string, never complex; an
integer is no bool, and may be an integral float. Anything else raises a
:class:`~opekit.errors.ValidationError` naming the argument or column.

:func:`_id_column` alone decides the type of an id column, from a file or
in memory, nulls included, and the log writer renders ``json.dumps`` of its
values. numpy reads a plain list that mixes bools with ints as ints, so its bools become 0 and 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundViolation,
    DimensionMismatch,
    EmptyDataset,
    LengthMismatch,
    NonFiniteValue,
    NonPositiveLoggingPropensity,
    ValidationError,
)

#: Relative slack applied to declared bounds. Bounds are mathematical
#: statements about the data-generating process; the slack keeps float
#: rounding in the ratio p_tgt / p_log from flagging in-bounds data.
BOUND_SLACK = 1e-12


@dataclass(frozen=True)
class Estimate:
    """A point estimate of a policy value.

    ``baseline_used`` is set exactly when the estimator belongs to the
    baseline-corrected family; plain and self-normalised estimators leave
    it ``None``.
    """

    value: float
    estimator_name: str
    n_used: int
    baseline_used: float | None = None

    def __post_init__(self) -> None:
        if self.n_used < 1:
            raise ValidationError(f"n_used must be at least 1, got {self.n_used}")


_COLUMN_NAMES = ("propensity_logging", "propensity_target", "reward")


def _first_bad(arr: np.ndarray, bad: np.ndarray) -> tuple[float, dict]:
    """The first flagged value of ``arr``, and its entry index and position (``None`` for 1-d columns) as keywords."""
    flat = int(np.argmax(bad))
    i, j = divmod(flat, bad.shape[1]) if bad.ndim == 2 else (flat, None)
    return float(arr.flat[flat]), {"index": i, "position": j}


def _check_columns(
    p_log: np.ndarray,
    p_tgt: np.ndarray,
    rewards: np.ndarray,
    reward_bound: float,
    weight_bound: float,
) -> tuple[np.ndarray, float, float]:
    """Run every value-level check; return the derived weight column and the bounds as floats.

    This is the one definition of the entry rules: datasets run it over
    their columns, and :func:`opekit.simulator.compile_scenario` runs it
    once over the cells a draw can pick. Accepts 1-d (scalar logs) or 2-d
    (ranked logs, entries by positions) arrays of identical shape. Raises
    the first violation found, scanning quantities in a fixed order so
    error reports are deterministic. An error names the entry and its
    position, all the checker knows; a caller that knows the entry's file
    line or table cell sets it with :meth:`~opekit.errors.EntryError.located`.
    """
    bounds = []
    for bound, label in ((reward_bound, "declared reward bound"), (weight_bound, "declared weight bound")):
        value = _finite(bound, label)
        if value <= 0:
            raise ValidationError(f"{label} must be a positive finite number, got {value}")
        bounds.append(value)
    reward_bound, weight_bound = bounds

    for arr, name in zip((p_log, p_tgt, rewards), _COLUMN_NAMES):
        bad = ~np.isfinite(arr)
        if bad.any():
            raise NonFiniteValue(name, **_first_bad(arr, bad)[1])

    bad = p_log <= 0.0
    if bad.any():
        value, where = _first_bad(p_log, bad)
        raise NonPositiveLoggingPropensity(value=value, **where)

    slack = 1.0 + BOUND_SLACK
    with np.errstate(over="ignore"):  # a weight past the float range is inf and fails its bound
        weights = p_tgt / p_log
    checks = (
        ("propensity_logging", p_log, 0.0, 1.0),
        ("propensity_target", p_tgt, 0.0, 1.0),
        ("reward", rewards, -reward_bound, reward_bound),
        ("weight", weights, -np.inf, weight_bound),
    )
    for name, arr, lo, bound in checks:
        bad = (arr < lo * slack) | (arr > bound * slack)
        if bad.any():
            value, where = _first_bad(arr, bad)
            raise BoundViolation(name, value=value, bound=bound, **where)
    return weights, reward_bound, weight_bound


def _float_column(values, name: str) -> np.ndarray:
    """``values`` as a float64 array, not copied if it is one; anything else is a package error."""
    try:
        arr = np.asarray(values)
    except ValueError:  # numpy refuses ragged nesting
        raise DimensionMismatch(f"{name} must be a rectangular table of numbers") from None
    # numpy casts complex arrays and elements to real with only a warning, dropping the imaginary part.
    if arr.dtype.kind == "c" or arr.dtype.kind == "O" and any(map(np.iscomplexobj, arr.flat)):
        raise ValidationError(f"{name} must hold only real numbers")
    try:
        return arr.astype(np.float64, copy=False)
    except OverflowError:
        raise ValidationError(f"{name} holds a number too large for a float") from None
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must hold only real numbers") from None


def _finite(x, name: str = "baseline") -> float:
    """``x`` as a float; a :class:`ValidationError` naming the argument if it is not a finite real number."""
    # float() keeps the real part of a numpy complex scalar, with only a warning.
    if getattr(x, "dtype", None) is not None and x.dtype.kind == "c":
        raise ValidationError(f"{name} must be a number, got {x!r}")
    try:
        b = float(x)
    except OverflowError:
        raise ValidationError(f"{name} must be finite, got a number too large for a float") from None
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a number, got {x!r}") from None
    if not np.isfinite(b):
        raise ValidationError(f"{name} must be finite, got {x}")
    return b


def _integer(value, name: str) -> int:
    """``value`` as an int: an int, a numpy integer or an integral float, never a bool."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValidationError(f"{name} must be an integer, got {value!r}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _id_column(raw, name: str, shape: tuple[int, ...]) -> np.ndarray | None:
    """A read-only id column of ``shape``, each id a JSON string, number, bool or null.

    Integer ids stay exact: int64 or uint64, else Python ints. Ids all
    strings, all floats or all bools keep numpy's type; mixed ids are an
    object column of their Python values (numpy scalars by ``.item()``),
    a null among them ``None``; ids all null are no column (``None``). An
    id JSON cannot hold (NaN, infinity, bytes, a datetime, any other object)
    is rejected, and ids that mix scalars and lists are a length mismatch.
    """
    if raw is None:
        return None
    try:
        arr = np.asarray(raw)
    except ValueError:  # numpy refuses ragged nesting
        raise LengthMismatch(f"{name} mix values of different shapes, expected shape {shape}") from None
    if arr.shape != shape:
        raise LengthMismatch(f"{name} has shape {arr.shape}, expected {shape}")
    if arr.dtype.kind in "iu":
        return _freeze(arr)
    not_json = f"{name} must hold only strings, numbers, booleans or null, got "
    if arr.dtype.kind not in "bfUO" or arr.dtype.kind == "f" and arr.dtype.itemsize > 8:
        raise ValidationError(not_json + arr.dtype.type.__name__)
    if arr.dtype.kind in "fO" or not isinstance(raw, np.ndarray):  # a list's dtype may merge types; a float may be NaN
        ids = [i.item() if isinstance(i, (np.bool_, np.number, np.str_)) else i for i in np.asarray(raw, object).flat]
        types = set(map(type, ids))
        if types == {type(None)}:
            return None
        for other in types - {str, int, float, bool, type(None)}:
            raise ValidationError(not_json + other.__name__)
        if not np.isfinite([i for i in ids if type(i) is float]).all():
            raise ValidationError(f"{name} must not hold a NaN or infinite id")
        if types == {int} and arr.dtype.kind == "f" and min(ids) >= 0:
            arr = np.array(ids, np.uint64).reshape(shape)
        elif len(types) > 1 or types == {int} or arr.dtype == object:
            arr = np.array(ids, object).reshape(shape)
    return _freeze(arr)


@dataclass(frozen=True, eq=False)
class _Logged:
    """Columns, bounds and the one validated constructor of both dataset kinds.

    Columns are ``(entries, positions)`` for ranked logs; a scalar log is
    the one-position case, stored with 1-d columns. ``_ndim`` is the
    column rank of the kind.
    """

    propensity_logging: np.ndarray
    propensity_target: np.ndarray
    rewards: np.ndarray
    weights: np.ndarray
    reward_bound: float
    weight_bound: float
    context_ids: np.ndarray | None = None
    action_ids: np.ndarray | None = None

    _ndim = 1

    @classmethod
    def from_arrays(
        cls,
        propensity_logging,
        propensity_target,
        rewards,
        *,
        reward_bound: float,
        weight_bound: float,
        context_ids=None,
        action_ids=None,
    ):
        """Validate columns and ids and derive the weights.

        Scalar columns are 1-d; ranked columns are ``(entries, positions)``,
        with ``context_ids`` one per entry and ``action_ids`` one per position.
        """
        return cls._build(
            (propensity_logging, propensity_target, rewards),
            reward_bound,
            weight_bound,
            context_ids,
            action_ids,
        )

    @classmethod
    def _build(cls, columns, reward_bound, weight_bound, context_ids, action_ids):
        """Check shapes, ids and values, derive the weights and freeze every column."""
        p_log, p_tgt, rew = map(_float_column, columns, _COLUMN_NAMES)
        if p_log.ndim != cls._ndim:
            rank = "one" if cls._ndim == 1 else "two"
            raise ValidationError(f"propensity_logging must be {rank}-dimensional, got shape {p_log.shape}")
        if p_log.size == 0:
            if cls._ndim == 1:
                raise EmptyDataset()
            raise EmptyDataset("ranked dataset needs at least one entry and one position")
        if not (p_log.shape == p_tgt.shape == rew.shape):
            raise LengthMismatch(f"columns disagree in shape: {p_log.shape}, {p_tgt.shape}, {rew.shape}")
        context_ids = _id_column(context_ids, "context_ids", p_log.shape[:1])
        action_ids = _id_column(action_ids, "action_ids", p_log.shape)
        weights, reward_bound, weight_bound = _check_columns(p_log, p_tgt, rew, reward_bound, weight_bound)
        return cls(
            propensity_logging=_freeze(p_log),
            propensity_target=_freeze(p_tgt),
            rewards=_freeze(rew),
            weights=_freeze(weights),
            reward_bound=reward_bound,
            weight_bound=weight_bound,
            context_ids=context_ids,
            action_ids=action_ids,
        )

    @property
    def n(self) -> int:
        return int(self.rewards.shape[0])


@dataclass(frozen=True, eq=False)
class Dataset(_Logged):
    """Validated scalar logged feedback with derived importance weights."""


@dataclass(frozen=True, eq=False)
class RankedDataset(_Logged):
    """Validated ranked logged feedback, entries by positions."""

    _ndim = 2

    @property
    def k(self) -> int:
        return int(self.rewards.shape[1])

    def position(self, j: int) -> Dataset:
        """The scalar marginal dataset at position ``j`` (0-based)."""
        j = _integer(j, "position")
        if not 0 <= j < self.k:
            raise ValidationError(f"position {j} out of range for {self.k} positions")
        return Dataset(
            propensity_logging=self.propensity_logging[:, j],
            propensity_target=self.propensity_target[:, j],
            rewards=self.rewards[:, j],
            weights=self.weights[:, j],
            reward_bound=self.reward_bound,
            weight_bound=self.weight_bound,
            context_ids=self.context_ids,
            action_ids=None if self.action_ids is None else self.action_ids[:, j],
        )


def _from_positions(ranked: bool, n: int, k: int, columns, reward_bound, weight_bound, context_ids, action_ids):
    """A dataset from flat ``(p_log, p_tgt, reward)`` ``array("d")`` columns holding ``k`` positions per entry.

    Its columns are views of those buffers. A scalar log is the one-position
    case, reshaped to 1-d columns. The action ids, one per position, are
    converted once as one flat column of ``n * k`` ids and reshaped like the
    number columns.
    """
    cls, shape = (RankedDataset, (n, k)) if ranked else (Dataset, (n,))
    columns = [np.frombuffer(column).reshape(shape) for column in columns]
    action_ids = _id_column(action_ids, "action_ids", (n * k,))
    if action_ids is not None:
        action_ids = action_ids.reshape(shape)
    return cls._build(columns, reward_bound, weight_bound, context_ids, action_ids)
