"""Logged-feedback datasets: record types, validation, and derived weights.

Datasets are stored column-wise as read-only float arrays. Importance
weights are derived exactly once, at validation time, as the elementwise
ratio of target to logging propensities; everything downstream consumes
the stored column so that repeated runs reduce the same floats in the
same order.

Construct datasets through :func:`validate_dataset` or the ``from_arrays``
classmethods. Both run the full set of checks, so no partially validated
dataset is observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BoundViolation,
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

#: Entries per block wherever a whole dataset or study cell is processed a
#: block at a time (replicate blocks in the study engine, rendered blocks of
#: a log file). Larger blocks save little time and cost resident memory.
BLOCK_ENTRIES = 8192


@dataclass(frozen=True)
class LogEntry:
    """One logged interaction under the logging policy."""

    context_id: object
    action_id: object
    propensity_logging: float
    propensity_target: float
    reward: float


@dataclass(frozen=True)
class PositionRecord:
    """The slice of a ranked interaction at a single position."""

    action_id: object
    propensity_logging: float
    propensity_target: float
    reward: float


@dataclass(frozen=True)
class RankedLogEntry:
    """One logged ranking; all entries in a dataset share the same length."""

    context_id: object
    positions: tuple[PositionRecord, ...]


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


def _as_float_column(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def _first_bad(mask: np.ndarray) -> tuple[int, int | None]:
    """Return (entry index, position or None) of the first True in ``mask``."""
    flat = int(np.argmax(mask))
    if mask.ndim == 1:
        return flat, None
    i, j = np.unravel_index(flat, mask.shape)
    return int(i), int(j)


def _check_columns(
    p_log: np.ndarray,
    p_tgt: np.ndarray,
    rewards: np.ndarray,
    reward_bound: float,
    weight_bound: float,
) -> np.ndarray:
    """Run every value-level check and return the derived weight column.

    Accepts 1-d (scalar logs) or 2-d (ranked logs, entries by positions)
    arrays of identical shape. Raises the first violation found, scanning
    quantities in a fixed order so error reports are deterministic.
    """
    for bound, label in ((reward_bound, "reward bound"), (weight_bound, "weight bound")):
        if not np.isfinite(bound) or bound <= 0:
            raise ValidationError(f"declared {label} must be a positive finite number, got {bound}")

    for arr, name in ((p_log, "propensity_logging"), (p_tgt, "propensity_target"), (rewards, "reward")):
        bad = ~np.isfinite(arr)
        if bad.any():
            i, j = _first_bad(bad)
            raise NonFiniteValue(name, i, position=j)

    bad = p_log <= 0.0
    if bad.any():
        i, j = _first_bad(bad)
        exc = NonPositiveLoggingPropensity(i, float(p_log[i] if j is None else p_log[i, j]))
        exc.position = j
        raise exc

    slack = 1.0 + BOUND_SLACK
    checks = (
        ("propensity_logging", p_log, 0.0, 1.0 * slack, 1.0),
        ("propensity_target", p_tgt, 0.0, 1.0 * slack, 1.0),
        ("reward", rewards, -reward_bound * slack, reward_bound * slack, reward_bound),
    )
    for name, arr, lo, hi, bound in checks:
        bad = (arr < lo) | (arr > hi)
        if bad.any():
            i, j = _first_bad(bad)
            value = float(arr[i] if j is None else arr[i, j])
            raise BoundViolation(name, i, value, bound, position=j)

    weights = p_tgt / p_log
    bad = weights > weight_bound * slack
    if bad.any():
        i, j = _first_bad(bad)
        value = float(weights[i] if j is None else weights[i, j])
        raise BoundViolation("weight", i, value, weight_bound, position=j)
    return weights


def _check_block(
    p_log: np.ndarray,
    p_tgt: np.ndarray,
    rewards: np.ndarray,
    reward_bound: float,
    weight_bound: float,
) -> np.ndarray:
    """:func:`_check_columns` on a block of replicates stacked along the first axis.

    The arrays are ``(replicates, n)`` for scalar logs or ``(replicates,
    positions, n)`` for ranked logs. The whole block is checked at once; on
    a violation the replicates are rechecked one by one, so the error names
    the entry exactly as checking the first failing replicate alone would.
    """
    flat = [arr.reshape(arr.shape[0], -1) for arr in (p_log, p_tgt, rewards)]
    try:
        return _check_columns(*flat, reward_bound, weight_bound).reshape(p_log.shape)
    except ValidationError:
        for row in range(p_log.shape[0]):
            _check_columns(p_log[row].T, p_tgt[row].T, rewards[row].T, reward_bound, weight_bound)
        raise


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Dataset:
    """Validated scalar logged feedback with derived importance weights."""

    propensity_logging: np.ndarray
    propensity_target: np.ndarray
    rewards: np.ndarray
    weights: np.ndarray
    reward_bound: float
    weight_bound: float
    context_ids: np.ndarray | None = None
    action_ids: np.ndarray | None = None

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
    ) -> "Dataset":
        p_log = _as_float_column(propensity_logging, "propensity_logging")
        p_tgt = _as_float_column(propensity_target, "propensity_target")
        rew = _as_float_column(rewards, "reward")
        if p_log.shape[0] == 0:
            raise EmptyDataset()
        if not (p_log.shape == p_tgt.shape == rew.shape):
            raise LengthMismatch(
                f"columns disagree in length: {p_log.shape[0]}, {p_tgt.shape[0]}, {rew.shape[0]}"
            )
        ids = []
        for raw, name in ((context_ids, "context_ids"), (action_ids, "action_ids")):
            if raw is None:
                ids.append(None)
                continue
            arr = np.asarray(raw)
            if arr.shape != p_log.shape:
                raise LengthMismatch(f"{name} has shape {arr.shape}, expected {p_log.shape}")
            ids.append(_freeze(arr))
        weights = _check_columns(p_log, p_tgt, rew, reward_bound, weight_bound)
        return cls(
            propensity_logging=_freeze(p_log),
            propensity_target=_freeze(p_tgt),
            rewards=_freeze(rew),
            weights=_freeze(weights),
            reward_bound=float(reward_bound),
            weight_bound=float(weight_bound),
            context_ids=ids[0],
            action_ids=ids[1],
        )

    @property
    def n(self) -> int:
        return int(self.rewards.shape[0])


@dataclass(frozen=True, eq=False)
class RankedDataset:
    """Validated ranked logged feedback, entries by positions."""

    propensity_logging: np.ndarray
    propensity_target: np.ndarray
    rewards: np.ndarray
    weights: np.ndarray
    reward_bound: float
    weight_bound: float
    context_ids: np.ndarray | None = None
    action_ids: np.ndarray | None = None

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
    ) -> "RankedDataset":
        p_log = np.asarray(propensity_logging, dtype=np.float64)
        p_tgt = np.asarray(propensity_target, dtype=np.float64)
        rew = np.asarray(rewards, dtype=np.float64)
        if p_log.ndim != 2:
            raise ValidationError(f"ranked columns must be two-dimensional, got shape {p_log.shape}")
        if p_log.shape[0] == 0 or p_log.shape[1] == 0:
            raise EmptyDataset("ranked dataset needs at least one entry and one position")
        if not (p_log.shape == p_tgt.shape == rew.shape):
            raise LengthMismatch(
                f"ranked columns disagree in shape: {p_log.shape}, {p_tgt.shape}, {rew.shape}"
            )
        ctx = None
        if context_ids is not None:
            ctx = np.asarray(context_ids)
            if ctx.shape != (p_log.shape[0],):
                raise LengthMismatch(
                    f"context_ids has shape {ctx.shape}, expected ({p_log.shape[0]},)"
                )
            ctx = _freeze(ctx)
        act = None
        if action_ids is not None:
            act = np.asarray(action_ids)
            if act.shape != p_log.shape:
                raise LengthMismatch(f"action_ids has shape {act.shape}, expected {p_log.shape}")
            act = _freeze(act)
        weights = _check_columns(p_log, p_tgt, rew, reward_bound, weight_bound)
        return cls(
            propensity_logging=_freeze(p_log),
            propensity_target=_freeze(p_tgt),
            rewards=_freeze(rew),
            weights=_freeze(weights),
            reward_bound=float(reward_bound),
            weight_bound=float(weight_bound),
            context_ids=ctx,
            action_ids=act,
        )

    @property
    def n(self) -> int:
        return int(self.rewards.shape[0])

    @property
    def k(self) -> int:
        return int(self.rewards.shape[1])

    def position(self, j: int) -> Dataset:
        """The scalar marginal dataset at position ``j`` (0-based)."""
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


def _is_triple(obj) -> bool:
    return isinstance(obj, Sequence) and not isinstance(obj, (str, bytes)) and len(obj) == 3


def validate_dataset(raw_entries: Iterable, reward_bound: float, weight_bound: float):
    """Validate raw log entries and return a :class:`Dataset` or :class:`RankedDataset`.

    Scalar entries may be :class:`LogEntry` instances or plain
    ``(p_log, p_tgt, reward)`` triples. Ranked entries may be
    :class:`RankedLogEntry` instances or sequences of such triples, one per
    position. The first entry fixes the kind; mixing kinds is an error.
    """
    entries = list(raw_entries)
    if not entries:
        raise EmptyDataset()
    first = entries[0]
    ranked = isinstance(first, RankedLogEntry) or (
        isinstance(first, Sequence) and not isinstance(first, (str, bytes)) and len(first) > 0 and _is_triple(first[0])
    )
    if ranked:
        return _validate_ranked(entries, reward_bound, weight_bound)
    return _validate_scalar(entries, reward_bound, weight_bound)


def _validate_scalar(entries: list, reward_bound: float, weight_bound: float) -> Dataset:
    p_log = np.empty(len(entries))
    p_tgt = np.empty(len(entries))
    rew = np.empty(len(entries))
    ctx: list | None = []
    act: list | None = []
    for i, entry in enumerate(entries):
        if isinstance(entry, LogEntry):
            p_log[i], p_tgt[i], rew[i] = (
                entry.propensity_logging,
                entry.propensity_target,
                entry.reward,
            )
            if ctx is not None:
                ctx.append(entry.context_id)
                act.append(entry.action_id)
        elif _is_triple(entry):
            p_log[i], p_tgt[i], rew[i] = (float(v) for v in entry)
            ctx = act = None
        else:
            raise ValidationError(
                f"entry {i} is neither a LogEntry nor a (p_log, p_tgt, reward) triple"
            )
    has_ids = ctx is not None and any(c is not None for c in ctx)
    return Dataset.from_arrays(
        p_log,
        p_tgt,
        rew,
        reward_bound=reward_bound,
        weight_bound=weight_bound,
        context_ids=ctx if has_ids else None,
        action_ids=act if has_ids else None,
    )


def _validate_ranked(entries: list, reward_bound: float, weight_bound: float) -> RankedDataset:
    def records(entry, i):
        if isinstance(entry, RankedLogEntry):
            return entry.positions
        if isinstance(entry, Sequence) and not isinstance(entry, (str, bytes)):
            return entry
        raise ValidationError(f"entry {i} is not a ranked log entry")

    k = len(records(entries[0], 0))
    if k == 0:
        raise EmptyDataset("ranked entries need at least one position")
    n = len(entries)
    p_log = np.empty((n, k))
    p_tgt = np.empty((n, k))
    rew = np.empty((n, k))
    ctx: list | None = []
    act: list | None = []
    for i, entry in enumerate(entries):
        recs = records(entry, i)
        if len(recs) != k:
            raise LengthMismatch(f"entry {i} has {len(recs)} positions, expected {k}")
        if isinstance(entry, RankedLogEntry):
            if ctx is not None:
                ctx.append(entry.context_id)
                act.append([rec.action_id for rec in recs])
            for j, rec in enumerate(recs):
                p_log[i, j] = rec.propensity_logging
                p_tgt[i, j] = rec.propensity_target
                rew[i, j] = rec.reward
        else:
            ctx = act = None
            for j, rec in enumerate(recs):
                if not _is_triple(rec):
                    raise ValidationError(
                        f"entry {i}, position {j + 1} is not a (p_log, p_tgt, reward) triple"
                    )
                p_log[i, j], p_tgt[i, j], rew[i, j] = (float(v) for v in rec)
    has_ids = ctx is not None and any(c is not None for c in ctx)
    return RankedDataset.from_arrays(
        p_log,
        p_tgt,
        rew,
        reward_bound=reward_bound,
        weight_bound=weight_bound,
        context_ids=ctx if has_ids else None,
        action_ids=act if has_ids else None,
    )
