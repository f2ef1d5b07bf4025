"""A scalar log is the one-position case: both ways into a dataset agree.

The same records are built as scalar data, as one-position ranked data and
as two-position ranked data, and each is read from a log file and built
from arrays, the two ways in. Clean data gives bit-equal columns and ids
on both paths; each entry fault gives the same error class, entry and
position on both paths, and the log file reader adds the line of the
entry.
"""

import json

import numpy as np
import pytest

from opekit import Dataset, RankedDataset, read_logs
from opekit.errors import BoundViolation, NonFiniteValue, NonPositiveLoggingPropensity

N = 5
REWARD_BOUND = 1.0
WEIGHT_BOUND = 10.0
COLUMNS = ("propensity_logging", "propensity_target", "rewards", "weights")

# Each fault, set at entry 3 in the second of two positions: the values it
# writes, the error it raises and the quantity that error names.
FAULTS = {
    "non-finite": ({"rewards": float("nan")}, NonFiniteValue, "reward"),
    "p_log <= 0": ({"propensity_logging": 0.0}, NonPositiveLoggingPropensity, None),
    "p_tgt > 1": ({"propensity_target": 1.5}, BoundViolation, "propensity_target"),
    "reward over bound": ({"rewards": 2.0}, BoundViolation, "reward"),
    "weight over bound": ({"propensity_logging": 0.05, "propensity_target": 0.9}, BoundViolation, "weight"),
}
FAULT_ENTRY = 3

# kind -> (positions taken from the two-position columns, expected error position)
KINDS = {"scalar": ([1], None), "ranked-1": ([1], 0), "ranked-2": ([0, 1], 1)}


def base_columns() -> dict:
    rng = np.random.default_rng(20260823)
    return {
        "propensity_logging": rng.uniform(0.2, 1.0, (N, 2)),
        "propensity_target": rng.uniform(0.0, 1.0, (N, 2)),
        "rewards": rng.uniform(-1.0, 1.0, (N, 2)),
        "contexts": np.arange(100, 100 + N),
        "actions": np.arange(2 * N).reshape(N, 2),
    }


def kind_columns(kind: str, fault: str | None) -> dict:
    """The columns of one kind: (N,) for scalar, (N, k) for ranked."""
    data = base_columns()
    if fault is not None:
        for column, value in FAULTS[fault][0].items():
            data[column][FAULT_ENTRY, 1] = value
    picked, _ = KINDS[kind]
    out = {name: data[name][:, picked] for name in ("propensity_logging", "propensity_target", "rewards", "actions")}
    if kind == "scalar":
        out = {name: column[:, 0] for name, column in out.items()}
    out["contexts"] = data["contexts"]
    return out


def rows(columns: dict):
    """Per entry: context, then (action, p_log, p_tgt, reward) per position."""
    names = ("actions", "propensity_logging", "propensity_target", "rewards")
    per_position = [np.atleast_2d(columns[name].T).T.tolist() for name in names]
    for i, context in enumerate(columns["contexts"].tolist()):
        yield context, list(zip(*(values[i] for values in per_position)))


def via_file(kind, columns, tmp_path):
    path = tmp_path / f"{kind}.jsonl"
    lines = [json.dumps({"_meta": {"reward_bound": REWARD_BOUND, "weight_bound": WEIGHT_BOUND}}), ""]
    for context, positions in rows(columns):
        fields = [{"action": a, "p_log": p, "p_tgt": t, "reward": r} for a, p, t, r in positions]
        record = {"context": context, **fields[0]} if kind == "scalar" else {"context": context, "positions": fields}
        lines.append(json.dumps(record))
    path.write_text("\n".join(lines) + "\n")
    return read_logs(path)


def via_arrays(kind, columns, tmp_path):
    cls = Dataset if kind == "scalar" else RankedDataset
    return cls.from_arrays(
        columns["propensity_logging"],
        columns["propensity_target"],
        columns["rewards"],
        reward_bound=REWARD_BOUND,
        weight_bound=WEIGHT_BOUND,
        context_ids=columns["contexts"],
        action_ids=columns["actions"],
    )


PATHS = {"read_logs": via_file, "from_arrays": via_arrays}


@pytest.mark.parametrize("kind", KINDS)
def test_clean_data_is_bit_equal_on_every_path(kind, tmp_path):
    datasets = {name: build(kind, kind_columns(kind, None), tmp_path) for name, build in PATHS.items()}
    reference = datasets["from_arrays"]
    assert isinstance(reference, Dataset if kind == "scalar" else RankedDataset)
    assert reference.rewards.shape == ((N,) if kind == "scalar" else (N, len(KINDS[kind][0])))
    for name, dataset in datasets.items():
        assert type(dataset) is type(reference), name
        for column in COLUMNS:
            got, want = getattr(dataset, column), getattr(reference, column)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), (name, column)
        for ids in ("context_ids", "action_ids"):
            got, want = getattr(dataset, ids), getattr(reference, ids)
            assert (got.dtype, got.shape, got.tolist()) == (want.dtype, want.shape, want.tolist()), (name, ids)


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("kind", KINDS)
def test_entry_faults_agree_on_every_path(kind, fault, tmp_path):
    _, error, quantity = FAULTS[fault]
    position = KINDS[kind][1]
    for name, build in PATHS.items():
        with pytest.raises(error) as info:
            build(kind, kind_columns(kind, fault), tmp_path)
        exc = info.value
        assert type(exc) is error, name
        assert (exc.index, exc.position) == (FAULT_ENTRY, position), name
        if quantity is not None:
            assert exc.quantity == quantity, name
        # The header and one blank line precede the records.
        assert exc.line == (FAULT_ENTRY + 3 if name == "read_logs" else None), name
        where = f"line {exc.line}" if exc.line is not None else f"entry {FAULT_ENTRY}"
        if position is not None:
            where += f", position {position + 1}"
        assert str(exc).endswith(f"at {where}"), name
