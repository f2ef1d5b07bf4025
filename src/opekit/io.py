"""Log files, result tables, and run manifests.

Log files are JSON Lines: an optional first line
``{"_meta": {"reward_bound": ..., "weight_bound": ...}}`` followed by one
record per line. Scalar records hold ``context``, ``action``, ``p_log``,
``p_tgt``, and ``reward``; ranked records hold ``context`` and a
``positions`` list of per-position objects with ``action``, ``p_log``,
``p_tgt``, and ``reward``. Floats are serialised with ``repr``, which
round-trips exactly, so write-then-read reproduces a dataset bit for bit.

Logs are rendered and written one block of ``BLOCK_ENTRIES`` (8192)
entries at a time: each column of a block becomes one list of strings and
one format string assembles the records. The bytes equal one
``json.dumps`` per record with compact separators, and the working memory
of a write is bounded by the block, not by the number of records.

Result tables are CSV with columns
``estimator,n,mean,bias,variance,mse,se``, floats formatted with %.17g
and lines terminated with a bare newline. Reruns of the same study
therefore produce byte-identical files.

Every run writes a manifest. Its fingerprint hashes the fields that
determine the output bytes (tool version, config hash, master seed,
environment label, numpy version); ``created_at`` and the Python version
are recorded for the record but excluded, so two manifests with equal
fingerprints denote byte-identical data files.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import io as _stringio
import itertools
import json
import os
import platform
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .analysis import hoeffding_tail_bound
from .data import BLOCK_ENTRIES, Dataset, RankedDataset
from .errors import (
    BoundViolation,
    EmptyDataset,
    MissingBounds,
    NonFiniteValue,
    NonPositiveLoggingPropensity,
    ParseError,
)

TOOL_VERSION = "0.1.0"

CSV_COLUMNS = ("estimator", "n", "mean", "bias", "variance", "mse", "se")


@dataclass(frozen=True)
class RunManifest:
    """Provenance record for one output-producing run."""

    tool_version: str
    config_hash: str
    master_seed: int
    environment: str
    numpy_version: str
    python_version: str
    created_at: str

    STABLE_FIELDS = ("tool_version", "config_hash", "master_seed", "environment", "numpy_version")

    def fingerprint(self) -> str:
        """Hash of the fields that determine the output bytes."""
        payload = json.dumps(
            {name: getattr(self, name) for name in self.STABLE_FIELDS},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_dict(self) -> dict:
        return {**asdict(self), "fingerprint": self.fingerprint()}


def build_manifest(config_hash: str, master_seed: int, environment: str) -> RunManifest:
    return RunManifest(
        tool_version=TOOL_VERSION,
        config_hash=config_hash,
        master_seed=int(master_seed),
        environment=environment,
        numpy_version=np.__version__,
        python_version=platform.python_version(),
        created_at=datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    )


def atomic_write(path, chunks) -> None:
    """Write text chunks to a temporary sibling and rename it over ``path``.

    Readers never see a partial file. If writing fails, the temporary file
    is removed, the error propagates and ``path`` keeps its old content.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f"{target.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write one string atomically, as :func:`atomic_write` does."""
    atomic_write(path, (text,))


def _jsonable_id(value):
    if value is None or isinstance(value, (str, bool)):
        return value
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return str(value)


def _id_strings(ids):
    """JSON texts of a block of ids, exactly as ``json.dumps`` writes each one."""
    if ids is None:
        return itertools.repeat("null")  # zip stops at the end of the float columns
    if ids.dtype.kind in "iu":
        return map(str, ids.tolist())
    return [json.dumps(_jsonable_id(value)) for value in ids]


def _float_strings(column):
    # json.dumps writes a finite float as float.__repr__; validated columns are finite.
    return map(float.__repr__, column.tolist())


_POSITION = '"action":%s,"p_log":%s,"p_tgt":%s,"reward":%s'


def _log_chunks(dataset):
    """Yield a dataset's JSON Lines text: the bounds header, then one block of entries at a time.

    A block holds ``BLOCK_ENTRIES // k`` records of k positions (k = 1 for
    scalar logs). Each column of a block is rendered as one list of strings
    and the records are assembled with one format string, so the text equals
    one ``json.dumps`` per record with compact separators.
    """
    meta = {
        "_meta": {
            "reward_bound": float(dataset.reward_bound),
            "weight_bound": float(dataset.weight_bound),
        }
    }
    yield json.dumps(meta, separators=(",", ":")) + "\n"
    n = dataset.n
    if isinstance(dataset, RankedDataset):
        k = dataset.k
        fmt = '{"context":%s,"positions":[' + ",".join(["{" + _POSITION + "}"] * k) + "]}\n"
    else:
        k = 1
        fmt = '{"context":%s,' + _POSITION + "}\n"
    # Scalar columns are viewed as one position, so both kinds render alike.
    contexts = dataset.context_ids
    actions = None if dataset.action_ids is None else dataset.action_ids.reshape(n, k)
    floats = [
        column.reshape(n, k)
        for column in (dataset.propensity_logging, dataset.propensity_target, dataset.rewards)
    ]
    step = max(1, BLOCK_ENTRIES // k)
    for start in range(0, n, step):
        rows = slice(start, start + step)
        columns = [_id_strings(None if contexts is None else contexts[rows])]
        for j in range(k):
            columns.append(_id_strings(None if actions is None else actions[rows, j]))
            columns.extend(_float_strings(column[rows, j]) for column in floats)
        yield "".join(map(fmt.__mod__, zip(*columns)))


def logs_text(dataset) -> str:
    """Serialise a dataset to JSON Lines with a bounds header."""
    return "".join(_log_chunks(dataset))


def write_logs(dataset, path) -> None:
    """Write a dataset's JSON Lines file atomically, rendering one block at a time."""
    atomic_write(path, _log_chunks(dataset))


def _number(obj: dict, key: str, lineno: int) -> float:
    if key not in obj:
        raise ParseError(lineno, f"missing field {key!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(lineno, f"field {key!r} must be a number, got {value!r}")
    return float(value)


def _reraise_with_lines(exc, entry_lines: list[int]):
    line = entry_lines[exc.index]
    if isinstance(exc, NonPositiveLoggingPropensity):
        fresh = NonPositiveLoggingPropensity(exc.index, exc.value, line=line)
        fresh.position = exc.position
    elif isinstance(exc, BoundViolation):
        fresh = BoundViolation(
            exc.quantity, exc.index, exc.value, exc.bound, position=exc.position, line=line
        )
    else:
        fresh = NonFiniteValue(exc.quantity, exc.index, position=exc.position, line=line)
    raise fresh from None


def read_logs(path, reward_bound: float | None = None, weight_bound: float | None = None):
    """Parse and validate a JSON Lines log file.

    Bounds given as arguments override the file's ``_meta`` header; one of
    the two sources must provide both. Returns a :class:`Dataset` or a
    :class:`RankedDataset` depending on the records found. Errors
    reference 1-based line numbers.
    """
    text = Path(path).read_text(encoding="utf-8")
    meta_reward: float | None = None
    meta_weight: float | None = None
    kind: str | None = None
    entry_lines: list[int] = []
    columns: list[tuple] = []
    contexts: list = []
    actions: list = []
    k: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(lineno, f"invalid JSON: {exc.msg}") from None
        if not isinstance(obj, dict):
            raise ParseError(lineno, "expected a JSON object")
        if "_meta" in obj:
            if entry_lines or meta_reward is not None or meta_weight is not None:
                raise ParseError(lineno, "_meta must appear once, before any record")
            meta = obj["_meta"]
            if not isinstance(meta, dict):
                raise ParseError(lineno, "_meta must be an object")
            meta_reward = _number(meta, "reward_bound", lineno)
            meta_weight = _number(meta, "weight_bound", lineno)
            continue
        this_kind = "ranked" if "positions" in obj else "scalar"
        if kind is None:
            kind = this_kind
        elif kind != this_kind:
            raise ParseError(lineno, f"{this_kind} record in a {kind} file")
        if this_kind == "scalar":
            columns.append(
                (
                    _number(obj, "p_log", lineno),
                    _number(obj, "p_tgt", lineno),
                    _number(obj, "reward", lineno),
                )
            )
            contexts.append(obj.get("context"))
            actions.append(obj.get("action"))
        else:
            positions = obj["positions"]
            if not isinstance(positions, list) or not positions:
                raise ParseError(lineno, "positions must be a non-empty list")
            if k is None:
                k = len(positions)
            elif len(positions) != k:
                raise ParseError(lineno, f"record has {len(positions)} positions, expected {k}")
            row = []
            row_actions = []
            for pos in positions:
                if not isinstance(pos, dict):
                    raise ParseError(lineno, "each position must be an object")
                row.append(
                    (
                        _number(pos, "p_log", lineno),
                        _number(pos, "p_tgt", lineno),
                        _number(pos, "reward", lineno),
                    )
                )
                row_actions.append(pos.get("action"))
            columns.append(tuple(row))
            contexts.append(obj.get("context"))
            actions.append(row_actions)
        entry_lines.append(lineno)
    if kind is None:
        raise EmptyDataset(f"no records in {path}")
    final_reward = reward_bound if reward_bound is not None else meta_reward
    final_weight = weight_bound if weight_bound is not None else meta_weight
    if final_reward is None or final_weight is None:
        raise MissingBounds()

    has_context = all(c is not None for c in contexts)
    if kind == "scalar":
        has_action = all(a is not None for a in actions)
        p_log = [c[0] for c in columns]
        p_tgt = [c[1] for c in columns]
        rewards = [c[2] for c in columns]
        try:
            return Dataset.from_arrays(
                p_log,
                p_tgt,
                rewards,
                reward_bound=final_reward,
                weight_bound=final_weight,
                context_ids=contexts if has_context else None,
                action_ids=actions if has_action else None,
            )
        except (NonPositiveLoggingPropensity, BoundViolation, NonFiniteValue) as exc:
            _reraise_with_lines(exc, entry_lines)
    has_action = all(a is not None for row in actions for a in row)
    p_log = [[pos[0] for pos in row] for row in columns]
    p_tgt = [[pos[1] for pos in row] for row in columns]
    rewards = [[pos[2] for pos in row] for row in columns]
    try:
        return RankedDataset.from_arrays(
            p_log,
            p_tgt,
            rewards,
            reward_bound=final_reward,
            weight_bound=final_weight,
            context_ids=contexts if has_context else None,
            action_ids=actions if has_action else None,
        )
    except (NonPositiveLoggingPropensity, BoundViolation, NonFiniteValue) as exc:
        _reraise_with_lines(exc, entry_lines)


def format_float(value: float) -> str:
    return "%.17g" % float(value)


def csv_text(rows) -> str:
    """Render study rows as a deterministic CSV table."""
    buffer = _stringio.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                row.estimator,
                str(row.n),
                format_float(row.mean_estimate),
                format_float(row.bias),
                format_float(row.variance),
                format_float(row.mse),
                format_float(row.std_error),
            ]
        )
    return buffer.getvalue()


def write_csv(rows, path) -> None:
    atomic_write(path, (csv_text(rows),))


def write_json(payload: dict, path) -> None:
    atomic_write(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n",))


def moments_dict(moments) -> dict:
    return {
        "mean_w": moments.mean_w,
        "mean_wr": moments.mean_wr,
        "var_w": moments.var_w,
        "var_wr": moments.var_wr,
        "cov_w_wr": moments.cov_w_wr,
        "n": moments.n,
    }


def oracle_dict(report) -> dict:
    targets = []
    for target in report.targets:
        targets.append(
            {
                "label": target.label,
                "value": target.value,
                "beta_star": target.beta_star,
                "avar_snips_per_sample": target.avar_snips,
                "var_beta_star_per_sample": target.var_beta_star,
                "delta_per_sample": target.delta_per_sample,
                "moments": None if target.moments is None else moments_dict(target.moments),
            }
        )
    return {"targets": targets}


def rows_list(rows) -> list[dict]:
    return [
        {
            "estimator": row.estimator,
            "n": row.n,
            "mean": row.mean_estimate,
            "bias": row.bias,
            "variance": row.variance,
            "mse": row.mse,
            "se": row.std_error,
            "oracle_value": row.oracle_value,
            "n_used": row.n_used,
            "n_failed": row.n_failed,
        }
        for row in rows
    ]


def failures_list(failures) -> list[dict]:
    return [
        {"metric": f.metric, "replicate": f.replicate, "error": f.error} for f in failures
    ]


def study_payload(kind: str, study, manifest: RunManifest, extra: dict) -> dict:
    """Assemble the JSON report for a study run."""
    payload = {
        "study": kind,
        "scenario": study.scenario_label,
        "n_grid": list(study.n_grid),
        "replicates": study.replicates,
        "master_seed": study.master_seed,
        "estimators": list(study.estimators),
        "folds": study.folds,
        "oracle": oracle_dict(study.oracle),
        "rows": rows_list(study.rows),
        "failures": failures_list(study.failures),
        # P(mean weight < 1/2) ceiling per sample size.
        "half_mass_tail_bound": {str(n): hoeffding_tail_bound(n, study.weight_bound) for n in study.n_grid},
        "manifest": manifest.to_dict(),
    }
    payload.update(extra)
    return payload

