"""Log files, result tables, and run manifests.

Log files are JSON Lines: an optional first line
``{"_meta": {"reward_bound": ..., "weight_bound": ...}}`` followed by one
record per line. Scalar records hold ``context``, ``action``, ``p_log``,
``p_tgt``, and ``reward``; ranked records hold ``context`` and a
``positions`` list of per-position objects with ``action``, ``p_log``,
``p_tgt``, and ``reward``. Floats are serialised with ``repr``, which
round-trips exactly, so write-then-read reproduces a dataset bit for bit.
Ids are written as ``json.dumps`` of their column's values, whose type
:func:`opekit.data._id_column` alone decides, so each id reads back with its
JSON type, except bools in a plain list with ints, which numpy reads as ints.
Files are read with universal newlines: ``"\\n"``, ``"\\r\\n"`` and a lone
``"\\r"`` each end a line, and nothing else does.

A scalar record is the one-position case: its own fields are its single
position. The writer and the reader therefore have one path for both
kinds. Logs are rendered and written one block of ``BLOCK_ENTRIES`` (8192)
entries at a time, and each distinct record of a block is rendered once:
each column of those records becomes one list of strings, one format
string assembles their lines, and the block's lines are gathered from
them in entry order. A log drawn from finite policy tables repeats a few
records throughout, so it is mostly gathered rather than rendered. A
block with a number column whose values are all distinct, which a sort of
that column shows, is rendered as it is, so a log with continuous
propensities costs one sort per block more than rendering every record.
The bytes equal one ``json.dumps`` per
record with compact separators, and the working memory of a write is
bounded by the block, not by the number of records.

The reader streams a file a block of lines at a time, never holding its
whole text, and reads it in two ways that give the same flat columns. The
blocks of ``BLOCK_ENTRIES // k`` lines at its start that are laid out
exactly as the writer writes them are each matched by one regular
expression built from the writer's record format. Each distinct line of
a block is matched and converted once and its copies take its values,
so the lines of a log drawn from finite policy tables, which repeat
throughout, are mostly looked up rather than parsed. That layout is an
optional ``_meta`` line 1, then one record per line, all of one kind and
one k, with the writer's key order and no whitespace. Its ids are integers
of at most 17 digits, ``null`` or strings without escapes or control
characters, and its numbers are JSON numbers with at most 17 integer
digits, for which ``float`` of the text gives what ``json`` gives. From
the first block that does not match (a blank line, spaces, other key
orders, escaped strings, ``true``/``false`` or float ids, longer integers,
a bare ``-0``, a last line without its newline), the rest of the file is
read one line at a time with ``json.loads``. A scalar record is its own
single position either way, and one constructor call validates the
columns, so both ways share every check, error, message and line number.

Result tables are CSV with columns
``estimator,n,mean,bias,variance,mse,se``, floats formatted with %.17g
and lines terminated with a bare newline. Reruns of the same study
therefore produce byte-identical files.

Every run writes a manifest. Its fingerprint hashes the fields that
determine the output bytes (tool version, config hash, master seed,
environment label, numpy version); ``created_at`` and the Python version
are recorded for the record but excluded, so two manifests with equal
fingerprints denote byte-identical data files. JSON reports are strict: a
number that is not finite is written as null and its place is listed
under ``non_finite``.
"""

from __future__ import annotations

import codecs
import csv
import datetime
import hashlib
import io as _stringio
import itertools
import json
import math
import os
import platform
import re
import sys
from array import array
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__ as TOOL_VERSION
from .analysis import hoeffding_tail_bound
from .data import RankedDataset, _from_positions, _integer
from .errors import EmptyDataset, MissingBounds, ParseError, ValidationError

#: Entries per block of a log file, as the writer renders it and the reader
#: parses it. Larger blocks save little time and cost resident memory.
BLOCK_ENTRIES = 8192

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
        return canonical_hash({name: getattr(self, name) for name in self.STABLE_FIELDS})

    def to_dict(self) -> dict:
        return {**asdict(self), "fingerprint": self.fingerprint()}


def canonical_hash(payload) -> str:
    """SHA-256 of the canonical JSON encoding (sorted keys, no whitespace)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build_manifest(config_hash: str, master_seed: int, environment: str) -> RunManifest:
    return RunManifest(
        tool_version=TOOL_VERSION,
        config_hash=config_hash,
        master_seed=_integer(master_seed, "master seed"),
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


def _id_strings(ids):
    """JSON texts of a block of ids, exactly as ``json.dumps`` writes each one."""
    if ids is None:
        return itertools.repeat("null")  # zip stops at the end of the float columns
    if ids.dtype.kind in "iu":
        return map(str, ids.tolist())
    return list(map(json.dumps, ids.tolist()))


def _float_strings(column):
    # json.dumps writes a finite float as float.__repr__; validated columns are finite.
    return map(float.__repr__, column.tolist())


_POSITION = '"action":%s,"p_log":%s,"p_tgt":%s,"reward":%s'
_META = '{"_meta":{"reward_bound":%s,"weight_bound":%s}}\n'


def _record_format(ranked: bool, k: int) -> str:
    """The %-format of one record line: the context id, then id and three numbers per position."""
    if ranked:
        return '{"context":%s,"positions":[' + ",".join(["{" + _POSITION + "}"] * k) + "]}\n"
    return '{"context":%s,' + _POSITION + "}\n"


def _distinct_records(contexts, actions, p_log, p_tgt, rewards):
    """The first row of each distinct record of a block, and each row's distinct record; None if none repeats.

    Ids are ``None`` or columns of the block, of one id per entry and one
    per position, and the numbers are ``(entries, k)`` columns. Rows are
    keyed by the bit patterns of their numbers and integer ids, so two rows
    share a key only if they render to the same text: ``0.0`` and ``-0.0``
    stay apart. None also when a record cannot repeat, because one number
    column holds no repeated value at the first position (a sort of one
    column, which keeps an all-distinct block cheap), or cannot be keyed,
    because its ids are not integers.
    """
    ids = [column for column in (contexts, actions) if column is not None]
    if any(column.dtype.kind not in "iu" for column in ids):
        return None
    for column in (p_log, p_tgt, rewards):
        values = np.sort(column[:, 0])
        if not (values[1:] == values[:-1]).any():
            return None
    parts = [column.astype(column.dtype.kind + "8", copy=False).reshape(len(p_log), -1) for column in ids]
    key = np.concatenate([part.view(np.uint64) for part in (*parts, p_log, p_tgt, rewards)], axis=1)
    # A stable sort, so each record's first row leads its run. np.unique would do
    # the same, but its first call imports numpy.ma: 1.4 MB more peak memory in simulate.
    order = np.lexsort(key.T)
    ordered = key[order]
    starts = np.concatenate(([True], (ordered[1:] != ordered[:-1]).any(axis=1)))
    if starts.all():
        return None
    inverse = np.empty(len(key), np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


def _log_chunks(dataset):
    """Yield a dataset's JSON Lines text: the bounds header, then one block of entries at a time.

    A block holds ``BLOCK_ENTRIES // k`` records of k positions (k = 1 for
    scalar logs). Each distinct record of a block is rendered once: each
    column of those records becomes one list of strings, one format string
    assembles the lines, and a block with repeated records then gathers its
    lines into entry order. The text equals one ``json.dumps`` per record
    with compact separators. A block whose records cannot repeat, known from
    a sort of one number column, is rendered as it is, without a gather.
    """
    yield _META % (json.dumps(float(dataset.reward_bound)), json.dumps(float(dataset.weight_bound)))
    n = dataset.n
    ranked = isinstance(dataset, RankedDataset)
    k = dataset.k if ranked else 1
    fmt = _record_format(ranked, k)
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
        block = [None if ids is None else ids[rows] for ids in (contexts, actions)] + [c[rows] for c in floats]
        distinct = _distinct_records(*block)
        if distinct is not None:
            block = [None if column is None else column[distinct[0]] for column in block]
        block_contexts, block_actions, *numbers = block
        columns = [_id_strings(block_contexts)]
        for j in range(k):
            columns.append(_id_strings(None if block_actions is None else block_actions[:, j]))
            columns.extend(_float_strings(column[:, j]) for column in numbers)
        if distinct is None:
            yield "".join(map(fmt.__mod__, zip(*columns)))
        else:
            lines = list(map(fmt.__mod__, zip(*columns)))
            yield "".join(map(lines.__getitem__, distinct[1].tolist()))


def logs_text(dataset) -> str:
    """Serialise a dataset to JSON Lines with a bounds header."""
    return "".join(_log_chunks(dataset))


def write_logs(dataset, path) -> None:
    """Write a dataset's JSON Lines file atomically, rendering one block at a time.

    Each distinct record of a block is rendered once and its copies take
    its line, so the bytes equal one ``json.dumps`` per record. A log with
    continuous propensities costs one sort of one column per block more
    than rendering every record.
    """
    atomic_write(path, _log_chunks(dataset))


def _number(obj: dict, key: str, lineno: int) -> float:
    if key not in obj:
        raise ParseError(lineno, f"missing field {key!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(lineno, f"field {key!r} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ParseError(lineno, f"field {key!r} is too large for a float") from None


# JSON texts the block scan converts itself. An integer part has at most 17
# digits, so float() of a number's text equals float() of the int json makes of
# it; longer integers can overflow a float or pass the interpreter's digit limit,
# and their lines go to json. So does a bare -0 number: json reads it as the
# integer 0, float("-0") is -0.0. Every float.__repr__ text matches _NUMBER.
_INT = r"-?(?:0|[1-9][0-9]{0,16})"
_NUMBER = r"(?!-0[,}])" + _INT + r"(?:\.[0-9]{1,25})?(?:[eE][-+]?[0-9]{1,3})?"
# Ids: such integers, null, or strings with neither escapes nor the control
# characters strict JSON forbids, whose value is the text between the quotes.
_ID = _INT + r'|null|"[^"\\\x00-\x1f]*"'


@dataclass
class _Scan:
    """What the scans of a log file have read so far, before validation."""

    meta: tuple = (None, None)  # reward and weight bound of the _meta header
    kind: str | None = None  # "scalar" or "ranked", set by the first record
    k: int | None = None
    # p_log, p_tgt and reward of every position, entry by entry
    columns: tuple = field(default_factory=lambda: (array("d"), array("d"), array("d")))
    contexts: list = field(default_factory=list)
    actions: list = field(default_factory=list)  # one per position, entry by entry
    lines: array = field(default_factory=lambda: array("q"))  # the 1-based line of each entry


def _line_pattern(fmt: str, fields) -> re.Pattern:
    """A multiline pattern of whole lines of ``fmt``, each ``%s`` a group matching the next field."""
    literals = [re.escape(literal) for literal in fmt.split("%s")]
    groups = [f"({field})" for field in fields] + [""]
    return re.compile("^" + "".join(literal + group for literal, group in zip(literals, groups)), re.M)


def _id_values(texts) -> list:
    """The values json gives the id texts that match ``_ID``."""
    try:
        return list(map(int, texts))
    except ValueError:
        return [None if t == "null" else t[1:-1] if t[0] == '"' else int(t) for t in texts]


def _entry_major(groups) -> tuple | list:
    """The texts of k per-position groups, entry by entry and then position by position; one group as it is."""
    return groups[0] if len(groups) == 1 else list(itertools.chain.from_iterable(zip(*groups)))


def _scan_blocks(lines, scan: _Scan) -> tuple[list, int]:
    """Read the start of a log that is laid out exactly as :func:`_log_chunks` writes it.

    That is an optional ``_meta`` line 1, then whole blocks of
    ``BLOCK_ENTRIES // k`` lines that are each a record of one kind and k,
    ending in ``"\\n"``, with the writer's key order, no whitespace and the
    ids and numbers ``_ID`` and ``_NUMBER`` accept. Each block is taken from
    the iterator ``lines``; its distinct lines are matched with one
    ``findall`` and converted once, and a block with repeated lines then
    gathers each line's values from its distinct line. The first block with
    a line that does not match ends the scan. Returns the lines read but
    not taken and the line number of the first; :func:`_scan_lines` goes on.
    """
    line, first = 1, next(lines, "")
    header = _line_pattern(_META, (_NUMBER, _NUMBER)).match(first)
    if header:
        scan.meta = (float(header[1]), float(header[2]))
        line, first = 2, next(lines, "")
    # Matched ids hold no quotes, so these keys occur only as keys in a record that matches.
    kind = "ranked" if '"positions":' in first else "scalar"
    k = first.count('"p_log":')
    if not k:
        return [first], line
    records = _line_pattern(_record_format(kind == "ranked", k), (_ID,) + (_ID, _NUMBER, _NUMBER, _NUMBER) * k)
    size = max(1, BLOCK_ENTRIES // k)
    block = [first, *itertools.islice(lines, size - 1)]
    while block:
        distinct = dict.fromkeys(block)
        rows = records.findall("".join(distinct))
        if len(rows) != len(distinct):  # a line that does not match, or a last line without its newline
            break
        fields = list(zip(*rows))
        ids = [_id_values(fields[0]), _id_values(_entry_major(fields[1::4]))]
        numbers = [array("d", map(float, _entry_major(fields[group::4]))) for group in (2, 3, 4)]
        if len(distinct) < len(block):  # gather each line's values from those of its distinct line
            entry = np.fromiter(map(dict(zip(distinct, itertools.count())).__getitem__, block), np.intp, len(block))
            position = (entry[:, None] * k + np.arange(k)).ravel()
            ids = [np.array(values, dtype=object)[taken].tolist() for values, taken in zip(ids, (entry, position))]
            numbers = [np.frombuffer(values)[position] for values in numbers]
        scan.contexts += ids[0]
        scan.actions += ids[1]
        for column, values in zip(scan.columns, numbers):
            column.frombytes(values.tobytes())
        scan.lines.extend(range(line, line + len(block)))
        block, line = list(itertools.islice(lines, size)), line + len(block)
    if scan.lines:
        scan.kind, scan.k = kind, k
    return block, line


def _scan_lines(lines, first_line: int, scan: _Scan) -> _Scan:
    """Read log lines one at a time with ``json.loads``, continuing ``scan``; ``lines`` starts at ``first_line``."""
    meta_reward, meta_weight = scan.meta
    kind, k = scan.kind, scan.k
    p_log, p_tgt, rewards = scan.columns
    contexts, actions, entry_lines = scan.contexts, scan.actions, scan.lines
    for lineno, raw in enumerate(lines, start=first_line):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(lineno, f"invalid JSON: {exc.msg}") from None
        except ValueError:  # int() refused an integer text over the interpreter's digit limit
            raise ParseError(lineno, f"integer longer than {sys.get_int_max_str_digits()} digits") from None
        except RecursionError:
            raise ParseError(lineno, "JSON nested too deeply") from None
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
            positions = (obj,)
        else:
            positions = obj["positions"]
            if not isinstance(positions, list) or not positions:
                raise ParseError(lineno, "positions must be a non-empty list")
        if k is None:
            k = len(positions)
        elif len(positions) != k:
            raise ParseError(lineno, f"record has {len(positions)} positions, expected {k}")
        for pos in positions:
            if not isinstance(pos, dict):
                raise ParseError(lineno, "each position must be an object")
            p_log.append(_number(pos, "p_log", lineno))
            p_tgt.append(_number(pos, "p_tgt", lineno))
            rewards.append(_number(pos, "reward", lineno))
            actions.append(pos.get("action"))
        contexts.append(obj.get("context"))
        entry_lines.append(lineno)
    scan.meta, scan.kind, scan.k = (meta_reward, meta_weight), kind, k
    return scan


def _scan_stream(stream) -> _Scan:
    """Read a log from a text stream: the blocks at its start in the writer's layout by pattern, the rest line by line."""
    scan = _Scan()
    rest, line = _scan_blocks(stream, scan)
    return _scan_lines(itertools.chain(rest, stream), line, scan)


def _not_utf8(path, exc: UnicodeDecodeError) -> ValidationError:
    """The error for a file that is not UTF-8, at the file offset of its first bad byte, found by decoding it again."""
    decoder, offset = codecs.getincrementaldecoder("utf-8")(), 0
    with open(path, "rb") as handle:  # a text stream's exc.start counts from its own decode chunk
        for chunk in itertools.chain(iter(lambda: handle.read(_stringio.DEFAULT_BUFFER_SIZE), b""), [b""]):
            start = offset - len(decoder.getstate()[0])  # a sequence cut at the last chunk's end starts there
            try:
                decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as found:
                exc, offset = found, start
                break
            offset += len(chunk)
    return ValidationError(f"{path} is not UTF-8 text: {exc.reason} at byte {offset + exc.start}")


def read_logs(path, reward_bound: float | None = None, weight_bound: float | None = None):
    """Parse and validate a JSON Lines log file.

    Bounds given as arguments override the file's ``_meta`` header; one of
    the two sources must provide both. Returns a :class:`Dataset` or a
    :class:`RankedDataset` depending on the records found. The file must be
    UTF-8 and is read with universal newlines, so ``"\\n"``, ``"\\r\\n"``
    and a lone ``"\\r"`` each end a line; errors reference 1-based line
    numbers.

    The file is streamed and never held whole. The blocks of lines at its
    start that are laid out exactly as :func:`write_logs` writes them are
    read a block at a time by one pattern, which matches each distinct line
    of a block once, and the rest of the file, all of it for other
    layouts, one line at a time with ``json.loads``.
    Both give the same flat columns, with a scalar record as its own single
    position, and one constructor call then validates them, so an entry
    error names the line of its entry whichever way it was read.
    """
    try:
        with open(Path(path), encoding="utf-8") as stream:
            try:
                scan = _scan_stream(stream)
            except ParseError:
                for _ in stream:  # bytes that are not UTF-8 are reported first, wherever they are
                    pass
                raise
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    if scan.kind is None:
        raise EmptyDataset(f"no records in {path}")
    final_reward = reward_bound if reward_bound is not None else scan.meta[0]
    final_weight = weight_bound if weight_bound is not None else scan.meta[1]
    if final_reward is None or final_weight is None:
        raise MissingBounds()
    return _from_positions(
        scan.kind == "ranked",
        len(scan.lines),
        scan.k,
        scan.columns,
        final_reward,
        final_weight,
        None if None in scan.contexts else scan.contexts,
        None if None in scan.actions else scan.actions,
        lines=scan.lines,
    )


def format_float(value: float) -> str:
    return "%.17g" % float(value)


def csv_text(rows) -> str:
    """Render study rows as a deterministic CSV table."""
    buffer = _stringio.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows_list(rows):
        writer.writerow([row["estimator"], str(row["n"]), *(format_float(row[c]) for c in CSV_COLUMNS[2:])])
    return buffer.getvalue()


def write_csv(rows, path) -> None:
    atomic_write(path, (csv_text(rows),))


def _finite_or_null(value, where: str, found: list):
    """``value`` with each float that is not finite replaced by ``None`` and its place appended to ``found``."""
    if isinstance(value, dict):
        return {key: _finite_or_null(item, f"{where}.{key}" if where else key, found) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item, f"{where}[{i}]", found) for i, item in enumerate(value)]
    if isinstance(value, float) and not math.isfinite(value):
        found.append(where)
        return None
    return value


def json_text(payload: dict) -> str:
    """A report as strict JSON: a number that is not finite is written as null, and a ``non_finite`` note names it."""
    found: list[str] = []
    payload = _finite_or_null(payload, "", found)
    if found:
        payload["non_finite"] = found
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def write_json(payload: dict, path) -> None:
    atomic_write(path, (json_text(payload) + "\n",))


#: A :class:`~opekit.estimators.MomentSummary` as a JSON object keyed by its
#: field names; ``bench/checks.py`` compares ``evaluate`` reports with it.
moments_dict = asdict


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
                "moments": None if target.moments is None else asdict(target.moments),
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


def study_payload(kind: str, study, manifest: RunManifest, extra: dict) -> dict:
    """Assemble the JSON report for a study run."""
    config = study.config
    payload = {
        "study": kind,
        "scenario": config.scenario_label,
        "n_grid": list(config.n_grid),
        "replicates": config.replicates,
        "master_seed": config.master_seed,
        "estimators": list(study.estimators),
        "folds": config.folds,
        "oracle": oracle_dict(study.oracle),
        "rows": rows_list(study.rows),
        "failures": [asdict(failure) for failure in study.failures],
        # P(mean weight < 1/2) ceiling per sample size.
        "half_mass_tail_bound": {str(n): hoeffding_tail_bound(n, study.weight_bound) for n in config.n_grid},
        "manifest": manifest.to_dict(),
    }
    payload.update(extra)
    return payload

