"""Log file round trips, result tables, and run manifests."""

import dataclasses
import io
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import opekit.data
import opekit.io
from opekit import (
    Dataset,
    RankedDataset,
    RunManifest,
    StudyConfig,
    build_manifest,
    get_scenario,
    read_logs,
    run_mc_study,
    sample_logs,
    sample_ranked_logs,
    write_logs,
)
from opekit.analysis import hoeffding_tail_bound
from opekit.errors import (
    BoundViolation,
    EmptyDataset,
    MissingBounds,
    NonPositiveLoggingPropensity,
    ParseError,
    ValidationError,
)
from opekit.experiments import StudyRow
from opekit.io import (
    BLOCK_ENTRIES,
    _record_format,
    _Scan,
    _scan_blocks,
    _scan_lines,
    _scan_stream,
    atomic_write,
    csv_text,
    format_float,
    logs_text,
    study_payload,
    write_json,
)


def flip2_sample(n=40, seed=3) -> Dataset:
    s = get_scenario("flip2")
    return sample_logs(s.env, s.logging_policy, s.target_policy, n, seed)


def read_line_by_line(path, **bounds):
    """``read_logs`` with the block scan turned off, so every line goes through ``json.loads``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(opekit.io, "_scan_blocks", lambda lines, scan: ([], 1))
        return read_logs(path, **bounds)


def block_scan_end(text) -> int:
    """The offset at which the block scan of ``text`` leaves the rest to the line reader."""
    stream = io.StringIO(text)
    rest, _ = _scan_blocks(stream, _Scan())
    return len(text) - len("".join(rest)) - len(stream.read())


def outcome(read, path):
    """What reading ``path`` gives: the dataset's type, columns, ids and bounds, or the error."""
    try:
        dataset = read(path)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    ids = [
        None if ids is None else (ids.dtype.str, ids.tolist())
        for ids in (dataset.context_ids, dataset.action_ids)
    ]
    columns = [
        getattr(dataset, name).tobytes()
        for name in ("propensity_logging", "propensity_target", "rewards", "weights")
    ]
    return type(dataset), dataset.rewards.shape, columns, ids, dataset.reward_bound, dataset.weight_bound


def assert_both_paths_agree(path):
    assert outcome(read_logs, path) == outcome(read_line_by_line, path)


class TestLogRoundTrip:
    def test_scalar(self, tmp_path):
        original = flip2_sample()
        path = tmp_path / "logs.jsonl"
        write_logs(original, path)
        loaded = read_logs(path)
        assert isinstance(loaded, Dataset)
        for column in ("propensity_logging", "propensity_target", "rewards", "weights"):
            assert np.array_equal(getattr(loaded, column), getattr(original, column))
        assert loaded.reward_bound == original.reward_bound
        assert loaded.weight_bound == original.weight_bound
        assert np.array_equal(loaded.context_ids, original.context_ids)
        assert np.array_equal(loaded.action_ids, original.action_ids)

    def test_scalar_byte_identity(self, tmp_path):
        original = flip2_sample()
        path = tmp_path / "logs.jsonl"
        write_logs(original, path)
        assert logs_text(read_logs(path)) == path.read_text()

    def test_ranked(self, tmp_path):
        original = sample_ranked_logs(get_scenario("rankflip2x2"), 30, 9)
        path = tmp_path / "ranked.jsonl"
        write_logs(original, path)
        loaded = read_logs(path)
        assert isinstance(loaded, RankedDataset)
        assert np.array_equal(loaded.weights, original.weights)
        assert np.array_equal(loaded.rewards, original.rewards)
        assert np.array_equal(loaded.action_ids, original.action_ids)
        assert logs_text(loaded) == path.read_text()

    def test_meta_header_first_line(self, tmp_path):
        path = tmp_path / "logs.jsonl"
        write_logs(flip2_sample(), path)
        first = json.loads(path.read_text().splitlines()[0])
        assert set(first["_meta"]) == {"reward_bound", "weight_bound"}


def _typed(values) -> list:
    """Ids with their Python types, so that ``True`` and ``1`` or ``1`` and ``1.0`` differ."""
    return [(type(value), value) for value in values]


class TestIdRoundTrip:
    """A log's ids come back with their JSON types, and writing them again gives the same bytes."""

    @staticmethod
    def compact(obj) -> str:
        return json.dumps(obj, separators=(",", ":")) + "\n"

    @pytest.mark.parametrize("ids", [[True, False], [1, "a"], [2.5, "x"]], ids=["bool", "int-str", "float-str"])
    @pytest.mark.parametrize("ranked", [False, True], ids=["scalar", "ranked"])
    def test_log_ids(self, ids, ranked, tmp_path):
        position = {"p_log": 0.5, "p_tgt": 0.5, "reward": 1.0}
        if ranked:
            records = [{"context": i, "positions": [{"action": i, **position}, {"action": ids[-1], **position}]} for i in ids]
        else:
            records = [{"context": i, "action": i, **position} for i in ids]
        text = "".join(map(self.compact, [{"_meta": {"reward_bound": 1.0, "weight_bound": 1.0}}, *records]))
        path = tmp_path / "logs.jsonl"
        path.write_text(text)
        read = read_logs(path)
        actions = read.action_ids[:, 0] if ranked else read.action_ids
        assert _typed(read.context_ids.tolist()) == _typed(actions.tolist()) == _typed(ids)
        assert logs_text(read) == text
        write_logs(read, path)
        assert logs_text(read_logs(path)) == text

    @pytest.mark.parametrize("ids", [[None, "a"], [None, 3], [None, None]], ids=["null-str", "null-int", "nulls"])
    @pytest.mark.parametrize("column", ["context_ids", "action_ids"])
    def test_null_ids(self, ids, column, tmp_path):
        dataset = Dataset.from_arrays(
            np.full(2, 0.5), np.full(2, 0.5), np.ones(2), reward_bound=1.0, weight_bound=1.0, **{column: ids}
        )
        path = tmp_path / "logs.jsonl"
        write_logs(dataset, path)
        read = read_logs(path)
        held = getattr(read, column)
        assert (getattr(dataset, column) is None) == (held is None) == (ids == [None, None])
        assert held is None if ids == [None, None] else _typed(held.tolist()) == _typed(ids)
        assert logs_text(read) == path.read_text()
        write_logs(read, path)
        assert logs_text(read_logs(path)) == logs_text(dataset)

    def test_numpy_bool_ids(self, tmp_path):
        ids = np.array([True, False, True])
        dataset = Dataset.from_arrays(
            np.full(3, 0.5), np.full(3, 0.5), np.ones(3), reward_bound=1.0, weight_bound=1.0, context_ids=ids
        )
        path = tmp_path / "logs.jsonl"
        write_logs(dataset, path)
        assert json.loads(path.read_text().splitlines()[1])["context"] is True
        read = read_logs(path)
        assert read.context_ids.dtype == bool and _typed(read.context_ids.tolist()) == _typed(ids.tolist())
        assert logs_text(read) == path.read_text()


def _reference_id(value):
    """An id as the Python value json writes: a numpy scalar's ``.item()``."""
    return value.item() if isinstance(value, np.generic) else value


def reference_logs_text(dataset) -> str:
    """The per-record encoder the block writer replaced: one dict and one json.dumps per record."""

    def dumps(obj):
        return json.dumps(obj, separators=(",", ":"))

    def ident(ids, index):
        return _reference_id(None if ids is None else ids[index])

    lines = [
        dumps(
            {
                "_meta": {
                    "reward_bound": float(dataset.reward_bound),
                    "weight_bound": float(dataset.weight_bound),
                }
            }
        )
    ]
    for i in range(dataset.n):
        if isinstance(dataset, RankedDataset):
            record = {
                "context": ident(dataset.context_ids, i),
                "positions": [
                    {
                        "action": ident(dataset.action_ids, (i, j)),
                        "p_log": float(dataset.propensity_logging[i, j]),
                        "p_tgt": float(dataset.propensity_target[i, j]),
                        "reward": float(dataset.rewards[i, j]),
                    }
                    for j in range(dataset.k)
                ],
            }
        else:
            record = {
                "context": ident(dataset.context_ids, i),
                "action": ident(dataset.action_ids, i),
                "p_log": float(dataset.propensity_logging[i]),
                "p_tgt": float(dataset.propensity_target[i]),
                "reward": float(dataset.rewards[i]),
            }
        lines.append(dumps(record))
    return "\n".join(lines) + "\n"


def crafted_columns(shape, seed=0):
    """Random in-bounds columns whose first entry holds -0.0, 5e-324 and 0.1 + 0.2."""
    rng = np.random.default_rng(seed)
    p_log = rng.uniform(0.05, 1.0, shape)
    p_tgt = rng.uniform(0.0, 1.0, shape)
    rewards = rng.uniform(-1.0, 1.0, shape)
    first = (0,) * len(shape)
    p_log[first] = 0.1 + 0.2
    p_tgt[first] = 5e-324
    rewards[first] = -0.0
    return p_log, p_tgt, rewards


def id_column(kind, shape):
    count = int(np.prod(shape))
    values = {
        "none": None,
        "int64": np.arange(count, dtype=np.int64) - 3,
        "uint8": (np.arange(count) % 256).astype(np.uint8),
        "str": np.array([f'id"{i}%s\u00e9' for i in range(count)]),
        "float": np.arange(count) * 0.5 - 1.0,
        "bool": np.arange(count) % 3 == 0,
        "object": np.array([2**70 + i for i in range(count)], dtype=object),
    }[kind]
    return None if values is None else values.reshape(shape)


ID_KINDS = ("none", "int64", "uint8", "str", "float", "bool", "object")


def assert_same_text(actual: str, expected: str) -> None:
    """Equal texts; on a difference, name the first differing line instead of diffing megabytes."""
    if actual == expected:
        return
    got, want = actual.split("\n"), expected.split("\n")
    line = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    pytest.fail(
        f"texts differ first at line {line + 1} of {len(want)}: "
        f"{got[line] if line < len(got) else '<end>'!r} != {want[line] if line < len(want) else '<end>'!r}"
    )


# Id kinds the writer renders as null or short integers, which the block scan
# reads; the other kinds (escaped strings, true/false, floats) are read line by line.
SCANNED_ID_KINDS = {"none", "int64", "uint8"}


def distinct_records(dataset):
    """How many distinct records ``_distinct_records`` finds in a one-block dataset; None when it renders every record."""
    n = dataset.n
    actions = None if dataset.action_ids is None else dataset.action_ids.reshape(n, -1)
    numbers = [column.reshape(n, -1) for column in (dataset.propensity_logging, dataset.propensity_target, dataset.rewards)]
    distinct = opekit.io._distinct_records(dataset.context_ids, actions, *numbers)
    return None if distinct is None else len(distinct[0])


def distinct_lines(text) -> int:
    """The number of distinct record lines of a log text with a _meta header."""
    return len(set(text.splitlines()[1:]))


# Pools of values that repeat: signed zeros, the least subnormal, and a sum
# whose repr has 17 digits; ids at the ends of their dtypes.
P_LOG_POOL = np.array([0.5, 0.1, 0.1 + 0.2, 1.0])
P_TGT_POOL = np.array([0.0, 5e-324, 0.5, 1.0])
REWARD_POOL = np.array([0.0, -0.0, 5e-324, 1.0, -1.0, 0.1])
ID_POOLS = {
    "none": None,
    "int64": np.array([-(2**63), -1, 0, 7], dtype=np.int64),
    "uint64": np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64),
    "uint8": np.array([0, 255], dtype=np.uint8),
    "str": np.array(["a", "b"]),
    "bool": np.array([True, False]),
}


@st.composite
def pooled_datasets(draw):
    """Scalar or ranked datasets whose columns are drawn from small pools, so that records repeat."""
    ranked = draw(st.booleans())
    k = draw(st.integers(1, 3)) if ranked else 1
    n = draw(st.integers(1, 30))
    shape = (n, k) if ranked else (n,)

    def pooled(pool, shape):
        if pool is None:
            return None
        size = int(np.prod(shape))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=size, max_size=size))
        return pool[picks].reshape(shape)

    columns = [pooled(pool, shape) for pool in (P_LOG_POOL, P_TGT_POOL, REWARD_POOL)]
    context_kind, action_kind = draw(st.sampled_from(list(ID_POOLS))), draw(st.sampled_from(list(ID_POOLS)))
    return (RankedDataset if ranked else Dataset).from_arrays(
        *columns,
        reward_bound=1.0,
        weight_bound=20.0,
        context_ids=pooled(ID_POOLS[context_kind], (n,)),
        action_ids=pooled(ID_POOLS[action_kind], shape),
    )


class TestBlockWriter:
    def check(self, dataset, tmp_path, scanned=True):
        expected = reference_logs_text(dataset)
        assert_same_text(logs_text(dataset), expected)
        path = tmp_path / "logs.jsonl"
        write_logs(dataset, path)
        assert_same_text(path.read_bytes().decode("utf-8"), expected)
        assert (block_scan_end(expected) == len(expected)) == scanned
        assert_both_paths_agree(path)
        loaded = read_logs(path)
        assert type(loaded) is type(dataset)
        for column in ("propensity_logging", "propensity_target", "rewards", "weights"):
            assert getattr(loaded, column).tobytes() == getattr(dataset, column).tobytes()
        assert_same_text(logs_text(loaded), expected)

    @pytest.mark.parametrize("n", [1, 8191, 8192, 8193, 20000])
    def test_sampled_sizes(self, n, tmp_path):
        self.check(flip2_sample(n=n), tmp_path)

    @pytest.mark.parametrize(
        "context_kind, action_kind",
        [(kind, kind) for kind in ID_KINDS] + [("none", "int64"), ("str", "none")],
    )
    def test_scalar_ids_and_floats(self, context_kind, action_kind, tmp_path):
        n = 300
        p_log, p_tgt, rewards = crafted_columns((n,))
        dataset = Dataset.from_arrays(
            p_log,
            p_tgt,
            rewards,
            reward_bound=1.0,
            weight_bound=20.0,
            context_ids=id_column(context_kind, (n,)),
            action_ids=id_column(action_kind, (n,)),
        )
        assert np.signbit(dataset.rewards[0]) and dataset.propensity_target[0] == 5e-324
        self.check(dataset, tmp_path, {context_kind, action_kind} <= SCANNED_ID_KINDS)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("id_kind", ["none", "int64", "str", "bool"])
    def test_ranked(self, k, id_kind, tmp_path):
        n = 8193 // k + 7  # more than one block of 8192 // k records
        p_log, p_tgt, rewards = crafted_columns((n, k), seed=k)
        dataset = RankedDataset.from_arrays(
            p_log,
            p_tgt,
            rewards,
            reward_bound=1.0,
            weight_bound=20.0,
            context_ids=id_column(id_kind, (n,)),
            action_ids=id_column(id_kind, (n, k)),
        )
        self.check(dataset, tmp_path, id_kind in SCANNED_ID_KINDS)

    def test_mixed_object_ids(self):
        # Written like json.dumps writes them, the null too.
        ids = np.array([None, 7, "x", 2.5, True, np.int32(4)], dtype=object)
        p_log, p_tgt, rewards = crafted_columns((6,))
        dataset = Dataset.from_arrays(
            p_log, p_tgt, rewards, reward_bound=1.0, weight_bound=20.0, context_ids=ids
        )
        assert_same_text(logs_text(dataset), reference_logs_text(dataset))

    def test_sampled_ranked(self, tmp_path):
        self.check(sample_ranked_logs(get_scenario("rankflip2x2"), 5000, 9), tmp_path)

    def test_repeats_that_differ_only_in_bits(self, tmp_path):
        # 0.0 == -0.0, so a key on values would write one for the other; 5e-324 is the least float above 0.0.
        n = 600
        entry = np.arange(n)
        dataset = Dataset.from_arrays(
            np.full(n, 0.5),
            np.array([0.0, 5e-324, 0.5])[entry % 3],
            np.array([0.0, -0.0])[entry // 3 % 2],
            reward_bound=1.0,
            weight_bound=2.0,
            context_ids=np.zeros(n, dtype=np.int64),
        )
        assert distinct_records(dataset) == distinct_lines(reference_logs_text(dataset)) == 6
        self.check(dataset, tmp_path)

    @pytest.mark.parametrize("k", [2, 3])
    def test_ranked_repeats_across_blocks(self, k, tmp_path):
        # Five records, drawn again in every block of 8192 // k records and the part block after them.
        n = 2 * (BLOCK_ENTRIES // k) + 5
        rng = np.random.default_rng(k)
        record = rng.integers(0, 5, n)
        p_log, p_tgt, rewards = (column[record] for column in crafted_columns((5, k), seed=k))
        dataset = RankedDataset.from_arrays(
            p_log,
            p_tgt,
            rewards,
            reward_bound=1.0,
            weight_bound=20.0,
            context_ids=record % 2,
            action_ids=(record[:, None] + np.arange(k)) % 3,
        )
        self.check(dataset, tmp_path)

    def test_wide_integer_ids(self, tmp_path):
        # uint64 ids at and past 2**63 beside small ones, and negative int64 ids down to
        # -2**63; neighbours there round to the same float, so only their bits tell them apart.
        n = 600
        entry = np.arange(n)
        dataset = Dataset.from_arrays(
            np.full(n, 0.5),
            np.full(n, 0.25),
            np.array([0.0, 1.0])[entry % 2],
            reward_bound=1.0,
            weight_bound=2.0,
            context_ids=np.array([2**64 - 1, 2**64 - 2, 2**63, 2**63 + 1, 1, 0], dtype=np.uint64)[entry % 6],
            action_ids=np.array([-(2**63), -(2**63) + 1, -1, 2**63 - 1, 0], dtype=np.int64)[entry % 5],
        )
        expected = reference_logs_text(dataset)
        assert distinct_records(dataset) == distinct_lines(expected) == 30
        assert_same_text(logs_text(dataset), expected)
        path = tmp_path / "logs.jsonl"
        write_logs(dataset, path)
        assert_same_text(path.read_bytes().decode("utf-8"), expected)
        read = read_logs(path)
        assert read.context_ids.dtype == np.uint64
        assert np.array_equal(read.context_ids, dataset.context_ids)
        assert np.array_equal(read.action_ids, dataset.action_ids)
        assert_same_text(logs_text(read), expected)

    def test_all_distinct_records(self, tmp_path):
        # Every p_log differs, so the one-column check sees that no record repeats.
        dataset = distinct_sample(300)
        assert distinct_records(dataset) is None
        self.check(dataset, tmp_path)
        # Every number column repeats, but the context ids make each record distinct:
        # keyed, and rendered without a gather.
        entry = np.arange(300)
        dataset = Dataset.from_arrays(
            np.array([0.5, 0.25])[entry % 2],
            np.array([0.0, 0.5])[entry % 3 // 2],
            np.array([1.0, -0.0, 0.0])[entry % 3],
            reward_bound=1.0,
            weight_bound=2.0,
            context_ids=entry,
        )
        assert distinct_records(dataset) is None
        self.check(dataset, tmp_path)

    @pytest.mark.parametrize("id_kind", ["str", "bool", "object", "float"])
    def test_ids_that_are_not_integers_render_every_record(self, id_kind, tmp_path):
        n = 300
        ids = id_column(id_kind, (4,))[np.arange(n) % 4]
        dataset = Dataset.from_arrays(
            np.full(n, 0.5),
            np.full(n, 0.25),
            np.zeros(n),
            reward_bound=1.0,
            weight_bound=2.0,
            context_ids=ids,
            action_ids=ids,
        )
        assert distinct_records(dataset) is None
        assert distinct_lines(reference_logs_text(dataset)) <= 4
        self.check(dataset, tmp_path, id_kind in SCANNED_ID_KINDS)

    @settings(max_examples=200)
    @given(pooled_datasets(), st.sampled_from([2, 6, BLOCK_ENTRIES]))
    def test_pooled_records_render_as_json_dumps(self, dataset, block_entries):
        # Columns drawn from small pools repeat records within and across blocks.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(opekit.io, "BLOCK_ENTRIES", block_entries)
            assert_same_text(logs_text(dataset), reference_logs_text(dataset))


DIGITS = "0123456789"


@st.composite
def json_number_texts(draw):
    """Numbers in JSON grammar, with parts on both sides of the scan's digit caps."""
    sign = draw(st.sampled_from(["", "-"]))
    lead = draw(st.sampled_from(DIGITS))
    integer = lead if lead == "0" else lead + draw(st.text(DIGITS, max_size=18))
    fraction = draw(st.sampled_from(["", "."]))
    if fraction:
        fraction += draw(st.text(DIGITS, min_size=1, max_size=27))
    exponent = draw(st.sampled_from(["", "e", "E", "e+", "e-", "E-"]))
    if exponent:
        exponent += draw(st.text(DIGITS, min_size=1, max_size=4))
    return sign + integer + fraction + exponent


# What the writer writes: float.__repr__ numbers and null, integer or plain string ids.
WRITER_NUMBERS = st.floats(allow_nan=False, allow_infinity=False).map(float.__repr__)
WRITER_IDS = st.one_of(
    st.just("null"),
    st.integers(-(10**16), 10**16).map(str),
    st.text(st.characters(blacklist_characters='"\\', blacklist_categories=("Cc", "Cs")), max_size=8).map(
        lambda value: '"' + value + '"'
    ),
)
NUMBER_TEXTS = st.one_of(
    json_number_texts(),
    WRITER_NUMBERS,
    st.sampled_from(["-0", "0", "-0.0", "5e-324", "1e400", "-1e400", "12345678901234567", "1" * 400, "NaN"]),
)
ID_TEXTS = st.one_of(
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["null", "true", "false", "1.5", "-0", "99999999999999999"]),
    st.text(max_size=8).map(lambda value: json.dumps(value, ensure_ascii=False)),
    st.text(max_size=8).map(lambda value: '"' + value + '"'),
)
# Edits that take a record line out of the writer's layout, or out of JSON.
DISTURBANCES = st.sampled_from(
    [
        lambda line: " " + line,
        lambda line: "\n" + line,
        lambda line: line.replace(":", ": ", 1),
        lambda line: line[:-1],
        lambda line: opekit.io._META % ("1.0", "2.0") + line,
    ]
)


@st.composite
def log_texts(draw):
    """Logs in the writer's layout with any JSON-like texts in its slots, lines repeated, and a few disturbed.

    Each line is one of up to four records, as in a log drawn from finite
    policy tables, so blocks hold repeated lines; a disturbed line may be a
    copy of a repeated one, and the last line may lose its newline.
    """
    ranked = draw(st.booleans())
    k = draw(st.integers(1, 3)) if ranked else 1
    fmt = _record_format(ranked, k)
    records = [
        st.tuples(*[ids] + [ids, numbers, numbers, numbers] * k)
        for ids, numbers in ((WRITER_IDS, WRITER_NUMBERS), (WRITER_IDS, WRITER_NUMBERS), (ID_TEXTS, NUMBER_TEXTS))
    ]
    distinct = [fmt % record for record in draw(st.lists(st.one_of(records), min_size=1, max_size=4))]
    lines = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=8))
    for i in draw(st.sets(st.integers(0, len(lines) - 1), max_size=2)):
        lines[i] = draw(DISTURBANCES)(lines[i])
    header = draw(st.sampled_from(["", opekit.io._META]))
    if header:
        header %= (draw(NUMBER_TEXTS), draw(NUMBER_TEXTS))
    return header + "".join(lines)


def exact(value):
    """A value's type and, for a float, its bits, so that == tells -0.0 from 0.0."""
    return type(value), np.float64(value).tobytes() if isinstance(value, float) else value


def entry_lines(scan) -> list[int]:
    """The 1-based line of each entry of a scan, expanded from its runs of entries on consecutive lines."""
    stops = [entry for entry, _ in scan.runs[1:]] + [scan.n]
    return [line + i for (entry, line), stop in zip(scan.runs, stops) for i in range(stop - entry)]


def scan_outcome(scan_text, text):
    """The error a scan raises, or what it read, value by value, with the line of each entry."""
    try:
        scan = scan_text(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    read = (scan.meta, *scan.columns, scan.contexts, scan.actions, entry_lines(scan))
    return scan.kind, scan.k, [list(map(exact, values)) for values in read]


# Records for the examples of repeated lines: scalar, and ranked with k = 2 and 3.
SCALAR = _record_format(False, 1) % (7, '"a"', "0.1", "0.9", "1.0")
OTHER = _record_format(False, 1) % (7, '"b"', "0.9", "0.1", "-0.0")
RANKED2 = [_record_format(True, 2) % (c, 1, "0.5", "0.25", r, "null", "0.5", "5e-324", "0.0") for c, r in (('"x"', "1.0"), (3, "0.5"))]
RANKED3 = [_record_format(True, 3) % (c, *[a, "0.2", "0.4", "1.0"] * 3) for c, a in ((0, 1), (0, '"z"'))]


@st.composite
def spaced_logs(draw):
    """A log with one reward out of bounds, blank lines anywhere and one kind of line ending.

    Returns the text, the out-of-bounds record's entry and position (``None``
    for a scalar log) and the 1-based line it was written on.
    """
    ranked = draw(st.booleans())
    k = draw(st.integers(1, 2)) if ranked else 1
    n = draw(st.integers(1, 20))
    bad, position = draw(st.integers(0, n - 1)), draw(st.integers(0, k - 1))
    fmt = _record_format(ranked, k)
    records = [
        fmt % (i % 3, *[field for j in range(k) for field in (j, "0.5", "0.5", "7.0" if (i, j) == (bad, position) else "1.0")])
        for i in range(n)
    ]
    lines = [opekit.io._META % ("1.0", "2.0"), *records]
    for at in sorted(draw(st.lists(st.integers(0, len(lines)), max_size=3)), reverse=True):
        lines.insert(at, "\n")
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = "".join(line[:-1] + ending for line in lines)
    return text, bad, position if ranked else None, lines.index(records[bad]) + 1


IN_BOUNDS = _record_format(False, 1) % (0, 0, "0.5", "0.5", "1.0")


def id_records(contexts, actions=None) -> str:
    """In-bounds scalar records in the writer's layout with these context and action id texts (actions 5 if None)."""
    actions = actions or [5] * len(contexts)
    return "".join(_record_format(False, 1) % (c, a, "0.5", "0.5", "1.0") for c, a in zip(contexts, actions))


def ranked_id_records(contexts, actions) -> str:
    """In-bounds two-position records in the writer's layout with these context ids and pairs of action ids."""
    fmt = _record_format(True, 2)
    return "".join(fmt % (c, a, "0.5", "0.5", "1.0", b, "0.5", "0.5", "1.0") for c, (a, b) in zip(contexts, actions))


# Integer ids in the first blocks of two or six entries, then ids of another kind: logs
# the block scan reads as int64 until a block or a line of the line reader changes the kind.
INTEGERS = [1, 2, 1, 2, 1, 2]
KIND_CHANGES = {
    "null in block 2": (id_records(INTEGERS + ["null", 1]), ("|O", "<i8")),
    "string in block 2": (id_records(INTEGERS * 2, INTEGERS + ['"s"', 3, 4, 3, 4, 3]), ("<i8", "|O")),
    "18-digit integer in block 2": (id_records(INTEGERS + ["100000000000000000", 1]), ("<i8", "<i8")),
    "17-digit extremes": (id_records(["99999999999999999", "-99999999999999999"] * 4), ("<i8", "<i8")),
    "all null": (id_records(["null"] * 8, ["null"] * 8), (None, None)),
    "ranked, null action in block 2": (
        ranked_id_records(INTEGERS * 2, [(0, 1)] * 6 + [(0, "null")] + [(1, 0)] * 5),
        ("<i8", "|O"),
    ),
}


class TestBlockScan:
    @settings(max_examples=100, deadline=None)
    @given(spaced_logs(), st.sampled_from([2, 3, 6]))
    @example((opekit.io._META % ("1.0", "2.0") + IN_BOUNDS * 9 + IN_BOUNDS.replace(":1.0}", ":7.0}"), 9, None, 11), 2)
    def test_entry_errors_name_the_line_of_their_record(self, tmp_path_factory, log, block_entries):
        # Blocks of two to six entries put the bad record past the first block of
        # a writer-layout prefix, or among lines the line reader reads after a blank line.
        text, entry, position, line = log
        path = tmp_path_factory.getbasetemp() / "spaced.jsonl"
        path.write_bytes(text.encode())
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(opekit.io, "BLOCK_ENTRIES", block_entries)
            with pytest.raises(BoundViolation) as info:
                read_logs(path)
        assert (info.value.index, info.value.position, info.value.line) == (entry, position, line)
        assert str(info.value).endswith(f"at line {line}" + ("" if position is None else f", position {position + 1}"))

    def test_a_writer_layout_file_is_one_run(self, tmp_path):
        path = tmp_path / "logs.jsonl"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(opekit.io, "BLOCK_ENTRIES", 6)
            write_logs(flip2_sample(n=40), path)
            with open(path, encoding="utf-8") as stream:
                scan = _scan_stream(stream)
        assert (scan.n, scan.runs) == (40, [(0, 2)])
        assert entry_lines(scan) == list(range(2, 42))

    @settings(max_examples=300)
    @given(log_texts(), st.sampled_from([2, 6]))
    @example('{"context":0,"action":-0,"p_log":-0,"p_tgt":5e-324,"reward":1e400}\n', 2)
    @example('{"context":12345678901234567,"action":"é x","p_log":-0.0,"p_tgt":1E-400,"reward":0}\n', 2)
    @example('{"context":null,"action":"","p_log":12345678901234567,"p_tgt":-99999999999999999,"reward":1.5e308}\n', 2)
    @example(SCALAR * 13, 6)  # one record many times
    @example(SCALAR * 2 + OTHER + SCALAR * 4 + " " + SCALAR + OTHER, 6)  # a disturbed copy in the second block
    @example(SCALAR * 3 + OTHER + SCALAR + SCALAR[:-1], 6)  # the last line, a copy but for its newline
    @example(RANKED2[0] * 2 + RANKED2[1] + RANKED2[0] + RANKED2[1] * 2 + RANKED2[0], 6)
    @example(opekit.io._META % ("1.0", "9.0") + RANKED3[1] + RANKED3[0] * 3 + RANKED3[1], 6)
    @example(KIND_CHANGES["null in block 2"][0], 2)
    @example(KIND_CHANGES["null in block 2"][0], 6)
    @example(KIND_CHANGES["string in block 2"][0], 6)
    @example(KIND_CHANGES["18-digit integer in block 2"][0], 6)
    @example(KIND_CHANGES["17-digit extremes"][0], 2)
    @example(KIND_CHANGES["all null"][0], 6)
    @example(KIND_CHANGES["ranked, null action in block 2"][0], 6)
    @example(id_records(INTEGERS) + " " + id_records([3]), 6)  # integer blocks, then the line reader
    def test_reads_as_the_line_reader_does(self, text, block_entries):
        # The line reader alone is json.loads + _number on every line. Blocks of two or
        # six entries let the block scan stop part way through these short texts and
        # gather the values of lines repeated within a block.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(opekit.io, "BLOCK_ENTRIES", block_entries)
            got = scan_outcome(lambda text: _scan_stream(io.StringIO(text)), text)
        assert got == scan_outcome(lambda text: _scan_lines(io.StringIO(text), 1, _Scan()), text)

    @pytest.mark.parametrize("block_entries", [2, 6])
    @pytest.mark.parametrize("name", sorted(KIND_CHANGES))
    def test_ids_that_change_kind_read_as_the_line_reader_does(self, name, block_entries, tmp_path):
        # The block scan keeps integer ids as int64 until ids of another kind appear; then both
        # columns hold Python values and the dataset's id columns are as the line reader gives them.
        records, dtypes = KIND_CHANGES[name]
        path = tmp_path / "in.jsonl"
        path.write_text(opekit.io._META % ("1.0", "2.0") + records)
        if name == "17-digit extremes":  # the widest integers the block scan takes
            assert block_scan_end(path.read_text()) == path.stat().st_size
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(opekit.io, "BLOCK_ENTRIES", block_entries)
            got = outcome(read_logs, path)
        assert got == outcome(read_line_by_line, path)
        assert tuple(None if ids is None else ids[0] for ids in got[3]) == dtypes

    @pytest.mark.parametrize("last_context", [None, '"s"'])
    def test_integer_ids_reach_the_dataset_as_int64(self, last_context, tmp_path):
        # Three blocks of integer ids are handed over as int64 arrays; a string id in the
        # last block turns both columns into lists of Python values.
        path = tmp_path / "logs.jsonl"
        received = {}

        def recording(raw, name, shape):
            received.setdefault(name, (type(raw), getattr(raw, "dtype", None)))
            return original(raw, name, shape)

        original = opekit.data._id_column
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(opekit.io, "BLOCK_ENTRIES", 6)
            write_logs(flip2_sample(n=15), path)
            if last_context is not None:
                lines = path.read_text().splitlines(keepends=True)
                lines[-1] = re.sub('"context":[^,]*', '"context":' + last_context, lines[-1])
                path.write_text("".join(lines))
            patch.setattr(opekit.data, "_id_column", recording)
            dataset = read_logs(path)
        assert dataset.n == 15
        if last_context is None:
            assert received == {name: (np.ndarray, np.dtype(np.int64)) for name in ("context_ids", "action_ids")}
        else:
            assert received == {name: (list, None) for name in ("context_ids", "action_ids")}
            assert dataset.context_ids[-1] == "s"

    @given(st.floats(allow_nan=False, allow_infinity=False), st.integers(-(10**16), 10**16))
    def test_writer_texts_take_the_scan(self, value, ident):
        text = opekit.io._META % (repr(1.0), repr(9.0)) + _record_format(False, 1) % (ident, ident, repr(value), "0.5", "-0.0")
        assert block_scan_end(text) == len(text)

    BASE = [
        '{"_meta":{"reward_bound":1.0,"weight_bound":9.0}}',
        '{"context":0,"action":1,"p_log":0.1,"p_tgt":0.9,"reward":1.0}',
        '{"context":1,"action":0,"p_log":0.9,"p_tgt":0.1,"reward":0.0}',
        '{"context":1,"action":1,"p_log":0.1,"p_tgt":0.9,"reward":REWARD}',
    ]
    LAYOUTS = {
        "crlf": lambda lines: "\r\n".join(lines) + "\r\n",
        "leading spaces": lambda lines: "".join(f" {line}\n" for line in lines),
        "trailing spaces": lambda lines: "".join(f"{line} \n" for line in lines),
        "blank line": lambda lines: "\n".join(lines[:2] + [""] + lines[2:]) + "\n",
        "reordered keys": lambda lines: "\n".join(lines).replace('"p_log":0.1,"p_tgt":0.9', '"p_tgt":0.9,"p_log":0.1', 1) + "\n",
        "meta after a record": lambda lines: "\n".join([lines[1], lines[0], *lines[2:]]) + "\n",
        "bom": lambda lines: "\ufeff" + "\n".join(lines) + "\n",
        "boolean ids": lambda lines: "\n".join(lines).replace('"context":1', '"context":true') + "\n",
        "escaped string ids": lambda lines: "\n".join(lines).replace('"context":0', '"context":"\\u00e9"') + "\n",
        "no final newline": lambda lines: "\n".join(lines),
        "18-digit integer": lambda lines: "\n".join(lines).replace('"reward":0.0', '"reward":100000000000000000') + "\n",
    }

    @pytest.mark.parametrize("reward", ["1.0", "7.0"])
    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    def test_other_layouts_read_as_before(self, name, reward, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_text(self.LAYOUTS[name]([line.replace("REWARD", reward) for line in self.BASE]), newline="")
        text = path.read_text(encoding="utf-8")
        # Reading the text turns CRLF into "\n", so a CRLF file in the writer's layout takes the scan.
        assert (block_scan_end(text) == len(text)) == (name == "crlf")
        assert_both_paths_agree(path)

    def test_null_ids_stay_beside_other_ids_on_both_paths(self, tmp_path):
        lines = [line.replace("REWARD", "1.0") for line in self.BASE]
        lines[2] = lines[2].replace('"context":1', '"context":null')
        path = tmp_path / "in.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert block_scan_end(path.read_text()) == path.stat().st_size
        loaded = read_logs(path)
        assert loaded.context_ids.tolist() == [0, None, 1] and list(loaded.action_ids) == [1, 0, 1]
        assert logs_text(loaded) == path.read_text()
        assert_both_paths_agree(path)

    @pytest.mark.parametrize("digits", [400, 5000])
    @pytest.mark.parametrize("field", ["reward", "reward_bound"])
    def test_huge_integers_are_parse_errors(self, digits, field, tmp_path):
        text = "\n".join(line.replace("REWARD", "1.0") for line in self.BASE) + "\n"
        line = 1 if field == "reward_bound" else 3
        text = text.replace(f'"{field}":{"1.0" if field == "reward_bound" else "0.0"}', f'"{field}":-{"9" * digits}')
        path = tmp_path / "in.jsonl"
        path.write_text(text)
        assert _scan_blocks(io.StringIO(text), _Scan())[1] <= line
        with pytest.raises(ParseError) as info:
            read_logs(path)
        assert info.value.line == line
        assert_both_paths_agree(path)

    def test_line_reader_continues_where_the_blocks_stop(self, tmp_path):
        # Two whole writer blocks, then a block with a blank line in it: the scan reads
        # the two blocks, the line reader the rest, and a bad value keeps its line.
        path = tmp_path / "logs.jsonl"
        write_logs(flip2_sample(n=2 * 8192 + 5), path)
        lines = path.read_text().split("\n")
        lines.insert(2 * 8192 + 3, "")
        text = "\n".join(lines)
        assert _scan_blocks(io.StringIO(text), _Scan())[1] == 2 * 8192 + 2
        path.write_text(text)
        assert read_logs(path).n == 2 * 8192 + 5
        assert_both_paths_agree(path)
        lines[-2] = re.sub('"p_log":[^,]*', '"p_log":0.0', lines[-2])
        path.write_text("\n".join(lines))
        with pytest.raises(NonPositiveLoggingPropensity) as info:
            read_logs(path)
        assert (info.value.index, info.value.line) == (2 * 8192 + 4, 2 * 8192 + 7)
        assert_both_paths_agree(path)


def distinct_sample(n) -> Dataset:
    """A scalar log with continuous propensities and rewards, so that no two of its lines are equal."""
    return Dataset.from_arrays(*crafted_columns((n,), seed=n), reward_bound=1.0, weight_bound=20.0)


class TestReadMemory:
    @staticmethod
    def check(make, tmp_path):
        # The text is read a block at a time, so what read_logs holds beyond the
        # dataset it returns is about one block, whatever the size of the file.
        excess, sizes = [], []
        for blocks in (2, 6):
            path = tmp_path / f"{blocks}.jsonl"
            write_logs(make(blocks * BLOCK_ENTRIES), path)
            tracemalloc.start()
            try:
                dataset = read_logs(path)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert dataset.n == blocks * BLOCK_ENTRIES
            excess.append(peak - held)
            sizes.append(path.stat().st_size)
        assert excess[1] - excess[0] < (sizes[1] - sizes[0]) / 4

    def test_peak_beyond_the_dataset_does_not_grow_with_the_file(self, tmp_path):
        # A flip2 block holds at most four distinct lines.
        self.check(flip2_sample, tmp_path)

    def test_integer_ids_do_not_grow_the_peak(self, tmp_path):
        # Context ids above the small-int cache: every id read is an integer the scan keeps as int64.
        def make(n):
            sample = flip2_sample(n)
            columns = (sample.propensity_logging, sample.propensity_target, sample.rewards)
            bounds = dict(reward_bound=sample.reward_bound, weight_bound=sample.weight_bound)
            return Dataset.from_arrays(*columns, **bounds, context_ids=np.arange(n) + 10**6, action_ids=sample.action_ids)

        self.check(make, tmp_path)

    def test_distinct_lines_do_not_grow_the_peak(self, tmp_path):
        # Every line is distinct, so each block's map of distinct lines holds all of them.
        self.check(distinct_sample, tmp_path)
        lines = (tmp_path / "6.jsonl").read_text().splitlines()
        assert len(set(lines)) == len(lines) == 6 * BLOCK_ENTRIES + 1


class TestWriteMemory:
    def test_peak_beyond_the_dataset_is_one_block(self, tmp_path):
        # write_logs renders, gathers and writes one block at a time, so what it
        # holds beyond the dataset is about one block's text, whatever the size of the log.
        excess = []
        for blocks in (2, 6):
            dataset = flip2_sample(blocks * BLOCK_ENTRIES)
            path = tmp_path / f"{blocks}.jsonl"
            tracemalloc.start()
            try:
                write_logs(dataset, path)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            excess.append(peak - held)
        block_text = path.stat().st_size / 6
        assert max(excess) < 4 * block_text
        assert excess[1] - excess[0] < block_text / 4


class TestReadValidation:
    def write(self, tmp_path, lines):
        path = tmp_path / "in.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def record(self, p_log=0.5, p_tgt=0.5, reward=1.0, **extra):
        return json.dumps({"p_log": p_log, "p_tgt": p_tgt, "reward": reward, **extra})

    def meta(self, reward=1.0, weight=2.0):
        return json.dumps({"_meta": {"reward_bound": reward, "weight_bound": weight}})

    def test_flags_override_header(self, tmp_path):
        path = self.write(tmp_path, [self.meta(weight=9.0), self.record()])
        assert read_logs(path).weight_bound == 9.0
        assert read_logs(path, weight_bound=2.0).weight_bound == 2.0

    def test_missing_bounds(self, tmp_path):
        path = self.write(tmp_path, [self.record()])
        with pytest.raises(MissingBounds):
            read_logs(path)
        assert read_logs(path, reward_bound=1.0, weight_bound=1.0).n == 1

    def test_invalid_json_line_number(self, tmp_path):
        path = self.write(tmp_path, [self.meta(), self.record(), "{not json"])
        with pytest.raises(ParseError) as info:
            read_logs(path)
        assert info.value.line == 3

    def test_non_object_line(self, tmp_path):
        path = self.write(tmp_path, [self.meta(), "[1,2,3]"])
        with pytest.raises(ParseError) as info:
            read_logs(path)
        assert info.value.line == 2

    def test_meta_must_come_first(self, tmp_path):
        path = self.write(tmp_path, [self.record(), self.meta()])
        with pytest.raises(ParseError):
            read_logs(path)
        duplicated = self.write(tmp_path, [self.meta(), self.meta(), self.record()])
        with pytest.raises(ParseError):
            read_logs(duplicated)

    def test_missing_and_malformed_fields(self, tmp_path):
        path = self.write(tmp_path, [self.meta(), json.dumps({"p_log": 0.5, "reward": 1.0})])
        with pytest.raises(ParseError):
            read_logs(path)
        path = self.write(
            tmp_path, [self.meta(), json.dumps({"p_log": True, "p_tgt": 0.5, "reward": 1.0})]
        )
        with pytest.raises(ParseError):
            read_logs(path)

    def test_mixed_kinds(self, tmp_path):
        ranked = json.dumps(
            {"positions": [{"p_log": 0.5, "p_tgt": 0.5, "reward": 1.0}]}
        )
        path = self.write(tmp_path, [self.meta(), self.record(), ranked])
        with pytest.raises(ParseError) as info:
            read_logs(path)
        assert info.value.line == 3

    def test_ragged_positions(self, tmp_path):
        one = json.dumps({"positions": [{"p_log": 0.5, "p_tgt": 0.5, "reward": 1.0}]})
        two = json.dumps({"positions": [{"p_log": 0.5, "p_tgt": 0.5, "reward": 1.0}] * 2})
        path = self.write(tmp_path, [self.meta(), one, two])
        with pytest.raises(ParseError) as info:
            read_logs(path)
        assert info.value.line == 3
        empty = self.write(tmp_path, [self.meta(), json.dumps({"positions": []})])
        with pytest.raises(ParseError):
            read_logs(empty)

    def test_validation_errors_carry_line_numbers(self, tmp_path):
        path = self.write(
            tmp_path, [self.meta(), self.record(), self.record(p_log=0.0)]
        )
        with pytest.raises(NonPositiveLoggingPropensity) as info:
            read_logs(path)
        assert info.value.line == 3
        path = self.write(
            tmp_path, [self.meta(), self.record(), self.record(reward=7.0)]
        )
        with pytest.raises(BoundViolation) as bound_info:
            read_logs(path)
        assert bound_info.value.line == 3

    def test_zero_logging_propensity_names_line_and_position(self, tmp_path):
        positions = [{"p_log": 0.5, "p_tgt": 0.5, "reward": 1.0}, {"p_log": 0.0, "p_tgt": 0.5, "reward": 1.0}]
        clean = json.dumps({"positions": [positions[0], positions[0]]})
        path = self.write(tmp_path, [self.meta(), clean, "", json.dumps({"positions": positions})])
        with pytest.raises(NonPositiveLoggingPropensity) as info:
            read_logs(path)
        assert (info.value.index, info.value.position, info.value.line) == (1, 1, 4)
        assert str(info.value).endswith("at line 4, position 2")

    def test_lines_split_on_newline_only(self, tmp_path):
        # U+2028, U+2029 and U+0085 are valid raw characters in a JSON string.
        contexts = ["a\u2028b", "c\u2029d", "e\x85f"]
        lines = [self.meta()] + [
            json.dumps({"context": c, "action": 0, "p_log": 0.5, "p_tgt": 0.5, "reward": 1.0}, ensure_ascii=False)
            for c in contexts
        ]
        path = tmp_path / "in.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert list(read_logs(path).context_ids) == contexts

    def test_form_feed_does_not_shift_line_numbers(self, tmp_path):
        lines = [self.meta(), self.record() + "\x0c", "\x0b\x1c", self.record(p_log=0.0)]
        with pytest.raises(NonPositiveLoggingPropensity) as info:
            read_logs(self.write(tmp_path, lines))
        assert info.value.line == 4
        path = self.write(tmp_path, [self.meta(), "\x0c", "{not json"])
        with pytest.raises(ParseError) as parse_info:
            read_logs(path)
        assert parse_info.value.line == 3

    def test_lone_carriage_returns_end_lines(self, tmp_path):
        # Universal newlines: a bare "\r" ends a line, as "\n" and "\r\n" do.
        path = tmp_path / "in.jsonl"
        path.write_bytes("\r".join([self.meta(), self.record(), self.record(p_log=0.0)]).encode() + b"\r")
        with pytest.raises(NonPositiveLoggingPropensity) as info:
            read_logs(path)
        assert info.value.line == 3
        assert str(info.value).endswith("at line 3")

    def test_empty_inputs(self, tmp_path):
        with pytest.raises(EmptyDataset):
            read_logs(self.write(tmp_path, [""]))
        with pytest.raises(EmptyDataset):
            read_logs(self.write(tmp_path, [self.meta()]))

    def test_missing_ids_read_as_null(self, tmp_path):
        path = self.write(
            tmp_path,
            [self.meta(), self.record(context=1, action=0), self.record()],
        )
        loaded = read_logs(path)
        assert loaded.context_ids.tolist() == [1, None]
        assert loaded.action_ids.tolist() == [0, None]
        nulls = self.write(tmp_path, [self.meta(), self.record(context=None), self.record()])
        assert read_logs(nulls).context_ids is None and read_logs(nulls).action_ids is None
        full = self.write(
            tmp_path,
            [self.meta(), self.record(context=1, action=0), self.record(context=2, action=1)],
        )
        assert list(read_logs(full).context_ids) == [1, 2]


class TestTables:
    def row(self, **overrides):
        base = dict(
            estimator="ips",
            n=50,
            mean=0.3,
            bias=0.04,
            variance=0.01,
            mse=0.0116,
            se=0.005,
            oracle_value=0.26,
            n_used=200,
            n_failed=0,
        )
        base.update(overrides)
        return StudyRow(**base)

    def test_format_float_round_trips(self):
        for value in (0.1, 1.0 / 3.0, 0.26, 1e-300, 3.141592653589793, -2.5e17):
            assert float(format_float(value)) == value

    def test_csv_layout(self):
        text = csv_text([self.row()])
        lines = text.split("\n")
        assert lines[0] == "estimator,n,mean,bias,variance,mse,se"
        assert lines[1].startswith("ips,50,")
        assert text.endswith("\n")
        fields = lines[1].split(",")
        assert float(fields[2]) == 0.3
        assert float(fields[5]) == 0.0116

    def test_csv_deterministic(self):
        rows = [self.row(), self.row(estimator="snips", n=100)]
        assert csv_text(rows) == csv_text(rows)

    def test_row_closure_check(self):
        with pytest.raises(Exception):
            self.row(mse=0.5)


class TestManifest:
    def test_fingerprint_ignores_volatile_fields(self):
        a = RunManifest(
            tool_version="0.1.0",
            config_hash="abc",
            master_seed=7,
            environment="flip2",
            numpy_version="2.0.0",
            python_version="3.10.0",
            created_at="2026-08-23T00:00:00+00:00",
        )
        b = dataclasses.replace(a, python_version="3.12.0", created_at="2027-01-01T00:00:00+00:00")
        assert a.fingerprint() == b.fingerprint()
        c = dataclasses.replace(a, master_seed=8)
        assert a.fingerprint() != c.fingerprint()

    def test_build_manifest_records_environment(self):
        manifest = build_manifest(config_hash="h", master_seed=3, environment="flip2")
        payload = manifest.to_dict()
        assert payload["fingerprint"] == manifest.fingerprint()
        assert payload["numpy_version"] == np.__version__
        assert payload["master_seed"] == 3

    def test_build_manifest_never_truncates_the_seed(self):
        assert build_manifest(config_hash="h", master_seed=np.int64(3), environment="flip2").master_seed == 3
        for bad in (3.5, "3", True):
            with pytest.raises(ValidationError, match="master seed must be an integer"):
                build_manifest(config_hash="h", master_seed=bad, environment="flip2")


class TestPayload:
    def study(self):
        config = StudyConfig(
            scenario=get_scenario("flip2"),
            scenario_label="flip2",
            n_grid=(50,),
            replicates=100,
            master_seed=1,
            estimators=("ips",),
        )
        return run_mc_study(config)

    def test_tail_bounds_and_sections(self):
        study = self.study()
        manifest = build_manifest(config_hash="h", master_seed=1, environment="flip2")
        payload = study_payload("mc", study, manifest, {"extra_key": 1})
        assert payload["study"] == "mc"
        assert payload["extra_key"] == 1
        assert payload["half_mass_tail_bound"] == {
            "50": hoeffding_tail_bound(50, study.oracle.weight_bound)
        }
        target = payload["oracle"]["targets"][0]
        assert target["label"] == "value"
        assert target["beta_star"] == pytest.approx(0.1925, rel=1e-12)
        assert target["delta_per_sample"] == pytest.approx(0.0324, rel=1e-10)
        assert payload["rows"][0]["estimator"] == "ips"
        assert payload["manifest"]["fingerprint"] == manifest.fingerprint()


class TestAtomicWrites:
    def test_write_and_overwrite(self, tmp_path):
        path = tmp_path / "deep" / "file.txt"
        atomic_write(path, ("one\n",))
        assert path.read_text() == "one\n"
        atomic_write(path, ("two\n",))
        assert path.read_text() == "two\n"
        assert list(path.parent.iterdir()) == [path]

    def test_failed_write_removes_temp_and_keeps_target(self, tmp_path):
        path = tmp_path / "file.txt"
        atomic_write(path, ("old\n",))

        def chunks():
            yield "new\n"
            raise RuntimeError("renderer failed")

        with pytest.raises(RuntimeError, match="renderer failed"):
            atomic_write(path, chunks())
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text() == "old\n"

    def test_write_json_deterministic(self, tmp_path):
        path = tmp_path / "out.json"
        write_json({"b": 1, "a": [1, 2]}, path)
        text = path.read_text()
        assert text == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'

    def test_write_json_is_strict(self, tmp_path):
        # A non-finite number in a list or a tuple at any depth is written as null and named.
        path = tmp_path / "out.json"
        payload = {"a": [1.5, float("nan")], "b": {"c": (float("-inf"), 2)}, "d": True}
        write_json(payload, path)
        assert path.read_text() == (
            '{\n  "a": [\n    1.5,\n    null\n  ],\n  "b": {\n    "c": [\n      null,\n      2\n    ]\n  },\n'
            '  "d": true,\n  "non_finite": [\n    "a[1]",\n    "b.c[0]"\n  ]\n}\n'
        )
        assert payload["b"]["c"][0] == float("-inf")  # the caller's payload is left as it was
