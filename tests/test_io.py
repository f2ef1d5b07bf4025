"""Log file round trips, result tables, and run manifests."""

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    _record_format,
    _Scan,
    _scan_blocks,
    _scan_lines,
    _scan_text,
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
        patch.setattr(opekit.io, "_scan_blocks", lambda text, scan: (0, 1))
        return read_logs(path, **bounds)


def block_scan_end(text) -> int:
    """The offset at which the block scan of ``text`` leaves the rest to the line reader."""
    return _scan_blocks(text, _Scan())[0]


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


def _reference_id(value):
    if value is None or isinstance(value, (str, bool)):
        return value
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return str(value)


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


# Id kinds the writer renders as null, short integers or strings without escapes
# (numpy booleans become "True" and "False"), which the block scan reads; the
# other kinds are read line by line.
SCANNED_ID_KINDS = {"none", "int64", "uint8", "bool"}


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
        # Written like json.dumps writes them; read_logs drops ids when any is null.
        ids = np.array([None, 7, "x", 2.5, True, np.int32(4)], dtype=object)
        p_log, p_tgt, rewards = crafted_columns((6,))
        dataset = Dataset.from_arrays(
            p_log, p_tgt, rewards, reward_bound=1.0, weight_bound=20.0, context_ids=ids
        )
        assert_same_text(logs_text(dataset), reference_logs_text(dataset))

    def test_sampled_ranked(self, tmp_path):
        self.check(sample_ranked_logs(get_scenario("rankflip2x2"), 5000, 9), tmp_path)


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
    """Logs in the writer's layout with any JSON-like texts in its slots, and a few lines disturbed."""
    ranked = draw(st.booleans())
    k = draw(st.integers(1, 3)) if ranked else 1
    fmt = _record_format(ranked, k)
    records = [
        st.tuples(*[ids] + [ids, numbers, numbers, numbers] * k)
        for ids, numbers in ((WRITER_IDS, WRITER_NUMBERS), (WRITER_IDS, WRITER_NUMBERS), (ID_TEXTS, NUMBER_TEXTS))
    ]
    lines = [fmt % record for record in draw(st.lists(st.one_of(records), min_size=1, max_size=6))]
    for i in draw(st.sets(st.integers(0, len(lines) - 1), max_size=2)):
        lines[i] = draw(DISTURBANCES)(lines[i])
    header = draw(st.sampled_from(["", opekit.io._META]))
    if header:
        header %= (draw(NUMBER_TEXTS), draw(NUMBER_TEXTS))
    return header + "".join(lines)


def exact(value):
    """A value's type and, for a float, its bits, so that == tells -0.0 from 0.0."""
    return type(value), np.float64(value).tobytes() if isinstance(value, float) else value


def scan_outcome(scan_text, text):
    """The error a scan raises, or what it read, value by value."""
    try:
        scan = scan_text(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    read = (scan.meta, *scan.columns, scan.contexts, scan.actions, scan.lines)
    return scan.kind, scan.k, [list(map(exact, values)) for values in read]


class TestBlockScan:
    @settings(max_examples=300)
    @given(log_texts())
    @example('{"context":0,"action":-0,"p_log":-0,"p_tgt":5e-324,"reward":1e400}\n')
    @example('{"context":12345678901234567,"action":"é x","p_log":-0.0,"p_tgt":1E-400,"reward":0}\n')
    @example('{"context":null,"action":"","p_log":12345678901234567,"p_tgt":-99999999999999999,"reward":1.5e308}\n')
    def test_reads_as_the_line_reader_does(self, text):
        # The line reader alone is json.loads + _number on every line. Blocks of two
        # entries let the block scan stop part way through these short texts.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(opekit.io, "BLOCK_ENTRIES", 2)
            got = scan_outcome(_scan_text, text)
        assert got == scan_outcome(lambda text: _scan_lines(text, 1, _Scan()), text)

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

    def test_null_ids_drop_every_id_on_both_paths(self, tmp_path):
        lines = [line.replace("REWARD", "1.0") for line in self.BASE]
        lines[2] = lines[2].replace('"context":1', '"context":null')
        path = tmp_path / "in.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert block_scan_end(path.read_text()) == path.stat().st_size
        loaded = read_logs(path)
        assert loaded.context_ids is None and list(loaded.action_ids) == [1, 0, 1]
        assert_both_paths_agree(path)

    @pytest.mark.parametrize("digits", [400, 5000])
    @pytest.mark.parametrize("field", ["reward", "reward_bound"])
    def test_huge_integers_are_parse_errors(self, digits, field, tmp_path):
        text = "\n".join(line.replace("REWARD", "1.0") for line in self.BASE) + "\n"
        line = 1 if field == "reward_bound" else 3
        text = text.replace(f'"{field}":{"1.0" if field == "reward_bound" else "0.0"}', f'"{field}":-{"9" * digits}')
        path = tmp_path / "in.jsonl"
        path.write_text(text)
        assert _scan_blocks(text, _Scan())[1] <= line
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
        assert _scan_blocks(text, _Scan())[1] == 2 * 8192 + 2
        path.write_text(text)
        assert read_logs(path).n == 2 * 8192 + 5
        assert_both_paths_agree(path)
        lines[-2] = re.sub('"p_log":[^,]*', '"p_log":0.0', lines[-2])
        path.write_text("\n".join(lines))
        with pytest.raises(NonPositiveLoggingPropensity) as info:
            read_logs(path)
        assert (info.value.index, info.value.line) == (2 * 8192 + 4, 2 * 8192 + 7)
        assert_both_paths_agree(path)


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

    def test_partial_ids_are_dropped(self, tmp_path):
        path = self.write(
            tmp_path,
            [self.meta(), self.record(context=1, action=0), self.record()],
        )
        loaded = read_logs(path)
        assert loaded.context_ids is None
        assert loaded.action_ids is None
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
            mean_estimate=0.3,
            bias=0.04,
            variance=0.01,
            mse=0.0116,
            std_error=0.005,
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
            "50": hoeffding_tail_bound(50, study.weight_bound)
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
