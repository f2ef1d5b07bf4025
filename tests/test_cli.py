"""Command line interface: exit codes, outputs, and reproducibility."""

import concurrent.futures
import contextlib
import io
import json
import os
import re
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from opekit import (
    BanditEnv,
    BanditScenario,
    PolicyTable,
    PositionModel,
    RankingEnv,
    experiments,
    get_scenario,
    ips,
    oracle_report,
    read_logs,
    sample_logs,
    sample_ranked_logs,
    write_logs,
)
from opekit.cli import OUT_DIR_ENV, main
from opekit.errors import NonFiniteValue, ValidationError
from opekit.estimators import Rows
from opekit.simulator import compile_scenario

from conftest import cancelling_log


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def flip2_logs(tmp_path_factory):
    path = tmp_path_factory.mktemp("logs") / "flip2.jsonl"
    assert main(["simulate", "--preset", "flip2", "--n", "80", "--seed", "1", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def identity_logs(tmp_path_factory):
    path = tmp_path_factory.mktemp("logs") / "identity2.jsonl"
    assert main(["simulate", "--preset", "identity2", "--n", "40", "--seed", "1", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def ranked_logs(tmp_path_factory):
    path = tmp_path_factory.mktemp("logs") / "ranked.jsonl"
    assert main(["simulate", "--preset", "rankflip2x2", "--n", "40", "--seed", "2", "--out", str(path)]) == 0
    return path


class TestTopLevel:
    def test_help(self, capsys):
        code, out, _ = run(capsys, "-h")
        assert code == 0
        assert "Usage" in out

    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert "0.1.0" in out

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2
        assert "frobnicate" in err

    def test_presets_listing(self, capsys):
        code, out, _ = run(capsys, "presets")
        assert code == 0
        for name in ("const2", "flip2", "identity2", "rankflip2x2"):
            assert f"{name}: " in out


class TestSimulate:
    def test_writes_logs_and_manifest_sidecar(self, flip2_logs):
        sidecar = flip2_logs.with_name(flip2_logs.name + ".manifest.json")
        manifest = json.loads(sidecar.read_text())
        assert manifest["environment"] == "flip2"
        assert manifest["master_seed"] == 1
        assert manifest["tool_version"] == "0.1.0"
        assert len(manifest["fingerprint"]) == 64

    def test_repeat_runs_are_byte_identical(self, capsys, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            code, out, _ = run(
                capsys, "simulate", "--preset", "flip2", "--n", "25", "--seed", "7",
                "--out", str(path),
            )
            assert code == 0
            assert "25 entries" in out
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_matches_library_sampler(self, capsys, tmp_path):
        path = tmp_path / "lib.jsonl"
        assert run(capsys, "simulate", "--preset", "flip2", "--n", "15", "--seed", "7",
                   "--out", str(path))[0] == 0
        scenario = get_scenario("flip2")
        expected = sample_logs(
            scenario.env, scenario.logging_policy, scenario.target_policy,
            15, np.random.SeedSequence((7, 15, 0)),
        )
        loaded = read_logs(path)
        assert np.array_equal(loaded.weights, expected.weights)
        assert np.array_equal(loaded.rewards, expected.rewards)

    def test_default_output_respects_env_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        code, _, _ = run(capsys, "simulate", "--preset", "flip2", "--n", "5", "--seed", "3")
        assert code == 0
        assert (tmp_path / "flip2-n5-seed3.jsonl").exists()
        assert (tmp_path / "flip2-n5-seed3.jsonl.manifest.json").exists()

    def test_unknown_preset(self, capsys):
        code, _, err = run(capsys, "simulate", "--preset", "flip9", "--n", "5")
        assert code == 2
        assert "flip9" in err

    def test_bad_sample_count(self, capsys):
        assert run(capsys, "simulate", "--preset", "flip2", "--n", "0")[0] == 2

    @pytest.mark.parametrize("n", ["2305843009213693952", "100000000000000000000"])
    def test_sample_count_too_large_for_an_array_exits_2(self, capsys, tmp_path, n):
        code, _, err = run(capsys, "simulate", "--preset", "flip2", "--n", n, "--out", str(tmp_path / "a.jsonl"))
        assert code == 2
        assert len(err.splitlines()) == 1 and "must be at most" in err, err
        assert not (tmp_path / "a.jsonl").exists()


class TestEvaluate:
    def test_default_report(self, capsys, flip2_logs):
        code, out, _ = run(capsys, "evaluate", "--in", str(flip2_logs))
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "scalar"
        assert report["n"] == 80
        assert [e["estimator"] for e in report["estimates"]] == ["ips", "snips"]
        assert all(np.isfinite(e["value"]) for e in report["estimates"])
        assert np.isfinite(report["beta_star"])
        assert set(report["moments"]) >= {"mean_w", "mean_wr", "var_w", "var_wr", "cov_w_wr"}

    def test_full_scalar_battery(self, capsys, flip2_logs):
        code, out, _ = run(
            capsys, "evaluate", "--in", str(flip2_logs),
            "--estimators", "ips,snips,beta-ips:0.2,beta-star-ips,cf-beta-star-ips",
            "--folds", "4", "--cf-seed", "11",
        )
        assert code == 0
        estimates = {e["estimator"]: e for e in json.loads(out)["estimates"]}
        assert estimates["beta-ips:0.2"]["baseline_used"] == 0.2
        assert np.isfinite(estimates["cf-beta-star-ips"]["value"])
        assert estimates["ips"]["baseline_used"] is None

    @pytest.mark.parametrize(
        "ranked, estimators, true_value",
        [
            (False, "ips,snips,beta-ips:0.5,beta-star-ips,cf-beta-star-ips", []),
            (False, "ips,snips,beta-ips:0.5,beta-star-ips,cf-beta-star-ips", ["--true-value", "0.26"]),
            (True, "ipm,snipm,beta-perp-star-ipm", []),
        ],
        ids=["scalar", "scalar-true-value", "ranked"],
    )
    def test_a_log_is_reduced_once(
        self, capsys, monkeypatch, flip2_logs, ranked_logs, ranked, estimators, true_value
    ):
        # One block serves every estimator, the moments, beta_star and the variance
        # gap; only remainder_diagnostics, under --true-value, builds one of its own.
        built, init = [], Rows.__init__

        def counted(rows, w, wr):
            built.append(w.shape)
            init(rows, w, wr)

        monkeypatch.setattr(Rows, "__init__", counted)
        path = ranked_logs if ranked else flip2_logs
        code, out, _ = run(capsys, "evaluate", "--in", str(path), "--estimators", estimators, *true_value)
        assert code == 0
        assert len(json.loads(out)["estimates"]) == len(estimators.split(","))
        assert len(built) == 1 + bool(true_value)

    def test_true_value_adds_diagnostics(self, capsys, flip2_logs):
        code, out, _ = run(capsys, "evaluate", "--in", str(flip2_logs),
                           "--true-value", "0.26", "--gap")
        assert code == 0
        report = json.loads(out)
        remainder = report["remainder"]
        assert remainder["event_holds"] in (True, False)
        assert abs(remainder["max_abs_u"]) <= remainder["u_bound"]
        gap = report["variance_gap"]
        assert gap["gap_delta"] >= 0.0
        assert gap["n"] == 80

    def test_cancelling_weighted_rewards_pass_the_remainder_checks(self, capsys, tmp_path):
        # Weighted rewards near 1e9 that cancel in pairs: rounding of the summands is not a disagreement.
        path = tmp_path / "cancel.jsonl"
        write_logs(cancelling_log(10_000), path)
        code, out, err = run(capsys, "evaluate", "--in", str(path), "--true-value", "1e-8")
        assert (code, err) == (0, "")
        assert json.loads(out)["remainder"]["event_holds"]

    def test_gap_needs_true_value(self, capsys, flip2_logs):
        code, _, err = run(capsys, "evaluate", "--in", str(flip2_logs), "--gap")
        assert code == 2
        assert "true-value" in err

    def test_degenerate_estimator_reports_null(self, capsys, identity_logs):
        code, out, _ = run(capsys, "evaluate", "--in", str(identity_logs),
                           "--estimators", "ips,beta-star-ips")
        assert code == 0
        estimates = {e["estimator"]: e for e in json.loads(out)["estimates"]}
        assert np.isfinite(estimates["ips"]["value"])
        assert estimates["beta-star-ips"]["value"] is None
        assert "weights" in estimates["beta-star-ips"]["error"]

    def test_degenerate_weights_drop_the_gap(self, capsys, identity_logs):
        code, out, _ = run(capsys, "evaluate", "--in", str(identity_logs), "--true-value", "0.5")
        assert code == 0
        report = json.loads(out)
        assert report["beta_star"] is None
        assert report["variance_gap"] is None
        assert report["variance_gap_note"] == "weights have zero variance; the optimal baseline is undefined"
        assert report["remainder"]["w_bar"] == 1.0

    def test_unknown_estimator(self, capsys, flip2_logs):
        assert run(capsys, "evaluate", "--in", str(flip2_logs),
                   "--estimators", "dr")[0] == 2

    def test_weight_bound_override_revalidates(self, capsys, flip2_logs):
        code, _, err = run(capsys, "evaluate", "--in", str(flip2_logs),
                           "--weight-bound", "2.0")
        assert code == 2
        assert "weight" in err

    def test_missing_input_file(self, capsys, tmp_path):
        assert run(capsys, "evaluate", "--in", str(tmp_path / "absent.jsonl"))[0] == 4

    def test_out_file(self, capsys, flip2_logs, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "evaluate", "--in", str(flip2_logs), "--out", str(target))
        assert code == 0
        assert str(target) in out
        assert json.loads(target.read_text())["kind"] == "scalar"

    def test_ranked_report(self, capsys, ranked_logs):
        code, out, _ = run(capsys, "evaluate", "--in", str(ranked_logs),
                           "--estimators", "ipm,snipm,beta-perp-star-ipm")
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "ranked"
        assert report["k"] == 2
        assert len(report["moments"]) == 2
        for entry in report["estimates"]:
            assert len(entry["per_position"]) == 2
            assert np.isfinite(entry["value"])

    def test_ranked_rejects_scalar_estimators(self, capsys, ranked_logs):
        assert run(capsys, "evaluate", "--in", str(ranked_logs))[0] == 2

    def test_ranked_rejects_true_value(self, capsys, ranked_logs):
        assert run(capsys, "evaluate", "--in", str(ranked_logs),
                   "--estimators", "ipm", "--true-value", "0.5")[0] == 2

    @staticmethod
    def write_records(tmp_path, records):
        path = tmp_path / "ragged.jsonl"
        meta = {"_meta": {"reward_bound": 1.0, "weight_bound": 9.0}}
        path.write_text("".join(json.dumps(obj) + "\n" for obj in [meta, *records]))
        return path

    def test_ragged_scalar_contexts_exit_2(self, capsys, tmp_path):
        records = [
            {"context": context, "action": 0, "p_log": 0.9, "p_tgt": 0.1, "reward": 1.0}
            for context in (0, [1, 2], 3)
        ]
        code, _, err = run(capsys, "evaluate", "--in", str(self.write_records(tmp_path, records)))
        assert code == 2
        assert "context_ids" in err

    @pytest.mark.parametrize(
        "estimators, ranked",
        [("ips,snips", False), ("beta-star-ips", False), ("cf-beta-star-ips", False), ("beta-perp-star-ipm", True)],
        ids=["ips,snips", "beta-star-ips", "cf-beta-star-ips", "ranked-beta-perp-star-ipm"],
    )
    def test_squared_weight_overflow_is_one_error_line(self, capsys, tmp_path, estimators, ranked):
        # Weights 1e200 and 1 are finite and within the bound, their squares are not:
        # the variance of the weights is infinite, and no numpy warning comes first,
        # whether the estimators or the reported moments meet it first.
        records = [
            {"context": 0, "action": 0, "p_log": 1e-200, "p_tgt": 1.0, "reward": 1.0},
            {"context": 0, "action": 1, "p_log": 0.5, "p_tgt": 0.5, "reward": 0.0},
        ]
        if ranked:
            records = [{"context": r.pop("context"), "positions": [r]} for r in records]
        path = self.write_records(tmp_path, records)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, "evaluate", "--in", str(path), "--weight-bound", "1e201",
                               "--estimators", estimators)
        assert [str(warning.message) for warning in caught] == []
        assert (code, err) == (2, "error: var_w must be finite, got inf\n")

    @pytest.mark.parametrize("estimator", ["ips", "snips", "beta-ips:0.5", "beta-star-ips"])
    def test_weights_summing_past_the_float_range_is_one_error_line(self, capsys, tmp_path, estimator):
        # Two weights of 1e308 are within the bound, their sum is not: a block's means
        # pass the float range silently, whichever kernel reads them, and the reported
        # moments give the one error line.
        record = {"context": 0, "action": 0, "p_log": 1e-308, "p_tgt": 1.0, "reward": 1.0}
        path = self.write_records(tmp_path, [record, record])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run(capsys, "evaluate", "--in", str(path), "--weight-bound", "1e308",
                               "--estimators", estimator)
        assert (code, err) == (2, "error: mean_w must be finite, got inf\n")

    @pytest.mark.parametrize(
        "field, value", [("context", "NaN"), ("context", "Infinity"), ("action", "-Infinity")]
    )
    @pytest.mark.parametrize("other", ["1.5", "1180591620717411303424"], ids=["float-column", "object-column"])
    def test_non_finite_id_exit_2(self, capsys, tmp_path, field, value, other):
        # A log file written with such an id would not be JSON; the second id
        # makes the column float or, past the uint64 range, objects.
        path = self.write_records(tmp_path, [])
        record = '{"%s": %s, "p_log": 0.9, "p_tgt": 0.1, "reward": 1.0}\n'
        with path.open("a") as handle:
            handle.write(record % (field, value) + record % (field, other))
        code, _, err = run(capsys, "evaluate", "--in", str(path))
        assert (code, err) == (2, f"error: {field}_ids must not hold a NaN or infinite id\n")

    def test_kind_mismatch_has_one_wording(self, capsys, tmp_path, flip2_logs):
        # The Python estimators, evaluate and study share one kind rule.
        code, _, err = run(capsys, "evaluate", "--in", str(flip2_logs), "--estimators", "ips,ipm")
        assert (code, err) == (2, "error: ipm does not apply to scalar data\n")
        config = write_config(tmp_path, estimators=["ips", "ipm"])
        code, _, err = run(capsys, "study", "--config", str(config), "--out-dir", str(tmp_path / "out"))
        assert (code, err) == (2, "error: ipm does not apply to scalar data\n")
        ranked = sample_ranked_logs(get_scenario("rankflip2x2"), 20, np.random.default_rng(0))
        with pytest.raises(ValidationError, match=r"^ips does not apply to ranked data$"):
            ips(ranked)

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_huge_integer_exit_2(self, capsys, tmp_path, digits):
        path = self.write_records(tmp_path, [])
        record = '{"context": 0, "action": 0, "p_log": 0.9, "p_tgt": 0.1, "reward": %s}\n'
        with path.open("a") as handle:
            handle.write(record % "1.0" + record % ("7" * digits))
        code, _, err = run(capsys, "evaluate", "--in", str(path))
        assert code == 2
        assert err.startswith("error: line 3: ") and "Traceback" not in err

    def test_deep_nesting_exit_2(self, capsys, tmp_path):
        path = self.write_records(tmp_path, [])
        with path.open("a") as handle:
            handle.write("[" * 100000 + "\n")
        code, _, err = run(capsys, "evaluate", "--in", str(path))
        assert code == 2
        assert err == "error: line 2: JSON nested too deeply\n"

    def test_not_utf8_exit_2(self, capsys, tmp_path):
        path = tmp_path / "utf16.jsonl"
        path.write_bytes(b"\xff\xfe" + '{"_meta":{}}\n'.encode("utf-16-le"))
        code, _, err = run(capsys, "evaluate", "--in", str(path))
        assert code == 2
        assert err.startswith(f"error: {path} is not UTF-8 text: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "inserts, at, reason",
        [
            ([(100000, b"\xff")], 100000, "invalid start byte"),
            # A sequence cut where two chunks of the binary re-read meet.
            ([(3 * io.DEFAULT_BUFFER_SIZE - 1, b"\xe2\x82")], 3 * io.DEFAULT_BUFFER_SIZE - 1, "invalid continuation byte"),
            # Line 1 is not JSON, and the bad byte blocks later is still the error.
            ([(0, b"\xc3\xa9"), (1000000, b"\xff")], 1000000, "invalid start byte"),
        ],
        ids=["past-the-first-chunk", "cut-at-a-chunk-boundary", "after-a-parse-error"],
    )
    def test_not_utf8_names_the_file_offset(self, capsys, tmp_path, inserts, at, reason):
        path = tmp_path / "logs.jsonl"
        assert run(capsys, "simulate", "--preset", "flip2", "--n", "20000", "--out", str(path))[0] == 0
        data = path.read_bytes()
        for offset, piece in inserts:
            data = data[:offset] + piece + data[offset:]
        path.write_bytes(data)
        code, _, err = run(capsys, "evaluate", "--in", str(path))
        assert (code, err) == (2, f"error: {path} is not UTF-8 text: {reason} at byte {at}\n")

    def test_ragged_ranked_actions_exit_2(self, capsys, tmp_path):
        records = [
            {
                "context": 0,
                "positions": [
                    {"action": action, "p_log": 0.9, "p_tgt": 0.1, "reward": 1.0}
                    for action in actions
                ],
            }
            for actions in ((0, 1), (1, [0, 1]))
        ]
        code, _, err = run(capsys, "evaluate", "--in", str(self.write_records(tmp_path, records)),
                           "--estimators", "ipm")
        assert code == 2
        assert "action_ids" in err


_NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")

#: Edits of a valid log file: a flipped byte, a number replaced by a huge or
#: odd one, a byte order mark, CRLF line ends, a U+2028 inserted anywhere.
_MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), st.floats(0, 1, exclude_max=True), st.integers(1, 255)),
    st.tuples(
        st.just("number"),
        st.floats(0, 1, exclude_max=True),
        st.sampled_from([b"7" * 400, b"7" * 5000, b"1e309", b"-1e308", b"4.9e-324", b"NaN", b"-0", b"1" * 30]),
    ),
    st.tuples(st.just("bom")),
    st.tuples(st.just("crlf")),
    st.tuples(st.just("u2028"), st.floats(0, 1, exclude_max=True)),
)


def _mutate(data: bytes, mutation) -> bytes:
    kind, *args = mutation
    if kind == "flip":
        at = int(args[0] * len(data))
        return data[:at] + bytes([data[at] ^ args[1]]) + data[at + 1 :]
    if kind == "number":
        spans = [m.span() for m in _NUMBER.finditer(data)]
        if not spans:
            return data
        start, stop = spans[int(args[0] * len(spans))]
        return data[:start] + args[1] + data[stop:]
    if kind == "bom":
        return b"\xef\xbb\xbf" + data
    if kind == "crlf":
        return data.replace(b"\n", b"\r\n")
    at = int(args[0] * len(data))
    return data[:at] + "\u2028".encode() + data[at:]


class TestEvaluateFuzz:
    @settings(max_examples=50)
    @given(ranked=st.booleans(), mutations=st.lists(_MUTATIONS, min_size=1, max_size=4))
    def test_mutated_logs_exit_with_a_documented_code(self, flip2_logs, ranked_logs, tmp_path_factory,
                                                      ranked, mutations):
        data = (ranked_logs if ranked else flip2_logs).read_bytes()
        for mutation in mutations:
            data = _mutate(data, mutation)
        path = tmp_path_factory.mktemp("fuzz") / "mutated.jsonl"
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["evaluate", "--in", str(path)])
        assert code in (0, 2, 3, 4), err.getvalue()
        assert "Traceback" not in err.getvalue()


#: Table entries a hand-written study file may hold besides probabilities:
#: a target over one within the row-sum tolerance, a number past one, tiny
#: propensities whose weights overflow, non-finite and huge numbers, and
#: leaves that are not numbers.
_ODD_ENTRIES = st.sampled_from(
    [1.0 + 5e-10, 1.5, -0.0, -0.25, 1e-310, 5e-324, float("inf"), float("nan"), 10**400, True, "0.5", None]
)


@st.composite
def _probability_rows(draw, rows, cols, support=None):
    """Normalised rows with zero cells anywhere; with ``support``, zero outside that table's support."""
    table = []
    for i in range(rows):
        allowed = [j for j in range(cols) if support is None or support[i][j] > 0]
        counts = [draw(st.integers(0, 3)) if j in allowed else 0 for j in range(cols)]
        if not any(counts):
            counts[draw(st.sampled_from(allowed))] = 1
        table.append([c / sum(counts) for c in counts])
    return table


@st.composite
def _study_environments(draw):
    """Inline bandit or ranking environments of 1-3 contexts by 1-3 actions, then up to two edits.

    An edit puts an odd entry into a row or drops a row's last cell.
    """
    contexts, actions = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def position():
        logging = draw(_probability_rows(contexts, actions))
        return {
            "logging_policy": logging,
            "target_policy": draw(_probability_rows(contexts, actions, support=logging)),
            "reward_means": draw(_probability_rows(contexts, actions)),
        }

    env = {"context_probs": draw(_probability_rows(1, contexts))[0]}
    if draw(st.booleans()):
        env.update(kind="bandit", **position())
        positions = [env]
    else:
        positions = [position() for _ in range(draw(st.integers(1, 2)))]
        env.update(kind="ranking", positions=positions)
    rows = [env["context_probs"]] + [row for pos in positions for key in sorted(_TABLE_KEYS) for row in pos[key]]
    for _ in range(draw(st.integers(0, 2))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if draw(st.booleans()):
            row[draw(st.integers(0, len(row) - 1))] = draw(_ODD_ENTRIES)
        elif len(row) > 1:
            row.pop()
    return env


_TABLE_KEYS = ("logging_policy", "target_policy", "reward_means")


class TestStudyFuzz:
    @settings(max_examples=50)
    @given(
        kind=st.sampled_from(["mc", "dominance", "decay", "bias-rate"]),
        environment=_study_environments(),
        n_grid=st.sampled_from([[2, 3], [5], [2, 6, 20, 64]]),
    )
    def test_generated_studies_exit_with_a_documented_code(self, tmp_path_factory, kind, environment, n_grid):
        directory = tmp_path_factory.mktemp("study-fuzz")
        path = directory / "study.yaml"
        payload = {"study": kind, "environment": environment, "n_grid": n_grid, "replicates": 100, "seed": 0}
        path.write_text(yaml.safe_dump(payload))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["study", "--config", str(path), "--out-dir", str(directory)])
        assert code in (0, 2, 3, 4), err.getvalue()
        assert "Traceback" not in err.getvalue()


def write_config(tmp_path, name="study.yaml", **overrides):
    payload = {
        "study": "mc",
        "environment": "flip2",
        "n_grid": [50, 100],
        "replicates": 100,
        "seed": 3,
    }
    payload.update(overrides)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return path


class TestStudy:
    def run_study(self, capsys, config, out_dir, *extra):
        out_dir.mkdir(exist_ok=True)
        code, _, err = run(capsys, "study", "--config", str(config),
                           "--out-dir", str(out_dir), *extra)
        assert code == 0, err
        return out_dir / f"{config.stem}.csv", out_dir / f"{config.stem}.json"

    def test_mc_outputs(self, capsys, tmp_path):
        config = write_config(tmp_path)
        csv_path, json_path = self.run_study(capsys, config, tmp_path / "out")
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "estimator,n,mean,bias,variance,mse,se"
        assert len(lines) == 1 + 2 * 3
        payload = json.loads(json_path.read_text())
        assert payload["study"] == "mc"
        assert payload["oracle"]["targets"][0]["value"] == pytest.approx(0.26)
        assert set(payload["half_mass_tail_bound"]) == {"50", "100"}
        assert payload["manifest"]["environment"] == "flip2"

    def test_reruns_and_jobs_are_identical(self, capsys, tmp_path):
        config = write_config(tmp_path)
        first = self.run_study(capsys, config, tmp_path / "one")
        second = self.run_study(capsys, config, tmp_path / "two", "--jobs", "2")
        assert first[0].read_bytes() == second[0].read_bytes()
        payloads = [json.loads(path.read_text()) for path in (first[1], second[1])]
        stamps = [p["manifest"].pop("created_at") for p in payloads]
        assert all(isinstance(s, str) for s in stamps)
        assert payloads[0] == payloads[1]

    def test_dominance_requires_distinct_baseline(self, capsys, tmp_path):
        config = write_config(tmp_path, study="dominance", environment="const2")
        code, _, err = run(capsys, "study", "--config", str(config),
                           "--out-dir", str(tmp_path))
        assert code == 3
        assert "baseline" in err or "precondition" in err.lower()

    def test_schema_violation(self, capsys, tmp_path):
        config = write_config(tmp_path, replicates=50)
        assert run(capsys, "study", "--config", str(config),
                   "--out-dir", str(tmp_path))[0] == 2

    def test_decay_grid_precondition(self, capsys, tmp_path):
        config = write_config(tmp_path, study="decay", n_grid=[100, 200, 400])
        code, _, err = run(capsys, "study", "--config", str(config),
                           "--out-dir", str(tmp_path))
        assert code == 2
        assert "grid" in err

    @pytest.mark.parametrize("table", ["reward_means", "logging_policy"])
    def test_ragged_table_exits_2(self, capsys, tmp_path, table):
        environment = {
            "kind": "bandit",
            "context_probs": [0.5, 0.5],
            "reward_means": [[0.2, 0.8], [0.5, 0.5]],
            "logging_policy": [[0.5, 0.5], [0.9, 0.1]],
            "target_policy": [[0.1, 0.9], [0.5, 0.5]],
        }
        environment[table] = [[0.5, 0.5], [1.0]]
        config = write_config(tmp_path, environment=environment)
        code, _, err = run(capsys, "study", "--config", str(config), "--out-dir", str(tmp_path))
        assert code == 2
        assert "rectangular" in err
        assert "Traceback" not in err

    def test_overflowing_weight_exits_2_naming_its_cell(self, capsys, tmp_path):
        # 0.5 / 1e-310 overflows a float: the scenario fails to compile, before
        # its oracle, with one error line and no numpy warning.
        environment = {
            "kind": "bandit",
            "context_probs": [1.0],
            "reward_means": [[0.2, 0.8]],
            "logging_policy": [[1.0e-310, 1.0]],
            "target_policy": [[0.5, 0.5]],
        }
        config = write_config(tmp_path, environment=environment)
        code, _, err = run(capsys, "study", "--config", str(config), "--out-dir", str(tmp_path))
        assert code == 2
        assert err.splitlines() == ["error: weight is not finite at context 0, action 0"]
        env = BanditEnv(environment["context_probs"], environment["reward_means"])
        logging, target = PolicyTable(environment["logging_policy"]), PolicyTable(environment["target_policy"])
        scenario = BanditScenario(env, logging, target)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for call in (
                lambda: compile_scenario(scenario),
                lambda: oracle_report(scenario),
                lambda: sample_logs(env, logging, target, 10, 0),
            ):
                with pytest.raises(NonFiniteValue) as info:
                    call()
                assert (info.value.cell, info.value.position) == ((0, 0), None)
                assert f"error: {info.value}" == err.strip()
            # A ranked scenario's error names the position as well.
            fine = PositionModel(target, target, env.reward_means)
            with pytest.raises(NonFiniteValue, match=r"at context 0, action 0, position 2$"):
                compile_scenario(RankingEnv(env.context_probs, (fine, PositionModel(logging, target, env.reward_means))))
        assert caught == []

    def test_weight_whose_square_overflows_exits_2(self, capsys, tmp_path):
        # 0.5 / 1e-200 is a float, but its square, which the oracle's moments
        # take, is not: the scenario fails to compile with one error line.
        environment = {
            "kind": "bandit",
            "context_probs": [1.0],
            "reward_means": [[0.2, 0.8]],
            "logging_policy": [[1.0e-200, 1.0]],
            "target_policy": [[0.5, 0.5]],
        }
        config = write_config(tmp_path, environment=environment)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, "study", "--config", str(config), "--out-dir", str(tmp_path))
        assert code == 2
        assert err.splitlines() == ["error: squared weight is not finite at context 0, action 0"]
        assert caught == []

    @pytest.mark.parametrize("baseline", ["1e308", "1e307"])
    def test_cell_statistics_past_the_float_range_exit_3(self, capsys, tmp_path, baseline):
        # Estimates near the float maximum: the cell's mean, variance or mse is
        # not finite, which neither the CSV nor the JSON report can hold.
        config = write_config(tmp_path, estimators=[f"beta-ips:{baseline}"], n_grid=[50])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run(capsys, "study", "--config", str(config), "--out-dir", str(tmp_path))
        assert code == 3
        assert len(err.splitlines()) == 1
        assert err.startswith("error: beta-ips:") and " at n=50: cell statistics are not finite" in err
        assert not (tmp_path / "study.csv").exists()

    def test_infinite_estimates_are_values_not_failures(self, capsys, tmp_path):
        # A fixed baseline near the float maximum takes some estimates past the float
        # range. They are values of an estimator without preconditions, not failed
        # replicates, so the cell's statistics, not its failure rate, fail the study.
        config = write_config(tmp_path, estimators=["beta-ips:5e307"], n_grid=[3], replicates=400)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run(capsys, "study", "--config", str(config), "--out-dir", str(tmp_path))
        assert code == 3
        assert err.splitlines() == [
            "error: beta-ips:5e+307 at n=3: cell statistics are not finite (mean nan, variance nan, mse inf); "
            "the estimates reach the float range"
        ]

    def test_ranked_total_past_the_float_range_exit_3(self, capsys, tmp_path):
        # Each position's estimates are floats, their totals are not: exit 3 on the
        # cell statistics, with no numpy warning from summing the positions.
        config = write_config(
            tmp_path, environment="rankflip2x2", estimators=["beta-ipm:1.5e308,1.5e308"], n_grid=[50], seed=1
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run(capsys, "study", "--config", str(config), "--out-dir", str(tmp_path))
        assert code == 3
        assert len(err.splitlines()) == 1
        assert err.startswith("error: beta-ipm:") and " at n=50: cell statistics are not finite" in err

    def test_ranked_failure_rate_names_the_metric(self, capsys, tmp_path):
        # A replicate fails when any position fails, so the count is the metric's, not its first column's.
        config = write_config(
            tmp_path, environment="rankflip2x2", estimators=["beta-perp-star-ipm"], n_grid=[3], seed=1
        )
        code, _, err = run(capsys, "study", "--config", str(config), "--out-dir", str(tmp_path))
        assert (code, err) == (
            3,
            "error: beta-perp-star-ipm failed on 93/100 replicates at n=3 (more than 1% invalidates the study)\n",
        )

    def test_support_violation_names_its_position(self, capsys, tmp_path):
        environment = {
            "kind": "ranking",
            "context_probs": [1.0],
            "positions": [
                {"logging_policy": [[0.5, 0.5]], "target_policy": [[0.1, 0.9]], "reward_means": [[0.2, 0.8]]},
                {"logging_policy": [[1.0, 0.0]], "target_policy": [[0.1, 0.9]], "reward_means": [[0.2, 0.8]]},
            ],
        }
        config = write_config(tmp_path, environment=environment)
        code, _, err = run(capsys, "study", "--config", str(config), "--out-dir", str(tmp_path))
        assert (code, err) == (
            2,
            "error: position 2: target policy has positive probability where the logging "
            "policy has zero: (context 0, action 1)\n",
        )

    @pytest.mark.parametrize(
        "kind, environment, grid",
        [("dominance", "rankflip2x2", [50, 100]), ("decay", "flip2", [100, 400, 1600, 6400])],
    )
    def test_fixed_estimator_study_rejects_estimators(self, capsys, tmp_path, kind, environment, grid):
        config = write_config(tmp_path, study=kind, environment=environment, n_grid=grid, estimators=["ipm"])
        code, _, err = run(capsys, "study", "--config", str(config), "--out-dir", str(tmp_path))
        assert code == 2
        assert "takes no estimators" in err
        assert not (tmp_path / "study.csv").exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("replicates", 10**400),
            ("n_grid", [50, 10**30]),
            ("n_grid", [50, 1e30]),
            # Each fits an array dimension, but not numpy's largest array in bytes.
            ("n_grid", [3074457345618258602]),
            ("n_grid", [50, (2**63 - 1) // 24 + 1]),
            ("replicates", 4611686018427387904),
        ],
        ids=[
            "replicates-401-digits",
            "n_grid-int-1e30",
            "n_grid-float-1e30",
            "n_grid-a-third-of-intp-max",
            "n_grid-one-past-the-largest",
            "replicates-2-to-the-62",
        ],
    )
    def test_integer_too_large_for_an_array_exits_2(self, capsys, tmp_path, field, value):
        # Such a value would size an array past numpy's largest dimension or size in bytes.
        config = write_config(tmp_path, **{field: value})
        code, _, err = run(capsys, "study", "--config", str(config), "--out-dir", str(tmp_path))
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {field} ") and "must be at most" in err
        assert not (tmp_path / "study.csv").exists()

    def test_result_matrix_too_large_for_memory_exits_4(self, capsys, tmp_path):
        # 10**15 replicates fit an array dimension; allocating their results fails at once.
        config = write_config(tmp_path, replicates=10**15)
        code, _, err = run(capsys, "study", "--config", str(config), "--out-dir", str(tmp_path), "--jobs", "1")
        assert code == 4
        assert len(err.splitlines()) == 1 and err.startswith("memory error: "), err
        assert not (tmp_path / "study.csv").exists()

    def test_missing_config_file(self, capsys, tmp_path):
        assert run(capsys, "study", "--config", str(tmp_path / "no.yaml"),
                   "--out-dir", str(tmp_path))[0] == 4


def exit_worker(*args):
    """Stand-in for the replicate engine that kills the worker process running it."""
    os._exit(1)


class TestWorkerFailures:
    """Failures of the --jobs worker pool exit with code 4, not a traceback."""

    def test_dead_worker(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "_replicate_range", exit_worker)
        config = write_config(tmp_path, n_grid=[50])
        code, _, err = run(capsys, "study", "--config", str(config),
                           "--out-dir", str(tmp_path), "--jobs", "2")
        assert code == 4
        assert err.startswith("worker error: a worker process terminated abruptly")
        assert not (tmp_path / "study.csv").exists()

    def test_work_that_cannot_be_pickled(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "_replicate_range", lambda *args: None)
        config = write_config(tmp_path, n_grid=[50])
        code, _, err = run(capsys, "study", "--config", str(config),
                           "--out-dir", str(tmp_path), "--jobs", "2")
        assert code == 4
        assert err.startswith("worker error: cannot send the work to worker processes")

    def test_one_worker_needs_no_pool(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
        config = write_config(tmp_path, n_grid=[50])
        assert run(capsys, "study", "--config", str(config),
                   "--out-dir", str(tmp_path), "--jobs", "1")[0] == 0


def strict_json(text: str):
    """Parse JSON that holds no ``NaN`` or infinity, which strict JSON forbids."""
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    """Every output is strict JSON: a number that is not finite is null, named in a ``non_finite`` note."""

    def test_unbounded_diagnostics_are_null(self, capsys, tmp_path):
        # Weights up to 2e149: r * w * (1 + w) of the declared bound and the gap pass the float range.
        logs = tmp_path / "huge.jsonl"
        logs.write_text(
            '{"_meta":{"reward_bound":1.0,"weight_bound":1e201}}\n'
            '{"context":0,"action":0,"p_log":1e-150,"p_tgt":1.0,"reward":1.0}\n'
            + '{"context":0,"action":1,"p_log":0.5,"p_tgt":0.5,"reward":0.0}\n' * 2
        )
        args = ("evaluate", "--in", str(logs), "--true-value", "0.5", "--gap")
        code, out, err = run(capsys, *args)
        assert (code, err) == (0, "")
        report = strict_json(out)
        assert report["remainder"]["u_bound"] is None
        assert report["variance_gap"]["gap_delta"] is None
        assert report["non_finite"] == ["remainder.u_bound", "variance_gap.gap_delta"]
        assert report["remainder"]["t_bound"] == 1e201
        assert run(capsys, *args, "--out", str(tmp_path / "report.json"))[0] == 0
        assert strict_json((tmp_path / "report.json").read_text()) == report

    def test_estimate_past_the_float_range_is_null(self, capsys, tmp_path):
        # beta * (1 - mean(w)) = 1e308 * -8 passes the float range: no numpy warning, a null value.
        logs = tmp_path / "nine.jsonl"
        logs.write_text(
            '{"_meta":{"reward_bound":1.0,"weight_bound":9.0}}\n'
            '{"context":0,"action":1,"p_log":0.1,"p_tgt":0.9,"reward":1.0}\n'
            '{"context":1,"action":1,"p_log":0.1,"p_tgt":0.9,"reward":0.0}\n'
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, "evaluate", "--in", str(logs), "--estimators", "beta-ips:1e308")
        assert (code, err) == (0, "")
        report = strict_json(out)
        assert report["estimates"][0]["value"] is None and report["estimates"][0]["baseline_used"] == 1e308
        assert report["non_finite"] == ["estimates[0].value"]

    def test_ranked_total_past_the_float_range_is_null(self, capsys, tmp_path):
        # Two positions of 1e308 each: the total passes the float range, with no numpy warning.
        logs = tmp_path / "ranked.jsonl"
        position = '{"action":0,"p_log":1e-308,"p_tgt":1.0,"reward":1.0}'
        logs.write_text(
            '{"_meta":{"reward_bound":1.0,"weight_bound":1e308}}\n'
            f'{{"context":0,"positions":[{position},{position}]}}\n'
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, "evaluate", "--in", str(logs), "--estimators", "ipm")
        assert (code, err) == (0, "")
        report = strict_json(out)
        assert [p["value"] for p in report["estimates"][0]["per_position"]] == [1e308, 1e308]
        assert report["estimates"][0]["value"] is None
        assert report["non_finite"] == ["estimates[0].value"]

    def test_every_output(self, capsys, tmp_path, flip2_logs, ranked_logs):
        outputs = []
        for args in (
            ("evaluate", "--in", str(flip2_logs), "--true-value", "0.26", "--gap",
             "--estimators", "ips,snips,beta-ips:0.5,beta-star-ips,cf-beta-star-ips"),
            ("evaluate", "--in", str(ranked_logs), "--estimators", "ipm,snipm,beta-perp-star-ipm"),
        ):
            code, out, _ = run(capsys, *args)
            assert code == 0
            outputs.append(out)
        logs = tmp_path / "logs.jsonl"
        assert run(capsys, "simulate", "--preset", "flip2", "--n", "50", "--out", str(logs))[0] == 0
        assert run(capsys, "evaluate", "--in", str(logs), "--out", str(tmp_path / "report.json"))[0] == 0
        config = write_config(tmp_path, n_grid=[50])
        assert run(capsys, "study", "--config", str(config), "--out-dir", str(tmp_path))[0] == 0
        outputs += [(tmp_path / name).read_text() for name in ("logs.jsonl.manifest.json", "report.json", "study.json")]
        for text in outputs:
            assert "non_finite" not in strict_json(text)
