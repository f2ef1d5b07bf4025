"""Command line interface: exit codes, outputs, and reproducibility."""

import json
import os

import numpy as np
import pytest
import yaml

from opekit import experiments, get_scenario, read_logs, sample_logs
from opekit.cli import OUT_DIR_ENV, main


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
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", None)
        config = write_config(tmp_path, n_grid=[50])
        assert run(capsys, "study", "--config", str(config),
                   "--out-dir", str(tmp_path), "--jobs", "1")[0] == 0
