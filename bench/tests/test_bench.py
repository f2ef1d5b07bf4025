"""Tests of the benchmark itself: its output checks and the metrics it prints.

    python3 -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import checks  # noqa: E402
from opekit.cli import main  # noqa: E402


@pytest.fixture(scope="module")
def study_run(tmp_path_factory):
    """CSV and JSON of a small mc study written twice by the CLI."""
    work = tmp_path_factory.mktemp("study")
    config = work / "small.yaml"
    config.write_text(
        json.dumps({"study": "mc", "environment": "flip2", "estimators": ["ips", "snips"],
                    "n_grid": [400], "replicates": 100, "seed": 7})
    )
    for out in ("a", "b"):
        assert main(["study", "--config", str(config), "--out-dir", str(work / out)]) == 0
    return work


def digests_of(work: Path, out: str):
    return checks.study_digests(work / out / "small.csv", work / out / "small.json")


def test_repeats_agree(study_run):
    first, fingerprint, _ = digests_of(study_run, "a")
    second, second_fingerprint, _ = digests_of(study_run, "b")
    assert fingerprint == second_fingerprint
    assert checks.check_repeats_identical([first, second]) == []


def test_corrupted_csv_is_rejected(study_run):
    csv_path = study_run / "b" / "small.csv"
    text = csv_path.read_text()
    csv_path.write_text(text.replace("ips,400,", "ips,401,", 1))
    try:
        first, _, _ = digests_of(study_run, "a")
        corrupted, _, _ = digests_of(study_run, "b")
        problems = checks.check_repeats_identical([first, corrupted])
    finally:
        csv_path.write_text(text)
    assert len(problems) == 1
    assert "csv" in problems[0]


def test_equal_fingerprint_with_different_digest_is_rejected(study_run):
    digests, fingerprint, _ = digests_of(study_run, "a")
    assert checks.check_recorded({fingerprint: dict(digests)}, fingerprint, digests) == []
    assert checks.check_recorded({"0" * 64: {"csv": "0" * 64}}, fingerprint, digests) == []
    recorded = {fingerprint: {**digests, "json_data": "0" * 64}}
    problems = checks.check_recorded(recorded, fingerprint, digests)
    assert len(problems) == 1
    assert "json_data" in problems[0]


def run_bench(cwd: Path, *args: str):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_prints_exactly_the_declared_metrics(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = run_bench(ROOT, "--workload", "logs-write", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    units = {metric["name"]: metric["unit"] for metric in declared[section]}
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == units


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run_bench(tmp_path, "--workload", "study-scalar", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
