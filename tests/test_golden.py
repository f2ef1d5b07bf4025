"""Golden-bytes regression test for study outputs.

Reruns of a study are compared with each other elsewhere (acceptance
criterion 9); that cannot see a change that shifts the same bits on every
run. This test pins the SHA-256 digests of short studies of every kind
(scalar and ranked ``mc``, ranked ``dominance``, ``decay`` and
``bias-rate``) and of four ``opekit evaluate`` reports, all run through
the CLI. The ``mc``/``dominance`` digests were recorded before the block
replicate engine replaced the per-replicate loop, ``mc-identity2`` before
the oracle targets came to hold their variance gap as one report, the
others before the estimator registry and the single study grid loop
replaced the per-kind code. Release 0.2.0 takes cross-fitting's complement
means by subtraction, which moves cross-fitted values by a few ulps: the
``mc`` study and the ``flip2`` evaluation were re-recorded then. The other
two runs of ``cf-beta-star-ips`` (``identity2``, whose sums are exact, and
``flip2-unequal-folds``) and every digest without it held.
A study's JSON digest covers the report without its ``manifest`` block,
which records a creation time; an evaluate digest covers the report
without its ``source`` path.

Floating-point bits depend on numpy's kernels, so the digests are keyed
by numpy version and the test skips on a version with no recorded
digests. To record them for a new version, run the studies on a commit
known to be correct and add an entry.
"""

import hashlib
import json

import numpy as np
import pytest
import yaml

from opekit.cli import main

SEED = 20260823
STUDIES = {
    "mc": {
        "study": "mc",
        "environment": "flip2",
        "n_grid": [400, 1600],
        "replicates": 100,
        "seed": SEED,
        "estimators": [
            "ips",
            "snips",
            "beta-ips:0.1925",
            "beta-star-ips",
            "cf-beta-star-ips",
            "remainder-sq",
        ],
        "folds": 5,
    },
    "dominance": {
        "study": "dominance",
        "environment": "rankflip2x2",
        "n_grid": [400, 1600],
        "replicates": 100,
        "seed": SEED,
    },
    # Degenerate weights: the oracle has moments but a null optimal baseline and gap.
    "mc-identity2": {
        "study": "mc",
        "environment": "identity2",
        "n_grid": [400, 1600],
        "replicates": 100,
        "seed": SEED,
        "estimators": ["ips", "snips"],
    },
    "mc-ranked": {
        "study": "mc",
        "environment": "rankflip2x2",
        "n_grid": [400, 1600],
        "replicates": 100,
        "seed": SEED,
        "estimators": ["ipm", "snipm", "beta-ipm:0.1,0.2", "beta-perp-star-ipm"],
    },
    "decay": {
        "study": "decay",
        "environment": "flip2",
        "n_grid": [100, 400, 1600, 6400],
        "replicates": 100,
        "seed": SEED,
    },
    "bias-rate": {
        "study": "bias-rate",
        "environment": "flip2",
        "n_grid": [100, 400, 1600, 6400],
        "replicates": 100,
        "seed": SEED,
    },
}

# name -> (preset, entries, evaluate arguments after --in). Comma-separated
# estimator lists cannot carry two baselines, so beta-ipm is not evaluated
# on the two-position log.
EVALUATIONS = {
    "flip2": (
        "flip2",
        2000,
        ["--estimators", "ips,snips,beta-ips:0.1925,beta-star-ips,cf-beta-star-ips",
         "--true-value", "0.26", "--gap"],
    ),
    "rankflip2x2": ("rankflip2x2", 2000, ["--estimators", "ipm,snipm,beta-perp-star-ipm"]),
    "identity2": (
        "identity2",
        500,
        ["--estimators", "ips,snips,beta-star-ips,cf-beta-star-ips", "--true-value", "0.74"],
    ),
    # 2003 = 7 * 286 + 1: one fold is longer than the others.
    "flip2-unequal-folds": (
        "flip2",
        2003,
        ["--estimators", "cf-beta-star-ips", "--folds", "7", "--cf-seed", "11"],
    ),
}

# numpy version -> study -> {"csv": sha256, "json_data": sha256};
# numpy version -> "evaluate" -> evaluation -> sha256 of the report.
GOLDEN = {
    "2.4.6": {
        "mc": {
            "csv": "7f00d533196e628e998d7dc65786c8c4789f21d129b8ad78afa976e13b4c3f6a",
            "json_data": "2d8ac2862de63f6e8f75d0e58e604a512d900c9900fb197c31ccca0c498e61fc",
        },
        "dominance": {
            "csv": "0f74c9bbd107cb0cb46c2536627b5d6a085b3e61acefe36649a5f92a03db5819",
            "json_data": "f4f84dbb266a120722d3a41ee87796b30a10141f7f08096b75a67a1844158914",
        },
        "mc-identity2": {
            "csv": "1c48e44a08da1e26be515804d06da9b12bb802e37e9979c1c13b3255ad18fd6e",
            "json_data": "d830567c5f6cee36c9baa1e448165e2662c5d962569d03067e81c447461a8527",
        },
        "mc-ranked": {
            "csv": "c3183c415c3385ba422f41d542327011f925644f1336d404f6454107e9fe3d0c",
            "json_data": "4247a069d8cd2f8690aeac88bb75d8b4c9296d15e0804db0e3b26affb67e89ca",
        },
        "decay": {
            "csv": "7f7e34004c0af52f52620c3e87c1db91ce0e6ac27caf8a411b28b664ff881399",
            "json_data": "5f668f47bbf7a9df44fef2379f04ac1ec6ece160b1755ac18d3562f4e0318099",
        },
        "bias-rate": {
            "csv": "34e68b96051c4fff8cfeaeb325c1ddab55bab7db40701a050097015295e179ff",
            "json_data": "b70b64fdc9636f985b02782fa8f7120d207a635710f3e21a0a7a727d30eaab15",
        },
        "evaluate": {
            "flip2": "e93892eaec4bc0f711db9d56506ee10a6003d3b2c1aa499c392bce02af813e6b",
            "rankflip2x2": "dad64d54ec6acbace6654103bba7157c0359bc8d32e2e593082c675220683579",
            "identity2": "47965445a2f3cab7901bce7bb9271b2c0dde454f29f371c455863286e6a33a53",
            "flip2-unequal-folds": "b2e5fac9aa9f7a019dcd11c9551126110c854d36b6f877a99fcc7d6e917cd47b",
        },
    },
}


def study_digests(tmp_path, name: str) -> dict:
    config = tmp_path / f"{name}.yaml"
    config.write_text(yaml.safe_dump(STUDIES[name]))
    out_dir = tmp_path / name
    out_dir.mkdir()
    assert main(["study", "--config", str(config), "--out-dir", str(out_dir)]) == 0
    payload = json.loads((out_dir / f"{name}.json").read_text(encoding="utf-8"))
    payload.pop("manifest")
    data = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return {
        "csv": hashlib.sha256((out_dir / f"{name}.csv").read_bytes()).hexdigest(),
        "json_data": hashlib.sha256(data).hexdigest(),
    }


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_study_bytes_match_golden_digests(tmp_path, capsys, name):
    recorded = GOLDEN.get(np.__version__)
    if recorded is None:
        pytest.skip(f"no golden digests recorded for numpy {np.__version__}")
    digests = study_digests(tmp_path, name)
    capsys.readouterr()
    assert digests == recorded[name]


def evaluate_digest(tmp_path, name: str) -> str:
    preset, n, arguments = EVALUATIONS[name]
    logs = tmp_path / f"{name}.jsonl"
    report = tmp_path / f"{name}.json"
    assert main(["simulate", "--preset", preset, "--n", str(n), "--seed", str(SEED), "--out", str(logs)]) == 0
    assert main(["evaluate", "--in", str(logs), *arguments, "--out", str(report)]) == 0
    payload = json.loads(report.read_text(encoding="utf-8"))
    payload.pop("source")
    return hashlib.sha256(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(EVALUATIONS))
def test_evaluate_reports_match_golden_digests(tmp_path, capsys, name):
    recorded = GOLDEN.get(np.__version__)
    if recorded is None:
        pytest.skip(f"no golden digests recorded for numpy {np.__version__}")
    digest = evaluate_digest(tmp_path, name)
    capsys.readouterr()
    assert digest == recorded["evaluate"][name]
