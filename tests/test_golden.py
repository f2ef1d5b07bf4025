"""Golden-bytes regression test for study outputs.

Reruns of a study are compared with each other elsewhere (acceptance
criterion 9); that cannot see a change that shifts the same bits on every
run. This test pins the SHA-256 digests of a short scalar ``mc`` study
and a short ranked ``dominance`` study, run through the CLI, to values
recorded before the block replicate engine replaced the per-replicate
loop. The JSON digest covers the report without its ``manifest`` block,
which records a creation time.

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
}

# numpy version -> study -> {"csv": sha256, "json_data": sha256}
GOLDEN = {
    "2.4.6": {
        "mc": {
            "csv": "9d3337b8fe3c1993ac0fe67d38efd526a5018b9418c066c2ee55d52e06b683d6",
            "json_data": "7be018361481720bb7163082480fa11d626425f013c1f205b7c1232ec8a3cf4f",
        },
        "dominance": {
            "csv": "0f74c9bbd107cb0cb46c2536627b5d6a085b3e61acefe36649a5f92a03db5819",
            "json_data": "f4f84dbb266a120722d3a41ee87796b30a10141f7f08096b75a67a1844158914",
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
