"""Output checks for the benchmark's CLI runs.

Each ``check_*`` function returns a list of problems; an empty list means
the output passed. Digests are SHA-256 hex strings. A study's JSON data
digest covers the report without its ``manifest`` block, because the
manifest records a creation time; the manifest's ``fingerprint`` instead
keys the digests recorded in ``digests.json``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from opekit.estimators import empirical_moments, snips
from opekit.io import logs_text, moments_dict
from opekit.simulator import get_scenario, sample_logs

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

# Oracle value of the flip2 preset: 0.1 * 0.8 + 0.9 * 0.2.
FLIP2_VALUE = 0.26
# Estimators that are unbiased for the oracle on every cell of the scalar study.
UNBIASED = ("ips", "beta-ips:0.1925", "cf-beta-star-ips")
UNBIASED_SE_LIMIT = 4.0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def study_digests(csv_path: Path, json_path: Path) -> tuple[dict, str, dict]:
    """Digests of a study's CSV and JSON data, its fingerprint, and its payload."""
    payload = json.loads(json_path.read_text(encoding="utf-8"))
    manifest = payload.pop("manifest")
    data = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    digests = {"csv": sha256(csv_path.read_bytes()), "json_data": sha256(data)}
    return digests, manifest["fingerprint"], payload


def load_recorded(path: Path = DIGESTS_PATH) -> dict:
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def check_repeats_identical(digests: list[dict]) -> list[str]:
    """Every repeat of a command must produce the same output digests."""
    problems = []
    for index, other in enumerate(digests[1:], start=1):
        for key, value in digests[0].items():
            if other.get(key) != value:
                problems.append(f"repeat {index} {key} digest {other.get(key)} differs from repeat 0 {value}")
    return problems


def check_recorded(recorded: dict, fingerprint: str, digests: dict) -> list[str]:
    """Equal fingerprints promise equal data bytes; compare with the recorded digests."""
    expected = recorded.get(fingerprint, {})
    return [
        f"fingerprint {fingerprint[:12]} {key} digest {digests[key]} != recorded {value}"
        for key, value in expected.items()
        if key in digests and digests[key] != value
    ]


def check_scalar_study(payload: dict) -> list[str]:
    """Unbiased estimators centre on the oracle and the squared remainder decays."""
    problems = []
    oracle = payload["oracle"]["targets"][0]["value"]
    if abs(oracle - FLIP2_VALUE) > 1e-12:
        problems.append(f"oracle value {oracle} != {FLIP2_VALUE}")
    rows = payload["rows"]
    for row in rows:
        if row["estimator"] in UNBIASED:
            z = abs(row["mean"] - row["oracle_value"]) / row["se"]
            if not z <= UNBIASED_SE_LIMIT:
                problems.append(f"{row['estimator']} n={row['n']}: mean is {z:.2f} se from the oracle")
    remainder = [row["mean"] for row in sorted(rows, key=lambda r: r["n"]) if row["estimator"] == "remainder-sq"]
    if not remainder or any(b >= a for a, b in zip(remainder, remainder[1:])):
        problems.append(f"remainder-sq means do not fall across the grid: {remainder}")
    return problems


def check_dominance(payload: dict) -> list[str]:
    """Each cell's numbers agree with one another and the verdict follows from the cells.

    A cell's paired MSE difference is the difference of its two MSEs over
    all replicates; the cell is dominant when that difference exceeds
    twice its standard error; the verdict is the smallest dominant n per
    position. Whether a position becomes dominant on the grid depends on
    the seed, so only the recorded digests pin the default seed's verdict.
    """
    problems = []
    cells = payload["cells"]
    for cell in cells:
        where = f"{cell['target']} n={cell['n']}"
        closure = cell["mse_self_normalised"] - cell["mse_optimal"]
        scale = max(cell["mse_self_normalised"], cell["mse_optimal"])
        if not abs(cell["mse_difference"] - closure) <= 1e-9 * scale:
            problems.append(f"{where}: paired difference {cell['mse_difference']} != MSE difference {closure}")
        if cell["n_pairs"] != payload["replicates"]:
            problems.append(f"{where}: {cell['n_pairs']} pairs, expected {payload['replicates']}")
        if cell["dominant"] != (cell["mse_difference"] > 2.0 * cell["se_difference"]):
            problems.append(f"{where}: dominant flag disagrees with its margin")
    for position in sorted({cell["target"] for cell in cells}):
        dominant = [cell["n"] for cell in cells if cell["target"] == position and cell["dominant"]]
        expected = min(dominant) if dominant else None
        if payload["smallest_dominant_n"].get(position) != expected:
            problems.append(
                f"{position}: smallest dominant n {payload['smallest_dominant_n'].get(position)} != {expected}"
            )
    return problems


def replicate_zero(seed: int, n: int):
    """The flip2 dataset that ``opekit simulate --seed seed --n n`` writes."""
    scenario = get_scenario("flip2")
    stream = np.random.SeedSequence((seed, n, 0))
    return sample_logs(scenario.env, scenario.logging_policy, scenario.target_policy, n, stream)


def check_logs_file(path: Path, seed: int, n: int) -> list[str]:
    """The simulated log file equals the in-process serialisation of replicate 0."""
    expected = logs_text(replicate_zero(seed, n)).encode("utf-8")
    if path.read_bytes() != expected:
        return [f"{path.name} differs from the in-process serialisation of replicate 0"]
    return []


def check_evaluate(report: dict, seed: int, n: int) -> list[str]:
    """Evaluate's moments and snips value equal the in-process ones bit for bit."""
    dataset = replicate_zero(seed, n)
    problems = []
    if report["n"] != n:
        problems.append(f"evaluate read {report['n']} entries, expected {n}")
    if report["moments"] != moments_dict(empirical_moments(dataset)):
        problems.append("evaluate moments differ from the in-process moments")
    values = {entry["estimator"]: entry["value"] for entry in report["estimates"]}
    if values.get("snips") != snips(dataset).value:
        problems.append(f"evaluate snips {values.get('snips')} != in-process {snips(dataset).value}")
    return problems
