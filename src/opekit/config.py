"""Study configuration files: schema validation, resolution, and hashing.

Configurations are YAML (JSON works too, being a YAML subset). They are
schema-validated before any computation, then resolved: defaults are
filled in and the result is hashed canonically. The hash feeds the run
manifest, so it must depend on everything that shapes the output bytes
and on nothing else; in particular the worker count is a command-line
flag, not a config field.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ValidationError
from .experiments import STUDIES, StudyConfig, default_estimators
from .simulator import (
    BanditEnv,
    BanditScenario,
    PolicyTable,
    PositionModel,
    RankingEnv,
    get_scenario,
)

STUDY_KINDS = tuple(STUDIES)

_MATRIX = {"type": "array", "minItems": 1, "items": {"type": "array", "items": {"type": "number"}}}
_VECTOR = {"type": "array", "minItems": 1, "items": {"type": "number"}}

_BANDIT_ENV = {
    "type": "object",
    "required": ["kind", "context_probs", "reward_means", "logging_policy", "target_policy"],
    "properties": {
        "kind": {"const": "bandit"},
        "context_probs": _VECTOR,
        "reward_means": _MATRIX,
        "logging_policy": _MATRIX,
        "target_policy": _MATRIX,
    },
    "additionalProperties": False,
}

_RANKING_ENV = {
    "type": "object",
    "required": ["kind", "context_probs", "positions"],
    "properties": {
        "kind": {"const": "ranking"},
        "context_probs": _VECTOR,
        "positions": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["logging_policy", "target_policy", "reward_means"],
                "properties": {
                    "logging_policy": _MATRIX,
                    "target_policy": _MATRIX,
                    "reward_means": _MATRIX,
                },
                "additionalProperties": False,
            },
        },
    },
    "additionalProperties": False,
}

STUDY_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["study", "environment", "n_grid", "replicates", "seed"],
    "properties": {
        "study": {"enum": list(STUDY_KINDS)},
        "environment": {"oneOf": [{"type": "string"}, _BANDIT_ENV, _RANKING_ENV]},
        "estimators": {"type": "array", "minItems": 1, "items": {"type": "string"}},
        "n_grid": {"type": "array", "minItems": 1, "items": {"type": "integer", "minimum": 1}},
        "replicates": {"type": "integer", "minimum": 100},
        "seed": {"type": "integer", "minimum": 0},
        "folds": {"type": "integer", "minimum": 2},
    },
    "additionalProperties": False,
}


def canonical_hash(payload) -> str:
    """SHA-256 of the canonical JSON encoding (sorted keys, no whitespace)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def environment_from_spec(spec):
    """Build a scenario from a preset name or an inline environment object.

    Returns ``(scenario, label)``; inline environments are labelled by a
    prefix of their canonical hash.
    """
    if isinstance(spec, str):
        return get_scenario(spec), spec
    kind = spec["kind"]
    if kind == "bandit":
        scenario = BanditScenario(
            env=BanditEnv(spec["context_probs"], spec["reward_means"]),
            logging_policy=PolicyTable(spec["logging_policy"]),
            target_policy=PolicyTable(spec["target_policy"]),
        )
        return scenario, f"bandit:{canonical_hash(spec)[:12]}"
    positions = tuple(
        PositionModel(
            logging_policy=PolicyTable(pos["logging_policy"]),
            target_policy=PolicyTable(pos["target_policy"]),
            reward_means=pos["reward_means"],
        )
        for pos in spec["positions"]
    )
    scenario = RankingEnv(context_probs=spec["context_probs"], positions=positions)
    return scenario, f"ranking:{canonical_hash(spec)[:12]}"


@dataclass(frozen=True, eq=False)
class LoadedStudy:
    """A validated study configuration, its provenance hash, and its kind."""

    kind: str
    config: StudyConfig
    label: str
    resolved: dict
    config_hash: str


def load_study_config(path) -> LoadedStudy:
    """Read, schema-validate, and resolve a study configuration file."""
    # Imported here so that commands which never read a configuration skip their cost.
    import jsonschema
    import yaml

    source = Path(path)
    text = source.read_text(encoding="utf-8")
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ValidationError(f"cannot parse {source}: {exc}") from None
    if not isinstance(raw, dict):
        raise ValidationError(f"{source} must contain a mapping at the top level")
    try:
        jsonschema.validate(raw, STUDY_SCHEMA)
    except jsonschema.exceptions.ValidationError as exc:
        where = "/".join(str(part) for part in exc.absolute_path) or "<root>"
        raise ValidationError(f"{source}: {exc.message} (at {where})") from None
    scenario, label = environment_from_spec(raw["environment"])
    kind = raw["study"]
    estimators = raw.get("estimators")
    if estimators is None:
        estimators = default_estimators(kind, scenario)
    resolved = {
        "study": kind,
        "environment": raw["environment"],
        "estimators": list(estimators),
        "n_grid": [int(v) for v in raw["n_grid"]],
        "replicates": int(raw["replicates"]),
        "seed": int(raw["seed"]),
        "folds": int(raw.get("folds", 5)),
    }
    config = StudyConfig(
        scenario=scenario,
        scenario_label=label,
        n_grid=tuple(resolved["n_grid"]),
        replicates=resolved["replicates"],
        master_seed=resolved["seed"],
        estimators=tuple(resolved["estimators"]),
        folds=resolved["folds"],
    )
    return LoadedStudy(
        kind=kind,
        config=config,
        label=label,
        resolved=resolved,
        config_hash=canonical_hash(resolved),
    )
