"""Study configuration files: checking, resolution, and hashing.

Configurations are YAML, or strict JSON in a file ending in ``.json``
(any case), read by the JSON parser: YAML 1.1 reads a JSON number such as
``1e2`` or ``1e-300``, an exponent with no decimal point, as a string. This
module checks what no constructor sees: the keys of each mapping (missing
and unknown keys are rejected), that lists are non-empty lists, that
table entries are numbers and that ``study`` names a known kind. The
objects built from the file check the values: ``StudyConfig`` the
integers (``400.0`` counts as ``400``) and their minimums, the scenario
classes the tables, which must be rectangular, and the ``dominance`` and
``decay`` studies, whose estimators are fixed, reject an ``estimators``
list. The resolved configuration is hashed canonically for the run
manifest, so the hash depends on everything that shapes the output bytes
and on nothing else; the worker count is a command-line flag, not a
config field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ValidationError
from .experiments import STUDIES, StudyConfig, default_estimators
from .io import canonical_hash
from .simulator import (
    BanditEnv,
    BanditScenario,
    PolicyTable,
    PositionModel,
    RankingEnv,
    get_scenario,
)

STUDY_KINDS = tuple(STUDIES)

#: Required and optional keys of each mapping in a study file.
_KEYS = {
    "study file": ({"study", "environment", "n_grid", "replicates", "seed"}, {"estimators", "folds"}),
    "bandit": ({"kind", "context_probs", "reward_means", "logging_policy", "target_policy"}, set()),
    "ranking": ({"kind", "context_probs", "positions"}, set()),
    "position": ({"logging_policy", "target_policy", "reward_means"}, set()),
}

#: Nesting depth of each number table: a vector of context probabilities, matrices otherwise.
_TABLES = {"context_probs": 1, "reward_means": 2, "logging_policy": 2, "target_policy": 2}


def _non_empty_list(value, where: str) -> list:
    """``value`` if it is a non-empty list."""
    if not isinstance(value, list) or not value:
        raise ValidationError(f"expected a non-empty list (at {where})")
    return value


def _check_table(value, depth: int, where: str) -> None:
    """A non-empty list nested ``depth`` deep whose leaves are numbers."""
    for i, item in enumerate(_non_empty_list(value, where)):
        if depth > 1:
            _check_table(item, depth - 1, f"{where}/{i}")
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ValidationError(f"expected a number, got {item!r} (at {where}/{i})")


def _check_mapping(value, level: str, where: str) -> None:
    """Keys of a mapping against ``_KEYS[level]``, then any number tables it holds."""
    if not isinstance(value, dict):
        raise ValidationError(f"expected a mapping (at {where})")
    required, optional = _KEYS[level]
    missing = sorted(required - value.keys())
    if missing:
        raise ValidationError(f"{level} is missing {', '.join(missing)} (at {where})")
    unknown = sorted(str(key) for key in value.keys() - required - optional)
    if unknown:
        raise ValidationError(f"{level} has unknown keys {', '.join(unknown)} (at {where})")
    for key in sorted(value.keys() & _TABLES.keys()):
        _check_table(value[key], _TABLES[key], f"{where}/{key}")


def _check_layout(raw) -> None:
    """Reject a study file whose layout is wrong; its values are checked by what they build."""
    _check_mapping(raw, "study file", "<root>")
    if raw["study"] not in STUDY_KINDS:
        raise ValidationError(f"study must be one of {', '.join(STUDY_KINDS)}, got {raw['study']!r}")
    if "estimators" in raw:
        names = _non_empty_list(raw["estimators"], "estimators")
        if not all(isinstance(name, str) for name in names):
            raise ValidationError("expected a list of estimator names (at estimators)")
    _non_empty_list(raw["n_grid"], "n_grid")
    env = raw["environment"]
    if isinstance(env, str):
        return
    kind = env.get("kind") if isinstance(env, dict) else None
    if kind not in ("bandit", "ranking"):
        raise ValidationError("expected a preset name or a bandit or ranking mapping (at environment)")
    _check_mapping(env, kind, "environment")
    if kind == "ranking":
        for j, position in enumerate(_non_empty_list(env["positions"], "environment/positions")):
            _check_mapping(position, "position", f"environment/positions/{j}")


def environment_from_spec(spec):
    """Build a scenario from a preset name or an inline environment object.

    Returns ``(scenario, label)``; inline environments are labelled by a
    prefix of their canonical hash.
    """
    if isinstance(spec, str):
        return get_scenario(spec), spec
    if spec["kind"] == "bandit":
        scenario = BanditScenario(
            env=BanditEnv(spec["context_probs"], spec["reward_means"]),
            logging_policy=PolicyTable(spec["logging_policy"]),
            target_policy=PolicyTable(spec["target_policy"]),
        )
    else:
        positions = tuple(
            PositionModel(PolicyTable(p["logging_policy"]), PolicyTable(p["target_policy"]), p["reward_means"])
            for p in spec["positions"]
        )
        scenario = RankingEnv(context_probs=spec["context_probs"], positions=positions)
    return scenario, f"{spec['kind']}:{canonical_hash(spec)[:12]}"


@dataclass(frozen=True, eq=False)
class LoadedStudy:
    """A validated study configuration, its provenance hash, and its kind."""

    kind: str
    config: StudyConfig
    resolved: dict
    config_hash: str


def load_study_config(path) -> LoadedStudy:
    """Read, check, and resolve a study configuration file."""
    source = Path(path)
    text = source.read_text(encoding="utf-8")
    # Either parser raises ValueError for an integer of more than 4300 digits
    # and RecursionError for lists nested too deeply.
    if source.suffix.lower() == ".json":
        parse, errors = json.loads, (ValueError, RecursionError)
    else:
        # Imported here so that commands which never read a YAML configuration skip its cost.
        import yaml

        parse, errors = yaml.safe_load, (yaml.YAMLError, ValueError, RecursionError)
    try:
        raw = parse(text)
    except errors as exc:
        raise ValidationError(f"cannot parse {source}: {exc}") from None
    _check_layout(raw)
    scenario, label = environment_from_spec(raw["environment"])
    kind = raw["study"]
    config = StudyConfig(
        scenario=scenario,
        scenario_label=label,
        n_grid=raw["n_grid"],
        replicates=raw["replicates"],
        master_seed=raw["seed"],
        estimators=raw.get("estimators") or default_estimators(kind, scenario),
        folds=raw.get("folds", 5),
    )
    resolved = {
        "study": kind,
        "environment": raw["environment"],
        "estimators": list(config.estimators),
        "n_grid": list(config.n_grid),
        "replicates": config.replicates,
        "seed": config.master_seed,
        "folds": config.folds,
    }
    return LoadedStudy(
        kind=kind,
        config=config,
        resolved=resolved,
        config_hash=canonical_hash(resolved),
    )
