"""Study configuration loading, defaults, and canonical hashing."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import opekit
from opekit import BanditScenario, RankingEnv, load_study_config
from opekit.config import STUDY_KINDS, canonical_hash, environment_from_spec
from opekit.errors import UnknownPreset, ValidationError


def base_config(**overrides):
    payload = {
        "study": "mc",
        "environment": "flip2",
        "n_grid": [100, 200],
        "replicates": 100,
        "seed": 5,
    }
    payload.update(overrides)
    return payload


def dump(tmp_path, payload, name="study.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return path


INLINE_BANDIT = {
    "kind": "bandit",
    "context_probs": [1.0],
    "reward_means": [[0.2, 0.8]],
    "logging_policy": [[0.5, 0.5]],
    "target_policy": [[0.1, 0.9]],
}

INLINE_RANKING = {
    "kind": "ranking",
    "context_probs": [1.0],
    "positions": [
        {
            "logging_policy": [[0.5, 0.5]],
            "target_policy": [[0.5, 0.5]],
            "reward_means": [[0.1, 0.9]],
        }
    ],
}


class TestLoading:
    def test_preset_happy_path(self, tmp_path):
        loaded = load_study_config(dump(tmp_path, base_config()))
        assert loaded.kind == "mc"
        assert loaded.label == "flip2"
        assert loaded.config.n_grid == (100, 200)
        assert loaded.config.replicates == 100
        assert loaded.config.master_seed == 5
        assert loaded.config.folds == 5
        assert loaded.config.scenario_label == "flip2"
        assert loaded.config_hash == canonical_hash(loaded.resolved)

    def test_default_estimators_by_kind(self, tmp_path):
        cases = {
            "mc": ("ips", "snips", "beta-star-ips"),
            "bias-rate": ("snips",),
            "decay": (),
            "dominance": (),
        }
        for kind, expected in cases.items():
            loaded = load_study_config(dump(tmp_path, base_config(study=kind)))
            assert loaded.config.estimators == expected, kind

    def test_default_estimators_for_ranking_preset(self, tmp_path):
        loaded = load_study_config(
            dump(tmp_path, base_config(environment="rankflip2x2"))
        )
        assert loaded.config.estimators == ("ipm", "snipm", "beta-perp-star-ipm")

    def test_explicit_estimators_kept(self, tmp_path):
        loaded = load_study_config(dump(tmp_path, base_config(estimators=["ips"])))
        assert loaded.config.estimators == ("ips",)

    def test_explicit_defaults_hash_like_omitted(self, tmp_path):
        minimal = load_study_config(dump(tmp_path, base_config(), "a.yaml"))
        spelled = load_study_config(
            dump(
                tmp_path,
                base_config(estimators=["ips", "snips", "beta-star-ips"], folds=5),
                "b.yaml",
            )
        )
        assert minimal.resolved == spelled.resolved
        assert minimal.config_hash == spelled.config_hash

    def test_json_file_is_accepted(self, tmp_path):
        path = tmp_path / "study.json"
        path.write_text(json.dumps(base_config()))
        loaded = load_study_config(path)
        assert loaded.config_hash == load_study_config(dump(tmp_path, base_config())).config_hash

    def test_inline_bandit_environment(self, tmp_path):
        loaded = load_study_config(dump(tmp_path, base_config(environment=INLINE_BANDIT)))
        assert isinstance(loaded.config.scenario, BanditScenario)
        prefix, digest = loaded.label.split(":")
        assert prefix == "bandit"
        assert len(digest) == 12
        assert int(digest, 16) >= 0

    def test_inline_ranking_environment(self, tmp_path):
        loaded = load_study_config(dump(tmp_path, base_config(environment=INLINE_RANKING)))
        assert isinstance(loaded.config.scenario, RankingEnv)
        assert loaded.config.scenario.k == 1
        assert loaded.label.startswith("ranking:")


class TestRejections:
    def expect_invalid(self, tmp_path, payload):
        with pytest.raises(ValidationError):
            load_study_config(dump(tmp_path, payload))

    def test_schema_violations(self, tmp_path):
        bad = base_config()
        del bad["replicates"]
        self.expect_invalid(tmp_path, bad)
        self.expect_invalid(tmp_path, base_config(replicates=50))
        self.expect_invalid(tmp_path, base_config(study="bogus"))
        self.expect_invalid(tmp_path, base_config(jobs=4))
        self.expect_invalid(tmp_path, base_config(n_grid=[]))
        self.expect_invalid(tmp_path, base_config(estimators=[]))
        self.expect_invalid(tmp_path, base_config(folds=1))
        self.expect_invalid(tmp_path, base_config(seed=-1))

    def test_incomplete_inline_environment(self, tmp_path):
        partial = {k: v for k, v in INLINE_BANDIT.items() if k != "target_policy"}
        self.expect_invalid(tmp_path, base_config(environment=partial))

    def test_error_message_names_location(self, tmp_path):
        with pytest.raises(ValidationError, match="replicates"):
            load_study_config(dump(tmp_path, base_config(replicates=50)))

    def test_unparseable_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("study: [mc\n")
        with pytest.raises(ValidationError):
            load_study_config(path)

    def test_non_mapping_top_level(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ValidationError):
            load_study_config(path)

    def test_unknown_preset(self, tmp_path):
        with pytest.raises(UnknownPreset):
            load_study_config(dump(tmp_path, base_config(environment="flip3")))

    def test_grid_must_increase(self, tmp_path):
        self.expect_invalid(tmp_path, base_config(n_grid=[200, 100]))
        self.expect_invalid(tmp_path, base_config(n_grid=[100, 100]))


class TestHashing:
    def test_key_order_invariance(self):
        assert canonical_hash({"a": 1, "b": 2}) == canonical_hash({"b": 2, "a": 1})

    def test_value_sensitivity(self):
        assert canonical_hash({"a": 1}) != canonical_hash({"a": 2})

    def test_kind_list_is_closed(self):
        assert STUDY_KINDS == ("mc", "decay", "dominance", "bias-rate")

    def test_inline_labels_depend_on_content(self):
        _, label_a = environment_from_spec(INLINE_BANDIT)
        altered = dict(INLINE_BANDIT, reward_means=[[0.3, 0.8]])
        _, label_b = environment_from_spec(altered)
        assert label_a != label_b


class TestLazyImports:
    def test_cli_import_skips_config_parsers(self):
        # A fresh interpreter, because this test process has loaded both already.
        src = str(Path(opekit.__file__).resolve().parents[1])
        path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        probe = "import sys, opekit.cli; print(sorted({'jsonschema', 'yaml'} & set(sys.modules)))"
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "[]"
