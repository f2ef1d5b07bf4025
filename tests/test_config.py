"""Study configuration loading, defaults, and canonical hashing."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import opekit
from opekit import BanditScenario, RankingEnv, load_study_config
from opekit.cli import main
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
        assert loaded.config.scenario_label == "flip2"
        assert loaded.config.n_grid == (100, 200)
        assert loaded.config.replicates == 100
        assert loaded.config.master_seed == 5
        assert loaded.config.folds == 5
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

    def test_json_exponent_numbers(self, tmp_path):
        # YAML 1.1 reads 1e2 and 1e-300 as strings; a .json file is read as JSON.
        environment = dict(INLINE_BANDIT, reward_means=[[1e-300, 0.8]])
        text = json.dumps(base_config(environment=environment)).replace('"replicates": 100', '"replicates": 1e2')
        assert '"replicates": 1e2' in text and "1e-300" in text
        spelled = load_study_config(dump(tmp_path, base_config(environment=environment)))
        for name in ("study.json", "study.JSON"):
            path = tmp_path / name
            path.write_text(text)
            loaded = load_study_config(path)
            assert loaded.config.replicates == 100
            assert loaded.config.scenario.env.reward_means[0, 0] == 1e-300
            assert loaded.resolved == spelled.resolved
            assert loaded.config_hash == spelled.config_hash

    def test_inline_bandit_environment(self, tmp_path):
        loaded = load_study_config(dump(tmp_path, base_config(environment=INLINE_BANDIT)))
        assert isinstance(loaded.config.scenario, BanditScenario)
        prefix, digest = loaded.config.scenario_label.split(":")
        assert prefix == "bandit"
        assert len(digest) == 12
        assert int(digest, 16) >= 0

    def test_inline_ranking_environment(self, tmp_path):
        loaded = load_study_config(dump(tmp_path, base_config(environment=INLINE_RANKING)))
        assert isinstance(loaded.config.scenario, RankingEnv)
        assert loaded.config.scenario.k == 1
        assert loaded.config.scenario_label.startswith("ranking:")


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

    @pytest.mark.parametrize("suffix", [".json", ".yaml"])
    @pytest.mark.parametrize(
        "text", ["{", "[" * 100000, '{"seed": 1' + "0" * 5000 + "}"], ids=["truncated", "deep", "long-integer"]
    )
    def test_unparseable_json_or_yaml(self, tmp_path, text, suffix):
        # A 5001-digit integer is past the interpreter's limit on integer parsing.
        path = tmp_path / f"broken{suffix}"
        path.write_text(text)
        with pytest.raises(ValidationError, match="cannot parse"):
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


def _without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


def _ranking_position(**changes):
    return dict(INLINE_RANKING, positions=[dict(INLINE_RANKING["positions"][0], **changes)])


def _ranking_position_without(key):
    return dict(INLINE_RANKING, positions=[_without(INLINE_RANKING["positions"][0], key)])


# Every study file the loader must reject, named by what is wrong with it.
REJECTED = {
    **{f"study file without {key}": _without(base_config(), key) for key in base_config()},
    **{f"bandit without {key}": base_config(environment=_without(INLINE_BANDIT, key)) for key in INLINE_BANDIT},
    **{f"ranking without {key}": base_config(environment=_without(INLINE_RANKING, key)) for key in INLINE_RANKING},
    **{
        f"position without {key}": base_config(environment=_ranking_position_without(key))
        for key in INLINE_RANKING["positions"][0]
    },
    "unknown key in the study file": base_config(jobs=4),
    "unknown key in a bandit": base_config(environment=dict(INLINE_BANDIT, positions=[])),
    "unknown key in a ranking": base_config(environment=dict(INLINE_RANKING, reward_means=[[0.1, 0.9]])),
    "unknown key in a position": base_config(environment=_ranking_position(weight=1.0)),
    "study bogus": base_config(study="bogus"),
    "environment a number": base_config(environment=3),
    "environment a list": base_config(environment=["flip2"]),
    "kind other": base_config(environment=dict(INLINE_BANDIT, kind="other")),
    "empty n_grid": base_config(n_grid=[]),
    "empty estimators": base_config(estimators=[]),
    "empty context_probs": base_config(environment=dict(INLINE_BANDIT, context_probs=[])),
    "empty positions": base_config(environment=dict(INLINE_RANKING, positions=[])),
    "matrix without rows": base_config(environment=dict(INLINE_BANDIT, reward_means=[])),
    "empty matrix row": base_config(environment=dict(INLINE_BANDIT, logging_policy=[[]])),
    "empty position matrix row": base_config(environment=_ranking_position(target_policy=[[]])),
    **{
        f"{key} {value!r}": base_config(**{key: value})
        for key in ("replicates", "seed", "folds")
        for value in (True, "100", None, 1.5)
    },
    **{f"n_grid entry {value!r}": base_config(n_grid=[value]) for value in (True, "100", None, 1.5)},
    "estimators not a list": base_config(estimators="ips"),
    "estimator not a string": base_config(estimators=[1]),
    **{
        f"table entry {value!r}": base_config(environment=dict(INLINE_BANDIT, context_probs=[value]))
        for value in (True, "1.0", None)
    },
    **{
        f"matrix entry {value!r}": base_config(environment=_ranking_position(reward_means=[[0.1, value]]))
        for value in (False, "0.9", None)
    },
    "vector where a matrix belongs": base_config(environment=dict(INLINE_BANDIT, target_policy=[0.1, 0.9])),
    "ragged reward means": base_config(
        environment=dict(INLINE_BANDIT, context_probs=[0.5, 0.5], reward_means=[[0.2, 0.8], [0.5]])
    ),
    "ragged logging policy": base_config(
        environment=dict(
            INLINE_BANDIT,
            context_probs=[0.5, 0.5],
            reward_means=[[0.2, 0.8], [0.5, 0.5]],
            logging_policy=[[0.5, 0.5], [1.0]],
        )
    ),
    "ragged position table": base_config(environment=_ranking_position(target_policy=[[0.5, 0.5], [1.0]])),
    "sample size 0": base_config(n_grid=[0, 100]),
}


class TestEveryRejection:
    @pytest.mark.parametrize("payload", REJECTED.values(), ids=REJECTED.keys())
    def test_rejected(self, tmp_path, payload):
        with pytest.raises(ValidationError):
            load_study_config(dump(tmp_path, payload))

    def test_integral_floats_hash_like_integers(self, tmp_path):
        spelled = load_study_config(
            dump(tmp_path, base_config(n_grid=[400.0], replicates=100.0, seed=5.0, folds=5.0), "a.yaml")
        )
        plain = load_study_config(dump(tmp_path, base_config(n_grid=[400]), "b.yaml"))
        assert spelled.resolved == plain.resolved
        assert spelled.config_hash == plain.config_hash


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


def fresh_modules(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``, which may print lines of its own."""
    # A fresh interpreter, because this test process has loaded every module already.
    src = str(Path(opekit.__file__).resolve().parents[1])
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    probe = f"import sys\n{code}\nprint(' '.join(sys.modules))"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return set(result.stdout.splitlines()[-1].split())


def cli_modules(*args) -> set[str]:
    """The modules a fresh interpreter holds after one successful CLI command."""
    return fresh_modules(f"from opekit.cli import main\nif main({list(map(str, args))!r}):\n    sys.exit('failed')")


#: What the study engine, its process pool and the configuration reader load.
STUDY_MODULES = {"opekit.experiments", "opekit.simulator", "opekit.ranking", "opekit.config", "concurrent.futures"}


class TestLazyImports:
    def test_cli_import_skips_config_parsers(self):
        assert {"jsonschema", "yaml"} & fresh_modules("import opekit.cli") == set()

    def test_loading_skips_jsonschema(self, tmp_path):
        preset = dump(tmp_path, base_config(), "preset.yaml")
        inline = dump(tmp_path, base_config(environment=INLINE_RANKING), "inline.yaml")
        code = f"from opekit.config import load_study_config\n[load_study_config(p) for p in ({str(preset)!r}, {str(inline)!r})]"
        assert "jsonschema" not in fresh_modules(code)

    def test_package_import_loads_no_submodule(self):
        assert {m for m in fresh_modules("import opekit") if m.startswith("opekit.")} == set()

    def test_evaluate_skips_the_study_engine(self, tmp_path):
        logs = tmp_path / "logs.jsonl"
        assert main(["simulate", "--preset", "flip2", "--n", "50", "--out", str(logs)]) == 0
        loaded = cli_modules("evaluate", "--in", logs, "--estimators", "ips,snips,beta-star-ips,cf-beta-star-ips",
                             "--true-value", "0.26", "--out", tmp_path / "report.json")
        assert STUDY_MODULES & loaded == set()

    def test_simulate_skips_the_study_engine(self, tmp_path):
        loaded = cli_modules("simulate", "--preset", "rankflip2x2", "--n", "50", "--out", tmp_path / "logs.jsonl")
        assert "opekit.simulator" in loaded
        assert (STUDY_MODULES - {"opekit.simulator"}) & loaded == set()

    def test_one_worker_skips_the_process_pool(self, tmp_path):
        config = dump(tmp_path, base_config(n_grid=[50], estimators=["ips", "snips"]))
        loaded = cli_modules("study", "--config", config, "--out-dir", tmp_path, "--jobs", "1")
        assert "opekit.experiments" in loaded
        assert "concurrent.futures" not in loaded

    def test_every_export_resolves_to_its_submodule(self):
        fresh = fresh_modules("import opekit\nprint(' '.join(dir(opekit)))")  # dir() imports nothing
        assert {m for m in fresh if m.startswith("opekit.")} == set()
        listed = dir(opekit)
        for name in opekit.__all__:
            module = importlib.import_module(f"opekit.{opekit._SUBMODULE[name]}")
            assert getattr(opekit, name) is getattr(module, name)
            assert name in listed
        assert len(opekit.__all__) == 61
        with pytest.raises(AttributeError, match="no attribute 'nothing'"):
            opekit.nothing
