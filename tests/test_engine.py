"""The block replicate engine against the public estimator API.

``replicate_estimates`` evaluates a cell in blocks of replicates with row
kernels. Every test here replays replicate ``r`` through the public
samplers and estimators, one dataset at a time, and requires the same
bits and the same failure records in the same order.
"""

import numpy as np
import pytest

from opekit import (
    StudyConfig,
    beta_ipm,
    beta_ips,
    beta_perp_star_ipm,
    beta_star_ips,
    cross_fitted_beta_ips,
    get_scenario,
    ipm,
    ips,
    remainder_diagnostics,
    replicate_estimates,
    run_mc_study,
    sample_logs,
    sample_ranked_logs,
    snipm,
    snips,
    true_value,
)
from opekit import experiments
from opekit.errors import EstimationError
from opekit.estimators import CrossFitConfig, _fold_layout, fold_indices
from opekit.experiments import FailureRecord, _block_rows, parse_estimator_spec
from opekit.simulator import BanditEnv, BanditScenario, PolicyTable

SEED = 20260823
SCALAR = ("ips", "snips", "beta-ips:0.1925", "beta-star-ips", "cf-beta-star-ips", "remainder-sq")
RANKED = ("ipm", "snipm", "beta-ipm:0.1,0.2", "beta-perp-star-ipm")


def three_by_three() -> BanditScenario:
    """Three contexts by three actions; one context and several cells have zero probability."""
    return BanditScenario(
        env=BanditEnv(
            context_probs=[0.5, 0.0, 0.5],
            reward_means=[[0.1, 0.5, 0.9], [0.3, 0.3, 0.3], [1.0, 0.0, 0.2]],
        ),
        logging_policy=PolicyTable([[0.5, 0.0, 0.5], [0.2, 0.3, 0.5], [0.3, 0.3, 0.4]]),
        target_policy=PolicyTable([[0.0, 0.0, 1.0], [0.1, 0.8, 0.1], [0.6, 0.2, 0.2]]),
    )


def scalar_value(spec, dataset, folds, oracle):
    if spec.name == "ips":
        return ips(dataset).value
    if spec.name == "snips":
        return snips(dataset).value
    if spec.name == "beta-ips":
        return beta_ips(dataset, spec.params[0]).value
    if spec.name == "beta-star-ips":
        return beta_star_ips(dataset).value
    if spec.name == "cf-beta-star-ips":
        return cross_fitted_beta_ips(dataset, CrossFitConfig(folds_k=folds, seed=SEED)).value
    return remainder_diagnostics(dataset, oracle).r_n ** 2


def ranked_values(spec, dataset):
    if spec.name == "ipm":
        report = ipm(dataset)
    elif spec.name == "snipm":
        report = snipm(dataset)
    elif spec.name == "beta-ipm":
        report = beta_ipm(dataset, spec.params)
    else:
        report = beta_perp_star_ipm(dataset)
    return [p.estimate for p in report.per_position] + [report.total]


def replay(scenario, n, replicates, estimators, folds=5):
    """The replicate matrix and failure records, one public-API dataset at a time."""
    specs = [parse_estimator_spec(e) for e in estimators]
    scalar = isinstance(scenario, BanditScenario)
    oracle = true_value(scenario.env, scenario.target_policy) if scalar else None
    width = 1 if scalar else scenario.k + 1
    rows, failures = [], []
    for r in range(replicates):
        seed = np.random.SeedSequence((SEED, n, r))
        if scalar:
            dataset = sample_logs(scenario.env, scenario.logging_policy, scenario.target_policy, n, seed)
        else:
            dataset = sample_ranked_logs(scenario, n, seed)
        row = []
        for spec in specs:
            try:
                if scalar:
                    row.append(scalar_value(spec, dataset, folds, oracle))
                else:
                    row.extend(ranked_values(spec, dataset))
            except EstimationError as exc:
                row.extend([np.nan] * width)
                failures.append(FailureRecord(spec.label, r, type(exc).__name__))
        rows.append(row)
    return np.array(rows), tuple(failures)


def assert_engine_matches_replay(scenario, n, replicates, estimators, n_jobs=1):
    matrix = replicate_estimates(scenario, n, replicates, SEED, estimators, n_jobs=n_jobs)
    values, failures = replay(scenario, n, replicates, estimators)
    assert np.array_equal(matrix.values, values, equal_nan=True)
    assert matrix.failures == failures
    return matrix


class TestBlockSize:
    def test_derived_from_entries(self):
        assert _block_rows(400, 1) == 20
        assert _block_rows(400, 2) == 10
        assert _block_rows(8192, 1) == 1
        assert _block_rows(9000, 1) == 1
        assert _block_rows(1, 1) == 8192

    def test_block_size_never_changes_a_bit(self, monkeypatch):
        scenario = get_scenario("flip2")
        default = replicate_estimates(scenario, 100, 90, SEED, SCALAR)
        for entries in (1, 700):
            monkeypatch.setattr(experiments, "_BLOCK_ENTRIES", entries)
            other = replicate_estimates(scenario, 100, 90, SEED, SCALAR)
            assert np.array_equal(default.values, other.values, equal_nan=True)
            assert default.failures == other.failures


class TestScalarEquivalence:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_replicates_not_a_multiple_of_the_block(self, n_jobs):
        assert 47 % _block_rows(400, 1) != 0
        assert_engine_matches_replay(get_scenario("flip2"), 400, 47, SCALAR, n_jobs)

    @pytest.mark.parametrize("n", [100, 9000])
    def test_both_sides_of_the_entry_budget(self, n):
        assert_engine_matches_replay(get_scenario("flip2"), n, 4 if n > 8192 else 83, SCALAR)

    def test_remainder_is_squared_as_a_python_float(self):
        scenario = get_scenario("flip2")
        matrix = assert_engine_matches_replay(scenario, 200, 800, ("remainder-sq",))
        r_n = [
            remainder_diagnostics(
                sample_logs(scenario.env, scenario.logging_policy, scenario.target_policy, 200,
                            np.random.SeedSequence((SEED, 200, r))),
                0.26,
            ).r_n
            for r in range(800)
        ]
        # The cell includes replicates where np.square rounds differently.
        assert not np.array_equal(matrix.column("remainder-sq"), np.square(r_n))

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_three_contexts_with_zero_probability_cells(self, n_jobs):
        assert_engine_matches_replay(three_by_three(), 300, 31, SCALAR, n_jobs)


class TestRankedEquivalence:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_rankflip(self, n_jobs):
        assert 40 % _block_rows(150, 2) != 0
        assert_engine_matches_replay(get_scenario("rankflip2x2"), 150, 40, RANKED, n_jobs)

    def test_above_the_entry_budget(self):
        assert_engine_matches_replay(get_scenario("rankflip2x2"), 5000, 3, RANKED)


class TestFailureRecords:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_folds_too_small(self, n_jobs):
        matrix = assert_engine_matches_replay(
            get_scenario("flip2"), 9, 30, ("cf-beta-star-ips", "ips"), n_jobs
        )
        assert matrix.failures == tuple(
            FailureRecord("cf-beta-star-ips", r, "FoldTooSmall") for r in range(30)
        )

    def test_order_is_replicate_then_metric(self):
        estimators = ("cf-beta-star-ips", "ips", "beta-star-ips")
        matrix = assert_engine_matches_replay(get_scenario("identity2"), 9, 30, estimators, n_jobs=2)
        assert matrix.failures == tuple(
            FailureRecord(metric, r, error)
            for r in range(30)
            for metric, error in (("cf-beta-star-ips", "FoldTooSmall"), ("beta-star-ips", "DegenerateWeights"))
        )

    def test_degenerate_weights_on_identity(self):
        matrix = assert_engine_matches_replay(get_scenario("identity2"), 40, 25, ("ips", "beta-star-ips"))
        assert [f.replicate for f in matrix.failures] == list(range(25))
        assert {f.error for f in matrix.failures} == {"DegenerateWeights"}

    def test_cross_fit_failures_at_small_n(self):
        matrix = assert_engine_matches_replay(get_scenario("flip2"), 100, 200, SCALAR)
        assert matrix.failures
        assert {f.metric for f in matrix.failures} == {"cf-beta-star-ips"}


class TestFoldLayout:
    def test_cached_arrays_are_read_only(self):
        folds, complements = _fold_layout(40, 4, 9)
        for arr in folds + complements:
            with pytest.raises(ValueError):
                arr[0] = 0
        assert _fold_layout(40, 4, 9) is _fold_layout(40, 4, 9)

    def test_fold_indices_partition_unchanged(self):
        folds = fold_indices(23, CrossFitConfig(folds_k=5, seed=3))
        perm = np.random.default_rng(3).permutation(23)
        expected = [np.sort(chunk) for chunk in np.array_split(perm, 5)]
        assert all(np.array_equal(a, b) for a, b in zip(folds, expected))
        _, complements = _fold_layout(23, 5, 3)
        for fold, complement in zip(folds, complements):
            assert np.array_equal(np.sort(np.concatenate([fold, complement])), np.arange(23))


class TestWorkerPool:
    def test_one_pool_per_study(self, monkeypatch):
        opened = []

        class CountingPool(experiments.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
        config = StudyConfig(get_scenario("flip2"), "flip2", (50, 100, 200), 100, SEED, ("ips",))
        report = run_mc_study(config, n_jobs=2)
        assert len(opened) == 1
        assert [row.n for row in report.rows] == [50, 100, 200]
