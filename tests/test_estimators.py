"""Scalar estimators against hand-computed values."""

import numpy as np
import pytest

from opekit import (
    CrossFitConfig,
    MomentSummary,
    beta_ipm,
    beta_ips,
    beta_ips_variance,
    beta_star_hat,
    beta_star_ips,
    cross_fitted_beta_ips,
    empirical_moments,
    hoeffding_tail_bound,
    ips,
    remainder_diagnostics,
    snips,
    variance_gap,
)
from opekit.errors import (
    DegenerateWeights,
    FoldTooSmall,
    UnknownEstimator,
    ValidationError,
    ZeroWeightSum,
)
from opekit.estimators import estimate, parse_estimator_spec
from opekit.ranking import positionwise

from conftest import dataset_from_weights, fold_indices, ranked_from_weights


class TestMoments:
    def test_identity_weights(self, identity_weights):
        m = empirical_moments(identity_weights)
        assert m.mean_w == 1.0
        assert m.mean_wr == pytest.approx(0.6, rel=1e-15)
        assert m.var_w == 0.0

    def test_two_row(self, two_row):
        m = empirical_moments(two_row)
        assert m.mean_w == 1.25
        assert m.mean_wr == 1.0
        assert m.var_w == 0.5625
        assert m.cov_w_wr == 0.75
        assert m.var_wr == 1.0
        assert m.n == 2

    def test_unit_mean(self, unit_mean):
        m = empirical_moments(unit_mean)
        assert m.mean_w == 1.0
        assert m.mean_wr == 0.375

    def test_rejects_ranked(self, ranked_example):
        with pytest.raises(ValidationError):
            empirical_moments(ranked_example)

    def test_summary_validation(self):
        with pytest.raises(ValidationError):
            MomentSummary(mean_w=1, mean_wr=0, var_w=-0.1, var_wr=1, cov_w_wr=0, n=2)
        with pytest.raises(ValidationError):
            MomentSummary(mean_w=1, mean_wr=0, var_w=1, var_wr=1, cov_w_wr=2.0, n=2)
        with pytest.raises(ValidationError):
            MomentSummary(mean_w=1, mean_wr=0, var_w=1, var_wr=1, cov_w_wr=0, n=0)


class TestPointEstimators:
    def test_ips(self, identity_weights, two_row, unit_mean):
        assert ips(identity_weights).value == pytest.approx(0.6, rel=1e-15)
        assert ips(two_row).value == 1.0
        assert ips(unit_mean).value == 0.375
        assert ips(two_row).estimator_name == "ips"
        assert ips(two_row).n_used == 2

    def test_snips(self, identity_weights, two_row):
        assert snips(identity_weights).value == pytest.approx(0.6, rel=1e-15)
        assert snips(two_row).value == 0.8

    def test_snips_zero_weights(self, zero_weights):
        with pytest.raises(ZeroWeightSum):
            snips(zero_weights)

    def test_beta_ips(self, two_row):
        assert beta_ips(two_row, 0.5).value == 0.875
        assert beta_ips(two_row, 0.5).baseline_used == 0.5

    def test_beta_zero_is_ips_bitwise(self, two_row, unit_mean):
        for d in (two_row, unit_mean):
            assert beta_ips(d, 0.0).value == ips(d).value

    def test_unit_mean_weight_ignores_baseline(self, unit_mean):
        for beta in (-3.0, 0.0, 0.7, 100.0):
            assert beta_ips(unit_mean, beta).value == 0.375

    def test_beta_must_be_finite(self, two_row):
        with pytest.raises(ValidationError):
            beta_ips(two_row, float("nan"))


class TestPlugInBaseline:
    def test_two_row(self, two_row):
        assert beta_star_hat(two_row) == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_degenerate(self, identity_weights):
        with pytest.raises(DegenerateWeights):
            beta_star_hat(identity_weights)
        with pytest.raises(DegenerateWeights):
            beta_star_ips(identity_weights)

    def test_constant_reward_recovers_it(self):
        d = dataset_from_weights([2.0, 0.5, 1.0], [0.7, 0.7, 0.7])
        assert beta_star_hat(d) == pytest.approx(0.7, rel=1e-12)

    def test_corrected_estimate(self, two_row):
        e = beta_star_ips(two_row)
        assert e.value == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert e.baseline_used == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert e.estimator_name == "beta-star-ips"

    def test_half_three_halves(self):
        d = dataset_from_weights([0.5, 1.5], [1.0, 0.0])
        assert beta_star_hat(d) == -0.5
        assert beta_star_ips(d).value == 0.25


class TestFolds:
    def test_partition(self):
        folds = fold_indices(23, CrossFitConfig(folds_k=5, seed=3))
        merged = np.sort(np.concatenate(folds))
        assert np.array_equal(merged, np.arange(23))
        sizes = sorted(len(f) for f in folds)
        assert sizes == [4, 4, 5, 5, 5]

    def test_deterministic(self):
        a = fold_indices(40, CrossFitConfig(folds_k=4, seed=9))
        b = fold_indices(40, CrossFitConfig(folds_k=4, seed=9))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = fold_indices(40, CrossFitConfig(folds_k=4, seed=10))
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_too_small(self):
        with pytest.raises(FoldTooSmall):
            fold_indices(3, CrossFitConfig(folds_k=4))
        with pytest.raises(FoldTooSmall):
            fold_indices(9, CrossFitConfig(folds_k=5))

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            CrossFitConfig(folds_k=1)
        with pytest.raises(ValidationError):
            CrossFitConfig(seed=-1)
        for folds_k, seed in ((2.5, 0), (5, 1.5), (True, 0), (5, "1"), (None, 0)):
            with pytest.raises(ValidationError, match="must be an integer"):
                CrossFitConfig(folds_k, seed)
        config = CrossFitConfig(np.int64(4), 9.0)
        assert (type(config.folds_k), type(config.seed)) == (int, int)
        assert config == CrossFitConfig(4, 9)

    def test_config_must_be_a_config(self, two_row):
        with pytest.raises(ValidationError, match="^the cross-fit config must be a CrossFitConfig, got int$"):
            cross_fitted_beta_ips(two_row, 5)


class TestCrossFitted:
    def test_identity_weights_give_plain_mean(self):
        d = dataset_from_weights([1.0, 1.0, 1.0, 1.0], [1.0, 0.0, 1.0, 0.0])
        for seed in (0, 1, 2):
            e = cross_fitted_beta_ips(d, CrossFitConfig(folds_k=2, seed=seed))
            assert e.value == 0.5
            assert e.baseline_used == 0.0
            assert e.estimator_name == "cf-beta-star-ips"

    def test_constant_non_unit_weights_fail(self):
        d = dataset_from_weights([2.0] * 10, [1.0, 0.0] * 5)
        with pytest.raises(DegenerateWeights):
            cross_fitted_beta_ips(d, CrossFitConfig(folds_k=2, seed=0))

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(5)
        w = rng.integers(1, 17, size=40) / 8.0
        r = rng.integers(0, 2, size=40).astype(float)
        d = dataset_from_weights(w, r, weight_bound=2.0)
        a = cross_fitted_beta_ips(d, CrossFitConfig(folds_k=5, seed=7))
        b = cross_fitted_beta_ips(d, CrossFitConfig(folds_k=5, seed=7))
        assert a.value == b.value

    def test_rejects_ranked(self, ranked_example):
        with pytest.raises(ValidationError):
            cross_fitted_beta_ips(ranked_example)


def test_ranked_input_rejected_everywhere():
    ranked = ranked_from_weights([[1.0]], [[1.0]])
    for fn in (ips, snips, lambda d: beta_ips(d, 0.0), beta_star_hat):
        with pytest.raises(ValidationError):
            fn(ranked)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda d, m, r: hoeffding_tail_bound(10, None), "weight bound must be a number"),
        (lambda d, m, r: hoeffding_tail_bound("10", 9.0), "n must be an integer"),
        (lambda d, m, r: hoeffding_tail_bound(10, 10**400), "weight bound must be finite"),
        (lambda d, m, r: hoeffding_tail_bound(10**400, 9.0), "n must be finite"),
        (lambda d, m, r: beta_ips(d, "abc"), "baseline must be a number"),
        (lambda d, m, r: beta_ips(d, [1, 2]), "baseline must be a number"),
        (lambda d, m, r: beta_ips(d, 10**400), "baseline must be finite"),
        (lambda d, m, r: beta_ips_variance(m, "x"), "baseline must be a number"),
        (lambda d, m, r: variance_gap(m, [0.2, 0.3]), "value must be a number"),
        (lambda d, m, r: remainder_diagnostics(d, "x"), "value must be a number"),
        (lambda d, m, r: beta_ipm(r, "ab"), "baselines must hold only real numbers"),
        (lambda d, m, r: beta_ipm(r, [10**400, 0.0]), "baselines holds a number too large for a float"),
        (lambda d, m, r: beta_ips(d, np.complex128(0.5 + 2j)), "baseline must be a number"),
        (lambda d, m, r: beta_ipm(r, np.array([0.5 + 2j, 0.5])), "baselines must hold only real numbers"),
        (lambda d, m, r: beta_ipm(r, [np.complex128(0.5 + 2j), 0.5]), "baselines must hold only real numbers"),
        (lambda d, m, r: MomentSummary(0.5, 0.1, "x", 0.1, 0.0, 3), "var_w must be a number"),
        (lambda d, m, r: MomentSummary("x", 0.1, 0.1, 0.1, 0.0, 3), "mean_w must be a number"),
        (lambda d, m, r: MomentSummary(0.5, 0.1, 0.1, 0.1, 0.0, "3"), "n must be an integer"),
        (lambda d, m, r: estimate("cf-beta-star-ips", d, 5), "^the cross-fit config must be a CrossFitConfig, got int$"),
        (lambda d, m, r: estimate("beta-ips", d, None), "^baseline must be a number, got None$"),
        (lambda d, m, r: estimate("beta-ips", d, "x"), "^baseline must be a number, got 'x'$"),
        (lambda d, m, r: estimate("beta-ips", d, np.inf), "^baseline must be finite, got inf$"),
        (lambda d, m, r: estimate("beta-ips", d, [1.0, 2.0]), r"^baseline must be a number, got \[1.0, 2.0\]$"),
        (lambda d, m, r: estimate("ips", d, 3), "^ips takes no argument, got 3$"),
        (lambda d, m, r: positionwise("ipm", r, 0.5), "^ipm takes no argument, got 0.5$"),
        (lambda d, m, r: positionwise("beta-ipm", r, [1.0]), r"^expected 2 baselines for 2 positions, got shape \(1,\)$"),
    ],
    ids=[
        "tail-bound-none",
        "tail-bound-str-n",
        "tail-bound-huge",
        "tail-bound-huge-n",
        "beta-ips-str",
        "beta-ips-list",
        "beta-ips-huge",
        "variance-str",
        "gap-list",
        "remainder-str",
        "beta-ipm-str",
        "beta-ipm-huge",
        "beta-ips-complex",
        "beta-ipm-complex-array",
        "beta-ipm-complex-scalars",
        "moments-str-variance",
        "moments-str-mean",
        "moments-str-n",
        "estimate-cf-int",
        "estimate-beta-ips-none",
        "estimate-beta-ips-str",
        "estimate-beta-ips-inf",
        "estimate-beta-ips-list",
        "estimate-ips-int",
        "positionwise-ipm-float",
        "positionwise-beta-ipm-short",
    ],
)
def test_non_number_arguments_raise_validation_errors(call, message):
    d = dataset_from_weights([2.0, 0.5], [1.0, 0.0], weight_bound=2.0)
    r = ranked_from_weights([[1.0, 2.0], [1.0, 0.5]], [[1.0, 0.5], [0.0, 1.0]], weight_bound=2.0)
    with pytest.raises(ValidationError, match=message):
        call(d, empirical_moments(d), r)


def test_numbers_in_other_spellings_keep_their_results(two_row):
    assert hoeffding_tail_bound(10, "9") == hoeffding_tail_bound(np.int64(10), 9) == hoeffding_tail_bound(10.0, 9.0)
    assert beta_ips(two_row, "0.5") == beta_ips(two_row, 0.5)


def test_unknown_name_has_one_wording(two_row):
    # estimate and positionwise name an estimator that is not registered as the spec parser does.
    ranked = ranked_from_weights([[1.0, 2.0], [1.0, 0.5]], [[1.0, 0.5], [0.0, 1.0]], weight_bound=2.0)
    for call in (
        lambda: estimate("nope", two_row),
        lambda: positionwise("nope", ranked),
        lambda: parse_estimator_spec("nope"),
    ):
        with pytest.raises(UnknownEstimator, match=r"^unknown estimator 'nope'$"):
            call()
