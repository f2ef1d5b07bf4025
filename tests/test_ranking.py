"""Position-wise estimators and their scalar reductions."""

import numpy as np
import pytest

from opekit import (
    RankedDataset,
    beta_ipm,
    beta_ips,
    beta_perp_star_hat,
    beta_perp_star_ipm,
    beta_star_ips,
    ipm,
    ips,
    snipm,
    snips,
)
from opekit.errors import (
    DegenerateWeights,
    LengthMismatch,
    ValidationError,
    ZeroWeightSum,
)

from conftest import dataset_from_weights, ranked_from_weights


class TestWorkedExample:
    def test_ipm(self, ranked_example):
        report = ipm(ranked_example)
        assert [p.estimate for p in report.per_position] == pytest.approx([0.5, 0.75])
        assert report.total == pytest.approx(1.25, rel=1e-12)
        assert all(p.baseline is None for p in report.per_position)

    def test_snipm(self, ranked_example):
        report = snipm(ranked_example)
        assert [p.estimate for p in report.per_position] == pytest.approx(
            [0.5, 0.6], rel=1e-12
        )
        assert report.total == pytest.approx(1.1, rel=1e-12)
        assert report.estimator_name == "snipm"
        assert report.n_used == 2

    def test_beta_ipm(self, ranked_example):
        report = beta_ipm(ranked_example, [0.0, 0.5])
        assert [p.estimate for p in report.per_position] == pytest.approx(
            [0.5, 0.625], rel=1e-12
        )
        assert report.total == pytest.approx(1.125, rel=1e-12)
        assert [p.baseline for p in report.per_position] == [0.0, 0.5]

    def test_second_position_plug_in_baseline(self, ranked_example):
        with pytest.raises(DegenerateWeights) as info:
            beta_perp_star_hat(ranked_example)
        assert info.value.positions == (0,)
        # The non-degenerate marginal alone gives cov/var = 1/3.
        only_second = RankedDataset.from_arrays(
            ranked_example.propensity_logging[:, 1:],
            ranked_example.propensity_target[:, 1:],
            ranked_example.rewards[:, 1:],
            reward_bound=ranked_example.reward_bound,
            weight_bound=ranked_example.weight_bound,
        )
        assert beta_perp_star_hat(only_second)[0] == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_per_position_moments_attached(self, ranked_example):
        report = snipm(ranked_example)


class TestPlugInFamily:
    def test_both_positions_corrected(self):
        ranked = ranked_from_weights(
            [[2.0, 2.0], [0.5, 0.5]], [[1.0, 1.0], [0.0, 0.0]], weight_bound=2.0
        )
        baselines = beta_perp_star_hat(ranked)
        assert baselines == pytest.approx([4.0 / 3.0, 4.0 / 3.0], rel=1e-12)
        report = beta_perp_star_ipm(ranked)
        assert report.estimator_name == "beta-perp-star-ipm"
        assert [p.estimate for p in report.per_position] == pytest.approx(
            [2.0 / 3.0, 2.0 / 3.0], rel=1e-12
        )
        assert [p.baseline for p in report.per_position] == pytest.approx(
            list(baselines), rel=1e-15
        )

    def test_all_degenerate_positions_listed(self):
        ranked = ranked_from_weights(
            [[1.0, 2.0, 1.0], [1.0, 0.5, 1.0]], [[1.0, 0.5, 0.0], [0.0, 1.0, 1.0]]
        )
        with pytest.raises(DegenerateWeights) as info:
            beta_perp_star_hat(ranked)
        assert info.value.positions == (0, 2)

    def test_baseline_vector_validation(self, ranked_example):
        with pytest.raises(LengthMismatch):
            beta_ipm(ranked_example, [0.5])
        with pytest.raises(ValidationError):
            beta_ipm(ranked_example, [0.5, float("nan")])


class TestSinglePositionReduction:
    def scalar_and_ranked(self):
        weights = [2.0, 0.5, 1.5, 0.25, 1.0, 3.0]
        rewards = [1.0, 0.0, 1.0, 1.0, 0.0, 1.0]
        scalar = dataset_from_weights(weights, rewards, weight_bound=3.0)
        ranked = ranked_from_weights(
            np.array(weights)[:, None], np.array(rewards)[:, None], weight_bound=3.0
        )
        return scalar, ranked

    def test_bitwise_reductions(self):
        scalar, ranked = self.scalar_and_ranked()
        assert ipm(ranked).total == ips(scalar).value
        assert snipm(ranked).total == snips(scalar).value
        assert beta_ipm(ranked, [0.4]).total == beta_ips(scalar, 0.4).value
        assert beta_perp_star_ipm(ranked).total == beta_star_ips(scalar).value

    def test_single_position_baseline_matches(self):
        scalar, ranked = self.scalar_and_ranked()
        assert beta_perp_star_hat(ranked)[0] == beta_star_ips(scalar).baseline_used


class TestReportStructure:
    def test_total_is_sum_of_positions(self):
        rng = np.random.default_rng(3)
        w = rng.integers(1, 17, size=(40, 3)) / 8.0
        r = rng.integers(0, 2, size=(40, 3)).astype(float)
        ranked = ranked_from_weights(w, r, weight_bound=2.0)
        for report in (ipm(ranked), snipm(ranked), beta_ipm(ranked, [0.1, 0.2, 0.3])):
            total = sum(p.estimate for p in report.per_position)
            assert report.total == pytest.approx(total, rel=1e-12)

    def test_position_permutation(self):
        rng = np.random.default_rng(4)
        w = rng.integers(1, 17, size=(30, 3)) / 8.0
        r = rng.integers(0, 2, size=(30, 3)).astype(float)
        ranked = ranked_from_weights(w, r, weight_bound=2.0)
        order = [2, 0, 1]
        permuted = ranked_from_weights(w[:, order], r[:, order], weight_bound=2.0)
        original = snipm(ranked)
        swapped = snipm(permuted)
        for j, source in enumerate(order):
            assert swapped.per_position[j].estimate == original.per_position[source].estimate
        assert swapped.total == pytest.approx(original.total, rel=1e-12)

    def test_zero_weight_position_reported(self):
        ranked = ranked_from_weights([[1.0, 0.0], [1.0, 0.0]], [[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ZeroWeightSum) as info:
            snipm(ranked)
        assert info.value.position == 1

    def test_scalar_input_rejected(self, two_row):
        for fn in (ipm, snipm, beta_perp_star_hat, lambda d: beta_ipm(d, [0.0])):
            with pytest.raises(ValidationError):
                fn(two_row)
