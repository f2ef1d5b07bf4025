"""Closed-form variances, the exact remainder, and tail bounds."""

import contextlib
import math

import numpy as np
import pytest

from opekit import (
    Dataset,
    MomentSummary,
    beta_ips,
    beta_ips_variance,
    empirical_moments,
    hoeffding_tail_bound,
    remainder_diagnostics,
    snips,
    snips_avar,
    variance_gap,
)
from opekit.errors import DegenerateWeights, ValidationError, ZeroWeightSum
from opekit.estimators import Rows

from conftest import cancelling_log, dataset_from_weights


def random_log() -> Dataset:
    """300 entries of weights in eighths up to 4 and rewards in [-1, 1]."""
    rng = np.random.default_rng(11)
    w = rng.integers(0, 33, size=300) / 8.0
    r = np.round(rng.uniform(-1, 1, size=300), 6)
    return dataset_from_weights(w, r, weight_bound=4.0)


def shift_block(monkeypatch, mean: str, by: float) -> None:
    """Every block built from here on has its ``mean`` moved by ``by``."""
    init = Rows.__init__

    def shifted(rows, w, wr, ws):
        init(rows, w, wr, ws)
        setattr(rows, mean, getattr(rows, mean) + by)

    monkeypatch.setattr(Rows, "__init__", shifted)


def moments(var_w, var_wr, cov, n, mean_wr=0.5):
    return MomentSummary(
        mean_w=1.0, mean_wr=mean_wr, var_w=var_w, var_wr=var_wr, cov_w_wr=cov, n=n
    )


class TestVarianceFormulas:
    def test_zero_baseline(self):
        assert beta_ips_variance(moments(1.0, 1.0, 0.0, 10), 0.0) == 0.1

    def test_quadratic_arithmetic(self):
        m = moments(0.25, 1.0, 0.3, 100)
        assert beta_ips_variance(m, 1.2) == pytest.approx(0.0064, rel=1e-12)
        assert snips_avar(m, 0.5) == pytest.approx(0.007625, rel=1e-12)

    def test_avar_is_same_formula(self):
        m = moments(0.25, 1.0, 0.3, 100)
        for v in (-1.0, 0.0, 0.37, 2.0):
            assert snips_avar(m, v) == beta_ips_variance(m, v)

    def test_optimal_baseline_closed_form(self):
        m = moments(0.5, 2.0, 0.6, 50)
        star = m.cov_w_wr / m.var_w
        expected = (m.var_wr - m.cov_w_wr**2 / m.var_w) / m.n
        assert beta_ips_variance(m, star) == pytest.approx(expected, rel=1e-12)

    def test_quadratic_minimised_at_star(self):
        m = moments(0.5, 2.0, 0.6, 50)
        star = m.cov_w_wr / m.var_w
        best = beta_ips_variance(m, star)
        for beta in np.linspace(-3.0, 3.0, 61):
            value = beta_ips_variance(m, beta)
            assert value >= best - 1e-15
            if abs(beta - star) > 1e-6:
                assert value > best

    def test_non_finite_baseline(self):
        with pytest.raises(ValidationError):
            beta_ips_variance(moments(1.0, 1.0, 0.0, 10), float("inf"))


class TestVarianceGap:
    def test_arithmetic_example(self):
        m = moments(0.25, 1.0, 0.1, 1000)
        report = variance_gap(m, 0.8)
        assert report.gap_delta == pytest.approx(4.0e-5, rel=1e-12)
        assert report.n == 1000

    def test_zero_exactly_at_constructed_optimum(self):
        # cov = 0.5 * var_w, both binary fractions, so the ratio is exact.
        m = moments(0.5625, 1.0, 0.28125, 100)
        star = m.cov_w_wr / m.var_w
        assert star == 0.5
        assert variance_gap(m, star).gap_delta == 0.0
        assert variance_gap(m, star + 0.25).gap_delta > 0.0

    def test_report_consistency(self):
        m = moments(0.25, 1.0, 0.1, 1000)
        report = variance_gap(m, 0.8)
        assert report.var_beta == report.avar_snips
        assert report.avar_snips - report.var_beta_star == pytest.approx(
            report.gap_delta, rel=1e-10
        )
        assert report.var_beta_star <= report.avar_snips

    @pytest.mark.parametrize("value", [1.0 + 1e-7, 1.001, 1.25])
    def test_value_near_the_optimum_of_a_log(self, value):
        # Every reward is 1, so beta* is 1 and both variances cancel terms far larger than the gap.
        rng = np.random.default_rng(0)
        log = Dataset.from_arrays(
            np.full(1000, 0.5), rng.uniform(0.05, 0.95, 1000), np.ones(1000), reward_bound=1.0, weight_bound=2.0
        )
        m = empirical_moments(log)
        report = variance_gap(m, value)
        residual = (value - 1.0) * m.var_w
        assert report.gap_delta == pytest.approx(residual * residual / (m.n * m.var_w), rel=1e-6)
        assert report.avar_snips - report.var_beta_star == pytest.approx(report.gap_delta, rel=1e-9, abs=1e-18)

    def test_degenerate_weights(self):
        with pytest.raises(DegenerateWeights):
            variance_gap(moments(0.0, 1.0, 0.0, 10), 0.5)

    def test_non_finite_value(self):
        with pytest.raises(ValidationError):
            variance_gap(moments(1.0, 1.0, 0.0, 10), float("nan"))

    def test_many_random_moments(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            var_w = float(10.0 ** rng.uniform(-3, 1))
            var_wr = float(10.0 ** rng.uniform(-3, 1))
            rho = float(rng.uniform(-0.999, 0.999))
            cov = rho * math.sqrt(var_w * var_wr)
            m = moments(var_w, var_wr, cov, int(rng.integers(1, 10_000)))
            report = variance_gap(m, float(rng.uniform(-2, 2)))
            assert report.gap_delta >= -1e-12


class TestRemainder:
    def test_worked_example(self, two_row):
        d = remainder_diagnostics(two_row, 0.5)
        assert d.l_n == 0.375
        assert d.w_bar == 1.25
        assert d.r_n == pytest.approx(-0.075, rel=1e-12)
        assert d.r_n_linearised == -0.09375
        assert d.event_holds
        assert snips(two_row).value == pytest.approx(
            beta_ips(two_row, 0.5).value + d.r_n, rel=1e-12
        )

    def test_unit_mean_weight_kills_remainder(self, unit_mean):
        for v in (-1.0, 0.0, 0.5, 3.0):
            assert remainder_diagnostics(unit_mean, v).r_n == 0.0

    def test_identity_holds_at_any_reference(self, two_row):
        values = [-2.0, 0.0, 0.26, snips(two_row).value, 1.7]
        for v in values:
            d = remainder_diagnostics(two_row, v)
            lhs = snips(two_row).value
            rhs = beta_ips(two_row, v).value + d.r_n
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_series_definitions(self, two_row):
        d = remainder_diagnostics(two_row, 0.5)
        u, t = two_row.weights * (two_row.rewards - 0.5), two_row.weights - 1.0
        assert (d.max_abs_u, d.max_abs_t) == (1.0, 1.0)
        assert (d.max_abs_u, d.max_abs_t) == (np.max(np.abs(u)), np.max(np.abs(t)))
        assert float(np.mean(u)) == pytest.approx(d.l_n, rel=1e-12)
        assert float(np.mean(t)) == pytest.approx(d.w_bar - 1.0, rel=1e-12)

    def test_series_bounds(self):
        d = random_log()
        diag = remainder_diagnostics(d, 0.9)
        big_w = d.weight_bound
        assert diag.max_abs_u == np.max(np.abs(d.weights * (d.rewards - 0.9)))
        assert diag.max_abs_t == np.max(np.abs(d.weights - 1.0))
        assert diag.max_abs_u <= d.reward_bound * big_w * (1.0 + big_w)
        assert diag.max_abs_t <= big_w

    @pytest.mark.parametrize("n", [10_000, 100_000])
    @pytest.mark.parametrize("value", [1e-10, 1e-8, 1e-6])
    def test_cancelling_weighted_rewards(self, n, value):
        # The u series' mean and L_n sum terms near 1e9 whose sum cancels, so they
        # differ by rounding of the terms' size, not of the sum's: the call's check passes.
        dataset = cancelling_log(n)
        wr = dataset.weights * dataset.rewards
        d = remainder_diagnostics(dataset, value)
        tolerance = 1e-12 * float(np.mean(np.abs(wr)))
        assert d.l_n == pytest.approx(math.fsum(wr) / n - value * d.w_bar, rel=0, abs=tolerance)
        assert d.max_abs_u == np.max(np.abs(dataset.weights * (dataset.rewards - value)))

    @pytest.mark.parametrize("shift, raises", [(1e-10, True), (1e-14, False)])
    def test_u_series_tolerance(self, monkeypatch, shift, raises):
        # No dataset makes the u series' mean and L_n disagree, so the block's weighted
        # reward mean is moved by a share of the check's scale: 1e-10 is caught, 1e-14 is rounding.
        dataset, value = random_log(), 0.9
        scale = float(np.mean(np.abs(dataset.weights * dataset.rewards))) + value * float(np.mean(dataset.weights))
        shift_block(monkeypatch, "mean_wr", shift * scale)
        with pytest.raises(ValidationError, match="u series") if raises else contextlib.nullcontext():
            remainder_diagnostics(dataset, value)

    @pytest.mark.parametrize("shift, raises", [(1e-10, True), (1e-14, False)])
    def test_t_series_tolerance(self, monkeypatch, shift, raises):
        # As above for the weight mean; at value 0, L_n does not read it.
        dataset = random_log()
        shift_block(monkeypatch, "mean_w", shift * max(1.0, float(np.mean(dataset.weights))))
        with pytest.raises(ValidationError, match="t series") if raises else contextlib.nullcontext():
            remainder_diagnostics(dataset, 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [1e308, -1e308, 1.75e308])
    def test_value_near_the_float_maximum(self, value):
        # The u series sums past the float range; its check passes, and nothing warns.
        unit = dataset_from_weights([1.0, 1.0], [1.0, 0.0], weight_bound=1.0)
        d = remainder_diagnostics(unit, value)
        assert (d.l_n, d.r_n, d.max_abs_u, d.max_abs_t) == (0.5 - value, 0.0, abs(value), 0.0)

    def test_event_flag(self):
        low = dataset_from_weights([0.25, 0.25], [1.0, 0.0], weight_bound=1.0)
        assert not remainder_diagnostics(low, 0.5).event_holds

    def test_zero_weights(self, zero_weights):
        with pytest.raises(ZeroWeightSum):
            remainder_diagnostics(zero_weights, 0.5)

    def test_non_finite_value(self, two_row):
        with pytest.raises(ValidationError):
            remainder_diagnostics(two_row, float("inf"))


class TestTailBound:
    def test_reference_points(self):
        assert hoeffding_tail_bound(100, 5.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
        assert hoeffding_tail_bound(2, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_monotone_in_n(self):
        values = [hoeffding_tail_bound(n, 3.0) for n in (1, 10, 100, 1000, 10_000)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-200

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            hoeffding_tail_bound(0, 3.0)
        with pytest.raises(ValidationError):
            hoeffding_tail_bound(10, 0.0)
        with pytest.raises(ValidationError):
            hoeffding_tail_bound(10, float("inf"))
