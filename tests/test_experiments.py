"""Monte Carlo engine, statistics helpers, and study drivers."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from opekit import (
    StudyConfig,
    bias_rate_study,
    decay_rate_study,
    dominance_check,
    fit_loglog_slope,
    get_scenario,
    ips,
    mse_decompose,
    oracle_report,
    paired_mse_difference,
    paired_variance_difference,
    replicate_estimates,
    run_mc_study,
    sample_logs,
    sample_ranked_logs,
    snips,
    variance_gap,
)
from opekit.errors import (
    DegenerateX,
    ExcessiveFailureRate,
    NonPositiveMean,
    PreconditionNotMet,
    TooFewReplicates,
    UnknownEstimator,
    ValidationError,
)
from opekit.experiments import (
    FailureRecord,
    MetricSpec,
    OracleTarget,
    ReplicateMatrix,
    _check_rate_study,
    _dominance_cells,
    _rows_for_matrix,
    parse_estimator_spec,
)
from opekit.simulator import BanditEnv, BanditScenario, PolicyTable, PositionModel, RankingEnv


def zero_reward_scenario() -> BanditScenario:
    """Flip policies over arms that never pay; every estimate is exactly zero."""
    return BanditScenario(
        env=BanditEnv(context_probs=[1.0], reward_means=[[0.0, 0.0]]),
        logging_policy=PolicyTable([[0.9, 0.1]]),
        target_policy=PolicyTable([[0.1, 0.9]]),
    )


class TestSpecParsing:
    def test_plain_names(self):
        for name in ("ips", "snips", "beta-star-ips", "cf-beta-star-ips", "remainder-sq",
                     "ipm", "snipm", "beta-perp-star-ipm"):
            spec = parse_estimator_spec(name)
            assert spec == MetricSpec(name)
            assert spec.label == name

    def test_parameterised(self):
        spec = parse_estimator_spec("beta-ips:0.5")
        assert spec.name == "beta-ips"
        assert spec.params == (0.5,)
        assert spec.label == "beta-ips:0.5"
        ranked = parse_estimator_spec("beta-ipm:0,0.25")
        assert ranked.params == (0.0, 0.25)

    def test_whitespace_tolerated(self):
        assert parse_estimator_spec("  snips ") == MetricSpec("snips")

    def test_idempotent(self):
        spec = MetricSpec("ips")
        assert parse_estimator_spec(spec) is spec

    def test_rejections(self):
        for bad in ("nope", "ips:1", "beta-ips", "beta-ips:", "beta-ips:x", "beta-ips:1,2"):
            with pytest.raises(UnknownEstimator):
                parse_estimator_spec(bad)

    @pytest.mark.parametrize(
        "spec, text, message",
        [
            (MetricSpec("beta-ips"), "beta-ips", "^beta-ips needs a baseline, e.g. beta-ips:0.5$"),
            (MetricSpec("ips", (1.0,)), "ips:1.0", "^ips takes no parameter, got 'ips:1.0'$"),
            (
                MetricSpec("beta-ips", (1.0, 2.0)),
                "beta-ips:1.0,2.0",
                "^beta-ips takes exactly one baseline, got 'beta-ips:1.0,2.0'$",
            ),
            (MetricSpec("beta-ips", ("x",)), None, "^cannot parse baselines in \"beta-ips:'x'\"$"),
            (MetricSpec("beta-ips", 0.5), None, r"^not an estimator spec: MetricSpec\(name='beta-ips', params=0.5\)$"),
            (MetricSpec(5, (1.0,)), None, r"^not an estimator spec: MetricSpec\(name=5, params=\(1.0,\)\)$"),
            (MetricSpec("beta-ips", (10**400,)), None, "^cannot parse baselines in 'beta-ips:10{400}'$"),
            (MetricSpec("beta-ips", ("0.5",)), "beta-ips:0.5", None),
            # Integers with more digits than Python writes in decimal, which the message cannot show.
            (MetricSpec("beta-ips", (10**5000,)), None, "^not an estimator spec: it holds an integer too long to write$"),
            (MetricSpec("beta-ipm", (1.0, 10**5000)), None, "^not an estimator spec: it holds an integer too long to write$"),
            (MetricSpec(10**5000, ()), None, "^not an estimator spec: it holds an integer too long to write$"),
        ],
    )
    def test_a_built_spec_passes_the_text_rules(self, spec, text, message):
        # A hand-built spec is refused as its label would be, before any replicate is drawn.
        calls = [lambda: replicate_estimates(get_scenario("flip2"), 50, 10, 0, [spec])]
        if message is None:
            # One that passes comes back with its params converted as the text's are.
            parsed = parse_estimator_spec(spec)
            assert parsed == parse_estimator_spec(text) == MetricSpec("beta-ips", (0.5,))
            assert parsed.label == text
            assert calls[0]().labels == (text,)
            return
        if text is not None:
            calls.append(lambda: parse_estimator_spec(text))
        for call in calls:
            with pytest.raises(UnknownEstimator, match=message):
                call()


class TestReplicateEngine:
    def test_seeding_contract(self):
        scenario = get_scenario("flip2")
        matrix = replicate_estimates(scenario, 60, 40, 9, ("ips", "snips"))
        assert matrix.labels == ("ips", "snips")
        assert matrix.values.shape == (40, 2)
        assert matrix.failures == ()
        for r in (0, 17, 39):
            d = sample_logs(
                scenario.env,
                scenario.logging_policy,
                scenario.target_policy,
                60,
                np.random.SeedSequence((9, 60, r)),
            )
            assert matrix.values[r, 0] == ips(d).value
            assert matrix.values[r, 1] == snips(d).value

    def test_parallel_matches_serial(self):
        scenario = get_scenario("flip2")
        serial = replicate_estimates(scenario, 50, 30, 4, ("ips", "beta-star-ips"))
        parallel = replicate_estimates(
            scenario, 50, 30, 4, ("ips", "beta-star-ips"), n_jobs=2
        )
        assert np.array_equal(serial.values, parallel.values)

    def test_estimator_list_does_not_change_columns(self):
        scenario = get_scenario("flip2")
        both = replicate_estimates(scenario, 40, 25, 6, ("ips", "snips"))
        only = replicate_estimates(scenario, 40, 25, 6, ("snips",))
        assert np.array_equal(both.column("snips"), only.column("snips"))

    def test_ranked_labels_and_totals(self):
        env = get_scenario("rankflip2x2")
        matrix = replicate_estimates(env, 50, 20, 3, ("snipm",))
        assert matrix.labels == ("snipm[pos1]", "snipm[pos2]", "snipm[total]")
        totals = matrix.column("snipm[pos1]") + matrix.column("snipm[pos2]")
        assert np.allclose(matrix.column("snipm[total]"), totals, rtol=1e-12)

    def test_unknown_column(self):
        matrix = replicate_estimates(get_scenario("flip2"), 40, 20, 0, ("ips",))
        with pytest.raises(ValidationError):
            matrix.column("snips")

    def test_kind_mismatch(self):
        with pytest.raises(UnknownEstimator):
            replicate_estimates(get_scenario("flip2"), 40, 20, 0, ("snipm",))
        with pytest.raises(UnknownEstimator):
            replicate_estimates(get_scenario("rankflip2x2"), 40, 20, 0, ("snips",))

    def test_argument_validation(self):
        scenario = get_scenario("flip2")
        with pytest.raises(TooFewReplicates):
            replicate_estimates(scenario, 40, 1, 0, ("ips",))
        with pytest.raises(ValidationError):
            replicate_estimates(scenario, 0, 20, 0, ("ips",))
        with pytest.raises(ValidationError):
            replicate_estimates(scenario, 40, 20, -1, ("ips",))
        with pytest.raises(ValidationError):
            replicate_estimates(scenario, 40, 20, 0, ())
        with pytest.raises(ValidationError):
            replicate_estimates(scenario, 40, 20, 0, ("ips",), n_jobs=0)

    def test_failures_become_nan_rows(self):
        matrix = replicate_estimates(get_scenario("identity2"), 30, 20, 0, ("ips", "beta-star-ips"))
        assert np.isfinite(matrix.column("ips")).all()
        assert np.isnan(matrix.column("beta-star-ips")).all()
        assert len(matrix.failures) == 20
        record = matrix.failures[0]
        assert record.metric == "beta-star-ips"
        assert record.error == "DegenerateWeights"


class TestStatisticsHelpers:
    def test_mse_decompose_centered(self):
        bias, variance, mse = mse_decompose([0.4, 0.6], 0.5)
        assert bias == 0.0
        assert variance == pytest.approx(0.01, rel=1e-12)
        assert mse == pytest.approx(0.01, rel=1e-12)

    def test_mse_decompose_pure_bias(self):
        bias, variance, mse = mse_decompose([0.5, 0.5], 0.3)
        assert bias == pytest.approx(0.2, rel=1e-15)
        assert variance == 0.0
        assert mse == pytest.approx(0.04, rel=1e-12)

    def test_mse_decompose_closure(self):
        rng = np.random.default_rng(1)
        values = rng.normal(0.3, 0.2, size=500)
        bias, variance, mse = mse_decompose(values, 0.25)
        assert mse == pytest.approx(bias * bias + variance, rel=1e-10)

    def test_mse_decompose_validation(self):
        with pytest.raises(TooFewReplicates):
            mse_decompose([0.5], 0.5)
        with pytest.raises(ValidationError):
            mse_decompose([0.5, float("nan")], 0.5)
        with pytest.raises(ValidationError):
            mse_decompose([[0.5, 0.5]], 0.5)

    def test_paired_mse_difference(self):
        diff, se = paired_mse_difference([0.0, 1.0], [1.0, 3.0], 0.0)
        assert diff == pytest.approx(4.5, rel=1e-15)
        assert se == pytest.approx(3.5, rel=1e-12)
        same, zero = paired_mse_difference([0.2, 0.4], [0.2, 0.4], 0.1)
        assert same == 0.0
        assert zero == 0.0

    def test_paired_variance_difference(self):
        diff, se = paired_variance_difference([0.0, 2.0], [0.0, 4.0])
        assert diff == pytest.approx(3.0, rel=1e-15)
        assert se == 0.0

    def test_paired_differences_near_the_float_maximum_warn_nothing(self):
        # Squares past the float range are inf, and inf - inf is nan, as in mse_decompose.
        assert np.isnan(paired_mse_difference([1e308, 1e308], [1e300, 1e300], 0.0)).all()
        assert paired_variance_difference([1e308, -1e308], [1e300, 1e300])[0] == -np.inf

    def test_paired_validation(self):
        with pytest.raises(ValidationError):
            paired_mse_difference([0.1, 0.2], [0.1], 0.0)
        with pytest.raises(TooFewReplicates):
            paired_variance_difference([0.1], [0.2])

    def test_loglog_slope(self):
        slope, _ = fit_loglog_slope([(10.0, 4e-2), (100.0, 4e-4)])
        assert slope == pytest.approx(-2.0, rel=1e-12)
        flat, intercept = fit_loglog_slope([(1.0, 5.0), (10.0, 5.0)])
        assert flat == pytest.approx(0.0, abs=1e-12)
        assert intercept == pytest.approx(np.log(5.0), rel=1e-12)

    def test_loglog_rejections(self):
        for points in ([(1.0, 1.0)], [(2.0, 1.0), (2.0, 3.0)], [(1.0, -1.0), (2.0, 1.0)],
                       [(0.0, 1.0), (2.0, 1.0)]):
            with pytest.raises(DegenerateX):
                fit_loglog_slope(points)

    def test_loglog_rejects_points_that_are_not_number_pairs(self):
        for points in ([("a", 1.0), (2.0, 3.0)], [(1.0,), (2.0, 3.0)], [1.0, 2.0], 5, [(10**400, 1.0), (2.0, 3.0)]):
            with pytest.raises(DegenerateX, match="pairs of numbers"):
                fit_loglog_slope(points)

    def test_non_finite_estimates_rejected_alike(self):
        for call in (
            lambda: mse_decompose([0.5, float("nan")], 0.5),
            lambda: paired_mse_difference([0.1, float("nan")], [0.1, 0.2], 0.0),
            lambda: paired_mse_difference([0.1, 0.2], [float("inf"), 0.2], 0.0),
            lambda: paired_variance_difference([0.1, float("nan")], [0.1, 0.2]),
            lambda: paired_variance_difference([0.1, 0.2], [0.1, float("-inf")]),
        ):
            with pytest.raises(ValidationError, match="finite"):
                call()

    def test_loglog_fit_rejects_non_finite_coordinates(self, capfd):
        for points in (
            [(10.0, 1.0), (float("inf"), 2.0)],
            [(10.0, 1.0), (100.0, float("inf"))],
            [(10.0, float("nan")), (100.0, 1.0)],
            [(float("nan"), 1.0), (100.0, 1.0)],
        ):
            with pytest.raises(DegenerateX, match="finite"):
                fit_loglog_slope(points)
        assert capfd.readouterr().err == ""


class TestOracleReport:
    def test_flip2(self):
        scenario = get_scenario("flip2")
        report = oracle_report(scenario)
        target = report.target("value")
        assert target.value == pytest.approx(0.26, rel=1e-15)
        assert target.moments.beta_star == pytest.approx(0.1925, rel=1e-12)
        assert target.gap.gap_delta == pytest.approx(0.0324, rel=1e-10)
        assert target.gap.avar_snips - target.gap.var_beta_star == pytest.approx(
            target.gap.gap_delta, rel=1e-10
        )
        assert target.gap == variance_gap(target.moments, target.value)
        assert report.value == target.value

    def test_tables_at_their_tolerance(self):
        # Each table passes its own 1e-9 sum check, so the oracle takes what the sampler takes,
        # though the weight mean, their product, is 1 + 1.8e-9.
        env = BanditEnv([0.5 + 9e-10, 0.5], [[0.8, 0.2], [0.3, 0.6]])
        logging = PolicyTable([[0.5, 0.5], [0.5, 0.5]])
        target = PolicyTable([[0.1 + 9e-10, 0.9], [0.1 + 9e-10, 0.9]])
        assert sample_logs(env, logging, target, 50, 0).n == 50
        moments = oracle_report(BanditScenario(env, logging, target)).target("value").moments
        assert moments.mean_w == pytest.approx(1.0 + 1.8e-9, rel=1e-15)

    def test_identity2_has_no_baseline(self):
        target = oracle_report(get_scenario("identity2")).target("value")
        assert target.value == pytest.approx(0.74, rel=1e-15)
        assert target.moments.beta_star is None
        assert target.gap is None
        assert target.moments.var_w == 0.0

    def test_ranking_targets(self):
        report = oracle_report(get_scenario("rankflip2x2"))
        assert [t.label for t in report.targets] == ["pos1", "pos2", "total"]
        assert report.target("pos1").value == pytest.approx(0.26)
        total = report.target("total")
        assert total.value == pytest.approx(0.52, rel=1e-12)
        assert total.moments is None
        assert total.gap is None
        assert report.value == pytest.approx(0.52, rel=1e-12)

    def test_unknown_target(self):
        with pytest.raises(ValidationError):
            oracle_report(get_scenario("flip2")).target("pos9")


def exact_target(context_probs, position) -> dict:
    """A position's value, moments at n = 1, optimal baseline and variance gap, in exact arithmetic.

    Every context, action and reward outcome is enumerated in Fractions of
    the scenario's own float tables, so the only rounding left is the one
    of the oracle under test.
    """
    value, cells = Fraction(0), []  # cells: (probability under logging, weight, reward)
    tables = (position.logging_policy.probs, position.target_policy.probs, position.reward_means)
    for p_x, *rows in zip(context_probs.tolist(), *(table.tolist() for table in tables)):
        for p_log, p_tgt, mu in zip(*([Fraction(v) for v in row] for row in rows)):
            value += Fraction(p_x) * p_tgt * mu
            if p_log:
                w = p_tgt / p_log
                cells += [(Fraction(p_x) * p_log * mu, w, 1), (Fraction(p_x) * p_log * (1 - mu), w, 0)]
    mean_w = sum(p * w for p, w, _ in cells)
    mean_wr = sum(p * w * y for p, w, y in cells)
    var_w = sum(p * (w - mean_w) ** 2 for p, w, _ in cells)
    cov = sum(p * (w - mean_w) * (w * y - mean_wr) for p, w, y in cells)
    return {
        "value": value,
        "mean_w": mean_w,
        "mean_wr": mean_wr,
        "var_w": var_w,
        "var_wr": sum(p * (w * y - mean_wr) ** 2 for p, w, y in cells),
        "cov_w_wr": cov,
        "beta_star": cov / var_w if var_w else None,
        "gap_delta": (value * var_w - cov) ** 2 / var_w if var_w else None,
    }


class TestExactOracle:
    # The oracle's floats against exact enumeration: within 1e-12 relative, and 1e-12
    # absolute for quantities that are zero but for the rounding of the tables
    # (identity2's weight variance and covariance, const2's gap).
    @pytest.mark.parametrize(
        "scenario",
        [get_scenario(name) for name in ("flip2", "identity2", "const2", "rankflip2x2")]
        + [
            BanditScenario(
                BanditEnv([0.3, 0.7], [[0.1, 0.5, 0.9], [0.4, 0.8, 0.3]]),
                PolicyTable([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3]]),
                PolicyTable([[0.2, 0.2, 0.6], [0.7, 0.1, 0.2]]),
            )
        ],
        ids=["flip2", "identity2", "const2", "rankflip2x2", "inline-2x3"],
    )
    def test_enumeration_in_fractions(self, scenario):
        report = oracle_report(scenario)
        values = []
        for position, target in zip(scenario.positions, report.targets):
            exact = exact_target(scenario.context_probs, position)
            values.append(exact["value"])
            moments = target.moments
            found = {"value": target.value, **{k: getattr(moments, k) for k in list(exact)[1:6]}}
            if moments.beta_star is None:
                assert target.gap is None
                assert exact["var_w"] < 1e-12
            else:
                found.update(beta_star=moments.beta_star, gap_delta=target.gap.gap_delta)
            for name, number in found.items():
                assert number == pytest.approx(float(exact[name]), rel=1e-12, abs=1e-12), (target.label, name)
        if len(report.targets) > len(values):
            assert report.value == pytest.approx(float(sum(values)), rel=1e-12)


class TestRuleBoundaries:
    # Hand-built matrices at the edge of each study rule README states, so that
    # a rule moved past its edge fails here, with no Monte Carlo.
    @pytest.mark.parametrize("failed", [2, 3])
    def test_one_percent_of_replicates_may_fail(self, failed):
        values = np.linspace(0.0, 1.0, 200)[:, None].copy()
        values[:failed] = np.nan
        failures = tuple(FailureRecord("snips", r, "ZeroWeightSum") for r in range(failed))
        matrix = ReplicateMatrix(n=50, labels=("snips",), values=values, failures=failures)
        metrics = (("snips", {"snips": 0.5}, None, None),)
        if failed == 2:  # exactly 1% of 200
            (row,) = _rows_for_matrix(matrix, metrics)
            assert (row.n_used, row.n_failed) == (198, 2)
        else:
            with pytest.raises(ExcessiveFailureRate, match="^snips failed on 3/200 replicates at n=50 "):
                _rows_for_matrix(matrix, metrics)

    @pytest.mark.parametrize(
        "pairs, margin, dominant",
        [(((8.0, 9.0), (6.0, 5.0)), 1.5, False), (((9.0, 10.0), (3.0, 0.0)), 2.5, True)],
    )
    def test_dominance_needs_a_margin_of_two_standard_errors(self, pairs, margin, dominant):
        # Squared-error differences alternate between two integers 14 apart, so over
        # 50 pairs their standard error is 14 / 7 = 2 and their mean is margin * 2.
        values = np.array(pairs * 25)
        matrix = ReplicateMatrix(n=50, labels=("beta-star-ips", "snips"), values=values, failures=())
        metrics = (("beta-star-ips", {"beta-star-ips": 0.0}, None, None), ("snips", {"snips": 0.0}, None, None))
        (cell,) = _dominance_cells(matrix, metrics, [OracleTarget("value", 0.0, None, None)])
        assert cell.mse_difference / cell.se_difference == pytest.approx(margin, rel=1e-12)
        assert (cell.dominant, cell.n_pairs) == (dominant, 50)

    @pytest.mark.parametrize("last, accepted", [(316, False), (317, True)])
    def test_rate_grids_span_one_and_a_half_decades(self, last, accepted):
        # log10(316 / 10) = 1.4997 and log10(317 / 10) = 1.5011.
        config = StudyConfig(get_scenario("flip2"), "flip2", (10, 20, 40, last), 100, 0)
        if accepted:
            _check_rate_study(config, "bias rate")
        else:
            message = "^rate studies need a grid spanning at least 1.5 decades, got 1.50$"
            with pytest.raises(ValidationError, match=message):
                _check_rate_study(config, "bias rate")

    @pytest.mark.parametrize("delta, refused", [(1e-6, False), (1e-9, True)])
    def test_dominance_refuses_only_an_optimal_baseline_at_the_true_value(self, delta, refused):
        # flip2's policies with reward means 0.5 + delta and 0.5: beta* differs from
        # the true value by 1.1e-7 at delta = 1e-6 and by 1.1e-10 at delta = 1e-9,
        # against the precondition's 1e-9 relative tolerance.
        env = BanditEnv(context_probs=[1.0], reward_means=[[0.5 + delta, 0.5]])
        scenario = BanditScenario(env, PolicyTable([[0.9, 0.1]]), PolicyTable([[0.1, 0.9]]))
        config = StudyConfig(scenario, "inline", (50,), 100, 0)
        if refused:
            with pytest.raises(PreconditionNotMet, match="the optimal baseline equals the true value"):
                dominance_check(config)
        else:
            assert [cell.n for cell in dominance_check(config).cells] == [50]


class TestStudyConfig:
    def test_validation(self):
        scenario = get_scenario("flip2")
        with pytest.raises(ValidationError):
            StudyConfig(scenario, "flip2", (), 100, 0)
        with pytest.raises(ValidationError):
            StudyConfig(scenario, "flip2", (100, 50), 100, 0)
        with pytest.raises(ValidationError):
            StudyConfig(scenario, "flip2", (50, 100), 99, 0)
        with pytest.raises(ValidationError):
            StudyConfig(scenario, "flip2", (50,), 100, -1)
        with pytest.raises(ValidationError):
            StudyConfig(scenario, "flip2", (50,), 100, 0, folds=1)
        with pytest.raises(ValidationError):
            StudyConfig("flip2", "flip2", (50,), 100, 0)

    def test_one_message_for_what_is_not_a_scenario(self):
        # One rule decides a scenario's kind, so nothing reads a non-scenario as a ranking first.
        message = "^scenario must be a BanditScenario or RankingEnv, got str$"
        for call in (
            lambda: replicate_estimates("garbage", 10, 100, 0, ["ips"]),
            lambda: replicate_estimates("garbage", 10, 100, 0, ["ipm"]),
            lambda: oracle_report("garbage"),
            lambda: sample_ranked_logs("garbage", 10, 0),
            lambda: StudyConfig("garbage", "garbage", (50,), 100, 0),
        ):
            with pytest.raises(ValidationError, match=message):
                call()

    def test_scalar_grid_is_a_validation_error(self):
        for grid in (400, None, 400.0):
            with pytest.raises(ValidationError, match="sequence"):
                StudyConfig(get_scenario("flip2"), "flip2", grid, 100, 0)

    def test_estimators_must_be_a_list(self):
        # A string is not read as a list of one-letter names, in a study or in the engine.
        scenario = get_scenario("flip2")
        for bad in ("snips", 5):
            message = f"^estimators must be a list of estimator names, got {bad!r}$"
            with pytest.raises(ValidationError, match=message):
                StudyConfig(scenario, "flip2", (50,), 100, 0, estimators=bad)
            with pytest.raises(ValidationError, match=message):
                replicate_estimates(scenario, 50, 10, 0, bad)

    def test_integer_rule(self):
        scenario = get_scenario("flip2")
        for bad in (
            dict(n_grid=(400.7,)),
            dict(n_grid=(True,)),
            dict(n_grid=("400",)),
            dict(replicates=150.5),
            dict(replicates=None),
            dict(master_seed=1.5),
            dict(master_seed=True),
            dict(folds=2.5),
            dict(folds=float("inf")),
        ):
            args = {"n_grid": (400,), "replicates": 100, "master_seed": 0, "folds": 5, **bad}
            with pytest.raises(ValidationError, match="integer"):
                StudyConfig(scenario, "flip2", **args)

    def test_replicate_estimates_integer_rule(self):
        scenario = get_scenario("flip2")
        for bad in (dict(n="5"), dict(n=5.5), dict(replicates="100"), dict(master_seed=True), dict(n_jobs=1.5)):
            args = {"n": 5, "replicates": 100, "master_seed": 0, **bad}
            with pytest.raises(ValidationError, match="integer"):
                replicate_estimates(scenario, estimators=["ips"], **args)
        whole = replicate_estimates(scenario, 5.0, np.int64(100), 0.0, ["ips"], n_jobs=np.int8(1))
        assert np.array_equal(whole.values, replicate_estimates(scenario, 5, 100, 0, ["ips"]).values)

    @pytest.mark.parametrize("n_jobs", [2.5, "2", True])
    def test_worker_count_integer_rule(self, n_jobs):
        # Each is rejected before a pool is created, so no worker process starts.
        scalar = StudyConfig(get_scenario("flip2"), "flip2", (100, 400, 1600, 6400), 100, 0)
        ranked = StudyConfig(get_scenario("rankflip2x2"), "rankflip2x2", (50,), 100, 0)
        for run in (
            lambda: replicate_estimates(get_scenario("flip2"), 5, 100, 0, ["ips"], n_jobs=n_jobs),
            lambda: run_mc_study(replace(scalar, estimators=("ips",)), n_jobs=n_jobs),
            lambda: dominance_check(ranked, n_jobs=n_jobs),
            lambda: decay_rate_study(scalar, n_jobs=n_jobs),
            lambda: bias_rate_study(scalar, n_jobs=n_jobs),
        ):
            with pytest.raises(ValidationError, match="worker count must be an integer"):
                run()

    @pytest.mark.parametrize("n_jobs", [2.0, np.int8(2)])
    def test_integral_worker_count_runs_as_int(self, n_jobs):
        # The chunk size is computed from the converted count: a float would break range() and
        # np.int8 would overflow in replicates // (n_jobs * 4) at 128 or more replicates.
        scenario = get_scenario("flip2")
        serial = replicate_estimates(scenario, 50, 200, 0, ["ips", "snips"])
        pooled = replicate_estimates(scenario, 50, 200, 0, ["ips", "snips"], n_jobs=n_jobs)
        assert np.array_equal(pooled.values, serial.values)
        config = StudyConfig(scenario, "flip2", (50,), 200, 0, estimators=("ips",))
        assert run_mc_study(config, n_jobs=n_jobs).rows == run_mc_study(config).rows

    def test_sample_size_integer_rule(self):
        scenario = get_scenario("flip2")
        tables = (scenario.env, scenario.logging_policy, scenario.target_policy)
        for bad in ("5", 5.5, True):
            with pytest.raises(ValidationError, match="sample size must be an integer"):
                sample_logs(*tables, bad, 0)
        assert np.array_equal(sample_logs(*tables, 5.0, 0).weights, sample_logs(*tables, 5, 0).weights)

    def test_integral_values_become_ints(self):
        config = StudyConfig(
            get_scenario("flip2"), "flip2", (400.0, np.int64(800)), np.int32(100), 7.0, folds=np.float64(3.0)
        )
        assert config.n_grid == (400, 800)
        assert (config.replicates, config.master_seed, config.folds) == (100, 7, 3)
        assert all(type(v) is int for v in (*config.n_grid, config.replicates, config.master_seed, config.folds))

    def test_weight_bound_helper(self):
        # The oracle reports the compiled bound, 0.9 / 0.1 on each position.
        for name in ("flip2", "rankflip2x2"):
            assert oracle_report(get_scenario(name)).weight_bound == 9.0


class TestMcStudy:
    def config(self, **overrides):
        base = dict(
            scenario=get_scenario("flip2"),
            scenario_label="flip2",
            n_grid=(50, 100),
            replicates=200,
            master_seed=12,
            estimators=("ips", "snips", "beta-star-ips"),
        )
        base.update(overrides)
        return StudyConfig(**base)

    def test_rows_and_metadata(self):
        report = run_mc_study(self.config())
        assert len(report.rows) == 6
        assert [row.n for row in report.rows] == [50, 50, 50, 100, 100, 100]
        for row in report.rows:
            assert row.oracle_value == pytest.approx(0.26, rel=1e-15)
            assert row.n_used == 200
            assert row.n_failed == 0
            assert row.mse == pytest.approx(row.bias**2 + row.variance, rel=1e-10)
            assert row.se > 0
        assert report.oracle.weight_bound == 9.0
        assert not hasattr(report, "weight_bound")
        assert report.estimators == ("ips", "snips", "beta-star-ips")

    def test_reproducible_across_runs_and_workers(self):
        first = run_mc_study(self.config())
        second = run_mc_study(self.config())
        parallel = run_mc_study(self.config(), n_jobs=2)
        assert first.rows == second.rows == parallel.rows

    def test_needs_estimators(self):
        # The study and the replicate engine refuse an empty list with one message.
        message = "^at least one estimator is required$"
        with pytest.raises(ValidationError, match=message):
            run_mc_study(self.config(estimators=()))
        with pytest.raises(ValidationError, match=message):
            replicate_estimates(get_scenario("flip2"), 40, 20, 0, ())

    @pytest.mark.parametrize("name, estimator", [("flip2", "beta-star-ips"), ("rankflip2x2", "beta-perp-star-ipm")])
    def test_failed_counts_are_the_recorded_failures(self, name, estimator):
        # At n = 48 the weights of a few replicates in a thousand have no variance,
        # where the plug-in baseline is undefined; a ranked metric's columns share them.
        report = run_mc_study(
            self.config(scenario=get_scenario(name), scenario_label=name, n_grid=(48,), replicates=1000,
                        master_seed=1, estimators=(estimator,))
        )
        failed = len(report.failures)
        assert 0 < failed <= 10
        assert len(report.rows) == (1 if name == "flip2" else 3)
        for row in report.rows:
            assert (row.n_failed, row.n_used) == (failed, 1000 - failed)

    def test_excessive_failures_abort(self):
        config = StudyConfig(
            scenario=get_scenario("identity2"),
            scenario_label="identity2",
            n_grid=(50,),
            replicates=100,
            master_seed=0,
            estimators=("beta-star-ips",),
        )
        with pytest.raises(ExcessiveFailureRate) as info:
            run_mc_study(config)
        assert info.value.metric == "beta-star-ips"
        assert info.value.failed == 100

    def test_ranked_excessive_failures_name_the_metric(self):
        # A replicate fails when any position fails: the count is the metric's, not a column's.
        config = StudyConfig(
            scenario=get_scenario("rankflip2x2"),
            scenario_label="rankflip2x2",
            n_grid=(3,),
            replicates=100,
            master_seed=1,
            estimators=("beta-perp-star-ipm",),
        )
        with pytest.raises(ExcessiveFailureRate) as info:
            run_mc_study(config)
        assert (info.value.metric, info.value.failed) == ("beta-perp-star-ipm", 93)


class TestDominance:
    def test_flip2_structure(self):
        config = StudyConfig(
            scenario=get_scenario("flip2"),
            scenario_label="flip2",
            n_grid=(200, 400),
            replicates=300,
            master_seed=21,
        )
        report = dominance_check(config)
        assert [c.n for c in report.cells] == [200, 400]
        for cell in report.cells:
            assert cell.target == "value"
            assert cell.n_pairs == 300
            assert cell.mse_difference == pytest.approx(
                cell.mse_self_normalised - cell.mse_optimal, rel=1e-10
            )
            assert cell.dominant == (cell.mse_difference > 2.0 * cell.se_difference)
        assert set(report.smallest_dominant_n) == {"value"}
        assert report.study.estimators == ("beta-star-ips", "snips")

    def test_ranked_targets(self):
        config = StudyConfig(
            scenario=get_scenario("rankflip2x2"),
            scenario_label="rankflip2x2",
            n_grid=(150,),
            replicates=150,
            master_seed=2,
        )
        report = dominance_check(config)
        assert sorted(c.target for c in report.cells) == ["pos1", "pos2"]
        assert set(report.smallest_dominant_n) == {"pos1", "pos2"}

    def test_preconditions(self):
        # The second position logs and targets one policy: its weights are all one.
        flip = PositionModel(PolicyTable([[0.9, 0.1]]), PolicyTable([[0.1, 0.9]]), [[0.2, 0.3]])
        same = PositionModel(PolicyTable([[0.5, 0.5]]), PolicyTable([[0.5, 0.5]]), [[0.2, 0.3]])
        undefined = "the optimal baseline is undefined (degenerate weights)"
        for scenario, message in (
            (get_scenario("identity2"), f"value: {undefined}"),
            (
                get_scenario("const2"),
                "value: the optimal baseline equals the true value, "
                "so self-normalisation is already asymptotically optimal",
            ),
            (RankingEnv([1.0], [flip, same]), f"pos2: {undefined}"),
        ):
            config = StudyConfig(
                scenario=scenario,
                scenario_label="preconditions",
                n_grid=(100,),
                replicates=100,
                master_seed=0,
            )
            with pytest.raises(PreconditionNotMet) as info:
                dominance_check(config)
            assert str(info.value) == message


class TestRateStudies:
    def rate_config(self, scenario, label, **overrides):
        base = dict(
            scenario=scenario,
            scenario_label=label,
            n_grid=(100, 200, 400, 3200),
            replicates=150,
            master_seed=8,
        )
        base.update(overrides)
        return StudyConfig(**base)

    def test_decay_slope_near_minus_two(self):
        report = decay_rate_study(self.rate_config(get_scenario("flip2"), "flip2"))
        assert report.true_value == pytest.approx(0.26, rel=1e-15)
        assert -3.0 < report.slope < -1.0
        assert report.dropped_cells == ()
        assert report.study.estimators == ("remainder-sq",)

    def test_grid_preconditions(self):
        scenario = get_scenario("flip2")
        short = self.rate_config(scenario, "flip2", n_grid=(100, 200, 400))
        with pytest.raises(ValidationError):
            decay_rate_study(short)
        narrow = self.rate_config(scenario, "flip2", n_grid=(100, 200, 400, 800))
        with pytest.raises(ValidationError):
            bias_rate_study(narrow)

    def test_scalar_only(self):
        config = self.rate_config(get_scenario("rankflip2x2"), "rankflip2x2")
        with pytest.raises(ValidationError):
            decay_rate_study(config)
        with pytest.raises(ValidationError):
            bias_rate_study(config)

    def test_bias_rate_runs(self):
        report = bias_rate_study(self.rate_config(get_scenario("flip2"), "flip2"))
        assert report.estimator == "snips"
        assert np.isfinite(report.slope)
        assert len(report.study.rows) == 4

    def test_bias_rate_single_estimator_only(self):
        config = self.rate_config(
            get_scenario("flip2"), "flip2", estimators=("ips", "snips")
        )
        with pytest.raises(ValidationError):
            bias_rate_study(config)

    def test_zero_signal_cells_dropped_until_error(self):
        config = self.rate_config(zero_reward_scenario(), "zero")
        with pytest.raises(NonPositiveMean):
            decay_rate_study(config)
        with pytest.raises(NonPositiveMean):
            bias_rate_study(config)

    def test_fixed_estimator_studies_reject_an_estimator_list(self):
        decay = self.rate_config(get_scenario("flip2"), "flip2", estimators=("ips",))
        with pytest.raises(ValidationError, match="takes no estimators"):
            decay_rate_study(decay)
        ranked = StudyConfig(get_scenario("rankflip2x2"), "rankflip2x2", (100,), 100, 0, ("ipm",))
        with pytest.raises(ValidationError, match="takes no estimators"):
            dominance_check(ranked)
