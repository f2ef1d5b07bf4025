"""The block replicate engine against the public estimator API.

``replicate_estimates`` evaluates a cell in blocks of replicates with row
kernels. The tests replay replicate ``r`` through the public samplers and
estimators, one dataset at a time, and require the same bits and the
same failure records in the same order; the engine's pieces (seeded
streams, the weights-only sampler, stacked cross-fitting) are held to
their references the same way.
"""

import concurrent.futures
import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

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
    oracle_report,
    remainder_diagnostics,
    replicate_estimates,
    run_mc_study,
    sample_logs,
    sample_ranked_logs,
    snipm,
    snips,
)
from opekit import experiments
from opekit.errors import BoundViolation, EstimationError, ValidationError
from opekit.estimators import (
    ESTIMATORS,
    CrossFitConfig,
    Rows,
    Workspace,
    _fold_layout,
    _require_finite_baselines,
    cross_fit_rows,
    plug_in_baselines,
    row_mean,
    row_sum,
)
from opekit.experiments import FailureRecord, _block_rows, parse_estimator_spec
from opekit.io import BLOCK_ENTRIES
from opekit.simulator import (
    BanditEnv,
    BanditScenario,
    PolicyTable,
    PositionModel,
    RankingEnv,
    _stages,
    compile_scenario,
    draw_uniforms,
    replicate_streams,
    sample_cells,
    sample_weights,
)

from conftest import fold_indices

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


def two_contexts() -> BanditScenario:
    """A bandit with two contexts, so that its draws read the context stage."""
    return BanditScenario(
        env=BanditEnv(context_probs=[0.3, 0.7], reward_means=[[0.8, 0.2], [0.4, 0.6]]),
        logging_policy=PolicyTable([[0.9, 0.1], [0.5, 0.5]]),
        target_policy=PolicyTable([[0.1, 0.9], [0.7, 0.3]]),
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
    oracle = oracle_report(scenario).value if scalar else None
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
        budget = experiments._BLOCK_ENTRIES
        assert _block_rows(400, 1) == budget // 400
        assert _block_rows(400, 2) == budget // 800
        assert _block_rows(budget, 1) == 1
        assert _block_rows(budget + 808, 1) == 1
        assert _block_rows(1, 1) == budget

    def test_block_size_never_changes_a_bit(self, monkeypatch):
        # The last case is the log writer's and reader's budget, which the
        # engine used before it had a budget of its own.
        assert _block_rows(100, 1) != BLOCK_ENTRIES // 100
        for preset, estimators in (("flip2", SCALAR), ("rankflip2x2", RANKED)):
            scenario = get_scenario(preset)
            monkeypatch.undo()
            default = replicate_estimates(scenario, 100, 90, SEED, estimators)
            for entries in (1, 7, 700, BLOCK_ENTRIES):
                monkeypatch.setattr(experiments, "_BLOCK_ENTRIES", entries)
                for n_jobs in (1, 2):
                    other = replicate_estimates(scenario, 100, 90, SEED, estimators, n_jobs=n_jobs)
                    assert np.array_equal(default.values, other.values, equal_nan=True)
                    assert default.failures == other.failures

    @pytest.mark.parametrize("entries", [1, 7, None])
    @pytest.mark.parametrize("preset, estimators", [("flip2", SCALAR), ("rankflip2x2", RANKED)], ids=["scalar", "ranked"])
    def test_each_kernel_runs_once_per_range(self, monkeypatch, preset, estimators, entries):
        # Blocks are reduced one by one; each kernel then runs once on the range, whatever its block count.
        if entries is not None:
            monkeypatch.setattr(experiments, "_BLOCK_ENTRIES", entries)
        calls, ranges, blocks = [], [], []
        for name, entry in ESTIMATORS.items():
            def counted(rows, arg, kernel=entry.kernel, name=name):
                calls.append(name)
                return kernel(rows, arg)

            monkeypatch.setitem(ESTIMATORS, name, dataclasses.replace(entry, kernel=counted))
        for name, log in (("_replicate_range", ranges), ("sample_weights", blocks)):
            def logged(*args, function=getattr(experiments, name), log=log):
                log.append(1)
                return function(*args)

            monkeypatch.setattr(experiments, name, logged)
        scenario = get_scenario(preset)
        replicate_estimates(scenario, 100, 90, SEED, estimators)
        assert len(ranges) == 1
        assert len(blocks) == -(-90 // _block_rows(100, scenario.k)) > (entries is not None)
        assert calls == [parse_estimator_spec(e).name for e in estimators]


class TestErrorOrder:
    """A validation error is the one a block-by-block run meets first: earliest block, then metric order."""

    N = 20

    def rows_breaking(self, metric: str):
        """Weights and weighted rewards of one replicate on which ``metric`` alone raises a validation error.

        Under two folds, ``cf-beta-star-ips`` breaks on a fold whose tiny weights make its
        covariance violate the Cauchy-Schwarz bound. ``beta-star-ips`` breaks on weights
        constant in each fold: every fold is degenerate, which cross-fitting records as a
        failure, while the whole row's weight variance is subnormal and breaks the bound.
        """
        fold = fold_indices(self.N, CrossFitConfig(folds_k=2, seed=SEED))[1]
        if metric == "cf-beta-star-ips":
            w, wr = np.tile([0.5, 1.0], self.N // 2), np.full(self.N, 0.5)
            w[fold], wr[fold] = np.array([1, 0] * 5) * 2e-160, np.array([1, 0] * 5) * 1e150
        else:
            w, wr = np.zeros(self.N), np.zeros(self.N)
            w[fold], wr[fold] = 1e-160, 1e150
        return w[None], wr[None]

    @pytest.mark.parametrize("first", ["cf-beta-star-ips", "beta-star-ips"])
    @pytest.mark.parametrize("table", [("beta-star-ips", "cf-beta-star-ips"), ("cf-beta-star-ips", "beta-star-ips")])
    def test_the_earliest_block_fails_first(self, monkeypatch, first, table):
        second = "beta-star-ips" if first == "cf-beta-star-ips" else "cf-beta-star-ips"
        blocks = iter([self.rows_breaking(first), self.rows_breaking(second)])
        monkeypatch.setattr(experiments, "sample_weights", lambda compiled, n, uniforms, ws: next(blocks))
        monkeypatch.setattr(experiments, "_BLOCK_ENTRIES", self.N)  # one replicate a block
        with pytest.raises(ValidationError) as caught:
            replicate_estimates(get_scenario("flip2"), self.N, 2, SEED, table, folds=2)
        expected = {
            "cf-beta-star-ips": "covariance 4.9999999999999995e-11 violates the Cauchy-Schwarz bound "
            "for variances 1e-320, 2.4999999999999994e+299",
            "beta-star-ips": "covariance 2.5e-11 violates the Cauchy-Schwarz bound for variances 2.5e-321, 2.5e+299",
        }
        assert str(caught.value) == expected[first]


class TestScalarEquivalence:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_replicates_not_a_multiple_of_the_block(self, n_jobs):
        assert 47 % _block_rows(400, 1) != 0
        assert_engine_matches_replay(get_scenario("flip2"), 400, 47, SCALAR, n_jobs)

    @pytest.mark.parametrize("n", [100, 17000])
    def test_both_sides_of_the_entry_budget(self, n):
        assert 100 < experiments._BLOCK_ENTRIES < 17000
        assert_engine_matches_replay(get_scenario("flip2"), n, 4 if n == 17000 else 83, SCALAR)

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
        layout = _fold_layout(40, 4, 9)
        # One group of folds when k divides n, two otherwise.
        matrices = [folds for n in (40, 42) for folds in _fold_layout(n, 4, 9)]
        assert len(matrices) == 3
        for arr in matrices + fold_indices(40, CrossFitConfig(folds_k=4, seed=9)):
            with pytest.raises(ValueError):
                arr.flat[0] = 0
        assert _fold_layout(40, 4, 9) is layout
        # Integral floats and numpy integers key the same cached layout.
        assert _fold_layout(40, CrossFitConfig(4.0).folds_k, CrossFitConfig(seed=np.int64(9)).seed) is layout

    def test_fold_indices_partition_unchanged(self):
        for n, k, seed in ((23, 5, 3), (2003, 7, 11), (40, 4, 9)):
            folds = fold_indices(n, CrossFitConfig(folds_k=k, seed=seed))
            perm = np.random.default_rng(seed).permutation(n)
            expected = [np.sort(chunk) for chunk in np.array_split(perm, k)]
            assert len(folds) == k
            assert all(np.array_equal(a, b) for a, b in zip(folds, expected))

    def test_layout_holds_at_most_two_indices_per_entry(self):
        # The layout holds each index once, however long the row.
        n = 200_000
        assert sum(folds.size for folds in _fold_layout(n, 5, 0)) == n


def cross_fit_reference(w, wr, config, by_subtraction=False):
    """Cross-fitting one fold at a time, the loop the stacked kernel replaces.

    Each complement is every index outside the fold, in index order, and its
    means are gathered from it: the definition. ``by_subtraction`` takes them
    as the kernel does instead, the row sums less the fold sums over the
    complement's length, and gives the kernel's bits.
    """
    n = w.shape[-1]
    folds = fold_indices(n, config)
    values = np.empty(w.shape[:-1] + (len(folds),))
    baselines = np.empty(w.shape[:-1] + (len(folds),))
    failed = np.zeros(w.shape[:-1], dtype=bool)
    for f, fold in enumerate(folds):
        if by_subtraction:
            means = [(row_sum(x) - row_sum(x.take(fold, axis=-1))) / (n - len(fold)) for x in (w, wr)]
        else:
            means = [row_mean(x.take(np.setdiff1d(np.arange(n), fold), axis=-1)) for x in (w, wr)]
        _, _, var_w, _, cov = Rows(w.take(fold, axis=-1), wr.take(fold, axis=-1), Workspace()).moments
        offset = 1.0 - means[0]
        baseline, degenerate = plug_in_baselines(var_w, cov)
        failed |= degenerate & (offset != 0.0)
        baseline = np.where(degenerate, 0.0, baseline)
        _require_finite_baselines(baseline, ~failed)
        baselines[..., f] = baseline
        values[..., f] = baseline * offset + means[1]
    return row_mean(values), row_mean(baselines), failed


def subtraction_bound(w, wr, config):
    """How far each row's cross-fitted value by subtraction may lie from the gathered definition.

    With ``u`` the unit roundoff, ``m`` a fold's length and ``S_x`` the sum of
    ``|x|`` over the row, any float sum of ``j`` terms is within ``(j - 1) u``
    of its exact value, relative to the sum of the terms' magnitudes (Higham
    2002, eq. 4.4). The gathered complement mean sums ``n - m`` terms and
    divides; the kernel sums the row (``n`` terms) and the fold (``m``),
    subtracts and divides. So the two complement means of ``x`` differ by at
    most ``E_x = (2n + 4) u S_x / (n - m)``, the four covering the roundings
    of the subtraction and the divisions. The fold's baseline ``b`` is the
    same number on both sides, so a fold's value ``b (1 - mean w) + mean wr``
    differs by ``|b| E_w + E_wr``, plus the three roundings of each side's
    value, each relative to its scale ``A = |b| (1 + S_w / (n - m)) + S_wr /
    (n - m)``, and the mean over ``k`` folds adds ``k`` roundings a side. The
    bound is relative to ``S_x / (n - m)``, not to the value: rewards may be
    negative, and a value may cancel to near zero.
    """
    u, n = 2.0**-53, w.shape[-1]
    *moments, _, _ = Rows(w, wr, Workspace()).reduction(config)
    b = np.abs(plug_in_baselines(moments[2], moments[4])[0])
    lengths = np.array([len(fold) for fold in fold_indices(n, config)])
    scale_w, scale_wr = (row_sum(np.abs(x))[..., None] / (n - lengths) for x in (w, wr))
    drift = b * (2 * n + 4) * u * scale_w + (2 * n + 4) * u * scale_wr
    magnitude = b * (1.0 + scale_w) + scale_wr
    return row_mean(drift) + (2 * config.folds_k + 10) * u * row_mean(magnitude)


class TestCrossFit:
    @given(st.integers(1, 4), st.integers(4, 60), st.integers(2, 7), st.integers(0, 3), st.randoms(use_true_random=False))
    def test_stacked_folds_equal_the_fold_loop(self, rows, n, k, seed, random):
        assume(n // k >= 2)
        values = [0.0, 1 / 9, 0.5, 1.0, 9.0]
        # Some rows hold one weight only, so some folds are degenerate.
        w = np.array([[random.choice(values[: random.choice([1, 2, 5])]) for _ in range(n)] for _ in range(rows)])
        wr = w * (np.array([[random.random() for _ in range(n)] for _ in range(rows)]) < 0.4)
        config = CrossFitConfig(folds_k=k, seed=seed)
        got = cross_fit_rows(Rows(w, wr, Workspace()), config)
        expected = cross_fit_reference(w, wr, config, by_subtraction=True)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]

    def test_a_long_row_with_unequal_folds_equals_the_fold_loop(self):
        rng = np.random.default_rng(4)
        w = rng.choice([1 / 9, 9.0], size=(1, 20001))
        wr = w * (rng.random(w.shape) < 0.5)
        config = CrossFitConfig(folds_k=5, seed=1)
        got = cross_fit_rows(Rows(w, wr, Workspace()), config)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in cross_fit_reference(w, wr, config, True)]

    @pytest.mark.parametrize(
        "rows, n, k",
        [(4, 10, 5), (4, 14, 7), (4, 403, 5), (2, 70_001, 5)],
        ids=["two-a-fold", "two-a-fold-seven", "unequal-folds", "past-65536"],
    )
    def test_subtraction_stays_within_its_bound_of_the_gathered_means(self, rows, n, k):
        # Weights log-uniform over six decades and rewards of both signs. n = 2k gives
        # folds of two entries; 403 and 70001 give folds of two lengths, and 70001 is
        # past the 65536 complement indices the gathered means were once cached for.
        rng = np.random.default_rng(n)
        w = 10.0 ** rng.uniform(-3.0, 3.0, size=(rows, n))
        wr = w * rng.uniform(-1.0, 1.0, size=w.shape)
        config = CrossFitConfig(folds_k=k, seed=3)
        values, baselines, failed = cross_fit_rows(Rows(w, wr, Workspace()), config)
        gathered = cross_fit_reference(w, wr, config)
        bound = subtraction_bound(w, wr, config)
        assert (np.abs(values - gathered[0]) <= bound).all()
        # Far below the 1/(n - m) relative move of one entry put in the wrong complement.
        assert (bound < 1e-7 * np.abs(gathered[0])).all()
        assert baselines.tobytes() == gathered[1].tobytes()  # the baselines read the folds alone
        assert not failed.any() and not gathered[2].any()

    def test_a_row_sum_past_the_float_range_fails_its_row_silently(self):
        # Each fold of four weights of 2.5e307 sums within the float range and the row
        # does not: the complement means are infinite, the row fails, and no numpy warning.
        w = np.full((1, 8), 2.5e307)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            values, baselines, failed = cross_fit_rows(Rows(w, w, Workspace()), CrossFitConfig(folds_k=2))
        assert failed.tolist() == [True] and baselines.tolist() == [0.0]

    def test_a_long_row_needs_room_for_three_copies(self):
        # Two gathered copies of the row and one product of them; no complement is gathered,
        # and the layout holds one index per entry (test_layout_holds_at_most_two_indices_per_entry).
        rng = np.random.default_rng(5)
        w = rng.choice([1 / 9, 9.0], size=(1, 200_000))
        wr = w * (rng.random(w.shape) < 0.5)
        config = CrossFitConfig()
        cross_fit_rows(Rows(w, wr, Workspace()), config)  # the layout is cached before the measurement
        tracemalloc.start()
        try:
            cross_fit_rows(Rows(w, wr, Workspace()), config)  # a new block: its fold reductions are taken again
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * w.nbytes

    @pytest.mark.parametrize(
        "correlated, message",
        [
            (np.array([1, 0, 1, 0, 1, 0, 1, 0, 1, 0]), "covariance -4.99"),
            (np.array([1, 0, 1, 0, 1, 0, 1, 0, 0, 1]), "baseline must be finite, got -inf"),
        ],
    )
    def test_error_names_the_first_fold_before_the_first_row(self, correlated, message):
        # Row 0 breaks in fold 1 with a positive covariance, row 1 in fold 0
        # with a negative one: the folds are checked one after another.
        folds = fold_indices(20, CrossFitConfig(folds_k=2, seed=0))
        w = np.tile([0.5, 1.0], (2, 10))
        wr = np.full((2, 20), 0.5)
        tiny = np.array([1, 0] * 5) * 2e-160
        w[0, folds[1]], wr[0, folds[1]] = tiny, correlated * 1e150
        w[1, folds[0]], wr[1, folds[0]] = tiny, correlated[::-1] * 1e150
        config = CrossFitConfig(folds_k=2, seed=0)
        with pytest.raises(ValidationError, match=message) as caught:
            cross_fit_rows(Rows(w, wr, Workspace()), config)
        with pytest.raises(ValidationError) as expected:
            cross_fit_reference(w, wr, config)
        assert str(caught.value) == str(expected.value)


class TestWorkerPool:
    def test_one_pool_per_study(self, monkeypatch):
        opened = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        config = StudyConfig(get_scenario("flip2"), "flip2", (50, 100, 200), 100, SEED, ("ips",))
        report = run_mc_study(config, n_jobs=2)
        assert len(opened) == 1
        assert [row.n for row in report.rows] == [50, 100, 200]


@st.composite
def probability_rows(draw, rows, cols, support=None):
    """Rows of small integer weights, normalised; zero cells allowed, at least one positive cell a row.

    With ``support``, cells outside the support of that table stay zero.
    """
    table = []
    for i in range(rows):
        allowed = [j for j in range(cols) if support is None or support[i][j] > 0]
        counts = [draw(st.integers(0, 3)) if j in allowed else 0 for j in range(cols)]
        if sum(counts) == 0:
            counts[draw(st.sampled_from(allowed))] = 1
        table.append([c / sum(counts) for c in counts])
    return table


@st.composite
def small_scenarios(draw):
    """Bandit (k = 1) or two-position ranking scenarios of 1-3 contexts, each position of 1-3 actions."""
    contexts = draw(st.integers(1, 3))
    context_probs = draw(probability_rows(1, contexts))[0]

    def position():
        actions = draw(st.integers(1, 3))
        logging = draw(probability_rows(contexts, actions))
        target = draw(probability_rows(contexts, actions, support=logging))
        means = [[draw(st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0])) for _ in range(actions)] for _ in range(contexts)]
        return PositionModel(PolicyTable(logging), PolicyTable(target), means)

    if draw(st.integers(1, 2)) == 1:
        pos = position()
        return BanditScenario(BanditEnv(context_probs, pos.reward_means), pos.logging_policy, pos.target_policy)
    return RankingEnv(context_probs, (position(), position()))


class TestSeededStreams:
    @given(st.integers(0, 2**70), st.integers(0, 2**40), st.integers(0, 2**63 - 8), st.integers(1, 4))
    @example(20260823, 400, 0, 3)
    @example(2**32, 2**32 - 1, 2**32 - 2, 4)
    @example(2**64 + 3, 1, 2**64 - 9, 4)
    def test_equal_to_default_rng(self, seed, n, first, count):
        rows = range(first, first + count)
        for r, rng in zip(rows, replicate_streams(seed, n, rows)):
            expected = np.random.default_rng(np.random.SeedSequence((seed, n, r))).random(7)
            assert rng.random(7).tobytes() == expected.tobytes()

    @given(st.integers(0, 2**70), st.integers(0, 2**40), st.integers(0, 2**63 - 8))
    @example(20260823, 400, 0)
    def test_generators_taken_together_stay_independent(self, seed, n, first):
        rows = range(first, first + 3)
        streams = list(replicate_streams(seed, n, rows))
        for r, rng in zip(rows, streams):
            expected = np.random.default_rng(np.random.SeedSequence((seed, n, r))).random(7)
            assert rng.random(7).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "seed, n, rows, message",
        [
            (-1, 10, range(2), "^master seed must be non-negative, got -1$"),
            (1, -10, range(2), "^sample size must be non-negative, got -10$"),
            (1, 10, range(-1, 2), "^replicate index must be non-negative, got -1$"),
        ],
    )
    def test_negative_words_are_refused(self, seed, n, rows, message):
        # A negative int has no SeedSequence words: shifting it right never reaches zero.
        streams = replicate_streams(seed, n, rows)
        with pytest.raises(ValidationError, match=message):
            next(streams)

    @pytest.mark.parametrize("rows", [range(0, 4, 2), range(4, 0, -1)])
    def test_a_step_other_than_one_is_refused(self, rows):
        # The seeds are hashed for every index from rows.start to rows.stop, so a
        # stride would hand out other replicates' streams and a descending range none.
        streams = replicate_streams(SEED, 10, rows)
        with pytest.raises(ValidationError, match=r"^replicate rows must be a range of step 1, got range\("):
            next(streams)

    def test_one_call_per_row_consumes_the_staged_stream(self):
        uniforms = draw_uniforms(np.empty((2, 30)), replicate_streams(SEED, 10, range(5, 7)))
        for row, r in zip(uniforms, (5, 6)):
            rng = np.random.default_rng(np.random.SeedSequence((SEED, 10, r)))
            staged = np.concatenate([rng.random(10) for _ in range(3)])
            assert row.tobytes() == staged.tobytes()


class TestEngineDraws:
    """A one-context stream steps past its context stage; any other draws it. Either way, the same bits."""

    @pytest.mark.parametrize("n", [1, 2, 400])
    @pytest.mark.parametrize("name", ["flip2", "rankflip2x2", "two contexts"])
    def test_streams_and_blocks_equal_the_public_samplers(self, monkeypatch, name, n):
        scenario = two_contexts() if name == "two contexts" else get_scenario(name)
        compiled = compile_scenario(scenario)
        k, replicates = compiled.k, 5
        streams, blocks = [], []

        def recorded(*args):
            for rng in replicate_streams(*args):
                streams.append(rng)
                yield rng

        def sampled(compiled, n, uniforms, ws):
            # The workspace writes the next block over this one's arrays, so they are copied.
            blocks.append((uniforms.shape[1], *(a.copy() for a in sample_weights(compiled, n, uniforms, ws))))
            return blocks[-1][1:]

        monkeypatch.setattr(experiments, "replicate_streams", recorded)
        monkeypatch.setattr(experiments, "sample_weights", sampled)
        monkeypatch.setattr(experiments, "_BLOCK_ENTRIES", 2 * n * k)  # two replicates a block, so three blocks
        replicate_estimates(scenario, n, replicates, SEED, ("ipm",) if compiled.ranked else ("ips",))
        drawn = 1 + 2 * k if name == "two contexts" else 2 * k
        assert [width for width, _, _ in blocks] == [drawn * n] * 3
        w, wr = (np.concatenate([block[i] for block in blocks]) for i in (1, 2))
        assert len(streams) == replicates
        for r, rng in enumerate(streams):
            reference = np.random.default_rng(np.random.SeedSequence((SEED, n, r)))
            reference.random((1 + 2 * k) * n)
            assert rng.bit_generator.state == reference.bit_generator.state
            stream = np.random.SeedSequence((SEED, n, r))
            if compiled.ranked:
                dataset = sample_ranked_logs(scenario, n, stream)
                weights, rewards = dataset.weights.T, dataset.rewards.T
            else:
                dataset = sample_logs(scenario.env, scenario.logging_policy, scenario.target_policy, n, stream)
                weights, rewards = dataset.weights, dataset.rewards
            assert w[r].tobytes() == weights.tobytes()
            assert wr[r].tobytes() == (weights * rewards).tobytes()


class TestWorkspace:
    """A replicate range writes every block into one workspace; a public call gets a fresh one."""

    @pytest.mark.parametrize("preset, n, estimators", [("flip2", 403, SCALAR), ("rankflip2x2", 400, RANKED)])
    def test_the_steady_state_allocates_nothing(self, monkeypatch, preset, n, estimators):
        # At n = 403 the five folds are 81 and 80 entries long, so cross-fitting takes two fold groups.
        scenario = get_scenario(preset)
        one_block = replicate_estimates(scenario, n, 11, SEED, estimators)
        assert _block_rows(n, scenario.k) >= 11
        blocks, allocated, workspaces = [], set(), []

        class Recorded(Workspace):
            def __init__(self):
                super().__init__()
                workspaces.append(self)

            def __call__(self, name, shape, dtype=np.float64):
                if name == "uniforms":  # every block starts by looking up its uniforms
                    blocks.append(shape[0])
                before = self.buffers.get(name)
                view = super().__call__(name, shape, dtype)
                if self.buffers[name] is not before:
                    allocated.add(len(blocks) - 1)
                return view

        monkeypatch.setattr(experiments, "Workspace", Recorded)
        monkeypatch.setattr(experiments, "_BLOCK_ENTRIES", 3 * n * scenario.k)  # three replicates a block
        blocked = replicate_estimates(scenario, n, 11, SEED, estimators)
        assert blocks == [3, 3, 3, 2] and len(workspaces) == 1
        assert allocated and allocated <= {blocks.index(rows) for rows in blocks}
        assert "contexts" not in workspaces[0].buffers  # one context: its ids are never drawn
        assert np.array_equal(blocked.values, one_block.values, equal_nan=True)
        assert blocked.failures == one_block.failures

    def test_public_results_share_no_memory(self):
        flip2, ranked = get_scenario("flip2"), get_scenario("rankflip2x2")
        columns = ("propensity_logging", "propensity_target", "rewards", "weights", "context_ids", "action_ids")
        for sample in (
            lambda seed: sample_logs(flip2.env, flip2.logging_policy, flip2.target_policy, 50, seed),
            lambda seed: sample_ranked_logs(ranked, 50, seed),
        ):
            first = sample(1)
            kept = [getattr(first, name).copy() for name in columns]
            second = sample(2)
            for name, before in zip(columns, kept):
                assert not np.shares_memory(getattr(first, name), getattr(second, name))
                assert np.array_equal(getattr(first, name), before)
        dataset = sample(3)
        config = CrossFitConfig(folds_k=5, seed=SEED)

        def reduced():
            rows = Rows.of(dataset).reduce(["centred", config])
            return rows, [rows.wr, rows.mean_w, rows.mean_wr, *(a for key in rows.reductions for a in rows.reductions[key])]

        first, arrays = reduced()
        kept = [a.copy() for a in arrays]
        second, others = reduced()
        assert not any(np.shares_memory(a, b) for a in arrays + list(first.ws.buffers.values())
                       for b in others + list(second.ws.buffers.values()))
        assert all(np.array_equal(a, b) for a, b in zip(arrays, kept))


class TestWeightsOnlySampler:
    @given(small_scenarios(), st.integers(0, 2**40), st.integers(1, 40), st.integers(0, 2**34), st.integers(1, 3))
    def test_rows_equal_the_public_samplers(self, scenario, seed, n, first, count):
        compiled = compile_scenario(scenario)
        rows = range(first, first + count)
        uniforms = np.empty((count, (1 + 2 * compiled.k) * n))
        w, wr = sample_weights(compiled, n, draw_uniforms(uniforms, replicate_streams(seed, n, rows)), Workspace())
        for i, r in enumerate(rows):
            stream = np.random.SeedSequence((seed, n, r))
            if compiled.ranked:
                dataset = sample_ranked_logs(scenario, n, stream)
                weights, rewards = dataset.weights.T, dataset.rewards.T
            else:
                dataset = sample_logs(scenario.env, scenario.logging_policy, scenario.target_policy, n, stream)
                weights, rewards = dataset.weights, dataset.rewards
            assert w[i].tobytes() == weights.tobytes()
            assert wr[i].tobytes() == (weights * rewards).tobytes()

    @pytest.mark.parametrize("ranked", [False, True])
    def test_a_table_over_the_bound_slack_fails_as_each_entry_would(self, ranked, monkeypatch):
        # Within PolicyTable's 1e-9 row-sum tolerance, but over the 1e-12 slack
        # of the entry bound. The entry check rejects the drawable cell when
        # the scenario is compiled, before any uniform is drawn.
        logging = PolicyTable([[0.002, 0.998]])
        over = PolicyTable([[1.0 + 5e-10, 0.0]])
        means = [[0.5, 0.5]]
        if ranked:
            fine = PositionModel(logging, logging, means)
            scenario = RankingEnv([1.0], (fine, PositionModel(logging, over, means)))
        else:
            scenario = BanditScenario(BanditEnv([1.0], means), logging, over)
        message = "propensity_target value 1.0000000005 exceeds the declared bound 1.0 at context 0, action 0"
        message += ", position 2" if ranked else ""

        def no_draw(*args):
            pytest.fail("a uniform was drawn")

        monkeypatch.setattr(experiments, "replicate_streams", no_draw)
        monkeypatch.setattr(experiments, "draw_uniforms", no_draw)
        rng = np.random.default_rng(SEED)
        state = rng.bit_generator.state
        estimators = ("snipm",) if ranked else ("ips",)

        def sample():
            if ranked:
                return sample_ranked_logs(scenario, 5, rng)
            return sample_logs(scenario.env, scenario.logging_policy, scenario.target_policy, 5, rng)

        for call in (
            lambda: compile_scenario(scenario),
            lambda: replicate_estimates(scenario, 5, 400, SEED, estimators),
            lambda: replicate_estimates(scenario, 5, 400, SEED, estimators, n_jobs=2),
            sample,
        ):
            with pytest.raises(BoundViolation) as caught:
                call()
            assert str(caught.value) == message
            assert (caught.value.value, caught.value.cell, caught.value.index) == (1.0 + 5e-10, (0, 0), None)
            assert caught.value.position == (1 if ranked else None)
        assert rng.bit_generator.state == state

    def test_a_uniform_past_the_cdf_picks_the_last_positive_cell(self):
        # Both rows sum below one in floats, so on their plain cumulative sums
        # a uniform of 1 - 2**-53 would pick the zero-probability last cell.
        # They serve as the context probabilities and as every policy row.
        for probs, target in ([0.5, 0.5 - 4e-10, 0.0], [0.25, 0.75, 0.0]), ([0.7, 0.2, 0.1, 0.0], [0.1, 0.2, 0.7, 0.0]):
            assert np.cumsum(probs)[-1] <= 1.0 - 2.0**-53
            size, last = len(probs), len(probs) - 2
            scenario = BanditScenario(
                BanditEnv(probs, [[1.0] * size] * size), PolicyTable([probs] * size), PolicyTable([target] * size)
            )
            compiled = compile_scenario(scenario)
            weight = target[last] / probs[last]
            uniforms = np.array([[1.0 - 2.0**-53, 1.0 - 2.0**-53, 0.0]])
            contexts, cells, rewards = sample_cells(compiled, 1, _stages(uniforms, 1), Workspace())
            assert (contexts.tolist(), cells.tolist(), rewards.tolist()) == ([[last]], [[[last * size + last]]], [[[True]]])
            w, wr = sample_weights(compiled, 1, uniforms, Workspace())
            assert w.tolist() == [[weight]] and wr.tolist() == [[weight]]
