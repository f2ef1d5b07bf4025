"""Synthetic environments, enumeration oracles, and seeded sampling."""

from functools import partial

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from opekit import (
    BanditEnv,
    Dataset,
    RankedDataset,
    BanditScenario,
    PolicyTable,
    PositionModel,
    RankingEnv,
    get_scenario,
    oracle_report,
    preset_names,
    sample_logs,
    sample_ranked_logs,
)
from opekit.errors import (
    DimensionMismatch,
    SupportViolation,
    UnknownPreset,
    ValidationError,
)
from opekit.estimators import Workspace
from opekit.simulator import _stages, compile_scenario, preset_description, sample_cells, sample_weights


def flip_tables():
    env = BanditEnv(context_probs=[1.0], reward_means=[[0.8, 0.2]])
    return env, PolicyTable([[0.9, 0.1]]), PolicyTable([[0.1, 0.9]])


def oracle(env, logging, target):
    """The oracle target of a bandit scenario."""
    return oracle_report(BanditScenario(env, logging, target)).target("value")


class TestTables:
    def test_policy_rows_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            PolicyTable([[0.5, 0.4]])
        with pytest.raises(ValidationError):
            PolicyTable([[0.5, -0.5, 1.0]])
        with pytest.raises(ValidationError, match="sum to one"):
            PolicyTable([[1e308, 1e308]])  # the row sum overflows
        with pytest.raises(DimensionMismatch):
            PolicyTable([0.5, 0.5])

    def test_env_validation(self):
        with pytest.raises(ValidationError):
            BanditEnv(context_probs=[0.5, 0.4], reward_means=[[0.5], [0.5]])
        with pytest.raises(ValidationError, match="sum to one"):
            BanditEnv(context_probs=[1e308, 1e308], reward_means=[[0.5], [0.5]])
        with pytest.raises(ValidationError):
            BanditEnv(context_probs=[1.0], reward_means=[[1.5]])
        with pytest.raises(DimensionMismatch):
            BanditEnv(context_probs=[1.0], reward_means=[[0.5], [0.5]])

    def test_scenario_shape_check(self):
        # One wording for both kinds: a bandit scenario is its one position.
        env, logging, _ = flip_tables()
        message = r"^target policy shape \(1, 1\) does not match the reward means shape \(1, 2\)$"
        with pytest.raises(DimensionMismatch, match=message):
            BanditScenario(env=env, logging_policy=logging, target_policy=PolicyTable([[1.0]]))
        with pytest.raises(DimensionMismatch, match=message):
            PositionModel(logging, PolicyTable([[1.0]]), env.reward_means)
        scenario = BanditScenario(env, logging, logging)
        assert scenario.k == 1 and scenario.context_probs is env.context_probs
        assert np.array_equal(scenario.positions[0].reward_means, env.reward_means)

    def test_ragged_tables_are_dimension_mismatches(self):
        with pytest.raises(DimensionMismatch):
            PolicyTable([[0.5, 0.5], [1.0]])
        with pytest.raises(DimensionMismatch):
            BanditEnv(context_probs=[0.5, [0.5]], reward_means=[[0.5], [0.5]])
        with pytest.raises(DimensionMismatch):
            BanditEnv(context_probs=[0.5, 0.5], reward_means=[[0.5, 0.5], [0.5]])
        with pytest.raises(DimensionMismatch):
            PositionModel(PolicyTable([[0.5, 0.5]]), PolicyTable([[0.5, 0.5]]), [[0.5, 0.5], [0.5]])

    def test_integer_too_large_for_a_float(self):
        with pytest.raises(ValidationError, match="too large"):
            BanditEnv(context_probs=[1.0], reward_means=[[10**400]])

    def test_complex_tables_are_not_cast_to_real(self):
        with pytest.raises(ValidationError, match="^policy probabilities must hold only real numbers$"):
            PolicyTable(np.array([[0.5 + 3j, 0.5]]))
        with pytest.raises(ValidationError, match="^reward means must hold only real numbers$"):
            BanditEnv(context_probs=[1.0], reward_means=[[np.complex128(0.5 + 1j), 0.5]])

    def test_tables_never_freeze_the_callers_array(self):
        probs = np.array([[0.5, 0.5]])
        PolicyTable(probs)
        assert probs.flags.writeable

    def test_tables_are_immutable(self):
        table = PolicyTable([[0.5, 0.5]])
        with pytest.raises(ValueError):
            table.probs[0, 0] = 1.0


class TestOracles:
    def test_true_value(self):
        env, logging, target = flip_tables()
        assert oracle(env, logging, PolicyTable([[0.5, 0.5]])).value == pytest.approx(0.5, rel=1e-15)
        assert oracle(env, logging, target).value == pytest.approx(0.26, rel=1e-15)

    def test_context_symmetry(self):
        single = BanditEnv(context_probs=[1.0], reward_means=[[0.8, 0.2]])
        double = BanditEnv(context_probs=[0.5, 0.5], reward_means=[[0.8, 0.2], [0.8, 0.2]])
        policy_one = PolicyTable([[0.1, 0.9]])
        policy_two = PolicyTable([[0.1, 0.9], [0.1, 0.9]])
        assert oracle(double, policy_two, policy_two).value == pytest.approx(
            oracle(single, policy_one, policy_one).value, rel=1e-15
        )

    def test_true_value_shape_check(self):
        # Policies of one action against an environment of two.
        env, _, _ = flip_tables()
        policy = PolicyTable([[1.0]])
        with pytest.raises(DimensionMismatch):
            oracle(env, policy, policy)

    def test_population_moments_shape_check(self):
        # Policies of two contexts against a one-context environment.
        env, _, _ = flip_tables()
        policy = PolicyTable([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(DimensionMismatch):
            oracle(env, policy, policy)

    def test_flip_population_moments(self):
        env, logging, target = flip_tables()
        m = oracle(env, logging, target).moments
        assert m.mean_w == 1.0
        assert m.mean_wr == pytest.approx(0.26, rel=1e-12)
        assert m.var_w == pytest.approx(64.0 / 9.0, rel=1e-12)
        assert m.cov_w_wr == pytest.approx(308.0 / 225.0, rel=1e-12)
        # E[(wr)^2] = E[w^2 r] for Bernoulli rewards; subtract the mean square.
        second = 0.9 * (1.0 / 81.0) * 0.8 + 0.1 * 81.0 * 0.2
        assert m.var_wr == pytest.approx(second - 0.26**2, rel=1e-12)
        assert m.n == 1
        assert m.cov_w_wr / m.var_w == pytest.approx(0.1925, rel=1e-12)

    def test_identity_policy_moments(self):
        env, logging, _ = flip_tables()
        m = oracle(env, logging, logging).moments
        assert m.mean_w == 1.0
        assert m.var_w == 0.0
        assert m.cov_w_wr == 0.0

    def test_support_violation(self):
        env = BanditEnv(context_probs=[1.0], reward_means=[[0.5, 0.5]])
        logging = PolicyTable([[1.0, 0.0]])
        target = PolicyTable([[0.5, 0.5]])
        with pytest.raises(SupportViolation) as info:
            oracle(env, logging, target)
        assert info.value.pairs == [(0, 1)]

    def test_ranked_support_violation_names_its_position(self):
        env, logging, target = flip_tables()
        positions = (
            PositionModel(logging, target, env.reward_means),
            PositionModel(PolicyTable([[1.0, 0.0]]), target, env.reward_means),
        )
        with pytest.raises(SupportViolation) as info:
            compile_scenario(RankingEnv(context_probs=[1.0], positions=positions))
        assert info.value.position == 1
        assert str(info.value).startswith("position 2: target policy has positive probability")
        with pytest.raises(SupportViolation) as info:
            compile_scenario(BanditScenario(env, PolicyTable([[1.0, 0.0]]), target))
        assert info.value.position is None
        assert str(info.value).startswith("target policy has positive probability")

    def test_unreachable_context_is_ignored(self):
        # The target leaves the logging support in context 1, which only the second environment reaches.
        means = [[0.5, 0.5], [0.5, 0.5]]
        logging = PolicyTable([[0.5, 0.5], [1.0, 0.0]])
        target = PolicyTable([[0.5, 0.5], [0.0, 1.0]])
        report = oracle_report(BanditScenario(BanditEnv([1.0, 0.0], means), logging, target))
        assert report.weight_bound == 1.0
        assert report.value == 0.5
        with pytest.raises(SupportViolation) as info:
            oracle_report(BanditScenario(BanditEnv([0.5, 0.5], means), logging, target))
        assert info.value.pairs == [(1, 1)]

    def test_weight_bound_flip(self):
        assert oracle_report(BanditScenario(*flip_tables())).weight_bound == pytest.approx(9.0, rel=1e-12)


class TestSampling:
    def test_deterministic_per_seed(self):
        env, logging, target = flip_tables()
        a = sample_logs(env, logging, target, 500, 123)
        b = sample_logs(env, logging, target, 500, 123)
        c = sample_logs(env, logging, target, 500, 124)
        for column in ("propensity_logging", "propensity_target", "rewards", "weights"):
            assert np.array_equal(getattr(a, column), getattr(b, column))
        assert not np.array_equal(a.rewards, c.rewards)

    def test_bounds_and_ids(self):
        env, logging, target = flip_tables()
        d = sample_logs(env, logging, target, 200, 5)
        assert d.reward_bound == 1.0
        assert d.weight_bound == pytest.approx(9.0, rel=1e-12)
        assert set(np.unique(d.rewards)) <= {0.0, 1.0}
        assert set(np.unique(d.context_ids)) <= {0}
        assert set(np.unique(d.action_ids)) <= {0, 1}
        assert np.all(d.weights <= d.weight_bound * (1 + 1e-12))

    def test_identity_policy_weights_are_one(self):
        env, logging, _ = flip_tables()
        d = sample_logs(env, logging, logging, 100, 0)
        assert np.all(d.weights == 1.0)

    def test_zero_probability_cells_never_drawn(self):
        env = BanditEnv(context_probs=[0.0, 1.0], reward_means=[[0.5, 0.5, 0.5]] * 2)
        logging = PolicyTable([[0.5, 0.0, 0.5]] * 2)
        d = sample_logs(env, logging, logging, 2000, 7)
        assert 0 not in np.unique(d.context_ids)
        assert 1 not in np.unique(d.action_ids)
        # Wider tables: twelve contexts by twelve actions, every third
        # context and action never drawn.
        probs = np.tile([0.0, 0.25, 0.25, 0.0, 0.125, 0.125, 0.0, 0.0625, 0.0625, 0.0, 0.0625, 0.0625], (12, 1))
        env = BanditEnv(context_probs=probs[0], reward_means=np.full((12, 12), 0.5))
        d = sample_logs(env, PolicyTable(probs), PolicyTable(probs), 4000, 7)
        assert set(np.unique(d.context_ids)) == set(np.unique(d.action_ids)) == set(np.flatnonzero(probs[0]))

    def test_empirical_weight_mean_near_one(self):
        env, logging, target = flip_tables()
        m = oracle(env, logging, target).moments
        d = sample_logs(env, logging, target, 100_000, 2026)
        assert abs(float(np.mean(d.weights)) - 1.0) <= 3.0 * np.sqrt(m.var_w / d.n)

    def test_sample_size_validation(self):
        env, logging, target = flip_tables()
        with pytest.raises(ValidationError):
            sample_logs(env, logging, target, 0, 1)

    def test_seed_rule(self):
        # A seed is a non-negative integer, or a SeedSequence, BitGenerator or Generator as given.
        env, logging, target = flip_tables()
        ranked = get_scenario("rankflip2x2")
        for seed in (-1, [1, -2], "x", 5.5, True, None):
            for sample in (partial(sample_logs, env, logging, target), partial(sample_ranked_logs, ranked)):
                with pytest.raises(ValidationError, match="^seed must be "):
                    sample(10, seed)
        expected = sample_logs(env, logging, target, 10, 5).rewards
        for seed in (5.0, np.int64(5), np.random.SeedSequence(5), np.random.PCG64(5), np.random.default_rng(5)):
            assert np.array_equal(sample_logs(env, logging, target, 10, seed).rewards, expected)


@st.composite
def edge_rows(draw, rows, cols, support=None):
    """Rows that pass PolicyTable's checks, with the entries the compiled tables must survive.

    Zero cells lead, trail or sit in the middle; a row may hold one entry
    within 1e-9 of one (over the entry bound when above it), and a zero
    cell may become a subnormal, whose weight overflows under a positive
    target. With ``support``, cells outside that table's support stay zero.
    """
    table = []
    for i in range(rows):
        allowed = [j for j in range(cols) if support is None or support[i][j] > 0]
        kind = draw(st.sampled_from(["counts", "near one", "tiny"]))
        if kind == "near one":
            row = [0.0] * cols
            row[draw(st.sampled_from(allowed))] = 1.0 + draw(st.sampled_from([-9e-10, -5e-10, 5e-10, 9e-10]))
        else:
            counts = [draw(st.integers(0, 3)) if j in allowed else 0 for j in range(cols)]
            if not any(counts):
                counts[draw(st.sampled_from(allowed))] = 1
            row = [c / sum(counts) for c in counts]
            zeros = [j for j in allowed if row[j] == 0.0]
            if kind == "tiny" and zeros:
                row[draw(st.sampled_from(zeros))] = draw(st.sampled_from([1e-310, 5e-324]))
        table.append(row)
    return table


@st.composite
def edge_scenarios(draw):
    """Bandit or two-position ranking scenarios of 1-3 contexts, each position of 1-3 actions, built from :func:`edge_rows`."""
    contexts = draw(st.integers(1, 3))

    def position():
        actions = draw(st.integers(1, 3))
        logging = draw(edge_rows(contexts, actions))
        target = draw(edge_rows(contexts, actions, support=logging))
        means = [[draw(st.sampled_from([0.0, 0.3, 1.0])) for _ in range(actions)] for _ in range(contexts)]
        return PositionModel(PolicyTable(logging), PolicyTable(target), means)

    context_probs = draw(edge_rows(1, contexts))[0]
    if draw(st.booleans()):
        pos = position()
        return BanditScenario(BanditEnv(context_probs, pos.reward_means), pos.logging_policy, pos.target_policy)
    return RankingEnv(context_probs, (position(), position()))


#: Enough uniforms for two rows of the largest block drawn below, 5 stages of 6 entries.
UNIFORMS = st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=60, max_size=60)


#: Two positions of different action counts over two contexts, each with mass.
UNEVEN = RankingEnv(
    [0.5, 0.5],
    (
        PositionModel(
            PolicyTable([[0.5, 0.5], [0.25, 0.75]]),
            PolicyTable([[1.0, 0.0], [0.5, 0.5]]),
            [[0.3, 1.0], [0.3, 1.0]],
        ),
        PositionModel(
            PolicyTable([[0.25, 0.25, 0.5], [0.0, 0.5, 0.5]]),
            PolicyTable([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0]]),
            [[1.0, 0.0, 0.3], [1.0, 0.0, 0.3]],
        ),
    ),
)


class TestCompiledTables:
    @given(edge_scenarios(), st.integers(2, 6), UNIFORMS)
    @example(UNEVEN, 6, [i / 60 for i in range(60)])
    @example(RankingEnv(UNEVEN.context_probs, UNEVEN.positions[::-1]), 6, [i / 60 for i in range(60)])
    def test_samples_pass_the_dataset_checks_or_the_scenario_fails_to_compile(self, scenario, n, floats):
        # The invariant that replaces checking each sampled block: a scenario
        # either fails to compile, or every sample it gives is a valid dataset
        # whose columns and weights the dataset checks reproduce bit for bit,
        # drawn only from positive-probability contexts and actions.
        try:
            compiled = compile_scenario(scenario)
        except ValidationError:
            return
        k = compiled.k
        uniforms = np.resize(np.array(floats), (2, (1 + 2 * k) * n))
        for stage in _stages(uniforms, n):
            stage[0, :2] = (0.0, 1.0 - 2.0**-53)
        contexts, cells, rewards = sample_cells(compiled, n, _stages(uniforms, n), Workspace())
        w, wr = sample_weights(compiled, n, uniforms, Workspace())
        w, wr = w.reshape(cells.shape), wr.reshape(cells.shape)
        if isinstance(scenario, RankingEnv):
            context_probs, positions = scenario.context_probs, scenario.positions
            public, cls = sample_ranked_logs(scenario, n, 5), RankedDataset
        else:
            env, logging, target = scenario.env, scenario.logging_policy, scenario.target_policy
            context_probs, positions = env.context_probs, [PositionModel(logging, target, env.reward_means)]
            public, cls = sample_logs(env, logging, target, n, 5), Dataset
        assert (context_probs[contexts] > 0).all()
        for j, pos in enumerate(positions):
            at = cells[:, j]
            assert (at // pos.reward_means.shape[1] == contexts).all()
            p_log, p_tgt = pos.logging_policy.probs.ravel()[at], pos.target_policy.probs.ravel()[at]
            assert (p_log > 0).all()
            assert (rewards[:, j] == (_stages(uniforms, n)[2 + 2 * j] < pos.reward_means.ravel()[at])).all()
            for i in range(2):
                dataset = Dataset.from_arrays(
                    p_log[i], p_tgt[i], rewards[i, j], reward_bound=1.0, weight_bound=compiled.weight_bound
                )
                assert dataset.weights.tobytes() == w[i, j].tobytes()
                assert (dataset.weights * dataset.rewards).tobytes() == wr[i, j].tobytes()
        # Each entry sits on a positive-probability logging cell of its
        # position, and its propensities are the policy entries there.
        columns = [c.reshape(n, k) for c in (public.action_ids, public.propensity_logging, public.propensity_target)]
        assert (context_probs[public.context_ids] > 0).all()
        for j, pos in enumerate(positions):
            cell = (public.context_ids, columns[0][:, j])
            assert (pos.logging_policy.probs[cell] > 0).all()
            assert columns[1][:, j].tobytes() == pos.logging_policy.probs[cell].tobytes()
            assert columns[2][:, j].tobytes() == pos.target_policy.probs[cell].tobytes()
        again = cls.from_arrays(
            public.propensity_logging,
            public.propensity_target,
            public.rewards,
            reward_bound=1.0,
            weight_bound=public.weight_bound,
        )
        assert again.weights.tobytes() == public.weights.tobytes()


class TestRanking:
    def rank_env(self):
        position = PositionModel(
            logging_policy=PolicyTable([[0.9, 0.1]]),
            target_policy=PolicyTable([[0.1, 0.9]]),
            reward_means=[[0.8, 0.2]],
        )
        return RankingEnv(context_probs=[1.0], positions=(position, position))

    def test_true_position_values(self):
        report = oracle_report(self.rank_env())
        assert [t.value for t in report.targets[:-1]] == pytest.approx([0.26, 0.26], rel=1e-15)
        assert report.value == pytest.approx(0.52, rel=1e-15)

    def test_ranked_sampling_deterministic(self):
        env = self.rank_env()
        a = sample_ranked_logs(env, 300, 11)
        b = sample_ranked_logs(env, 300, 11)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.rewards, b.rewards)
        assert (a.n, a.k) == (300, 2)

    def test_single_position_matches_scalar_sampler(self):
        position = PositionModel(
            logging_policy=PolicyTable([[0.9, 0.1]]),
            target_policy=PolicyTable([[0.1, 0.9]]),
            reward_means=[[0.8, 0.2]],
        )
        env = RankingEnv(context_probs=[1.0], positions=(position,))
        seed = np.random.SeedSequence(77)
        ranked = sample_ranked_logs(env, 400, seed)
        scalar = sample_logs(
            BanditEnv([1.0], [[0.8, 0.2]]),
            position.logging_policy,
            position.target_policy,
            400,
            np.random.SeedSequence(77),
        )
        assert np.array_equal(ranked.weights[:, 0], scalar.weights)
        assert np.array_equal(ranked.rewards[:, 0], scalar.rewards)
        assert np.array_equal(ranked.context_ids, scalar.context_ids)
        assert np.array_equal(ranked.action_ids[:, 0], scalar.action_ids)

    def test_env_validation(self):
        position = PositionModel(
            logging_policy=PolicyTable([[0.5, 0.5]]),
            target_policy=PolicyTable([[0.5, 0.5]]),
            reward_means=[[0.5, 0.5]],
        )
        with pytest.raises(ValidationError):
            RankingEnv(context_probs=[1.0], positions=())
        with pytest.raises(DimensionMismatch):
            RankingEnv(context_probs=[0.5, 0.5], positions=(position,))


class TestPresets:
    def test_names_sorted_and_described(self):
        names = preset_names()
        assert names == ("const2", "flip2", "identity2", "rankflip2x2")
        for name in names:
            assert preset_description(name)

    def test_unknown_preset(self):
        with pytest.raises(UnknownPreset):
            get_scenario("nope")
        with pytest.raises(UnknownPreset):
            preset_description("nope")

    def test_flip2(self):
        scenario = get_scenario("flip2")
        assert isinstance(scenario, BanditScenario)
        assert oracle_report(scenario).value == pytest.approx(0.26)

    def test_identity2(self):
        scenario = get_scenario("identity2")
        assert np.array_equal(scenario.logging_policy.probs, scenario.target_policy.probs)
        assert oracle_report(scenario).value == pytest.approx(0.74)

    def test_const2_baseline_equals_value(self):
        scenario = get_scenario("const2")
        target = oracle_report(scenario).target("value")
        m, value = target.moments, target.value
        assert value == pytest.approx(0.5, rel=1e-15)
        assert m.cov_w_wr / m.var_w == pytest.approx(value, rel=1e-12)

    def test_rankflip2x2(self):
        env = get_scenario("rankflip2x2")
        assert isinstance(env, RankingEnv)
        assert env.k == 2
        assert [t.value for t in oracle_report(env).targets[:-1]] == pytest.approx([0.26, 0.26])
