"""Invariants checked over generated inputs.

Weights and rewards are drawn on a grid of eighths so that derived
quantities with exact closed forms (unit mean weight, the self-normalised
collapse) hold bitwise, not merely to rounding.
"""

import contextlib
import io
import json
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import dataset_from_weights, fold_indices, ranked_from_weights
from opekit import (
    BanditEnv,
    BanditScenario,
    Dataset,
    MomentSummary,
    PolicyTable,
    PositionModel,
    RankedDataset,
    RankingEnv,
    beta_ipm,
    beta_ips,
    beta_ips_variance,
    beta_perp_star_hat,
    beta_star_hat,
    beta_star_ips,
    cross_fitted_beta_ips,
    empirical_moments,
    hoeffding_tail_bound,
    ips,
    ipm,
    mse_decompose,
    remainder_diagnostics,
    replicate_estimates,
    sample_logs,
    sample_ranked_logs,
    snips,
    snips_avar,
    variance_gap,
    write_logs,
)
from opekit.cli import main
from opekit.errors import DegenerateWeights, OpeKitError
from opekit.estimators import ESTIMATORS, CrossFitConfig, estimate
from opekit.ranking import positionwise
from opekit.simulator import _cdf, _pick, _stages, compile_scenario, sample_cells


@st.composite
def scalar_datasets(draw, min_size=2, max_size=25):
    n = draw(st.integers(min_size, max_size))
    eighths_w = draw(st.lists(st.integers(0, 64), min_size=n, max_size=n))
    assume(any(eighths_w))
    eighths_r = draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))
    return dataset_from_weights(
        np.asarray(eighths_w) / 8.0, np.asarray(eighths_r) / 8.0
    )


@st.composite
def ranked_datasets(draw, max_k=3):
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, max_k))
    shape = (n, k)
    eighths_w = draw(
        st.lists(st.lists(st.integers(0, 64), min_size=k, max_size=k), min_size=n, max_size=n)
    )
    weights = np.asarray(eighths_w) / 8.0
    assume(np.all(weights.sum(axis=0) > 0))
    eighths_r = draw(
        st.lists(st.lists(st.integers(0, 8), min_size=k, max_size=k), min_size=n, max_size=n)
    )
    return ranked_from_weights(weights.reshape(shape), np.asarray(eighths_r).reshape(shape) / 8.0)


@st.composite
def moment_summaries(draw):
    var_w = draw(st.floats(1e-3, 10.0))
    var_wr = draw(st.floats(0.0, 10.0))
    rho = draw(st.floats(-0.999, 0.999))
    return MomentSummary(
        mean_w=draw(st.floats(0.5, 2.0)),
        mean_wr=draw(st.floats(-1.0, 1.0)),
        var_w=var_w,
        var_wr=var_wr,
        cov_w_wr=rho * float(np.sqrt(var_w * var_wr)),
        n=draw(st.integers(1, 10_000)),
    )


eighth_values = st.integers(-16, 16).map(lambda v: v / 8.0)


class TestScalarIdentities:
    @given(scalar_datasets(), eighth_values)
    def test_self_normalised_decomposition(self, dataset, value):
        assume(float(np.mean(dataset.weights)) > 0.0)
        diagnostics = remainder_diagnostics(dataset, value)
        left = snips(dataset).value
        right = beta_ips(dataset, value).value + diagnostics.r_n
        assert left == np.float64(right) or abs(left - right) <= 1e-12 * max(1.0, abs(left))

    @given(scalar_datasets())
    def test_zero_baseline_collapses_to_ips(self, dataset):
        assert beta_ips(dataset, 0.0).value == ips(dataset).value

    @given(st.integers(1, 10), eighth_values.filter(lambda d: 0.0 <= d <= 1.0),
           st.floats(-2.0, 2.0))
    def test_unit_mean_weight_collapse(self, pairs, spread, beta):
        weights = np.ravel(np.column_stack([
            np.full(pairs, 1.0 - spread), np.full(pairs, 1.0 + spread)
        ]))
        rewards = np.resize([1.0, 0.0, 0.5], weights.size)
        dataset = dataset_from_weights(weights, rewards)
        assert float(np.mean(dataset.weights)) == 1.0
        reference = ips(dataset).value
        assert snips(dataset).value == reference
        assert beta_ips(dataset, beta).value == reference

    @given(scalar_datasets())
    def test_empirical_moments_cauchy_schwarz(self, dataset):
        moments = empirical_moments(dataset)
        bound = moments.var_w * moments.var_wr
        assert moments.cov_w_wr**2 <= bound + 1e-9 * (1.0 + bound)

    @given(scalar_datasets(), eighth_values.filter(lambda v: -1.0 <= v <= 1.0))
    def test_remainder_series_bounds(self, dataset, value):
        assume(float(np.mean(dataset.weights)) > 0.0)
        diagnostics = remainder_diagnostics(dataset, value)
        w_bound = dataset.weight_bound
        u_cap = dataset.reward_bound * w_bound * (1.0 + w_bound)
        assert diagnostics.max_abs_u == np.max(np.abs(dataset.weights * (dataset.rewards - value)))
        assert diagnostics.max_abs_t == np.max(np.abs(dataset.weights - 1.0))
        assert diagnostics.max_abs_u <= u_cap
        assert diagnostics.max_abs_t <= w_bound


class TestVarianceSurface:
    @given(moment_summaries(), st.floats(-2.0, 2.0))
    def test_gap_non_negative_and_consistent(self, moments, value):
        report = variance_gap(moments, value)
        assert report.gap_delta >= -1e-12
        assert report.avar_snips - report.var_beta_star == np.float64(report.gap_delta) or (
            abs((report.avar_snips - report.var_beta_star) - report.gap_delta)
            <= 1e-12 * max(1.0, abs(report.gap_delta))
        )
        assert report.var_beta == snips_avar(moments, value)

    @given(moment_summaries(), st.floats(-3.0, 3.0))
    def test_optimal_baseline_minimises_variance(self, moments, offset):
        star = moments.cov_w_wr / moments.var_w
        at_star = beta_ips_variance(moments, star)
        other = beta_ips_variance(moments, star + offset)
        assert other >= at_star - 1e-12 * max(1.0, abs(at_star))


class TestRankedStructure:
    @given(ranked_datasets())
    def test_positionwise_separability(self, dataset):
        report = ipm(dataset)
        for j, part in enumerate(report.per_position):
            assert part.estimate == ips(dataset.position(j)).value
        assert abs(report.total - sum(p.estimate for p in report.per_position)) <= 1e-12

    @given(ranked_datasets(), st.randoms(use_true_random=False))
    def test_position_permutation_equivariance(self, dataset, rng):
        order = list(range(dataset.k))
        rng.shuffle(order)
        shuffled = ranked_from_weights(
            dataset.weights[:, order],
            dataset.rewards[:, order],
            weight_bound=dataset.weight_bound,
        )
        base = ipm(dataset).per_position
        moved = ipm(shuffled).per_position
        for new_j, old_j in enumerate(order):
            assert moved[new_j].estimate == base[old_j].estimate


class TestHarnessPieces:
    @given(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=40), st.floats(-1.0, 1.0))
    def test_mse_closure(self, values, oracle):
        bias, variance, mse = mse_decompose(np.asarray(values), oracle)
        assert abs(mse - (bias**2 + variance)) <= 1e-10 * max(1.0, mse)

    @given(st.integers(4, 200), st.integers(2, 8), st.integers(0, 5))
    def test_folds_partition_the_indices(self, n, k, seed):
        assume(n // k >= 2)
        folds = fold_indices(n, CrossFitConfig(folds_k=k, seed=seed))
        assert len(folds) == k
        sizes = sorted(len(f) for f in folds)
        assert sizes[-1] - sizes[0] <= 1
        merged = np.sort(np.concatenate(folds))
        assert np.array_equal(merged, np.arange(n))


@st.composite
def cdf_tables(draw):
    """Rows of CDFs from ``_cdf`` with zero cells, and a block of uniforms that hits their entries.

    Widths run from 1 cell to past 40, where ``np.searchsorted`` overtakes the
    picker's comparison count on one CDF. The uniforms are random, 0,
    ``1 - 2**-53`` or an entry of a CDF.
    """
    rows, cells = draw(st.integers(1, 3)), draw(st.integers(1, 48))
    probs = []
    for _ in range(rows):
        counts = draw(st.lists(st.integers(0, 4), min_size=cells, max_size=cells))
        counts[draw(st.integers(0, cells - 1))] += 1
        probs.append([c / sum(counts) for c in counts])
    cdf = _cdf(np.array(probs))
    special = st.sampled_from([0.0, 1.0 - 2.0**-53, *(x for x in cdf.ravel().tolist() if x < 1.0)])
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 12)))
    uniforms = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True) | special, min_size=shape[0] * shape[1],
                             max_size=shape[0] * shape[1]))
    return cdf, np.array(uniforms).reshape(shape)


class TestPicker:
    @given(cdf_tables())
    @example((_cdf(np.array([[0.7, 0.2, 0.1, 0.0]])), np.array([[0.0, 0.7, 0.9, 1.0 - 2.0**-53]])))
    @example((_cdf(np.array([[0.1] * 10, [0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25, 0.25]])),
              np.array([[0.0, 0.5, 0.75, 0.3, 1.0 - 2.0**-53]])))
    def test_equals_searchsorted(self, case):
        cdf, u = case
        # One CDF, as the contexts are drawn.
        for row in cdf:
            out = np.empty(u.shape, dtype=np.int64)
            assert _pick(row, u, out) is out
            assert out.tolist() == np.searchsorted(row[:-1], u, side="right").tolist()
        # A table of rows, each entry read in its own row, as the actions are drawn.
        rows = np.arange(u.size).reshape(u.shape) % cdf.shape[0]
        expected = [np.searchsorted(cdf[r, :-1], x, side="right") for r, x in zip(rows.ravel(), u.ravel())]
        out = np.empty(u.shape, dtype=np.int64)
        assert _pick(cdf, u, out, rows) is out
        assert out.ravel().tolist() == expected


@st.composite
def one_context_scenarios(draw):
    """A one-context scenario of 1 to 5 actions, zero-probability ones among them, and a block of uniforms.

    The uniforms are random, 0, ``1 - 2**-53`` or an entry of the action CDF.
    """
    actions = draw(st.integers(1, 5))
    counts = draw(st.lists(st.integers(0, 4), min_size=actions, max_size=actions))
    counts[draw(st.integers(0, actions - 1))] += 1
    probs = [c / sum(counts) for c in counts]
    policy = PolicyTable([probs])
    scenario = BanditScenario(BanditEnv([1.0], [[0.5] * actions]), policy, policy)
    special = st.sampled_from([0.0, 1.0 - 2.0**-53, *(x for x in _cdf(np.array(probs)).tolist() if x < 1.0)])
    rows, n = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    uniforms = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True) | special, min_size=rows * 3 * n,
                             max_size=rows * 3 * n))
    return scenario, n, np.array(uniforms).reshape(rows, 3 * n)


class TestOneContextPicker:
    @given(one_context_scenarios())
    @example((BanditScenario(BanditEnv([1.0], [[0.5, 0.5, 0.5, 0.5]]), *[PolicyTable([[0.7, 0.2, 0.1, 0.0]])] * 2), 2,
              np.array([[0.3, 0.9, 0.0, 0.7, 0.9, 1.0 - 2.0**-53]])))
    def test_equals_the_general_pick_on_a_zero_context_column(self, case):
        # One context: each action is picked against that context's CDF row, with no gather by context.
        scenario, n, uniforms = case
        compiled = compile_scenario(scenario)
        contexts, cells, _ = sample_cells(compiled, n, _stages(uniforms, n))
        zeros = np.zeros((uniforms.shape[0], n), dtype=np.int64)
        action_cdf = compiled.positions[0].action_cdf
        general = _pick(action_cdf, _stages(uniforms, n)[1], np.empty_like(zeros), zeros)
        general += zeros * action_cdf.shape[1]
        assert contexts.tolist() == zeros.tolist()
        assert cells[:, 0].tolist() == general.tolist()


@st.composite
def float_datasets(draw):
    """Scalar datasets with arbitrary float weights and rewards; half of them have constant weights."""
    n = draw(st.integers(2, 30))
    weight = st.floats(0.0, 8.0)
    if draw(st.booleans()):
        weights = [draw(weight)] * n
    else:
        weights = draw(st.lists(weight, min_size=n, max_size=n))
    rewards = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    return np.asarray(weights), np.asarray(rewards)


def _evaluate_beta_star(dataset):
    with tempfile.TemporaryDirectory() as tmp:
        logs, report = Path(tmp) / "logs.jsonl", Path(tmp) / "report.json"
        write_logs(dataset, logs)
        assert main(["evaluate", "--in", str(logs), "--out", str(report)]) == 0
        return json.loads(report.read_text())["beta_star"]


def _degenerate_or_hex(fn, dataset):
    try:
        value = fn(dataset)
    except DegenerateWeights:
        return None
    return None if value is None else float(value).hex()


class TestPlugInBaselineRoutes:
    @given(float_datasets())
    def test_every_route_gives_the_same_bits(self, columns):
        weights, rewards = columns
        dataset = dataset_from_weights(weights, rewards)
        one_position = ranked_from_weights(weights[:, None], rewards[:, None])
        routes = {
            "beta_star_hat": beta_star_hat,
            "beta_star_ips": lambda d: beta_star_ips(d).baseline_used,
            "empirical_moments": lambda d: empirical_moments(d).beta_star,
            "evaluate": _evaluate_beta_star,
            "beta_perp_star_hat": lambda d: beta_perp_star_hat(one_position)[0],
        }
        got = {name: _degenerate_or_hex(fn, dataset) for name, fn in routes.items()}
        assert len(set(got.values())) == 1, got
        assert (got["beta_star_hat"] is None) == (empirical_moments(dataset).var_w == 0.0)


def _evaluate(data: bytes) -> tuple[int, str]:
    """Exit code and stderr of ``opekit evaluate`` on a file holding ``data``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "logs.jsonl"
        path.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["evaluate", "--in", str(path)])
    return code, err.getvalue()


_HEADER = b'{"_meta":{"reward_bound":1.0,"weight_bound":9.0}}'
_SCALAR = b'{"context":0,"action":0,"p_log":0.9,"p_tgt":0.1,"reward":1.0}'
_RANKED = b'{"context":0,"positions":[{"action":0,"p_log":0.9,"p_tgt":0.1,"reward":0.0}]}'

#: Table leaves: any float, integers past the float range, and values that are not numbers.
_LEAVES = st.one_of(
    st.floats(),
    st.integers(-(10**400), 10**400),
    st.sampled_from([True, None, "0.5", "x", {}, 1j, np.complex128(0.5 + 1j), 1e308, 1e-310, 5e-324]),
)

#: A scenario whose target leaves the logging support: it fails to compile, after its sample size is read.
_UNSUPPORTED = (BanditEnv([1.0], [[0.5, 0.5]]), PolicyTable([[1.0, 0.0]]), PolicyTable([[0.0, 1.0]]))

#: A scenario that compiles, so that a sampler reads its seed.
_SUPPORTED = (BanditEnv([1.0], [[0.5, 0.5]]), PolicyTable([[0.5, 0.5]]), PolicyTable([[0.0, 1.0]]))


def _leaf_tables(leaf):
    """Constructor tables, 1-d context and 2-d others, that each hold ``leaf`` alone."""
    return [leaf], [[leaf]], [[leaf]], [[leaf]]


@st.composite
def _constructor_tables(draw):
    """Context probabilities and logging, target and reward tables of one shape, then up to three edits.

    An edit puts an odd leaf into a row, fills a row with one leaf, drops a
    row's last cell, or replaces a whole table with arbitrary nesting.
    """
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    tables = [[1.0 / rows] * rows] + [[[1.0 / cols] * cols for _ in range(rows)] for _ in range(3)]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, 3))
        edit = draw(st.sampled_from(["leaf", "fill", "drop", "replace"]))
        if edit == "replace":
            tables[i] = draw(st.recursive(_LEAVES, lambda inner: st.lists(inner, max_size=3), max_leaves=10))
            continue
        if not isinstance(tables[i], list) or not tables[i]:
            continue
        row = tables[i] if i == 0 else tables[i][draw(st.integers(0, len(tables[i]) - 1))]
        if not isinstance(row, list) or not row:
            continue
        if edit == "leaf":
            row[draw(st.integers(0, len(row) - 1))] = draw(_LEAVES)
        elif edit == "fill":
            row[:] = [draw(_LEAVES)] * len(row)
        else:
            row.pop()
    return tables


class TestNoTraceback:
    # Inputs from outside the program end in exit 2 or a package error.

    @given(st.binary(max_size=300))
    def test_evaluate_on_random_bytes_exits_2(self, data):
        code, err = _evaluate(data)
        assert code == 2, err
        assert len(err.splitlines()) == 1, err

    @given(st.lists(st.booleans(), min_size=2, max_size=8).filter(lambda ranked: len(set(ranked)) == 2))
    def test_evaluate_on_mixed_scalar_and_ranked_records_exits_2(self, ranked):
        data = b"\n".join([_HEADER, *(_RANKED if r else _SCALAR for r in ranked)]) + b"\n"
        code, err = _evaluate(data)
        assert code == 2, err
        assert len(err.splitlines()) == 1 and "record in a" in err, err

    @given(_constructor_tables(), _LEAVES)
    @example(([[0.5, 0.5], [0.5]],) * 4, 1.0)
    @example(_leaf_tables("x"), 1.0)
    @example(_leaf_tables(10**400), 1.0)
    @example(_leaf_tables({}), 1.0)
    @example(_leaf_tables(1j), 1.0)
    @example(([1.0], np.array([[0.5 + 3j, 0.5]]), [[0.5, 0.5]], [[0.5, 0.5]]), 1.0)
    @example(([-(2**63) - 1, np.complex128(0.5 + 1j)], [[1.0]], [[1.0]], [[1.0]]), 0.0)  # an object array
    @example(([0.5], [[5e-324]], [[0.5]], [[0.5]]), 1.0)  # a weight past the float range
    @example(_leaf_tables(0.5), "1")
    @example(_leaf_tables(0.5), None)
    @example(_leaf_tables(0.5), np.complex128(0.5 + 1j))
    @example(_leaf_tables(0.5), 1e308)  # squares past the float range
    @example(_leaf_tables(0.5), 1e-310)  # a square that underflows to zero
    @example(_leaf_tables(0.5), "nope")  # an estimator name that is not registered
    @example(_leaf_tables(0.5), 5)  # a cross-fit config that is not one
    @example(_leaf_tables(0.5), -1)  # a negative seed
    def test_public_constructors_raise_only_package_errors(self, tables, bound):
        context, logging, target, means = tables
        # Both dataset kinds on 1-d and 2-d columns, the drawn leaf as either declared bound.
        datasets = [
            partial(cls.from_arrays, *columns, reward_bound=reward_bound, weight_bound=weight_bound)
            for cls in (Dataset, RankedDataset)
            for columns in ((context,) * 3, (logging, target, means))
            for reward_bound, weight_bound in ((bound, 10.0), (1.0, bound))
        ]
        # The drawn leaf as each numeric argument, estimator name, cross-fit config and the
        # argument of every registered estimator. The unsupported scenario fails to compile
        # after its integers are read, so no sample is drawn, whatever their size.
        d = dataset_from_weights([2.0, 0.5], [1.0, 0.0], weight_bound=2.0)
        r = ranked_from_weights([[1.0, 2.0], [1.0, 0.5]], [[1.0, 0.5], [0.0, 1.0]], weight_bound=2.0)
        arguments = [
            lambda: beta_ips(d, bound),
            lambda: beta_ipm(r, [bound, bound]),
            lambda: variance_gap(empirical_moments(d), bound),
            lambda: hoeffding_tail_bound(bound, 9.0),
            lambda: hoeffding_tail_bound(10, bound),
            lambda: mse_decompose([bound, bound], 0.5),
            lambda: mse_decompose([0.25, 0.75], bound),
            lambda: replicate_estimates(BanditScenario(*_UNSUPPORTED), bound, bound, bound, ["ips"], n_jobs=bound),
            lambda: sample_logs(*_UNSUPPORTED, bound, 0),
            lambda: sample_logs(*_SUPPORTED, 5, bound),
            lambda: sample_logs(*_SUPPORTED, 5, [bound]),
            lambda: sample_ranked_logs(RankingEnv([1.0], [PositionModel(*_SUPPORTED[1:], [[0.5, 0.5]])] * 2), 5, bound),
            lambda: estimate(bound, d),
            lambda: positionwise(bound, r),
            lambda: cross_fitted_beta_ips(d, bound),
            *(partial(estimate, name, d, bound) for name in ESTIMATORS),
            *(partial(positionwise, name, r, bound) for name in ESTIMATORS),
        ]
        for build in (
            lambda: PolicyTable(logging),
            lambda: BanditEnv(context, means),
            lambda: PositionModel(PolicyTable(logging), PolicyTable(target), means),
            lambda: RankingEnv(context, [PositionModel(PolicyTable(logging), PolicyTable(target), means)] * 2),
            *datasets,
            *arguments,
        ):
            try:
                build()
            except OpeKitError:
                pass
