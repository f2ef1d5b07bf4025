"""Scalar estimators against hand-computed values."""

from fractions import Fraction
from math import sqrt

import numpy as np
import pytest

from opekit import (
    CrossFitConfig,
    Dataset,
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
from opekit.estimators import ESTIMATORS, Rows, _apply, estimate, parse_estimator_spec, remainder_rows
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

    @pytest.mark.parametrize("n", [8191, 8192, 8193, 200_003])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_one_block_gives_each_positions_moments(self, k, n):
        # A log's one block of positions by entries reduces each position as the
        # position alone is reduced, so the per-position moments opekit evaluate
        # reports are those of each position's own dataset, bit for bit, on either
        # side of numpy's 8192-element reduction buffer and far past it.
        rng = np.random.default_rng(n + k)
        dataset = ranked_from_weights(rng.uniform(0.0, 8.0, (n, k)), rng.random((n, k)))
        assert Rows.of(dataset).summaries() == [empirical_moments(dataset.position(j)) for j in range(k)]

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

    @pytest.mark.xfail(
        strict=True,
        raises=pytest.fail.Exception,  # DID NOT RAISE, and nothing else
        reason="open defect, CHANGES.md line 3 (FOUND) and ROADMAP item 9: rounding noise passes as "
        "weight variance, so no DegenerateWeights is raised",
    )
    def test_rounding_noise_is_not_weight_variance(self):
        # Nine flip2 entries of action 0, each of weight 0.1 / 0.9: their exact variance
        # is zero, the float one 1.93e-34, and beta_star_ips gives -0.111 at a baseline
        # of -0.222, outside the reward range.
        rewards = np.array([1.0] * 7 + [0.0] * 2)
        d = Dataset.from_arrays(np.full(9, 0.9), np.full(9, 0.1), rewards, reward_bound=1.0, weight_bound=9.0)
        assert 0.0 < empirical_moments(d).var_w < 1e-33
        with pytest.raises(DegenerateWeights):
            beta_star_ips(d)


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


def _exact_moments(w, wr):
    """Exact ``(mean_w, mean_wr, var_w, var_wr, cov_w_wr)`` of Fraction sequences, with the 1/n normaliser."""
    n = len(w)
    mean_w, mean_wr = sum(w) / n, sum(wr) / n
    dev_w, dev_wr = [x - mean_w for x in w], [x - mean_wr for x in wr]
    return (
        mean_w,
        mean_wr,
        sum(d * d for d in dev_w) / n,
        sum(d * d for d in dev_wr) / n,
        sum(a * b for a, b in zip(dev_w, dev_wr)) / n,
    )


#: The unit roundoff of float64.
U = 2.0**-53


def _moment_bounds(moments, n, mean_abs_wr):
    """Error bounds of the float moments of ``n`` entries, from their exact values.

    Each float sum of ``n`` terms is within ``(n - 1) * U`` of its exact
    value, relative to the sum of the terms' magnitudes (Higham 2002, eq.
    4.4); the products ``w * r``, the deviations, their products and the
    division by ``n`` add one rounding each, so ``g = (n + 8) * U`` covers
    every reduction here. A mean off by ``e`` shifts each centred second
    moment by at most ``e**2`` beyond its own rounding (Chan, Golub &
    LeVeque 1983).
    """
    mean_w, _, var_w, var_wr, _ = (float(m) for m in moments)
    g = (n + 8) * U
    e_mw, e_mwr = g * mean_w, g * mean_abs_wr  # the weights are non-negative
    e_vw = g * var_w + (1 + g) * e_mw**2
    e_vwr = g * var_wr + (1 + g) * e_mwr**2
    e_cov = e_mw * e_mwr + g * sqrt((var_w + e_mw**2) * (var_wr + e_mwr**2))
    return e_mw, e_mwr, e_vw, e_vwr, e_cov


def _exact_reference(w, r, beta, value, config):
    """Each kernel's exact value on one row of float weights and rewards, with its float error bound."""
    n = len(w)
    w, r = [Fraction(x) for x in w], [Fraction(x) for x in r]
    wr = [a * b for a, b in zip(w, r)]
    moments = _exact_moments(w, wr)
    bounds = _moment_bounds(moments, n, float(sum(abs(x) for x in wr) / n))
    mean_w, mean_wr, var_w, _, cov = moments
    e_mw, e_mwr, e_vw, _, e_cov = bounds
    exact, bound = {"moments": moments}, {"moments": bounds}

    def corrected(b, e_b, mw, mwr, e_w, e_wr):
        # b * (1 - mw) + mwr, where b, mw and mwr are off by e_b, e_w and e_wr, with three roundings.
        v = b * (1 - mw) + mwr
        return v, e_b * abs(float(1 - mw)) + (abs(float(b)) + e_b) * e_w + e_wr + 3 * U * (
            abs(float(b)) * (1 + float(mw)) + abs(float(mwr))
        )

    exact["ips"], bound["ips"] = mean_wr, e_mwr
    snips_value = mean_wr / mean_w
    exact["snips"] = snips_value
    bound["snips"] = (e_mwr + abs(float(snips_value)) * e_mw) / (float(mean_w) - e_mw) + U * abs(float(snips_value))
    exact["beta-ips"], bound["beta-ips"] = corrected(Fraction(beta), 0.0, mean_w, mean_wr, e_mw, e_mwr)
    beta_star = cov / var_w
    e_beta = (e_cov + abs(float(beta_star)) * e_vw) / (float(var_w) - e_vw) + U * abs(float(beta_star))
    assert e_beta < 1e-9 * max(1.0, abs(float(beta_star)))  # the bound is tight enough to tell a defect
    exact["beta-star"], bound["beta-star"] = beta_star, e_beta
    exact["beta-star-ips"], bound["beta-star-ips"] = corrected(beta_star, e_beta, mean_w, mean_wr, e_mw, e_mwr)
    l_n = mean_wr - Fraction(value) * mean_w
    e_l = e_mwr + abs(value) * e_mw + 2 * U * (float(mean_wr) + abs(value) * float(mean_w))
    r_n = l_n * (1 - mean_w) / mean_w
    low = float(mean_w) - e_mw
    exact["r_n"] = r_n
    bound["r_n"] = (e_l * abs(float(1 - mean_w)) + abs(float(l_n)) * e_mw) / low + abs(float(l_n)) * e_mw / low**2
    bound["r_n"] += 3 * U * abs(float(r_n))
    # Cross-fitting: each fold's plug-in baseline corrects the means of its complement.
    values, e_values = [], []
    folds = fold_indices(n, config)
    for fold in folds:
        inside = set(fold.tolist())
        fw, fwr = [w[i] for i in fold], [wr[i] for i in fold]
        cw = [w[i] for i in range(n) if i not in inside]
        cwr = [wr[i] for i in range(n) if i not in inside]
        f_moments = _exact_moments(fw, fwr)
        f_bounds = _moment_bounds(f_moments, len(fold), float(sum(abs(x) for x in fwr) / len(fold)))
        assert f_moments[2] > 0 and f_bounds[2] < float(f_moments[2])  # no fold is degenerate, in floats either
        b = f_moments[4] / f_moments[2]
        e_b = (f_bounds[4] + abs(float(b)) * f_bounds[2]) / (float(f_moments[2]) - f_bounds[2]) + U * abs(float(b))
        c_moments = _exact_moments(cw, cwr)
        c_bounds = _moment_bounds(c_moments, len(cw), float(sum(abs(x) for x in cwr) / len(cw)))
        v, e_v = corrected(b, e_b, c_moments[0], c_moments[1], c_bounds[0], c_bounds[1])
        values.append(v)
        e_values.append(e_v)
    exact["cf-beta-star-ips"] = sum(values) / len(folds)
    bound["cf-beta-star-ips"] = sum(e_values) / len(folds) + (len(folds) + 2) * U * float(
        sum(abs(v) for v in values) / len(folds)
    )
    return exact, bound


def _exact_case(seed, n, weights):
    """Three float rows of ``n`` weights drawn from ``weights`` (uniform on [0, 8] if empty), and rewards in [0, 1]."""
    rng = np.random.default_rng(seed)
    shape = (3, n)
    w = rng.choice(weights, size=shape) if weights else rng.uniform(0.0, 8.0, size=shape)
    r = np.where(rng.random(shape) < 0.3, rng.choice([0.0, 1.0], size=shape), rng.random(shape))
    return w, r


class TestExactKernels:
    # Each kernel on small float rows against exact rational arithmetic on the
    # same floats: through _apply, one dataset at a time, and as one engine block
    # of rows. The bounds follow the float error of each formula (_moment_bounds).
    BETA, VALUE = 0.3, 0.26

    @pytest.mark.parametrize(
        "seed, n, weights, folds_k",
        [
            (1, 24, [0.25, 0.5, 1.0, 2.0, 3.5], 3),
            (2, 37, [], 5),  # uniform weights; the folds are 8, 8, 7, 7 and 7 entries long
            (3, 45, [1 / 9, 1 / 3, 7.5], 5),
            (4, 30, [0.0, 1.0, 1.0, 2.5], 2),
        ],
        ids=["repeated", "uniform", "ninths", "zeros"],
    )
    def test_kernels_match_exact_arithmetic(self, seed, n, weights, folds_k):
        w, r = _exact_case(seed, n, weights)
        config = CrossFitConfig(folds_k=folds_k, seed=seed)
        block = Rows(w, w * r)
        block_values = {
            "ips": ESTIMATORS["ips"].kernel(block, None)[0],
            "snips": ESTIMATORS["snips"].kernel(block, None)[0],
            "beta-ips": ESTIMATORS["beta-ips"].kernel(block, self.BETA)[0],
            "cf-beta-star-ips": ESTIMATORS["cf-beta-star-ips"].kernel(block, config)[0],
        }
        block_values["beta-star-ips"], block_values["beta-star"], _ = ESTIMATORS["beta-star-ips"].kernel(block, None)
        block_values["r_n"] = remainder_rows(block, self.VALUE)[1]
        squares = ESTIMATORS["remainder-sq"].kernel(block, self.VALUE)[0]
        for row in range(len(w)):
            exact, bound = _exact_reference(w[row], r[row], self.BETA, self.VALUE, config)
            dataset = dataset_from_weights(w[row], r[row])
            found = {name: [float(values[row])] for name, values in block_values.items()}
            for name in ("ips", "snips", "beta-star-ips", "cf-beta-star-ips"):
                arg = config if name.startswith("cf") else None
                found[name].append(float(_apply(name, "scalar", Rows.of(dataset), arg)[0][0]))
            found["beta-ips"].append(float(_apply("beta-ips", "scalar", Rows.of(dataset), self.BETA)[0][0]))
            found["beta-star"].append(_apply("beta-star-ips", "scalar", Rows.of(dataset))[1][0])
            found["r_n"].append(remainder_diagnostics(dataset, self.VALUE).r_n)
            for name, numbers in found.items():
                for number in numbers:
                    assert abs(number - float(exact[name])) <= bound[name], (row, name, number, float(exact[name]))
            r_n, e_r = float(exact["r_n"]), bound["r_n"]
            assert abs(squares[row] - r_n**2) <= 2 * abs(r_n) * e_r + e_r**2 + U * r_n**2
            summary = empirical_moments(dataset)
            names = ("mean_w", "mean_wr", "var_w", "var_wr", "cov_w_wr")
            for got in ([m[row] for m in block.moments], [getattr(summary, name) for name in names]):
                for name, number, m, e in zip(names, got, exact["moments"], bound["moments"]):
                    assert abs(float(number) - float(m)) <= e, (row, name, float(number), float(m))


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
