"""Synthetic bandit and ranking environments with exact enumeration oracles.

Environments are small finite tables: a context distribution, per-context
Bernoulli reward means, and policy tables. True values and population
moments are computed by exact enumeration over contexts, actions, and
reward outcomes, never by sampling, so oracle quantities carry no Monte
Carlo error.

Sampling uses numpy's PCG64 generator. Draws are consumed in a fixed
order (contexts, then per position actions and rewards), so a
one-position ranking environment consumes the stream exactly like the
scalar sampler and reproduces its datasets bit for bit.

One sampler serves every caller. A scalar scenario is the one-position
case of a ranking: a scenario is compiled once into per-position sampling
tables, and :func:`sample_block` draws a block of replicates from those
tables, one row per generator, stage by stage, dropping the position axis
of a scalar block at the end. The public samplers, :func:`sample_logs`
and :func:`sample_ranked_logs`, are one body that takes that block's
single row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, RankedDataset, _check_block, _freeze
from .errors import (
    DimensionMismatch,
    SupportViolation,
    UnknownPreset,
    ValidationError,
)
from .estimators import MomentSummary

#: Tolerance for probability tables summing to one. Preset tables sum to
#: one exactly in floats; hand-written tables get a little slack.
_PROB_TOL = 1e-9


def _float_table(values, name: str) -> np.ndarray:
    """A new float64 array of ``values``; ragged nesting is a DimensionMismatch, not numpy's error."""
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        raise ValidationError(f"{name} hold a number too large for a float") from None
    except (TypeError, ValueError):
        raise DimensionMismatch(f"{name} must be a rectangular table of numbers") from None


def _frozen_probs(values, name: str, ndim: int) -> np.ndarray:
    arr = _float_table(values, name)
    if arr.ndim != ndim:
        raise DimensionMismatch(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} cannot be empty")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} must be finite")
    if (arr < 0).any():
        raise ValidationError(f"{name} must be non-negative")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PolicyTable:
    """Per-context action probabilities, one row per context."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = _frozen_probs(self.probs, "policy probabilities", 2)
        row_sums = probs.sum(axis=1)
        if np.max(np.abs(row_sums - 1.0)) > _PROB_TOL:
            raise ValidationError("policy rows must each sum to one")
        object.__setattr__(self, "probs", probs)

    @property
    def n_contexts(self) -> int:
        return int(self.probs.shape[0])

    @property
    def n_actions(self) -> int:
        return int(self.probs.shape[1])


@dataclass(frozen=True, eq=False)
class BanditEnv:
    """Finite contextual bandit with Bernoulli rewards."""

    context_probs: np.ndarray
    reward_means: np.ndarray

    def __post_init__(self) -> None:
        ctx = _frozen_probs(self.context_probs, "context probabilities", 1)
        if abs(float(ctx.sum()) - 1.0) > _PROB_TOL:
            raise ValidationError("context probabilities must sum to one")
        means = _float_table(self.reward_means, "reward means")
        if means.ndim != 2 or means.shape[0] != ctx.shape[0]:
            raise DimensionMismatch(
                f"reward means must have shape (n_contexts, n_actions), got {means.shape}"
            )
        if not np.isfinite(means).all() or (means < 0).any() or (means > 1).any():
            raise ValidationError("Bernoulli reward means must lie in [0, 1]")
        means.setflags(write=False)
        object.__setattr__(self, "context_probs", ctx)
        object.__setattr__(self, "reward_means", means)

    @property
    def n_contexts(self) -> int:
        return int(self.reward_means.shape[0])

    @property
    def n_actions(self) -> int:
        return int(self.reward_means.shape[1])


@dataclass(frozen=True, eq=False)
class BanditScenario:
    """A bandit environment paired with its logging and target policies."""

    env: BanditEnv
    logging_policy: PolicyTable
    target_policy: PolicyTable

    def __post_init__(self) -> None:
        for table, name in (
            (self.logging_policy, "logging policy"),
            (self.target_policy, "target policy"),
        ):
            if table.probs.shape != self.env.reward_means.shape:
                raise DimensionMismatch(
                    f"{name} shape {table.probs.shape} does not match the environment "
                    f"shape {self.env.reward_means.shape}"
                )


@dataclass(frozen=True, eq=False)
class PositionModel:
    """Policies and reward means for one ranking position."""

    logging_policy: PolicyTable
    target_policy: PolicyTable
    reward_means: np.ndarray

    def __post_init__(self) -> None:
        means = _float_table(self.reward_means, "position reward means")
        if means.ndim != 2:
            raise DimensionMismatch(
                f"position reward means must be two-dimensional, got shape {means.shape}"
            )
        if not np.isfinite(means).all() or (means < 0).any() or (means > 1).any():
            raise ValidationError("Bernoulli reward means must lie in [0, 1]")
        if self.logging_policy.probs.shape != means.shape:
            raise DimensionMismatch("position logging policy does not match its reward means")
        if self.target_policy.probs.shape != means.shape:
            raise DimensionMismatch("position target policy does not match its reward means")
        means.setflags(write=False)
        object.__setattr__(self, "reward_means", means)


@dataclass(frozen=True, eq=False)
class RankingEnv:
    """Per-position bandit models sharing one context distribution.

    Positions factorise: actions and rewards at each position depend on the
    context only, so the total value is the sum of per-position values.
    """

    context_probs: np.ndarray
    positions: tuple[PositionModel, ...]

    def __post_init__(self) -> None:
        ctx = _frozen_probs(self.context_probs, "context probabilities", 1)
        if abs(float(ctx.sum()) - 1.0) > _PROB_TOL:
            raise ValidationError("context probabilities must sum to one")
        positions = tuple(self.positions)
        if not positions:
            raise ValidationError("a ranking environment needs at least one position")
        for j, pos in enumerate(positions):
            if pos.reward_means.shape[0] != ctx.shape[0]:
                raise DimensionMismatch(
                    f"position {j + 1} has {pos.reward_means.shape[0]} contexts, "
                    f"expected {ctx.shape[0]}"
                )
        object.__setattr__(self, "context_probs", ctx)
        object.__setattr__(self, "positions", positions)

    @property
    def k(self) -> int:
        return len(self.positions)

    def position_scenario(self, j: int) -> BanditScenario:
        """The scalar bandit scenario at position ``j`` (0-based)."""
        if not 0 <= j < self.k:
            raise ValidationError(f"position {j} out of range for {self.k} positions")
        pos = self.positions[j]
        return BanditScenario(
            env=BanditEnv(self.context_probs, pos.reward_means),
            logging_policy=pos.logging_policy,
            target_policy=pos.target_policy,
        )


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def weight_bound(logging_policy: PolicyTable, target_policy: PolicyTable, context_probs=None) -> float:
    """Largest target-over-logging probability ratio over reachable pairs.

    Also checks overlap: any reachable context where the target policy puts
    mass on an action the logging policy never takes raises
    :class:`SupportViolation`.
    """
    log_probs = logging_policy.probs
    tgt_probs = target_policy.probs
    if log_probs.shape != tgt_probs.shape:
        raise DimensionMismatch(
            f"policy shapes {log_probs.shape} and {tgt_probs.shape} do not match"
        )
    if context_probs is None:
        active = np.ones(log_probs.shape[0], dtype=bool)
    else:
        active = np.asarray(context_probs, dtype=np.float64) > 0
    violations = (tgt_probs > 0) & (log_probs == 0) & active[:, None]
    if violations.any():
        xs, acts = np.nonzero(violations)
        raise SupportViolation(list(zip(xs.tolist(), acts.tolist())))
    ratio = np.where(log_probs > 0, tgt_probs / np.where(log_probs > 0, log_probs, 1.0), 0.0)
    return float(ratio[active].max())


def true_value(env: BanditEnv, policy: PolicyTable) -> float:
    """Exact policy value by enumeration over contexts and actions."""
    if policy.probs.shape != env.reward_means.shape:
        raise DimensionMismatch(
            f"policy shape {policy.probs.shape} does not match the environment "
            f"shape {env.reward_means.shape}"
        )
    per_context = np.sum(policy.probs * env.reward_means, axis=1)
    return float(np.dot(env.context_probs, per_context))


def population_moments(
    env: BanditEnv, logging_policy: PolicyTable, target_policy: PolicyTable
) -> MomentSummary:
    """Exact moments of the weight and weighted reward under logging, at n = 1.

    The weight mean is evaluated as the context-weighted sum of target row
    sums, cancelling the logging propensities symbolically, so policies
    whose rows sum to one in floats give a weight mean of exactly one.
    """
    # Overlap check only: it raises SupportViolation where the target leaves
    # the logging support.
    weight_bound(logging_policy, target_policy, env.context_probs)
    p_ctx = env.context_probs
    log_probs = logging_policy.probs
    tgt_probs = target_policy.probs
    if log_probs.shape != env.reward_means.shape:
        raise DimensionMismatch(
            f"policy shape {log_probs.shape} does not match the environment "
            f"shape {env.reward_means.shape}"
        )
    occupancy = p_ctx[:, None] * log_probs
    w = np.where(log_probs > 0, tgt_probs / np.where(log_probs > 0, log_probs, 1.0), 0.0)
    mu = env.reward_means
    mean_w = float(np.dot(p_ctx, tgt_probs.sum(axis=1)))
    if abs(mean_w - 1.0) > _PROB_TOL:
        raise ValidationError(f"weight mean should be one, got {mean_w}")
    mean_wr = float(np.sum(occupancy * w * mu))
    dev_w = w - mean_w
    var_w = float(np.sum(occupancy * dev_w * dev_w))
    # Rewards are Bernoulli(mu): enumerate both outcomes given (context, action).
    dev_wr = w - mean_wr
    var_wr = float(
        np.sum(occupancy * (mu * dev_wr * dev_wr + (1.0 - mu) * mean_wr * mean_wr))
    )
    cov_w_wr = float(np.sum(occupancy * dev_w * (mu * w - mean_wr)))
    return MomentSummary(
        mean_w=mean_w, mean_wr=mean_wr, var_w=var_w, var_wr=var_wr, cov_w_wr=cov_w_wr, n=1
    )


def _pick(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw: index of the first CDF entry strictly above u.

    Zero-probability cells have zero-width intervals and are never picked.
    """
    idx = np.searchsorted(cdf, u, side="right")
    return np.minimum(idx, cdf.shape[0] - 1)


def _pick_rows(row_cdf: np.ndarray, contexts: np.ndarray, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw from the CDF row of each entry's context, written into ``out``."""
    n_actions = row_cdf.shape[1]
    out[...] = 0
    for a in range(n_actions):
        out += u >= row_cdf[:, a].take(contexts)
    return np.minimum(out, n_actions - 1, out=out)


def _draw(uniforms: np.ndarray, generators) -> np.ndarray:
    """Refill each row of ``uniforms`` from its own generator."""
    for row, rng in zip(uniforms, generators):
        rng.random(out=row)
    return uniforms


@dataclass(frozen=True, eq=False)
class _PositionTables:
    """Sampling tables of one position.

    ``action_cdf`` holds the logging CDF of each context, one row per
    context; the other tables are flattened by ``(context, action)`` cell.
    """

    action_cdf: np.ndarray
    reward_means: np.ndarray
    p_log: np.ndarray
    p_tgt: np.ndarray


@dataclass(frozen=True, eq=False)
class CompiledScenario:
    """Sampling tables of a scenario, built once and shared by every replicate.

    ``ranked`` scenarios sample ``(replicates, positions, n)`` blocks;
    scalar ones sample ``(replicates, n)``.
    """

    context_cdf: np.ndarray
    positions: tuple[_PositionTables, ...]
    weight_bound: float
    ranked: bool

    @property
    def k(self) -> int:
        return len(self.positions)


def _position_tables(logging_policy: PolicyTable, target_policy: PolicyTable, reward_means) -> _PositionTables:
    return _PositionTables(
        action_cdf=np.cumsum(logging_policy.probs, axis=1),
        reward_means=np.ravel(reward_means),
        p_log=np.ravel(logging_policy.probs),
        p_tgt=np.ravel(target_policy.probs),
    )


def compile_scenario(scenario) -> CompiledScenario:
    """Sampling tables and weight bound of a :class:`BanditScenario` or :class:`RankingEnv`.

    A bandit scenario is compiled as a ranking with one position, so both
    kinds share the tables and the sampler.
    """
    if isinstance(scenario, BanditScenario):
        context_probs = scenario.env.context_probs
        positions = (
            PositionModel(scenario.logging_policy, scenario.target_policy, scenario.env.reward_means),
        )
    elif isinstance(scenario, RankingEnv):
        context_probs, positions = scenario.context_probs, scenario.positions
    else:
        raise ValidationError(f"unsupported scenario type {type(scenario).__name__}")
    return CompiledScenario(
        context_cdf=np.cumsum(context_probs),
        positions=tuple(
            _position_tables(pos.logging_policy, pos.target_policy, pos.reward_means)
            for pos in positions
        ),
        weight_bound=max(
            weight_bound(pos.logging_policy, pos.target_policy, context_probs) for pos in positions
        ),
        ranked=isinstance(scenario, RankingEnv),
    )


@dataclass(frozen=True, eq=False)
class SampleBlock:
    """Validated columns of a block of replicates, one row per replicate."""

    propensity_logging: np.ndarray
    propensity_target: np.ndarray
    rewards: np.ndarray
    weights: np.ndarray
    context_ids: np.ndarray
    action_ids: np.ndarray


def sample_block(compiled: CompiledScenario, n: int, generators) -> SampleBlock:
    """Draw ``n`` entries per generator, each row consuming its own stream.

    Every generator is consumed exactly as a one-row sample would consume
    it: contexts, then per position actions and rewards. The draws go
    stage by stage, so one ``(rows, n)`` block of uniforms is alive at a
    time. The block is validated like any dataset before it is returned.
    """
    rows = len(generators)
    uniforms = np.empty((rows, n))
    contexts = _pick(compiled.context_cdf, _draw(uniforms, generators))
    shape = (rows, compiled.k, n)
    p_log = np.empty(shape)
    p_tgt = np.empty(shape)
    rewards = np.empty(shape)
    actions = np.empty(shape, dtype=np.int64)
    for j, pos in enumerate(compiled.positions):
        acts = _pick_rows(pos.action_cdf, contexts, _draw(uniforms, generators), actions[:, j])
        cells = contexts * pos.action_cdf.shape[1]
        cells += acts
        np.less(_draw(uniforms, generators), pos.reward_means.take(cells), out=rewards[:, j], casting="unsafe")
        # Cells are always in range. Unlike the default mode="raise", which
        # copies ``out`` through a temporary, mode="clip" writes straight into it.
        pos.p_log.take(cells, out=p_log[:, j], mode="clip")
        pos.p_tgt.take(cells, out=p_tgt[:, j], mode="clip")
        del cells
    del uniforms
    if not compiled.ranked:
        p_log, p_tgt, rewards, actions = (a.reshape(rows, n) for a in (p_log, p_tgt, rewards, actions))
    weights = _check_block(p_log, p_tgt, rewards, 1.0, compiled.weight_bound)
    return SampleBlock(p_log, p_tgt, rewards, weights, contexts, actions)


def _sample(scenario, n: int, seed):
    """One sample of ``n`` entries: the sampled block's single row as a dataset.

    Ranked columns are entries by positions, as views of the block; scalar
    columns are the one-position case, already 1-d in the block.
    """
    if n < 1:
        raise ValidationError(f"sample size must be at least 1, got {n}")
    compiled = compile_scenario(scenario)
    block = sample_block(compiled, n, [_as_generator(seed)])
    cls = RankedDataset if compiled.ranked else Dataset
    return cls(
        propensity_logging=_freeze(block.propensity_logging[0].T),
        propensity_target=_freeze(block.propensity_target[0].T),
        rewards=_freeze(block.rewards[0].T),
        weights=_freeze(block.weights[0].T),
        reward_bound=1.0,
        weight_bound=compiled.weight_bound,
        context_ids=_freeze(block.context_ids[0]),
        action_ids=_freeze(block.action_ids[0].T),
    )


def sample_logs(
    env: BanditEnv,
    logging_policy: PolicyTable,
    target_policy: PolicyTable,
    n: int,
    seed,
) -> Dataset:
    """Draw ``n`` logged interactions under the logging policy.

    ``seed`` may be an int, a ``numpy.random.SeedSequence``, or a
    ``numpy.random.Generator``; the first two fully determine the dataset.
    The declared bounds are exact: rewards are Bernoulli, and the weight
    bound is the largest reachable probability ratio.
    """
    return _sample(BanditScenario(env, logging_policy, target_policy), n, seed)


def true_position_values(env: RankingEnv) -> np.ndarray:
    """Exact per-position target values; their sum is the total value."""
    values = np.array(
        [
            true_value(BanditEnv(env.context_probs, pos.reward_means), pos.target_policy)
            for pos in env.positions
        ]
    )
    values.setflags(write=False)
    return values


def sample_ranked_logs(env: RankingEnv, n: int, seed) -> RankedDataset:
    """Draw ``n`` logged rankings under the per-position logging policies.

    Contexts are drawn first, then an action and reward per position, so
    the stream consumption for one position matches :func:`sample_logs`.
    """
    return _sample(env, n, seed)


def _flip2() -> BanditScenario:
    env = BanditEnv(context_probs=[1.0], reward_means=[[0.8, 0.2]])
    return BanditScenario(
        env=env,
        logging_policy=PolicyTable([[0.9, 0.1]]),
        target_policy=PolicyTable([[0.1, 0.9]]),
    )


def _identity2() -> BanditScenario:
    env = BanditEnv(context_probs=[1.0], reward_means=[[0.8, 0.2]])
    policy = PolicyTable([[0.9, 0.1]])
    return BanditScenario(env=env, logging_policy=policy, target_policy=policy)


def _const2() -> BanditScenario:
    env = BanditEnv(context_probs=[1.0], reward_means=[[0.5, 0.5]])
    return BanditScenario(
        env=env,
        logging_policy=PolicyTable([[0.9, 0.1]]),
        target_policy=PolicyTable([[0.1, 0.9]]),
    )


def _rankflip2x2() -> RankingEnv:
    position = PositionModel(
        logging_policy=PolicyTable([[0.9, 0.1]]),
        target_policy=PolicyTable([[0.1, 0.9]]),
        reward_means=[[0.8, 0.2]],
    )
    return RankingEnv(context_probs=[1.0], positions=(position, position))


_PRESETS = {
    "flip2": (
        _flip2,
        "one context, two actions; logging favours the good arm, the target "
        "flips it (value 0.26, weight bound 9)",
    ),
    "identity2": (
        _identity2,
        "target equals logging, every weight is one (value 0.74)",
    ),
    "const2": (
        _const2,
        "flipped policies over arms with equal reward means; the optimal "
        "baseline coincides with the value (value 0.5)",
    ),
    "rankflip2x2": (
        _rankflip2x2,
        "two independent ranking positions, each a copy of flip2 "
        "(total value 0.52)",
    ),
}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def preset_description(name: str) -> str:
    if name not in _PRESETS:
        raise UnknownPreset(name, preset_names())
    return _PRESETS[name][1]


def get_scenario(name: str):
    """Look up a preset scenario by name.

    Returns a :class:`BanditScenario` for scalar presets and a
    :class:`RankingEnv` for ranking presets.
    """
    if name not in _PRESETS:
        raise UnknownPreset(name, preset_names())
    return _PRESETS[name][0]()
