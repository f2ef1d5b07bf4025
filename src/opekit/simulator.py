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

One set of tables and one sampler serve every caller. A scalar scenario
is the one-position case of a ranking: a scenario is compiled once into
per-position sampling tables, and :func:`sample_cells` draws a block of
replicates from them, one row per replicate, into the contexts, the flat
``(context, action)`` cell of every entry and its Bernoulli reward. Each
caller gathers what it needs from the compiled tables at those cells: the
public samplers, :func:`sample_logs` and :func:`sample_ranked_logs`, every
column of a one-row block; the study engine, through
:func:`sample_weights`, only the weights and the weighted rewards.

:func:`compile_scenario` is the one place that divides ``p_tgt`` by
``p_log`` and checks the tables. Per position it checks support, rejects a
drawable weight whose square overflows a float, runs the entry check once
over the cells a draw can pick and takes the weight bound. A policy entry
above 1, say, is rejected there, naming its position, context and action,
before any uniform is drawn. The oracle,
:func:`~opekit.experiments.oracle_report`, is enumerated over the compiled
tables, so a scenario that fails to compile has no oracle either. Every CDF
reads 1.0 from its last positive cell on, so a draw never picks a
zero-probability context or action, and every column is gathered from the
compiled tables, so every sampled dataset passes the dataset checks with
the same columns and weights, and no block is checked entry by entry.

Replicate streams come from :func:`replicate_streams`. SeedSequence's
hash of ``(seed, n, r)`` runs in numpy for a whole range of replicates at
once, and PCG64 runs its own seeding on each replicate's words, handed
over through numpy's ``ISeedSequence`` protocol, so every replicate has
its own generator, bit-equal to ``default_rng(SeedSequence((seed, n, r)))``.
A replicate's ``(1 + 2k) * n`` uniforms come from one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .data import Dataset, RankedDataset, _check_columns, _float_column, _freeze, _integer
from .errors import (
    DimensionMismatch,
    EntryError,
    NonFiniteValue,
    SupportViolation,
    UnknownPreset,
    ValidationError,
)
from .estimators import MomentSummary

#: Tolerance for probability tables summing to one. Preset tables sum to
#: one exactly in floats; hand-written tables get a little slack.
_PROB_TOL = 1e-9


def _frozen_probs(values, name: str, ndim: int) -> np.ndarray:
    """A read-only probability table of ``ndim`` dimensions whose rows each sum to one."""
    arr = np.array(_float_column(values, name))
    if arr.ndim != ndim:
        raise DimensionMismatch(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} cannot be empty")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} must be finite")
    if (arr < 0).any():
        raise ValidationError(f"{name} must be non-negative")
    # Entries near the float maximum sum to infinity, which fails the check.
    with np.errstate(over="ignore"):
        sums = arr.sum(axis=-1)
    if np.max(np.abs(sums - 1.0)) > _PROB_TOL:
        raise ValidationError(f"{name} must sum to one" + (" in each row" if ndim == 2 else ""))
    return _freeze(arr)


@dataclass(frozen=True, eq=False)
class PolicyTable:
    """Per-context action probabilities, one row per context."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", _frozen_probs(self.probs, "policy probabilities", 2))


def _reward_means(values, name: str) -> np.ndarray:
    """A read-only table of Bernoulli reward means, one row per context and one column per action."""
    means = np.array(_float_column(values, name))
    if means.ndim != 2:
        raise DimensionMismatch(f"{name} must be two-dimensional, got shape {means.shape}")
    if not np.isfinite(means).all() or (means < 0).any() or (means > 1).any():
        raise ValidationError("Bernoulli reward means must lie in [0, 1]")
    return _freeze(means)


@dataclass(frozen=True, eq=False)
class BanditEnv:
    """Finite contextual bandit with Bernoulli rewards."""

    context_probs: np.ndarray
    reward_means: np.ndarray

    def __post_init__(self) -> None:
        ctx = _frozen_probs(self.context_probs, "context probabilities", 1)
        means = _reward_means(self.reward_means, "reward means")
        if means.shape[0] != ctx.shape[0]:
            raise DimensionMismatch(f"reward means must have shape (n_contexts, n_actions), got {means.shape}")
        object.__setattr__(self, "context_probs", ctx)
        object.__setattr__(self, "reward_means", means)


@dataclass(frozen=True, eq=False)
class BanditScenario:
    """A bandit environment and its policies, held in ``positions`` as a ranking's one position, which checks shapes."""

    env: BanditEnv
    logging_policy: PolicyTable
    target_policy: PolicyTable
    positions: tuple[PositionModel] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        position = PositionModel(self.logging_policy, self.target_policy, self.env.reward_means)
        object.__setattr__(self, "positions", (position,))

    @property
    def context_probs(self) -> np.ndarray:
        return self.env.context_probs

    k = 1


@dataclass(frozen=True, eq=False)
class PositionModel:
    """Policies and reward means for one ranking position."""

    logging_policy: PolicyTable
    target_policy: PolicyTable
    reward_means: np.ndarray

    def __post_init__(self) -> None:
        means = _reward_means(self.reward_means, "position reward means")
        for table, name in ((self.logging_policy, "logging policy"), (self.target_policy, "target policy")):
            if table.probs.shape != means.shape:
                raise DimensionMismatch(
                    f"{name} shape {table.probs.shape} does not match the reward means shape {means.shape}"
                )
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


def _value(context_probs: np.ndarray, target_probs: np.ndarray, reward_means: np.ndarray) -> float:
    """Exact value of a target table by enumeration over contexts and actions."""
    per_context = np.sum(target_probs * reward_means, axis=1)
    return float(np.dot(context_probs, per_context))


def _cdf(probs: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, capped at 1.0 and reading 1.0 from each row's last positive cell on.

    A rounded sum can end below one (``[0.7, 0.2, 0.1, 0.0]`` sums to
    ``1 - 2**-53``), which would leave a zero-probability cell past the
    last positive one an interval of its own. With every cell from the last
    positive one on at 1.0, above every uniform, each zero-probability cell
    has an empty interval, and a draw differs from one on the plain
    cumulative sums only where that would pick such a cell.
    """
    cdf = np.minimum(np.cumsum(probs, axis=-1), 1.0)
    last = probs.shape[-1] - 1 - np.argmax(probs[..., ::-1] > 0, axis=-1)
    cdf[np.arange(probs.shape[-1]) >= np.expand_dims(last, -1)] = 1.0
    return cdf


def _pick(cdf: np.ndarray, u: np.ndarray, out: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Inverse-CDF draw into ``out``: the number of entries of ``cdf`` at or below each u.

    ``cdf`` is a CDF from :func:`_cdf`, or with ``rows`` a table of them, each
    entry read in its own row. It never decreases and ends at 1.0, above every
    u, so the last cell is skipped and the count equals
    ``np.searchsorted(cdf[:-1], u, side="right")``, which never picks a
    zero-probability cell. One comparison pass per cell: per 8192 uniforms
    (2 cores, numpy 2.4) this beats ``np.searchsorted`` on one CDF below about
    40 cells (12 against 39 us at 2 cells) and loses above.
    """
    out[...] = 0
    for i in range(cdf.shape[-1] - 1):
        out += u >= (cdf[..., i] if rows is None else cdf[:, i].take(rows))
    return out


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), run on columns of replicates at once.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _words(value: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence takes from a non-negative integer; zero is one word."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hash_constants(const: int, mult: int) -> Iterator[tuple[np.uint32, np.uint32]]:
    """The running hash constant of SeedSequence, before and after each step."""
    while True:
        before = np.uint32(const)
        const = (const * mult) & _MASK32
        yield before, np.uint32(const)


def _hashmix(value: np.ndarray, constants) -> np.ndarray:
    before, after = next(constants)
    value = value ^ before
    value *= after
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_L - y * _MIX_R
    return result ^ (result >> 16)


def _pcg64_seeds(seed: int, n: int, rows: range) -> Iterator[np.ndarray]:
    """``SeedSequence((seed, n, r)).generate_state(4, np.uint64)`` for every ``r`` in ``rows``.

    SeedSequence's hash runs on uint32 columns, one entry per replicate, for
    each run of replicates whose ``r`` has the same number of 32-bit words.
    Each replicate's four words are a C-contiguous row, as PCG64 reads them
    from the raw buffer. Replicate indices must be below ``2**64``.
    """
    fixed = _words(seed) + _words(n)
    start = rows.start
    while start < rows.stop:
        count = len(_words(start))
        stop = min(rows.stop, 1 << (32 * count))
        r = np.arange(start, stop, dtype=np.uint64)
        entropy = [np.full(r.shape, word, dtype=np.uint32) for word in fixed]
        entropy += [(r >> np.uint64(32 * i)).astype(np.uint32) for i in range(count)]
        constants = _hash_constants(_INIT_A, _MULT_A)
        zero = np.zeros(r.shape, dtype=np.uint32)
        pool = [_hashmix(entropy[i] if i < len(entropy) else zero, constants) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants))
        for word in entropy[4:]:
            for dst in range(4):
                pool[dst] = _mix(pool[dst], _hashmix(word, constants))
        constants = _hash_constants(_INIT_B, _MULT_B)
        halves = [_hashmix(pool[i % 4], constants).astype(np.uint64) for i in range(8)]
        yield from np.stack([halves[2 * i] | (halves[2 * i + 1] << np.uint64(32)) for i in range(4)], axis=1)
        start = stop


class _SeedWords:
    """A replicate's SeedSequence words for PCG64's own seeding; :func:`replicate_streams` makes it an ISeedSequence."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words  # PCG64 asks for its four uint64 words alone


def replicate_streams(seed: int, n: int, rows: range) -> Iterator[np.random.Generator]:
    """The generator of each replicate in ``rows``, bit-equal to ``default_rng(SeedSequence((seed, n, r)))``."""
    # SeedSequence takes non-negative words alone; _words would shift a negative int forever.
    for name, value in (("master seed", seed), ("sample size", n), ("replicate index", rows.start)):
        if value < 0:
            raise ValidationError(f"{name} must be non-negative, got {value}")
    if rows.step != 1:  # _pcg64_seeds hashes every index from rows.start to rows.stop
        raise ValidationError(f"replicate rows must be a range of step 1, got {rows!r}")
    # Registered here, not at import, so that importing this module loads no numpy.random.
    np.random.bit_generator.ISeedSequence.register(_SeedWords)
    for words in _pcg64_seeds(seed, n, rows):
        yield np.random.Generator(np.random.PCG64(_SeedWords(words)))


def draw_uniforms(uniforms: np.ndarray, streams: Iterator[np.random.Generator]) -> np.ndarray:
    """Fill each row of ``uniforms`` from the next stream, in one call per row."""
    # ``uniforms`` comes first, so zip takes no stream past the last row.
    for row, rng in zip(uniforms, streams):
        rng.random(out=row)
    return uniforms


@dataclass(frozen=True, eq=False)
class _PositionTables:
    """Sampling and oracle tables of one position, one row per context and one column per action.

    ``action_cdf`` holds the logging CDF of each context; the samplers read
    the other tables by flat ``(context, action)`` cell. ``weights`` is
    ``p_tgt / p_log`` on the cells a draw can pick and zero elsewhere.
    """

    action_cdf: np.ndarray
    reward_means: np.ndarray
    p_log: np.ndarray
    p_tgt: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True, eq=False)
class CompiledScenario:
    """Sampling and oracle tables of a scenario, built once and shared by every replicate.

    ``ranked`` scenarios sample ``(replicates, positions, n)`` blocks;
    scalar ones sample ``(replicates, n)``.
    """

    context_probs: np.ndarray
    context_cdf: np.ndarray
    positions: tuple[_PositionTables, ...]
    weight_bound: float
    ranked: bool

    @property
    def k(self) -> int:
        return len(self.positions)


def _weights(context_probs: np.ndarray, p_log: np.ndarray, p_tgt: np.ndarray, position) -> tuple[np.ndarray, float]:
    """The checked weight table ``p_tgt / p_log`` of one position and its largest entry, the weight bound.

    The one place a weight is formed: on the cells a draw can pick (context
    and logging probabilities positive), zero elsewhere. Raises
    :class:`SupportViolation` where a reachable target leaves the logging
    support, then :class:`NonFiniteValue` for a weight, then for a squared
    weight, too large for a float (the oracle's moments square the weights),
    then runs the entry check over the drawable cells, whose rewards
    are 0 or 1 and always pass. An error names the cell's position
    (``None`` for a scalar scenario), context and action.
    """
    active = context_probs[:, None] > 0
    violations = active & (p_tgt > 0) & (p_log == 0)
    if violations.any():
        contexts, actions = np.nonzero(violations)
        raise SupportViolation(list(zip(contexts.tolist(), actions.tolist())), position=position)
    drawable = active & (p_log > 0)
    with np.errstate(over="ignore"):
        weights = np.divide(p_tgt, p_log, out=np.zeros_like(p_log), where=drawable)
        drawn = weights[drawable]
        squares = np.square(drawn)
    try:
        for quantity, values in (("weight", drawn), ("squared weight", squares)):
            overflow = np.isinf(values)
            if overflow.any():
                raise NonFiniteValue(quantity, int(np.argmax(overflow)))
        bound = float(weights.max())
        _check_columns(p_log[drawable], p_tgt[drawable], np.zeros_like(drawn), 1.0, bound)
    except EntryError as exc:  # its index counts the drawable cells in row-major order, as argwhere lists them
        context, action = np.argwhere(drawable)[exc.index].tolist()
        exc.located(index=None, position=position, cell=(context, action))
        raise
    return weights, bound


def _ranked(scenario) -> bool:
    """Whether a scenario is a :class:`RankingEnv`, not a :class:`BanditScenario`: the one rule for its kind."""
    if not isinstance(scenario, (BanditScenario, RankingEnv)):
        raise ValidationError(f"scenario must be a BanditScenario or RankingEnv, got {type(scenario).__name__}")
    return isinstance(scenario, RankingEnv)


def compile_scenario(scenario) -> CompiledScenario:
    """Sampling and oracle tables and weight bound of a :class:`BanditScenario` or :class:`RankingEnv`.

    A bandit scenario is compiled as a ranking with one position, so both
    kinds share the tables, the sampler and the oracle. The cells a draw
    can pick are checked here, once, as dataset entries against the weight
    bound, so a scenario whose samples would fail the dataset checks fails
    to compile.
    """
    ranked = _ranked(scenario)
    context_probs = scenario.context_probs
    tables, bounds = [], []
    for j, pos in enumerate(scenario.positions):
        p_log, p_tgt = pos.logging_policy.probs, pos.target_policy.probs
        weights, bound = _weights(context_probs, p_log, p_tgt, j if ranked else None)
        tables.append(_PositionTables(_cdf(p_log), pos.reward_means, p_log, p_tgt, weights))
        bounds.append(bound)
    return CompiledScenario(context_probs, _cdf(context_probs), tuple(tables), max(bounds), ranked)


def _moments(p_ctx: np.ndarray, pos: _PositionTables) -> MomentSummary:
    """Exact moments of the weight and weighted reward under logging at one compiled position, at n = 1.

    The weight mean is evaluated as the context-weighted sum of target row
    sums, cancelling the logging propensities symbolically, so policies
    whose rows sum to one in floats give a weight mean of exactly one.
    """
    occupancy = p_ctx[:, None] * pos.p_log
    w = pos.weights
    mu = pos.reward_means
    mean_w = float(np.dot(p_ctx, pos.p_tgt.sum(axis=1)))
    # The context probabilities and each target row sum to one within _PROB_TOL,
    # so the mean is within (1 +- _PROB_TOL)**2 of one, up to rounding.
    if abs(mean_w - 1.0) > 2.0 * _PROB_TOL + _PROB_TOL**2 + 1e-12:
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


def _stages(uniforms: np.ndarray, n: int) -> list[np.ndarray]:
    """The ``(rows, n)`` uniforms of each stage of a block: contexts, then per position actions and rewards."""
    return [uniforms[:, s : s + n] for s in range(0, uniforms.shape[1], n)]


def sample_cells(
    compiled: CompiledScenario, n: int, stages: Iterable[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The contexts, ``(context, action)`` cells and Bernoulli rewards of a block of ``n`` entries per row.

    ``stages`` yields the ``(rows, n)`` uniforms of each stage in the order
    a row's stream is consumed: contexts, then per position actions and
    rewards. Each is used up before the next is taken, so a caller may
    draw them one at a time into one buffer. The contexts are ``(rows, n)``;
    the flat cells (``context * A_j + action`` at position ``j`` of ``A_j``
    actions) and the rewards, ``u < reward_means[cell]``, are ``(rows, k, n)``.
    Callers gather their columns from the compiled tables at the cells,
    whose drawable entries passed the entry check when the scenario was
    compiled, so no block needs a check of its own.
    """
    stages = iter(stages)
    u = next(stages)
    contexts = _pick(compiled.context_cdf, u, np.empty(u.shape, dtype=np.int64))
    shape = (contexts.shape[0], compiled.k, n)
    cells = np.empty(shape, dtype=np.int64)
    rewards = np.empty(shape, dtype=bool)
    one_context = compiled.context_cdf.size == 1  # every context is 0, and each cell its action
    for j, pos in enumerate(compiled.positions):
        if one_context:
            _pick(pos.action_cdf[0], next(stages), cells[:, j])
        else:
            _pick(pos.action_cdf, next(stages), cells[:, j], contexts)
            cells[:, j] += contexts * pos.action_cdf.shape[1]
        np.less(next(stages), pos.reward_means.take(cells[:, j]), out=rewards[:, j])
    return contexts, cells, rewards


def _gather(tables: Iterable[np.ndarray], cells: np.ndarray) -> np.ndarray:
    """Each position's table read at that position's cells, shaped like ``cells``."""
    out = np.empty(cells.shape)
    for j, table in enumerate(tables):
        # Cells are always in range. Unlike the default mode="raise", which
        # copies ``out`` through a temporary, mode="clip" writes straight into it.
        table.take(cells[:, j], out=out[:, j], mode="clip")
    return out


def sample_weights(compiled: CompiledScenario, n: int, uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The weights ``w`` and weighted rewards ``w * r`` of the block drawn from ``uniforms``.

    ``uniforms`` holds each row's ``(1 + 2k) * n`` uniforms in stream
    order. The cells and rewards are those of :func:`sample_cells`, so a
    row is bit-equal to the weights and weighted rewards of the public
    sample drawn from its stream. Nothing else is gathered.
    """
    _, cells, rewards = sample_cells(compiled, n, _stages(uniforms, n))
    w = _gather([pos.weights for pos in compiled.positions], cells)
    wr = w * rewards
    if not compiled.ranked:
        w, wr = w[:, 0], wr[:, 0]
    return w, wr


def _check_sample_size(n: int, k: int, name: str = "sample size") -> None:
    """Raise unless ``n`` is from 1 to the largest sample size of ``k`` positions, defined here alone."""
    # A replicate's (1 + 2k) * n uniforms fill one float64 array row; numpy arrays hold at most intp.max bytes.
    largest = int(np.iinfo(np.intp).max) // (8 * (1 + 2 * k))
    if n < 1:
        raise ValidationError(f"{name} must be at least 1, got {n}")
    if n > largest:
        raise ValidationError(f"{name} must be at most {largest}, the largest sample size an array holds")


def _sample(scenario, n: int, seed):
    """One sample of ``n`` entries: the single row of a :func:`sample_cells` block as a dataset.

    Ranked columns are entries by positions, as views of the block; scalar
    columns are the row of its one position. A cell ``context * A_j + action``
    holds an action below ``A_j``, so its action id is the cell modulo
    ``A_j``. It overwrites the cells in place, so it is taken after every gather.
    """
    n = _integer(n, "sample size")
    compiled = compile_scenario(scenario)
    _check_sample_size(n, compiled.k)
    if not isinstance(seed, (np.random.SeedSequence, np.random.BitGenerator, np.random.Generator)):
        seed = _integer(seed, "seed")
        if seed < 0:
            raise ValidationError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    # Each stage is used up before the next is drawn, so one buffer serves all.
    buffer = np.empty((1, n))
    contexts, cells, rewards = sample_cells(compiled, n, (rng.random(out=buffer) for _ in range(1 + 2 * compiled.k)))
    sizes = np.array([[pos.action_cdf.shape[1]] for pos in compiled.positions])

    def column(block: np.ndarray) -> np.ndarray:
        return _freeze(block[0].T if compiled.ranked else block[0, 0])

    def gathered(table: str) -> np.ndarray:
        return column(_gather([getattr(pos, table) for pos in compiled.positions], cells))

    cls = RankedDataset if compiled.ranked else Dataset
    return cls(
        propensity_logging=gathered("p_log"),
        propensity_target=gathered("p_tgt"),
        rewards=column(rewards.astype(np.float64)),
        weights=gathered("weights"),
        reward_bound=1.0,
        weight_bound=compiled.weight_bound,
        context_ids=_freeze(contexts[0]),
        action_ids=column(np.remainder(cells, sizes, out=cells)),
    )


def sample_logs(
    env: BanditEnv,
    logging_policy: PolicyTable,
    target_policy: PolicyTable,
    n: int,
    seed,
) -> Dataset:
    """Draw ``n`` logged interactions under the logging policy.

    ``seed`` may be a non-negative int, a ``numpy.random.SeedSequence``, a
    ``numpy.random.BitGenerator`` or a ``numpy.random.Generator``; an int or
    a SeedSequence fully determines the dataset.
    The declared bounds are exact: rewards are Bernoulli, and the weight
    bound is the largest reachable probability ratio.
    """
    return _sample(BanditScenario(env, logging_policy, target_policy), n, seed)


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
