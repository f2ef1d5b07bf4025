"""Exception types raised across the toolkit.

The hierarchy mirrors how the command line maps failures onto exit codes:
validation problems (bad data, bad files, bad configuration) exit with 2,
estimator preconditions and study-level failures exit with 3, and plain
I/O errors and failures of the worker processes behind ``--jobs`` exit
with 4.
"""

from __future__ import annotations


class OpeKitError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(OpeKitError, ValueError):
    """Invalid input data, file contents, or configuration."""


class EmptyDataset(ValidationError):
    def __init__(self, message: str = "dataset must contain at least one entry") -> None:
        super().__init__(message)


class NonPositiveLoggingPropensity(ValidationError):
    """A logging propensity of zero or less breaks the overlap requirement."""

    def __init__(self, index: int, value: float, line: int | None = None) -> None:
        self.index = index
        self.value = value
        self.line = line
        where = f"line {line}" if line is not None else f"entry {index}"
        super().__init__(f"logging propensity must be positive, got {value} at {where}")


class BoundViolation(ValidationError):
    """A value falls outside the declared bounds for its quantity."""

    def __init__(
        self,
        quantity: str,
        index: int,
        value: float,
        bound: float,
        position: int | None = None,
        line: int | None = None,
    ) -> None:
        self.quantity = quantity
        self.index = index
        self.value = value
        self.bound = bound
        self.position = position
        self.line = line
        where = f"line {line}" if line is not None else f"entry {index}"
        if position is not None:
            where += f", position {position + 1}"
        super().__init__(
            f"{quantity} value {value} exceeds the declared bound {bound} at {where}"
        )


class NonFiniteValue(ValidationError):
    """NaN or infinity where a finite number is required."""

    def __init__(
        self, quantity: str, index: int, position: int | None = None, line: int | None = None
    ) -> None:
        self.quantity = quantity
        self.index = index
        self.position = position
        self.line = line
        where = f"line {line}" if line is not None else f"entry {index}"
        if position is not None:
            where += f", position {position + 1}"
        super().__init__(f"{quantity} is not finite at {where}")


class LengthMismatch(ValidationError):
    """Parallel columns or ranking lengths disagree."""


class DimensionMismatch(ValidationError):
    """An array has the wrong shape for the requested operation."""


class MissingBounds(ValidationError):
    def __init__(self) -> None:
        super().__init__(
            "reward and weight bounds are required; supply them as flags or in the "
            "file's _meta header"
        )


class ParseError(ValidationError):
    """A log file line could not be parsed."""

    def __init__(self, line: int, message: str) -> None:
        self.line = line
        super().__init__(f"line {line}: {message}")


class UnknownPreset(ValidationError):
    def __init__(self, name: str, known: tuple[str, ...]) -> None:
        self.name = name
        super().__init__(f"unknown preset {name!r}; available: {', '.join(known)}")


class UnknownEstimator(ValidationError):
    """An estimator spec string does not name a supported estimator."""


class VRequiredForGap(ValidationError):
    def __init__(self) -> None:
        super().__init__("variance gap diagnostics require --true-value")


class SupportViolation(ValidationError):
    """The target policy puts mass where the logging policy has none."""

    def __init__(self, pairs: list[tuple[int, int]], position: int | None = None) -> None:
        self.pairs = pairs
        self.position = position
        shown = ", ".join(f"(context {x}, action {a})" for x, a in pairs[:5])
        prefix = f"position {position + 1}: " if position is not None else ""
        super().__init__(
            f"{prefix}target policy has positive probability where the logging "
            f"policy has zero: {shown}"
        )


class TooFewReplicates(ValidationError):
    def __init__(self, got: int, need: int = 2) -> None:
        super().__init__(f"need at least {need} replicates, got {got}")


class EstimationError(OpeKitError):
    """The data violates a precondition of the requested estimator."""


class ZeroWeightSum(EstimationError):
    """Self-normalisation is undefined when the weights sum to zero."""

    def __init__(self, position: int | None = None) -> None:
        self.position = position
        suffix = f" at position {position + 1}" if position is not None else ""
        super().__init__(f"importance weights sum to zero{suffix}")


class DegenerateWeights(EstimationError):
    """A data-driven baseline is undefined when the weights have no variance."""

    def __init__(self, detail: str | None = None, positions: tuple[int, ...] = ()) -> None:
        self.positions = positions
        msg = "importance weights have zero variance"
        if positions:
            msg += " at positions " + ", ".join(str(j + 1) for j in positions)
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class FoldTooSmall(EstimationError):
    def __init__(self, n: int, folds_k: int) -> None:
        super().__init__(
            f"cannot split {n} entries into {folds_k} folds of at least 2 entries each"
        )


class DegenerateX(EstimationError):
    """A log-log fit needs at least two distinct positive abscissae."""

    def __init__(self, message: str) -> None:
        super().__init__(message)


class NonPositiveMean(EstimationError):
    """A log-log rate fit ran out of cells with positive means."""

    def __init__(self, kept: int) -> None:
        super().__init__(
            f"only {kept} grid cells have a positive mean; at least 2 are needed "
            "for a log-log rate fit"
        )


class StudyError(OpeKitError):
    """A Monte Carlo study cannot deliver its verdict."""


class PreconditionNotMet(StudyError):
    """The scenario does not satisfy the assumptions the study tests."""


class ExcessiveFailureRate(StudyError):
    def __init__(self, metric: str, n: int, failed: int, total: int) -> None:
        self.metric = metric
        self.n = n
        self.failed = failed
        self.total = total
        super().__init__(
            f"{metric} failed on {failed}/{total} replicates at n={n} "
            f"(more than 1% invalidates the study)"
        )


class WorkerFailure(OpeKitError):
    """The worker processes of a parallel study failed or could not receive the work."""
