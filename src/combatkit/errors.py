"""Exception and warning types shared across the toolkit."""

from __future__ import annotations


class CombatkitError(Exception):
    """Base class for all toolkit errors."""


# ---------------------------------------------------------------- actions

class InvalidArity(CombatkitError):
    """Weight schedule requested for a non-positive number of ranks."""


class EmptyLabel(CombatkitError):
    """Priority matching needs at least one labelled action."""


class UnknownAction(CombatkitError):
    """Action text names a binding outside the vocabulary."""

    def __init__(self, token: str):
        super().__init__(f"unknown action binding: {token!r}")
        self.token = token


class MissingDuration(CombatkitError):
    """A hold clause left out its duration."""


class BadDuration(CombatkitError):
    """A hold duration was zero, negative, or not a number."""


class InvalidActionMode(CombatkitError):
    """Tap/hold mode is incompatible with the action category."""


class DuplicateAction(CombatkitError):
    """An action set carried the same category twice."""


# ---------------------------------------------------------------- tracker

class DanglingPress(CombatkitError):
    """A down edge never saw its matching up edge."""


class OrphanRelease(CombatkitError):
    """An up edge arrived for a binding that was not held."""


class NoFrames(CombatkitError):
    """Alignment needs a non-empty frame list."""


class ParseError(CombatkitError):
    """An input file, or one of its rows, could not be read."""

    def __init__(self, path: str, line: int, reason: str):
        super().__init__(f"{path}:{line}: {reason}")
        self.path = path
        self.line = line
        self.reason = reason


class OrderingViolation(CombatkitError):
    """Timestamps or indices are out of order."""


class UnencodableMeta(CombatkitError):
    """A session's ``epoch_ms`` is no integer or dates a written time outside years 1-9999."""


# ---------------------------------------------------------------- loss

class DegenerateEmbedding(CombatkitError):
    """An embedding vector has zero norm."""


class NumericFailure(CombatkitError):
    """A numeric check produced a non-finite value."""


class ClampedProbability(UserWarning):
    """A zero probability was clamped before taking its log."""


# ---------------------------------------------------------------- decoder

class ActionParseError(CombatkitError):
    """No complete action clause could be recovered from emitted tokens."""

    def __init__(self, raw_text: str, stop_reason: str | None = None):
        detail = f" (stop={stop_reason})" if stop_reason else ""
        super().__init__(f"no parseable action clause in {raw_text!r}{detail}")
        self.raw_text = raw_text
        self.stop_reason = stop_reason


class ReplayExhausted(CombatkitError):
    """A replay policy ran past the end of its dataset."""


class EmptyDataset(CombatkitError):
    """An operation needs at least one record."""


# ---------------------------------------------------------------- arena

class ObservationSchemaError(CombatkitError):
    """A policy was asked to answer no frames."""


class InsufficientHistory(CombatkitError):
    """The frame buffer does not yet hold enough frames to sample."""


# ------------------------------------------------------------------- cli

class ConfigError(CombatkitError):
    """A config file or setting is malformed, out of range, or unknown."""


class MissingDependency(CombatkitError):
    """A command needs a package that is not installed, such as numpy for ``loss check``."""


class ValidationError(CombatkitError):
    """A check the verb ran found failures."""


# ---------------------------------------------------------------- bench

class GenerationShortfall(CombatkitError):
    """Transcripts lack enough material to meet a target count."""

    def __init__(self, category: str, wanted: int, available: int):
        super().__init__(
            f"category {category}: wanted {wanted} items, only {available} candidates"
        )
        self.category = category
        self.wanted = wanted
        self.available = available

