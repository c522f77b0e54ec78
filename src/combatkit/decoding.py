"""Streaming token decoding with early truncation.

A policy answers an observation with a stream of whitespace tokens in
action-first serialized form. Truncated decoding stops at the first
truncation sentinel, so the actionable clause is available without
waiting for the explanation; full decoding runs to the end-of-sequence
sentinel. Both modes recover the same action set, and the truncated
emission is always a prefix of the full one.
"""

from __future__ import annotations

import functools
import math
import re
import sys
import time
from enum import Enum
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from .actions import ActionSet, parse_action_text
from .aot import AoTRecord, EOS_TOKEN, TRUNC_TOKEN, read_records
from .errors import ActionParseError, CombatkitError, ConfigError, EmptyDataset

__all__ = [
    "DEFAULT_TOKEN_BUDGET",
    "REFERENCE_LATENCIES",
    "check_pace",
    "TokenStream",
    "DecodeMode",
    "StopReason",
    "DecodeResult",
    "decode",
    "SavingsReport",
    "token_savings_report",
]

DEFAULT_TOKEN_BUDGET = 256

# Published reference latencies echoed in reports for context; never
# asserted against measurements.
REFERENCE_LATENCIES = (
    {"system": "cradle", "latency_s": 61.68, "model_calls": 5},
    {"system": "varp", "latency_s": 90.23, "model_calls": 10},
    {"system": "truncated_reference", "latency_s": 1.85, "model_calls": 1},
)

_BRACKET_RE = re.compile(r"\[([^\[\]]*)\]")


class DecodeMode(Enum):
    TRUNCATED = "truncated"
    FULL = "full"


class StopReason(Enum):
    # Members are singletons compared by identity; Enum.__hash__ runs in Python.
    __hash__ = object.__hash__

    TRUNC = "trunc"
    EOS = "eos"
    BUDGET = "budget"


# The slowest pace, one token in about 17 minutes. Below it a paced wait,
# n / pace seconds, can pass what ``time.sleep`` takes, and a simulated
# latency can overflow to infinity.
_MIN_PACE = 0.001


def check_pace(tokens_per_second: float) -> None:
    """A pace below 0.001 tokens per second or not finite, NaN included, is a
    ``ConfigError`` naming the value."""
    if not _MIN_PACE <= tokens_per_second < math.inf:
        raise ConfigError(
            f"pace must be a positive number of tokens per second, at least {_MIN_PACE}"
            f" and finite, got {tokens_per_second}"
        )


class TokenStream:
    """A token source, optionally paced at a fixed rate.

    Pacing charges one sleep of n/rate for the n tokens the decoder takes
    up to its stop, emulating generation cadence. The sleep function is
    injectable so tests can run paced streams without real delays.
    """

    def __init__(
        self,
        tokens: Iterable[str],
        tokens_per_second: float | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if tokens_per_second is not None:
            check_pace(tokens_per_second)
        self._tokens = iter(tokens)
        self._pace = tokens_per_second
        self._sleep = sleep

    @classmethod
    def from_text(
        cls, text: str, tokens_per_second: float | None = None
    ) -> "TokenStream":
        return cls(text.split(), tokens_per_second)


class DecodeResult(NamedTuple):
    emitted_tokens: tuple[str, ...]
    actions: ActionSet
    stop_reason: StopReason
    wall_ms: float

    @property
    def emitted_count(self) -> int:
        return len(self.emitted_tokens)


# Bound on the clause memo; far above the distinct emissions of the
# shipped policies (a few dozen answers, in two decoding modes).
_EXTRACT_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=_EXTRACT_CACHE_SIZE)
def _extract_actions(emitted: tuple[str, ...], stop_reason: StopReason) -> ActionSet:
    """The first bracketed clause of an emission that parses as an action set.

    Memoized: policies repeat a few answers thousands of times, and the
    result is immutable. A failure is not cached, so an emission without
    a valid clause raises ``ActionParseError`` on every call.
    """
    text = " ".join(emitted)
    for match in _BRACKET_RE.finditer(text):
        try:
            return parse_action_text(match.group(1))
        except CombatkitError:
            continue
    raise ActionParseError(text, stop_reason.value)


def decode(
    stream: TokenStream | Iterable[str],
    mode: DecodeMode = DecodeMode.TRUNCATED,
    budget: int = DEFAULT_TOKEN_BUDGET,
) -> DecodeResult:
    """Consume a token stream and recover the decision's action set.

    Truncated mode stops at the first truncation sentinel (excluded from
    the emission); full mode runs through the end-of-sequence sentinel
    (included). Either mode stops when the token budget is exhausted; a
    stop that leaves no complete bracketed action clause raises
    ``ActionParseError`` rather than guessing.

    The first ``budget`` tokens are taken as one tuple: a slice of a
    ``tuple`` answer (what a policy returns), otherwise at most ``budget``
    tokens of the iterable, or of a ``TokenStream``'s source, so an
    endless stream still ends at the budget. That tuple is cut at the
    stopping sentinel with ``in``, ``tuple.index`` and slicing. A paced
    stream then sleeps once, n/rate, for the n tokens a token-by-token
    reader would have taken (the emission plus a truncation sentinel; no
    call when n is 0), so ``wall_ms`` charges none past the stop.
    """
    if budget <= 0:
        raise ConfigError(f"token budget must be positive, got {budget!r}")
    # full mode has no truncation sentinel; None equals no token
    trunc_token = TRUNC_TOKEN if mode is DecodeMode.TRUNCATED else None
    stop = StopReason.BUDGET
    start = time.perf_counter()
    if isinstance(stream, tuple):
        emitted = stream[:budget]
    else:
        source = stream._tokens if isinstance(stream, TokenStream) else stream
        # islice takes no stop past sys.maxsize, and no stream is that long
        emitted = tuple(islice(source, min(budget, sys.maxsize)))
    # cut at the truncation sentinel first: an end-of-sequence sentinel
    # left in the cut came before it, and so wins
    if trunc_token is not None and trunc_token in emitted:
        emitted = emitted[: emitted.index(trunc_token)]
        stop = StopReason.TRUNC
    if EOS_TOKEN in emitted:
        emitted = emitted[: emitted.index(EOS_TOKEN) + 1]
        stop = StopReason.EOS
    if isinstance(stream, TokenStream) and stream._pace is not None:
        pulled = len(emitted) + (stop is StopReason.TRUNC)
        if pulled:
            stream._sleep(pulled / stream._pace)
    wall_ms = (time.perf_counter() - start) * 1000.0
    # tuple.__new__ skips the named tuple's Python-level constructor
    return tuple.__new__(DecodeResult, (emitted, _extract_actions(emitted, stop), stop, wall_ms))


# ---------------------------------------------------------- token savings

class SavingsReport(NamedTuple):
    records: int
    mean_full_tokens: float
    mean_truncated_tokens: float

    @property
    def ratio(self) -> float:
        return self.mean_truncated_tokens / self.mean_full_tokens

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "ratio": self.ratio}


def token_savings_report(records: Sequence[AoTRecord] | str | Path) -> SavingsReport:
    """Mean whitespace-token counts: full serialization vs. pre-sentinel.

    Records without the sentinel contribute their full length to both
    sides.
    """
    if isinstance(records, (str, Path)):
        records = read_records(records)
    if not records:
        raise EmptyDataset("token savings need at least one record")
    full_total = 0
    trunc_total = 0
    for record in records:
        tokens = record.serialized.split()
        full_total += len(tokens)
        trunc_total += tokens.index(TRUNC_TOKEN) if TRUNC_TOKEN in tokens else len(tokens)
    n = len(records)
    return SavingsReport(n, full_total / n, trunc_total / n)
