"""Action vocabulary, priority weighting, matching, and action-text grammar.

The toolkit models a fixed ten-action combat vocabulary. Each category is
bound to one input device token (a key or mouse button) and has a fixed
priority rank used both for picking the critical action out of a label and
for choosing the loss weight of a decision. Four categories are tap-only
(instant skills); the rest can be held for a duration.

Action text is a tiny total grammar::

    set    := clause {"," clause}
    clause := ("press" binding) | ("hold" binding "for" number "seconds")

An ``ActionSet`` stores its events in priority order, so
``parse_action_text(render_action(s)) == s`` for every set; text renders
back to itself only when written as ``render_action`` writes it, clauses
in priority order. Durations are integer milliseconds, so round trips
cannot drift. ``parse_action_events`` is memoized: its results are immutable,
and a corpus repeats a few dozen distinct clauses thousands of times.
Errors are not cached, so malformed text raises afresh on every call.
``parse_action_text`` is not: its one library caller, the decoder,
memoizes each emission's result itself. ``render_event`` and each event's
explanation are memoized for the same reason, the explanation keyed by
event and dodge verb.
"""

from __future__ import annotations

import functools
import operator
import re
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    BadDuration,
    DuplicateAction,
    EmptyLabel,
    InvalidActionMode,
    InvalidArity,
    MissingDuration,
    UnknownAction,
)

__all__ = [
    "ActionCategory",
    "ActionMode",
    "ActionEvent",
    "ActionSet",
    "PRIORITY_ORDER",
    "PRIORITY_WEIGHTS",
    "TAP_ONLY",
    "NO_ACTION_TEXT",
    "weight_schedule",
    "priority_match",
    "binding_to_category",
    "parse_action_text",
    "parse_action_events",
    "render_action",
    "render_event",
    "render_explanation",
]


class ActionCategory(Enum):
    """The ten combat actions, valued by their input binding.

    Each member's ``priority_rank`` (0 = most critical) is its index in
    ``PRIORITY_ORDER``, set once below the class.
    """

    # Members are singletons compared by identity; Enum.__hash__ runs in Python.
    __hash__ = object.__hash__

    HEAL = "r"
    IMMOBILIZE = "1"
    DODGE = "space"
    LIGHT_ATTACK = "left mouse button"
    MOVE_RIGHT = "d"
    MOVE_BACK = "s"
    MOVE_LEFT = "a"
    MOVE_FWD = "w"
    SPRINT = "shift"
    HEAVY_ATTACK = "right mouse button"

    @property
    def binding(self) -> str:
        return self.value

    @property
    def tap_only(self) -> bool:
        return self in TAP_ONLY

    @property
    def hold_capable(self) -> bool:
        return self not in TAP_ONLY


# Priority order: most critical first. Declaration order above matches it.
PRIORITY_ORDER: tuple[ActionCategory, ...] = tuple(ActionCategory)
# Each member's rank in that order, as a plain attribute: a dict keyed by
# member would run the Python-level ``Enum.__hash__`` on every lookup.
for _rank, _category in enumerate(PRIORITY_ORDER):
    _category.priority_rank = _rank

TAP_ONLY = frozenset(
    {
        ActionCategory.HEAL,
        ActionCategory.IMMOBILIZE,
        ActionCategory.DODGE,
        ActionCategory.LIGHT_ATTACK,
    }
)

_BINDING_TO_CATEGORY = {cat.binding: cat for cat in ActionCategory}

# Action clause rendered for an empty set; parses back to an empty set.
NO_ACTION_TEXT = "no action"


class ActionMode(Enum):
    # Members are singletons compared by identity; Enum.__hash__ runs in Python.
    __hash__ = object.__hash__

    TAP = "tap"
    HOLD = "hold"


class _ActionEventFields(NamedTuple):
    category: ActionCategory
    mode: ActionMode
    duration_ms: int | None


class ActionEvent(_ActionEventFields):
    """One action occurrence: a tap, or a hold with a duration.

    Durations live in integer milliseconds. Rendered text shows seconds
    with up to three decimals, which the integer representation preserves
    exactly. A named tuple whose constructor checks the fields; ``_make``
    and ``_replace`` build through it.
    """

    __slots__ = ()

    def __new__(
        cls, category: ActionCategory, mode: ActionMode, duration_ms: int | None = None
    ) -> "ActionEvent":
        if mode is ActionMode.TAP:
            if duration_ms is not None:
                raise InvalidActionMode("taps carry no duration")
        else:
            if category.tap_only:
                raise InvalidActionMode(f"{category.name} is tap-only and cannot be held")
            if not isinstance(duration_ms, int) or duration_ms <= 0:
                raise BadDuration(
                    f"hold duration must be a positive integer ms, got {duration_ms!r}"
                )
        return tuple.__new__(cls, (category, mode, duration_ms))

    @classmethod
    def _make(cls, iterable: Iterable) -> "ActionEvent":
        return cls(*iterable)

    @classmethod
    def tap(cls, category: ActionCategory) -> "ActionEvent":
        return cls(category, ActionMode.TAP)

    @classmethod
    def hold(cls, category: ActionCategory, seconds: float) -> "ActionEvent":
        return cls(category, ActionMode.HOLD, int(round(seconds * 1000)))

    @classmethod
    def hold_ms(cls, category: ActionCategory, duration_ms: int) -> "ActionEvent":
        return cls(category, ActionMode.HOLD, duration_ms)


_PRIORITY_RANK = operator.attrgetter("category.priority_rank")


class ActionSet:
    """The actions of one decision cycle. No category appears twice.

    ``events`` is stored in priority order, so ``==`` is set equality.
    Not a tuple, since it iterates its events; its one slot is set by the
    constructor and cannot be set again.
    """

    __slots__ = ("events",)

    def __init__(self, events: tuple[ActionEvent, ...]) -> None:
        seen: set[ActionCategory] = set()
        for ev in events:
            if ev.category in seen:
                raise DuplicateAction(f"{ev.category.name} appears twice in one set")
            seen.add(ev.category)
        object.__setattr__(self, "events", tuple(sorted(events, key=_PRIORITY_RANK)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an ActionSet")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an ActionSet")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.events == other.events
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.events)

    def __repr__(self) -> str:
        return f"ActionSet(events={self.events!r})"

    def __reduce__(self) -> tuple:
        return (self.__class__, (self.events,))

    @classmethod
    def of(cls, *events: ActionEvent) -> "ActionSet":
        return cls(tuple(events))

    def __iter__(self) -> Iterator[ActionEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def categories(self) -> frozenset[ActionCategory]:
        return frozenset(ev.category for ev in self.events)

    def key(self) -> frozenset[tuple[str, str, int | None]]:
        """The set's events as plain values; equal exactly when the sets are ``==``."""
        return frozenset((e.category.name, e.mode.value, e.duration_ms) for e in self.events)


# ------------------------------------------------------------------ weights

def weight_schedule(k: int) -> list[float]:
    """Exponentially decaying rank weights, min-max scaled onto [0.01, 0.1].

    Raw weight of rank i is 2**(k-i-1); the vector is then normalized so
    the top rank gets 0.1 and the bottom rank 0.01. k=1 degenerates to
    [0.1].
    """
    if not isinstance(k, int) or k <= 0:
        raise InvalidArity(f"schedule needs a positive rank count, got {k!r}")
    raw = [2.0 ** (k - i - 1) for i in range(k)]
    lo, hi = raw[-1], raw[0]
    if hi == lo:
        return [0.1]
    return [0.01 + (w - lo) / (hi - lo) * 0.09 for w in raw]


# Loss weight of each priority rank, most critical first.
PRIORITY_WEIGHTS: tuple[float, ...] = tuple(weight_schedule(len(PRIORITY_ORDER)))


def priority_match(
    label: ActionSet | Iterable[ActionEvent],
    output: ActionSet | Iterable[ActionEvent],
) -> tuple[ActionCategory, bool]:
    """Pick the critical labelled action and test the output for it.

    The critical action c* is the label member with the best (lowest)
    priority rank. The output matches iff it contains c* as a category;
    event order, modes, and durations play no part.
    """
    label_events = list(label)
    if not label_events:
        raise EmptyLabel("cannot match against an empty label")
    c_star = min((ev.category for ev in label_events), key=lambda c: c.priority_rank)
    out_categories = {ev.category for ev in output}
    return c_star, c_star in out_categories


# ------------------------------------------------------------------ grammar

def binding_to_category(token: str) -> ActionCategory:
    normalized = " ".join(token.lower().split())
    try:
        return _BINDING_TO_CATEGORY[normalized]
    except KeyError:
        raise UnknownAction(token) from None


_HOLD_RE = re.compile(
    r"^hold\s+(?P<binding>.+?)\s+for\s+(?P<number>\S+)\s+seconds?$", re.IGNORECASE
)
_PRESS_RE = re.compile(r"^press\s+(?P<binding>.+)$", re.IGNORECASE)
_NUMBER_RE = re.compile(r"^[0-9]+(\.[0-9]+)?$")


def _parse_clause(clause: str) -> ActionEvent:
    text = " ".join(clause.split())
    m = _HOLD_RE.match(text)
    if m:
        number = m.group("number")
        if not _NUMBER_RE.match(number):
            raise BadDuration(f"bad hold duration {number!r}")
        duration_ms = int(round(float(number) * 1000))
        if duration_ms <= 0:
            raise BadDuration(f"hold duration must be positive, got {number!r}")
        return ActionEvent(binding_to_category(m.group("binding")), ActionMode.HOLD, duration_ms)
    if text.lower().startswith("hold"):
        raise MissingDuration(f"hold clause without duration: {clause!r}")
    m = _PRESS_RE.match(text)
    if m:
        return ActionEvent.tap(binding_to_category(m.group("binding")))
    raise UnknownAction(clause)


def _strip_brackets(text: str) -> str:
    t = text.strip()
    if t.startswith("[") and t.endswith("]"):
        t = t[1:-1].strip()
    return t


# Bound on the event parser's memo; far above the distinct clauses of a corpus.
_PARSE_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=_PARSE_CACHE_SIZE)
def parse_action_events(text: str) -> tuple[ActionEvent, ...]:
    """Parse an action clause into events, allowing repeated categories.

    Multi-cycle listings (stage-1 windows) can legitimately repeat a
    category, so this lower-level parse skips the uniqueness check that
    ``parse_action_text`` adds.
    """
    t = _strip_brackets(text)
    if not t or " ".join(t.lower().split()) == NO_ACTION_TEXT:
        return ()
    return tuple(_parse_clause(c) for c in t.split(","))


def parse_action_text(text: str) -> ActionSet:
    """Parse one decision cycle's action clause into an ActionSet."""
    return ActionSet(parse_action_events(text))


def _render_duration(duration_ms: int) -> str:
    return f"{duration_ms / 1000:.3f}".rstrip("0").rstrip(".")


# Bound on the event renderer's memo: ten categories times the hold durations
# a corpus uses, which are far fewer.
_RENDER_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=_RENDER_CACHE_SIZE)
def render_event(event: ActionEvent) -> str:
    if event.mode is ActionMode.TAP:
        return f"press {event.category.binding}"
    assert event.duration_ms is not None
    return f"hold {event.category.binding} for {_render_duration(event.duration_ms)} seconds"


def render_action(actions: ActionSet | Sequence[ActionEvent]) -> str:
    events = list(actions)
    if not events:
        return NO_ACTION_TEXT
    return ", ".join([render_event(ev) for ev in events])


# ------------------------------------------------------------- explanations

# One template per category; movement and charge templates take the
# rendered duration in place of "{n}".
_EXPLANATIONS: dict[ActionCategory, str] = {
    ActionCategory.HEAL: (
        "The character's health is low (indicated by the white bar in the bottom "
        "left). The character needs to restore health and should create distance "
        "from enemies before healing."
    ),
    ActionCategory.IMMOBILIZE: (
        "The game character's immobilization skill is currently available. This "
        "skill can briefly freeze the enemy. It should be followed up with quick "
        "consecutive light attacks."
    ),
    ActionCategory.DODGE: (
        "The enemy is about to attack the game character. The game character "
        "needs to {dodge_verb} to avoid enemy attacks and prevent damage."
    ),
    ActionCategory.LIGHT_ATTACK: (
        "The enemy is not currently attacking, so the game character should take "
        "the opportunity to execute a light attack. Consecutive uses (up to 5 "
        "times) can trigger combo moves, but they may be interrupted by enemies."
    ),
    ActionCategory.MOVE_RIGHT: "The game character moves right for {n} seconds.",
    ActionCategory.MOVE_BACK: "The game character moves backward for {n} seconds.",
    ActionCategory.MOVE_LEFT: "The game character moves left for {n} seconds.",
    ActionCategory.MOVE_FWD: "The game character moves forward for {n} seconds.",
    ActionCategory.SPRINT: "The game character sprints for {n} seconds.",
    ActionCategory.HEAVY_ATTACK: (
        "The enemy is not currently attacking, so the game character can charge "
        "heavy attack for {n} seconds. Longer charge time increases damage but "
        "leaves vulnerable to interruption."
    ),
}

_DODGE_VERB_DEFAULT = "dodge(or block in SSDT)"
_DODGE_VERB_BLOCK = "block"


# Bound on the explanation memo, keyed by event and dodge verb: the event
# renderer's bound for each of the two verbs.
_EXPLANATION_CACHE_SIZE = 2 * _RENDER_CACHE_SIZE


@functools.lru_cache(maxsize=_EXPLANATION_CACHE_SIZE)
def _explanation(event: ActionEvent, dodge_verb: str) -> str:
    n = _render_duration(event.duration_ms) if event.duration_ms is not None else ""
    return _EXPLANATIONS[event.category].format(n=n, dodge_verb=dodge_verb)


def _dodge_verb(context: dict | None) -> str:
    if context and str(context.get("game_mode", "")).upper() == "SSDT":
        return _DODGE_VERB_BLOCK
    return _DODGE_VERB_DEFAULT


def render_explanation(
    actions: ActionSet | Sequence[ActionEvent], context: dict | None = None
) -> str:
    """Join per-event explanations in iteration order: priority order for a set.

    An empty set renders as the empty string (callers substitute their own
    no-action text).
    """
    dodge_verb = _dodge_verb(context)
    return " ".join([_explanation(ev, dodge_verb) for ev in actions])
