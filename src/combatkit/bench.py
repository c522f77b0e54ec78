"""Combat-understanding benchmark: schema, scoring, synthetic generation.

Items test three skills: information gathering (single-frame yes/no),
state comprehension (multi-frame yes/no), and action reasoning
(multi-frame, three options). Scoring normalizes free-text answers to
canonical tokens, reports per-category accuracy on a 0-100 scale, and
macro-averages the three categories with equal weight.

``generate_synthetic`` builds items from arena episode transcripts, so
every gold answer is recomputable from the referenced frames: health
judgments from the 0.5 threshold, state judgments from the telegraph
and stun flags, reasoning golds from the scripted policy's rule table.
"""

from __future__ import annotations

import random
from enum import Enum
from itertools import islice, zip_longest
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .arena import ObservationFrame, PlayerStatus
from .errors import ConfigError, GenerationShortfall, ParseError
from .policies import ScriptedPolicy
from .actions import ActionCategory
from .rows import read_jsonl, read_rows, typed_field, write_jsonl
from .runner import EpisodeTranscript

__all__ = [
    "Category",
    "BenchItem",
    "ValidationReport",
    "BenchReport",
    "CANONICAL_COUNTS",
    "SUBTASK_COUNTS",
    "HEALTH_HIGH_THRESHOLD",
    "validate_dataset",
    "normalize_answer",
    "score",
    "generate_synthetic",
    "write_items",
    "read_items",
    "read_predictions",
    "write_predictions",
]

HEALTH_HIGH_THRESHOLD = 0.5


class Category(Enum):
    GATHERING = "gathering"
    COMPREHENSION = "comprehension"
    REASONING = "reasoning"


# Canonical volume grid; generation defaults and fraction checks use it.
SUBTASK_COUNTS = {
    Category.GATHERING: {"enemy_health": 217, "own_health": 107, "own_abnormal_status": 36},
    Category.COMPREHENSION: {"action_intention": 123, "current_state": 81},
    Category.REASONING: {
        "answer_restore_health": 50,
        "answer_dodge_attack": 150,
        "answer_attack_enemy": 150,
    },
}
CANONICAL_COUNTS = {category: sum(counts.values()) for category, counts in SUBTASK_COUNTS.items()}

_BINARY_CHOICES = ("Yes", "No")
_REASONING_CHOICES = (
    "A. Restore health",
    "B. Dodge the enemy's attack",
    "C. Attack the enemy",
)

_QUESTIONS = {
    "enemy_health": (
        "Is the enemy's health high? Answer with only Yes or No. The best answer is:"
    ),
    "own_health": (
        "Is the game character's health high? Answer with only Yes or No. "
        "The best answer is:"
    ),
    "own_abnormal_status": (
        "Is the game character in an abnormal status (such as burning)? "
        "Answer with only Yes or No. The best answer is:"
    ),
    "action_intention": (
        "Based on the frame sequence, is the enemy about to attack or attacking "
        "right now? Answer with only Yes or No. The best answer is:"
    ),
    "current_state": (
        "Based on the frame sequence, is the enemy currently immobilized? "
        "Answer with only Yes or No. The best answer is:"
    ),
    "reasoning": (
        "Based on the frame sequence, what should the game character do next? "
        "Ensure your health is prioritized while depleting the enemy's health. "
        "A. Restore health. B. Dodge the enemy's attack. C. Attack the enemy. "
        "Respond with only the letter of your choice. The best answer is:"
    ),
}

_GOLD_TO_SUBTASK = {
    "A": "answer_restore_health",
    "B": "answer_dodge_attack",
    "C": "answer_attack_enemy",
}


class BenchItem(NamedTuple):
    item_id: str
    category: Category
    subtask: str
    frame_refs: tuple[str, ...]
    question: str
    choices: tuple[str, ...]
    gold: str

    def to_json_dict(self) -> dict:
        return {
            "id": self.item_id,
            "category": self.category.value,
            "subtask": self.subtask,
            "frame_refs": list(self.frame_refs),
            "question": self.question,
            "choices": list(self.choices),
            "gold": self.gold,
        }


# ------------------------------------------------------------- validation

class ValidationReport(NamedTuple):
    total: int
    counts: dict[str, int]
    fractions: dict[str, float]
    subtask_counts: dict[str, int]
    violations: tuple[str, ...]  # each ``line N: field 'x': reason``

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            **self._asdict(),
            "fractions": {k: round(v, 4) for k, v in self.fractions.items()},
        }


def _violation(field: str, reason: str) -> ValueError:
    return ValueError(f"field {field!r}: {reason}")


def _check_item(obj: dict, line: int, first_lines: dict[str, int]) -> BenchItem:
    """``obj`` as an item; its first violation is raised as a ``ValueError``
    reading ``field 'x': reason``.

    ``first_lines`` maps each id seen to its line. No field is coerced: a
    text field that JSON gave another type is a violation.
    """
    for field in ("id", "category", "subtask", "frame_refs", "question", "choices", "gold"):
        if field not in obj:
            raise _violation(field, "missing")
    for field in ("id", "subtask", "question"):
        if type(obj[field]) is not str:
            raise _violation(field, f"not a string: {obj[field]!r}")
    try:
        category = Category(obj["category"])
    except ValueError:
        raise _violation("category", f"unknown {obj['category']!r}") from None
    if obj["subtask"] not in SUBTASK_COUNTS[category]:
        raise _violation("subtask", f"not a {category.value} subtask: {obj['subtask']!r}")
    refs = obj["frame_refs"]
    if not isinstance(refs, list) or not 1 <= len(refs) <= 4:
        raise _violation("frame_refs", "need 1..4 refs")
    if not all(type(ref) is str for ref in refs):
        raise _violation("frame_refs", f"refs must be strings: {refs!r}")
    if category is Category.GATHERING and len(refs) != 1:
        raise _violation("frame_refs", "gathering judges a single frame")
    if category is not Category.GATHERING and len(refs) < 2:
        raise _violation("frame_refs", f"{category.value} needs 2+ frames")
    choices = obj["choices"]
    if category is Category.REASONING:
        if not isinstance(choices, list) or len(choices) != 3:
            raise _violation("choices", "reasoning needs exactly 3 options")
        if not all(type(choice) is str for choice in choices):
            raise _violation("choices", f"options must be strings: {choices!r}")
        if obj["gold"] not in ("A", "B", "C"):
            raise _violation("gold", "must be A, B, or C")
    else:
        if not isinstance(choices, list) or choices != list(_BINARY_CHOICES):
            raise _violation("choices", "binary items offer Yes/No")
        if obj["gold"] not in _BINARY_CHOICES:
            raise _violation("gold", "must be Yes or No")
    first = first_lines.setdefault(obj["id"], line)
    if first != line:
        raise _violation("id", f"repeats the id of line {first}")
    return BenchItem(
        item_id=obj["id"],
        category=category,
        subtask=obj["subtask"],
        frame_refs=tuple(refs),
        question=obj["question"],
        choices=tuple(choices),
        gold=obj["gold"],
    )


def validate_dataset(path: str | Path) -> ValidationReport:
    """Check schema line by line; always returns counts for the clean rows.

    A line that is not a JSON object raises ``ParseError`` at once.
    """
    counts = {c.value: 0 for c in Category}
    subtask_counts: dict[str, int] = {}
    violations: list[str] = []
    first_lines: dict[str, int] = {}
    total = 0
    for lineno, obj in read_jsonl(path):
        try:
            item = _check_item(obj, lineno, first_lines)
        except ValueError as exc:
            violations.append(f"line {lineno}: {exc}")
            continue
        total += 1
        counts[item.category.value] += 1
        subtask_counts[item.subtask] = subtask_counts.get(item.subtask, 0) + 1
    fractions = {k: (v / total if total else 0.0) for k, v in counts.items()}
    return ValidationReport(
        total=total,
        counts=counts,
        fractions=fractions,
        subtask_counts={k: subtask_counts[k] for k in sorted(subtask_counts)},
        violations=tuple(violations),
    )


# ---------------------------------------------------------------- scoring

def normalize_answer(raw: str, kind: str) -> str | None:
    """Reduce free text to the first canonical token it contains, or ``None``.

    kind is 'binary' (Yes/No) or 'choice' (A/B/C); matching is
    case-insensitive on standalone word tokens.
    """
    if kind == "binary":
        vocab = {"yes": "Yes", "no": "No"}
    elif kind == "choice":
        vocab = {"a": "A", "b": "B", "c": "C"}
    else:
        raise ValueError(f"unknown answer kind {kind!r}")
    token = ""
    for ch in str(raw):
        if ch.isalnum():
            token += ch.lower()
            continue
        if token in vocab:
            return vocab[token]
        token = ""
    if token in vocab:
        return vocab[token]
    return None


class BenchReport(NamedTuple):
    total: int
    per_category_correct: dict[str, int]
    per_category_total: dict[str, int]
    accuracies: dict[str, float]          # 0-100 scale, unrounded
    macro_average: float
    missing_predictions: int
    unparseable_predictions: int

    def to_json_dict(self) -> dict:
        return {
            **self._asdict(),
            "accuracies": {k: round(v, 2) for k, v in self.accuracies.items()},
            "macro_average": round(self.macro_average, 2),
        }


def score(items: Sequence[BenchItem], predictions: Mapping[str, str]) -> BenchReport:
    """Accuracy per category plus their arithmetic mean (macro average).

    Missing or unparseable predictions count as wrong; every category
    contributes equally to the macro average regardless of size.
    """
    correct = {c.value: 0 for c in Category}
    totals = {c.value: 0 for c in Category}
    missing = 0
    unparseable = 0
    for item in items:
        totals[item.category.value] += 1
        raw = predictions.get(item.item_id)
        if raw is None:
            missing += 1
            continue
        kind = "choice" if item.category is Category.REASONING else "binary"
        norm = normalize_answer(raw, kind)
        if norm is None:
            unparseable += 1
            continue
        if norm == item.gold:
            correct[item.category.value] += 1
    accuracies = {
        name: (100.0 * correct[name] / totals[name]) if totals[name] else 0.0
        for name in totals
    }
    macro = sum(accuracies.values()) / len(accuracies)
    return BenchReport(
        total=sum(totals.values()),
        per_category_correct=correct,
        per_category_total=totals,
        accuracies=accuracies,
        macro_average=macro,
        missing_predictions=missing,
        unparseable_predictions=unparseable,
    )


# ------------------------------------------------------------- generation

def _rule_table_gold(frame: ObservationFrame, judge: ScriptedPolicy) -> str:
    lead = judge.decide(frame).events[0].category  # the set's most critical action
    if lead is ActionCategory.HEAL:
        return "A"
    if lead is ActionCategory.DODGE:
        return "B"
    return "C"


# Yes/no subtask -> (frames an item references, whether the last of them
# makes the gold "Yes").
_BINARY_RULES: dict[str, tuple[int, Callable[[ObservationFrame], bool]]] = {
    "enemy_health": (1, lambda f: f.enemy_hp >= HEALTH_HIGH_THRESHOLD),
    "own_health": (1, lambda f: f.player_hp >= HEALTH_HIGH_THRESHOLD),
    "own_abnormal_status": (1, lambda f: f.player_status is not PlayerStatus.NORMAL),
    "action_intention": (3, lambda f: f.enemy_telegraph is not None),
    "current_state": (3, lambda f: f.enemy_stunned_ms > 0),
}
# Reasoning items reference 4 frames; their gold is the rule table's letter.
_REASONING_WINDOW = 4


def _allocate(targets: Mapping[str, int], total: int) -> dict[str, int]:
    """Largest-remainder scaling of canonical subtask volumes to a total."""
    base_total = sum(targets.values())
    quotas = {k: total * v / base_total for k, v in targets.items()}
    alloc = {k: int(q) for k, q in quotas.items()}
    leftover = total - sum(alloc.values())
    for k in sorted(quotas, key=lambda k: quotas[k] - int(quotas[k]), reverse=True):
        if leftover <= 0:
            break
        alloc[k] += 1
        leftover -= 1
    return alloc


def _pick_balanced(
    pools: dict[str, list], want: int, rng: random.Random, subtask: str, category: str
) -> list:
    """Draw `want` items, alternating golds while supplies last."""
    available = sum(len(p) for p in pools.values())
    if available < want:
        raise GenerationShortfall(f"{category}/{subtask}", want, available)
    for pool in pools.values():
        rng.shuffle(pool)
    rounds = zip_longest(*(pools[k] for k in sorted(pools)))
    return list(islice((pick for picks in rounds for pick in picks if pick is not None), want))


def generate_synthetic(
    transcripts: Sequence[EpisodeTranscript],
    target_counts: Mapping[Category, int] | None = None,
    seed: int = 0,
) -> list[BenchItem]:
    """Build a benchmark from episode transcripts, deterministically.

    Subtask volumes follow the canonical grid scaled to the requested
    category totals. A negative total is a ConfigError naming its
    category. Raises GenerationShortfall when the transcripts cannot
    supply a subtask.
    """
    targets = dict(target_counts or CANONICAL_COUNTS)
    for category in Category:
        if targets.get(category, 0) < 0:
            raise ConfigError(
                f"category {category.value}: target count {targets[category]} is negative"
            )
    rng = random.Random(seed)
    judge = ScriptedPolicy()

    # Candidate pools: subtask -> gold -> list of (index of the last
    # referenced frame in ``refs``, gold). An item's refs tuple is sliced
    # only when it is picked; a window never crosses an episode.
    refs: list[str] = []
    pools: dict[str, dict[str, list[tuple[int, str]]]] = {
        name: {} for cat in SUBTASK_COUNTS for name in SUBTASK_COUNTS[cat]
    }
    binary = [(pools[name], window, says_yes) for name, (window, says_yes) in _BINARY_RULES.items()]
    for transcript in transcripts:
        first = len(refs)
        refs.extend(f"{transcript.episode_key}:{i}" for i in range(len(transcript.frames)))
        for i, frame in enumerate(transcript.frames, start=first):
            seen = i - first + 1
            for pool, window, says_yes in binary:
                if seen >= window:
                    gold = "Yes" if says_yes(frame) else "No"
                    pool.setdefault(gold, []).append((i, gold))
            if seen >= _REASONING_WINDOW:
                gold = _rule_table_gold(frame, judge)
                pools[_GOLD_TO_SUBTASK[gold]].setdefault(gold, []).append((i, gold))

    items: list[BenchItem] = []
    seq = 0

    def emit(category: Category, subtask: str, last: int, gold: str) -> None:
        nonlocal seq
        seq += 1
        reasoning = category is Category.REASONING
        window = _REASONING_WINDOW if reasoning else _BINARY_RULES[subtask][0]
        items.append(
            BenchItem(
                item_id=f"{category.value}-{seq:05d}",
                category=category,
                subtask=subtask,
                frame_refs=tuple(refs[last + 1 - window : last + 1]),
                question=_QUESTIONS["reasoning" if reasoning else subtask],
                choices=_REASONING_CHOICES if reasoning else _BINARY_CHOICES,
                gold=gold,
            )
        )

    for category in (Category.GATHERING, Category.COMPREHENSION, Category.REASONING):
        total = int(targets.get(category, 0))
        alloc = _allocate(SUBTASK_COUNTS[category], total)
        for subtask, want in alloc.items():
            for last, gold in _pick_balanced(pools[subtask], want, rng, subtask, category.value):
                emit(category, subtask, last, gold)
    return items


# --------------------------------------------------------------------- IO

def write_items(items: Iterable[BenchItem], path: str | Path) -> Path:
    return write_jsonl(path, (item.to_json_dict() for item in items))


def read_items(path: str | Path) -> list[BenchItem]:
    """Load a benchmark file; its first problem in file order, a violation
    or a line that is not a JSON object, is a ``ParseError``."""
    first_lines: dict[str, int] = {}
    items = []
    for lineno, obj in read_jsonl(path):
        try:
            items.append(_check_item(obj, lineno, first_lines))
        except ValueError as exc:
            raise ParseError(str(Path(path)), lineno, str(exc)) from None
    return items


def write_predictions(predictions: Mapping[str, str], path: str | Path) -> Path:
    return write_jsonl(
        path, ({"id": item_id, "raw_answer": predictions[item_id]} for item_id in predictions)
    )


def read_predictions(path: str | Path) -> dict[str, str]:
    """Each item id's raw answer; a line without both string fields, or with a
    repeated id, is a ``ParseError``."""
    out: dict[str, str] = {}

    def add(row: dict) -> None:
        item_id, answer = typed_field(row, "id", str), typed_field(row, "raw_answer", str)
        if item_id in out:
            raise ValueError(f"repeated id {item_id!r}")
        out[item_id] = answer

    read_rows(path, add)
    return out
