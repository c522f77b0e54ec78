"""Action vocabulary, weights, matching, and the action-text grammar."""

import copy
import json
import math
import pickle
import random
from pathlib import Path

import pytest

from combatkit.actions import (
    NO_ACTION_TEXT,
    PRIORITY_ORDER,
    PRIORITY_WEIGHTS,
    TAP_ONLY,
    ActionCategory,
    ActionEvent,
    ActionMode,
    ActionSet,
    binding_to_category,
    parse_action_events,
    parse_action_text,
    priority_match,
    render_action,
    render_event,
    render_explanation,
    weight_schedule,
)
from combatkit.aot import (
    StageConfig,
    align_session,
    build_frames_aot,
    build_video_aot,
    bundled_stage3_path,
    to_truncated_form,
)
from combatkit.errors import (
    BadDuration,
    DuplicateAction,
    EmptyLabel,
    InvalidActionMode,
    InvalidArity,
    MissingDuration,
    UnknownAction,
)
from combatkit.tracker import import_session

# Frozen reference weights for the full ten-rank schedule, four decimals.
REFERENCE_WEIGHTS_10 = [
    0.1000,
    0.0549,
    0.0324,
    0.0211,
    0.0155,
    0.0126,
    0.0112,
    0.0105,
    0.0102,
    0.0100,
]

EXPECTED_ORDER = [
    ("HEAL", "r"),
    ("IMMOBILIZE", "1"),
    ("DODGE", "space"),
    ("LIGHT_ATTACK", "left mouse button"),
    ("MOVE_RIGHT", "d"),
    ("MOVE_BACK", "s"),
    ("MOVE_LEFT", "a"),
    ("MOVE_FWD", "w"),
    ("SPRINT", "shift"),
    ("HEAVY_ATTACK", "right mouse button"),
]


def test_priority_order_and_bindings():
    assert [(c.name, c.binding) for c in PRIORITY_ORDER] == EXPECTED_ORDER
    for i, cat in enumerate(PRIORITY_ORDER):
        assert cat.priority_rank == i


def test_tap_only_split():
    tap = {c for c in ActionCategory if c.tap_only}
    assert tap == set(TAP_ONLY)
    assert tap == {
        ActionCategory.HEAL,
        ActionCategory.IMMOBILIZE,
        ActionCategory.DODGE,
        ActionCategory.LIGHT_ATTACK,
    }
    for cat in ActionCategory:
        assert cat.hold_capable == (not cat.tap_only)


def test_weight_schedule_ten_matches_reference():
    got = weight_schedule(10)
    assert len(got) == 10
    for g, ref in zip(got, REFERENCE_WEIGHTS_10):
        assert abs(g - ref) < 5e-5


def test_weight_schedule_three_exact():
    # raw [4, 2, 1] min-max scaled onto [0.01, 0.1]
    got = weight_schedule(3)
    assert got == pytest.approx([0.1, 0.04, 0.01], abs=1e-12)


def test_weight_schedule_properties():
    for k in range(2, 40):
        w = weight_schedule(k)
        assert len(w) == k
        assert math.isclose(w[0], 0.1, abs_tol=1e-12)
        assert math.isclose(w[-1], 0.01, abs_tol=1e-12)
        assert all(a > b for a, b in zip(w, w[1:]))
        assert all(0.01 - 1e-12 <= x <= 0.1 + 1e-12 for x in w)


def test_weight_schedule_degenerate_and_invalid():
    assert weight_schedule(1) == [0.1]
    for bad in (0, -3):
        with pytest.raises(InvalidArity):
            weight_schedule(bad)
    with pytest.raises(InvalidArity):
        weight_schedule(2.0)  # type: ignore[arg-type]


def test_priority_weights_consistency():
    assert list(PRIORITY_WEIGHTS) == weight_schedule(len(PRIORITY_ORDER))
    assert PRIORITY_WEIGHTS[ActionCategory.HEAL.priority_rank] == pytest.approx(0.1)
    assert PRIORITY_WEIGHTS[ActionCategory.HEAVY_ATTACK.priority_rank] == pytest.approx(0.01)
    assert ActionCategory.DODGE.priority_rank == 2


def test_action_event_validation():
    with pytest.raises(InvalidActionMode):
        ActionEvent(ActionCategory.MOVE_FWD, ActionMode.TAP, 100)
    with pytest.raises(InvalidActionMode):
        ActionEvent.hold(ActionCategory.HEAL, 1.0)  # tap-only held
    with pytest.raises(BadDuration):
        ActionEvent(ActionCategory.MOVE_FWD, ActionMode.HOLD, 0)
    with pytest.raises(BadDuration):
        ActionEvent(ActionCategory.MOVE_FWD, ActionMode.HOLD, None)
    ev = ActionEvent.hold(ActionCategory.SPRINT, 0.5)
    assert ev.duration_ms == 500


def test_action_set_rejects_duplicates():
    with pytest.raises(DuplicateAction):
        ActionSet.of(
            ActionEvent.tap(ActionCategory.DODGE),
            ActionEvent.tap(ActionCategory.DODGE),
        )


def test_action_set_priority_order_and_key():
    s = ActionSet.of(
        ActionEvent.hold(ActionCategory.MOVE_FWD, 1.0),
        ActionEvent.tap(ActionCategory.HEAL),
    )
    assert [e.category for e in s] == [
        ActionCategory.HEAL,
        ActionCategory.MOVE_FWD,
    ]
    # key() agrees with ==, which ignores the order a set was built in
    reordered = ActionSet.of(*reversed(s.events))
    assert s.key() == reordered.key()
    assert s == reordered


def test_priority_match_picks_highest_rank():
    label = ActionSet.of(
        ActionEvent.hold(ActionCategory.MOVE_BACK, 1.0),
        ActionEvent.tap(ActionCategory.HEAL),
    )
    out_hit = ActionSet.of(ActionEvent.tap(ActionCategory.HEAL))
    out_miss = ActionSet.of(ActionEvent.hold(ActionCategory.MOVE_BACK, 1.0))
    c_star, matched = priority_match(label, out_hit)
    assert c_star is ActionCategory.HEAL and matched
    c_star, matched = priority_match(label, out_miss)
    assert c_star is ActionCategory.HEAL and not matched


def test_priority_match_ignores_mode_and_duration():
    label = ActionSet.of(ActionEvent.hold(ActionCategory.SPRINT, 2.0))
    out = ActionSet.of(ActionEvent.hold(ActionCategory.SPRINT, 0.25))
    _, matched = priority_match(label, out)
    assert matched


def test_priority_match_empty_label():
    with pytest.raises(EmptyLabel):
        priority_match(ActionSet.of(), ActionSet.of(ActionEvent.tap(ActionCategory.DODGE)))


def _random_event(rng, category):
    if category.tap_only or rng.random() < 0.5:
        return ActionEvent.tap(category)
    return ActionEvent.hold_ms(category, rng.randrange(25, 3000))


def test_priority_match_property_loop():
    # Brute-force oracle: scan PRIORITY_ORDER and take the first label member.
    rng = random.Random(20260819)
    cats = list(ActionCategory)
    for _ in range(500):
        label_cats = rng.sample(cats, rng.randrange(1, 6))
        out_cats = rng.sample(cats, rng.randrange(0, 6))
        label = ActionSet(tuple(_random_event(rng, c) for c in label_cats))
        out = ActionSet(tuple(_random_event(rng, c) for c in out_cats))
        expected = next(c for c in PRIORITY_ORDER if c in set(label_cats))
        c_star, matched = priority_match(label, out)
        assert c_star is expected
        assert matched == (expected in set(out_cats))


def test_binding_lookup():
    assert binding_to_category("space") is ActionCategory.DODGE
    assert binding_to_category("  LEFT   MOUSE  BUTTON ") is ActionCategory.LIGHT_ATTACK
    with pytest.raises(UnknownAction):
        binding_to_category("q")


def test_render_durations():
    cases = {2000: "2", 500: "0.5", 1234: "1.234", 250: "0.25", 1000: "1", 1100: "1.1"}
    for ms, text in cases.items():
        ev = ActionEvent.hold_ms(ActionCategory.MOVE_FWD, ms)
        assert render_event(ev) == f"hold w for {text} seconds"


def test_render_and_parse_round_trip():
    rng = random.Random(7)
    cats = list(ActionCategory)
    for _ in range(300):
        chosen = rng.sample(cats, rng.randrange(0, 5))
        events = tuple(_random_event(rng, c) for c in chosen)
        text = render_action(events)
        back = parse_action_text(text)
        assert back.key() == ActionSet(events).key()


def test_parse_action_text_forms():
    s = parse_action_text("[press r, hold w for 0.5 seconds]")
    assert s.key() == {("HEAL", "tap", None), ("MOVE_FWD", "hold", 500)}
    assert parse_action_text("no action") == ActionSet(())
    assert parse_action_text("") == ActionSet(())
    assert parse_action_text("[no action]") == ActionSet(())
    assert render_action(ActionSet(())) == NO_ACTION_TEXT
    # singular "second" accepted
    s = parse_action_text("hold shift for 1 second")
    assert s.key() == {("SPRINT", "hold", 1000)}


def test_parse_events_allows_repeats():
    events = parse_action_events("press space, press space")
    assert len(events) == 2
    with pytest.raises(DuplicateAction):
        parse_action_text("press space, press space")


def test_parse_errors():
    with pytest.raises(UnknownAction):
        parse_action_text("press q")
    with pytest.raises(MissingDuration):
        parse_action_text("hold w")
    with pytest.raises(BadDuration):
        parse_action_text("hold w for zero seconds")
    with pytest.raises(BadDuration):
        parse_action_text("hold w for 0 seconds")
    with pytest.raises(UnknownAction):
        parse_action_text("wiggle the mouse")


def test_explanations_fill_templates():
    ev = ActionEvent.hold(ActionCategory.MOVE_FWD, 2.0)
    assert render_explanation([ev]) == "The game character moves forward for 2 seconds."
    ev = ActionEvent.hold_ms(ActionCategory.SPRINT, 500)
    assert "sprints for 0.5 seconds" in render_explanation([ev])
    heavy = ActionEvent.hold(ActionCategory.HEAVY_ATTACK, 1.0)
    text = render_explanation([heavy])
    assert "charge heavy attack for 1 seconds" in text
    assert "vulnerable to interruption" in text


def test_dodge_explanation_verb_depends_on_mode():
    ev = ActionEvent.tap(ActionCategory.DODGE)
    assert "dodge(or block in SSDT)" in render_explanation([ev])
    assert "dodge(or block in SSDT)" in render_explanation([ev], {"game_mode": "BMW"})
    ssdt = render_explanation([ev], {"game_mode": "SSDT"})
    assert "needs to block to avoid" in ssdt
    assert "dodge(or block" not in ssdt


def test_heal_and_light_explanations_verbatim_details():
    heal = render_explanation([ActionEvent.tap(ActionCategory.HEAL)])
    assert "white bar in the bottom left" in heal
    light = render_explanation([ActionEvent.tap(ActionCategory.LIGHT_ATTACK)])
    assert "Consecutive uses (up to 5 times)" in light


def test_render_explanation_priority_ordered():
    s = ActionSet.of(
        ActionEvent.hold(ActionCategory.MOVE_BACK, 1.0),
        ActionEvent.tap(ActionCategory.HEAL),
    )
    text = render_explanation(s)
    heal_pos = text.index("restore health")
    move_pos = text.index("moves backward")
    assert heal_pos < move_pos
    assert render_explanation(ActionSet(())) == ""


def _corpus_action_texts() -> list[str]:
    """Every action clause of the bundled stage-3 file and the golden
    session's stage-1/2/3 build (short windows: it holds only 8 frames)."""
    texts = [
        json.loads(line)["action_text"]
        for line in bundled_stage3_path().read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    golden = Path(__file__).parent / "data" / "golden_session"
    cfg = StageConfig(n=4, k_frames=1)
    aligned = align_session(import_session(golden))
    stage2 = build_frames_aot(aligned, cfg).records
    built = [*build_video_aot(aligned, cfg), *stage2, *(to_truncated_form(r) for r in stage2)]
    texts.extend(r.action_text for r in built)
    return texts


def test_memoized_parse_equals_uncached_parse():
    texts = _corpus_action_texts()
    assert len(texts) == 84 + 2 + 2 * 2
    for text in texts:
        expected = parse_action_events.__wrapped__(text)
        assert parse_action_events(text) == expected
        assert parse_action_events(text) == expected
        assert parse_action_text(text) == ActionSet(expected)
        assert parse_action_text(text) == parse_action_text(text)


def test_parse_caches_are_bounded():
    assert parse_action_events.cache_info().maxsize is not None


def test_parse_errors_are_not_cached():
    cases = [
        ("press banana", UnknownAction),
        ("hold w", MissingDuration),
        ("hold w for 0 seconds", BadDuration),
        ("press space, press space", DuplicateAction),
    ]
    for text, error in cases:
        messages = []
        for _ in range(2):
            with pytest.raises(error) as err:
                parse_action_text(text)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
    for _ in range(2):
        with pytest.raises(UnknownAction, match="banana"):
            parse_action_events("press banana")


def test_construction_sorts_by_priority():
    s = ActionSet.of(
        ActionEvent.tap(ActionCategory.DODGE), ActionEvent.hold(ActionCategory.SPRINT, 0.5)
    )
    reversed_set = ActionSet.of(*reversed(s.events))
    assert reversed_set == s
    assert reversed_set.events == s.events
    assert hash(reversed_set) == hash(s)
    assert ActionSet(()).events == ()


def test_action_records_cannot_be_built_around_their_checks():
    ev = ActionEvent.hold(ActionCategory.SPRINT, 0.5)
    s = ActionSet.of(ev, ActionEvent.tap(ActionCategory.DODGE))
    for record, name in ((ev, "duration_ms"), (ev, "extra"), (s, "events"), (s, "extra")):
        with pytest.raises(AttributeError):
            setattr(record, name, ())
    with pytest.raises(AttributeError):
        del s.events
    # _replace and _make build through the constructor and its check
    with pytest.raises(BadDuration):
        ev._replace(duration_ms=0)
    with pytest.raises(InvalidActionMode):
        ev._replace(category=ActionCategory.HEAL)
    with pytest.raises(InvalidActionMode):
        ActionEvent._make((ActionCategory.MOVE_FWD, ActionMode.TAP, 100))
    assert ev._replace(duration_ms=250) == ActionEvent.hold(ActionCategory.SPRINT, 0.25)
    assert ActionEvent._make(ev) == ev
    # copies are equal, and a set's copy keeps its priority order
    for record in (ev, s):
        assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))
    assert copy.deepcopy(s).events == s.events
    assert repr(s) == f"ActionSet(events={s.events!r})"
