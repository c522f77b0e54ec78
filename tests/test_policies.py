"""Scripted rule table, replay source, and the random baseline."""

import random

import pytest

from combatkit import policies
from combatkit.actions import (
    ActionCategory,
    ActionEvent,
    ActionMode,
    ActionSet,
    parse_action_text,
    render_action,
    render_explanation,
)
from combatkit.aot import TRUNC_TOKEN, serialize_stage3
from combatkit.arena import ObservationFrame, PlayerStatus, Telegraph
from combatkit.decoding import DecodeMode, decode
from combatkit.errors import ObservationSchemaError, ReplayExhausted
from combatkit.policies import Policy, RandomPolicy, ReplayPolicy, ScriptedPolicy


_BASE_FRAME = ObservationFrame(
    t_ms=0,
    player_hp=1.0,
    enemy_hp=1.0,
    player_pos=(0.0, 0.0),
    enemy_pos=(10.0, 0.0),
    enemy_telegraph=None,
    player_status=PlayerStatus.NORMAL,
    heal_charges=3,
    immobilize_ready=False,
    enemy_stunned_ms=0,
)


def _obs(**overrides):
    return _BASE_FRAME._replace(**overrides)


def _cats(actions):
    return {ev.category for ev in actions}


def test_heal_rule_takes_priority():
    p = ScriptedPolicy()
    obs = _obs(
        player_hp=0.2,
        enemy_telegraph=Telegraph("slash", 100),  # even with a strike incoming
        enemy_pos=(1.0, 0.0),
    )
    actions = p.decide(obs)
    assert _cats(actions) == {ActionCategory.HEAL, ActionCategory.MOVE_BACK}
    # no charges left: fall through to the dodge rule
    actions = p.decide(
        _obs(player_hp=0.2, heal_charges=0, enemy_telegraph=Telegraph("slash", 100))
    )
    assert _cats(actions) == {ActionCategory.DODGE}


def test_dodge_rule_window():
    p = ScriptedPolicy()
    for remaining in (0, 1, 399, 400):
        obs = _obs(enemy_telegraph=Telegraph("slash", remaining), enemy_pos=(1.0, 0.0))
        actions = p.decide(obs)
        assert _cats(actions) == {ActionCategory.DODGE}, remaining
    # winding up beyond the window: keep attacking, stay mobile
    actions = p.decide(_obs(enemy_telegraph=Telegraph("slash", 401), enemy_pos=(1.0, 0.0)))
    assert _cats(actions) == {ActionCategory.LIGHT_ATTACK}
    actions = p.decide(_obs(enemy_telegraph=Telegraph("slash", 900), enemy_pos=(5.0, 0.0)))
    assert _cats(actions) == {ActionCategory.MOVE_FWD}
    assert actions.events[0].duration_ms == 250


def test_immobilize_combo_requires_range_and_readiness():
    p = ScriptedPolicy()
    actions = p.decide(_obs(immobilize_ready=True, enemy_pos=(2.0, 0.0)))
    assert _cats(actions) == {ActionCategory.IMMOBILIZE, ActionCategory.LIGHT_ATTACK}
    # out of range: close in instead
    actions = p.decide(_obs(immobilize_ready=True, enemy_pos=(3.0, 0.0)))
    assert _cats(actions) == {ActionCategory.MOVE_FWD}
    # already stunned: don't waste the skill
    actions = p.decide(_obs(immobilize_ready=True, enemy_pos=(2.0, 0.0), enemy_stunned_ms=1000))
    assert _cats(actions) == {ActionCategory.HEAVY_ATTACK}


def test_movement_tiers():
    p = ScriptedPolicy()
    far = p.decide(_obs(enemy_pos=(8.0, 0.0)))
    assert _cats(far) == {ActionCategory.MOVE_FWD, ActionCategory.SPRINT}
    assert {ev.duration_ms for ev in far} == {400}
    near = p.decide(_obs(enemy_pos=(4.0, 0.0)))
    assert _cats(near) == {ActionCategory.MOVE_FWD}
    assert near.events[0].duration_ms == 250
    # boundary: sprint only beyond 6.0
    edge = p.decide(_obs(enemy_pos=(6.0, 0.0)))
    assert _cats(edge) == {ActionCategory.MOVE_FWD}


def test_attack_rules_in_range():
    p = ScriptedPolicy()
    assert _cats(p.decide(_obs(enemy_pos=(2.2, 0.0)))) == {ActionCategory.LIGHT_ATTACK}
    heavy = p.decide(_obs(enemy_pos=(1.0, 0.0), enemy_stunned_ms=2000))
    assert _cats(heavy) == {ActionCategory.HEAVY_ATTACK}
    assert heavy.events[0].duration_ms == 1000


def test_observe_serializes_decision_round_trip():
    p = ScriptedPolicy(game_mode="BMW")
    stream = p.observe([_obs(enemy_telegraph=Telegraph("slash", 200), enemy_pos=(1.0, 0.0))])
    res = decode(stream, DecodeMode.TRUNCATED)
    assert res.actions.categories() == {ActionCategory.DODGE}
    assert p.call_count == 1
    with pytest.raises(ObservationSchemaError):
        p.observe([])
    assert p.call_count == 1  # failed call not counted


def test_observe_full_stream_carries_mode_specific_explanation():
    ssdt = ScriptedPolicy(game_mode="SSDT")
    tokens = ssdt.observe([_obs(enemy_telegraph=Telegraph("slash", 100), enemy_pos=(1.0, 0.0))])
    assert isinstance(tokens, tuple)
    text = " ".join(tokens)
    assert "needs to block to avoid" in text
    assert TRUNC_TOKEN in tokens


def test_replay_policy_plays_records_in_order():
    from combatkit.aot import AoTRecord, QUESTION_TEXT

    records = [
        AoTRecord(3, (1,), QUESTION_TEXT, "press r", ""),
        AoTRecord(3, (2,), QUESTION_TEXT, "press space", ""),
    ]
    p = ReplayPolicy(records)
    first = decode(p.observe([_obs()]), DecodeMode.TRUNCATED)
    second = decode(p.observe([_obs()]), DecodeMode.TRUNCATED)
    assert first.actions.categories() == {ActionCategory.HEAL}
    assert second.actions.categories() == {ActionCategory.DODGE}
    with pytest.raises(ReplayExhausted):
        list(p.observe([_obs()]))
    with pytest.raises(ReplayExhausted):
        ReplayPolicy([])


def test_random_policy_deterministic_per_seed():
    a = [tuple(RandomPolicy(seed=7).observe([_obs()])) for _ in range(1)][0]
    b = tuple(RandomPolicy(seed=7).observe([_obs()]))
    assert a == b
    seq_a = [tuple(p.observe([_obs()])) for p in [RandomPolicy(seed=7)] for _ in range(5)]
    seq_b = [tuple(p.observe([_obs()])) for p in [RandomPolicy(seed=7)] for _ in range(5)]
    assert seq_a == seq_b
    c = tuple(RandomPolicy(seed=8).observe([_obs()]))
    assert a != c


def test_random_answers_match_events_built_from_the_same_draws():
    # the answer table stands in for building the event per draw: a
    # category, then a hold duration for a hold-capable one
    categories, hold_choices = tuple(ActionCategory), (0.25, 0.5, 1.0)
    for seed in (0, 1, 7, 2024):
        policy, rng = RandomPolicy(seed=seed), random.Random(seed)
        for _ in range(500):
            category = rng.choice(categories)
            if category.hold_capable:
                event = ActionEvent.hold(category, rng.choice(hold_choices))
            else:
                event = ActionEvent.tap(category)
            expected = policies._serialize(ActionSet.of(event), None)
            assert policy.observe([_obs()]) == expected
        assert policy._rng.getstate() == rng.getstate()


def test_random_policy_emits_one_valid_action():
    p = RandomPolicy(seed=3)
    for _ in range(50):
        res = decode(p.observe([_obs()]), DecodeMode.TRUNCATED)
        assert len(res.actions) == 1
        ev = res.actions.events[0]
        if ev.category.tap_only:
            assert ev.mode is ActionMode.TAP
        else:
            assert ev.duration_ms in (250, 500, 1000)


def test_base_policy_is_abstract():
    with pytest.raises(NotImplementedError):
        Policy()._tokens([_obs()])


def test_serialized_action_clause_parses_back():
    p = ScriptedPolicy()
    stream = p.observe([_obs(player_hp=0.1, enemy_pos=(1.0, 0.0))])
    text = " ".join(stream)
    head = text.split(TRUNC_TOKEN)[0].strip()
    actions = parse_action_text(head)
    # priority order in the clause: heal before the retreat hold
    assert [ev.category for ev in actions] == [ActionCategory.HEAL, ActionCategory.MOVE_BACK]


def test_decide_answers_each_rule_with_one_shared_set():
    p = ScriptedPolicy()
    tap, hold = ActionEvent.tap, ActionEvent.hold
    cases = [
        (
            _obs(player_hp=0.1),
            ActionSet.of(tap(ActionCategory.HEAL), hold(ActionCategory.MOVE_BACK, 1.0)),
        ),
        (_obs(enemy_telegraph=Telegraph("slash", 100)), ActionSet.of(tap(ActionCategory.DODGE))),
        (
            _obs(immobilize_ready=True, enemy_pos=(2.0, 0.0)),
            ActionSet.of(tap(ActionCategory.IMMOBILIZE), tap(ActionCategory.LIGHT_ATTACK)),
        ),
        (_obs(enemy_pos=(1.0, 0.0)), ActionSet.of(tap(ActionCategory.LIGHT_ATTACK))),
        (_obs(enemy_pos=(5.0, 0.0)), ActionSet.of(hold(ActionCategory.MOVE_FWD, 0.25))),
        (
            _obs(enemy_pos=(10.0, 0.0)),
            ActionSet.of(hold(ActionCategory.MOVE_FWD, 0.4), hold(ActionCategory.SPRINT, 0.4)),
        ),
        (
            _obs(enemy_pos=(1.0, 0.0), enemy_stunned_ms=500),
            ActionSet.of(hold(ActionCategory.HEAVY_ATTACK, 1.0)),
        ),
    ]
    for obs, expected in cases:
        first = p.decide(obs)
        assert first == expected
        assert p.decide(obs._replace(t_ms=125)) is first


def _uncached_tokens(actions, game_mode):
    clause = render_action(actions)
    context = None if game_mode is None else {"game_mode": game_mode}
    return serialize_stage3(clause, render_explanation(actions, context) or clause).split()


def test_serialization_cache_matches_uncached_text():
    scripted_sets = [
        policies._HEAL_BACK_OFF, policies._DODGE, policies._COMBO, policies._LIGHT,
        policies._STEP_IN, policies._SPRINT_IN, policies._HEAVY,
    ]
    for game_mode in ("BMW", "SSDT"):
        for actions in scripted_sets:
            expected = _uncached_tokens(actions, game_mode)
            assert list(policies._serialize(actions, game_mode)) == expected
            assert list(policies._serialize(actions, game_mode)) == expected  # from the cache
    # the random policy's whole answer space, plus a set out of priority order
    random_sets = [
        ActionSet.of(ActionEvent.hold(c, s) if c.hold_capable else ActionEvent.tap(c))
        for c in ActionCategory
        for s in policies._HOLD_CHOICES
    ]
    random_sets.append(
        ActionSet.of(
            ActionEvent.hold(ActionCategory.MOVE_BACK, 1.0), ActionEvent.tap(ActionCategory.HEAL)
        )
    )
    for actions in random_sets:
        assert list(policies._serialize(actions, None)) == _uncached_tokens(actions, None)
    # what a random policy streams is the uncached text of what it decided
    p = RandomPolicy(seed=0)
    for _ in range(40):
        tokens = list(p.observe([_obs()]))
        decided = decode(iter(tokens), DecodeMode.TRUNCATED).actions
        assert tokens == _uncached_tokens(decided, None)
