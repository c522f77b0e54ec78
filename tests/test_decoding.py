"""Streaming decode, truncation stop, pacing, and the savings report."""

import itertools
import json
import math
from pathlib import Path

import pytest

from combatkit.actions import ActionCategory
from combatkit.aot import (
    EOS_TOKEN,
    QUESTION_TEXT,
    TRUNC_TOKEN,
    AoTRecord,
    StageConfig,
    align_session,
    build_frames_aot,
    bundled_stage3_path,
    load_bundled_stage3,
    serialize_stage3,
    to_truncated_form,
)
from combatkit.cli import main
from combatkit.decoding import (
    DEFAULT_TOKEN_BUDGET,
    DecodeMode,
    DecodeResult,
    StopReason,
    TokenStream,
    _extract_actions,
    decode,
    token_savings_report,
)
from combatkit.errors import ActionParseError, ConfigError, EmptyDataset
from combatkit.policies import (
    _COMBO,
    _DODGE,
    _HEAL_BACK_OFF,
    _HEAVY,
    _LIGHT,
    _RANDOM_ANSWERS,
    _SPRINT_IN,
    _STEP_IN,
    _serialize,
)
from combatkit.tracker import import_session

SAMPLE = serialize_stage3("press space, hold w for 0.5 seconds", "Step away from the enemy.")


def test_truncated_stops_at_sentinel_excluded():
    res = decode(TokenStream.from_text(SAMPLE), DecodeMode.TRUNCATED)
    assert res.stop_reason is StopReason.TRUNC
    assert TRUNC_TOKEN not in res.emitted_tokens
    assert EOS_TOKEN not in res.emitted_tokens
    assert " ".join(res.emitted_tokens) == "[press space, hold w for 0.5 seconds]"
    assert res.actions.categories() == {ActionCategory.DODGE, ActionCategory.MOVE_FWD}


def test_full_runs_to_eos_included():
    res = decode(TokenStream.from_text(SAMPLE), DecodeMode.FULL)
    assert res.stop_reason is StopReason.EOS
    assert res.emitted_tokens[-1] == EOS_TOKEN
    assert TRUNC_TOKEN in res.emitted_tokens
    assert res.actions.categories() == {ActionCategory.DODGE, ActionCategory.MOVE_FWD}


def test_modes_recover_identical_actions():
    for record_text in (
        SAMPLE,
        serialize_stage3("press r", ""),
        serialize_stage3("no action", "Nothing to do."),
    ):
        t = decode(TokenStream.from_text(record_text), DecodeMode.TRUNCATED)
        f = decode(TokenStream.from_text(record_text), DecodeMode.FULL)
        assert t.actions.key() == f.actions.key()
        assert t.emitted_count < f.emitted_count


def test_budget_stop():
    text = "[press space] " + "filler " * 300 + EOS_TOKEN
    res = decode(TokenStream.from_text(text), DecodeMode.FULL, budget=20)
    assert res.stop_reason is StopReason.BUDGET
    assert res.emitted_count == 20
    assert res.actions.categories() == {ActionCategory.DODGE}
    with pytest.raises(ConfigError, match="token budget must be positive, got 0"):
        decode(TokenStream.from_text(text), budget=0)


def test_unparseable_emission_raises():
    with pytest.raises(ActionParseError) as err:
        decode(TokenStream.from_text(f"nothing bracketed here {EOS_TOKEN}"))
    assert err.value.stop_reason == "eos"
    # budget exhausted before the clause closes
    with pytest.raises(ActionParseError) as err:
        decode(TokenStream.from_text("[press space, hold w"), DecodeMode.FULL, budget=3)
    assert err.value.stop_reason == "budget"


def test_extractor_skips_non_action_brackets():
    text = f"[not an action] [press r] {EOS_TOKEN}"
    res = decode(TokenStream.from_text(text), DecodeMode.FULL)
    assert res.actions.categories() == {ActionCategory.HEAL}


def test_token_stream_pacing_uses_injected_sleep():
    naps = []
    stream = TokenStream("[press r] x".split(), tokens_per_second=40.0, sleep=naps.append)
    res = decode(stream, DecodeMode.FULL)
    assert res.emitted_tokens == ("[press", "r]", "x")
    assert naps == [3 / 40.0]  # one nap for the three tokens
    # unpaced stream never sleeps
    naps.clear()
    res = decode(TokenStream("[press r]".split(), sleep=naps.append), DecodeMode.FULL)
    assert res.emitted_count == 2
    assert naps == []
    # a paced stream with nothing to take makes no call
    with pytest.raises(ActionParseError):
        decode(TokenStream([], tokens_per_second=40.0, sleep=naps.append), DecodeMode.FULL)
    assert naps == []
    # the sleep is charged inside the decode's wall time
    res = decode(TokenStream("[press r] x".split(), tokens_per_second=200.0), DecodeMode.FULL)
    assert res.wall_ms >= 3 * 5.0
    with pytest.raises(ConfigError):
        TokenStream(["a"], tokens_per_second=0.0)


def test_a_nan_pace_is_refused_where_it_is_set(capsys):
    # 1e-300 is positive, but a paced wait of one token at it overflows time.sleep
    TokenStream(["a"], tokens_per_second=0.001)
    for pace in ("nan", "0", "-1", "inf", "1e-300", "0.000999"):
        message = (
            "pace must be a positive number of tokens per second, at least 0.001 and finite,"
            f" got {float(pace)}"
        )
        with pytest.raises(ConfigError) as refused:
            TokenStream(["a"], tokens_per_second=float(pace))
        assert str(refused.value) == message
        # refused before the first sleep, naming the value, as the agent verbs refuse it
        code = main(["decode", "run", "--in", str(bundled_stage3_path()), "--pace", pace])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "ConfigError", "message": message}


def test_truncated_decode_skips_post_sentinel_pacing():
    # a paced stream sleeps for the tokens a token-by-token reader would
    # have pulled, so explanation tokens after the sentinel never cost
    # their sleep
    naps = []
    tokens = SAMPLE.split()
    stream = TokenStream(tokens, tokens_per_second=100.0, sleep=naps.append)
    res = decode(stream, DecodeMode.TRUNCATED)
    assert naps == [(res.emitted_count + 1) / 100.0]  # sentinel itself was pulled
    naps.clear()
    stream = TokenStream(tokens, tokens_per_second=100.0, sleep=naps.append)
    res_full = decode(stream, DecodeMode.FULL)
    assert naps == [res_full.emitted_count / 100.0]
    assert res_full.emitted_count > res.emitted_count + 1
    for answer in _EDGE_ANSWERS:
        for mode in DecodeMode:
            for budget in range(1, len(answer) + 2):
                naps = []
                stream = TokenStream(answer, tokens_per_second=100.0, sleep=naps.append)
                assert _outcome(stream, mode, budget) == _pulled_outcome(answer, mode, budget)
                emitted, stop, pulled = _pull(iter(answer), mode, budget)
                assert pulled == len(emitted) + (stop is StopReason.TRUNC)
                assert naps == ([pulled / 100.0] if pulled else [])


def test_paced_stream_past_the_budget_is_pulled_budget_times():
    # the tokens taken up to the budget cost a paced stream one sleep; the
    # decoder takes none past the budget, so the source still holds the next one
    tokens = ["[press", "space]"] + [f"filler{i}" for i in range(40)] + [EOS_TOKEN]
    for mode in DecodeMode:
        naps = []
        source = iter(tokens)
        stream = TokenStream(source, tokens_per_second=100.0, sleep=naps.append)
        res = decode(stream, mode, budget=12)
        assert res.stop_reason is StopReason.BUDGET
        assert res.emitted_tokens == tuple(tokens[:12])
        assert naps == [12 / 100.0]
        assert next(source) == tokens[12]
    # an endless source, wrapped or not, ends at the budget too
    for mode in DecodeMode:
        for wrap in (TokenStream, iter):
            endless = itertools.chain(tokens[:2], (f"filler{i}" for i in itertools.count()))
            res = decode(wrap(endless), mode, budget=12)
            assert res.stop_reason is StopReason.BUDGET
            assert res.emitted_tokens == tuple(tokens[:12])
            assert next(endless) == tokens[12]
    # a sentinel pulled as the budget-th token still ends the decode on itself
    res = decode(iter(["[press", "r]", TRUNC_TOKEN, "x"]), DecodeMode.TRUNCATED, budget=3)
    assert (res.stop_reason, res.emitted_count) == (StopReason.TRUNC, 2)
    res = decode(iter(["[press", "r]", EOS_TOKEN, "x"]), DecodeMode.FULL, budget=3)
    assert (res.stop_reason, res.emitted_count) == (StopReason.EOS, 3)


# Every answer a shipped policy gives: the random policy's table and the
# scripted rule table's seven sets in both game modes.
_SHIPPED_ANSWERS = [
    answer for tap, holds in _RANDOM_ANSWERS for answer in ((tap,) if holds is None else holds)
] + [
    _serialize(actions, game_mode)
    for actions in (_HEAL_BACK_OFF, _DODGE, _COMBO, _LIGHT, _STEP_IN, _SPRINT_IN, _HEAVY)
    for game_mode in ("BMW", "SSDT")
]
_EDGE_ANSWERS = [
    (),
    ("[press", "space]", "then", "more"),  # no sentinel
    ("[press", "r]", EOS_TOKEN, TRUNC_TOKEN, "x"),  # end of sequence before truncation
    (TRUNC_TOKEN, "[press", "r]", EOS_TOKEN),  # truncation first
    ("[press", "r]", TRUNC_TOKEN, "x", EOS_TOKEN),  # each sentinel the budget-th token once
]


def _outcome(stream, mode, budget):
    try:
        res = decode(stream, mode, budget)
    except ActionParseError as exc:
        return ActionParseError, exc.raw_text, exc.stop_reason
    return res.emitted_tokens, res.stop_reason, res.actions


def _pull(tokens, mode, budget):
    """The reference reader: pull at most ``budget`` tokens, one at a time,
    up to the stopping sentinel; give the emission, the stop and the pull count."""
    trunc_token = TRUNC_TOKEN if mode is DecodeMode.TRUNCATED else None
    emitted, stop, pulled = [], StopReason.BUDGET, 0
    for token in itertools.islice(tokens, budget):
        pulled += 1
        if token == trunc_token:
            stop = StopReason.TRUNC
            break
        emitted.append(token)
        if token == EOS_TOKEN:
            stop = StopReason.EOS
            break
    return tuple(emitted), stop, pulled


def _pulled_outcome(tokens, mode, budget):
    emitted, stop, _ = _pull(iter(tokens), mode, budget)
    try:
        return emitted, stop, _extract_actions(emitted, stop)
    except ActionParseError as exc:
        return ActionParseError, exc.raw_text, exc.stop_reason


@pytest.mark.parametrize("answer", _SHIPPED_ANSWERS + _EDGE_ANSWERS)
def test_a_tuple_decodes_as_its_token_stream(answer):
    # a tuple is sliced, an iterator taken up to the budget; both match the pull loop
    assert type(answer) is tuple
    for mode in DecodeMode:
        for budget in range(1, len(answer) + 2):
            expected = _pulled_outcome(answer, mode, budget)
            assert _outcome(answer, mode, budget) == expected, (mode, budget)
            assert _outcome(iter(answer), mode, budget) == expected, (mode, budget)


def _stage3_texts():
    # both golden-session decisions come before the default 4 frames of history exist
    golden = Path(__file__).parent / "data" / "golden_session"
    aligned = align_session(import_session(golden))
    built = build_frames_aot(aligned, StageConfig(k_frames=1)).records
    records = load_bundled_stage3() + [to_truncated_form(r) for r in built]
    return [r.serialized for r in records]


def test_an_unpaced_stream_decodes_as_the_pull_loop():
    texts = _stage3_texts()
    assert len(texts) == 84 + 2
    for text in texts:
        tokens = text.split()
        sentinels = [tokens.index(t) for t in (TRUNC_TOKEN, EOS_TOKEN) if t in tokens]
        assert sentinels, text
        budgets = {1, len(tokens), len(tokens) + 1, DEFAULT_TOKEN_BUDGET}
        budgets.update(b for i in sentinels for b in (i, i + 1) if b > 0)
        for mode in DecodeMode:
            for budget in sorted(budgets):
                expected = _pulled_outcome(tokens, mode, budget)
                assert _outcome(TokenStream.from_text(text), mode, budget) == expected
                assert _outcome((t for t in text.split()), mode, budget) == expected
                assert _outcome(tuple(tokens), mode, budget) == expected


def test_same_unparseable_emission_raises_on_every_call():
    # the clause memo stores no exceptions: a repeated bad emission fails afresh
    text = f"[not an action] [hold w {EOS_TOKEN}"
    errors = []
    for _ in range(2):
        with pytest.raises(ActionParseError) as err:
            decode(TokenStream.from_text(text), DecodeMode.FULL)
        errors.append(err.value)
    assert errors[0] is not errors[1]
    assert str(errors[0]) == str(errors[1])
    assert errors[0].stop_reason == errors[1].stop_reason == "eos"
    # a good emission decodes to the one memoized action set
    first, again = (decode(TokenStream.from_text(SAMPLE)) for _ in range(2))
    assert again.actions is first.actions


def test_decode_result_count_property():
    res = DecodeResult(("a", "b"), decode(TokenStream.from_text(SAMPLE)).actions, StopReason.EOS, 0.0)
    assert res.emitted_count == 2
    assert DEFAULT_TOKEN_BUDGET == 256


def _record(action_text, explanation):
    return AoTRecord(
        stage=3,
        frame_refs=(1, 2, 3, 4),
        question=QUESTION_TEXT,
        action_text=action_text,
        explanation=explanation,
    )


def test_savings_report_means():
    records = [
        _record("press space", "one two three four five six seven"),
        _record("press r", ""),
    ]
    report = token_savings_report(records)
    # "[press space]" = 2 whitespace tokens before the sentinel; full = 11
    # "[press r]" = 2 tokens; full = 4
    assert report.records == 2
    assert report.mean_full_tokens == pytest.approx((11 + 4) / 2)
    assert report.mean_truncated_tokens == pytest.approx(2.0)
    assert report.ratio == pytest.approx(4 / 15)
    d = report.to_json_dict()
    assert set(d) == {"records", "mean_full_tokens", "mean_truncated_tokens", "ratio"}
    assert list(d) == [*report._fields, "ratio"]
    for name in (report._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(report, name, None)


def test_savings_missing_sentinel_counts_full_both_sides():
    rec = _record("press r", "x")
    no_sentinel = AoTRecord(
        stage=2,
        frame_refs=(1, 2, 3, 4),
        question=QUESTION_TEXT,
        action_text="press r",
        explanation="x",
    )
    report = token_savings_report([rec, no_sentinel])
    assert report.mean_full_tokens == pytest.approx((5 + 4) / 2)
    assert report.mean_truncated_tokens == pytest.approx((2 + 4) / 2)


def test_savings_requires_records():
    with pytest.raises(EmptyDataset):
        token_savings_report([])


def test_savings_on_bundled_dataset():
    report = token_savings_report(load_bundled_stage3())
    assert report.ratio < 0.45
    assert report.mean_truncated_tokens < report.mean_full_tokens
