"""Acceptance gate: one test per numbered criterion, at the stated budgets."""

import math
import random
import time

import pytest

from combatkit.actions import (
    PRIORITY_ORDER,
    ActionEvent,
    ActionSet,
    weight_schedule,
)
from combatkit.aot import (
    align_session,
    build_frames_aot,
    build_video_aot,
    load_bundled_stage3,
    to_truncated_form,
)
from combatkit.arena import iter_tasks, load_task_configs
from combatkit.bench import (
    generate_synthetic,
    read_items,
    read_predictions,
    score,
    validate_dataset,
    write_items,
)
from combatkit.decoding import DecodeMode, TokenStream, decode, token_savings_report
from combatkit.policies import ReplayPolicy
from combatkit.runner import (
    collect_transcripts,
    make_policy,
    run_episode,
    run_suite,
    transcript_to_session,
    write_suite_report,
)
from combatkit.tracker import (
    FrameRecord,
    TimedAction,
    align_actions_to_frames,
    export_session,
    import_session,
)

TASKS = load_task_configs()
EASY_TASK_IDS = (1, 2, 3, 4, 5, 11)

# frozen reference constants
REFERENCE_WEIGHTS = (
    0.1000, 0.0549, 0.0324, 0.0211, 0.0155,
    0.0126, 0.0112, 0.0105, 0.0102, 0.0100,
)
REFERENCE_ACCURACIES = {"gathering": 60.83, "comprehension": 60.29, "reasoning": 69.71}
REFERENCE_MACRO = 63.61
CANONICAL_BENCH_COUNTS = {"gathering": 360, "comprehension": 204, "reasoning": 350}


def test_criterion_1_weight_schedule_matches_reference_vector():
    t0 = time.perf_counter()
    weights = weight_schedule(10)
    elapsed = time.perf_counter() - t0
    assert len(weights) == len(REFERENCE_WEIGHTS)
    for got, want in zip(weights, REFERENCE_WEIGHTS):
        assert abs(got - want) <= 5e-5, f"{got} vs {want}"
    print(f"\nweights={[round(w, 4) for w in weights]} elapsed={elapsed * 1000:.3f}ms")
    assert elapsed < 1.0


def _sweep_oracle(frames, actions):
    """Single forward pass; actions must arrive sorted by timestamp."""
    samples, dropped = [], []
    pos = 0
    for ta in actions:
        while pos < len(frames) and frames[pos].t_ms < ta.t_ms:
            pos += 1
        if pos == len(frames):
            dropped.append(ta.t_ms)
        else:
            samples.append((ta.t_ms, frames[pos].index))
    return samples, dropped


def _scan_oracle(frames, actions):
    """Quadratic rescan from the start for every action."""
    samples, dropped = [], []
    for ta in actions:
        hit = next((fr for fr in frames if fr.t_ms >= ta.t_ms), None)
        if hit is None:
            dropped.append(ta.t_ms)
        else:
            samples.append((ta.t_ms, hit.index))
    return samples, dropped


def test_criterion_2_alignment_matches_brute_force_on_1000_streams():
    rng = random.Random(20260819)
    t0 = time.perf_counter()
    total_events = biggest = 0
    for stream_no in range(1000):
        if stream_no < 5:
            n_frames, n_actions = 9000, 1000  # 10,000 events
        elif stream_no < 8:
            n_frames, n_actions = rng.randint(500, 1000), rng.randint(100, 300)
        else:
            n_frames, n_actions = rng.randint(1, 150), rng.randint(0, 50)
        total_events += n_frames + n_actions
        biggest = max(biggest, n_frames + n_actions)

        t = rng.randint(0, 200)
        frames = []
        for j in range(n_frames):
            frames.append(FrameRecord(index=j + 1, t_ms=t))
            t += rng.randint(0, 40)  # zero steps give duplicate timestamps
        horizon = frames[-1].t_ms + 50
        actions = sorted(
            (
                TimedAction(ActionEvent.tap(rng.choice(PRIORITY_ORDER)), rng.randint(0, horizon))
                for _ in range(n_actions)
            ),
            key=lambda ta: ta.t_ms,
        )

        result = align_actions_to_frames(actions, frames)
        got_samples = [(s.action_t_ms, s.frame_index) for s in result.samples]
        got_dropped = [ta.t_ms for ta in result.dropped]
        assert (got_samples, got_dropped) == _sweep_oracle(frames, actions)
        if n_frames <= 400:
            assert (got_samples, got_dropped) == _scan_oracle(frames, actions)
        assert len(got_samples) + len(got_dropped) == n_actions
        # monotonicity: sorted action times map to non-decreasing frames
        assert all(a[1] <= b[1] for a, b in zip(got_samples, got_samples[1:]))
    elapsed = time.perf_counter() - t0
    print(f"\nstreams=1000 total_events={total_events} biggest={biggest} elapsed={elapsed:.2f}s")
    assert elapsed < 10.0


def test_criterion_3_gradients_match_finite_differences():
    pytest.importorskip("numpy")
    from combatkit.loss import gradient_check_rows

    t0 = time.perf_counter()
    rows = gradient_check_rows(seed=0, points=100, dim=64, h=1e-5)
    elapsed = time.perf_counter() - t0
    assert [row["component"] for row in rows] == [
        "contrastive_pull",
        "contrastive_push",
        "alignment",
    ]
    print()
    for row in rows:
        assert row["points"] == 100 and row["dim"] == 64
        assert row["max_rel_error"] < 1e-4, row
        print(f"{row['component']}: max_rel_error={row['max_rel_error']:.3e}")
    print(f"elapsed={elapsed:.2f}s")
    assert elapsed < 5.0


def test_criterion_4_action_loss_branches_over_10000_pairs():
    np = pytest.importorskip("numpy")
    from combatkit.loss import ActionPrediction, EmbeddingPair, composite_loss

    rng = random.Random(4)
    vec_rng = np.random.default_rng(4)
    weights = weight_schedule(len(PRIORITY_ORDER))
    matched_seen = mismatched_seen = 0
    t0 = time.perf_counter()
    for _ in range(10_000):
        label_cats = rng.sample(PRIORITY_ORDER, rng.randint(1, 4))
        output_cats = rng.sample(PRIORITY_ORDER, rng.randint(0, 4))
        label = ActionSet.of(*(ActionEvent.tap(c) for c in label_cats))
        output = ActionSet.of(*(ActionEvent.tap(c) for c in output_cats))
        probs = vec_rng.random(len(PRIORITY_ORDER)) + 1e-6
        probs /= probs.sum()
        v = vec_rng.normal(size=8)
        a = vec_rng.normal(size=8)
        l_lang = float(vec_rng.random() * 4.0)

        breakdown = composite_loss(
            EmbeddingPair(v, a), ActionPrediction(probs, output), label, l_lang
        )

        # independent recomputation from first principles
        c_star = min(label_cats, key=list(PRIORITY_ORDER).index)
        matched = c_star in output_cats
        pull = 1.0 - float(np.dot(v, a) / (np.linalg.norm(v) * np.linalg.norm(a)))
        align = -math.log(max(float(probs[list(PRIORITY_ORDER).index(c_star)]), 1e-12))
        expected_act = pull if matched else -pull + align

        assert breakdown.c_star is c_star
        assert breakdown.matched is matched
        assert breakdown.alpha == weights[list(PRIORITY_ORDER).index(c_star)]
        assert breakdown.l_act == pytest.approx(expected_act, rel=1e-9, abs=1e-12)
        if matched:
            matched_seen += 1
            assert breakdown.l_align == 0.0
        else:
            mismatched_seen += 1
            assert breakdown.l_align == pytest.approx(align, rel=1e-12)
        assert breakdown.total == pytest.approx(
            l_lang + breakdown.alpha * expected_act, rel=1e-9, abs=1e-12
        )
    elapsed = time.perf_counter() - t0
    print(f"\nmatched={matched_seen} mismatched={mismatched_seen} elapsed={elapsed:.2f}s")
    assert matched_seen > 1000 and mismatched_seen > 1000
    assert elapsed < 5.0


def test_criterion_5_truncated_decode_is_prefix_with_identical_actions():
    records = load_bundled_stage3()
    t0 = time.perf_counter()
    assert len(records) == 84
    for record in records:
        full = decode(TokenStream.from_text(record.serialized), DecodeMode.FULL)
        trunc = decode(TokenStream.from_text(record.serialized), DecodeMode.TRUNCATED)
        assert trunc.actions.key() == full.actions.key()
        assert trunc.emitted_count < full.emitted_count
        assert full.emitted_tokens[: trunc.emitted_count] == trunc.emitted_tokens
    report = token_savings_report(records)
    elapsed = time.perf_counter() - t0
    print(
        f"\nrecords={report.records} mean_full={report.mean_full_tokens:.2f} "
        f"mean_truncated={report.mean_truncated_tokens:.2f} ratio={report.ratio:.4f} "
        f"elapsed={elapsed:.2f}s"
    )
    assert report.ratio < 0.45
    assert elapsed < 5.0


def test_criterion_6_paced_latency_ratio_and_one_call_per_cycle():
    records = load_bundled_stage3()
    pace = 500.0
    t0 = time.perf_counter()
    walls = {}
    for mode in (DecodeMode.TRUNCATED, DecodeMode.FULL):
        total = 0.0
        for record in records:
            result = decode(TokenStream.from_text(record.serialized, pace), mode)
            total += result.wall_ms
        walls[mode] = total / len(records)
    ratio = walls[DecodeMode.TRUNCATED] / walls[DecodeMode.FULL]
    assert walls[DecodeMode.TRUNCATED] <= 0.6 * walls[DecodeMode.FULL]

    # pause-infer-act: exactly one policy call per decision cycle
    for task_id in (1, 6, 11):
        for mode in (DecodeMode.TRUNCATED, DecodeMode.FULL):
            policy = make_policy("scripted", TASKS[task_id], 9)
            report, transcript = run_episode(TASKS[task_id], policy, mode, 9)
            assert report.policy_calls == report.decision_cycles == len(transcript.cycles)
            assert policy.call_count == report.decision_cycles
    elapsed = time.perf_counter() - t0
    print(
        f"\nmean_wall truncated={walls[DecodeMode.TRUNCATED]:.1f}ms "
        f"full={walls[DecodeMode.FULL]:.1f}ms ratio={ratio:.3f} elapsed={elapsed:.1f}s"
    )
    assert elapsed < 30.0


def test_criterion_7_suite_is_deterministic_and_beats_random_on_easy_tasks(tmp_path):
    tasks = iter_tasks(TASKS, "all")
    t0 = time.perf_counter()
    scripted = run_suite(tasks, mode=DecodeMode.TRUNCATED, repeats=10, seed=42)
    rerun = run_suite(tasks, mode=DecodeMode.TRUNCATED, repeats=10, seed=42)
    rando = run_suite(
        tasks, mode=DecodeMode.TRUNCATED, repeats=10, seed=42, policy_name="random"
    )
    assert len(scripted.rows) == 13
    assert all(row.repeats == 10 for row in scripted.rows)
    assert scripted.to_csv() == rerun.to_csv()

    first = write_suite_report(scripted, tmp_path / "a.csv")
    second = write_suite_report(rerun, tmp_path / "b.csv")
    for fresh, again in zip(first, second):
        assert fresh.read_bytes() == again.read_bytes()

    scripted_rate = {row.task_id: row.success_rate for row in scripted.rows}
    random_rate = {row.task_id: row.success_rate for row in rando.rows}
    print()
    for task_id in EASY_TASK_IDS:
        print(
            f"task {task_id}: scripted={scripted_rate[task_id]:.2f} "
            f"random={random_rate[task_id]:.2f}"
        )
        assert scripted_rate[task_id] > random_rate[task_id]
    elapsed = time.perf_counter() - t0
    print(f"elapsed={elapsed:.1f}s")
    assert elapsed < 120.0


def test_criterion_8_bench_scoring_and_canonical_generation(request, tmp_path):
    data = request.path.parent / "data"
    t0 = time.perf_counter()
    items = read_items(data / "bench_items.jsonl")
    predictions = read_predictions(data / "bench_predictions.jsonl")
    report = score(items, predictions).to_json_dict()
    assert report["accuracies"] == REFERENCE_ACCURACIES
    assert report["macro_average"] == REFERENCE_MACRO

    transcripts = collect_transcripts(list(TASKS.values()), seed=0, episodes_per_task=2)
    generated = generate_synthetic(transcripts, seed=0)
    validation = validate_dataset(write_items(generated, tmp_path / "items.jsonl"))
    assert validation.ok
    assert validation.counts == CANONICAL_BENCH_COUNTS
    elapsed = time.perf_counter() - t0
    print(
        f"\naccuracies={report['accuracies']} macro={report['macro_average']} "
        f"generated_counts={validation.counts} elapsed={elapsed:.2f}s"
    )
    assert elapsed < 5.0


def test_criterion_9_pipeline_round_trip_loses_no_actions(tmp_path):
    task, seed = TASKS[1], 11
    t0 = time.perf_counter()
    report, transcript = run_episode(task, make_policy("scripted", task, seed), seed=seed)
    assert all(cycle.actions is not None for cycle in transcript.cycles)
    cycle_keys = [cycle.actions.key() for cycle in transcript.cycles]

    export_session(transcript_to_session(transcript), tmp_path / "session")
    aligned = align_session(import_session(tmp_path / "session"))
    assert len(build_video_aot(aligned)) >= 1
    stage2 = build_frames_aot(aligned)
    assert not stage2.skipped
    stage3 = [to_truncated_form(r) for r in stage2.records]
    assert len(stage3) == len(cycle_keys)

    decoded_keys = [
        decode(TokenStream.from_text(r.serialized), DecodeMode.TRUNCATED).actions.key()
        for r in stage3
    ]
    assert decoded_keys == cycle_keys

    # feed the dataset back through the live loop at the same seed
    replayed_report, replayed = run_episode(task, ReplayPolicy(stage3), seed=seed)
    assert [cycle.actions.key() for cycle in replayed.cycles] == cycle_keys
    assert replayed_report.decision_cycles == report.decision_cycles
    assert replayed_report.success == report.success
    assert replayed_report.sim_duration_ms == report.sim_duration_ms
    elapsed = time.perf_counter() - t0
    print(
        f"\ncycles={len(cycle_keys)} records={len(stage3)} "
        f"success={report.success} elapsed={elapsed:.2f}s"
    )
    assert elapsed < 30.0
