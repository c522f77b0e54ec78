"""Action-weighted loss terms, branch selection, and gradient checking."""

import math
import pickle
import random

import numpy as np
import pytest

from combatkit.actions import (
    PRIORITY_ORDER,
    PRIORITY_WEIGHTS,
    ActionCategory,
    ActionEvent,
    ActionSet,
)
from combatkit import loss
from combatkit.errors import (
    ClampedProbability,
    ConfigError,
    DegenerateEmbedding,
    NumericFailure,
)
from combatkit.loss import (
    PROB_CLAMP,
    ActionPrediction,
    EmbeddingPair,
    LossBreakdown,
    alignment_gradient,
    alignment_term,
    central_difference_gradient,
    composite_loss,
    contrastive_gradients,
    contrastive_term,
    cosine_similarity,
    finite_diff_check,
    gradient_check_rows,
    _pull_numeric_gradient,
    random_pair,
)

UNIFORM_10 = np.full(10, 0.1)


def _pred(probs, *cats):
    events = tuple(
        ActionEvent.tap(c) if c.tap_only else ActionEvent.hold_ms(c, 250) for c in cats
    )
    return ActionPrediction(np.asarray(probs, dtype=float), ActionSet(events))


def _label(*cats):
    return ActionSet(
        tuple(ActionEvent.tap(c) if c.tap_only else ActionEvent.hold_ms(c, 250) for c in cats)
    )


def test_cosine_similarity_basics():
    assert cosine_similarity(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(1.0)
    assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)
    assert cosine_similarity(np.array([1.0, 0.0]), np.array([-2.0, 0.0])) == pytest.approx(-1.0)
    # scale invariance
    v = np.array([0.3, -1.2, 0.8])
    assert cosine_similarity(v, 7.5 * v) == pytest.approx(1.0)


def test_embedding_validation():
    with pytest.raises(DegenerateEmbedding):
        EmbeddingPair(np.zeros(4), np.ones(4))
    with pytest.raises(DegenerateEmbedding):
        EmbeddingPair(np.ones(4), np.ones(5))
    with pytest.raises(DegenerateEmbedding):
        EmbeddingPair(np.array([1.0]), np.array([1.0]))
    with pytest.raises(NumericFailure):
        EmbeddingPair(np.array([1.0, np.nan]), np.ones(2))


def test_contrastive_term_signs():
    pair = EmbeddingPair(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    pull = contrastive_term(pair, matched=True)
    push = contrastive_term(pair, matched=False)
    assert pull == pytest.approx(1.0)  # 1 - cos(90 deg)
    assert push == pytest.approx(-1.0)
    same = EmbeddingPair(np.array([1.0, 0.0]), np.array([2.0, 0.0]))
    assert contrastive_term(same, matched=True) == pytest.approx(0.0)
    # pull is bounded in [0, 2]
    opposite = EmbeddingPair(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
    assert contrastive_term(opposite, matched=True) == pytest.approx(2.0)


def test_alignment_term_is_nll():
    pred = _pred(UNIFORM_10, ActionCategory.DODGE)
    got = alignment_term(pred, ActionCategory.HEAL)
    assert got == pytest.approx(math.log(10.0), abs=1e-12)
    assert got == pytest.approx(2.302585092994046, abs=1e-12)
    confident = np.zeros(10)
    confident[0] = 1.0
    assert alignment_term(_pred(confident), ActionCategory.HEAL) == pytest.approx(0.0)


def test_alignment_term_clamps_and_warns():
    probs = np.zeros(10)
    probs[0] = 1.0
    pred = _pred(probs)
    with pytest.warns(ClampedProbability):
        got = alignment_term(pred, ActionCategory.DODGE)
    assert got == pytest.approx(-math.log(PROB_CLAMP))


def test_action_prediction_validation():
    with pytest.raises(ValueError):
        _pred(np.full(9, 1 / 9))
    bad = np.full(10, 0.1)
    bad[0] = 0.2
    with pytest.raises(ValueError):
        _pred(bad)
    with pytest.raises(ValueError):
        _pred(np.array([-0.1, 0.2] + [0.9 / 8] * 8))


def test_composite_loss_matched_branch():
    pair = EmbeddingPair(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    pred = _pred(UNIFORM_10, ActionCategory.DODGE)
    out = composite_loss(pair, pred, _label(ActionCategory.DODGE), l_lang=2.0)
    assert out.matched and out.c_star is ActionCategory.DODGE
    assert out.l_con == pytest.approx(1.0)
    assert out.l_align == 0.0
    assert out.l_act == pytest.approx(1.0)
    assert out.alpha == pytest.approx(PRIORITY_WEIGHTS[ActionCategory.DODGE.priority_rank])
    assert out.total == pytest.approx(2.0 + out.alpha * 1.0)


def test_composite_loss_worked_example():
    # dodge-weighted decision with pull 0.5 riding on a 2.0 language loss
    angle = math.acos(0.5)
    pair = EmbeddingPair(
        np.array([1.0, 0.0]), np.array([math.cos(angle), math.sin(angle)])
    )
    pred = _pred(UNIFORM_10, ActionCategory.DODGE)
    out = composite_loss(pair, pred, _label(ActionCategory.DODGE), l_lang=2.0)
    assert out.total == pytest.approx(2.0 + 0.0323679 * 0.5, abs=5e-5)
    assert round(out.total, 4) == 2.0162


def test_composite_loss_mismatched_branch():
    pair = EmbeddingPair(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    pred = _pred(UNIFORM_10, ActionCategory.LIGHT_ATTACK)
    out = composite_loss(pair, pred, _label(ActionCategory.HEAL), l_lang=0.0)
    assert not out.matched and out.c_star is ActionCategory.HEAL
    assert out.l_con == pytest.approx(-1.0)
    assert out.l_align == pytest.approx(math.log(10.0))
    assert out.l_act == pytest.approx(math.log(10.0) - 1.0)
    assert out.alpha == pytest.approx(0.1)
    assert out.total == pytest.approx(0.1 * (math.log(10.0) - 1.0))


def test_composite_loss_branch_property_loop():
    # Oracle recomputes both branches from the raw terms.
    rng = random.Random(4242)
    np_rng = np.random.default_rng(4242)
    cats = list(ActionCategory)
    for _ in range(300):
        label_cats = rng.sample(cats, rng.randrange(1, 4))
        out_cats = rng.sample(cats, rng.randrange(0, 4))
        pair = random_pair(np_rng, 8)
        probs = np_rng.exponential(size=10)
        probs /= probs.sum()
        pred = _pred(probs, *out_cats)
        out = composite_loss(pair, pred, _label(*label_cats), l_lang=1.5)
        c_star = min(label_cats, key=lambda c: c.priority_rank)
        matched = c_star in out_cats
        pull = 1.0 - cosine_similarity(pair.v_eos, pair.a_eos)
        expect_act = pull if matched else (-pull - math.log(max(probs[c_star.priority_rank], PROB_CLAMP)))
        assert out.c_star is c_star and out.matched == matched
        assert out.l_act == pytest.approx(expect_act, rel=1e-12, abs=1e-12)
        assert out.alpha == pytest.approx(PRIORITY_WEIGHTS[c_star.priority_rank])
        assert out.total == pytest.approx(1.5 + out.alpha * expect_act, rel=1e-12)


def test_contrastive_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    for matched in (True, False):
        for _ in range(20):
            pair = random_pair(rng, 12)
            flat = np.concatenate([pair.v_eos, pair.a_eos])

            def value(x):
                return contrastive_term(EmbeddingPair(x[:12], x[12:]), matched)

            def grad(x):
                dv, da = contrastive_gradients(EmbeddingPair(x[:12], x[12:]), matched)
                return np.concatenate([dv, da])

            assert finite_diff_check(value, grad, flat) < 1e-6


def test_loss_records_refuse_assignment_and_compare_by_identity():
    pair = EmbeddingPair([1.0, 0.0], [0.0, 1.0])
    pred = _pred(UNIFORM_10, ActionCategory.DODGE)
    out = composite_loss(pair, pred, _label(ActionCategory.DODGE), l_lang=1.0)
    assert isinstance(out, LossBreakdown) and out.matched
    for record, field in ((pair, "v_eos"), (pred, "probs"), (out, "total")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)
    with pytest.raises(AttributeError):
        pair.extra = 1
    assert type(pair.v_eos) is np.ndarray and pair.v_eos.dtype == np.float64
    # equal only to itself, so no array comparison runs
    assert pair == pair and pair != EmbeddingPair([1.0, 0.0], [0.0, 1.0])
    assert pred != _pred(UNIFORM_10, ActionCategory.DODGE)
    assert len({pair, pred}) == 2
    copied = pickle.loads(pickle.dumps(pred))
    assert np.array_equal(copied.probs, pred.probs) and copied.output_set == pred.output_set
    assert repr(pair) == "EmbeddingPair(v_eos=array([1., 0.]), a_eos=array([0., 1.]))"


def test_alignment_gradient_shape_and_value():
    pred = _pred(UNIFORM_10)
    g = alignment_gradient(pred, ActionCategory.DODGE)
    assert g.shape == (10,)
    assert g[ActionCategory.DODGE.priority_rank] == pytest.approx(-10.0)
    assert np.count_nonzero(g) == 1


def test_central_difference_gradient_on_quadratic():
    # d/dx sum(x^2) = 2x, checked exactly by symmetric differences
    point = np.array([0.5, -1.25, 3.0])
    got = central_difference_gradient(lambda x: float(np.sum(x * x)), point)
    assert np.allclose(got, 2 * point, atol=1e-8)
    with pytest.raises(ConfigError, match="got 0.01"):
        central_difference_gradient(lambda x: 0.0, point, h=1e-2)
    with pytest.raises(ConfigError, match="got 1e-09"):
        central_difference_gradient(lambda x: 0.0, point, h=1e-9)


def test_finite_diff_check_flags_wrong_gradient():
    point = np.array([1.0, 2.0])
    fn = lambda x: float(np.sum(x * x))
    good = lambda x: 2 * x
    bad = lambda x: 3 * x
    assert finite_diff_check(fn, good, point) < 1e-8
    assert finite_diff_check(fn, bad, point) > 0.3


def test_gradient_check_rows_contract():
    rows = gradient_check_rows(seed=0, points=10, dim=16)
    assert [r["component"] for r in rows] == [
        "contrastive_pull",
        "contrastive_push",
        "alignment",
    ]
    for row in rows:
        assert set(row) == {
            "component",
            "points",
            "dim",
            "step",
            "analytic_grad_norm",
            "fd_grad_norm",
            "max_rel_error",
        }
        assert row["max_rel_error"] < 1e-4
        assert row["analytic_grad_norm"] > 0.0
        assert row["fd_grad_norm"] == pytest.approx(row["analytic_grad_norm"], rel=1e-3)


def _contrastive_closure(dim, matched):
    return lambda x: contrastive_term(EmbeddingPair(x[:dim], x[dim:]), matched)


@pytest.mark.parametrize("dim", [2, 16, 64])
def test_batched_pull_gradient_matches_scalar_reference(dim):
    rng = np.random.default_rng(dim)
    for _ in range(5):
        pair = random_pair(rng, dim)
        flat = np.concatenate([pair.v_eos, pair.a_eos])
        batched = _pull_numeric_gradient(flat, dim, 1e-5)
        scalar = central_difference_gradient(_contrastive_closure(dim, True), flat, 1e-5)
        assert np.linalg.norm(batched - scalar) <= 1e-9 * np.linalg.norm(scalar)


def _two_call_differences(fn_rows, x, steps):
    """The checker's former formula: one call on ``x + diag``, one on ``x - diag``."""
    bump = np.diag(steps)
    return (fn_rows(x + bump) - fn_rows(x - bump)) / (2.0 * steps)


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("dim", [8, 64])
def test_one_stack_pull_differences_equal_the_two_call_formula(dim, seed):
    pair = random_pair(np.random.default_rng(seed), dim)
    flat = np.concatenate([pair.v_eos, pair.a_eos])
    expected = _two_call_differences(
        lambda rows: loss._pull_rows(rows, dim), flat, np.full(flat.size, 1e-5)
    )
    assert _same_bits(_pull_numeric_gradient(flat, dim, 1e-5), expected)


@pytest.mark.parametrize("seed", range(5))
def test_one_stack_alignment_differences_equal_the_two_call_formula(seed):
    rng = np.random.default_rng(seed)
    probs = rng.exponential(size=len(PRIORITY_ORDER))
    probs = probs / probs.sum()
    steps = 1e-5 * probs  # the alignment's relative steps
    for idx in range(len(PRIORITY_ORDER)):
        fn_rows = lambda rows: loss._clamped_nll(rows[:, idx])
        got = loss._central_differences(fn_rows, probs, steps, loss._step_stack(steps))
        assert _same_bits(got, _two_call_differences(fn_rows, probs, steps))


def test_central_difference_gradient_feeds_fn_the_rows_of_two_stacks():
    # x + (-0.0) keeps a -0.0 coordinate's sign, as x - 0.0 does; a +0.0
    # off the diagonal of the minus half would turn it into +0.0
    point = np.array([0.0, -0.0, 1.5, -2.0])
    fed = []
    central_difference_gradient(lambda row: fed.append(row.copy()) or 0.0, point)
    bump = np.diag(np.full(point.size, 1e-5))
    expected = [*(point + bump), *(point - bump)]
    assert np.signbit(expected[point.size][1])
    assert len(fed) == len(expected)
    for row, want in zip(fed, expected):
        assert _same_bits(row, want), (row, want)


def test_norm_helper_equals_numpy_norm_bit_for_bit():
    rng = np.random.default_rng(7)
    for size in (2, 3, 10, 64, 128, 1001):
        x = rng.normal(size=size) * 10.0 ** int(rng.integers(-5, 6))
        m = rng.normal(size=(size, 3))
        for v in (x, x[::3], x[::-1], m[:, 1], np.zeros(size)):
            got = loss._norm(v)
            assert type(got) is float
            assert got.hex() == float(np.linalg.norm(v)).hex(), (size, v.strides)


def test_uniform_step_stacks_are_cached_shared_and_read_only():
    stack = loss._uniform_step_stack(128, 1e-5)
    assert loss._uniform_step_stack(128, 1e-5) is stack
    assert _same_bits(stack, loss._step_stack(np.full(128, 1e-5)))
    assert not np.signbit(stack[:128]).any() and np.signbit(stack[128:]).all()
    assert not stack.flags.writeable
    with pytest.raises(ValueError):
        stack[0, 0] = 1.0
    assert loss._uniform_step_stack.cache_info().maxsize == loss._STEP_STACKS
    before = loss._uniform_step_stack.cache_info()
    gradient_check_rows(seed=0, points=3, dim=64)
    after = loss._uniform_step_stack.cache_info()
    assert (after.hits, after.misses) == (before.hits + 3, before.misses)


def test_push_gradient_is_exactly_the_negated_pull():
    rng = np.random.default_rng(3)
    for dim in (2, 16, 64):
        pair = random_pair(rng, dim)
        flat = np.concatenate([pair.v_eos, pair.a_eos])
        pull = central_difference_gradient(_contrastive_closure(dim, True), flat)
        push = central_difference_gradient(_contrastive_closure(dim, False), flat)
        assert np.array_equal(push, -pull)
    pull_row, push_row, _ = gradient_check_rows(seed=5, points=3, dim=16)
    for key in ("analytic_grad_norm", "fd_grad_norm", "max_rel_error"):
        assert push_row[key] == pull_row[key]


def test_gradient_check_rows_report_plain_floats():
    for row in gradient_check_rows(seed=1, points=3, dim=8):
        for key in ("step", "analytic_grad_norm", "fd_grad_norm", "max_rel_error"):
            assert type(row[key]) is float, (key, type(row[key]))


# At these seeds a pull coordinate's true gradient is 2.1e-8 (2428) and
# 7.7e-8 (6803): relative to it, the central difference's roundoff read
# 2.45e-4 and 1.14e-4 while the gradients agreed.
@pytest.mark.parametrize("seed", [2428, 6803])
def test_gradient_check_compares_tiny_coordinates_by_absolute_difference(seed):
    rows = gradient_check_rows(seed=seed, points=1, dim=64)
    assert all(row["max_rel_error"] < 1e-4 for row in rows), rows


@pytest.mark.parametrize("seed", [2428, 6803])
def test_gradient_check_still_fails_a_coordinate_off_by_a_thousandth(monkeypatch, seed):
    exact = loss.contrastive_gradients

    def off(pair, matched):
        dv, da = exact(pair, matched)
        if matched:
            dv = dv.copy()
            dv[np.argmax(np.abs(dv))] *= 1.001
        return dv, da

    monkeypatch.setattr(loss, "contrastive_gradients", off)
    rows = {row["component"]: row for row in gradient_check_rows(seed=seed, points=1, dim=64)}
    assert rows["contrastive_pull"]["max_rel_error"] > 1e-4
    assert rows["contrastive_push"]["max_rel_error"] < 1e-4


def test_alignment_check_steps_relative_to_probability():
    # p(c*) is small at this point: a fixed step of 1e-5 gave 2.1e-4 here
    rows = gradient_check_rows(seed=2000273, points=1, dim=64)
    assert rows[2]["component"] == "alignment"
    assert rows[2]["step"] == 1e-5
    assert rows[2]["analytic_grad_norm"] > 1000.0
    assert rows[2]["max_rel_error"] < 1e-4


@pytest.mark.parametrize("helper", ["_alignment_gradient", "_clamped_nll"])
def test_alignment_check_runs_the_library_code(monkeypatch, helper):
    # Doubling the code behind alignment_gradient (or the clamped -log p
    # behind alignment_term) must show up in the checker's alignment row.
    exact = getattr(loss, helper)
    monkeypatch.setattr(loss, helper, lambda *args: 2.0 * exact(*args))
    rows = {row["component"]: row for row in gradient_check_rows(0, 5, 8)}
    assert rows["alignment"]["max_rel_error"] > 0.1
    assert rows["contrastive_pull"]["max_rel_error"] < 1e-4


def test_contrastive_check_runs_the_library_code(monkeypatch):
    # contrastive_term and the checker's pull and push rows share
    # _row_cosines, so doubling it must change the term and show up in
    # both rows.
    pair = random_pair(np.random.default_rng(0), 8)
    before = contrastive_term(pair, True)
    exact = loss._row_cosines
    monkeypatch.setattr(loss, "_row_cosines", lambda *args: 2.0 * exact(*args))
    assert contrastive_term(pair, True) != before
    rows = {row["component"]: row for row in gradient_check_rows(0, 5, 8)}
    assert rows["contrastive_pull"]["max_rel_error"] > 0.1
    assert rows["contrastive_push"]["max_rel_error"] > 0.1
    assert rows["alignment"]["max_rel_error"] < 1e-4


def test_gradient_check_rows_rejects_step_out_of_range():
    with pytest.raises(ConfigError, match=r"step h must lie in \[1e-7, 1e-3\], got 0.01"):
        gradient_check_rows(points=1, dim=4, h=1e-2)


def test_finite_diff_check_rejects_non_finite_gradient():
    point = np.array([1.0, 2.0])
    with pytest.raises(NumericFailure):
        finite_diff_check(lambda x: float(np.sum(x * x)), lambda x: x * np.inf, point)


def test_composite_loss_rejects_non_finite():
    pair = EmbeddingPair(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    pred = _pred(UNIFORM_10, ActionCategory.DODGE)
    with pytest.raises(NumericFailure):
        composite_loss(pair, pred, _label(ActionCategory.DODGE), l_lang=float("inf"))


@pytest.mark.parametrize("points", [0, -1])
def test_gradient_check_rows_rejects_fewer_than_one_point(points):
    with pytest.raises(ConfigError, match="at least 1 point"):
        gradient_check_rows(points=points, dim=4)


@pytest.mark.parametrize(
    "kwargs, reason",
    [
        ({"dim": 1}, "dim from 2 to 4096, got 1"),
        ({"dim": 0}, "dim from 2 to 4096, got 0"),
        ({"dim": -1}, "dim from 2 to 4096, got -1"),
        ({"dim": 4097}, "dim from 2 to 4096, got 4097"),
        ({"dim": 10**20}, "dim from 2 to 4096, got 100000000000000000000"),
        ({"seed": -1}, "seed of at least 0, got -1"),
    ],
)
def test_gradient_check_rows_rejects_a_dim_out_of_range_and_a_negative_seed(kwargs, reason):
    with pytest.raises(ConfigError, match=reason):
        gradient_check_rows(points=1, **{"dim": 4, **kwargs})
