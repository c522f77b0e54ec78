"""Action-weighted loss terms and a finite-difference gradient checker.

A decision is scored against its label in embedding space and in
category space. When the model's output contains the critical labelled
action, a pull term tightens the embedding of the emitted action toward
the label embedding; when it misses, the pull flips sign into a push and
a category alignment penalty is added. The combined action loss is
scaled by the critical action's priority weight and added to the plain
language-model loss.

Every analytic gradient here is verified against central differences.
``gradient_check_rows`` is the batched checker behind the ``loss check``
CLI command and the acceptance suite; ``finite_diff_check``, one
gradient at a time, is the scalar reference the tests compare against.
Each numeric gradient is one evaluation of a ``(2d, d)`` stack of
perturbed points, ``x + [diag(steps); -diag(steps)]``, and the pull's
uniform-step stack is built once per size and step and shared. The
rows match, bit for bit, those of one call on ``x + diag(steps)`` and
one on ``x - diag(steps)``: IEEE subtraction is addition of the
negation, and the minus half's ``-0.0`` zeros keep a ``-0.0``
coordinate's sign as ``x - 0.0`` does. Vector norms take numpy's own
path for ``np.linalg.norm`` of a 1-D vector, without its wrapper.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .actions import PRIORITY_ORDER, PRIORITY_WEIGHTS, ActionCategory, ActionSet, priority_match
from .errors import ClampedProbability, ConfigError, DegenerateEmbedding, NumericFailure

__all__ = [
    "PROB_CLAMP",
    "EmbeddingPair",
    "ActionPrediction",
    "LossBreakdown",
    "cosine_similarity",
    "contrastive_term",
    "contrastive_gradients",
    "alignment_term",
    "alignment_gradient",
    "composite_loss",
    "central_difference_gradient",
    "finite_diff_check",
    "gradient_check_rows",
    "random_pair",
]

PROB_CLAMP = 1e-12

_NORM_FLOOR = 0.0  # any strictly positive norm is accepted
_STEP_STACKS = 8  # cached uniform-step stacks, one per (size, h)
# The widest gradient check: its (4 dim, 2 dim) step stack takes 64 dim**2
# bytes, 1 GiB at 4096; a wider one runs out of memory or past numpy's sizes.
_MAX_DIM = 4096


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm(x)`` of a 1-D float vector, bit for bit: the same
    ``ravel(order="K")``, ``dot`` and correctly rounded square root."""
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


def _as_vector(x: Sequence[float] | np.ndarray, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size < 2:
        raise DegenerateEmbedding(f"{name} must be a 1-D vector of dim >= 2")
    if not np.isfinite(v).all():
        raise NumericFailure(f"{name} contains non-finite values")
    if _norm(v) <= _NORM_FLOOR:
        raise DegenerateEmbedding(f"{name} has zero norm")
    return v


class EmbeddingPair:
    """Terminal-token embeddings of the emitted and labelled action text.

    Its two slots are set by the constructor, as checked float vectors,
    and cannot be set again. Equal only to itself: it holds arrays.
    """

    __slots__ = ("v_eos", "a_eos")

    def __init__(self, v_eos: Sequence[float] | np.ndarray, a_eos: Sequence[float] | np.ndarray):
        v = _as_vector(v_eos, "v_eos")
        a = _as_vector(a_eos, "a_eos")
        if v.shape != a.shape:
            raise DegenerateEmbedding("v_eos and a_eos must share a dimension")
        object.__setattr__(self, "v_eos", v)
        object.__setattr__(self, "a_eos", a)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an EmbeddingPair")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an EmbeddingPair")

    def __repr__(self) -> str:
        return f"EmbeddingPair(v_eos={self.v_eos!r}, a_eos={self.a_eos!r})"

    def __reduce__(self) -> tuple:
        return (self.__class__, (self.v_eos, self.a_eos))


class ActionPrediction:
    """Category distribution plus the decoded output set of one decision.

    ``probs[i]`` is the probability of ``PRIORITY_ORDER[i]``. Its two
    slots are set by the constructor and cannot be set again. Equal only
    to itself: it holds an array.
    """

    __slots__ = ("probs", "output_set")

    def __init__(self, probs: Sequence[float] | np.ndarray, output_set: ActionSet):
        p = np.asarray(probs, dtype=np.float64)
        if p.shape != (len(PRIORITY_ORDER),):
            raise ValueError(f"probs must have shape ({len(PRIORITY_ORDER)},)")
        if not np.isfinite(p).all():
            raise NumericFailure("probs contain non-finite values")
        if (p < 0.0).any():
            raise ValueError("probs cannot be negative")
        if abs(float(p.sum()) - 1.0) > 1e-8:
            raise ValueError(f"probs must sum to 1, got {float(p.sum())!r}")
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "output_set", output_set)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an ActionPrediction")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an ActionPrediction")

    def __repr__(self) -> str:
        return f"ActionPrediction(probs={self.probs!r}, output_set={self.output_set!r})"

    def __reduce__(self) -> tuple:
        return (self.__class__, (self.probs, self.output_set))

    def prob_of(self, category: ActionCategory) -> float:
        return float(self.probs[category.priority_rank])


class LossBreakdown(NamedTuple):
    l_lang: float
    l_con: float
    l_align: float
    l_act: float
    alpha: float
    total: float
    c_star: ActionCategory
    matched: bool


# ------------------------------------------------------------ loss terms

def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot product of each row pair, as ``np.dot`` computes it on one row."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def _row_cosines(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``cos(v, a)`` for each row pair of two ``(n, d)`` stacks.

    ``cosine_similarity`` runs this on a one-row stack, and the gradient
    checker on its stacks of perturbed points, so both use one formula.
    """
    return _row_dots(v, a) / (np.sqrt(_row_dots(v, v)) * np.sqrt(_row_dots(a, a)))


def cosine_similarity(v: np.ndarray, a: np.ndarray) -> float:
    v = _as_vector(v, "v")
    a = _as_vector(a, "a")
    return float(_row_cosines(v[None], a[None])[0])


def contrastive_term(pair: EmbeddingPair, matched: bool) -> float:
    """1 - cos(v, a) on a match; its negation on a miss."""
    pull = 1.0 - cosine_similarity(pair.v_eos, pair.a_eos)
    return pull if matched else -pull


def contrastive_gradients(pair: EmbeddingPair, matched: bool) -> tuple[np.ndarray, np.ndarray]:
    """Analytic d(term)/dv and d(term)/da for ``contrastive_term``."""
    v, a = pair.v_eos, pair.a_eos
    nv, na = _norm(v), _norm(a)
    cos = float(np.dot(v, a) / (nv * na))
    dcos_dv = a / (nv * na) - cos * v / (nv * nv)
    dcos_da = v / (nv * na) - cos * a / (na * na)
    sign = -1.0 if matched else 1.0
    return sign * dcos_dv, sign * dcos_da


def _clamped_nll(p: float | np.ndarray) -> np.ndarray:
    """``-log p`` elementwise, with ``p`` clamped below at ``PROB_CLAMP``."""
    return -np.log(np.maximum(p, PROB_CLAMP))


def _alignment_gradient(probs: np.ndarray, rank: int) -> np.ndarray:
    """Gradient of ``-log probs[rank]`` (clamped) w.r.t. ``probs``."""
    grad = np.zeros(probs.shape)
    grad[rank] = -1.0 / max(float(probs[rank]), PROB_CLAMP)
    return grad


def alignment_term(pred: ActionPrediction, c_star: ActionCategory) -> float:
    """Negative log-probability of the critical category, clamped at 1e-12."""
    p = pred.prob_of(c_star)
    if p < PROB_CLAMP:
        warnings.warn(
            f"p({c_star.name}) = {p!r} clamped to {PROB_CLAMP}", ClampedProbability
        )
    return float(_clamped_nll(p))


def alignment_gradient(pred: ActionPrediction, c_star: ActionCategory) -> np.ndarray:
    """Analytic gradient of ``alignment_term`` w.r.t. the raw probabilities."""
    return _alignment_gradient(pred.probs, c_star.priority_rank)


def composite_loss(
    pair: EmbeddingPair,
    pred: ActionPrediction,
    label: ActionSet,
    l_lang: float,
) -> LossBreakdown:
    """Weighted action loss on top of the language loss.

    Matched decisions pay only the pull; mismatched decisions pay the
    push plus the category alignment penalty. The weight is
    ``PRIORITY_WEIGHTS[c_star.priority_rank]``, the critical action's
    rank weight.
    """
    c_star, matched = priority_match(label, pred.output_set)
    l_con = contrastive_term(pair, matched)
    l_align = 0.0 if matched else alignment_term(pred, c_star)
    l_act = l_con + l_align
    alpha = PRIORITY_WEIGHTS[c_star.priority_rank]
    total = l_lang + alpha * l_act
    if not math.isfinite(total):
        raise NumericFailure(f"composite loss is non-finite: {total!r}")
    return LossBreakdown(
        l_lang=float(l_lang),
        l_con=l_con,
        l_align=l_align,
        l_act=l_act,
        alpha=alpha,
        total=total,
        c_star=c_star,
        matched=matched,
    )


# ------------------------------------------------------- gradient checks

def _check_step(h: float) -> None:
    if not 1e-7 <= h <= 1e-3:
        raise ConfigError(f"step h must lie in [1e-7, 1e-3], got {h!r}")


def _step_stack(steps: np.ndarray) -> np.ndarray:
    """The ``(2d, d)`` stack ``[diag(steps); -diag(steps)]``.

    The minus half is negated whole, so its zeros are ``-0.0``: adding
    them keeps every coordinate's bits, a ``-0.0`` included, as
    subtracting ``+0.0`` does.
    """
    bump = np.diag(steps)
    return np.concatenate((bump, -bump))


@functools.lru_cache(maxsize=_STEP_STACKS)
def _uniform_step_stack(size: int, h: float) -> np.ndarray:
    """``_step_stack`` of ``size`` equal steps ``h``, built once and read-only."""
    stack = _step_stack(np.full(size, h))
    stack.flags.writeable = False
    return stack


def _central_differences(
    fn_rows: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    steps: float | np.ndarray,
    stack: np.ndarray,
) -> np.ndarray:
    """Symmetric differences along every coordinate in one stacked evaluation.

    ``stack`` is ``_step_stack(steps)``, so row ``i`` of ``x + stack`` is
    ``x + steps[i] * e_i`` and row ``d + i`` is ``x - steps[i] * e_i``, bit
    for bit; ``fn_rows`` maps the ``(2d, d)`` stack to its ``2d`` values.
    ``steps`` may be one float for equal steps.
    """
    values = fn_rows(x + stack)
    d = x.size
    return (values[:d] - values[d:]) / (2.0 * steps)


def _max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst coordinate error, relative to the larger of the two magnitudes.

    Where both magnitudes are below 1e-6 the absolute difference counts
    instead. A central difference at step ``h`` carries roundoff of about
    ``eps * |f| / h``, near 1e-11 at ``h = 1e-5``, so against a gradient of
    a few times 1e-8 that noise alone reads above a 1e-4 tolerance.
    """
    if not (np.isfinite(analytic).all() and np.isfinite(numeric).all()):
        raise NumericFailure("non-finite gradient encountered")
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    err = np.divide(diff, scale, out=diff.copy(), where=scale >= 1e-6)
    return float(err.max(initial=0.0))


def _pull_rows(points: np.ndarray, dim: int) -> np.ndarray:
    """``1 - cos(v, a)`` for every row ``[v | a]`` of a stack of points:
    ``contrastive_term``'s pull, through the same ``_row_cosines``."""
    return 1.0 - _row_cosines(points[:, :dim], points[:, dim:])


def _pull_numeric_gradient(flat: np.ndarray, dim: int, h: float) -> np.ndarray:
    """Central differences of the pull term at ``flat = [v | a]``."""
    return _central_differences(
        lambda rows: _pull_rows(rows, dim), flat, h, _uniform_step_stack(flat.size, h)
    )


def central_difference_gradient(
    fn: Callable[[np.ndarray], float], point: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    """Numeric gradient of a scalar ``fn`` via symmetric differences."""
    _check_step(h)
    x = np.asarray(point, dtype=np.float64)
    return _central_differences(
        lambda rows: np.array([fn(row) for row in rows], dtype=np.float64),
        x,
        h,
        _step_stack(np.full(x.size, h)),
    )


def finite_diff_check(
    fn: Callable[[np.ndarray], float],
    grad_fn: Callable[[np.ndarray], np.ndarray],
    point: np.ndarray,
    h: float = 1e-5,
) -> float:
    """Max relative error between an analytic gradient and central differences.

    Relative error per coordinate uses the larger of the two magnitudes
    as denominator; coordinates where both are below 1e-6 compare by
    absolute difference, since there the differences' roundoff is no
    longer small against the gradient.
    """
    x = np.asarray(point, dtype=np.float64)
    analytic = np.asarray(grad_fn(x), dtype=np.float64)
    if analytic.shape != x.shape:
        raise NumericFailure("analytic gradient shape mismatch")
    return _max_rel_error(analytic, central_difference_gradient(fn, x, h))


def random_pair(rng: np.random.Generator, dim: int) -> EmbeddingPair:
    v = rng.normal(size=dim)
    a = rng.normal(size=dim)
    return EmbeddingPair(v / _norm(v), a / _norm(a))


def gradient_check_rows(
    seed: int = 0, points: int = 100, dim: int = 64, h: float = 1e-5
) -> list[dict]:
    """Sweep random points and report per-component worst errors.

    One row per checked component: the pull and push branches of the
    contrastive term (w.r.t. both embeddings jointly) and the alignment
    term (w.r.t. the probability vector). Each point's perturbed
    embeddings are evaluated as one stack, and the push branch's numeric
    gradient is the pull's negated, which is exact in IEEE arithmetic.
    The alignment row runs the array code behind ``alignment_term`` and
    ``alignment_gradient`` on the raw probabilities, with no
    ``ActionPrediction`` built per point.

    The contrastive steps are ``h``. The alignment check is relative to
    ``p``: coordinate ``i`` steps by ``h * p[i]``, because ``-log p``
    bends so sharply at small ``p`` that a fixed step's truncation error
    (about ``h**2 / (3 * p**2)``) passes 1e-4. Rows report ``step = h``.
    ``points`` below 1 is a ``ConfigError``: such a sweep checks nothing.
    So are a ``dim`` below 2, which leaves a unit vector no direction to
    move in, or above 4096, and a negative ``seed``, which numpy's
    generator refuses.
    """
    _check_step(h)
    if points < 1:
        raise ConfigError(f"gradient check needs at least 1 point, got {points!r}")
    if not 2 <= dim <= _MAX_DIM:
        raise ConfigError(f"gradient check needs dim from 2 to {_MAX_DIM}, got {dim!r}")
    if seed < 0:
        raise ConfigError(f"gradient check needs a seed of at least 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    names = ("contrastive_pull", "contrastive_push", "alignment")
    worst = dict.fromkeys(names, 0.0)
    analytic_norms = dict.fromkeys(names, 0.0)
    fd_norms = dict.fromkeys(names, 0.0)

    def record(name: str, analytic: np.ndarray, numeric: np.ndarray) -> None:
        worst[name] = max(worst[name], _max_rel_error(analytic, numeric))
        analytic_norms[name] += _norm(analytic)
        fd_norms[name] += _norm(numeric)

    for _ in range(points):
        pair = random_pair(rng, dim)
        pull = _pull_numeric_gradient(np.concatenate([pair.v_eos, pair.a_eos]), dim, h)
        record("contrastive_pull", np.concatenate(contrastive_gradients(pair, True)), pull)
        record("contrastive_push", np.concatenate(contrastive_gradients(pair, False)), -pull)

        probs = rng.exponential(size=len(PRIORITY_ORDER))
        probs = probs / probs.sum()
        idx = PRIORITY_ORDER[int(rng.integers(len(PRIORITY_ORDER)))].priority_rank
        steps = h * probs
        numeric = _central_differences(
            lambda rows: _clamped_nll(rows[:, idx]), probs, steps, _step_stack(steps)
        )
        record("alignment", _alignment_gradient(probs, idx), numeric)

    return [
        {
            "component": name,
            "points": points,
            "dim": dim,
            "step": h,
            "analytic_grad_norm": analytic_norms[name] / points,
            "fd_grad_norm": fd_norms[name] / points,
            "max_rel_error": worst[name],
        }
        for name in names
    ]
