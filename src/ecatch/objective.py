"""Classification head and the composite training objective.

Per-post probabilities are read out from the row of the last window
containing the post in the event's (T, d) trend-state matrix (for
single-window events this collapses to one probability per event). The
classification loss is a per-event weighted cross-entropy summed over events;
class weights adapt to the per-event (or global) training label counts.
Optional hard-example mining keeps only the globally highest-loss fraction of
training posts. The temporal-consistency term penalizes large aligned jumps
between consecutive trend states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, linear
from .clustering import PseudoEvent
from .params import ModelParams
from .windows import WindowSequence

PROB_CLAMP = 1e-12
NORM_GUARD = 1e-12
WEIGHT_SCOPES = ("event", "global")


class ObjectiveError(ValueError):
    pass


def class_weights(
    labels: np.ndarray,
    member_indices,
    train_mask: np.ndarray,
    epsilon: float,
) -> tuple[float, float]:
    """Adaptive weights mean_count / (count_c + epsilon) over training posts."""
    if epsilon <= 0:
        raise ObjectiveError("epsilon must be positive")
    idx = [i for i in member_indices if train_mask[i]]
    n1 = int(sum(labels[i] for i in idx))
    n0 = len(idx) - n1
    nbar = (n0 + n1) / 2.0
    return nbar / (n0 + epsilon), nbar / (n1 + epsilon)


def classifier_probability(hidden: Tensor, params: ModelParams) -> Tensor:
    """Sigmoid of the linear readout of each trend-state row: (T, 1) in (0, 1)."""
    return linear(hidden, params["clf.W_c"], params["clf.b_c"]).sigmoid()


@dataclass
class EventProbabilities:
    window_probs: Tensor                # (T, 1), row t-1 for window t
    last_window_of: dict[int, int]      # post -> 1-based window index


def post_probabilities(
    events: list[PseudoEvent],
    window_seqs: dict[int, WindowSequence],
    states: dict[int, Tensor],
    params: ModelParams,
    n_posts: int,
) -> tuple[np.ndarray, dict[int, float], dict[int, EventProbabilities]]:
    """Per-post probability via each post's last covering window.

    Returns the dense per-post array, the per-event probability (last
    window's readout), and the graph nodes needed to assemble losses.
    """
    p_post = np.full(n_posts, np.nan)
    p_event: dict[int, float] = {}
    nodes: dict[int, EventProbabilities] = {}
    for ev in events:
        seq = window_seqs[ev.event_id]
        hidden = states[ev.event_id]
        if hidden.shape[0] != len(seq.windows):
            raise ObjectiveError(
                f"event {ev.event_id}: {hidden.shape[0]} states for "
                f"{len(seq.windows)} windows"
            )
        probs = classifier_probability(hidden, params)
        last_of = seq.last_window_of()
        for post in ev.member_indices:
            if post not in last_of:
                raise ObjectiveError(
                    f"post {post} of event {ev.event_id} is not covered by any window"
                )
            p_post[post] = probs.data[last_of[post] - 1, 0]
        p_event[ev.event_id] = probs.data[-1, 0].item()
        nodes[ev.event_id] = EventProbabilities(probs, last_of)
    return p_post, p_event, nodes


@dataclass
class CETerm:
    post_index: int
    event_id: int
    value: float
    window: int    # 1-based index of the post's last covering window
    label: int
    weight: float  # class weight of ``label`` in the post's event


def ce_terms(
    events: list[PseudoEvent],
    prob_nodes: dict[int, EventProbabilities],
    labels: np.ndarray,
    train_mask: np.ndarray,
    epsilon: float,
    adaptive: bool,
    weight_scope: str = "event",
) -> tuple[list[CETerm], dict[int, tuple[float, float]]]:
    """Weighted cross-entropy value per training post, plus each event's weights."""
    if weight_scope not in WEIGHT_SCOPES:
        raise ObjectiveError(f"unknown weight scope {weight_scope!r}")

    global_w = None
    if weight_scope == "global":
        all_members = [i for ev in events for i in ev.member_indices]
        global_w = class_weights(labels, all_members, train_mask, epsilon)

    terms: list[CETerm] = []
    weights_by_event: dict[int, tuple[float, float]] = {}
    for ev in events:
        if adaptive:
            w01 = global_w if global_w is not None else class_weights(
                labels, ev.member_indices, train_mask, epsilon
            )
        else:
            w01 = (1.0, 1.0)
        weights_by_event[ev.event_id] = w01
        ep = prob_nodes[ev.event_id]
        p = np.clip(ep.window_probs.data[:, 0], PROB_CLAMP, 1.0 - PROB_CLAMP)
        logs = np.log([1.0 - p, p])  # row y: log-likelihood of label y
        for post in ev.member_indices:
            if not train_mask[post]:
                continue
            t, y = ep.last_window_of[post], int(labels[post])
            w = w01[y]
            terms.append(CETerm(post, ev.event_id, (-w * logs[y, t - 1]).item(), t, y, w))
    return terms, weights_by_event


def ce_loss(probs: Tensor, terms: list[CETerm]) -> Tensor:
    """Sum of one event's selected CE terms over its (T, 1) window probabilities;
    per class, one coefficient array sums each window's negated post weights."""
    coef = np.zeros((2,) + probs.shape)
    for term in terms:
        coef[term.label, term.window - 1, 0] -= term.weight
    p = probs.clip(PROB_CLAMP, 1.0 - PROB_CLAMP)
    return (p.log() * coef[1] + (1.0 - p).log() * coef[0]).sum()


def mine_hard_examples(terms: list[CETerm], rho: float) -> list[CETerm]:
    """Keep the ceil(rho * N) highest-loss terms; ties favor lower post index."""
    if not 0.0 < rho <= 1.0:
        raise ObjectiveError(f"mining fraction must be in (0, 1], got {rho}")
    if rho == 1.0:
        return list(terms)
    k = math.ceil(rho * len(terms))
    ranked = sorted(terms, key=lambda t: (-t.value, t.post_index))
    return ranked[:k]


def tc_terms(hidden: Tensor, clamp_negative_sim: bool = False) -> Tensor | None:
    """Sum over t>=2 of |T_t - T_{t-1}|^2 * cos(T_t, T_{t-1}) for one event.

    ``hidden`` is the event's (T, d) trend-state matrix; the result is one
    node over it. Returns None when no window pair contributes (short
    events, zero-norm guard, or clamped-away negative similarity).
    """
    h = hidden.data
    norms = np.sqrt(np.sum(h * h, axis=1, keepdims=True))
    pairs = (norms[1:] >= NORM_GUARD) & (norms[:-1] >= NORM_GUARD)
    # The floor only changes pairs that the guard drops.
    sim = (np.sum(h[1:] * h[:-1], axis=1, keepdims=True)
           / np.maximum(norms[1:] * norms[:-1], NORM_GUARD * NORM_GUARD))
    if clamp_negative_sim:
        pairs &= sim >= 0.0
    rows = np.flatnonzero(pairs)
    if rows.size == 0:
        return None
    a, b, na, nb, sim = h[rows + 1], h[rows], norms[rows + 1], norms[rows], sim[rows]
    diff = a - b
    sq = np.sum(diff * diff, axis=1, keepdims=True)

    def vjp(g: np.ndarray):
        # d(sim)/da = b / (|a||b|) - sim * a / |a|^2, and b mirrors a.
        ga = 2.0 * sim * diff + sq * (b / (na * nb) - sim * a / (na * na))
        gb = -2.0 * sim * diff + sq * (a / (na * nb) - sim * b / (nb * nb))
        grad = np.zeros_like(h)
        grad[rows + 1] += ga
        grad[rows] += gb
        return (g * grad,)

    return Tensor(np.sum(sq * sim), (hidden,), vjp)


@dataclass
class LossReport:
    """Loss decomposition plus every per-post probability."""

    ce_by_event: dict[int, float]
    tc_by_event: dict[int, float]
    ce: float
    tc: float
    reg: float
    total: float
    p_post: np.ndarray
    p_event: dict[int, float]
    mined: np.ndarray  # True where the post's CE term entered the loss
    lambda_tc: float = 0.0
    lambda_reg: float = 0.0


def total_loss(ce: float, tc: float, params: ModelParams,
               lambda_tc: float, lambda_reg: float) -> tuple[float, float]:
    """(total, reg) where total = ce + lambda_tc*tc + lambda_reg*|params|^2."""
    if lambda_tc < 0 or lambda_reg < 0:
        raise ObjectiveError("loss multipliers must be >= 0")
    reg = params.l2_squared()
    return ce + lambda_tc * tc + lambda_reg * reg, reg
