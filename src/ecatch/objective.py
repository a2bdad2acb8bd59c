"""Classification head and the composite training objective.

Every event's (T, d) trend-state matrix is stacked, in ascending event_id,
into one (sum T, d) matrix, and one ``linear`` node reads it out into
logits. A post's probability is the sigmoid of the row of the last window
containing it (for single-window events this collapses to one probability
per event). The loss is two nodes over that stack: :func:`ce_loss`, the
weighted cross-entropy of every selected training post, whose class weights
adapt to the per-event (or global) training label counts, and
:func:`tc_terms`, the temporal-consistency term, which penalizes large
aligned jumps between consecutive trend states of one event. Optional
hard-example mining keeps only the globally highest-loss fraction of
training posts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, concat, linear, stable_sigmoid
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


@dataclass
class Readout:
    """Every event's trend states, stacked in ascending event_id, read out."""

    states: Tensor            # (R, d), R the windows of all events
    logits: Tensor            # (R, 1)
    probs: np.ndarray         # (R,) sigmoid of the logits
    event_ids: list[int]
    offsets: np.ndarray       # event k owns rows offsets[k]:offsets[k + 1]
    rows: dict[int, dict[int, int]]  # event -> post -> row of its last covering window

    def ce_coefficients(self, terms: list["CETerm"]) -> np.ndarray:
        """Per class, each row's negated sum of the weights of ``terms``: (2, R)."""
        coef = np.zeros((2, self.probs.size))
        for term in terms:
            coef[term.label, term.row] -= term.weight
        return coef


def post_probabilities(
    events: list[PseudoEvent],
    window_seqs: dict[int, WindowSequence],
    states: dict[int, Tensor],
    params: ModelParams,
    n_posts: int,
) -> tuple[np.ndarray, dict[int, float], Readout]:
    """Per-post probability via each post's last covering window.

    Returns the dense per-post array, the per-event probability (last
    window's readout), and the readout the losses are built on.
    """
    ordered = sorted(events, key=lambda e: e.event_id)
    offsets = np.zeros(len(ordered) + 1, dtype=np.intp)
    rows: dict[int, dict[int, int]] = {}
    for k, ev in enumerate(ordered):
        seq = window_seqs[ev.event_id]
        steps = states[ev.event_id].shape[0]
        if steps != len(seq.windows):
            raise ObjectiveError(
                f"event {ev.event_id}: {steps} states for {len(seq.windows)} windows"
            )
        last_of = seq.last_window_of()
        uncovered = [post for post in ev.member_indices if post not in last_of]
        if uncovered:
            raise ObjectiveError(
                f"post {uncovered[0]} of event {ev.event_id} is not covered by any window"
            )
        rows[ev.event_id] = {post: int(offsets[k]) + last_of[post] - 1
                             for post in ev.member_indices}
        offsets[k + 1] = offsets[k] + steps

    stacked = (concat([states[ev.event_id] for ev in ordered]) if ordered
               else Tensor(np.zeros((0, params.d))))
    logits = linear(stacked, params["clf.W_c"], params["clf.b_c"])
    probs = stable_sigmoid(logits.data[:, 0])
    p_post = np.full(n_posts, np.nan)
    for of_event in rows.values():
        p_post[list(of_event)] = probs[list(of_event.values())]
    p_event = {ev.event_id: probs[offsets[k + 1] - 1].item() for k, ev in enumerate(ordered)}
    readout = Readout(stacked, logits, probs, [ev.event_id for ev in ordered], offsets, rows)
    return p_post, p_event, readout


@dataclass
class CETerm:
    post_index: int
    event_id: int
    value: float
    row: int       # readout row of the post's last covering window
    label: int
    weight: float  # class weight of ``label`` in the post's event


def ce_terms(
    events: list[PseudoEvent],
    readout: Readout,
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

    p = np.clip(readout.probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    logs = np.log([1.0 - p, p])  # row y: log-likelihood of label y
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
        for post in ev.member_indices:
            if not train_mask[post]:
                continue
            row, y = readout.rows[ev.event_id][post], int(labels[post])
            w = w01[y]
            terms.append(CETerm(post, ev.event_id, (-w * logs[y, row]).item(), row, y, w))
    return terms, weights_by_event


def ce_loss(logits: Tensor, coef: np.ndarray) -> Tensor:
    """Weighted cross-entropy over (R, 1) logits as one node.

    With p the sigmoid of the logits clipped to [PROB_CLAMP, 1 - PROB_CLAMP],
    the value is the sum of coef[1] * log p + coef[0] * log(1 - p); ``coef``
    (2, R) holds each row's negated post weights per class (see
    :meth:`Readout.ce_coefficients`). A clipped p passes no gradient.
    """
    p = stable_sigmoid(logits.data[:, 0])
    inside = (p > PROB_CLAMP) & (p < 1.0 - PROB_CLAMP)
    q = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    value = np.sum(np.log(q) * coef[1] + np.log(1.0 - q) * coef[0])

    def vjp(g: np.ndarray):
        return ((g * inside * (coef[1] * (1.0 - p) - coef[0] * p))[:, None],)

    return Tensor(value, (logits,), vjp)


def mine_hard_examples(terms: list[CETerm], rho: float) -> list[CETerm]:
    """Keep the ceil(rho * N) highest-loss terms; ties favor lower post index."""
    if not 0.0 < rho <= 1.0:
        raise ObjectiveError(f"mining fraction must be in (0, 1], got {rho}")
    if rho == 1.0:
        return list(terms)
    k = math.ceil(rho * len(terms))
    ranked = sorted(terms, key=lambda t: (-t.value, t.post_index))
    return ranked[:k]


def tc_terms(
    states: Tensor,
    clamp_negative_sim: bool = False,
    offsets=None,
) -> tuple[Tensor | None, np.ndarray]:
    """Sum over t>=2 of |T_t - T_{t-1}|^2 * cos(T_t, T_{t-1}) within each event.

    ``states`` stacks the events' trend-state matrices, event k in rows
    ``offsets[k]:offsets[k + 1]`` (one event when ``offsets`` is None), and
    no pair crosses two events. Returns one node over ``states`` for the
    whole sum, or None when no pair contributes (short events, the zero-norm
    guard, or clamped-away negative similarity), and each event's sum.
    """
    h = states.data
    offsets = np.array([0, h.shape[0]]) if offsets is None else np.asarray(offsets)
    event_of = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
    norms = np.sqrt(np.sum(h * h, axis=1, keepdims=True))
    pairs = ((event_of[1:] == event_of[:-1])[:, None]
             & (norms[1:] >= NORM_GUARD) & (norms[:-1] >= NORM_GUARD))
    # The floor only changes pairs that the guard drops.
    sim = (np.sum(h[1:] * h[:-1], axis=1, keepdims=True)
           / np.maximum(norms[1:] * norms[:-1], NORM_GUARD * NORM_GUARD))
    if clamp_negative_sim:
        pairs &= sim >= 0.0
    rows = np.flatnonzero(pairs)
    a, b, na, nb, sim = h[rows + 1], h[rows], norms[rows + 1], norms[rows], sim[rows]
    diff = a - b
    sq = np.sum(diff * diff, axis=1, keepdims=True)
    values = (sq * sim)[:, 0]
    by_event = np.bincount(event_of[rows], weights=values, minlength=offsets.size - 1)
    if rows.size == 0:
        return None, by_event

    def vjp(g: np.ndarray):
        # d(sim)/da = b / (|a||b|) - sim * a / |a|^2, and b mirrors a.
        ga = 2.0 * sim * diff + sq * (b / (na * nb) - sim * a / (na * na))
        gb = -2.0 * sim * diff + sq * (a / (na * nb) - sim * b / (nb * nb))
        grad = np.zeros_like(h)
        grad[rows + 1] += ga
        grad[rows] += gb
        return (g * grad,)

    return Tensor(np.sum(values), (states,), vjp), by_event


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
