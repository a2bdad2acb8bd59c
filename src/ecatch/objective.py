"""Classification head and the composite training objective.

Per-post probabilities are read out from the trend state of the last window
containing the post (for single-window events this collapses to one
probability per event). The classification loss is a per-event weighted
cross-entropy summed over events; class weights adapt to the per-event (or
global) training label counts. Optional hard-example mining keeps only the
globally highest-loss fraction of training posts. The temporal-consistency
term penalizes large aligned jumps between consecutive trend states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, l2norm, linear
from .clustering import PseudoEvent
from .params import ModelParams
from .trend import TrendState
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


def classifier_probability(state: TrendState, params: ModelParams) -> Tensor:
    """Sigmoid of the linear readout of one trend state: (1, 1) in (0, 1)."""
    return linear(state.hidden, params["clf.W_c"], params["clf.b_c"]).sigmoid()


@dataclass
class EventProbabilities:
    event_id: int
    window_probs: list[Tensor]          # (1,1) node per window, index t-1
    last_window_of: dict[int, int]      # post -> 1-based window index


def post_probabilities(
    events: list[PseudoEvent],
    window_seqs: dict[int, WindowSequence],
    states: dict[int, list[TrendState]],
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
        ev_states = states[ev.event_id]
        if len(ev_states) != len(seq.windows):
            raise ObjectiveError(
                f"event {ev.event_id}: {len(ev_states)} states for "
                f"{len(seq.windows)} windows"
            )
        probs = [classifier_probability(s, params) for s in ev_states]
        last_of = seq.last_window_of()
        for post in ev.member_indices:
            if post not in last_of:
                raise ObjectiveError(
                    f"post {post} of event {ev.event_id} is not covered by any window"
                )
            p_post[post] = probs[last_of[post] - 1].item()
        p_event[ev.event_id] = probs[-1].item()
        nodes[ev.event_id] = EventProbabilities(ev.event_id, probs, last_of)
    return p_post, p_event, nodes


@dataclass
class CETerm:
    post_index: int
    event_id: int
    value: float
    node: Tensor  # scalar-shaped (1, 1)


def ce_terms(
    events: list[PseudoEvent],
    prob_nodes: dict[int, EventProbabilities],
    labels: np.ndarray,
    train_mask: np.ndarray,
    epsilon: float,
    adaptive: bool,
    weight_scope: str = "event",
) -> tuple[list[CETerm], dict[int, tuple[float, float]]]:
    """Weighted cross-entropy term per training post (graph nodes + values)."""
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
        log_cache: dict[int, tuple[Tensor, Tensor]] = {}
        for post in ev.member_indices:
            if not train_mask[post]:
                continue
            t = ep.last_window_of[post]
            if t not in log_cache:
                p = ep.window_probs[t - 1].clip(PROB_CLAMP, 1.0 - PROB_CLAMP)
                log_cache[t] = (p.log(), (1.0 - p).log())
            log_p, log_q = log_cache[t]
            y = int(labels[post])
            w = w01[y]
            node = (-w) * (log_p if y == 1 else log_q)
            terms.append(CETerm(post, ev.event_id, node.item(), node))
    return terms, weights_by_event


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
    states: list[TrendState], clamp_negative_sim: bool = False
) -> Tensor | None:
    """Sum over t>=2 of |T_t - T_{t-1}|^2 * cos(T_t, T_{t-1}) for one event.

    Returns None when no window pair contributes (short events, zero-norm
    guard, or clamped-away negative similarity).
    """
    total: Tensor | None = None
    for t in range(1, len(states)):
        a, b = states[t].hidden, states[t - 1].hidden
        na = float(np.sqrt(np.sum(a.data * a.data)))
        nb = float(np.sqrt(np.sum(b.data * b.data)))
        if na < NORM_GUARD or nb < NORM_GUARD:
            continue
        sim_value = float((a.data * b.data).sum()) / (na * nb)
        if clamp_negative_sim and sim_value < 0.0:
            continue
        diff = a - b
        sq = (diff * diff).sum()
        sim = (a * b).sum() / (l2norm(a) * l2norm(b))
        term = sq * sim
        total = term if total is None else total + term
    return total


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
