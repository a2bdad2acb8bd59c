"""Classification head and the composite training objective.

The trend stage hands over one (R, d) matrix that stacks every event's
trend states in ascending event_id (see ``training.run_model``), and
:func:`post_probabilities` reads it out into a :class:`Readout`, with the
window list ``run_model`` stacked row for row with it: a post's probability
is the sigmoid of the logit of the last window containing it. The readout
lists every (event, post) membership with that row as aligned index arrays,
and the bookkeeping stays in arrays up to the loss: :func:`ce_terms` gives
each training membership's weighted cross-entropy, with class weights
adapted to per-event (or global) training label counts, and optional
hard-example mining keeps the globally highest-loss fraction of them.
:func:`tc_terms`, the temporal-consistency term, penalizes large aligned
jumps between consecutive trend states of one event; it gives each event's
sum and a VJP over the state array. :func:`epoch_loss` joins both into the
epoch's loss, ``ce + lambda_tc * tc``, and gives its VJP to the trend states
and the classifier. A :class:`LossReport` holds the totals of those sums
only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import chain
from typing import Callable

import numpy as np

from .autodiff import stable_sigmoid
from .clustering import PseudoEvent
from .params import ModelParams
from .windows import Window

PROB_CLAMP = 1e-12
NORM_GUARD = 1e-12
WEIGHT_SCOPES = ("event", "global")


class ObjectiveError(ValueError):
    pass


def class_weights(labels, post, group, train_mask, epsilon, n_groups=1) -> np.ndarray:
    """(n_groups, 2) adaptive class weights mean_count / (count_c + epsilon);
    group g counts the training posts ``post[group == g]``, a post once per
    membership."""
    if epsilon <= 0:
        raise ObjectiveError("epsilon must be positive")
    train = train_mask[post]
    n = np.bincount(group[train], minlength=n_groups)
    n1 = np.bincount(group[train], weights=labels[post[train]], minlength=n_groups)
    n0 = n - n1
    return np.stack([n / 2.0 / (n0 + epsilon), n / 2.0 / (n1 + epsilon)], axis=1)


@dataclass
class Readout:
    """Every event's trend states, stacked in ascending event_id, read out.

    Memberships are three aligned arrays, each event's posts in member order,
    event after event: a post in two events appears once for each.
    """

    states: np.ndarray        # (R, d), R the windows of all events
    probs: np.ndarray         # (R,) sigmoid of the classifier's logits
    p_post: np.ndarray        # (n_posts,) probability of each covered post, else NaN
    p_event: dict[int, float]  # event_id -> its last window's probability
    event_ids: list[int]
    offsets: np.ndarray       # event k owns rows offsets[k]:offsets[k + 1]
    post: np.ndarray          # membership -> post index
    event: np.ndarray         # membership -> position of its event in ``event_ids``
    row: np.ndarray           # membership -> row of the post's last covering window


def post_probabilities(
    events: list[PseudoEvent],
    windows: list[Window],
    states: np.ndarray,
    offsets: np.ndarray,
    params: ModelParams,
    n_posts: int,
) -> Readout:
    """Read out ``states``; a post's probability is its last covering window's.

    ``windows`` stacks the events' windows in the order of ``events``, and
    ``states`` their trend states row for row: event k owns rows
    ``offsets[k]:offsets[k + 1]`` of both.
    """
    cover_row = np.repeat(np.arange(len(windows)), [len(w.members) for w in windows])
    covered = np.fromiter(chain.from_iterable(w.members for w in windows), dtype=np.intp)
    event_of_row = np.repeat(np.arange(len(events)), np.diff(offsets))
    # Keyed by (event, post); rows ascend, so a key's last occurrence is its last window.
    keys, last = np.unique((event_of_row[cover_row] * n_posts + covered)[::-1],
                           return_index=True)
    post = np.fromiter(chain.from_iterable(ev.member_indices for ev in events), dtype=np.intp)
    event = np.repeat(np.arange(len(events)), [len(ev.member_indices) for ev in events])
    key = event * n_posts + post
    missing = ~np.isin(key, keys)
    if missing.any():
        k = np.argmax(missing)
        raise ObjectiveError(f"post {post[k]} of event {events[event[k]].event_id} "
                             f"is not covered by any window")
    row = cover_row[::-1][last[np.searchsorted(keys, key)]]

    logits = states @ params["clf.W_c"].data.T + params["clf.b_c"].data
    probs = stable_sigmoid(logits[:, 0])
    p_post = np.full(n_posts, np.nan)
    p_post[post] = probs[row]
    p_event = {ev.event_id: probs[offsets[k + 1] - 1].item() for k, ev in enumerate(events)}
    return Readout(states, probs, p_post, p_event, [ev.event_id for ev in events],
                   offsets, post, event, row)


@dataclass
class CrossEntropyTerms:
    """One weighted cross-entropy term per training post in each of its events,
    as aligned columns."""

    post: np.ndarray    # post index
    event: np.ndarray   # position of the post's event in the readout
    row: np.ndarray     # readout row of the post's last covering window
    label: np.ndarray
    weight: np.ndarray  # class weight of ``label`` in the post's event
    value: np.ndarray   # -weight * log-likelihood of ``label``

    def __len__(self) -> int:
        return self.post.size

    def take(self, index) -> "CrossEntropyTerms":
        """The terms at ``index``, in that order."""
        return CrossEntropyTerms(*(getattr(self, f.name)[index] for f in fields(self)))


def ce_terms(
    readout: Readout,
    labels: np.ndarray,
    train_mask: np.ndarray,
    epsilon: float,
    adaptive: bool,
    weight_scope: str = "event",
) -> tuple[CrossEntropyTerms, np.ndarray]:
    """Weighted cross-entropy of every training membership of ``readout``, and
    each event's (w_0, w_1) class weights as an (E, 2) array."""
    if weight_scope not in WEIGHT_SCOPES:
        raise ObjectiveError(f"unknown weight scope {weight_scope!r}")
    n_events = len(readout.event_ids)
    if adaptive:
        # The weight group of each event: itself, or one group for all.
        group = np.arange(n_events) if weight_scope == "event" else np.zeros(n_events, np.intp)
        weights = class_weights(labels, readout.post, group[readout.event], train_mask,
                                epsilon, n_events)[group]
    else:
        weights = np.ones((n_events, 2))

    keep = train_mask[readout.post]
    post, event, row = readout.post[keep], readout.event[keep], readout.row[keep]
    label = labels[post].astype(np.intp)
    weight = weights[event, label]
    p = np.clip(readout.probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    logs = np.log([1.0 - p, p])  # row y: log-likelihood of label y
    return CrossEntropyTerms(post, event, row, label, weight, -weight * logs[label, row]), weights


def mine_hard_examples(terms: CrossEntropyTerms, rho: float) -> CrossEntropyTerms:
    """Keep the ceil(rho * N) highest-loss terms, highest first; ties favor
    lower post index."""
    if not 0.0 < rho <= 1.0:
        raise ObjectiveError(f"mining fraction must be in (0, 1], got {rho}")
    if rho == 1.0:
        return terms
    k = math.ceil(rho * len(terms))
    return terms.take(np.lexsort((terms.post, -terms.value))[:k])


def tc_terms(h: np.ndarray, clamp_negative_sim: bool = False,
             offsets=None) -> tuple[np.ndarray, Callable | None]:
    """Sum over t>=2 of |T_t - T_{t-1}|^2 * cos(T_t, T_{t-1}) within each event.

    ``h`` stacks the events' trend-state matrices, event k in rows
    ``offsets[k]:offsets[k + 1]`` (one event when ``offsets`` is None), and
    no pair crosses two events. Returns each event's sum, and the VJP of the
    whole sum over ``h`` (a cotangent g gives g times its (R, d) gradient),
    or None when no pair contributes (short events, the zero-norm guard, or
    clamped-away negative similarity).
    """
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
        return by_event, None

    def vjp(g: np.ndarray) -> np.ndarray:
        # d(sim)/da = b / (|a||b|) - sim * a / |a|^2, and b mirrors a.
        ga = 2.0 * sim * diff + sq * (b / (na * nb) - sim * a / (na * na))
        gb = -2.0 * sim * diff + sq * (a / (na * nb) - sim * b / (nb * nb))
        grad = np.zeros_like(h)
        grad[rows + 1] += ga
        grad[rows] += gb
        return g * grad

    return by_event, vjp


def epoch_loss(readout: Readout, terms: CrossEntropyTerms, tc_values: np.ndarray,
               tc_vjp: Callable | None, lambda_tc: float,
               params: ModelParams) -> tuple[float, float, Callable]:
    """The sums ``ce`` and ``tc`` of the epoch loss ``ce + lambda_tc * tc``,
    and the loss's VJP to the gradient of the readout's trend states and
    those of ``clf.W_c`` and ``clf.b_c`` by name.

    ``ce`` adds the values of ``terms`` and ``tc`` the events' consistency
    sums ``tc_values`` of :func:`tc_terms`. The VJP reads the readout's
    probabilities p: a row's logit gets coef[1] * (1 - p) - coef[0] * p, with
    coef (2, R) each row's negated sum of the term weights per class, and
    nothing where p was clipped to [PROB_CLAMP, 1 - PROB_CLAMP]. The states
    also get ``lambda_tc`` times ``tc_vjp``, unless it is None or
    ``lambda_tc`` is 0.
    """
    # Each event's sum first (bincount adds in term order), then across events.
    ce = float(sum(np.bincount(terms.event, weights=terms.value).tolist()))
    tc = float(sum(tc_values.tolist()))
    states, w_c = readout.states, params["clf.W_c"].data
    p = readout.probs
    inside = (p > PROB_CLAMP) & (p < 1.0 - PROB_CLAMP)
    coef = np.zeros((2, p.size))
    np.add.at(coef, (terms.label, terms.row), -terms.weight)
    consistency = tc_vjp if lambda_tc != 0.0 else None

    def vjp(g: np.ndarray):
        g_logits = (g * inside * (coef[1] * (1.0 - p) - coef[0] * p))[:, None]
        g_states = g_logits @ w_c
        if consistency is not None:
            g_states = g_states + consistency(g * lambda_tc)
        return g_states, {"clf.W_c": (states.T @ g_logits).T, "clf.b_c": g_logits.sum(axis=0)}

    return ce, tc, vjp


@dataclass
class LossReport:
    """The epoch's loss totals and every per-post probability."""

    ce: float
    tc: float
    reg: float
    total: float  # ce + lambda_tc * tc + lambda_reg * reg
    p_post: np.ndarray
    lambda_reg: float
