"""Recency decay weights, trend features, and the LSTM roll.

Per window: posts are averaged with weights exp(-alpha * (t_max - t_i)),
t_max being the latest member timestamp, so the newest post always carries
weight 1. :func:`decay_weights` takes a fusion chunk as its (B, n) member
matrix and anchors each row at the latest timestamp among its members;
``fusion.fuse_group`` averages a chunk's fused rows with them in its one
tape node. Every event's aggregates are read from the chunks' stack in
window order, event k in rows ``offsets[k]:offsets[k + 1]``. Between
consecutive windows of an event the aggregate difference (semantic shift)
and an exponential moving average of its norm (momentum) are appended, all
events in one node. That input rolls through a unidirectional LSTM, each
event from zero state, all events in lockstep in one node that returns the
(R, d) hidden states.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .autodiff import Tensor, stable_sigmoid
from .data import Dataset
from .params import LSTM_GATES, ModelParams


class TrendError(ValueError):
    pass


def decay_weights(ds: Dataset, members: np.ndarray, alpha: float) -> np.ndarray:
    """Normalized recency weights of a (B, n) member matrix: (B, n), rows sum to 1."""
    if alpha < 0:
        raise TrendError("alpha must be >= 0")
    times = ds.timestamps[members]
    ages = (times.max(axis=1, keepdims=True) - times).astype(np.float64)
    lam = np.exp(-alpha * ages)
    return lam / lam.sum(axis=1, keepdims=True)


def _lockstep(offsets, rows: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Each event's first row, longest event first, and per step t the rows of
    window t of the events that have one: a prefix of the step before.
    ``offsets`` None means one event of ``rows`` rows."""
    offsets = np.array([0, rows]) if offsets is None else np.asarray(offsets, dtype=np.intp)
    lengths = np.diff(offsets)
    if np.any(lengths <= 0):
        raise TrendError("no window aggregates")
    order = np.argsort(-lengths, kind="stable")
    starts, running = offsets[:-1][order], lengths[order]
    return starts, [starts[:np.count_nonzero(running > t)] + t
                    for t in range(running.max(initial=0))]


def trend_features(rows, parts: Sequence[Tensor], beta: float, offsets=None) -> Tensor:
    """Every event's LSTM input [L; delta; M] from rows ``rows`` of the stacked
    window aggregates ``parts``.

    Event k owns rows ``offsets[k]:offsets[k + 1]`` of the input (one event
    when None). Row t holds the aggregate, its shift from row t-1 of its event
    (zero at the event's first window) and the momentum
    M_t = beta * M_{t-1} + (1 - beta) * |delta_t|, restarting at 0 with each
    event: one (R, 2d+1) node over the parts. A zero shift gets a zero
    subgradient, and no gradient crosses an event boundary. The VJP
    scatter-adds the aggregates' gradient into the stack, a row read twice
    summing, and splits it back into the parts.
    """
    parts = tuple(parts)
    rows = np.asarray(rows, dtype=np.intp)
    starts, steps = _lockstep(offsets, rows.size)
    if not 0.0 <= beta <= 1.0:
        raise TrendError("beta must lie in [0, 1]")
    stack = np.concatenate([p.data for p in parts])
    shape, ends = stack.shape, np.cumsum([p.shape[0] for p in parts])[:-1]
    agg = stack[rows]
    delta = np.zeros_like(agg)
    delta[1:] = agg[1:] - agg[:-1]
    delta[starts] = 0.0
    norms = np.sqrt(np.sum(delta * delta, axis=1))
    momentum = np.zeros(agg.shape[0])
    for r in steps[1:]:
        momentum[r] = beta * momentum[r - 1] + (1.0 - beta) * norms[r]

    def vjp(g: np.ndarray):
        d = agg.shape[1]
        g_m = g[:, 2 * d].copy()  # becomes the whole gradient reaching each M_t
        for r in reversed(steps[2:]):
            g_m[r - 1] += beta * g_m[r]
        g_delta = g[:, d:2 * d].copy()
        g_delta[starts] = 0.0
        moved = norms != 0.0
        g_delta[moved] += ((1.0 - beta) * g_m[moved])[:, None] * delta[moved] / norms[moved, None]
        g_agg = g[:, :d].copy()
        g_agg[1:] += g_delta[1:]
        g_agg[:-1] -= g_delta[1:]
        grad = np.zeros(shape)
        np.add.at(grad, rows, g_agg)
        return tuple(np.split(grad, ends))

    out = np.concatenate([agg, delta, momentum[:, None]], axis=1)
    return Tensor(out, parts, vjp)


def run_lstm(x: Tensor, params: ModelParams, offsets=None) -> Tensor:
    """Roll the trend LSTM over every event's rows of ``x``, laid out as in
    :func:`trend_features`, each event from zero state.

    All events step in lockstep: step t is one recurrent matmul over the
    events still running. One tape node over the input and the 12 ``lstm.*``
    tensors gives the (R, d) hidden states. Gates stack in ``LSTM_GATES``
    order; backpropagation through time, the same steps in reverse, is the VJP.
    """
    d = params.d
    if x.shape[0] == 0:
        return Tensor(np.zeros((0, d)))
    if x.shape[1] != 2 * d + 1:
        raise TrendError(f"feature length {x.shape[1]} != 2d+1 = {2 * d + 1}")
    weights = tuple(params[f"lstm.{kind}_{g}"] for kind in "WUb" for g in LSTM_GATES)
    w, u, b = (np.concatenate([t.data for t in weights[k:k + 4]]) for k in (0, 4, 8))

    starts, steps = _lockstep(offsets, x.shape[0])
    projected = x.data @ w.T                       # (R, 4d)
    acts = np.empty_like(projected)                # i, f, o, candidate
    cells, hidden = np.empty((x.shape[0], d)), np.empty((x.shape[0], d))
    prev_c, prev_h = np.empty((2, x.shape[0], d))  # the state each row starts from
    c, h = np.zeros((2, starts.size, d))           # one row per event, zero at its start
    for r in steps:
        n = r.size
        prev_c[r], prev_h[r] = c[:n], h[:n]
        z = projected[r] + h[:n] @ u.T + b
        a = np.concatenate([stable_sigmoid(z[:, :3 * d]), np.tanh(z[:, 3 * d:])], axis=1)
        i, f, o, cand = np.split(a, 4, axis=1)
        c[:n] = f * c[:n] + i * cand
        h[:n] = o * np.tanh(c[:n])
        acts[r], cells[r], hidden[r] = a, c[:n], h[:n]

    def vjp(g: np.ndarray):
        slope = acts * (1.0 - acts)                     # sigmoid' of i, f, o
        slope[:, 3 * d:] = 1.0 - acts[:, 3 * d:] ** 2   # tanh' of the candidate
        tanh_c = np.tanh(cells)
        dz = np.empty_like(acts)
        # Carried per event; rows past the events running at step t + 1 stay
        # zero, so no gradient reaches an event's last window from later steps.
        dh_next, dc_next = np.zeros((2, starts.size, d))
        for r in reversed(steps):
            n = r.size
            i, f, o, cand = np.split(acts[r], 4, axis=1)
            dh = g[r] + dh_next[:n]
            dc = dh * o * (1.0 - tanh_c[r] * tanh_c[r]) + dc_next[:n]
            dz[r] = np.concatenate([dc * cand, dc * prev_c[r], dh * tanh_c[r], dc * i],
                                   axis=1) * slope[r]
            dc_next[:n] = dc * f
            dh_next[:n] = dz[r] @ u
        return (
            dz @ w,
            *np.split(dz.T @ x.data, 4),
            *np.split(dz.T @ prev_h, 4),
            *np.split(dz.sum(axis=0), 4),
        )

    return Tensor(hidden, (x, *weights), vjp)


def encode_event(rows, parts: Sequence[Tensor], params: ModelParams, beta: float,
                 offsets) -> Tensor:
    """The (R, d) trend states of every event, laid out by ``offsets``, from the
    rows ``rows`` of the stacked aggregate ``parts``: one trend input node and
    one LSTM node."""
    return run_lstm(trend_features(rows, parts, beta, offsets), params, offsets)
