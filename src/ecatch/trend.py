"""Window aggregation with recency decay, trend features, and the LSTM roll.

Per window: posts are averaged with weights exp(-alpha * (t_max - t_i)),
t_max being the latest member timestamp, so the newest post always carries
weight 1. :func:`aggregate` does that for a whole fusion group of windows in
one tape node. Between consecutive windows of an event the aggregate
difference (semantic shift) and an exponential moving average of its norm
(momentum) are appended; :func:`trend_features` builds an event's (T, 2d+1)
LSTM input in one node. That input rolls through a unidirectional LSTM whose
state resets per event; the whole roll is one tape node that returns the
(T, d) hidden-state matrix, one row per window.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .autodiff import Tensor, stable_sigmoid, take
from .data import Dataset
from .params import LSTM_GATES, ModelParams
from .windows import Window


class TrendError(ValueError):
    pass


def decay_weights(ds: Dataset, windows: Sequence[Window], alpha: float) -> np.ndarray:
    """Normalized recency weights of windows of one member count: (B, n), rows sum to 1."""
    if alpha < 0:
        raise TrendError("alpha must be >= 0")
    members = np.array([w.members for w in windows], dtype=np.intp)
    t_max = np.array([w.t_max_local for w in windows], dtype=np.int64)
    ages = (t_max[:, None] - ds.timestamps[members]).astype(np.float64)
    lam = np.exp(-alpha * ages)
    return lam / lam.sum(axis=1, keepdims=True)


def aggregate(fused: Tensor, weights: np.ndarray) -> Tensor:
    """Weighted mean of each window's fused rows: (B, n, d) -> (B, d), one node."""
    if fused.shape[:2] != weights.shape:
        raise TrendError(f"fused rows {fused.shape[:2]} do not match weights {weights.shape}")
    w = weights[:, None, :]
    return Tensor((w @ fused.data)[:, 0, :], (fused,),
                  lambda g: (weights[:, :, None] * g[:, None, :],))


def trend_features(aggregates: Tensor, beta: float) -> Tensor:
    """One event's LSTM input [L; delta; M] from its (T, d) window aggregates.

    Row t holds the aggregate, its shift from row t-1 (zero for the first
    window) and the momentum M_t = beta * M_{t-1} + (1 - beta) * |delta_t|
    from M_1 = 0: a (T, 2d+1) node. A zero shift gets a zero subgradient.
    """
    if aggregates.shape[0] == 0:
        raise TrendError("no window aggregates")
    if not 0.0 <= beta <= 1.0:
        raise TrendError("beta must lie in [0, 1]")
    agg = aggregates.data
    steps = agg.shape[0]
    delta = np.zeros_like(agg)
    delta[1:] = agg[1:] - agg[:-1]
    norms = np.sqrt(np.sum(delta * delta, axis=1))
    momentum = np.zeros(steps)
    for t in range(1, steps):
        momentum[t] = beta * momentum[t - 1] + (1.0 - beta) * norms[t]

    def vjp(g: np.ndarray):
        d = agg.shape[1]
        g_delta = g[:, d:2 * d].copy()
        g_m = 0.0
        for t in range(steps - 1, 0, -1):
            g_m = g[t, 2 * d] + beta * g_m
            if norms[t] != 0.0:
                g_delta[t] += (1.0 - beta) * g_m * delta[t] / norms[t]
        g_agg = g[:, :d].copy()
        g_agg[1:] += g_delta[1:]
        g_agg[:-1] -= g_delta[1:]
        return (g_agg,)

    out = np.concatenate([agg, delta, momentum[:, None]], axis=1)
    return Tensor(out, (aggregates,), vjp)


def run_lstm(x: Tensor, params: ModelParams) -> Tensor:
    """Roll the trend LSTM from zero state over one event's (T, 2d+1) input.

    One tape node over the input and the 12 ``lstm.*`` tensors gives the
    (T, d) hidden states, row t-1 for window t. Gates stack in
    ``LSTM_GATES`` order: one input matmul for all steps, one recurrent
    matmul per step, and backpropagation through time as the VJP.
    """
    d = params.d
    if x.shape[0] == 0:
        return Tensor(np.zeros((0, d)))
    if x.shape[1] != 2 * d + 1:
        raise TrendError(f"feature length {x.shape[1]} != 2d+1 = {2 * d + 1}")
    weights = tuple(params[f"lstm.{kind}_{g}"] for kind in "WUb" for g in LSTM_GATES)
    w, u, b = (np.concatenate([t.data for t in weights[k:k + 4]]) for k in (0, 4, 8))

    steps = x.shape[0]
    projected = x.data @ w.T                       # (T, 4d)
    acts = np.empty((steps, 4 * d))                # i, f, o, candidate
    cells = np.zeros((steps + 1, d))               # row 0 is the zero state
    hidden = np.zeros((steps + 1, d))
    for t in range(steps):
        z = projected[t] + hidden[t] @ u.T + b
        acts[t, :3 * d] = stable_sigmoid(z[:3 * d])
        acts[t, 3 * d:] = np.tanh(z[3 * d:])
        i, f, o, cand = np.split(acts[t], 4)
        cells[t + 1] = f * cells[t] + i * cand
        hidden[t + 1] = o * np.tanh(cells[t + 1])

    def vjp(g: np.ndarray):
        slope = acts * (1.0 - acts)                     # sigmoid' of i, f, o
        slope[:, 3 * d:] = 1.0 - acts[:, 3 * d:] ** 2   # tanh' of the candidate
        tanh_c = np.tanh(cells[1:])
        dz = np.empty_like(acts)
        dh_next, dc_next = np.zeros(d), np.zeros(d)
        for t in range(steps - 1, -1, -1):
            i, f, o, cand = np.split(acts[t], 4)
            dh = g[t] + dh_next
            dc = dh * o * (1.0 - tanh_c[t] * tanh_c[t]) + dc_next
            dz[t] = np.concatenate([dc * cand, dc * cells[t], dh * tanh_c[t], dc * i]) * slope[t]
            dc_next = dc * f
            dh_next = dz[t] @ u
        return (
            dz @ w,
            *np.split(dz.T @ x.data, 4),
            *np.split(dz.T @ hidden[:-1], 4),
            *np.split(dz.sum(axis=0), 4),
        )

    return Tensor(hidden[1:], (x, *weights), vjp)


def encode_event(
    rows,
    aggregates: Tensor,
    params: ModelParams,
    beta: float,
) -> Tensor:
    """One event's trend states: its window aggregates, gathered from the rows
    ``rows`` of ``aggregates`` in window order -> features -> LSTM: (T, d)."""
    return run_lstm(trend_features(take(aggregates, rows), beta), params)
