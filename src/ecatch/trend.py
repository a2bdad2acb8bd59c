"""Window aggregation with recency decay, trend features, and the LSTM roll.

Per window: posts are averaged with weights exp(-alpha * (t_max - t_i)),
t_max being the latest member timestamp, so the newest post always carries
weight 1. Between consecutive surviving windows the aggregate difference
(semantic shift) and an exponential moving average of its norm (momentum)
are appended, and the (2d+1)-length feature rolls through a unidirectional
LSTM whose state resets per event. An event's whole roll is one tape node
that returns its (T, d) hidden-state matrix, one row per window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, concat, l2norm, stable_sigmoid
from .data import Dataset
from .params import LSTM_GATES, ModelParams
from .windows import Window


class TrendError(ValueError):
    pass


def decay_weights(ds: Dataset, window: Window, alpha: float) -> np.ndarray:
    """Normalized recency weights over the window's members (sum to 1)."""
    if alpha < 0:
        raise TrendError("alpha must be >= 0")
    ages = np.asarray(
        [window.t_max_local - int(ds.timestamps[i]) for i in window.members],
        dtype=np.float64,
    )
    lam = np.exp(-alpha * ages)
    return lam / lam.sum()


def aggregate_window(fused: Tensor, window: Window, ds: Dataset, alpha: float) -> Tensor:
    """Decay-weighted mean of the window's fused post embeddings: (1, d)."""
    if fused.shape[0] != len(window.members):
        raise TrendError("fused rows do not match window members")
    weights = decay_weights(ds, window, alpha)
    return Tensor(weights[None, :]) @ fused


@dataclass
class TrendFeature:
    delta: Tensor     # (1, d) shift from the previous window (zeros for t=1)
    momentum: Tensor  # (1, 1) EMA of shift norms, always >= 0
    lbar: Tensor      # (1, 2d+1) LSTM input [L; delta; M]


def trend_features(aggregates: list[Tensor], beta: float) -> list[TrendFeature]:
    if not aggregates:
        raise TrendError("no window aggregates")
    if not 0.0 <= beta <= 1.0:
        raise TrendError("beta must lie in [0, 1]")
    d = aggregates[0].shape[1]

    out: list[TrendFeature] = []
    prev_m: Tensor | None = None
    for t, agg in enumerate(aggregates, start=1):
        if t == 1:
            # No predecessor: the shift is identically zero, and so is the
            # momentum seed; keep them constants so no gradient flows.
            delta = Tensor(np.zeros((1, d)))
            momentum = Tensor(np.zeros((1, 1)))
        else:
            delta = agg - aggregates[t - 2]
            shift_norm = l2norm(delta).reshape((1, 1))
            momentum = beta * prev_m + (1.0 - beta) * shift_norm
        out.append(TrendFeature(delta, momentum, concat([agg, delta, momentum], axis=1)))
        prev_m = momentum
    return out


def run_lstm(features: list[TrendFeature], params: ModelParams) -> Tensor:
    """Roll the trend LSTM from zero state over one event's window features.

    One tape node over the stacked inputs and the 12 ``lstm.*`` tensors gives
    the (T, d) hidden states, row t-1 for window t. Gates stack in
    ``LSTM_GATES`` order: one input matmul for all steps, one recurrent
    matmul per step, and backpropagation through time as the VJP.
    """
    d = params.d
    if not features:
        return Tensor(np.zeros((0, d)))
    x = concat([f.lbar for f in features], axis=0)
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
    window_fusions: list,
    ds: Dataset,
    params: ModelParams,
    alpha: float,
    beta: float,
) -> Tensor:
    """Aggregate -> features -> LSTM for one event's fused windows: (T, d)."""
    aggregates = [aggregate_window(wf.fused, wf.window, ds, alpha) for wf in window_fusions]
    return run_lstm(trend_features(aggregates, beta), params)
