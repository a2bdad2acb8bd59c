"""Window aggregation with recency decay, trend features, and the LSTM roll.

Per window: posts are averaged with weights exp(-alpha * (t_max - t_i)),
t_max being the latest member timestamp, so the newest post always carries
weight 1. Between consecutive surviving windows the aggregate difference
(semantic shift) and an exponential moving average of its norm (momentum)
are appended, and the (2d+1)-length feature rolls through a unidirectional
LSTM whose state resets per event.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, concat, l2norm, linear
from .data import Dataset
from .params import ModelParams
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


@dataclass
class TrendState:
    hidden: Tensor  # (1, d), every component in (-1, 1)
    cell: Tensor    # (1, d)


def lstm_cell(x: Tensor, h_prev: Tensor, c_prev: Tensor,
              params: ModelParams) -> TrendState:
    def gate(name: str) -> Tensor:
        return (linear(x, params[f"lstm.W_{name}"])
                + linear(h_prev, params[f"lstm.U_{name}"])
                + params[f"lstm.b_{name}"])

    i = gate("i").sigmoid()
    f = gate("f").sigmoid()
    o = gate("o").sigmoid()
    candidate = gate("c").tanh()
    c = f * c_prev + i * candidate
    h = o * c.tanh()
    return TrendState(hidden=h, cell=c)


def run_lstm(features: list[TrendFeature], params: ModelParams) -> list[TrendState]:
    """Roll the trend LSTM from zero state over one event's window features."""
    d = params.d
    expected = 2 * d + 1
    h = Tensor(np.zeros((1, d)))
    c = Tensor(np.zeros((1, d)))
    states: list[TrendState] = []
    for feat in features:
        if feat.lbar.shape[1] != expected:
            raise TrendError(
                f"feature length {feat.lbar.shape[1]} != 2d+1 = {expected}"
            )
        state = lstm_cell(feat.lbar, h, c, params)
        states.append(state)
        h, c = state.hidden, state.cell
    return states


def encode_event(
    window_fusions: list,
    ds: Dataset,
    params: ModelParams,
    alpha: float,
    beta: float,
) -> tuple[list[Tensor], list[TrendFeature], list[TrendState]]:
    """Aggregate -> features -> LSTM for one event's fused windows."""
    aggregates = [
        aggregate_window(wf.fused, wf.window, ds, alpha) for wf in window_fusions
    ]
    features = trend_features(aggregates, beta)
    states = run_lstm(features, params)
    return aggregates, features, states
