"""Recency decay weights, trend features, and the LSTM roll.

Per window: posts are averaged with weights exp(-alpha * (t_max - t_i)),
t_max being the latest member timestamp, so the newest post always carries
weight 1. :func:`decay_weights` takes a fusion chunk as its (B, n) member
matrix and anchors each row at the latest timestamp among its members;
``fusion.fuse_group`` averages a chunk's fused rows with them. The stage
reads one (R, d) array of window aggregates in window order, event k in
rows ``offsets[k]:offsets[k + 1]``. Between consecutive windows of an
event the aggregate difference (semantic shift) and an exponential moving
average of its norm (momentum) are appended, all events in one
:func:`trend_features` call. That input rolls through a unidirectional LSTM,
each event from zero state, all events in lockstep in one :func:`run_lstm`
call that returns the (R, d) hidden states. Each returns its VJP alongside,
and :func:`encode_event` chains the two into one.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .autodiff import stable_sigmoid
from .data import Dataset
from .params import LSTM_GATES, ModelParams


# The LSTM's tensors as run_lstm stacks them: W, then U, then b, each in gate order
LSTM_TENSORS = tuple(f"lstm.{kind}_{g}" for kind in "WUb" for g in LSTM_GATES)


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
    ``offsets`` None means one event of ``rows`` rows; every event needs a row."""
    offsets = np.array([0, rows]) if offsets is None else np.asarray(offsets, dtype=np.intp)
    lengths = np.diff(offsets)
    if lengths.size == 0 or np.any(lengths <= 0):
        raise TrendError("no window aggregates")
    order = np.argsort(-lengths, kind="stable")
    starts, running = offsets[:-1][order], lengths[order]
    return starts, [starts[:np.count_nonzero(running > t)] + t
                    for t in range(running.max())]


def trend_features(agg: np.ndarray, beta: float,
                   offsets=None) -> tuple[np.ndarray, Callable]:
    """Every event's LSTM input [L; delta; M] from the (R, d) window
    aggregates ``agg``, and its VJP to the aggregates' gradient.

    Event k owns rows ``offsets[k]:offsets[k + 1]`` (one event when None).
    Row t holds the aggregate, its shift from row t-1 of its event (zero at
    the event's first window) and the momentum
    M_t = beta * M_{t-1} + (1 - beta) * |delta_t|, restarting at 0 with each
    event: one (R, 2d+1) array. A zero shift gets a zero subgradient, and no
    gradient crosses an event boundary.
    """
    starts, steps = _lockstep(offsets, agg.shape[0])
    if not 0.0 <= beta <= 1.0:
        raise TrendError("beta must lie in [0, 1]")
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
        return g_agg

    return np.concatenate([agg, delta, momentum[:, None]], axis=1), vjp


def run_lstm(x: np.ndarray, params: ModelParams,
             offsets=None) -> tuple[np.ndarray, Callable]:
    """Roll the trend LSTM over every event's rows of ``x``, laid out as in
    :func:`trend_features`, each event from zero state: the (R, d) hidden
    states and their VJP.

    All events step in lockstep: step t is one recurrent matmul over the
    events still running. Gates stack in ``LSTM_GATES`` order;
    backpropagation through time, the same steps in reverse, is the VJP,
    which gives the gradient of ``x`` and those of the ``LSTM_TENSORS`` by
    name.
    """
    d = params.d
    if x.shape[1] != 2 * d + 1:
        raise TrendError(f"feature length {x.shape[1]} != 2d+1 = {2 * d + 1}")
    w, u, b = (np.concatenate([params[k].data for k in LSTM_TENSORS[j:j + 4]])
               for j in (0, 4, 8))

    starts, steps = _lockstep(offsets, x.shape[0])
    projected = x @ w.T                            # (R, 4d)
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
        grads = (*np.split(dz.T @ x, 4), *np.split(dz.T @ prev_h, 4),
                 *np.split(dz.sum(axis=0), 4))
        return dz @ w, dict(zip(LSTM_TENSORS, grads))

    return hidden, vjp


def encode_event(agg: np.ndarray, params: ModelParams, beta: float, offsets,
                 keep: bool = True) -> tuple[np.ndarray, Callable | None]:
    """The (R, d) trend states of every event, laid out by ``offsets``, from
    the window aggregates ``agg``, and one VJP (None without ``keep``): the
    LSTM's, then the trend input's. Without ``keep`` the trend input's VJP,
    and what only it holds, is gone before the LSTM runs."""
    x, trend_vjp = trend_features(agg, beta, offsets)
    if not keep:
        del trend_vjp
        return run_lstm(x, params, offsets)[0], None
    states, lstm_vjp = run_lstm(x, params, offsets)
    stages = [trend_vjp, lstm_vjp]  # popped, so each is freed once it has run

    def vjp(g: np.ndarray):
        g_x, grads = stages.pop()(g)
        return stages.pop()(g_x), grads

    return states, vjp
