import math
from typing import Callable, NamedTuple

import numpy as np
import pytest

from ecatch import fusion, training
from ecatch.data import Dataset

DAY = 86400


def make_dataset(
    text,
    labels=None,
    timestamps=None,
    image=None,
    has_image=None,
    ids=None,
    extra=None,
):
    """In-memory Dataset with sensible defaults for tests."""
    text = np.asarray(text, dtype=np.float64)
    n = text.shape[0]
    if image is None:
        image = np.zeros((n, 2))
    image = np.asarray(image, dtype=np.float64)
    if labels is None:
        labels = np.zeros(n, dtype=np.int64)
    if timestamps is None:
        timestamps = np.arange(n, dtype=np.int64)
    if has_image is None:
        has_image = np.any(image != 0.0, axis=1)
    if ids is None:
        ids = [f"p{i}" for i in range(n)]
    return Dataset(
        ids=ids,
        labels=np.asarray(labels),
        timestamps=np.asarray(timestamps),
        text=text,
        image=image,
        has_image=np.asarray(has_image, dtype=bool),
        extra=extra,
    )


class Chunk(NamedTuple):
    cross: np.ndarray  # (2, B, n, d): c_ti, then c_it
    gate: np.ndarray  # the gate g, in (0, 1)
    fused: np.ndarray  # (B, n, d)
    aggregate: np.ndarray  # (B, d)
    vjp: Callable  # as fusion.fuse_group's, the five stage VJPs called in turn


def five_stages(ds, params, members, weights=None, packs=None, scope="window",
                scale="head"):
    """A fusion chunk as its five stages called one by one: the encoder, self-
    and cross-attention, the gate and the aggregate under ``weights``
    (uniform by default), over ``packs`` (built here by default), and a VJP
    that calls the stage VJPs one by one in reverse."""
    members = np.asarray(members, dtype=np.intp)
    if weights is None:
        weights = np.full(members.shape, 1.0 / members.shape[1])
    intra, inter = fusion.block_pairs(params)[0] if packs is None else packs
    w_g, b_g = params["fusion.W_g"].data, params["fusion.b_g"].data
    post, heads = scope == "post", params.heads
    x, encode_vjp = fusion.encode(ds, params, members)
    h, self_vjp = fusion.attention(x, intra, heads, False, scale, post)
    c, cross_vjp = fusion.attention(h, inter, heads, True, scale, post)
    fused, g, gate_vjp = fusion.gate(c, w_g, b_g)
    aggregate = (weights[:, None, :] @ fused)[:, 0, :]

    def vjp(grad):
        g_fused = weights[:, :, None] * grad[:, None, :]
        g_c, g_wg, g_bg = gate_vjp(g_fused)
        g_h, g_inter = cross_vjp(g_c)
        g_x, g_intra = self_vjp(g_h)
        names = fusion.ENCODER + ("fusion.W_g", "fusion.b_g")
        return (g_intra, g_inter), dict(zip(names, [*encode_vjp(g_x), g_wg, g_bg]))

    return Chunk(c, g, fused, aggregate, vjp)


def chunk_gradients(params, vjp, g, pair_vjps=None):
    """Every gradient, by name, that a chunk VJP and the packs' VJPs give for
    the aggregates' gradient ``g``."""
    if pair_vjps is None:
        pair_vjps = fusion.block_pairs(params)[1]
    packs, grads = vjp(g)
    for pair_vjp, g_pack in zip(pair_vjps, packs):
        grads.update(pair_vjp(g_pack))
    return grads


def chunk_vjp_spy(monkeypatch) -> list:
    """The VJPs of the ``fusion.fuse_group`` calls of ``training``, in call order."""
    vjps = []

    def spy(*args, real=training.fuse_group, **kwargs):
        aggregates, vjp = real(*args, **kwargs)
        vjps.append(vjp)
        return aggregates, vjp

    monkeypatch.setattr(training, "fuse_group", spy)
    return vjps


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def nan_gradient_at_epoch_1(monkeypatch):
    """Make ``training.backward`` see a NaN regularizer on its second call."""
    real_backward = training.backward
    calls = []

    def backward_with_nan_reg(artifacts):
        calls.append(None)
        if len(calls) == 2:
            artifacts.report.lambda_reg = math.nan
        return real_backward(artifacts)

    monkeypatch.setattr(training, "backward", backward_with_nan_reg)
