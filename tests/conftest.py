import math
from typing import NamedTuple

import numpy as np
import pytest

from ecatch import fusion, training
from ecatch.autodiff import Tensor
from ecatch.data import Dataset
from ecatch.trend import trend_features

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


def features(aggregates, beta, offsets=None):
    """The trend input node over one tensor of window aggregates, row for row."""
    return trend_features(np.arange(aggregates.shape[0]), [aggregates], beta, offsets)


def as_node(stage, *parents):
    """A fusion stage's ``(value, ..., vjp)`` as one engine node over
    ``parents``, the tensors its VJP returns gradients for, in that order.
    Outputs between the value and the VJP (the gate, the probabilities)
    follow the node."""
    value, *extra, vjp = stage
    node = Tensor(value, parents, vjp)
    return (node, *extra) if extra else node


class Chunk(NamedTuple):
    cross: Tensor  # (2, B, n, d): c_ti, then c_it
    gate: np.ndarray  # the gate g, in (0, 1)
    fused: Tensor  # (B, n, d)
    aggregate: Tensor  # (B, d)


def five_nodes(ds, params, members, weights=None, pairs=None, scope="window", scale="head"):
    """A fusion chunk as one engine node per stage: the encoder, self- and
    cross-attention, the gate and the aggregate under ``weights`` (uniform by
    default), over ``pairs`` (built here by default)."""
    members = np.asarray(members, dtype=np.intp)
    if weights is None:
        weights = np.full(members.shape, 1.0 / members.shape[1])
    intra, inter = fusion.block_pairs(params) if pairs is None else pairs
    w_g, b_g = params["fusion.W_g"], params["fusion.b_g"]
    post, heads = scope == "post", params.heads
    x = as_node(fusion.encode(ds, params, members), *(params[k] for k in fusion.ENCODER))
    h = as_node(fusion.attention(x.data, intra.data, heads, False, scale, post), x, intra)
    c = as_node(fusion.attention(h.data, inter.data, heads, True, scale, post), h, inter)
    fused, g = as_node(fusion.gate(c.data, w_g.data, b_g.data), c, w_g, b_g)
    aggregate = Tensor((weights[:, None, :] @ fused.data)[:, 0, :], (fused,),
                       lambda grad: (weights[:, :, None] * grad[:, None, :],))
    return Chunk(c, g, fused, aggregate)


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
