"""Encoders, intra-/cross-modal attention, and soft-gated fusion.

The attention sequence axis is the set of posts inside one window
(``scope="window"``); a degenerate per-post mode (``scope="post"``, every
query attends only to itself) exists for ablation. Scaled dot-product uses
sqrt(head width) by default (``scale="head"``) or sqrt(model width)
(``scale="model"``).

No residual connections or layer normalization anywhere: the network is
shallow and gate/LSTM based, and stays stable without them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, concat, linear, softmax
from .data import Dataset
from .params import AttentionBlock, ModelParams
from .windows import Window

SCOPES = ("window", "post")
SCALES = ("head", "model")


class FusionError(ValueError):
    pass


def check_dims(ds: Dataset, params: ModelParams) -> None:
    """Raise unless the dataset's embedding widths fit the encoder matrices."""
    if ds.d_text != params.d_text:
        raise FusionError(
            f"dataset d_text={ds.d_text} but fusion.W_text expects {params.d_text}"
        )
    if ds.d_img != params.d_img:
        raise FusionError(
            f"dataset d_img={ds.d_img} but fusion.W_img expects {params.d_img}"
        )


def encode(ds: Dataset, params: ModelParams, indices) -> tuple[Tensor, Tensor]:
    """Project raw text/image embeddings of ``indices`` to model width.

    Zero image vectors (absent images) map exactly onto the image bias.
    """
    check_dims(ds, params)
    idx = list(indices)
    t = linear(Tensor(ds.text[idx]), params["fusion.W_text"], params["fusion.b_text"])
    i = linear(Tensor(ds.image[idx]), params["fusion.W_img"], params["fusion.b_img"])
    return t, i


def _merge_heads(x: Tensor) -> Tensor:
    # (H, n, dh) -> (n, H*dh)
    h, n, dh = x.shape
    return x.transpose((1, 0, 2)).reshape((n, h * dh))


def mh_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    block: AttentionBlock,
    scale: str = "head",
    return_weights: bool = False,
):
    """Multi-head scaled dot-product attention, rows of q attending to rows of k/v."""
    if k.shape[0] < 1:
        raise FusionError("attention requires at least one key row")
    if scale not in SCALES:
        raise FusionError(f"unknown attention scale {scale!r}")
    d = q.shape[1]
    heads = block.heads
    divisor = np.sqrt(d / heads) if scale == "head" else np.sqrt(d)

    qh = q @ block.wq              # (H, n_q, dh)
    kh = k @ block.wk              # (H, n_k, dh)
    vh = v @ block.wv              # (H, n_k, dh)
    scores = (qh @ kh.transpose((0, 2, 1))) * (1.0 / divisor)
    weights = softmax(scores)      # (H, n_q, n_k), rows sum to 1
    out = _merge_heads(weights @ vh) @ block.wo
    if return_weights:
        return out, weights
    return out


def _attend(q: Tensor, kv: Tensor, block: AttentionBlock, scope: str,
            scale: str) -> Tensor:
    if scope == "window":
        attended = mh_attention(q, kv, kv, block, scale)
    else:
        # Each post attends only to its own row of kv: the singleton softmax
        # is 1, so the result is just the value path.
        attended = _merge_heads(kv @ block.wv) @ block.wo
    return linear(attended, block.w_out, block.b_out)


@dataclass
class WindowFusion:
    """Graph nodes for one fused window; rows follow ``window.members``."""

    window: Window
    cross_ti: Tensor
    cross_it: Tensor
    gate: Tensor      # sigmoid-activated, in (0, 1)
    fused: Tensor     # (n, d)


def fuse_window(
    ds: Dataset,
    params: ModelParams,
    window: Window,
    scope: str = "window",
    scale: str = "head",
) -> WindowFusion:
    """Full fusion pipeline for one window's posts."""
    if not window.members:
        raise FusionError(f"window {window.index} has no members")
    if scope not in SCOPES:
        raise FusionError(f"unknown attention scope {scope!r}")

    t, i = encode(ds, params, window.members)
    h_text = _attend(t, t, params.block("att_text"), scope, scale)
    h_img = _attend(i, i, params.block("att_img"), scope, scale)
    c_ti = _attend(h_text, h_img, params.block("att_ti"), scope, scale)
    c_it = _attend(h_img, h_text, params.block("att_it"), scope, scale)

    gate_pre = linear(concat([c_ti, c_it], axis=1), params["fusion.W_g"],
                      params["fusion.b_g"])
    gate = gate_pre.sigmoid()
    fused = gate * c_ti + (1.0 - gate) * c_it
    return WindowFusion(window, c_ti, c_it, gate, fused)
