"""Encoders, intra-/cross-modal attention, and soft-gated fusion.

The attention sequence axis is the set of posts inside one window
(``scope="window"``). The ablation ``scope="post"`` masks every off-diagonal
score to -inf, so each query attends only to itself and the output is the
value path. Scaled dot-product uses sqrt(head width) by default
(``scale="head"``) or sqrt(model width) (``scale="model"``). Each attention
is one tape node with a hand-written vector-Jacobian product.

No residual connections or layer normalization anywhere: the network is
shallow and gate/LSTM based, and stays stable without them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, concat, linear
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


def mh_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    block: AttentionBlock,
    scale: str = "head",
    diagonal: bool = False,
    return_weights: bool = False,
):
    """Multi-head scaled dot-product attention, rows of q attending to rows of k/v.

    ``diagonal`` masks every score but (i, i) and needs n_q == n_k;
    ``return_weights`` also returns the (H, n_q, n_k) probability array.
    """
    if k.shape[0] < 1:
        raise FusionError("attention requires at least one key row")
    if scale not in SCALES:
        raise FusionError(f"unknown attention scale {scale!r}")
    n_q, d = q.shape
    heads = block.heads
    c = 1.0 / (np.sqrt(d / heads) if scale == "head" else np.sqrt(d))
    wq, wk, wv, wo = block.wq, block.wk, block.wv, block.wo

    qh = q.data @ wq.data          # (H, n_q, dh)
    kh = k.data @ wk.data          # (H, n_k, dh)
    vh = v.data @ wv.data          # (H, n_k, dh)
    scores = (qh @ kh.transpose(0, 2, 1)) * c
    if diagonal:
        scores[:, ~np.eye(n_q, dtype=bool)] = -np.inf
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    merged = (p @ vh).transpose(1, 0, 2).reshape((n_q, d))

    def vjp(g):
        g_att = (g @ wo.data.T).reshape((n_q, heads, -1)).transpose(1, 0, 2)
        g_p = g_att @ vh.transpose(0, 2, 1)
        g_s = p * (g_p - (g_p * p).sum(axis=-1, keepdims=True)) * c
        g_qh = g_s @ kh
        g_kh = (qh.transpose(0, 2, 1) @ g_s).transpose(0, 2, 1)
        g_vh = p.transpose(0, 2, 1) @ g_att
        return (
            (g_qh @ wq.data.transpose(0, 2, 1)).sum(axis=0),
            (g_kh @ wk.data.transpose(0, 2, 1)).sum(axis=0),
            (g_vh @ wv.data.transpose(0, 2, 1)).sum(axis=0),
            q.data.T @ g_qh,
            k.data.T @ g_kh,
            v.data.T @ g_vh,
            merged.T @ g,
        )

    out = Tensor(merged @ wo.data, (q, k, v, wq, wk, wv, wo), vjp)
    return (out, p) if return_weights else out


def _attend(q: Tensor, kv: Tensor, block: AttentionBlock, scope: str,
            scale: str) -> Tensor:
    attended = mh_attention(q, kv, kv, block, scale, diagonal=scope == "post")
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
