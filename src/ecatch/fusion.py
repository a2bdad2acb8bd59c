"""Encoders, intra-/cross-modal attention, and soft-gated fusion.

The attention sequence axis is the set of posts inside one window
(``scope="window"``). The ablation ``scope="post"`` masks every off-diagonal
score to -inf, so each query attends only to itself and the output is the
value path. Scaled dot-product uses sqrt(head width) by default
(``scale="head"``) or sqrt(model width) (``scale="model"``).

Windows are fused in groups of equal member count, which may mix events:
fusion has no term across windows, so a group of B windows of n posts is one
pass over (B, n, d) arrays, and no padding is needed. :func:`window_groups`
cuts each group into chunks of at most ``MAX_PAIRS`` attention pairs. Fusing
a pass makes eleven tape nodes, each with a hand-written vector-Jacobian
product: two encoder ``linear`` nodes, an ``mh_attention`` node and its
output ``linear`` for each of the four attentions, and one :func:`gate` node
that mixes the two cross-modal views (``trend.aggregate`` adds a twelfth).

No residual connections or layer normalization anywhere: the network is
shallow and gate/LSTM based, and stays stable without them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import Tensor, linear, stable_sigmoid
from .data import Dataset
from .params import AttentionBlock, ModelParams
from .windows import Window

SCOPES = ("window", "post")
SCALES = ("head", "model")

# Attention pairs (B * n * n) one fusion pass may hold. A pass also holds at
# most MAX_PAIRS / 8 post rows, so that at d = 32 and H = 4 neither its
# (B, H, n, n) scores nor its (B, n, d) rows pass 256 KB an array, whatever
# the number of same-size windows.
MAX_PAIRS = 8192


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


def _head_grad(x: np.ndarray, g_heads: np.ndarray) -> np.ndarray:
    """Per-head ``x^T @ g`` summed over every leading axis: (H, d, dh)."""
    heads, dh = g_heads.shape[-3], g_heads.shape[-1]
    g_rows = np.moveaxis(g_heads, -3, 0).reshape(heads, -1, dh)
    return x.reshape(-1, x.shape[-1]).T @ g_rows


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

    Sequences run along the second-to-last axis; any leading axes index
    independent sequences, such as the windows of one fusion group.
    ``diagonal`` masks every score but (i, i) and needs n_q == n_k;
    ``return_weights`` also returns the (..., H, n_q, n_k) probability array.
    """
    if k.shape[-2] < 1:
        raise FusionError("attention requires at least one key row")
    if scale not in SCALES:
        raise FusionError(f"unknown attention scale {scale!r}")
    n_q, d = q.shape[-2:]
    heads = block.heads
    c = 1.0 / (np.sqrt(d / heads) if scale == "head" else np.sqrt(d))
    wq, wk, wv, wo = block.wq, block.wk, block.wv, block.wo

    qh = q.data[..., None, :, :] @ wq.data          # (..., H, n_q, dh)
    kh = k.data[..., None, :, :] @ wk.data          # (..., H, n_k, dh)
    vh = v.data[..., None, :, :] @ wv.data          # (..., H, n_k, dh)
    scores = (qh @ kh.swapaxes(-1, -2)) * c
    if diagonal:
        scores[..., ~np.eye(n_q, dtype=bool)] = -np.inf
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    merged = (p @ vh).swapaxes(-3, -2).reshape(q.shape)

    def vjp(g):
        g_att = (g @ wo.data.T).reshape(g.shape[:-1] + (heads, -1)).swapaxes(-3, -2)
        g_p = g_att @ vh.swapaxes(-1, -2)
        g_s = p * (g_p - (g_p * p).sum(axis=-1, keepdims=True)) * c
        g_qh = g_s @ kh
        g_kh = (qh.swapaxes(-1, -2) @ g_s).swapaxes(-1, -2)
        g_vh = p.swapaxes(-1, -2) @ g_att
        return (
            (g_qh @ wq.data.swapaxes(-1, -2)).sum(axis=-3),
            (g_kh @ wk.data.swapaxes(-1, -2)).sum(axis=-3),
            (g_vh @ wv.data.swapaxes(-1, -2)).sum(axis=-3),
            _head_grad(q.data, g_qh),
            _head_grad(k.data, g_kh),
            _head_grad(v.data, g_vh),
            merged.reshape(-1, d).T @ g.reshape(-1, d),
        )

    out = Tensor(merged @ wo.data, (q, k, v, wq, wk, wv, wo), vjp)
    return (out, p) if return_weights else out


def _attend(q: Tensor, kv: Tensor, block: AttentionBlock, scope: str,
            scale: str) -> Tensor:
    attended = mh_attention(q, kv, kv, block, scale, diagonal=scope == "post")
    return linear(attended, block.w_out, block.b_out)


def window_groups(windows: Sequence[Window]) -> list[list[int]]:
    """Positions in ``windows`` grouped by member count, ascending, in chunks.

    A group keeps the order of ``windows``; a group of n-post windows is cut
    into chunks of at most max(1, MAX_PAIRS // (n * max(n, 8))) windows.
    """
    by_size: dict[int, list[int]] = {}
    for pos, w in enumerate(windows):
        if not w.members:
            raise FusionError(f"window {w.index} has no members")
        by_size.setdefault(len(w.members), []).append(pos)
    chunks = []
    for n in sorted(by_size):
        group, step = by_size[n], max(1, MAX_PAIRS // (n * max(n, 8)))
        chunks += [group[k:k + step] for k in range(0, len(group), step)]
    return chunks


def gate(c_ti: Tensor, c_it: Tensor, w: Tensor, b: Tensor) -> tuple[Tensor, np.ndarray]:
    """Soft-gated mix ``g * c_ti + (1 - g) * c_it`` as one node, and the gate g.

    ``g = sigmoid(c_ti @ w_a.T + c_it @ w_b.T + b)``, where ``w_a`` and ``w_b``
    are the two (d, d) column blocks of the (d, 2d) gate matrix ``w``.
    """
    shape, d = c_ti.shape, c_ti.shape[-1]
    a, c = c_ti.data.reshape(-1, d), c_it.data.reshape(-1, d)
    w_a, w_b = w.data[:, :d], w.data[:, d:]
    g = stable_sigmoid(a @ w_a.T + c @ w_b.T + b.data)

    def vjp(grad: np.ndarray):
        grad = grad.reshape(-1, d)
        dz = grad * (a - c) * g * (1.0 - g)
        return (
            (grad * g + dz @ w_a).reshape(shape),
            (grad * (1.0 - g) + dz @ w_b).reshape(shape),
            np.concatenate([dz.T @ a, dz.T @ c], axis=1),
            dz.sum(axis=0),
        )

    fused = Tensor((g * a + (1.0 - g) * c).reshape(shape), (c_ti, c_it, w, b), vjp)
    return fused, g.reshape(shape)


@dataclass
class GroupFusion:
    """One pass over B windows of n posts: (B, n, d) each, row b following the
    members of the pass's window b."""

    cross_ti: Tensor
    cross_it: Tensor
    gate: np.ndarray  # the gate node's g, in (0, 1)
    fused: Tensor


def fuse_group(
    ds: Dataset,
    params: ModelParams,
    windows: Sequence[Window],
    scope: str = "window",
    scale: str = "head",
) -> GroupFusion:
    """Full fusion pipeline for windows of one member count, in one pass.

    Zero image vectors (absent images) encode exactly onto the image bias.
    """
    if scope not in SCOPES:
        raise FusionError(f"unknown attention scope {scope!r}")
    sizes = {len(w.members) for w in windows}
    if len(sizes) != 1 or 0 in sizes:
        raise FusionError(f"a fusion group needs windows of one non-zero member "
                          f"count, got counts {sorted(sizes)}")
    check_dims(ds, params)

    members = np.array([w.members for w in windows])     # (B, n)
    t = linear(ds.text[members], params["fusion.W_text"], params["fusion.b_text"])
    i = linear(ds.image[members], params["fusion.W_img"], params["fusion.b_img"])
    h_text = _attend(t, t, params.block("att_text"), scope, scale)
    h_img = _attend(i, i, params.block("att_img"), scope, scale)
    c_ti = _attend(h_text, h_img, params.block("att_ti"), scope, scale)
    c_it = _attend(h_img, h_text, params.block("att_it"), scope, scale)

    fused, g = gate(c_ti, c_it, params["fusion.W_g"], params["fusion.b_g"])
    return GroupFusion(c_ti, c_it, g, fused)


def fuse_window(
    ds: Dataset,
    params: ModelParams,
    window: Window,
    scope: str = "window",
    scale: str = "head",
) -> GroupFusion:
    """Fusion of one window: a group of one, (1, n, d) tensors."""
    return fuse_group(ds, params, [window], scope, scale)
