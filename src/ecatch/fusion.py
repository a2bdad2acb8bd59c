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
a pass makes seven tape nodes, each with a hand-written vector-Jacobian
product: two encoder ``linear`` nodes, one ``mh_attention`` node per
attention block (output affine included), and one :func:`gate` node that
mixes the two cross-modal views (``trend.aggregate`` adds an eighth).

Each attention block holds one (..., H, n, n) buffer in the forward pass: the
scores are scaled, shifted, exponentiated and normalised in place into the
probabilities that the VJP keeps. The VJP turns its fresh ``g_p`` into the
score gradient in place too, so a block's backward adds one n x n buffer and
one n x n temporary.

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
# the number of same-size windows. Each block's forward holds one such score
# buffer, the probabilities the VJP keeps; the VJP reuses its ``g_p`` for the
# score gradient.
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
    """Multi-head attention, rows of q over rows of k/v, then ``x @ W_out.T + b_out``.

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
    wq, wk, wv, wo, w_out = block.wq, block.wk, block.wv, block.wo, block.w_out

    qh = q.data[..., None, :, :] @ wq.data          # (..., H, n_q, dh)
    kh = k.data[..., None, :, :] @ wk.data          # (..., H, n_k, dh)
    vh = v.data[..., None, :, :] @ wv.data          # (..., H, n_k, dh)
    # The softmax runs in place on the one (..., H, n_q, n_k) score buffer, in
    # the operand order of ``e = exp(s * c - max); p = e / e.sum``, so every
    # float equals the out-of-place form's.
    p = qh @ kh.swapaxes(-1, -2)
    p *= c
    if diagonal:
        p[..., ~np.eye(n_q, dtype=bool)] = -np.inf
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    merged = (p @ vh).swapaxes(-3, -2).reshape(q.shape)
    rows = (merged @ wo.data).reshape(-1, d)

    def vjp(g_out):
        g_rows = g_out.reshape(rows.shape)
        g = (g_rows @ w_out.data).reshape(q.shape)
        g_att = (g @ wo.data.T).reshape(g.shape[:-1] + (heads, -1)).swapaxes(-3, -2)
        # g_p turns into the score gradient p * (g_p - (g_p * p).sum) * c in
        # place, in that operand order
        g_s = g_att @ vh.swapaxes(-1, -2)
        g_s -= (g_s * p).sum(axis=-1, keepdims=True)
        g_s *= p
        g_s *= c
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
            (rows.T @ g_rows).T, g_rows.sum(axis=0),
        )

    out = (rows @ w_out.data.T).reshape(q.shape) + block.b_out.data
    out = Tensor(out, (q, k, v, wq, wk, wv, wo, w_out, block.b_out), vjp)
    return (out, p) if return_weights else out


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
    post = scope == "post"
    h_text = mh_attention(t, t, t, params.block("att_text"), scale, diagonal=post)
    h_img = mh_attention(i, i, i, params.block("att_img"), scale, diagonal=post)
    c_ti = mh_attention(h_text, h_img, h_img, params.block("att_ti"), scale, diagonal=post)
    c_it = mh_attention(h_img, h_text, h_text, params.block("att_it"), scale, diagonal=post)

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
