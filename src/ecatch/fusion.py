"""Encoders, intra-/cross-modal attention, and soft-gated fusion.

The attention sequence axis is the set of posts inside one window
(``scope="window"``). The ablation ``scope="post"`` masks every off-diagonal
score to -inf, so each query attends only to itself and the output is the
value path. Scaled dot-product uses sqrt(head width) by default
(``scale="head"``) or sqrt(model width) (``scale="model"``).

Windows are fused in groups of equal member count, which may mix events:
fusion has no term across windows, so a group of B windows of n posts is one
pass over (2, B, n, d) stacks, text rows at modality 0 and image rows at 1,
and no padding is needed. :func:`window_groups` cuts each group into chunks of
at most ``MAX_PAIRS`` attention pairs per modality and hands each chunk on as
its (B, n) member matrix, row b the members of its window b: the one member
count is the matrix's width, and :func:`fuse_group` and
``trend.decay_weights`` read no ``Window``. Nor does :func:`fuse_group` check
the embedding widths: ``training.run_model`` runs :func:`check_dims` once per
pass, before the first chunk. Fusing a chunk is one :func:`fuse_group` call,
which returns the chunk's (B, d) decay-weighted aggregates and one
vector-Jacobian product (VJP). Its stages are array functions that return a
value and a hand-written VJP: :func:`encode` writes the stack,
:func:`attention` runs self-attention over it (blocks ``att_text`` and
``att_img``), then cross-attention whose keys and values are the stack with
its modality axis flipped (``att_ti`` and ``att_it``), and :func:`gate`
mixes the two halves of the cross output. The chunk's VJP calls theirs in
reverse order; each value inside a chunk has one consumer, so no gradient is
summed there and the floats are those of calling the stage VJPs one by one.
``training.fused_aggregates`` builds both weight packs (:func:`block_pairs`)
once per pass, writes each chunk's aggregates at its windows' rows of one
(R, d) array and chains the chunks' VJPs, then the packs', into one.

Inside an attention stage, each input modality goes through one
(rows, d) @ (d, 3d) product that covers every head and the q/k/v roles, and
``Wo`` and ``W_out`` are one 2-D product each per modality. The VJP makes the
input gradient and the weight gradient with one product each, over all heads
and roles. Only the n x n stage runs per (window, head).

For its VJP an attention stage keeps only what is costly to rebuild, its
softmax probabilities. The VJP rebuilds the rest from arrays that it holds
anyway: the q/k/v projections from the input rows and the weight pack, the
head outputs from the probabilities, and the encoder rows by gathering the
dataset again. Each is the forward's operation on the same operands in the
same shapes, and the pass writes none of those arrays after the stage has
run, so the gradients are bit for bit those of keeping them. Nor does a
VJP keep the rows that enter ``W_out`` (it takes ``W_out``'s gradient
through ``Wo``) or the gate's fused rows, which only the aggregate reads.

That stage holds one (2, B, H, n, n) buffer in the forward pass: the scores
are scaled, shifted, exponentiated and normalised in place into the
probabilities that the VJP keeps. The VJP turns its fresh ``g_p`` into the
score gradient in place too, so its backward adds one buffer of that size
and one temporary. A window whose pairs alone pass ``MAX_PAIRS`` runs the
stage one modality at a time, so no buffer grows past one modality's
(1, H, n, n), and scoring, which asks for no VJP (``keep`` False), holds one
at a time.

No residual connections or layer normalization anywhere: the network is
shallow and gate/LSTM based, and stays stable without them.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .autodiff import stable_sigmoid
from .data import Dataset
from .params import ModelParams
from .windows import Window

SCOPES = ("window", "post")
SCALES = ("head", "model")

# Attention pairs (B * n * n) one fusion pass may hold per modality. A pass
# also holds at most MAX_PAIRS / 8 post rows, so that at d = 32 and H = 4
# neither one modality's (B, H, n, n) scores nor its (B, n, d) rows pass
# 256 KB an array, whatever the number of same-size windows. Each attention
# stage's forward keeps the scores of both modalities, the probabilities its VJP
# reuses for the score gradient.
MAX_PAIRS = 8192
# Rows of at most this many keys take their softmax max one key column at a
# time: exact, and far cheaper than a reduction over a short last axis.
COLUMN_MAX_KEYS = 16
ENCODER = ("fusion.W_text", "fusion.b_text", "fusion.W_img", "fusion.b_img")


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


def encode(ds: Dataset, params: ModelParams, members: np.ndarray) -> tuple[np.ndarray, Callable]:
    """Text and image rows of ``members`` as one (2, *members.shape, d) stack,
    and a VJP to the gradients of the ``ENCODER`` tensors.

    Modality m is ``x @ W.T + b`` over its embeddings, which are constants.
    The VJP gathers them from ``ds`` again instead of keeping them: the same
    rows in the same layout, which nothing changes during the pass.
    """
    d = params.d
    weights = [params[k].data for k in ENCODER]
    out = np.empty((2, members.size, d))
    for m, rows in enumerate(_encoder_rows(ds, members)):
        np.matmul(rows, weights[2 * m].T, out=out[m])
        out[m] += weights[2 * m + 1]

    def vjp(g: np.ndarray):
        g = g.reshape(2, -1, d)
        grads = []
        for m, rows in enumerate(_encoder_rows(ds, members)):
            grads += [(rows.T @ g[m]).T, g[m].sum(axis=0)]
        return grads

    return out.reshape((2,) + members.shape + (d,)), vjp


def _encoder_rows(ds: Dataset, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The text and the image rows of ``members``, gathered, one row a member."""
    return (ds.text[members].reshape(-1, ds.d_text),
            ds.image[members].reshape(-1, ds.d_img))


def block_pair(params: ModelParams, first: str, second: str,
               cross: bool = False) -> tuple[np.ndarray, Callable]:
    """Attention blocks ``first`` and ``second`` of ``params``, one per
    modality, as one (2, d, 5d + 1) pack, and a VJP to their tensors'
    gradients by name.

    Row block m holds the projection columns for the rows of input modality
    m, heads merged (head h of a role in its columns h*dh .. (h+1)*dh): Wq,
    Wk and Wv of block m, or with ``cross`` Wq of block m next to Wk and Wv
    of the other block, whose queries attend to these rows. Then come output
    m's ``Wo``, ``W_out`` and, as the last column, ``b_out``.
    """
    d, dh = params.d, params.d // params.heads
    names = []
    for block, other in ((first, second), (second, first)):
        kv = other if cross else block
        names += [f"fusion.{block}.Wq", f"fusion.{kv}.Wk", f"fusion.{kv}.Wv",
                  f"fusion.{block}.Wo", f"fusion.{block}.W_out", f"fusion.{block}.b_out"]
    pack = np.empty((2, d, 5 * d + 1))
    for m in range(2):
        wq, wk, wv, wo, w_out, b_out = (params[k].data for k in names[6 * m:6 * m + 6])
        pack[m, :, :3 * d] = np.concatenate([wq, wk, wv]).transpose(1, 0, 2).reshape(d, -1)
        pack[m, :, 3 * d:4 * d] = wo
        pack[m, :, 4 * d:5 * d] = w_out
        pack[m, :, 5 * d] = b_out

    def vjp(g: np.ndarray) -> dict[str, np.ndarray]:
        grads = []
        for m in range(2):
            grads += np.split(g[m, :, :3 * d].reshape(d, -1, dh).transpose(1, 0, 2).copy(), 3)
            grads += [g[m, :, 3 * d:4 * d].copy(), g[m, :, 4 * d:5 * d].copy(),
                      g[m, :, 5 * d].copy()]
        return dict(zip(names, grads))

    return pack, vjp


def block_pairs(params: ModelParams) -> tuple[tuple[np.ndarray, np.ndarray],
                                              tuple[Callable, Callable]]:
    """The self- and the cross-attention :func:`block_pair` packs of ``params``,
    then their VJPs in the same order."""
    intra, intra_vjp = block_pair(params, "att_text", "att_img")
    inter, inter_vjp = block_pair(params, "att_ti", "att_it", cross=True)
    return (intra, inter), (intra_vjp, inter_vjp)


def _row_max(s: np.ndarray) -> np.ndarray:
    """``s.max(axis=-1, keepdims=True)``, key column by key column for short rows."""
    if s.shape[-1] > COLUMN_MAX_KEYS:
        return s.max(axis=-1, keepdims=True)
    top = s[..., :1].copy()
    for j in range(1, s.shape[-1]):
        np.maximum(top, s[..., j:j + 1], out=top)
    return top


def attention(
    x: np.ndarray,
    w: np.ndarray,
    heads: int,
    cross: bool = False,
    scale: str = "head",
    diagonal: bool = False,
    return_weights: bool = False,
    keep: bool = True,
):
    """Two multi-head attention blocks over the (2, ..., n, d) stack ``x``:
    the output and a VJP to the gradients of ``x`` and the pack ``w``, or
    None for the VJP without ``keep``.

    Output m attends from the rows of ``x[m]`` to those of ``x[m]``, or with
    ``cross`` to those of ``x[1 - m]``, with row block m of ``w`` (see
    :func:`block_pair`), then applies ``x @ W_out.T + b_out``. Axes between
    the modality and the rows index independent sequences, such as the
    windows of one fusion chunk. ``diagonal`` masks every score but (i, i);
    ``return_weights`` puts the (2, ..., H, n, n) probabilities before the VJP.

    The VJP keeps the probabilities, and nothing else of the stage's own: it
    rebuilds the (2, B * n, 3d) projections as ``x`` rows @ the pack's
    projection columns, and the (2, B * n, d) head outputs as each head's
    ``p @ v`` into the same layout. The operands are ``x`` and ``w``, which
    the pass does not write again, and the shapes are the forward's, so the
    floats are the same.
    """
    shape = x.shape
    n, d = shape[-2:]
    if n < 1:
        raise FusionError("attention requires at least one key row")
    if scale not in SCALES:
        raise FusionError(f"unknown attention scale {scale!r}")
    c = 1.0 / (np.sqrt(d / heads) if scale == "head" else np.sqrt(d))
    rows_in = x.reshape(2, -1, d)
    batch = rows_in.shape[1] // n
    q, k, v = _projections(rows_in, w, n, heads, cross)
    # A window too big for the pair budget on its own runs one modality at a time.
    parts = [slice(0, 1), slice(1, 2)] if n * max(n, 8) > MAX_PAIRS else [slice(0, 2)]
    merged, heads_first = _head_outputs(batch, n, heads, d)
    hold = keep or return_weights
    probs = []
    for s in parts:
        # The softmax runs in place on one score buffer, in the operand order
        # of ``e = exp(s * c - max); p = e / e.sum``, so every float equals the
        # out-of-place form's.
        p = q[s] @ k[s].swapaxes(-1, -2)
        p *= c
        if diagonal:
            p[..., ~np.eye(n, dtype=bool)] = -np.inf
        p -= _row_max(p)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        np.matmul(p, v[s], out=heads_first[s])
        if hold:
            probs.append(p)
        del p

    def vjp(g_out: np.ndarray):
        # The projections and head outputs again, by the forward's products
        q, k, v = _projections(rows_in, w, n, heads, cross)
        merged, heads_first = _head_outputs(batch, n, heads, d)
        for s, p in zip(parts, probs):
            np.matmul(p, v[s], out=heads_first[s])
        g_rows = g_out.reshape(merged.shape)
        g_pair = np.empty_like(w)
        # W_out's gradient g_rows^T @ (merged @ Wo), associated so that the
        # VJP need not keep the rows that entered W_out
        np.matmul(g_rows.swapaxes(-1, -2) @ merged, w[:, :, 3 * d:4 * d],
                  out=g_pair[:, :, 4 * d:5 * d])
        g_pair[:, :, 5 * d] = g_rows.sum(axis=1)
        g = g_rows @ w[:, :, 4 * d:5 * d]
        np.matmul(merged.swapaxes(-1, -2), g, out=g_pair[:, :, 3 * d:4 * d])
        g_att = (g @ w[:, :, 3 * d:4 * d].swapaxes(-1, -2)) \
            .reshape(2, batch, n, heads, -1).transpose(0, 1, 3, 2, 4)
        g_proj = np.empty((2, batch, n, 3, heads, d // heads))
        g_q, g_k, g_v = g_proj.transpose(3, 0, 1, 4, 2, 5)
        if cross:
            g_k, g_v = g_k[::-1], g_v[::-1]
        for s, p in zip(parts, probs):
            # g_p turns into the score gradient p * (g_p - (g_p * p).sum) * c
            # in place, in that operand order
            g_s = g_att[s] @ v[s].swapaxes(-1, -2)
            g_s -= (g_s * p).sum(axis=-1, keepdims=True)
            g_s *= p
            g_s *= c
            np.matmul(g_s, k[s], out=g_q[s])
            np.matmul(g_s.swapaxes(-1, -2), q[s], out=g_k[s])
            np.matmul(p.swapaxes(-1, -2), g_att[s], out=g_v[s])
        g_proj = g_proj.reshape(2, -1, 3 * d)
        np.matmul(rows_in.swapaxes(-1, -2), g_proj, out=g_pair[:, :, :3 * d])
        return (g_proj @ w[:, :, :3 * d].swapaxes(-1, -2)).reshape(shape), g_pair

    out = (merged @ w[:, :, 3 * d:4 * d]) @ w[:, :, 4 * d:5 * d].swapaxes(-1, -2) \
        + w[:, None, :, 5 * d]
    if not keep:
        vjp = None
    if return_weights:
        return out.reshape(shape), probs[0] if len(probs) == 1 else np.concatenate(probs), vjp
    return out.reshape(shape), vjp


def _projections(rows_in: np.ndarray, w: np.ndarray, n: int, heads: int, cross: bool):
    """q, k and v of the (2, B * n, d) rows ``rows_in`` under the (2, d, 5d + 1)
    pair ``w``: (modality, window, head, post, head width) views of one
    (2, B * n, 3d) product, k and v flipped across modalities for ``cross``."""
    d = rows_in.shape[-1]
    q, k, v = (rows_in @ w[:, :, :3 * d]).reshape(2, -1, n, 3, heads, d // heads) \
        .transpose(3, 0, 1, 4, 2, 5)
    return (q, k[::-1], v[::-1]) if cross else (q, k, v)


def _head_outputs(batch: int, n: int, heads: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """An empty (2, B * n, d) head-output buffer, heads merged, and its
    (2, B, H, n, d / H) view, into which each head's ``p @ v`` is written."""
    merged = np.empty((2, batch, n, heads, d // heads))
    return merged.reshape(2, -1, d), merged.transpose(0, 1, 3, 2, 4)


def window_groups(windows: Sequence[Window]) -> list[tuple[list[int], np.ndarray]]:
    """Positions in ``windows`` grouped by member count, ascending, in chunks,
    each with its (B, n) member matrix.

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
        members = np.array([windows[p].members for p in group], dtype=np.intp)
        chunks += [(group[k:k + step], members[k:k + step]) for k in range(0, len(group), step)]
    return chunks


def gate(cross: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Soft-gated mix ``g * c_ti + (1 - g) * c_it`` of the halves of ``cross``,
    the gate g and a VJP to the gradients of ``cross``, ``w`` and ``b``.

    ``cross`` is the (2, ..., d) stack of ``c_ti`` and ``c_it``, and
    ``g = sigmoid(c_ti @ w_a.T + c_it @ w_b.T + b)``, where ``w_a`` and
    ``w_b`` are the two (d, d) column blocks of the (d, 2d) gate matrix ``w``.
    """
    shape, d = cross.shape[1:], cross.shape[-1]
    a, c = cross.reshape(2, -1, d)
    w_a, w_b = w[:, :d], w[:, d:]
    g = stable_sigmoid(a @ w_a.T + c @ w_b.T + b)

    def vjp(grad: np.ndarray):
        grad = grad.reshape(-1, d)
        dz = grad * (a - c) * g * (1.0 - g)
        g_cross = np.empty((2,) + a.shape)
        g_cross[0] = grad * g + dz @ w_a
        g_cross[1] = grad * (1.0 - g) + dz @ w_b
        return (
            g_cross.reshape(cross.shape),
            np.concatenate([dz.T @ a, dz.T @ c], axis=1),
            dz.sum(axis=0),
        )

    return (g * a + (1.0 - g) * c).reshape(shape), g.reshape(shape), vjp


def fuse_group(
    ds: Dataset,
    params: ModelParams,
    members: np.ndarray,
    weights: np.ndarray,
    packs: tuple[np.ndarray, np.ndarray],
    scope: str = "window",
    scale: str = "head",
    keep: bool = True,
) -> tuple[np.ndarray, Callable | None]:
    """The (B, d) aggregates of the (B, n) member matrix of one chunk, and
    their VJP, or None without ``keep``.

    Row b is the mean of window b's fused rows under row b of the (B, n)
    ``weights``. ``packs`` are the two :func:`block_pairs` packs of
    ``params``, which a caller fusing several chunks builds once. Zero image
    vectors (absent images) encode exactly onto the image bias. The VJP maps
    the aggregates' gradient to the two packs' gradients, then those of the
    ``ENCODER`` tensors, ``fusion.W_g`` and ``fusion.b_g`` by name.
    """
    if scope not in SCOPES:
        raise FusionError(f"unknown attention scope {scope!r}")
    (intra, inter), post = packs, scope == "post"
    w_g, b_g = params["fusion.W_g"].data, params["fusion.b_g"].data
    x, encode_vjp = encode(ds, params, members)
    h, self_vjp = attention(x, intra, params.heads, False, scale, post, keep=keep)
    c, cross_vjp = attention(h, inter, params.heads, True, scale, post, keep=keep)
    fused, _, gate_vjp = gate(c, w_g, b_g)
    out = (weights[:, None, :] @ fused)[:, 0, :]
    if not keep:
        return out, None

    def vjp(g: np.ndarray):
        g_c, g_wg, g_bg = gate_vjp(weights[:, :, None] * g[:, None, :])
        g_h, g_inter = cross_vjp(g_c)
        g_x, g_intra = self_vjp(g_h)
        grads = encode_vjp(g_x) + [g_wg, g_bg]
        return (g_intra, g_inter), dict(zip(ENCODER + ("fusion.W_g", "fusion.b_g"), grads))

    return out, vjp


def fuse_window(
    ds: Dataset,
    params: ModelParams,
    window: Window,
    weights: np.ndarray,
    scope: str = "window",
    scale: str = "head",
):
    """Fusion of one window: a (1, n) member matrix under (1, n) ``weights``.

    Only ``bench/tracer.py`` uses it: the tracer wraps this name. Deleting it
    waits for the benchmark change that points the tracer at ``fuse_group``.
    """
    return fuse_group(ds, params, np.array([window.members], dtype=np.intp), weights,
                      block_pairs(params)[0], scope, scale)
