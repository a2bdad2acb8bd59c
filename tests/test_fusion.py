import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecatch import fusion
from ecatch.autodiff import Tensor, finite_difference_gradient, no_grad
from ecatch.fusion import FusionError, attention, block_pair, block_pairs
from ecatch.params import AttentionBlock, ModelParams
from ecatch.trend import decay_weights
from ecatch.windows import Window

from conftest import DAY, as_node, five_nodes, make_dataset


def all_posts(ds):
    """The member matrix of one window over every post of ``ds``."""
    return np.arange(ds.n)[None]


def build_params(d=4, heads=2, d_text=3, d_img=3, seed=0, zero=False):
    return ModelParams.build(d, heads, d_text, d_img, seed=seed, zero=zero)


def encode(ds, params, indices):
    """The text and image encoder outputs, (n, d) each, of one window over ``indices``."""
    text, image = fusion.encode(ds, params, np.array([indices], dtype=np.intp))[0][:, 0]
    return text, image


def test_encode_zero_weights_give_bias(rng):
    ds = make_dataset(rng.normal(size=(4, 3)), image=rng.normal(size=(4, 3)))
    params = build_params(zero=True)
    params["fusion.b_text"].data[...] = 7.0
    t, i = encode(ds, params, range(4))
    assert np.all(t == 7.0)
    assert np.all(i == 0.0)


def test_encode_absent_image_maps_to_bias(rng):
    image = rng.normal(size=(3, 3))
    image[1] = 0.0
    ds = make_dataset(rng.normal(size=(3, 3)), image=image,
                      has_image=[True, False, True])
    params = build_params(seed=1)
    params["fusion.b_img"].data[...] = rng.normal(size=4)
    _, i = encode(ds, params, range(3))
    np.testing.assert_allclose(i[1], params["fusion.b_img"].data)


def test_encode_identity_passthrough(rng):
    x = rng.normal(size=(5, 4))
    ds = make_dataset(x, image=np.zeros((5, 3)))
    params = ModelParams.build(4, 2, 4, 3, zero=True)
    params["fusion.W_text"].data[...] = np.eye(4)
    t, _ = encode(ds, params, range(5))
    np.testing.assert_array_equal(t, x)


def random_blocks(rng, heads, dh, scale=1.0):
    """Two attention blocks of random Tensors, and their arrays in block order."""
    d = heads * dh
    shapes = [(heads, d, dh)] * 3 + [(d, d), (d, d), (d,)]
    arrays = [rng.normal(size=s) * scale for _ in range(2) for s in shapes]
    tensors = [Tensor(a) for a in arrays]
    return AttentionBlock(*tensors[:6]), AttentionBlock(*tensors[6:]), arrays, tensors


def stacked(x, blocks, cross=False, **kwargs):
    """One attention stage's output over the (2, ..., n, d) array ``x``."""
    return attention(x, block_pair(*blocks, cross=cross).data, blocks[0].wq.shape[0], cross,
                     **kwargs)[0]


def test_attention_single_key_ignores_query(rng):
    # With one key the softmax is 1, so a cross output does not see its
    # queries, and a self output is its own row's value path.
    blocks = random_blocks(rng, 2, 2)[:2]
    x = rng.normal(size=(2, 3, 1, 4))
    y = x.copy()
    y[0] = rng.normal(size=(3, 1, 4)) * 50
    for cross, same in ((True, 0), (False, 1)):
        out1, out2 = stacked(x, blocks, cross), stacked(y, blocks, cross)
        np.testing.assert_array_equal(out1[same], out2[same])
        assert not np.allclose(out1[1 - same], out2[1 - same])


def test_attention_identical_keys_identical_rows(rng):
    blocks = random_blocks(rng, 2, 2)[:2]
    x = np.stack([rng.normal(size=(5, 4)), np.tile(rng.normal(size=(1, 4)), (5, 1))])
    out = stacked(x, blocks, cross=True)
    assert np.allclose(out[0], out[0, 0])  # queries of x[0] over identical keys
    assert np.allclose(out[1], out[1, 0])  # identical queries


def test_single_head_uniform_softmax_is_column_mean(rng):
    # zero query/key projections force uniform attention; identity value and
    # output projections then average the value rows
    params = ModelParams.build(4, 1, 3, 3, zero=True)
    for name in ("att_text", "att_img", "att_ti", "att_it"):
        block = params.block(name)
        block.wv.data[...] = np.eye(4)[None]
        block.wo.data[...] = np.eye(4)
        block.w_out.data[...] = np.eye(4)
    x = rng.normal(size=(2, 6, 4))
    for cross, pair in enumerate(block_pairs(params)):
        out = attention(x, pair.data, 1, bool(cross))[0]
        for m in range(2):
            direct = x[m if not cross else 1 - m].mean(axis=0)
            np.testing.assert_allclose(out[m], np.tile(direct, (6, 1)), atol=1e-12)


def test_attention_rows_stochastic(rng):
    params = build_params(seed=5)
    x = rng.normal(size=(2, 3, 6, 4)) * 3
    for cross, pair in enumerate(block_pairs(params)):
        _, w, _ = attention(x, pair.data, 2, bool(cross), return_weights=True)
        assert w.shape == (2, 3, 2, 6, 6)
        assert np.abs(w.sum(axis=-1) - 1.0).max() < 1e-12


def merge(heads):
    """(H, n, dh) -> (n, H*dh), head h in columns h*dh .. (h+1)*dh."""
    h, n, dh = heads.shape
    return heads.transpose(1, 0, 2).reshape((n, h * dh))


def numpy_attention(q, k, v, wq, wk, wv, wo, w_out, b_out, divisor, diagonal):
    scores = (q @ wq @ (k @ wk).transpose(0, 2, 1)) * (1.0 / divisor)
    if diagonal:
        scores[:, ~np.eye(len(q), dtype=bool)] = -np.inf
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return merge((e / e.sum(axis=-1, keepdims=True)) @ (v @ wv)) @ wo @ w_out.T + b_out


def assert_gemv_close(got, want):
    """Equal up to a few units in the last place of the largest entry: how far
    a gemv's sums and a GEMM's may differ."""
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=8 * np.finfo(np.float64).eps * np.abs(want).max())


def sources(x, cross):
    """Per output modality m: its queries x[m] and its keys and values."""
    return [(x[m], x[1 - m] if cross else x[m]) for m in range(2)]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 5),
    heads=st.sampled_from([1, 2, 4]),
    dh=st.integers(1, 2),
    scale=st.sampled_from(["head", "model"]),
    post=st.booleans(),
    cross=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_attention_node_matches_numpy_and_finite_differences(
        n, heads, dh, scale, post, cross, seed):
    d = heads * dh
    rng = np.random.default_rng(seed)
    *_, weights, _ = random_blocks(rng, heads, dh)
    arrays = [rng.normal(size=(2, n, d))] + weights
    g = rng.normal(size=(2, n, d))

    def attend(arrs):
        tensors = [Tensor(a) for a in arrs]
        pair = block_pair(AttentionBlock(*tensors[1:7]), AttentionBlock(*tensors[7:]), cross)
        return as_node(attention(arrs[0], pair.data, heads, cross, scale, diagonal=post),
                       tensors[0], pair), tensors

    out, tensors = attend(arrays)
    divisor = np.sqrt(dh) if scale == "head" else np.sqrt(d)
    for m, (q, kv) in enumerate(sources(arrays[0], cross)):
        block = weights[6 * m:6 * m + 6]
        expected = numpy_attention(q, kv, kv, *block, divisor, post)
        value_path = merge(kv @ block[2]) @ block[3] @ block[4].T + block[5]
        if n == 1 or dh == 1:
            # numpy computes a one-row or one-column product with gemv, whose
            # sums may round differently from the node's merged GEMM
            assert_gemv_close(out.data[m], expected)
            continue
        assert out.data[m].tobytes() == expected.tobytes()
        if post:  # each query sees only its own row: the value path
            assert out.data[m].tobytes() == value_path.tobytes()

    out.backward(g)
    if post:  # no score gradient, so no query or key projection learns
        for k in (1, 2, 7, 8):
            assert np.all(tensors[k].grad == 0.0), k
    # Rounding in f(x ± h) puts about eps * S / h into each central difference,
    # S being the sum of the |terms| that f adds up (|f| itself can cancel far
    # below S). For gradients below about 1e-4 * S the 1e-6 relative bound lies
    # under that floor; such draws showed up to 0.83 * eps * S / h of error.
    h = 1e-5
    floor = 4 * np.finfo(np.float64).eps * float(np.abs(out.data * g).sum()) / h
    for idx, tensor in enumerate(tensors):
        def f(x, idx=idx):
            return float((attend(arrays[:idx] + [x] + arrays[idx + 1:])[0].data * g).sum())

        fd = finite_difference_gradient(f, arrays[idx], h)
        err = np.abs(fd - tensor.grad).max()
        assert err <= max(1e-6 * max(np.abs(fd).max(), np.abs(tensor.grad).max()), floor), idx


def test_attention_rejects_empty_keys(rng):
    blocks = random_blocks(rng, 2, 2)[:2]
    with pytest.raises(FusionError):
        stacked(np.zeros((2, 0, 4)), blocks)


def symmetric_setup(rng, n=3):
    """Identical text/image pipelines so both cross outputs coincide."""
    x = rng.normal(size=(n, 3))
    ds = make_dataset(x, image=x.copy(), has_image=[True] * n)
    params = build_params(seed=6)
    for suffix in ("W_img", "b_img"):
        params[f"fusion.{suffix}"].data[...] = params[
            f"fusion.{suffix.replace('img', 'text')}"].data
    for tensor in ("Wq", "Wk", "Wv", "Wo", "W_out", "b_out"):
        params[f"fusion.att_img.{tensor}"].data[...] = params[
            f"fusion.att_text.{tensor}"].data
        params[f"fusion.att_it.{tensor}"].data[...] = params[
            f"fusion.att_ti.{tensor}"].data
    return ds, params


def test_equal_cross_outputs_pin_fusion(rng):
    ds, params = symmetric_setup(rng)
    wf = five_nodes(ds, params, all_posts(ds))
    c_ti, c_it = wf.cross.data
    np.testing.assert_allclose(c_ti, c_it)
    np.testing.assert_allclose(wf.fused.data, c_ti)


def test_saturated_gate_selects_first_branch(rng):
    ds = make_dataset(rng.normal(size=(3, 3)), image=rng.normal(size=(3, 3)))
    params = build_params(seed=7)
    params["fusion.W_g"].data[...] = 0.0
    params["fusion.b_g"].data[...] = 40.0
    wf = five_nodes(ds, params, all_posts(ds))
    assert np.abs(wf.fused.data - wf.cross.data[0]).max() < 1e-9


def test_single_post_window_finite(rng):
    ds = make_dataset(rng.normal(size=(1, 3)), image=rng.normal(size=(1, 3)))
    wf = five_nodes(ds, build_params(seed=8), all_posts(ds))
    assert wf.fused.data.shape == (1, 1, 4)
    assert np.all(np.isfinite(wf.fused.data))


def test_gate_bounds_and_convex_combination(rng):
    ds = make_dataset(rng.normal(size=(5, 3)), image=rng.normal(size=(5, 3)))
    wf = five_nodes(ds, build_params(seed=9), all_posts(ds))
    assert np.all(wf.gate > 0.0) and np.all(wf.gate < 1.0)
    lo, hi = wf.cross.data.min(axis=0), wf.cross.data.max(axis=0)
    assert np.all(wf.fused.data >= lo - 1e-12)
    assert np.all(wf.fused.data <= hi + 1e-12)


def test_permutation_equivariance(rng):
    x = rng.normal(size=(4, 3))
    img = rng.normal(size=(4, 3))
    times = [10, 20, 30, 40]
    ds = make_dataset(x, image=img, timestamps=times, has_image=[True] * 4)
    params = build_params(seed=10)
    a = five_nodes(ds, params, [[0, 1, 2, 3]]).fused.data[0]
    b = five_nodes(ds, params, [[2, 0, 3, 1]]).fused.data[0]
    np.testing.assert_allclose(b, a[[2, 0, 3, 1]], atol=1e-12)


def test_post_scope_has_no_cross_post_flow(rng):
    x = rng.normal(size=(3, 3))
    ds1 = make_dataset(x, image=np.zeros((3, 3)))
    x2 = x.copy()
    x2[2] += 5.0
    ds2 = make_dataset(x2, image=np.zeros((3, 3)))
    params = build_params(seed=11)
    out1 = five_nodes(ds1, params, all_posts(ds1), scope="post").fused.data[0]
    out2 = five_nodes(ds2, params, all_posts(ds2), scope="post").fused.data[0]
    np.testing.assert_allclose(out1[:2], out2[:2])
    assert not np.allclose(out1[2], out2[2])


def test_fusion_gradients_match_finite_differences(rng):
    ds = make_dataset(rng.normal(size=(3, 3)), image=rng.normal(size=(3, 3)),
                      has_image=[True, True, False])
    params = build_params(seed=12)
    members, weights = all_posts(ds), np.array([[0.2, 0.3, 0.5]])

    def chunk():
        return fusion.fuse_group(ds, params, members, weights, block_pairs(params))

    def scalar():  # the sum of squared aggregate entries
        return float(np.sum(chunk().data ** 2))

    agg = chunk()
    params.zero_grads()
    agg.backward(2.0 * agg.data)
    for name in ("fusion.W_text", "fusion.att_ti.Wq", "fusion.W_g",
                 "fusion.att_img.b_out"):
        tensor = params[name]
        analytic = tensor.grad.copy()

        def f(x, tensor=tensor):
            old = tensor.data.copy()
            tensor.data = x
            val = scalar()
            tensor.data = old
            return val

        fd = finite_difference_gradient(f, tensor.data)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-8)
        assert (np.abs(fd - analytic) / denom).max() < 1e-4, name


@settings(max_examples=30, deadline=None)
@given(
    batch=st.integers(1, 3),
    n=st.integers(1, 4),
    heads=st.sampled_from([1, 2]),
    post=st.booleans(),
    cross=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_batched_attention_matches_each_sequence_and_finite_differences(
        batch, n, heads, post, cross, seed):
    rng = np.random.default_rng(seed)
    *_, weights, _ = random_blocks(rng, heads, 2)
    arrays = [rng.normal(size=(2, batch, n, 2 * heads))] + weights
    g = rng.normal(size=(2, batch, n, 2 * heads))

    def attend(arrs):
        tensors = [Tensor(a) for a in arrs]
        pair = block_pair(AttentionBlock(*tensors[1:7]), AttentionBlock(*tensors[7:]), cross)
        return as_node(attention(arrs[0], pair.data, heads, cross, diagonal=post),
                       tensors[0], pair), tensors

    out, tensors = attend(arrays)
    for b in range(batch):
        one, _ = attend([arrays[0][:, b]] + arrays[1:])
        np.testing.assert_allclose(out.data[:, b], one.data, rtol=1e-12, atol=1e-14)

    out.backward(g)
    for idx, tensor in enumerate(tensors):
        def f(x, idx=idx):
            return float((attend(arrays[:idx] + [x] + arrays[idx + 1:])[0].data * g).sum())

        fd = finite_difference_gradient(f, arrays[idx])
        err = np.abs(fd - tensor.grad).max()
        assert err <= 1e-6 * max(np.abs(fd).max(), np.abs(tensor.grad).max(), 1e-3), idx


def head_grad(x, g_heads):
    """Per-head ``x^T @ g`` summed over every leading axis: (H, d, dh)."""
    heads, dh = g_heads.shape[-3], g_heads.shape[-1]
    g_rows = np.moveaxis(g_heads, -3, 0).reshape(heads, -1, dh)
    return x.reshape(-1, x.shape[-1]).T @ g_rows


def out_of_place_attention(q, k, v, wq, wk, wv, wo, w_out, b_out, c, diagonal, g_out):
    """One attention block in the per-head layout, with each n x n step in a
    fresh array: its forward and the nine gradients of its q, k, v and
    weights, each head's input and weight gradients summed over heads."""
    n_q, d = q.shape[-2:]
    heads = wq.shape[0]
    qh, kh, vh = q[..., None, :, :] @ wq, k[..., None, :, :] @ wk, v[..., None, :, :] @ wv
    scores = (qh @ kh.swapaxes(-1, -2)) * c
    if diagonal:
        scores[..., ~np.eye(n_q, dtype=bool)] = -np.inf
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    merged = (p @ vh).swapaxes(-3, -2).reshape(q.shape)
    rows = (merged @ wo).reshape(-1, d)
    out = (rows @ w_out.T).reshape(q.shape) + b_out

    g_rows = g_out.reshape(rows.shape)
    g = (g_rows @ w_out).reshape(q.shape)
    g_att = (g @ wo.T).reshape(g.shape[:-1] + (heads, -1)).swapaxes(-3, -2)
    g_p = g_att @ vh.swapaxes(-1, -2)
    g_s = p * (g_p - (g_p * p).sum(axis=-1, keepdims=True)) * c
    g_qh = g_s @ kh
    g_kh = (qh.swapaxes(-1, -2) @ g_s).swapaxes(-1, -2)
    g_vh = p.swapaxes(-1, -2) @ g_att
    grads = (
        (g_qh @ wq.swapaxes(-1, -2)).sum(axis=-3),
        (g_kh @ wk.swapaxes(-1, -2)).sum(axis=-3),
        (g_vh @ wv.swapaxes(-1, -2)).sum(axis=-3),
        head_grad(q, g_qh), head_grad(k, g_kh), head_grad(v, g_vh),
        merged.reshape(-1, d).T @ g.reshape(-1, d), (rows.T @ g_rows).T, g_rows.sum(axis=0),
    )
    return out, grads


def out_of_place_stacked(x, pair, heads, cross, c, diagonal, g_out):
    """An attention node in its stacked, head-merged layout, with each n x n
    step in a fresh array: the forward, the probabilities and the VJP
    outputs that the node's in-place softmax must match bit for bit."""
    n, d = x.shape[-2:]
    rows_in = x.reshape(2, -1, d)
    q, k, v = (rows_in @ pair[:, :, :3 * d]).reshape(2, -1, n, 3, heads, d // heads) \
        .transpose(3, 0, 1, 4, 2, 5)
    if cross:
        k, v = k[::-1], v[::-1]
    scores = (q @ k.swapaxes(-1, -2)) * c
    if diagonal:
        scores[..., ~np.eye(n, dtype=bool)] = -np.inf
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    merged = (p @ v).transpose(0, 1, 3, 2, 4).reshape(2, -1, d)
    rows = merged @ pair[:, :, 3 * d:4 * d]
    out = rows @ pair[:, :, 4 * d:5 * d].swapaxes(-1, -2) + pair[:, None, :, 5 * d]

    g_rows = g_out.reshape(rows.shape)
    g = g_rows @ pair[:, :, 4 * d:5 * d]
    g_att = (g @ pair[:, :, 3 * d:4 * d].swapaxes(-1, -2)) \
        .reshape(2, -1, n, heads, d // heads).transpose(0, 1, 3, 2, 4)
    g_p = g_att @ v.swapaxes(-1, -2)
    g_s = p * (g_p - (g_p * p).sum(axis=-1, keepdims=True)) * c
    g_q, g_k, g_v = g_s @ k, g_s.swapaxes(-1, -2) @ q, p.swapaxes(-1, -2) @ g_att
    if cross:
        g_k, g_v = g_k[::-1], g_v[::-1]
    g_proj = np.stack([g_q, g_k, g_v]).transpose(1, 2, 4, 0, 3, 5).reshape(2, -1, 3 * d)
    g_pair = np.concatenate([rows_in.swapaxes(-1, -2) @ g_proj, merged.swapaxes(-1, -2) @ g,
                             (g_rows.swapaxes(-1, -2) @ merged) @ pair[:, :, 3 * d:4 * d],
                             g_rows.sum(axis=1)[..., None]],
                            axis=-1)
    g_x = (g_proj @ pair[:, :, :3 * d].swapaxes(-1, -2)).reshape(x.shape)
    return out.reshape(x.shape), p, (g_x, g_pair)


def burst_size_params(d=32, heads=4, seed=1):
    """Model parameters with attention weights at the scale of a trained model."""
    params = ModelParams.build(d, heads, 8, 8, seed=seed)
    rng = np.random.default_rng(seed)
    for name, tensor in params.items():
        if name.startswith("fusion.att_"):
            scale = 1.0 if name.endswith("b_out") else 1.0 / np.sqrt(d)
            tensor.data = rng.normal(size=tensor.shape) * scale
    return params


@pytest.mark.parametrize("diagonal", [False, True])
@pytest.mark.parametrize("batch, n", [(1, 150), (40, 8)], ids=["burst-window", "chunk"])
def test_attention_is_bitwise_the_out_of_place_softmax_at_burst_size(batch, n, diagonal):
    # At n = 150 the node runs its n x n stage one modality at a time, at
    # n = 8 both at once; the reference runs both at once.
    d, heads = 32, 4
    rng = np.random.default_rng(batch * 1000 + n)
    params = burst_size_params(d, heads)
    c = 1.0 / np.sqrt(d / heads)
    for cross, pair in enumerate(block_pairs(params)):
        x = rng.normal(size=(2, batch, n, d))
        g_out = rng.normal(size=(2, batch, n, d))
        out, p, vjp = attention(x, pair.data, heads, bool(cross), diagonal=diagonal,
                                return_weights=True)
        ref_out, ref_p, ref_grads = out_of_place_stacked(x, pair.data, heads, cross, c,
                                                         diagonal, g_out)
        assert out.tobytes() == ref_out.tobytes()
        assert p.tobytes() == ref_p.tobytes()
        grads = vjp(g_out)
        assert len(grads) == len(ref_grads) == 2
        for idx, (got, want) in enumerate(zip(grads, ref_grads)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (cross, idx)


def assert_close_to_per_head(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("batch, n", [(64, 1), (5, 1), (30, 2), (7, 5), (40, 8), (10, 16),
                                      (4, 17), (2, 60), (1, 91), (1, 190)])
def test_two_nodes_match_four_per_block_passes(batch, n):
    # The self and the cross node against the four blocks run one by one in
    # the per-head layout: the forward byte for byte (1-post windows go
    # through gemv there, which may round differently), the gradients up to
    # the order in which heads, roles and modalities are summed.
    d, heads = 32, 4
    rng = np.random.default_rng(n)
    params = burst_size_params(d, heads)
    c = 1.0 / np.sqrt(d / heads)
    x = rng.normal(size=(2, batch, n, d))
    g_out = rng.normal(size=(2, 2, batch, n, d))
    names = (("att_text", "att_img"), ("att_ti", "att_it"))
    for cross, (pair, blocks) in enumerate(zip(block_pairs(params), names)):
        out, vjp = attention(x, pair.data, heads, bool(cross))
        g_x, g_pair = vjp(g_out[cross])
        g_weights = pair._vjp(g_pair)
        ref_gx = np.zeros_like(x)
        for m, (q, kv) in enumerate(sources(x, cross)):
            block = params.block(blocks[m])
            weights = [t.data for t in (block.wq, block.wk, block.wv, block.wo, block.w_out,
                                        block.b_out)]
            ref, grads = out_of_place_attention(q, kv, kv, *weights, c, False,
                                                g_out[cross, m])
            if n == 1:
                assert_gemv_close(out[m], ref)
            else:
                assert out[m].tobytes() == ref.tobytes(), (cross, m)
            ref_gx[m] += grads[0]
            ref_gx[1 - m if cross else m] += grads[1] + grads[2]
            for t, want in zip((block.wq, block.wk, block.wv, block.wo, block.w_out,
                                block.b_out), grads[3:]):
                got = g_weights[next(k for k, p in enumerate(pair._parents) if p is t)]
                assert_close_to_per_head(got, want)
        assert_close_to_per_head(g_x, ref_gx)
        x = out  # the cross stage reads the self stage's output


def test_attention_forward_holds_one_score_buffer():
    # Without a graph each node's peak allocation is one (1, H, n, n) score
    # buffer plus (n, d)-sized rows: a window this big runs its modalities
    # one after the other, and each out-of-place softmax step would add a
    # buffer of its own.
    n, d, heads = 190, 32, 4
    rng = np.random.default_rng(0)
    params = build_params(d=d, heads=heads, d_text=d, d_img=d, seed=1)
    x = rng.normal(size=(2, 1, n, d))
    with no_grad():
        pairs = block_pairs(params)
        for cross, pair in enumerate(pairs):
            attention(x, pair.data, heads, bool(cross))  # warm any lazy set-up outside the trace
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                attention(x, pair.data, heads, bool(cross))
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak < 2 * heads * n * n * 8, (cross, peak / (heads * n * n * 8))


def test_window_groups_cut_same_size_chunks():
    sizes = [3, 1, 3, 100, 2, 1, 3, 100]
    windows = [Window(k + 1, 0, 1, tuple(range(k, k + n))) for k, n in enumerate(sizes)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fusion, "MAX_PAIRS", 48)  # 6, 3, 2 and 1 windows of 1, 2, 3, 100 posts
        chunks = fusion.window_groups(windows)
    assert [positions for positions, _ in chunks] == [[1, 5], [4], [0, 2], [6], [3], [7]]
    chunks = fusion.window_groups(windows)
    assert [positions for positions, _ in chunks] == [[1, 5], [4], [0, 2, 6], [3], [7]]
    for positions, members in chunks:
        assert members.dtype == np.intp
        np.testing.assert_array_equal(members, [windows[k].members for k in positions])
    with pytest.raises(FusionError, match="no members"):
        fusion.window_groups([Window(1, 0, 1, ())])


def test_window_groups_bound_pairs_and_rows_per_chunk():
    windows = [Window(1, 0, 1, tuple(range(n)))
               for n in (1, 2, 5, 8, 30, 91) for _ in range(3000)]
    chunks = fusion.window_groups(windows)
    assert sorted(k for positions, _ in chunks for k in positions) == list(range(len(windows)))
    for positions, members in chunks:
        b, n = members.shape
        assert b == len(positions)
        assert {len(windows[k].members) for k in positions} == {n}
        assert b == 1 or b * n * max(n, 8) <= fusion.MAX_PAIRS


def test_group_pass_matches_one_window_passes(rng):
    ds = make_dataset(rng.normal(size=(9, 3)), image=rng.normal(size=(9, 3)),
                      timestamps=np.arange(9) * 100)
    params = build_params(seed=13)
    group = np.arange(9).reshape(3, 3)
    together = five_nodes(ds, params, group)
    assert together.fused.shape == (3, 3, 4)
    for k in range(3):
        alone = five_nodes(ds, params, group[k:k + 1])
        np.testing.assert_allclose(together.cross.data[:, k], alone.cross.data[:, 0],
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(together.fused.data[k], alone.fused.data[0],
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(together.gate[k], alone.gate[0], rtol=1e-12, atol=1e-15)


def test_fuse_window_is_a_one_row_chunk(rng):
    # fuse_window is kept as a name for the benchmark's tracer to wrap
    ds = make_dataset(rng.normal(size=(4, 3)), image=rng.normal(size=(4, 3)))
    params = build_params(seed=14)
    weights = np.array([[0.5, 0.2, 0.3]])
    alone = fusion.fuse_window(ds, params, Window(1, 0, 1, (3, 1, 2)), weights)
    chunk = fusion.fuse_group(ds, params, np.array([[3, 1, 2]]), weights, block_pairs(params))
    np.testing.assert_array_equal(alone.data, chunk.data)


@settings(max_examples=40, deadline=None)
@given(
    batch=st.integers(1, 4),
    n=st.integers(1, 8),
    scope=st.sampled_from(fusion.SCOPES),
    scale=st.sampled_from(fusion.SCALES),
    seed=st.integers(0, 10_000),
)
@example(batch=1, n=95, scope="window", scale="head", seed=0)  # one modality at a time
@example(batch=1, n=95, scope="post", scale="model", seed=1)
def test_chunk_node_is_the_five_node_composition_bitwise(batch, n, scope, scale, seed):
    # One node whose VJP calls the stage VJPs against one engine node per
    # stage: inside a chunk no gradient is summed, so the bytes are the same.
    rng = np.random.default_rng(seed)
    ds = make_dataset(rng.normal(size=(batch * n, 3)), image=rng.normal(size=(batch * n, 3)),
                      timestamps=rng.integers(0, 5 * DAY, size=batch * n))
    params = build_params(d=8, heads=2, seed=seed)
    members = rng.permutation(batch * n).reshape(batch, n)
    weights = decay_weights(ds, members, 1.0 / DAY)
    g = rng.normal(size=(batch, params.d))
    runs = []
    for chunk in (fusion.fuse_group, lambda *args: five_nodes(*args).aggregate):
        params.zero_grads()
        out = chunk(ds, params, members, weights, block_pairs(params), scope, scale)
        out.backward(g)
        runs.append([out.data.tobytes()] + [t.grad.tobytes() for name, t in params.items()
                                            if name.startswith("fusion.")])
    assert runs[0] == runs[1]


@settings(max_examples=40, deadline=None)
@given(
    batch=st.integers(1, 3),
    n=st.integers(1, 4),
    d=st.integers(1, 4),
    shift=st.sampled_from([0.0, 8.0, -8.0]),
    seed=st.integers(0, 10_000),
)
def test_gate_node_matches_numpy_and_finite_differences(batch, n, d, shift, seed):
    # ``shift`` pushes the gate bias towards one branch without saturating it.
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=(2, batch, n, d)), rng.normal(size=(d, 2 * d)),
              rng.normal(size=d) + shift]
    g = rng.normal(size=(batch, n, d))
    tensors = [Tensor(a) for a in arrays]
    out, gate = as_node(fusion.gate(*arrays), *tensors)

    (c_ti, c_it), w, b = arrays
    ref = 1.0 / (1.0 + np.exp(-(np.concatenate([c_ti, c_it], axis=-1) @ w.T + b)))
    np.testing.assert_allclose(gate, ref, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(out.data, ref * c_ti + (1.0 - ref) * c_it, rtol=1e-12, atol=1e-15)
    assert np.all((gate > 0.0) & (gate < 1.0))

    out.backward(g)
    for idx, tensor in enumerate(tensors):
        def f(x, idx=idx):
            args = arrays[:idx] + [x] + arrays[idx + 1:]
            return float((fusion.gate(*args)[0] * g).sum())

        fd = finite_difference_gradient(f, arrays[idx])
        err = np.abs(fd - tensor.grad).max()
        assert err <= 1e-6 * max(np.abs(fd).max(), np.abs(tensor.grad).max(), 1e-3), idx


@pytest.mark.parametrize("bias, chosen", [(800.0, 0), (-800.0, 1)])
def test_saturated_gate_node_passes_one_branch_and_no_gate_gradient(rng, bias, chosen):
    arrays = [rng.normal(size=(2, 2, 3, 4)), rng.normal(size=(4, 8)) * 0.1, np.full(4, bias)]
    tensors = [Tensor(a) for a in arrays]
    out, gate = as_node(fusion.gate(*arrays), *tensors)
    assert np.all(gate == (1.0 if chosen == 0 else 0.0))
    np.testing.assert_array_equal(out.data, arrays[0][chosen])
    g = rng.normal(size=(2, 3, 4))
    out.backward(g)
    np.testing.assert_array_equal(tensors[0].grad[chosen], g)
    assert np.all(tensors[0].grad[1 - chosen] == 0.0)  # the other branch
    for k in (1, 2):  # the gate's weights
        assert np.all(tensors[k].grad == 0.0), k
