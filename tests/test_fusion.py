import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecatch import fusion
from ecatch.autodiff import Tensor, finite_difference_gradient, no_grad
from ecatch.fusion import FusionError, mh_attention
from ecatch.params import AttentionBlock, ModelParams
from ecatch.windows import Window

from conftest import make_dataset


def window_over(ds):
    times = ds.timestamps
    return Window(1, int(times.min()), int(times.max()) + 1,
                  tuple(range(ds.n)), int(times.max()))


def build_params(d=4, heads=2, d_text=3, d_img=3, seed=0, zero=False):
    return ModelParams.build(d, heads, d_text, d_img, seed=seed, zero=zero)


def encode(ds, params, indices):
    """The text and image encoder outputs, (n, d) each, read off the tape of
    a one-window fusion pass over ``indices``."""
    fused = fusion.fuse_group(ds, params, [Window(1, 0, 1, tuple(indices), 0)]).fused
    nodes, stack = [], [fused]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(node._parents)

    def node_of(name):
        return next(n for n in nodes if any(p is params[name] for p in n._parents))

    return node_of("fusion.W_text").data[0], node_of("fusion.W_img").data[0]


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


def test_encode_dimension_mismatch(rng):
    ds = make_dataset(rng.normal(size=(2, 5)))
    with pytest.raises(FusionError, match="d_text"):
        encode(ds, build_params(d_text=3), range(2))


def test_attention_single_key_ignores_query(rng):
    params = build_params(seed=3)
    block = params.block("att_ti")
    k = Tensor(rng.normal(size=(1, 4)))
    out1 = mh_attention(Tensor(rng.normal(size=(3, 4))), k, k, block)
    out2 = mh_attention(Tensor(rng.normal(size=(3, 4)) * 50), k, k, block)
    # with one key the softmax is 1 for every query row
    for out in (out1, out2):
        assert np.allclose(out.data[0], out.data[1])
    np.testing.assert_allclose(out1.data, out2.data)


def test_attention_identical_keys_identical_rows(rng):
    params = build_params(seed=4)
    block = params.block("att_text")
    k = Tensor(np.tile(rng.normal(size=(1, 4)), (5, 1)))
    q = Tensor(rng.normal(size=(3, 4)))
    out = mh_attention(q, k, k, block)
    assert np.allclose(out.data, out.data[0])


def test_single_head_uniform_softmax_is_column_mean(rng):
    # zero query/key projections force uniform attention; identity value and
    # output projections then average the value rows
    params = ModelParams.build(4, 1, 3, 3, zero=True)
    block = params.block("att_img")
    block.wv.data[...] = np.eye(4)[None]
    block.wo.data[...] = np.eye(4)
    block.w_out.data[...] = np.eye(4)
    v = rng.normal(size=(6, 4))
    out = mh_attention(Tensor(rng.normal(size=(2, 4))), Tensor(v), Tensor(v), block)
    direct = v.mean(axis=0)
    np.testing.assert_allclose(out.data, np.tile(direct, (2, 1)), atol=1e-12)


def test_attention_rows_stochastic(rng):
    params = build_params(seed=5)
    q = Tensor(rng.normal(size=(4, 4)) * 3)
    k = Tensor(rng.normal(size=(6, 4)))
    _, w = mh_attention(q, k, k, params.block("att_it"), return_weights=True)
    assert w.shape == (2, 4, 6)
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


@settings(max_examples=40, deadline=None)
@given(
    n_q=st.integers(1, 5),
    n_k=st.integers(1, 5),
    heads=st.sampled_from([1, 2, 4]),
    dh=st.integers(1, 2),
    scale=st.sampled_from(["head", "model"]),
    post=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_attention_node_matches_numpy_and_finite_differences(
        n_q, n_k, heads, dh, scale, post, seed):
    diagonal = post and n_q == n_k
    d = heads * dh
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=(n_q, d)), rng.normal(size=(n_k, d)),
              rng.normal(size=(n_k, d))]
    arrays += [rng.normal(size=(heads, d, dh)) for _ in range(3)]
    arrays += [rng.normal(size=(d, d)), rng.normal(size=(d, d)), rng.normal(size=d)]
    g = rng.normal(size=(n_q, d))

    def attend(arrs):
        tensors = [Tensor(a) for a in arrs]
        block = AttentionBlock(*tensors[3:])
        out = mh_attention(*tensors[:3], block, scale, diagonal=diagonal)
        return out, tensors

    out, tensors = attend(arrays)
    divisor = np.sqrt(dh) if scale == "head" else np.sqrt(d)
    expected = numpy_attention(*arrays, divisor, diagonal)
    assert out.data.tobytes() == expected.tobytes()
    if diagonal:  # each query sees only its own row: the value path
        v, wv, wo, w_out, b_out = arrays[2], *arrays[5:]
        assert out.data.tobytes() == (merge(v @ wv) @ wo @ w_out.T + b_out).tobytes()

    out.backward(g)
    if diagonal:
        assert np.all(tensors[0].grad == 0.0)
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
    params = build_params()
    q = Tensor(rng.normal(size=(2, 4)))
    k = Tensor(np.zeros((0, 4)))
    with pytest.raises(FusionError):
        mh_attention(q, k, k, params.block("att_text"))


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
    wf = fusion.fuse_group(ds, params, [window_over(ds)])
    np.testing.assert_allclose(wf.cross_ti.data, wf.cross_it.data)
    np.testing.assert_allclose(wf.fused.data, wf.cross_ti.data)


def test_saturated_gate_selects_first_branch(rng):
    ds = make_dataset(rng.normal(size=(3, 3)), image=rng.normal(size=(3, 3)))
    params = build_params(seed=7)
    params["fusion.W_g"].data[...] = 0.0
    params["fusion.b_g"].data[...] = 40.0
    wf = fusion.fuse_group(ds, params, [window_over(ds)])
    assert np.abs(wf.fused.data - wf.cross_ti.data).max() < 1e-9


def test_single_post_window_finite(rng):
    ds = make_dataset(rng.normal(size=(1, 3)), image=rng.normal(size=(1, 3)))
    wf = fusion.fuse_group(ds, build_params(seed=8), [window_over(ds)])
    assert wf.fused.data.shape == (1, 1, 4)
    assert np.all(np.isfinite(wf.fused.data))


def test_gate_bounds_and_convex_combination(rng):
    ds = make_dataset(rng.normal(size=(5, 3)), image=rng.normal(size=(5, 3)))
    wf = fusion.fuse_group(ds, build_params(seed=9), [window_over(ds)])
    assert np.all(wf.gate > 0.0) and np.all(wf.gate < 1.0)
    lo = np.minimum(wf.cross_ti.data, wf.cross_it.data)
    hi = np.maximum(wf.cross_ti.data, wf.cross_it.data)
    assert np.all(wf.fused.data >= lo - 1e-12)
    assert np.all(wf.fused.data <= hi + 1e-12)


def test_permutation_equivariance(rng):
    x = rng.normal(size=(4, 3))
    img = rng.normal(size=(4, 3))
    times = [10, 20, 30, 40]
    ds = make_dataset(x, image=img, timestamps=times, has_image=[True] * 4)
    params = build_params(seed=10)
    base = Window(1, 0, 100, (0, 1, 2, 3), 40)
    perm = Window(1, 0, 100, (2, 0, 3, 1), 40)
    a = fusion.fuse_group(ds, params, [base]).fused.data[0]
    b = fusion.fuse_group(ds, params, [perm]).fused.data[0]
    np.testing.assert_allclose(b, a[[2, 0, 3, 1]], atol=1e-12)


def test_post_scope_has_no_cross_post_flow(rng):
    x = rng.normal(size=(3, 3))
    ds1 = make_dataset(x, image=np.zeros((3, 3)))
    x2 = x.copy()
    x2[2] += 5.0
    ds2 = make_dataset(x2, image=np.zeros((3, 3)))
    params = build_params(seed=11)
    w = window_over(ds1)
    out1 = fusion.fuse_group(ds1, params, [w], scope="post").fused.data[0]
    out2 = fusion.fuse_group(ds2, params, [w], scope="post").fused.data[0]
    np.testing.assert_allclose(out1[:2], out2[:2])
    assert not np.allclose(out1[2], out2[2])


def test_fusion_gradients_match_finite_differences(rng):
    ds = make_dataset(rng.normal(size=(3, 3)), image=rng.normal(size=(3, 3)),
                      has_image=[True, True, False])
    params = build_params(seed=12)
    w = window_over(ds)

    def scalar():  # the sum of squared fused entries
        return float(np.sum(fusion.fuse_group(ds, params, [w]).fused.data ** 2))

    fused = fusion.fuse_group(ds, params, [w]).fused
    params.zero_grads()
    fused.backward(2.0 * fused.data)
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
    n_k=st.integers(1, 4),
    heads=st.sampled_from([1, 2]),
    post=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_batched_attention_matches_each_sequence_and_finite_differences(
        batch, n, n_k, heads, post, seed):
    diagonal = post and n == n_k
    d = 2 * heads
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=(batch, n, d)), rng.normal(size=(batch, n_k, d)),
              rng.normal(size=(batch, n_k, d))]
    arrays += [rng.normal(size=(heads, d, 2)) for _ in range(3)]
    arrays += [rng.normal(size=(d, d)), rng.normal(size=(d, d)), rng.normal(size=d)]
    g = rng.normal(size=(batch, n, d))

    def attend(arrs):
        tensors = [Tensor(a) for a in arrs]
        block = AttentionBlock(*tensors[3:])
        return mh_attention(*tensors[:3], block, diagonal=diagonal), tensors

    out, tensors = attend(arrays)
    for b in range(batch):
        one, _ = attend([a[b] for a in arrays[:3]] + arrays[3:])
        np.testing.assert_allclose(out.data[b], one.data, rtol=1e-12, atol=1e-14)

    out.backward(g)
    for idx, tensor in enumerate(tensors):
        def f(x, idx=idx):
            return float((attend(arrays[:idx] + [x] + arrays[idx + 1:])[0].data * g).sum())

        fd = finite_difference_gradient(f, arrays[idx])
        err = np.abs(fd - tensor.grad).max()
        assert err <= 1e-6 * max(np.abs(fd).max(), np.abs(tensor.grad).max(), 1e-3), idx


def out_of_place_attention(q, k, v, wq, wk, wv, wo, w_out, b_out, c, diagonal, g_out):
    """The attention forward and its nine VJP outputs, each n x n step in a
    fresh array: the expressions the in-place softmax must match bit for bit."""
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
        fusion._head_grad(q, g_qh), fusion._head_grad(k, g_kh), fusion._head_grad(v, g_vh),
        merged.reshape(-1, d).T @ g.reshape(-1, d), (rows.T @ g_rows).T, g_rows.sum(axis=0),
    )
    return out, p, grads


@pytest.mark.parametrize("diagonal", [False, True])
@pytest.mark.parametrize("batch, n", [(1, 150), (40, 8)], ids=["burst-window", "chunk"])
def test_attention_is_bitwise_the_out_of_place_softmax_at_burst_size(batch, n, diagonal):
    d, heads = 32, 4
    rng = np.random.default_rng(batch * 1000 + n)
    arrays = [rng.normal(size=(batch, n, d)) for _ in range(3)]
    arrays += [rng.normal(size=(heads, d, d // heads)) / np.sqrt(d) for _ in range(3)]
    arrays += [rng.normal(size=(d, d)) / np.sqrt(d), rng.normal(size=(d, d)) / np.sqrt(d),
               rng.normal(size=d)]
    g_out = rng.normal(size=(batch, n, d))
    c = 1.0 / np.sqrt(d / heads)

    tensors = [Tensor(a) for a in arrays]
    out, p = mh_attention(*tensors[:3], AttentionBlock(*tensors[3:]), diagonal=diagonal,
                          return_weights=True)
    ref_out, ref_p, ref_grads = out_of_place_attention(*arrays, c, diagonal, g_out)
    assert out.data.tobytes() == ref_out.tobytes()
    assert p.tobytes() == ref_p.tobytes()
    grads = out._vjp(g_out)
    assert len(grads) == len(ref_grads) == 9
    for idx, (got, want) in enumerate(zip(grads, ref_grads)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), idx


def test_attention_forward_holds_one_score_buffer():
    # Without a graph the block's peak allocation is its one (1, H, n, n)
    # score buffer plus (n, d)-sized rows; each out-of-place softmax step
    # would add a buffer of its own.
    n, d, heads = 190, 32, 4
    rng = np.random.default_rng(0)
    params = build_params(d=d, heads=heads, d_text=d, d_img=d, seed=1)
    x = Tensor(rng.normal(size=(1, n, d)))
    block = params.block("att_text")
    with no_grad():
        mh_attention(x, x, x, block)  # warm any lazy set-up outside the trace
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            mh_attention(x, x, x, block)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert peak < 2 * heads * n * n * 8, peak / (heads * n * n * 8)


def test_window_groups_cut_same_size_chunks():
    sizes = [3, 1, 3, 100, 2, 1, 3, 100]
    windows = [Window(k + 1, 0, 1, tuple(range(n)), 0) for k, n in enumerate(sizes)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fusion, "MAX_PAIRS", 48)  # 6, 3, 2 and 1 windows of 1, 2, 3, 100 posts
        chunks = fusion.window_groups(windows)
    assert chunks == [[1, 5], [4], [0, 2], [6], [3], [7]]
    assert fusion.window_groups(windows) == [[1, 5], [4], [0, 2, 6], [3], [7]]
    with pytest.raises(FusionError, match="no members"):
        fusion.window_groups([Window(1, 0, 1, (), 0)])


def test_window_groups_bound_pairs_and_rows_per_chunk():
    windows = [Window(1, 0, 1, tuple(range(n)), 0)
               for n in (1, 2, 5, 8, 30, 91) for _ in range(3000)]
    chunks = fusion.window_groups(windows)
    assert sorted(k for c in chunks for k in c) == list(range(len(windows)))
    for chunk in chunks:
        n = len(windows[chunk[0]].members)
        assert {len(windows[k].members) for k in chunk} == {n}
        assert len(chunk) == 1 or len(chunk) * n * max(n, 8) <= fusion.MAX_PAIRS


def test_group_pass_matches_one_window_passes(rng):
    ds = make_dataset(rng.normal(size=(9, 3)), image=rng.normal(size=(9, 3)),
                      timestamps=np.arange(9) * 100)
    params = build_params(seed=13)
    group = [Window(k + 1, 0, 1000, (3 * k, 3 * k + 1, 3 * k + 2), 0) for k in range(3)]
    together = fusion.fuse_group(ds, params, group)
    assert together.fused.shape == (3, 3, 4)
    for k, w in enumerate(group):
        alone = fusion.fuse_group(ds, params, [w])
        for field in ("cross_ti", "cross_it", "fused"):
            np.testing.assert_allclose(getattr(together, field).data[k],
                                       getattr(alone, field).data[0], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(together.gate[k], alone.gate[0], rtol=1e-12, atol=1e-15)


def test_group_pass_rejects_mixed_sizes(rng):
    ds = make_dataset(rng.normal(size=(3, 3)))
    params = build_params()
    with pytest.raises(FusionError, match="one non-zero member count"):
        fusion.fuse_group(ds, params, [Window(1, 0, 1, (0,), 0), Window(2, 0, 1, (1, 2), 0)])


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
    arrays = [rng.normal(size=(batch, n, d)), rng.normal(size=(batch, n, d)),
              rng.normal(size=(d, 2 * d)), rng.normal(size=d) + shift]
    g = rng.normal(size=(batch, n, d))
    tensors = [Tensor(a) for a in arrays]
    out, gate = fusion.gate(*tensors)

    c_ti, c_it, w, b = arrays
    ref = 1.0 / (1.0 + np.exp(-(np.concatenate([c_ti, c_it], axis=-1) @ w.T + b)))
    np.testing.assert_allclose(gate, ref, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(out.data, ref * c_ti + (1.0 - ref) * c_it, rtol=1e-12, atol=1e-15)
    assert np.all((gate > 0.0) & (gate < 1.0))

    out.backward(g)
    for idx, tensor in enumerate(tensors):
        def f(x, idx=idx):
            args = arrays[:idx] + [x] + arrays[idx + 1:]
            return float((fusion.gate(*(Tensor(a) for a in args))[0].data * g).sum())

        fd = finite_difference_gradient(f, arrays[idx])
        err = np.abs(fd - tensor.grad).max()
        assert err <= 1e-6 * max(np.abs(fd).max(), np.abs(tensor.grad).max(), 1e-3), idx


@pytest.mark.parametrize("bias, chosen", [(800.0, 0), (-800.0, 1)])
def test_saturated_gate_node_passes_one_branch_and_no_gate_gradient(rng, bias, chosen):
    arrays = [rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4)),
              rng.normal(size=(4, 8)) * 0.1, np.full(4, bias)]
    tensors = [Tensor(a) for a in arrays]
    out, gate = fusion.gate(*tensors)
    assert np.all(gate == (1.0 if chosen == 0 else 0.0))
    np.testing.assert_array_equal(out.data, arrays[chosen])
    g = rng.normal(size=(2, 3, 4))
    out.backward(g)
    np.testing.assert_array_equal(tensors[chosen].grad, g)
    for k in (1 - chosen, 2, 3):  # the other branch and the gate's weights
        assert np.all(tensors[k].grad == 0.0), k
