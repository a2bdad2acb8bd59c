import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecatch.autodiff import Tensor, finite_difference_gradient
from ecatch.fusion import FusionError, encode, fuse_window, mh_attention
from ecatch.params import AttentionBlock, ModelParams
from ecatch.windows import Window

from conftest import make_dataset


def window_over(ds):
    times = ds.timestamps
    return Window(1, int(times.min()), int(times.max()) + 1,
                  tuple(range(ds.n)), int(times.max()))


def build_params(d=4, heads=2, d_text=3, d_img=3, seed=0, zero=False):
    return ModelParams.build(d, heads, d_text, d_img, seed=seed, zero=zero)


def test_encode_zero_weights_give_bias(rng):
    ds = make_dataset(rng.normal(size=(4, 3)), image=rng.normal(size=(4, 3)))
    params = build_params(zero=True)
    params["fusion.b_text"].data[...] = 7.0
    t, i = encode(ds, params, range(4))
    assert np.all(t.data == 7.0)
    assert np.all(i.data == 0.0)


def test_encode_absent_image_maps_to_bias(rng):
    image = rng.normal(size=(3, 3))
    image[1] = 0.0
    ds = make_dataset(rng.normal(size=(3, 3)), image=image,
                      has_image=[True, False, True])
    params = build_params(seed=1)
    params["fusion.b_img"].data[...] = rng.normal(size=4)
    _, i = encode(ds, params, range(3))
    np.testing.assert_allclose(i.data[1], params["fusion.b_img"].data)


def test_encode_identity_passthrough(rng):
    x = rng.normal(size=(5, 4))
    ds = make_dataset(x, image=np.zeros((5, 3)))
    params = ModelParams.build(4, 2, 4, 3, zero=True)
    params["fusion.W_text"].data[...] = np.eye(4)
    t, _ = encode(ds, params, range(5))
    np.testing.assert_array_equal(t.data, x)


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


def numpy_attention(q, k, v, wq, wk, wv, wo, divisor, diagonal):
    scores = (q @ wq @ (k @ wk).transpose(0, 2, 1)) * (1.0 / divisor)
    if diagonal:
        scores[:, ~np.eye(len(q), dtype=bool)] = -np.inf
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return merge((e / e.sum(axis=-1, keepdims=True)) @ (v @ wv)) @ wo


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
    arrays.append(rng.normal(size=(d, d)))
    g = rng.normal(size=(n_q, d))

    def attend(arrs):
        tensors = [Tensor(a) for a in arrs]
        block = AttentionBlock(*tensors[3:], w_out=None, b_out=None)
        out = mh_attention(*tensors[:3], block, scale, diagonal=diagonal)
        return out, tensors

    out, tensors = attend(arrays)
    divisor = np.sqrt(dh) if scale == "head" else np.sqrt(d)
    expected = numpy_attention(*arrays, divisor, diagonal)
    assert out.data.tobytes() == expected.tobytes()
    if diagonal:  # each query sees only its own row: the value path
        v, wv, wo = arrays[2], arrays[5], arrays[6]
        assert out.data.tobytes() == (merge(v @ wv) @ wo).tobytes()

    out.backward(g)
    if diagonal:
        assert np.all(tensors[0].grad == 0.0)
    for idx, tensor in enumerate(tensors):
        def f(x, idx=idx):
            return float((attend(arrays[:idx] + [x] + arrays[idx + 1:])[0].data * g).sum())

        fd = finite_difference_gradient(f, arrays[idx])
        err = np.abs(fd - tensor.grad).max()
        assert err <= 1e-6 * max(np.abs(fd).max(), np.abs(tensor.grad).max()), idx


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
    wf = fuse_window(ds, params, window_over(ds))
    np.testing.assert_allclose(wf.cross_ti.data, wf.cross_it.data)
    np.testing.assert_allclose(wf.fused.data, wf.cross_ti.data)


def test_saturated_gate_selects_first_branch(rng):
    ds = make_dataset(rng.normal(size=(3, 3)), image=rng.normal(size=(3, 3)))
    params = build_params(seed=7)
    params["fusion.W_g"].data[...] = 0.0
    params["fusion.b_g"].data[...] = 40.0
    wf = fuse_window(ds, params, window_over(ds))
    assert np.abs(wf.fused.data - wf.cross_ti.data).max() < 1e-9


def test_single_post_window_finite(rng):
    ds = make_dataset(rng.normal(size=(1, 3)), image=rng.normal(size=(1, 3)))
    wf = fuse_window(ds, build_params(seed=8), window_over(ds))
    assert wf.fused.data.shape == (1, 4)
    assert np.all(np.isfinite(wf.fused.data))


def test_gate_bounds_and_convex_combination(rng):
    ds = make_dataset(rng.normal(size=(5, 3)), image=rng.normal(size=(5, 3)))
    wf = fuse_window(ds, build_params(seed=9), window_over(ds))
    assert np.all(wf.gate.data > 0.0) and np.all(wf.gate.data < 1.0)
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
    a = fuse_window(ds, params, base).fused.data
    b = fuse_window(ds, params, perm).fused.data
    np.testing.assert_allclose(b, a[[2, 0, 3, 1]], atol=1e-12)


def test_post_scope_has_no_cross_post_flow(rng):
    x = rng.normal(size=(3, 3))
    ds1 = make_dataset(x, image=np.zeros((3, 3)))
    x2 = x.copy()
    x2[2] += 5.0
    ds2 = make_dataset(x2, image=np.zeros((3, 3)))
    params = build_params(seed=11)
    w = window_over(ds1)
    out1 = fuse_window(ds1, params, w, scope="post").fused.data
    out2 = fuse_window(ds2, params, w, scope="post").fused.data
    np.testing.assert_allclose(out1[:2], out2[:2])
    assert not np.allclose(out1[2], out2[2])


def test_fusion_gradients_match_finite_differences(rng):
    ds = make_dataset(rng.normal(size=(3, 3)), image=rng.normal(size=(3, 3)),
                      has_image=[True, True, False])
    params = build_params(seed=12)
    w = window_over(ds)

    def scalar():
        fused = fuse_window(ds, params, w).fused
        return (fused * fused).sum()

    out = scalar()
    params.zero_grads()
    out.backward()
    for name in ("fusion.W_text", "fusion.att_ti.Wq", "fusion.W_g",
                 "fusion.att_img.b_out"):
        tensor = params[name]
        analytic = tensor.grad.copy()

        def f(x, tensor=tensor):
            old = tensor.data.copy()
            tensor.data = x
            val = float(scalar().data)
            tensor.data = old
            return val

        fd = finite_difference_gradient(f, tensor.data)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-8)
        assert (np.abs(fd - analytic) / denom).max() < 1e-4, name
