import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecatch.autodiff import (
    Tensor,
    concat,
    finite_difference_gradient,
    l2norm,
    linear,
    softmax,
    tape_scope,
)


def fd_check(build, *arrays, tol=1e-7):
    """FD-verify d(scalar)/d(each input array) for a graph builder."""
    tensors = [Tensor(a.copy()) for a in arrays]
    out = build(*tensors)
    out.backward()
    for k, arr in enumerate(arrays):
        def f(x, k=k):
            args = [a.copy() for a in arrays]
            args[k] = x
            return float(build(*[Tensor(a) for a in args]).data)

        fd = finite_difference_gradient(f, arr)
        assert np.abs(fd - tensors[k].grad).max() < tol


def test_add_mul_sub_div(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4)) + 3.0
    fd_check(lambda x, y: ((x * y + x - y / 2.0) * (x / y)).sum(), a, b)


def test_broadcast_bias(rng):
    x = rng.normal(size=(5, 3))
    b = rng.normal(size=(3,))
    fd_check(lambda t, u: ((t + u) * (t * u)).sum(), x, b)


def test_matmul_2d(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    fd_check(lambda x, y: (x @ y).tanh().sum(), a, b)


def test_matmul_batched_broadcast(rng):
    # (n, d) @ (H, d, dh): the stacked-heads pattern
    a = rng.normal(size=(5, 4))
    b = rng.normal(size=(3, 4, 2))
    fd_check(lambda x, y: ((x @ y) ** 2.0).sum(), a, b)


def test_linear_gradient(rng):
    x = rng.normal(size=(5, 4))
    w = rng.normal(size=(3, 4))
    b = rng.normal(size=(3,))
    fd_check(lambda t, u, v: linear(t, u, v).tanh().sum(), x, w, b)
    fd_check(lambda t, u: (linear(t, u) ** 2.0).sum(), x, w)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6),
    d_in=st.integers(1, 7),
    d_out=st.integers(1, 7),
    bias=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_linear_matches_composed_ops(n, d_in, d_out, bias, seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=(n, d_in)), rng.normal(size=(d_out, d_in))]
    if bias:
        arrays.append(rng.normal(size=(d_out,)))
    g = rng.normal(size=(n, d_out))

    fused = [Tensor(a) for a in arrays]
    out = linear(*fused)
    composed = [Tensor(a) for a in arrays]
    ref = composed[0] @ composed[1].transpose((1, 0))
    if bias:
        ref = ref + composed[2]
    assert out.data.tobytes() == ref.data.tobytes()

    out.backward(g)
    ref.backward(g)
    for a, b in zip(fused, composed):
        assert a.grad.shape == b.grad.shape
        assert np.abs(a.grad - b.grad).max() <= 1e-12


def test_softmax_rows_sum_to_one(rng):
    x = Tensor(rng.normal(size=(2, 6, 6)) * 10)
    s = softmax(x)
    assert np.abs(s.data.sum(axis=-1) - 1.0).max() < 1e-12


def test_softmax_gradient(rng):
    x = rng.normal(size=(4, 5))
    v = rng.normal(size=(5, 2))
    fd_check(lambda t, u: (softmax(t) @ u).sum(), x, v)


def test_sigmoid_tanh_log(rng):
    x = rng.normal(size=(3, 3))
    fd_check(lambda t: (t.sigmoid() + t.tanh() + (t * t + 1.0).log()).sum(), x)


def test_l2norm_gradient(rng):
    x = rng.normal(size=(2, 4))
    fd_check(lambda t: l2norm(t) * 2.0, x)


def test_l2norm_zero_is_safe():
    x = Tensor(np.zeros((1, 3)))
    n = l2norm(x)
    n.backward()
    assert float(n.data) == 0.0
    assert np.all(x.grad == 0.0)
    assert np.all(np.isfinite(x.grad))


def test_concat_and_slicing_gradients(rng):
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(2, 2))
    fd_check(lambda x, y: (concat([x, y], axis=1) ** 2.0).sum(), a, b)


def test_transpose_reshape(rng):
    a = rng.normal(size=(2, 3, 4))
    fd_check(lambda x: (x.transpose((1, 0, 2)).reshape((3, 8)) ** 2.0).sum(), a)


def test_sum_axis_keepdims(rng):
    a = rng.normal(size=(3, 4))
    fd_check(lambda x: (x.sum(axis=1, keepdims=True) * x).sum(), a)
    fd_check(lambda x: x.sum() * 0.5, a)


def test_clip_masks_gradient():
    x = Tensor(np.array([[0.1, 0.5, 0.9]]))
    y = x.clip(0.2, 0.8).sum()
    y.backward()
    assert list(x.grad[0]) == [0.0, 1.0, 0.0]


def test_deep_chain_no_recursion_error():
    x = Tensor(np.ones((1, 1)))
    y = x
    for _ in range(5000):
        y = y + 1.0
    y.backward()
    assert x.grad[0, 0] == 1.0


def test_reused_node_accumulates():
    x = Tensor(np.array([[2.0]]))
    y = x * x + x * 3.0  # dy/dx = 2x + 3 = 7
    y.backward()
    assert x.grad[0, 0] == pytest.approx(7.0)


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_grad_of_sum_is_ones(rows, cols, seed):
    x = Tensor(np.random.default_rng(seed).normal(size=(rows, cols)))
    x.sum().backward()
    assert np.all(x.grad == 1.0)


def test_item_reads_single_element_tensors():
    for data in (np.array(0.25), np.array([[0.25]])):
        v = Tensor(data).item()
        assert type(v) is float
        assert v == 0.25
    with pytest.raises(ValueError):
        Tensor(np.array([[0.25, 0.5]])).item()


def test_tape_scope_pauses_and_restores_the_collector():
    assert gc.isenabled()
    with tape_scope():
        assert not gc.isenabled()
        with tape_scope():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()

    with pytest.raises(ZeroDivisionError):
        with tape_scope():
            1 / 0
    assert gc.isenabled()

    gc.disable()
    try:
        with tape_scope():
            pass
        assert not gc.isenabled()
    finally:
        gc.enable()

    @tape_scope()
    def collector_state():
        return gc.isenabled()

    assert collector_state() is False
    assert collector_state() is False  # each call enters a fresh scope
    assert gc.isenabled()
