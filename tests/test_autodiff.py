import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecatch.autodiff import (
    GraphConsumedError,
    Tensor,
    concat,
    finite_difference_gradient,
    l2norm,
    linear,
    no_grad,
    take,
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


def test_add_mul_sub(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4)) + 3.0
    fd_check(lambda x, y: ((x * y + x - y * 0.5) * (x - y)).sum(), a, b)


def test_broadcast_bias(rng):
    x = rng.normal(size=(5, 3))
    b = rng.normal(size=(3,))
    fd_check(lambda t, u: ((t + u) * (t * u)).sum(), x, b)


def test_matmul_2d(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    fd_check(lambda x, y: (x @ y).sigmoid().sum(), a, b)
    with pytest.raises(ValueError, match="2-D"):
        Tensor(np.ones((2, 3, 4))) @ Tensor(b)


def test_linear_gradient(rng):
    x = rng.normal(size=(5, 4))
    w = rng.normal(size=(3, 4))
    b = rng.normal(size=(3,))
    fd_check(lambda t, u, v: linear(t, u, v).sigmoid().sum(), x, w, b)
    fd_check(lambda t, u: (linear(t, u) * linear(t, u)).sum(), x, w)


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
    x, w_t = Tensor(arrays[0]), Tensor(arrays[1].T)
    ref = x @ w_t
    if bias:
        b = Tensor(arrays[2])
        ref = ref + b
    assert out.data.tobytes() == ref.data.tobytes()

    out.backward(g)
    ref.backward(g)
    composed = [x.grad, w_t.grad.T] + ([b.grad] if bias else [])
    for a, ref_grad in zip(fused, composed):
        assert a.grad.shape == ref_grad.shape
        assert np.abs(a.grad - ref_grad).max() <= 1e-12


def test_sigmoid_log(rng):
    x = rng.normal(size=(3, 3))
    fd_check(lambda t: (t.sigmoid() + (t * t + 1.0).log()).sum(), x)


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
    fd_check(lambda x, y: concat([x, y], axis=1).sigmoid().sum(), a, b)


def test_transpose_reshape(rng):
    a = rng.normal(size=(2, 3, 4))
    fd_check(lambda x: x.reshape((3, 8)).sigmoid().sum(), a)


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


def _graph(*roots) -> list[Tensor]:
    seen: dict[int, Tensor] = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def test_backward_consumes_interior_nodes_and_keeps_leaf_grads(rng):
    x_val, w_val = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
    x, w = Tensor(x_val), Tensor(w_val)
    out = (x * w + x).sigmoid().sum()
    interior = [n for n in _graph(out) if n._parents]
    closures = [weakref.ref(n._vjp) for n in interior]
    assert len(interior) == 4

    out.backward()
    s = 1.0 / (1.0 + np.exp(-(x_val * w_val + x_val)))
    slope = s * (1.0 - s)
    np.testing.assert_allclose(x.grad, slope * (w_val + 1.0), rtol=1e-15)
    np.testing.assert_allclose(w.grad, slope * x_val, rtol=1e-15)
    for node in interior:
        assert node.grad is None
        assert node._parents == ()
    assert all(ref() is None for ref in closures)  # every VJP closure was freed
    assert out.item() == pytest.approx(s.sum())    # values stay readable


def test_second_backward_on_the_same_root_raises():
    x = Tensor(np.array([[2.0]]))
    y = x * x + x
    y.backward()
    grad = x.grad.copy()
    with pytest.raises(GraphConsumedError, match="already walked"):
        y.backward()
    assert np.array_equal(x.grad, grad)  # the failed walk added nothing


def test_backward_through_a_consumed_shared_node_raises():
    x = Tensor(np.array([[2.0, -1.0]]))
    shared = x * 3.0
    first = (shared * shared).sum()
    second = (shared + 1.0).sum()  # a fresh root over the same interior node
    first.backward()
    grad = x.grad.copy()
    with pytest.raises(GraphConsumedError):
        second.backward()
    assert np.array_equal(x.grad, grad)
    assert second._parents != ()  # refused before any node was consumed
    # a graph over leaves only is still free to walk
    fresh = (x * 2.0).sum()
    fresh.backward()
    np.testing.assert_array_equal(x.grad, grad + 2.0)


def test_no_grad_records_no_graph_and_restores_its_state(rng):
    a, b = Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(4, 3)))
    taped = (linear(a, b).sigmoid() * 2.0 + concat([a, a], axis=0).sum()).log()
    with no_grad():
        h = linear(a, b).sigmoid()
        c = concat([a, a], axis=0).sum()
        untaped = (h * 2.0 + c).log()
        with no_grad():
            assert (a + a)._parents == ()
        assert (a + a)._parents == ()
    assert all(n._parents == () and n._vjp is None for n in (h, c, untaped))
    assert untaped.data.tobytes() == taped.data.tobytes()
    assert len(_graph(taped)) > 1
    assert (a + a)._parents == (a, a)

    with pytest.raises(ZeroDivisionError):
        with no_grad():
            1 / 0
    assert (a * b.sum())._parents != ()


def test_take_gathers_rows_and_scatter_adds(rng):
    x = Tensor(rng.normal(size=(4, 3)))
    index = [2, 0, 2, 3]
    out = take(x, index)
    np.testing.assert_array_equal(out.data, x.data[index])
    g = rng.normal(size=(4, 3))
    out.backward(g)
    expected = np.zeros((4, 3))
    for row, k in enumerate(index):
        expected[k] += g[row]
    np.testing.assert_array_equal(x.grad, expected)


def test_linear_over_leading_axes_matches_rows(rng):
    x, w, b = (Tensor(rng.normal(size=s)) for s in ((2, 3, 4), (5, 4), (5,)))
    xr, wr, br = (Tensor(t.data.copy()) for t in (x, w, b))
    out = linear(x, w, b)
    rows = linear(Tensor(xr.data.reshape(6, 4)), wr, br)
    np.testing.assert_array_equal(out.data, rows.data.reshape(2, 3, 5))
    g = rng.normal(size=(2, 3, 5))
    out.backward(g)
    rows.backward(g.reshape(6, 5))
    for batched, flat in ((w, wr), (b, br)):
        np.testing.assert_array_equal(batched.grad, flat.grad)
    np.testing.assert_allclose(x.grad, g @ w.data, rtol=1e-12)
