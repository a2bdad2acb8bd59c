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
    linear,
    no_grad,
    stable_sigmoid,
    take,
    tape_scope,
)
from ecatch.fusion import gate
from ecatch.objective import PROB_CLAMP, ce_loss, tc_terms


def fd_check(build, *arrays, tol=1e-7):
    """FD-verify d<g, build(...)>/d(each input array) for a graph builder,
    g a fixed random cotangent of the output's shape."""
    tensors = [Tensor(a.copy()) for a in arrays]
    out = build(*tensors)
    g = np.random.default_rng(0).normal(size=out.shape)
    out.backward(g)
    for k, arr in enumerate(arrays):
        def f(x, k=k):
            args = [a.copy() for a in arrays]
            args[k] = x
            return float(np.sum(g * build(*[Tensor(a) for a in args]).data))

        fd = finite_difference_gradient(f, arr)
        assert np.abs(fd - tensors[k].grad).max() < tol


def test_add_and_scale(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4)) + 3.0
    fd_check(lambda x, y: x + y * 0.5 + 2.0 * x, a, b)
    with pytest.raises(ValueError, match="cannot add"):
        Tensor(a) + Tensor(np.ones(4))  # no broadcasting


def test_broadcast_bias(rng):
    x = rng.normal(size=(2, 5, 3))
    w = rng.normal(size=(4, 3))
    b = rng.normal(size=(4,))
    fd_check(lambda t, u, v: linear(t, u, v), x, w, b)
    bias = Tensor(b)
    g = rng.normal(size=(2, 5, 4))
    linear(Tensor(x), Tensor(w), bias).backward(g)
    np.testing.assert_allclose(bias.grad, g.sum(axis=(0, 1)), rtol=1e-12)


def test_matmul_2d(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    fd_check(lambda x, y: x @ y, a, b)
    with pytest.raises(ValueError, match="2-D"):
        Tensor(np.ones((2, 3, 4))) @ Tensor(b)


def test_linear_gradient(rng):
    x = rng.normal(size=(5, 4))
    w = rng.normal(size=(3, 4))
    b = rng.normal(size=(3,))
    fd_check(lambda t, u, v: linear(t, u, v), x, w, b)
    fd_check(lambda t, u: linear(t, u) + linear(t, u), x, w)
    # a plain ndarray input is a constant: no parent, no gradient
    fd_check(lambda u, v: linear(x, u, v), w, b)
    wt, bt = Tensor(w), Tensor(b)
    assert linear(x, wt, bt)._parents == (wt, bt)


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
    want = ref.data + arrays[2] if bias else ref.data
    assert out.data.tobytes() == want.tobytes()

    out.backward(g)
    ref.backward(g)
    composed = [x.grad, w_t.grad.T] + ([g.sum(axis=0)] if bias else [])
    for a, ref_grad in zip(fused, composed):
        assert a.grad.shape == ref_grad.shape
        assert np.abs(a.grad - ref_grad).max() <= 1e-12


def test_sigmoid_log(rng):
    # the cross-entropy node: sigmoid, clip and both logs
    logits = rng.normal(size=(5, 1)) * 3.0
    coef = -rng.uniform(0.1, 2.0, size=(2, 5))
    fd_check(lambda z: ce_loss(z, coef), logits)


def test_l2norm_gradient(rng):
    # the consistency node's row norms and cosines, over two stacked events
    x = rng.normal(size=(5, 4))
    fd_check(lambda t: tc_terms(t, offsets=[0, 2, 5])[0], x)


def test_l2norm_zero_is_safe():
    x = Tensor(np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [2.0, 1.0, 0.5],
                         [0.0, 0.0, 0.0]]))
    node, by_event = tc_terms(x)
    node.backward()
    assert np.all(np.isfinite(x.grad))
    assert np.all(x.grad[[0, 3]] == 0.0)  # zero rows join no pair
    assert by_event.tolist() == [node.item()]
    node, by_event = tc_terms(Tensor(np.zeros((3, 2))), offsets=[0, 1, 3])
    assert node is None
    assert by_event.tolist() == [0.0, 0.0]


def test_concat_and_slicing_gradients(rng):
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(1, 3))
    fd_check(lambda x, y: concat([x, y]), a, b)
    out = concat([Tensor(a), Tensor(b)])
    assert out.data.tobytes() == np.concatenate([a, b]).tobytes()


def test_gate_over_leading_axes_matches_rows(rng):
    c_ti, c_it = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4))
    w, b = rng.normal(size=(4, 8)), rng.normal(size=(4,))
    fd_check(lambda x, y, u, v: gate(x, y, u, v)[0], c_ti, c_it, w, b)
    batched, g_batched = gate(*(Tensor(a) for a in (c_ti, c_it, w, b)))
    rows, g_rows = gate(Tensor(c_ti.reshape(6, 4)), Tensor(c_it.reshape(6, 4)),
                        Tensor(w), Tensor(b))
    np.testing.assert_array_equal(batched.data.reshape(6, 4), rows.data)
    np.testing.assert_array_equal(g_batched.reshape(6, 4), g_rows)


def test_final_sum_of_ce_and_tc(rng):
    # the epoch loss, ce + lambda_tc * tc, over one stack of trend states
    states = rng.normal(size=(4, 3))
    w = rng.normal(size=(1, 3))
    coef = -rng.uniform(0.1, 2.0, size=(2, 4))
    fd_check(lambda h, u: ce_loss(linear(h, u), coef)
             + 0.3 * tc_terms(h, offsets=[0, 2, 4])[0], states, w)


def test_clip_masks_gradient():
    # p below PROB_CLAMP, inside, and above 1 - PROB_CLAMP: only the middle row learns
    z = np.array([[-40.0], [0.3], [40.0]])
    p = stable_sigmoid(z[:, 0])
    assert p[0] < PROB_CLAMP and p[2] > 1.0 - PROB_CLAMP
    logits = Tensor(z)
    ce_loss(logits, -np.ones((2, 3))).backward()
    assert logits.grad[0, 0] == 0.0 and logits.grad[2, 0] == 0.0
    assert logits.grad[1, 0] == pytest.approx(2.0 * p[1] - 1.0, rel=1e-12)


def test_deep_chain_no_recursion_error():
    x = Tensor(np.ones((1, 1)))
    y = x
    for _ in range(5000):
        y = y * 1.0
    y.backward()
    assert x.grad[0, 0] == 1.0


def test_reused_node_accumulates():
    x = Tensor(np.array([[2.0]]))
    y = x + x * 3.0  # dy/dx = 1 + 3 = 4
    y.backward()
    assert x.grad[0, 0] == pytest.approx(4.0)


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_grad_of_sum_is_ones(rows, cols, seed):
    rng = np.random.default_rng(seed)
    x, y = Tensor(rng.normal(size=(rows, cols))), Tensor(rng.normal(size=(rows, cols)))
    (x + y).backward()
    assert np.all(x.grad == 1.0) and np.all(y.grad == 1.0)


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
    out = linear(x, w) * 2.0 + linear(x, w)
    interior = [n for n in _graph(out) if n._parents]
    closures = [weakref.ref(n._vjp) for n in interior]
    assert len(interior) == 4

    out.backward()
    ones = np.ones((3, 3))
    np.testing.assert_allclose(x.grad, 3.0 * (ones @ w_val), rtol=1e-15)
    np.testing.assert_allclose(w.grad, 3.0 * (ones.T @ x_val), rtol=1e-15)
    for node in interior:
        assert node.grad is None
        assert node._parents == ()
    assert all(ref() is None for ref in closures)  # every VJP closure was freed
    np.testing.assert_allclose(out.data, 3.0 * (x_val @ w_val.T), rtol=1e-15)  # still readable


def test_second_backward_on_the_same_root_raises():
    x = Tensor(np.array([[2.0]]))
    y = x * 2.0 + x
    y.backward()
    grad = x.grad.copy()
    with pytest.raises(GraphConsumedError, match="already walked"):
        y.backward()
    assert np.array_equal(x.grad, grad)  # the failed walk added nothing


def test_backward_through_a_consumed_shared_node_raises():
    x = Tensor(np.array([[2.0, -1.0]]))
    shared = x * 3.0
    first = shared + shared
    second = shared * 1.0  # a fresh root over the same interior node
    first.backward()
    grad = x.grad.copy()
    with pytest.raises(GraphConsumedError):
        second.backward()
    assert np.array_equal(x.grad, grad)
    assert second._parents != ()  # refused before any node was consumed
    # a graph over leaves only is still free to walk
    fresh = x * 2.0
    fresh.backward()
    np.testing.assert_array_equal(x.grad, grad + 2.0)


def test_no_grad_records_no_graph_and_restores_its_state(rng):
    a, b = Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(2, 3)))
    w_g, b_g, w_c = (Tensor(rng.normal(size=s)) for s in ((3, 6), (3,), (1, 3)))
    coef = -rng.uniform(0.1, 2.0, size=(2, 4))

    def loss():
        fused, _ = gate(concat([a, b]), concat([b, a]), w_g, b_g)
        tc, _ = tc_terms(fused, offsets=[0, 2, 4])
        return fused, ce_loss(linear(fused, w_c), coef) + 0.5 * tc

    _, taped = loss()
    with no_grad():
        fused, untaped = loss()
        with no_grad():
            assert (a + a)._parents == ()
        assert (a + a)._parents == ()
    assert all(n._parents == () and n._vjp is None for n in (fused, untaped))
    assert untaped.data.tobytes() == taped.data.tobytes()
    assert len(_graph(taped)) > 1
    assert (a + a)._parents == (a, a)

    with pytest.raises(ZeroDivisionError):
        with no_grad():
            1 / 0
    assert (a * 2.0)._parents != ()


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
