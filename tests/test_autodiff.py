import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecatch.autodiff import (
    GraphConsumedError,
    Tensor,
    add_scaled,
    finite_difference_gradient,
    gather,
    linear,
    no_grad,
    stable_sigmoid,
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
    fd_check(lambda x, y: add_scaled(add_scaled(x, y, 0.5), x, 2.0), a, b)
    with pytest.raises(ValueError, match="cannot add"):
        add_scaled(Tensor(a), Tensor(np.ones(4)), 1.0)  # no broadcasting


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
    fd_check(lambda t, u: add_scaled(linear(t, u), linear(t, u), 1.0), x, w)
    xt, wt, bt = Tensor(x), Tensor(w), Tensor(b)
    assert linear(xt, wt, bt)._parents == (xt, wt, bt)
    assert linear(xt, wt)._parents == (xt, wt)


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


def test_gather_gradients(rng):
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(1, 3))
    fd_check(lambda x, y: gather([x, y], [2, 0, 2, 1]), a, b)
    out = gather([Tensor(a), Tensor(b)], [0, 1, 2])
    assert out.data.tobytes() == np.concatenate([a, b]).tobytes()


def test_gate_over_leading_axes_matches_rows(rng):
    cross = rng.normal(size=(2, 2, 3, 4))  # c_ti, then c_it
    w, b = rng.normal(size=(4, 8)), rng.normal(size=(4,))
    fd_check(lambda x, u, v: gate(x, u, v)[0], cross, w, b)
    batched, g_batched = gate(*(Tensor(a) for a in (cross, w, b)))
    rows, g_rows = gate(Tensor(cross.reshape(2, 6, 4)), Tensor(w), Tensor(b))
    np.testing.assert_array_equal(batched.data.reshape(6, 4), rows.data)
    np.testing.assert_array_equal(g_batched.reshape(6, 4), g_rows)


def test_final_sum_of_ce_and_tc(rng):
    # the epoch loss, ce + lambda_tc * tc, over one stack of trend states
    states = rng.normal(size=(4, 3))
    w = rng.normal(size=(1, 3))
    coef = -rng.uniform(0.1, 2.0, size=(2, 4))
    fd_check(lambda h, u: add_scaled(ce_loss(linear(h, u), coef),
                                     tc_terms(h, offsets=[0, 2, 4])[0], 0.3), states, w)


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
        y = add_scaled(y, y, 0.0)
    y.backward()
    assert x.grad[0, 0] == 1.0


def test_reused_node_accumulates():
    x = Tensor(np.array([[2.0]]))
    y = add_scaled(x, x, 3.0)  # dy/dx = 1 + 3 = 4
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
    add_scaled(x, y, 1.0).backward()
    assert np.all(x.grad == 1.0) and np.all(y.grad == 1.0)


def test_item_reads_single_element_tensors():
    for data in (np.array(0.25), np.array([[0.25]])):
        v = Tensor(data).item()
        assert type(v) is float
        assert v == 0.25
    with pytest.raises(ValueError):
        Tensor(np.array([[0.25, 0.5]])).item()


def test_stable_sigmoid_is_bitwise_the_two_branch_formula():
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, value by value.
    edges = [0.0, 5e-324, 40.0, 745.0, 800.0, np.inf]
    x = np.concatenate([np.random.default_rng(0).normal(size=4000) * 30.0,
                        edges, np.negative(edges)])
    with np.errstate(over="raise", invalid="raise"):  # e^-800 underflows to 0 on purpose
        got = stable_sigmoid(x)
    want = np.array([1.0 / (1.0 + np.exp(-v)) if v >= 0 else np.exp(v) / (1.0 + np.exp(v))
                     for v in x])
    assert got.tobytes() == want.tobytes()
    assert np.signbit(x[4000 + len(edges)]) and got[4000 + len(edges)] == 0.5


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
    out = add_scaled(linear(x, w), linear(x, w), 2.0)
    interior = [n for n in _graph(out) if n._parents]
    closures = [weakref.ref(n._vjp) for n in interior]
    assert len(interior) == 3

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
    y = add_scaled(add_scaled(x, x, 1.0), x, 1.0)
    y.backward()
    grad = x.grad.copy()
    with pytest.raises(GraphConsumedError, match="already walked"):
        y.backward()
    assert np.array_equal(x.grad, grad)  # the failed walk added nothing


def test_backward_through_a_consumed_shared_node_raises():
    x = Tensor(np.array([[2.0, -1.0]]))
    shared = add_scaled(x, x, 2.0)
    first = add_scaled(shared, shared, 1.0)
    second = add_scaled(shared, shared, 0.0)  # a fresh root over the same interior node
    first.backward()
    grad = x.grad.copy()
    with pytest.raises(GraphConsumedError):
        second.backward()
    assert np.array_equal(x.grad, grad)
    assert second._parents != ()  # refused before any node was consumed
    # a graph over leaves only is still free to walk
    fresh = add_scaled(x, x, 1.0)
    fresh.backward()
    np.testing.assert_array_equal(x.grad, grad + 2.0)


def test_no_grad_records_no_graph_and_restores_its_state(rng):
    a, b = Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(2, 3)))
    w_g, b_g, w_c = (Tensor(rng.normal(size=s)) for s in ((3, 6), (3,), (1, 3)))
    coef = -rng.uniform(0.1, 2.0, size=(2, 4))

    def loss():
        fused, _ = gate(gather([a, b], [[0, 1, 2, 3], [2, 3, 0, 1]]), w_g, b_g)
        tc, _ = tc_terms(fused, offsets=[0, 2, 4])
        return fused, add_scaled(ce_loss(linear(fused, w_c), coef), tc, 0.5)

    _, taped = loss()
    with no_grad():
        fused, untaped = loss()
        with no_grad():
            assert add_scaled(a, a, 1.0)._parents == ()
        assert add_scaled(a, a, 1.0)._parents == ()
    assert all(n._parents == () and n._vjp is None for n in (fused, untaped))
    assert untaped.data.tobytes() == taped.data.tobytes()
    assert len(_graph(taped)) > 1
    assert add_scaled(a, a, 1.0)._parents == (a, a)

    with pytest.raises(ZeroDivisionError):
        with no_grad():
            1 / 0
    assert add_scaled(a, a, 1.0)._parents != ()


def test_gather_scatter_adds_repeated_rows(rng):
    x, y = Tensor(rng.normal(size=(3, 3))), Tensor(rng.normal(size=(1, 3)))
    index = [2, 0, 2, 3]
    out = gather([x, y], index)
    np.testing.assert_array_equal(out.data, np.concatenate([x.data, y.data])[index])
    g = rng.normal(size=(4, 3))
    out.backward(g)
    expected = np.zeros((4, 3))
    for row, k in enumerate(index):
        expected[k] += g[row]
    np.testing.assert_array_equal(x.grad, expected[:3])
    np.testing.assert_array_equal(y.grad, expected[3:])


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    cols=st.integers(1, 4),
    n_rows=st.integers(0, 12),
    scale=st.floats(-3.0, 3.0, allow_nan=False),
    seed=st.integers(0, 10_000),
)
def test_gather_and_add_scaled_match_their_numpy_expressions_bitwise(
        sizes, cols, n_rows, scale, seed):
    # The epoch graph's two generic nodes, against the expressions they
    # replace: rows of a concatenation, and a + b * scale.
    rng = np.random.default_rng(seed)
    blocks = [rng.normal(size=(n, cols)) for n in sizes]
    stack = np.concatenate(blocks)
    rows = rng.integers(0, stack.shape[0], size=n_rows)  # repeats are likely
    g = rng.normal(size=(n_rows, cols))
    parts = [Tensor(b) for b in blocks]
    out = gather(parts, rows)
    assert out.data.tobytes() == stack[rows].tobytes()
    out.backward(g)
    want = np.zeros_like(stack)
    np.add.at(want, rows, g)
    for part, block in zip(parts, np.split(want, np.cumsum(sizes)[:-1])):
        assert part.grad.tobytes() == block.tobytes()

    a, b = Tensor(rng.normal(size=(2, cols))), Tensor(rng.normal(size=(2, cols)))
    total = add_scaled(a, b, scale)
    assert total.data.tobytes() == (a.data + b.data * scale).tobytes()
    seed_grad = rng.normal(size=(2, cols))
    total.backward(seed_grad)
    assert a.grad.tobytes() == seed_grad.tobytes()
    assert b.grad.tobytes() == (seed_grad * scale).tobytes()


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
