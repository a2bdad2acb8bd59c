import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecatch.autodiff import (
    GraphConsumedError,
    Tensor,
    finite_difference_gradient,
    no_grad,
    stable_sigmoid,
)
from ecatch.fusion import gate
from ecatch.objective import PROB_CLAMP, CrossEntropyTerms, Readout, epoch_loss, tc_terms
from ecatch.params import ModelParams
from ecatch.trend import run_lstm, trend_features

from conftest import as_node, features


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


# -- the engine's own tests build their nodes by hand -------------------------
def scaled_sum(a, b, c):
    """``a + c * b`` as a hand-built node."""
    return Tensor(a.data + b.data * c, (a, b), lambda g: (g, g * c))


def affine(x, w):
    """``x @ w.T`` as a hand-built node."""
    return Tensor(x.data @ w.data.T, (x, w), lambda g: (g @ w.data, g.T @ x.data))


# -- the epoch loss node ---------------------------------------------------------
def loss_node(states, w_c, b_c, weight, lambda_tc=0.0, offsets=None):
    """``objective.epoch_loss`` over ``states`` read out by ``w_c`` and ``b_c``:
    row r holds one term of each class y, of weight ``weight[y, r]``, and the
    consistency term pairs the rows of each event of ``offsets``."""
    n = states.shape[0]
    probs = stable_sigmoid((states.data @ w_c.data.T + b_c.data)[:, 0])
    row, label = np.tile(np.arange(n), 2), np.repeat([0, 1], n)
    q = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    w = weight[label, row]
    terms = CrossEntropyTerms(row, 0 * row, row, label, w, -w * np.log([1.0 - q, q])[label, row])
    readout = Readout(states, probs, None, None, [0], None, row, 0 * row, row)
    tc_values, tc_vjp = tc_terms(states.data, offsets=offsets)
    loss, _, _ = epoch_loss(readout, terms, tc_values, tc_vjp, lambda_tc,
                            {"clf.W_c": w_c, "clf.b_c": b_c})
    return loss


def classifier(rng, d):
    return rng.normal(size=(1, d)), rng.normal(size=(1,))


def test_add_and_scale(rng):
    # ce + lambda_tc * tc: the value adds the scaled consistency sum, the
    # states' gradient the scaled consistency gradient.
    states, (w, b) = rng.normal(size=(5, 3)), classifier(rng, 3)
    weight = rng.uniform(0.1, 2.0, size=(2, 5))
    offsets = [0, 2, 5]
    tc_values, tc_vjp = tc_terms(states, offsets=offsets)
    values, grads = {}, {}
    for lam in (0.0, 0.5):
        t = Tensor(states.copy())
        out = loss_node(t, Tensor(w), Tensor(b), weight, lam, offsets)
        out.backward()
        values[lam], grads[lam] = out.item(), t.grad
    assert values[0.5] == values[0.0] + 0.5 * float(sum(tc_values.tolist()))
    np.testing.assert_allclose(grads[0.5], grads[0.0] + 0.5 * tc_vjp(1.0), rtol=1e-12,
                               atol=1e-15)
    fd_check(lambda h: loss_node(h, Tensor(w), Tensor(b), weight, 2.0, offsets), states)


def test_broadcast_bias(rng):
    # clf.b_c reaches every row: its gradient sums the rows' logit gradients
    states, (w, b) = rng.normal(size=(6, 4)), classifier(rng, 4)
    weight = rng.uniform(0.1, 2.0, size=(2, 6))
    t, wt, bt = Tensor(states), Tensor(w), Tensor(b)
    loss_node(t, wt, bt, weight).backward()
    g_logits = t.grad[:, 0] / w[0, 0]
    np.testing.assert_allclose(bt.grad, [g_logits.sum()], rtol=1e-12)
    np.testing.assert_allclose(wt.grad[0], g_logits @ states, rtol=1e-12)
    fd_check(lambda v: loss_node(Tensor(states), Tensor(w), v, weight), b)


def test_matmul_2d(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    fd_check(lambda x, y: x @ y, a, b)
    with pytest.raises(ValueError, match="2-D"):
        Tensor(np.ones((2, 3, 4))) @ Tensor(b)


def test_linear_gradient(rng):
    # the loss node's parents are the states and the classifier, in that order
    x, (w, b) = rng.normal(size=(5, 4)), classifier(rng, 4)
    weight = rng.uniform(0.1, 2.0, size=(2, 5))
    fd_check(lambda t, u, v: loss_node(t, u, v, weight), x, w, b)
    xt, wt, bt = Tensor(x), Tensor(w), Tensor(b)
    assert loss_node(xt, wt, bt, weight)._parents == (xt, wt, bt)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6),
    d_in=st.integers(1, 7),
    scale=st.sampled_from([0.1, 1.0, 10.0]),
    seed=st.integers(0, 10_000),
)
def test_linear_matches_composed_ops(n, d_in, scale, seed):
    # The loss node's gradients, against the logit gradient pushed back
    # through the readout's matmul as composed ops.
    rng = np.random.default_rng(seed)
    states, (w, b) = rng.normal(size=(n, d_in)) * scale, classifier(rng, d_in)
    weight = rng.uniform(0.1, 2.0, size=(2, n))
    fused = [Tensor(a) for a in (states, w, b)]
    loss_node(*fused, weight).backward()

    x, w_t = Tensor(states), Tensor(w.T)
    ref = x @ w_t
    p = stable_sigmoid((ref.data + b)[:, 0])
    inside = (p > PROB_CLAMP) & (p < 1.0 - PROB_CLAMP)
    g_logits = np.where(inside, weight[0] * p - weight[1] * (1.0 - p), 0.0)
    ref.backward(g_logits[:, None])
    for a, ref_grad in zip(fused, (x.grad, w_t.grad.T, [g_logits.sum()])):
        assert a.grad.shape == np.shape(ref_grad)
        assert np.abs(a.grad - ref_grad).max() <= 1e-12 * max(1.0, np.abs(ref_grad).max())


def test_sigmoid_log(rng):
    # the cross-entropy part: sigmoid, clip and both logs
    states, (w, b) = rng.normal(size=(5, 3)) * 3.0, classifier(rng, 3)
    weight = rng.uniform(0.1, 2.0, size=(2, 5))
    fd_check(lambda z: loss_node(z, Tensor(w), Tensor(b), weight), states)


def test_l2norm_gradient(rng):
    # the consistency VJP's row norms and cosines, over two stacked events
    x = rng.normal(size=(5, 4))
    g = rng.normal()
    _, vjp = tc_terms(x, offsets=[0, 2, 5])
    fd = finite_difference_gradient(
        lambda a: g * float(tc_terms(a, offsets=[0, 2, 5])[0].sum()), x)
    assert np.abs(fd - vjp(g)).max() < 1e-7


def test_l2norm_zero_is_safe():
    x = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [2.0, 1.0, 0.5], [0.0, 0.0, 0.0]])
    by_event, vjp = tc_terms(x)
    grad = vjp(1.0)
    assert np.all(np.isfinite(grad))
    assert np.all(grad[[0, 3]] == 0.0)  # zero rows join no pair
    assert by_event.shape == (1,)
    by_event, vjp = tc_terms(np.zeros((3, 2)), offsets=[0, 1, 3])
    assert vjp is None
    assert by_event.tolist() == [0.0, 0.0]


def test_gather_gradients(rng):
    # the trend input reads its aggregates out of the stack of its parts
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(1, 3))
    fd_check(lambda x, y: trend_features([2, 0, 2, 1], [x, y], 0.5), a, b)
    out = trend_features([0, 1, 2], [Tensor(a), Tensor(b)], 0.5)
    assert out.data[:, :3].tobytes() == np.concatenate([a, b]).tobytes()


def test_gate_over_leading_axes_matches_rows(rng):
    cross = rng.normal(size=(2, 2, 3, 4))  # c_ti, then c_it
    w, b = rng.normal(size=(4, 8)), rng.normal(size=(4,))
    fd_check(lambda x, u, v: as_node(gate(x.data, u.data, v.data), x, u, v)[0], cross, w, b)
    batched, g_batched, _ = gate(cross, w, b)
    rows, g_rows, _ = gate(cross.reshape(2, 6, 4), w, b)
    np.testing.assert_array_equal(batched.reshape(6, 4), rows)
    np.testing.assert_array_equal(g_batched.reshape(6, 4), g_rows)


def test_final_sum_of_ce_and_tc(rng):
    # the epoch loss, ce + lambda_tc * tc, over one stack of trend states
    states, (w, b) = rng.normal(size=(4, 3)), classifier(rng, 3)
    weight = rng.uniform(0.1, 2.0, size=(2, 4))
    fd_check(lambda h, u, v: loss_node(h, u, v, weight, 0.3, [0, 2, 4]), states, w, b)


def test_clip_masks_gradient():
    # p below PROB_CLAMP, inside, and above 1 - PROB_CLAMP: only the middle row learns
    z = np.array([[-40.0], [0.3], [40.0]])
    p = stable_sigmoid(z[:, 0])
    assert p[0] < PROB_CLAMP and p[2] > 1.0 - PROB_CLAMP
    states = Tensor(z)
    loss_node(states, Tensor(np.ones((1, 1))), Tensor(np.zeros(1)), np.ones((2, 3))).backward()
    assert states.grad[0, 0] == 0.0 and states.grad[2, 0] == 0.0
    assert states.grad[1, 0] == pytest.approx(2.0 * p[1] - 1.0, rel=1e-12)


def test_deep_chain_no_recursion_error():
    x = Tensor(np.ones((1, 1)))
    y = x
    for _ in range(5000):
        y = scaled_sum(y, y, 0.0)
    y.backward()
    assert x.grad[0, 0] == 1.0


def test_reused_node_accumulates():
    x = Tensor(np.array([[2.0]]))
    y = scaled_sum(x, x, 3.0)  # dy/dx = 1 + 3 = 4
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
    scaled_sum(x, y, 1.0).backward()
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
    out = scaled_sum(affine(x, w), affine(x, w), 2.0)
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
    y = scaled_sum(scaled_sum(x, x, 1.0), x, 1.0)
    y.backward()
    grad = x.grad.copy()
    with pytest.raises(GraphConsumedError, match="already walked"):
        y.backward()
    assert np.array_equal(x.grad, grad)  # the failed walk added nothing


def test_backward_through_a_consumed_shared_node_raises():
    x = Tensor(np.array([[2.0, -1.0]]))
    shared = scaled_sum(x, x, 2.0)
    first = scaled_sum(shared, shared, 1.0)
    second = scaled_sum(shared, shared, 0.0)  # a fresh root over the same interior node
    first.backward()
    grad = x.grad.copy()
    with pytest.raises(GraphConsumedError):
        second.backward()
    assert np.array_equal(x.grad, grad)
    assert second._parents != ()  # refused before any node was consumed
    # a graph over leaves only is still free to walk
    fresh = scaled_sum(x, x, 1.0)
    fresh.backward()
    np.testing.assert_array_equal(x.grad, grad + 2.0)


def test_no_grad_records_no_graph_and_restores_its_state(rng):
    a, b = Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(2, 3)))
    params = ModelParams.build(3, 1, 2, 2, seed=0)
    weight = rng.uniform(0.1, 2.0, size=(2, 4))
    offsets = [0, 2, 4]

    def loss():
        states = run_lstm(trend_features([2, 3, 0, 1], [a, b], 0.5, offsets), params, offsets)
        return states, loss_node(states, params["clf.W_c"], params["clf.b_c"], weight, 0.5,
                                 offsets)

    _, taped = loss()
    with no_grad():
        states, untaped = loss()
        with no_grad():
            assert scaled_sum(a, a, 1.0)._parents == ()
        assert scaled_sum(a, a, 1.0)._parents == ()
    assert all(n._parents == () and n._vjp is None for n in (states, untaped))
    assert untaped.data.tobytes() == taped.data.tobytes()
    assert len(_graph(taped)) > 1
    assert scaled_sum(a, a, 1.0)._parents == (a, a)

    with pytest.raises(ZeroDivisionError):
        with no_grad():
            1 / 0
    assert scaled_sum(a, a, 1.0)._parents != ()


def test_gather_scatter_adds_repeated_rows(rng):
    x, y = Tensor(rng.normal(size=(3, 3))), Tensor(rng.normal(size=(1, 3)))
    index = [2, 0, 2, 3]
    out = trend_features(index, [x, y], 0.5)
    np.testing.assert_array_equal(out.data[:, :3], np.concatenate([x.data, y.data])[index])
    g = rng.normal(size=(4, 7))
    out.backward(g)
    read = Tensor(np.concatenate([x.data, y.data])[index])
    features(read, 0.5).backward(g)  # the gradient of each row read
    expected = np.zeros((4, 3))
    for row, k in enumerate(index):
        expected[k] += read.grad[row]
    np.testing.assert_array_equal(x.grad, expected[:3])
    np.testing.assert_array_equal(y.grad, expected[3:])


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    cols=st.integers(1, 4),
    n_rows=st.integers(1, 12),
    scale=st.floats(-3.0, 3.0, allow_nan=False),
    seed=st.integers(0, 10_000),
)
def test_gather_and_add_scaled_match_their_numpy_expressions_bitwise(
        sizes, cols, n_rows, scale, seed):
    # The trend input against its aggregates read as rows of a concatenation,
    # and the loss node against ce + scale * tc.
    rng = np.random.default_rng(seed)
    blocks = [rng.normal(size=(n, cols)) for n in sizes]
    stack = np.concatenate(blocks)
    rows = rng.integers(0, stack.shape[0], size=n_rows)  # repeats are likely
    g = rng.normal(size=(n_rows, 2 * cols + 1))
    parts = [Tensor(b) for b in blocks]
    out = trend_features(rows, parts, 0.5)
    read = Tensor(stack[rows])
    ref = features(read, 0.5)
    assert out.data.tobytes() == ref.data.tobytes()
    out.backward(g)
    ref.backward(g)
    want = np.zeros_like(stack)
    np.add.at(want, rows, read.grad)
    for part, block in zip(parts, np.split(want, np.cumsum(sizes)[:-1])):
        assert part.grad.tobytes() == block.tobytes()

    states, (w, b) = rng.normal(size=(3, cols)), classifier(rng, cols)
    weight = rng.uniform(0.1, 2.0, size=(2, 3))
    tc_values, tc_vjp = tc_terms(states)
    plain, scaled = Tensor(states), Tensor(states)
    ce = loss_node(plain, Tensor(w), Tensor(b), weight, 0.0)
    total = loss_node(scaled, Tensor(w), Tensor(b), weight, scale)
    assert total.item() == ce.item() + scale * float(sum(tc_values.tolist()))
    ce.backward()
    total.backward()
    np.testing.assert_array_equal(scaled.grad, plain.grad + scale * tc_vjp(1.0))
