import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecatch.autodiff import Tensor, finite_difference_gradient, stable_sigmoid
from ecatch.fusion import gate, window_groups
from ecatch.objective import PROB_CLAMP, CrossEntropyTerms, Readout, epoch_loss, tc_terms
from ecatch.training import TrainingError, backward, forward
from ecatch.trend import trend_features
from ecatch.verify import toy_problem


def fd_check(build, *arrays, tol=1e-7):
    """FD-verify d<g, value>/d(each input array) for a stage ``build`` that
    returns ``(value, vjp)``, the VJP giving one gradient per input array; g
    is a fixed random cotangent of the value's shape."""
    value, vjp = build(*[a.copy() for a in arrays])
    g = np.random.default_rng(0).normal(size=np.shape(value))
    grads = vjp(g)
    for k, arr in enumerate(arrays):
        def f(x, k=k):
            args = [a.copy() for a in arrays]
            args[k] = x
            return float(np.sum(g * build(*args)[0]))

        fd = finite_difference_gradient(f, arr)
        assert np.abs(fd - grads[k]).max() < tol


# -- the epoch loss ---------------------------------------------------------------
def loss_node(states, w_c, b_c, weight, lambda_tc=0.0, offsets=None):
    """``objective.epoch_loss`` over ``states`` read out by ``w_c`` and ``b_c``:
    row r holds one term of each class y, of weight ``weight[y, r]``, and the
    consistency term pairs the rows of each event of ``offsets``. Returns
    ``ce + lambda_tc * tc`` and a VJP to the gradients of the three arrays."""
    n = states.shape[0]
    probs = stable_sigmoid((states @ w_c.T + b_c)[:, 0])
    row, label = np.tile(np.arange(n), 2), np.repeat([0, 1], n)
    q = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    w = weight[label, row]
    terms = CrossEntropyTerms(row, 0 * row, row, label, w, -w * np.log([1.0 - q, q])[label, row])
    readout = Readout(states, probs, None, None, [0], None, row, 0 * row, row)
    tc_values, tc_vjp = tc_terms(states, offsets=offsets)
    ce, tc, vjp = epoch_loss(readout, terms, tc_values, tc_vjp, lambda_tc,
                             {"clf.W_c": Tensor(w_c), "clf.b_c": Tensor(b_c)})

    def grads(g):
        g_states, named = vjp(g)
        assert list(named) == ["clf.W_c", "clf.b_c"]
        return [g_states, named["clf.W_c"], named["clf.b_c"]]

    return ce + lambda_tc * tc, grads


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
        value, vjp = loss_node(states.copy(), w, b, weight, lam, offsets)
        values[lam], grads[lam] = value, vjp(1.0)[0]
    assert values[0.5] == values[0.0] + 0.5 * float(sum(tc_values.tolist()))
    np.testing.assert_allclose(grads[0.5], grads[0.0] + 0.5 * tc_vjp(1.0), rtol=1e-12,
                               atol=1e-15)
    fd_check(lambda h: loss_node(h, w, b, weight, 2.0, offsets), states)


def test_broadcast_bias(rng):
    # clf.b_c reaches every row: its gradient sums the rows' logit gradients
    states, (w, b) = rng.normal(size=(6, 4)), classifier(rng, 4)
    weight = rng.uniform(0.1, 2.0, size=(2, 6))
    g_states, g_w, g_b = loss_node(states, w, b, weight)[1](1.0)
    g_logits = g_states[:, 0] / w[0, 0]
    np.testing.assert_allclose(g_b, [g_logits.sum()], rtol=1e-12)
    np.testing.assert_allclose(g_w[0], g_logits @ states, rtol=1e-12)

    def over_bias(v):
        value, vjp = loss_node(states, w, v, weight)
        return value, lambda g: vjp(g)[2:]

    fd_check(over_bias, b)


def test_matmul_2d(rng):
    # A plain product of two parameter holders, kept for the benchmark's
    # tracer, which counts calls under this name.
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    out = Tensor(a) @ Tensor(b)
    assert isinstance(out, Tensor) and out.data.tobytes() == (a @ b).tobytes()


def test_linear_gradient(rng):
    # the loss's VJP gives the states', then the classifier's gradients
    x, (w, b) = rng.normal(size=(5, 4)), classifier(rng, 4)
    weight = rng.uniform(0.1, 2.0, size=(2, 5))
    fd_check(lambda t, u, v: loss_node(t, u, v, weight), x, w, b)
    grads = loss_node(x, w, b, weight)[1](1.0)
    assert [g.shape for g in grads] == [x.shape, w.shape, b.shape]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6),
    d_in=st.integers(1, 7),
    scale=st.sampled_from([0.1, 1.0, 10.0]),
    seed=st.integers(0, 10_000),
)
def test_linear_matches_composed_ops(n, d_in, scale, seed):
    # The loss's gradients, against the logit gradient pushed back through
    # the readout's product, states @ W_c.T, written out.
    rng = np.random.default_rng(seed)
    states, (w, b) = rng.normal(size=(n, d_in)) * scale, classifier(rng, d_in)
    weight = rng.uniform(0.1, 2.0, size=(2, n))
    grads = loss_node(states, w, b, weight)[1](1.0)

    p = stable_sigmoid((states @ w.T + b)[:, 0])
    inside = (p > PROB_CLAMP) & (p < 1.0 - PROB_CLAMP)
    g_logits = np.where(inside, weight[0] * p - weight[1] * (1.0 - p), 0.0)[:, None]
    for got, ref_grad in zip(grads, (g_logits @ w, (states.T @ g_logits).T,
                                     [g_logits.sum()])):
        assert got.shape == np.shape(ref_grad)
        assert np.abs(got - ref_grad).max() <= 1e-12 * max(1.0, np.abs(ref_grad).max())


def test_sigmoid_log(rng):
    # the cross-entropy part: sigmoid, clip and both logs
    states, (w, b) = rng.normal(size=(5, 3)) * 3.0, classifier(rng, 3)
    weight = rng.uniform(0.1, 2.0, size=(2, 5))
    fd_check(lambda z: loss_node(z, w, b, weight), states)


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
    # the trend input reads its aggregates row for row, in window order
    agg, offsets = rng.normal(size=(4, 3)), [0, 1, 4]
    out, vjp = trend_features(agg, 0.5, offsets)
    assert out[:, :3].tobytes() == agg.tobytes()
    g = rng.normal(size=out.shape)
    fd = finite_difference_gradient(
        lambda a: float(np.sum(g * trend_features(a, 0.5, offsets)[0])), agg)
    assert np.abs(fd - vjp(g)).max() < 1e-7


def gate_stage(cross, w, b):
    """The gate stage's fused rows and VJP, without the gate itself."""
    fused, _, vjp = gate(cross, w, b)
    return fused, vjp


def test_gate_over_leading_axes_matches_rows(rng):
    cross = rng.normal(size=(2, 2, 3, 4))  # c_ti, then c_it
    w, b = rng.normal(size=(4, 8)), rng.normal(size=(4,))
    fd_check(gate_stage, cross, w, b)
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
    g_states = loss_node(z, np.ones((1, 1)), np.zeros(1), np.ones((2, 3)))[1](1.0)[0]
    assert g_states[0, 0] == 0.0 and g_states[2, 0] == 0.0
    assert g_states[1, 0] == pytest.approx(2.0 * p[1] - 1.0, rel=1e-12)


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


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    cols=st.integers(1, 4),
    scale=st.floats(-3.0, 3.0, allow_nan=False),
    seed=st.integers(0, 10_000),
)
def test_gather_and_add_scaled_match_their_numpy_expressions_bitwise(sizes, cols, scale, seed):
    # The trend input over events stacked in one array against each event's
    # own, value and gradient, and the loss node against ce + scale * tc.
    rng = np.random.default_rng(seed)
    blocks = [rng.normal(size=(n, cols)) for n in sizes]
    offsets = np.cumsum([0, *sizes])
    g = rng.normal(size=(offsets[-1], 2 * cols + 1))
    out, vjp = trend_features(np.concatenate(blocks), 0.5, offsets)
    g_agg = vjp(g)
    for a, b, block in zip(offsets[:-1], offsets[1:], blocks):
        ref, ref_vjp = trend_features(block, 0.5)
        assert out[a:b].tobytes() == ref.tobytes()
        assert g_agg[a:b].tobytes() == ref_vjp(g[a:b]).tobytes()

    states, (w, b) = rng.normal(size=(3, cols)), classifier(rng, cols)
    weight = rng.uniform(0.1, 2.0, size=(2, 3))
    tc_values, tc_vjp = tc_terms(states)
    ce, plain = loss_node(states, w, b, weight, 0.0)
    total, scaled = loss_node(states, w, b, weight, scale)
    assert total == ce + scale * float(sum(tc_values.tolist()))
    np.testing.assert_array_equal(scaled(1.0)[0], plain(1.0)[0] + scale * tc_vjp(1.0))


# -- one backward per forward -----------------------------------------------------
def test_second_backward_on_the_same_root_raises():
    ds, events, windows, params, cfg = toy_problem(0)
    art = forward(ds, events, windows, params, cfg)
    grads = backward(art)
    kept = {name: g.copy() for name, g in grads.items()}
    data = {name: t.data.copy() for name, t in params.items()}
    with pytest.raises(TrainingError, match="backward already ran on this forward"):
        backward(art)
    # the failed walk changed neither the first gradients nor the parameters
    assert all(grads[name].tobytes() == g.tobytes() for name, g in kept.items())
    assert all(t.data.tobytes() == data[name].tobytes() for name, t in params.items())


def test_backward_through_a_consumed_shared_node_raises():
    # Every chunk shares the encoder, gate and weight-pack parameters; a
    # consumed forward refuses a second walk, while a fresh forward over the
    # same parameters walks again to the same bytes.
    ds, events, windows, params, cfg = toy_problem(0, n_posts=12)
    assert len(window_groups([w for seq in windows.values() for w in seq.windows])) > 1
    art = forward(ds, events, windows, params, cfg)
    grads = backward(art)
    with pytest.raises(TrainingError, match="backward already ran on this forward"):
        backward(art)
    again = backward(forward(ds, events, windows, params, cfg))
    assert list(again) == list(grads)
    assert all(again[name].tobytes() == g.tobytes() for name, g in grads.items())
