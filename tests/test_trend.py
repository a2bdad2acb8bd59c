import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecatch import trend
from ecatch.autodiff import finite_difference_gradient
from ecatch.fusion import block_pairs, fuse_group
from ecatch.params import LSTM_GATES, ModelParams
from ecatch.trend import (
    TrendError,
    decay_weights,
    run_lstm,
    trend_features,
)

from conftest import DAY, five_stages, make_dataset


def all_posts(ds):
    """The member matrix of one window over every post of ``ds``."""
    return np.arange(ds.n)[None]


def posts(rng, timestamps):
    """A dataset of random text and image rows at ``timestamps``."""
    n = len(timestamps)
    return make_dataset(rng.normal(size=(n, 2)), image=rng.normal(size=(n, 2)),
                        timestamps=timestamps)


def fused_and_aggregated(ds, members, alpha, params=None):
    """A chunk's (B, n, d) fused rows, stage by stage, and ``fuse_group``'s
    (B, d) aggregates of them under decay ``alpha`` with their VJP."""
    params = ModelParams.build(3, 1, 2, 2, seed=3) if params is None else params
    chunk = fuse_group(ds, params, members, decay_weights(ds, members, alpha),
                       block_pairs(params)[0])
    return five_stages(ds, params, members).fused, chunk


def test_alpha_zero_is_plain_mean(rng):
    ds = posts(rng, [0, DAY, 2 * DAY, 9 * DAY])
    fused, (agg, _) = fused_and_aggregated(ds, all_posts(ds), alpha=0.0)
    np.testing.assert_allclose(agg[0], fused[0].mean(axis=0))


def test_single_post_aggregate_is_identity(rng):
    ds = posts(rng, [77])
    fused, (agg, _) = fused_and_aggregated(ds, all_posts(ds), alpha=1.0)
    np.testing.assert_allclose(agg, fused[0])


def test_half_life_gap_weights():
    # alpha * gap = ln 2 makes the older post worth half the newer one
    gap = 3 * DAY
    alpha = np.log(2.0) / gap
    ds = make_dataset(np.zeros((2, 2)), timestamps=[0, gap])
    lam = decay_weights(ds, all_posts(ds), alpha)[0]
    np.testing.assert_allclose(lam, [1.0 / 3.0, 2.0 / 3.0])


def test_newest_post_has_unit_raw_weight(rng):
    ds = make_dataset(np.zeros((3, 2)), timestamps=[0, DAY, 5 * DAY])
    lam = decay_weights(ds, all_posts(ds), alpha=2.0 / DAY)[0]
    # normalized weights keep their ordering; newest dominates
    assert lam.argmax() == 2
    np.testing.assert_allclose(lam.sum(), 1.0)


def test_aggregate_in_convex_hull(rng):
    ds = posts(rng, np.arange(5) * DAY)
    fused, (agg, _) = fused_and_aggregated(ds, all_posts(ds), alpha=1.0 / DAY)
    assert np.all(agg[0] >= fused[0].min(axis=0) - 1e-12)
    assert np.all(agg[0] <= fused[0].max(axis=0) + 1e-12)


def test_constant_aggregates_have_null_features():
    feats = trend_features(np.full((3, 3), 1.5), beta=0.6)[0]
    assert np.all(feats[:, :3] == 1.5)
    assert np.all(feats[:, 3:] == 0.0)


def test_momentum_recurrence_by_hand():
    # shift norms (0, 2, 0) with beta=0.5 give momentum (0, 1, 0.5)
    feats, _ = trend_features(np.array([[0.0], [2.0], [2.0]]), beta=0.5)
    assert feats[:, 2].tolist() == [0.0, 1.0, 0.5]


def test_beta_one_freezes_momentum(rng):
    feats, _ = trend_features(rng.normal(size=(4, 3)), beta=1.0)
    assert np.all(feats[:, 6] == 0.0)


def test_lbar_layout():
    feats, _ = trend_features(np.array([[1.0, 2.0], [2.0, 4.0]]), beta=0.5)
    assert feats.shape == (2, 5)
    lbar = feats[1]
    np.testing.assert_allclose(lbar[:2], [2.0, 4.0])
    np.testing.assert_allclose(lbar[2:4], [1.0, 2.0])
    np.testing.assert_allclose(lbar[4], 0.5 * np.sqrt(5.0))


def test_zero_parameter_lstm_fixed_point(rng):
    params = ModelParams.build(3, 1, 2, 2, zero=True)
    feats, _ = trend_features(rng.normal(size=(3, 3)), beta=0.5)
    # cell halves each step from zero: stays zero, and so does 0.5 * tanh(cell)
    np.testing.assert_array_equal(run_lstm(feats, params)[0], np.zeros((3, 3)))


def test_empty_feature_list_raises():
    # no command runs the model on zero windows: an empty input is an error
    params = ModelParams.build(3, 1, 2, 2, zero=True)
    with pytest.raises(TrendError, match="no window aggregates"):
        run_lstm(np.zeros((0, 7)), params)
    with pytest.raises(TrendError, match="no window aggregates"):
        run_lstm(np.zeros((0, 7)), params, offsets=[0])


def test_scoring_drops_the_trend_input_vjp_before_the_lstm(monkeypatch, rng):
    # Without keep, what only the trend input's VJP holds is freed before the
    # LSTM allocates, so scoring peaks no higher than the forward pass alone.
    refs, alive = [], []
    real_features, real_lstm = trend.trend_features, trend.run_lstm

    def features_spy(*args):
        out, vjp = real_features(*args)
        refs.append(weakref.ref(vjp))
        return out, vjp

    def lstm_spy(*args):
        alive.append(refs[-1]() is not None)
        return real_lstm(*args)

    monkeypatch.setattr(trend, "trend_features", features_spy)
    monkeypatch.setattr(trend, "run_lstm", lstm_spy)
    params = ModelParams.build(3, 1, 2, 2, seed=0)
    agg = rng.normal(size=(4, 3))
    for keep in (True, False):
        _, vjp = trend.encode_event(agg, params, 0.5, [0, 2, 4], keep)
        assert (vjp is None) == (not keep)
    assert alive == [True, False]


def test_encode_event_vjp_is_the_lstms_then_the_trend_inputs(monkeypatch, rng):
    # Bitwise the two VJPs called by hand; and the LSTM's VJP, with what only
    # it holds, is gone before the trend input's runs.
    params = ModelParams.build(3, 1, 2, 2, seed=0)
    agg, offsets = rng.normal(size=(5, 3)), [0, 2, 5]
    states, vjp = trend.encode_event(agg, params, 0.5, offsets)
    x, trend_vjp = trend_features(agg, 0.5, offsets)
    want, lstm_vjp = run_lstm(x, params, offsets)
    assert states.tobytes() == want.tobytes()
    g = rng.normal(size=states.shape)
    g_agg, grads = vjp(g)
    g_x, want_grads = lstm_vjp(g)
    assert g_agg.tobytes() == trend_vjp(g_x).tobytes()
    assert list(grads) == list(want_grads)
    assert all(grads[name].tobytes() == g.tobytes() for name, g in want_grads.items())

    refs, alive = [], []
    real_features, real_lstm = trend.trend_features, trend.run_lstm

    def lstm_spy(*args):
        out, lstm = real_lstm(*args)
        refs.append(weakref.ref(lstm))
        return out, lstm

    def features_spy(*args):
        out, features = real_features(*args)

        def call(g):
            alive.append(refs[-1]() is not None)
            return features(g)
        return out, call

    monkeypatch.setattr(trend, "trend_features", features_spy)
    monkeypatch.setattr(trend, "run_lstm", lstm_spy)
    trend.encode_event(agg, params, 0.5, offsets)[1](g)
    assert alive == [False]


def test_saturated_gates_single_step(rng):
    # forget gate pinned shut, input gate pinned open, output gate at 0.5
    d = 3
    params = ModelParams.build(d, 1, 2, 2, zero=True)
    params["lstm.b_f"].data[...] = -30.0
    params["lstm.b_i"].data[...] = 30.0
    w_c = rng.normal(size=(d, 2 * d + 1))
    b_c = rng.normal(size=d)
    params["lstm.W_c"].data[...] = w_c
    params["lstm.b_c"].data[...] = b_c

    agg = rng.normal(size=(1, d))
    hidden, _ = run_lstm(trend_features(agg, beta=0.5)[0], params)
    lbar = np.concatenate([agg, np.zeros((1, d)), np.zeros((1, 1))], axis=1)
    expected_c = np.tanh(lbar @ w_c.T + b_c)
    np.testing.assert_allclose(hidden, 0.5 * np.tanh(expected_c), atol=1e-6)


def test_feature_length_validation(rng):
    params = ModelParams.build(4, 2, 2, 2, zero=True)
    feats, _ = trend_features(rng.normal(size=(1, 3)), beta=0.5)
    with pytest.raises(TrendError, match="2d\\+1"):
        run_lstm(feats, params)


def test_hidden_state_strictly_inside_unit_box(rng):
    params = ModelParams.build(4, 2, 2, 2, seed=5)
    aggs = rng.normal(size=(6, 4)) * 3
    hidden, _ = run_lstm(trend_features(aggs, beta=0.3)[0], params)
    assert hidden.shape == (6, 4)
    assert np.abs(hidden).max() < 1.0


def test_event_isolation(rng):
    params = ModelParams.build(4, 2, 2, 2, seed=6)
    aggs_a = rng.normal(size=(3, 4))
    aggs_b = rng.normal(size=(3, 4))
    solo = run_lstm(trend_features(aggs_a, 0.5)[0], params)[0]
    run_lstm(trend_features(aggs_b, 0.5)[0], params)  # unrelated event in between
    again = run_lstm(trend_features(aggs_a, 0.5)[0], params)[0]
    np.testing.assert_array_equal(solo, again)


def test_duplicate_window_delta_gradient_is_safe(rng):
    # identical consecutive aggregates: the shift is identically zero and the
    # norm's subgradient must stay finite
    params = ModelParams.build(3, 1, 2, 2, seed=7)
    base = rng.normal(size=(1, 3))
    feats, trend_vjp = trend_features(np.concatenate([base, base]), beta=0.5)
    hidden, lstm_vjp = run_lstm(feats, params)
    g_feats, _ = lstm_vjp(2.0 * hidden)  # the gradient of the sum of squares
    assert np.all(np.isfinite(trend_vjp(g_feats)))


def numpy_lstm(x, p):
    """One window at a time, one matmul per gate: the LSTM by its definition."""
    d = p["lstm.b_i"].size
    h, c = np.zeros(d), np.zeros(d)
    rows = []
    for row in x:
        z = {g: p[f"lstm.W_{g}"] @ row + p[f"lstm.U_{g}"] @ h + p[f"lstm.b_{g}"]
             for g in LSTM_GATES}
        c = (c / (1.0 + np.exp(-z["f"]))
             + np.tanh(z["c"]) / (1.0 + np.exp(-z["i"])))
        h = np.tanh(c) / (1.0 + np.exp(-z["o"]))
        rows.append(h)
    return np.array(rows)


@settings(max_examples=30, deadline=None)
@given(
    steps=st.integers(1, 5),
    d=st.integers(1, 4),
    scale=st.sampled_from([0.3, 1.0, 3.0]),
    seed=st.integers(0, 10_000),
)
def test_lstm_node_matches_numpy_and_finite_differences(steps, d, scale, seed):
    rng = np.random.default_rng(seed)
    params = ModelParams.build(d, 1, 2, 2, seed=seed)
    names = [n for n in params.names() if n.startswith("lstm.")]
    arrays = [rng.normal(size=(steps, 2 * d + 1)) * scale]
    arrays += [rng.normal(size=params[n].data.shape) * scale for n in names]
    g = rng.normal(size=(steps, d))

    def roll(arrs):
        for name, a in zip(names, arrs[1:]):
            params[name].data = a
        return run_lstm(arrs[0], params)

    out, vjp = roll(arrays)
    assert out.shape == (steps, d)
    expected = numpy_lstm(arrays[0], dict(zip(names, arrays[1:])))
    assert np.abs(out - expected).max() <= 1e-12

    g_x, named = vjp(g)
    for idx, grad in enumerate([g_x] + [named[n] for n in names]):
        def f(x, idx=idx):
            return float((roll(arrays[:idx] + [x] + arrays[idx + 1:])[0] * g).sum())

        fd = finite_difference_gradient(f, arrays[idx])
        err = np.abs(fd - grad).max()
        assert err <= 1e-6 * max(np.abs(fd).max(), np.abs(grad).max(), 1e-3), idx


def test_decay_anchor_is_each_rows_latest_member():
    # Rows anchor at their own latest timestamp, wherever it sits in the row.
    times = np.array([0, DAY, 5 * DAY, 2 * DAY, 7 * DAY, 7 * DAY])
    ds = make_dataset(np.zeros((6, 2)), timestamps=times)
    members = np.array([[2, 0, 1], [4, 3, 5]])
    alpha = 0.5 / DAY
    lam = decay_weights(ds, members, alpha)
    for row, weights in zip(members, lam):
        raw = np.exp(-alpha * (times[row].max() - times[row]))
        np.testing.assert_array_equal(weights, raw / raw.sum())
    np.testing.assert_allclose(lam[0, 0] / lam[0], np.exp(alpha * (times[2] - times[[2, 0, 1]])))
    assert lam[1, 0] == lam[1, 2] > lam[1, 1]


@settings(max_examples=30, deadline=None)
@given(
    batch=st.integers(1, 4),
    n=st.integers(1, 5),
    d=st.integers(1, 4),
    alpha_days=st.sampled_from([0.0, 0.5, 3.0]),
    seed=st.integers(0, 10_000),
)
def test_aggregation_node_matches_loop_and_finite_differences(batch, n, d, alpha_days, seed):
    # fuse_group's aggregates against each window's decay-weighted fused
    # rows, and its gradient, which reaches the gate only through them
    rng = np.random.default_rng(seed)
    ds = posts(rng, np.sort(rng.integers(0, 5 * DAY, size=batch * n)))
    group = np.arange(batch * n).reshape(batch, n)
    params = ModelParams.build(d, 1, 2, 2, seed=seed)
    fused, (out, vjp) = fused_and_aggregated(ds, group, alpha_days / DAY, params)
    g = rng.normal(size=(batch, d))

    for b, row in enumerate(group):
        lam = decay_weights(ds, row[None], alpha_days / DAY)[0]
        np.testing.assert_allclose(out[b], lam @ fused[b], rtol=1e-12, atol=1e-15)
        assert np.all(out[b] >= fused[b].min(axis=0) - 1e-12)
        assert np.all(out[b] <= fused[b].max(axis=0) + 1e-12)
    x = params["fusion.W_g"]
    analytic = vjp(g)[1]["fusion.W_g"]

    def f(a):
        x.data, kept = a, x.data
        try:
            return float((fused_and_aggregated(ds, group, alpha_days / DAY, params)[1][0]
                          * g).sum())
        finally:
            x.data = kept

    fd = finite_difference_gradient(f, x.data)
    assert np.abs(fd - analytic).max() <= 1e-8 * max(np.abs(fd).max(), 1.0)


def trend_input_by_steps(agg, beta):
    """[L; delta; M] window by window, the way the paper states it."""
    rows, prev, m = [], None, 0.0
    for a in agg:
        delta = np.zeros_like(a) if prev is None else a - prev
        if prev is not None:
            m = beta * m + (1.0 - beta) * float(np.sqrt(delta @ delta))
        rows.append(np.concatenate([a, delta, [m]]))
        prev = a
    return np.array(rows)


@settings(max_examples=40, deadline=None)
@given(
    steps=st.integers(1, 5),
    d=st.integers(1, 4),
    beta=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
    repeat=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_trend_input_node_matches_steps_and_finite_differences(steps, d, beta, repeat, seed):
    rng = np.random.default_rng(seed)
    agg = rng.normal(size=(steps, d))
    if repeat and steps > 1:
        agg[1] = agg[0]  # a zero shift: the norm's subgradient is zero there
    g = rng.normal(size=(steps, 2 * d + 1))

    out, vjp = trend_features(agg, beta)
    np.testing.assert_allclose(out, trend_input_by_steps(agg, beta), rtol=1e-12,
                               atol=1e-15)
    g_agg = vjp(g)
    assert np.all(np.isfinite(g_agg))

    # A central difference of |delta| at delta = 0 is exactly 0, the
    # subgradient the VJP uses, so one comparison covers the zero shift too.
    fd = finite_difference_gradient(lambda a: float((trend_features(a, beta)[0] * g).sum()),
                                    agg)
    assert np.abs(fd - g_agg).max() <= 1e-6 * max(np.abs(fd).max(), 1.0)


def test_trend_input_needs_a_window():
    with pytest.raises(TrendError, match="no window aggregates"):
        trend_features(np.zeros((0, 3)), beta=0.5)
    with pytest.raises(TrendError, match="beta"):
        trend_features(np.zeros((1, 3)), beta=1.5)


# -- all events stacked --------------------------------------------------------
EVENT_LENGTHS = st.lists(st.integers(1, 6), min_size=1, max_size=5)


def stacked(lengths):
    """Row offsets of events of ``lengths`` windows, one event after another."""
    return np.cumsum([0] + list(lengths))


@settings(max_examples=30, deadline=None)
@given(lengths=EVENT_LENGTHS, d=st.integers(1, 3), beta=st.sampled_from([0.0, 0.4, 1.0]),
       repeat=st.booleans(), seed=st.integers(0, 10_000))
@example(lengths=[1, 6, 1, 3], d=2, beta=0.4, repeat=True, seed=1)  # single beside long
@example(lengths=[3, 3, 3], d=2, beta=0.4, repeat=False, seed=2)    # all equal
@example(lengths=[5], d=2, beta=0.4, repeat=False, seed=3)          # one event alone
def test_stacked_trend_input_is_each_events_own(lengths, d, beta, repeat, seed):
    rng = np.random.default_rng(seed)
    offsets = stacked(lengths)
    agg = rng.normal(size=(offsets[-1], d))
    if repeat:
        agg[1::2] = agg[:-1:2]  # zero shifts, and repeats across event boundaries
    g = rng.normal(size=(offsets[-1], 2 * d + 1))

    out, vjp = trend_features(agg, beta, offsets)
    for a, b in zip(offsets[:-1], offsets[1:]):
        np.testing.assert_array_equal(out[a:b], trend_features(agg[a:b], beta)[0])
    fd = finite_difference_gradient(
        lambda a: float((trend_features(a, beta, offsets)[0] * g).sum()), agg)
    assert np.abs(fd - vjp(g)).max() <= 1e-6 * max(np.abs(fd).max(), 1.0)


@settings(max_examples=25, deadline=None)
@given(lengths=EVENT_LENGTHS, d=st.integers(1, 3), scale=st.sampled_from([0.3, 1.0, 3.0]),
       seed=st.integers(0, 10_000))
@example(lengths=[1, 6, 1, 3], d=2, scale=1.0, seed=1)
@example(lengths=[3, 3, 3], d=2, scale=1.0, seed=2)
@example(lengths=[5], d=2, scale=1.0, seed=3)
def test_lockstep_lstm_matches_each_event_alone_and_finite_differences(lengths, d, scale,
                                                                        seed):
    rng = np.random.default_rng(seed)
    offsets = stacked(lengths)
    params = ModelParams.build(d, 1, 2, 2, seed=seed)
    names = [n for n in params.names() if n.startswith("lstm.")]
    arrays = [rng.normal(size=(offsets[-1], 2 * d + 1)) * scale]
    arrays += [rng.normal(size=params[n].data.shape) * scale for n in names]
    g = rng.normal(size=(offsets[-1], d))

    def roll(arrs):
        for name, a in zip(names, arrs[1:]):
            params[name].data = a
        return run_lstm(arrs[0], params, offsets)

    out, vjp = roll(arrays)
    assert out.shape == (offsets[-1], d)
    by_name = dict(zip(names, arrays[1:]))
    for a, b in zip(offsets[:-1], offsets[1:]):
        assert np.abs(out[a:b] - numpy_lstm(arrays[0][a:b], by_name)).max() <= 1e-12

    g_x, named = vjp(g)
    for idx, grad in enumerate([g_x] + [named[n] for n in names]):
        def f(a, idx=idx):
            return float((roll(arrays[:idx] + [a] + arrays[idx + 1:])[0] * g).sum())

        fd = finite_difference_gradient(f, arrays[idx])
        err = np.abs(fd - grad).max()
        assert err <= 1e-6 * max(np.abs(fd).max(), np.abs(grad).max(), 1e-3), idx
