import dataclasses
import functools
import gc
import json
import math
import operator
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecatch import fusion, pipeline, training
from ecatch.autodiff import Tensor, finite_difference_gradient, no_grad
from ecatch.clustering import PseudoEvent
from ecatch.config import RunConfig
from ecatch.data import Dataset, assign_splits
from ecatch.metrics import log_loss
from ecatch.objective import ce_terms, class_weights, mine_hard_examples, tc_terms
from ecatch.params import ModelParams, shape_table
from ecatch.trend import run_lstm
from ecatch.training import (
    Adam,
    Sgd,
    TrainingError,
    backward,
    clip_gradients,
    forward,
    load_checkpoint,
    save_checkpoint,
    train,
)
from ecatch.verify import FD_STEP, GRAD_TOL, REL_FLOOR, grad_check, toy_problem
from ecatch.windows import segment_all

from conftest import DAY, features, make_dataset, nan_gradient_at_epoch_1


def test_zero_parameter_forward_closed_form():
    ds, events, windows, params, cfg = toy_problem(3)
    zero = ModelParams.build(params.d, params.heads, params.d_text, params.d_img,
                             zero=True)
    art = forward(ds, events, windows, zero, cfg)
    np.testing.assert_allclose(art.report.p_post, 0.5)

    # every training post contributes w_y * ln 2
    expected = 0.0
    train_mask = ds.train_mask()
    for ev in events:
        post = np.array(ev.member_indices)
        w = class_weights(ds.labels, post, np.zeros_like(post), train_mask,
                          cfg["loss.epsilon"])[0]
        for i in ev.member_indices:
            if train_mask[i]:
                expected += w[ds.labels[i]] * math.log(2.0)
    assert art.report.ce == pytest.approx(expected)
    assert art.report.tc == 0.0
    assert art.report.reg == 0.0


def test_duplicated_event_adds_its_own_loss():
    ds, events, windows, params, cfg = toy_problem(5)
    art = forward(ds, events, windows, params, cfg)
    dup_events = events + [PseudoEvent(2, events[0].member_indices)]
    dup_windows = dict(windows)
    dup_windows[2] = windows[0]
    art2 = forward(ds, dup_events, dup_windows, params, cfg)
    alone = forward(ds, events[:1], {0: windows[0]}, params, cfg).report
    extra = alone.ce + cfg["loss.lambda_tc"] * alone.tc
    assert art2.report.total == pytest.approx(art.report.total + extra)


def test_single_post_pipeline_collapses_to_direct_formula(rng):
    text = rng.normal(size=(1, 3))
    image = rng.normal(size=(1, 2))
    ds = make_dataset(text, image=image, labels=[1], timestamps=[0],
                      has_image=[True])
    ds = assign_splits(ds, (0.8, 0.1, 0.1), seed=0)
    events = [PseudoEvent(0, (0,))]
    cfg = RunConfig({"model.d": 4, "model.heads": 2, "window.span_secs": DAY,
                     "window.stride_secs": DAY})
    windows = segment_all(events, ds, DAY, DAY)
    params = ModelParams.build(4, 2, 3, 2, seed=4)
    art = forward(ds, events, windows, params, cfg)

    # direct evaluation: encode -> self/cross attention collapse to affine
    # chains on one row -> gate -> lstm on [P; 0; 0] -> sigmoid readout
    agg = fusion.fuse_group(ds, params, np.array([windows[0].windows[0].members]),
                            np.ones((1, 1)), fusion.block_pairs(params))
    feats = features(agg, cfg["trend.beta"])
    hidden = run_lstm(feats, params)
    logit = (hidden.data @ params["clf.W_c"].data.T
             + params["clf.b_c"].data)
    expected = 1.0 / (1.0 + np.exp(-logit[0, 0]))
    assert art.report.p_post[0] == pytest.approx(expected)


def test_reg_only_gradient_is_linear_in_params():
    ds, events, windows, params, cfg = toy_problem(2)
    cfg = cfg.updated({"loss.lambda_tc": 0.0, "loss.lambda_reg": 0.03})
    art = forward(ds, events, windows, params, cfg)
    # A constant loss leaves only the closed-form regularizer gradient.
    grads = backward(dataclasses.replace(art, loss=Tensor(0.0)))
    for name, tensor in params.items():
        np.testing.assert_allclose(grads[name], 2 * 0.03 * tensor.data)


def test_gradient_check_passes():
    report = grad_check(0)
    assert report.ok, report.line()


@pytest.mark.parametrize("seed, n_posts, overrides", [
    (1, 6, {"loss.lambda_tc": 0.0}),
    (3, 12, {"loss.lambda_tc": 0.5, "loss.tc_clamp": True}),
], ids=["lambda-tc-zero", "tc-clamp"])
def test_forward_gradients_match_finite_differences(seed, n_posts, overrides):
    # grad_check runs lambda_tc 0.1 without the clamp. These are the loss
    # node's other branches: no consistency gradient, and one from only the
    # pairs that the clamp keeps (here some pair is clamped and some is kept).
    ds, events, windows, params, cfg = toy_problem(seed, n_posts=n_posts)
    cfg = cfg.updated(overrides)
    readout = training.run_model(ds, events, windows, params, cfg)
    kept, _ = tc_terms(readout.states.data, cfg["loss.tc_clamp"], readout.offsets)
    every, _ = tc_terms(readout.states.data, False, readout.offsets)
    assert kept.sum() != 0.0 and (kept != every).any() == cfg["loss.tc_clamp"]
    analytic = backward(forward(ds, events, windows, params, cfg))

    def total_with(tensor, x):
        tensor.data = x
        with no_grad():
            return forward(ds, events, windows, params, cfg).report.total

    for name, tensor in params.items():
        orig = tensor.data
        fd = finite_difference_gradient(lambda x: total_with(tensor, x), orig, FD_STEP)
        tensor.data = orig
        a = analytic[name]
        rel = np.abs(a - fd) / np.maximum(np.maximum(np.abs(a), np.abs(fd)), REL_FLOOR)
        assert rel.max() < GRAD_TOL, name


def test_gradient_check_detects_fault_injection():
    report = grad_check(0, corrupt="fusion.W_g")
    assert not report.ok
    assert report.location.startswith("fusion.W_g")


def test_zero_parameter_gradients_match_quadratic_form():
    ds, events, windows, params, cfg = toy_problem(4)
    zero = ModelParams.build(params.d, params.heads, params.d_text, params.d_img,
                             zero=True)
    cfg0 = cfg.updated({"loss.lambda_tc": 0.0})
    art = forward(ds, events, windows, zero, cfg0)
    # A constant loss leaves only the closed-form regularizer gradient.
    grads = backward(dataclasses.replace(art, loss=Tensor(0.0)))
    for name in zero.names():
        np.testing.assert_allclose(grads[name], 0.0)


def test_unused_parameters_get_zero_gradient():
    ds, events, windows, params, cfg = toy_problem(5)
    cfg = cfg.updated({"attention.scope": "post", "loss.lambda_reg": 0.0})
    art = forward(ds, events, windows, params, cfg)
    grads = backward(art)
    # per-post attention never touches the query/key projections
    for block in ("att_text", "att_img", "att_ti", "att_it"):
        np.testing.assert_allclose(grads[f"fusion.{block}.Wq"], 0.0)
        np.testing.assert_allclose(grads[f"fusion.{block}.Wk"], 0.0)
    assert np.abs(grads["fusion.W_g"]).max() > 0


def test_event_order_does_not_change_loss_or_grads():
    ds, events, windows, params, cfg = toy_problem(6)
    g1 = backward(forward(ds, events, windows, params, cfg))
    t1 = forward(ds, events, windows, params, cfg).report.total
    g2 = backward(forward(ds, list(reversed(events)), windows, params, cfg))
    t2 = forward(ds, list(reversed(events)), windows, params, cfg).report.total
    assert t1 == pytest.approx(t2, rel=1e-12)
    for name in g1:
        np.testing.assert_allclose(g1[name], g2[name], atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_gradients_add_up_over_events(seed):
    # Per-event class weights, no regularizer and no mining make the loss a
    # plain sum of per-event terms, so its gradient is the sum of theirs.
    ds, events, windows, params, cfg = toy_problem(seed)
    cfg = cfg.updated({"weights.scope": "event", "loss.lambda_reg": 0.0,
                       "mining.rho": 1.0})
    whole = backward(forward(ds, events, windows, params, cfg))
    parts = [backward(forward(ds, [ev], windows, params, cfg)) for ev in events]
    for name, g in whole.items():
        np.testing.assert_allclose(g, sum(p[name] for p in parts), rtol=0, atol=1e-12)


def _tape(*roots) -> list[Tensor]:
    seen: dict[int, Tensor] = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def test_one_lstm_node_and_one_readout_node_per_pass():
    # The classifier reads the states out in the loss node only; a pass that
    # only scores makes no node for it.
    ds, events, _, params, cfg = toy_problem(0)
    windows = segment_all(events, ds, 2 * DAY, DAY)
    assert all(len(windows[ev.event_id].windows) > 1 for ev in events)
    out = training.run_model(ds, events, windows, params, cfg)
    loss = forward(ds, events, windows, params, cfg).loss
    for roots, name, count in (((out.states,), "lstm.W_i", 1), ((out.states,), "clf.W_c", 0),
                               ((loss,), "clf.W_c", 1), ((loss,), "clf.b_c", 1)):
        users = [n for n in _tape(*roots) if any(p is params[name] for p in n._parents)]
        assert len(users) == count, name


def _kind(node) -> str:
    """The function whose VJP closure a node holds; '' for a leaf."""
    return node._vjp.__qualname__.split(".<locals>")[0] if node._vjp else ""


def test_epoch_tape_holds_only_fused_nodes():
    # 1 node per fusion chunk, 2 attention weight nodes per fusion pass, and
    # 3 for all events: the trend input, which reads the chunks' aggregates in
    # event order, the LSTM, and the epoch loss over the states and the
    # classifier; the leaves are the parameters. No node is made per event.
    ds, events, windows, params, cfg = toy_problem(0, n_posts=12)
    flat = [w for ev in events for w in windows[ev.event_id].windows]
    chunks, n_events = len(fusion.window_groups(flat)), len(events)
    assert chunks == 3 and n_events == 2
    tape = _tape(forward(ds, events, windows, params, cfg).loss)
    assert Counter(_kind(n) for n in tape) == {
        "": len(params.names()),
        "fuse_group": chunks,
        "block_pair": 2,
        "trend_features": 1,
        "run_lstm": 1,
        "epoch_loss": 1,
    }
    assert {id(n) for n in tape if not n._parents} == {id(t) for _, t in params.items()}
    assert len(tape) - len(params.names()) == chunks + 2 + 3


def test_backward_leaves_gradients_on_parameters_only():
    ds, events, windows, params, cfg = toy_problem(0)
    art = forward(ds, events, windows, params, cfg)
    leaves = [n for n in _tape(art.loss) if not n._parents]
    backward(art)
    assert {id(n) for n in leaves if n.grad is not None} <= {id(t) for _, t in params.items()}


def _rebuilt(ds: Dataset, **fields) -> Dataset:
    kept = dict(ids=ds.ids, labels=ds.labels, timestamps=ds.timestamps, text=ds.text,
                image=ds.image, has_image=ds.has_image, split=ds.split)
    return Dataset(**{**kept, **fields})


EDGE_CASES = {
    "single-post-events": lambda ds, evs, cfg: (
        ds, [PseudoEvent(i, (i,)) for i in range(ds.n)], cfg),
    "identical-timestamps": lambda ds, evs, cfg: (
        _rebuilt(ds, timestamps=np.full(ds.n, 3 * DAY)), evs, cfg),
    "event-without-training-posts": lambda ds, evs, cfg: (
        ds.with_split(np.isin(np.arange(ds.n), evs[1].member_indices)), evs, cfg),
    "one-class-event-weights": lambda ds, evs, cfg: (
        _rebuilt(ds, labels=np.zeros(ds.n, dtype=np.int64)), evs,
        cfg.updated({"weights.scope": "event"})),
    "one-class-global-weights": lambda ds, evs, cfg: (
        _rebuilt(ds, labels=np.zeros(ds.n, dtype=np.int64)), evs,
        cfg.updated({"weights.scope": "global"})),
    "no-images": lambda ds, evs, cfg: (
        _rebuilt(ds, image=np.zeros_like(ds.image), has_image=np.zeros(ds.n, dtype=bool)),
        evs, cfg),
    "stride-equals-span": lambda ds, evs, cfg: (
        ds, evs, cfg.updated({"window.stride_secs": cfg["window.span_secs"]})),
}


@pytest.mark.parametrize("case", list(EDGE_CASES))
def test_edge_cases_stay_finite(case):
    ds, events, _, params, cfg = toy_problem(0, n_posts=12)
    cfg = cfg.updated({"window.span_secs": 2 * DAY, "window.stride_secs": DAY})
    ds, events, cfg = EDGE_CASES[case](ds, events, cfg)
    windows = segment_all(events, ds, *cfg.window_geometry())
    art = forward(ds, events, windows, params, cfg)
    assert math.isfinite(art.report.total)
    assert np.all((art.report.p_post > 0.0) & (art.report.p_post < 1.0))
    for name, g in backward(art).items():
        assert np.all(np.isfinite(g)), name
    res = train(ds, events, windows, cfg.updated({"train.epochs": 2}))
    assert res.divergence is None
    assert len(res.history) == 2


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    same_time=st.booleans(),
    stride_is_span=st.booleans(),
    scope=st.sampled_from(["event", "global"]),
    images=st.booleans(),
    untrained_last=st.booleans(),
    one_class=st.booleans(),
    mined=st.booleans(),
    seed=st.integers(0, 1000),
)
@example(sizes=[1, 1, 1], same_time=False, stride_is_span=False, scope="event", images=True,
         untrained_last=False, one_class=False, mined=False, seed=0)
@example(sizes=[5, 1, 4], same_time=True, stride_is_span=True, scope="global", images=True,
         untrained_last=False, one_class=False, mined=False, seed=1)
@example(sizes=[3, 4], same_time=False, stride_is_span=False, scope="event", images=False,
         untrained_last=True, one_class=True, mined=True, seed=2)
def test_drawn_edge_cases_stay_finite(sizes, same_time, stride_is_span, scope, images,
                                      untrained_last, one_class, mined, seed):
    # Events of drawn sizes, single-post ones among them, on shared or spread
    # timestamps, with overlapping or back-to-back windows; with or without
    # images, a last event without training posts, one class only, and
    # mining that may leave an event without a mined post.
    _, _, _, params, cfg = toy_problem(0)
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    starts = np.cumsum([0] + sizes)
    events = [PseudoEvent(k, tuple(range(a, b)))
              for k, (a, b) in enumerate(zip(starts[:-1], starts[1:]))]
    split = rng.integers(0, 3, size=n)
    if untrained_last and len(sizes) > 1:
        split[starts[-2]:] = rng.integers(1, 3, size=sizes[-1])
    split[0] = 0  # at least one training post
    labels = np.full(n, rng.integers(0, 2)) if one_class else rng.integers(0, 2, size=n)
    ds = make_dataset(rng.normal(size=(n, params.d_text)), labels=labels,
                      timestamps=(np.full(n, 3 * DAY) if same_time
                                  else rng.integers(0, 8 * DAY, size=n)),
                      image=rng.normal(size=(n, params.d_img)) * images).with_split(split)
    assert ds.has_image.any() == images
    span = 2 * DAY
    cfg = cfg.updated({"weights.scope": scope, "window.span_secs": span,
                       "window.stride_secs": span if stride_is_span else DAY,
                       "mining.rho": 0.5 if mined else 1.0, "mining.warmup_epochs": 1})
    windows = segment_all(events, ds, *cfg.window_geometry())
    art = forward(ds, events, windows, params, cfg, epoch=1)
    report = art.report
    assert all(math.isfinite(v) for v in (report.ce, report.tc, report.total))
    assert np.all((report.p_post > 0.0) & (report.p_post < 1.0))
    # The reported sums, per event in term order and then across events,
    # bitwise, over the terms that mining kept.
    readout = training.run_model(ds, events, windows, params, cfg)
    terms, _ = ce_terms(readout, ds.labels, ds.train_mask(), cfg["loss.epsilon"],
                        cfg["weights.adaptive"], scope)
    if mined:
        terms = mine_hard_examples(terms, 0.5)
    ce_by_event = [functools.reduce(operator.add, terms.value[terms.event == k].tolist(), 0.0)
                   for k in range(len(events))]
    assert report.ce == sum(ce_by_event)
    tc_by_event, _ = tc_terms(readout.states.data, cfg["loss.tc_clamp"], readout.offsets)
    assert tc_by_event.size == len(events)
    assert report.tc == sum(tc_by_event.tolist())
    if untrained_last and len(sizes) > 1:
        assert not np.any(terms.event == len(events) - 1)
    for name, g in backward(art).items():
        assert np.all(np.isfinite(g)), name


def test_forward_requires_training_posts():
    ds, events, windows, params, cfg = toy_problem(7)
    no_train = ds.with_split(np.full(ds.n, 2, dtype=np.int8))
    with pytest.raises(TrainingError, match="no training posts"):
        forward(no_train, events, windows, params, cfg)


def test_forward_dimension_mismatch():
    ds, events, windows, params, cfg = toy_problem(7)
    narrow = ModelParams.build(params.d, params.heads, ds.d_text - 1, ds.d_img)
    with pytest.raises(fusion.FusionError, match="d_text"):
        forward(ds, events, windows, narrow, cfg)


# -- optimizers -----------------------------------------------------------------
def test_adam_zero_gradient_is_identity():
    params = ModelParams.build(4, 2, 3, 2, seed=1)
    before = {n: t.data.copy() for n, t in params.items()}
    opt = Adam(params, lr=0.5)
    zero = {n: np.zeros_like(t.data) for n, t in params.items()}
    for _ in range(3):
        opt.step(zero)
    for name, t in params.items():
        np.testing.assert_array_equal(t.data, before[name])


def test_sgd_step_direction():
    params = ModelParams.build(2, 1, 2, 2, zero=True)
    grads = {n: np.ones_like(t.data) for n, t in params.items()}
    Sgd(params, lr=0.1).step(grads)
    for _, t in params.items():
        np.testing.assert_allclose(t.data, -0.1)


def test_clip_rescales_only_when_needed():
    grads = {"a": np.array([3.0, 4.0])}  # norm 5
    norm = clip_gradients(grads, 10.0)
    assert norm == pytest.approx(5.0)
    np.testing.assert_allclose(grads["a"], [3.0, 4.0])
    clip_gradients(grads, 1.0)
    np.testing.assert_allclose(np.linalg.norm(grads["a"]), 1.0)
    clip_gradients(grads, None)  # disabled clip is a no-op
    np.testing.assert_allclose(np.linalg.norm(grads["a"]), 1.0)


# -- training loop -----------------------------------------------------------------
def test_zero_learning_rate_keeps_params():
    ds, events, windows, params, cfg = toy_problem(8)
    cfg = cfg.updated({"train.learning_rate": 1e-300, "train.epochs": 3})
    res = train(ds, events, windows, cfg)
    fresh = ModelParams.build(cfg["model.d"], cfg["model.heads"],
                              ds.d_text, ds.d_img, seed=cfg.init_seed())
    for name, t in res.final_params.items():
        np.testing.assert_allclose(t.data, fresh[name].data, atol=1e-295)


def test_training_is_deterministic():
    ds, events, windows, _, cfg = toy_problem(9)
    cfg = cfg.updated({"train.epochs": 4})
    r1 = train(ds, events, windows, cfg)
    r2 = train(ds, events, windows, cfg)
    assert r1.history == r2.history
    for name, t in r1.params.items():
        np.testing.assert_array_equal(t.data, r2.params[name].data)


def test_best_checkpoint_tracks_monitored_metric():
    ds, events, windows, _, cfg = toy_problem(10)
    # ensure a non-empty validation split
    split = np.zeros(ds.n, dtype=np.int8)
    split[-2:] = 1
    ds = ds.with_split(split)
    cfg = cfg.updated({"train.epochs": 6, "train.early_stop_patience": 6})
    res = train(ds, events, windows, cfg)
    observed = [row["val_f1"] for row in res.history]
    assert res.best_metric == pytest.approx(max(observed))
    assert res.best_epoch == int(np.argmax(observed))


def test_metric_tie_goes_to_the_lower_validation_log_loss():
    # No validation probability reaches the threshold, so F1 reads 0 at every
    # epoch; the log-loss is lowest at epoch 2, whose parameters stand as best.
    ds, events, windows, _, cfg = toy_problem(10)
    split = np.zeros(ds.n, dtype=np.int8)
    split[-2:] = 1
    ds = ds.with_split(split)
    assert ds.labels[-2:].tolist() == [0, 1]
    cfg = cfg.updated({"train.early_stop_patience": 6, "eval.threshold": 0.999})
    res = train(ds, events, windows, cfg.updated({"train.epochs": 6}))
    assert [row["val_f1"] for row in res.history] == [0.0] * 6
    losses = [row["val_logloss"] for row in res.history]
    assert res.best_epoch == int(np.argmin(losses)) == 2
    assert res.best_metric == 0.0
    two = train(ds, events, windows, cfg.updated({"train.epochs": 2}))
    for name, t in res.params.items():
        np.testing.assert_array_equal(t.data, two.final_params[name].data)


def test_validation_log_loss_stays_finite_at_certain_probabilities():
    p = np.array([0.0, 1.0, 1.0, 0.0, 0.5])
    y = np.array([1, 0, 1, 0, 1])
    value = log_loss(p, y)
    assert math.isfinite(value)
    assert value == pytest.approx((2 * -math.log(np.finfo(np.float64).eps) + math.log(2)) / 5)


@pytest.mark.parametrize("metric", ["f1", "auc", "accuracy"])
def test_one_class_validation_split_ranks_no_epoch(metric):
    # F1 and AUC say nothing on one class, so each epoch stands in as best
    # and none counts as stale, as with no validation split at all.
    ds, events, windows, _, cfg = toy_problem(10)
    split = np.zeros(ds.n, dtype=np.int8)
    split[:2] = 1
    ds = ds.with_split(split)
    assert ds.labels[:2].tolist() == [0, 0]
    cfg = cfg.updated({"train.early_stop_metric": metric, "train.early_stop_patience": 0})
    res = train(ds, events, windows, cfg.updated({"train.epochs": 4}))
    three = train(ds, events, windows, cfg.updated({"train.epochs": 3}))
    assert len(res.history) == 4
    assert res.best_epoch == 3
    assert res.divergence is None
    for name, t in res.params.items():
        np.testing.assert_array_equal(t.data, three.final_params[name].data)


def test_epoch_tape_has_no_reference_cycles():
    # Reference counting alone frees the whole tape: no node may sit on a
    # cycle, so the collector finds nothing once the collector was held off.
    ds, events, windows, params, cfg = toy_problem(3)
    gc.collect()
    gc.disable()
    try:
        grads = backward(forward(ds, events, windows, params, cfg))
        del grads
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_train_and_scoring_leave_the_collector_on(monkeypatch):
    ds, events, windows, params, cfg = toy_problem(4)
    seen = []

    def recording(real):
        def call(*args, **kwargs):
            seen.append((real.__name__, gc.isenabled()))
            return real(*args, **kwargs)
        return call

    for name in ("run_model", "ce_terms", "backward"):
        monkeypatch.setattr(training, name, recording(getattr(training, name)))
    monkeypatch.setattr(pipeline, "run_model", recording(pipeline.run_model))
    train(ds, events, windows, cfg.updated({"train.epochs": 2}))
    pipeline.predictions(ds, events, windows, params, cfg)
    assert [name for name, _ in seen] == ["run_model", "ce_terms", "backward"] * 2 + ["run_model"]
    assert all(enabled for _, enabled in seen)


def _live_tensors() -> int:
    gc.collect()
    return sum(isinstance(o, Tensor) for o in gc.get_objects())


def test_train_holds_one_tape_at_a_time(monkeypatch):
    ds, events, windows, _, cfg = toy_problem(9)
    cfg = cfg.updated({"train.epochs": 3})
    at_entry = []
    real_forward = training.forward

    def counting_forward(*args, **kwargs):
        at_entry.append(_live_tensors())
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(training, "forward", counting_forward)
    res = train(ds, events, windows, cfg)
    assert len(res.history) == 3
    assert at_entry == [at_entry[0]] * 3


def _nan_parameter_at_epoch_1(monkeypatch):
    real_clip = training.clip_gradients
    calls = []

    def clip_then_poison(grads, max_norm):
        calls.append(None)
        norm = real_clip(grads, max_norm)
        if len(calls) == 2:
            grads["fusion.W_text"] = np.full_like(grads["fusion.W_text"], math.nan)
        return norm

    monkeypatch.setattr(training, "clip_gradients", clip_then_poison)


@pytest.mark.parametrize("inject, reason", [
    (nan_gradient_at_epoch_1, "epoch 1: non-finite gradient in "),
    (_nan_parameter_at_epoch_1, "epoch 1: after the update: non-finite values in fusion.W_text"),
])
def test_divergence_returns_best_checkpoint(monkeypatch, inject, reason):
    ds, events, windows, _, cfg = toy_problem(9)
    assert ds.split_indices("val").size == 0  # best tracks the latest parameters
    one_step = train(ds, events, windows, cfg.updated({"train.epochs": 1}))

    inject(monkeypatch)
    res = train(ds, events, windows, cfg.updated({"train.epochs": 4}))
    assert res.divergence.startswith(reason)
    assert [row["epoch"] for row in res.history] == [0, 1]
    assert res.best_epoch == 1
    for name, t in res.params.items():
        np.testing.assert_array_equal(t.data, one_step.final_params[name].data)
    assert one_step.divergence is None


def test_loss_decreases_on_separable_data():
    from ecatch.synth import SynthSpec, generate
    from ecatch.pipeline import build_structure

    spec = SynthSpec(n_events=4, posts_per_event=(25, 25), d_text=12, d_img=6,
                     imbalance=0.5, margin=5.0, seed=11)
    ds, _ = generate(spec)
    cfg = RunConfig({"model.d": 8, "model.heads": 2, "cluster.num_clusters": 4,
                     "train.epochs": 6, "train.early_stop_patience": 6})
    ds = assign_splits(ds, cfg.split_fractions(), cfg["seed"])
    events, windows = build_structure(ds, cfg)
    res = train(ds, events, windows, cfg)
    totals = [row["total"] for row in res.history[:5]]
    assert all(b < a for a, b in zip(totals, totals[1:]))


# -- checkpoints ----------------------------------------------------------------
def test_checkpoint_roundtrip_bitwise(tmp_path):
    params = ModelParams.build(4, 2, 5, 3, seed=13)
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.d == 4 and loaded.heads == 2
    assert loaded.d_text == 5 and loaded.d_img == 3
    for name, t in params.items():
        np.testing.assert_array_equal(t.data, loaded[name].data)


def test_checkpoint_truncated_file(tmp_path):
    params = ModelParams.build(4, 2, 5, 3, seed=14)
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(params, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(TrainingError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_without_a_digest_loads(tmp_path):
    # as written before the header carried one
    params = ModelParams.build(4, 2, 5, 3, seed=14)
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(params, path)
    raw = path.read_bytes()
    nl = raw.find(b"\n")
    header = json.loads(raw[:nl])
    del header["sha256"]
    path.write_bytes(json.dumps(header).encode() + raw[nl:])
    loaded = load_checkpoint(path)
    for name, t in params.items():
        np.testing.assert_array_equal(t.data, loaded[name].data)


@pytest.mark.parametrize("name, value", [("fusion.W_g", math.inf), ("lstm.b_f", -math.inf),
                                         ("fusion.att_ti.Wq", math.nan)])
def test_checkpoint_refuses_non_finite_values(tmp_path, name, value):
    params = ModelParams.build(4, 2, 5, 3, seed=14)
    params[name].data.flat[1] = value
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(params, path)
    with pytest.raises(TrainingError, match=f"^checkpoint: non-finite values in {name}$"):
        load_checkpoint(path)


def test_checkpoint_bad_header(tmp_path):
    path = tmp_path / "checkpoint.bin"
    path.write_bytes(b'{"format_version": 99}\n')
    with pytest.raises(TrainingError, match="format_version"):
        load_checkpoint(path)
    path.write_bytes(b"no json here")
    with pytest.raises(TrainingError):
        load_checkpoint(path)


def _drop(entry, key):
    return {k: v for k, v in entry.items() if k != key}


@pytest.mark.parametrize("edit, message", [
    (lambda h: [h], "header is not a JSON object"),
    (lambda h: dict(h, format_version=True), "unsupported format_version True"),
    (lambda h: dict(h, format_version=1.0), "unsupported format_version 1.0"),
    (lambda h: _drop(h, "d"), "header has no 'd' field"),
    (lambda h: _drop(h, "H"), "header has no 'H' field"),
    (lambda h: dict(h, names=[_drop(h["names"][0], "name")] + h["names"][1:]),
     r"names\[0\] has no 'name' field"),
    (lambda h: dict(h, names=h["names"][:2] + [_drop(h["names"][2], "shape")]),
     r"names\[2\] has no 'shape' field"),
    (lambda h: dict(h, d="x"), "header 'd' must be a positive integer, got 'x'"),
    (lambda h: dict(h, d=-4), "header 'd' must be a positive integer, got -4"),
    (lambda h: dict(h, H=2.5), "header 'H' must be a positive integer, got 2.5"),
    (lambda h: dict(h, H=3), r"heads \(3\) must divide model width \(4\)"),
    (lambda h: dict(h, names=5), "header 'names' must be a list, got 5"),
    (lambda h: dict(h, names=[dict(h["names"][0], shape=["a"])] + h["names"][1:]),
     r"names\[0\] 'shape' must hold positive integers, got \['a'\]"),
    (lambda h: dict(h, names=[dict(h["names"][0], shape=3)] + h["names"][1:]),
     r"names\[0\] 'shape' must be a list, got 3"),
    (lambda h: dict(h, names=[dict(h["names"][0], shape=[4])] + h["names"][1:]),
     "2-D encoder tensors missing from header"),
], ids=["list", "version-true", "version-float", "no-d", "no-H", "entry-no-name",
        "entry-no-shape", "d-string", "d-negative", "H-float", "H-not-dividing-d", "names-int",
        "shape-string-entry", "shape-int", "encoder-1d"])
def test_checkpoint_header_names_missing_field(tmp_path, edit, message):
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(ModelParams.build(4, 2, 5, 3, seed=16), path)
    raw = path.read_bytes()
    nl = raw.find(b"\n")
    path.write_bytes(json.dumps(edit(json.loads(raw[:nl]))).encode() + raw[nl:])
    with pytest.raises(TrainingError, match=f"^checkpoint: {message}"):
        load_checkpoint(path)


def _with_header(path, **fields):
    raw = path.read_bytes()
    nl = raw.find(b"\n")
    path.write_bytes(json.dumps(dict(json.loads(raw[:nl]), **fields)).encode() + raw[nl:])


def test_checkpoint_header_width_beyond_numpy_names_the_tensor(tmp_path):
    # The header's shapes are compared before anything is allocated.
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(ModelParams.build(4, 2, 5, 3, seed=17), path)
    _with_header(path, d=2**62)
    with pytest.raises(TrainingError, match=r"^checkpoint: fusion.W_text has shape \(4, 5\), "
                                            rf"expected \({2**62}, 5\)$"):
        load_checkpoint(path)


def test_checkpoint_header_of_a_huge_model_is_truncated_not_allocated(tmp_path):
    d = 2**62
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(ModelParams.build(4, 1, 5, 3, seed=18), path)
    names = [{"name": n, "shape": list(s)} for n, s in shape_table(d, 1, 5, 3).items()]
    _with_header(path, d=d, H=1, names=names)
    with pytest.raises(TrainingError, match="^checkpoint: truncated while reading fusion.W_text$"):
        load_checkpoint(path)


def test_checkpoint_dimension_mismatch_names_tensor(tmp_path, rng):
    params = ModelParams.build(4, 2, 5, 3, seed=15)
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    from ecatch.pipeline import predictions
    ds = make_dataset(rng.normal(size=(2, 9)))  # wrong d_text
    with pytest.raises(ValueError, match="fusion.W_text"):
        predictions(ds, [], {}, loaded, RunConfig())
