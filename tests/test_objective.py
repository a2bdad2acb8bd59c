import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecatch.autodiff import Tensor, finite_difference_gradient, stable_sigmoid
from ecatch.clustering import PseudoEvent
from ecatch.objective import (
    NORM_GUARD,
    PROB_CLAMP,
    CrossEntropyTerms,
    ObjectiveError,
    Readout,
    ce_terms,
    class_weights,
    epoch_loss,
    mine_hard_examples,
    post_probabilities,
    tc_terms,
)
from ecatch.params import ModelParams
from ecatch.training import forward
from ecatch.trend import run_lstm, trend_features
from ecatch.verify import toy_problem
from ecatch.windows import segment_all

from conftest import DAY, make_dataset


def trend_states(*rows):
    """An event's (T, d) trend-state matrix, one row per window."""
    return np.array(rows, dtype=float)


def stacked(events, windows):
    """The events' windows in one list, one event's after another, as ``run_model``
    stacks them."""
    return [w for ev in events for w in windows[ev.event_id].windows]


def probabilities_of(events, windows, states, params, n_posts):
    """``post_probabilities``' readout of ``states``, one event's rows after another."""
    offsets = np.cumsum([0] + [len(windows[ev.event_id].windows) for ev in events])
    return post_probabilities(events, stacked(events, windows), states, offsets, params,
                              n_posts)


# -- class weights ------------------------------------------------------------
def one_group_weights(labels, train_mask, epsilon):
    """(w_0, w_1) of one group that holds every post."""
    post = np.arange(len(labels))
    return class_weights(labels, post, np.zeros_like(post), train_mask, epsilon)[0]


def test_balanced_weights_are_one():
    labels = np.array([0] * 50 + [1] * 50)
    w0, w1 = one_group_weights(labels, np.ones(100, dtype=bool), 1e-8)
    assert w0 == pytest.approx(1.0)
    assert w1 == pytest.approx(1.0)


def test_skewed_weights_formula():
    labels = np.array([0] * 80 + [1] * 20)
    w0, w1 = one_group_weights(labels, np.ones(100, dtype=bool), 1e-12)
    assert w0 == pytest.approx(0.625)
    assert w1 == pytest.approx(2.5)


def test_empty_class_is_smoothed():
    labels = np.zeros(10, dtype=int)
    w0, w1 = one_group_weights(labels, np.ones(10, dtype=bool), 1.0)
    assert w1 == pytest.approx(5.0)  # nbar with an empty positive class
    assert math.isfinite(w0)


def test_weights_count_training_posts_only():
    labels = np.array([0, 0, 1, 1])
    train = np.array([True, True, True, False])
    w0, w1 = one_group_weights(labels, train, 1e-12)
    assert (w0, w1) == (pytest.approx(0.75), pytest.approx(1.5))


def test_epsilon_must_be_positive():
    with pytest.raises(ObjectiveError):
        one_group_weights(np.array([0, 1]), np.ones(2, dtype=bool), 0.0)


# -- probabilities -------------------------------------------------------------
def pipeline(rng, n=6, d=4):
    ds = make_dataset(
        rng.normal(size=(n, 3)),
        labels=rng.integers(0, 2, size=n),
        timestamps=np.sort(rng.integers(0, 6 * DAY, size=n)),
    )
    events = [PseudoEvent(0, tuple(range(n // 2))),
              PseudoEvent(1, tuple(range(n // 2, n)))]
    windows = segment_all(events, ds, 3 * DAY, DAY)
    params = ModelParams.build(d, 2, 3, 2, seed=1)
    offsets = np.cumsum([0] + [len(windows[ev.event_id].windows) for ev in events])
    aggs = rng.normal(size=(offsets[-1], d))
    states, _ = run_lstm(trend_features(aggs, 0.5, offsets)[0], params, offsets)
    return ds, events, windows, params, states


def test_zero_classifier_gives_half(rng):
    ds, events, windows, params, states = pipeline(rng)
    params["clf.W_c"].data[...] = 0.0
    params["clf.b_c"].data[...] = 0.0
    out = probabilities_of(events, windows, states, params, ds.n)
    np.testing.assert_allclose(out.p_post, 0.5)
    assert all(v == 0.5 for v in out.p_event.values())


def test_large_bias_saturates(rng):
    ds, events, windows, params, states = pipeline(rng)
    params["clf.W_c"].data[...] = 0.0
    params["clf.b_c"].data[...] = 10.0
    p_post = probabilities_of(events, windows, states, params, ds.n).p_post
    np.testing.assert_allclose(p_post, 1.0 / (1.0 + np.exp(-10.0)))
    assert p_post[0] == pytest.approx(0.99995, abs=5e-6)


def test_single_window_event_shares_probability(rng):
    ds = make_dataset(rng.normal(size=(3, 3)), timestamps=[0, 10, 20])
    events = [PseudoEvent(0, (0, 1, 2))]
    windows = segment_all(events, ds, DAY, DAY)
    assert len(windows[0].windows) == 1
    params = ModelParams.build(4, 2, 3, 2, seed=2)
    hidden, _ = run_lstm(trend_features(rng.normal(size=(1, 4)), 0.5)[0], params)
    out = probabilities_of(events, windows, hidden, params, ds.n)
    np.testing.assert_allclose(out.p_post, out.p_event[0])


def test_readout_uses_last_covering_window(rng):
    ds = make_dataset(rng.normal(size=(3, 3)), timestamps=[0, DAY, 2 * DAY])
    events = [PseudoEvent(0, (0, 1, 2))]
    windows = segment_all(events, ds, 2 * DAY, DAY)
    # post 1 appears in windows 1 and 2; its probability must come from 2
    last = {i: w.index for w in windows[0].windows for i in w.members}
    assert last[1] == 2
    params = ModelParams.build(4, 2, 3, 2, seed=3)
    aggs = rng.normal(size=(len(windows[0].windows), 4))
    hidden, _ = run_lstm(trend_features(aggs, 0.5)[0], params)
    p_post = probabilities_of(events, windows, hidden, params, ds.n).p_post
    row = hidden[last[1] - 1]
    logit = row @ params["clf.W_c"].data[0] + params["clf.b_c"].data[0]
    assert p_post[1] == pytest.approx(1.0 / (1.0 + np.exp(-logit)))


def test_readout_lists_each_events_posts_with_their_last_window(rng):
    # Event 2 repeats event 0's posts: each membership gets its own row.
    ds, events, windows, params, _ = pipeline(rng, n=9)
    events = events + [PseudoEvent(2, events[0].member_indices[::-1])]
    windows[2] = windows[0]
    offsets = np.cumsum([0] + [len(windows[ev.event_id].windows) for ev in events])
    states, _ = run_lstm(trend_features(rng.normal(size=(offsets[-1], 4)), 0.5, offsets)[0],
                         params, offsets)
    readout = post_probabilities(events, stacked(events, windows), states, offsets, params,
                                 ds.n)
    last = {ev.event_id: {i: w.index for w in windows[ev.event_id].windows for i in w.members}
            for ev in events}  # later windows overwrite: each post's last window
    want = [(post, k, offsets[k] + last[ev.event_id][post] - 1)
            for k, ev in enumerate(events) for post in ev.member_indices]
    assert list(zip(readout.post, readout.event, readout.row)) == want
    assert readout.event_ids == [0, 1, 2]
    last_row = {post: row for post, _, row in want}  # a later event's row wins
    assert readout.p_post.tolist() == [readout.probs[last_row[i]] for i in range(ds.n)]
    for k, ev in enumerate(events):
        assert readout.p_event[ev.event_id] == readout.probs[offsets[k + 1] - 1]


def test_uncovered_post_is_named(rng):
    ds, events, windows, params, states = pipeline(rng)
    events = [events[0], PseudoEvent(1, events[1].member_indices + (0,))]
    offsets = np.cumsum([0] + [len(windows[ev.event_id].windows) for ev in events])
    with pytest.raises(ObjectiveError, match="post 0 of event 1 is not covered"):
        post_probabilities(events, stacked(events, windows), states, offsets, params, ds.n)


# -- cross-entropy and mining --------------------------------------------------
def ce_setup(rng, labels, probs):
    """One event whose posts each live in their own window with pinned p."""
    n = len(labels)
    ds = make_dataset(rng.normal(size=(n, 3)), labels=labels,
                      timestamps=[3 * DAY * i for i in range(n)])
    events = [PseudoEvent(0, tuple(range(n)))]
    windows = segment_all(events, ds, DAY, DAY)
    assert len(windows[0].windows) == n
    params = ModelParams.build(2, 1, 3, 2, zero=True)
    logits = np.log(np.asarray(probs) / (1.0 - np.asarray(probs)))
    params["clf.W_c"].data[...] = np.array([[1.0, 0.0]])
    # hidden values are bounded by tanh, so steer via handcrafted states
    hidden = trend_states(*([l, 0.0] for l in logits))
    return ds, probabilities_of(events, windows, hidden, params, ds.n)


def test_perfect_predictions_near_zero_loss(rng):
    labels = np.array([1, 0, 1])
    eps = 1e-12
    # logits for p = 1-1e-12 overflow float formatting; use hand states
    ds = make_dataset(rng.normal(size=(3, 3)), labels=labels,
                      timestamps=[0, 3 * DAY, 6 * DAY])
    events = [PseudoEvent(0, (0, 1, 2))]
    windows = segment_all(events, ds, DAY, DAY)
    params = ModelParams.build(2, 1, 3, 2, zero=True)
    params["clf.W_c"].data[...] = np.array([[60.0, 0.0]])
    hidden = trend_states(*([1.0 if y == 1 else -1.0, 0.0] for y in labels))
    readout = probabilities_of(events, windows, hidden, params, ds.n)
    terms, _ = ce_terms(readout, labels, np.ones(3, dtype=bool), epsilon=1.0, adaptive=False)
    total = terms.value.sum()
    assert total == pytest.approx(0.0, abs=1e-9 * 3)


def test_single_post_halfway_is_ln2(rng):
    labels = np.array([1])
    _, readout = ce_setup(rng, labels, [0.5])
    terms, _ = ce_terms(readout, labels, np.ones(1, dtype=bool), epsilon=1.0, adaptive=False)
    assert terms.value[0] == pytest.approx(math.log(2.0))


def terms_of(values, posts=None):
    """Terms of one event with the given values, of posts 0, 1, ... unless given."""
    n = len(values)
    posts = np.arange(n) if posts is None else np.asarray(posts)
    ones = np.ones(n, dtype=np.intp)
    return CrossEntropyTerms(posts, 0 * ones, ones, ones, np.ones(n), np.asarray(values, float))


def test_mining_keeps_top_half():
    kept = mine_hard_examples(terms_of([0.1, 0.9, 0.2, 0.8]), 0.5)
    assert kept.post.tolist() == [1, 3]
    assert kept.value.sum() == pytest.approx(1.7)


def test_mining_full_fraction_is_identity():
    terms = terms_of([0.0, 1.0, 2.0, 3.0])
    assert mine_hard_examples(terms, 1.0) is terms


def test_mining_tie_break_prefers_low_index():
    kept = mine_hard_examples(terms_of([0.5] * 4, posts=[3, 1, 2, 0]), 0.5)
    assert kept.post.tolist() == [0, 1]


def test_mining_fraction_validation():
    with pytest.raises(ObjectiveError):
        mine_hard_examples(terms_of([]), 0.0)
    with pytest.raises(ObjectiveError):
        mine_hard_examples(terms_of([]), 1.5)


def test_ce_skips_non_training_posts(rng):
    labels = np.array([1, 0, 1])
    _, readout = ce_setup(rng, labels, [0.3, 0.4, 0.9])
    train = np.array([True, False, True])
    terms, _ = ce_terms(readout, labels, train, epsilon=1.0, adaptive=False)
    assert sorted(terms.post.tolist()) == [0, 2]


def test_ce_monotone_toward_label(rng):
    labels = np.array([1])
    for p_lo, p_hi in ((0.3, 0.6), (0.6, 0.9)):
        _, readout_lo = ce_setup(rng, labels, [p_lo])
        terms_lo, _ = ce_terms(readout_lo, labels, np.ones(1, dtype=bool),
                               epsilon=1.0, adaptive=False)
        _, readout_hi = ce_setup(rng, labels, [p_hi])
        terms_hi, _ = ce_terms(readout_hi, labels, np.ones(1, dtype=bool),
                               epsilon=1.0, adaptive=False)
        assert terms_hi.value[0] < terms_lo.value[0]


def test_adaptive_terms_are_reweighted_plain_terms(rng):
    labels = np.array([1, 0, 0])
    _, readout = ce_setup(rng, labels, [0.4, 0.3, 0.8])
    t1, w1 = ce_terms(readout, labels, np.ones(3, dtype=bool), epsilon=1e-9, adaptive=True)
    t0, _ = ce_terms(readout, labels, np.ones(3, dtype=bool), epsilon=1e-9, adaptive=False)
    w = w1[0]
    assert w[0] == pytest.approx(0.75)
    assert w[1] == pytest.approx(1.5)
    by_post = dict(zip(t0.post.tolist(), t0.value))
    for post, value in zip(t1.post, t1.value):
        assert value == pytest.approx(by_post[post] * w[labels[post]])


def unit_classifier():
    """``clf.W_c`` and ``clf.b_c`` that read a (R, 1) state out as its logit."""
    return {"clf.W_c": Tensor(np.ones((1, 1))), "clf.b_c": Tensor(np.zeros(1))}


def readout_of(logits, last_of):
    """A hand-made readout: events of (T_e,) logits, post -> 1-based window.
    Its (R, 1) states are the logits, for :func:`unit_classifier`."""
    steps = [len(z) for z in logits]
    offsets = np.concatenate([[0], np.cumsum(steps)]).astype(np.intp)
    z = np.concatenate(logits)
    post, event, row = np.array([(post, e, offsets[e] + t - 1)
                                 for e, of_event in enumerate(last_of)
                                 for post, t in of_event.items()], dtype=np.intp).reshape(-1, 3).T
    return Readout(z[:, None], stable_sigmoid(z), None, None, list(range(len(steps))),
                   offsets, post, event, row)


@settings(max_examples=40, deadline=None)
@given(
    steps=st.lists(st.integers(1, 5), min_size=1, max_size=2),
    n_posts=st.integers(1, 8),
    mined=st.floats(0.1, 1.0),
    seed=st.integers(0, 10_000),
)
def test_ce_loss_is_the_sum_of_its_terms(steps, n_posts, mined, seed):
    # Logits of +-40 put p beyond PROB_CLAMP, +-800 at exactly 0 or 1: no
    # gradient may pass there.
    rng = np.random.default_rng(seed)
    logits = [rng.normal(size=t) * 3.0 for t in steps]
    for z in logits:
        z[rng.random(z.size) < 0.2] = rng.choice([-800.0, -40.0, 40.0, 800.0])
    labels = rng.integers(0, 2, size=n_posts)
    owner = rng.integers(0, len(steps), size=n_posts)
    last_of = [{post: int(rng.integers(1, steps[e] + 1))
                for post in range(n_posts) if owner[post] == e} for e in range(len(steps))]
    readout = readout_of(logits, last_of)
    terms, _ = ce_terms(readout, labels, rng.random(n_posts) < 0.8,
                        epsilon=float(rng.uniform(0.1, 2.0)), adaptive=True)
    if not len(terms):
        return
    terms = mine_hard_examples(terms, mined)

    ce, tc, vjp = epoch_loss(readout, terms, np.zeros(len(steps)), None, 0.0,
                             unit_classifier())
    want = terms.value.sum()
    assert tc == 0.0
    assert abs(ce - want) <= 1e-12 * max(1.0, abs(want))

    g_states = vjp(1.0)[0]
    p = readout.probs
    expected = np.zeros(p.size)
    for row, label, weight in zip(terms.row, terms.label, terms.weight):
        expected[row] += -weight * (1.0 - p[row]) if label == 1 else weight * p[row]
    inside = (p > PROB_CLAMP) & (p < 1.0 - PROB_CLAMP)
    logit_grad = g_states[:, 0]
    assert np.all(logit_grad[~inside] == 0.0)
    np.testing.assert_allclose(logit_grad, np.where(inside, expected, 0.0), rtol=1e-12, atol=0.0)

    def ce_at(x):
        q = np.clip(stable_sigmoid(x[:, 0]), PROB_CLAMP, 1.0 - PROB_CLAMP)
        return float(np.sum(-terms.weight * np.log([1.0 - q, q])[terms.label, terms.row]))

    fd = finite_difference_gradient(ce_at, readout.states)
    err = np.abs(fd - g_states).max()
    assert err <= 1e-6 * max(np.abs(fd).max(), 1.0)


def terms_by_loop(readout, labels, train, epsilon, adaptive, scope):
    """(post, event, row, label, weight, value) per training membership, one at a time."""
    members = list(zip(readout.post.tolist(), readout.event.tolist(), readout.row.tolist()))
    q = np.clip(readout.probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    logs = np.log([1.0 - q, q])
    terms = []
    for post, event, row in members:
        if not train[post]:
            continue
        y, w = int(labels[post]), 1.0
        if adaptive:
            group = [i for i, e, _ in members if train[i] and (scope == "global" or e == event)]
            n1 = sum(int(labels[i]) for i in group)
            counts = (len(group) - n1, n1)
            w = (len(group) / 2.0) / (counts[y] + epsilon)
        terms.append((post, event, row, y, w, -w * logs[y, row]))
    return terms


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    duplicate=st.booleans(),
    n_posts=st.integers(1, 8),
    rho=st.sampled_from([0.2, 0.5, 0.75, 1.0]),
    adaptive=st.booleans(),
    scope=st.sampled_from(["event", "global"]),
    seed=st.integers(0, 10_000),
)
def test_terms_mining_and_coefficients_match_a_per_term_loop(
        steps, duplicate, n_posts, rho, adaptive, scope, seed):
    # Logits from {-40, 0, 40} and a duplicated event (same posts, same
    # logits, its own rows) make tied values, which mining breaks by post.
    rng = np.random.default_rng(seed)
    logits = [rng.choice([-40.0, 0.0, 40.0], size=t) for t in steps]
    owner = rng.integers(0, len(steps), size=n_posts)
    last_of = [{post: int(rng.integers(1, steps[e] + 1))
                for post in rng.permutation(n_posts) if owner[post] == e}
               for e in range(len(steps))]
    if duplicate:
        logits.append(logits[0].copy())
        last_of.append(dict(last_of[0]))
    readout = readout_of(logits, last_of)
    labels = rng.integers(0, 2, size=n_posts)
    train = rng.random(n_posts) < 0.8
    epsilon = float(rng.uniform(0.1, 2.0))

    terms, weights = ce_terms(readout, labels, train, epsilon, adaptive, scope)
    want = terms_by_loop(readout, labels, train, epsilon, adaptive, scope)
    got = list(zip(*(c.tolist() for c in (terms.post, terms.event, terms.row, terms.label,
                                           terms.weight, terms.value))))
    assert got == want
    assert weights.shape == (len(logits), 2)

    kept = mine_hard_examples(terms, rho)
    k = math.ceil(rho * len(want))
    want_kept = want if rho == 1.0 else sorted(want, key=lambda t: (-t[5], t[0]))[:k]
    assert list(zip(kept.post.tolist(), kept.event.tolist(), kept.value.tolist())) == \
        [(t[0], t[1], t[5]) for t in want_kept]

    # The loss's logit gradient, from each row's negated weight sums per class.
    coef = np.zeros((2, readout.probs.size))
    for _, _, row, y, w, _ in want_kept:
        coef[y, row] -= w
    _, _, vjp = epoch_loss(readout, kept, np.zeros(len(logits)), None, 0.0, unit_classifier())
    p = readout.probs
    inside = (p > PROB_CLAMP) & (p < 1.0 - PROB_CLAMP)
    np.testing.assert_array_equal(vjp(1.0)[0][:, 0],
                                  np.where(inside, coef[1] * (1.0 - p) - coef[0] * p, 0.0))


# -- temporal consistency --------------------------------------------------------
def test_tc_constant_sequence_is_zero():
    values, vjp = tc_terms(trend_states([1.0, 2.0], [1.0, 2.0], [1.0, 2.0]))
    assert vjp is None or values.tolist() == [pytest.approx(0.0)]


def test_tc_colinear_growth():
    values, _ = tc_terms(trend_states([1.0, 0.0], [2.0, 0.0]))
    assert values.tolist() == [pytest.approx(1.0)]


def test_tc_anti_aligned_is_negative():
    values, _ = tc_terms(trend_states([1.0, 0.0], [-1.0, 0.0]))
    assert values.tolist() == [pytest.approx(-4.0)]


def test_tc_zero_norm_guard():
    values, vjp = tc_terms(trend_states([0.0, 0.0], [1.0, 0.0]))
    assert vjp is None and values.tolist() == [0.0]


def test_tc_clamp_drops_negative_similarity():
    clamped, _ = tc_terms(trend_states([1.0, 0.0], [-1.0, 0.0], [-2.0, 0.0]),
                          clamp_negative_sim=True)
    # only the colinear (-1,0)->(-2,0) pair survives: |d|^2=1, sim=1
    assert clamped.tolist() == [pytest.approx(1.0)]


def test_tc_sum_over_multiple_steps():
    values, _ = tc_terms(trend_states([1.0, 0.0], [2.0, 0.0], [2.0, 1.0]))
    # term2: |d|^2=1, sim=1; term3: |d|^2=1, sim=4/(2*sqrt5)
    expected = 1.0 + 1.0 * (4.0 / (2.0 * math.sqrt(5.0)))
    assert values.tolist() == [pytest.approx(expected)]


def tc_by_pairs(h, clamp):
    """The consistency sum one window pair at a time; None if no pair counts."""
    total = None
    for a, b in zip(h[1:], h[:-1]):
        na, nb = np.sqrt(a @ a), np.sqrt(b @ b)
        if na < NORM_GUARD or nb < NORM_GUARD:
            continue
        sim = (a @ b) / (na * nb)
        if clamp and sim < 0.0:
            continue
        term = ((a - b) @ (a - b)) * sim
        total = term if total is None else total + term
    return total


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(["random", "zero", "flip"]), min_size=1, max_size=6),
    d=st.integers(1, 4),
    clamp=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_tc_node_matches_pair_loop_and_finite_differences(kinds, d, clamp, seed):
    # "zero" rows sit on the norm guard; "flip" rows are anti-parallel to the
    # row before, so the clamp drops their pair.
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(len(kinds), d))
    for t, kind in enumerate(kinds):
        if kind == "zero":
            h[t] = 0.0
        elif kind == "flip" and t > 0:
            h[t] = -rng.uniform(0.5, 2.0) * h[t - 1]
    by_event, vjp = tc_terms(h, clamp_negative_sim=clamp)
    want = tc_by_pairs(h, clamp)
    if want is None:
        assert vjp is None and by_event.tolist() == [0.0]
        return
    assert abs(by_event[0] - want) <= 1e-12 * max(1.0, abs(want))

    grad = vjp(1.0)
    assert np.all(grad[np.linalg.norm(h, axis=1) < NORM_GUARD] == 0.0)
    a, b = h[1:], h[:-1]
    cos = np.sum(a * b, axis=1) / np.maximum(
        np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1), 1e-300)
    if "zero" in kinds or np.abs(cos).min() < 1e-3:
        return  # finite differences would cross the guard or the clamp

    fd = finite_difference_gradient(
        lambda x: float(tc_terms(x, clamp_negative_sim=clamp)[0].sum()), h)
    err = np.abs(fd - grad).max()
    assert err <= 1e-6 * max(np.abs(fd).max(), 1.0)


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(["random", "zero", "flip"]), min_size=2, max_size=9),
    breaks=st.lists(st.booleans(), min_size=8, max_size=8),
    d=st.integers(1, 4),
    clamp=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_stacked_tc_node_pairs_rows_only_within_events(kinds, breaks, d, clamp, seed):
    # Events start where ``breaks`` says; "flip" rows are anti-parallel to the
    # row before, also across an event boundary, where no pair may form.
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(len(kinds), d))
    for t, kind in enumerate(kinds):
        if kind == "zero":
            h[t] = 0.0
        elif kind == "flip" and t > 0:
            h[t] = -rng.uniform(0.5, 2.0) * h[t - 1]
    offsets = [0] + [t for t in range(1, len(kinds)) if breaks[t - 1]] + [len(kinds)]
    per_event = [tc_by_pairs(h[a:b], clamp) for a, b in zip(offsets, offsets[1:])]
    want = np.array([0.0 if v is None else v for v in per_event])

    by_event, vjp = tc_terms(h, clamp_negative_sim=clamp, offsets=offsets)
    assert by_event.shape == want.shape
    assert np.abs(by_event - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    if all(v is None for v in per_event):
        assert vjp is None
        return

    grad = vjp(1.0)
    assert np.all(grad[np.linalg.norm(h, axis=1) < NORM_GUARD] == 0.0)
    a, b = h[1:], h[:-1]
    cos = np.sum(a * b, axis=1) / np.maximum(
        np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1), 1e-300)
    if "zero" in kinds or np.abs(cos).min() < 1e-3:
        return  # finite differences would cross the guard or the clamp

    fd = finite_difference_gradient(
        lambda x: float(tc_terms(x, clamp_negative_sim=clamp, offsets=offsets)[0].sum()), h)
    err = np.abs(fd - grad).max()
    assert err <= 1e-6 * max(np.abs(fd).max(), 1.0)


# -- total ------------------------------------------------------------------------
@pytest.mark.parametrize("lambda_tc, lambda_reg", [(0.0, 0.0), (0.1, 0.01)])
def test_forward_total_adds_the_reported_sums(lambda_tc, lambda_reg):
    ds, events, windows, params, cfg = toy_problem(3)
    cfg = cfg.updated({"loss.lambda_tc": lambda_tc, "loss.lambda_reg": lambda_reg})
    art = forward(ds, events, windows, params, cfg)
    report = art.report
    assert report.tc > 0.0 and report.reg > 0.0
    assert report.reg == params.l2_squared()
    assert report.total == report.ce + lambda_tc * report.tc + lambda_reg * report.reg
