import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecatch.metrics import (
    MetricsError,
    _average_ranks,
    auc_by_pair_enumeration,
    auc_roc,
    evaluate,
)


def test_perfect_ranking():
    r = evaluate(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0]))
    assert (r.accuracy, r.precision, r.recall, r.f1, r.auc) == (1, 1, 1, 1, 1)
    assert (r.tp, r.fp, r.tn, r.fn) == (2, 0, 2, 0)


def test_degenerate_all_negative_predictions():
    r = evaluate(np.array([0.1, 0.2, 0.3]), np.array([1, 1, 0]))
    assert r.recall == 0.0
    assert r.precision == 0.0
    assert r.f1 == 0.0


def test_hand_counted_confusion():
    r = evaluate(np.array([0.9, 0.4, 0.6, 0.1]), np.array([1, 1, 0, 0]))
    assert (r.tp, r.fn, r.fp, r.tn) == (1, 1, 1, 1)
    assert r.accuracy == pytest.approx(0.5)
    assert r.precision == pytest.approx(0.5)
    assert r.recall == pytest.approx(0.5)
    assert r.f1 == pytest.approx(0.5)
    assert r.auc == pytest.approx(0.75)  # 3 of 4 positive/negative pairs concordant


def test_all_scores_tied_is_half():
    assert auc_roc(np.full(6, 0.4), np.array([1, 0, 1, 0, 1, 0])) == pytest.approx(0.5)


def test_auc_undefined_single_class():
    with pytest.raises(MetricsError, match="AUC undefined"):
        auc_roc(np.array([0.3, 0.4]), np.array([1, 1]))


def test_evaluate_single_class_reports_nan_auc():
    r = evaluate(np.array([0.3, 0.9]), np.array([1, 1]))
    assert np.isnan(r.auc)
    assert r.as_dict()["auc"] is None


def test_evaluate_validates_input():
    with pytest.raises(MetricsError):
        evaluate(np.array([]), np.array([]))
    with pytest.raises(MetricsError):
        evaluate(np.array([0.5]), np.array([1, 0]))
    with pytest.raises(MetricsError):
        evaluate(np.array([0.5]), np.array([1]), threshold=1.0)


def test_threshold_is_inclusive():
    r = evaluate(np.array([0.5, 0.49]), np.array([1, 0]), threshold=0.5)
    assert (r.tp, r.tn) == (1, 1)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 10))
def test_auc_matches_pair_enumeration(seed, n):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    p = np.round(rng.random(n), 1)  # coarse grid forces ties
    assert auc_roc(p, y) == auc_by_pair_enumeration(p, y)


def loop_average_ranks(scores):
    """Reference: walk the sorted scores, extending each group while equal to its first."""
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 0.1, 0.5, 1.0, np.nan, np.inf, -np.inf])
                | st.floats(allow_nan=True), max_size=30))
def test_average_ranks_match_the_loop_bitwise(values):
    scores = np.array(values, dtype=np.float64)
    assert _average_ranks(scores).tobytes() == loop_average_ranks(scores).tobytes()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_auc_invariant_under_increasing_transform(seed):
    rng = np.random.default_rng(seed)
    p = rng.random(12)
    y = np.array([0, 1] * 6)
    base = auc_roc(p, y)
    assert auc_roc(np.exp(3.0 * p), y) == pytest.approx(base)
    assert auc_roc(0.001 + 0.5 * p, y) == pytest.approx(base)


def test_evaluate_permutation_invariant(rng):
    p = rng.random(20)
    y = rng.integers(0, 2, size=20)
    y[0], y[1] = 0, 1
    perm = rng.permutation(20)
    a = evaluate(p, y)
    b = evaluate(p[perm], y[perm])
    assert a == b
