"""Binary classification metrics from probabilities and labels.

AUC-ROC is the Mann-Whitney rank statistic: concordant pairs plus half the
ties, over all positive/negative pairs, computed via average ranks. It is
undefined (error) when only one class is present. Precision/recall fall back
to 0 on empty denominators since the inputs can be degenerate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class EvalResult:
    accuracy: float
    precision: float
    recall: float
    f1: float
    auc: float  # NaN when labels are single-class
    tp: int
    fp: int
    tn: int
    fn: int
    threshold: float
    n: int

    def as_dict(self) -> dict:
        # "auc" keeps its place among the fields
        return {**asdict(self), "auc": None if np.isnan(self.auc) else self.auc}


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks; tied scores share the mean of their rank range.

    A group of ties starts wherever a sorted score differs from the one
    before it, so each NaN is a group of its own.
    """
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:], len(scores)] - 1
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)
    return ranks


def auc_roc(p: np.ndarray, y: np.ndarray) -> float:
    """(concordant + 0.5 * tied) / (n_pos * n_neg)."""
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricsError("AUC undefined: need at least one positive and one negative")
    ranks = _average_ranks(p)
    rank_sum = float(ranks[y == 1].sum())
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def evaluate(p: np.ndarray, y: np.ndarray, threshold: float = 0.5) -> EvalResult:
    """Threshold-at-``threshold`` confusion metrics plus rank AUC."""
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y)
    if p.size == 0:
        raise MetricsError("cannot evaluate an empty input")
    if p.shape != y.shape:
        raise MetricsError(f"shape mismatch: {p.shape} vs {y.shape}")
    if not 0.0 < threshold < 1.0:
        raise MetricsError(f"threshold must be in (0, 1), got {threshold}")

    pos = y == 1
    pred = p >= threshold
    tp = int((pred & pos).sum())
    fp = int((pred & ~pos).sum())
    fn = int((~pred & pos).sum())
    tn = int((~pred & ~pos).sum())

    precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if (precision + recall) > 0 else 0.0)
    accuracy = (tp + tn) / p.size

    try:
        auc = auc_roc(p, pos.astype(int))
    except MetricsError:
        auc = float("nan")

    return EvalResult(accuracy, precision, recall, f1, auc,
                      tp, fp, tn, fn, threshold, int(p.size))


def log_loss(p: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy of probabilities ``p`` against 0/1 labels ``y``.

    Probabilities are clipped into [eps, 1 - eps] (float64 eps), so one that
    rounds to 0 or 1 costs at most -log(eps) ~ 36 and the mean stays finite.
    """
    eps = np.finfo(np.float64).eps
    p = np.clip(np.asarray(p, dtype=np.float64), eps, 1.0 - eps)
    pos = np.asarray(y) == 1
    return float(-np.mean(np.where(pos, np.log(p), np.log1p(-p))))


def auc_by_pair_enumeration(p: np.ndarray, y: np.ndarray) -> float:
    """Quadratic-time oracle: walk every positive/negative pair explicitly."""
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y)
    pos = p[y == 1]
    neg = p[y == 0]
    if pos.size == 0 or neg.size == 0:
        raise MetricsError("AUC undefined: need at least one positive and one negative")
    score = 0.0
    for a in pos:
        for b in neg:
            if a > b:
                score += 1.0
            elif a == b:
                score += 0.5
    return score / (pos.size * neg.size)
