"""Shared wiring between CLI commands: structure building and evaluation.

Scoring records no autodiff tape: :func:`predictions` runs the model under
``autodiff.no_grad``, so reference counting frees each attention's buffers as
soon as it returns, and a pass holds no more than the outputs it is building.
"""

from __future__ import annotations

import numpy as np

from .autodiff import no_grad
from .clustering import PseudoEvent, check_partition, cluster_events, pass_through_events
from .config import RunConfig
from .data import Dataset
from .metrics import evaluate
from .params import ModelParams
from .training import run_model
from .windows import WindowSequence, segment_all


class ScoringError(RuntimeError):
    pass


def build_structure(
    ds: Dataset, cfg: RunConfig
) -> tuple[list[PseudoEvent], dict[int, WindowSequence]]:
    """Pseudo-events (clustered or keyed) plus their window sequences."""
    key = cfg["cluster.key"]
    if key is not None:
        events = pass_through_events(ds, key)
    else:
        events = cluster_events(ds, cfg["cluster.num_clusters"], cfg["cluster.linkage"])
    check_partition(events, ds.n)
    span, stride = cfg.window_geometry()
    return events, segment_all(events, ds, span, stride)


def predictions(
    ds: Dataset,
    events: list[PseudoEvent],
    windows: dict[int, WindowSequence],
    params: ModelParams,
    cfg: RunConfig,
) -> tuple[np.ndarray, dict[int, float]]:
    """Per-post and per-event probabilities; :class:`ScoringError` if one is not finite."""
    with no_grad():
        out = run_model(ds, events, windows, params, cfg)
    bad = np.flatnonzero(~np.isfinite(out.probs))
    if bad.size:
        event = out.event_ids[np.searchsorted(out.offsets, bad[0], side="right") - 1]
        raise ScoringError(f"event {event}: a window probability is not finite")
    return out.p_post, out.p_event


def evaluate_posts_and_events(
    ds: Dataset,
    indices: np.ndarray,
    p_post: np.ndarray,
    p_event: dict[int, float],
    events: list[PseudoEvent],
    threshold: float,
) -> dict:
    """Post-level metrics over ``indices``; event-level aggregate alongside.

    An event enters the aggregate when it has at least one selected post; its
    reference label is the majority label of those posts (ties go to 1). Each
    event's selected and positive counts are two bincounts over the events'
    members.
    """
    post_level = evaluate(p_post[indices], ds.labels[indices], threshold).as_dict()

    selected = np.zeros(ds.n, dtype=bool)
    selected[indices] = True
    members = np.concatenate([np.asarray(ev.member_indices, dtype=np.intp)
                              for ev in events] or [np.zeros(0, dtype=np.intp)])
    owner = np.repeat(np.arange(len(events)), [len(ev.member_indices) for ev in events])
    chosen = selected[members]
    count = np.bincount(owner[chosen], minlength=len(events))
    positive = np.bincount(owner[chosen], weights=ds.labels[members[chosen]],
                           minlength=len(events))
    kept = np.flatnonzero(count)
    event_level = None
    if kept.size:
        ev_probs = np.array([p_event[events[e].event_id] for e in kept])
        ev_labels = (2 * positive[kept] >= count[kept]).astype(np.int64)
        event_level = evaluate(ev_probs, ev_labels, threshold).as_dict()
    return {"post_level": post_level, "event_level": event_level}
