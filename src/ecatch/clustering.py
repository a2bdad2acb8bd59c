"""Pseudo-event construction: agglomerative clustering of text embeddings.

Distances are cosine (1 - cos), with zero-norm vectors defined to be at
distance 1 from everything. Merging is greedy global-minimum under the chosen
linkage; ties are broken by the lexicographically smallest (cluster_id,
cluster_id) pair, where a merged cluster keeps the smaller of the two ids.
This makes results reproducible and lets an exhaustive reference implement
exactly the same rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset

LINKAGES = ("average", "complete", "single")


class ClusteringError(ValueError):
    pass


@dataclass(frozen=True)
class PseudoEvent:
    """A cluster of posts treated as one narrative unit.

    ``member_indices`` are sorted by (timestamp, manifest order).
    """

    event_id: int
    member_indices: tuple[int, ...]


def _sort_members(ds: Dataset, members: list[int]) -> tuple[int, ...]:
    return tuple(sorted(members, key=lambda i: (int(ds.timestamps[i]), i)))


def cosine_distances(x: np.ndarray) -> np.ndarray:
    """Pairwise 1 - cosine similarity; zero-norm rows sit at distance 1."""
    x = np.asarray(x, dtype=np.float64)
    norms = np.sqrt((x * x).sum(axis=1))
    zero = norms == 0.0
    safe = np.where(zero, 1.0, norms)
    unit = x / safe[:, None]
    dist = 1.0 - unit @ unit.T
    dist[zero, :] = 1.0
    dist[:, zero] = 1.0
    return dist


def _min_pair(dist: np.ndarray, active: np.ndarray,
              nn_dist: np.ndarray) -> tuple[int, int]:
    """Globally closest active pair; exact lexicographic tie-breaking."""
    act = np.flatnonzero(active)
    best = nn_dist[act].min()
    rows = act[nn_dist[act] == best]
    # Every tied pair has both endpoints among `rows`, so scanning those rows
    # recovers all candidates.
    candidates: list[tuple[int, int]] = []
    for i in rows:
        js = np.flatnonzero(active & (dist[i] == best))
        for j in js:
            if j != i:
                candidates.append((min(i, j), max(i, j)))
    return min(candidates)


def _recompute_nn(dist, active, i):
    row = np.where(active, dist[i], np.inf)
    row[i] = np.inf
    j = int(np.argmin(row))
    return row[j], j


def agglomerate(dist: np.ndarray, num_clusters: int, linkage: str) -> list[list[int]]:
    """Greedy agglomerative merging on a precomputed distance matrix.

    Returns clusters as lists of original indices, ordered by smallest member.
    Uses Lance-Williams updates with a per-row nearest-neighbour cache; for
    the supported (reducible) linkages a merge can never beat a cached row
    minimum, so the cache stays valid except where it pointed at the merged
    pair.
    """
    n = dist.shape[0]
    if not 1 <= num_clusters <= n:
        raise ClusteringError(f"num_clusters must be in [1, {n}], got {num_clusters}")
    if linkage not in LINKAGES:
        raise ClusteringError(f"unknown linkage {linkage!r}")

    dist = np.array(dist, dtype=np.float64)
    np.fill_diagonal(dist, np.inf)
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=np.int64)
    members: list[list[int] | None] = [[i] for i in range(n)]

    nn_dist = np.empty(n)
    nn_idx = np.empty(n, dtype=np.int64)
    for i in range(n):
        nn_dist[i], nn_idx[i] = _recompute_nn(dist, active, i) if n > 1 else (np.inf, i)

    remaining = n
    while remaining > num_clusters:
        i, j = _min_pair(dist, active, nn_dist)

        if linkage == "average":
            merged = (sizes[i] * dist[i] + sizes[j] * dist[j]) / (sizes[i] + sizes[j])
        elif linkage == "complete":
            merged = np.maximum(dist[i], dist[j])
        else:
            merged = np.minimum(dist[i], dist[j])
        dist[i, :] = merged
        dist[:, i] = merged
        dist[i, i] = np.inf
        dist[j, :] = np.inf
        dist[:, j] = np.inf

        sizes[i] += sizes[j]
        members[i] = members[i] + members[j]  # type: ignore[operator]
        members[j] = None
        active[j] = False
        remaining -= 1
        if remaining == 1:
            break

        nn_dist[i], nn_idx[i] = _recompute_nn(dist, active, i)
        stale = np.flatnonzero(active & ((nn_idx == i) | (nn_idx == j)))
        for k in stale:
            if k != i:
                nn_dist[k], nn_idx[k] = _recompute_nn(dist, active, k)

    clusters = [m for m in members if m is not None]
    clusters.sort(key=min)
    return clusters


def cluster_events(ds: Dataset, num_clusters: int, linkage: str = "average") -> list[PseudoEvent]:
    """Group posts into pseudo-events by text-embedding similarity only."""
    if ds.n == 0:
        raise ClusteringError("cannot cluster an empty dataset")
    dist = cosine_distances(ds.text)
    clusters = agglomerate(dist, num_clusters, linkage)
    return [
        PseudoEvent(event_id=k, member_indices=_sort_members(ds, c))
        for k, c in enumerate(clusters)
    ]


def pass_through_events(ds: Dataset, key: str) -> list[PseudoEvent]:
    """One event per distinct manifest value of ``key`` (clustering skipped)."""
    groups: dict = {}
    order: list = []
    for i in range(ds.n):
        if key not in ds.extra[i]:
            raise ClusteringError(f"post {ds.ids[i]!r} is missing manifest key {key!r}")
        v = ds.extra[i][key]
        if v not in groups:
            groups[v] = []
            order.append(v)
        groups[v].append(i)
    return [
        PseudoEvent(event_id=k, member_indices=_sort_members(ds, groups[v]))
        for k, v in enumerate(order)
    ]


def check_partition(events: list[PseudoEvent], n: int) -> None:
    """Raise unless the events are disjoint, non-empty, and cover 0..n-1."""
    seen: set[int] = set()
    for ev in events:
        if not ev.member_indices:
            raise ClusteringError(f"event {ev.event_id} is empty")
        for i in ev.member_indices:
            if i in seen:
                raise ClusteringError(f"post {i} appears in more than one event")
            seen.add(i)
    if seen != set(range(n)):
        raise ClusteringError("events do not cover every post exactly once")


def save_events(events: list[PseudoEvent], path: str | Path) -> None:
    payload = [
        {"event_id": ev.event_id, "members": list(ev.member_indices)}
        for ev in events
    ]
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_events(path: str | Path) -> list[PseudoEvent]:
    payload = json.loads(Path(path).read_text())
    return [
        PseudoEvent(event_id=int(e["event_id"]),
                    member_indices=tuple(int(i) for i in e["members"]))
        for e in payload
    ]
