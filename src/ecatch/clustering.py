"""Pseudo-event construction: agglomerative clustering of text embeddings.

Distances are cosine (1 - cos), with zero-norm vectors defined to be at
distance 1 from everything. Merging is greedy global-minimum under the chosen
linkage; ties are broken by the lexicographically smallest (cluster_id,
cluster_id) pair, where a merged cluster keeps the smaller of the two ids.
This makes results reproducible. ``verify.reference_agglomerate`` applies the
same rule by exhaustive search, but each implementation compares the float64
distances it computes: the reference takes an average linkage as the mean of
the original pair distances, ``agglomerate`` updates it by Lance-Williams, so
an average-linkage tie that holds only in exact arithmetic can break
differently in the two.
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
    dist = unit @ unit.T
    np.subtract(1.0, dist, out=dist)
    dist[zero, :] = 1.0
    dist[:, zero] = 1.0
    return dist


def agglomerate(dist: np.ndarray, num_clusters: int, linkage: str) -> list[list[int]]:
    """Greedy agglomerative merging on a precomputed distance matrix.

    Returns clusters as lists of original indices, ordered by smallest member.
    Merging happens inside ``dist``: a float64 matrix is overwritten, so pass
    a copy to keep it. Uses Lance-Williams updates with a per-row
    nearest-neighbour cache that stays exact: after a merge it recomputes the
    merged row, the rows whose cached neighbour was one of the pair, and the
    rows whose distance to the merged cluster fell below their cached minimum.
    For the supported (reducible) linkages that last case arises only when
    rounding takes a float64 average below both of its operands.
    """
    n = dist.shape[0]
    if not 1 <= num_clusters <= n:
        raise ClusteringError(f"num_clusters must be in [1, {n}], got {num_clusters}")
    if linkage not in LINKAGES:
        raise ClusteringError(f"unknown linkage {linkage!r}")

    dist = np.asarray(dist, dtype=np.float64)
    np.fill_diagonal(dist, np.inf)
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=np.int64)
    members: list[list[int] | None] = [[i] for i in range(n)]
    nn_idx = dist.argmin(axis=1)
    nn_dist = dist[np.arange(n), nn_idx]

    # Rows and columns of retired clusters are never cleared: every read
    # below masks them out with `active`.
    for _ in range(n - num_clusters):
        # The smallest row whose minimum is the closest distance, and its first
        # partner at that distance, form the lexicographically smallest closest
        # pair: each such partner has the same row minimum, so it is larger.
        best = nn_dist[active].min()
        i = int(np.flatnonzero(active & (nn_dist == best))[0])
        j = int(np.flatnonzero(active & (dist[i] == best))[0])

        if linkage == "average":
            merged = (sizes[i] * dist[i] + sizes[j] * dist[j]) / (sizes[i] + sizes[j])
        elif linkage == "complete":
            merged = np.maximum(dist[i], dist[j])
        else:
            merged = np.minimum(dist[i], dist[j])
        merged[i] = np.inf
        dist[i, :] = merged
        dist[:, i] = merged

        sizes[i] += sizes[j]
        members[i] = members[i] + members[j]  # type: ignore[operator]
        members[j] = None
        active[j] = False

        stale = active & ((nn_idx == i) | (nn_idx == j) | (merged < nn_dist))
        stale[i] = True
        rows = np.flatnonzero(stale)
        block = np.where(active, dist[rows], np.inf)
        nn_idx[rows] = block.argmin(axis=1)
        nn_dist[rows] = block[np.arange(rows.size), nn_idx[rows]]

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
