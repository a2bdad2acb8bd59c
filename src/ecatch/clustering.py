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

Two paths compute the partition:

* ``complete`` and ``single`` build the n x n float64 matrix of
  ``cosine_distances`` and merge in it with ``agglomerate``: O(n^2) memory.
* ``average`` takes a vector path in O(n*d) memory. With u the unit rows
  (zero-norm rows left at 0) and M a cluster's mean of unit rows, the mean of
  the pair distances between clusters A and B is ``1 - M_A . M_B``, and a
  zero row sits at exactly 1 from everything. ``CHAINS`` nearest-neighbour
  chains (Muellner 2011, arXiv:1109.2378, sec. 3) grow in lockstep. Each
  step queries every chain top with one product of their means and the live
  clusters' means, then applies the results in chain order: a chain pushes a
  free neighbour; merges its top with its previous element, or with another
  chain's top, when the two are each other's nearest neighbours; waits when
  the neighbour sits inside another chain; and queries again when its result
  names a cluster merged earlier in the step. An empty chain restarts at the
  smallest free slot. Average linkage is reducible: a merge never brings a
  cluster closer than the nearer of its parts. So every chain link stays a
  nearest-neighbour link, every merge joins reciprocal nearest neighbours,
  the chains find the greedy rule's dendrogram, and the n - k lowest merges
  give the partition. A cycle of waiting chains would need equal distances.
  The live clusters are packed into the first rows, and a merged-away
  cluster's row takes the last live one, so a step's work falls with the
  number of clusters left.

Rows with equal unit vectors (reposts, or one post at another scale) enter
the chains as one cluster each, with their count: the matrix path merges
them before anything else, at heights that only rounding tells apart.

The chains merge in another order than the greedy rule, so wherever order
could matter the vector path hands the case to ``agglomerate`` on the matrix.
Before the chains, that is when ``num_clusters`` exceeds the number of
distinct unit rows, so the cut would split equal rows, and always when two
or more rows have zero norm (each sits at exactly 1 from everything) or a
unit row is not finite. During the chains, it is when a nearest-neighbour
query has a second candidate within ``NEAR_TIE`` of its minimum, a merge
sits below a merge that formed one of its clusters, or every chain waits.
After the chains, it is when the two merge heights on either side of the cut
lie within ``NEAR_TIE`` of each other (tied merges on one side of the cut
are applied together, so their order cannot change the partition), or when
equal rows were grouped and some other merge lies within ``NEAR_TIE`` of
height 0. Other exact ties, as integer-valued rows give, thus take the
matrix path; a fallback costs the chains' work up to that point plus the
whole matrix path. What is left is rounding: the two paths compute each
linkage with different float64 errors, far below ``NEAR_TIE`` but not proved
to stay there, so a near-tie that one path's error carried past ``NEAR_TIE``
could still order two merges differently, as it can between the reference
and ``agglomerate`` above.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import _MANIFEST_KEYS, Dataset, read_json

LINKAGES = ("average", "complete", "single")

# Distances closer than this count as tied on the average-linkage vector path.
NEAR_TIE = 1e-10
# Nearest-neighbour chains the average-linkage vector path grows in lockstep.
CHAINS = 16


class ClusteringError(ValueError):
    pass


@dataclass(frozen=True)
class PseudoEvent:
    """A cluster of posts treated as one narrative unit.

    ``member_indices`` are sorted by (timestamp, manifest order).
    """

    event_id: int
    member_indices: tuple[int, ...]


def _unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows scaled to unit norm (zero-norm rows stay 0), and the zero-row mask."""
    x = np.asarray(x, dtype=np.float64)
    norms = np.sqrt((x * x).sum(axis=1))
    zero = norms == 0.0
    safe = np.where(zero, 1.0, norms)
    unit = x / safe[:, None]
    unit[zero] = 0.0  # a row whose squares underflow is not left tiny
    return unit, zero


def _check_num_clusters(n: int, num_clusters: int) -> None:
    if not 1 <= num_clusters <= n:
        raise ClusteringError(f"num_clusters must be in [1, {n}], got {num_clusters}")


def cosine_distances(x: np.ndarray) -> np.ndarray:
    """Pairwise 1 - cosine similarity; zero-norm rows sit at distance 1."""
    unit, zero = _unit_rows(x)
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
    _check_num_clusters(n, num_clusters)
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


def average_linkage_chain(x: np.ndarray, num_clusters: int) -> list[list[int]] | None:
    """Average-linkage clusters of the rows of ``x`` without the distance matrix.

    Returns ``agglomerate(cosine_distances(x), num_clusters, "average")``'s
    partition, each cluster sorted and the clusters ordered by smallest
    member, or None where a tie or an inversion needs the matrix path (see
    the module docstring). ``CHAINS`` nearest-neighbour chains grow in
    lockstep, and each step queries all their tops with one product over the
    live clusters only: a merged-away cluster's row is swapped out for the
    last live row. Holds the (n, d) unit rows (and their bytes while it finds
    equal rows) until the cluster means are built, then the (m, d) means of
    the m distinct rows (the unit rows themselves when all are distinct), one
    (CHAINS, m) block and O(m) vectors.
    """
    unit, zero = _unit_rows(x)
    n = unit.shape[0]
    _check_num_clusters(n, num_clusters)
    if np.count_nonzero(zero) > 1 or not np.isfinite(unit).all():
        return None
    # Bitwise-equal unit rows form one starting cluster each: the matrix path
    # merges them first, at heights that only rounding tells apart.
    slot: dict[bytes, int] = {}
    group = np.array([slot.setdefault(row.tobytes(), len(slot)) for row in unit])
    m = len(slot)
    del slot
    if num_clusters > m:
        return None  # the cut falls among the merges of equal rows
    # A group's rows are equal, so its first row is its mean.
    means = unit if m == n else unit[np.unique(group, return_index=True)[1]]
    del unit
    sizes = np.bincount(group).astype(np.float64)

    # The live clusters fill rows [0, live) of `means` and `sizes`: slot id s
    # sits in row pos[s], and row r holds slot ids[r]. Merges, the chains and
    # `formed_at` speak of slot ids; a merged-away row takes the last live one.
    ids = np.arange(m)
    pos = np.arange(m)
    live = m
    formed_at = np.full(m, -np.inf)  # height of the merge that formed slot s
    # The merge made while `live` clusters remain is number m - live.
    heights = np.empty(m - 1)
    pairs = np.empty((m - 1, 2), dtype=np.int64)
    chains: list[list[int]] = [[] for _ in range(CHAINS)]
    owner = np.full(m, -1)  # the chain slot s sits in, or -1 when it is free
    block = np.empty(CHAINS * m)
    while live > 1:
        empty = [c for c in range(CHAINS) if not chains[c]]
        if empty:
            free = ids[:live][owner[ids[:live]] < 0]
            for c, s in zip(empty, np.sort(free)[:len(empty)].tolist()):
                chains[c].append(s)
                owner[s] = c
        tops = [chain[-1] for chain in chains if chain]
        rows = pos[tops]
        k = len(tops)
        # Cosine similarities, so that the nearest cluster is the largest
        # entry: 1 - s rounds monotonically, so `best` and the check for a
        # second candidate within NEAR_TIE are those of the distances.
        sim = block[:k * live].reshape(k, live)
        np.matmul(means[rows], means[:live].T, out=sim)
        at = np.arange(k)
        sim[at, rows] = -np.inf
        nearest = sim.argmax(axis=1)
        best = 1.0 - sim[at, nearest]
        sim[at, nearest] = -np.inf
        if np.any(1.0 - sim.max(axis=1) <= best + NEAR_TIE):
            return None
        found = dict(zip(tops, zip(ids[nearest].tolist(), best.tolist())))

        # Apply the results in chain order. A result that names a cluster
        # merged earlier in this step is stale: its chain queries again.
        merged: set[int] = set()
        progress = False
        for a in tops:
            b, height = found[a]
            if a in merged or b in merged:
                continue
            chain = chains[owner[a]]
            if len(chain) > 1 and b == chain[-2]:
                del chain[-2:]
            elif owner[b] < 0:
                chain.append(b)
                owner[b] = owner[a]
                progress = True
                continue
            elif b in found and found[b][0] == a:  # b tops another chain
                chains[owner[b]].pop()
                chain.pop()
            else:
                continue  # b sits inside another chain: wait for it
            # a and b are each other's nearest neighbours: merge b into a's slot.
            if height < max(formed_at[a], formed_at[b]):
                return None
            owner[a] = owner[b] = -1
            merged.update((a, b))
            progress = True
            pa, pb = pos[a], pos[b]
            total = sizes[pa] + sizes[pb]
            means[pa] = (sizes[pa] * means[pa] + sizes[pb] * means[pb]) / total
            sizes[pa] = total
            formed_at[a] = height
            heights[m - live] = height
            pairs[m - live] = a, b
            live -= 1
            if pb != live:
                means[pb] = means[live]
                sizes[pb] = sizes[live]
                ids[pb] = ids[live]
                pos[ids[pb]] = pb
        if not progress:
            return None  # every chain waits on another: only ties close such a cycle
    del means, block, sizes  # the cut's lists can take their memory

    # Only the order across the cut decides the partition: tied merges on one
    # side of it are applied together.
    order = np.argsort(heights)
    cut = m - num_clusters
    if m < n and m > 1 and heights[order[0]] <= NEAR_TIE:
        return None  # a merge as low as those of the equal rows
    if 0 < cut < m - 1 and heights[order[cut]] - heights[order[cut - 1]] <= NEAR_TIE:
        return None
    root = list(range(m))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for a, b in pairs[order[:cut]].tolist():
        root[find(b)] = find(a)
    clusters: dict[int, list[int]] = {}
    for i in range(n):  # first seen in order of smallest member
        clusters.setdefault(find(int(group[i])), []).append(i)
    return list(clusters.values())


def cluster_events(ds: Dataset, num_clusters: int, linkage: str = "average") -> list[PseudoEvent]:
    """Group posts into pseudo-events by text-embedding similarity only.

    ``average`` runs ``average_linkage_chain``, ``CHAINS`` nearest-neighbour
    chains in lockstep in O(n*d) memory, and falls back to the matrix path
    when that returns None: on a tie, an inversion or a step in which every
    chain waits, two or more zero rows, or more clusters than distinct rows
    (see the module docstring); reposts alone do not force it. ``complete``
    and ``single`` always take the matrix path, ``agglomerate`` on
    ``cosine_distances``, whose n x n float64 matrix is 8*n^2 bytes. Members
    are in time order, ``Dataset.time_order``.
    """
    if ds.n == 0:
        raise ClusteringError("cannot cluster an empty dataset")
    clusters = None
    if linkage == "average":
        clusters = average_linkage_chain(ds.text, num_clusters)
    if clusters is None:
        clusters = agglomerate(cosine_distances(ds.text), num_clusters, linkage)
    return [
        PseudoEvent(event_id=k, member_indices=tuple(ds.time_order(c).tolist()))
        for k, c in enumerate(clusters)
    ]


def pass_through_events(ds: Dataset, key: str) -> list[PseudoEvent]:
    """One event per distinct manifest value of ``key`` (clustering skipped).

    Equal numbers such as 1 and 1.0 share an event; true and false match no
    number. A list or object value is refused, and so is a core manifest field
    (``data._MANIFEST_KEYS``), which ``Dataset.extra`` does not hold.
    """
    if key in _MANIFEST_KEYS:
        raise ClusteringError(f"{key!r} is a core manifest field; only extra manifest "
                              f"fields can group posts")
    groups: dict = {}
    order: list = []
    for i in range(ds.n):
        if key not in ds.extra[i]:
            raise ClusteringError(f"post {ds.ids[i]!r} is missing manifest key {key!r}")
        v = ds.extra[i][key]
        if isinstance(v, (list, dict)):
            raise ClusteringError(f"post {ds.ids[i]!r}: manifest key {key!r} holds a "
                                  f"{type(v).__name__}, not a single value")
        v = (isinstance(v, bool), v)  # Python's True == 1
        if v not in groups:
            groups[v] = []
            order.append(v)
        groups[v].append(i)
    return [
        PseudoEvent(event_id=k, member_indices=tuple(ds.time_order(groups[v]).tolist()))
        for k, v in enumerate(order)
    ]


def check_partition(events: list[PseudoEvent], n: int) -> None:
    """Raise unless the events have distinct ids, are disjoint and non-empty,
    and cover 0..n-1."""
    seen: set[int] = set()
    ids: set[int] = set()
    for ev in events:
        if ev.event_id in ids:
            raise ClusteringError(f"event id {ev.event_id} is repeated")
        ids.add(ev.event_id)
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


def _json_int(value, where: str) -> int:
    if type(value) is not int:
        raise ClusteringError(f"{where} must be a JSON integer, got {value!r}")
    return value


def load_events(path: str | Path) -> list[PseudoEvent]:
    """The events of ``save_events``; each id and member must be a JSON integer."""
    payload = read_json(Path(path), "events", ClusteringError, list)
    events = []
    for k, e in enumerate(payload):
        if not isinstance(e, dict) or not isinstance(e.get("members"), list):
            raise ClusteringError(f"event {k} must be an object with a 'members' list")
        events.append(PseudoEvent(
            event_id=_json_int(e.get("event_id"), f"event {k} 'event_id'"),
            member_indices=tuple(_json_int(i, f"event {k} 'members'") for i in e["members"])))
    return events
