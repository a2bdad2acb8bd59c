import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecatch.clustering import (
    CHAINS,
    ClusteringError,
    PseudoEvent,
    agglomerate,
    average_linkage_chain,
    check_partition,
    cluster_events,
    cosine_distances,
    load_events,
    pass_through_events,
    save_events,
)
from ecatch.verify import reference_agglomerate

from conftest import make_dataset


def partition(events):
    return [tuple(sorted(ev.member_indices)) for ev in events]


def test_two_tight_pairs_split_under_every_linkage():
    # two near-duplicate directions vs. two others; verified against the
    # exhaustive reference as the oracle
    vecs = np.array([[1.0, 0.0], [0.99, 0.14], [0.0, 1.0], [0.14, 0.99]])
    dist = cosine_distances(vecs)
    for linkage in ("average", "complete", "single"):
        want = reference_agglomerate(dist, 2, linkage)
        assert want == [[0, 1], [2, 3]]
        ds = make_dataset(vecs)
        events = cluster_events(ds, 2, linkage)
        assert partition(events) == [(0, 1), (2, 3)]


def test_singletons_and_single_cluster(rng):
    ds = make_dataset(rng.normal(size=(5, 3)))
    singles = cluster_events(ds, 5)
    assert partition(singles) == [(i,) for i in range(5)]
    merged = cluster_events(ds, 1)
    assert partition(merged) == [tuple(range(5))]


def test_num_clusters_bounds(rng):
    ds = make_dataset(rng.normal(size=(4, 3)))
    with pytest.raises(ClusteringError):
        cluster_events(ds, 5)
    with pytest.raises(ClusteringError):
        cluster_events(ds, 0)


def test_zero_vector_is_distance_one(rng):
    x = np.vstack([rng.normal(size=(3, 4)), np.zeros(4)])
    dist = cosine_distances(x)
    np.testing.assert_array_equal(dist[3], np.ones(4))
    np.testing.assert_array_equal(dist[:, 3], np.ones(4))


def test_scale_invariance(rng):
    x = rng.normal(size=(8, 4))
    ds = make_dataset(x)
    base = partition(cluster_events(ds, 3))
    scaled = x.copy()
    scaled[2] *= 10.0
    scaled[5] *= 0.001
    assert partition(cluster_events(make_dataset(scaled), 3)) == base


def test_members_sorted_by_time_then_index(rng):
    x = rng.normal(size=(4, 3))
    ds = make_dataset(x, timestamps=[50, 10, 50, 5])
    events = cluster_events(ds, 1)
    assert events[0].member_indices == (3, 1, 0, 2)
    assert all(type(i) is int for i in events[0].member_indices)  # JSON-writable


def test_matches_reference_on_random_small_inputs(rng):
    for _ in range(25):
        n = int(rng.integers(2, 9))
        x = rng.normal(size=(n, 3))
        k = int(rng.integers(1, n + 1))
        dist = cosine_distances(x)
        for linkage in ("average", "complete", "single"):
            got = partition(cluster_events(make_dataset(x), k, linkage))
            want = [tuple(c) for c in reference_agglomerate(dist, k, linkage)]
            assert got == want, (n, k, linkage)


@st.composite
def tied_distances(draw):
    """Symmetric matrices whose off-diagonal entries all lie in {1, 2, 3}."""
    n = draw(st.integers(2, 8))
    upper = draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]),
                          min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    dist = np.zeros((n, n))
    dist[np.triu_indices(n, 1)] = upper
    return dist + dist.T


# Average linkage is left out: an average tie can hold in exact arithmetic
# and break differently in the float64 values each implementation computes.
@settings(max_examples=200, deadline=None)
@given(dist=tied_distances())
def test_ties_break_like_the_reference(dist):
    n = dist.shape[0]
    for linkage in ("complete", "single"):
        for k in range(1, n + 1):
            got = agglomerate(dist.copy(), k, linkage)
            assert [sorted(c) for c in got] == reference_agglomerate(dist, k, linkage)


def full_scan_agglomerate(dist, num_clusters, linkage):
    """agglomerate's Lance-Williams merges, each pair found by a full scan."""
    d = dist.copy()
    n = d.shape[0]
    np.fill_diagonal(d, np.inf)
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n)
    members = [[i] for i in range(n)]
    for _ in range(n - num_clusters):
        open_pairs = np.where(np.outer(active, active), d, np.inf)
        open_pairs[np.tril_indices(n)] = np.inf
        i, j = np.unravel_index(np.argmin(open_pairs), open_pairs.shape)
        if linkage == "average":
            merged = (sizes[i] * d[i] + sizes[j] * d[j]) / (sizes[i] + sizes[j])
        elif linkage == "complete":
            merged = np.maximum(d[i], d[j])
        else:
            merged = np.minimum(d[i], d[j])
        merged[i] = np.inf
        d[i, :] = merged
        d[:, i] = merged
        sizes[i] += sizes[j]
        members[i] += members[j]
        members[j] = None
        active[j] = False
    return sorted((m for m in members if m is not None), key=min)


def test_average_rounded_below_a_cached_minimum():
    # Duplicate-heavy integer directions: some Lance-Williams averages round
    # below the cached nearest-neighbour distance of a row that did not point
    # at the merged pair.
    x = np.random.default_rng(13).integers(-1, 2, size=(200, 3)).astype(float)
    dist = cosine_distances(x)
    for k in range(1, 10):
        assert agglomerate(dist.copy(), k, "average") == full_scan_agglomerate(dist, k, "average")


@st.composite
def text_rows(draw):
    """Float32-valued rows with some zero rows, or {-2, ..., 2} rows full of ties,
    and some rows copied over others."""
    n = draw(st.integers(2, 12))
    d = draw(st.integers(1, 4))
    if draw(st.booleans()):
        cells = st.integers(-2, 2)
    else:
        cells = st.floats(-4, 4, width=32)
    x = np.array(draw(st.lists(cells, min_size=n * d, max_size=n * d)), dtype=float)
    x = x.reshape(n, d)
    zero = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    x[np.array(zero)] = 0.0
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=3)):
        x[dst] = x[src]
    return x


@settings(max_examples=400, deadline=None)
@given(x=text_rows())
def test_average_vector_path_matches_the_matrix_path(x):
    n = x.shape[0]
    ds = make_dataset(x)
    dist = cosine_distances(x)
    for k in range(1, n + 1):
        got = [list(ev.member_indices) for ev in cluster_events(ds, k, "average")]
        want = [sorted(c) for c in agglomerate(dist.copy(), k, "average")]
        assert got == want, k


def test_average_vector_path_never_builds_the_matrix():
    n = 2000
    ds = make_dataset(np.random.default_rng(5).normal(size=(n, 16)))
    tracemalloc.start()
    try:
        events = cluster_events(ds, 20, "average")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(events) == 20
    assert peak < n * n * 8 / 4
    want = [tuple(sorted(c)) for c in agglomerate(cosine_distances(ds.text), 20, "average")]
    assert partition(events) == want


def test_average_vector_path_groups_equal_rows():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(200, 6))
    x[190:199] = x[[0, 0, 0, 1, 2, 3, 4, 5, 6]]  # reposts, one post three more times
    x[199] = 2.0 * x[7]                           # the same direction at twice the norm
    m = 190
    dist = cosine_distances(x)
    for k in (1, 5, 20, m):
        want = [sorted(c) for c in agglomerate(dist.copy(), k, "average")]
        assert average_linkage_chain(x, k) == want, k
    # More clusters than distinct rows would split equal rows: the matrix path decides.
    assert average_linkage_chain(x, m + 1) is None
    want = [tuple(sorted(c)) for c in agglomerate(dist.copy(), m + 1, "average")]
    assert partition(cluster_events(make_dataset(x), m + 1)) == want
    # A near copy, within rounding of a repost: which pair merges first at
    # the cut k = 4 is for rounding to decide, so the matrix path decides it.
    near = np.array([[1.0, -2.0], [3.0, 0.0], [3.0, 2.0], [1.0, -2.0], [1.0 + 1e-9, -2.0]])
    assert average_linkage_chain(near, 4) is None
    want = [tuple(sorted(c)) for c in agglomerate(cosine_distances(near), 4, "average")]
    assert partition(cluster_events(make_dataset(near), 4)) == want


def test_average_vector_path_hands_ties_to_the_matrix_path():
    two_zero_rows = np.array([[1.0, 0.0], [0.0, 0.0], [0.6, 0.8], [0.0, 0.0]])
    assert average_linkage_chain(two_zero_rows, 2) is None
    square = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    assert average_linkage_chain(square, 2) is None
    assert partition(cluster_events(make_dataset(square), 2)) == [(0, 1), (2, 3)]
    # Every nearest neighbour is unique, but two merges tie in height at the
    # cut, and the greedy rule makes the one the chain makes second.
    equal_heights = np.array([[-1, 3], [0, -3], [2, 2], [2, -2], [-3, 3],
                              [-3, 0], [-3, -1], [0, -1], [-1, -3], [-3, -3]], dtype=float)
    assert average_linkage_chain(equal_heights, 8) is None
    want = [sorted(c) for c in agglomerate(cosine_distances(equal_heights), 8, "average")]
    assert partition(cluster_events(make_dataset(equal_heights), 8)) == [tuple(c) for c in want]
    not_finite = square.copy()
    not_finite[1, 0] = np.nan
    with np.errstate(invalid="ignore"):
        assert average_linkage_chain(not_finite, 2) is None
    with pytest.raises(ClusteringError, match=r"num_clusters must be in \[1, 4\], got 5"):
        average_linkage_chain(square, 5)


def masked_chains_log(x):
    """The lockstep nearest-neighbour chains over every slot, merged-away slots
    masked: the merges (a, b) in the order made, the number of merges made
    before each chain restart, and how each step applied each chain's result
    ("push", "merge", "cross", "wait" or "stale"), one list per step."""
    unit = x / np.sqrt((x * x).sum(axis=1))[:, None]
    slot = {}
    group = np.array([slot.setdefault(row.tobytes(), len(slot)) for row in unit])
    m = len(slot)
    means = np.zeros((m, x.shape[1]))
    means[group] = unit
    sizes = np.bincount(group).astype(float)
    retired = np.zeros(m)
    merges, restarts, steps = [], [], []
    chains = [[] for _ in range(CHAINS)]
    while len(merges) < m - 1:
        free = [s for s in range(m) if not retired[s] and all(s not in c for c in chains)]
        for chain in chains:
            if not chain and free:
                restarts.append(len(merges))
                chain.append(free.pop(0))
        tops = {chain[-1]: chain for chain in chains if chain}
        nearest = {}
        for a in tops:
            dist = 1.0 - means @ means[a] + retired
            dist[a] = np.inf
            nearest[a] = int(dist.argmin())
        merged, kinds = set(), []
        steps.append(kinds)
        for a, chain in tops.items():
            b = nearest[a]
            if a in merged or b in merged:
                kinds.append("stale")
                continue
            if len(chain) > 1 and b == chain[-2]:
                kinds.append("merge")
                del chain[-2:]
            elif all(b not in c for c in chains):
                kinds.append("push")
                chain.append(b)
                continue
            elif nearest.get(b) == a:
                kinds.append("cross")
                tops[b].pop()
                chain.pop()
            else:
                kinds.append("wait")
                continue
            merged |= {a, b}
            means[a] = (sizes[a] * means[a] + sizes[b] * means[b]) / (sizes[a] + sizes[b])
            sizes[a] += sizes[b]
            retired[b] = np.inf
            merges.append((a, b))
    return m, merges, restarts, steps


def test_average_vector_path_merges_across_chains_and_waits():
    # Four directions at 0, 10, 30 and 70 degrees, each the top of its own
    # chain. In the first step 0 and 1 are each other's nearest neighbours in
    # two chains and merge; 1 is then stale; 2's nearest neighbour 1 has just
    # merged, so 2 queries again; 3's nearest neighbour 2 tops another chain
    # but points at 1, so 3 waits.
    angles = np.radians([0.0, 10.0, 30.0, 70.0])
    x = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    _, merges, _, steps = masked_chains_log(x)
    assert steps[0] == ["cross", "stale", "stale", "wait"]
    assert merges == [(0, 1), (0, 2), (0, 3)]
    dist = cosine_distances(x)
    for k in range(1, 5):
        want = [sorted(c) for c in agglomerate(dist.copy(), k, "average")]
        assert average_linkage_chain(x, k) == want, k
    # More directions than chains: chains also push free clusters and merge
    # with their previous element.
    rng = np.random.default_rng(2)
    angles = rng.uniform(0.0, np.pi, size=3 * CHAINS)
    x = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    _, _, _, steps = masked_chains_log(x)
    assert {"push", "merge", "cross", "wait", "stale"} <= {k for s in steps for k in s}
    dist = cosine_distances(x)
    for k in range(1, 3 * CHAINS + 1):
        want = [sorted(c) for c in agglomerate(dist.copy(), k, "average")]
        assert average_linkage_chain(x, k) == want, k


def test_average_vector_path_swaps_merged_rows_out():
    rng = np.random.default_rng(3)
    centroids = 3.0 * rng.normal(size=(12, 8))
    x = centroids[rng.integers(0, 12, size=300)] + rng.normal(size=(300, 8))
    x[[40, 90, 91, 160, 250]] = x[[3, 17, 17, 120, 201]]  # reposts
    dist = cosine_distances(x)
    for k in (1, 2, 12, 40, 150, 295):
        want = [sorted(c) for c in agglomerate(dist.copy(), k, "average")]
        assert average_linkage_chain(x, k) == want, k

    # Replay the merges on rows packed as the chains keep them: the live
    # clusters fill the first `live` rows, and a merged-away row takes the
    # last live one.
    m, merges, restarts, _ = masked_chains_log(x)
    assert m == 295
    ids, pos, live = list(range(m)), list(range(m)), m
    a_last = b_last = restart_moved = 0
    for t, (a, b) in enumerate(merges):
        if t in restarts and ids[0] != min(ids[:live]):
            restart_moved += 1  # the smallest live slot no longer sits in row 0
        live -= 1
        a_last += pos[a] == live
        b_last += pos[b] == live
        ids[pos[b]] = ids[live]
        pos[ids[live]] = pos[b]
    assert a_last and b_last and restart_moved, (a_last, b_last, restart_moved)


def test_pass_through_groups():
    ds = make_dataset(
        np.zeros((5, 2)),
        extra=[{"k": v} for v in ("a", "a", "b", "b", "b")],
    )
    events = pass_through_events(ds, "k")
    assert [len(e.member_indices) for e in events] == [2, 3]

    one = pass_through_events(
        make_dataset(np.zeros((3, 2)), extra=[{"k": "x"}] * 3), "k"
    )
    assert len(one) == 1

    unique = pass_through_events(
        make_dataset(np.zeros((3, 2)), extra=[{"k": i} for i in range(3)]), "k"
    )
    assert len(unique) == 3


def test_pass_through_missing_key():
    ds = make_dataset(np.zeros((2, 2)), extra=[{"k": 1}, {}])
    with pytest.raises(ClusteringError, match="missing manifest key"):
        pass_through_events(ds, "k")


@pytest.mark.parametrize("key", ["id", "label", "timestamp", "has_image"])
def test_pass_through_refuses_a_core_manifest_field(key):
    ds = make_dataset(np.zeros((2, 2)), extra=[{"k": 1}, {"k": 2}])
    with pytest.raises(ClusteringError, match=f"^'{key}' is a core manifest field; "):
        pass_through_events(ds, key)


def test_pass_through_keeps_bools_apart_from_equal_numbers():
    ds = make_dataset(np.zeros((4, 2)), extra=[{"k": v} for v in (1, True, 1.0, "1")])
    assert partition(pass_through_events(ds, "k")) == [(0, 2), (1,), (3,)]


@pytest.mark.parametrize("value", [[1, 2], {"a": 1}])
def test_pass_through_refuses_a_list_or_object_value(value):
    ds = make_dataset(np.zeros((2, 2)), extra=[{"k": 1}, {"k": value}])
    with pytest.raises(ClusteringError, match="^post 'p1': manifest key 'k' holds a "):
        pass_through_events(ds, "k")


def test_check_partition_refuses_a_repeated_event_id():
    events = [PseudoEvent(0, (0,)), PseudoEvent(1, (1,)), PseudoEvent(0, (2,))]
    with pytest.raises(ClusteringError, match="^event id 0 is repeated$"):
        check_partition(events, 3)


def test_partition_property(rng):
    for _ in range(10):
        n = int(rng.integers(2, 15))
        ds = make_dataset(rng.normal(size=(n, 3)))
        k = int(rng.integers(1, n + 1))
        events = cluster_events(ds, k)
        members = sorted(i for ev in events for i in ev.member_indices)
        assert members == list(range(n))
        assert len(events) == k
        assert all(ev.member_indices for ev in events)


def test_events_json_roundtrip(tmp_path, rng):
    ds = make_dataset(rng.normal(size=(6, 3)))
    events = cluster_events(ds, 2)
    path = tmp_path / "events.json"
    save_events(events, path)
    assert load_events(path) == events


@pytest.mark.parametrize("payload, message", [
    ({}, "events must be a JSON list"),
    ([[0, 1]], "event 0 must be an object with a 'members' list"),
    ([{"event_id": 0, "members": 1}], "event 0 must be an object with a 'members' list"),
    ([{"event_id": 0, "members": [0]}, {"event_id": True, "members": [1]}],
     "event 1 'event_id' must be a JSON integer, got True"),
    ([{"event_id": "0", "members": [0]}],
     "event 0 'event_id' must be a JSON integer, got '0'"),
    ([{"members": [0]}], "event 0 'event_id' must be a JSON integer, got None"),
    ([{"event_id": 0, "members": [0, 1.9]}],
     "event 0 'members' must be a JSON integer, got 1.9"),
])
def test_load_events_refuses_what_is_not_a_list_of_json_integers(tmp_path, payload, message):
    path = tmp_path / "events.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ClusteringError, match=f"^{re.escape(message)}$"):
        load_events(path)
