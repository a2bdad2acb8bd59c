"""Windows of all events fused in same-size groups: results must not depend
on which group or chunk a window lands in, nor on the other events."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecatch import fusion, pipeline, training
from ecatch.clustering import PseudoEvent
from ecatch.config import RunConfig
from ecatch.params import ATT_BLOCKS, ModelParams
from ecatch.windows import segment_all

from conftest import DAY, make_dataset

# Posts per one-day window, event by event (span = stride = one day):
# event 0's windows fall into three groups and one holds a single post,
# events 0-2 share the group of 2-post windows, and event 3's 5-post window
# is a group of its own.
LAYOUT = {0: (1, 2, 3), 1: (2, 2), 2: (2, 1), 3: (5,)}


def keyed_problem(layout, d=4, heads=2, seed=0):
    rng = np.random.default_rng(seed)
    times, events, n = [], [], 0
    for eid, counts in layout.items():
        for day, count in enumerate(counts):
            offsets = rng.integers(0, DAY, size=count)
            if day == 0:
                offsets[0] = 0  # anchors the event's window grid at a day boundary
            times += sorted((100 * eid + day) * DAY + offsets)
        events.append(PseudoEvent(eid, tuple(range(n, n + sum(counts)))))
        n += sum(counts)
    ds = make_dataset(rng.normal(size=(n, 3)), labels=rng.integers(0, 2, size=n),
                      timestamps=times, image=rng.normal(size=(n, 2)))
    cfg = RunConfig({"model.d": d, "model.heads": heads,
                     "window.span_secs": DAY, "window.stride_secs": DAY})
    windows = segment_all(events, ds, DAY, DAY)
    params = ModelParams.build(d, heads, 3, 2, seed=seed + 1)
    return ds, events, windows, params, cfg


def flat_windows(events, windows):
    return [w for ev in sorted(events, key=lambda e: e.event_id)
            for w in windows[ev.event_id].windows]


def _tape(*roots):
    seen, stack = {}, list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def test_layout_covers_the_grouping_cases():
    ds, events, windows, _, _ = keyed_problem(LAYOUT)
    assert {e: tuple(len(w.members) for w in windows[e].windows) for e in LAYOUT} == LAYOUT
    flat = flat_windows(events, windows)
    sizes = [len(w.members) for w in flat]
    chunks = fusion.window_groups(flat)
    assert [[sizes[k] for k in positions] for positions, _ in chunks] == \
        [[1, 1], [2, 2, 2, 2], [3], [5]]
    assert [members.shape for _, members in chunks] == [(2, 1), (4, 2), (1, 3), (1, 5)]


def test_one_forward_makes_two_attention_nodes_per_chunk():
    # One self- and one cross-attention node per chunk, each applying two
    # blocks; the pass builds each pair's weight node once.
    ds, events, windows, params, cfg = keyed_problem(LAYOUT)
    out = training.run_model(ds, events, windows, params, cfg)
    nodes = _tape(out.states)
    n_chunks = len(fusion.window_groups(flat_windows(events, windows)))
    assert n_chunks == 4 < len(flat_windows(events, windows))
    pairs = [n for n in nodes if any(p is params["fusion.att_text.Wq"] for p in n._parents)
             or any(p is params["fusion.att_ti.Wq"] for p in n._parents)]
    assert len(pairs) == 2
    for pair in pairs:
        assert sum(any(p is pair for p in n._parents) for n in nodes) == n_chunks


def test_each_attention_block_is_one_node_per_chunk():
    # All six tensors of a block enter one weight node, shared with the other
    # block of its pair, and that node enters one attention node per chunk.
    ds, events, windows, params, cfg = keyed_problem(LAYOUT)
    nodes = _tape(training.run_model(ds, events, windows, params, cfg).states)
    n_chunks = len(fusion.window_groups(flat_windows(events, windows)))
    for block in ATT_BLOCKS:
        tensors = [params[f"fusion.{block}.{t}"]
                   for t in ("Wq", "Wk", "Wv", "Wo", "W_out", "b_out")]
        users = [n for n in nodes if any(any(p is t for p in n._parents) for t in tensors)]
        assert len(users) == 1, block
        assert all(any(p is t for p in users[0]._parents) for t in tensors), block
        assert sum(any(p is users[0] for p in n._parents) for n in nodes) == n_chunks, block


def score(ds, events, windows, params, cfg):
    p_post, p_event = pipeline.predictions(ds, events, windows, params, cfg)
    return p_post, p_event


def assert_alone_matches_together(ds, events, windows, params, cfg):
    p_all, e_all = score(ds, events, windows, params, cfg)
    for ev in events:
        p_one, e_one = score(ds, [ev], windows, params, cfg)
        idx = list(ev.member_indices)
        np.testing.assert_allclose(p_one[idx], p_all[idx], rtol=1e-12, atol=0)
        assert e_one[ev.event_id] == pytest.approx(e_all[ev.event_id], rel=1e-12, abs=0)
    return p_all


def test_scoring_an_event_alone_matches_scoring_it_among_all(monkeypatch):
    problem = keyed_problem(LAYOUT)
    together = assert_alone_matches_together(*problem)
    # Smaller chunks move windows into other passes, not their results.
    monkeypatch.setattr(fusion, "MAX_PAIRS", 4)
    assert len(fusion.window_groups(flat_windows(problem[1], problem[2]))) == 8
    np.testing.assert_allclose(score(*problem)[0], together, rtol=1e-12, atol=0)


@settings(max_examples=25, deadline=None)
@given(
    layout=st.lists(st.lists(st.integers(1, 4), min_size=1, max_size=3),
                    min_size=1, max_size=4),
    max_pairs=st.sampled_from([1, 8, fusion.MAX_PAIRS]),
    seed=st.integers(0, 1000),
)
def test_grouping_never_changes_an_event_beyond_rounding(layout, max_pairs, seed):
    problem = keyed_problem(dict(enumerate(layout)), seed=seed)
    together = assert_alone_matches_together(*problem)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fusion, "MAX_PAIRS", max_pairs)
        np.testing.assert_allclose(score(*problem)[0], together, rtol=1e-12, atol=0)


def _predictions_peak(n_events):
    """tracemalloc peak of ``predictions`` over 3 windows of 8 posts per event."""
    ds, events, windows, params, cfg = keyed_problem({e: (8, 8, 8) for e in range(n_events)},
                                                     d=8)
    assert {len(w.members) for w in flat_windows(events, windows)} == {8}
    tracemalloc.start()
    try:
        pipeline.predictions(ds, events, windows, params, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scoring_memory_is_bounded_by_the_chunk_not_the_group():
    # 150 vs 750 windows of one size: the chunk limit keeps 128 windows per
    # pass, so five times the windows may not cost five times the memory.
    small, large = _predictions_peak(50), _predictions_peak(250)
    assert large < 1.5 * small, (small, large)
