import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecatch.clustering import PseudoEvent
from ecatch.config import ConfigError, RunConfig
from ecatch.windows import (
    Window,
    WindowError,
    save_windows,
    segment_all,
    segment_event,
)

from conftest import DAY, make_dataset


def seg(timestamps, span, stride):
    ds = make_dataset(np.zeros((len(timestamps), 2)), timestamps=timestamps)
    event = PseudoEvent(0, tuple(range(len(timestamps))))
    return segment_event(event, ds, span, stride), ds


def test_five_daily_posts_two_windows():
    seq, _ = seg([0, 1 * DAY, 2 * DAY, 3 * DAY, 4 * DAY], 4 * DAY, 2 * DAY)
    assert len(seq.windows) == 2
    w1, w2 = seq.windows
    assert (w1.start, w1.end) == (0, 4 * DAY)
    assert w1.members == (0, 1, 2, 3)
    assert (w2.start, w2.end) == (2 * DAY, 6 * DAY)
    assert w2.members == (2, 3, 4)


def test_single_post_single_window():
    seq, _ = seg([12345], 4 * DAY, 2 * DAY)
    assert len(seq.windows) == 1
    assert seq.windows[0].members == (0,)
    assert seq.windows[0].index == 1


def test_distant_posts_drop_empty_windows():
    # enumerate the grid by hand: generation stops at the first window that
    # covers the last post, and empty slots vanish
    seq, _ = seg([0, 100 * DAY], 4 * DAY, 2 * DAY)
    assert len(seq.windows) == 2
    first, second = seq.windows
    assert (first.start, first.end) == (0, 4 * DAY)
    assert first.members == (0,)
    assert second.members == (1,)
    assert second.start <= 100 * DAY < second.end
    assert (first.index, second.index) == (1, 2)


def test_validation_errors():
    with pytest.raises(WindowError):
        seg([0, 1], 0, 0)
    with pytest.raises(WindowError):
        seg([0, 1], 2 * DAY, 3 * DAY)
    ds = make_dataset(np.zeros((1, 2)))
    with pytest.raises(WindowError, match="no members"):
        segment_event(PseudoEvent(0, ()), ds, DAY, DAY)


def test_member_order_is_internal():
    ds = make_dataset(np.zeros((4, 2)), timestamps=[3 * DAY, 0, DAY, 2 * DAY])
    shuffled = PseudoEvent(0, (2, 0, 3, 1))
    ordered = PseudoEvent(0, (1, 2, 3, 0))
    a = segment_event(shuffled, ds, 2 * DAY, DAY)
    b = segment_event(ordered, ds, 2 * DAY, DAY)
    assert a == b


def test_t_max_local_is_member_max():
    seq, ds = seg([0, DAY, 3 * DAY], 2 * DAY, DAY)
    for w in seq.windows:
        assert w.t_max_local == max(ds.timestamps[i] for i in w.members)


def test_presets():
    def geometry(preset):
        return RunConfig({"window.preset": preset}).window_geometry()

    assert geometry("fakeddit") == (4 * DAY, 2 * DAY)
    assert geometry("ind") == (2 * DAY, 1 * DAY)
    assert geometry("covid") == (7 * DAY, 302400)
    with pytest.raises(ConfigError, match="window.preset"):
        geometry("weibo")


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 25),
    span_days=st.integers(1, 6),
)
def test_coverage_and_overlap(seed, n, span_days):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.integers(0, 30 * DAY, size=n))
    span = span_days * DAY
    seq, _ = seg(list(times), span, span // 2)

    counts = {i: 0 for i in range(n)}
    for w in seq.windows:
        assert w.members
        inside = [i for i in range(n) if w.start <= times[i] < w.end]
        assert w.members == tuple(sorted(inside, key=lambda i: (times[i], i)))
        for i in w.members:
            counts[i] += 1
    assert all(c >= 1 for c in counts.values())
    assert [w.index for w in seq.windows] == list(range(1, len(seq.windows) + 1))

    # half-overlap: posts away from the event edges sit in >= 2 windows
    t0, t_last = int(times[0]), int(times[-1])
    for i in range(n):
        if t0 + span // 2 <= times[i] < t_last - span // 2:
            assert counts[i] >= 2


def test_windows_json_roundtrip(tmp_path):
    ds = make_dataset(np.zeros((6, 2)),
                      timestamps=[0, DAY, 2 * DAY, 40 * DAY, 41 * DAY, 90 * DAY])
    events = [PseudoEvent(0, (0, 1, 2)), PseudoEvent(1, (3, 4, 5))]
    windows = segment_all(events, ds, 2 * DAY, DAY)
    path = tmp_path / "windows.json"
    save_windows(windows, path)
    payload = json.loads(path.read_text())
    assert [entry["event_id"] for entry in payload] == sorted(windows)
    for entry in payload:
        assert tuple(Window(w["index"], w["start"], w["end"], tuple(w["members"]),
                            w["t_max_local"]) for w in entry["windows"]) == \
            windows[entry["event_id"]].windows


def grid_walk(times, span, stride):
    """Every grid position in turn, empty or not: the definition."""
    times = sorted(times)
    t0, t_last = times[0], times[-1]
    k_max = 0 if t_last - t0 < span else (t_last - t0 - span) // stride + 1
    out = []
    for k in range(k_max + 1):
        start = t0 + k * stride
        inside = [i for i, t in enumerate(times) if start <= t < start + span]
        if inside:
            out.append((start, start + span, tuple(inside), times[inside[-1]]))
    return out


@settings(max_examples=200, deadline=None)
@given(
    times=st.lists(st.integers(0, 60), min_size=1, max_size=8),
    span=st.integers(1, 12),
    stride_cut=st.integers(0, 11),
)
def test_skipping_empty_positions_matches_the_grid_walk(times, span, stride_cut):
    stride = max(1, span - stride_cut)
    times = sorted(times)
    seq, _ = seg(times, span, stride)
    expected = [Window(k + 1, *w) for k, w in enumerate(grid_walk(times, span, stride))]
    assert list(seq.windows) == expected


def test_wide_event_segments_in_time_of_its_windows():
    t = time.perf_counter()
    seq, _ = seg([0, 10**11], 4 * DAY, 2 * DAY)
    assert time.perf_counter() - t < 0.1
    assert [w.members for w in seq.windows] == [(0,), (1,)]
    assert seq.windows[-1].start <= 10**11 < seq.windows[-1].end


def test_window_end_beyond_int64_is_refused():
    with pytest.raises(WindowError, match="int64"):
        seg([0, 2**62], 2**62, 2**61)
