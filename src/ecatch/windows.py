"""Overlapping fixed-span time windows over one pseudo-event.

The window grid starts at the earliest member timestamp and advances by
``stride_secs`` until the window covers the latest post; empty windows are
dropped and survivors re-indexed contiguously from 1. After an empty window
the walk jumps to the first grid position that covers the next post, so its
cost follows the number of windows, not the event's extent. With stride = span/2
consecutive grid windows overlap by 50%.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .clustering import PseudoEvent
from .data import Dataset

DAY = 86400
INT64_MAX = int(np.iinfo(np.int64).max)

# span/stride in seconds for the supported corpus layouts
PRESETS = {
    "fakeddit": (4 * DAY, 2 * DAY),
    "ind": (2 * DAY, 1 * DAY),
    "covid": (7 * DAY, 7 * DAY // 2),
}


class WindowError(ValueError):
    pass


@dataclass(frozen=True)
class Window:
    """One time slice of an event; members sorted by timestamp."""

    index: int                  # 1-based, contiguous after empty-window dropping
    start: int
    end: int                    # exclusive
    members: tuple[int, ...]
    t_max_local: int            # latest member timestamp, anchor for decay weights


@dataclass(frozen=True)
class WindowSequence:
    event_id: int
    windows: tuple[Window, ...]


def segment_event(
    event: PseudoEvent, ds: Dataset, span_secs: int, stride_secs: int
) -> WindowSequence:
    if span_secs <= 0 or stride_secs <= 0:
        raise WindowError("span and stride must be positive")
    if stride_secs > span_secs:
        raise WindowError(f"stride {stride_secs} exceeds span {span_secs}")
    if not event.member_indices:
        raise WindowError(f"event {event.event_id} has no members")

    members = sorted(event.member_indices, key=lambda i: (int(ds.timestamps[i]), i))
    times = ds.timestamps[members]
    t0 = int(times[0])
    t_last = int(times[-1])
    if t_last + span_secs > INT64_MAX:
        # searchsorted would compare such window ends as floats
        raise WindowError(f"event {event.event_id}: timestamp {t_last} plus span "
                          f"{span_secs} does not fit in int64")

    # Smallest k whose window still covers the latest post; later grid
    # positions would only duplicate its trailing content.
    extent = t_last - t0
    k_max = 0 if extent < span_secs else (extent - span_secs) // stride_secs + 1

    windows: list[Window] = []
    k = 0
    while k <= k_max:
        start = t0 + k * stride_secs
        end = start + span_secs
        lo, hi = np.searchsorted(times, (start, end))
        if lo == hi:
            # Empty: the next post is at times[lo] >= end. Grid positions
            # before the first window that reaches it are empty as well.
            k = (int(times[lo]) - span_secs - t0) // stride_secs + 1
            continue
        k += 1
        windows.append(
            Window(
                index=len(windows) + 1,
                start=start,
                end=end,
                members=tuple(members[lo:hi]),
                t_max_local=int(times[hi - 1]),
            )
        )
    return WindowSequence(event_id=event.event_id, windows=tuple(windows))


def segment_all(
    events: list[PseudoEvent], ds: Dataset, span_secs: int, stride_secs: int
) -> dict[int, WindowSequence]:
    return {
        ev.event_id: segment_event(ev, ds, span_secs, stride_secs) for ev in events
    }


def save_windows(windows: dict[int, WindowSequence], path: str | Path) -> None:
    """Write ``windows`` as JSON for reading; ``eval`` and ``predict`` rebuild
    the windows from the run's ``events.json`` instead of loading this."""
    payload = [
        {
            "event_id": seq.event_id,
            "windows": [
                {
                    "index": w.index,
                    "start": w.start,
                    "end": w.end,
                    "members": list(w.members),
                    "t_max_local": w.t_max_local,
                }
                for w in seq.windows
            ],
        }
        for seq in (windows[k] for k in sorted(windows))
    ]
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
