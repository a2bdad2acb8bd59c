"""Overlapping fixed-span time windows over one pseudo-event.

The window grid starts at the earliest member timestamp and advances by
``stride_secs`` until the window covers the latest post; empty windows are
dropped and survivors re-indexed contiguously from 1. With stride = span/2
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

    def last_window_of(self) -> dict[int, int]:
        """Map post index -> index of the last window containing it."""
        out: dict[int, int] = {}
        for w in self.windows:
            for i in w.members:
                out[i] = w.index
        return out


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
    times = np.asarray([ds.timestamps[i] for i in members], dtype=np.int64)
    t0 = int(times[0])
    t_last = int(times[-1])

    # Smallest k whose window still covers the latest post; later grid
    # positions would only duplicate its trailing content.
    extent = t_last - t0
    k_max = 0 if extent < span_secs else (extent - span_secs) // stride_secs + 1

    windows: list[Window] = []
    for k in range(k_max + 1):
        start = t0 + k * stride_secs
        end = start + span_secs
        sel = [m for m, t in zip(members, times) if start <= t < end]
        if not sel:
            continue
        windows.append(
            Window(
                index=len(windows) + 1,
                start=start,
                end=end,
                members=tuple(sel),
                t_max_local=int(max(ds.timestamps[i] for i in sel)),
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


def load_windows(path: str | Path) -> dict[int, WindowSequence]:
    payload = json.loads(Path(path).read_text())
    out: dict[int, WindowSequence] = {}
    for entry in payload:
        windows = tuple(
            Window(
                index=int(w["index"]),
                start=int(w["start"]),
                end=int(w["end"]),
                members=tuple(int(i) for i in w["members"]),
                t_max_local=int(w["t_max_local"]),
            )
            for w in entry["windows"]
        )
        out[int(entry["event_id"])] = WindowSequence(int(entry["event_id"]), windows)
    return out
