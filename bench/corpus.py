"""Synthetic inputs of the benchmark, written in the on-disk formats ecatch reads.

Everything here is generated from the benchmark's own seeds with numpy only,
so the program under test receives nothing but these files:

* a dataset directory (``meta.json``, ``manifest.jsonl``, ``text.f32``,
  ``image.f32``) as documented in ``ecatch.data``;
* for ``score-bursty``, a checkpoint file (one JSON header line, then the
  little-endian float64 tensors) as documented in ``ecatch.training``.

Labels follow a time wave inside each event, as in the paper's setting of
misinformation arriving in bursts: the fake posts of an event occupy one
contiguous stretch of its timeline and carry a class offset on text and image
axis 0, so the training data is margin-separable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DAY = 86400
HOUR = 3600
EVENT_GAP_SECS = 120 * DAY   # keyed events never share a window
D_TEXT, D_IMG = 32, 16
MODEL_D, MODEL_HEADS = 32, 4
CHECKPOINT_SEED = 20250815   # the score-bursty checkpoint is the same for every --seed
MARGIN = 4.0
SIZES_SEED = 7               # event sizes too, so every seed gives the same amount of work


@dataclass(frozen=True)
class Corpus:
    """In-memory form of one generated dataset."""

    ids: list[str]
    labels: np.ndarray
    timestamps: np.ndarray
    text: np.ndarray
    image: np.ndarray
    has_image: np.ndarray
    event: np.ndarray          # generating event of every post

    @property
    def n(self) -> int:
        return len(self.ids)


def _wave_labels(n: int, rng: np.random.Generator) -> np.ndarray:
    """Labels of ``n`` time-sorted posts: one contiguous fake stretch."""
    share = rng.uniform(0.3, 0.7)
    width = max(1, int(round(share * n)))
    start = int(rng.integers(0, n - width + 1))
    labels = np.zeros(n, dtype=np.int64)
    labels[start:start + width] = 1
    return labels


def _sizes(n_events: int, bounds: tuple[int, int], salt: int) -> np.ndarray:
    return np.random.default_rng([SIZES_SEED, salt]).integers(bounds[0], bounds[1] + 1,
                                                              size=n_events)


def _assemble(parts: list[dict]) -> Corpus:
    cat = {k: np.concatenate([p[k] for p in parts]) for k in parts[0] if k != "ids"}
    ids = [i for p in parts for i in p["ids"]]
    return Corpus(ids, cat["labels"], cat["timestamps"], cat["text"], cat["image"],
                  cat["has_image"], cat["event"])


def _event_part(e: int, times: np.ndarray, centroid_text: np.ndarray,
                centroid_img: np.ndarray, margin: float, rng: np.random.Generator) -> dict:
    """Posts of one event at ``times`` (sorted), unit noise around the centroids.

    One post in ten has no image.
    """
    n = times.size
    labels = _wave_labels(n, rng)
    text = centroid_text + rng.normal(0.0, 1.0, size=(n, centroid_text.size))
    image = centroid_img + rng.normal(0.0, 1.0, size=(n, centroid_img.size))
    text[:, 0] += margin * labels
    image[:, 0] += margin * labels
    has_image = rng.random(n) >= 0.1
    image[~has_image] = 0.0
    return {
        "ids": [f"e{e:03d}p{j:04d}" for j in range(n)],
        "labels": labels,
        "timestamps": times.astype(np.int64),
        "text": text,
        "image": image,
        "has_image": has_image,
        "event": np.full(n, e, dtype=np.int64),
    }


def train_corpus(seed: int, n_events: int = 40,
                 posts_per_event: tuple[int, int] = (30, 63)) -> Corpus:
    """Even windows: posts spread uniformly, about 8 per 4-day window."""
    rng = np.random.default_rng([seed, 1])
    parts = []
    for e, n in enumerate(_sizes(n_events, posts_per_event, 1).tolist()):
        duration = n * 4 * DAY // 8
        times = np.sort(rng.integers(0, duration, size=n))
        parts.append(_event_part(e, times + e * EVENT_GAP_SECS, rng.normal(size=D_TEXT),
                                 rng.normal(size=D_IMG), margin=MARGIN, rng=rng))
    return _assemble(parts)


def bursty_corpus(seed: int, n_events: int = 80, posts_per_event: tuple[int, int] = (18, 30),
                  n_bursts: int = 8, burst_posts: tuple[int, int] = (110, 190)) -> Corpus:
    """Heavy-tailed windows: a sparse base stream plus a few dense bursts.

    The base stream puts about three posts into each 4-day window. A burst
    puts ``burst_posts`` posts into six hours of one event, placed a quarter
    into a 2-day stride of the event's window grid, so exactly two windows
    hold it and their size does not depend on the seed.
    """
    rng = np.random.default_rng([seed, 2])
    bursts = dict(zip(rng.choice(n_events, size=n_bursts, replace=False).tolist(),
                      _sizes(n_bursts, burst_posts, 3).tolist()))
    stride = 2 * DAY
    parts = []
    for e, n in enumerate(_sizes(n_events, posts_per_event, 2).tolist()):
        duration = n * 4 * DAY // 3
        times = rng.integers(0, duration, size=n)
        times[:2] = 0, duration - 1      # the window grid spans exactly [0, duration)
        if e in bursts:
            # Strides 1 .. last-2: both windows over the burst are on the grid.
            at = int(rng.integers(1, (duration - 1) // stride - 1)) * stride + stride // 4
            times = np.concatenate([times, at + rng.integers(0, 6 * HOUR, size=bursts[e])])
        parts.append(_event_part(e, np.sort(times) + e * EVENT_GAP_SECS, rng.normal(size=D_TEXT),
                                 rng.normal(size=D_IMG), margin=MARGIN, rng=rng))
    return _assemble(parts)


def cluster_corpus(seed: int, n_events: int = 24,
                   posts_per_event: tuple[int, int] = (190, 260)) -> Corpus:
    """Overlapping Gaussian events on one shared timeline, stored shuffled.

    Events overlap in text space, so the linkage rule decides the partition,
    and in time, so a mixed cluster still spans only a few months of windows.
    """
    rng = np.random.default_rng([seed, 3])
    parts = []
    for e, n in enumerate(_sizes(n_events, posts_per_event, 4).tolist()):
        duration = n * 4 * DAY // 8
        times = np.sort(rng.integers(0, duration, size=n))
        parts.append(_event_part(e, times, rng.normal(size=D_TEXT), rng.normal(size=D_IMG),
                                 margin=0.0, rng=rng))
    corpus = _assemble(parts)
    # Shuffle the manifest so clustering cannot ride on storage order.
    return _permute(corpus, rng.permutation(corpus.n))


def _permute(c: Corpus, order: np.ndarray) -> Corpus:
    return Corpus([c.ids[i] for i in order], c.labels[order], c.timestamps[order],
                  c.text[order], c.image[order], c.has_image[order], c.event[order])


def write_corpus(c: Corpus, directory: Path, event_key: bool) -> None:
    """Write ``c`` as a dataset directory; ``event_key`` adds the manifest key."""
    directory.mkdir(parents=True, exist_ok=True)
    meta = {"n_posts": c.n, "d_text": c.text.shape[1], "d_img": c.image.shape[1],
            "format_version": 1}
    (directory / "meta.json").write_text(json.dumps(meta) + "\n")
    with (directory / "manifest.jsonl").open("w") as fh:
        for i in range(c.n):
            row = {"id": c.ids[i], "label": int(c.labels[i]),
                   "timestamp": int(c.timestamps[i]), "has_image": bool(c.has_image[i])}
            if event_key:
                row["event"] = int(c.event[i])
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")
    c.text.astype("<f4").tofile(directory / "text.f32")
    c.image.astype("<f4").tofile(directory / "image.f32")


def checkpoint_tensors(d: int = MODEL_D, heads: int = MODEL_HEADS, d_text: int = D_TEXT,
                       d_img: int = D_IMG, seed: int = CHECKPOINT_SEED) -> dict[str, np.ndarray]:
    """Fixed parameters in the checkpoint's tensor order; biases are non-zero."""
    dh = d // heads
    shapes: dict[str, tuple[int, ...]] = {
        "fusion.W_text": (d, d_text), "fusion.b_text": (d,),
        "fusion.W_img": (d, d_img), "fusion.b_img": (d,),
    }
    for block in ("att_text", "att_img", "att_ti", "att_it"):
        for w in ("Wq", "Wk", "Wv"):
            shapes[f"fusion.{block}.{w}"] = (heads, d, dh)
        shapes[f"fusion.{block}.Wo"] = (d, d)
        shapes[f"fusion.{block}.W_out"] = (d, d)
        shapes[f"fusion.{block}.b_out"] = (d,)
    shapes["fusion.W_g"] = (d, 2 * d)
    shapes["fusion.b_g"] = (d,)
    for gate in ("i", "f", "o", "c"):
        shapes[f"lstm.W_{gate}"] = (d, 2 * d + 1)
        shapes[f"lstm.U_{gate}"] = (d, d)
        shapes[f"lstm.b_{gate}"] = (d,)
    shapes["clf.W_c"] = (1, d)
    shapes["clf.b_c"] = (1,)

    rng = np.random.default_rng(seed)
    out = {}
    for name, shape in shapes.items():
        if len(shape) == 1:
            out[name] = rng.uniform(-0.1, 0.1, size=shape)
        else:
            bound = np.sqrt(6.0 / (shape[-1] + shape[-2]))
            out[name] = rng.uniform(-bound, bound, size=shape)
    return out


def write_checkpoint(tensors: dict[str, np.ndarray], path: Path, d: int = MODEL_D,
                     heads: int = MODEL_HEADS) -> None:
    header = {"format_version": 1, "d": d, "H": heads,
              "names": [{"name": n, "shape": list(t.shape)} for n, t in tensors.items()]}
    with path.open("wb") as fh:
        fh.write(json.dumps(header, separators=(",", ":")).encode() + b"\n")
        for t in tensors.values():
            fh.write(np.ascontiguousarray(t, dtype="<f8").tobytes())
