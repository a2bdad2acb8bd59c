"""Synthetic dataset generator with controllable structure.

Each event draws text/image centroids; each post draws an independent
Bernoulli(pi) label and Gaussian features around its centroid, offset by
margin * e0 when fake. The margin also controls how strongly the labels
separate in time inside an event: fake posts arrive as a contiguous wave at
a random position in the event timeline, and authentic posts increasingly
vacate that wave as the margin grows. At margin 0 both classes are uniform
over the event, so labels are independent of every feature; at margin >= 4
the wave is fully separated and sized by prevalence, keeping overall post
density uniform. Timestamp density targets a handful of posts per
default-span window. Modality conflict flips the image-side class direction
with probability kappa. Everything is reproducible from the seed via
per-event child seeds.

The bytes written depend on the order of the draws. Each event's generator
draws, in turn: the post count n, the n labels, the draws of
_time_fractions, the text and image centroids, the n modality flips, the n
missing-image flags, and last one (n, d_text + d_img) noise block whose
first d_text columns are the text noise and the rest the image noise.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .config import (NON_NEGATIVE, OPEN_UNIT_INTERVAL, SIZE, UNIT_INTERVAL, ConfigError,
                     check_value)
from .data import Dataset
from .windows import PRESETS

SPAN_SECS, STRIDE_SECS = PRESETS["fakeddit"]
TARGET_POSTS_PER_SPAN = 8      # keeps window occupancy inside 3..20
EVENT_GAP_SECS = 90 * 86400
NOISE_SIGMA = 1.0
FULL_SPLIT_MARGIN = 4.0        # margin at which the fake wave is fully separated
MAX_ARRAY_BYTES = int(np.iinfo(np.intp).max)  # numpy refuses any larger array


class SynthError(ConfigError):
    pass


# bound of each field but posts_per_event; its type is that of its default
_BOUNDS = {
    "n_events": SIZE,
    "d_text": SIZE,
    "d_img": SIZE,
    "imbalance": OPEN_UNIT_INTERVAL,
    "margin": NON_NEGATIVE,
    "drift": NON_NEGATIVE,
    "modality_conflict": UNIT_INTERVAL,
    "missing_image": UNIT_INTERVAL,
    "seed": NON_NEGATIVE,
}


@dataclass(frozen=True)
class SynthSpec:
    n_events: int = 10
    posts_per_event: tuple[int, int] = (30, 60)
    d_text: int = 32
    d_img: int = 16
    imbalance: float = 0.5            # P(label = 1)
    margin: float = 2.0               # class separation in feature and time
    drift: float = 0.0                # per-window centroid shift magnitude
    modality_conflict: float = 0.0    # P(image drawn from the opposite class)
    missing_image: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        self.from_dict(asdict(self))

    @classmethod
    def from_dict(cls, raw: dict) -> "SynthSpec":
        """A spec with each field checked; a float field given an int holds a float.

        The largest (posts, width) float64 array of the dataset must fit numpy.
        """
        if not isinstance(raw, dict):
            raise SynthError("spec must hold a JSON object")
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise SynthError(f"unknown spec fields: {sorted(unknown)}")
        values = {}
        for name, value in raw.items():
            if name != "posts_per_event":
                kind = type(cls.__dataclass_fields__[name].default)
                values[name] = check_value(name, value, kind, _BOUNDS[name], SynthError)
                continue
            if not (isinstance(value, (list, tuple)) and len(value) == 2):
                raise SynthError("posts_per_event must be a [min, max] pair")
            lo, hi = (check_value(name, v, int, SIZE, SynthError) for v in value)
            if hi < lo:
                raise SynthError(f"posts_per_event: max {hi} is below min {lo}")
            values[name] = (lo, hi)
        spec = cls(**values)
        size = spec.n_events * spec.posts_per_event[1] * max(spec.d_text, spec.d_img) * 8
        if size > MAX_ARRAY_BYTES:
            raise SynthError(
                f"n_events * posts_per_event[1] * max(d_text, d_img) * 8 = {size} bytes "
                f"exceeds numpy's maximum array size of {MAX_ARRAY_BYTES} bytes")
        return spec


def _separation(margin: float) -> float:
    return min(1.0, margin / FULL_SPLIT_MARGIN)


def _time_fractions(labels: np.ndarray, sep: float, pi: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Event-relative time in [0, 1] per post, wave-structured by label.

    Fake posts fall uniformly in a wave [c, c + w] with w = 1 - sep*(1 - pi)
    and random position c. Authentic posts draw from the wave's complement
    with probability sep and uniformly otherwise, so sep=0 makes both classes
    uniform (labels independent of time) and sep=1 makes them disjoint with
    uniform overall density.
    """
    n = labels.size
    width = 1.0 - sep * (1.0 - pi)
    c = float(rng.uniform(0.0, 1.0)) * (1.0 - width)
    u = rng.random(n)
    avoid = rng.random(n) < sep
    frac = np.empty(n)

    fake = labels == 1
    frac[fake] = c + u[fake] * width
    outside = u * (1.0 - width)
    outside = np.where(outside < c, outside, outside + width)
    frac[~fake] = np.where(avoid[~fake], outside[~fake], u[~fake])
    return frac


def generate(spec: SynthSpec) -> tuple[Dataset, dict]:
    """Build an in-memory Dataset plus the ground-truth generative record."""
    spec.validate()
    children = np.random.SeedSequence(spec.seed).spawn(spec.n_events)
    lo, hi = spec.posts_per_event
    sep = _separation(spec.margin)
    drift_axis_text = min(1, spec.d_text - 1)
    drift_axis_img = min(1, spec.d_img - 1)

    ids: list[str] = []
    extra: list[dict] = []
    parts: list[tuple[np.ndarray, ...]] = []  # per event, in Dataset's argument order
    truth_events: list[dict] = []

    for e in range(spec.n_events):
        rng = np.random.default_rng(children[e])
        n = int(rng.integers(lo, hi + 1))
        t0 = e * EVENT_GAP_SECS
        duration = max(1, n * SPAN_SECS // TARGET_POSTS_PER_SPAN)

        labels = (rng.random(n) < spec.imbalance).astype(np.int64)
        frac = _time_fractions(labels, sep, spec.imbalance, rng)
        times = (duration * frac).astype(np.int64)

        order = np.argsort(times, kind="stable")
        times = times[order]
        labels = labels[order]

        centroid_text = rng.normal(0.0, 1.0, size=spec.d_text)
        centroid_img = rng.normal(0.0, 1.0, size=spec.d_img)
        flip = rng.random(n) < spec.modality_conflict
        missing = rng.random(n) < spec.missing_image
        noise = rng.normal(0.0, NOISE_SIGMA, size=(n, spec.d_text + spec.d_img))

        window_ord = times // STRIDE_SECS
        text = centroid_text + noise[:, :spec.d_text]
        text[:, 0] += spec.margin * labels
        text[:, drift_axis_text] += spec.drift * window_ord
        image = centroid_img + noise[:, spec.d_text:]
        image[:, 0] += spec.margin * np.where(flip, 1 - labels, labels)
        image[:, drift_axis_img] += spec.drift * window_ord
        image[missing] = 0.0

        ids += [f"e{e:03d}p{j:03d}" for j in range(n)]
        extra += [{"event": e} for _ in range(n)]
        parts.append((labels, times + t0, text, image, ~missing))
        truth_events.append({
            "event_id": e,
            "n_posts": n,
            "t0": int(t0),
            "duration": int(duration),
            "centroid_text": [float(v) for v in centroid_text],
            "centroid_img": [float(v) for v in centroid_img],
        })

    ds = Dataset(ids, *(np.concatenate(column) for column in zip(*parts)), extra=extra)
    truth = {
        "spec": asdict(spec),
        "wave_separation": sep,
        "class_axis": 0,
        "events": truth_events,
    }
    return ds, truth


def write_ground_truth(truth: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(truth, indent=2) + "\n")
