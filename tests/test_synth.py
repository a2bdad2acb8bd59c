import json

import numpy as np
import pytest

from ecatch.clustering import pass_through_events
from ecatch.data import load_dataset, write_dataset
from ecatch.metrics import auc_roc
from ecatch.synth import (EVENT_GAP_SECS, NOISE_SIGMA, SPAN_SECS, STRIDE_SECS,
                          TARGET_POSTS_PER_SPAN, SynthError, SynthSpec, _separation,
                          _time_fractions, generate)
from ecatch.windows import segment_all


def test_deterministic_bytes(tmp_path):
    spec = SynthSpec(n_events=3, posts_per_event=(10, 20), d_text=8, d_img=4,
                     missing_image=0.3, modality_conflict=0.2, seed=42)
    a, b = tmp_path / "a", tmp_path / "b"
    write_dataset(generate(spec)[0], a)
    write_dataset(generate(spec)[0], b)
    for name in ("meta.json", "manifest.jsonl", "text.f32", "image.f32"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def _per_post_reference(spec: SynthSpec):
    """generate() one post at a time: after the event's other draws, each post
    draws its text noise and then its image noise."""
    lo, hi = spec.posts_per_event
    sep = _separation(spec.margin)
    posts, truth_events = [], []
    for e, child in enumerate(np.random.SeedSequence(spec.seed).spawn(spec.n_events)):
        rng = np.random.default_rng(child)
        n = int(rng.integers(lo, hi + 1))
        t0 = e * EVENT_GAP_SECS
        duration = max(1, n * SPAN_SECS // TARGET_POSTS_PER_SPAN)
        labels = (rng.random(n) < spec.imbalance).astype(np.int64)
        times = (duration * _time_fractions(labels, sep, spec.imbalance, rng)).astype(np.int64)
        order = np.argsort(times, kind="stable")
        times, labels = times[order], labels[order]
        centroid_text = rng.normal(0.0, 1.0, size=spec.d_text)
        centroid_img = rng.normal(0.0, 1.0, size=spec.d_img)
        flip = rng.random(n) < spec.modality_conflict
        missing = rng.random(n) < spec.missing_image
        for j in range(n):
            y, window_ord = int(labels[j]), int(times[j] // STRIDE_SECS)
            text = centroid_text + rng.normal(0.0, NOISE_SIGMA, size=spec.d_text)
            text[0] += spec.margin * y
            text[min(1, spec.d_text - 1)] += spec.drift * window_ord
            image = centroid_img + rng.normal(0.0, NOISE_SIGMA, size=spec.d_img)
            image[0] += spec.margin * (1 - y if flip[j] else y)
            image[min(1, spec.d_img - 1)] += spec.drift * window_ord
            if missing[j]:
                image = np.zeros(spec.d_img)
            posts.append((f"e{e:03d}p{j:03d}", y, int(times[j]) + t0, text, image,
                          not missing[j], {"event": e}))
        truth_events.append({
            "event_id": e, "n_posts": n, "t0": t0, "duration": duration,
            "centroid_text": centroid_text.tolist(), "centroid_img": centroid_img.tolist(),
        })
    truth = {"spec": {**spec.__dict__, "posts_per_event": [lo, hi]},
             "wave_separation": sep, "class_axis": 0, "events": truth_events}
    return [list(column) for column in zip(*posts)], truth


# the command-line defaults, the CI spec, one- and three-post events of width 1,
# and every post flipped and imageless
DRAW_ORDER_SPECS = [
    {},
    {"n_events": 40, "posts_per_event": [40, 55], "seed": 4},
    {"n_events": 7, "posts_per_event": [1, 3], "d_text": 1, "d_img": 1, "drift": 0.7,
     "modality_conflict": 0.4, "missing_image": 0.3, "margin": 5.0, "imbalance": 0.2,
     "seed": 9},
    {"n_events": 5, "posts_per_event": [20, 90], "d_text": 3, "d_img": 2, "drift": 2.0,
     "modality_conflict": 1.0, "missing_image": 1.0, "seed": 123},
]


@pytest.mark.parametrize("raw", DRAW_ORDER_SPECS)
def test_draw_order_matches_the_per_post_reference(raw):
    # The written bytes depend on the order of the draws, so it is pinned here.
    spec = SynthSpec.from_dict(raw)
    ds, truth = generate(spec)
    (ids, labels, timestamps, text, image, has_image, extra), want = _per_post_reference(spec)
    assert ds.ids == ids and ds.extra == extra
    for got, rows, dtype in ((ds.labels, labels, np.int64),
                             (ds.timestamps, timestamps, np.int64),
                             (ds.text, text, np.float64), (ds.image, image, np.float64),
                             (ds.has_image, has_image, bool)):
        expected = np.asarray(rows, dtype=dtype)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
    assert json.dumps(truth, indent=2) == json.dumps(want, indent=2)


def test_generated_directory_loads_clean(tmp_path):
    spec = SynthSpec(n_events=4, posts_per_event=(5, 15), d_text=6, d_img=3,
                     imbalance=0.3, margin=1.0, drift=0.2, missing_image=0.5,
                     modality_conflict=0.5, seed=1)
    ds, truth = generate(spec)
    write_dataset(ds, tmp_path)
    loaded = load_dataset(tmp_path)
    assert loaded.n == ds.n
    np.testing.assert_allclose(loaded.text, ds.text, atol=1e-6)
    assert len(truth["events"]) == 4


def test_event_key_enables_pass_through():
    ds, _ = generate(SynthSpec(n_events=5, posts_per_event=(4, 8), seed=2))
    events = pass_through_events(ds, "event")
    assert len(events) == 5


def test_imbalance_converges():
    spec = SynthSpec(n_events=100, posts_per_event=(100, 100), d_text=4, d_img=2,
                     imbalance=0.2, seed=3)
    ds, _ = generate(spec)
    assert ds.n == 10_000
    assert abs(ds.labels.mean() - 0.2) <= 0.02


def test_positive_count_within_binomial_interval():
    # N=1000, pi=0.2: central 99% binomial interval
    spec = SynthSpec(n_events=20, posts_per_event=(50, 50), d_text=4, d_img=2,
                     imbalance=0.2, seed=4)
    ds, _ = generate(spec)
    assert ds.n == 1000
    assert 158 <= int(ds.labels.sum()) <= 243


def _probe_auc(x, y):
    """Least-squares linear probe, scored on its training data."""
    design = np.hstack([x, np.ones((x.shape[0], 1))])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return auc_roc(design @ coef, y)


def test_margin_zero_labels_independent_of_features():
    spec = SynthSpec(n_events=10, posts_per_event=(80, 80), d_text=8, d_img=4,
                     imbalance=0.5, margin=0.0, modality_conflict=0.0, seed=5)
    ds, truth = generate(spec)
    assert truth["wave_separation"] == 0.0
    features = np.hstack([ds.text, ds.timestamps[:, None].astype(float)])
    assert abs(_probe_auc(features, ds.labels) - 0.5) < 0.08


def test_large_margin_text_probe_separates():
    spec = SynthSpec(n_events=6, posts_per_event=(60, 60), d_text=8, d_img=4,
                     imbalance=0.5, margin=10.0, modality_conflict=0.0, seed=6)
    ds, _ = generate(spec)
    scores = _probe_auc(ds.text, ds.labels)
    preds = None
    design = np.hstack([ds.text, np.ones((ds.n, 1))])
    coef, *_ = np.linalg.lstsq(design, ds.labels, rcond=None)
    preds = (design @ coef) >= 0.5
    accuracy = (preds == ds.labels).mean()
    assert accuracy >= 0.99
    assert scores > 0.999


def test_modality_conflict_flips_image_side():
    base = dict(n_events=6, posts_per_event=(60, 60), d_text=6, d_img=6,
                imbalance=0.5, margin=6.0, seed=7)
    clean, _ = generate(SynthSpec(**base, modality_conflict=0.0))
    flipped, _ = generate(SynthSpec(**base, modality_conflict=1.0))
    # image axis 0 correlates with the label in opposite directions
    def corr(ds):
        x = ds.image[:, 0]
        y = ds.labels.astype(float)
        return np.corrcoef(x, y)[0, 1]
    assert corr(clean) > 0.5
    assert corr(flipped) < -0.5


def test_missing_image_fraction():
    ds, _ = generate(SynthSpec(n_events=10, posts_per_event=(50, 50),
                               missing_image=0.4, seed=8))
    frac = 1.0 - ds.has_image.mean()
    assert abs(frac - 0.4) < 0.08
    assert np.all(ds.image[~ds.has_image] == 0.0)


def test_window_occupancy_in_target_band():
    ds, _ = generate(SynthSpec(n_events=8, posts_per_event=(40, 80), seed=9))
    events = pass_through_events(ds, "event")
    windows = segment_all(events, ds, SPAN_SECS, SPAN_SECS // 2)
    sizes = [len(w.members) for seq in windows.values() for w in seq.windows]
    assert 3 <= np.median(sizes) <= 20
    assert np.mean(sizes) < 25


def test_spec_validation():
    with pytest.raises(SynthError):
        SynthSpec(imbalance=0.0).validate()
    with pytest.raises(SynthError):
        SynthSpec(posts_per_event=(5, 2)).validate()
    with pytest.raises(SynthError):
        SynthSpec(missing_image=1.5).validate()
    with pytest.raises(SynthError):
        SynthSpec(n_events=0).validate()


def test_spec_from_dict_rejects_unknown_fields():
    with pytest.raises(SynthError, match="unknown spec fields"):
        SynthSpec.from_dict({"n_events": 2, "bogus": 1})
    spec = SynthSpec.from_dict({"n_events": 2, "posts_per_event": [3, 5], "margin": 4})
    assert spec.posts_per_event == (3, 5)
    assert type(spec.margin) is float


def test_spec_sizes_fit_int64_and_seeds_any_size():
    top = 2 ** 63 - 1
    assert SynthSpec.from_dict({"seed": 2 ** 64}).seed == 2 ** 64
    # each size is also bounded by the largest draw's float64 rows, which must
    # fit one numpy array: at most 2**63 - 1 bytes, (2**60 - 1) * 8 here
    fits = 2 ** 60 - 1
    ones = {"n_events": 1, "d_text": 1, "d_img": 1, "posts_per_event": [1, 1]}
    for field in ("n_events", "d_text", "d_img", "posts_per_event"):
        for size, accepted in ((fits, True), (fits + 1, False), (top, False)):
            raw = {**ones, field: [1, size] if field == "posts_per_event" else size}
            if accepted:
                SynthSpec.from_dict(raw)
                continue
            with pytest.raises(SynthError, match=(
                    r"^n_events \* posts_per_event\[1\] \* max\(d_text, d_img\) \* 8 = "
                    f"{size * 8} bytes exceeds numpy's maximum array size")):
                SynthSpec.from_dict(raw)
    for field in ("n_events", "d_text", "d_img"):
        with pytest.raises(SynthError, match=f"^{field}: must be in"):
            SynthSpec.from_dict({field: 2 ** 63})
    with pytest.raises(SynthError, match="^posts_per_event: must be in"):
        SynthSpec.from_dict({"posts_per_event": [1, 2 ** 63]})
