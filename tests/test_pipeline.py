import tracemalloc

import numpy as np
from conftest import DAY, make_dataset

from ecatch import pipeline, training
from ecatch.clustering import PseudoEvent
from ecatch.config import RunConfig
from ecatch.params import ModelParams
from ecatch.windows import segment_all


def bursty_problem(n_events=10, per_event=8, burst=60, d=8, heads=2, seed=0):
    """Keyed events of a few posts per window, plus one event whose posts all
    land in a single window, so that window's attention dominates the tape."""
    rng = np.random.default_rng(seed)
    sizes = [per_event] * n_events + [burst]
    spreads = [12 * DAY] * n_events + [DAY]  # the burst fits one 4-day window
    times = [e * 100 * DAY + np.sort(rng.integers(0, spread, size=m))
             for e, (m, spread) in enumerate(zip(sizes, spreads))]
    n = sum(sizes)
    ds = make_dataset(rng.normal(size=(n, 6)), labels=rng.integers(0, 2, size=n),
                      timestamps=np.concatenate(times), image=rng.normal(size=(n, 4)))
    bounds = np.cumsum([0] + sizes)
    events = [PseudoEvent(e, tuple(range(bounds[e], bounds[e + 1])))
              for e in range(len(sizes))]
    cfg = RunConfig({"model.d": d, "model.heads": heads,
                     "window.span_secs": 4 * DAY, "window.stride_secs": 2 * DAY})
    windows = segment_all(events, ds, *cfg.window_geometry())
    params = ModelParams.build(d, heads, ds.d_text, ds.d_img, seed=seed + 1)
    return ds, events, windows, params, cfg


def _peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scoring_keeps_no_tape():
    ds, events, windows, params, cfg = bursty_problem()
    members = sorted(len(w.members) for s in windows.values() for w in s.windows)
    assert members[-1] >= 10 * members[len(members) // 2]

    taped, taped_peak = _peak(lambda: training.run_model(ds, events, windows, params, cfg))
    (p_post, p_event), peak = _peak(
        lambda: pipeline.predictions(ds, events, windows, params, cfg))
    assert peak < taped_peak / 2, (peak, taped_peak)
    assert p_post.tobytes() == taped.p_post.tobytes()
    assert np.array(list(p_event.items())).tobytes() == \
        np.array(list(taped.p_event.items())).tobytes()
