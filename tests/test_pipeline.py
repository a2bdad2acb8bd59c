import tracemalloc

import numpy as np
import pytest
from conftest import DAY, make_dataset
from hypothesis import given, settings
from hypothesis import strategies as st

from ecatch import autodiff, fusion, pipeline, training
from ecatch.clustering import PseudoEvent
from ecatch.config import RunConfig
from ecatch.metrics import evaluate
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


def test_scoring_keeps_no_tape(monkeypatch):
    ds, events, windows, params, cfg = bursty_problem()
    members = sorted(len(w.members) for s in windows.values() for w in s.windows)
    assert members[-1] >= 10 * members[len(members) // 2]

    taped, taped_peak = _peak(lambda: training.run_model(ds, events, windows, params, cfg))
    made = []
    init = autodiff.Tensor.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(autodiff.Tensor, "__init__", recorded)
    (p_post, p_event), peak = _peak(
        lambda: pipeline.predictions(ds, events, windows, params, cfg))
    assert made
    assert all(t._parents == () and t._vjp is None for t in made)
    assert peak < taped_peak, (peak, taped_peak)
    assert p_post.tobytes() == taped.p_post.tobytes()
    assert np.array(list(p_event.items())).tobytes() == \
        np.array(list(taped.p_event.items())).tobytes()


def _owner(a):
    """The array that owns the memory of ``a``."""
    return a.base if isinstance(a.base, np.ndarray) else a


def _arrays(value, seen):
    """The arrays in ``value``, through tuples, lists and the closures of
    functions, nested ones included."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from _arrays(v, seen)
    elif callable(value) and id(value) not in seen:
        seen.add(id(value))
        for cell in getattr(value, "__closure__", None) or ():
            yield from _arrays(cell.cell_contents, seen)


def _tape_buffers(*roots):
    """The distinct buffers that the tape under ``roots`` reaches, parameters
    aside: the data of its non-leaf nodes and the arrays its VJPs hold."""
    nodes, stack, seen = [], list(roots), set()
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            nodes.append(t)
            stack.extend(t._parents)
    leaves = {id(_owner(t.data)) for t in nodes if not t._parents}
    held, closures = {}, set()
    for a in [t.data for t in nodes if t._parents] + list(_arrays([t._vjp for t in nodes],
                                                                    closures)):
        if id(_owner(a)) not in leaves:
            held[id(_owner(a))] = _owner(a)
    return list(held.values())


def _holds_rows_of(buffer, table):
    """Whether ``buffer`` is made of whole rows of the matrix ``table``."""
    if buffer.dtype != table.dtype or buffer.shape[-1] != table.shape[1]:
        return False
    rows = buffer.reshape(-1, table.shape[1])
    return bool((rows[:, None, :] == table[None]).all(axis=-1).any(axis=-1).all())


def test_tape_keeps_probabilities_not_projections_head_outputs_or_encoder_rows():
    # An attention stage keeps only its softmax probabilities for its VJP,
    # which rebuilds the q/k/v projections, the head outputs and the encoder
    # rows; the gate's fused rows are not kept at all. With one node per
    # stage the tape held 408,384 B here, 2,244 B per window membership.
    ds, events, windows, params, cfg = bursty_problem()
    out = training.run_model(ds, events, windows, params, cfg)
    held = _tape_buffers(out.states)
    assert sum(b.nbytes for b in held) <= 408_384
    assert not [b.shape for b in held if b.shape[-1] == 3 * params.d]
    assert not [b.shape for b in held
                if _holds_rows_of(b, ds.text) or _holds_rows_of(b, ds.image)]
    # the probabilities of the 60-post burst window, both modalities
    assert any(b.shape[-2:] == (60, 60) for b in held)



def test_overflow_raises_naming_the_first_event_instead_of_scoring_nan():
    ds, events, windows, params, cfg = bursty_problem()
    # the posts of event 4 alone overflow: it is the first event that fails
    text = ds.text.copy()
    text[list(events[4].member_indices)] *= 1e300
    ds = make_dataset(text, labels=ds.labels, timestamps=ds.timestamps, image=ds.image)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(pipeline.ScoringError, match=r"^event 4: .*not finite"):
            pipeline.predictions(ds, events, windows, params, cfg)
        for _, t in params.items():
            t.data = t.data * 1e200
        with pytest.raises(pipeline.ScoringError, match=r"^event 0: .*not finite"):
            pipeline.predictions(ds, events, windows, params, cfg)

def test_predictions_dimension_mismatch():
    ds, events, windows, params, cfg = bursty_problem()
    narrow = ModelParams.build(params.d, params.heads, ds.d_text - 1, ds.d_img)
    with pytest.raises(fusion.FusionError, match="d_text"):
        pipeline.predictions(ds, events, windows, narrow, cfg)


def test_one_width_check_per_pass(monkeypatch):
    ds, events, windows, params, cfg = bursty_problem()
    assert len(fusion.window_groups([w for s in windows.values() for w in s.windows])) > 2
    calls = []

    def counted(*args):
        calls.append(args)
        return check_dims(*args)

    check_dims = training.check_dims
    # the name run_model looks up, and the one a per-chunk check would
    monkeypatch.setattr(training, "check_dims", counted)
    monkeypatch.setattr(fusion, "check_dims", counted)
    pipeline.predictions(ds, events, windows, params, cfg)
    assert calls == [(ds, params)]


def looped_event_level(ds, indices, p_event, events, threshold):
    """The event-level aggregate, one event and one post at a time."""
    selected = set(int(i) for i in indices)
    probs, labels = [], []
    for ev in events:
        members = [i for i in ev.member_indices if i in selected]
        if members:
            probs.append(p_event[ev.event_id])
            labels.append(int(np.mean([ds.labels[i] for i in members]) >= 0.5))
    if not probs:
        return None
    return evaluate(np.asarray(probs), np.asarray(labels), threshold).as_dict()


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=8),
       share=st.sampled_from([0.0, 0.2, 0.5, 1.0]), seed=st.integers(0, 10_000))
def test_event_level_counts_match_the_per_event_loop(sizes, share, seed):
    # Some events have no selected post, some tie between the labels.
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    ds = make_dataset(rng.normal(size=(n, 2)), labels=rng.integers(0, 2, size=n))
    order = rng.permutation(n)
    bounds = np.cumsum([0] + sizes)
    events = [PseudoEvent(int(e), tuple(int(i) for i in order[a:b]))
              for e, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))]
    indices = np.sort(rng.choice(n, size=max(1, int(share * n)), replace=False))
    p_post = rng.random(n)
    p_event = {ev.event_id: float(rng.random()) for ev in events}
    report = pipeline.evaluate_posts_and_events(ds, indices, p_post, p_event, events, 0.5)
    assert report == {
        "post_level": evaluate(p_post[indices], ds.labels[indices], 0.5).as_dict(),
        "event_level": looped_event_level(ds, indices, p_event, events, 0.5),
    }
