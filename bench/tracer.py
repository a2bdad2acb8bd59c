"""Spans and counters around ecatch's layers, installed from outside the package.

Each layer's public function is replaced, for the length of one traced round,
by a wrapper under the name its caller looks up (``run_model`` calls
``ecatch.training.fuse_window``, so that is the name wrapped). A span holds
its name, start, end and parent, so a layer's self time is its duration minus
the time its children cover. Spans stay in memory until the round ends.

A name that a later version of the package no longer has is skipped, and the
metrics of its layer are reported as absent.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from collections import Counter, defaultdict

MB = 1024.0 * 1024.0


class Tracer:
    """Spans plus counters for one traced round."""

    def __init__(self):
        self.spans: list[list] = []          # [id, name, parent, start, end]
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._unit: str | None = None        # "epoch" inside train, "pass" inside predictions
        self._outputs = None                 # last ModelOutputs, kept for the tape walk
        self._gc_start = 0.0

    # -- spans ---------------------------------------------------------------
    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, name, parent, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` by a spanned call; hooks run outside the span."""
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.add(name)
            return

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            sid = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(sid)
            if after is not None:
                after(result, args)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- counters --------------------------------------------------------------
    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] += n

    def unit_count(self, key: str, n: float = 1) -> None:
        """Autodiff counters are kept per epoch of training or per scoring pass."""
        if self._unit is not None:
            self.counts[f"{self._unit}:{key}"] += n

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        self.unit_count("gc_pause_s", time.perf_counter() - self._gc_start)
        if info["generation"] == 2:
            self.unit_count("gc_full_collections")
            self.unit_count("gc_full_collected", info["collected"])

    def walk_tape(self, *roots) -> None:
        """Count the Tensors reachable from ``roots``, in a span of its own."""
        sid = self.open("bench.tape_walk")
        self.unit_count("tape_nodes", tape_size(roots))
        self.close(sid)

    # -- installation ----------------------------------------------------------
    def install(self, ecatch) -> None:
        """Wrap every layer boundary the workloads cross."""
        data, pipeline, training, clustering, autodiff = (
            ecatch.data, ecatch.pipeline, ecatch.training, ecatch.clustering, ecatch.autodiff)

        self.wrap(data, "load_dataset", "data.load_dataset")
        self.wrap(pipeline, "build_structure", "pipeline.build_structure")
        self.wrap(pipeline, "cluster_events", "clustering.cluster_events")
        self.wrap(clustering, "cosine_distances", "clustering.cosine_distances")
        self.wrap(clustering, "agglomerate", "clustering.agglomerate",
                  after=lambda out, a: self.count("clustering.merges", a[0].shape[0] - len(out)))
        self.wrap(pipeline, "segment_all", "windows.segment_all", after=self._windows)

        self.wrap(training, "train", "training.train",
                  before=lambda a: self._set_unit("epoch"), after=self._end_unit)
        self.wrap(training, "forward", "training.forward", after=self._after_forward)
        self.wrap(training, "backward", "training.backward")
        self.wrap(training, "clip_gradients", "training.clip_gradients")
        for cls in ("Adam", "Sgd"):
            if hasattr(training, cls):
                self.wrap(getattr(training, cls), "step", "training.optimizer_step")
        self.wrap(training, "run_model", "training.run_model", after=self._keep_outputs)
        self.wrap(pipeline, "run_model", "training.run_model", after=self._keep_outputs)
        self.wrap(training, "fuse_window", "fusion.fuse_window", after=self._fused)
        self.wrap(training, "encode_event", "trend.encode_event",
                  after=lambda out, a: self.count("trend.lstm_steps", len(a[0])))
        self.wrap(training, "post_probabilities", "objective.post_probabilities")
        self.wrap(training, "ce_terms", "objective.ce_terms",
                  after=lambda out, a: self.count("objective.ce_terms", len(out[0])))
        self.wrap(training, "tc_terms", "objective.tc_terms")
        self.wrap(training, "mine_hard_examples", "objective.mine_hard_examples",
                  after=lambda out, a: self.count("objective.mined_terms", len(out)))

        self.wrap(pipeline, "predictions", "pipeline.predictions",
                  before=lambda a: self._set_unit(self._unit or "pass"),
                  after=self._after_predictions)
        self.wrap(pipeline, "evaluate_posts_and_events", "pipeline.evaluate_posts_and_events")

        tensor = getattr(autodiff, "Tensor", None)
        matmul = getattr(tensor, "__matmul__", None)
        if matmul is None:
            self.absent.add("autodiff.matmuls")
        else:
            def counted(a, b):
                self.unit_count("matmuls")
                return matmul(a, b)
            tensor.__matmul__ = counted
            self._patches.append((tensor, "__matmul__", matmul))
        gc.callbacks.append(self._on_gc)

    # -- hooks -----------------------------------------------------------------
    def _set_unit(self, unit: str) -> None:
        if unit == "pass" and self._unit is None:
            self.count("pipeline.passes")
        self._unit = unit

    def _end_unit(self, out, args) -> None:
        self._unit = None

    def _windows(self, out, args) -> None:
        sizes = [len(w.members) for seq in out.values() for w in seq.windows]
        self.count("windows.windows", len(sizes))
        self.count("windows.memberships", sum(sizes))
        self.counts["windows.max_members"] = max(self.counts["windows.max_members"],
                                                 max(sizes, default=0))

    def _fused(self, out, args) -> None:
        n = len(args[2].members)
        self.count("fusion.fuse_window_calls")
        self.count("fusion.attention_pairs", n * n)

    def _keep_outputs(self, out, args) -> None:
        self._outputs = out

    def _after_forward(self, artifacts, args) -> None:
        if self._unit == "epoch":
            self.count("training.epochs")
            self.walk_tape(artifacts, self._outputs)
        self._outputs = None

    def _after_predictions(self, out, args) -> None:
        if self._unit == "pass":
            self.walk_tape(self._outputs)
            self._unit = None
        self._outputs = None


def tape_size(roots) -> int:
    """Distinct autodiff nodes reachable through ``_parents`` from any root.

    Roots are found by a shallow scan of containers and dataclass fields, so
    the count survives changes to how outputs are packaged.
    """
    seen: set[int] = set()
    stack: list = []

    def scan(obj, depth: int) -> None:
        if hasattr(obj, "_parents"):
            stack.append(obj)
        elif depth > 0:
            if isinstance(obj, dict):
                items = obj.values()
            elif isinstance(obj, (list, tuple)):
                items = obj
            elif hasattr(obj, "__dataclass_fields__"):
                items = [getattr(obj, f) for f in obj.__dataclass_fields__]
            else:
                return
            for item in items:
                scan(item, depth - 1)

    for r in roots:
        scan(r, 4)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(p for p in node._parents if id(p) not in seen)
    return len(seen)


class MemoryProbe:
    """tracemalloc peaks inside clustering and inside each training epoch.

    Kept apart from the spans because tracing allocations slows the
    allocation-heavy autodiff several-fold.
    """

    def __init__(self):
        self.cluster_peaks: list[float] = []
        self.epoch_peaks: list[float] = []
        self._tracer = Tracer()

    def install(self, ecatch) -> None:
        t, training = self._tracer, ecatch.training
        t.wrap(ecatch.pipeline, "cluster_events", "clustering.cluster_events",
               before=lambda a: tracemalloc.start(),
               after=lambda out, a: self._stop(self.cluster_peaks))
        t.wrap(training, "train", "training.train",
               before=lambda a: tracemalloc.start(),
               after=lambda out, a: tracemalloc.stop())
        t.wrap(training, "forward", "training.forward",
               before=lambda a: tracemalloc.reset_peak())
        for cls in ("Adam", "Sgd"):
            if hasattr(training, cls):
                t.wrap(getattr(training, cls), "step", "training.optimizer_step",
                       after=lambda out, a: self.epoch_peaks.append(
                           tracemalloc.get_traced_memory()[1] / MB))

    def _stop(self, peaks: list[float]) -> None:
        peaks.append(tracemalloc.get_traced_memory()[1] / MB)
        tracemalloc.stop()

    @property
    def absent(self) -> set[str]:
        return self._tracer.absent

    def uninstall(self) -> None:
        self._tracer.uninstall()


def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name: total duration minus the time covered by child spans."""
    child = defaultdict(float)
    for _, _, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for sid, name, _, start, end in spans:
        out[name] += (end - start) - child[sid]
    return dict(out)


def totals(spans: list[list]) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for _, name, _, start, end in spans:
        out[name] += end - start
    return dict(out)


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round: name -> (value, unit).

    Times and counts are totals over the round, except the autodiff ones,
    which are per training epoch where the round trains and per scoring pass
    where it only scores. A metric whose wrapped name is absent is left out.
    """
    tot = totals(t.spans)
    c = t.counts
    epochs, passes = c["training.epochs"], c["pipeline.passes"]
    unit, per = ("epoch", epochs) if epochs else ("pass", passes)

    def span(name):
        return tot.get(name, 0.0), "s", name

    def per_unit(key, u, needs=None):
        return (c[f"{unit}:{key}"] / per if per else 0.0), u, needs

    table = {
        "data.load_dataset_s": span("data.load_dataset"),
        "clustering.cosine_distances_s": span("clustering.cosine_distances"),
        "clustering.agglomerate_s": span("clustering.agglomerate"),
        "clustering.merges": (c["clustering.merges"], "count", "clustering.agglomerate"),
        "windows.segment_all_s": span("windows.segment_all"),
        "windows.windows": (c["windows.windows"], "count", "windows.segment_all"),
        "windows.memberships": (c["windows.memberships"], "count", "windows.segment_all"),
        "windows.max_members": (c["windows.max_members"], "count", "windows.segment_all"),
        "fusion.fuse_window_s": span("fusion.fuse_window"),
        "fusion.fuse_window_calls": (c["fusion.fuse_window_calls"], "count", "fusion.fuse_window"),
        "fusion.attention_pairs": (c["fusion.attention_pairs"], "count", "fusion.fuse_window"),
        "trend.encode_event_s": span("trend.encode_event"),
        "trend.lstm_steps": (c["trend.lstm_steps"], "count", "trend.encode_event"),
        "objective.post_probabilities_s": span("objective.post_probabilities"),
        "objective.ce_terms_s": span("objective.ce_terms"),
        "objective.tc_terms_s": span("objective.tc_terms"),
        "objective.mine_hard_examples_s": span("objective.mine_hard_examples"),
        "objective.ce_terms": (c["objective.ce_terms"], "count", "objective.ce_terms"),
        "objective.mined_terms": (c["objective.mined_terms"], "count",
                                  "objective.mine_hard_examples"),
        "training.forward_s": span("training.forward"),
        "training.backward_s": span("training.backward"),
        "training.clip_gradients_s": span("training.clip_gradients"),
        "training.optimizer_step_s": span("training.optimizer_step"),
        "autodiff.tape_nodes": per_unit("tape_nodes", "count", "training.run_model"),
        "autodiff.matmuls": per_unit("matmuls", "count", "autodiff.matmuls"),
        "autodiff.gc_pause_s": per_unit("gc_pause_s", "s"),
        "autodiff.gc_full_collections": per_unit("gc_full_collections", "count"),
        "autodiff.gc_full_collected": per_unit("gc_full_collected", "count"),
        "pipeline.predictions_s": span("pipeline.predictions"),
    }
    return {k: (v, u) for k, (v, u, needs) in table.items() if needs not in t.absent}


def memory_metrics(probe: MemoryProbe) -> dict[str, dict]:
    out = {}
    if "clustering.cluster_events" not in probe.absent:
        out["clustering.peak_alloc_mb"] = {"value": max(probe.cluster_peaks, default=0.0),
                                           "unit": "MB"}
    if not {"training.forward", "training.optimizer_step"} & probe.absent:
        out["training.epoch_peak_alloc_mb"] = {"value": max(probe.epoch_peaks, default=0.0),
                                               "unit": "MB"}
    return out
