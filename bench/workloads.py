"""The three workloads: inputs, set-up, one operation, and output checks.

Each operation is the sequence of public calls an ``ecatch`` command makes,
looked up on the modules at call time so the tracer's wrappers see them:

* ``train-m``      -- ``ecatch train``: build_structure, train, predictions,
  evaluate_posts_and_events on the validation split.
* ``score-bursty`` -- ``ecatch eval`` from a fixed checkpoint:
  build_structure, predictions, evaluate_posts_and_events on the test split.
* ``cluster-l``    -- ``ecatch cluster``: build_structure with clustering.

Set-up is what the command does before that: load the dataset directory and
assign splits, then build the initial parameters (``train-m``) or load the
checkpoint (``score-bursty``).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import corpus
from ecatch import data, pipeline, training
from ecatch.config import RunConfig
from ecatch.params import ModelParams

DAY = 86400
BASE_CONFIG = {
    "model.d": corpus.MODEL_D,
    "model.heads": corpus.MODEL_HEADS,
    "window.span_secs": 4 * DAY,
    "window.stride_secs": 2 * DAY,
    "trend.alpha": 1.0 / (2 * DAY),
    "trend.beta": 0.9,
    "attention.scope": "window",
    "attention.scale": "head",
    "eval.threshold": 0.5,
}


@dataclass
class Inputs:
    """Everything generated from one seed; ``write`` puts it on disk."""

    data_dir: Path
    cfg: RunConfig
    seed: int
    corpus: corpus.Corpus
    event_key: bool
    tensors: dict | None = None          # checkpoint contents, score-bursty only

    @property
    def checkpoint(self) -> Path:
        return self.data_dir / "checkpoint.bin"

    def write(self) -> None:
        corpus.write_corpus(self.corpus, self.data_dir, self.event_key)
        if self.tensors is not None:
            corpus.write_checkpoint(self.tensors, self.checkpoint)


def digest(obj) -> str:
    """sha256 of nested outputs: arrays by bytes, floats by repr, dicts by key."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(f"a{x.dtype}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, dict):
            h.update(b"{")
            for k in sorted(x):
                feed(k)
                feed(x[k])
            h.update(b"}")
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for v in x:
                feed(v)
            h.update(b"]")
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()


class Workload:
    """One workload; subclasses fill in the corpus, the operation and the checks."""

    name = ""
    structure_samples = True   # time extra build_structure calls next to the set-ups

    def __init__(self, smoke: bool):
        self.smoke = smoke

    def inputs(self, seed: int, workdir: Path) -> Inputs:
        raise NotImplementedError

    def setup(self, inp: Inputs):
        ds = data.load_dataset(inp.data_dir)
        return data.assign_splits(ds, inp.cfg.split_fractions(), inp.cfg["seed"])

    def dataset(self, state):
        return state

    def time_structure(self, inp: Inputs, state) -> float:
        t = time.perf_counter()
        pipeline.build_structure(self.dataset(state), inp.cfg)
        return time.perf_counter() - t

    def operation(self, inp: Inputs, state) -> tuple[dict, dict]:
        """Run once; returns (timing samples, outputs to check)."""
        raise NotImplementedError

    def quick_checks(self, inp: Inputs, out: dict) -> list[str]:
        return []

    def deep_checks(self, inp: Inputs, out: dict) -> list[str]:
        """Checks too slow to repeat on every operation."""
        raise NotImplementedError

    def fingerprint(self, out: dict):
        """What must be identical between two operations on the same inputs."""
        raise NotImplementedError

    def verify(self, inp: Inputs, out: dict, deep: bool) -> tuple[list[str], str]:
        """(problems, digest of the outputs) of one operation."""
        problems = self.quick_checks(inp, out)
        if deep:
            problems += self.deep_checks(inp, out)
        return problems, digest(self.fingerprint(out))


class TrainM(Workload):
    name = "train-m"

    def inputs(self, seed, workdir):
        sizes = dict(n_events=6, posts_per_event=(16, 20)) if self.smoke else {}
        c = corpus.train_corpus(seed, **sizes)
        epochs = 5 if self.smoke else 3
        cfg = RunConfig(dict(
            BASE_CONFIG, seed=seed, **{
                "cluster.key": "event",
                "train.epochs": epochs,
                # patience >= epochs: early stopping cannot fire
                "train.early_stop_patience": epochs,
                "mining.rho": 0.5,
                "mining.warmup_epochs": 1,
            }))
        return Inputs(workdir, cfg, seed, c, event_key=True)

    def setup(self, inp):
        ds = super().setup(inp)
        cfg = inp.cfg
        params = ModelParams.build(cfg["model.d"], cfg["model.heads"], ds.d_text, ds.d_img,
                                   seed=cfg.init_seed())
        return ds, params

    def dataset(self, state):
        return state[0]

    def operation(self, inp, state):
        ds, params = state
        cfg = inp.cfg
        t0 = time.perf_counter()
        events, windows = pipeline.build_structure(ds, cfg)
        t1 = time.perf_counter()
        result = training.train(ds, events, windows, cfg, params=params)
        t2 = time.perf_counter()
        p_post, p_event = pipeline.predictions(ds, events, windows, result.params, cfg)
        t3 = time.perf_counter()
        val = ds.split_indices("val")
        report = pipeline.evaluate_posts_and_events(ds, val, p_post, p_event, events,
                                                    cfg["eval.threshold"])
        t4 = time.perf_counter()
        samples = {"structure_s": t1 - t0, "op_s": t4 - t0,
                   "train_epoch_s": (t2 - t1) / len(result.history),
                   "score_posts_per_s": ds.n / (t3 - t2)}
        return samples, dict(ds=ds, events=events, windows=windows, result=result,
                             p_post=p_post, p_event=p_event, report=report, val=val)

    def quick_checks(self, inp, out):
        cfg, ds = inp.cfg, out["ds"]
        val = out["val"]
        return (checks.history_problems(out["result"].history, cfg["loss.lambda_tc"],
                                        cfg["loss.lambda_reg"])
                + checks.auc_problems(out["p_post"][val], ds.labels[val],
                                      out["report"]["post_level"]["auc"], "val posts"))

    def deep_checks(self, inp, out):
        cfg, ds, events, windows = inp.cfg, out["ds"], out["events"], out["windows"]
        result = out["result"]
        problems = checks.window_problems(ds.timestamps, events, windows)

        # Loss without mining (epoch 0 is before the warm-up ends) must drop.
        initial = result.history[0]["total"]
        final = training.forward(ds, events, windows, result.final_params, cfg).report.total
        if not final < initial:
            problems.append(f"unmined loss did not drop: {initial!r} -> {final!r}")

        # Finite differences on the two smallest events with two or more windows.
        multi = [ev for ev in events if len(windows[ev.event_id].windows) >= 2]
        subset = sorted(multi, key=lambda ev: (len(ev.member_indices), ev.event_id))[:2]
        params = result.final_params.clone()
        grads = training.backward(training.forward(ds, subset, windows, params, cfg))
        live = {name: t.data for name, t in params.items()}
        problems += checks.finite_difference_problems(
            lambda: training.forward(ds, subset, windows, params, cfg).report.total,
            grads, live)
        return problems

    def fingerprint(self, out):
        r = out["result"]
        return (r.history, out["p_post"],
                {name: t.data for name, t in r.final_params.items()})


class ScoreBursty(Workload):
    name = "score-bursty"

    def inputs(self, seed, workdir):
        sizes = (dict(n_events=6, posts_per_event=(8, 12), n_bursts=1, burst_posts=(30, 40))
                 if self.smoke else {})
        c = corpus.bursty_corpus(seed, **sizes)
        cfg = RunConfig(dict(BASE_CONFIG, seed=seed, **{"cluster.key": "event"}))
        return Inputs(workdir, cfg, seed, c, event_key=True, tensors=corpus.checkpoint_tensors())

    def setup(self, inp):
        return super().setup(inp), training.load_checkpoint(inp.checkpoint)

    def dataset(self, state):
        return state[0]

    def operation(self, inp, state):
        ds, params = state
        cfg = inp.cfg
        t0 = time.perf_counter()
        events, windows = pipeline.build_structure(ds, cfg)
        t1 = time.perf_counter()
        p_post, p_event = pipeline.predictions(ds, events, windows, params, cfg)
        t2 = time.perf_counter()
        test = ds.split_indices("test")
        report = pipeline.evaluate_posts_and_events(ds, test, p_post, p_event, events,
                                                    cfg["eval.threshold"])
        t3 = time.perf_counter()
        samples = {"structure_s": t1 - t0, "op_s": t3 - t0, "score_posts_per_s": ds.n / (t2 - t1)}
        return samples, dict(ds=ds, events=events, windows=windows, p_post=p_post,
                             p_event=p_event, report=report, test=test)

    def quick_checks(self, inp, out):
        ds, test = out["ds"], out["test"]
        return checks.auc_problems(out["p_post"][test], ds.labels[test],
                                   out["report"]["post_level"]["auc"], "test posts")

    def deep_checks(self, inp, out):
        cfg, events, windows = inp.cfg, out["events"], out["windows"]
        c = inp.corpus
        problems = checks.window_problems(c.timestamps, events, windows)
        # The event with the largest window, plus three drawn from the seed.
        largest = max(events, key=lambda ev: max(len(w.members)
                                                 for w in windows[ev.event_id].windows))
        rng = np.random.default_rng([inp.seed, 9])
        others = [ev.event_id for ev in events if ev.event_id != largest.event_id]
        sample = [largest.event_id] + rng.choice(others, size=min(3, len(others)),
                                                 replace=False).tolist()
        # The benchmark's own float32 -> float64 view of the files it wrote.
        text = c.text.astype("<f4").astype(np.float64)
        image = np.where(c.has_image[:, None], c.image.astype("<f4").astype(np.float64), 0.0)
        problems += checks.forward_problems(
            text, image, c.timestamps, events, windows, inp.tensors,
            corpus.MODEL_HEADS, cfg["trend.alpha"], cfg["trend.beta"],
            out["p_post"], out["p_event"], sample)
        return problems

    def fingerprint(self, out):
        return out["p_post"], out["p_event"]


class ClusterL(Workload):
    name = "cluster-l"

    structure_samples = False  # one structure call is the whole operation, seconds long

    def inputs(self, seed, workdir):
        sizes = dict(n_events=5, posts_per_event=(30, 40)) if self.smoke else {}
        c = corpus.cluster_corpus(seed, **sizes)
        k = len(set(c.event.tolist()))
        cfg = RunConfig(dict(BASE_CONFIG, seed=seed, **{"cluster.num_clusters": k,
                                                        "cluster.linkage": "average"}))
        return Inputs(workdir, cfg, seed, c, event_key=False)

    def operation(self, inp, state):
        ds = state
        t0 = time.perf_counter()
        events, windows = pipeline.build_structure(ds, inp.cfg)
        t1 = time.perf_counter()
        return {"structure_s": t1 - t0, "op_s": t1 - t0}, dict(events=events, windows=windows)

    def deep_checks(self, inp, out):
        c = inp.corpus
        events, windows = out["events"], out["windows"]
        problems = checks.window_problems(c.timestamps, events, windows)
        got = {frozenset(ev.member_indices) for ev in events}
        text = c.text.astype("<f4").astype(np.float64)
        expected = checks.scipy_partition(text, inp.cfg["cluster.num_clusters"])
        if got != expected:
            problems.append(f"partition differs from scipy's average linkage: "
                            f"{len(got ^ expected)} clusters in one but not the other")
        return problems

    def fingerprint(self, out):
        return ([ev.member_indices for ev in out["events"]],
                {k: [w.members for w in s.windows] for k, s in out["windows"].items()})


WORKLOADS = {w.name: w for w in (TrainM, ScoreBursty, ClusterL)}
