"""End-to-end training: exact gradients, optimizer steps, early stopping.

One epoch is one full-batch pass: the windows of all events are fused in
groups of equal member count, and one gather node orders the groups'
aggregates by ascending event_id for the lockstep trend encoding and one
read-out into an ``objective.Readout``. The epoch loss is
``ce + lambda_tc * tc``: one cross-entropy node over the selected training
posts (optionally after global hard-example mining) and one
temporal-consistency node over all events, joined by one
``autodiff.add_scaled`` node; from the readout to the loss, the per-post
bookkeeping is index arrays. One backward pass over it yields every
gradient, and runs are bitwise reproducible. Regularization gradients are
added in closed form (2 * lambda_reg * theta). Everything runs in float64.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tensor, add_scaled
from .clustering import PseudoEvent
from .config import RunConfig
from .data import Dataset
# ``fuse_window`` is not called here. Only ``bench/tracer.py`` uses it: the
# tracer wraps the names ``run_model`` used to call.
from .fusion import FusionError, fuse_group, fuse_window, window_groups  # noqa: F401
from .metrics import EvalResult, evaluate
from .objective import (
    LossReport,
    Readout,
    ce_loss,
    ce_terms,
    mine_hard_examples,
    post_probabilities,
    tc_terms,
    total_loss,
)
from .params import ModelParams, ParamError, shape_table
from .trend import TrendError, aggregate, decay_weights, encode_event
from .windows import Window, WindowSequence

CHECKPOINT_VERSION = 1


class TrainingError(RuntimeError):
    pass


@dataclass
class ForwardArtifacts:
    """Everything backward() needs: the summed loss node plus the report."""

    report: LossReport
    loss: Tensor  # add_scaled(ce, tc, lambda_tc), or the ce node alone
    params: ModelParams


def fused_aggregates(
    ds: Dataset,
    params: ModelParams,
    windows: list[Window],
    scope: str,
    scale: str,
    alpha: float,
) -> tuple[list[Tensor], np.ndarray]:
    """Decay-weighted fused aggregates of ``windows``, one pass per chunk of
    :func:`fusion.window_groups`.

    Returns the chunks' (B, d) aggregates, in chunk order, and for each
    window the row of their stack that holds its aggregate.
    """
    chunks = window_groups(windows)
    parts = []
    for chunk in chunks:
        group = [windows[k] for k in chunk]
        # One expression, so no chunk's fused rows outlive its aggregate
        # under ``no_grad``.
        parts.append(aggregate(fuse_group(ds, params, group, scope, scale).fused,
                               decay_weights(ds, group, alpha)))
    rows = np.empty(len(windows), dtype=np.intp)
    rows[[k for chunk in chunks for k in chunk]] = np.arange(len(windows))
    return parts or [Tensor(np.zeros((0, params.d)))], rows


def run_model(
    ds: Dataset,
    events: list[PseudoEvent],
    windows: dict[int, WindowSequence],
    params: ModelParams,
    cfg: RunConfig,
) -> Readout:
    """Grouped fusion -> one trend encoding and one readout of all events."""
    ordered = sorted(events, key=lambda e: e.event_id)
    offsets = np.cumsum([0] + [len(windows[ev.event_id].windows) for ev in ordered])
    flat = [w for ev in ordered for w in windows[ev.event_id].windows]
    try:
        parts, rows = fused_aggregates(ds, params, flat, cfg["attention.scope"],
                                       cfg["attention.scale"], cfg["trend.alpha"])
        states = encode_event(rows, parts, params, cfg["trend.beta"], offsets)
    except (FusionError, TrendError) as exc:
        raise TrainingError(f"window encoding: {exc}") from exc

    return post_probabilities(ordered, windows, states, offsets, params, ds.n)


def forward(
    ds: Dataset,
    events: list[PseudoEvent],
    windows: dict[int, WindowSequence],
    params: ModelParams,
    cfg: RunConfig,
    epoch: int = 0,
) -> ForwardArtifacts:
    """Build the full loss for one epoch."""
    readout = run_model(ds, events, windows, params, cfg)
    terms, _ = ce_terms(readout, ds.labels, ds.train_mask(), cfg["loss.epsilon"],
                        cfg["weights.adaptive"], cfg["weights.scope"])
    if not len(terms):
        raise TrainingError("no training posts: cannot build the classification loss")

    rho = cfg["mining.rho"]
    mining_active = rho < 1.0 and epoch >= cfg["mining.warmup_epochs"]
    selected = mine_hard_examples(terms, rho) if mining_active else terms
    mined = np.zeros(ds.n, dtype=bool)
    mined[selected.post] = True
    # bincount adds in term order, as a loop over the terms would.
    ce_values = np.bincount(selected.event, weights=selected.value,
                            minlength=len(readout.event_ids))
    ce_by_event = dict(zip(readout.event_ids, ce_values.tolist()))

    lambda_tc = cfg["loss.lambda_tc"]
    loss = ce_loss(readout.logits, readout.ce_coefficients(selected))
    tc_node, tc_values = tc_terms(readout.states, cfg["loss.tc_clamp"], readout.offsets)
    tc_by_event = dict(zip(readout.event_ids, tc_values.tolist()))
    if tc_node is not None and lambda_tc != 0.0:
        loss = add_scaled(loss, tc_node, lambda_tc)

    ce = float(sum(ce_by_event.values()))
    tc = float(sum(tc_by_event.values()))
    total, reg = total_loss(ce, tc, params, lambda_tc, cfg["loss.lambda_reg"])
    report = LossReport(
        ce_by_event=ce_by_event,
        tc_by_event=tc_by_event,
        ce=ce,
        tc=tc,
        reg=reg,
        total=total,
        p_post=readout.p_post,
        p_event=readout.p_event,
        mined=mined,
        lambda_tc=lambda_tc,
        lambda_reg=cfg["loss.lambda_reg"],
    )
    return ForwardArtifacts(report, loss, params)


def backward(artifacts: ForwardArtifacts) -> dict[str, np.ndarray]:
    """Exact gradients of the total loss for every named parameter.

    Walking the loss graph consumes it, so each ``forward`` result can be
    differentiated once.
    """
    params = artifacts.params
    params.zero_grads()
    artifacts.loss.backward()

    grads: dict[str, np.ndarray] = {}
    for name, tensor in params.items():
        g = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        g = g + 2.0 * artifacts.report.lambda_reg * tensor.data
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient in {name}")
        grads[name] = g
    return grads


# -- optimizers -----------------------------------------------------------
class Sgd:
    def __init__(self, params: ModelParams, lr: float):
        self.params = params
        self.lr = lr

    def step(self, grads: dict[str, np.ndarray]) -> None:
        for name, t in self.params.items():
            t.data = t.data - self.lr * grads[name]


class Adam:
    def __init__(self, params: ModelParams, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {n: np.zeros_like(t.data) for n, t in params.items()}
        self.v = {n: np.zeros_like(t.data) for n, t in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, t in self.params.items():
            g = grads[name]
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = self.m[name] / (1 - b1**self.t)
            v_hat = self.v[name] / (1 - b2**self.t)
            t.data = t.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def make_optimizer(params: ModelParams, cfg: RunConfig):
    kind = cfg["train.optimizer"]
    if kind == "sgd":
        return Sgd(params, cfg["train.learning_rate"])
    return Adam(
        params,
        cfg["train.learning_rate"],
        cfg["train.adam_beta1"],
        cfg["train.adam_beta2"],
        cfg["train.adam_eps"],
    )


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float | None) -> float:
    """Scale all gradients so the global l2 norm is at most ``max_norm``."""
    norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if max_norm is not None and norm > max_norm and norm > 0:
        factor = max_norm / norm
        for name in grads:
            grads[name] = grads[name] * factor
    return norm


# -- training loop ----------------------------------------------------------
HISTORY_FIELDS = (
    "epoch", "ce", "tc", "reg", "total",
    "val_accuracy", "val_precision", "val_recall", "val_f1", "val_auc",
)


@dataclass
class TrainResult:
    params: ModelParams       # best-validation checkpoint
    history: list[dict]
    best_epoch: int
    best_metric: float
    final_params: ModelParams | None = None  # state after the last update
    divergence: str | None = None  # why a non-finite value stopped training early


def _val_metrics(ds: Dataset, p_post: np.ndarray, threshold: float) -> EvalResult | None:
    val_idx = ds.split_indices("val")
    if val_idx.size == 0:
        return None
    return evaluate(p_post[val_idx], ds.labels[val_idx], threshold)


def train(
    ds: Dataset,
    events: list[PseudoEvent],
    windows: dict[int, WindowSequence],
    cfg: RunConfig,
    params: ModelParams | None = None,
) -> TrainResult:
    """Full-batch gradient training with best-validation checkpointing."""
    if ds.split is None:
        raise TrainingError("assign splits before training")
    if cfg["train.epochs"] < 1:
        raise TrainingError("train.epochs must be >= 1")
    if params is None:
        params = ModelParams.build(
            cfg["model.d"], cfg["model.heads"], ds.d_text, ds.d_img,
            seed=cfg.init_seed(),
        )
    optimizer = make_optimizer(params, cfg)
    metric_name = cfg["train.early_stop_metric"]
    patience = cfg["train.early_stop_patience"]
    threshold = cfg["eval.threshold"]

    history: list[dict] = []
    best = params.clone()
    best_metric = -math.inf
    best_epoch = 0
    stale = 0
    divergence = None

    # A divergence stops the loop and hands back the last good checkpoint.
    for epoch in range(cfg["train.epochs"]):
        artifacts = forward(ds, events, windows, params, cfg, epoch=epoch)
        report = artifacts.report
        if not math.isfinite(report.total):
            divergence = f"epoch {epoch}: non-finite loss"
            break

        val = _val_metrics(ds, report.p_post, threshold)
        row = {
            "epoch": epoch,
            "ce": report.ce,
            "tc": report.tc,
            "reg": report.reg,
            "total": report.total,
            "val_accuracy": val.accuracy if val else math.nan,
            "val_precision": val.precision if val else math.nan,
            "val_recall": val.recall if val else math.nan,
            "val_f1": val.f1 if val else math.nan,
            "val_auc": val.auc if val else math.nan,
        }
        history.append(row)

        monitored = row[f"val_{metric_name}"]
        if val is None:
            # No validation split: the latest parameters stand in as best.
            best.load_values(params)
            best_epoch = epoch
        elif math.isfinite(monitored) and monitored > best_metric:
            best_metric = monitored
            best.load_values(params)
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale > patience:
                break

        try:
            grads = backward(artifacts)
        except TrainingError as exc:
            divergence = f"epoch {epoch}: {exc}"
            break
        # Release this epoch's tape before the next forward builds another.
        del artifacts
        clip_gradients(grads, cfg["train.grad_clip_norm"])
        optimizer.step(grads)
        try:
            params.assert_finite(f"after update at epoch {epoch}")
        except FloatingPointError as exc:
            divergence = str(exc)
            break

    return TrainResult(best, history, best_epoch, best_metric, params, divergence)


def write_history(history: list[dict], path: str | Path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=HISTORY_FIELDS)
        writer.writeheader()
        for row in history:
            writer.writerow({k: repr(v) if isinstance(v, float) else v
                             for k, v in row.items()})


# -- checkpoints -------------------------------------------------------------
def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    """Header JSON line, then concatenated little-endian float64 tensors."""
    header = {
        "format_version": CHECKPOINT_VERSION,
        "d": params.d,
        "H": params.heads,
        "names": [{"name": n, "shape": list(t.shape)} for n, t in params.items()],
    }
    with Path(path).open("wb") as fh:
        fh.write(json.dumps(header, separators=(",", ":")).encode() + b"\n")
        for _, t in params.items():
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def _field(entry, key: str, where: str, kind: type):
    """``entry[key]`` as a JSON ``kind`` (ints positive), or a TrainingError naming it."""
    if not isinstance(entry, dict):
        raise TrainingError(f"checkpoint: {where} is not a JSON object")
    if key not in entry:
        raise TrainingError(f"checkpoint: {where} has no {key!r} field")
    value = entry[key]
    if type(value) is not kind or (kind is int and value < 1):
        what = "a positive integer" if kind is int else f"a {kind.__name__}"
        raise TrainingError(f"checkpoint: {where} {key!r} must be {what}, got {value!r}")
    return value


def load_checkpoint(path: str | Path) -> ModelParams:
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise TrainingError("checkpoint: missing header line")
    try:
        header = json.loads(raw[:nl].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TrainingError(f"checkpoint: bad header ({exc})") from exc
    if not isinstance(header, dict):
        raise TrainingError("checkpoint: header is not a JSON object")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise TrainingError(
            f"checkpoint: unsupported format_version {header.get('format_version')}"
        )

    d, heads = _field(header, "d", "header", int), _field(header, "H", "header", int)
    shapes = {}
    for i, e in enumerate(_field(header, "names", "header", list)):
        where = f"names[{i}]"
        shape = _field(e, "shape", where, list)
        if not all(type(n) is int and n >= 1 for n in shape):
            raise TrainingError(f"checkpoint: {where} 'shape' must hold positive integers, "
                                f"got {shape!r}")
        shapes[_field(e, "name", where, str)] = tuple(shape)
    if any(len(shapes.get(n, ())) != 2 for n in ("fusion.W_text", "fusion.W_img")):
        raise TrainingError("checkpoint: 2-D encoder tensors missing from header")
    d_text = shapes["fusion.W_text"][1]
    d_img = shapes["fusion.W_img"][1]

    try:
        expected = shape_table(d, heads, d_text, d_img)
    except ParamError as exc:
        raise TrainingError(f"checkpoint: {exc}") from exc
    if list(shapes) != list(expected):
        raise TrainingError("checkpoint: tensor name set does not match this model")
    for name, shape in shapes.items():
        if shape != expected[name]:
            raise TrainingError(
                f"checkpoint: {name} has shape {shape}, expected {expected[name]}"
            )

    # Each tensor is read only once the body holds all of its bytes, so a
    # header's sizes never reach an allocation.
    body = raw[nl + 1:]
    offset = 0
    tensors = {}
    for name, shape in shapes.items():
        nbytes = math.prod(shape) * 8
        chunk = body[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise TrainingError(f"checkpoint: truncated while reading {name}")
        tensors[name] = Tensor(np.frombuffer(chunk, dtype="<f8").reshape(shape).copy())
        offset += nbytes
    if offset != len(body):
        raise TrainingError("checkpoint: trailing bytes after last tensor")
    return ModelParams(d, heads, d_text, d_img, tensors)
