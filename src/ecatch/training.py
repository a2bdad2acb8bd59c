"""End-to-end training: exact gradients, optimizer steps, early stopping.

One epoch is one full-batch pass of three blocks, each returning its value
and one vector-Jacobian product (VJP). :func:`fused_aggregates` builds the
two attention weight packs once and fuses the windows of all events in
chunks of equal member count, one ``fusion.fuse_group`` call a chunk (the
encoder, self- and cross-attention over both modalities, the gate and the
aggregate), into one (R, d) array of window aggregates in window order,
ascending event_id. ``trend.encode_event`` rolls it through the lockstep
LSTM, whose states are read out into an ``objective.Readout``. The epoch
loss ``ce + lambda_tc * tc`` over those states and the classifier is the
cross-entropy of the training posts (optionally after global hard-example
mining) plus the temporal consistency of all events; from the readout to
the loss, the per-post bookkeeping is index arrays. Its report holds totals
only: the sums of those two terms, the regularizer and the total.
:func:`backward` calls the three VJPs once each, loss, trend, fusion, which
yields every gradient; runs are bitwise reproducible. Regularization
gradients are added in closed form (2 * lambda_reg * theta). Everything runs
in float64. :func:`run_model` prepares each pass, scoring's too: one
embedding-width check and one window list for fusion and readout.

Early stopping has one rule: the validation split ranks parameters only if
it holds both classes, since F1 and AUC say nothing on one class. Without
that, each epoch's parameters stand in as best. Epochs are ranked by the
monitored metric, and a tie by the lower validation log-loss, so that a
metric stuck at one value (F1 at 0 on a rare class) does not keep epoch 0.
A divergence (a non-finite loss, gradient or updated parameter) ends
training with the best checkpoint so far and a reason that names its epoch.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .autodiff import Tensor
from .clustering import PseudoEvent
from .config import RunConfig
from .data import Dataset, read_json
# ``fuse_window`` is not called here. Only ``bench/tracer.py`` uses it: the
# tracer wraps the names ``run_model`` used to call.
from .fusion import block_pairs, check_dims, fuse_group, fuse_window, window_groups  # noqa: F401
from .metrics import evaluate, log_loss
from .objective import (
    LossReport,
    Readout,
    ce_terms,
    epoch_loss,
    mine_hard_examples,
    post_probabilities,
    tc_terms,
)
from .params import ModelParams, ParamError, shape_table
from .trend import decay_weights, encode_event
from .windows import Window, WindowSequence

CHECKPOINT_VERSION = 1


class TrainingError(RuntimeError):
    pass


@dataclass
class ForwardArtifacts:
    """Everything backward() needs: the report and the epoch's three VJPs.

    ``vjps`` maps ``"fusion"``, ``"trend"`` and ``"loss"`` to the VJPs of
    :func:`fused_aggregates` (every chunk, then both attention weight packs),
    ``trend.encode_event`` (the LSTM, then the trend input) and
    ``objective.epoch_loss``. backward() takes them out, so it runs once.
    """

    report: LossReport
    params: ModelParams
    vjps: dict | None


def fused_aggregates(
    ds: Dataset,
    params: ModelParams,
    windows: list[Window],
    scope: str,
    scale: str,
    alpha: float,
    keep: bool = True,
) -> tuple[np.ndarray, Callable | None]:
    """Decay-weighted fused aggregates of ``windows``, one (R, d) array in
    window order, one pass per chunk of :func:`fusion.window_groups`, all
    chunks reading one pair of attention weight packs; and a VJP (None
    without ``keep``) to every fusion gradient by name. It hands each chunk's
    VJP its windows' rows, in chunk order, dropping each once it has run;
    sums a gradient that several chunks give in chunk order; then calls the
    two packs' VJPs."""
    chunks = window_groups(windows)
    packs, pair_vjps = block_pairs(params)
    agg, chunk_vjps = np.empty((len(windows), params.d)), [None] * len(chunks)
    for k, (positions, members) in enumerate(chunks):
        weights = decay_weights(ds, members, alpha)
        agg[positions], chunk_vjps[k] = fuse_group(ds, params, members, weights, packs,
                                                   scope, scale, keep)
    if not keep:
        return agg, None
    places = [positions for positions, _ in chunks]

    def vjp(g_agg: np.ndarray) -> dict[str, np.ndarray]:
        grads, g_packs = {}, [None, None]
        for k, positions in enumerate(places):
            pack_grads, shared = chunk_vjps[k](g_agg[positions])
            chunk_vjps[k] = None
            g_packs = [g if acc is None else acc + g for acc, g in zip(g_packs, pack_grads)]
            for name, g in shared.items():
                grads[name] = g if name not in grads else grads[name] + g
        for pair_vjp, g in zip(pair_vjps, g_packs):
            grads.update(pair_vjp(g))
        return grads

    return agg, vjp


def run_model(
    ds: Dataset,
    events: list[PseudoEvent],
    windows: dict[int, WindowSequence],
    params: ModelParams,
    cfg: RunConfig,
    keep: bool = True,
) -> tuple[Readout, dict | None]:
    """Grouped fusion -> one trend encoding and one readout of all events,
    from one width check and one window list in ascending event_id.

    Returns the readout and the stages' VJPs, keyed as in
    ``ForwardArtifacts.vjps`` less the loss's, or None without ``keep``:
    scoring asks for none, so no attention stage keeps its probabilities.
    """
    check_dims(ds, params)
    ordered = sorted(events, key=lambda e: e.event_id)
    offsets = np.cumsum([0] + [len(windows[ev.event_id].windows) for ev in ordered])
    flat = [w for ev in ordered for w in windows[ev.event_id].windows]
    agg, fusion_vjp = fused_aggregates(ds, params, flat, cfg["attention.scope"],
                                       cfg["attention.scale"], cfg["trend.alpha"], keep)
    states, trend_vjp = encode_event(agg, params, cfg["trend.beta"], offsets, keep)
    readout = post_probabilities(ordered, flat, states, offsets, params, ds.n)
    return readout, {"fusion": fusion_vjp, "trend": trend_vjp} if keep else None


def forward(
    ds: Dataset,
    events: list[PseudoEvent],
    windows: dict[int, WindowSequence],
    params: ModelParams,
    cfg: RunConfig,
    epoch: int = 0,
) -> ForwardArtifacts:
    """Run one epoch's stages to its loss, keeping their VJPs."""
    readout, vjps = run_model(ds, events, windows, params, cfg)
    terms, _ = ce_terms(readout, ds.labels, ds.train_mask(), cfg["loss.epsilon"],
                        cfg["weights.adaptive"], cfg["weights.scope"])
    if not len(terms):
        raise TrainingError("no training posts: cannot build the classification loss")

    if epoch >= cfg["mining.warmup_epochs"]:
        terms = mine_hard_examples(terms, cfg["mining.rho"])

    lambda_tc, lambda_reg = cfg["loss.lambda_tc"], cfg["loss.lambda_reg"]
    tc_values, tc_vjp = tc_terms(readout.states, cfg["loss.tc_clamp"], readout.offsets)
    ce, tc, vjps["loss"] = epoch_loss(readout, terms, tc_values, tc_vjp, lambda_tc, params)
    reg = params.l2_squared()
    report = LossReport(ce, tc, reg, ce + lambda_tc * tc + lambda_reg * reg,
                        readout.p_post, lambda_reg)
    return ForwardArtifacts(report, params, vjps)


def backward(artifacts: ForwardArtifacts) -> dict[str, np.ndarray]:
    """Exact gradients of the total loss for every named parameter.

    Calls the three VJPs once each, in reverse: the loss, the trend stage
    and fusion. Each is dropped once it has run, and with it what only it
    holds; so each ``forward`` result can be differentiated once.
    """
    vjps, artifacts.vjps = artifacts.vjps, None
    if vjps is None:
        raise TrainingError("backward already ran on this forward; run forward again")
    g_states, grads = vjps.pop("loss")(1.0)
    g_agg, lstm_grads = vjps.pop("trend")(g_states)
    grads |= lstm_grads | vjps.pop("fusion")(g_agg)

    out: dict[str, np.ndarray] = {}
    for name, tensor in artifacts.params.items():
        g = grads[name] + 2.0 * artifacts.report.lambda_reg * tensor.data
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient in {name}")
        out[name] = g
    return out


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
VAL_METRICS = ("accuracy", "precision", "recall", "f1", "auc")
HISTORY_FIELDS = (("epoch", "ce", "tc", "reg", "total") + tuple(f"val_{m}" for m in VAL_METRICS)
                  + ("val_logloss",))


@dataclass
class TrainResult:
    params: ModelParams       # best checkpoint
    history: list[dict]
    best_epoch: int
    best_metric: float        # the monitored metric at best_epoch
    final_params: ModelParams | None = None  # state after the last update
    divergence: str | None = None  # why a non-finite value stopped training early


def train(
    ds: Dataset,
    events: list[PseudoEvent],
    windows: dict[int, WindowSequence],
    cfg: RunConfig,
    params: ModelParams | None = None,
) -> TrainResult:
    """Full-batch gradient training with best-validation checkpointing.

    The validation split ranks parameters only if it holds both classes. Then
    an epoch whose (``train.early_stop_metric``, -validation log-loss) pair
    beats every earlier one's, compared in that order, stands as best, and
    training stops once more than ``train.early_stop_patience`` epochs in a
    row have not. Otherwise (no validation post, or one class)
    each epoch's parameters stand in as best and no epoch counts as stale.

    A non-finite loss, gradient or updated parameter is a divergence: training
    stops, ``divergence`` reads ``epoch N: ...`` and the best checkpoint so
    far is returned.
    """
    val_idx = ds.split_indices("val")
    val_labels = ds.labels[val_idx]
    ranked = np.unique(val_labels).size == 2
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
    best_score = (-math.inf, -math.inf)  # (monitored metric, -validation log-loss)
    best_epoch = 0
    stale = 0
    divergence = None

    for epoch in range(cfg["train.epochs"]):
        artifacts = forward(ds, events, windows, params, cfg, epoch=epoch)
        report = artifacts.report
        if not math.isfinite(report.total):
            divergence = f"epoch {epoch}: non-finite loss"
            break

        val = evaluate(report.p_post[val_idx], val_labels, threshold) if val_idx.size else None
        row = {"epoch": epoch, "ce": report.ce, "tc": report.tc, "reg": report.reg,
               "total": report.total}
        row.update({f"val_{m}": getattr(val, m) if val else math.nan for m in VAL_METRICS})
        row["val_logloss"] = log_loss(report.p_post[val_idx], val_labels) if val else math.nan
        history.append(row)

        score = (row[f"val_{metric_name}"], -row["val_logloss"])
        if not ranked or score > best_score:
            best_score, best_epoch, stale = score, epoch, 0
            best.load_values(params)
        else:
            stale += 1
            if stale > patience:
                break

        try:
            grads = backward(artifacts)
            # Release this epoch's arrays before the next forward builds others.
            del artifacts
            clip_gradients(grads, cfg["train.grad_clip_norm"])
            optimizer.step(grads)
            params.assert_finite("after the update", TrainingError)
        except TrainingError as exc:
            divergence = f"epoch {epoch}: {exc}"
            break

    return TrainResult(best, history, best_epoch, best_score[0], params, divergence)


def write_history(history: list[dict], path: str | Path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=HISTORY_FIELDS)
        writer.writeheader()
        for row in history:
            writer.writerow({k: repr(v) if isinstance(v, float) else v
                             for k, v in row.items()})


# -- checkpoints -------------------------------------------------------------
def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    """Header JSON line, then concatenated little-endian float64 tensors.

    The header's ``sha256`` is the hex digest of those tensor bytes.
    """
    body = b"".join(np.ascontiguousarray(t.data, dtype="<f8").tobytes()
                    for _, t in params.items())
    header = {
        "format_version": CHECKPOINT_VERSION,
        "d": params.d,
        "H": params.heads,
        "names": [{"name": n, "shape": list(t.data.shape)} for n, t in params.items()],
        "sha256": hashlib.sha256(body).hexdigest(),
    }
    with Path(path).open("wb") as fh:
        fh.write(json.dumps(header, separators=(",", ":")).encode() + b"\n" + body)


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
    """The parameters a checkpoint holds; a damaged or non-finite one raises TrainingError.

    A header without ``sha256`` (as written before it had one) skips the
    digest check.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise TrainingError(f"checkpoint: {exc}") from exc
    nl = raw.find(b"\n")
    if nl < 0:
        raise TrainingError("checkpoint: missing header line")
    header = read_json(raw[:nl], "checkpoint: header", TrainingError, dict)
    version = header.get("format_version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise TrainingError(
            f"checkpoint: unsupported format_version {version!r}"
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
    stated = header.get("sha256")
    if stated is not None and hashlib.sha256(body).hexdigest() != stated:
        raise TrainingError(f"checkpoint: payload sha256 does not match the header's {stated!r}")
    params = ModelParams(d, heads, d_text, d_img, tensors)
    params.assert_finite("checkpoint", TrainingError)
    return params
