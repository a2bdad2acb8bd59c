"""Cross-cutting verification: oracles and invariant checks.

Everything here is independent of the implementation paths it checks:
gradients against central finite differences, clustering against an
exhaustive agglomerative reference, the average-linkage vector path against
the distance-matrix path, AUC against explicit pair enumeration,
plus randomized structural invariants (row-stochastic attention, the gate's
bounds, hull bounds, LSTM output bounds, momentum positivity, stacked
events matching a per-step reference LSTM on each event alone, no gradient
through a clipped probability).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tensor, finite_difference_gradient
from .clustering import (PseudoEvent, agglomerate, average_linkage_chain, cluster_events,
                         cosine_distances)
from .config import RunConfig
from .data import Dataset, assign_splits
from .fusion import attention, block_pairs, encode, fuse_group, gate
from .metrics import auc_by_pair_enumeration, auc_roc
from .objective import PROB_CLAMP, ce_terms, epoch_loss, post_probabilities, tc_terms
from .params import LSTM_GATES, ModelParams
from .trend import decay_weights, run_lstm, trend_features
from .training import backward, forward
from .windows import DAY, Window, segment_all, segment_event

GRAD_TOL = 1e-4
FD_STEP = 1e-5
REL_FLOOR = 1e-8


@dataclass
class OracleReport:
    name: str
    status: str              # "pass" | "fail"
    worst_error: float
    location: str
    seed: int

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def line(self) -> str:
        return (f"{self.name:<28} {self.status:<5} worst={self.worst_error:.3e} "
                f"at {self.location or '-'} (seed {self.seed})")


# -- shared toy model -------------------------------------------------------
def _posts(timestamps, labels=None, text=None, image=None) -> Dataset:
    """Posts p0, p1, ... at ``timestamps``: label 0 and zero embeddings unless
    given, and an image wherever ``image`` has a nonzero entry."""
    n = len(timestamps)
    text = np.zeros((n, 2)) if text is None else text
    image = np.zeros((n, 2)) if image is None else image
    return Dataset([f"p{i}" for i in range(n)],
                   np.zeros(n, dtype=np.int64) if labels is None else labels,
                   timestamps, text, image, np.any(image != 0.0, axis=1))


def toy_problem(seed: int, d: int = 4, heads: int = 2, n_posts: int = 6,
                d_text: int = 5, d_img: int = 3):
    """Tiny two-event dataset plus config and randomized parameters.

    Each event's first and last posts sit at the two ends of the 8 days, so
    at 4-day windows every 2 days every event has at least two windows and
    gradients pass through the LSTM recurrence.
    """
    rng = np.random.default_rng(seed)
    half = n_posts // 2
    timestamps = np.concatenate([np.sort(rng.integers(0, 8 * DAY, size=m))
                                 for m in (half, n_posts - half)])
    timestamps[[0, half - 1, half, -1]] = [0, 8 * DAY - 1, 0, 8 * DAY - 1]
    labels = rng.integers(0, 2, size=n_posts)
    labels[0], labels[-1] = 0, 1  # keep both classes present
    has_image = rng.random(n_posts) > 0.3
    text = rng.normal(size=(n_posts, d_text))
    image = np.where(has_image[:, None], rng.normal(size=(n_posts, d_img)), 0.0)

    ds = assign_splits(_posts(timestamps, labels, text, image), (0.8, 0.1, 0.1), seed=seed)

    events = [
        PseudoEvent(0, tuple(range(half))),
        PseudoEvent(1, tuple(range(half, n_posts))),
    ]
    cfg = RunConfig({
        "model.d": d,
        "model.heads": heads,
        "window.span_secs": 4 * DAY,
        "window.stride_secs": 2 * DAY,
        "trend.alpha": 1.0 / DAY,
        "trend.beta": 0.7,
        "loss.lambda_tc": 0.1,
        "loss.lambda_reg": 1e-4,
        "seed": seed,
    })
    span, stride = cfg.window_geometry()
    windows = segment_all(events, ds, span, stride)
    params = ModelParams.build(d, heads, d_text, d_img, seed=seed)
    return ds, events, windows, params, cfg


# -- gradient oracle --------------------------------------------------------
def grad_check(seed: int, d: int = 4, heads: int = 2,
               corrupt: str | None = None) -> OracleReport:
    """Analytic gradients of the total loss vs central finite differences."""
    ds, events, windows, params, cfg = toy_problem(seed, d=d, heads=heads)
    analytic = backward(forward(ds, events, windows, params, cfg))
    if corrupt is not None:
        analytic[corrupt] = analytic[corrupt] + 1.0

    def total_with(tensor: Tensor, x: np.ndarray) -> float:
        tensor.data = x
        return forward(ds, events, windows, params, cfg).report.total

    worst = 0.0
    where = ""
    for name, tensor in params.items():
        orig = tensor.data
        fd = finite_difference_gradient(lambda x: total_with(tensor, x), orig, FD_STEP)
        tensor.data = orig
        a = analytic[name]
        rel = np.abs(a - fd) / np.maximum(np.maximum(np.abs(a), np.abs(fd)), REL_FLOOR)
        for i, r in enumerate(rel.reshape(-1)):
            if r > worst:
                worst = float(r)
                where = f"{name}[{i}]"
    status = "pass" if worst < GRAD_TOL else "fail"
    return OracleReport("grad_check", status, worst, where, seed)


# -- structural invariants ----------------------------------------------------
def reference_lstm(x: np.ndarray, params: ModelParams) -> np.ndarray:
    """One event's hidden states by the LSTM's definition: from zero state,
    one row at a time, one matrix-vector product per gate."""
    h = c = np.zeros(params.d)
    rows = []
    for row in x:
        z = {g: params[f"lstm.W_{g}"].data @ row + params[f"lstm.U_{g}"].data @ h
             + params[f"lstm.b_{g}"].data for g in LSTM_GATES}
        i, f, o = (1.0 / (1.0 + np.exp(-z[g])) for g in "ifo")
        c = f * c + i * np.tanh(z["c"])
        h = o * np.tanh(c)
        rows.append(h)
    return np.array(rows)


def structural_invariants(n_configs: int = 1000, seed: int = 0) -> OracleReport:
    """Randomized fusion/trend runs; checks the hard architectural bounds.

    Each trial fuses one chunk, the member matrix of 2-4 windows of equal
    size, in one pass, so the bounds are checked window by window on the
    batched stages.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    where = ""

    def track(err: float, loc: str):
        nonlocal worst, where
        if err > worst:
            worst, where = err, loc

    for trial in range(n_configs):
        d = int(rng.choice([2, 4, 8]))
        heads = int(rng.choice([h for h in (1, 2, 4) if d % h == 0]))
        n = int(rng.integers(1, 7))
        n_windows = int(rng.integers(2, 5))
        d_text = int(rng.integers(2, 6))
        d_img = int(rng.integers(2, 6))
        # moderate input scales keep sigmoid/tanh off exact float saturation,
        # where open-interval bounds stop being observable
        scale_factor = float(rng.choice([0.1, 0.5, 1.0]))

        n_posts = n * n_windows
        times = np.sort(rng.integers(0, 5 * DAY, size=n_posts))
        ds = _posts(times, rng.integers(0, 2, size=n_posts),
                    rng.normal(size=(n_posts, d_text)) * scale_factor,
                    rng.normal(size=(n_posts, d_img)) * scale_factor)
        params = ModelParams.build(d, heads, d_text, d_img, seed=int(rng.integers(1 << 31)))
        # one fusion chunk: n_windows windows of n consecutive posts each
        members = np.arange(n_posts).reshape(n_windows, n)

        # attention rows must be stochastic even for large scores, in both
        # stacked stages and both modalities
        x = (rng.normal(size=(2, n_windows, n, d))
             * rng.choice([0.1, 1.0, 3.0], size=(2, 1, 1, 1)))
        c = encode(ds, params, members)[0]  # then self- and cross-attention over it
        for cross, pack in enumerate(block_pairs(params)[0]):
            _, weights, _ = attention(x, pack, heads, bool(cross), return_weights=True)
            track(float(np.abs(weights.sum(axis=-1) - 1.0).max()),
                  f"trial {trial}: softmax row sum")
            c = attention(c, pack, heads, bool(cross))[0]

        fused, g, _ = gate(c, params["fusion.W_g"].data, params["fusion.b_g"].data)
        if not ((g > 0.0).all() and (g < 1.0).all()):
            track(1.0, f"trial {trial}: gate out of (0,1)")
        lo = c.min(axis=0) - 1e-12
        hi = c.max(axis=0) + 1e-12
        track(float(np.maximum(lo - fused, fused - hi).max()),
              f"trial {trial}: fused outside gate interval")

        alpha = float(rng.choice([0.0, 1.0 / DAY, 5.0 / DAY]))
        agg, _ = fuse_group(ds, params, members, decay_weights(ds, members, alpha),
                            block_pairs(params)[0])
        col_lo = fused.min(axis=1) - 1e-12
        col_hi = fused.max(axis=1) + 1e-12
        track(float(np.maximum(col_lo - agg, agg - col_hi).max()),
              f"trial {trial}: aggregate outside convex hull")

        # 2-4 events of 1-4 aggregates each, stacked through features + LSTM;
        # each event's rows must be what it gives alone
        seq = np.concatenate([agg, agg * float(rng.uniform(0.2, 2.0)), agg + 0.5])
        offsets = np.cumsum([0, *rng.integers(1, 5, size=int(rng.integers(2, 5)))])
        seq = seq[rng.integers(0, len(seq), size=offsets[-1])]
        beta = float(rng.uniform(0.0, 1.0))
        feats, _ = trend_features(np.arange(len(seq)), [seq], beta, offsets)
        states, _ = run_lstm(feats, params, offsets)
        if (feats[:, -1] < 0).any():
            track(1.0, f"trial {trial}: negative momentum")
        if float(np.abs(states).max()) >= 1.0:
            track(1.0, f"trial {trial}: |T| >= 1")
        for a, b in zip(offsets[:-1], offsets[1:]):
            alone = reference_lstm(trend_features(np.arange(a, b), [seq], beta)[0], params)
            track(float(np.abs(states[a:b] - alone).max()),
                  f"trial {trial}: stacked event differs from the reference LSTM")

        # the loss is flat where the probability is clipped: each window's
        # logit moves by 0, +-40 or +-800 along clf.W_c
        w_c = params["clf.W_c"].data[0]
        shift = rng.choice([0.0, 40.0, -40.0, 800.0, -800.0], size=n_windows)
        states = rng.normal(size=(n_windows, d)) + np.outer(shift / (w_c @ w_c), w_c)
        flat = [Window(k + 1, 0, 1, tuple(m)) for k, m in enumerate(members.tolist())]
        readout = post_probabilities([PseudoEvent(0, tuple(range(n_posts)))], flat, states,
                                     np.array([0, n_windows]), params, n_posts)
        terms, _ = ce_terms(readout, ds.labels, np.ones(n_posts, dtype=bool), 1.0, True)
        g_states, _ = epoch_loss(readout, terms, np.zeros(1), None, 0.0, params)[2](1.0)
        p = readout.probs
        if np.any(g_states[(p <= PROB_CLAMP) | (p >= 1.0 - PROB_CLAMP)] != 0.0):
            track(1.0, f"trial {trial}: gradient through a clipped probability")

    tol = 1e-12
    status = "pass" if worst <= tol else "fail"
    return OracleReport("structural_invariants", status, worst, where, seed)


# -- clustering oracle --------------------------------------------------------
def _linkage_distance(a: list[int], b: list[int], dist: np.ndarray, linkage: str) -> float:
    cross = dist[np.ix_(a, b)]
    if linkage == "average":
        return float(cross.mean())
    if linkage == "complete":
        return float(cross.max())
    return float(cross.min())


def reference_agglomerate(dist: np.ndarray, num_clusters: int, linkage: str) -> list[list[int]]:
    """Exhaustive reference: linkage recomputed from original pair distances."""
    n = dist.shape[0]
    clusters: dict[int, list[int]] = {i: [i] for i in range(n)}
    while len(clusters) > num_clusters:
        best: tuple[float, int, int] | None = None
        ids = sorted(clusters)
        for ai, i in enumerate(ids):
            for j in ids[ai + 1:]:
                d = _linkage_distance(clusters[i], clusters[j], dist, linkage)
                if best is None or (d, i, j) < best:
                    best = (d, i, j)
        _, i, j = best  # type: ignore[misc]
        clusters[i] = clusters[i] + clusters[j]
        del clusters[j]
    out = [sorted(c) for c in clusters.values()]
    out.sort(key=min)
    return out


def clustering_oracle(seeds: list[int]) -> OracleReport:
    """Production clustering vs the exhaustive reference on every small case."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        d = int(rng.integers(2, 5))
        x = rng.normal(size=(n, d))
        if rng.random() < 0.2:
            x[int(rng.integers(n))] = 0.0  # exercise the zero-norm rule
        dist = cosine_distances(x)
        k = int(rng.integers(1, n + 1))
        for linkage in ("average", "complete", "single"):
            got = agglomerate(dist.copy(), k, linkage)
            want = reference_agglomerate(dist, k, linkage)
            if [sorted(c) for c in got] != want:
                return OracleReport(
                    "clustering_oracle", "fail", 1.0,
                    f"n={n} k={k} linkage={linkage}", seed,
                )
    return OracleReport("clustering_oracle", "pass", 0.0, "", seeds[0] if seeds else 0)


def average_linkage_oracle(seeds: list[int]) -> OracleReport:
    """The average-linkage vector path vs ``agglomerate`` on the distance matrix.

    One Gaussian draw per seed, with a zero row now and then and every k
    compared; the first seed's draw is 600 posts around 12 centroids, ten of
    them reposts of others, where the vector path must also decide without
    the matrix fallback, and decide the same with the rows permuted: its
    chains start in the order of the rows, the partition must not follow it.
    """
    for pos, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        perm = None
        if pos == 0:
            n = 600
            x = rng.normal(size=(12, 8))[rng.integers(12, size=n)] + rng.normal(size=(n, 8))
            x[590:] = x[rng.integers(590, size=10)]
            ks = [1, 2, 12, 40, 590]
            perm = rng.permutation(n)
        else:
            n = int(rng.integers(2, 30))
            x = rng.normal(size=(n, int(rng.integers(2, 6))))
            if rng.random() < 0.2:
                x[int(rng.integers(n))] = 0.0
            ks = range(1, n + 1)
        ds = _posts(np.zeros(n, dtype=np.int64), text=x)
        dist = cosine_distances(x)
        for k in ks:
            got = average_linkage_chain(x, k)
            if got is None:
                if pos == 0:
                    return OracleReport("average_linkage_chain", "fail", 1.0,
                                        f"n={n} k={k} fell back to the matrix", seed)
                got = [list(ev.member_indices) for ev in cluster_events(ds, k, "average")]
            want = [sorted(c) for c in agglomerate(dist.copy(), k, "average")]
            if got != want:
                return OracleReport("average_linkage_chain", "fail", 1.0, f"n={n} k={k}", seed)
            if perm is not None:
                moved = average_linkage_chain(x[perm], k)
                if moved is None or sorted(sorted(perm[c].tolist()) for c in moved) != got:
                    return OracleReport("average_linkage_chain", "fail", 1.0,
                                        f"n={n} k={k} with the rows permuted", seed)
    return OracleReport("average_linkage_chain", "pass", 0.0, "", seeds[0] if seeds else 0)


def auc_oracle(seeds: list[int]) -> OracleReport:
    """Rank-statistic AUC vs exhaustive pair enumeration (exact equality)."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 11))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        p = rng.random(n)
        if rng.random() < 0.5:
            p = np.round(p, 1)  # force ties
        got = auc_roc(p, y)
        want = auc_by_pair_enumeration(p, y)
        if got != want:
            return OracleReport("auc_oracle", "fail", abs(got - want),
                                f"n={n}", seed)
    return OracleReport("auc_oracle", "pass", 0.0, "", seeds[0] if seeds else 0)


# -- other module invariants ---------------------------------------------------
def partition_and_scale_invariance(seeds: list[int]) -> OracleReport:
    """Clusterings partition the posts and ignore positive rescaling."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        ds = _posts(np.sort(rng.integers(0, 100, size=n)), text=rng.normal(size=(n, 3)))
        k = int(rng.integers(1, n + 1))
        events = cluster_events(ds, k)
        seen = sorted(i for ev in events for i in ev.member_indices)
        if seen != list(range(n)) or len(events) != k:
            return OracleReport("cluster_partition", "fail", 1.0, f"n={n} k={k}", seed)

        scaled = ds.text.copy()
        scaled[0] *= 7.5
        ds2 = Dataset(ds.ids, ds.labels, ds.timestamps, scaled, ds.image, ds.has_image)
        events2 = cluster_events(ds2, k)
        if [e.member_indices for e in events] != [e.member_indices for e in events2]:
            return OracleReport("cluster_partition", "fail", 1.0,
                                f"scale change moved n={n} k={k}", seed)
    return OracleReport("cluster_partition", "pass", 0.0, "", seeds[0] if seeds else 0)


def window_coverage(seeds: list[int]) -> OracleReport:
    """Every member covered; 50%-overlap interior posts sit in >= 2 windows."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        times = np.sort(rng.integers(0, 40 * DAY, size=n))
        ds = _posts(times)
        event = PseudoEvent(0, tuple(range(n)))
        span = int(rng.choice([2, 4, 6])) * DAY
        seq = segment_event(event, ds, span, span // 2)
        counts = {i: 0 for i in range(n)}
        for pos, w in enumerate(seq.windows):
            if w.index != pos + 1:
                return OracleReport("window_coverage", "fail", 1.0,
                                    "non-contiguous indices", seed)
            for i in w.members:
                counts[i] += 1
        if any(c == 0 for c in counts.values()):
            return OracleReport("window_coverage", "fail", 1.0, "uncovered post", seed)
        t0, t_last = int(times[0]), int(times[-1])
        for i in range(n):
            interior = t0 + span // 2 <= int(times[i]) and int(times[i]) < t_last - span // 2
            if interior and counts[i] < 2:
                return OracleReport("window_coverage", "fail", 1.0,
                                    f"interior post {i} in {counts[i]} windows", seed)
    return OracleReport("window_coverage", "pass", 0.0, "", seeds[0] if seeds else 0)


def tc_rotation_invariance(seeds: list[int]) -> OracleReport:
    """The consistency term of 2-4 stacked events only sees norms and angles,
    and each event's value is the one it has alone."""
    worst = 0.0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        steps = rng.integers(1, 6, size=int(rng.integers(2, 5)))
        offsets = np.concatenate([[0], np.cumsum(steps)])
        hidden = rng.normal(size=(int(offsets[-1]), d))
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        va, _ = tc_terms(hidden, offsets=offsets)
        vb, _ = tc_terms(hidden @ q, offsets=offsets)
        alone = np.concatenate([tc_terms(hidden[a:b])[0] for a, b in zip(offsets, offsets[1:])])
        scale = np.maximum(np.abs(va), 1.0)
        worst = max(worst, float(np.max(np.maximum(np.abs(va - vb), np.abs(va - alone)) / scale)))
    status = "pass" if worst < 1e-9 else "fail"
    return OracleReport("tc_rotation_invariance", status, worst, "", seeds[0] if seeds else 0)


def event_order_invariance(seed: int) -> OracleReport:
    """Total loss and summed gradients ignore event processing order."""
    ds, events, windows, params, cfg = toy_problem(seed)
    art1 = forward(ds, events, windows, params, cfg)
    g1 = backward(art1)
    art2 = forward(ds, list(reversed(events)), windows, params, cfg)
    g2 = backward(art2)
    worst = abs(art1.report.total - art2.report.total)
    for name in g1:
        worst = max(worst, float(np.abs(g1[name] - g2[name]).max()))
    status = "pass" if worst < 1e-9 else "fail"
    return OracleReport("event_order_invariance", status, worst, "", seed)


def decay_weight_properties(seeds: list[int]) -> OracleReport:
    """Aggregation weights: convex, newest post at the maximum weight."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        times = np.sort(rng.integers(0, 10 * DAY, size=n))
        ds = _posts(times)
        lam = decay_weights(ds, np.arange(n)[None], alpha=float(rng.uniform(0, 2)) / DAY)[0]
        if abs(lam.sum() - 1.0) > 1e-12 or (lam <= 0).any():
            return OracleReport("decay_weights", "fail", 1.0, f"n={n}", seed)
        if lam.argmax() not in np.flatnonzero(times == times[-1]):
            return OracleReport("decay_weights", "fail", 1.0, "newest not max", seed)
    return OracleReport("decay_weights", "pass", 0.0, "", seeds[0] if seeds else 0)


def run_all(seeds: list[int]) -> list[OracleReport]:
    """The whole battery; one report per named check."""
    seeds = list(seeds) or [0]
    reports = []
    t0 = time.time()
    for seed in seeds[:3]:
        reports.append(grad_check(seed))
    reports.append(structural_invariants(200, seeds[0]))
    salt = [s + k for s in seeds for k in range(17)]
    reports.append(clustering_oracle(salt))
    reports.append(average_linkage_oracle(salt[:20]))
    reports.append(auc_oracle(salt))
    reports.append(partition_and_scale_invariance(salt[:20]))
    reports.append(window_coverage(salt[:30]))
    reports.append(tc_rotation_invariance(salt[:20]))
    reports.append(event_order_invariance(seeds[0]))
    reports.append(decay_weight_properties(salt[:20]))
    elapsed = time.time() - t0
    reports.append(OracleReport(
        "suite_runtime", "pass" if elapsed < 300 else "fail", elapsed, "seconds", seeds[0]
    ))
    return reports


def write_report(reports: list[OracleReport], path: str | Path) -> None:
    payload = [asdict(r) for r in reports]
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
