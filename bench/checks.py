"""Output checks computed apart from the program under test.

Each function returns a list of problems (empty when the check passes). The
references here share no code with ``ecatch``: the model forward is plain
numpy written from the model's definition, the AUC counts pairs, the
clustering reference is scipy's, and gradients are compared with central
finite differences.
"""

from __future__ import annotations

import math

import numpy as np

FD_STEP = 1e-5
FD_RTOL = 1e-5
FD_ATOL = 1e-7
REF_ATOL = 1e-9


# -- metrics -------------------------------------------------------------------
def pair_auc(p: np.ndarray, y: np.ndarray) -> float:
    """Concordant plus half-tied positive/negative pairs over all such pairs."""
    pos = p[y == 1]
    neg = p[y == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins) / (pos.size * neg.size)


def auc_problems(p: np.ndarray, y: np.ndarray, reported: float | None, what: str) -> list[str]:
    expected = pair_auc(p, y)
    if reported is None or abs(reported - expected) > 1e-12:
        return [f"{what}: evaluate reports AUC {reported}, pair count gives {expected}"]
    return []


# -- training ------------------------------------------------------------------
def history_problems(history: list[dict], lambda_tc: float, lambda_reg: float) -> list[str]:
    """Every row finite, and total == ce + lambda_tc * tc + lambda_reg * reg."""
    out = []
    for row in history:
        bad = [k for k, v in row.items() if not math.isfinite(v)]
        if bad:
            out.append(f"epoch {row.get('epoch')}: non-finite {bad}")
            continue
        total = row["ce"] + lambda_tc * row["tc"] + lambda_reg * row["reg"]
        if abs(total - row["total"]) > 1e-12 * max(1.0, abs(total)):
            out.append(f"epoch {row['epoch']}: total {row['total']!r} != recomputed {total!r}")
    return out


def finite_difference_problems(loss, grads: dict[str, np.ndarray],
                               tensors: dict[str, np.ndarray]) -> list[str]:
    """Central differences of ``loss()`` at one coordinate of every tensor.

    The coordinate is the one with the largest analytic gradient, so a tensor
    whose gradient is lost reads 0 where the difference quotient does not.
    ``tensors`` are the live arrays ``loss`` reads; they are restored.
    """
    out = []
    for name, arr in tensors.items():
        g = grads[name].reshape(-1)
        i = int(np.argmax(np.abs(g)))
        flat = arr.reshape(-1)
        orig = flat[i]
        flat[i] = orig + FD_STEP
        plus = loss()
        flat[i] = orig - FD_STEP
        minus = loss()
        flat[i] = orig
        fd = (plus - minus) / (2.0 * FD_STEP)
        if abs(g[i] - fd) > FD_ATOL + FD_RTOL * max(abs(g[i]), abs(fd)):
            out.append(f"d loss / d {name}[{i}]: backward {float(g[i])!r}, "
                       f"finite difference {fd!r}")
    return out


# -- structure -----------------------------------------------------------------
def window_problems(timestamps: np.ndarray, events, windows) -> list[str]:
    """Members inside [start, end), every event member covered, indices 1..m."""
    out = []
    for ev in events:
        seq = windows[ev.event_id]
        covered: set[int] = set()
        for k, w in enumerate(seq.windows, start=1):
            if w.index != k:
                out.append(f"event {ev.event_id}: window {k} has index {w.index}")
            ts = timestamps[list(w.members)]
            if not w.members or ts.min() < w.start or ts.max() >= w.end:
                out.append(f"event {ev.event_id}: window {k} has members outside "
                           f"[{w.start}, {w.end})")
            covered.update(w.members)
        if covered != set(ev.member_indices):
            out.append(f"event {ev.event_id}: windows cover {len(covered)} posts "
                       f"of {len(ev.member_indices)}")
        if len(out) > 10:
            break
    return out


def scipy_partition(text: np.ndarray, k: int) -> set[frozenset[int]]:
    """scipy's average-linkage cosine dendrogram cut into at most k clusters."""
    from scipy.cluster.hierarchy import fcluster, linkage
    from scipy.spatial.distance import pdist

    labels = fcluster(linkage(pdist(text, "cosine"), "average"), k, "maxclust")
    groups: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        groups.setdefault(int(lab), []).append(i)
    return {frozenset(g) for g in groups.values()}


# -- model forward -------------------------------------------------------------
def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _attend(q: np.ndarray, kv: np.ndarray, P: dict, block: str, heads: int) -> np.ndarray:
    """Multi-head attention of q's rows over kv's rows, then the block's affine."""
    pre = f"fusion.{block}."
    n, d = q.shape
    dh = d // heads
    out = np.zeros((n, d))
    for h in range(heads):
        qh = q @ P[pre + "Wq"][h]
        kh = kv @ P[pre + "Wk"][h]
        vh = kv @ P[pre + "Wv"][h]
        s = qh @ kh.T / math.sqrt(dh)
        w = np.exp(s - s.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        out[:, h * dh:(h + 1) * dh] = w @ vh
    return (out @ P[pre + "Wo"]) @ P[pre + "W_out"].T + P[pre + "b_out"]


def _lstm_step(x: np.ndarray, h: np.ndarray, c: np.ndarray, P: dict):
    def gate(g):
        return P[f"lstm.W_{g}"] @ x + P[f"lstm.U_{g}"] @ h + P[f"lstm.b_{g}"]

    c = _sigmoid(gate("f")) * c + _sigmoid(gate("i")) * np.tanh(gate("c"))
    return _sigmoid(gate("o")) * np.tanh(c), c


def reference_event(text: np.ndarray, image: np.ndarray, timestamps: np.ndarray,
                    window_members: list[tuple[int, ...]], P: dict, heads: int,
                    alpha: float, beta: float) -> tuple[dict[int, float], float]:
    """Per-post and event probability of one event, by the model's definition.

    Per window: encode both modalities, self-attend each, cross-attend
    text->image and image->text, gate the two, and average the fused rows
    with weights exp(-alpha * (t_max - t)). Between windows: the shift from
    the previous aggregate and a beta-EMA of its norm. The trend LSTM rolls
    [aggregate; shift; momentum] from a zero state; a post reads the sigmoid
    readout of the last window that holds it, the event that of its last
    window.
    """
    d = P["fusion.b_text"].size
    h = np.zeros(d)
    c = np.zeros(d)
    prev = None
    momentum = 0.0
    p_post: dict[int, float] = {}
    p = float("nan")
    for members in window_members:
        idx = list(members)
        t = text[idx] @ P["fusion.W_text"].T + P["fusion.b_text"]
        i = image[idx] @ P["fusion.W_img"].T + P["fusion.b_img"]
        h_t = _attend(t, t, P, "att_text", heads)
        h_i = _attend(i, i, P, "att_img", heads)
        c_ti = _attend(h_t, h_i, P, "att_ti", heads)
        c_it = _attend(h_i, h_t, P, "att_it", heads)
        g = _sigmoid(np.concatenate([c_ti, c_it], axis=1) @ P["fusion.W_g"].T + P["fusion.b_g"])
        fused = g * c_ti + (1.0 - g) * c_it
        ts = timestamps[idx].astype(np.float64)
        lam = np.exp(-alpha * (ts.max() - ts))
        agg = (lam / lam.sum()) @ fused
        if prev is None:
            shift = np.zeros(d)
        else:
            shift = agg - prev
            momentum = beta * momentum + (1.0 - beta) * float(np.sqrt(shift @ shift))
        prev = agg
        h, c = _lstm_step(np.concatenate([agg, shift, [momentum]]), h, c, P)
        p = float(_sigmoid(P["clf.W_c"] @ h + P["clf.b_c"])[0])
        for post in idx:
            p_post[post] = p
    return p_post, p


def forward_problems(text, image, timestamps, events, windows, P: dict, heads: int,
                     alpha: float, beta: float, p_post: np.ndarray,
                     p_event: dict[int, float], sample: list[int]) -> list[str]:
    """The program's probabilities against :func:`reference_event`.

    Every p_post must lie in (0, 1), every p_event must equal the readout of
    the event's last window (which its posts in that window carry), and on
    the ``sample`` events every probability must match the reference.
    """
    out = []
    if not np.all((p_post > 0.0) & (p_post < 1.0)):
        out.append("some p_post outside (0, 1)")
    by_id = {ev.event_id: ev for ev in events}
    for ev in events:
        last = windows[ev.event_id].windows[-1]
        if any(p_post[i] != p_event[ev.event_id] for i in last.members):
            out.append(f"event {ev.event_id}: p_event is not its last-window readout")
    for eid in sample:
        members = [w.members for w in windows[eid].windows]
        ref_post, ref_event = reference_event(text, image, timestamps, members, P, heads,
                                              alpha, beta)
        worst = max(abs(p_post[i] - ref_post[i]) for i in by_id[eid].member_indices)
        if worst > REF_ATOL or abs(p_event[eid] - ref_event) > REF_ATOL:
            out.append(f"event {eid}: p_post differs from the reference by {worst:.3e}")
    return out
