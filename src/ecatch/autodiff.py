"""Reverse mode for one fixed pipeline: float64 helpers and the parameter holder.

There is no graph. Each differentiable stage of the model returns its value
and a hand-written vector-Jacobian product (VJP): ``fusion.block_pair`` and
``fusion.fuse_group``, one per fusion chunk, ``trend.trend_features`` and
``trend.run_lstm`` for all events, and ``objective.epoch_loss``.
``training.forward`` keeps those VJPs, and ``training.backward`` calls each
once, in the reverse of the order the stages ran: the pipeline's adjoint
written out. A VJP returns the gradients of the parameters it reads by name,
and the gradient of its input array, which the next VJP of the walk takes.

A :class:`Tensor` only holds a parameter's array; all data is float64, and
gradient checks downstream rely on that.
"""

from __future__ import annotations

import numpy as np

Array = np.ndarray


def stable_sigmoid(x: Array) -> Array:
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so no exp overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


class Tensor:
    """One model parameter: a float64 ndarray in ``.data``."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)

    # A plain product that the package does not call: ``bench/tracer.py``
    # counts calls under this name. Deleting it waits for the benchmark change
    # that points the tracer elsewhere (ROADMAP item 1).
    def __matmul__(self, other: "Tensor") -> "Tensor":
        return Tensor(self.data @ other.data)


def finite_difference_gradient(f, x: Array, h: float = 1e-5) -> Array:
    """Central-difference gradient of scalar ``f`` at ``x``, coordinate-wise."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        out[i] = (fp - fm) / (2.0 * h)
    return grad
