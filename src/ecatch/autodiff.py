"""Minimal reverse-mode automatic differentiation over numpy arrays.

Every tape node is a new :class:`Tensor` that remembers its parents and a
hand-written vector-Jacobian closure. This module holds only the engine; the
nodes are made where their stages live: in ``fusion`` one node per fusion
chunk (encoders, attention, gate and aggregate under one VJP) and the
attention weight packs, in ``trend`` the trend-input and LSTM nodes, and in
``objective`` the epoch loss. ``Tensor.backward()`` topologically sorts the graph
(iteratively, so deep chains are fine) and accumulates gradients into
``.grad``. All data is float64; gradient checks downstream rely on that.

``backward`` consumes the graph it walks: once an interior node has passed
its gradient to its parents, it drops its ``grad``, its closure and its
parents, so the tape shrinks as the walk proceeds. Leaves keep their
``.grad``. Walking a consumed graph again raises :class:`GraphConsumedError`.
Under :func:`no_grad` no graph is recorded at all: each new ``Tensor`` is a
leaf, and reference counting frees intermediate results as soon as the
caller drops them. Scoring runs that way; :func:`recording` tells a stage
whether to keep what only its VJP needs.

The tape is acyclic: a closure captures its parents and plain ndarrays,
never its own ``Tensor``, so reference counting alone frees a tape once its
last root is dropped.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

import numpy as np

Array = np.ndarray


def _as_array(x) -> Array:
    if isinstance(x, np.ndarray) and x.dtype == np.float64:
        return x
    return np.asarray(x, dtype=np.float64)


def stable_sigmoid(x: Array) -> Array:
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so no exp overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


class GraphConsumedError(RuntimeError):
    """``backward`` reached a node whose graph an earlier ``backward`` consumed."""


_recording = True


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Record no graph: a ``Tensor`` made inside keeps no parents and no VJP.

    Process-wide; nests, and restores the previous state on exit or on an
    exception.
    """
    global _recording
    was_recording = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = was_recording


def recording() -> bool:
    """Whether new tensors record their parents and VJP: False under :func:`no_grad`."""
    return _recording


def _consumed(g: Array):
    """Stands in for the VJP of a node that an earlier ``backward`` walked."""
    raise GraphConsumedError("backward already walked this graph")


class Tensor:
    """A node in the computation graph holding a float64 ndarray."""

    __slots__ = ("data", "grad", "_parents", "_vjp")

    def __init__(self, data, parents: tuple = (), vjp=None):
        self.data = _as_array(data)
        self.grad: Array | None = None
        if _recording:
            self._parents = parents
            self._vjp = vjp
        else:
            self._parents = ()
            self._vjp = None

    # -- introspection -------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        """Value of a single-element tensor of any shape as a Python float."""
        return self.data.item()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"

    # -- graph traversal -----------------------------------------------
    def backward(self, seed: Array | float | None = None) -> None:
        """Accumulate d(self)/d(leaf) into every reachable leaf's ``.grad``.

        Consumes the graph: each interior node drops its ``grad``, VJP and
        parents once it has passed its gradient on, and a later ``backward``
        that reaches it raises :class:`GraphConsumedError`.
        """
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._vjp is _consumed:
                raise GraphConsumedError(
                    f"backward already walked the graph of {node!r}; build it again"
                )
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        self.grad = np.ones_like(self.data) if seed is None else _as_array(seed)
        # Popping in reverse topological order lets each node go as soon as
        # nothing later in the walk refers to it.
        while topo:
            node = topo.pop()
            if node._vjp is None:
                continue
            if node.grad is not None:
                for parent, g in zip(node._parents, node._vjp(node.grad)):
                    parent.grad = g if parent.grad is None else parent.grad + g
            node.grad, node._parents, node._vjp = None, (), _consumed

    # Only ``bench/tracer.py`` uses it: the tracer counts calls under this name.
    # Deleting it waits for the benchmark change that points the tracer elsewhere.
    def __matmul__(self, other: "Tensor") -> "Tensor":
        a, b = self, other
        if a.data.ndim != 2 or b.data.ndim != 2:
            raise ValueError("matmul requires 2-D tensors")
        return Tensor(a.data @ b.data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


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
