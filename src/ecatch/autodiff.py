"""Minimal reverse-mode automatic differentiation over numpy arrays.

Every operation returns a new :class:`Tensor` that remembers its parents and
a vector-Jacobian closure. ``Tensor.backward()`` topologically sorts the
graph (iteratively, so deep recurrent chains are fine) and accumulates
gradients into ``.grad``. All data is float64; gradient checks downstream
rely on that.

``backward`` consumes the graph it walks: once an interior node has passed
its gradient to its parents, it drops its ``grad``, its closure and its
parents, so the tape shrinks as the walk proceeds. Leaves keep their
``.grad``. Walking a consumed graph again raises :class:`GraphConsumedError`.
Under :func:`no_grad` no graph is recorded at all: each new ``Tensor`` is a
leaf, and reference counting frees intermediate results as soon as the
caller drops them. Scoring runs that way.

The tape is acyclic: each vector-Jacobian closure captures its parents and
plain ndarrays, never the ``Tensor`` it belongs to, so reference counting
alone frees a tape once its last root is dropped. Python's cyclic collector
would still walk every live node and closure, and the allocations of a tape
of a few hundred thousand objects trigger such walks repeatedly while they
free nothing. :func:`tape_scope` therefore pauses the collector while a tape
is built, walked or held between the two. The pause is process-wide, which
is fine because ``ecatch`` is single-threaded; cyclic garbage made inside the
scope, such as an exception traceback, is collected once the collector runs
again.
"""

from __future__ import annotations

import contextlib
import gc
from typing import Iterator, Sequence

import numpy as np

Array = np.ndarray


def _as_array(x) -> Array:
    if isinstance(x, np.ndarray) and x.dtype == np.float64:
        return x
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    squeeze = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if squeeze:
        grad = grad.sum(axis=squeeze, keepdims=True)
    return grad


def stable_sigmoid(x: Array) -> Array:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class GraphConsumedError(RuntimeError):
    """``backward`` reached a node whose graph an earlier ``backward`` consumed."""


_recording = True


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Record no graph: a ``Tensor`` made inside keeps no parents and no VJP.

    Process-wide like :func:`tape_scope`; nests, and restores the previous
    state on exit or on an exception.
    """
    global _recording
    was_recording = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = was_recording


def _consumed(g: Array):
    """Stands in for the VJP of a node that an earlier ``backward`` walked."""
    raise GraphConsumedError("backward already walked this graph")


@contextlib.contextmanager
def tape_scope() -> Iterator[None]:
    """Pause the cyclic collector, then restore the state it had on entry.

    Nests, and restores on exceptions; usable as ``with tape_scope():`` or as
    the decorator ``@tape_scope()``.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


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
                    if g is None:
                        continue
                    parent.grad = g if parent.grad is None else parent.grad + g
            node.grad, node._parents, node._vjp = None, (), _consumed

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = lift(other)
        a, b = self, other
        return Tensor(
            a.data + b.data,
            (a, b),
            lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
        )

    def __sub__(self, other) -> "Tensor":
        other = lift(other)
        a, b = self, other
        return Tensor(
            a.data - b.data,
            (a, b),
            lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)),
        )

    def __rsub__(self, other) -> "Tensor":
        return lift(other) - self

    def __mul__(self, other) -> "Tensor":
        other = lift(other)
        a, b = self, other
        return Tensor(
            a.data * b.data,
            (a, b),
            lambda g: (
                _unbroadcast(g * b.data, a.shape),
                _unbroadcast(g * a.data, b.shape),
            ),
        )

    __rmul__ = __mul__

    def __matmul__(self, other) -> "Tensor":
        other = lift(other)
        a, b = self, other
        if a.data.ndim != 2 or b.data.ndim != 2:
            raise ValueError("matmul requires 2-D tensors")
        return Tensor(a.data @ b.data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))

    # -- elementwise nonlinearities --------------------------------------
    def log(self) -> "Tensor":
        a = self
        return Tensor(np.log(a.data), (a,), lambda g: (g / a.data,))

    def sigmoid(self) -> "Tensor":
        out = stable_sigmoid(self.data)
        return Tensor(out, (self,), lambda g: (g * out * (1.0 - out),))

    def clip(self, lo: float, hi: float) -> "Tensor":
        # Gradient passes through only where the value was not clamped.
        a = self
        mask = (a.data > lo) & (a.data < hi)
        return Tensor(np.clip(a.data, lo, hi), (a,), lambda g: (g * mask,))

    # -- shape ops -------------------------------------------------------
    def reshape(self, shape: tuple[int, ...]) -> "Tensor":
        a = self
        return Tensor(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))

    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        a = self

        def vjp(g: Array):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, a.shape).copy(),)

        return Tensor(a.data.sum(axis=axis, keepdims=keepdims), (a,), vjp)


def lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Row-wise affine map ``x @ w.T + b`` as one node; ``w`` is (out, in)."""
    out = x.data @ w.data.T
    if b is None:
        return Tensor(out, (x, w), lambda g: (g @ w.data, (x.data.T @ g).T))
    return Tensor(
        out + b.data,
        (x, w, b),
        lambda g: (g @ w.data, (x.data.T @ g).T, g.sum(axis=0)),
    )


def l2norm(x: Tensor) -> Tensor:
    """Euclidean norm of all entries; subgradient 0 at the origin.

    The zero case matters: identically-zero difference vectors (e.g. between
    duplicate window aggregates) must not poison gradients with NaN.
    """
    val = float(np.sqrt(np.sum(x.data * x.data)))

    def vjp(g: Array):
        if val == 0.0:
            return (np.zeros_like(x.data),)
        return (g * x.data / val,)

    return Tensor(val, (x,), vjp)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    parts = list(parts)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g: Array):
        slicer: list = [slice(None)] * g.ndim
        grads = []
        for k in range(len(parts)):
            slicer[axis] = slice(int(offsets[k]), int(offsets[k + 1]))
            grads.append(g[tuple(slicer)])
        return tuple(grads)

    return Tensor(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), vjp)


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
