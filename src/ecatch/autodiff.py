"""Minimal reverse-mode automatic differentiation over numpy arrays.

Every model operation is one hand-written node: a new :class:`Tensor` that
remembers its parents and a vector-Jacobian closure. This module holds the
generic ones: :func:`linear`, :func:`gather`, which stacks row blocks and
picks rows of the stack, and :func:`add_scaled`, the loss's ``a + c * b``.
The attention and the gate live in ``fusion``, the aggregation, trend-input
and LSTM nodes in ``trend``, and the cross-entropy and consistency nodes in
``objective``. ``Tensor`` has no arithmetic of its own. ``Tensor.backward()``
topologically sorts the graph (iteratively, so deep chains are fine) and
accumulates gradients into ``.grad``. All data is float64; gradient checks
downstream rely on that.

``backward`` consumes the graph it walks: once an interior node has passed
its gradient to its parents, it drops its ``grad``, its closure and its
parents, so the tape shrinks as the walk proceeds. Leaves keep their
``.grad``. Walking a consumed graph again raises :class:`GraphConsumedError`.
Under :func:`no_grad` no graph is recorded at all: each new ``Tensor`` is a
leaf, and reference counting frees intermediate results as soon as the
caller drops them. Scoring runs that way.

The tape is acyclic: a closure captures its parents and plain ndarrays,
never its own ``Tensor``, so reference counting alone frees a tape once its
last root is dropped.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Sequence

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


def linear(x: Tensor | Array, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map ``x @ w.T + b`` over the last axis as one node; ``w`` is (out, in).

    Leading axes of ``x`` are flattened into rows for the matmuls. A plain
    ndarray ``x``, such as a batch of input embeddings, is a constant: it is
    no parent of the node and gets no gradient.
    """
    constant = not isinstance(x, Tensor)
    x_data = _as_array(x) if constant else x.data
    rows = x_data.reshape(-1, x_data.shape[-1])
    out = (rows @ w.data.T).reshape(x_data.shape[:-1] + (w.shape[0],))
    parents = (w,) if b is None else (w, b)

    def vjp(g: Array):
        g_rows = g.reshape(rows.shape[0], -1)
        grads = ((rows.T @ g_rows).T,) + (() if b is None else (g_rows.sum(axis=0),))
        return grads if constant else ((g_rows @ w.data).reshape(x_data.shape),) + grads

    if b is not None:
        out = out + b.data
    return Tensor(out, parents if constant else (x,) + parents, vjp)


def gather(parts: Sequence[Tensor], rows) -> Tensor:
    """Rows ``rows`` of the stack of ``parts`` along axis 0, as one node.

    The VJP scatter-adds into a zero stack, repeated rows summing, and splits
    it back into the parts.
    """
    parts = tuple(parts)
    rows = np.asarray(rows, dtype=np.intp)
    stack = np.concatenate([p.data for p in parts])
    shape, ends = stack.shape, np.cumsum([p.shape[0] for p in parts])[:-1]

    def vjp(g: Array):
        grad = np.zeros(shape)
        np.add.at(grad, rows, g)
        return tuple(np.split(grad, ends))

    return Tensor(stack[rows], parts, vjp)


def add_scaled(a: Tensor, b: Tensor, c: float) -> Tensor:
    """``a + c * b`` for tensors of one shape and a constant number ``c``, as one node."""
    if a.shape != b.shape:
        raise ValueError(f"cannot add shapes {a.shape} and {b.shape}")
    c = float(c)
    return Tensor(a.data + b.data * c, (a, b), lambda g: (g, g * c))


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
