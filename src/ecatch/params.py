"""Trainable parameters, addressable by stable dotted names.

Naming scheme (shapes for model width d, H heads, head width dh = d // H):

* ``fusion.W_text`` (d, d_text), ``fusion.b_text`` (d,); same for ``_img``
* four attention blocks ``fusion.att_text / att_img / att_ti / att_it``,
  each with ``Wq/Wk/Wv`` (H, d, dh), ``Wo`` (d, d) and an output affine
  ``W_out`` (d, d), ``b_out`` (d,)
* gate ``fusion.W_g`` (d, 2d), ``fusion.b_g`` (d,)
* LSTM gates g in {i, f, o, c}: ``lstm.W_g`` (d, 2d+1), ``lstm.U_g`` (d, d),
  ``lstm.b_g`` (d,)
* classifier ``clf.W_c`` (1, d), ``clf.b_c`` (1,)

The (out, in) matrices above are applied as ``x @ W.T + b``: the encoders by
``fusion.encode``, the classifier by ``objective.post_probabilities`` (its
gradient by the ``objective.epoch_loss`` node), ``W_g`` by ``fusion.gate``
and ``W_out`` by ``fusion.attention``, all three stages of one
``fusion.fuse_group`` node per fusion chunk (windows of one member count).
The 12 LSTM tensors enter only through ``trend.run_lstm``, one tape node for
all events, which stacks each kind in gate order and applies them the same
way. The attention blocks enter in pairs, one block per modality:
``att_text`` with ``att_img`` and ``att_ti`` with ``att_it``. Each pair is
one ``fusion.block_pair`` node per fusion pass, which stacks the two blocks'
tensors and merges ``Wq/Wk/Wv`` across heads, and one ``fusion.attention``
stage per fusion chunk, which applies ``Wq/Wk/Wv`` and ``Wo`` as (in, out),
``x @ W``, before ``W_out``.

Matrices are initialized uniform in +/- sqrt(6 / (fan_in + fan_out)) per
head/matrix, biases at zero, in fixed name order from a seeded generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor

ATT_BLOCKS = ("att_text", "att_img", "att_ti", "att_it")
LSTM_GATES = ("i", "f", "o", "c")


class ParamError(ValueError):
    pass


@dataclass(frozen=True)
class AttentionBlock:
    wq: Tensor  # (H, d, dh)
    wk: Tensor
    wv: Tensor
    wo: Tensor      # (d, d)
    w_out: Tensor   # (d, d) output affine, applied after Wo
    b_out: Tensor   # (d,)


def shape_table(d: int, heads: int, d_text: int, d_img: int) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape, by name, in the fixed name order; allocates nothing."""
    if d % heads != 0:
        raise ParamError(f"heads ({heads}) must divide model width ({d})")
    dh = d // heads
    shapes: dict[str, tuple[int, ...]] = {
        "fusion.W_text": (d, d_text),
        "fusion.b_text": (d,),
        "fusion.W_img": (d, d_img),
        "fusion.b_img": (d,),
    }
    for block in ATT_BLOCKS:
        shapes[f"fusion.{block}.Wq"] = (heads, d, dh)
        shapes[f"fusion.{block}.Wk"] = (heads, d, dh)
        shapes[f"fusion.{block}.Wv"] = (heads, d, dh)
        shapes[f"fusion.{block}.Wo"] = (d, d)
        shapes[f"fusion.{block}.W_out"] = (d, d)
        shapes[f"fusion.{block}.b_out"] = (d,)
    shapes["fusion.W_g"] = (d, 2 * d)
    shapes["fusion.b_g"] = (d,)
    for gate in LSTM_GATES:
        shapes[f"lstm.W_{gate}"] = (d, 2 * d + 1)
        shapes[f"lstm.U_{gate}"] = (d, d)
        shapes[f"lstm.b_{gate}"] = (d,)
    shapes["clf.W_c"] = (1, d)
    shapes["clf.b_c"] = (1,)
    return shapes


def _glorot_bound(shape: tuple[int, ...]) -> float:
    # For stacked per-head tensors (H, d, dh) the fan is that of one head.
    fan_out, fan_in = shape[-2], shape[-1]
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


class ModelParams:
    """Ordered name -> Tensor map covering every trainable array."""

    def __init__(self, d: int, heads: int, d_text: int, d_img: int,
                 tensors: dict[str, Tensor]):
        self.d = d
        self.heads = heads
        self.d_text = d_text
        self.d_img = d_img
        self.tensors = tensors

    @classmethod
    def build(cls, d: int, heads: int, d_text: int, d_img: int,
              seed: int = 0, zero: bool = False) -> "ModelParams":
        shapes = shape_table(d, heads, d_text, d_img)
        rng = np.random.default_rng(seed)
        tensors: dict[str, Tensor] = {}
        for name, shape in shapes.items():
            if zero or len(shape) == 1:
                arr = np.zeros(shape)
            else:
                bound = _glorot_bound(shape)
                arr = rng.uniform(-bound, bound, size=shape)
            tensors[name] = Tensor(arr)
        return cls(d, heads, d_text, d_img, tensors)

    # -- access ----------------------------------------------------------
    def __getitem__(self, name: str) -> Tensor:
        try:
            return self.tensors[name]
        except KeyError:
            raise ParamError(f"unknown parameter {name!r}") from None

    def names(self) -> list[str]:
        return list(self.tensors)

    def items(self):
        return self.tensors.items()

    def block(self, name: str) -> AttentionBlock:
        p = f"fusion.{name}"
        return AttentionBlock(
            wq=self[f"{p}.Wq"], wk=self[f"{p}.Wk"], wv=self[f"{p}.Wv"],
            wo=self[f"{p}.Wo"], w_out=self[f"{p}.W_out"], b_out=self[f"{p}.b_out"],
        )

    # -- numeric helpers ---------------------------------------------------
    def zero_grads(self) -> None:
        for t in self.tensors.values():
            t.grad = None

    def l2_squared(self) -> float:
        return float(sum(np.sum(t.data * t.data) for t in self.tensors.values()))

    def clone(self) -> "ModelParams":
        tensors = {name: Tensor(t.data.copy()) for name, t in self.tensors.items()}
        return ModelParams(self.d, self.heads, self.d_text, self.d_img, tensors)

    def load_values(self, other: "ModelParams") -> None:
        """Copy tensor values from ``other`` in place (graph identity kept)."""
        for name, t in self.tensors.items():
            t.data[...] = other.tensors[name].data

    def assert_finite(self, context: str, error: type[Exception]) -> None:
        for name, t in self.tensors.items():
            if not np.all(np.isfinite(t.data)):
                raise error(f"{context}: non-finite values in {name}")
