"""Event-centric cross-modal misinformation detection over embedding vectors.

The names below load with their module on first use (PEP 562), so importing
the package imports no numpy. ``python -m ecatch.cli`` and the ``ecatch``
script run this file first; ``ecatch.cli`` can then size the BLAS thread
pools before numpy starts them.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "clustering": ("PseudoEvent", "cluster_events", "pass_through_events"),
    "config": ("RunConfig", "load_config"),
    "data": ("Dataset", "assign_splits", "load_dataset", "write_dataset"),
    "metrics": ("EvalResult", "auc_roc", "evaluate"),
    "params": ("ModelParams",),
    "synth": ("SynthSpec", "generate"),
    "training": ("backward", "forward", "load_checkpoint", "save_checkpoint", "train"),
    "windows": ("Window", "WindowSequence", "segment_event"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
