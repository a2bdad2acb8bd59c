"""Event-centric cross-modal misinformation detection over embedding vectors."""

from .clustering import PseudoEvent, cluster_events, pass_through_events
from .config import RunConfig, load_config
from .data import Dataset, assign_splits, load_dataset, write_dataset
from .metrics import EvalResult, auc_roc, evaluate
from .params import ModelParams
from .synth import SynthSpec, generate
from .training import backward, forward, load_checkpoint, save_checkpoint, train
from .windows import Window, WindowSequence, segment_event

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "EvalResult",
    "ModelParams",
    "PseudoEvent",
    "RunConfig",
    "SynthSpec",
    "Window",
    "WindowSequence",
    "assign_splits",
    "auc_roc",
    "backward",
    "cluster_events",
    "evaluate",
    "forward",
    "generate",
    "load_checkpoint",
    "load_config",
    "load_dataset",
    "pass_through_events",
    "save_checkpoint",
    "segment_event",
    "train",
    "write_dataset",
]
