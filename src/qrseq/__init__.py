"""Multi-scale quasi-recurrent sequential recommender."""

from .data import InteractionLog, RawInteraction, SplitDataset, ingest, make_splits, preprocess
from .evaluation import EvalConfig, MetricsReport, evaluate, poprec_baseline
from .model import (
    ModelConfig,
    ModelScorer,
    ParameterStore,
    forward_batch,
    load_checkpoint,
    save_checkpoint,
)
from .training import AdamState, FitResult, TrainConfig, adam_step, bce_loss, fit, train_epoch

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "EvalConfig",
    "FitResult",
    "InteractionLog",
    "MetricsReport",
    "ModelConfig",
    "ModelScorer",
    "ParameterStore",
    "RawInteraction",
    "SplitDataset",
    "TrainConfig",
    "adam_step",
    "bce_loss",
    "evaluate",
    "fit",
    "forward_batch",
    "ingest",
    "load_checkpoint",
    "make_splits",
    "poprec_baseline",
    "preprocess",
    "save_checkpoint",
    "train_epoch",
]
