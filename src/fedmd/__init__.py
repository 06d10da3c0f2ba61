"""Federated learning for independently designed classifiers via class-score consensus."""

__version__ = "0.1.0"

from .data import Dataset, partition_iid, partition_noniid, synth_blobs
from .nn import AdamParams, Network, TrainReport, accuracy, build_network, forward
from .protocol import CollaborationConfig, PartyState, run_fedmd
from .experiments import ExperimentConfig, run_experiment, summarize

__all__ = [
    "AdamParams",
    "CollaborationConfig",
    "Dataset",
    "ExperimentConfig",
    "Network",
    "PartyState",
    "TrainReport",
    "accuracy",
    "build_network",
    "forward",
    "partition_iid",
    "partition_noniid",
    "run_experiment",
    "run_fedmd",
    "summarize",
    "synth_blobs",
    "__version__",
]
