"""Federated learning for independently designed classifiers via class-score consensus."""

__version__ = "0.1.0"
