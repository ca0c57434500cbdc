"""Simulator and verification harness for consensus over rooted dynamic networks."""

from .graphs import (
    CommGraph,
    GraphError,
    GraphSequence,
    causal_past,
    compound,
    root_components,
    star,
)

__all__ = [
    "CommGraph",
    "GraphError",
    "GraphSequence",
    "causal_past",
    "compound",
    "root_components",
    "star",
]

__version__ = "0.1.0"
