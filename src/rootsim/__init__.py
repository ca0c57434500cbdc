"""Simulator and verification harness for consensus over rooted dynamic networks."""

__version__ = "0.1.0"
