"""Invariant purity and randomization experiments on convex state spaces."""

__version__ = "0.1.0"
