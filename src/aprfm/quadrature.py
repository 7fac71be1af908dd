"""Velocity-space integration: Gauss-Legendre rules normalized to unit
total weight, so that a constant averages to itself: in 1D slab geometry
the weighted sum is half the integral over v in [-1, 1]; in 2D it is the
integral over the angle alpha in [0, 2 pi] divided by 2 pi.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AngularRule:
    """Velocity samples (v in 1D, angles in 2D) with weights summing to 1."""

    dimension: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if self.dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be matching 1-d arrays")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to one")

    @property
    def n_nodes(self):
        return self.nodes.size


def angular_rule(dimension, n):
    """Gauss-Legendre angular rule of ``n`` nodes (2 to 128), exact for
    polynomials of degree 2n - 1, with unit total weight.

    1D keeps the nodes on [-1, 1] and halves the raw weights; 2D maps the
    nodes affinely onto [0, 2 pi] and scales the weights by 1/2 likewise.
    """
    n = int(n)
    if not 2 <= n <= 128:
        raise ValueError("angular rules need 2 to 128 nodes")
    nodes, weights = np.polynomial.legendre.leggauss(n)
    if dimension == 1:
        return AngularRule(1, nodes, weights / 2.0)
    if dimension == 2:
        return AngularRule(2, np.pi * (nodes + 1.0), weights / 2.0)
    raise ValueError("dimension must be 1 or 2")
