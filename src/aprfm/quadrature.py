"""Velocity-space integration: Gauss-Legendre rules, the normalized angular
average, and the scattering collision operator.

The average is normalized so that a constant averages to itself: in 1D slab
geometry it is half the integral over v in [-1, 1]; in 2D it is the integral
over the angle alpha in [0, 2 pi] divided by 2 pi.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidKernelError


def gauss_legendre(n):
    """Nodes and raw weights on [-1, 1]; exact for degree 2n - 1."""
    n = int(n)
    if not 1 <= n <= 128:
        raise ValueError("node count must lie in [1, 128]")
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


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
    """Gauss-Legendre angular rule with unit total weight.

    1D keeps the nodes on [-1, 1] and halves the raw weights; 2D maps the
    nodes affinely onto [0, 2 pi] and scales the weights by 1/2 likewise.
    """
    if int(n) < 2:
        raise ValueError("angular rules need at least 2 nodes")
    nodes, weights = gauss_legendre(n)
    if dimension == 1:
        return AngularRule(1, nodes, weights / 2.0)
    if dimension == 2:
        return AngularRule(2, np.pi * (nodes + 1.0), weights / 2.0)
    raise ValueError("dimension must be 1 or 2")


def average(rule, samples):
    """Weighted angular average of samples given on the rule nodes."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape[-1] != rule.n_nodes:
        raise ValueError("sample count does not match the rule")
    return samples @ rule.weights


def apply_collision(rule, f_samples, kernel=None):
    """Apply the scattering operator to samples on the rule nodes.

    With no kernel the scattering is isotropic and reduces to the average
    minus the sample.  A kernel must be a non-negative function of a node
    pair, broadcasting over arrays.
    """
    f_samples = np.asarray(f_samples, dtype=float)
    if f_samples.shape != (rule.n_nodes,):
        raise ValueError("sample count does not match the rule")
    if kernel is None:
        return average(rule, f_samples) - f_samples
    k = np.asarray(kernel(rule.nodes[:, None], rule.nodes[None, :]), dtype=float)
    if k.shape != (rule.n_nodes, rule.n_nodes):
        raise InvalidKernelError("kernel must broadcast over node pairs")
    if np.any(k < 0):
        raise InvalidKernelError("kernel must be non-negative")
    gain = k @ (rule.weights * f_samples)
    loss = (k @ rule.weights) * f_samples
    return gain - loss
