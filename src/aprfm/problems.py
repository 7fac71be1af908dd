"""Catalog of the built-in stationary transport benchmarks.

Every problem has one collision law: isotropic scattering with sigma_s = 1
and no absorption, sigma_a = 0.  The transport equation is then

    v . grad_x f = (mean_v f - f) / eps + eps q,

and every problem is stored in a micro-macro-ready normal form: the
decomposition f = rho + eps g (with mean_v g = 0) yields

    macro:  mean_v(v . grad_x g) = mean_v q,
    micro:  v . grad_x rho + eps (Id - P)(v . grad_x g)
            = (mean_v g - g) + eps (q - mean_v q).

Sources are stored already combined with their eps factors so that every
stored function stays O(1) as eps -> 0:

    macro_source(x)    = mean_v q,
    micro_source(x, v) = eps (q - mean_v q),
    rfm_source(x, v)   = eps^2 q   (right-hand side of the one-shot form
                         eps v . grad f - mean_v f + f = rfm_source),

so that rfm_source = eps micro_source + eps^2 macro_source.

The mixed-scale benchmark with spatially varying eps(x) uses the variant
decomposition f = rho + eps(x) g, giving

    macro:  mean_v(v . grad_x(eps(x) g)) = 0,
    micro:  v . grad_x rho + (Id - P)(v . grad_x(eps(x) g)) + g = 0,

flagged by ``mixed_scale`` and restricted to q = 0.

Spatial arguments have shape (..., d); velocity arguments (v in 1D, the
angle alpha in 2D) have shape (...).  ``micro_source``, ``rfm_source``
and ``exact_f`` broadcast x.shape[:-1] against v.shape elementwise, so
they are evaluated on grid factors: nodes (S, 1, d) against velocities
(L,) give (S, L), angles (K, 1, 1) against a cell grid (n1, n2, 2) give
(K, n1, n2), with the values of the flattened product.  ``boundary_value``
takes matching shapes, x (n, d) and v (n,).
"""

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

PROBLEM_IDS = ("ex1", "ex2", "ex3", "ex4", "ex5", "ex6")

HOLE_HALF_WIDTH = 1.0 / 3.0


@dataclass(frozen=True)
class ProblemSpec:
    """One benchmark: geometry, scales, sources, boundary data."""

    id: str
    spatial_dim: int
    geometry: str  # "interval" | "square" | "annulus"
    x_lo: tuple
    x_hi: tuple
    epsilon: Union[float, Callable]
    epsilon_prime: Optional[Callable]
    mixed_scale: bool
    macro_source: Callable
    micro_source: Callable
    rfm_source: Callable
    boundary_value: Callable
    exact_f: Optional[Callable] = None
    exact_rho: Optional[Callable] = None

    @property
    def epsilon_is_constant(self):
        return not callable(self.epsilon)

    def epsilon_at(self, x):
        """Evaluate eps on (..., d) spatial points (broadcasts constants)."""
        x = np.asarray(x, dtype=float)
        if self.epsilon_is_constant:
            return np.full(x.shape[:-1], float(self.epsilon))
        return self.epsilon(x)

    def epsilon_prime_at(self, x):
        x = np.asarray(x, dtype=float)
        if self.epsilon_is_constant:
            return np.zeros(x.shape[:-1])
        return self.epsilon_prime(x)

    @property
    def velocity_bounds(self):
        """Velocity domain: v in [-1, 1] in 1D, the angle in [0, 2 pi] in 2D."""
        return (-1.0, 1.0) if self.spatial_dim == 1 else (0.0, 2.0 * np.pi)

    def in_domain(self, x):
        """Mask of the spatial points (..., d) that are not in a hole."""
        x = np.asarray(x, dtype=float)
        if self.geometry != "annulus":
            return np.ones(x.shape[:-1], dtype=bool)
        return np.max(np.abs(x), axis=-1) >= HOLE_HALF_WIDTH


def epsilon_profile(x):
    """Spatial scale profile of the mixed benchmark on [0, 1]."""
    x = np.asarray(x, dtype=float)
    return 1e-2 + 0.5 * (np.tanh(6.5 - 11.0 * x) + np.tanh(11.0 * x - 4.5))


def epsilon_profile_grad(x):
    """Derivative of :func:`epsilon_profile`."""
    x = np.asarray(x, dtype=float)
    return 0.5 * 11.0 * (np.cosh(11.0 * x - 4.5) ** -2
                         - np.cosh(6.5 - 11.0 * x) ** -2)


def _as_x(x):
    return np.asarray(x, dtype=float)


def _const_field(value):
    def field(x):
        x = _as_x(x)
        return np.full(x.shape[:-1], value)
    return field


def _require_positive_epsilon(problem_id, epsilon):
    if epsilon is None or not 0 < float(epsilon) < np.inf:
        raise ValueError(f"{problem_id} needs a positive finite epsilon")
    return float(epsilon)


def _slab_problem(problem_id, epsilon, inflow_left, with_source):
    """1D slab on [0, 1] with isotropic scattering and no absorption."""
    eps = _require_positive_epsilon(problem_id, epsilon)

    if with_source:
        def micro_source(x, v):
            return -np.asarray(v, dtype=float) * np.ones(_as_x(x).shape[:-1])

        def rfm_source(x, v):
            return -eps * np.asarray(v, dtype=float) * np.ones(_as_x(x).shape[:-1])

        def exact_f(x, v):
            return (1.0 - _as_x(x)[..., 0]) * np.ones_like(np.asarray(v, dtype=float))

        def exact_rho(x):
            return 1.0 - _as_x(x)[..., 0]
    else:
        def micro_source(x, v):
            return np.zeros(np.broadcast_shapes(_as_x(x).shape[:-1],
                                                np.shape(v)))

        rfm_source = micro_source
        exact_f = None
        exact_rho = None

    def boundary_value(x, v):
        del x  # the left face is the only one with v > 0 inflow
        return np.where(np.asarray(v, dtype=float) > 0, inflow_left, 0.0)

    return ProblemSpec(
        id=problem_id, spatial_dim=1, geometry="interval",
        x_lo=(0.0,), x_hi=(1.0,),
        epsilon=eps, epsilon_prime=None, mixed_scale=False,
        macro_source=_const_field(0.0),
        micro_source=micro_source, rfm_source=rfm_source,
        boundary_value=boundary_value,
        exact_f=exact_f, exact_rho=exact_rho,
    )


def _mixed_problem():
    def epsilon(x):
        return epsilon_profile(_as_x(x)[..., 0])

    def epsilon_prime(x):
        return epsilon_profile_grad(_as_x(x)[..., 0])

    def zero_source(x, v):
        return np.zeros(np.broadcast_shapes(_as_x(x).shape[:-1], np.shape(v)))

    def boundary_value(x, v):
        del x
        return np.where(np.asarray(v, dtype=float) > 0, 0.5, 0.0)

    return ProblemSpec(
        id="ex3", spatial_dim=1, geometry="interval",
        x_lo=(0.0,), x_hi=(1.0,),
        epsilon=epsilon, epsilon_prime=epsilon_prime, mixed_scale=True,
        macro_source=_const_field(0.0),
        micro_source=zero_source, rfm_source=zero_source,
        boundary_value=boundary_value,
    )


def _planar_2d_problem(problem_id, epsilon, geometry):
    """2D problems on [-1, 1]^2 with an exponential manufactured solution."""
    eps = _require_positive_epsilon(problem_id, epsilon)

    def falloff(x):
        x = _as_x(x)
        return np.exp(-x[..., 0] - x[..., 1])

    def micro_source(x, alpha):
        alpha = np.asarray(alpha, dtype=float)
        return (-np.cos(alpha) - np.sin(alpha)) * falloff(x)

    def rfm_source(x, alpha):
        return eps * micro_source(x, alpha)

    def boundary_value(x, alpha):
        return falloff(x) * np.ones_like(np.asarray(alpha, dtype=float))

    def exact_f(x, alpha):
        return falloff(x) * np.ones_like(np.asarray(alpha, dtype=float))

    return ProblemSpec(
        id=problem_id, spatial_dim=2, geometry=geometry,
        x_lo=(-1.0, -1.0), x_hi=(1.0, 1.0),
        epsilon=eps, epsilon_prime=None, mixed_scale=False,
        macro_source=_const_field(0.0),
        micro_source=micro_source, rfm_source=rfm_source,
        boundary_value=boundary_value,
        exact_f=exact_f, exact_rho=falloff,
    )


def _uniform_source_2d_problem(epsilon):
    eps = _require_positive_epsilon("ex5", epsilon)

    def zero_phase(x, alpha):
        return np.zeros(np.broadcast_shapes(_as_x(x).shape[:-1], np.shape(alpha)))

    def rfm_source(x, alpha):
        return np.full(np.broadcast_shapes(_as_x(x).shape[:-1], np.shape(alpha)),
                       0.5 * eps * eps)

    return ProblemSpec(
        id="ex5", spatial_dim=2, geometry="square",
        x_lo=(-1.0, -1.0), x_hi=(1.0, 1.0),
        epsilon=eps, epsilon_prime=None, mixed_scale=False,
        macro_source=_const_field(0.5),
        micro_source=zero_phase, rfm_source=rfm_source,
        boundary_value=zero_phase,
    )


def catalog(problem_id, epsilon=None):
    """Build one of the six built-in benchmarks.

    ``epsilon`` is required (and must be positive and finite) for every
    problem except the mixed-scale one, which carries its own spatial
    profile.
    """
    if problem_id == "ex1":
        return _slab_problem("ex1", epsilon, inflow_left=1.0, with_source=True)
    if problem_id == "ex2":
        return _slab_problem("ex2", epsilon, inflow_left=1.0, with_source=False)
    if problem_id == "ex3":
        return _mixed_problem()
    if problem_id == "ex4":
        return _planar_2d_problem("ex4", epsilon, geometry="square")
    if problem_id == "ex5":
        return _uniform_source_2d_problem(epsilon)
    if problem_id == "ex6":
        return _planar_2d_problem("ex6", epsilon, geometry="annulus")
    raise ValueError(f"unknown problem id {problem_id!r}")


def direction(spatial_dim, v):
    """Cartesian transport direction (..., d) of the 1D velocity ``v``
    (v itself) or the 2D angle ``v`` ((cos v, sin v))."""
    v = np.asarray(v, dtype=float)
    if spatial_dim == 1:
        return v[..., None]
    return np.stack([np.cos(v), np.sin(v)], axis=-1)


def v_dot(spatial_dim, v, grad):
    """Transport direction dotted with a spatial gradient (..., d)."""
    return np.sum(direction(spatial_dim, v) * np.asarray(grad, dtype=float),
                  axis=-1)
