"""The two solvers behind one object, and the pipeline that runs them.

The solvers differ only in how f is represented: ``rfm`` uses one
phase-space feature model, ``aprfm`` a spatial model for rho and a
phase-space model for g with f = rho + eps g.  :class:`Method` holds the
models for one problem and one configuration; :func:`solve` runs
collocation, assembly, row rescaling and the least-squares solve with it.
The CLI and the test suite both go through :func:`solve`.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import collocation
from .assemble import assemble_aprfm, assemble_rfm, reconstruct_f, rescale_rows
from .basis import make_model, model_values, uniform_partition
from .quadrature import angular_rule
from .solve import lstsq

METHODS = ("rfm", "aprfm")


def _phase(x, v):
    return np.concatenate([x, v[:, None]], axis=1)


@dataclass(frozen=True)
class Method:
    """Feature models of one solver on one problem: ``(f,)`` for rfm,
    ``(rho, g)`` for aprfm."""

    name: str
    spec: object
    models: tuple

    @classmethod
    def build(cls, spec, config):
        """Models for ``config.method`` from a resolved ``RunConfig``.

        Each model covers one box partition of the problem's domain.  The
        f model is drawn from seed s = ``config.seed``; the rho and g
        models from seeds 2s and 2s + 1, so their streams never overlap.
        """
        spatial = list(zip(spec.x_lo, spec.x_hi))
        m_spatial = ((config.mx,) if spec.spatial_dim == 1
                     else (config.mx1, config.mx2))
        phase_part = uniform_partition(spatial + [spec.velocity_bounds],
                                       m_spatial + (config.mv,))

        def model(partition, n_features, seed):
            return make_model(partition, n_features, seed=seed,
                              range_b=config.b_range,
                              activation=config.activation,
                              pou_kind=config.pou)

        if config.method == "rfm":
            return cls("rfm", spec, (model(phase_part, config.j,
                                           config.seed),))
        rho_part = uniform_partition(spatial, m_spatial)
        return cls("aprfm", spec,
                   (model(rho_part, config.jrho, 2 * config.seed),
                    model(phase_part, config.jg, 2 * config.seed + 1)))

    def assemble(self, colloc, rule):
        """The unscaled least-squares system of this method."""
        if self.name == "rfm":
            return assemble_rfm(self.spec, *self.models, colloc, rule)
        return assemble_aprfm(self.spec, *self.models, colloc, rule)

    def f_values(self, coeffs, x, v):
        """f at the phase points (x, v), x (n, d) and v (n,)."""
        if self.name == "rfm":
            return model_values(self.models[0], coeffs, _phase(x, v))
        return reconstruct_f(self.spec, *self.models, coeffs, x, v)

    def rho_values(self, coeffs, rule, xs):
        """Angular average of f over the rule nodes at spatial points xs.

        rfm averages f sampled at every node; aprfm adds eps times the
        average of g to rho, which needs rho only once.
        """
        nodes = [np.full(xs.shape[0], node) for node in rule.nodes]
        if self.name == "rfm":
            samples = np.stack([self.f_values(coeffs, xs, v) for v in nodes],
                               axis=1)
            return samples @ rule.weights
        rho_model, g_model = self.models
        z_r = rho_model.n_columns
        rho = model_values(rho_model, coeffs[:z_r], xs)
        g_avg = sum(w * model_values(g_model, coeffs[z_r:], _phase(xs, v))
                    for w, v in zip(rule.weights, nodes))
        return rho + self.spec.epsilon_at(xs) * g_avg


@dataclass(frozen=True)
class Solution:
    """One solved configuration; ``assembly_s`` times everything before
    the least-squares solve."""

    method: Method
    rule: object
    system: object
    report: object
    assembly_s: float


def solve(spec, config):
    """Build the models of ``config`` (a resolved ``RunConfig``) on
    ``spec``, then collocate, assemble, rescale the rows and solve."""
    start = time.perf_counter()
    rule = angular_rule(spec.spatial_dim, config.nq)
    method = Method.build(spec, config)
    n_spatial = ((config.nx,) if spec.spatial_dim == 1
                 else (config.nx1, config.nx2))
    colloc = collocation.build_collocation(spec, n_spatial, config.nv)
    system = rescale_rows(method.assemble(colloc, rule))
    assembly_s = time.perf_counter() - start
    report = lstsq(system, rank_tol=config.rank_tol)
    return Solution(method, rule, system, report, assembly_s)
