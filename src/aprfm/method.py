"""The two solvers behind one object, and the pipeline that runs them.

The solvers differ only in how f is represented: ``rfm`` uses one
phase-space feature model, ``aprfm`` a spatial model for rho and a
phase-space model for g with f = rho + eps g.  :class:`Method` holds the
models for one problem and one configuration and assembles its system as
weighted row blocks; :func:`solve` runs collocation and streams those
blocks into the least-squares solve, so the full N x Z matrix is never
held.  The CLI and the test suite both go through :func:`solve`.
"""

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from . import collocation
from .assemble import (ROW_MACRO, assemble_aprfm, assemble_rfm,
                       reconstruct_f, rescale_rows)
from .basis import make_model, model_values, uniform_partition
from .collocation import _phase
from .quadrature import angular_rule
from .solve import lstsq

METHODS = ("rfm", "aprfm")

# Budget, in doubles, of the cost model that sizes the row blocks: a
# block's matrix plus the phase-model columns it is assembled from.  It
# sets how many spatial nodes (or inflow points) one block covers.  It
# does not bound assembly's temporaries, which hold several arrays of the
# columns' size at once: one traced aprfm block of the annulus benchmark
# allocates about 25 MB against the budget's 16 MB.  Other slab boundaries
# reorder the QR folds, which moves truncated-rank errors at roundoff.
_CHUNK_BUDGET = 2_000_000


def _restrict(colloc, nodes, inflow):
    """The part of ``colloc`` at the spatial nodes ``nodes`` (a slice, with
    every velocity) and the inflow points ``inflow`` (a slice)."""
    return dataclasses.replace(
        colloc, spatial_nodes=colloc.spatial_nodes[nodes],
        boundary_x=colloc.boundary_x[inflow],
        boundary_v=colloc.boundary_v[inflow],
        boundary_value=colloc.boundary_value[inflow])


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

    @property
    def box_columns(self):
        """The columns of each spatial box k, as slices: the spatial-model
        box k (aprfm) and the phase-model boxes k mv ... (k + 1) mv - 1,
        the boxes over box k in the axis-major phase partition, whose last
        axis is velocity.  A row is exactly zero in the columns of a box
        whose window does not reach its point."""
        phase = self.models[-1]
        n_boxes = phase.n_boxes // phase.partition.dims[-1]
        boxes = [[] for _ in range(n_boxes)]
        offset = 0
        for model in self.models:
            width = model.n_columns // n_boxes
            for k, box in enumerate(boxes):
                box.append(slice(offset + k * width, offset + (k + 1) * width))
            offset += model.n_columns
        return tuple(map(tuple, boxes))

    def assemble(self, colloc, rule):
        """The unscaled least-squares system of this method."""
        if self.name == "rfm":
            return assemble_rfm(self.spec, *self.models, colloc, rule)
        return assemble_aprfm(self.spec, *self.models, colloc, rule)

    def blocks(self, colloc, rule):
        """The weighted system on ``colloc`` as row blocks, in row order:
        slabs of spatial nodes (each with every velocity), then the inflow
        rows.  Blocks are sized by a cost model: a block's matrix plus the
        phase-model columns behind it (values and transport derivatives at
        every velocity and rule node of a spatial node; values at an
        inflow point) count at most ``_CHUNK_BUDGET`` doubles together (at
        least one node or point each).  The model bounds the block and the
        columns, not the temporaries assembly allocates beside them.

        Each block's weights rescale its rows to unit max-abs entries; an
        aprfm macro row, which stands for the n_v identical rows of its
        node's velocities, is then weighted by sqrt(n_v), so the
        least-squares objective is that of the repeated rows:
        n_v r^2 = (sqrt(n_v) r)^2.  The weight goes in after rescaling,
        which would otherwise remove it.
        """
        n_x, n_v = colloc.spatial_nodes.shape[0], colloc.velocity_nodes.size
        z = sum(model.n_columns for model in self.models)
        z_phase = self.models[-1].n_columns  # f for rfm, g for aprfm
        rows_per_node = n_v if self.name == "rfm" else n_v + 1
        node_cost = (rows_per_node * z
                     + 2 * (n_v + rule.n_nodes) * z_phase)
        point_cost = z + z_phase
        step = max(1, _CHUNK_BUDGET // node_cost)
        b_step = max(1, _CHUNK_BUDGET // point_cost)
        none = slice(0, 0)
        parts = ([(slice(s, s + step), none) for s in range(0, n_x, step)]
                 + [(none, slice(b, b + b_step))
                    for b in range(0, colloc.n_boundary, b_step)])
        macro_weight = np.sqrt(n_v)
        first_row = 0
        for nodes, inflow in parts:
            block = rescale_rows(
                self.assemble(_restrict(colloc, nodes, inflow), rule),
                first_row=first_row)
            first_row += block.n_rows
            weight = np.where(block.row_kind == ROW_MACRO, macro_weight, 1.0)
            yield dataclasses.replace(block, lam=weight * block.lam)

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
    """One solved configuration.  ``assembly_s`` is the run's time outside
    the least-squares folds and SVD: models, collocation and the row
    blocks.  ``lam`` holds the row weights of the whole system: the rescale
    factors, times sqrt(n_v) on aprfm's macro rows."""

    method: Method
    rule: object
    colloc: object
    report: object
    assembly_s: float
    lam: np.ndarray


def solve(spec, config):
    """Build the models of ``config`` (a resolved ``RunConfig``) on
    ``spec``, then collocate and fold the weighted row blocks into the
    least-squares solve."""
    start = time.perf_counter()
    rule = angular_rule(spec.spatial_dim, config.nq)
    method = Method.build(spec, config)
    n_spatial = ((config.nx,) if spec.spatial_dim == 1
                 else (config.nx1, config.nx2))
    colloc = collocation.build_collocation(spec, n_spatial, config.nv)
    scales = []

    def blocks():
        for block in method.blocks(colloc, rule):
            scales.append(block.lam)
            yield block

    report = lstsq(blocks(), rank_tol=config.rank_tol,
                   box_columns=method.box_columns)
    assembly_s = time.perf_counter() - start - report.wall_time
    return Solution(method, rule, colloc, report, assembly_s,
                    np.concatenate(scales))
