"""Dense least-squares assembly for the one-shot and micro-macro solvers.

One-shot ("rfm") rows discretize

    eps(x) v . grad_x f - mean_v f + f = rfm_source

over a single phase-space feature model.  Micro-macro ("aprfm") systems
have one macro row per spatial node, which has no velocity in it, and one
micro row per interior collocation point (x, v),

    macro:  mean_v(v . grad_x g) = macro_source,
    micro:  v . grad_x rho + eps (Id - P)(v . grad_x g)
            - (mean_v g - g) = micro_source,

(the normal form of :mod:`aprfm.problems`, sigma_s = 1 and sigma_a = 0)
with the spatial model for rho in the leading column block and the phase
model for g trailing; boundary rows impose rho + eps g = f_bdy.  The rows
come macro first, then micro, then boundary.  A macro row stands for the
n_v identical rows of its node's velocities, so the solve weights it by
sqrt(n_v) (see ``aprfm.method``).  The mixed-scale variant replaces the
eps-scaled micro/macro transport by derivatives of eps(x) g (product rule)
and adds g itself to the micro row; it assumes a 1D problem, as the one
mixed-scale problem, ex3, is.

The phase model's transport terms come straight from the column kernel
as the derivative of each column along the transport direction of its
velocity, v . grad_x chi, from one call on the spatial nodes and the
velocities (or the quadrature nodes) as factors; v . grad_x rho comes
from the d axis derivatives of the small spatial model.  Angular averages
are evaluated with the supplied quadrature rule (``basis.column_batch``
at the quadrature nodes); because interior grids are space-major tensor
products, each distinct spatial node is swept over the quadrature nodes
exactly once.  The micro (aprfm) and interior (rfm) rows are written into
the matrix one box tile of ``basis.column_tiles`` at a time, with the
tile as scratch, so no array of the columns at every collocation
velocity is built; entries no tile reaches take the same formula at zero
columns, one broadcast row per node.  Such a row at (x, v) is a local part,
exactly zero in the phase columns of every box whose window does not
reach (x, v), minus the velocity average at x, which is the same for
every v; the solve groups its signatures' units and reflects these rows
by that structure (see :mod:`aprfm.solve`).  An assembler builds the rows
of whatever collocation set it is given; :mod:`aprfm.method` bounds the
memory of a run by assembling it slab by slab.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .basis import column_batch, column_tiles, model_values, tile_index
from .collocation import _phase
from .errors import DegenerateRowError
from .problems import direction

# Row kinds are stored as uint8 codes indexing ROW_KINDS.
ROW_KINDS = ("macro", "micro", "rfm-interior", "boundary")
ROW_MACRO, ROW_MICRO, ROW_RFM, ROW_BOUNDARY = range(len(ROW_KINDS))


@dataclass(frozen=True)
class LinearSystem:
    """Dense system A theta ~ b with per-row kind codes (see ``ROW_KINDS``)
    and row weights ``lam``: the least-squares problem is
    min ||diag(lam) (A theta - b)||, and ``matrix`` and ``rhs`` stay
    unweighted."""

    matrix: np.ndarray
    rhs: np.ndarray
    row_kind: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        for name in ("matrix", "rhs", "lam"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        kinds = np.asarray(self.row_kind, dtype=np.uint8)
        kinds.setflags(write=False)
        object.__setattr__(self, "row_kind", kinds)
        n = self.matrix.shape[0]
        if self.rhs.shape != (n,) or self.row_kind.shape != (n,) \
                or self.lam.shape != (n,):
            raise ValueError("row metadata does not match the matrix")

    @property
    def n_rows(self):
        return self.matrix.shape[0]

    @property
    def n_columns(self):
        return self.matrix.shape[1]


def _check_phase_model(spec, model, role):
    if model.dim != spec.spatial_dim + 1:
        raise ValueError(
            f"{role} model must cover space and velocity "
            f"({spec.spatial_dim + 1} dims), got {model.dim}")


def _check_spatial_model(spec, model, role):
    if model.dim != spec.spatial_dim:
        raise ValueError(
            f"{role} model must cover space ({spec.spatial_dim} dims), "
            f"got {model.dim}")


def _node_columns(model, xs, vs, transport=True):
    """Columns of a phase-space model at every (spatial node, velocity)
    pair, (S, L, Z), and with ``transport`` their derivative along each
    velocity's transport direction, v . grad_x chi (else None), from one
    call of the kernel on the two factors.  Callers bound the work by
    assembling slabs of spatial nodes (see ``aprfm.method``)."""
    shape = (xs.shape[0], vs.size, model.n_columns)
    dirs = direction(xs.shape[1], vs) if transport else None
    chi, dchi = column_batch(model, xs, dirs, velocities=vs)
    return chi.reshape(shape), (None if dchi is None else dchi.reshape(shape))


def _boundary_columns(model, colloc):
    """Column values of a phase-space model at the inflow boundary points."""
    chi, _ = column_batch(model, _phase(colloc.boundary_x, colloc.boundary_v))
    return chi


def _write_interior(out, model, xs, vs, base, tile_rows):
    """Write the interior rows of a phase-space model into ``out`` (S, L,
    Z), one tile of ``basis.column_tiles`` at a time, so a tile's
    arithmetic stays in cache: a tile's entries are ``tile_rows(rows,
    cols, columns, chi, dchi)``, with dchi the transport derivative
    v . grad_x chi; every entry no tile reaches is ``base`` (S, 1, Z),
    the same formula at chi = dchi = 0.  A box's base entries are written
    before its first tile; a tile over every point is a box's only one,
    so they go beside it."""
    n_s, n_l, _ = out.shape
    based = np.zeros(model.n_boxes, dtype=bool)
    width = model.n_features
    for (rows, cols, columns), chi, dchi in column_tiles(
            model, xs, direction(xs.shape[1], vs), velocities=vs):
        box = columns.start // width
        if not based[box]:
            based[box] = True
            if (isinstance(rows, slice) and rows.start == 0
                    and rows.stop == n_s and isinstance(cols, slice)):
                out[:, :cols.start, columns] = base[:, :, columns]
                out[:, cols.stop:, columns] = base[:, :, columns]
            else:
                out[:, :, columns] = base[:, :, columns]
        out[tile_index(rows, cols, columns)] = tile_rows(rows, cols, columns,
                                                         chi, dchi)
    for box in np.flatnonzero(~based):
        columns = slice(box * width, (box + 1) * width)
        out[:, :, columns] = base[:, :, columns]


def assemble_rfm(spec, model, colloc, rule):
    """Assemble the one-shot system over a single phase-space model."""
    _check_phase_model(spec, model, "f")
    xs, vs = colloc.spatial_nodes, colloc.velocity_nodes
    z = model.n_columns
    n_int = colloc.n_interior
    n_bdy = colloc.n_boundary

    chi_q, _ = _node_columns(model, xs, rule.nodes, transport=False)
    avg_chi = np.einsum("q,sqz->sz", rule.weights, chi_q)[:, None, :]
    eps = spec.epsilon_at(xs)[:, None, None]

    def tile_rows(rows, cols, columns, chi, transport):
        # (eps v . grad_x chi - mean_v chi) + chi, in place
        transport *= eps[rows]
        transport -= avg_chi[rows, :, columns]
        transport += chi
        return transport

    matrix = np.empty((n_int + n_bdy, z))
    # at chi = 0 the row is ((eps 0) - mean_v chi) + 0 = 0 - mean_v chi
    _write_interior(matrix[:n_int].reshape(xs.shape[0], vs.size, z), model,
                    xs, vs, 0.0 - avg_chi, tile_rows)
    matrix[n_int:] = _boundary_columns(model, colloc)
    rhs = np.concatenate([spec.rfm_source(xs[:, None], vs).ravel(),
                          colloc.boundary_value])

    row_kind = np.concatenate([np.full(n_int, ROW_RFM, dtype=np.uint8),
                               np.full(n_bdy, ROW_BOUNDARY, dtype=np.uint8)])
    return LinearSystem(matrix=matrix, rhs=rhs, row_kind=row_kind,
                        lam=np.ones(n_int + n_bdy))


def assemble_aprfm(spec, rho_model, g_model, colloc, rule):
    """Assemble the micro-macro system: a macro row per spatial node, then a
    micro row per interior point, then the boundary rows."""
    _check_spatial_model(spec, rho_model, "rho")
    _check_phase_model(spec, g_model, "g")
    xs, vs = colloc.spatial_nodes, colloc.velocity_nodes
    n_x, n_v, dim = xs.shape[0], vs.size, spec.spatial_dim
    z_r = rho_model.n_columns
    z_g = g_model.n_columns
    n_int = colloc.n_interior
    n_bdy = colloc.n_boundary

    eps = spec.epsilon_at(xs)[:, None, None]

    n_rows = n_x + n_int + n_bdy
    bdy = n_x + n_int
    matrix = np.empty((n_rows, z_r + z_g))
    # the micro rows of every (node, velocity) pair, as a view; their
    # terms are written into it in place
    micro = matrix[n_x:bdy].reshape(n_x, n_v, z_r + z_g)
    micro_r = micro[:, :, :z_r]

    # v . grad_x rho at every velocity from the d axis derivatives of the
    # small spatial model
    micro_r[...] = 0.0
    for axis, along in enumerate(direction(dim, vs).T):
        _, d_axis = column_batch(rho_model, xs, np.eye(dim)[axis])
        micro_r += along[None, :, None] * d_axis[:, None, :]
    chi_q, trans_q = _node_columns(g_model, xs, rule.nodes)
    if spec.mixed_scale:
        # 1D only: transport acts on eps(x) g, expanded by the product
        # rule to eps'(x) v g + eps(x) (v dg/dx)
        eps_p = spec.epsilon_prime_at(xs)[:, None, None]
        trans_q = eps_p * rule.nodes[None, :, None] * chi_q + eps * trans_q
    avg_trans = np.einsum("q,sqz->sz", rule.weights, trans_q)
    avg_chi = np.einsum("q,sqz->sz", rule.weights, chi_q)
    at, ac = avg_trans[:, None, :], avg_chi[:, None, :]
    if spec.mixed_scale:
        eps_v = eps_p * vs[None, :, None]

        def tile_rows(rows, cols, columns, chi, trans):
            # ((eps' v chi + eps trans) - mean_v(...)) + chi
            trans *= eps[rows]
            out = eps_v[rows][:, cols] * chi
            out += trans
            out -= at[rows, :, columns]
            out += chi
            return out

        base = 0.0 - at  # ((eps' v 0 + 0 eps) - mean_v(...)) + 0
    else:
        def tile_rows(rows, cols, columns, chi, trans):
            # eps (trans - mean_v trans) + (chi - mean_v chi)
            trans -= at[rows, :, columns]
            trans *= eps[rows]
            trans += chi - ac[rows, :, columns]
            return trans

        base = (0.0 - at) * eps  # the same at chi = trans = 0
        base += 0.0 - ac
    _write_interior(micro[:, :, z_r:], g_model, xs, vs, base, tile_rows)

    matrix[:n_x, :z_r] = 0.0
    matrix[:n_x, z_r:] = avg_trans
    chi_rb, _ = column_batch(rho_model, colloc.boundary_x)
    matrix[bdy:, :z_r] = chi_rb
    np.multiply(spec.epsilon_at(colloc.boundary_x)[:, None],
                _boundary_columns(g_model, colloc), out=matrix[bdy:, z_r:])

    rhs = np.concatenate([spec.macro_source(xs),
                          spec.micro_source(xs[:, None], vs).ravel(),
                          colloc.boundary_value])
    row_kind = np.repeat(np.array([ROW_MACRO, ROW_MICRO, ROW_BOUNDARY],
                                  dtype=np.uint8), [n_x, n_int, n_bdy])
    return LinearSystem(matrix=matrix, rhs=rhs, row_kind=row_kind,
                        lam=np.ones(n_rows))


def rescale_rows(system, first_row=0):
    """Set the row weights so that every weighted row's largest entry has
    absolute value one.  The matrix is not copied: the solve applies the
    weights as it reads the rows.

    ``system`` may be a row block of a larger system whose first row has
    index ``first_row``; an all-zero row is reported by that global index.
    """
    # max |a_ij| over j without an |A| temporary
    matrix = system.matrix
    row_max = np.abs(system.lam) * np.maximum(matrix.max(axis=1),
                                              -matrix.min(axis=1))
    if np.any(row_max == 0.0):
        idx = int(np.argmax(row_max == 0.0))
        raise DegenerateRowError(first_row + idx,
                                 ROW_KINDS[system.row_kind[idx]])
    return dataclasses.replace(system, lam=system.lam / row_max)


def reconstruct_f(spec, rho_model, g_model, coeffs, xs, vs):
    """f = rho + eps g (eps(x) g for the mixed variant) at the space-major
    product of the spatial points xs (S, d) and velocities vs (L,), (S L,);
    rho is evaluated once per spatial point."""
    coeffs = np.asarray(coeffs, dtype=float)
    z_r = rho_model.n_columns
    if coeffs.shape != (z_r + g_model.n_columns,):
        raise ValueError("coefficient length does not match the models")
    xs = np.asarray(xs, dtype=float)
    rho = model_values(rho_model, coeffs[:z_r], xs)
    g = model_values(g_model, coeffs[z_r:], xs, vs).reshape(xs.shape[0], -1)
    return (rho[:, None] + spec.epsilon_at(xs)[:, None] * g).ravel()
