"""Dense least-squares assembly for the one-shot and micro-macro solvers.

One-shot ("rfm") rows discretize

    eps(x) v . grad_x f - mean_v f + f = rfm_source

over a single phase-space feature model.  Micro-macro ("aprfm") rows come
in pairs per interior collocation point,

    macro:  mean_v(v . grad_x g) + sigma_a rho = macro_source,
    micro:  v . grad_x rho + eps (Id - P)(v . grad_x g)
            - sigma_s (mean_v g - g) + eps^2 sigma_a g = micro_source,

with the spatial model for rho in the leading column block and the phase
model for g trailing; boundary rows impose rho + eps g = f_bdy.  The
mixed-scale variant replaces the eps-scaled micro/macro transport by
derivatives of eps(x) g (product rule) and adds g itself to the micro row.

Angular averages are evaluated with the supplied quadrature rule; because
interior grids are space-major tensor products, each distinct spatial node
is swept over the quadrature nodes exactly once.
"""

from dataclasses import dataclass

import numpy as np

from .basis import column_batch, model_values
from .errors import DegenerateRowError, InvalidProblemError
from .problems import direction

ROW_MACRO = "macro"
ROW_MICRO = "micro"
ROW_RFM = "rfm-interior"
ROW_BOUNDARY = "boundary"

# Cap on intermediate feature-tensor size (doubles) when chunking assembly.
_CHUNK_BUDGET = 16_000_000


@dataclass(frozen=True)
class LinearSystem:
    """Dense system A theta ~ b with per-row tags and rescale factors."""

    matrix: np.ndarray
    rhs: np.ndarray
    row_kind: np.ndarray
    lam: np.ndarray
    n_interior: int
    n_boundary: int
    n_rho_columns: int

    def __post_init__(self):
        for name in ("matrix", "rhs", "lam"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        kinds = np.asarray(self.row_kind)
        kinds.setflags(write=False)
        object.__setattr__(self, "row_kind", kinds)
        n = self.matrix.shape[0]
        if self.rhs.shape != (n,) or self.row_kind.shape != (n,) \
                or self.lam.shape != (n,):
            raise ValueError("row metadata does not match the matrix")
        paired = np.any(kinds == ROW_MACRO)
        expected = (2 if paired else 1) * self.n_interior + self.n_boundary
        if n != expected:
            raise ValueError("row count does not match interior/boundary counts")

    @property
    def n_rows(self):
        return self.matrix.shape[0]

    @property
    def n_columns(self):
        return self.matrix.shape[1]


def _phase_points(xs, vs):
    """Tensor phase grid (len(xs) * len(vs), d + 1), space-major."""
    n_x, n_v = xs.shape[0], vs.size
    out = np.empty((n_x * n_v, xs.shape[1] + 1))
    out[:, :-1] = np.repeat(xs, n_v, axis=0)
    out[:, -1] = np.tile(vs, n_x)
    return out


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


def _tensor_nodes(colloc):
    """Spatial (S, d) and velocity (L,) nodes of a tensor-grid interior."""
    xs, vs = colloc.spatial_nodes, colloc.velocity_nodes
    if colloc.n_interior != xs.shape[0] * vs.size:
        raise ValueError("collocation interior is not a tensor grid")
    return xs, vs


def _node_chunks(model, xs, vs, rule):
    """Columns of a phase-space model over chunks of spatial nodes.

    Yields ``(s0, s1, chi, dchi, chi_q, dchi_q)`` for the nodes ``s0:s1``:
    values (cs, L, Z) and gradients (cs, L, Z, d + 1) at the velocities
    ``vs``, then the same at the rule nodes (cs, Q, ...).
    """
    n_x, n_v, n_q = xs.shape[0], vs.size, rule.n_nodes
    z, dim = model.n_columns, model.dim
    chunk = max(1, _CHUNK_BUDGET // max((n_v + n_q) * z * dim, 1))
    for s0 in range(0, n_x, chunk):
        s1 = min(s0 + chunk, n_x)
        cs = s1 - s0
        chi, dchi = column_batch(model, _phase_points(xs[s0:s1], vs))
        chi_q, dchi_q = column_batch(model,
                                     _phase_points(xs[s0:s1], rule.nodes))
        yield (s0, s1, chi.reshape(cs, n_v, z), dchi.reshape(cs, n_v, z, dim),
               chi_q.reshape(cs, n_q, z), dchi_q.reshape(cs, n_q, z, dim))


def _boundary_columns(model, colloc):
    """Column values of a phase-space model at the inflow boundary points."""
    points = np.concatenate([colloc.boundary_x, colloc.boundary_v[:, None]],
                            axis=1)
    chi, _ = column_batch(model, points)
    return chi


def assemble_rfm(spec, model, colloc, rule):
    """Assemble the one-shot system over a single phase-space model."""
    _check_phase_model(spec, model, "f")
    xs, vs = _tensor_nodes(colloc)
    n_v, dim, z = vs.size, spec.spatial_dim, model.n_columns
    n_int = colloc.n_interior
    n_bdy = colloc.n_boundary

    matrix = np.empty((n_int + n_bdy, z))
    rhs = np.empty(n_int + n_bdy)
    dirs_v = direction(dim, vs)
    eps = spec.epsilon_at(xs)

    for s0, s1, chi, dchi, chi_q, _ in _node_chunks(model, xs, vs, rule):
        avg_chi = np.einsum("q,sqz->sz", rule.weights, chi_q)
        transport = np.einsum("la,slza->slz", dirs_v, dchi[..., :dim])
        rows = (eps[s0:s1, None, None] * transport
                - avg_chi[:, None, :] + chi)
        matrix[s0 * n_v:s1 * n_v] = rows.reshape(-1, z)
        x_rep = np.repeat(xs[s0:s1], n_v, axis=0)
        rhs[s0 * n_v:s1 * n_v] = spec.rfm_source(x_rep,
                                                 np.tile(vs, s1 - s0))

    matrix[n_int:] = _boundary_columns(model, colloc)
    rhs[n_int:] = colloc.boundary_value

    row_kind = np.concatenate([np.full(n_int, ROW_RFM, dtype="<U12"),
                               np.full(n_bdy, ROW_BOUNDARY, dtype="<U12")])
    return LinearSystem(matrix=matrix, rhs=rhs, row_kind=row_kind,
                        lam=np.ones(n_int + n_bdy),
                        n_interior=n_int, n_boundary=n_bdy, n_rho_columns=0)


def assemble_aprfm(spec, rho_model, g_model, colloc, rule):
    """Assemble the micro-macro system (macro/micro row pair per point)."""
    _check_spatial_model(spec, rho_model, "rho")
    _check_phase_model(spec, g_model, "g")
    xs, vs = _tensor_nodes(colloc)
    n_v, dim = vs.size, spec.spatial_dim
    z_r = rho_model.n_columns
    z_g = g_model.n_columns
    z = z_r + z_g
    n_int = colloc.n_interior
    n_bdy = colloc.n_boundary

    sig_s = spec.sigma_s(xs)
    sig_a = spec.sigma_a(xs)
    eps = spec.epsilon_at(xs)
    eps_p = spec.epsilon_prime_at(xs)
    if spec.mixed_scale and (dim != 1 or np.any(sig_a != 0.0)):
        raise InvalidProblemError(
            "mixed-scale assembly supports 1D problems with sigma_a = 0")

    dirs_v = direction(dim, vs)
    dirs_q = direction(dim, rule.nodes)
    chi_r, dchi_r = column_batch(rho_model, xs)
    transport_r = np.einsum("la,sza->slz", dirs_v, dchi_r)

    matrix = np.empty((2 * n_int + n_bdy, z))
    rhs = np.empty(2 * n_int + n_bdy)

    macro_b = spec.macro_source(xs)

    for s0, s1, chi, dchi, chi_q, dchi_q in _node_chunks(g_model, xs, vs,
                                                         rule):
        cs = s1 - s0
        if spec.mixed_scale:
            # 1D only: transport acts on eps(x) g, expanded by the product
            # rule to eps'(x) v g + eps(x) v dg/dx
            scale = eps[s0:s1, None, None]
            scale_p = eps_p[s0:s1, None, None]
            trans_q = rule.nodes[None, :, None] * (scale_p * chi_q
                                                   + scale * dchi_q[..., 0])
            trans_c = vs[None, :, None] * (scale_p * chi
                                           + scale * dchi[..., 0])
        else:
            trans_q = np.einsum("qa,sqza->sqz", dirs_q, dchi_q[..., :dim])
            trans_c = np.einsum("la,slza->slz", dirs_v, dchi[..., :dim])
        avg_trans = np.einsum("q,sqz->sz", rule.weights, trans_q)
        avg_chi = np.einsum("q,sqz->sz", rule.weights, chi_q)

        macro_g = np.broadcast_to(avg_trans[:, None, :], (cs, n_v, z_g))
        macro_r = np.broadcast_to((sig_a[s0:s1, None] * chi_r[s0:s1])[:, None, :],
                                  (cs, n_v, z_r))
        if spec.mixed_scale:
            micro_g = trans_c - avg_trans[:, None, :] + chi
        else:
            e = eps[s0:s1, None, None]
            micro_g = (e * (trans_c - avg_trans[:, None, :])
                       + sig_s[s0:s1, None, None] * (chi - avg_chi[:, None, :])
                       + (e * e) * sig_a[s0:s1, None, None] * chi)
        micro_r = transport_r[s0:s1]

        block = np.empty((2 * cs * n_v, z))
        block[0::2, :z_r] = macro_r.reshape(cs * n_v, z_r)
        block[0::2, z_r:] = macro_g.reshape(cs * n_v, z_g)
        block[1::2, :z_r] = micro_r.reshape(cs * n_v, z_r)
        block[1::2, z_r:] = micro_g.reshape(cs * n_v, z_g)
        matrix[2 * s0 * n_v:2 * s1 * n_v] = block

        x_rep = np.repeat(xs[s0:s1], n_v, axis=0)
        rhs[2 * s0 * n_v:2 * s1 * n_v:2] = np.repeat(macro_b[s0:s1], n_v)
        rhs[2 * s0 * n_v + 1:2 * s1 * n_v:2] = spec.micro_source(
            x_rep, np.tile(vs, cs))

    chi_rb, _ = column_batch(rho_model, colloc.boundary_x)
    eps_b = spec.epsilon_at(colloc.boundary_x)
    matrix[2 * n_int:, :z_r] = chi_rb
    matrix[2 * n_int:, z_r:] = eps_b[:, None] * _boundary_columns(g_model,
                                                                  colloc)
    rhs[2 * n_int:] = colloc.boundary_value

    row_kind = np.empty(2 * n_int + n_bdy, dtype="<U12")
    row_kind[0:2 * n_int:2] = ROW_MACRO
    row_kind[1:2 * n_int:2] = ROW_MICRO
    row_kind[2 * n_int:] = ROW_BOUNDARY
    return LinearSystem(matrix=matrix, rhs=rhs, row_kind=row_kind,
                        lam=np.ones(2 * n_int + n_bdy),
                        n_interior=n_int, n_boundary=n_bdy, n_rho_columns=z_r)


def rescale_rows(system):
    """Scale every row so its largest entry has absolute value one."""
    row_max = np.max(np.abs(system.matrix), axis=1)
    if np.any(row_max == 0.0):
        idx = int(np.argmax(row_max == 0.0))
        raise DegenerateRowError(idx, system.row_kind[idx])
    factor = 1.0 / row_max
    return LinearSystem(matrix=system.matrix * factor[:, None],
                        rhs=system.rhs * factor,
                        row_kind=system.row_kind,
                        lam=system.lam * factor,
                        n_interior=system.n_interior,
                        n_boundary=system.n_boundary,
                        n_rho_columns=system.n_rho_columns)


def split_coefficients(system, coeffs):
    """Split a solution vector into its rho and g parts."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (system.n_columns,):
        raise ValueError("coefficient length does not match the system")
    return coeffs[:system.n_rho_columns], coeffs[system.n_rho_columns:]


def reconstruct_f(spec, rho_model, g_model, coeffs, x, v):
    """Rebuild f = rho + eps g (eps(x) g for the mixed variant) pointwise."""
    coeffs = np.asarray(coeffs, dtype=float)
    z_r = rho_model.n_columns
    if coeffs.shape != (z_r + g_model.n_columns,):
        raise ValueError("coefficient length does not match the models")
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    rho = model_values(rho_model, coeffs[:z_r], x)
    phase = np.concatenate([x, v[:, None]], axis=1)
    g = model_values(g_model, coeffs[z_r:], phase)
    return rho + spec.epsilon_at(x) * g
