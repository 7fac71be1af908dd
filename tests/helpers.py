"""Shared pipeline helpers for the test suite.

The solver helpers map their arguments onto a ``cli.RunConfig`` and solve
through ``aprfm.method``, the path the CLI ships.  ``stack_blocks`` and
``dense_lstsq`` rebuild the whole matrix and solve it the pre-streaming
way, as references for the streamed solve, and ``single_factor_lstsq``
folds every row into one full-width factor, as the reference for the
factors per signature; ``repeated_macro_blocks``
writes each macro row once per velocity, unweighted, as the reference for
the weighted single macro row; ``dense_column_batch``,
``dense_model_values`` and ``dense_assembly`` evaluate every box at every
point with full gradients, as references for the support-restricted
directional kernel; ``unfused_blocks`` builds the row blocks from full
column arrays, as the reference for the rows written tile by tile and
the inflow rows written in place; ``micro_macro_residuals`` and
``exact_micro_macro_pair`` state the micro-macro equations pointwise, in
the normal form of ``aprfm.problems`` (sigma_s = 1, sigma_a = 0), as
references for the problem sources; ``dense_solve_1d`` solves the 1D
oracle through dense upwind propagators, as the reference for its sparse
solve.
``blas_threads`` sets the BLAS thread count a lone run finds, and
``fold_flops`` counts the flops of the QR folds."""

import contextlib
import dataclasses

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dtpqrt

from aprfm import assemble, basis, cli, collocation, reference
from aprfm.collocation import _phase, _tensor
from aprfm.errors import UnsupportedProblemError
from aprfm.method import Method, solve
from aprfm.problems import direction, v_dot
from aprfm import solve as solve_module
from aprfm.solve import SolveReport, _blas_thread_controls


@contextlib.contextmanager
def blas_threads(count):
    """Both bundled OpenBLAS copies on ``count`` threads inside the body,
    their counts restored after it; yields their (get, set) controls."""
    controls = _blas_thread_controls()
    assert controls is not None
    original = [get() for get, _ in controls]
    for _, put in controls:
        put(count)
    try:
        yield controls
    finally:
        for (_, put), previous in zip(controls, original):
            put(previous)


@contextlib.contextmanager
def fold_flops():
    """Count 2 m n^2 for every fold of m rows over n columns
    (``solve._fold``) inside the body; yields the totals, in flops, of
    the block folds (``"fold"``) and of the merge's folds (``"merge"``,
    whose rows are trapezoidal, so the count is an upper bound)."""
    totals = {"fold": 0.0, "merge": 0.0}
    fold = solve_module._fold

    def counting(r, rows, l=0):
        m, n = rows.shape
        totals["merge" if l else "fold"] += 2.0 * m * n * n
        fold(r, rows, l)

    solve_module._fold = counting
    try:
        yield totals
    finally:
        solve_module._fold = fold


def run_config(spec, method, n_spatial=(2, 2), n_velocity=2, m_spatial=(1,),
               m_velocity=1, seed=0, n_quad=16, activation="tanh",
               **features):
    """The resolved ``cli.RunConfig`` of a run on ``spec``; ``features``
    gives ``j`` or ``jrho`` and ``jg``.  A one-entry ``m_spatial`` means one box per
    axis in 2D; the grid defaults suit callers that only build models."""
    if spec.spatial_dim == 1:
        counts = dict(mx=m_spatial[0], nx=n_spatial[0])
    else:
        mx1, mx2 = (1, 1) if len(m_spatial) == 1 else m_spatial
        counts = dict(mx1=mx1, mx2=mx2, nx1=n_spatial[0], nx2=n_spatial[1])
    epsilon = spec.epsilon if spec.epsilon_is_constant else "profile"
    return cli.RunConfig(problem=spec.id, method=method, epsilon=epsilon,
                         mv=m_velocity, nv=n_velocity, nq=n_quad, seed=seed,
                         activation=activation, **counts,
                         **features).validate().resolved()


def build_models(spec, j_rho, j_g, m_spatial, m_velocity, seed,
                 activation="tanh"):
    config = run_config(spec, "aprfm", m_spatial=m_spatial,
                        m_velocity=m_velocity, seed=seed,
                        activation=activation, jrho=j_rho, jg=j_g)
    return Method.build(spec, config).models


def build_f_model(spec, j, m_spatial, m_velocity, seed, activation="tanh"):
    config = run_config(spec, "rfm", m_spatial=m_spatial,
                        m_velocity=m_velocity, seed=seed,
                        activation=activation, j=j)
    return Method.build(spec, config).models[0]


def stack_blocks(blocks):
    """One ``LinearSystem`` from consecutive row blocks."""
    blocks = list(blocks)
    return assemble.LinearSystem(
        matrix=np.concatenate([b.matrix for b in blocks]),
        rhs=np.concatenate([b.rhs for b in blocks]),
        row_kind=np.concatenate([b.row_kind for b in blocks]),
        lam=np.concatenate([b.lam for b in blocks]))


def weighted(system):
    """The rows the solve sees, diag(lam) A and diag(lam) b."""
    return system.matrix * system.lam[:, None], system.rhs * system.lam


def repeated_macro_blocks(meth, colloc, rule):
    """The row blocks of an aprfm ``meth.blocks`` in the layout before the
    macro rows were compressed: every interior point carries its node's
    macro row next to its micro row, (macro, micro) pairs in point order,
    and the rows are rescaled with no macro weight."""
    n_v = colloc.velocity_nodes.size
    for block in meth.blocks(colloc, rule):
        n_x = np.count_nonzero(block.row_kind == assemble.ROW_MACRO)
        n_int = np.count_nonzero(block.row_kind == assemble.ROW_MICRO)
        order = np.empty(2 * n_int, dtype=int)
        order[0::2] = np.repeat(np.arange(n_x), n_v)
        order[1::2] = n_x + np.arange(n_int)
        order = np.concatenate([order, np.arange(n_x + n_int, block.n_rows)])
        yield assemble.rescale_rows(assemble.LinearSystem(
            matrix=block.matrix[order], rhs=block.rhs[order],
            row_kind=block.row_kind[order], lam=np.ones(order.size)))


def single_factor_lstsq(blocks, rank_tol=1e-12):
    """The streamed solve before factors per signature: every block's
    weighted rows folded at full width into one factor of [A | b], then
    gelsd on it, with rank, condition estimate and residual taken the same
    way as ``lstsq``."""
    r = None
    for block in blocks:
        z = block.n_columns
        if r is None:
            r = np.zeros((z + 1, z + 1), order="F")
        rows = np.empty((block.n_rows, z + 1), order="F")
        rows[:, :z] = block.matrix
        rows[:, :z] *= block.lam[:, None]
        np.multiply(block.rhs, block.lam, out=rows[:, z])
        r, _, _, info = dtpqrt(0, min(16, z + 1), r, rows, overwrite_a=1,
                               overwrite_b=1)
        assert info == 0
    coeffs, _, rank, sing = scipy.linalg.lstsq(
        r[:z, :z], r[:z, z], cond=rank_tol, lapack_driver="gelsd",
        check_finite=False)
    residual = float(np.hypot(np.linalg.norm(r[:z, :z] @ coeffs - r[:z, z]),
                              r[z, z]))
    retained = sing[sing > rank_tol * sing[0]]
    return SolveReport(coeffs=coeffs, residual_norm=residual, rank=int(rank),
                       condition_estimate=float(sing[0] / retained[-1]),
                       singular_tail=tuple(map(float, retained[-8:])),
                       wall_time=0.0)


def dense_lstsq(system, rank_tol=1e-12):
    """The solve before streaming: gelsd on the whole matrix, with rank,
    condition estimate and residual taken the same way as ``lstsq``."""
    matrix, rhs = weighted(system)
    coeffs, _, rank, sing = scipy.linalg.lstsq(
        matrix, rhs, cond=rank_tol, lapack_driver="gelsd")
    retained = sing[sing > rank_tol * sing[0]]
    return SolveReport(coeffs=coeffs,
                       residual_norm=float(np.linalg.norm(matrix @ coeffs
                                                          - rhs)),
                       rank=int(rank),
                       condition_estimate=float(sing[0] / retained[-1]),
                       singular_tail=tuple(retained[-8:]), wall_time=0.0)


def solve_aprfm(spec, j_rho, j_g, n_spatial, n_velocity, m_spatial=(1,),
                m_velocity=1, seed=0, n_quad=16, activation="tanh"):
    """Assemble + rescale + solve; returns (models, solve report, the
    system restacked from its row blocks, with their weights)."""
    solution = solve(spec, run_config(
        spec, "aprfm", n_spatial, n_velocity, m_spatial, m_velocity, seed,
        n_quad, activation, jrho=j_rho, jg=j_g))
    system = stack_blocks(solution.method.blocks(solution.colloc,
                                                 solution.rule))
    return solution.method.models, solution.report, system


def _f_error(solution, reference_field):
    eval_xs, eval_vs = collocation.evaluation_nodes(solution.method.spec)
    values = solution.method.f_values(solution.report.coeffs, eval_xs,
                                      eval_vs)
    approx = reference.phase_field(eval_xs, eval_vs, values)
    return reference.relative_l2(approx, reference_field)


def aprfm_f_error(spec, j_rho, j_g, n_spatial, n_velocity, reference_field,
                  **kwargs):
    """Relative l2 error of the rebuilt f on the evaluation phase grid."""
    return _f_error(solve(spec, run_config(spec, "aprfm", n_spatial,
                                           n_velocity, jrho=j_rho, jg=j_g,
                                           **kwargs)), reference_field)


def aprfm_rho_error(spec, j_rho, j_g, n_spatial, n_velocity, reference_field,
                    n_quad=16, **kwargs):
    """Relative l2 density error on the spatial evaluation grid."""
    solution = solve(spec, run_config(spec, "aprfm", n_spatial, n_velocity,
                                      n_quad=n_quad, jrho=j_rho, jg=j_g,
                                      **kwargs))
    xs, _ = collocation.evaluation_nodes(spec)
    values = solution.method.rho_values(solution.report.coeffs,
                                        solution.rule, xs)
    return reference.relative_l2(reference.GridField(points=xs, values=values),
                                 reference_field)


def rfm_f_error(spec, j, n_spatial, n_velocity, m_spatial=(1,),
                m_velocity=1, seed=0, n_quad=16):
    """Vanilla one-shot solve; error of f on the evaluation phase grid."""
    solution = solve(spec, run_config(spec, "rfm", n_spatial, n_velocity,
                                      m_spatial, m_velocity, seed, n_quad,
                                      j=j))
    return _f_error(solution, exact_field_for(spec))


def exact_field_for(spec):
    return reference.exact_field(spec, collocation.evaluation_nodes(spec))


def exact_rho_field(spec):
    xs, _ = collocation.evaluation_nodes(spec)
    return reference.GridField(points=xs, values=spec.exact_rho(xs))


# -- every box at every point, full gradients: the kernel's reference -------

def _dense_windows(partition, points):
    """Normalized bump values (n, M) and gradients (n, M, d)."""
    z = (points[:, None, :] - partition.centers) / partition.radii
    u, du_dz = basis._axis_pou(z)
    du = du_dz / partition.radii
    psi = np.prod(u, axis=2)
    dpsi = np.empty(u.shape)
    for axis in range(partition.dim):
        dpsi[:, :, axis] = du[:, :, axis] * np.prod(
            np.delete(u, axis, axis=2), axis=2)
    total = psi.sum(axis=1)
    psi_t = psi / total[:, None]
    dpsi_t = (dpsi - psi_t[:, :, None] * dpsi.sum(axis=1)[:, None, :]) \
        / total[:, None, None]
    return psi_t, dpsi_t


def _dense_features(model, points):
    """Neuron values (n, M, J) and gradients (n, M, J, d)."""
    partition = model.partition
    z = (points[:, None, :] - partition.centers) / partition.radii
    t = np.einsum("nmd,mjd->nmj", z, model.w) + model.b
    if model.activation == "tanh":
        phi = np.tanh(t)
        dact = 1.0 - phi * phi
    else:
        phi = np.sin(np.pi * t)
        dact = np.pi * np.cos(np.pi * t)
    return phi, dact[..., None] * (model.w / partition.radii[:, None, :])


def dense_column_batch(model, points):
    """Columns chi (n, Z) and full gradients (n, Z, d), every box at
    every point."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    psi_t, dpsi_t = _dense_windows(model.partition, points)
    phi, dphi = _dense_features(model, points)
    chi = (psi_t[:, :, None] * phi).reshape(n, model.n_columns)
    dchi = (dpsi_t[:, :, None, :] * phi[..., None]
            + psi_t[:, :, None, None] * dphi)
    return chi, dchi.reshape(n, model.n_columns, model.dim)


def dense_model_values(model, coeffs, points):
    points = np.asarray(points, dtype=float)
    psi_t, _ = _dense_windows(model.partition, points)
    phi, _ = _dense_features(model, points)
    return np.einsum("nm,nmj,mj->n", psi_t, phi,
                     np.reshape(coeffs, (model.n_boxes, model.n_features)))


def dense_assembly(meth, colloc, rule):
    """The unscaled matrix of ``meth`` on a tensor-grid ``colloc`` from
    dense columns and gradients, with the transport direction contracted
    afterwards."""
    spec = meth.spec
    dim = spec.spatial_dim
    xs, vs = colloc.spatial_nodes, colloc.velocity_nodes
    n_x = xs.shape[0]
    phase = meth.models[-1]

    def node_columns(nodes):
        chi, dchi = dense_column_batch(phase, _phase(*_tensor(xs, nodes)))
        return (chi.reshape(n_x, nodes.size, -1),
                dchi.reshape(n_x, nodes.size, phase.n_columns, dim + 1))

    def transport(nodes, dchi):
        return np.einsum("la,slza->slz", direction(dim, nodes),
                         dchi[..., :dim])

    chi, dchi = node_columns(vs)
    chi_q, dchi_q = node_columns(rule.nodes)
    avg_chi = np.einsum("q,sqz->sz", rule.weights, chi_q)
    eps = spec.epsilon_at(xs)[:, None, None]
    chi_b, _ = dense_column_batch(phase, np.column_stack(
        [colloc.boundary_x, colloc.boundary_v]))
    if meth.name == "rfm":
        rows = eps * transport(vs, dchi) - avg_chi[:, None, :] + chi
        return np.concatenate([rows.reshape(-1, phase.n_columns), chi_b])
    rho_model = meth.models[0]
    if spec.mixed_scale:
        eps_p = spec.epsilon_prime_at(xs)[:, None, None]
        trans_q = rule.nodes[None, :, None] * (eps_p * chi_q
                                               + eps * dchi_q[..., 0])
        trans_c = vs[None, :, None] * (eps_p * chi + eps * dchi[..., 0])
    else:
        trans_q, trans_c = transport(rule.nodes, dchi_q), transport(vs, dchi)
    avg_trans = np.einsum("q,sqz->sz", rule.weights, trans_q)
    if spec.mixed_scale:
        micro_g = trans_c - avg_trans[:, None, :] + chi
    else:
        micro_g = (eps * (trans_c - avg_trans[:, None, :])
                   + (chi - avg_chi[:, None, :]))
    _, dchi_r = dense_column_batch(rho_model, xs)
    macro = np.concatenate([np.zeros((xs.shape[0], rho_model.n_columns)),
                            avg_trans], axis=1)
    micro = np.concatenate(
        [np.einsum("la,sza->slz", direction(dim, vs), dchi_r), micro_g],
        axis=2)
    boundary = np.concatenate(
        [dense_column_batch(rho_model, colloc.boundary_x)[0],
         spec.epsilon_at(colloc.boundary_x)[:, None] * chi_b], axis=1)
    return np.concatenate([macro, micro.reshape(-1, micro.shape[-1]),
                           boundary])


# -- full column arrays, then the rows: the tile-by-tile writes' reference ---

def unfused_assembly(meth, colloc, rule):
    """``meth.assemble``'s system with the phase-model columns of its
    interior (rfm) or micro (aprfm) rows rebuilt from ``column_batch``'s
    full (S, L, Z) columns and transport derivatives, each element with
    the operation order the assemblers keep, and for aprfm the g columns
    of its inflow rows as eps times the inflow columns."""
    system = Method.assemble(meth, colloc, rule)  # meth may be Unfused
    spec, phase = meth.spec, meth.models[-1]
    xs, vs = colloc.spatial_nodes, colloc.velocity_nodes
    chi, trans = assemble._node_columns(phase, xs, vs)
    chi_q, trans_q = assemble._node_columns(phase, xs, rule.nodes)
    eps = spec.epsilon_at(xs)[:, None, None]
    avg_chi = np.einsum("q,sqz->sz", rule.weights, chi_q)[:, None, :]
    if spec.mixed_scale:
        eps_p = spec.epsilon_prime_at(xs)[:, None, None]
        trans_q = eps_p * rule.nodes[None, :, None] * chi_q + eps * trans_q
    avg_trans = np.einsum("q,sqz->sz", rule.weights, trans_q)[:, None, :]
    if meth.name == "rfm":
        kind = assemble.ROW_RFM
        rows = ((eps * trans) - avg_chi) + chi
    elif spec.mixed_scale:
        kind = assemble.ROW_MICRO
        rows = (((eps_p * vs[None, :, None]) * chi + trans * eps)
                - avg_trans) + chi
    else:
        kind = assemble.ROW_MICRO
        rows = (trans - avg_trans) * eps + (chi - avg_chi)
    matrix = system.matrix.copy()
    matrix[system.row_kind == kind, -phase.n_columns:] = rows.reshape(
        -1, phase.n_columns)
    if meth.name == "aprfm":
        matrix[system.row_kind == assemble.ROW_BOUNDARY,
               -phase.n_columns:] = (
            spec.epsilon_at(colloc.boundary_x)[:, None]
            * assemble._boundary_columns(phase, colloc))
    return dataclasses.replace(system, matrix=matrix)


def unfused_blocks(meth, colloc, rule):
    """``meth.blocks`` with every block assembled by ``unfused_assembly``."""

    class Unfused(Method):
        def assemble(self, colloc, rule):
            return unfused_assembly(self, colloc, rule)

    return Unfused(meth.name, meth.spec, meth.models).blocks(colloc, rule)


# -- the micro-macro equations pointwise: the sources' reference ------------

def micro_macro_residuals(spec, x, v, rho_val, rho_grad, g_val, g_grad,
                          avg_v_grad_g, g_collision):
    """Residuals of the macro and micro equations at phase points (x, v).

    The caller supplies the angular pieces evaluated at (x, v):
    ``avg_v_grad_g`` is the angular average of v . grad_x g at x, and
    ``g_collision`` is the collision term mean_v g - g.  For the
    mixed-scale problem ``g_grad`` and ``avg_v_grad_g`` must already refer
    to the product eps(x) g (expanded via the product rule), and
    ``g_collision`` is unused.
    """
    x = np.asarray(x, dtype=float)
    transport = v_dot(spec.spatial_dim, v, g_grad)
    macro = avg_v_grad_g - spec.macro_source(x)
    if spec.mixed_scale:
        micro = (v_dot(spec.spatial_dim, v, rho_grad)
                 + (transport - avg_v_grad_g) + g_val)
        return macro, micro
    eps = spec.epsilon_at(x)
    micro = (v_dot(spec.spatial_dim, v, rho_grad)
             + eps * (transport - avg_v_grad_g)
             - g_collision
             - spec.micro_source(x, v))
    return macro, micro


def exact_micro_macro_pair(spec, rule):
    """Exact (rho, g) derived from the exact solution: rho is the angular
    average of the exact f by ``rule`` and g = (f - rho) / eps.  Needs an
    exact solution and a constant eps."""
    if spec.exact_f is None:
        raise UnsupportedProblemError(f"{spec.id} has no exact solution")
    if not spec.epsilon_is_constant:
        raise UnsupportedProblemError("exact pair needs a constant epsilon")
    eps = float(spec.epsilon)

    def rho(x):
        x = np.asarray(x, dtype=float)
        samples = np.stack([spec.exact_f(x, np.full(x.shape[:-1], node))
                            for node in rule.nodes], axis=-1)
        return samples @ rule.weights

    def g(x, v):
        return (spec.exact_f(x, v) - rho(x)) / eps

    return rho, g


# -- plain source iteration, the reference for the oracle's fast solves ------

def source_iteration_1d(spec, n_cells, rule, sweep_tol, max_iters=100_000):
    """Density on the 1D oracle's cell centers by unaccelerated source
    iteration: sweep every ordinate with the lagged scattering source until
    the angular flux changes by less than ``sweep_tol``."""
    lo, hi = spec.x_lo[0], spec.x_hi[0]
    n = int(n_cells)
    x = collocation.cell_centers(lo, hi, n)[:, None]
    eps = spec.epsilon_at(x)
    # each ordinate's cells in the order it crosses them
    order = np.array([np.arange(n)[::-1] if v < 0 else np.arange(n)
                      for v in rule.nodes])
    a = eps[order] * np.abs(rule.nodes)[:, None] * n / (hi - lo)
    den = a + 1.0
    ratio = a / den
    src = np.take_along_axis(
        np.stack([spec.rfm_source(x, np.full(n, v)) for v in rule.nodes]),
        order, axis=1)
    faces = np.where(rule.nodes < 0, hi, lo)[:, None]
    inflow = ratio[:, 0] * spec.boundary_value(faces, rule.nodes)
    # upwind recurrence f_i = ratio_i f_(i-1) + q_i as a lower-triangular
    # propagator per ordinate
    prop = np.zeros((rule.n_nodes, n, n))
    prop[:, 0, 0] = 1.0
    for i in range(1, n):
        prop[:, i, :i] = ratio[:, i, None] * prop[:, i - 1, :i]
        prop[:, i, i] = 1.0
    rho = np.zeros(n)
    f = np.zeros((rule.n_nodes, n))
    for _ in range(max_iters):
        q = (rho[order] + src) / den
        q[:, 0] += inflow
        f_new = np.matmul(prop, q[:, :, None])[:, :, 0]
        change = np.max(np.abs(f_new - f))
        f = f_new
        rho = rule.weights @ np.take_along_axis(f, order, axis=1)
        if change < sweep_tol:
            return rho
    raise AssertionError(f"source iteration stalled at change {change:.3e}")


def dense_solve_1d(spec, n_cells, rule, velocities):
    """The 1D oracle's cell centers, density and angular flux at
    ``velocities`` the dense way: each ordinate's lower-triangular upwind
    propagator P_m, built by the recurrence on the identity, gives
    rho = K rho + b with K = sum_m w_m O_m P_m diag(1/den_m) O_m and
    b = sum_m w_m O_m P_m q_m (O_m the crossing order),
    solved by ``np.linalg.solve``; then one sweep per velocity."""
    lo, hi = spec.x_lo[0], spec.x_hi[0]
    x = collocation.cell_centers(lo, hi, n_cells)
    n = x.size
    h = (hi - lo) / n
    eps = spec.epsilon_at(x[:, None])

    def sweep_terms(vs, scattering):
        order = np.where(vs[:, None] < 0, np.arange(n)[::-1], np.arange(n))
        a = eps[order] * np.abs(vs)[:, None] / h
        den = a + 1.0
        ratio = a / den
        src = spec.rfm_source(x[None, :, None], vs[:, None])
        q = (np.take_along_axis(src, order, axis=1) + scattering[order]) / den
        faces = np.where(vs < 0, hi, lo)[:, None]
        q[:, 0] += ratio[:, 0] * spec.boundary_value(faces, vs)
        return order, den, ratio, q

    order, den, ratio, q = sweep_terms(rule.nodes, np.zeros(n))
    prop = reference._upwind(ratio, np.broadcast_to(np.eye(n),
                                                    (rule.n_nodes, n, n)))
    kernel = np.zeros((n, n))
    rhs = np.zeros(n)
    for m, weight in enumerate(rule.weights):
        block = prop[m] / den[m][None, :]
        kernel += weight * block[np.ix_(order[m], order[m])]
        rhs += weight * (prop[m] @ q[m])[order[m]]
    rho = np.linalg.solve(np.eye(n) - kernel, rhs)
    order, _, ratio, q = sweep_terms(velocities, rho)
    f = np.take_along_axis(reference._upwind(ratio, q), order, axis=1)
    return x, rho, f


def source_iteration_2d(spec, n_cells, rule, sweep_tol, max_iters=10_000):
    """Density on the 2D oracle's cell grid of a square by unaccelerated
    source iteration over the oracle's wavefront sweeps."""
    n1, n2 = n_cells
    (lo1, lo2), (hi1, hi2) = spec.x_lo, spec.x_hi
    (c1, c2), pts, _ = collocation.cell_grid(spec, n_cells)
    sweep = reference._Sweep(spec, (c1, c2, (hi1 - lo1) / n1,
                                    (hi2 - lo2) / n2, spec.epsilon_at(pts)),
                             rule.nodes)
    src = spec.rfm_source(pts, rule.nodes[:, None, None])
    rho = np.zeros((n1, n2))
    f = np.zeros((rule.n_nodes, n1, n2))
    for _ in range(max_iters):
        f_new = sweep.sweep(src + rho)
        change = np.max(np.abs(f_new - f))
        f = f_new
        rho = np.einsum("q,qij->ij", rule.weights, f)
        if change < sweep_tol:
            return rho
    raise AssertionError(f"source iteration stalled at change {change:.3e}")
