"""Correctness checks on the program's outputs, made apart from the program.

Every check takes plain arrays (the field dumps ``aprfm.cli.run`` returns
and the error tables ``aprfm.cli.sweep`` writes) and returns a list of
messages, one per violated property; an empty list means the output
passed.  Nothing here imports ``aprfm``: the references are the closed
forms and the physical properties of each benchmark, not stored copies of
earlier output.

Tolerances are those of the acceptance criteria in ``tests/test_acceptance``
(criteria 1-3, 6 and 7), applied to every single seed instead of a mean
over three seeds.
"""

import math

import numpy as np

# criterion 2: the one-shot method stalls at vanishing scale, resolves at 1e-2
T1_STALL_MIN = 1e-3
T1_RESOLVED_MAX = 1e-7
# criterion 3: micro-macro accuracy, uniform in the scale
T4_ACCURATE_MAX = 1e-9
T4_SCALE_SPREAD_MAX = 1e3
# criterion 6: annulus density
ANNULUS_MAX = 1e-4
# criterion 7: agreement with the discrete-ordinates oracle
ORACLE_MAX = {"ex2": 5e-2, "ex3": 8e-2, "ex5": 1e-1}

# Largest inflow value per oracle problem (ex2: 1 on the left face,
# ex3: 0.5 on the left face); with no source the solution stays below it.
INFLOW_MAX = {"ex2": 1.0, "ex3": 0.5}
# The program's own error equals the benchmark's recomputation up to
# summation order.
SAME_ERROR_RTOL = 1e-9
# Net current <v f> on the 256-node midpoint velocity grid: constant in x up
# to the midpoint rule's error on the jump of f at v = 0, measured relative
# to the current the inflow alone carries (inflow max / 4).
CURRENT_SPREAD_MAX = 1e-2
ROUNDOFF = 1e-12


def relative_l2(approx, ref):
    approx = np.asarray(approx, dtype=float)
    ref = np.asarray(ref, dtype=float)
    return float(np.linalg.norm(approx - ref) / np.linalg.norm(ref))


def _finite_error(error):
    if error is None or not math.isfinite(error) or not 0.0 <= error < 1.0:
        return [f"error {error!r} is not a finite value in [0, 1)"]
    return []


def check_same_error(mine, reported):
    """The program's reported error must match the benchmark's own."""
    if not math.isclose(mine, reported, rel_tol=SAME_ERROR_RTOL,
                        abs_tol=ROUNDOFF * 1e-3):
        return [f"program reports error {reported:.6e}, closed form gives "
                f"{mine:.6e}"]
    return []


# -- paper tables T1 and T4 on ex1 -----------------------------------------

def check_table_cell(table, eps, j, error, column_errors):
    """One cell of T1 (one-shot rfm) or T4 (micro-macro aprfm).

    ``column_errors`` are the errors of the same J at every scale, for the
    uniformity check of T4.
    """
    problems = _finite_error(error)
    if problems:
        return problems
    if table == "T1" and j == 256:
        if eps == 1e-16 and not error > T1_STALL_MIN:
            problems.append(f"no one-shot stall at eps=1e-16: {error:.3e}")
        if eps == 1e-2 and not error < T1_RESOLVED_MAX:
            problems.append(f"one-shot unresolved at eps=1e-2: {error:.3e}")
    if table == "T4":
        if j >= 32 and not error < T4_ACCURATE_MAX:
            problems.append(f"micro-macro J={j} eps={eps:g}: {error:.3e}")
        if eps == 1e-16:
            spread = max(column_errors) / min(column_errors)
            if not spread < T4_SCALE_SPREAD_MAX:
                problems.append(f"J={j} error spread over scales {spread:.1f}")
    return problems


def check_ex1_dump(rows, reported_error):
    """Field dump (x, v, f_approx, f_ref) of an ex1 run against f = 1 - x."""
    x, _, f_approx, f_ref = np.asarray(rows, dtype=float).T
    exact = 1.0 - x
    problems = []
    if np.max(np.abs(f_ref - exact)) > ROUNDOFF:
        problems.append("reference is not the closed form f = 1 - x")
    return problems + check_same_error(relative_l2(f_approx, exact),
                                       reported_error)


# -- annulus ex6 -------------------------------------------------------------

def check_annulus_dump(rows, reported_error, max_error=ANNULUS_MAX):
    """Density dump (x1, x2, rho_approx, rho_ref) against exp(-x1 - x2)."""
    x1, x2, rho_approx, rho_ref = np.asarray(rows, dtype=float).T
    exact = np.exp(-x1 - x2)
    problems = []
    if np.max(np.abs(rho_ref - exact) / exact) > ROUNDOFF:
        problems.append("reference is not the closed form exp(-x1 - x2)")
    error = relative_l2(rho_approx, exact)
    if not error < max_error:
        problems.append(f"annulus density error {error:.3e}")
    return problems + check_same_error(error, reported_error)


# -- oracle-referenced problems ---------------------------------------------

def check_slab_oracle(problem, rows, reported_error):
    """1D dump (x, v, f_approx, f_oracle) of ex2 or ex3.

    The oracle must respect the physics of a source-free, absorption-free
    slab lit from the left: 0 <= f <= inflow maximum, a net current <v f>
    that does not depend on x, and a density that decreases in x.  The
    model must agree with the oracle within criterion 7.
    """
    x, v, f_approx, f_ref = np.asarray(rows, dtype=float).T
    n_x = np.unique(x).size
    f = f_ref.reshape(n_x, -1)
    v = v.reshape(n_x, -1)
    inflow = INFLOW_MAX[problem]
    problems = []
    if f.min() < -ROUNDOFF or f.max() > inflow + ROUNDOFF:
        problems.append(f"oracle f outside [0, {inflow}]: "
                        f"[{f.min():.3e}, {f.max():.3e}]")
    current = np.mean(v * f, axis=1)
    spread = float(np.ptp(current)) / (inflow / 4.0)
    if not spread < CURRENT_SPREAD_MAX:
        problems.append(f"oracle current varies in x by {spread:.3e}")
    rho = np.mean(f, axis=1)
    if np.max(np.diff(rho)) > ROUNDOFF:
        problems.append("oracle density is not decreasing in x")
    error = relative_l2(f_approx, f_ref)
    if not error < ORACLE_MAX[problem]:
        problems.append(f"{problem} model vs oracle {error:.3e}")
    return problems + check_same_error(error, reported_error)


def check_square_oracle(rows, reported_error):
    """2D density dump (x1, x2, rho_approx, rho_oracle) of ex5.

    A uniform source in a vacuum square gives rho >= 0, mirror-symmetric
    about x2 = 0.  The oracle's ordinates (Gauss-Legendre nodes on
    [0, 2 pi]) are symmetric under alpha -> 2 pi - alpha, so that mirror
    holds to roundoff.
    """
    x1, x2, rho_approx, rho_ref = np.asarray(rows, dtype=float).T
    n_1 = np.unique(x1).size
    grid = rho_ref.reshape(n_1, -1)
    problems = []
    if grid.min() < 0.0:
        problems.append(f"oracle density negative: {grid.min():.3e}")
    if not np.allclose(x2.reshape(n_1, -1)[:, ::-1], -x2.reshape(n_1, -1)):
        problems.append("evaluation grid is not symmetric about x2 = 0")
    mirror = np.max(np.abs(grid - grid[:, ::-1])) / np.max(np.abs(grid))
    if mirror > ROUNDOFF:
        problems.append(f"oracle density not mirror-symmetric: {mirror:.3e}")
    error = relative_l2(rho_approx, rho_ref)
    if not error < ORACLE_MAX["ex5"]:
        problems.append(f"ex5 model vs oracle {error:.3e}")
    return problems + check_same_error(error, reported_error)
