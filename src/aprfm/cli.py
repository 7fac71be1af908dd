"""Experiment runner: configure a benchmark run, execute the pipeline, and
emit JSON reports plus CSV tables and field dumps.

Subcommands:

  run       one configuration end to end (assemble, solve, error vs
            reference), writing <out>.json and <out>.csv
  sweep     one of the built-in benchmark tables (T1..T6), averaging each
            cell over several seeds
  plotdata  tidy CSV for plots: phase-space heatmaps, density heatmaps, or
            error against degrees of freedom

Every subcommand solves through :func:`aprfm.method.solve`.  1D runs
report the relative l2 error of f on the fixed evaluation phase grid; 2D
runs report the density error on the spatial grid, which is what the
benchmark tables quote.  References come from exact solutions when the
problem has one and from the finite-difference oracle otherwise.

``--epsilon`` must be positive and finite (``profile`` for ex3, which
ignores it); anything else exits 2 with ``invalid-config``.  All flags can
also be given in a config file (one ``key = value`` per line, ``#``
comments); command-line flags win.  ``APRFM_THREADS`` caps the number of
worker threads used for sweep cells; the threads share one reference
cache and compute each reference once.
"""

import argparse
import concurrent.futures
import dataclasses
import json
import os
import sys
import threading
import time

import numpy as np

from . import collocation
from .errors import AprfmError, NoConvergenceError, NonFiniteInputError
from .method import METHODS, solve
from .problems import PROBLEM_IDS, catalog
from .reference import (FDM_RESOLUTION_1D, FDM_RESOLUTION_2D, GridField,
                        exact_field, fdm_density, fdm_reference, phase_field,
                        relative_l2)

FDM_SWEEP_TOL = 1e-10
FDM_MAX_ITERS = 200_000


@dataclasses.dataclass
class RunConfig:
    problem: str = "ex1"
    method: str = "aprfm"
    epsilon: object = 1.0  # float, or "profile" for the mixed benchmark
    j: int = None
    jrho: int = None
    jg: int = None
    mx: int = 1
    mv: int = 1
    mx1: int = 1
    mx2: int = 1
    nx: int = 128
    nv: int = 256
    nx1: int = 32
    nx2: int = 32
    nq: int = 16
    b_range: float = 1.0
    seed: int = 0
    activation: str = "tanh"
    pou: str = "phi_b"
    rank_tol: float = 1e-12
    out: str = "aprfm_run"
    seeds: int = 3

    def validate(self):
        if self.problem not in PROBLEM_IDS:
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        counts = [self.mx, self.mv, self.mx1, self.mx2, self.nx, self.nv,
                  self.nx1, self.nx2, self.nq, self.seeds]
        if any(int(c) < 1 for c in counts):
            raise ValueError("all counts must be positive")
        if self.b_range <= 0:
            raise ValueError("weight range must be positive")
        return self

    def resolved(self):
        """Config with every default expanded, for reports."""
        cfg = dataclasses.replace(self)
        cfg.j = int(self.j) if self.j is not None else 32
        cfg.jrho = int(self.jrho if self.jrho is not None else cfg.j)
        cfg.jg = int(self.jg if self.jg is not None else cfg.j)
        return cfg


def _parse_epsilon(value):
    if isinstance(value, str):
        if value == "profile":
            return value
        return float(value)
    return float(value)


def _problem_epsilon(config):
    if config.problem == "ex3":
        return None
    eps = _parse_epsilon(config.epsilon)
    if isinstance(eps, str):
        raise ValueError("'profile' epsilon is only valid for ex3")
    return eps


@dataclasses.dataclass
class RunResult:
    report: dict
    field_columns: tuple
    field_rows: np.ndarray
    phase: tuple = None
    f_pair: tuple = None
    spatial: np.ndarray = None
    rho_pair: tuple = None


def _cached_reference(kind, spec, cache, compute):
    """``compute()`` once per (kind, problem, scale) in ``cache``; threads
    asking for the same reference wait for the first one's result."""
    if cache is None:
        return compute()
    # ex3's epsilon is a fixed profile, but a new closure on every catalog call
    scale = float(spec.epsilon) if spec.epsilon_is_constant else "profile"
    key = (kind, spec.id, scale)
    with cache.setdefault(key + ("lock",), threading.Lock()):
        if key not in cache:
            cache[key] = compute()
        return cache[key]


def _fdm_meta(spec):
    resolution = ((FDM_RESOLUTION_1D,) if spec.spatial_dim == 1
                  else FDM_RESOLUTION_2D)
    return {"kind": "fdm", "resolution": resolution,
            "sweep_tol": FDM_SWEEP_TOL}


def _reference_f(spec, grid, cache=None):
    def compute():
        if spec.exact_f is not None:
            return exact_field(spec, grid), {"kind": "exact"}
        return (fdm_reference(spec, sweep_tol=FDM_SWEEP_TOL,
                              max_iters=FDM_MAX_ITERS), _fdm_meta(spec))
    return _cached_reference("f", spec, cache, compute)


def _reference_rho(spec, cache=None):
    def compute():
        if spec.exact_rho is not None:
            xs = collocation.evaluation_spatial_grid(spec)
            return GridField(points=xs, values=spec.exact_rho(xs)), \
                {"kind": "exact"}
        return (fdm_density(spec, sweep_tol=FDM_SWEEP_TOL,
                            max_iters=FDM_MAX_ITERS), _fdm_meta(spec))
    return _cached_reference("rho", spec, cache, compute)


def run(config, reference_cache=None):
    """Full pipeline for one configuration; returns a RunResult."""
    config = config.validate()
    cfg = config.resolved()
    t_start = time.perf_counter()
    spec = catalog(config.problem, _problem_epsilon(config))
    solution = solve(spec, cfg)
    method, system = solution.method, solution.system
    solve_report = solution.report
    coeffs = solve_report.coeffs

    eval_x, eval_v = collocation.evaluation_grid(spec)
    result = RunResult(report={}, field_columns=(), field_rows=None)
    f_error = None
    if spec.spatial_dim == 1:
        approx = phase_field(eval_x, eval_v,
                             method.f_values(coeffs, eval_x, eval_v))
        ref, ref_meta = _reference_f(spec, (eval_x, eval_v), reference_cache)
        error = relative_l2(approx, ref)
        error_kind = "f-phase"
        result.phase = (eval_x, eval_v)
        result.f_pair = (approx.values, ref.values)
        result.field_columns = ("x", "v", "f_approx", "f_ref")
        result.field_rows = np.column_stack(
            [eval_x[:, 0], eval_v, approx.values, ref.values])
    else:
        xs = collocation.evaluation_spatial_grid(spec)
        approx_rho = GridField(
            points=xs, values=method.rho_values(coeffs, solution.rule, xs))
        ref_rho, ref_meta = _reference_rho(spec, reference_cache)
        error = relative_l2(approx_rho, ref_rho)
        error_kind = "rho-spatial"
        if spec.exact_f is not None:
            f_approx = method.f_values(coeffs, eval_x, eval_v)
            f_ref = spec.exact_f(eval_x, eval_v)
            f_error = float(np.sqrt(np.sum((f_approx - f_ref) ** 2)
                                    / np.sum(f_ref ** 2)))
            result.phase = (eval_x, eval_v)
            result.f_pair = (f_approx, f_ref)
        result.spatial = xs
        result.rho_pair = (approx_rho.values, ref_rho.values)
        result.field_columns = ("x1", "x2", "rho_approx", "rho_ref")
        result.field_rows = np.column_stack(
            [xs[:, 0], xs[:, 1], approx_rho.values, ref_rho.values])

    total = time.perf_counter() - t_start
    result.report = {
        "config": _config_dict(cfg),
        "error": float(error),
        "error_kind": error_kind,
        "f_error": f_error,
        "residual_norm": solve_report.residual_norm,
        "rank": solve_report.rank,
        "condition_estimate": solve_report.condition_estimate,
        "timings": {"assembly": solution.assembly_s,
                    "solve": solve_report.wall_time,
                    "total": total},
        "Z": system.n_columns,
        "N": system.n_rows,
        "N_int": system.n_interior,
        "N_bdy": system.n_boundary,
        "lambda_stats": {"min": float(system.lam.min()),
                         "max": float(system.lam.max()),
                         "mean": float(system.lam.mean())},
        "reference": ref_meta,
    }
    return result


def _config_dict(config):
    data = dataclasses.asdict(config)
    data["epsilon"] = (data["epsilon"] if isinstance(data["epsilon"], str)
                       else float(data["epsilon"]))
    return data


# -- output formatting ------------------------------------------------------

def _fmt(value):
    if isinstance(value, (float, np.floating)):
        return f"{value:.6e}"
    return str(value)


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_fmt(v) for v in row) + "\n")


def write_run_outputs(result, out):
    with open(f"{out}.json", "w", encoding="utf-8") as handle:
        json.dump(result.report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    write_csv(f"{out}.csv", result.field_columns, result.field_rows)


# -- sweeps -----------------------------------------------------------------

def _table_cells(table, base):
    """Cell configs plus (row, column) labels for one benchmark table."""
    eps_rows = [1e-2, 1e-4, 1e-8, 1e-16]
    if table == "T1":
        cols = [16, 32, 64, 128, 256]
        return ([dataclasses.replace(base, problem="ex1", method="rfm",
                                     epsilon=e, j=j, nx=64, nv=128)
                 for e in eps_rows for j in cols],
                "epsilon", eps_rows, "J", cols)
    if table == "T2":
        cols = [(16, 32), (32, 64), (64, 128), (128, 256)]
        return ([dataclasses.replace(base, problem="ex1", method="rfm",
                                     epsilon=e, j=128, nx=nx, nv=nv)
                 for e in eps_rows for nx, nv in cols],
                "epsilon", eps_rows, "(Nx,Nv)", cols)
    if table == "T3":
        cols = [(1, 1), (2, 1), (1, 2), (4, 1), (1, 4)]
        return ([dataclasses.replace(base, problem="ex1", method="rfm",
                                     epsilon=e, j=128, nx=64, nv=128,
                                     mx=mx, mv=mv)
                 for e in eps_rows for mx, mv in cols],
                "epsilon", eps_rows, "(Mx,Mv)", cols)
    if table == "T4":
        cols = [8, 16, 32, 64, 128]
        return ([dataclasses.replace(base, problem="ex1", method="aprfm",
                                     epsilon=e, j=j, nx=128, nv=256)
                 for e in eps_rows for j in cols],
                "epsilon", eps_rows, "J", cols)
    if table == "T5":
        cols = [(16, 32), (32, 64), (64, 128), (128, 256)]
        return ([dataclasses.replace(base, problem="ex1", method="aprfm",
                                     epsilon=e, j=128, nx=nx, nv=nv)
                 for e in eps_rows for nx, nv in cols],
                "epsilon", eps_rows, "(Nx,Nv)", cols)
    if table == "T6":
        eps_rows = [1.0, 1e-1]
        cols = [(1, 1, 1), (1, 1, 2), (1, 1, 4), (1, 1, 8)]
        return ([dataclasses.replace(base, problem="ex5", method="aprfm",
                                     epsilon=e, jrho=64, jg=128,
                                     nx1=32, nx2=32, nv=32,
                                     mx1=m1, mx2=m2, mv=mv)
                 for e in eps_rows for m1, m2, mv in cols],
                "epsilon", eps_rows, "(Mx1,Mx2,Mv)", cols)
    raise ValueError(f"unknown table {table!r}")


def sweep(table, base_config, out=None):
    """Run a benchmark table (T1..T6) or a custom list of cell configs,
    averaging each cell over seeds."""
    base_config.validate()
    if isinstance(table, str):
        cells, row_name, rows, col_name, cols = _table_cells(table, base_config)
    else:
        cells = [cell.validate() for cell in table]
        row_name, rows, col_name, cols = "cell", None, "config", None
    n_seeds = int(base_config.seeds)
    cache = {}

    def run_cell(cell):
        errors = []
        for k in range(n_seeds):
            cfg = dataclasses.replace(cell, seed=base_config.seed + k)
            errors.append(run(cfg, reference_cache=cache).report["error"])
        return errors

    max_workers = max(1, int(os.environ.get("APRFM_THREADS", "1")))
    if max_workers > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers) as pool:
            per_cell = list(pool.map(run_cell, cells))
    else:
        per_cell = [run_cell(cell) for cell in cells]

    means = [float(np.mean(errs)) for errs in per_cell]
    if rows is not None:
        table_rows = [[row] + means[i * len(cols):(i + 1) * len(cols)]
                      for i, row in enumerate(rows)]
        tidy_rows = [[cell.epsilon, _cell_column_label(table, cell), mean]
                     + [float(e) for e in errs]
                     for cell, errs, mean in zip(cells, per_cell, means)]
    else:
        table_rows = [[i, mean] for i, mean in enumerate(means)]
        tidy_rows = [[f"{cell.problem}/{cell.method}", cell.epsilon, mean]
                     + [float(e) for e in errs]
                     for cell, errs, mean in zip(cells, per_cell, means)]
        row_name, col_name = "problem/method", "epsilon"
    if out:
        if rows is not None:
            write_csv(f"{out}.csv",
                      [row_name] + [str(c) for c in cols], table_rows)
        else:
            write_csv(f"{out}.csv", ["cell", "mean_error"], table_rows)
        write_csv(f"{out}_cells.csv",
                  [row_name, col_name, "mean_error"]
                  + [f"error_seed{k}" for k in range(n_seeds)], tidy_rows)
        report = {"table": table if isinstance(table, str) else "custom",
                  "mean_errors": means,
                  # each cell's first run, at the base seed
                  "cells": [_config_dict(dataclasses.replace(
                      cell, seed=base_config.seed).resolved())
                      for cell in cells],
                  "seeds": n_seeds, "base_seed": base_config.seed}
        with open(f"{out}.json", "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return table_rows


def _cell_column_label(table, cell):
    if table in ("T1", "T4"):
        return cell.resolved().j
    if table in ("T2", "T5"):
        return f"({cell.nx},{cell.nv})"
    if table == "T3":
        return f"({cell.mx},{cell.mv})"
    return f"({cell.mx1},{cell.mx2},{cell.mv})"


# -- plot data ---------------------------------------------------------------

DOF_LADDER = {"rfm": (8, 16, 32, 64, 128), "aprfm": (4, 8, 16, 32, 64)}


def emit_plot_data(config, kind, out):
    """Write tidy plot CSVs; runs the pipeline as needed."""
    if kind == "error-vs-dof":
        rows = []
        cache = {}
        for j in DOF_LADDER[config.method]:
            cfg = dataclasses.replace(config, j=j, jrho=None, jg=None)
            rep = run(cfg, reference_cache=cache).report
            rows.append([rep["Z"], rep["error"]])
        write_csv(f"{out}.csv", ["Z", "error"], rows)
        return rows
    result = run(config)
    if kind == "heatmap-f":
        if result.f_pair is None:
            raise ValueError("no phase-space field available for this run")
        x, v = result.phase
        rows = np.column_stack([x[:, 0], x[:, 1], v, *result.f_pair]) \
            if x.shape[1] == 2 else \
            np.column_stack([x[:, 0], v, *result.f_pair])
        header = (["x1", "x2", "v", "f_approx", "f_ref"] if x.shape[1] == 2
                  else ["x", "v", "f_approx", "f_ref"])
        write_csv(f"{out}.csv", header, rows)
        return rows
    if kind == "heatmap-rho":
        if result.rho_pair is None:
            raise ValueError("density heatmaps need a 2D run")
        xs = result.spatial
        rows = np.column_stack([xs[:, 0], xs[:, 1], *result.rho_pair])
        write_csv(f"{out}.csv", ["x1", "x2", "rho_approx", "rho_ref"], rows)
        return rows
    raise ValueError(f"unknown plot kind {kind!r}")


# -- command line -----------------------------------------------------------

_FLAGS = ("problem", "method", "epsilon", "j", "jrho", "jg", "mx", "mv",
          "mx1", "mx2", "nx", "nv", "nx1", "nx2", "nq", "b_range", "seed",
          "activation", "pou", "rank_tol", "out", "seeds")
_INT_FLAGS = {"j", "jrho", "jg", "mx", "mv", "mx1", "mx2", "nx", "nv",
              "nx1", "nx2", "nq", "seed", "seeds"}
_FLOAT_FLAGS = {"b_range", "rank_tol"}


def _add_common_flags(parser):
    for name in _FLAGS:
        flag = "--" + name.replace("_", "-")
        if name in _INT_FLAGS:
            parser.add_argument(flag, type=int, default=None)
        elif name in _FLOAT_FLAGS:
            parser.add_argument(flag, type=float, default=None)
        else:
            parser.add_argument(flag, type=str, default=None)
    parser.add_argument("--config", type=str, default=None,
                        help="key = value config file; flags override it")


def _read_config_file(path):
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key not in _FLAGS:
                raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
            if key in _INT_FLAGS:
                values[key] = int(value)
            elif key in _FLOAT_FLAGS:
                values[key] = float(value)
            else:
                values[key] = value
    return values


def _config_from_args(args):
    values = {}
    if args.config:
        values.update(_read_config_file(args.config))
    for name in _FLAGS:
        given = getattr(args, name)
        if given is not None:
            values[name] = given
    if "epsilon" in values:
        values["epsilon"] = _parse_epsilon(values["epsilon"])
    return RunConfig(**values).validate()


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="aprfm",
        description="Random feature solvers for multiscale radiative transfer")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one configuration")
    _add_common_flags(p_run)
    p_sweep = sub.add_parser("sweep", help="run a benchmark table")
    p_sweep.add_argument("--table", required=True,
                         choices=["T1", "T2", "T3", "T4", "T5", "T6"])
    _add_common_flags(p_sweep)
    p_plot = sub.add_parser("plotdata", help="emit tidy plot CSVs")
    p_plot.add_argument("--kind", required=True,
                        choices=["heatmap-f", "heatmap-rho", "error-vs-dof"])
    _add_common_flags(p_plot)

    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
    except (ValueError, OSError) as exc:
        print(f"invalid-config: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "run":
            result = run(config)
            write_run_outputs(result, config.out)
            timings = result.report["timings"]
            print(f"error={result.report['error']:.6e} "
                  f"assembly={timings['assembly']:.2f}s "
                  f"solve={timings['solve']:.2f}s "
                  f"total={timings['total']:.2f}s")
        elif args.command == "sweep":
            sweep(args.table, config, out=config.out)
            print(f"wrote {config.out}.csv")
        else:
            emit_plot_data(config, args.kind, config.out)
            print(f"wrote {config.out}.csv")
    except (NoConvergenceError, NonFiniteInputError) as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 3
    except AprfmError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid-config: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print(f"numerical-failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
