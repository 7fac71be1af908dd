"""Experiment runner: configure a benchmark run, execute the pipeline, and
emit JSON reports plus CSV tables and field dumps.

Subcommands:

  run    one configuration end to end (assemble, solve, error vs
         reference), writing <out>.json, the scored field to <out>.csv
         and, for a 2D problem with an exact f, f on the phase grid to
         <out>_f.csv
  sweep  one of the built-in benchmark tables (T1..T6), averaging each
         cell over several seeds

An error-against-degrees-of-freedom ladder is a library sweep over a cell
list: ``sweep([dataclasses.replace(cfg, j=j) for j in ladder],
RunConfig(seeds=1), out=...)``.

Every subcommand solves through :func:`aprfm.method.solve`.  1D runs
report the relative l2 error of f on the fixed evaluation phase grid; 2D
runs report the density error on the spatial grid, which is what the
benchmark tables quote.  References come from exact solutions when the
problem has one and from the finite-difference oracle otherwise.

There is one flag per :class:`RunConfig` field, and each can also be given
in a config file (one ``key = value`` per line, ``#`` comments);
command-line flags win.  File and flag values are read as text and go
through the same parser, so a value that does not parse (``--j abc``)
exits 2 with ``invalid-config`` wherever it comes from.  So does a value
out of range, before any work: ``--epsilon`` must be positive and finite
(``profile`` for ex3, which ignores it), every count positive and the
grid counts ``--nx``, ``--nv``, ``--nx1`` and ``--nx2`` at least 2, ``--nq``
in 2..128, ``--activation`` ``tanh`` or ``sine-pi``, ``--rank-tol`` in
(0, 1), the weight interval [-b_range, b_range] of positive finite width,
the seed in [0, 2**63) for rfm and in [0, 2**62) for aprfm (whose g model
is drawn from seed 2s + 1), and the directory of ``--out`` must exist.
``-v`` logs at INFO level, one record per finished sweep run among them.

A sweep runs its cells side by side, largest first, one per CPU the
process may use (``taskset`` narrows them), sharing one reference cache;
the QR folds release the GIL, so the workers fold side by side, while the
final ``gelsd`` holds it.  Every BLAS call in a sweep uses one thread: its
errors do not depend on the worker count, and ``OPENBLAS_NUM_THREADS=1
aprfm run`` with a cell's settings reproduces the cell's error bit for
bit.  A failing sweep run is recorded and the others go on (see
:func:`sweep`).

The QR folds and the merge of their factors always use one BLAS thread.
In a lone ``run`` the folds run on a helper thread while the next row
block is built, and the SVD, the evaluation and the oracle keep the
process's BLAS threads, whose roundoff can differ from one thread's.
On the 2-core box a lone run at two threads still replayed its cell bit
for bit at Z 48-640 against an exact solution (ex1 rfm mx 2 mv 2, ex1
aprfm mx 4, ex6 mv 2 and both criterion-6 runs, whose factors are
merged, and ex4 at Z 640 over four boxes), but not the oracle
workload's ex2 (Z 576), ex3 (Z 1152) and ex5 runs, whose SVD (and ex5's
GMRES oracle) use two threads: those need ``OPENBLAS_NUM_THREADS=1`` to
replay.  The 1D oracle's sparse solve gives the same bits at one and two
threads.
"""

import argparse
import concurrent.futures
import dataclasses
import json
import logging
import math
import os
import resource
import sys
import threading
import time

import numpy as np

from . import basis, collocation, quadrature
from .errors import AprfmError, NoConvergenceError, NonFiniteInputError
from .method import METHODS, solve, spatial_counts
from .problems import PROBLEM_IDS, catalog
from .reference import (GridField, _require_oracle_eps, exact_field,
                        fdm_density, fdm_reference, phase_field, relative_l2)
from .solve import _one_blas_thread

# named, not __name__, which is "__main__" under ``python -m aprfm.cli``
logger = logging.getLogger("aprfm.cli")

# dump headers: f on the evaluation phase grid by spatial dimension, and
# the density on the 2D spatial grid
F_COLUMNS = {1: ("x", "v", "f_approx", "f_ref"),
             2: ("x1", "x2", "v", "f_approx", "f_ref")}
RHO_COLUMNS = ("x1", "x2", "rho_approx", "rho_ref")


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
    rank_tol: float = 1e-12
    out: str = "aprfm_run"
    seeds: int = 3

    def validate(self):
        if self.problem not in PROBLEM_IDS:
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        counts = [self.mx, self.mv, self.mx1, self.mx2, self.nx, self.nv,
                  self.nx1, self.nx2, self.seeds]
        counts += [c for c in (self.j, self.jrho, self.jg) if c is not None]
        if any(int(c) < 1 for c in counts):
            raise ValueError("all counts must be positive")
        # collocation takes at least two nodes per axis and velocity
        if any(int(c) < 2 for c in (self.nx, self.nv, self.nx1, self.nx2)):
            raise ValueError("nx, nv, nx1 and nx2 must be at least 2")
        catalog(self.problem, _problem_epsilon(self))  # its epsilon check
        quadrature.angular_rule(1, self.nq)  # its node-count check
        if self.activation not in basis.ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not 0.0 < self.rank_tol < 1.0:  # lstsq's bound
            raise ValueError("rank_tol must lie in (0, 1)")
        # weights are drawn from [-b_range, b_range] (1e308 overflows it)
        if not 0 < 2.0 * self.b_range < np.inf:
            raise ValueError("weight range must be positive and finite")
        # weight streams are keyed by seeds below 2**63; aprfm draws its
        # rho and g models from seeds 2s and 2s + 1 (Method.build)
        bits = 62 if self.method == "aprfm" else 63
        if not 0 <= int(self.seed) < 2 ** bits:
            raise ValueError(f"{self.method} needs a seed in [0, 2**{bits})")
        return self

    def resolved(self):
        """Config with every default expanded, for reports."""
        cfg = dataclasses.replace(self)
        cfg.j = int(self.j) if self.j is not None else 32
        cfg.jrho = int(self.jrho if self.jrho is not None else cfg.j)
        cfg.jg = int(self.jg if self.jg is not None else cfg.j)
        return cfg


def _parse_epsilon(value):
    return value if value == "profile" else float(value)


def _problem_epsilon(config):
    if config.problem == "ex3":
        return None
    eps = _parse_epsilon(config.epsilon)
    if isinstance(eps, str):
        raise ValueError("'profile' epsilon is only valid for ex3")
    return eps


@dataclasses.dataclass
class RunResult:
    """A run's report and its field dump (the scored field: f in 1D, the
    density in 2D), plus the f dump on the phase grid when the run has an
    f reference (every 1D run, where it is the field dump itself, and 2D
    runs with an exact f), else None."""

    report: dict
    field_columns: tuple
    field_rows: np.ndarray
    f_rows: np.ndarray = None


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


def _reference_f(spec, grid, cache=None):
    def compute():
        if spec.exact_f is not None:
            return exact_field(spec, grid), {"kind": "exact"}
        field = fdm_reference(spec)
        return field, field.info
    return _cached_reference("f", spec, cache, compute)


def _reference_rho(spec, cache=None):
    def compute():
        if spec.exact_rho is not None:
            xs, _ = collocation.evaluation_nodes(spec)
            return GridField(points=xs, values=spec.exact_rho(xs)), \
                {"kind": "exact"}
        field = fdm_density(spec)
        return field, field.info
    return _cached_reference("rho", spec, cache, compute)


def run(config, reference_cache=None):
    """Full pipeline for one configuration; returns a RunResult."""
    config = config.validate()
    cfg = config.resolved()
    t_start = time.perf_counter()
    spec = catalog(config.problem, _problem_epsilon(config))
    if spec.spatial_dim == 2 and spec.exact_rho is None:
        # scored against the 2D oracle: fail before solving if it refuses
        _require_oracle_eps(spec)
    solution = solve(spec, cfg)
    method, colloc = solution.method, solution.colloc
    solve_report = solution.report
    coeffs = solve_report.coeffs

    t_eval = time.perf_counter()
    grid = eval_xs, eval_vs = collocation.evaluation_nodes(spec)
    if spec.spatial_dim == 1:
        approx = phase_field(eval_xs, eval_vs,
                             method.f_values(coeffs, eval_xs, eval_vs))
        t_ref = time.perf_counter()
        ref, ref_meta = _reference_f(spec, grid, reference_cache)
        field_columns, error_kind = F_COLUMNS[1], "f-phase"
    else:
        approx = GridField(points=eval_xs, values=method.rho_values(
            coeffs, solution.rule, eval_xs))
        t_ref = time.perf_counter()
        ref, ref_meta = _reference_rho(spec, reference_cache)
        field_columns, error_kind = RHO_COLUMNS, "rho-spatial"
    reference_s = time.perf_counter() - t_ref
    error = relative_l2(approx, ref)
    result = RunResult(report={}, field_columns=field_columns,
                       field_rows=_dump(approx, ref))
    f_error = None
    if spec.spatial_dim == 1:
        result.f_rows = result.field_rows
    elif spec.exact_f is not None:
        f_ref = exact_field(spec, grid)
        f_approx = GridField(points=f_ref.points,
                             values=method.f_values(coeffs, eval_xs,
                                                    eval_vs))
        f_error = relative_l2(f_approx, f_ref)
        result.f_rows = _dump(f_approx, f_ref)

    end = time.perf_counter()
    lam = solution.lam
    result.report = {
        "config": _config_dict(cfg),
        "error": float(error),
        "error_kind": error_kind,
        "f_error": f_error,
        "residual_norm": solve_report.residual_norm,
        "rank": solve_report.rank,
        "condition_estimate": solve_report.condition_estimate,
        "singular_tail": list(solve_report.singular_tail),
        # assembly and solve overlap: solve is the caller's time in the
        # least-squares call outside the block iterator (the folds it runs
        # or waits for, the merge and the SVD), assembly everything else up
        # to the solution, folds on the helper thread included
        "timings": {"assembly": solution.assembly_s,
                    "solve": solve_report.wall_time,
                    "evaluation": end - t_eval - reference_s,
                    "reference": reference_s,
                    "total": end - t_start},
        # high-water mark of the whole process, not of this run alone
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
        "Z": coeffs.size,
        "N": lam.size,
        "N_int": colloc.n_interior,
        "N_bdy": colloc.n_boundary,
        "lambda_stats": {"min": float(lam.min()),
                         "max": float(lam.max()),
                         "mean": float(lam.mean())},
        "reference": ref_meta,
    }
    return result


def _dump(approx, ref):
    """Field dump rows: the grid points, then approximation and reference."""
    return np.column_stack([ref.points, approx.values, ref.values])


def _config_dict(config):
    data = dataclasses.asdict(config)
    data["epsilon"] = (data["epsilon"] if isinstance(data["epsilon"], str)
                       else float(data["epsilon"]))
    return data


# -- output formatting ------------------------------------------------------

def _fmt(value):
    if isinstance(value, (float, np.floating)):
        return f"{value:.6e}"
    if value is None:  # a sweep cell with a failed run has no mean
        return ""
    text = str(value)
    # a label with commas in it, such as T6's (1,1,2), is one quoted field
    return f'"{text}"' if "," in text else text


def _csv_line(row):
    return ",".join(_fmt(v) for v in row) + "\n"


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_csv_line(header))
        for row in rows:
            handle.write(_csv_line(row))


def write_run_outputs(result, out):
    """``<out>.json``, the field dump ``<out>.csv`` and, when the f dump is
    not the field dump (2D with an exact f), ``<out>_f.csv``."""
    with open(f"{out}.json", "w", encoding="utf-8") as handle:
        json.dump(result.report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    dumps = [(f"{out}.csv", result.field_columns, result.field_rows)]
    if result.f_rows is not None and result.f_rows is not result.field_rows:
        dumps.append((f"{out}_f.csv", F_COLUMNS[2], result.f_rows))
    for path, columns, rows in dumps:
        # finite floats only, so one format: the bytes _fmt would write
        np.savetxt(path, rows, fmt="%.6e", delimiter=",",
                   header=",".join(columns), comments="")


# -- sweeps -----------------------------------------------------------------

EPS_ROWS = [1e-2, 1e-4, 1e-8, 1e-16]
# Each benchmark table: what every cell sets, the epsilon of each row, the
# column header, the fields a column sets and each column's values.
TABLES = {
    "T1": (dict(problem="ex1", method="rfm", nx=64, nv=128), EPS_ROWS,
           "J", ("j",), [16, 32, 64, 128, 256]),
    "T2": (dict(problem="ex1", method="rfm", j=128), EPS_ROWS,
           "(Nx,Nv)", ("nx", "nv"), [(16, 32), (32, 64), (64, 128),
                                     (128, 256)]),
    "T3": (dict(problem="ex1", method="rfm", j=128, nx=64, nv=128), EPS_ROWS,
           "(Mx,Mv)", ("mx", "mv"), [(1, 1), (2, 1), (1, 2), (4, 1),
                                     (1, 4)]),
    "T4": (dict(problem="ex1", method="aprfm", nx=128, nv=256), EPS_ROWS,
           "J", ("j",), [8, 16, 32, 64, 128]),
    "T5": (dict(problem="ex1", method="aprfm", j=128), EPS_ROWS,
           "(Nx,Nv)", ("nx", "nv"), [(16, 32), (32, 64), (64, 128),
                                     (128, 256)]),
    "T6": (dict(problem="ex5", method="aprfm", jrho=64, jg=128, nx1=32,
                nx2=32, nv=32), [1.0, 1e-1],
           "(Mx1,Mx2,Mv)", ("mx1", "mx2", "mv"), [(1, 1, 1), (1, 1, 2),
                                                  (1, 1, 4), (1, 1, 8)]),
}


def _table_cells(table, base):
    """Cell configs of one benchmark table, row-major, with each cell's
    column label, and the row and column names and values."""
    if table not in TABLES:
        raise ValueError(f"unknown table {table!r}")
    fixed, rows, col_name, fields, cols = TABLES[table]
    cells, labels = [], []
    for eps in rows:
        for col in cols:
            values = col if isinstance(col, tuple) else (col,)
            cells.append(dataclasses.replace(base, epsilon=eps, **fixed,
                                             **dict(zip(fields, values))))
            labels.append(col if len(values) == 1
                          else f"({','.join(map(str, values))})")
    return cells, labels, "epsilon", rows, col_name, cols


def _cost(config):
    """N Z^2 of a cell, counted from its settings (interior points times
    the squared column count): the order of the work its solve does."""
    cfg = config.resolved()
    boxes, nodes = map(math.prod, spatial_counts(
        catalog(cfg.problem, 1.0).spatial_dim, cfg))
    z = boxes * (cfg.j * cfg.mv if cfg.method == "rfm"
                 else cfg.jrho + cfg.jg * cfg.mv)
    return nodes * cfg.nv * z * z


def _shown(outcome):
    """A sweep run's error, or the error code of the exception it raised."""
    if isinstance(outcome, AprfmError):
        return outcome.code
    if isinstance(outcome, Exception):
        return type(outcome).__name__
    return outcome


def sweep(table, base_config, out=None):
    """Run a benchmark table (T1..T6) or a custom list of cell configs,
    averaging each cell over seeds.  A table's cells are keyed by epsilon
    and column label, a list's by their index and epsilon.

    Cells run on one worker thread per CPU this process may use (capped at
    the number of cells), one BLAS thread each, or one at a time when the
    BLAS thread count cannot be set.  They are handed to the workers
    largest first (by ``_cost``, ties in table order), so that no worker
    is left alone with a large cell at the end.  Each finished (cell,
    seed) is appended to ``<out>_cells.csv`` with its error, or the error
    code of its failure, and logged.  Once every run has finished, the
    outputs are rewritten in table order, a cell with a failed run has no
    mean (``null`` in the JSON), and the first failure in table order is
    raised.
    """
    base_config.validate()
    if isinstance(table, str):
        cells, labels, row_name, rows, col_name, cols = _table_cells(
            table, base_config)
        keys = [(cell.epsilon, label) for cell, label in zip(cells, labels)]
    else:
        # keyed by list index: cells may differ in any setting (a J ladder)
        cells = list(table)
        rows = cols = None
        row_name, col_name = "cell", "epsilon"
        keys = [(i, cell.epsilon) for i, cell in enumerate(cells)]
    seeds = [base_config.seed + k for k in range(int(base_config.seeds))]
    for cell in cells:  # at the last seed, whose streams reach furthest
        dataclasses.replace(cell, seed=seeds[-1]).validate()
    header = [row_name, col_name, "seed", "error"]
    cache = {}
    # per cell and seed: the error, or the exception the run raised
    outcomes = [[None] * len(seeds) for _ in cells]
    lock = threading.Lock()
    if out:
        write_csv(f"{out}_cells.csv", header, [])

    def run_cell(index):
        for k, seed in enumerate(seeds):
            start = time.perf_counter()
            try:
                outcome = run(dataclasses.replace(cells[index], seed=seed),
                              reference_cache=cache).report["error"]
            except Exception as exc:  # recorded; the other runs go on
                outcome = exc
            outcomes[index][k] = outcome
            logger.info("%s=%s %s=%s seed %d: %s (%.2f s)", row_name,
                        keys[index][0], col_name, keys[index][1], seed,
                        _fmt(_shown(outcome)), time.perf_counter() - start)
            if out:
                with lock, open(f"{out}_cells.csv", "a",
                                encoding="utf-8") as handle:
                    handle.write(_csv_line([*keys[index], seed,
                                            _shown(outcome)]))

    with _one_blas_thread() as taken:
        workers = 1
        if taken is not None:
            workers = max(1, min(len(os.sched_getaffinity(0)), len(cells)))
        with concurrent.futures.ThreadPoolExecutor(workers) as pool:
            list(pool.map(run_cell, sorted(
                range(len(cells)), key=lambda i: -_cost(cells[i]))))

    failures = [o for row in outcomes for o in row if isinstance(o, Exception)]
    means = [None if any(isinstance(o, Exception) for o in row)
             else float(np.mean(row)) for row in outcomes]
    if rows is not None:
        table_rows = [[row] + means[i * len(cols):(i + 1) * len(cols)]
                      for i, row in enumerate(rows)]
    else:
        table_rows = [[i, mean] for i, mean in enumerate(means)]
    if out:
        if rows is not None:
            write_csv(f"{out}.csv",
                      [row_name] + [str(c) for c in cols], table_rows)
        else:
            write_csv(f"{out}.csv", ["cell", "mean_error"], table_rows)
        write_csv(f"{out}_cells.csv", header,
                  [[*key, seed, _shown(outcome)]
                   for key, row in zip(keys, outcomes)
                   for seed, outcome in zip(seeds, row)])
        report = {"table": table if isinstance(table, str) else "custom",
                  "mean_errors": means,
                  # each cell's first run, at the base seed
                  "cells": [_config_dict(dataclasses.replace(
                      cell, seed=base_config.seed).resolved())
                      for cell in cells],
                  "seeds": len(seeds), "base_seed": base_config.seed}
        with open(f"{out}.json", "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if failures:
        raise failures[0]
    return table_rows


# -- command line -----------------------------------------------------------

# one flag and config-file key per RunConfig field, with the parser of its
# text: the field's type, or _parse_epsilon
_PARSERS = {field.name: field.type for field in dataclasses.fields(RunConfig)}
_PARSERS["epsilon"] = _parse_epsilon


def _add_common_flags(parser):
    for name in _PARSERS:
        parser.add_argument("--" + name.replace("_", "-"))
    parser.add_argument("--config", type=str, default=None,
                        help="key = value config file; flags override it")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress at INFO level")


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
            if key not in _PARSERS:
                raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
            values[key] = value.strip()
    return values


def _config_from_args(args):
    """The run config from the config file's text values, overridden by
    the flags', each through its field's parser."""
    text = _read_config_file(args.config) if args.config else {}
    for name in _PARSERS:
        if getattr(args, name) is not None:
            text[name] = getattr(args, name)
    config = RunConfig(**{name: _PARSERS[name](value)
                          for name, value in text.items()}).validate()
    # outputs are written after the work, so check where they go first
    if not os.path.isdir(os.path.dirname(config.out) or "."):
        raise ValueError(f"output directory of {config.out!r} does not exist")
    return config


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors raise ``ValueError``, which ``main`` reports as
    ``invalid-config`` like any other bad setting; subparsers inherit it."""

    def error(self, message):
        raise ValueError(message)


def main(argv=None):
    parser = _ArgumentParser(
        prog="aprfm",
        description="Random feature solvers for multiscale radiative transfer")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one configuration")
    _add_common_flags(p_run)
    p_sweep = sub.add_parser("sweep", help="run a benchmark table")
    p_sweep.add_argument("--table", required=True,
                         choices=list(TABLES))
    _add_common_flags(p_sweep)

    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
    except (ValueError, OSError) as exc:
        print(f"invalid-config: {exc}", file=sys.stderr)
        return 2
    if args.verbose:
        logging.basicConfig(format="%(name)s: %(message)s")
        logging.getLogger("aprfm").setLevel(logging.INFO)

    try:
        if args.command == "run":
            result = run(config)
            write_run_outputs(result, config.out)
            timings = result.report["timings"]
            print(f"error={result.report['error']:.6e} "
                  f"assembly={timings['assembly']:.2f}s "
                  f"solve={timings['solve']:.2f}s "
                  f"total={timings['total']:.2f}s")
        else:
            sweep(args.table, config, out=config.out)
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
