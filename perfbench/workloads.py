"""The benchmark's workloads: which configurations one round runs through
the shipped entry points ``aprfm.cli.sweep`` and ``aprfm.cli.run``, and
how each configuration's output is checked.

A round runs every configuration of its workload once; ``run_round`` is
the timed part and ``check`` (untimed) turns the outputs into one
``Outcome`` per configuration.  The seed given to the benchmark is the
random-feature seed of every configuration (the oracle workload's second
ex3 run uses seed + 1), so the same seed gives the same inputs.  With
``smoke=True`` each workload runs tiny configurations through the same
code, for the benchmark's own tests.
"""

import json
import os
from dataclasses import dataclass, field

from aprfm import cli, problems, quadrature

import checks

EPS_ROWS = (1e-2, 1e-4, 1e-8, 1e-16)
TABLE_J = {"T1": (16, 32, 64, 128, 256), "T4": (8, 16, 32, 64, 128)}
# Cell of each table that is run again on its own for its field dump.
DUMP_CELL = {"T1": (1e-2, 64), "T4": (1e-2, 8)}
QUADRATURE_NODES = 16


@dataclass
class Outcome:
    name: str
    error: float = None
    problems: list = field(default_factory=list)
    raised: bool = False  # the program raised instead of giving an output

    def record(self, round_index):
        return {"record": "config", "round": round_index, "name": self.name,
                "error": self.error, "ok": not self.problems,
                "problems": self.problems}


def _failed(name, exc):
    return Outcome(name, None, [f"{type(exc).__name__}: {exc}"], raised=True)


class TablesWorkload:
    """Paper tables T1 (one-shot rfm) and T4 (micro-macro aprfm) on ex1."""

    name = "tables-1d"

    def __init__(self, seed, workdir, smoke=False):
        self.seed = seed
        self.workdir = workdir
        if smoke:
            tiny = dict(problem="ex1", epsilon=1e-2, nx=16, nv=32)
            self.tables = {
                "T1": [cli.RunConfig(method="rfm", j=16, **tiny)],
                "T4": [cli.RunConfig(method="aprfm", j=8, **tiny)]}
            self.cells = {"T1": [(1e-2, 16)], "T4": [(1e-2, 8)]}
            self.dump_cell = {"T1": (1e-2, 16), "T4": (1e-2, 8)}
        else:
            self.tables = {table: table for table in TABLE_J}
            self.cells = {table: [(eps, j) for eps in EPS_ROWS for j in js]
                          for table, js in TABLE_J.items()}
            self.dump_cell = DUMP_CELL

    def setup(self):
        return ([problems.catalog("ex1", eps) for eps in EPS_ROWS]
                + [quadrature.angular_rule(1, QUADRATURE_NODES)])

    def run_round(self):
        outputs = {}
        for table, cells_or_name in self.tables.items():
            out = os.path.join(self.workdir, table)
            try:
                cli.sweep(cells_or_name, cli.RunConfig(seed=self.seed,
                                                       seeds=1), out=out)
            except Exception as exc:  # counted as failed configurations
                outputs[table] = exc
            else:
                outputs[table] = out
        return outputs

    def check(self, outputs):
        outcomes = []
        for table, out in outputs.items():
            cells = self.cells[table]
            names = [f"{table} eps={eps:g} J={j}" for eps, j in cells]
            if isinstance(out, Exception):
                outcomes += [_failed(name, out) for name in names]
                continue
            with open(out + ".json", encoding="utf-8") as handle:
                report = json.load(handle)
            layout = [(c["epsilon"], c["j"]) for c in report["cells"]]
            if layout != cells:
                outcomes += [Outcome(name, None, ["table layout differs"])
                             for name in names]
                continue
            errors = dict(zip(layout, report["mean_errors"]))
            for name, (eps, j), config in zip(names, cells, report["cells"]):
                column = [errors[(e, j)] for e, jj in cells if jj == j]
                outcome = Outcome(name, errors[(eps, j)],
                                  checks.check_table_cell(
                                      table, eps, j, errors[(eps, j)], column))
                if (eps, j) == self.dump_cell[table]:
                    # a sweep runs its first seed at the base seed
                    config = dict(config, seed=report["base_seed"])
                    outcome.problems += self._check_dump(config,
                                                         errors[(eps, j)])
                outcomes.append(outcome)
        return outcomes

    def _check_dump(self, config, error):
        """Run one cell alone and check its field dump against 1 - x."""
        try:
            result = cli.run(cli.RunConfig(**config))
        except Exception as exc:  # the check itself failed
            return [f"{type(exc).__name__}: {exc}"]
        return checks.check_ex1_dump(result.field_rows, error)


class RunsWorkload:
    """Configurations run one by one through ``cli.run`` with one shared
    reference cache per round, as a sweep shares it."""

    def __init__(self, seed, workdir, smoke=False):
        self.configs = self.make_configs(seed, smoke)

    def make_configs(self, seed, smoke):
        """List of (name, RunConfig, check) with check(result) -> problems."""
        raise NotImplementedError

    def setup(self):
        built = []
        for _, config, _ in self.configs:
            eps = (None if config.problem == "ex3"
                   else float(config.epsilon))
            spec = problems.catalog(config.problem, eps)
            built += [spec, quadrature.angular_rule(spec.spatial_dim,
                                                    config.nq)]
        return built

    def run_round(self):
        cache = {}
        results = []
        for _, config, _ in self.configs:
            try:
                results.append(cli.run(config, reference_cache=cache))
            except Exception as exc:  # counted as a failed configuration
                results.append(exc)
        return results

    def check(self, outputs):
        outcomes = []
        for (name, _, check), result in zip(self.configs, outputs):
            if isinstance(result, Exception):
                outcomes.append(_failed(name, result))
                continue
            error = result.report["error"]
            outcomes.append(Outcome(name, error, check(result)))
        return outcomes


class AnnulusWorkload(RunsWorkload):
    """ex6 at the criterion 6 configuration, both activations."""

    name = "annulus-2d"

    def make_configs(self, seed, smoke):
        base = dict(problem="ex6", method="aprfm", jrho=64, jg=128, mv=4,
                    nx1=32, nx2=32, nv=64, seed=seed)
        # a tiny model cannot meet criterion 6; the closed-form checks stay
        max_error = checks.ANNULUS_MAX
        if smoke:
            base.update(jrho=16, jg=16, mv=1, nx1=8, nx2=8, nv=8)
            max_error = 1.0

        def check(result):
            return checks.check_annulus_dump(
                result.field_rows, result.report["error"], max_error)

        return [(f"ex6 eps={eps:g} {act}",
                 cli.RunConfig(epsilon=eps, activation=act, **base), check)
                for eps, act in ((1.0, "tanh"), (5e-3, "sine-pi"))]


class OracleWorkload(RunsWorkload):
    """Problems scored against the discrete-ordinates oracle."""

    name = "oracle"

    def make_configs(self, seed, smoke):
        slab = dict(method="aprfm", jrho=32, jg=64, mx=2, mv=4, nx=64,
                    nv=128)
        # ex3 needs the larger model to stay within criterion 7 on every
        # seed (the smaller one reaches 0.083 on seed 11)
        mixed = dict(slab, jrho=64, jg=128)
        square = dict(method="aprfm", jrho=32, jg=64, mv=4, nx1=16, nx2=16,
                      nv=32)
        if smoke:
            tiny = dict(slab, jrho=16, jg=16, mx=1, mv=2, nx=32, nv=32)
            return [(f"ex2 eps=1 seed={s}",
                     cli.RunConfig(problem="ex2", epsilon=1.0, seed=s,
                                   **tiny),
                     self._check_slab("ex2"))
                    for s in (seed, seed + 1)]
        return [
            ("ex2 eps=0.1", cli.RunConfig(problem="ex2", epsilon=1e-1,
                                          seed=seed, **slab),
             self._check_slab("ex2")),
            ("ex3 profile seed+0", cli.RunConfig(
                problem="ex3", epsilon="profile", seed=seed, **mixed),
             self._check_slab("ex3")),
            ("ex3 profile seed+1", cli.RunConfig(
                problem="ex3", epsilon="profile", seed=seed + 1, **mixed),
             self._check_slab("ex3")),
            ("ex5 eps=1", cli.RunConfig(problem="ex5", epsilon=1.0,
                                        seed=seed, **square),
             self._check_square),
        ]

    @staticmethod
    def _check_slab(problem):
        def check(result):
            return checks.check_slab_oracle(problem, result.field_rows,
                                            result.report["error"])
        return check

    @staticmethod
    def _check_square(result):
        return checks.check_square_oracle(result.field_rows,
                                          result.report["error"])


WORKLOADS = {cls.name: cls for cls in
             (TablesWorkload, AnnulusWorkload, OracleWorkload)}
