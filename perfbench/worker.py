"""One benchmark process: set up, run whole rounds of a workload, check
every output, and print one JSON result line.

Started by ``run.py`` with ``src`` on the import path.  It prints ``READY``
as soon as numpy, scipy and ``aprfm`` are imported and the workload's
problem specs and quadrature rules are built; ``run.py`` times set-up up to
that line.  With ``--setup-only`` it stops there.

Untraced, it repeats rounds while the next one is expected to end within
``--seconds`` (at least one round) and reports the median round time and
the peak resident memory.  Traced, it runs one untraced round and then
traced rounds, and reports per-layer figures from the spans.
"""

import argparse
import json
import logging
import resource
import statistics
import sys
import time

from tracer import Tracer
from workloads import WORKLOADS  # imports aprfm.cli, numpy and scipy

MB = 1e6


def _emit(obj):
    print(json.dumps(obj), flush=True)


def _timed_round(workload):
    start = time.perf_counter()
    outputs = workload.run_round()
    return time.perf_counter() - start, outputs


class Tally:
    """Configurations attempted, failed (an exception or a failed check),
    and wrong (a failed check on a configuration that ran)."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.rounds = 0

    def add(self, outcomes):
        for outcome in outcomes:
            _emit(outcome.record(self.rounds))
            self.attempted += 1
            self.failed += bool(outcome.problems)
            self.wrong += bool(outcome.problems) and not outcome.raised
        self.rounds += 1

    def as_dict(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "wrong": self.wrong}


# -- per-layer figures from one traced round --------------------------------

# Self time of each span name counts toward one metric; a name not listed
# counts toward its layer's default.
SELF_TIME_METRIC = {
    "basis.make_model": "basis.make_model_s",
    "basis.uniform_partition": "basis.make_model_s",
    "basis.model_values": "basis.model_values_s",
    "assemble.rescale_rows": "assemble.rescale_s",
    "assemble.reconstruct_f": "assemble.reconstruct_f_s",
    "reference.fdm_reference": "reference.oracle_s",
    "reference.fdm_density": "reference.oracle_s",
    "reference.exact_field": "reference.oracle_s",
    "reference.reference_f": "reference.oracle_s",
    "reference.reference_rho": "reference.oracle_s",
}
LAYER_DEFAULT = {
    "basis": "basis.columns_s",
    "collocation": "collocation.build_s",
    "assemble": "assemble.assemble_s",
    "solve": "solve.lstsq_s",
    "reference": "reference.density_field_s",
    "cli": "cli.self_s",
}
ORACLE_SPANS = ("reference.fdm_reference", "reference.fdm_density")
ASSEMBLY_SPANS = ("assemble.assemble_rfm", "assemble.assemble_aprfm")


def _observe_model_values(span, args, kwargs, result):
    span.info["points"] = len(result)


def _observe_assembly(span, args, kwargs, result):
    span.info["rows"], span.info["cols"] = result.matrix.shape


def _observe_lstsq(span, args, kwargs, result):
    span.info["rank"] = result.rank


def _observe_oracle(span, args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    # ex3 carries its own fixed profile; other problems are set by eps
    scale = (float(spec.epsilon) if spec.epsilon_is_constant else "profile")
    span.info["key"] = f"{span.name}/{spec.id}/{scale!r}"


OBSERVERS = {"basis.model_values": _observe_model_values,
             "assemble.assemble_rfm": _observe_assembly,
             "assemble.assemble_aprfm": _observe_assembly,
             "solve.lstsq": _observe_lstsq,
             "reference.fdm_reference": _observe_oracle,
             "reference.fdm_density": _observe_oracle}


class _SweepCounter(logging.Handler):
    """Source-iteration sweep counts from the ``aprfm.reference`` records."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.sweeps = 0

    def emit(self, record):
        if "source iteration converged" in str(record.msg):
            self.sweeps += int(record.args[1])


def layer_metrics(spans, sweeps, wall):
    """Per-layer figures of one traced round of ``wall`` seconds."""
    metrics = {name: 0.0 for name in
               set(SELF_TIME_METRIC.values()) | set(LAYER_DEFAULT.values())}
    for span in spans:
        key = SELF_TIME_METRIC.get(span.name,
                                   LAYER_DEFAULT[span.name.split(".")[0]])
        metrics[key] += span.self_s

    def of(names):
        return [s for s in spans if s.name in names]

    assembly = of(ASSEMBLY_SPANS)
    oracle = of(ORACLE_SPANS)
    solves = of(("solve.lstsq",))
    accounted = sum(s.self_s for s in spans)
    metrics.update({
        "assemble.alloc_peak_mb": max(s.alloc_peak_bytes for s in assembly)
        / MB,
        "assemble.matrix_mb": max(s.info["rows"] * s.info["cols"] * 8
                                  for s in assembly) / MB,
        "assemble.rows": sum(s.info["rows"] for s in assembly),
        "assemble.cols": sum(s.info["cols"] for s in assembly),
        "solve.alloc_peak_mb": max(s.alloc_peak_bytes for s in solves) / MB,
        "solve.rank": sum(s.info["rank"] for s in solves),
        "basis.eval_points": sum(s.info["points"]
                                 for s in of(("basis.model_values",))),
        "reference.oracle_sweeps": sweeps,
        "reference.oracle_solves": len(oracle),
        "reference.oracle_distinct": len({s.info["key"] for s in oracle}),
        "trace.wall_s": wall,
        "trace.unaccounted_s": wall - accounted,
    })
    metrics["reference.oracle_useful_ratio"] = (
        metrics["reference.oracle_distinct"] / len(oracle) if oracle
        else 1.0)
    return metrics


def traced_round(workload):
    """Run one round with every layer traced; returns (wall, outputs,
    tracer, sweep count)."""
    counter = _SweepCounter()
    logger = logging.getLogger("aprfm.reference")
    level = logger.level
    logger.setLevel(logging.INFO)
    logger.addHandler(counter)
    tracer = Tracer(OBSERVERS, untracked=ORACLE_SPANS)
    try:
        with tracer.installed():
            wall, outputs = _timed_round(workload)
    finally:
        logger.removeHandler(counter)
        logger.setLevel(level)
    return wall, outputs, tracer, counter.sweeps


# -- main ---------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="where a traced run saves its spans")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.workdir,
                                        smoke=args.smoke)
    workload.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    start = time.perf_counter()
    tally = Tally()

    def fits(round_times):
        expected = statistics.median(round_times)
        return time.perf_counter() - start + expected <= args.seconds

    untraced = []
    while True:
        wall, outputs = _timed_round(workload)
        untraced.append(wall)
        tally.add(workload.check(outputs))
        if args.trace or not fits(untraced):
            break

    result = tally.as_dict()
    if not args.trace:
        result["wall_s"] = statistics.median(untraced)
        result["rounds"] = len(untraced)
        result["peak_rss_mb"] = (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss * 1024 / MB)
        _emit({"result": result})
        return 0

    traced = []
    while True:
        wall, outputs, tracer, sweeps = traced_round(workload)
        tally.add(workload.check(outputs))
        traced.append(layer_metrics(tracer.spans, sweeps, wall))
        if not fits([m["trace.wall_s"] for m in traced]):
            break
    if args.spans:
        tracer.write(args.spans)
    # counts repeat exactly from round to round; times take the median
    metrics = {name: (traced[-1][name] if isinstance(traced[-1][name], int)
                      else statistics.median(m[name] for m in traced))
               for name in traced[0]}
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                   - statistics.median(untraced))
    result = dict(tally.as_dict(), rounds=len(traced), metrics=metrics)
    _emit({"result": result})
    return 0


if __name__ == "__main__":
    sys.exit(main())
