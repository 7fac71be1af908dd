"""Benchmark entry point: run one workload of the aprfm benchmark and print
its result as the last line of standard output.

    python3 perfbench/run.py --workload tables-1d --seed 0 --seconds 20 \\
        --trace 0

Run from the root of a source tree (``src/aprfm`` is imported from there;
nothing needs installing).  With ``--trace 0`` the result carries the
end-to-end metrics (``setup_s``, ``wall_s``, ``peak_rss_mb``); with
``--trace 1`` the per-layer metrics, both as ``BENCHMARK.json`` names
them.  ``--smoke`` swaps in tiny configurations for the benchmark's own
tests.  Per-configuration records (name, error, failed checks) come before
the result line.  See README.md.

This file imports nothing but the standard library: the workload runs in a
child process (``worker.py``), so set-up time and peak memory are those of
a fresh process, as on every command-line call.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tables-1d", "annulus-2d", "oracle")
SETUP_SAMPLES = 3  # the workload process plus two set-up-only processes
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))
TIMEOUT_S = 175.0
WORK_ROOT = os.path.join(HERE, ".work")  # sweep outputs and saved spans


class BenchError(RuntimeError):
    pass


def _environment():
    env = dict(os.environ)
    env.pop("APRFM_THREADS", None)  # sweeps stay serial
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), HERE]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _start(args, workdir, setup_only):
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    if args.trace:
        command += ["--spans", os.path.join(
            WORK_ROOT, f"spans-{args.workload}-seed{args.seed}.jsonl")]
    if args.smoke:
        command.append("--smoke")
    if setup_only:
        command.append("--setup-only")
    return subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, env=_environment())


def _worker(args, workdir, setup_only, deadline):
    """Run one worker; returns (set-up seconds, records, result)."""
    start = time.perf_counter()
    proc = _start(args, workdir, setup_only)
    timer = threading.Timer(max(0.0, deadline - start), proc.kill)
    timer.start()
    setup_s, records, result = None, [], None
    try:
        for line in proc.stdout:
            if setup_s is None and line.strip() == "READY":
                setup_s = time.perf_counter() - start
            elif line.startswith("{"):
                obj = json.loads(line)
                if "result" in obj:
                    result = obj["result"]
                else:
                    records.append(obj)
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        code = proc.wait()
        proc.stdout.close()
    if code != 0 or setup_s is None or (result is None and not setup_only):
        raise BenchError(f"worker exited with code {code}")
    return setup_s, records, result


def run(args):
    if not os.path.isfile(os.path.join(ROOT, "src", "aprfm", "__init__.py")):
        raise BenchError(f"no aprfm sources under {ROOT}/src")
    deadline = time.perf_counter() + TIMEOUT_S
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup.append(_worker(args, workdir, True, deadline)[0])
        setup_s, records, result = _worker(args, workdir, False, deadline)
        setup.append(setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for record in records:
        print(json.dumps(record))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    if args.trace:
        names, values = declared["per_layer"], result["metrics"]
    else:
        names = declared["end_to_end"]
        values = dict(result, setup_s=statistics.median(setup))
    return {"correct": result["wrong"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]],
                                    "unit": m["unit"]} for m in names}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configurations, for the benchmark's tests")
    args = parser.parse_args(argv)
    try:
        summary = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
