"""The workload process: runs one workload's passes and prints JSON.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 [--spans PATH]

`definetti` must be importable (run.py puts the source tree on
PYTHONPATH).  Untraced, it repeats full passes while one more still
ends within S seconds (there is at least one), in the way the workload is defined: figure and verify commands as
fresh processes, the coupling-table sweep in this process.  This process
and every process it starts run on one CPU, beside the speed sampler of
speed.py, which gives each pass its time in reference iterations.
SETUP_PROBES fresh interpreters that import the package are timed the
same way (reported in nominal seconds) between passes, spread over the
run.  Traced, every
pass runs in this process: one untimed warm-up pass, then untraced and
traced passes in turn, so that the tracing overhead is measured on warm
caches on both sides.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter

from speed import REF_ITERATION_S, SpeedSampler
import workloads
from tracer import Tracer, median_metrics
from workloads import IN_PROCESS, WORKLOADS, operations, run_child, run_pass

SETUP_PROBES = 9
SETUP_CODE = "import definetti, definetti.verify"


def peak_rss_mb() -> float:
    """Of this process and the operations' processes; not of the set-up
    probes or the speed sampler."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, workloads.child_peak_kib) / 1024


def setup_probe() -> float:
    """Wall time of a fresh interpreter importing definetti and its verify
    module (and with it numpy)."""
    t0 = perf_counter()
    code, _, _ = run_child([sys.executable, "-c", SETUP_CODE])
    if code != 0:
        raise RuntimeError(f"importing the package failed with exit code {code}")
    return perf_counter() - t0


def untraced(ops, in_process: bool, seconds: float, speed: SpeedSampler) -> dict:
    setup_probe()  # writes the bytecode cache; not counted
    results, rel, setup_wall, setup_rel = [], [], [], []

    def probe() -> None:
        _, wall, ref = speed.timed(setup_probe)
        setup_wall.append(wall)
        setup_rel.append(ref)

    start = perf_counter()
    while not results or perf_counter() - start + results[-1].seconds < seconds:
        due = SETUP_PROBES * (perf_counter() - start) / seconds
        while len(setup_rel) < SETUP_PROBES and len(setup_rel) <= due:
            probe()
        result, _, ref = speed.timed(lambda: run_pass(ops, in_process))
        results.append(result)
        rel.append(ref)
    while len(setup_rel) < SETUP_PROBES:
        probe()
    iterations, cpu = speed.read()
    return {
        "setup_s": [ref * REF_ITERATION_S for ref in setup_rel],
        "setup_wall_s": setup_wall,
        "pass_s": [r.seconds for r in results],
        "pass_rel": rel,
        "ref_iteration_s": cpu / iterations,
        "op_median_s": {
            op.label: statistics.median(r.op_seconds[i] for r in results) for i, op in enumerate(ops)
        },
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "peak_rss_mb": peak_rss_mb(),
    }


def traced(ops, seconds: float, spans_path: str) -> dict:
    tracer = Tracer()
    results = [run_pass(ops, True)]  # warm-up: fills the package's caches
    plain, timed, layers = [], [], []
    start = perf_counter()
    with open(spans_path, "w") as fh:
        # pairs of passes while one more pair still ends within the run
        while not timed or perf_counter() - start + plain[-1].seconds + timed[-1].seconds < seconds:
            plain.append(run_pass(ops, True))
            tracer.reset()
            with tracer.installed(), tracer.span("bench.pass"):
                timed.append(run_pass(ops, True, tracer=tracer))
            layers.append(tracer.pass_metrics())
            tracer.write_spans(fh, len(timed) - 1)
    results += plain + timed
    metrics = median_metrics(layers)
    metrics["trace.overhead_frac"] = (
        statistics.median(r.seconds for r in timed) / statistics.median(r.seconds for r in plain) - 1
    )
    return {
        "layers": metrics,
        "absent": tracer.absent(),
        "pass_s": [r.seconds for r in plain],
        "traced_pass_s": [r.seconds for r in timed],
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", help="JSON-lines file for the traced passes' spans")
    args = parser.parse_args()
    if args.trace and not args.spans:
        parser.error("--trace 1 needs --spans")
    ops = operations(args.workload, args.seed)
    if args.trace:
        out = traced(ops, args.seconds, args.spans)
    else:
        # one CPU for this process, the processes it starts and the sampler
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        with SpeedSampler() as speed:
            out = untraced(ops, args.workload in IN_PROCESS, args.seconds, speed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
