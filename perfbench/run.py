"""Benchmark entry point for definetti.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from a source checkout; nothing needs building, the package is taken
from src/ through PYTHONPATH.  With --trace 0 it measures the end-to-end
metrics: `pass_rel`, the median wall time of one pass over the
workload's fixed operations, in units of a fixed stdlib reference
computation timed beside it on the same CPU (speed.py); `setup_s`, the
median time of fresh interpreters that import `definetti` and
`definetti.verify`, measured the same way and given in seconds at the
nominal speed of speed.py; and `peak_rss_mb`, the peak resident memory of
the workload's processes.  Both times in wall seconds are in the run
record, as quartiles.  With --trace 1 it
reports the per-layer metrics of tracer.py from in-process passes instead.

Workloads run one at a time, in one workload process (worker.py), closed
loop with a single client.  The last line of stdout is the result
object; the line before it is the run record (machine, versions, source
digest, seed, sample counts).  Spans of traced runs go to perfbench/out/.
Exit code 0 when the benchmark ran (check "correct" for the outcome), 2
when there is no source tree to run, 1 when a process failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEADLINE_S = 170


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_revision() -> str | None:
    """HEAD of the checkout's own .git, if it has one (no parent lookup)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def numpy_version() -> str | None:
    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return None


def quartiles(xs: list[float]) -> list[float]:
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    started = perf_counter()

    src = ROOT / "src"
    if not (src / "definetti" / "__init__.py").is_file():
        print(f"run.py: no definetti source tree under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
    }
    worker = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        if args.trace:
            spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            spans.parent.mkdir(exist_ok=True)
            worker += ["--spans", str(spans)]
            record["spans_file"] = spans.relative_to(ROOT).as_posix()
        # its own process group, so that a timeout also ends the command it runs
        with subprocess.Popen(
            worker, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
        ) as proc:
            try:
                stdout, _ = proc.communicate(timeout=max(1.0, DEADLINE_S - (perf_counter() - started)))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
    except subprocess.TimeoutExpired as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"run.py: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    out = json.loads(stdout.splitlines()[-1])

    record["passes"] = len(out["pass_s"])
    record["pass_s_quartiles"] = quartiles(out["pass_s"])
    record["fail_frac"] = out["failed"] / out["attempted"]
    if args.trace:
        units = dict(METRICS)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in out["layers"].items()}
        record["trace.overhead_frac"] = out["layers"]["trace.overhead_frac"]
        record["traced_passes"] = len(out["traced_pass_s"])
        record["absent_metrics"] = out["absent"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(out["setup_s"]), "unit": "s"},
            "pass_rel": {"value": statistics.median(out["pass_rel"]), "unit": "ref"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
        }
        record["setup_s_quartiles"] = quartiles(out["setup_s"])
        record["setup_wall_s_quartiles"] = quartiles(out["setup_wall_s"])
        record["pass_rel_quartiles"] = quartiles(out["pass_rel"])
        record["ref_iteration_s"] = out["ref_iteration_s"]
        record["op_median_s"] = out["op_median_s"]
        record["trace.overhead_frac"] = None
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
