"""The benchmark's workloads: their operations, inputs and reference outputs.

An operation is one figure command, one coupling table, or one `verify
all` run (which counts as its 31 checks).  Every operation checks its own
output and returns how many of its units failed; an operation that raises
fails all of its units.  Operations run either as a fresh `definetti`
process, as a user runs them, or in the calling process through the same
entry point, where a tracer can see every call.
"""

from __future__ import annotations

import hashlib
import io
import os
import random
import subprocess
import sys
import threading
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

# the console script `definetti`, run from the source tree
ENTRY = "import sys; from definetti.cli import main; sys.exit(main())"
OP_TIMEOUT_S = 120

# sha256 of the default `definetti figure N` CSV bytes
FIGURE_SHA256 = {
    1: "4caf5a7cc58ffcf86b1b5eb00be647e08e4fb0b0ab5238c59c59a0076c9d5f2c",
    2: "908d523f77f887493533a12d0aa1986ff527fc73c7f368851ddfb9beabf4db3b",
    3: "af146c8dbf4018421b57251ef0066237ffcd828dc68e3d4968dca2f630d8b4c9",
}

VERIFY_CHECKS = 31
VERIFY_VERDICT = f"{VERIFY_CHECKS}/{VERIFY_CHECKS} checks passed"

# coupling tables for every (2j1, 2j2) in 0..CG_MAX_TWOJ: 121 tables,
# 20,240 entries, 1.8 to 3 s per pass on a 2-vCPU Xeon VM
CG_MAX_TWOJ = 10


@dataclass(frozen=True)
class Op:
    """One operation: `run(in_process)` returns its failed units."""

    label: str
    units: int
    run: Callable[[bool], int]


# the largest peak resident memory, in KiB, of the `definetti` processes
# that `cli` ran
child_peak_kib = 0


def run_child(cmd: list[str]) -> tuple[int, bytes, int]:
    """Run a process to its end; return its exit code, its stdout and its
    peak resident memory in KiB.

    It is waited for without a timeout, because `subprocess` polls a
    timed wait at up to 50 ms intervals, which would quantise the timings;
    a timer kills it after OP_TIMEOUT_S instead.
    """
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as proc:
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
    return proc.returncode, out, usage.ru_maxrss


def cli(argv: list[str], in_process: bool) -> tuple[int, bytes]:
    """Run the `definetti` command line; return its exit code and stdout."""
    if in_process:
        from definetti import cli as cli_module

        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli_module.main(list(argv))
        return code, out.getvalue().encode()
    global child_peak_kib
    code, out, peak_kib = run_child([sys.executable, "-c", ENTRY, *argv])
    child_peak_kib = max(child_peak_kib, peak_kib)
    return code, out


def _figure(fig: int) -> Op:
    def run(in_process: bool) -> int:
        code, out = cli(["figure", str(fig)], in_process)
        return int(code != 0 or hashlib.sha256(out).hexdigest() != FIGURE_SHA256[fig])

    return Op(f"figure {fig}", 1, run)


def _verify_all(seed: int) -> Op:
    def run(in_process: bool) -> int:
        code, out = cli(["verify", "all", "--seed", str(seed)], in_process)
        lines = out.decode(errors="replace").splitlines()
        passed = sum(line.startswith("[PASS] ") for line in lines)
        failed = VERIFY_CHECKS - min(passed, VERIFY_CHECKS)
        if not failed and (code != 0 or lines[-1:] != [VERIFY_VERDICT]):
            failed = 1
        return failed

    return Op("verify all", VERIFY_CHECKS, run)


def table_entries(tj1: int, tj2: int) -> int:
    """Entries (j, m, m1) of the j1 x j2 coupling table, counted directly."""
    count = 0
    for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
        for tm in range(-tj, tj + 1, 2):
            count += sum(abs(tm - tm1) <= tj2 for tm1 in range(-tj1, tj1 + 1, 2))
    return count


def _cg_table(tj1: int, tj2: int) -> Op:
    want_entries = table_entries(tj1, tj2)

    def run(in_process: bool) -> int:
        from definetti import oracle, su2_cg
        from definetti.su2_cg import TwoJ

        table = oracle.cg_oracle(TwoJ(tj1), TwoJ(tj2))
        bad = len(table) != want_entries
        for (tj, tm, tm1), value in table.items():
            closed = su2_cg.cg(TwoJ(tj1), TwoJ(tm1), TwoJ(tj2), TwoJ(tm - tm1), TwoJ(tj), TwoJ(tm))
            bad |= closed != value
        return int(bad)

    return Op(f"cg table 2j1={tj1} 2j2={tj2}", 1, run)


def operations(workload: str, seed: int) -> list[Op]:
    """The fixed operations of one pass, made from the seed."""
    if workload == "figures":
        return [_figure(fig) for fig in sorted(FIGURE_SHA256)]
    if workload == "cg-oracle":
        pairs = [(a, b) for a in range(CG_MAX_TWOJ + 1) for b in range(CG_MAX_TWOJ + 1)]
        random.Random(seed).shuffle(pairs)
        return [_cg_table(a, b) for a, b in pairs]
    if workload == "verify-all":
        return [_verify_all(seed)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("figures", "cg-oracle", "verify-all")

# cg-oracle is an in-process sweep by definition; the others are commands
IN_PROCESS = {"cg-oracle"}


@dataclass
class PassResult:
    seconds: float
    attempted: int
    failed: int
    op_seconds: list[float]


def run_pass(ops: list[Op], in_process: bool, tracer=None) -> PassResult:
    """Run every operation once, in order; failed operations stay timed."""
    attempted = failed = 0
    op_seconds = []
    t0 = perf_counter()
    for op in ops:
        t_op = perf_counter()
        try:
            if tracer is None:
                bad = op.run(in_process)
            else:
                with tracer.span(f"bench.op {op.label}"):
                    bad = op.run(in_process)
        except Exception:  # a failed operation must not stop the pass
            print(f"{op.label}: {traceback.format_exc(limit=-1).strip()}", file=sys.stderr)
            bad = op.units
        op_seconds.append(perf_counter() - t_op)
        attempted += op.units
        failed += min(bad, op.units)
    return PassResult(perf_counter() - t0, attempted, failed, op_seconds)
