"""Tests of the benchmark itself: its correctness gate and its tracer.

Run from the repository root with the package importable, e.g.
`PYTHONPATH=src python -m pytest perfbench/tests`.
"""

import json
import os
import sys
from fractions import Fraction
from math import comb
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

from speed import MIN_ITERATIONS, SpeedSampler  # noqa: E402
from tracer import METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, operations, run_pass  # noqa: E402

from definetti import cli, su2_cg, symmetric  # noqa: E402
from definetti.report import DeltaReport  # noqa: E402
from definetti.symmetric import SymTriple, dim_sym  # noqa: E402

def _epsilon_sum_shifted(t: SymTriple) -> Fraction:
    # the shipped sum with its lower limit off by one
    ratio = Fraction(dim_sym(t.n - t.k, t.d), dim_sym(t.n, t.d))
    total = Fraction(0)
    for i in range(t.r + 2, t.k + 1):
        total += Fraction(comb(t.k, i), comb(t.n, i)) * comb(i + t.d - 2, i)
    return 2 * ratio * total


_delta_su2 = su2_cg.delta_su2


def _delta_su2_unscaled(j1, j2, j, m2, r, direction="down"):
    # the shipped window sum without its (2j2+1)/(2j+1) prefactor
    rep = _delta_su2(j1, j2, j, m2, r, direction)
    scale = Fraction(su2_cg.as_twoj(j).doubled + 1, su2_cg.as_twoj(j2).doubled + 1)
    return DeltaReport.from_delta(rep.delta * scale, rep.formula_id, "mutant")


def _fail_frac(workload: str) -> float:
    result = run_pass(operations(workload, 0), in_process=True)
    return result.failed / result.attempted


def test_pristine_workloads_pass():
    for workload in ("figures", "verify-all"):
        assert _fail_frac(workload) == 0, workload


def test_shifted_epsilon_fails_verify_all(monkeypatch):
    monkeypatch.setattr(symmetric, "epsilon", _epsilon_sum_shifted)
    assert _fail_frac("verify-all") > 0


def test_unscaled_delta_su2_fails_verify_all_and_figures(monkeypatch):
    # cli binds delta_su2 by import, so the figures see the mutant only there
    monkeypatch.setattr(su2_cg, "delta_su2", _delta_su2_unscaled)
    assert _fail_frac("verify-all") > 0
    monkeypatch.setattr(cli, "delta_su2", _delta_su2_unscaled)
    result = run_pass(operations("figures", 0), in_process=True)
    assert result.failed == result.attempted == 3


def test_wrong_coupling_entry_fails_cg_oracle(monkeypatch):
    def cg_negated(*args):
        return -_cg(*args)

    _cg = su2_cg.cg
    monkeypatch.setattr(su2_cg, "cg", cg_negated)
    op = next(op for op in operations("cg-oracle", 0) if op.label == "cg table 2j1=2 2j2=1")
    assert op.run(True) == 1


def test_traced_pass_self_time_and_restore():
    tracer = Tracer()
    t0 = perf_counter()
    with tracer.installed():
        patches = tracer.patches
        with tracer.span("bench.pass"):
            result = run_pass(operations("figures", 0)[1:2], True, tracer=tracer)
    wall = perf_counter() - t0
    assert result.failed == 0
    assert 0 < tracer.self_seconds() <= wall
    assert patches, "nothing was traced"
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"
    metrics = tracer.pass_metrics()
    assert metrics["su2_cg.racah_terms"] > 0
    assert metrics["cli.main.s"] > 0
    for name, value in metrics.items():
        if name.startswith(("exact.", "radicals.")):
            assert value == 0, name
    assert tracer.absent() == []


def test_tracer_wraps_names_bound_by_import():
    with Tracer().installed():
        assert cli.delta_su2 is su2_cg.delta_su2
        assert cli.delta_su2 is not _delta_su2
        assert getattr(cli.delta_su2, "__wrapped__", None) is _delta_su2
    assert cli.delta_su2 is _delta_su2


def test_benchmark_json_matches_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(METRICS)
    assert spec["paths"] == ["perfbench"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_operations_depend_only_on_seed(workload):
    labels = [op.label for op in operations(workload, 7)]
    assert labels == [op.label for op in operations(workload, 7)]
    assert sorted(labels) == sorted(op.label for op in operations(workload, 8))


def test_speed_sampler_counts_and_stops():
    sampler = SpeedSampler().start()
    pid = sampler._pid
    try:
        before = sampler.read()
        _, wall, ref = sampler.timed(lambda: sum(i * i for i in range(10_000)))
        after = sampler.read()
    finally:
        sampler.stop()
    assert after[0] >= before[0] + MIN_ITERATIONS and after[1] > before[1]
    assert wall > 0 and ref > 0
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
