"""Acceptance gate: fourteen numbered end-to-end checks at pinned tolerances.

Each check prints one [PASS]/[FAIL] line (run pytest -s to see them all)
and enforces its runtime budget where one is pinned.  A criterion that
shares a property with `definetti verify` calls the same check function
from `definetti.verify`, at the criterion's own ranges.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from definetti import su2_cg, symmetric, verify
from definetti.cli import figure_spec, figure_values, main, render_csv
from definetti.heisenberg import coherent_bound
from definetti.oracle import mc_theorem1
from definetti.report import DeltaReport
from definetti.su2_cg import TwoJ, cg, delta_su2
from definetti.symmetric import SymTriple, dim_sym


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {label}")
        raise
    print(f"[PASS] criterion {num}: {label}")


def test_criterion_01_aligned_overlap_closed_form():
    with criterion(1, "top-block overlap is (2j2+1)/(2j+1), exactly"):
        t0 = time.perf_counter()
        assert delta_su2(Fraction(1, 2), Fraction(1, 2), 1, Fraction(1, 2), 0).delta == Fraction(2, 3)
        verify.aligned_block_overlap(40)
        assert time.perf_counter() - t0 < 10


def test_criterion_02_first_figure_anchor():
    with criterion(2, "figure 1 grid emits 1 - 201/401 at j=200, r=0, near 0.5"):
        t0 = time.perf_counter()
        spec = figure_spec(1, {})
        header, curves = figure_values(spec)
        text = render_csv(header, curves, spec.r_max)
        assert time.perf_counter() - t0 < 30
        assert header[1:] == [f"j={v}" for v in range(190, 201)]
        assert len(curves[0]) == 41
        col = header.index("j=200")
        assert curves[col - 1][0] == 1 - Fraction(201, 401)
        cell = text.split("\n")[1].split(",")[col]
        assert cell == "0.498753117207"
        assert abs(float(cell) - 0.5) <= 0.005


def test_criterion_03_second_figure_vanishes_inside_radius():
    with criterion(3, "figure 2 columns hit exact 0 once r reaches j"):
        t0 = time.perf_counter()
        spec = figure_spec(2, {})
        header, curves = figure_values(spec)
        assert header[1:] == [f"j={v}" for v in range(0, 31)]
        for label, col in zip(header[1:], curves):
            j = int(label.removeprefix("j="))
            for r, cell in enumerate(col):
                if r >= j:
                    assert cell == 0
                    assert isinstance(cell, (Fraction, int))
        assert time.perf_counter() - t0 < 60


def test_criterion_04_zero_radius_identity():
    with criterion(4, "epsilon at r=0 is twice the dimension-ratio deficit"):
        verify.zero_radius_identity(60, 6)


def test_criterion_05_sum_closed_form_and_recursion():
    with criterion(5, "closed-form tail sum matches the direct sum and its recursion"):
        verify.tail_sum_closed_form(60)
        verify.tail_sum_recursion(60)


def test_criterion_06_exponential_bound_chain():
    with criterion(6, "epsilon/2 <= intermediate <= headline/2; d=2 closed form exact"):
        verify.bound_chain(60, 5)
        verify.d2_exact_error(60)


def test_criterion_07_dense_projector_oracle():
    with criterion(7, "projector overlap equals 1 - epsilon/2 exactly"):
        t0 = time.perf_counter()
        verify.dense_projector_oracle(((2, 12), (3, 8), (5, 8), (2, 30)))
        assert time.perf_counter() - t0 < 300


def test_criterion_08_coupling_table_oracle():
    with criterion(8, "ladder-built coupling tables match the closed form"):
        verify.cg_oracle_match(24)
        verify.cg_rows_orthonormal(range(0, 13))
        verify.cg_columns_complete(range(0, 13))


def test_criterion_09_oscillator_oracle():
    with criterion(9, "truncated oscillator oracle matches the number-window formula"):
        pairs = list(product(range(1, 11), repeat=2))
        verify.fock_oracle(pairs, 5, 10)
        verify.vacuum_annihilation(pairs, 5)
        verify.tower_orthonormal(pairs, 5, 12, 60)
        verify.geometric_closed_form(pairs, 10)


def test_criterion_10_coherent_splitting_bound():
    with criterion(10, "coherent splitting bound is the zero-offset oscillator bound"):
        assert coherent_bound(100, 10, 0) == Fraction(1, 5)
        assert float(coherent_bound(100, 10, 0)) == 0.2
        verify.coherent_consistency(200, (0, 1, 2, 3))


def test_criterion_11_monte_carlo_inequality():
    with criterion(11, "quadrature mixtures respect the reconstruction inequality"):
        t0 = time.perf_counter()
        # 2 QUAD_N - 1 >= n - k in every cell, so the unprojected mixture is exact
        for n, k in ((4, 2), (8, 3), (12, 4), (16, 5)):
            for rep in mc_theorem1(n, k, tuple(range(k + 1)), 1):
                assert rep.passed, rep
                assert rep.identity_residual <= 1e-12, rep
        assert time.perf_counter() - t0 < 120


def test_criterion_12_up_window_covers_coupled_block():
    with criterion(12, "coupled-block weights sit in the radius window above the bottom"):
        verify.up_window_covers_coupled_block(range(0, 21))


def _epsilon_sum_shifted(t: SymTriple) -> Fraction:
    # same shape as the shipped formula, with the lower summation limit off by one
    ratio = Fraction(dim_sym(t.n - t.k, t.d), dim_sym(t.n, t.d))
    total = Fraction(0)
    for i in range(t.r + 2, t.k + 1):
        total += Fraction(comb(t.k, i), comb(t.n, i)) * comb(i + t.d - 2, i)
    return 2 * ratio * total


def _delta_su2_unscaled(j1, j2, j, m2, r: int, direction: str = "down") -> DeltaReport:
    # same window sum as the shipped formula, dimension prefactor dropped
    tj1 = su2_cg.as_twoj(j1).doubled
    tj2, tm2 = su2_cg.as_twoj(j2).doubled, su2_cg.as_twoj(m2).doubled
    tj = su2_cg.as_twoj(j).doubled
    total = Fraction(0)
    for i in range(r + 1):
        tm1 = tj1 - 2 * i if direction == "down" else -tj1 + 2 * i
        if abs(tm1) > tj1:
            continue
        tm = tm1 + tm2
        if abs(tm) > tj:
            continue
        total += cg(TwoJ(tj1), TwoJ(tm1), TwoJ(tj2), TwoJ(tm2), TwoJ(tj), TwoJ(tm)).square()
    return DeltaReport.from_delta(
        total, formula_id=f"su2-cg-window/{direction}", psi_label="mutant"
    )


def test_criterion_13_mutation_sensitivity(capsys):
    with criterion(13, "verify all flags a shifted sum limit or a dropped prefactor"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(symmetric, "epsilon", _epsilon_sum_shifted)
            assert main(["verify", "all"]) == 1
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(su2_cg, "delta_su2", _delta_su2_unscaled)
            assert main(["verify", "all"]) == 1
        assert main(["verify", "all"]) == 0  # pristine modules pass again
        capsys.readouterr()


def _bridge_a(n: int, k: int, d: int, r: int) -> None:
    # j1 = (k+d-2)/2, j2 = m2 = (n-k+d-2)/2 and j = n/2 give a = d - 2,
    # J = n + d - 1, 2j2 + 1 = n - k + d - 1 and r + d - 1 window terms:
    # epsilon's urn with the drawn and the marked balls swapped
    tj2 = n - k + d - 2
    window = delta_su2(TwoJ(k + d - 2), TwoJ(tj2), TwoJ(n), TwoJ(tj2), r + d - 2)
    assert symmetric.epsilon(SymTriple(n, k, d, r)) == 2 * (1 - window.delta), (n, k, d, r)


def test_criterion_14_symmetric_error_is_a_coupling_window():
    with criterion(14, "epsilon(n, k, d, r) is 2(1 - delta_su2) of its coupling window"):
        for n in range(1, 36):
            for k in range(1, n + 1):
                for d in range(2, 7):
                    for r in range(k + 1):
                        _bridge_a(n, k, d, r)
        for r in range(201):  # figure 1's j = 200 column
            _bridge_a(400, 200, 2, r)
        t0 = time.perf_counter()
        _bridge_a(20000, 10000, 4, 100)
        assert time.perf_counter() - t0 < 1
